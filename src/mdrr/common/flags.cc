#include "mdrr/common/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "mdrr/common/string_util.h"

namespace mdrr {
namespace {

// The whole (stripped) text as an Int; false on anything else, including
// a value outside Int's own range.
template <typename Int>
bool ParseInteger(std::string_view text, Int* value) {
  const std::string_view digits = StripWhitespace(text);
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, *value);
  return !digits.empty() && ec == std::errc() && ptr == end;
}

std::string Range(double min, double max) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "[%g, %g]", min, max);
  return buffer;
}

template <typename Int>
std::string Range(Int min, Int max) {
  return "[" + std::to_string(min) + ", " + std::to_string(max) + "]";
}

// Whether `value` parses as `def`'s kind within its range.
bool Accepts(const FlagDef& def, const std::string& value) {
  switch (def.kind) {
    case FlagKind::kText:
      return true;
    case FlagKind::kBool:
      return value == "true" || value == "false" || value == "1" ||
             value == "0";
    case FlagKind::kInt: {
      int64_t parsed = 0;
      return ParseInteger(value, &parsed) && parsed >= def.int_min &&
             parsed <= def.int_max;
    }
    case FlagKind::kUint: {
      uint64_t parsed = 0;
      return ParseInteger(value, &parsed) && parsed >= def.uint_min &&
             parsed <= def.uint_max;
    }
    case FlagKind::kReal: {
      // NaN fails both comparisons, whatever the range.
      StatusOr<double> parsed = ParseDouble(value);
      return parsed.ok() && parsed.value() >= def.real_min &&
             parsed.value() <= def.real_max;
    }
  }
  return false;
}

// What `def` accepts, for the refusal.
std::string Accepted(const FlagDef& def) {
  switch (def.kind) {
    case FlagKind::kText:
      return "text";
    case FlagKind::kBool:
      return "true, false, 1 or 0 (or the bare flag)";
    case FlagKind::kInt:
      return "an integer in " + Range(def.int_min, def.int_max);
    case FlagKind::kUint:
      return "an integer in " + Range(def.uint_min, def.uint_max);
    case FlagKind::kReal:
      return "a number in " + Range(def.real_min, def.real_max);
  }
  return "a known flag kind";
}

}  // namespace

void FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

Status FlagSet::Check(const std::vector<FlagDef>& table) const {
  for (const auto& [key, value] : values_) {
    const FlagDef* def = nullptr;
    for (const FlagDef& candidate : table) {
      if (key == candidate.name) def = &candidate;
    }
    if (def == nullptr) return Status::InvalidArgument("unknown flag --" + key);
    if (!Accepts(*def, value)) {
      return Status::InvalidArgument("--" + key + ": expected " +
                                     Accepted(*def) + ", got '" + value +
                                     "'");
    }
  }
  return Status::OK();
}

bool FlagSet::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string FlagSet::GetString(const std::string& key,
                               const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagSet::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseInt64(it->second);
  return parsed.ok() ? parsed.value() : default_value;
}

uint64_t FlagSet::GetUint64(const std::string& key,
                            uint64_t default_value) const {
  auto it = values_.find(key);
  uint64_t value = 0;
  return it != values_.end() && ParseInteger(it->second, &value)
             ? value
             : default_value;
}

double FlagSet::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  auto parsed = ParseDouble(it->second);
  return parsed.ok() ? parsed.value() : default_value;
}

bool FlagSet::GetBool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

FlagSet ParseFlagsOrExit(int argc, char** argv,
                         const std::vector<FlagDef>& table) {
  FlagSet flags;
  flags.Parse(argc, argv);
  const Status checked = flags.Check(table);
  if (!checked.ok()) {
    std::fprintf(stderr, "error: %s\n", checked.ToString().c_str());
    std::exit(1);
  }
  return flags;
}

}  // namespace mdrr
