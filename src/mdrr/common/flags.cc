#include "mdrr/common/flags.h"

#include <string_view>

#include "mdrr/common/string_util.h"

namespace mdrr {

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

bool FlagSet::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::vector<std::string> FlagSet::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, value] : values_) keys.push_back(key);
  return keys;
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

}  // namespace mdrr
