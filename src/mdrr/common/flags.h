// Command-line flags: --key=value parsing, checked against one declared
// table per binary before any work.
//
// Example:
//   const std::vector<FlagDef> kFlags = {
//       UintFlag("runs", 1), RealFlag("sigma", 0.0, 1.0), BoolFlag("verbose")};
//   FlagSet flags = ParseFlagsOrExit(argc, argv, kFlags);
//   uint64_t runs = flags.GetUint64("runs", 25);
//   double sigma = flags.GetDouble("sigma", 0.1);

#ifndef MDRR_COMMON_FLAGS_H_
#define MDRR_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "mdrr/common/status.h"

namespace mdrr {

// What a flag's value must parse as. A bool takes only a bare flag,
// true, false, 1 or 0.
enum class FlagKind { kText, kBool, kInt, kUint, kReal };

// One declared flag: its name, its kind and, for a number, its inclusive
// range. Only the bounds of the entry's own kind are read; build entries
// with the helpers below.
struct FlagDef {
  const char* name;
  FlagKind kind;
  int64_t int_min = 0;
  int64_t int_max = 0;
  uint64_t uint_min = 0;
  uint64_t uint_max = 0;
  double real_min = 0.0;
  double real_max = 0.0;
};

constexpr FlagDef TextFlag(const char* name) {
  return {name, FlagKind::kText};
}
constexpr FlagDef BoolFlag(const char* name) {
  return {name, FlagKind::kBool};
}
constexpr FlagDef IntFlag(const char* name,
                          int64_t min = std::numeric_limits<int64_t>::min(),
                          int64_t max = std::numeric_limits<int64_t>::max()) {
  return {name, FlagKind::kInt, min, max};
}
constexpr FlagDef UintFlag(
    const char* name, uint64_t min = 0,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  return {name, FlagKind::kUint, 0, 0, min, max};
}
// NaN is refused whatever the range; infinity only where the range
// includes it.
constexpr FlagDef RealFlag(
    const char* name, double min = -std::numeric_limits<double>::infinity(),
    double max = std::numeric_limits<double>::infinity()) {
  return {name, FlagKind::kReal, 0, 0, 0, 0, min, max};
}

class FlagSet {
 public:
  // Consumes arguments of the form --key=value or --key (value "true").
  // Non-flag arguments are ignored (so positional arguments pass through).
  void Parse(int argc, char** argv);

  // Refuses, naming the flag, the first given flag that `table` does not
  // declare, whose value does not parse as its kind, or whose value lies
  // outside its range. Integers are compared exactly, never through a
  // double.
  Status Check(const std::vector<FlagDef>& table) const;

  bool Has(const std::string& key) const;

  // Typed getters with defaults. After Check() every declared flag's
  // value parses, so they return what was given; a malformed value still
  // falls back to the default, which only the unchecked perfbench driver
  // relies on.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  uint64_t GetUint64(const std::string& key, uint64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

// Parses argv and checks it against `table`; on a refusal prints
// "error: <status>" to stderr and exits 1. For a binary whose flags need
// no rule across flags.
FlagSet ParseFlagsOrExit(int argc, char** argv,
                         const std::vector<FlagDef>& table);

}  // namespace mdrr

#endif  // MDRR_COMMON_FLAGS_H_
