// Minimal --key=value command-line flag parsing for benches and examples.
//
// Example:
//   FlagSet flags;
//   flags.Parse(argc, argv);
//   int runs = flags.GetInt("runs", 25);
//   double sigma = flags.GetDouble("sigma", 0.1);

#ifndef MDRR_COMMON_FLAGS_H_
#define MDRR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdrr {

class FlagSet {
 public:
  // Consumes arguments of the form --key=value or --key (value "true").
  // Non-flag arguments are ignored (so google-benchmark flags pass through).
  void Parse(int argc, char** argv);

  bool Has(const std::string& key) const;

  // Every key given on the command line, sorted, so a caller can reject
  // the ones it does not honour.
  std::vector<std::string> Keys() const;

  // Typed getters with defaults; a malformed value falls back to the
  // default (benches should not crash on a typo'd flag).
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mdrr

#endif  // MDRR_COMMON_FLAGS_H_
