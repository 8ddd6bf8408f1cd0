#include "mdrr/release/serialization.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "mdrr/common/string_util.h"

namespace mdrr::release {

namespace {

constexpr char kSpecHeader[] = "mdrr-release-spec v1";
constexpr char kArtifactsHeader[] = "mdrr-release-artifacts v1";
constexpr char kSnapshotHeader[] = "mdrr-streaming-snapshot v1";

// One stripped, non-comment input line split into a key and value
// tokens.
struct SpecLine {
  std::string key;
  std::vector<std::string> tokens;  // Whitespace-separated values.
  std::string rest;                 // Raw remainder (for paths).
};

std::vector<SpecLine> TokenizeLines(const std::string& text) {
  std::vector<SpecLine> lines;
  for (std::string_view raw : Split(text, '\n')) {
    std::string_view stripped = StripWhitespace(raw);
    if (stripped.empty() || stripped.front() == '#') continue;
    SpecLine line;
    size_t space = stripped.find_first_of(" \t");
    if (space == std::string_view::npos) {
      line.key = std::string(stripped);
    } else {
      line.key = std::string(stripped.substr(0, space));
      line.rest = std::string(StripWhitespace(stripped.substr(space + 1)));
      std::istringstream stream(line.rest);
      std::string token;
      while (stream >> token) line.tokens.push_back(token);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

Status ExpectHeader(const std::vector<SpecLine>& lines, const char* header) {
  if (lines.empty() ||
      lines.front().key +
              (lines.front().rest.empty() ? "" : " " + lines.front().rest) !=
          header) {
    return Status::InvalidArgument(std::string("expected header '") + header +
                                   "'");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Value codecs, one per field type. PrintValue appends a value's tokens,
// each after a space; ParseToken reads one token back; ParseValue reads a
// whole line's value into a field.
// ---------------------------------------------------------------------------

void PrintValue(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.17g", value);
  out += buf;
}

void PrintValue(std::string& out, bool value) { out += value ? " 1" : " 0"; }

template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void PrintValue(std::string& out, Int value) {
  out += ' ';
  out += std::to_string(value);
}

template <typename Enum, std::enable_if_t<std::is_enum_v<Enum>, int> = 0>
void PrintValue(std::string& out, Enum value) {
  out += ' ';
  out += ToString(value);
}

// Paths print verbatim (they may contain spaces).
void PrintValue(std::string& out, const std::string& path) {
  out += ' ';
  out += path;
}

template <typename T>
void PrintValue(std::string& out, const std::vector<T>& values) {
  for (const T& value : values) PrintValue(out, value);
}

template <typename T>
void PrintKey(std::string& out, const char* key, const T& value) {
  out += key;
  PrintValue(out, value);
  out += '\n';
}

Status ParseToken(std::string_view token, double* value) {
  MDRR_ASSIGN_OR_RETURN(*value, ParseDouble(token));
  return Status::OK();
}

Status ParseToken(std::string_view token, bool* value) {
  if (token == "1" || token == "true") {
    *value = true;
  } else if (token == "0" || token == "false") {
    *value = false;
  } else {
    return Status::InvalidArgument("expected 0/1, got '" + std::string(token) +
                                   "'");
  }
  return Status::OK();
}

// Integers parse over their own type's full range, nothing wider.
template <typename Int, std::enable_if_t<std::is_integral_v<Int>, int> = 0>
Status ParseToken(std::string_view token, Int* value) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        "expected an integer in [" +
        std::to_string(std::numeric_limits<Int>::min()) + ", " +
        std::to_string(std::numeric_limits<Int>::max()) + "], got '" +
        std::string(token) + "'");
  }
  return Status::OK();
}

// Each enum field type's FromString, picked by overload.
StatusOr<DatasetSpec::Source> FromToken(std::string_view token,
                                        DatasetSpec::Source) {
  return DatasetSourceFromString(token);
}
StatusOr<MechanismKind> FromToken(std::string_view token, MechanismKind) {
  return MechanismKindFromString(token);
}
StatusOr<DependenceSource> FromToken(std::string_view token,
                                     DependenceSource) {
  return DependenceSourceFromString(token);
}
StatusOr<OracleBackend> FromToken(std::string_view token, OracleBackend) {
  return OracleBackendFromString(token);
}
StatusOr<WindowKind> FromToken(std::string_view token, WindowKind) {
  return WindowKindFromString(token);
}
StatusOr<PolicyKind> FromToken(std::string_view token, PolicyKind) {
  return PolicyKindFromString(token);
}
StatusOr<RngKind> FromToken(std::string_view token, RngKind) {
  return RngKindFromString(token);
}

template <typename Enum, std::enable_if_t<std::is_enum_v<Enum>, int> = 0>
Status ParseToken(std::string_view token, Enum* value) {
  MDRR_ASSIGN_OR_RETURN(*value, FromToken(token, *value));
  return Status::OK();
}

Status AtKey(const SpecLine& line, const Status& status) {
  if (status.ok()) return status;
  return Status::InvalidArgument("'" + line.key + "': " + status.message());
}

// A scalar takes exactly one token.
template <typename T>
Status ParseValue(const SpecLine& line, T* value) {
  if (line.tokens.size() != 1) {
    return Status::InvalidArgument("expected one value after '" + line.key +
                                   "'");
  }
  return AtKey(line, ParseToken(line.tokens[0], value));
}

// A path takes the raw remainder of the line, spaces included.
Status ParseValue(const SpecLine& line, std::string* path) {
  *path = line.rest;
  return Status::OK();
}

// A list takes every token (none is an empty list).
template <typename T>
Status ParseValue(const SpecLine& line, std::vector<T>* values) {
  values->assign(line.tokens.size(), T{});
  for (size_t i = 0; i < line.tokens.size(); ++i) {
    MDRR_RETURN_IF_ERROR(
        AtKey(line, ParseToken(line.tokens[i], &(*values)[i])));
  }
  return Status::OK();
}

// The repeated key: one `adjustment.group` line per group, in order.
using Groups = std::vector<std::vector<size_t>>;

void PrintKey(std::string& out, const char* key, const Groups& groups) {
  for (const std::vector<size_t>& group : groups) PrintKey(out, key, group);
}

Status ParseValue(const SpecLine& line, Groups* groups) {
  groups->emplace_back();
  return ParseValue(line, &groups->back());
}

template <typename T>
constexpr bool kRepeatable = std::is_same_v<T, Groups>;

// ---------------------------------------------------------------------------
// ReleaseSpec keys.
// ---------------------------------------------------------------------------

// When a key is printed. Optional sections stay out of the text at their
// defaults, so spec files written before a section existed keep their
// exact bytes; validation pins such a section to its defaults wherever
// it cannot apply, so a parse of the printed text still compares equal.
enum class Print {
  kAlways,
  kIfSet,  // The value is not zero/empty (paths, oracle epsilon).
  kNever,
};

// The spec key list, in print order: the only place that names
// ReleaseSpec fields. Calls visit(key, print, field...) with that key's
// field of every spec passed in; print, parse and equality all walk it.
// Section-dependent print rules read the first spec.
template <typename Visit, typename... Spec>
void ForEachSpecKey(Visit&& visit, Spec&... s) {
  using P = Print;
  const ReleaseSpec& first = std::get<0>(std::tie(s...));
  const P if_oracle =
      first.frequency_oracle.is_default() ? P::kNever : P::kAlways;
  const P if_distributed = first.execution.kind == PolicyKind::kDistributed
                               ? P::kAlways
                               : P::kNever;
  visit("dataset.source", P::kAlways, s.dataset.source...);
  visit("dataset.csv_path", P::kIfSet, s.dataset.csv_path...);
  visit("dataset.csv_has_header", P::kAlways, s.dataset.csv_has_header...);
  visit("dataset.synthetic_records", P::kAlways,
        s.dataset.synthetic_records...);
  visit("dataset.synthetic_seed", P::kAlways, s.dataset.synthetic_seed...);

  visit("budget.keep_probability", P::kAlways, s.budget.keep_probability...);
  visit("budget.dependence_keep_probability", P::kAlways,
        s.budget.dependence_keep_probability...);
  visit("budget.max_total_epsilon", P::kAlways, s.budget.max_total_epsilon...);

  visit("mechanism.kind", P::kAlways, s.mechanism.kind...);
  visit("mechanism.joint_attributes", P::kAlways,
        s.mechanism.joint_attributes...);
  visit("mechanism.clustering.max_combinations", P::kAlways,
        s.mechanism.clustering.max_combinations...);
  visit("mechanism.clustering.min_dependence", P::kAlways,
        s.mechanism.clustering.min_dependence...);
  visit("mechanism.dependence_source", P::kAlways,
        s.mechanism.dependence_source...);
  visit("mechanism.use_paper_epsilon_formula", P::kAlways,
        s.mechanism.use_paper_epsilon_formula...);
  visit("mechanism.geometric_epsilon", P::kAlways,
        s.mechanism.geometric_epsilon...);

  visit("frequency_oracle.backend", if_oracle,
        s.frequency_oracle.backend...);
  visit("frequency_oracle.epsilon", P::kIfSet, s.frequency_oracle.epsilon...);

  visit("adjustment.enabled", P::kAlways, s.adjustment.enabled...);
  visit("adjustment.max_iterations", P::kAlways,
        s.adjustment.max_iterations...);
  visit("adjustment.tolerance", P::kAlways, s.adjustment.tolerance...);
  visit("adjustment.group", P::kAlways, s.adjustment.groups...);

  visit("synthetic.enabled", P::kAlways, s.synthetic.enabled...);
  visit("synthetic.records", P::kAlways, s.synthetic.records...);

  visit("evaluation.utility_report", P::kAlways,
        s.evaluation.utility_report...);
  visit("evaluation.sigmas", P::kAlways, s.evaluation.sigmas...);
  visit("evaluation.queries_per_sigma", P::kAlways,
        s.evaluation.queries_per_sigma...);
  visit("evaluation.seed", P::kAlways, s.evaluation.seed...);

  visit("streaming.enabled", P::kAlways, s.streaming.enabled...);
  visit("streaming.window_kind", P::kAlways, s.streaming.window_kind...);
  visit("streaming.window_size", P::kAlways, s.streaming.window_size...);
  visit("streaming.window_stride", P::kAlways, s.streaming.window_stride...);
  visit("streaming.window_epsilon", P::kAlways,
        s.streaming.window_epsilon...);
  visit("streaming.max_windows", P::kAlways, s.streaming.max_windows...);

  visit("execution.policy", P::kAlways, s.execution.kind...);
  visit("execution.seed", P::kAlways, s.execution.seed...);
  visit("execution.num_threads", P::kAlways, s.execution.num_threads...);
  visit("execution.shard_size", P::kAlways, s.execution.shard_size...);
  visit("execution.rng", P::kAlways, s.execution.rng...);
  visit("execution.num_workers", if_distributed,
        s.execution.num_workers...);
  visit("execution.listen_port", if_distributed,
        s.execution.listen_port...);
  visit("execution.worker_deadline_ms", if_distributed,
        s.execution.worker_deadline_ms...);

  visit("output.randomized_csv", P::kIfSet, s.output.randomized_csv...);
  visit("output.synthetic_csv", P::kIfSet, s.output.synthetic_csv...);
  visit("output.artifacts", P::kIfSet, s.output.artifacts_path...);
}

Status WriteText(const std::string& text, const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  file << text;
  if (!file.good()) {
    return Status::IoError("write failure on '" + path + "'");
  }
  return Status::OK();
}

StatusOr<std::string> ReadText(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// "marginal <len> <p...>", shared by artifacts and window transcripts.
void PrintMarginal(std::string& out, const std::vector<double>& marginal) {
  out += "marginal";
  PrintValue(out, marginal.size());
  PrintValue(out, marginal);
  out += '\n';
}

}  // namespace

// ---------------------------------------------------------------------------
// ReleaseSpec.
// ---------------------------------------------------------------------------

bool operator==(const ReleaseSpec& a, const ReleaseSpec& b) {
  bool equal = true;
  ForEachSpecKey([&equal](const char*, Print, const auto& x,
                          const auto& y) { equal = equal && x == y; },
                 a, b);
  return equal;
}

std::string PrintReleaseSpec(const ReleaseSpec& spec) {
  std::string out = std::string(kSpecHeader) + '\n';
  ForEachSpecKey(
      [&out](const char* key, Print print, const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if (print == Print::kAlways ||
            (print == Print::kIfSet && !(value == T{}))) {
          PrintKey(out, key, value);
        }
      },
      spec);
  return out;
}

StatusOr<ReleaseSpec> ParseReleaseSpec(const std::string& text) {
  std::vector<SpecLine> lines = TokenizeLines(text);
  MDRR_RETURN_IF_ERROR(ExpectHeader(lines, kSpecHeader));

  ReleaseSpec spec;
  std::set<std::string> seen;
  for (size_t i = 1; i < lines.size(); ++i) {
    const SpecLine& line = lines[i];
    Status status =
        Status::InvalidArgument("unknown spec key '" + line.key + "'");
    ForEachSpecKey(
        [&](const char* key, Print, auto& field) {
          if (line.key != key) return;
          if (!seen.insert(line.key).second &&
              !kRepeatable<std::decay_t<decltype(field)>>) {
            status = Status::InvalidArgument("spec key '" + line.key +
                                             "' appears more than once");
            return;
          }
          status = ParseValue(line, &field);
        },
        spec);
    MDRR_RETURN_IF_ERROR(status);
  }
  return spec;
}

StatusOr<ReleaseSpec> ReadReleaseSpec(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseReleaseSpec(text);
}

// ---------------------------------------------------------------------------
// ReleaseArtifacts (summary only; datasets go to CSV side files).
// ---------------------------------------------------------------------------

std::string PrintReleaseArtifacts(const ReleaseArtifacts& artifacts) {
  std::string out = std::string(kArtifactsHeader) + '\n';
  PrintKey(out, "records", artifacts.num_records);
  PrintKey(out, "release_epsilon", artifacts.release_epsilon);
  PrintKey(out, "dependence_epsilon", artifacts.dependence_epsilon);

  PrintKey(out, "marginals", artifacts.marginal_estimates.size());
  for (const std::vector<double>& marginal : artifacts.marginal_estimates) {
    PrintMarginal(out, marginal);
  }

  PrintKey(out, "clusters", artifacts.clustering.size());
  for (const std::vector<size_t>& cluster : artifacts.clustering) {
    PrintKey(out, "cluster", cluster);
  }

  PrintKey(out, "dependences", artifacts.dependences.rows());
  for (size_t i = 0; i < artifacts.dependences.rows(); ++i) {
    out += "deprow";
    for (size_t j = 0; j < artifacts.dependences.cols(); ++j) {
      PrintValue(out, artifacts.dependences(i, j));
    }
    out += '\n';
  }

  if (artifacts.adjustment.has_value()) {
    out += "adjustment";
    PrintValue(out, artifacts.adjustment->iterations);
    PrintValue(out, artifacts.adjustment->converged);
    PrintValue(out, artifacts.adjustment->max_marginal_gap);
    out += '\n';
    PrintKey(out, "weights", artifacts.adjustment->weights);
  }

  if (artifacts.utility.has_value()) {
    PrintKey(out, "utility.marginal_tv", artifacts.utility->marginal_tv);
    PrintKey(out, "utility.median_relative_error",
             artifacts.utility->median_relative_error);
    PrintKey(out, "utility.max_dependence_shift",
             artifacts.utility->max_dependence_shift);
  }

  for (const StageTiming& timing : artifacts.timings) {
    out += "timing ";
    out += timing.stage;
    PrintValue(out, timing.seconds);
    out += '\n';
  }
  return out;
}

Status WriteReleaseArtifacts(const ReleaseArtifacts& artifacts,
                             const std::string& path) {
  return WriteText(PrintReleaseArtifacts(artifacts), path);
}

// ---------------------------------------------------------------------------
// StreamingSnapshot.
// ---------------------------------------------------------------------------

std::string PrintStreamingSnapshot(const StreamingSnapshot& snapshot) {
  std::string out = std::string(kSnapshotHeader) + '\n';
  PrintKey(out, "next_sequence", snapshot.next_sequence);
  PrintKey(out, "next_window", snapshot.next_window);
  PrintKey(out, "epsilon_spent", snapshot.epsilon_spent);
  PrintKey(out, "window_epsilons", snapshot.window_epsilons);
  PrintKey(out, "cardinalities", snapshot.cardinalities);

  // "bucket <index> <reports> <counts...>": counts stay signed so any
  // in-memory snapshot round-trips and Resume gets to reject it.
  for (const StreamingSnapshot::BucketCounts& bucket : snapshot.buckets) {
    out += "bucket";
    PrintValue(out, bucket.bucket);
    PrintValue(out, bucket.num_reports);
    PrintValue(out, bucket.counts);
    out += '\n';
  }
  return out;
}

StatusOr<StreamingSnapshot> ParseStreamingSnapshot(const std::string& text) {
  std::vector<SpecLine> lines = TokenizeLines(text);
  MDRR_RETURN_IF_ERROR(ExpectHeader(lines, kSnapshotHeader));

  StreamingSnapshot snapshot;
  for (size_t i = 1; i < lines.size(); ++i) {
    const SpecLine& line = lines[i];
    const std::string& key = line.key;
    if (key == "next_sequence") {
      MDRR_RETURN_IF_ERROR(ParseValue(line, &snapshot.next_sequence));
    } else if (key == "next_window") {
      MDRR_RETURN_IF_ERROR(ParseValue(line, &snapshot.next_window));
    } else if (key == "epsilon_spent") {
      MDRR_RETURN_IF_ERROR(ParseValue(line, &snapshot.epsilon_spent));
    } else if (key == "window_epsilons") {
      MDRR_RETURN_IF_ERROR(ParseValue(line, &snapshot.window_epsilons));
    } else if (key == "cardinalities") {
      MDRR_RETURN_IF_ERROR(ParseValue(line, &snapshot.cardinalities));
    } else if (key == "bucket") {
      if (line.tokens.size() < 2) {
        return Status::InvalidArgument("malformed bucket line");
      }
      StreamingSnapshot::BucketCounts bucket;
      MDRR_RETURN_IF_ERROR(ParseToken(line.tokens[0], &bucket.bucket));
      MDRR_RETURN_IF_ERROR(ParseToken(line.tokens[1], &bucket.num_reports));
      bucket.counts.resize(line.tokens.size() - 2);
      for (size_t t = 0; t < bucket.counts.size(); ++t) {
        MDRR_RETURN_IF_ERROR(
            ParseToken(line.tokens[t + 2], &bucket.counts[t]));
      }
      snapshot.buckets.push_back(std::move(bucket));
    } else {
      return Status::InvalidArgument("unknown snapshot key '" + key + "'");
    }
  }
  return snapshot;
}

Status WriteStreamingSnapshot(const StreamingSnapshot& snapshot,
                              const std::string& path) {
  return WriteText(PrintStreamingSnapshot(snapshot), path);
}

StatusOr<StreamingSnapshot> ReadStreamingSnapshot(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::string text, ReadText(path));
  return ParseStreamingSnapshot(text);
}

// ---------------------------------------------------------------------------
// Window transcripts.
// ---------------------------------------------------------------------------

std::string PrintStreamWindows(const std::vector<StreamWindow>& windows) {
  std::string out;
  for (const StreamWindow& window : windows) {
    out += "window";
    PrintValue(out, window.index);
    PrintValue(out, window.begin_sequence);
    PrintValue(out, window.end_sequence);
    PrintValue(out, window.num_reports);
    out += window.released ? " released" : " suppressed";
    PrintValue(out, window.epsilon);
    out += '\n';
    if (!window.released) continue;
    for (const std::vector<double>& marginal :
         window.artifacts.marginal_estimates) {
      PrintMarginal(out, marginal);
    }
  }
  return out;
}

}  // namespace mdrr::release
