// Declarative description of a complete data release.
//
// A ReleaseSpec says WHAT to release -- which data set, under which
// privacy budget, through which mechanism, with which post-processing
// and outputs -- and one ExecutionPolicy says HOW to run it (the
// sequential reference path or the sharded batch engine). The spec is a
// plain value: it serializes to text (release/serialization.h), compares
// for equality, and carries no pointers, so a release is reproducible
// from a spec file alone. ReleasePlanner (release/planner.h) validates a
// spec and lowers it into an executable ReleasePlan.

#ifndef MDRR_RELEASE_SPEC_H_
#define MDRR_RELEASE_SPEC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/clustering.h"
#include "mdrr/core/frequency_oracle.h"
#include "mdrr/core/rr_clusters.h"
#include "mdrr/rng/counter_rng.h"

namespace mdrr::release {

// Which privacy mechanism perturbs the data. The adapters live in
// release/mechanism.h; the underlying stage functions (RunRrIndependent,
// RunRrJoint, RunRrClusters, ApplyPram, BatchPerturbationEngine) are the
// implementation layer and stay callable directly.
enum class MechanismKind {
  kIndependent,  // Protocol 1: per-attribute RR.
  kJoint,        // Protocol 2: one RR over a product domain.
  kClusters,     // Section 4: assess, cluster, RR-Joint per cluster.
  kPram,         // Controller-side post-randomization (Section 2.1).
  // Protocol 1 over the distance-sensitive ordinal design
  // (RrMatrix::GeometricOrdinal; the paper's Section 8 direction):
  // per-attribute RR where every attribute's matrix has Expression (4)
  // epsilon mechanism.geometric_epsilon exactly.
  kGeometricOrdinal,
};

// How the plan executes; each policy is one BatchPerturbationEngine.
// kSequential is the single-stream reference path
// (BatchPerturbationEngine::Sequential: one Rng drawn in stage order);
// kSharded routes every stage through the sharded engine contracts,
// bit-identical for any num_threads at fixed (seed, shard_size).
// kDistributed farms the sharded column perturbations out to worker
// processes over the net/ transport, reproducing the kSharded transcript
// bit-for-bit at the same (seed, shard_size, rng) for any worker count;
// every serial stage (adjustment, synthesis, estimation) still runs on
// the coordinator.
enum class PolicyKind {
  kSequential,
  kSharded,
  kDistributed,
};

// Where the microdata comes from.
struct DatasetSpec {
  enum class Source {
    kProvided,        // Caller passes a Dataset to ReleasePlanner::Plan.
    kCsvFile,         // Schema inferred from a CSV file.
    kSyntheticAdult,  // The calibrated Adult synthesizer (dataset/adult.h).
  };
  Source source = Source::kProvided;
  std::string csv_path;        // kCsvFile only.
  bool csv_has_header = true;  // kCsvFile only.
  size_t synthetic_records = 32561;  // kSyntheticAdult only.
  uint64_t synthetic_seed = 42;      // kSyntheticAdult only.
};

// Privacy parameters. The paper parameterizes designs by the keep
// probability p of the KeepUniform matrix; epsilons are derived via
// Expression (4). max_total_epsilon is a hard acceptance cap on the
// sequentially-composed total (assessment + release): a plan whose
// realized total exceeds it fails with FailedPrecondition instead of
// publishing. Infinity (the default) disables the cap; a cap <= 0 is
// rejected at validation.
struct BudgetSpec {
  double keep_probability = 0.7;
  // Keep probability of the dependence-assessment round (Sections 4.1,
  // 4.3); only the clusters mechanism spends it.
  double dependence_keep_probability = 0.7;
  double max_total_epsilon = std::numeric_limits<double>::infinity();
};

// Mechanism choice plus its mechanism-specific settings.
struct MechanismSpec {
  MechanismKind kind = MechanismKind::kClusters;
  // kJoint: the attribute subset released jointly. Must be non-empty,
  // within the schema, and duplicate-free.
  std::vector<size_t> joint_attributes;
  // kClusters: Algorithm 1 knobs and the dependence-assessment method.
  // DependenceSource::kProvided cannot appear in a spec (a spec carries
  // no matrix); hoisted matrices stay on the direct RunRrClustersWith
  // path.
  ClusteringOptions clustering;
  DependenceSource dependence_source = DependenceSource::kRandomizedResponse;
  bool use_paper_epsilon_formula = false;
  // kGeometricOrdinal: the per-attribute Expression (4) epsilon of the
  // geometric design. Must be > 0 and finite.
  double geometric_epsilon = 1.0;
};

// Optional per-attribute frequency-oracle backend selection
// (core/frequency_oracle.h). The default -- direct encoding with a
// derived epsilon -- IS the classic RR release path: the section never
// prints, every pre-oracle spec file keeps parsing, and the transcript
// stays bit-identical. Any non-default section routes the per-attribute
// mechanisms (independent, geometric-ordinal) through the oracle seam
// instead: per attribute, reports accumulate into support counts and the
// marginals come from the oracle's closed-form inversion. Frequency-only
// backends (sue, oue, olh) release no microdata, so they exclude
// adjustment, synthesis, streaming, the distributed policy, and
// output.randomized_csv.
struct FrequencyOracleSpec {
  OracleBackend backend = OracleBackend::kDirect;
  // Per-attribute epsilon of the oracle design. 0 (default) derives each
  // attribute's epsilon from the mechanism's own matrix design (the
  // Expression (4) level of the keep-probability or geometric design) --
  // the equal-epsilon backend comparison. A positive value replaces the
  // design with the backend's optimal parameters at exactly this level
  // for every attribute.
  double epsilon = 0.0;

  bool is_default() const {
    return backend == OracleBackend::kDirect && epsilon == 0.0;
  }
};

// Optional Algorithm 2 marginal adjustment over the randomized records.
struct AdjustmentSpec {
  bool enabled = false;
  int max_iterations = 100;
  double tolerance = 1e-9;
  // Explicit constraint groups as attribute-index sets; empty means one
  // group per mechanism unit (per attribute for independent/pram, per
  // cluster for clusters). Groups must reference existing attributes;
  // for independent/pram each group must be a singleton, and for
  // clusters each group must coincide with a realized cluster.
  std::vector<std::vector<size_t>> groups;
};

// Optional synthetic microdata output (Introduction / Section 3.2).
struct SyntheticSpec {
  bool enabled = false;
  // Records to synthesize; 0 means "match the input size".
  int64_t records = 0;
};

// Optional evaluation of the synthetic release against the input.
struct EvaluationSpec {
  bool utility_report = false;  // Requires synthetic.enabled.
  std::vector<double> sigmas = {0.1, 0.3, 0.5, 0.7, 0.9};
  int queries_per_sigma = 25;
  uint64_t seed = 1;
};

// How window boundaries are drawn over the report sequence.
enum class WindowKind {
  kTumbling,  // Disjoint windows of window_size consecutive reports.
  kSliding,   // Overlapping windows advancing by window_stride reports.
};

// Optional always-on collection mode: instead of one batch release, the
// plan runs as a streaming collector (release/streaming.h) that emits
// one estimation summary per window of arrived reports. Estimation is
// incremental -- windows are re-estimated from merged integer counts,
// never from the records -- and each released window charges its epsilon
// against budget.max_total_epsilon; when the cap would be exceeded the
// collector keeps counting but stops releasing (fail-closed, graceful
// degradation). Streaming supports the per-attribute mechanisms
// (independent, geometric-ordinal) and no post-processing sections.
struct StreamingSpec {
  bool enabled = false;
  WindowKind window_kind = WindowKind::kTumbling;
  // Reports per window. Required (> 0) when enabled.
  uint64_t window_size = 0;
  // Reports between consecutive window starts. Sliding only: must
  // divide window_size and be < window_size. 0 means window_size
  // (which is also the only legal tumbling value).
  uint64_t window_stride = 0;
  // Epsilon charged to the ledger per released window. 0 means "derive
  // from the design": the sum of the per-attribute Expression (4)
  // epsilons of the mechanism's matrices. A positive value is a
  // declared conservative accounting level and must be at least the
  // derived epsilon (checked when the plan runs, where the schema is
  // known).
  double window_epsilon = 0.0;
  // Stop emitting after this many windows; 0 means unbounded.
  uint64_t max_windows = 0;
};

// The single execution policy every stage obeys. This subsumes the
// per-stage seed/threads/shard knobs of the implementation layer:
// `seed` and `shard_size` are part of the randomness contract,
// `num_threads` never changes output (0 = one worker per core).
struct ExecutionPolicy {
  PolicyKind kind = PolicyKind::kSequential;
  uint64_t seed = 1;
  // kSharded and kDistributed (the coordinator runs its local stages on
  // num_threads workers). A sequential release runs on one worker and
  // draws no per-shard streams, so neither changes its output.
  size_t num_threads = 0;
  size_t shard_size = 1 << 16;
  // Perturbation stream engine. kMt19937 (default) is the committed
  // transcript: sequential plans replay the reference Rng, sharded plans
  // the (seed, shard_size)-keyed stream family. kPhilox draws
  // element-addressed counter blocks instead, making sharded output
  // invariant under shard_size as well as num_threads; it requires the
  // sharded or distributed kind (the sequential reference path is
  // mt19937 by definition) unless streaming is enabled -- the streaming collector
  // keys randomness per report and ignores `kind`.
  RngKind rng = RngKind::kMt19937;
  // kDistributed only. Worker processes the coordinator waits for before
  // perturbing; required >= 1 under kDistributed, must stay 0 otherwise.
  size_t num_workers = 0;
  // kDistributed only. Coordinator listen port; 0 picks an ephemeral
  // port (programmatic runs read it back from the coordinator).
  uint16_t listen_port = 0;
  // kDistributed only. Per-operation network deadline in milliseconds;
  // 0 means the transport default (net/socket.h kDefaultDeadlineMs).
  int64_t worker_deadline_ms = 0;
};

// Where to persist the products; empty paths mean "keep in memory only".
struct OutputSpec {
  std::string randomized_csv;
  std::string synthetic_csv;   // Requires synthetic.enabled.
  std::string artifacts_path;  // Serialized ReleaseArtifacts summary.
};

struct ReleaseSpec {
  DatasetSpec dataset;
  BudgetSpec budget;
  MechanismSpec mechanism;
  FrequencyOracleSpec frequency_oracle;
  AdjustmentSpec adjustment;
  SyntheticSpec synthetic;
  EvaluationSpec evaluation;
  StreamingSpec streaming;
  ExecutionPolicy execution;
  OutputSpec output;
};

// Field-by-field equality over every spec key. Defined next to the key
// list in release/serialization.cc, so it covers exactly the printed and
// parsed fields.
bool operator==(const ReleaseSpec& a, const ReleaseSpec& b);
inline bool operator!=(const ReleaseSpec& a, const ReleaseSpec& b) {
  return !(a == b);
}

// Stable token names used by serialization, the CLI, and error messages.
const char* ToString(MechanismKind kind);
const char* ToString(PolicyKind kind);
const char* ToString(RngKind kind);
const char* ToString(DatasetSpec::Source source);
const char* ToString(DependenceSource source);
const char* ToString(WindowKind kind);
StatusOr<MechanismKind> MechanismKindFromString(std::string_view token);
StatusOr<PolicyKind> PolicyKindFromString(std::string_view token);
StatusOr<RngKind> RngKindFromString(std::string_view token);
StatusOr<WindowKind> WindowKindFromString(std::string_view token);
StatusOr<DatasetSpec::Source> DatasetSourceFromString(std::string_view token);
StatusOr<DependenceSource> DependenceSourceFromString(std::string_view token);

// Structural validation against a known attribute count (everything that
// does not need the realized clustering): parameter ranges, mechanism
// requirements, cross-section contradictions. ReleasePlanner calls this
// after resolving the dataset; exposed so tools can lint a spec without
// loading data (`num_attributes` = 0 skips the index checks).
Status ValidateReleaseSpec(const ReleaseSpec& spec, size_t num_attributes);

}  // namespace mdrr::release

#endif  // MDRR_RELEASE_SPEC_H_
