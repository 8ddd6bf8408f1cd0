// Columnar party storage for the mt19937 session.
//
// A PartyBlock holds the same n respondents a vector of Party objects
// would (tests/session_reference.h) -- the same private records, the same
// per-party RNG streams seeded in id order -- but stores them flat
// (row-major records, one contiguous engine array) and executes protocol
// rounds as sweeps over reused buffers instead of per-object calls that
// return freshly allocated vectors. The technique follows
// high-throughput agent-simulation runtimes: batch the per-agent work
// into cache-friendly passes, and keep the per-object model as the
// golden reference.
//
// Determinism contract: every publication is bit-identical to driving
// Party objects through the same rounds, for any shard size and thread
// count. Party i's engine is a pure function of its seed (drawn serially
// from the session seeder, in id order), each party's draws happen in the
// same per-party order as Party::PublishIndependent /
// Party::PublishClusters, and parties' streams are mutually independent,
// so sweeps shard freely. Golden-tested against the Party loop in
// tests/session_fast_path_test.cc.

#ifndef MDRR_PROTOCOL_PARTY_BLOCK_H_
#define MDRR_PROTOCOL_PARTY_BLOCK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mdrr/core/clustering.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

// Round-2 output bundle: the two controller by-products that fuse into
// the publication sweep -- per-category counts (integer merges commute,
// so they equal a post-hoc histogram) and the per-position decode of
// every published code -- plus, on request, the raw composite codes.
struct ClusterSweepResult {
  // codes[c][i]: party i's publication for cluster c. Filled only when
  // the sweep is asked to collect codes (golden tests, transcript
  // comparisons); the session consumes counts + decoded, so it skips the
  // n x clusters staging columns.
  std::vector<std::vector<uint32_t>> codes;
  // counts[c][y]: how many parties published code y for cluster c.
  std::vector<std::vector<int64_t>> counts;
  // decoded[c][k][i]: position k of party i's cluster-c publication.
  std::vector<std::vector<std::vector<uint32_t>>> decoded;
};

class PartyBlock {
 public:
  // Materializes parties 0..n-1 of `dataset` (row i becomes party i),
  // drawing each party's seed serially from `seeder` -- the identical
  // seed sequence as constructing Party(record_i, seeder.engine()())
  // in a loop. Engine seeding itself is deferred to the first sweep so it
  // can run sharded and fused with the round-1 publications.
  PartyBlock(const Dataset& dataset, Rng& seeder);

  size_t num_parties() const { return num_parties_; }
  size_t num_attributes() const { return num_attributes_; }

  // Round 1: writes party i's per-attribute publication into
  // columns[j][i] for every attribute j, sharded over `num_threads`
  // workers in chunks of `shard_size` parties. Each columns[j] must
  // already have size num_parties(). On the first sweep, party engines
  // are seeded lane-batched (fast_seed.h) immediately before their first
  // draws, while their state is cache-hot.
  void PublishIndependent(const std::vector<RrMatrix>& matrices,
                          size_t shard_size, size_t num_threads,
                          std::vector<std::vector<uint32_t>>* columns);

  // Round 2: composite-encodes each party's true values per cluster
  // (mixed-radix, identical arithmetic to Domain::Encode), randomizes the
  // code, and fuses output-category counting and per-position decode into
  // the same pass. Sharded like PublishIndependent; parties continue
  // their round-1 streams. `collect_codes` additionally materializes the
  // raw composite-code columns (result.codes) for transcript comparisons.
  ClusterSweepResult PublishClusters(const AttributeClustering& clusters,
                                     const std::vector<Domain>& domains,
                                     const std::vector<RrMatrix>& matrices,
                                     size_t shard_size, size_t num_threads,
                                     bool collect_codes = false);

  PartyBlock(const PartyBlock&) = delete;
  PartyBlock& operator=(const PartyBlock&) = delete;

 private:
  // Seeds engines [begin, end) in place (kSeedLanes at a time); bit-wise
  // equivalent to Rng(seeds_[i]) per party regardless of grouping.
  void SeedEngineRange(size_t begin, size_t end);

  // Seeds every engine if no sweep has done so yet (sharded).
  void EnsureEnginesSeeded(size_t shard_size, size_t num_threads);

  size_t num_parties_ = 0;
  size_t num_attributes_ = 0;
  // Row-major private records: records_[i * num_attributes_ + j].
  std::vector<uint32_t> records_;
  // Per-party seeds, drawn serially in id order at construction.
  std::vector<uint64_t> seeds_;
  // Per-party engines, placement-constructed on first use so the ~2.5 KB
  // mt19937_64 states are written exactly once (no default-seeding pass
  // over hundreds of megabytes).
  std::unique_ptr<unsigned char[]> rng_storage_;
  Rng* rngs_ = nullptr;
  bool engines_seeded_ = false;
};

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_PARTY_BLOCK_H_
