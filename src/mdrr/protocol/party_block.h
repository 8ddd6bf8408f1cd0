// Columnar party storage for the session, and RandomizeRecords, the
// per-record randomization kernel it shares with streaming ingest.
//
// A PartyBlock holds the same n respondents a vector of Party objects
// would (tests/session_reference.h) -- the same private records, the same
// per-party RNG streams seeded in id order -- but stores them flat
// (row-major records and one seed per party, no engines) and executes
// protocol rounds as sweeps over reused buffers instead of per-object
// calls that return freshly allocated vectors. The technique follows
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
// so sweeps shard freely. Both rounds are RandomizeRecords calls over a
// shard. Because an engine is a pure function of its seed, the block
// keeps seeds, not engines: round 2 re-seeds each party's engine and
// replays its round-1 draws (the same designs over the same record)
// before it draws round 2, which continues the stream exactly where
// round 1 left it. Golden-tested against the Party loop in
// tests/session_fast_path_test.cc.

#ifndef MDRR_PROTOCOL_PARTY_BLOCK_H_
#define MDRR_PROTOCOL_PARTY_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mdrr/core/clustering.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/fast_seed.h"
#include "mdrr/rng/rng.h"

namespace mdrr::protocol {

// The one per-record randomization kernel: the party rounds below and
// the streaming reports (protocol/stream_ingest.h) all run it. For
// records [0, count), seeds a transient engine from seeds[k] and draws
// record k's columns j = 0..num_columns-1 in order through
// matrices[j].Randomize(value(k, j), engine), handing each published
// code to sink(k, j, code).
//
// The engines are seeded kSeedLanes seeds per expansion block
// (ForEachSeedSequence, fast_seed.h), each in place from its block lane
// right before its record's draws (SeedDeferred: 33 words copied, the
// rest read only if the record draws past its first 16 words), and
// dropped after them: a lane's words live only as long as the walk's
// callback.
template <typename ValueAt, typename Sink>
void RandomizeRecords(const RrMatrix* matrices, size_t num_columns,
                      size_t count, const uint64_t* seeds, ValueAt&& value,
                      Sink&& sink) {
  ForEachSeedSequence(seeds, count, [&](size_t k, SeedWords lane) {
    Rng rng(lane, kDeferredSeed);
    for (size_t j = 0; j < num_columns; ++j) {
      sink(k, j, matrices[j].Randomize(value(k, j), rng));
    }
  });
}

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
  // in a loop. Engines are seeded only inside the round sweeps, sharded
  // and fused with the publications.
  PartyBlock(const Dataset& dataset, Rng& seeder);

  size_t num_parties() const { return num_parties_; }
  size_t num_attributes() const { return num_attributes_; }

  // Round 1: writes party i's per-attribute publication into
  // columns[j][i] for every attribute j, sharded over `num_threads`
  // workers in chunks of `shard_size` parties. Each columns[j] must
  // already have size num_parties(). Keeps a copy of `matrices` for
  // round 2's replay. Runs once per block.
  void PublishIndependent(const std::vector<RrMatrix>& matrices,
                          size_t shard_size, size_t num_threads,
                          std::vector<std::vector<uint32_t>>* columns);

  // Round 2, after round 1: composite-encodes each party's true values
  // per cluster (mixed-radix, identical arithmetic to Domain::Encode),
  // randomizes the code, and fuses output-category counting and
  // per-position decode into the same pass. Sharded like
  // PublishIndependent; each party's re-seeded engine replays its
  // round-1 draws first, so round 2 continues the round-1 stream.
  // `collect_codes` additionally materializes the raw composite-code
  // columns (result.codes) for transcript comparisons.
  ClusterSweepResult PublishClusters(const AttributeClustering& clusters,
                                     const std::vector<Domain>& domains,
                                     const std::vector<RrMatrix>& matrices,
                                     size_t shard_size, size_t num_threads,
                                     bool collect_codes = false);

  PartyBlock(const PartyBlock&) = delete;
  PartyBlock& operator=(const PartyBlock&) = delete;

 private:
  size_t num_parties_ = 0;
  size_t num_attributes_ = 0;
  // Row-major private records: records_[i * num_attributes_ + j].
  std::vector<uint32_t> records_;
  // Per-party seeds, drawn serially in id order at construction.
  std::vector<uint64_t> seeds_;
  // Round 1's per-attribute designs, which round 2 replays; empty
  // until round 1 runs.
  std::vector<RrMatrix> round1_;
};

}  // namespace mdrr::protocol

#endif  // MDRR_PROTOCOL_PARTY_BLOCK_H_
