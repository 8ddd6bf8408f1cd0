#include "mdrr/protocol/party_block.h"

#include <cstdint>

#include "mdrr/common/check.h"
#include "mdrr/common/parallel.h"

namespace mdrr::protocol {

PartyBlock::PartyBlock(const Dataset& dataset, Rng& seeder)
    : num_parties_(dataset.num_rows()),
      num_attributes_(dataset.num_attributes()) {
  // Row-major record copy: round sweeps read all attributes of a party
  // consecutively, the opposite access pattern of the dataset's columns.
  records_.resize(num_parties_ * num_attributes_);
  for (size_t j = 0; j < num_attributes_; ++j) {
    const std::vector<uint32_t>& column = dataset.column(j);
    uint32_t* out = records_.data() + j;
    for (size_t i = 0; i < num_parties_; ++i) {
      out[i * num_attributes_] = column[i];
    }
  }
  // The serial per-party seed draw -- the part of the transcript that
  // pins party order -- stays exactly as the Party loop performs it.
  seeds_.resize(num_parties_);
  for (size_t i = 0; i < num_parties_; ++i) {
    seeds_[i] = seeder.engine()();
  }
}

void PartyBlock::PublishIndependent(
    const std::vector<RrMatrix>& matrices, size_t shard_size,
    size_t num_threads, std::vector<std::vector<uint32_t>>* columns) {
  MDRR_CHECK(round1_.empty());
  const size_t m = num_attributes_;
  MDRR_CHECK_EQ(matrices.size(), m);
  MDRR_CHECK_EQ(columns->size(), m);
  std::vector<uint32_t*> column_ptrs(m);
  for (size_t j = 0; j < m; ++j) {
    MDRR_CHECK_EQ((*columns)[j].size(), num_parties_);
    column_ptrs[j] = (*columns)[j].data();
  }
  ParallelChunks(
      num_parties_, shard_size, num_threads,
      [&](size_t /*worker*/, size_t /*shard*/, size_t begin, size_t end) {
        // The lane grouping of the seeding never changes any party's
        // engine, so the grain stays load-balancing only.
        const uint32_t* records = records_.data() + begin * m;
        RandomizeRecords(
            matrices.data(), m, end - begin, seeds_.data() + begin,
            [&](size_t k, size_t j) { return records[k * m + j]; },
            [&](size_t k, size_t j, uint32_t code) {
              column_ptrs[j][begin + k] = code;
            });
      });
  round1_ = matrices;
}

ClusterSweepResult PartyBlock::PublishClusters(
    const AttributeClustering& clusters, const std::vector<Domain>& domains,
    const std::vector<RrMatrix>& matrices, size_t shard_size,
    size_t num_threads, bool collect_codes) {
  const size_t num_clusters = clusters.size();
  MDRR_CHECK_EQ(domains.size(), num_clusters);
  MDRR_CHECK_EQ(matrices.size(), num_clusters);
  const size_t m = num_attributes_;
  MDRR_CHECK_EQ(round1_.size(), m);

  // Flatten the cluster structure so the per-party loop runs over plain
  // arrays: member attributes with their mixed-radix strides (the encode
  // weight is also the decode divisor) and per-position cardinalities --
  // identical arithmetic to Domain::Encode / Domain::DecodeAt.
  std::vector<size_t> offset(num_clusters);
  std::vector<size_t> cluster_size(num_clusters);
  std::vector<uint32_t> member_attr;
  std::vector<uint64_t> member_stride;  // Encode weight == decode divisor.
  std::vector<uint64_t> decode_card;
  for (size_t c = 0; c < num_clusters; ++c) {
    MDRR_CHECK_EQ(clusters[c].size(), domains[c].num_positions());
    offset[c] = member_attr.size();
    cluster_size[c] = clusters[c].size();
    for (size_t k = 0; k < clusters[c].size(); ++k) {
      MDRR_CHECK_LT(clusters[c][k], num_attributes_);
      member_attr.push_back(static_cast<uint32_t>(clusters[c][k]));
      member_stride.push_back(domains[c].strides()[k]);
      decode_card.push_back(domains[c].cardinalities()[k]);
    }
  }

  ClusterSweepResult result;
  result.codes.resize(collect_codes ? num_clusters : 0);
  result.decoded.resize(num_clusters);
  std::vector<uint32_t*> code_ptr(num_clusters, nullptr);
  std::vector<uint32_t*> decoded_ptr(member_attr.size());
  for (size_t c = 0; c < num_clusters; ++c) {
    if (collect_codes) {
      result.codes[c].resize(num_parties_);
      code_ptr[c] = result.codes[c].data();
    }
    result.decoded[c].resize(cluster_size[c]);
    for (size_t k = 0; k < cluster_size[c]; ++k) {
      result.decoded[c][k].resize(num_parties_);
      decoded_ptr[offset[c] + k] = result.decoded[c][k].data();
    }
  }

  // Per-worker count buffers (integer merges commute, so worker totals
  // reduce to the same histogram any sharded count produces).
  const size_t workers =
      ResolveWorkerCount(num_threads, num_parties_, shard_size);
  std::vector<std::vector<std::vector<int64_t>>> worker_counts(workers);
  for (size_t w = 0; w < workers; ++w) {
    worker_counts[w].resize(num_clusters);
    for (size_t c = 0; c < num_clusters; ++c) {
      worker_counts[w][c].assign(matrices[c].size(), 0);
    }
  }

  // Column j < m of a party's sweep replays its round-1 draw for
  // attribute j (the same design over the same true value, so the same
  // words), and column m + c publishes cluster c: the re-seeded engine
  // reaches round 2 in the state round 1 left it.
  std::vector<RrMatrix> designs = round1_;
  designs.insert(designs.end(), matrices.begin(), matrices.end());
  ParallelChunks(
      num_parties_, shard_size, num_threads,
      [&](size_t worker, size_t /*shard*/, size_t begin, size_t end) {
        std::vector<std::vector<int64_t>>& counts = worker_counts[worker];
        const uint32_t* records = records_.data() + begin * m;
        RandomizeRecords(
            designs.data(), m + num_clusters, end - begin,
            seeds_.data() + begin,
            [&](size_t k, size_t j) {
              const uint32_t* record = records + k * m;
              if (j < m) return record[j];
              const size_t c = j - m;
              const size_t off = offset[c];
              uint64_t code = 0;
              for (size_t p = 0; p < cluster_size[c]; ++p) {
                code += member_stride[off + p] * record[member_attr[off + p]];
              }
              return static_cast<uint32_t>(code);
            },
            [&](size_t k, size_t j, uint32_t published) {
              if (j < m) return;  // Round 1 published this code already.
              const size_t c = j - m;
              const size_t i = begin + k;
              const size_t off = offset[c];
              if (code_ptr[c] != nullptr) code_ptr[c][i] = published;
              ++counts[c][published];
              for (size_t p = 0; p < cluster_size[c]; ++p) {
                decoded_ptr[off + p][i] = static_cast<uint32_t>(
                    (static_cast<uint64_t>(published) /
                     member_stride[off + p]) %
                    decode_card[off + p]);
              }
            });
      });

  result.counts.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    result.counts[c].assign(matrices[c].size(), 0);
    for (size_t w = 0; w < workers; ++w) {
      const std::vector<int64_t>& partial = worker_counts[w][c];
      for (size_t y = 0; y < partial.size(); ++y) {
        result.counts[c][y] += partial[y];
      }
    }
  }
  return result;
}

}  // namespace mdrr::protocol
