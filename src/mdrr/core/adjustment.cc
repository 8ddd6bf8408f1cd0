#include "mdrr/core/adjustment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>

#include "mdrr/common/parallel.h"

namespace mdrr {

namespace {

// The normalized reweighting table of one Adjust_weights step (Algorithm
// 2 lines 6-7). ratio[v] = target[v] / implied[v] rescales the group's
// implied marginal onto its target; dividing the whole table by the
// post-rescale total mass (which is just the target mass of the
// reachable categories -- no record scan needed) folds the
// renormalization of the sequential algorithm into the same multiply.
// Fails when the target gives no mass to any reachable category: the
// step would zero every weight.
StatusOr<std::vector<double>> NormalizedRatio(
    const std::vector<double>& implied, const std::vector<double>& target) {
  std::vector<double> ratio(target.size(), 1.0);
  double total_after = 0.0;
  for (size_t v = 0; v < target.size(); ++v) {
    if (implied[v] > 0.0) {
      ratio[v] = target[v] / implied[v];
      total_after += target[v];
    }
    // Categories with zero implied mass cannot be repaired by
    // reweighting (no record carries them); their target mass is
    // unreachable and shows up in max_marginal_gap.
  }
  if (!(total_after > 0.0)) {
    return Status::FailedPrecondition(
        "adjustment target gives no mass to any category the weighted "
        "records reach");
  }
  for (double& r : ratio) r /= total_after;
  return ratio;
}

// The cells Algorithm 2 sweeps. Records with the same code in every group
// receive the same ratio at every IPF step, so their weights stay equal
// and the fit can run over the distinct group-code tuples ("cells"),
// each weighted by its record count. When more than half the records
// would need a cell, each record is its own cell instead: `codes` then
// points at the groups' code vectors, and `count` and `cell_of` are
// empty.
struct CellIndex {
  size_t num_cells = 0;
  // codes[g][c] is group g's code in cell c.
  std::vector<const uint32_t*> codes;
  // Storage behind `codes` when cells are distinct tuples.
  std::vector<std::vector<uint32_t>> cell_codes;
  // Records per cell.
  std::vector<uint32_t> count;
  // cell_of[i] is the cell of record i.
  std::vector<uint32_t> cell_of;
};

// The numbering splits the records into 2^kBucketBits buckets by the high
// bits of their mixed keys. A load-balancing grain: the cells never
// depend on it.
constexpr int kBucketBits = 10;
constexpr size_t kNumBuckets = size_t{1} << kBucketBits;
constexpr size_t kBucketsPerChunk = 16;
// Records whose keys are built at a time, in a block that stays in L1.
constexpr size_t kKeyBlock = 1024;

// A bijection of 64-bit words (MurmurHash3's finalizer): two mixed keys
// are equal exactly when the keys are, and every bit of the key reaches
// the high bits that pick the bucket and the low bits that pick the slot.
uint64_t MixKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ull;
  return key ^ (key >> 33);
}

// The power-of-two slot count (>= 2) for `count` entries.
size_t TableSlots(size_t count) {
  size_t size = 2;
  while (size < count) size *= 2;
  return size;
}

// The exact key of a run of groups [first, last): record i's key is
// base[i] + sum of codes_g[i] * stride[g - first], its tuple written as a
// mixed-radix number. `base` numbers the tuples of the groups before
// `first` (its stride is 1), or is null when `first` is 0.
struct TupleKey {
  const uint32_t* base = nullptr;
  size_t first = 0;
  size_t last = 0;
  std::vector<uint64_t> stride;
};

// Writes the mixed keys of records [begin, end) to `out`. Returns false
// if a code lies outside its group's target range.
bool MixedKeys(const std::vector<AdjustmentGroup>& groups, const TupleKey& key,
               size_t begin, size_t end, uint64_t* out) {
  const size_t count = end - begin;
  for (size_t k = 0; k < count; ++k) {
    out[k] = key.base != nullptr ? key.base[begin + k] : 0;
  }
  bool in_range = true;
  for (size_t g = key.first; g < key.last; ++g) {
    const uint32_t* codes = groups[g].codes.data() + begin;
    const uint64_t stride = key.stride[g - key.first];
    uint32_t max_code = 0;
    for (size_t k = 0; k < count; ++k) {
      max_code = std::max(max_code, codes[k]);
      out[k] += codes[k] * stride;
    }
    in_range &= max_code < groups[g].target.size();
  }
  for (size_t k = 0; k < count; ++k) out[k] = MixKey(out[k]);
  return in_range;
}

Status CodeOutOfRange() {
  return Status::InvalidArgument("group code out of target range");
}

// Cells numbered by first appearance: first[c] is cell c's first record
// and count[c] its record count. Empty when the tuples were too many.
struct Numbering {
  std::vector<uint32_t> first;
  std::vector<uint32_t> count;
};

// Numbers the distinct keys of the records in order of first appearance,
// writing record i's cell to cell_of[i], or stops, returning no cells, as
// soon as there would be more than `max_cells`.
//
// The records are split into `num_parts` contiguous parts of `part_size`.
// Each part histograms its mixed keys' high bits, then scatters its
// (key, record) pairs bucket-major and part-major, so every bucket lists
// its records in ascending order. Each bucket then finds each key's
// first record and count in an exact-key table, compacting
// the cells' keys and counts into the front of its slice of the pairs. A
// prefix count of first records over the parts numbers the cells by
// first appearance, and a last pass gives every record its cell. Keys
// are compared whole, so no record is read back; the cells and the
// stop never depend on the part count.
StatusOr<Numbering> NumberKeys(const std::vector<AdjustmentGroup>& groups,
                               const TupleKey& key, size_t num_records,
                               size_t part_size, size_t num_parts,
                               size_t max_cells, uint32_t* cell_of) {
  constexpr int kShift = 64 - kBucketBits;
  // Every buffer is allocated here, on the calling thread, so the
  // workers' malloc arenas never hold (and keep) them.
  std::vector<size_t> cursor(num_parts * kNumBuckets, 0);
  std::vector<uint8_t> in_range(num_parts, 1);
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   uint64_t block[kKeyBlock];
                   size_t* histogram = cursor.data() + p * kNumBuckets;
                   for (size_t b = begin; b < end; b += kKeyBlock) {
                     const size_t e = std::min(end, b + kKeyBlock);
                     if (!MixedKeys(groups, key, b, e, block)) in_range[p] = 0;
                     for (size_t k = 0; k < e - b; ++k) {
                       ++histogram[block[k] >> kShift];
                     }
                   }
                 });
  for (uint8_t ok : in_range) {
    if (!ok) return CodeOutOfRange();
  }

  // Bucket b holds pairs [bucket_begin[b], bucket_begin[b + 1]). Each
  // part's histogram becomes its write cursors.
  std::vector<size_t> bucket_begin(kNumBuckets + 1, 0);
  size_t at = 0;
  size_t largest_bucket = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    bucket_begin[b] = at;
    for (size_t p = 0; p < num_parts; ++p) {
      const size_t records = cursor[p * kNumBuckets + b];
      cursor[p * kNumBuckets + b] = at;
      at += records;
    }
    largest_bucket = std::max(largest_bucket, at - bucket_begin[b]);
  }
  bucket_begin[kNumBuckets] = at;

  // Every slot is written by the scatter, so neither array is zeroed.
  std::unique_ptr<uint64_t[]> keys(new uint64_t[num_records]);
  std::unique_ptr<uint32_t[]> records(new uint32_t[num_records]);
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   uint64_t block[kKeyBlock];
                   size_t* next = cursor.data() + p * kNumBuckets;
                   for (size_t b = begin; b < end; b += kKeyBlock) {
                     const size_t e = std::min(end, b + kKeyBlock);
                     MixedKeys(groups, key, b, e, block);
                     for (size_t k = 0; k < e - b; ++k) {
                       const size_t pos = next[block[k] >> kShift]++;
                       keys[pos] = block[k];
                       records[pos] = static_cast<uint32_t>(b + k);
                     }
                   }
                 });
  std::vector<size_t>().swap(cursor);

  // Cell c of bucket b is slot s = bucket_begin[b] + c: keys[s] holds its
  // key and records[s] its count, and cell_of points every record at its
  // cell's slot until the numbering below. Bucket b's pair c has been
  // read by the time cell c exists, so the cells overwrite only read
  // pairs. is_first marks each cell's first record. Each worker's table
  // holds the cell + 1 of a key (0 when empty), at most half full; a
  // bucket zeroes only the slots it uses, so the pages of the largest
  // bucket's size are touched only by the worker that gets it.
  const size_t bucket_workers =
      ResolveWorkerCount(num_parts, kNumBuckets, kBucketsPerChunk);
  const size_t table_size = TableSlots(2 * largest_bucket);
  std::unique_ptr<uint32_t[]> tables(new uint32_t[bucket_workers * table_size]);
  std::vector<uint8_t> is_first(num_records, 0);
  std::atomic<size_t> cells_so_far{0};
  std::atomic<bool> too_many{false};
  ParallelChunks(
      kNumBuckets, kBucketsPerChunk, bucket_workers,
      [&](size_t worker, size_t /*chunk*/, size_t b_begin, size_t b_end) {
        uint32_t* table = tables.get() + worker * table_size;
        for (size_t b = b_begin; b < b_end; ++b) {
          if (too_many.load()) return;
          const size_t offset = bucket_begin[b];
          uint64_t* bucket_keys = keys.get() + offset;
          uint32_t* bucket_records = records.get() + offset;
          const size_t bucket_size = bucket_begin[b + 1] - offset;
          const size_t num_slots = TableSlots(2 * bucket_size);
          std::fill_n(table, num_slots, 0);
          const size_t mask = num_slots - 1;
          uint32_t cells = 0;
          for (size_t k = 0; k < bucket_size; ++k) {
            const uint64_t record_key = bucket_keys[k];
            const uint32_t record = bucket_records[k];
            size_t pos = record_key & mask;
            while (table[pos] != 0 &&
                   bucket_keys[table[pos] - 1] != record_key) {
              pos = (pos + 1) & mask;
            }
            if (table[pos] == 0) {
              if (cells == max_cells) {
                too_many.store(true);
                return;
              }
              table[pos] = ++cells;
              bucket_keys[cells - 1] = record_key;
              bucket_records[cells - 1] = 0;
              is_first[record] = 1;
            }
            const uint32_t cell = table[pos] - 1;
            ++bucket_records[cell];
            cell_of[record] = static_cast<uint32_t>(offset + cell);
          }
          if (cells_so_far.fetch_add(cells) + cells > max_cells) {
            too_many.store(true);
          }
        }
      });
  if (too_many.load()) return Numbering{};
  tables.reset();

  // Cell numbers by first appearance: part p's first records take the
  // numbers from part_base[p] on, in record order.
  Numbering numbering;
  numbering.first.resize(cells_so_far.load());
  numbering.count.resize(numbering.first.size());
  std::vector<size_t> part_base(num_parts + 1, 0);
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   size_t firsts = 0;
                   for (size_t i = begin; i < end; ++i) firsts += is_first[i];
                   part_base[p + 1] = firsts;
                 });
  for (size_t p = 0; p < num_parts; ++p) part_base[p + 1] += part_base[p];
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   size_t next = part_base[p];
                   for (size_t i = begin; i < end; ++i) {
                     if (!is_first[i]) continue;
                     const uint32_t slot = cell_of[i];
                     numbering.first[next] = static_cast<uint32_t>(i);
                     numbering.count[next] = records[slot];
                     keys[slot] = next++;
                   }
                 });
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t /*p*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     cell_of[i] = static_cast<uint32_t>(keys[cell_of[i]]);
                   }
                 });
  return numbering;
}

// Checks the codes of groups [first, groups.size()) against their
// targets' ranges.
Status CheckCodeRanges(const std::vector<AdjustmentGroup>& groups,
                       size_t first, size_t num_records, size_t part_size,
                       size_t num_parts) {
  std::vector<uint8_t> in_range(num_parts, 1);
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   for (size_t g = first; g < groups.size(); ++g) {
                     const uint32_t* codes = groups[g].codes.data();
                     uint32_t max_code = 0;
                     for (size_t i = begin; i < end; ++i) {
                       max_code = std::max(max_code, codes[i]);
                     }
                     if (max_code >= groups[g].target.size()) in_range[p] = 0;
                   }
                 });
  for (uint8_t ok : in_range) {
    if (!ok) return CodeOutOfRange();
  }
  return Status::OK();
}

// Builds the cell index, checking every code against its group's target
// range on the way. The key of a record is its tuple's exact mixed-radix
// number, each group's stride the product of the earlier groups' target
// sizes (a code is below 2^32, so a size past it counts as 2^32). Where
// the next product would pass 64 bits, the tuples of the groups so far
// are numbered first, and the key goes on from that number; more than
// num_records / 2 distinct prefix tuples means at least as many full
// ones, so the numbering stops there too.
//
// When more than half the records would need a cell of their own, the
// cell sweeps would save less than half the work of sweeping records,
// while the index costs a scan, a gather and memory per record, so every
// record becomes its own cell instead.
StatusOr<CellIndex> BuildCellIndex(const std::vector<AdjustmentGroup>& groups,
                                   size_t num_records, size_t chunk_size,
                                   size_t num_threads) {
  const size_t num_groups = groups.size();
  const size_t max_cells = num_records / 2;
  CellIndex index;
  for (const AdjustmentGroup& group : groups) {
    index.codes.push_back(group.codes.data());
  }
  const size_t workers =
      ResolveWorkerCount(num_threads, num_records, chunk_size);
  const size_t part_size = (num_records + workers - 1) / workers;
  const size_t num_parts = NumChunks(num_records, part_size);

  std::vector<uint32_t> cell_of(num_records);
  TupleKey key;
  uint64_t radix = 1;
  Numbering numbering;
  for (size_t g = 0;; ++g) {
    const uint64_t width =
        g < num_groups
            ? std::min<uint64_t>(groups[g].target.size(), uint64_t{1} << 32)
            : 0;
    uint64_t next_radix = 0;
    if (g == num_groups || __builtin_mul_overflow(radix, width, &next_radix)) {
      key.last = g;
      MDRR_ASSIGN_OR_RETURN(numbering,
                            NumberKeys(groups, key, num_records, part_size,
                                       num_parts, max_cells, cell_of.data()));
      if (numbering.first.empty()) {
        MDRR_RETURN_IF_ERROR(
            CheckCodeRanges(groups, g, num_records, part_size, num_parts));
        index.num_cells = num_records;
        return index;
      }
      if (g == num_groups) break;
      key.base = cell_of.data();
      key.first = g;
      key.stride.clear();
      radix = numbering.first.size();
      next_radix = radix * width;  // At most 2^31 cells times 2^32.
    }
    key.stride.push_back(radix);
    radix = next_radix;
  }

  // Copy each cell's tuple out of its first record.
  index.num_cells = numbering.first.size();
  index.count = std::move(numbering.count);
  index.cell_of = std::move(cell_of);
  index.cell_codes.assign(num_groups, std::vector<uint32_t>(index.num_cells));
  const std::vector<uint32_t>& first = numbering.first;
  ParallelChunks(index.num_cells, chunk_size, num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t g = 0; g < num_groups; ++g) {
                     for (size_t c = begin; c < end; ++c) {
                       index.cell_codes[g][c] = index.codes[g][first[c]];
                     }
                   }
                 });
  for (size_t g = 0; g < num_groups; ++g) {
    index.codes[g] = index.cell_codes[g].data();
  }
  return index;
}

}  // namespace

StatusOr<AdjustmentResult> RunRrAdjustment(
    const std::vector<AdjustmentGroup>& groups, size_t num_records,
    const AdjustmentOptions& options) {
  if (groups.empty()) {
    return Status::InvalidArgument("adjustment needs at least one group");
  }
  if (num_records == 0) {
    return Status::InvalidArgument("adjustment needs at least one record");
  }
  if (num_records >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "adjustment record count exceeds the 32-bit cell index");
  }
  for (const AdjustmentGroup& group : groups) {
    if (group.codes.size() != num_records) {
      return Status::InvalidArgument("group code vector size mismatch");
    }
    double total = 0.0;
    for (double t : group.target) {
      if (t < 0.0) {
        return Status::InvalidArgument("target distribution has negatives");
      }
      total += t;
    }
    if (std::fabs(total - 1.0) > 1e-6) {
      return Status::InvalidArgument("target distribution does not sum to 1");
    }
  }

  const size_t chunk_size = std::max<size_t>(1, options.chunk_size);
  MDRR_ASSIGN_OR_RETURN(
      CellIndex cells,
      BuildCellIndex(groups, num_records, chunk_size, options.num_threads));
  const size_t num_cells = cells.num_cells;
  const size_t num_groups = groups.size();
  const size_t num_chunks = NumChunks(num_cells, chunk_size);

  // Flattened layout of all groups' marginals for the combined last pass:
  // group g occupies [group_offset[g], group_offset[g] + |target_g|).
  std::vector<size_t> group_offset(num_groups);
  size_t total_width = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    group_offset[g] = total_width;
    total_width += groups[g].target.size();
  }

  // mass[c] is the total weight of cell c's records; every record starts
  // at weight 1 / num_records.
  const double record_weight = 1.0 / static_cast<double>(num_records);
  std::vector<double> mass(num_cells, record_weight);
  for (size_t c = 0; c < cells.count.size(); ++c) {
    mass[c] = cells.count[c] * record_weight;
  }

  AdjustmentResult result;

  // Reused per-chunk partial buffers: one group's marginal for the
  // middle passes, all groups' marginals for the last pass.
  std::vector<ChunkedDoubleAccumulator> one_group_pool;
  one_group_pool.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    one_group_pool.emplace_back(num_chunks, groups[g].target.size());
  }
  ChunkedDoubleAccumulator all_groups(num_chunks, total_width);
  std::vector<double> all_implied(total_width, 0.0);

  // implied marginal of group 0 under the current weights; maintained
  // across iterations by the combined last pass.
  std::vector<double> implied(groups[0].target.size(), 0.0);
  ParallelChunks(num_cells, chunk_size, options.num_threads,
                 [&](size_t /*worker*/, size_t chunk, size_t begin,
                     size_t end) {
                   double* row = one_group_pool[0].Row(chunk);
                   const uint32_t* codes = cells.codes[0];
                   for (size_t c = begin; c < end; ++c) {
                     row[codes[c]] += mass[c];
                   }
                 });
  one_group_pool[0].ReduceInto(implied.data());
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t g = 0; g < num_groups; ++g) {
      // `implied` holds group g's marginal under the weights after
      // groups 0..g-1 were updated this iteration.
      MDRR_ASSIGN_OR_RETURN(std::vector<double> ratio,
                            NormalizedRatio(implied, groups[g].target));
      const uint32_t* codes_g = cells.codes[g];

      if (g + 1 < num_groups) {
        // Middle pass: apply group g's ratio and accumulate group g+1's
        // implied marginal in the same scan.
        ChunkedDoubleAccumulator& acc = one_group_pool[g + 1];
        acc.Reset();
        const uint32_t* codes_next = cells.codes[g + 1];
        ParallelChunks(num_cells, chunk_size, options.num_threads,
                       [&](size_t /*worker*/, size_t chunk, size_t begin,
                           size_t end) {
                         double* row = acc.Row(chunk);
                         for (size_t c = begin; c < end; ++c) {
                           double w = mass[c] * ratio[codes_g[c]];
                           mass[c] = w;
                           row[codes_next[c]] += w;
                         }
                       });
        implied.assign(groups[g + 1].target.size(), 0.0);
        acc.ReduceInto(implied.data());
      } else {
        // Last pass of the iteration: apply the final ratio and
        // accumulate every group's implied marginal at once -- the
        // convergence test and next iteration's first group both read
        // from this single scan.
        all_groups.Reset();
        if (num_groups == 1) {
          // One group means offset 0 and codes_g is the only code vector:
          // the h-loop collapses to a single flat accumulate (same
          // additions in the same order, just without the indirection).
          ParallelChunks(num_cells, chunk_size, options.num_threads,
                         [&](size_t /*worker*/, size_t chunk, size_t begin,
                             size_t end) {
                           double* row = all_groups.Row(chunk);
                           for (size_t c = begin; c < end; ++c) {
                             double w = mass[c] * ratio[codes_g[c]];
                             mass[c] = w;
                             row[codes_g[c]] += w;
                           }
                         });
        } else {
          // Hoist each group's code pointer + flattened base offset out
          // of the cell loop; the inner loop then runs on two flat
          // arrays instead of chasing per-group members per cell.
          std::vector<const uint32_t*> scan_codes(num_groups);
          for (size_t h = 0; h < num_groups; ++h) {
            scan_codes[h] = cells.codes[h];
          }
          const size_t* offsets = group_offset.data();
          ParallelChunks(num_cells, chunk_size, options.num_threads,
                         [&](size_t /*worker*/, size_t chunk, size_t begin,
                             size_t end) {
                           double* row = all_groups.Row(chunk);
                           for (size_t c = begin; c < end; ++c) {
                             double w = mass[c] * ratio[codes_g[c]];
                             mass[c] = w;
                             for (size_t h = 0; h < num_groups; ++h) {
                               row[offsets[h] + scan_codes[h][c]] += w;
                             }
                           }
                         });
        }
        all_groups.ReduceInto(all_implied.data());
      }
    }
    result.iterations = iter + 1;

    // Convergence test: largest marginal gap across all groups, measured
    // on the end-of-iteration weights (same semantics as the sequential
    // three-scan algorithm).
    double max_gap = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      const double* implied_g = all_implied.data() + group_offset[g];
      for (size_t v = 0; v < groups[g].target.size(); ++v) {
        max_gap = std::max(max_gap,
                           std::fabs(implied_g[v] - groups[g].target[v]));
      }
    }
    result.max_marginal_gap = max_gap;
    if (max_gap < options.tolerance) {
      result.converged = true;
      break;
    }
    implied.assign(all_implied.data(),
                   all_implied.data() + groups[0].target.size());
  }

  // The folded renormalization keeps the total at 1 only up to one
  // rounding per iteration; settle the invariant exactly with one final
  // chunk-ordered reduction.
  ChunkedDoubleAccumulator totals(num_chunks, 1);
  ParallelChunks(num_cells, chunk_size, options.num_threads,
                 [&](size_t /*worker*/, size_t chunk, size_t begin,
                     size_t end) {
                   double sum = 0.0;
                   for (size_t c = begin; c < end; ++c) sum += mass[c];
                   *totals.Row(chunk) = sum;
                 });
  double total = 0.0;
  totals.ReduceInto(&total);
  if (!(total > 0.0)) {
    return Status::FailedPrecondition("adjusted weights sum to zero");
  }
  // Turn each cell's mass into the normalized weight of one of its
  // records, then hand every record its cell's weight.
  const bool records_are_cells = cells.cell_of.empty();
  ParallelChunks(num_cells, chunk_size, options.num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t c = begin; c < end; ++c) {
                     const double record_mass =
                         records_are_cells ? mass[c] : mass[c] / cells.count[c];
                     mass[c] = record_mass / total;
                   }
                 });
  if (records_are_cells) {
    result.weights = std::move(mass);
    return result;
  }
  // The cells' codes are no longer needed; free them before the weights
  // grow to one per record.
  cells.cell_codes.clear();
  result.weights.resize(num_records);
  ParallelChunks(num_records, chunk_size, options.num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     result.weights[i] = mass[cells.cell_of[i]];
                   }
                 });
  return result;
}

std::vector<AdjustmentGroup> GroupsFromIndependent(
    const RrIndependentResult& result) {
  std::vector<AdjustmentGroup> groups;
  groups.reserve(result.randomized.num_attributes());
  for (size_t j = 0; j < result.randomized.num_attributes(); ++j) {
    groups.push_back(
        AdjustmentGroup{result.randomized.column(j), result.estimated[j]});
  }
  return groups;
}

std::vector<AdjustmentGroup> GroupsFromClusters(
    const RrClustersResult& result) {
  std::vector<AdjustmentGroup> groups;
  groups.reserve(result.cluster_results.size());
  for (const RrJointResult& joint : result.cluster_results) {
    groups.push_back(
        AdjustmentGroup{joint.randomized_codes, joint.estimated});
  }
  return groups;
}

StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrIndependentResult& result, const AdjustmentOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      AdjustmentResult adjustment,
      RunRrAdjustment(GroupsFromIndependent(result),
                      result.randomized.num_rows(), options));
  return WeightedRecordsEstimate(result.randomized,
                                 std::move(adjustment.weights));
}

StatusOr<WeightedRecordsEstimate> MakeAdjustedEstimate(
    const RrClustersResult& result, const AdjustmentOptions& options) {
  MDRR_ASSIGN_OR_RETURN(
      AdjustmentResult adjustment,
      RunRrAdjustment(GroupsFromClusters(result),
                      result.randomized.num_rows(), options));
  return WeightedRecordsEstimate(result.randomized,
                                 std::move(adjustment.weights));
}

}  // namespace mdrr
