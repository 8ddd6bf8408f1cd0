#include "mdrr/core/adjustment.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

// The code tuples of the records, hashed and compared across all groups.
class TupleKeys {
 public:
  explicit TupleKeys(const std::vector<const uint32_t*>& record_codes)
      : record_codes_(record_codes) {}

  uint64_t Hash(size_t i) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const uint32_t* codes : record_codes_) {
      h = (h ^ codes[i]) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 29);
  }

  void Prefetch(size_t i) const {
    for (const uint32_t* codes : record_codes_) __builtin_prefetch(&codes[i]);
  }

  bool Equal(size_t a, size_t b) const {
    for (const uint32_t* codes : record_codes_) {
      if (codes[a] != codes[b]) return false;
    }
    return true;
  }

 private:
  const std::vector<const uint32_t*>& record_codes_;
};

constexpr uint32_t kNoCell = ~uint32_t{0};

// The power-of-two slot count (>= 2) a table starts at for `cells` cells.
size_t TableSlots(size_t cells) {
  size_t size = 2;
  while (size < cells) size *= 2;
  return size;
}

// Distinct tuples numbered in order of first insertion. Tuples are looked
// up in an open-addressing table of 64-bit slots: the high half holds the
// tuple hash's high half, the low half the cell number + 1 (0 marks an
// empty slot). A tag match is confirmed by comparing the full tuple with
// the cell's first record, so distinct tuples never share a cell, for any
// domain sizes. The table runs on caller-owned zeroed slots and moves to
// storage of its own, twice the size, only when it would pass half full;
// the move recomputes each cell's hash from its first record instead of
// storing it.
class CellTable {
 public:
  // `slots[0, num_slots)`: zeroed, num_slots a power of two. `first`
  // receives each new cell's first record.
  CellTable(const TupleKeys& keys, uint64_t* slots, size_t num_slots,
            std::vector<uint32_t>& first)
      : keys_(keys), slots_(slots), mask_(num_slots - 1), first_(first) {}

  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&slots_[hash & mask_]);
  }

  // The cell of record `record` (tuple hash `hash`), numbering its tuple
  // as a new cell if unseen -- or kNoCell if that cell would be number
  // `max_cells`.
  uint32_t FindOrAdd(uint32_t record, uint64_t hash, size_t max_cells) {
    size_t pos = Probe(hash, record);
    if (slots_[pos] != 0) return static_cast<uint32_t>(slots_[pos]) - 1;
    if (first_.size() == max_cells) return kNoCell;
    if (2 * (first_.size() + 1) > mask_ + 1) {
      Grow();
      pos = Probe(hash, record);
    }
    const uint32_t cell = static_cast<uint32_t>(first_.size());
    first_.push_back(record);
    slots_[pos] = (hash & kTagMask) | (uint64_t{cell} + 1);
    return cell;
  }

 private:
  static constexpr uint64_t kTagMask = ~uint64_t{0xffffffff};

  // The slot holding the tuple of `record`, or the empty slot ending its
  // probe sequence.
  size_t Probe(uint64_t hash, uint32_t record) const {
    const uint64_t tag = hash & kTagMask;
    size_t pos = hash & mask_;
    while (slots_[pos] != 0 &&
           ((slots_[pos] & kTagMask) != tag ||
            !keys_.Equal(first_[static_cast<uint32_t>(slots_[pos]) - 1],
                         record))) {
      pos = (pos + 1) & mask_;
    }
    return pos;
  }

  void Grow() {
    std::vector<uint64_t> grown(2 * (mask_ + 1), 0);
    mask_ = grown.size() - 1;
    for (size_t c = 0; c < first_.size(); ++c) {
      const uint64_t hash = keys_.Hash(first_[c]);
      size_t pos = hash & mask_;
      while (grown[pos] != 0) pos = (pos + 1) & mask_;
      grown[pos] = (hash & kTagMask) | (uint64_t{c} + 1);
    }
    own_slots_.swap(grown);
    slots_ = own_slots_.data();
  }

  const TupleKeys& keys_;
  uint64_t* slots_;
  size_t mask_;
  std::vector<uint64_t> own_slots_;
  std::vector<uint32_t>& first_;
};

// Calls visit(k, cell) for k in [0, count) with the cell of record
// record_of(k), in ascending k. Table probes miss the cache, so the loop
// hashes kLookahead items ahead and prefetches their slots, and prefetches
// the codes it will hash kLookahead items before that (the merge's
// records are sparse). Returns false, having stopped, as soon as a new
// cell would be number `max_cells`.
template <typename RecordOf, typename Visit>
bool NumberCells(CellTable& table, const TupleKeys& keys, size_t count,
                 size_t max_cells, RecordOf record_of, Visit visit) {
  constexpr size_t kLookahead = 16;
  uint64_t hashes_ahead[kLookahead];
  for (size_t k = 0; k < std::min(kLookahead, count); ++k) {
    hashes_ahead[k] = keys.Hash(record_of(k));
  }
  for (size_t k = 0; k < count; ++k) {
    const uint64_t h = hashes_ahead[k % kLookahead];
    if (k + kLookahead < count) {
      const uint64_t next = keys.Hash(record_of(k + kLookahead));
      hashes_ahead[k % kLookahead] = next;
      table.Prefetch(next);
    }
    if (k + 2 * kLookahead < count) {
      keys.Prefetch(record_of(k + 2 * kLookahead));
    }
    const uint32_t cell = table.FindOrAdd(record_of(k), h, max_cells);
    if (cell == kNoCell) return false;
    visit(k, cell);
  }
  return true;
}

// One contiguous range of records and its own cells, numbered in order of
// first appearance within the range.
struct CellPart {
  // first[c] is the first record of the part's cell c until the merge,
  // which overwrites it with the cell's global number.
  std::vector<uint32_t> first;
  // count[c] is the number of the part's records in its cell c.
  std::vector<uint32_t> count;
  bool complete = false;
};

// Builds the cell index with cells numbered in order of first appearance,
// so the cells never depend on the thread count. The records are split
// into one contiguous part per worker, and each part numbers its own
// cells in parallel (cell_of then holds part-local cells). One serial
// merge walks the parts' cells in part order and gives each tuple the
// global number of its first appearance, summing the parts' counts; the
// parts' first-record arrays become their local-to-global maps, and a
// parallel pass rewrites cell_of through them.
//
// The build stops as soon as more than half the records would need a
// cell of their own (a part alone passing that bound stops early). The
// cell sweeps would then save less than half the work of sweeping
// records, while the index costs a scan, a gather and memory per record,
// so every record becomes its own cell instead.
CellIndex BuildCellIndex(const std::vector<AdjustmentGroup>& groups,
                         size_t num_records, size_t chunk_size,
                         size_t num_threads) {
  const size_t num_groups = groups.size();
  const size_t max_cells = num_records / 2;
  std::vector<const uint32_t*> record_codes(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    record_codes[g] = groups[g].codes.data();
  }
  const TupleKeys keys(record_codes);
  CellIndex records;
  records.num_cells = num_records;
  records.codes = record_codes;

  // Every buffer is allocated here, on the calling thread, so the
  // workers' malloc arenas never hold (and keep) them; only a part table
  // that passes half full grows on its worker. Part p's table is
  // slots[slot_begin[p], slot_begin[p + 1]): one zeroed buffer, sized
  // like a single table of num_records slots, that the merge table reuses
  // and that is freed as one block, so the heap is left no more
  // fragmented than by one table.
  const size_t workers =
      ResolveWorkerCount(num_threads, num_records, chunk_size);
  const size_t part_size = (num_records + workers - 1) / workers;
  const size_t num_parts = NumChunks(num_records, part_size);
  CellIndex index;
  index.cell_of.resize(num_records);
  std::vector<CellPart> parts(num_parts);
  std::vector<size_t> slot_begin(num_parts + 1, 0);
  for (size_t p = 0; p < num_parts; ++p) {
    const size_t size = std::min(part_size, num_records - p * part_size);
    parts[p].first.reserve(std::min(size, max_cells));
    parts[p].count.reserve(std::min(size, max_cells));
    slot_begin[p + 1] = slot_begin[p] + TableSlots(size);
  }
  std::vector<uint64_t> slots(slot_begin[num_parts], 0);
  ParallelChunks(
      num_records, part_size, num_parts,
      [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
        CellPart& part = parts[p];
        CellTable table(keys, slots.data() + slot_begin[p],
                        slot_begin[p + 1] - slot_begin[p], part.first);
        part.complete = NumberCells(
            table, keys, end - begin, max_cells,
            [&](size_t k) { return static_cast<uint32_t>(begin + k); },
            [&](size_t k, uint32_t cell) {
              index.cell_of[begin + k] = cell;
              if (cell == part.count.size()) part.count.push_back(0);
              ++part.count[cell];
            });
      });
  size_t local_cells = 0;
  for (const CellPart& part : parts) {
    if (!part.complete) return records;
    local_cells += part.first.size();
  }

  // The merge table's TableSlots(<= num_records / 2) slots fit in the
  // buffer, which holds at least num_records.
  const size_t merged_cells = std::min(local_cells, max_cells);
  const size_t merge_slots = TableSlots(merged_cells);
  std::fill_n(slots.data(), merge_slots, 0);
  std::vector<uint32_t> first;
  first.reserve(merged_cells);
  index.count.reserve(merged_cells);
  {
    CellTable merged(keys, slots.data(), merge_slots, first);
    for (CellPart& part : parts) {
      const bool complete = NumberCells(
          merged, keys, part.first.size(), max_cells,
          [&](size_t c) { return part.first[c]; },
          [&](size_t c, uint32_t cell) {
            if (cell == index.count.size()) index.count.push_back(0);
            index.count[cell] += part.count[c];
            part.first[c] = cell;
          });
      if (!complete) return records;
      std::vector<uint32_t>().swap(part.count);
    }
  }
  std::vector<uint64_t>().swap(slots);
  ParallelChunks(num_records, part_size, num_parts,
                 [&](size_t /*worker*/, size_t p, size_t begin, size_t end) {
                   const uint32_t* global = parts[p].first.data();
                   for (size_t i = begin; i < end; ++i) {
                     index.cell_of[i] = global[index.cell_of[i]];
                   }
                 });
  parts.clear();

  // Copy each cell's tuple out of its first record.
  index.num_cells = first.size();
  index.cell_codes.assign(num_groups, std::vector<uint32_t>(index.num_cells));
  ParallelChunks(index.num_cells, chunk_size, num_threads,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t g = 0; g < num_groups; ++g) {
                     for (size_t c = begin; c < end; ++c) {
                       index.cell_codes[g][c] = record_codes[g][first[c]];
                     }
                   }
                 });
  for (const std::vector<uint32_t>& codes : index.cell_codes) {
    index.codes.push_back(codes.data());
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
    for (uint32_t code : group.codes) {
      if (code >= group.target.size()) {
        return Status::InvalidArgument("group code out of target range");
      }
    }
  }

  const size_t chunk_size = std::max<size_t>(1, options.chunk_size);
  CellIndex cells =
      BuildCellIndex(groups, num_records, chunk_size, options.num_threads);
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
