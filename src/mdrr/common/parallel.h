// Chunked parallel-for over an index range.
//
// The range [0, n) is split into fixed-size chunks that workers claim
// atomically, so the chunk decomposition -- and therefore anything keyed
// on chunk_index, like an RNG sub-stream -- is independent of the worker
// count. Callers that write output do so into disjoint [begin, end)
// slices and need no synchronization.

#ifndef MDRR_COMMON_PARALLEL_H_
#define MDRR_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <new>
#include <vector>

namespace mdrr {

// Invokes fn(worker_id, chunk_index, begin, end) for every chunk
// [c * chunk_size, min(n, (c + 1) * chunk_size)) of [0, n).
// `num_threads` 0 means one worker per hardware core; the worker count is
// clamped to the chunk count and worker 0 is the calling thread.
// Precondition: chunk_size > 0. `fn` must be safe to call concurrently.
void ParallelChunks(size_t n, size_t chunk_size, size_t num_threads,
                    const std::function<void(size_t worker_id,
                                             size_t chunk_index, size_t begin,
                                             size_t end)>& fn);

// Number of chunks ParallelChunks uses for a range of `n` (>= 1; the last
// chunk may be short). Precondition: chunk_size > 0.
size_t NumChunks(size_t n, size_t chunk_size);

// The worker count ParallelChunks resolves `num_threads` to for `n`
// elements in chunks of `chunk_size` (0 -> hardware concurrency, then
// clamped to the chunk count).
size_t ResolveWorkerCount(size_t num_threads, size_t n, size_t chunk_size);

// Allocator whose blocks start on a 64-byte cache-line boundary.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t /*n*/) { ::operator delete(p, kAlignment); }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const {
    return true;
  }
  template <typename U>
  bool operator!=(const CacheLineAllocator<U>& /*other*/) const {
    return false;
  }
};

// Deterministic parallel reduction of floating-point partial sums.
//
// Integer counts can be merged per *worker* because integer addition
// commutes exactly, but double sums do not: merging in whatever order
// workers happened to claim chunks would make the totals depend on the
// thread count. A ChunkedDoubleAccumulator instead gives every chunk its
// own slot row and merges rows in ascending chunk order, which depends
// only on (n, chunk_size) -- so reductions are bit-identical for any
// worker count.
class ChunkedDoubleAccumulator {
 public:
  // `width` slots per chunk, all zero-initialized. The slots start on a
  // cache line and rows are padded to a 64-byte stride, so every row
  // starts on its own line and neighboring chunks' hot `+=` targets never
  // share one across workers (padding never enters the reduction).
  ChunkedDoubleAccumulator(size_t num_chunks, size_t width)
      : width_(width),
        stride_((width + kDoublesPerCacheLine - 1) / kDoublesPerCacheLine *
                kDoublesPerCacheLine),
        slots_(num_chunks * stride_, 0.0) {}

  // The slot row of `chunk_index` (length width()). Rows of distinct
  // chunks never alias, so workers write without synchronization.
  double* Row(size_t chunk_index) {
    return slots_.data() + chunk_index * stride_;
  }
  const double* Row(size_t chunk_index) const {
    return slots_.data() + chunk_index * stride_;
  }

  // Re-zeroes every slot (buffer reuse across passes).
  void Reset() { slots_.assign(slots_.size(), 0.0); }

  // Column-wise totals merged in ascending chunk order, written into
  // `out[0, width())`.
  void ReduceInto(double* out) const;

  size_t width() const { return width_; }

 private:
  static constexpr size_t kDoublesPerCacheLine = 8;

  size_t width_;
  size_t stride_;
  std::vector<double, CacheLineAllocator<double>> slots_;
};

}  // namespace mdrr

#endif  // MDRR_COMMON_PARALLEL_H_
