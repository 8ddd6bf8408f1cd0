// Wire codecs for the values that cross the coordinator/worker
// boundary: the RR matrix, count buffers and code columns.
//
// Everything here is a pure buffer transform (no sockets), so the fuzz
// suite can drive the decoders with arbitrary bytes. Decoders validate
// every embedded length against WireReader::remaining() BEFORE
// allocating -- a hostile peer claiming 2^60 elements gets an error, not
// an out-of-memory kill -- and return Status on any malformed input.
//
// Matrix transport is representation-tagged so a decoded matrix draws
// bit-identically to the source:
//   - structured (uniform mixture): the three defining parameters
//     {size, diagonal, off_diagonal} travel verbatim and are rebuilt via
//     RrMatrix::FromStructured, skipping any dense round trip.
//   - dense: raw row-major doubles, rebuilt via RrMatrix::FromDense.
//     FromDense re-runs uniform-mixture detection, but detection is a
//     deterministic function of the exact doubles -- a matrix that was
//     dense at the source decodes dense again.

#ifndef MDRR_NET_WIRE_H_
#define MDRR_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/core/rr_matrix.h"
#include "mdrr/net/frame.h"

namespace mdrr {
namespace net {

// --- RrMatrix ---

void EncodeMatrix(const RrMatrix& matrix, WireWriter& writer);
StatusOr<RrMatrix> DecodeMatrix(WireReader& reader);

// --- Count buffers (i64) and code columns (u32) ---

void EncodeCounts(const std::vector<int64_t>& counts, WireWriter& writer);
StatusOr<std::vector<int64_t>> DecodeCounts(WireReader& reader);

void EncodeCodes(const uint32_t* codes, size_t len, WireWriter& writer);
StatusOr<std::vector<uint32_t>> DecodeCodes(WireReader& reader);

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_WIRE_H_
