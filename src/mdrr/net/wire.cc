#include "mdrr/net/wire.h"

#include "mdrr/linalg/matrix.h"
#include "mdrr/linalg/structured.h"

namespace mdrr {
namespace net {
namespace {

constexpr uint8_t kMatrixStructured = 1;
constexpr uint8_t kMatrixDense = 2;

}  // namespace

size_t EncodedMatrixSize(const RrMatrix& matrix) {
  // Tag and size, then the two mixture weights or size^2 doubles.
  return 1 + 8 +
         8 * (matrix.is_structured() ? 2 : matrix.size() * matrix.size());
}

void EncodeMatrix(const RrMatrix& matrix, WireWriter& writer) {
  if (matrix.is_structured()) {
    const linalg::UniformMixture& m = *matrix.structured();
    writer.U8(kMatrixStructured);
    writer.U64(m.size);
    writer.F64(m.diagonal);
    writer.F64(m.off_diagonal);
    return;
  }
  linalg::Matrix dense = matrix.ToDense();
  writer.U8(kMatrixDense);
  writer.U64(dense.rows());
  for (size_t u = 0; u < dense.rows(); ++u) {
    writer.F64Array(dense.RowData(u), dense.cols());
  }
}

StatusOr<RrMatrix> DecodeMatrix(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
  if (tag == kMatrixStructured) {
    MDRR_ASSIGN_OR_RETURN(uint64_t size, reader.U64());
    MDRR_ASSIGN_OR_RETURN(double diagonal, reader.F64());
    MDRR_ASSIGN_OR_RETURN(double off_diagonal, reader.F64());
    if (size == 0 || size > kMaxFramePayload) {
      return Status::InvalidArgument("structured matrix size out of range");
    }
    return RrMatrix::FromStructured(linalg::UniformMixture{
        static_cast<size_t>(size), diagonal, off_diagonal});
  }
  if (tag == kMatrixDense) {
    MDRR_ASSIGN_OR_RETURN(uint64_t r, reader.U64());
    if (r == 0) {
      return Status::InvalidArgument("dense matrix must be nonempty");
    }
    // r * r doubles must fit in what's actually on the wire (bounding r
    // first keeps r * r from overflowing).
    MDRR_RETURN_IF_ERROR(reader.CheckClaimed(r, 8, "dense matrix"));
    MDRR_RETURN_IF_ERROR(reader.CheckClaimed(r * r, 8, "dense matrix"));
    size_t n = static_cast<size_t>(r);
    linalg::Matrix dense(n, n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      MDRR_RETURN_IF_ERROR(reader.F64Array(&dense(u, 0), n));
    }
    return RrMatrix::FromDense(std::move(dense));
  }
  return Status::InvalidArgument("unknown matrix representation tag");
}

void EncodeCounts(const std::vector<int64_t>& counts, WireWriter& writer) {
  writer.U64(counts.size());
  writer.I64Array(counts.data(), counts.size());
}

StatusOr<std::vector<int64_t>> DecodeCounts(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(reader.CheckClaimed(len, 8, "count buffer length"));
  std::vector<int64_t> counts(static_cast<size_t>(len));
  MDRR_RETURN_IF_ERROR(reader.I64Array(counts.data(), counts.size()));
  return counts;
}

void EncodeCodes(const uint32_t* codes, size_t len, WireWriter& writer) {
  writer.U64(len);
  writer.U32Array(codes, len);
}

StatusOr<std::vector<uint32_t>> DecodeCodes(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(reader.CheckClaimed(len, 4, "code column length"));
  std::vector<uint32_t> codes(static_cast<size_t>(len));
  MDRR_RETURN_IF_ERROR(reader.U32Array(codes.data(), codes.size()));
  return codes;
}

}  // namespace net
}  // namespace mdrr
