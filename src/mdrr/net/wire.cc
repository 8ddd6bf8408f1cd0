#include "mdrr/net/wire.h"

#include <cmath>
#include <string>

#include "mdrr/linalg/matrix.h"
#include "mdrr/linalg/structured.h"

namespace mdrr {
namespace net {
namespace {

constexpr uint8_t kMatrixStructured = 1;
constexpr uint8_t kMatrixDense = 2;

// Bounds a claimed element count against the bytes actually present.
Status CheckClaimedLength(uint64_t claimed, size_t element_bytes,
                          const WireReader& reader, const char* what) {
  if (claimed > reader.remaining() / element_bytes) {
    return Status::OutOfRange(std::string("claimed ") + what +
                              " length exceeds buffer");
  }
  return Status::OK();
}

}  // namespace

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
    for (size_t v = 0; v < dense.cols(); ++v) {
      writer.F64(dense(u, v));
    }
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
    // r * r doubles must fit in what's actually on the wire.
    if (r > reader.remaining() / 8 || r * r > reader.remaining() / 8) {
      return Status::OutOfRange("claimed dense matrix exceeds buffer");
    }
    size_t n = static_cast<size_t>(r);
    linalg::Matrix dense(n, n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      for (size_t v = 0; v < n; ++v) {
        MDRR_ASSIGN_OR_RETURN(dense(u, v), reader.F64());
      }
    }
    return RrMatrix::FromDense(std::move(dense));
  }
  return Status::InvalidArgument("unknown matrix representation tag");
}

void EncodeCounts(const std::vector<int64_t>& counts, WireWriter& writer) {
  writer.U64(counts.size());
  for (int64_t c : counts) writer.I64(c);
}

StatusOr<std::vector<int64_t>> DecodeCounts(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(CheckClaimedLength(len, 8, reader, "count buffer"));
  std::vector<int64_t> counts(static_cast<size_t>(len));
  for (size_t i = 0; i < counts.size(); ++i) {
    MDRR_ASSIGN_OR_RETURN(counts[i], reader.I64());
  }
  return counts;
}

void EncodeCodes(const uint32_t* codes, size_t len, WireWriter& writer) {
  writer.U64(len);
  for (size_t i = 0; i < len; ++i) writer.U32(codes[i]);
}

StatusOr<std::vector<uint32_t>> DecodeCodes(WireReader& reader) {
  MDRR_ASSIGN_OR_RETURN(uint64_t len, reader.U64());
  MDRR_RETURN_IF_ERROR(CheckClaimedLength(len, 4, reader, "code column"));
  std::vector<uint32_t> codes(static_cast<size_t>(len));
  for (size_t i = 0; i < codes.size(); ++i) {
    MDRR_ASSIGN_OR_RETURN(codes[i], reader.U32());
  }
  return codes;
}

}  // namespace net
}  // namespace mdrr
