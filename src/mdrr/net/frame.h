// Wire framing for the distributed release protocol.
//
// Every message on an mdrr connection is one frame:
//
//   [u32 payload_length][u8 frame_type][payload bytes]
//
// with all multi-byte integers little-endian, packed byte-by-byte (no
// struct punning), so the format is identical across hosts regardless of
// native endianness. Payload length covers the payload only (not the type
// byte) and is capped at kMaxFramePayload; a peer claiming more is a
// protocol error, rejected before any allocation.
//
// WireWriter/WireReader are the primitive serializers every payload codec
// builds on. Scalars go one at a time; code columns, count buffers and
// dense matrix rows go through the array primitives, which write the
// same little-endian bytes with one buffer resize (or one bounds check)
// per array instead of one per element. The reader is fully
// bounds-checked and returns Status on truncation -- frames can come
// from untrusted peers, so decoders must never index past the buffer or
// trust embedded lengths (see net_fuzz_test.cc).
//
// The coordinator streams a column as one AssignShards frame per shard
// group (protocol.h), so a frame holds a few shards' codes, never a
// whole column.

#ifndef MDRR_NET_FRAME_H_
#define MDRR_NET_FRAME_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"

namespace mdrr {
namespace net {

// "MDRR" in ASCII; first field of the Hello frame so a stray client
// speaking a different protocol is rejected immediately.
inline constexpr uint32_t kProtocolMagic = 0x4d445252;

// Bumped on any incompatible wire change. Handshakes reject mismatches.
inline constexpr uint32_t kProtocolVersion = 1;

// Hard upper bound on a frame payload (1 GiB). Far above any shard
// group's assignment, small enough that a hostile length prefix cannot
// drive an unbounded allocation.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

enum class FrameType : uint8_t {
  // Handshake.
  kHello = 1,     // client -> server: magic, version, role
  kHelloAck = 2,  // server -> client: magic, version

  // Coordinator/worker release protocol.
  kAssignShards = 3,   // coordinator -> worker: matrix + shard slices
  kPartialResult = 4,  // worker -> coordinator: codes + merged counts
  kCommit = 5,         // coordinator -> worker: release done, disconnect
  kAbort = 6,          // either direction: fail-closed with a reason

  // Streaming ingest (mdrr_collectd --listen).
  kStreamOpen = 7,    // client -> server: cardinalities, total reports
  kStreamReport = 8,  // client -> server: batch of perturbed reports
  kStreamSeal = 9,    // client -> server: no more reports
  kStreamResult = 10  // server -> client: ingest summary
};

struct Frame {
  FrameType type;
  std::vector<uint8_t> payload;
};

// The unsigned word each array element travels as: its own bits for the
// integers, the IEEE-754 bit pattern for doubles.
template <typename T>
using WordOf = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;

template <typename T>
WordOf<T> ToWord(T value) {
  static_assert(sizeof(T) == sizeof(WordOf<T>), "4- or 8-byte elements");
  WordOf<T> word;
  std::memcpy(&word, &value, sizeof(word));
  return word;
}

template <typename T>
T FromWord(WordOf<T> word) {
  T value;
  std::memcpy(&value, &word, sizeof(value));
  return value;
}

// Appends little-endian primitives to a byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buffer_.push_back(v); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  // IEEE-754 bit pattern, so doubles round-trip exactly (the determinism
  // contract is bitwise; "close" is a failure).
  void F64(double v) { U64(ToWord(v)); }

  // Arrays: the same bytes as one U32/I64/F64 per element, written by
  // growing the buffer once and shifting each word out over the raw
  // pointer, so a column encodes at memory speed on any host.
  void U32Array(const uint32_t* values, size_t n) { PutWords(values, n); }
  void I64Array(const int64_t* values, size_t n) { PutWords(values, n); }
  void F64Array(const double* values, size_t n) { PutWords(values, n); }

  void Bytes(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), p, p + len);
  }

  // Capacity hint for encoders that know their exact size.
  void Reserve(size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  // u32 length prefix + raw bytes.
  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> Release() { return std::move(buffer_); }

 private:
  template <typename T>
  void PutWords(const T* values, size_t n) {
    const size_t at = buffer_.size();
    buffer_.resize(at + n * sizeof(T));
    uint8_t* out = buffer_.data() + at;
    for (size_t i = 0; i < n; ++i, out += sizeof(T)) {
      const WordOf<T> word = ToWord(values[i]);
      for (size_t b = 0; b < sizeof(T); ++b) {
        out[b] = static_cast<uint8_t>(word >> (8 * b));
      }
    }
  }

  std::vector<uint8_t> buffer_;
};

// Bounds-checked little-endian reads over a borrowed byte span. Every
// getter fails with OutOfRange on truncation instead of reading past the
// end; `remaining()` lets codecs sanity-check claimed element counts
// before allocating.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit WireReader(const std::vector<uint8_t>& buffer)
      : WireReader(buffer.data(), buffer.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  StatusOr<uint8_t> U8() {
    if (remaining() < 1) return Truncated("u8");
    return data_[pos_++];
  }

  StatusOr<uint32_t> U32() {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  StatusOr<uint64_t> U64() {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  StatusOr<int64_t> I64() {
    auto v = U64();
    if (!v.ok()) return v.status();
    return static_cast<int64_t>(v.value());
  }

  StatusOr<double> F64() {
    auto bits = U64();
    if (!bits.ok()) return bits.status();
    return FromWord<double>(bits.value());
  }

  StatusOr<std::string> String() {
    auto len = U32();
    if (!len.ok()) return len.status();
    if (remaining() < len.value()) return Truncated("string body");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len.value());
    pos_ += len.value();
    return s;
  }

  // Array reads: one bounds check for all `n` elements, then the
  // shift loop that inverts WireWriter's.
  Status U32Array(uint32_t* out, size_t n) { return GetWords(out, n); }
  Status I64Array(int64_t* out, size_t n) { return GetWords(out, n); }
  Status F64Array(double* out, size_t n) { return GetWords(out, n); }

  // Fails unless `claimed` elements of at least `element_bytes` each fit
  // in what is left, so a decoder can reject a hostile length before
  // allocating for it.
  Status CheckClaimed(uint64_t claimed, size_t element_bytes,
                      const char* what) const {
    if (claimed > remaining() / element_bytes) {
      return Status::OutOfRange(std::string("claimed ") + what +
                                " exceeds buffer");
    }
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  template <typename T>
  Status GetWords(T* out, size_t n) {
    if (remaining() / sizeof(T) < n) return Truncated("array");
    const uint8_t* in = data_ + pos_;
    for (size_t i = 0; i < n; ++i, in += sizeof(T)) {
      WordOf<T> word = 0;
      for (size_t b = 0; b < sizeof(T); ++b) {
        word |= static_cast<WordOf<T>>(in[b]) << (8 * b);
      }
      out[i] = FromWord<T>(word);
    }
    pos_ += n * sizeof(T);
    return Status::OK();
  }

  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("wire buffer truncated reading ") +
                              what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace net
}  // namespace mdrr

#endif  // MDRR_NET_FRAME_H_
