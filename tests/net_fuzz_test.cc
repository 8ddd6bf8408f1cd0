// Fuzz suite for the net/ decoders: every parser that can face a peer
// gets truncated prefixes, bit-flipped bytes, and hostile length claims.
// The contract is uniform -- untrusted bytes produce a Status, never a
// crash, CHECK, or unbounded allocation.

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/net/frame.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/socket.h"
#include "mdrr/net/wire.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace net {
namespace {

constexpr int kMutationsPerSeed = 200;

// One well-formed exemplar per parser, so truncations and mutations
// start from bytes that exercise the deep decode paths.
std::vector<std::vector<uint8_t>> Exemplars() {
  std::vector<std::vector<uint8_t>> exemplars;

  exemplars.push_back(EncodeHello(HelloMsg{}));

  AssignShardsMsg assign;
  assign.task_id = 3;
  assign.rng_kind = 0;
  assign.seed = 11;
  assign.stream_base = 5;
  assign.counter_stream = 2;
  assign.matrix = RrMatrix::KeepUniform(4, 0.7);
  assign.shards.push_back({0, 0, {0, 1, 2, 3, 0}});
  assign.shards.push_back({1, 5, {3, 3}});
  exemplars.push_back(EncodeAssignShards(assign));

  PartialResultMsg partial;
  partial.task_id = 3;
  partial.shards.push_back({0, {1, 1, 0, 2, 3}});
  partial.counts = {2, 1, 1, 1};
  exemplars.push_back(EncodePartialResult(partial));

  exemplars.push_back(EncodeAbort(AbortMsg{"fuzz"}));

  StreamOpenMsg open;
  open.cardinalities = {3, 2, 4};
  open.total_reports = 64;
  exemplars.push_back(EncodeStreamOpen(open));

  StreamReportMsg report;
  report.first_sequence = 0;
  report.num_reports = 2;
  report.num_attributes = 3;
  report.codes = {0, 1, 3, 2, 0, 0};
  exemplars.push_back(EncodeStreamReport(report));

  exemplars.push_back(EncodeStreamSeal(StreamSealMsg{64}));

  StreamResultMsg result;
  result.reports_ingested = 64;
  result.epsilon_spent = 1.5;
  result.finished = 1;
  exemplars.push_back(EncodeStreamResult(result));

  return exemplars;
}

// Runs every parser over the bytes. Outcomes are unchecked -- the
// assertion is that nothing crashes and error paths stay error paths.
void ParseEverything(const std::vector<uint8_t>& bytes) {
  (void)ParseHello(bytes);
  (void)ParseAssignShards(bytes);
  (void)ParsePartialResult(bytes);
  (void)ParseAbort(bytes);
  (void)ParseStreamOpen(bytes);
  (void)ParseStreamReport(bytes);
  (void)ParseStreamSeal(bytes);
  (void)ParseStreamResult(bytes);
  {
    WireReader reader(bytes);
    (void)DecodeMatrix(reader);
  }
  {
    WireReader reader(bytes);
    (void)DecodeCounts(reader);
  }
  {
    WireReader reader(bytes);
    (void)DecodeCodes(reader);
  }
}

TEST(NetFuzzTest, EveryTruncationOfEveryExemplarIsHandled) {
  for (const std::vector<uint8_t>& exemplar : Exemplars()) {
    for (size_t len = 0; len < exemplar.size(); ++len) {
      std::vector<uint8_t> prefix(exemplar.begin(),
                                  exemplar.begin() + len);
      ParseEverything(prefix);
    }
  }
}

TEST(NetFuzzTest, MutatedExemplarsNeverCrashTheParsers) {
  Rng rng(0xF0221);
  for (const std::vector<uint8_t>& exemplar : Exemplars()) {
    for (int round = 0; round < kMutationsPerSeed; ++round) {
      std::vector<uint8_t> mutated = exemplar;
      const size_t flips = 1 + rng.UniformInt(4);
      for (size_t f = 0; f < flips; ++f) {
        const size_t pos = rng.UniformInt(mutated.size());
        mutated[pos] = static_cast<uint8_t>(rng.UniformInt(256));
      }
      ParseEverything(mutated);
    }
  }
}

TEST(NetFuzzTest, RandomGarbageNeverCrashesTheParsers) {
  Rng rng(0xF0222);
  for (int round = 0; round < kMutationsPerSeed; ++round) {
    std::vector<uint8_t> garbage(rng.UniformInt(256));
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.UniformInt(256));
    }
    ParseEverything(garbage);
  }
}

TEST(NetFuzzTest, HostileLengthClaimsFailBeforeAllocating) {
  // A dense matrix claiming 2^60 rows: must error out, not allocate.
  {
    WireWriter writer;
    writer.U8(2);  // dense tag
    writer.U64(1ull << 60);
    std::vector<uint8_t> bytes = writer.Release();
    WireReader reader(bytes);
    EXPECT_FALSE(DecodeMatrix(reader).ok());
  }
  // A count buffer claiming 2^59 entries backed by 8 bytes.
  {
    WireWriter writer;
    writer.U64(1ull << 59);
    writer.I64(7);
    std::vector<uint8_t> bytes = writer.Release();
    WireReader reader(bytes);
    EXPECT_FALSE(DecodeCounts(reader).ok());
  }
  // A report batch whose count * attributes overflows 64 bits.
  {
    StreamReportMsg report;
    report.first_sequence = 0;
    report.num_reports = 2;
    report.num_attributes = 2;
    report.codes = {1, 1, 1, 1};
    std::vector<uint8_t> bytes = EncodeStreamReport(report);
    // Patch num_reports (offset 8) and num_attributes (offset 12) to
    // 0xFFFFFFFF each.
    for (size_t i = 8; i < 16; ++i) bytes[i] = 0xFF;
    EXPECT_FALSE(ParseStreamReport(bytes).ok());
  }
}

TEST(NetFuzzTest, TrailingBytesAreAProtocolError) {
  std::vector<uint8_t> bytes = EncodeStreamSeal(StreamSealMsg{9});
  bytes.push_back(0x00);
  EXPECT_FALSE(ParseStreamSeal(bytes).ok());
}

// A frame header claiming more than kMaxFramePayload must be rejected
// by the receiver before any allocation happens.
TEST(NetFuzzTest, OversizedFrameHeaderIsRejectedAtTheSocket) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  const uint16_t port = listener.port();

  std::thread client([port] {
    auto conn = TcpConnection::Connect("127.0.0.1", port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    WireWriter header;
    header.U32(kMaxFramePayload + 1);
    header.U8(static_cast<uint8_t>(FrameType::kHello));
    Status sent = conn.value().SendBytes(header.buffer().data(),
                                         header.buffer().size(), 2000);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    // Hold the socket open until the server has judged the header.
    (void)conn.value().RecvFrame(500);
  });
  auto accepted = listener.Accept(2000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  auto frame = accepted.value().RecvFrame(2000);
  EXPECT_FALSE(frame.ok());
  client.join();
}

// Truncated frames (header promises more payload than ever arrives) end
// in a clean error on the receiving side once the peer disconnects.
TEST(NetFuzzTest, TruncatedFrameBodyFailsCleanly) {
  TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  const uint16_t port = listener.port();

  std::thread client([port] {
    auto conn = TcpConnection::Connect("127.0.0.1", port, 2000);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    WireWriter partial;
    partial.U32(100);  // promises 100 payload bytes
    partial.U8(static_cast<uint8_t>(FrameType::kAbort));
    partial.U8(0xAA);  // delivers one
    Status sent = conn.value().SendBytes(partial.buffer().data(),
                                         partial.buffer().size(), 2000);
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    // Destructor closes: the server sees EOF mid-payload.
  });
  auto accepted = listener.Accept(2000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  auto frame = accepted.value().RecvFrame(2000);
  EXPECT_FALSE(frame.ok());
  client.join();
}

}  // namespace
}  // namespace net
}  // namespace mdrr
