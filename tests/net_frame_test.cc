// Unit suite for the net/ wire layer: explicit little-endian framing
// goldens (the format is a cross-host contract, not whatever the
// compiler does), bounds-checked reader behavior, and exact round trips
// for every payload codec and protocol message.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/net/frame.h"
#include "mdrr/net/protocol.h"
#include "mdrr/net/wire.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace net {
namespace {

// --- Framing primitives ---

TEST(WireWriterTest, LittleEndianGoldens) {
  WireWriter writer;
  writer.U8(0xAB);
  writer.U32(0x11223344u);
  writer.U64(0x0102030405060708ull);
  const std::vector<uint8_t> expected = {
      0xAB,                                            // u8
      0x44, 0x33, 0x22, 0x11,                          // u32 LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 LE
  };
  EXPECT_EQ(writer.buffer(), expected);
}

TEST(WireWriterTest, DoubleTravelsAsIeee754Bits) {
  WireWriter writer;
  writer.F64(1.5);  // 0x3FF8000000000000
  const std::vector<uint8_t> expected = {0x00, 0x00, 0x00, 0x00,
                                         0x00, 0x00, 0xF8, 0x3F};
  EXPECT_EQ(writer.buffer(), expected);
}

TEST(WireReaderTest, RoundTripsEveryPrimitive) {
  WireWriter writer;
  writer.U8(7);
  writer.U32(0xDEADBEEFu);
  writer.U64(1ull << 60);
  writer.I64(-42);
  writer.F64(-0.125);
  writer.String("hello");
  std::vector<uint8_t> bytes = writer.Release();

  WireReader reader(bytes);
  EXPECT_EQ(reader.U8().value(), 7);
  EXPECT_EQ(reader.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64().value(), 1ull << 60);
  EXPECT_EQ(reader.I64().value(), -42);
  EXPECT_EQ(reader.F64().value(), -0.125);
  EXPECT_EQ(reader.String().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireReaderTest, EveryGetterFailsOnTruncation) {
  std::vector<uint8_t> three = {1, 2, 3};
  EXPECT_FALSE(WireReader(three).U32().ok());
  EXPECT_FALSE(WireReader(three).U64().ok());
  EXPECT_FALSE(WireReader(three).F64().ok());
  EXPECT_FALSE(WireReader(three).String().ok());  // claims from garbage len
  EXPECT_FALSE(WireReader(three).Skip(4).ok());
  WireReader empty(nullptr, 0);
  EXPECT_FALSE(empty.U8().ok());
}

TEST(WireReaderTest, StringRejectsLengthBeyondBuffer) {
  WireWriter writer;
  writer.U32(1000);  // claims 1000 body bytes...
  writer.U8('x');    // ...delivers one
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  EXPECT_FALSE(reader.String().ok());
}

// --- Matrix codec ---

TEST(MatrixCodecTest, StructuredMatrixRoundTripsStructured) {
  RrMatrix matrix = RrMatrix::KeepUniform(5, 0.7);
  ASSERT_TRUE(matrix.structured().has_value());
  WireWriter writer;
  EncodeMatrix(matrix, writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeMatrix(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded.value().structured().has_value());
  ASSERT_EQ(decoded.value().size(), matrix.size());
  for (size_t u = 0; u < matrix.size(); ++u) {
    for (size_t v = 0; v < matrix.size(); ++v) {
      EXPECT_EQ(decoded.value().Prob(v, u), matrix.Prob(v, u));
    }
  }
  // The determinism contract is on draws, not just probabilities.
  for (uint64_t element = 0; element < 64; ++element) {
    EXPECT_EQ(decoded.value().RandomizeCounter(element % 5, 99, 3, element),
              matrix.RandomizeCounter(element % 5, 99, 3, element));
  }
}

TEST(MatrixCodecTest, DenseMatrixRoundTripsDense) {
  // Asymmetric rows: uniform-mixture detection must reject this both at
  // the source and after decode.
  const double rows[3][3] = {
      {0.8, 0.1, 0.1}, {0.2, 0.7, 0.1}, {0.3, 0.3, 0.4}};
  linalg::Matrix p(3, 3);
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 3; ++v) p(u, v) = rows[u][v];
  }
  auto matrix = RrMatrix::FromDense(p);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  ASSERT_FALSE(matrix.value().structured().has_value());
  WireWriter writer;
  EncodeMatrix(matrix.value(), writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeMatrix(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.value().structured().has_value());
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 3; ++v) {
      EXPECT_EQ(decoded.value().Prob(v, u), matrix.value().Prob(v, u));
    }
  }
  for (uint64_t element = 0; element < 64; ++element) {
    EXPECT_EQ(decoded.value().RandomizeCounter(element % 3, 7, 1, element),
              matrix.value().RandomizeCounter(element % 3, 7, 1, element));
  }
}

TEST(MatrixCodecTest, FromStructuredRejectsNonStochasticRows) {
  linalg::UniformMixture bad;
  bad.size = 4;
  bad.diagonal = 0.9;
  bad.off_diagonal = 0.2;  // row sum 1.5
  EXPECT_FALSE(RrMatrix::FromStructured(bad).ok());
}

// --- Count / code / frequency codecs ---

TEST(CountCodecTest, CountsRoundTripIncludingNegatives) {
  std::vector<int64_t> counts = {0, 17, -3, 1ll << 40};
  WireWriter writer;
  EncodeCounts(counts, writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeCounts(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), counts);
}

TEST(CountCodecTest, CodesRoundTrip) {
  std::vector<uint32_t> codes = {5, 0, 4294967295u, 2};
  WireWriter writer;
  EncodeCodes(codes.data(), codes.size(), writer);
  std::vector<uint8_t> bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeCodes(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), codes);
}

// --- Protocol messages ---

TEST(ProtocolCodecTest, AssignShardsRoundTrips) {
  AssignShardsMsg msg;
  msg.task_id = 42;
  msg.rng_kind = 1;
  msg.seed = 1234;
  msg.stream_base = 77;
  msg.counter_stream = 3;
  msg.matrix = RrMatrix::KeepUniform(3, 0.6);
  msg.shards.push_back({0, 0, {0, 1, 2, 1}});
  msg.shards.push_back({2, 8, {2, 2}});
  auto parsed = ParseAssignShards(EncodeAssignShards(msg));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().task_id, 42u);
  EXPECT_EQ(parsed.value().rng_kind, 1);
  EXPECT_EQ(parsed.value().seed, 1234u);
  EXPECT_EQ(parsed.value().stream_base, 77u);
  EXPECT_EQ(parsed.value().counter_stream, 3u);
  ASSERT_TRUE(parsed.value().matrix.has_value());
  EXPECT_EQ(parsed.value().matrix->size(), 3u);
  ASSERT_EQ(parsed.value().shards.size(), 2u);
  EXPECT_EQ(parsed.value().shards[0].shard_index, 0u);
  EXPECT_EQ(parsed.value().shards[0].codes, msg.shards[0].codes);
  EXPECT_EQ(parsed.value().shards[1].global_begin, 8u);
  EXPECT_EQ(parsed.value().shards[1].codes, msg.shards[1].codes);
}

TEST(ProtocolCodecTest, AssignShardsRejectsCodesOutsideTheMatrix) {
  AssignShardsMsg msg;
  msg.matrix = RrMatrix::KeepUniform(3, 0.6);
  msg.shards.push_back({0, 0, {0, 1, 3}});  // 3 >= size 3
  EXPECT_FALSE(ParseAssignShards(EncodeAssignShards(msg)).ok());
}

TEST(ProtocolCodecTest, PartialResultRoundTrips) {
  PartialResultMsg msg;
  msg.task_id = 9;
  msg.shards.push_back({1, {4, 4, 0}});
  msg.counts = {10, 0, 3};
  auto parsed = ParsePartialResult(EncodePartialResult(msg));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().task_id, 9u);
  ASSERT_EQ(parsed.value().shards.size(), 1u);
  EXPECT_EQ(parsed.value().shards[0].shard_index, 1u);
  EXPECT_EQ(parsed.value().shards[0].codes, msg.shards[0].codes);
  EXPECT_EQ(parsed.value().counts, msg.counts);

  // A hostile worker cannot smuggle a negative category count into the
  // coordinator's FrequencyTable merge (which CHECKs non-negativity).
  msg.counts = {10, -1, 3};
  auto hostile = ParsePartialResult(EncodePartialResult(msg));
  EXPECT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolCodecTest, StreamMessagesRoundTrip) {
  StreamOpenMsg open;
  open.cardinalities = {3, 2, 4};
  open.total_reports = 1000;
  auto open2 = ParseStreamOpen(EncodeStreamOpen(open));
  ASSERT_TRUE(open2.ok()) << open2.status().ToString();
  EXPECT_EQ(open2.value().cardinalities, open.cardinalities);
  EXPECT_EQ(open2.value().total_reports, 1000u);

  StreamReportMsg report;
  report.first_sequence = 512;
  report.num_reports = 2;
  report.num_attributes = 3;
  report.codes = {0, 1, 3, 2, 0, 1};
  auto report2 = ParseStreamReport(EncodeStreamReport(report));
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2.value().first_sequence, 512u);
  EXPECT_EQ(report2.value().codes, report.codes);

  StreamSealMsg seal{1000};
  auto seal2 = ParseStreamSeal(EncodeStreamSeal(seal));
  ASSERT_TRUE(seal2.ok()) << seal2.status().ToString();
  EXPECT_EQ(seal2.value().total_reports, 1000u);

  StreamResultMsg result;
  result.reports_ingested = 1000;
  result.epsilon_spent = 2.5;
  result.finished = 1;
  auto result2 = ParseStreamResult(EncodeStreamResult(result));
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2.value().reports_ingested, 1000u);
  EXPECT_EQ(result2.value().epsilon_spent, 2.5);
  EXPECT_EQ(result2.value().finished, 1);
}

TEST(ProtocolCodecTest, HelloRoundTripsAndAbortCarriesReason) {
  HelloMsg hello;
  hello.role = PeerRole::kIngest;
  auto hello2 = ParseHello(EncodeHello(hello));
  ASSERT_TRUE(hello2.ok()) << hello2.status().ToString();
  EXPECT_EQ(hello2.value().magic, kProtocolMagic);
  EXPECT_EQ(hello2.value().version, kProtocolVersion);
  EXPECT_EQ(hello2.value().role, PeerRole::kIngest);

  AbortMsg abort{"worker 3 lost"};
  auto abort2 = ParseAbort(EncodeAbort(abort));
  ASSERT_TRUE(abort2.ok()) << abort2.status().ToString();
  EXPECT_EQ(abort2.value().reason, "worker 3 lost");
}

}  // namespace
}  // namespace net
}  // namespace mdrr
