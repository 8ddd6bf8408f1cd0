#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/common/flags.h"
#include "mdrr/common/parallel.h"
#include "mdrr/common/status.h"
#include "mdrr/common/status_or.h"
#include "mdrr/common/string_util.h"

namespace mdrr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

StatusOr<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

StatusOr<int> Doubled(int value) {
  MDRR_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Doubled(21).ok());
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  std::vector<std::string> parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseInt64) {
  ASSERT_TRUE(ParseInt64("42").ok());
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -17 ").value(), -17);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("3.5").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 0.001);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--runs=100", "--sigma=0.25", "--verbose",
                        "positional", "--name=test"};
  FlagSet flags;
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("runs", 1), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sigma", 0.0), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_FALSE(flags.Has("positional"));
}

TEST(FlagsTest, DefaultsAndMalformedValues) {
  const char* argv[] = {"prog", "--runs=abc"};
  FlagSet flags;
  flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("runs", 7), 7);       // Malformed -> default.
  EXPECT_EQ(flags.GetInt("missing", 9), 9);    // Missing -> default.
  EXPECT_FALSE(flags.GetBool("missing", false));
}

// Parses `args` (after a program name) and checks them against `table`.
Status CheckFlags(std::vector<const char*> args,
                  const std::vector<FlagDef>& table) {
  args.insert(args.begin(), "prog");
  FlagSet flags;
  flags.Parse(static_cast<int>(args.size()), const_cast<char**>(args.data()));
  return flags.Check(table);
}

// The refusal names the flag.
void ExpectRefused(const Status& status, const std::string& flag) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << flag;
  EXPECT_NE(status.message().find("--" + flag), std::string::npos)
      << status.message();
}

TEST(FlagsTest, CheckRefusesAnUndeclaredFlag) {
  const std::vector<FlagDef> table = {UintFlag("runs"), TextFlag("name")};
  EXPECT_TRUE(CheckFlags({"--runs=3", "--name=x", "positional"}, table).ok());
  ExpectRefused(CheckFlags({"--runs=3", "--bogus=1"}, table), "bogus");
  ExpectRefused(CheckFlags({"--bogus"}, {}), "bogus");
  EXPECT_TRUE(CheckFlags({"positional"}, {}).ok());
}

TEST(FlagsTest, CheckRefusesMalformedValues) {
  const std::vector<FlagDef> table = {IntFlag("i"), UintFlag("u"),
                                      RealFlag("x"), BoolFlag("b")};
  ExpectRefused(CheckFlags({"--i=12x"}, table), "i");
  ExpectRefused(CheckFlags({"--i"}, table), "i");
  ExpectRefused(CheckFlags({"--u=abc"}, table), "u");
  ExpectRefused(CheckFlags({"--u=-1"}, table), "u");
  ExpectRefused(CheckFlags({"--u=1.5"}, table), "u");
  ExpectRefused(CheckFlags({"--x=abc"}, table), "x");
  ExpectRefused(CheckFlags({"--x="}, table), "x");
  for (const char* bad : {"--b=maybe", "--b=yes", "--b=", "--b=2"}) {
    ExpectRefused(CheckFlags({bad}, table), "b");
  }
  for (const char* good : {"--b", "--b=true", "--b=false", "--b=1", "--b=0"}) {
    EXPECT_TRUE(CheckFlags({good}, table).ok()) << good;
  }
}

TEST(FlagsTest, CheckRangesAreInclusive) {
  const std::vector<FlagDef> table = {IntFlag("i", -3, 5),
                                      UintFlag("u", 2, 4096),
                                      RealFlag("p", 0.0, 1.0)};
  EXPECT_TRUE(CheckFlags({"--i=-3", "--u=2", "--p=0"}, table).ok());
  EXPECT_TRUE(CheckFlags({"--i=5", "--u=4096", "--p=1"}, table).ok());
  ExpectRefused(CheckFlags({"--i=-4"}, table), "i");
  ExpectRefused(CheckFlags({"--i=6"}, table), "i");
  ExpectRefused(CheckFlags({"--u=1"}, table), "u");
  ExpectRefused(CheckFlags({"--u=4097"}, table), "u");
  ExpectRefused(CheckFlags({"--p=-0.001"}, table), "p");
  ExpectRefused(CheckFlags({"--p=1.001"}, table), "p");
}

TEST(FlagsTest, CheckRefusesNanAndTakesInfinityWithinRange) {
  const std::vector<FlagDef> table = {RealFlag("budget", 0.0),
                                      RealFlag("p", 0.0, 1.0), RealFlag("x")};
  ExpectRefused(CheckFlags({"--x=nan"}, table), "x");
  ExpectRefused(CheckFlags({"--budget=nan"}, table), "budget");
  EXPECT_TRUE(CheckFlags({"--budget=inf", "--x=-inf"}, table).ok());
  ExpectRefused(CheckFlags({"--p=inf"}, table), "p");
  ExpectRefused(CheckFlags({"--budget=-inf"}, table), "budget");
}

// Integer bounds are compared exactly: no value passes through a double,
// which would round 2^53 + 1 to 2^53 and 2^64 - 1 up to 2^64.
TEST(FlagsTest, CheckComparesIntegersExactly) {
  const std::vector<FlagDef> table = {
      UintFlag("seed"), UintFlag("batch", 0, UINT32_MAX),
      UintFlag("n", 0, (uint64_t{1} << 53) + 1), IntFlag("i")};
  const char* top[] = {"prog", "--seed=18446744073709551615"};
  FlagSet flags;
  flags.Parse(2, const_cast<char**>(top));
  ASSERT_TRUE(flags.Check(table).ok());
  EXPECT_EQ(flags.GetUint64("seed", 1), UINT64_MAX);
  ExpectRefused(CheckFlags({"--seed=18446744073709551616"}, table), "seed");
  EXPECT_TRUE(CheckFlags({"--batch=4294967295"}, table).ok());
  ExpectRefused(CheckFlags({"--batch=4294967296"}, table), "batch");
  EXPECT_TRUE(CheckFlags({"--n=9007199254740993"}, table).ok());
  ExpectRefused(CheckFlags({"--n=9007199254740994"}, table), "n");
  EXPECT_TRUE(CheckFlags({"--i=-9223372036854775808"}, table).ok());
  ExpectRefused(CheckFlags({"--i=9223372036854775808"}, table), "i");
}

TEST(ParallelChunksTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1003;
  std::vector<std::atomic<int>> touched(n);
  for (auto& t : touched) t = 0;
  ParallelChunks(n, 64, 4,
                 [&](size_t /*worker*/, size_t /*chunk*/, size_t begin,
                     size_t end) {
                   for (size_t i = begin; i < end; ++i) ++touched[i];
                 });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelChunksTest, ChunkDecompositionIsIndependentOfWorkerCount) {
  const size_t n = 500;
  const size_t chunk_size = 33;
  for (size_t threads : {1u, 2u, 7u, 0u}) {
    std::mutex mu;
    std::set<std::vector<size_t>> chunks;
    ParallelChunks(n, chunk_size, threads,
                   [&](size_t /*worker*/, size_t chunk, size_t begin,
                       size_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.insert({chunk, begin, end});
                   });
    EXPECT_EQ(chunks.size(), NumChunks(n, chunk_size));
    for (const auto& c : chunks) {
      EXPECT_EQ(c[1], c[0] * chunk_size);
      EXPECT_EQ(c[2], std::min(n, c[1] + chunk_size));
    }
  }
}

TEST(ParallelChunksTest, EmptyRangeAndWorkerClamping) {
  // n = 0 still makes one (empty) chunk; workers are clamped to chunks.
  EXPECT_EQ(NumChunks(0, 10), 1u);
  EXPECT_EQ(ResolveWorkerCount(16, 5, 10), 1u);
  EXPECT_GE(ResolveWorkerCount(0, 1000, 10), 1u);
  int calls = 0;
  ParallelChunks(0, 10, 8,
                 [&](size_t, size_t, size_t begin, size_t end) {
                   ++calls;
                   EXPECT_EQ(begin, end);
                 });
  EXPECT_EQ(calls, 1);
}

TEST(ChunkedDoubleAccumulatorTest, RowsStartOnCacheLines) {
  for (size_t num_chunks : {1u, 2u, 5u}) {
    for (size_t width : {1u, 3u, 8u, 9u, 20u}) {
      ChunkedDoubleAccumulator acc(num_chunks, width);
      for (size_t c = 0; c < num_chunks; ++c) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(acc.Row(c)) % 64, 0u)
            << "chunks=" << num_chunks << " width=" << width << " row " << c;
      }
    }
  }
}

}  // namespace
}  // namespace mdrr
