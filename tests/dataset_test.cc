#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mdrr/dataset/csv.h"
#include "mdrr/dataset/dataset.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/rng/rng.h"

namespace mdrr {
namespace {

std::vector<Attribute> SmallSchema() {
  return {
      Attribute{"color", AttributeType::kNominal, {"red", "green", "blue"}},
      Attribute{"size", AttributeType::kOrdinal, {"S", "M", "L", "XL"}},
  };
}

TEST(DatasetTest, ConstructFromColumns) {
  Dataset ds(SmallSchema(), {{0, 1, 2}, {3, 2, 1}});
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_EQ(ds.num_attributes(), 2u);
  EXPECT_EQ(ds.at(2, 0), 2u);
  EXPECT_EQ(ds.at(0, 1), 3u);
  EXPECT_EQ(ds.column(0), (std::vector<uint32_t>{0, 1, 2}));
}

TEST(DatasetTest, SetColumnReplaces) {
  Dataset ds(SmallSchema(), {{0, 1}, {0, 0}});
  ds.SetColumn(1, {3, 2});
  EXPECT_EQ(ds.at(0, 1), 3u);
}

TEST(DatasetTest, TiledReplicatesRecords) {
  Dataset ds(SmallSchema(), {{0, 1}, {2, 3}});
  Dataset tiled = ds.Tiled(3);
  EXPECT_EQ(tiled.num_rows(), 6u);
  EXPECT_EQ(tiled.at(0, 0), tiled.at(2, 0));
  EXPECT_EQ(tiled.at(1, 1), tiled.at(5, 1));
}

TEST(DatasetTest, ProjectSelectsAttributes) {
  Dataset ds(SmallSchema(), {{0, 1}, {2, 3}});
  Dataset projected = ds.Project({1});
  EXPECT_EQ(projected.num_attributes(), 1u);
  EXPECT_EQ(projected.attribute(0).name, "size");
  EXPECT_EQ(projected.column(0), (std::vector<uint32_t>{2, 3}));
}

TEST(DatasetTest, Cardinalities) {
  Dataset ds(SmallSchema(), {{}, {}});
  EXPECT_EQ(ds.Cardinalities(), (std::vector<int64_t>{3, 4}));
}

// --- Domain ---

TEST(DomainTest, SizeIsProduct) {
  Domain d({3, 4, 2});
  EXPECT_EQ(d.size(), 24u);
  EXPECT_EQ(d.num_positions(), 3u);
}

TEST(DomainTest, EncodeDecodeKnownValues) {
  Domain d({3, 4});
  // Last position varies fastest.
  EXPECT_EQ(d.Encode({0, 0}), 0u);
  EXPECT_EQ(d.Encode({0, 1}), 1u);
  EXPECT_EQ(d.Encode({1, 0}), 4u);
  EXPECT_EQ(d.Encode({2, 3}), 11u);
  EXPECT_EQ(d.Decode(11), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(d.DecodeAt(11, 0), 2u);
  EXPECT_EQ(d.DecodeAt(11, 1), 3u);
}

class DomainRoundTrip : public ::testing::TestWithParam<std::vector<size_t>> {
};

// Property: Encode and Decode are inverse bijections over the full domain.
TEST_P(DomainRoundTrip, EncodeDecodeInverse) {
  Domain d(GetParam());
  for (uint64_t code = 0; code < d.size(); ++code) {
    std::vector<uint32_t> tuple = d.Decode(code);
    EXPECT_EQ(d.Encode(tuple), code);
    for (size_t pos = 0; pos < d.num_positions(); ++pos) {
      EXPECT_EQ(d.DecodeAt(code, pos), tuple[pos]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DomainRoundTrip,
    ::testing::Values(std::vector<size_t>{2}, std::vector<size_t>{5, 3},
                      std::vector<size_t>{2, 2, 2, 2},
                      std::vector<size_t>{7, 1, 4},
                      std::vector<size_t>{16, 15}));

TEST(DomainTest, DecodeColumnMatchesDecodeAt) {
  // Every code of the small domains; for the two near 2^32, the first and
  // last 10 000 codes and 100 000 random ones.
  const std::vector<std::vector<size_t>> shapes = {
      {9}, {15, 2}, {6, 2, 5}, {65536, 65535}, {2, (size_t{1} << 31) - 1}};
  Rng rng(11);
  for (const std::vector<size_t>& shape : shapes) {
    Domain domain(shape);
    std::vector<uint32_t> codes;
    if (domain.size() <= 1000) {
      for (uint64_t code = 0; code < domain.size(); ++code) {
        codes.push_back(static_cast<uint32_t>(code));
      }
    } else {
      for (uint64_t k = 0; k < 10000; ++k) {
        codes.push_back(static_cast<uint32_t>(k));
        codes.push_back(static_cast<uint32_t>(domain.size() - 1 - k));
      }
      for (int k = 0; k < 100000; ++k) {
        codes.push_back(static_cast<uint32_t>(rng.UniformInt(domain.size())));
      }
    }
    for (size_t position = 0; position < domain.num_positions(); ++position) {
      for (size_t threads : {1, 4}) {
        const std::vector<uint32_t> column =
            DecodeColumnSharded(domain, codes, position, 1000, threads);
        ASSERT_EQ(column.size(), codes.size());
        for (size_t row = 0; row < codes.size(); ++row) {
          ASSERT_EQ(column[row], domain.DecodeAt(codes[row], position))
              << "shape size " << domain.size() << " position " << position
              << " code " << codes[row] << " threads " << threads;
        }
      }
    }
  }
}

TEST(DomainTest, ComposeColumns) {
  Dataset ds(SmallSchema(), {{0, 1, 2}, {3, 0, 1}});
  Domain d = Domain::ForAttributes(ds, {0, 1});
  std::vector<uint32_t> composite = d.ComposeColumns(ds, {0, 1});
  EXPECT_EQ(composite[0], d.Encode({0, 3}));
  EXPECT_EQ(composite[1], d.Encode({1, 0}));
  EXPECT_EQ(composite[2], d.Encode({2, 1}));
}

TEST(DomainTest, MarginalizeTo) {
  Domain d({2, 2});
  // Joint: P(0,0)=.1 P(0,1)=.2 P(1,0)=.3 P(1,1)=.4.
  std::vector<double> joint = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> first = d.MarginalizeTo(joint, 0);
  EXPECT_DOUBLE_EQ(first[0], 0.3);
  EXPECT_DOUBLE_EQ(first[1], 0.7);
  std::vector<double> second = d.MarginalizeTo(joint, 1);
  EXPECT_DOUBLE_EQ(second[0], 0.4);
  EXPECT_DOUBLE_EQ(second[1], 0.6);
}

TEST(DomainTest, MarginalizeToSubsetPreservesOrder) {
  Domain d({2, 3, 2});
  std::vector<double> joint(d.size(), 0.0);
  joint[d.Encode({1, 2, 0})] = 0.5;
  joint[d.Encode({0, 2, 1})] = 0.5;
  // Marginalize onto (position 2, position 0) in that order.
  std::vector<double> sub = d.MarginalizeToSubset(joint, {2, 0});
  Domain sub_domain({2, 2});
  EXPECT_DOUBLE_EQ(sub[sub_domain.Encode({0, 1})], 0.5);
  EXPECT_DOUBLE_EQ(sub[sub_domain.Encode({1, 0})], 0.5);
}

// --- CSV ---

TEST(CsvTest, RoundTripThroughFile) {
  Dataset ds(SmallSchema(), {{0, 1, 2}, {3, 2, 0}});
  std::string path = ::testing::TempDir() + "/mdrr_csv_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(ds, path).ok());

  auto rows = ReadCsvRows(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 4u);  // Header + 3 records.
  EXPECT_EQ(rows.value()[0][0], "color");

  std::vector<std::vector<std::string>> data_rows(rows.value().begin() + 1,
                                                  rows.value().end());
  auto loaded = DatasetFromRowsWithSchema(data_rows, SmallSchema(), {0, 1});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().column(0), ds.column(0));
  EXPECT_EQ(loaded.value().column(1), ds.column(1));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsvRows("/nonexistent/path.csv").ok());
}

TEST(CsvTest, DatasetFromRowsInfersVocabulary) {
  std::vector<std::vector<std::string>> rows = {
      {"a", "x"}, {"b", "x"}, {"a", "y"}};
  auto ds = DatasetFromRows(rows, {"first", "second"});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().attribute(0).cardinality(), 2u);
  EXPECT_EQ(ds.value().attribute(1).cardinality(), 2u);
  EXPECT_EQ(ds.value().at(2, 0), 0u);  // "a" got code 0.
  EXPECT_EQ(ds.value().at(2, 1), 1u);  // "y" got code 1.
}

TEST(CsvTest, DatasetFromRowsRejectsRaggedRows) {
  std::vector<std::vector<std::string>> rows = {{"a", "x"}, {"b"}};
  EXPECT_FALSE(DatasetFromRows(rows, {"first", "second"}).ok());
}

TEST(CsvTest, SchemaLoadRejectsUnknownCategory) {
  std::vector<std::vector<std::string>> rows = {{"purple", "S"}};
  EXPECT_FALSE(DatasetFromRowsWithSchema(rows, SmallSchema(), {0, 1}).ok());
}

}  // namespace
}  // namespace mdrr
