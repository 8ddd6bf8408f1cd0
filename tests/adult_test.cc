#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "mdrr/core/dependence.h"
#include "mdrr/dataset/adult.h"
#include "mdrr/dataset/domain.h"
#include "mdrr/stats/frequency.h"

namespace mdrr {
namespace {

TEST(AdultSchemaTest, PaperCardinalities) {
  std::vector<Attribute> schema = AdultSchema();
  ASSERT_EQ(schema.size(), 8u);
  EXPECT_EQ(schema[kAdultWorkclass].cardinality(), 9u);
  EXPECT_EQ(schema[kAdultEducation].cardinality(), 16u);
  EXPECT_EQ(schema[kAdultMaritalStatus].cardinality(), 7u);
  EXPECT_EQ(schema[kAdultOccupation].cardinality(), 15u);
  EXPECT_EQ(schema[kAdultRelationship].cardinality(), 6u);
  EXPECT_EQ(schema[kAdultRace].cardinality(), 5u);
  EXPECT_EQ(schema[kAdultSex].cardinality(), 2u);
  EXPECT_EQ(schema[kAdultIncome].cardinality(), 2u);
}

TEST(AdultSchemaTest, DomainSizeMatchesPaper) {
  // Section 6.2: "there were 1,814,400 possible combinations".
  std::vector<Attribute> schema = AdultSchema();
  uint64_t product = 1;
  for (const Attribute& a : schema) product *= a.cardinality();
  EXPECT_EQ(product, 1814400u);
}

TEST(AdultSchemaTest, MeasurementTypes) {
  std::vector<Attribute> schema = AdultSchema();
  EXPECT_EQ(schema[kAdultEducation].type, AttributeType::kOrdinal);
  EXPECT_EQ(schema[kAdultIncome].type, AttributeType::kOrdinal);
  EXPECT_EQ(schema[kAdultOccupation].type, AttributeType::kNominal);
  EXPECT_EQ(schema[kAdultSex].type, AttributeType::kNominal);
}

TEST(AdultSynthesizerTest, DeterministicInSeed) {
  Dataset a = SynthesizeAdult(500, 42);
  Dataset b = SynthesizeAdult(500, 42);
  Dataset c = SynthesizeAdult(500, 43);
  EXPECT_EQ(a.column(kAdultEducation), b.column(kAdultEducation));
  EXPECT_NE(a.column(kAdultEducation), c.column(kAdultEducation));
}

TEST(AdultSynthesizerTest, DefaultSize) {
  Dataset ds = SynthesizeAdult(kAdultNumRecords, 1);
  EXPECT_EQ(ds.num_rows(), kAdultNumRecords);
}

class AdultMarginals : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { dataset_ = new Dataset(SynthesizeAdult(20000, 7)); }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* AdultMarginals::dataset_ = nullptr;

TEST_F(AdultMarginals, SexRatioIsCalibrated) {
  stats::FrequencyTable table(dataset_->column(kAdultSex), 2);
  // Real Adult: ~66.9% male.
  EXPECT_NEAR(table.Proportions()[1], 0.669, 0.02);
}

TEST_F(AdultMarginals, IncomeRateIsCalibrated) {
  stats::FrequencyTable table(dataset_->column(kAdultIncome), 2);
  // Real Adult: ~24% above 50K.
  EXPECT_NEAR(table.Proportions()[1], 0.24, 0.05);
}

TEST_F(AdultMarginals, EducationModeIsHsGrad) {
  stats::FrequencyTable table(dataset_->column(kAdultEducation), 16);
  std::vector<double> p = table.Proportions();
  size_t mode = 0;
  for (size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[mode]) mode = i;
  }
  int hs_grad = AdultSchema()[kAdultEducation].FindCategory("HS-grad");
  EXPECT_EQ(mode, static_cast<size_t>(hs_grad));
}

TEST_F(AdultMarginals, EveryCategoryAppears) {
  // With 20000 records even the rarest categories (Armed-Forces,
  // Never-worked, Preschool) should typically show up; tolerate at most a
  // couple of empty cells overall.
  int empty = 0;
  for (size_t j = 0; j < dataset_->num_attributes(); ++j) {
    stats::FrequencyTable table(dataset_->column(j),
                                dataset_->attribute(j).cardinality());
    for (int64_t c : table.counts()) {
      if (c == 0) ++empty;
    }
  }
  EXPECT_LE(empty, 2);
}

TEST_F(AdultMarginals, DependenceRankingMatchesAdultStructure) {
  // The load-bearing property for the paper's experiments: the
  // Relationship/Sex/Marital family dominates the dependence ranking
  // (in real Adult, Cramér's V(Relationship, Sex) ~ 0.65 tops the list --
  // the 2-category Sex denominator concentrates the statistic), the
  // Education/Occupation coupling is moderate, and Race is nearly
  // independent of everything.
  double marital_rel =
      DependenceBetween(*dataset_, kAdultMaritalStatus, kAdultRelationship);
  double sex_rel = DependenceBetween(*dataset_, kAdultSex, kAdultRelationship);
  double race_edu = DependenceBetween(*dataset_, kAdultRace, kAdultEducation);
  double edu_occ =
      DependenceBetween(*dataset_, kAdultEducation, kAdultOccupation);

  EXPECT_GT(sex_rel, 0.55);
  EXPECT_GT(marital_rel, 0.35);
  EXPECT_GT(edu_occ, 0.12);
  EXPECT_LT(race_edu, 0.1);
  EXPECT_GT(sex_rel, marital_rel);
  EXPECT_GT(marital_rel, edu_occ);
  EXPECT_GT(edu_occ, race_edu);
}

TEST_F(AdultMarginals, HusbandsAreMarriedMales) {
  // Structural sanity of the Bayesian network: Husband implies male and
  // (almost surely) married.
  int husband = AdultSchema()[kAdultRelationship].FindCategory("Husband");
  ASSERT_GE(husband, 0);
  size_t husbands = 0;
  size_t male_husbands = 0;
  for (size_t i = 0; i < dataset_->num_rows(); ++i) {
    if (dataset_->at(i, kAdultRelationship) ==
        static_cast<uint32_t>(husband)) {
      ++husbands;
      if (dataset_->at(i, kAdultSex) == 1) ++male_husbands;
    }
  }
  ASSERT_GT(husbands, 0u);
  EXPECT_EQ(husbands, male_husbands);
}

TEST(AdultCsvTest, LoadsWellFormedFile) {
  std::string path = ::testing::TempDir() + "/mdrr_adult_sample.csv";
  {
    std::ofstream file(path);
    file << "39, State-gov, 77516, Bachelors, 13, Never-married, "
            "Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, "
            "United-States, <=50K\n";
    file << "50, Self-emp-not-inc, 83311, Bachelors, 13, "
            "Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, "
            "0, 13, United-States, >50K.\n";  // Trailing dot: test format.
  }
  auto ds = LoadAdultCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.value().num_rows(), 2u);
  std::string first_row;
  for (size_t j = 0; j < ds.value().num_attributes(); ++j) {
    if (j > 0) first_row += ", ";
    first_row += ds.value().attribute(j).categories[ds.value().at(0, j)];
  }
  EXPECT_EQ(first_row,
            "State-gov, Bachelors, Never-married, Adm-clerical, "
            "Not-in-family, White, Male, <=50K");
  EXPECT_EQ(ds.value().at(1, kAdultIncome), 1u);
  std::remove(path.c_str());
}

TEST(AdultCsvTest, RejectsWrongColumnCount) {
  std::string path = ::testing::TempDir() + "/mdrr_adult_bad.csv";
  {
    std::ofstream file(path);
    file << "39, State-gov, 77516\n";
  }
  EXPECT_FALSE(LoadAdultCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mdrr
