#include "mdrr/dataset/adult.h"

#include <array>

#include "mdrr/common/check.h"
#include "mdrr/dataset/csv.h"
#include "mdrr/rng/rng.h"

namespace mdrr {

namespace {

// Category index constants, matching the label order in AdultSchema().

// Workclass.
constexpr size_t kWcCount = 9;
// Education (ordinal by attainment).
constexpr size_t kEduCount = 16;
// Marital-status.
enum : uint32_t {
  kMarriedCiv = 0,
  kDivorced = 1,
  kNeverMarried = 2,
  kSeparated = 3,
  kWidowed = 4,
  kSpouseAbsent = 5,
  kMarriedAf = 6,
};
constexpr size_t kMaritalCount = 7;
// Occupation.
constexpr size_t kOccCount = 15;
constexpr uint32_t kOccUnknown = 14;  // '?'
constexpr uint32_t kOccExec = 4;
constexpr uint32_t kOccProf = 5;
constexpr uint32_t kOccSales = 3;
constexpr uint32_t kOccFarming = 9;
constexpr uint32_t kOccProtective = 12;
constexpr uint32_t kOccArmedForces = 13;
// Relationship.
constexpr size_t kRelCount = 6;
// Race.
constexpr size_t kRaceCount = 5;
// Sex.
enum : uint32_t { kFemale = 0, kMale = 1 };

// Education buckets used for conditioning: below high school, high school
// to associate, bachelor and above.
enum EduBucket { kEduLow = 0, kEduMid = 1, kEduHigh = 2 };

EduBucket BucketOf(uint32_t education) {
  if (education <= 7) return kEduLow;    // Preschool .. 12th
  if (education <= 11) return kEduMid;   // HS-grad .. Assoc-acdm
  return kEduHigh;                       // Bachelors .. Doctorate
}

// --- Conditional probability tables (weights; normalized at draw time) ---

constexpr std::array<double, 2> kSexDist = {0.331, 0.669};

constexpr std::array<double, kEduCount> kEducationDist = {
    0.0016, 0.0052, 0.0102, 0.0198, 0.0158, 0.0287, 0.0361, 0.0133,
    0.3225, 0.2234, 0.0424, 0.0328, 0.1645, 0.0529, 0.0177, 0.0127};

// Marital-status given sex. Rows: Female, Male.
constexpr std::array<std::array<double, kMaritalCount>, 2> kMaritalGivenSex = {{
    {0.140, 0.239, 0.446, 0.064, 0.089, 0.020, 0.002},   // Female
    {0.600, 0.065, 0.290, 0.015, 0.006, 0.012, 0.001},   // Male
}};

// Relationship given (marital, sex). Entry order:
// Wife, Own-child, Husband, Not-in-family, Other-relative, Unmarried.
constexpr std::array<std::array<std::array<double, kRelCount>, 2>,
                     kMaritalCount>
    kRelationshipGivenMaritalSex = {{
        // Married-civ-spouse.
        {{{0.930, 0.010, 0.000, 0.010, 0.040, 0.010},     // Female
          {0.000, 0.005, 0.965, 0.010, 0.015, 0.005}}},   // Male
        // Divorced.
        {{{0.000, 0.060, 0.000, 0.440, 0.070, 0.430},
          {0.000, 0.050, 0.000, 0.800, 0.050, 0.100}}},
        // Never-married.
        {{{0.000, 0.350, 0.000, 0.350, 0.090, 0.210},
          {0.000, 0.480, 0.000, 0.430, 0.070, 0.020}}},
        // Separated.
        {{{0.000, 0.050, 0.000, 0.250, 0.100, 0.600},
          {0.000, 0.080, 0.000, 0.750, 0.100, 0.070}}},
        // Widowed.
        {{{0.000, 0.020, 0.000, 0.550, 0.080, 0.350},
          {0.000, 0.030, 0.000, 0.850, 0.090, 0.030}}},
        // Married-spouse-absent.
        {{{0.000, 0.050, 0.000, 0.350, 0.150, 0.450},
          {0.000, 0.080, 0.000, 0.750, 0.120, 0.050}}},
        // Married-AF-spouse.
        {{{0.850, 0.020, 0.000, 0.050, 0.030, 0.050},
          {0.000, 0.050, 0.850, 0.070, 0.030, 0.000}}},
    }};

// Occupation given (education bucket, sex). Entry order: Tech-support,
// Craft-repair, Other-service, Sales, Exec-managerial, Prof-specialty,
// Handlers-cleaners, Machine-op-inspct, Adm-clerical, Farming-fishing,
// Transport-moving, Priv-house-serv, Protective-serv, Armed-Forces, ?.
constexpr std::array<std::array<std::array<double, kOccCount>, 2>, 3>
    kOccupationGivenEduSex = {{
        // Low education.
        {{{0.005, 0.020, 0.300, 0.090, 0.010, 0.010, 0.050, 0.140, 0.100,
           0.020, 0.010, 0.050, 0.005, 0.0005, 0.100},   // Female
          {0.005, 0.220, 0.090, 0.050, 0.020, 0.010, 0.130, 0.140, 0.020,
           0.080, 0.130, 0.001, 0.010, 0.001, 0.090}}},  // Male
        // Mid education.
        {{{0.030, 0.020, 0.160, 0.120, 0.080, 0.060, 0.020, 0.050, 0.320,
           0.010, 0.010, 0.010, 0.010, 0.0005, 0.060},
          {0.030, 0.210, 0.060, 0.090, 0.090, 0.050, 0.070, 0.090, 0.050,
           0.040, 0.120, 0.0005, 0.030, 0.001, 0.060}}},
        // High education.
        {{{0.040, 0.010, 0.040, 0.080, 0.200, 0.420, 0.005, 0.010, 0.130,
           0.005, 0.005, 0.002, 0.010, 0.0005, 0.040},
          {0.040, 0.040, 0.020, 0.120, 0.280, 0.350, 0.010, 0.020, 0.030,
           0.010, 0.020, 0.0002, 0.020, 0.002, 0.040}}},
    }};

// Workclass weight rows. Entry order: Private, Self-emp-not-inc,
// Self-emp-inc, Federal-gov, Local-gov, State-gov, Without-pay,
// Never-worked, ?.
constexpr std::array<double, kWcCount> kWorkclassWhiteCollar = {
    0.640, 0.090, 0.070, 0.035, 0.060, 0.060, 0.001, 0.0005, 0.040};
constexpr std::array<double, kWcCount> kWorkclassDefault = {
    0.820, 0.050, 0.010, 0.030, 0.050, 0.030, 0.002, 0.0005, 0.010};
constexpr std::array<double, kWcCount> kWorkclassFarming = {
    0.450, 0.430, 0.040, 0.005, 0.010, 0.010, 0.020, 0.001, 0.030};
constexpr std::array<double, kWcCount> kWorkclassProtective = {
    0.300, 0.020, 0.010, 0.060, 0.450, 0.150, 0.000, 0.000, 0.010};
constexpr std::array<double, kWcCount> kWorkclassArmedForces = {
    0.000, 0.000, 0.000, 1.000, 0.000, 0.000, 0.000, 0.000, 0.000};
constexpr std::array<double, kWcCount> kWorkclassUnknownOcc = {
    0.010, 0.005, 0.002, 0.001, 0.002, 0.002, 0.010, 0.020, 0.950};

constexpr std::array<double, kRaceCount> kRaceDist = {0.854, 0.031, 0.010,
                                                      0.008, 0.097};

// Base P(income > 50K) given (education bucket, is-married, sex); the
// final probability is odds-adjusted by occupation, work-class and the
// fine-grained education level so that Income couples to all of them, as
// in the real Adult data.
constexpr double kIncomeHighProb[3][2][2] = {
    // [bucket][married][sex: F, M]
    {{0.006, 0.014}, {0.060, 0.110}},   // Low education
    {{0.036, 0.070}, {0.200, 0.330}},   // Mid education
    {{0.140, 0.250}, {0.500, 0.640}},   // High education
};

// Income odds multipliers by occupation (order as kOccupationGivenEduSex).
constexpr std::array<double, kOccCount> kIncomeOddsByOccupation = {
    1.50,  // Tech-support
    0.90,  // Craft-repair
    0.40,  // Other-service
    1.20,  // Sales
    2.40,  // Exec-managerial
    2.00,  // Prof-specialty
    0.40,  // Handlers-cleaners
    0.60,  // Machine-op-inspct
    0.70,  // Adm-clerical
    0.50,  // Farming-fishing
    0.80,  // Transport-moving
    0.10,  // Priv-house-serv
    1.40,  // Protective-serv
    1.00,  // Armed-Forces
    0.30,  // ?
};

// Income odds multipliers by work-class (order as kWorkclassDefault).
constexpr std::array<double, kWcCount> kIncomeOddsByWorkclass = {
    1.00,  // Private
    0.90,  // Self-emp-not-inc
    2.80,  // Self-emp-inc
    1.30,  // Federal-gov
    1.00,  // Local-gov
    0.95,  // State-gov
    0.10,  // Without-pay
    0.05,  // Never-worked
    0.30,  // ?
};

// Income odds multipliers by exact education level (within-bucket
// refinement; Preschool..Doctorate order).
constexpr std::array<double, kEduCount> kIncomeOddsByEducation = {
    0.10, 0.20, 0.30, 0.45, 0.55, 0.65, 0.75, 0.85,  // Low bucket
    0.80, 1.00, 1.10, 1.15,                          // Mid bucket
    1.00, 1.60, 2.60, 2.40,                          // High bucket
};

// Applies the odds multipliers to a base probability.
double AdjustedIncomeProbability(double base, uint32_t occupation,
                                 uint32_t workclass, uint32_t education) {
  double odds = base / (1.0 - base);
  odds *= kIncomeOddsByOccupation[occupation];
  odds *= kIncomeOddsByWorkclass[workclass];
  odds *= kIncomeOddsByEducation[education];
  return odds / (1.0 + odds);
}

template <size_t N>
uint32_t Draw(Rng& rng, const std::array<double, N>& weights) {
  return static_cast<uint32_t>(
      rng.Discrete(std::vector<double>(weights.begin(), weights.end())));
}

}  // namespace

std::vector<Attribute> AdultSchema() {
  std::vector<Attribute> schema(8);
  schema[kAdultWorkclass] = Attribute{
      "Work-class",
      AttributeType::kNominal,
      {"Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
       "Local-gov", "State-gov", "Without-pay", "Never-worked", "?"}};
  schema[kAdultEducation] = Attribute{
      "Education",
      AttributeType::kOrdinal,
      {"Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th",
       "12th", "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm",
       "Bachelors", "Masters", "Prof-school", "Doctorate"}};
  schema[kAdultMaritalStatus] = Attribute{
      "Marital-status",
      AttributeType::kNominal,
      {"Married-civ-spouse", "Divorced", "Never-married", "Separated",
       "Widowed", "Married-spouse-absent", "Married-AF-spouse"}};
  schema[kAdultOccupation] = Attribute{
      "Occupation",
      AttributeType::kNominal,
      {"Tech-support", "Craft-repair", "Other-service", "Sales",
       "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
       "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
       "Transport-moving", "Priv-house-serv", "Protective-serv",
       "Armed-Forces", "?"}};
  schema[kAdultRelationship] = Attribute{
      "Relationship",
      AttributeType::kNominal,
      {"Wife", "Own-child", "Husband", "Not-in-family", "Other-relative",
       "Unmarried"}};
  schema[kAdultRace] = Attribute{
      "Race",
      AttributeType::kNominal,
      {"White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other",
       "Black"}};
  schema[kAdultSex] = Attribute{
      "Sex", AttributeType::kNominal, {"Female", "Male"}};
  schema[kAdultIncome] = Attribute{
      "Income", AttributeType::kOrdinal, {"<=50K", ">50K"}};
  return schema;
}

Dataset SynthesizeAdult(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(8);
  for (auto& col : columns) col.reserve(n);

  for (size_t i = 0; i < n; ++i) {
    uint32_t sex = Draw(rng, kSexDist);
    uint32_t education = Draw(rng, kEducationDist);
    EduBucket bucket = BucketOf(education);
    uint32_t marital = Draw(rng, kMaritalGivenSex[sex]);
    uint32_t relationship =
        Draw(rng, kRelationshipGivenMaritalSex[marital][sex]);
    uint32_t occupation = Draw(rng, kOccupationGivenEduSex[bucket][sex]);

    const std::array<double, kWcCount>* workclass_row = &kWorkclassDefault;
    if (occupation == kOccUnknown) {
      workclass_row = &kWorkclassUnknownOcc;
    } else if (occupation == kOccExec || occupation == kOccProf ||
               occupation == kOccSales) {
      workclass_row = &kWorkclassWhiteCollar;
    } else if (occupation == kOccFarming) {
      workclass_row = &kWorkclassFarming;
    } else if (occupation == kOccProtective) {
      workclass_row = &kWorkclassProtective;
    } else if (occupation == kOccArmedForces) {
      workclass_row = &kWorkclassArmedForces;
    }
    uint32_t workclass = Draw(rng, *workclass_row);

    uint32_t race = Draw(rng, kRaceDist);
    bool married = (marital == kMarriedCiv || marital == kMarriedAf);
    double income_prob = AdjustedIncomeProbability(
        kIncomeHighProb[bucket][married ? 1 : 0][sex], occupation, workclass,
        education);
    uint32_t income = rng.Bernoulli(income_prob) ? 1 : 0;

    columns[kAdultWorkclass].push_back(workclass);
    columns[kAdultEducation].push_back(education);
    columns[kAdultMaritalStatus].push_back(marital);
    columns[kAdultOccupation].push_back(occupation);
    columns[kAdultRelationship].push_back(relationship);
    columns[kAdultRace].push_back(race);
    columns[kAdultSex].push_back(sex);
    columns[kAdultIncome].push_back(income);
  }
  return Dataset(AdultSchema(), std::move(columns));
}

StatusOr<Dataset> LoadAdultCsv(const std::string& path) {
  MDRR_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> rows,
                        ReadCsvRows(path));
  // Column layout of adult.data: age, workclass, fnlwgt, education,
  // education-num, marital-status, occupation, relationship, race, sex,
  // capital-gain, capital-loss, hours-per-week, native-country, income.
  constexpr size_t kExpectedColumns = 15;
  for (auto& row : rows) {
    if (row.size() != kExpectedColumns) {
      return Status::InvalidArgument(
          "adult CSV row has " + std::to_string(row.size()) +
          " columns, expected 15");
    }
    // adult.test writes income labels with a trailing period.
    std::string& income = row[14];
    if (!income.empty() && income.back() == '.') income.pop_back();
  }
  const std::vector<size_t> column_indices = {1, 3, 5, 6, 7, 8, 9, 14};
  return DatasetFromRowsWithSchema(rows, AdultSchema(), column_indices);
}

}  // namespace mdrr
