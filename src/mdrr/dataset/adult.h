// The paper's evaluation data: the 8 categorical attributes of the UCI
// Adult data set (Section 6.1) -- Work-class (9), Education (16),
// Marital-status (7), Occupation (15), Relationship (6), Race (5), Sex (2),
// Income (2); product domain 1,814,400 categories.
//
// Substitution (see DESIGN.md): since the original file is not available
// offline, SynthesizeAdult() draws records from a fixed Bayesian network
// whose conditional tables are calibrated to the public Adult marginals
// and to its dominant dependence structure (Marital<->Relationship and
// Sex<->Relationship strong; Education<->Occupation, Occupation/Education/
// Marital<->Income moderate; Race and Work-class weakly coupled). The
// paper's experiments depend only on the cardinalities, on n, and on a
// non-uniform joint with a clear dependence ranking, all of which are
// preserved. LoadAdultCsv() ingests a real adult.data file when present.

#ifndef MDRR_DATASET_ADULT_H_
#define MDRR_DATASET_ADULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mdrr/common/status_or.h"
#include "mdrr/dataset/dataset.h"

namespace mdrr {

// Number of records in the UCI Adult training file.
inline constexpr size_t kAdultNumRecords = 32561;

// Attribute indices in the schema returned by AdultSchema().
enum AdultAttribute : size_t {
  kAdultWorkclass = 0,
  kAdultEducation = 1,
  kAdultMaritalStatus = 2,
  kAdultOccupation = 3,
  kAdultRelationship = 4,
  kAdultRace = 5,
  kAdultSex = 6,
  kAdultIncome = 7,
};

// The 8-attribute categorical schema. Education and Income are ordinal
// (Education is ordered by attainment); the rest are nominal. Missing
// values ('?') are ordinary categories, as in the paper's cardinalities.
std::vector<Attribute> AdultSchema();

// Draws `n` synthetic Adult records from the calibrated Bayesian network.
// Deterministic in `seed`.
Dataset SynthesizeAdult(size_t n, uint64_t seed);

// Loads a real UCI adult.data / adult.test file (15 comma-separated
// columns) and keeps the 8 categorical attributes. Trailing periods on
// income labels (adult.test convention) are stripped; rows containing the
// wrong column count are rejected.
StatusOr<Dataset> LoadAdultCsv(const std::string& path);

}  // namespace mdrr

#endif  // MDRR_DATASET_ADULT_H_
