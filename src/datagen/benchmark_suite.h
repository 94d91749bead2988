#ifndef FAIREM_DATAGEN_BENCHMARK_SUITE_H_
#define FAIREM_DATAGEN_BENCHMARK_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/util/result.h"

namespace fairem {

class FlagSet;

/// The eight benchmark datasets of Table 4.
enum class DatasetKind {
  kFacultyMatch,
  kNoFlyCompas,
  kItunesAmazon,
  kDblpAcm,
  kDblpScholar,
  kCricket,
  kShoes,
  kCameras,
};

/// Display name as in Table 4.
const char* DatasetKindName(DatasetKind kind);

/// All eight kinds in Table 4 order.
std::vector<DatasetKind> AllDatasetKinds();

/// Generates one benchmark dataset with its default (paper-shaped)
/// configuration. `scale` multiplies the entity counts (1.0 = the library's
/// laptop-scale defaults); `seed` shifts every generator seed for
/// replication studies.
Result<EMDataset> GenerateDataset(DatasetKind kind, double scale = 1.0,
                                  uint64_t seed_offset = 0);

/// Registers --scale and --seed, GenerateDataset's `scale` and
/// `seed_offset`.
void RegisterDatagenFlags(FlagSet* flags, double* scale, uint64_t* seed);

}  // namespace fairem

#endif  // FAIREM_DATAGEN_BENCHMARK_SUITE_H_
