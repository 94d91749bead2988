#include "src/datagen/benchmark_suite.h"

#include <cmath>

#include "src/datagen/cricket.h"
#include "src/datagen/music.h"
#include "src/datagen/products.h"
#include "src/datagen/pubs.h"
#include "src/datagen/social.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/robust/failpoint.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

int Scaled(int base, double scale) {
  int v = static_cast<int>(std::lround(base * scale));
  return v < 4 ? 4 : v;
}

/// Dispatches to the per-dataset generator; GenerateDataset wraps this with
/// the observability envelope (span + counters + log line).
Result<EMDataset> GenerateDatasetImpl(DatasetKind kind, double scale,
                                      uint64_t seed_offset) {
  FAIREM_FAILPOINT("datagen");
  switch (kind) {
    case DatasetKind::kFacultyMatch: {
      FacultyMatchOptions o;
      o.num_cn = Scaled(o.num_cn, scale);
      o.num_de = Scaled(o.num_de, scale);
      o.seed += seed_offset;
      return GenerateFacultyMatch(o);
    }
    case DatasetKind::kNoFlyCompas: {
      NoFlyCompasOptions o;
      o.population = Scaled(o.population, scale);
      o.no_fly_size = Scaled(o.no_fly_size, scale);
      o.passenger_size = Scaled(o.passenger_size, scale);
      o.seed += seed_offset;
      return GenerateNoFlyCompas(o);
    }
    case DatasetKind::kItunesAmazon: {
      ItunesAmazonOptions o;
      o.num_songs = Scaled(o.num_songs, scale);
      o.seed += seed_offset;
      return GenerateItunesAmazon(o);
    }
    case DatasetKind::kDblpAcm: {
      DblpAcmOptions o;
      o.num_pubs = Scaled(o.num_pubs, scale);
      o.num_editorials = Scaled(o.num_editorials, scale);
      o.num_extended_pairs = Scaled(o.num_extended_pairs, scale);
      o.seed += seed_offset;
      return GenerateDblpAcm(o);
    }
    case DatasetKind::kDblpScholar: {
      DblpScholarOptions o;
      o.num_pubs = Scaled(o.num_pubs, scale);
      o.seed += seed_offset;
      return GenerateDblpScholar(o);
    }
    case DatasetKind::kCricket: {
      CricketOptions o;
      o.num_players = Scaled(o.num_players, scale);
      o.seed += seed_offset;
      return GenerateCricket(o);
    }
    case DatasetKind::kShoes: {
      ProductOptions o;
      o.num_products = Scaled(o.num_products * 4 / 3, scale);
      o.seed += seed_offset;
      return GenerateShoes(o);
    }
    case DatasetKind::kCameras: {
      ProductOptions o;
      o.num_products = Scaled(o.num_products, scale);
      o.seed += seed_offset;
      return GenerateCameras(o);
    }
  }
  return Status::InvalidArgument("unknown dataset kind");
}

}  // namespace

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kFacultyMatch:
      return "FacultyMatch";
    case DatasetKind::kNoFlyCompas:
      return "NoFlyCompas";
    case DatasetKind::kItunesAmazon:
      return "iTunes-Amazon";
    case DatasetKind::kDblpAcm:
      return "DBLP-ACM";
    case DatasetKind::kDblpScholar:
      return "DBLP-Scholar";
    case DatasetKind::kCricket:
      return "Cricket";
    case DatasetKind::kShoes:
      return "Shoes";
    case DatasetKind::kCameras:
      return "Cameras";
  }
  return "?";
}

std::vector<DatasetKind> AllDatasetKinds() {
  return {DatasetKind::kFacultyMatch, DatasetKind::kNoFlyCompas,
          DatasetKind::kItunesAmazon, DatasetKind::kDblpAcm,
          DatasetKind::kDblpScholar,  DatasetKind::kCricket,
          DatasetKind::kShoes,        DatasetKind::kCameras};
}

Result<DatasetKind> ParseDatasetKind(const std::string& name) {
  for (DatasetKind kind : AllDatasetKinds()) {
    if (name == DatasetKindName(kind)) return kind;
  }
  return Status::NotFound("unknown dataset '" + name + "'");
}

Result<EMDataset> GenerateDataset(DatasetKind kind, double scale,
                                  uint64_t seed_offset) {
  double seconds = 0.0;
  size_t num_records = 0;
  size_t num_pairs = 0;
  Result<EMDataset> dataset = Status::Internal("datagen did not run");
  {
    // `seconds` comes from the span's own monotonic clock, so the
    // generate_seconds histogram and the trace event can never disagree.
    Span span("fairem.datagen.generate", &seconds);
    span.AddArg("dataset", DatasetKindName(kind));
    dataset = GenerateDatasetImpl(kind, scale, seed_offset);
    if (!dataset.ok()) return dataset;
    num_records = dataset->table_a.num_rows() + dataset->table_b.num_rows();
    num_pairs =
        dataset->train.size() + dataset->valid.size() + dataset->test.size();
    span.AddArg("records", std::to_string(num_records));
    span.AddArg("pairs", std::to_string(num_pairs));
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* datasets =
      reg.GetCounter("fairem.datagen.datasets_generated");
  static Counter* records = reg.GetCounter("fairem.datagen.records");
  static Counter* pairs = reg.GetCounter("fairem.datagen.labeled_pairs");
  static Histogram* generate_seconds =
      reg.GetHistogram("fairem.datagen.generate_seconds");
  datasets->Increment();
  records->Increment(num_records);
  pairs->Increment(num_pairs);
  generate_seconds->Observe(seconds);
  FAIREM_LOG(DEBUG) << "generated dataset" << LogKv("dataset", dataset->name)
                    << LogKv("records", num_records)
                    << LogKv("pairs", num_pairs)
                    << LogKv("seconds", FormatDouble(seconds, 4));
  return dataset;
}

void RegisterDatagenFlags(FlagSet* flags, double* scale, uint64_t* seed) {
  flags->Number("--scale", scale, "S");
  flags->Number("--seed", seed, "N");
}

}  // namespace fairem
