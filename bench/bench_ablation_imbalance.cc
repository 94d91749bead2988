// Ablation: class-imbalance handling (§3.5). EM training data is extremely
// imbalanced; this bench sweeps the class-weight exponent of logistic
// regression on the NoFlyCompas features, showing the collapse at 0
// (majority-class predictor), the over-firing at 1 (balanced prior shifts
// the 0.5 cut), and the working middle ground the library defaults to.

#include <iostream>

#include "src/datagen/social.h"
#include "src/feature/feature_gen.h"
#include "src/harness/experiment.h"
#include "src/ml/linear_models.h"
#include "src/report/table_printer.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"

namespace fairem {
namespace {

int Run() {
  Result<EMDataset> ds = GenerateNoFlyCompas(NoFlyCompasOptions{});
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    return 1;
  }
  Result<DatasetFeatures> features = BuildDatasetFeatures(*ds);
  if (!features.ok()) {
    std::cerr << features.status() << "\n";
    return 1;
  }
  const FeatureTable& train = features->train;
  const FeatureTable& test = features->test;
  std::cout << "== Ablation: class-weight exponent for logistic regression "
               "on NoFlyCompas ==\n"
            << "positive rate: "
            << FormatDouble(100.0 * ds->PositiveRate(), 2) << "%\n\n";
  TablePrinter table(
      {"balance_power", "F1", "TPR", "FDR", "predicted matches"});
  for (double power : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    LinearOptions options;
    options.balance_power = power;
    LogisticRegression model(options);
    Rng rng(2024);
    if (Status st = model.Fit(train.rows, train.labels, &rng); !st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    ConfusionCounts counts;
    for (size_t i = 0; i < test.rows.size(); ++i) {
      counts.Add(model.PredictScore(test.rows[i]) >= 0.5,
                 test.labels[i] == 1);
    }
    auto fmt = [](const Result<double>& v) {
      return v.ok() ? FormatDouble(*v, 3) : std::string("-");
    };
    table.AddRow({FormatDouble(power, 2), fmt(F1Score(counts)),
                  fmt(TruePositiveRate(counts)),
                  fmt(FalseDiscoveryRate(counts)),
                  std::to_string(counts.tp + counts.fp)});
    std::cerr << "done power " << power << "\n";
  }
  std::cout << table.ToString() << "\n";
  return 0;
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) {
  fairem::FlagSet().ParseOrExit(argc, argv);  // takes no arguments
  return fairem::Run();
}
