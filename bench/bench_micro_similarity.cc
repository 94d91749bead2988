// Bulk-throughput micro-bench of the pairwise similarity substrate: the
// per-pair kernel costs that dominate feature generation and rule
// evaluation, measured over deterministic synthetic pairs at feature-build
// scale rather than single-pair google-benchmark loops. The scalar-vs-SIMD
// smoke drill runs this binary twice (FAIREM_SIMD=off, then on) and gates
// the kernel speedups with `fairem benchdiff` (DESIGN.md §17); the
// BENCHVAL lines printed per drill are dispatch-invariant checksums the
// drill compares byte for byte.
//
// Flags: the shared bench flags plus --pairs and --reps.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/data/schema.h"
#include "src/data/table.h"
#include "src/harness/bench_flags.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/text/edit_distance.h"
#include "src/text/prepared.h"
#include "src/text/simd.h"
#include "src/text/similarity.h"
#include "src/text/tfidf.h"
#include "src/text/tokenize.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace fairem {
namespace {

/// Deterministic word pool: lowercase pseudo-words of 3-9 letters.
std::vector<std::string> BuildWordPool(Rng* rng, size_t count) {
  std::vector<std::string> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t len = static_cast<size_t>(rng->NextInt(3, 9));
    std::string w;
    w.reserve(len);
    for (size_t c = 0; c < len; ++c) {
      w.push_back(static_cast<char>('a' + rng->NextBounded(26)));
    }
    pool.push_back(std::move(w));
  }
  return pool;
}

/// 1-3 random character edits (substitute/insert/delete), the typo model
/// the paper's dirty datasets approximate.
std::string Mutate(std::string s, Rng* rng) {
  const int edits = static_cast<int>(rng->NextInt(1, 3));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const size_t pos = rng->NextBounded(s.size());
    switch (rng->NextBounded(3)) {
      case 0:
        s[pos] = static_cast<char>('a' + rng->NextBounded(26));
        break;
      case 1:
        s.insert(s.begin() + static_cast<ptrdiff_t>(pos),
                 static_cast<char>('a' + rng->NextBounded(26)));
        break;
      default:
        s.erase(s.begin() + static_cast<ptrdiff_t>(pos));
        break;
    }
  }
  return s;
}

std::string JoinWords(const std::vector<std::string>& pool, Rng* rng,
                      size_t words) {
  std::string out;
  for (size_t w = 0; w < words; ++w) {
    if (!out.empty()) out.push_back(' ');
    out += pool[rng->NextBounded(pool.size())];
  }
  return out;
}

struct Workload {
  std::vector<std::string> short_a, short_b;  // name-like, <= ~25 chars
  std::vector<std::string> long_a, long_b;    // title-like, ~100-180 chars
};

Workload BuildWorkload(size_t pairs, uint64_t seed) {
  Rng rng(0x51D0BE7Cu ^ seed);
  Workload w;
  std::vector<std::string> pool = BuildWordPool(&rng, 600);
  w.short_a.reserve(pairs);
  w.short_b.reserve(pairs);
  w.long_a.reserve(pairs);
  w.long_b.reserve(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    std::string sa = JoinWords(pool, &rng, 2);
    // Half the pairs are near-duplicates (the interesting regime for edit
    // distance), half are unrelated.
    std::string sb = rng.NextBool(0.5) ? Mutate(sa, &rng)
                                       : JoinWords(pool, &rng, 2);
    const size_t title_words = 14 + rng.NextBounded(8);
    std::string la = JoinWords(pool, &rng, title_words);
    std::string lb;
    if (rng.NextBool(0.5)) {
      lb = Mutate(la, &rng);
    } else {
      lb = JoinWords(pool, &rng, title_words);
    }
    w.short_a.push_back(std::move(sa));
    w.short_b.push_back(std::move(sb));
    w.long_a.push_back(std::move(la));
    w.long_b.push_back(std::move(lb));
  }
  return w;
}

/// Times `fn(i) -> double` over every pair on the thread pool (disjoint
/// output slots, so the checksum is byte-identical for any --intra_jobs),
/// records fairem.bench.micro.<name>_{seconds,pairs_per_sec}, and prints
/// the dispatch-invariant checksum line.
template <typename Fn>
void RunDrill(const std::string& name, size_t pairs, int reps, Fn&& fn) {
  Histogram* seconds_hist = MetricsRegistry::Global().GetHistogram(
      "fairem.bench.micro." + name + "_seconds");
  Gauge* rate_gauge = MetricsRegistry::Global().GetGauge(
      "fairem.bench.micro." + name + "_pairs_per_sec");
  static Counter* pairs_counter =
      MetricsRegistry::Global().GetCounter("fairem.bench.micro.pairs_scored");
  std::vector<double> out(pairs);
  double best_rate = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    GlobalThreadPool().ParallelFor(
        pairs, /*grain=*/0, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) out[i] = fn(i);
        });
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    seconds_hist->Observe(dt);
    if (dt > 0.0) best_rate = std::max(best_rate, pairs / dt);
    pairs_counter->Increment(pairs);
  }
  rate_gauge->Set(best_rate);
  double checksum = 0.0;
  for (double v : out) checksum += v;
  // %.17g round-trips doubles exactly: any kernel divergence between
  // dispatch modes shows up as a stdout diff in the smoke drill.
  std::printf("BENCHVAL %s %.17g\n", name.c_str(), checksum);
  FAIREM_LOG(INFO) << "drill done" << LogKv("name", name)
                   << LogKv("pairs_per_sec", best_rate);
}

int Run(int argc, char** argv) {
  uint64_t pairs_flag = 10000;
  int reps = 3;
  FlagSet extra;
  extra.Number("--pairs", &pairs_flag, "N");  // per drill, before --scale
  extra.Number("--reps", &reps, "N");  // timed repetitions per drill
  BenchFlags flags = ParseBenchFlags(argc, argv, std::move(extra));
  const size_t pairs =
      std::max<size_t>(1, static_cast<size_t>(pairs_flag * flags.scale));
  reps = std::max(1, reps);
  MetricsRegistry::Global()
      .GetGauge("fairem.bench.micro.intra_jobs")
      ->Set(static_cast<double>(flags.intra_jobs));

  // Progress/identity lines go to stderr: stdout is exactly the BENCHVAL
  // lines, so the smoke drill can diff the whole stream across dispatch
  // modes.
  std::fprintf(stderr, "bench_micro_similarity pairs=%zu reps=%d simd=%s\n",
               pairs, reps, SimdLevelName(ActiveSimdLevel()));
  const Workload w = BuildWorkload(pairs, flags.seed_offset);

  // Character kernels over the raw strings.
  RunDrill("lev_short", pairs, reps, [&](size_t i) {
    return LevenshteinSimilarity(w.short_a[i], w.short_b[i]);
  });
  RunDrill("lev_long", pairs, reps, [&](size_t i) {
    return LevenshteinSimilarity(w.long_a[i], w.long_b[i]);
  });
  RunDrill("damerau", pairs, reps, [&](size_t i) {
    return static_cast<double>(
        DamerauLevenshteinDistance(w.short_a[i], w.short_b[i]));
  });

  // Token-set kernels over the prepared cache, the way BuildFeatureTable
  // consumes them: one shared interner pair per column pair, word sets on
  // the long column, 3-gram sets on the short one.
  Result<Schema> schema = Schema::Make({"title", "name"});
  FAIREM_CHECK(schema.ok(), "bench schema");
  Table ta("bench_a", schema.value());
  Table tb("bench_b", schema.value());
  for (size_t i = 0; i < pairs; ++i) {
    FAIREM_CHECK(ta.AppendValues(static_cast<int64_t>(i),
                                 {w.long_a[i], w.short_a[i]})
                     .ok(),
                 "append a");
    FAIREM_CHECK(tb.AppendValues(static_cast<int64_t>(i),
                                 {w.long_b[i], w.short_b[i]})
                     .ok(),
                 "append b");
  }
  std::vector<size_t> rows(pairs);
  for (size_t i = 0; i < pairs; ++i) rows[i] = i;
  PreparedNeeds word_needs;
  word_needs.word_set = true;
  PreparedNeeds qgram_needs;
  qgram_needs.qgram_set = true;
  ColumnInterners title_interners;
  ColumnInterners name_interners;
  PreparedColumn title_a, title_b, name_a, name_b;
  const auto prep0 = std::chrono::steady_clock::now();
  title_a.BuildRows(ta, 0, rows, word_needs, &title_interners);
  title_b.BuildRows(tb, 0, rows, word_needs, &title_interners);
  name_a.BuildRows(ta, 1, rows, qgram_needs, &name_interners);
  name_b.BuildRows(tb, 1, rows, qgram_needs, &name_interners);
  MetricsRegistry::Global()
      .GetGauge("fairem.bench.micro.prepare_seconds")
      ->Set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          prep0)
                .count());

  constexpr SimilarityMeasure kWordMeasures[] = {
      SimilarityMeasure::kJaccardWord, SimilarityMeasure::kDiceWord,
      SimilarityMeasure::kOverlapWord, SimilarityMeasure::kCosineWord};
  RunDrill("token_word", pairs, reps, [&](size_t i) {
    double total = 0.0;
    for (SimilarityMeasure m : kWordMeasures) {
      total += ComputeSimilarity(m, title_a.Get(i), title_b.Get(i));
    }
    return total;
  });
  constexpr SimilarityMeasure kQgramMeasures[] = {
      SimilarityMeasure::kJaccardQgram3, SimilarityMeasure::kDiceQgram3};
  RunDrill("token_qgram", pairs, reps, [&](size_t i) {
    double total = 0.0;
    for (SimilarityMeasure m : kQgramMeasures) {
      total += ComputeSimilarity(m, name_a.Get(i), name_b.Get(i));
    }
    return total;
  });

  // TF-IDF cosine via the sorted sparse layout (same path in both dispatch
  // modes; reported for trend, not gated).
  TfIdfVectorizer vectorizer;
  {
    std::vector<std::vector<std::string>> corpus;
    corpus.reserve(pairs);
    for (size_t i = 0; i < pairs; ++i) {
      corpus.push_back(AlnumTokenize(w.long_a[i]));
    }
    vectorizer.Fit(corpus);
  }
  std::vector<std::vector<std::string>> tokens_a(pairs), tokens_b(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    tokens_a[i] = AlnumTokenize(w.long_a[i]);
    tokens_b[i] = AlnumTokenize(w.long_b[i]);
  }
  RunDrill("tfidf", pairs, reps, [&](size_t i) {
    return vectorizer.Similarity(tokens_a[i], tokens_b[i]);
  });

  // The full measure sweep on short raw strings: the per-pair cost profile
  // of GenerateFeatures' kitchen sink.
  RunDrill("all_measures", pairs, reps, [&](size_t i) {
    double total = 0.0;
    for (SimilarityMeasure m : kAllSimilarityMeasures) {
      total += ComputeSimilarity(m, w.short_a[i], w.short_b[i]);
    }
    return total;
  });

  // Fold this thread's batched kernel tallies in, then leave the standing
  // BENCH snapshot (pairs/sec gauges, intra_jobs, kernel-call counters)
  // for future bench_scale-style gates, independent of --metrics_out.
  FlushSimdTelemetry();
  if (Status st =
          MetricsRegistry::Global().WriteJsonFile("BENCH_micro_similarity.json");
      !st.ok()) {
    FAIREM_LOG(WARN) << "could not write bench metrics snapshot"
                     << LogKv("status", st.ToString());
  }
  std::fprintf(stderr, "bench_micro_similarity OK level=%s\n",
               SimdLevelName(ActiveSimdLevel()));
  return 0;
}

}  // namespace
}  // namespace fairem

int main(int argc, char** argv) { return fairem::Run(argc, argv); }
