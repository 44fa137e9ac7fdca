// Microbenchmarks for the string-similarity substrate.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"

#include "sim/comparators.h"
#include "sim/value_store.h"
#include "strsim/bitparallel.h"
#include "strsim/edit_distance.h"
#include "strsim/jaro_winkler.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/tokens.h"
#include "strsim/venue.h"

namespace {

void BM_Levenshtein(benchmark::State& state) {
  const std::string a = "Distributed query processing in a relational data base system";
  const std::string b = "Distributed query procesing in relational database systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::strsim::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

// ---- Kernel comparison rows (DESIGN.md §16): the same title-length
// distance computed by the reference row DP and the Myers bit-parallel
// kernel. tools/run_benches.sh --gate-kernels requires the bit-parallel
// row to be >= 2x faster.

void BM_LevenshteinScalar(benchmark::State& state) {
  const std::string a =
      "Distributed query processing in a relational data base system";
  const std::string b =
      "Distributed query procesing in relational database systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::strsim::ScalarLevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinScalar);

void BM_LevenshteinBitParallel(benchmark::State& state) {
  const std::string a =
      "Distributed query processing in a relational data base system";
  const std::string b =
      "Distributed query procesing in relational database systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::strsim::MyersLevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinBitParallel);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        recon::strsim::JaroWinklerSimilarity("stonebraker", "stonebaker"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_PersonNameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        recon::strsim::ParsePersonName("Epstein, R.S."));
  }
}
BENCHMARK(BM_PersonNameParse);

// ---- Cold vs. warm. A cold row analyzes both values with AnalyzeValue and
// scores them with the field comparator, on every iteration: the cost of
// a comparison whose values were never seen. Each *_Warm twin scores from
// precomputed features; the gap against its cold sibling is exactly what
// the ValueStore (DESIGN.md §11) saves on every repeated comparison.

/// Analyzes `a` and `b` as `kind` and scores them with `comparator`.
template <typename Comparator>
double ColdSimilarity(Comparator comparator, const std::string& a,
                      recon::FeatureKind kind_a, const std::string& b,
                      recon::FeatureKind kind_b) {
  return comparator(recon::AnalyzeValue(a, kind_a),
                    recon::AnalyzeValue(b, kind_b));
}

void BM_PersonNameFieldSimilarity(benchmark::State& state) {
  const std::string a = "Robert S. Epstein";
  const std::string b = "Epstein, R.S.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSimilarity(
        recon::PersonNameFieldSimilarity, a, recon::FeatureKind::kPersonName,
        b, recon::FeatureKind::kPersonName));
  }
}
BENCHMARK(BM_PersonNameFieldSimilarity);

void BM_NameEmailSimilarity(benchmark::State& state) {
  const std::string name = "Stonebraker, M.";
  const std::string email = "stonebraker@csail.mit.edu";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSimilarity(
        recon::NameEmailFieldSimilarity, name,
        recon::FeatureKind::kPersonName, email, recon::FeatureKind::kEmail));
  }
}
BENCHMARK(BM_NameEmailSimilarity);

void BM_VenueNameSimilarity(benchmark::State& state) {
  const std::string a = "ACM SIGMOD";
  const std::string b = "ACM Conference on Management of Data";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSimilarity(
        recon::VenueNameFieldSimilarity, a, recon::FeatureKind::kVenueName,
        b, recon::FeatureKind::kVenueName));
  }
}
BENCHMARK(BM_VenueNameSimilarity);

void BM_PersonNameFieldSimilarityWarm(benchmark::State& state) {
  const recon::ValueFeatures a = recon::AnalyzeValue(
      "Robert S. Epstein", recon::FeatureKind::kPersonName);
  const recon::ValueFeatures b =
      recon::AnalyzeValue("Epstein, R.S.", recon::FeatureKind::kPersonName);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::PersonNameFieldSimilarity(a, b));
  }
}
BENCHMARK(BM_PersonNameFieldSimilarityWarm);

void BM_TitleSimilarity(benchmark::State& state) {
  const std::string a =
      "Distributed query processing in a relational data base system";
  const std::string b =
      "Distributed query procesing in relational database systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSimilarity(
        recon::TitleFieldSimilarity, a, recon::FeatureKind::kTitle, b,
        recon::FeatureKind::kTitle));
  }
}
BENCHMARK(BM_TitleSimilarity);

void BM_TitleSimilarityWarm(benchmark::State& state) {
  const recon::strsim::TitleFeatures a = recon::strsim::AnalyzeTitle(
      "Distributed query processing in a relational data base system");
  const recon::strsim::TitleFeatures b = recon::strsim::AnalyzeTitle(
      "Distributed query procesing in relational database systems");
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::strsim::TitleSimilarity(a, b));
  }
}
BENCHMARK(BM_TitleSimilarityWarm);

void BM_VenueNameSimilarityWarm(benchmark::State& state) {
  const recon::strsim::VenueFeatures a =
      recon::strsim::AnalyzeVenueName("ACM SIGMOD");
  const recon::strsim::VenueFeatures b = recon::strsim::AnalyzeVenueName(
      "ACM Conference on Management of Data");
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon::strsim::VenueNameSimilarity(a, b));
  }
}
BENCHMARK(BM_VenueNameSimilarityWarm);

void BM_AnalyzeValueTitle(benchmark::State& state) {
  // The one-time per-distinct-value cost the store pays up front.
  const std::string raw =
      "Distributed query processing in a relational data base system";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        recon::AnalyzeValue(raw, recon::FeatureKind::kTitle));
  }
}
BENCHMARK(BM_AnalyzeValueTitle);

}  // namespace

// Custom main: `--json <path>` is this repo's common bench flag; rewrite
// it into google-benchmark's --benchmark_out flags before Initialize.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args =
      recon::bench::TranslateGBenchJsonFlag(argc, argv, &storage);
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
