#include "bench_common.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

namespace recon::bench {

std::vector<datagen::PimConfig> AllPimConfigs() {
  return {datagen::PimConfigA(), datagen::PimConfigB(),
          datagen::PimConfigC(), datagen::PimConfigD()};
}

double BenchScale() {
  const char* env = std::getenv("RECON_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  if (scale <= 0.0 || scale > 1.0) return 1.0;
  return scale;
}

namespace {

/// -1 = not set by ParseArgs; fall back to RECON_BENCH_THREADS, then 1.
int g_bench_threads = -1;

}  // namespace

int BenchThreads() {
  if (g_bench_threads >= 0) return g_bench_threads;
  const char* env = std::getenv("RECON_BENCH_THREADS");
  if (env == nullptr) return 1;
  const int threads = std::atoi(env);
  return threads < 0 ? 1 : threads;
}

void ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      const int threads = std::atoi(argv[i + 1]);
      if (threads >= 0) g_bench_threads = threads;
      ++i;
    }
  }
  if (BenchThreads() != 1) {
    std::cout << "(threads=" << BenchThreads()
              << ": parallel candidate generation and scoring; results are "
                 "identical to --threads 1)\n";
  }
}

ReconcilerOptions WithBenchThreads(ReconcilerOptions options) {
  options.num_threads = BenchThreads();
  return options;
}

std::vector<datagen::PimConfig> ScaledPimConfigs() {
  std::vector<datagen::PimConfig> configs = AllPimConfigs();
  const double scale = BenchScale();
  if (scale < 1.0) {
    for (auto& config : configs) {
      config = datagen::ScaleConfig(config, scale);
    }
  }
  return configs;
}

Comparison CompareOnClass(const Dataset& dataset, int class_id) {
  Comparison out;
  const Reconciler indep(WithBenchThreads(ReconcilerOptions::IndepDec()));
  out.indep = EvaluateClass(dataset, indep.Run(dataset).cluster, class_id);
  const Reconciler depgraph(WithBenchThreads(ReconcilerOptions::DepGraph()));
  out.depgraph =
      EvaluateClass(dataset, depgraph.Run(dataset).cluster, class_id);
  return out;
}

std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

void JsonLog::BeginRow() { rows_.push_back(json::Value::Object()); }

void JsonLog::Add(const std::string& key, double value) {
  rows_.back().Set(key, value);
}

void JsonLog::Add(const std::string& key, int64_t value) {
  rows_.back().Set(key, value);
}

void JsonLog::Add(const std::string& key, const std::string& value) {
  rows_.back().Set(key, value);
}

bool JsonLog::Write(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return false;
  }
  // Machine-context row first: published numbers are only meaningful
  // relative to the hardware that produced them (tools/run_benches.sh
  // refuses outputs that lack it).
  json::Value meta = json::Value::Object();
  meta.Set("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
  meta.Set("nprocs_online",
           static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  meta.Set("bench_threads", BenchThreads());
  meta.Set("bench_scale", BenchScale());
  json::Value doc = json::Value::Array();
  doc.Append(std::move(meta));
  for (const json::Value& row : rows_) doc.Append(row);
  out << doc.Pretty();
  return static_cast<bool>(out);
}

std::vector<char*> TranslateGBenchJsonFlag(int argc, char** argv,
                                           std::vector<std::string>* storage) {
  // Stash every argument (rewritten or not) in `storage` so the returned
  // pointers share one stable backing.
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      storage->push_back("--benchmark_out=" + std::string(argv[i + 1]));
      storage->push_back("--benchmark_out_format=json");
      ++i;
    } else {
      storage->push_back(argv[i]);
    }
  }
  std::vector<char*> out;
  for (std::string& arg : *storage) out.push_back(arg.data());
  return out;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref << "\n";
  const double scale = BenchScale();
  if (scale < 1.0) {
    std::cout << "(RECON_BENCH_SCALE=" << scale
              << ": datasets scaled down; shapes, not sizes, apply)\n";
  }
  std::cout << "\n";
}

}  // namespace recon::bench
