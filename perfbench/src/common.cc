#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>

#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"

namespace perfbench {

void Result::Fail(const std::string& what) {
  check_failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
}

bool Result::Print() const {
  bool finite = true;
  recon::json::Value metrics = recon::json::Value::Object();
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::cerr << "CHECK FAILED: " << m.name << " not finite\n";
      finite = false;
    }
    recon::json::Value metric = recon::json::Value::Object();
    metric.Set("value", std::isfinite(m.value) ? m.value : 0.0);
    metric.Set("unit", m.unit);
    metrics.Set(m.name, std::move(metric));
  }
  const bool correct = finite && check_failures_.empty();
  recon::json::Value line = recon::json::Value::Object();
  line.Set("correct", correct);
  line.Set("attempted", std::max<int64_t>(1, attempted_));
  line.Set("failed", failed_);
  line.Set("metrics", std::move(metrics));
  std::cout << "run " << info_.Dump() << "\n" << line.Dump() << std::endl;
  return correct;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostCpu HostCpu::Now() {
  HostCpu cpu;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  uint64_t field = 0;
  for (int i = 0; i < 10 && stat >> field; ++i) {
    cpu.total += field;
    if (i == 7) cpu.steal = field;
  }
  return cpu;
}

double HostCpu::StealShareSince(const HostCpu& start) const {
  const uint64_t total_delta = total - start.total;
  return total_delta > 0 ? static_cast<double>(steal - start.steal) /
                               static_cast<double>(total_delta)
                         : 0.0;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

Trace::Scope::Scope(Trace& trace, std::string name, int lane)
    : trace_(trace), start_(std::chrono::steady_clock::now()) {
  index_ = trace_.Open(std::move(name), lane, start_);
}

Trace::Scope::~Scope() { trace_.Close(index_, ElapsedMs()); }

double Trace::Scope::ElapsedMs() const { return MillisSince(start_); }

int Trace::Open(std::string name, int lane,
                std::chrono::steady_clock::time_point start) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lane >= static_cast<int>(open_.size())) open_.resize(lane + 1, -1);
  Span span;
  span.name = std::move(name);
  span.lane = lane;
  span.parent = open_[lane];
  span.start_ms =
      std::chrono::duration<double, std::milli>(start - epoch_).count();
  spans_.push_back(std::move(span));
  open_[lane] = static_cast<int>(spans_.size()) - 1;
  return open_[lane];
}

void Trace::Close(int index, double dur_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[index];
  span.dur_ms = dur_ms;
  open_[span.lane] = span.parent;
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.dur_ms);
  }
  return out;
}

double Trace::TotalMs(const std::string& name) const {
  const std::vector<double> d = Durations(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

double Trace::ChildrenMs(const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent >= 0 && spans_[span.parent].name == parent) {
      total += span.dur_ms;
    }
  }
  return total;
}

void Trace::Write(const Args& args, Result& result) const {
  recon::json::Value events = recon::json::Value::Array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      recon::json::Value span_args = recon::json::Value::Object();
      span_args.Set("id", static_cast<int64_t>(i));
      span_args.Set("parent", s.parent);
      recon::json::Value event = recon::json::Value::Object();
      event.Set("name", s.name);
      event.Set("ph", "X");
      event.Set("pid", 1);
      event.Set("tid", s.lane);
      event.Set("ts", s.start_ms * 1e3);
      event.Set("dur", s.dur_ms * 1e3);
      event.Set("args", std::move(span_args));
      events.Append(std::move(event));
    }
  }
  recon::json::Value doc = recon::json::Value::Object();
  doc.Set("traceEvents", std::move(events));

  const std::filesystem::path dir = ".bench_build/traces";
  const std::string path = (dir / (args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json"))
                               .string();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  if (!out) result.Fail("cannot write spans to " + path);
}

recon::Dataset GenerateCorpus(double factor, const Args& args) {
  const recon::Dataset generated = recon::datagen::GeneratePim(
      recon::datagen::ScaleConfig(recon::datagen::PimConfigB(), factor));

  const int n = generated.num_references();
  std::vector<recon::RefId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<recon::RefId> new_id(n);
  for (int i = 0; i < n; ++i) new_id[order[i]] = i;

  recon::Dataset shuffled(generated.schema());
  for (const recon::RefId old_id : order) {
    const recon::Reference& src = generated.reference(old_id);
    recon::Reference ref(src.class_id(), src.num_attributes());
    for (int attr = 0; attr < src.num_attributes(); ++attr) {
      for (const std::string& v : src.atomic_values(attr)) {
        ref.AddAtomicValue(attr, v);
      }
      for (const recon::RefId target : src.associations(attr)) {
        ref.AddAssociation(attr, new_id[target]);
      }
    }
    shuffled.AddReference(std::move(ref), generated.gold_entity(old_id),
                          generated.provenance(old_id));
  }
  return shuffled;
}

std::vector<int> CanonicalPartition(const std::vector<int>& cluster) {
  // Cluster ids are representative reference ids, so they index a vector.
  const int n = static_cast<int>(cluster.size());
  std::vector<int> smallest(n, -1);
  std::vector<int> out(n);
  for (int ref = 0; ref < n; ++ref) {
    const int id = cluster[ref];
    if (id < 0 || id >= n) return {};  // Not a partition of these refs.
    if (smallest[id] < 0) smallest[id] = ref;  // First seen is smallest.
    out[ref] = smallest[id];
  }
  return out;
}

std::string CheckPartition(const recon::Dataset& dataset,
                           const std::vector<int>& cluster) {
  const int n = dataset.num_references();
  if (static_cast<int>(cluster.size()) != n) {
    return "partition covers " + std::to_string(cluster.size()) + " of " +
           std::to_string(n) + " references";
  }
  std::vector<int> class_of_cluster(n, -1);
  for (int ref = 0; ref < n; ++ref) {
    const int id = cluster[ref];
    if (id < 0 || id >= n) return "cluster id " + std::to_string(id);
    const int class_id = dataset.reference(ref).class_id();
    if (class_of_cluster[id] < 0) class_of_cluster[id] = class_id;
    if (class_of_cluster[id] != class_id) {
      return "cluster " + std::to_string(id) + " mixes classes";
    }
  }
  return "";
}

std::array<double, 3> BCubedF1(const recon::Dataset& dataset,
                               const std::vector<int>& cluster) {
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(dataset.schema());
  return {recon::EvaluateBCubed(dataset, cluster, binding.person).f1,
          recon::EvaluateBCubed(dataset, cluster, binding.article).f1,
          recon::EvaluateBCubed(dataset, cluster, binding.venue).f1};
}

void AddBCubed(const std::array<double, 3>& f1, Result& result) {
  result.Add("bcubed_f1_person", f1[0], "ratio");
  result.Add("bcubed_f1_article", f1[1], "ratio");
  result.Add("bcubed_f1_venue", f1[2], "ratio");
}

void AddRunInfo(const Args& args, Result& result) {
  result.Info("workload", args.workload);
  result.Info("seed", args.seed);
  result.Info("build_type", PERFBENCH_BUILD_TYPE);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  result.Info("nproc", sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                           ? CPU_COUNT(&cpus)
                           : 0);
  result.Info("scale", args.scale);
  result.Info("mode", args.trace ? "traced" : "timed");
}

}  // namespace perfbench
