// Shared pieces of the benchmark driver: command-line arguments, the result
// record printed as the last output line, percentiles, per-phase peak RSS,
// in-memory trace spans, and partition comparison.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <iostream>
#include <type_traits>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "model/dataset.h"
#include "util/json.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Size multiplier on every workload's corpus and schedule; 1 = the
  /// benchmark proper, small values are the smoke mode.
  double scale = 1.0;
};

/// Everything one invocation reports. Metrics keep insertion order.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed output check; any failure makes `correct` false.
  void Fail(const std::string& what);
  /// Counts one operation of the workload, failed or not.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Counts `attempted` operations of which `failed` failed.
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Adds to the run description line (printed before the result line).
  void Info(const std::string& key, recon::json::Value value) {
    info_.Set(key, std::move(value));
  }

  /// Prints the info line and, last, the one-line JSON result; returns
  /// whether every check passed and every metric is finite.
  bool Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  recon::json::Value info_ = recon::json::Value::Object();
  std::vector<std::string> check_failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Resets the kernel's peak-RSS mark for this process (clear_refs = 5), so
/// the next PeakRssMb() covers only what follows. False when unsupported.
bool ResetPeakRss();
/// VmHWM of this process, in MiB.
double PeakRssMb();

/// Host-wide CPU time counters from /proc/stat, to report how much of the
/// measuring window the hypervisor took away (steal).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
  static HostCpu Now();
  /// Steal share of all CPU time between `start` and this reading.
  double StealShareSince(const HostCpu& start) const;
};

/// CPU time so far of `clock`: CLOCK_PROCESS_CPUTIME_ID for all this
/// process's threads, or a thread's clock. Time the hypervisor steals from
/// a vCPU is not counted.
double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID);

double SecondsSince(std::chrono::steady_clock::time_point start);
double MillisSince(std::chrono::steady_clock::time_point start);

/// Spans recorded in memory by the traced run and written out at its end.
/// Each span has a name, a lane (the thread that ran it), its start and
/// duration, and the span that was open on the same lane when it began.
class Trace {
 public:
  struct Span {
    std::string name;
    int lane = 0;
    int parent = -1;
    double start_ms = 0;
    double dur_ms = 0;
  };

  /// RAII span; nests under whatever span is open on the same lane.
  class Scope {
   public:
    Scope(Trace& trace, std::string name, int lane);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, in milliseconds.
    double ElapsedMs() const;

   private:
    Trace& trace_;
    int index_;
    std::chrono::steady_clock::time_point start_;
  };

  Trace() : epoch_(std::chrono::steady_clock::now()) {}

  /// Spans of `name` (any lane), in milliseconds, in completion order.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of the durations of spans named `name`.
  double TotalMs(const std::string& name) const;
  /// Sum of the durations of the direct children of spans named `parent`.
  double ChildrenMs(const std::string& parent) const;
  /// Writes every span as Chrome trace-event JSON to
  /// .bench_build/traces/<workload>-seed<N>.json under the working
  /// directory; a write failure fails `result`.
  void Write(const Args& args, Result& result) const;

 private:
  int Open(std::string name, int lane,
           std::chrono::steady_clock::time_point start);
  void Close(int index, double dur_ms);

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;     // Guarded by mu_.
  std::vector<int> open_;       // Per lane: innermost open span or -1.
};

/// The workloads' corpus: PIM B (its own generator seed) scaled by
/// `factor`, with the reference order shuffled by args.seed. Association
/// targets follow their references, so the corpus is the same information
/// in another arrival order: changing the generator seed instead changes how
/// much work the corpus is (Run time moved 3.7-6.8 s over five seeds).
recon::Dataset GenerateCorpus(double factor, const Args& args);

/// Maps every reference's cluster id to the smallest member of its cluster,
/// so partitions from different producers compare with ==.
std::vector<int> CanonicalPartition(const std::vector<int>& cluster);

/// Checks that `cluster` is a partition of `dataset` that never mixes
/// classes; returns an empty string or the first problem found.
std::string CheckPartition(const recon::Dataset& dataset,
                           const std::vector<int>& cluster);

/// B-cubed F1 of the person, article and venue classes.
std::array<double, 3> BCubedF1(const recon::Dataset& dataset,
                               const std::vector<int>& cluster);
/// Reports BCubedF1's values as bcubed_f1_{person,article,venue}.
void AddBCubed(const std::array<double, 3>& f1, Result& result);

/// Runs `fn` in a forked child process and waits for it; the child sends
/// back fn's return value, a trivially copyable report. Measured phases run
/// this way start from a fresh heap, as a new CLI or service process does,
/// and their peak RSS is their own. Call only while this process has no
/// other threads. False when the child could not report.
template <typename Report, typename Fn>
bool RunInChild(Fn fn, Report* report) {
  static_assert(std::is_trivially_copyable_v<Report>);
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const Report r = fn();
    const bool sent = ::write(fds[1], &r, sizeof(r)) ==
                      static_cast<ssize_t>(sizeof(r));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  size_t got = 0;
  char* out = reinterpret_cast<char*>(report);
  while (got < sizeof(Report)) {
    const ssize_t n = ::read(fds[0], out + got, sizeof(Report) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == sizeof(Report) && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

/// Metadata recorded with every result: CPU count, build type, seed.
void AddRunInfo(const Args& args, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
