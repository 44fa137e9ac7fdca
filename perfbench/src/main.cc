// The benchmark driver binary. Usually started through perfbench/run.py,
// which builds it first:
//
//   perfbench --workload pimb|scale_1m --seed N --seconds S --trace 0|1
//             [--scale X]
//
// Runs the workload's batch phase and then its service phase. Prints one
// description line and then, as the last line, the JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run and
// writes its spans to .bench_build/traces/<workload>-seed<N>.json under
// the working directory. --seconds is how long the batch phase keeps
// starting cold Runs; the service phase is a fixed schedule. --scale
// shrinks the corpora (smoke mode).
// Exit code 0 when every output check passed, 1 when one failed, 2 on bad
// arguments, 3 when the binary was built without optimization.

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common.h"
#include "core/options.h"
#include "workloads.h"

namespace {

/// The workloads README.md describes, by name.
std::optional<perfbench::WorkloadSpec> FindWorkload(const std::string& name) {
  if (name == "pimb") {
    return perfbench::WorkloadSpec{1.0,
                                   recon::ReconcilerOptions{}.max_block_size};
  }
  if (name == "scale_1m") return perfbench::WorkloadSpec{26.0, 100};
  return std::nullopt;
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload pimb|scale_1m --seed N"
               " --seconds S --trace 0|1 [--scale X]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: refusing to report from an unoptimized build ("
            << PERFBENCH_BUILD_TYPE << "); configure with "
            << "-DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage("bad number for " + flag + ": " + value);
    }
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    return Usage("--seconds and --scale must be positive");
  }

  const std::optional<perfbench::WorkloadSpec> spec =
      FindWorkload(args.workload);
  if (!spec) return Usage("unknown workload \"" + args.workload + "\"");

  perfbench::Result result;
  perfbench::AddRunInfo(args, result);
  perfbench::Trace trace;
  perfbench::Trace* traced = args.trace ? &trace : nullptr;
  perfbench::RunBatchPhase(args, *spec, traced, result);
  perfbench::RunServicePhase(args, *spec, traced, result);
  if (traced != nullptr) trace.Write(args, result);
  return result.Print() ? 0 : 1;
}
