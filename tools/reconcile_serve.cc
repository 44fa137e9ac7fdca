// Reconciliation daemon: load a dataset, reconcile it, and serve the
// OpenRefine-compatible reconciliation API over HTTP (DESIGN.md §12, §15).
//
//   reconcile_serve dataset.txt --port 8080
//   reconcile_serve --demo --port 0        # synthetic dataset, ephemeral port
//   reconcile_serve --demo --data-dir /var/lib/recon   # durable: WAL +
//                                          # checkpoints, crash-safe restart
//   reconcile_serve --data-dir /var/lib/recon          # restart: recovers
//                                          # from the surviving state alone
//
// Endpoints: /  /reconcile  /ingest  /entity/<id>  /healthz  /stats.
// The bound port is printed on startup ("listening on port N"), which is
// how scripts using --port 0 find the server. SIGINT / SIGTERM drain
// in-flight requests, seal the WAL, and exit 0.
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 load failure, 4 bind
// failure, 5 unusable --data-dir (unwritable or corrupt beyond recovery).

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "datagen/pim_generator.h"
#include "model/text_io.h"
#include "runtime/thread_pool.h"
#include "service/handlers.h"
#include "service/http.h"
#include "service/service.h"
#include "util/version.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitLoad = 3;
constexpr int kExitBind = 4;
constexpr int kExitData = 5;

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

void PrintUsage(std::ostream& out) {
  out << "usage: reconcile_serve [options] <dataset file>\n"
         "       reconcile_serve [options] --demo\n"
         "       reconcile_serve [options] --data-dir DIR   # recover\n"
         "\n"
         "  <dataset file>     dataset in the text format of model/text_io.h\n"
         "  --demo             serve a small synthetic PIM dataset instead\n"
         "  --port N           listen port (default 8080; 0 = ephemeral,\n"
         "                     printed on startup)\n"
         "  --threads N        HTTP worker threads (default: hardware)\n"
         "  --deadline-ms MS   per-request query deadline; overloaded\n"
         "                     requests degrade to partial candidate lists\n"
         "                     (default 0 = unlimited)\n"
         "  --flush-deadline-ms MS  budget per ingest flush (default 0)\n"
         "\n"
         "durability (DESIGN.md §15):\n"
         "  --data-dir DIR     write-ahead log + checkpoints in DIR; on\n"
         "                     restart the service recovers from DIR and\n"
         "                     the dataset/--demo argument may be omitted\n"
         "  --fsync POLICY     every-record | every-flush | none\n"
         "                     (default every-flush)\n"
         "  --checkpoint-every N  checkpoint + rotate the WAL every N\n"
         "                     flushes (default 64; 0 = never)\n"
         "\n"
         "overload protection:\n"
         "  --max-inflight N   admission bound; above it requests are shed\n"
         "                     with 503 + Retry-After (default 4x threads;\n"
         "                     0 = unbounded)\n"
         "  --recv-timeout-ms MS  per-connection socket read timeout\n"
         "                     (default 10000)\n"
         "  --max-body-bytes N max accepted request body (default 8MiB)\n"
         "\n"
         "  --help             this text\n"
         "  --version          print version and exit\n";
}

/// The largest TCP port, the HTTP worker-thread cap (reconcile_cli's
/// --threads limit), and the cap on every other count or duration flag.
constexpr int kMaxPort = 65535;
constexpr int kMaxThreads = 1024;
constexpr int kMaxFlagValue = 1 << 30;

bool ParseInt(const char* flag, const char* value, int min, int* out,
              int max = kMaxFlagValue) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v < min || v > max) {
    std::cerr << flag << " needs an integer in [" << min << ", " << max
              << "], got \"" << value << "\"\n";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recon;

  std::string path;
  bool demo = false;
  int port = 8080;
  int threads = runtime::ThreadPool::HardwareConcurrency();
  service::ServiceOptions options;
  options.reconciler = ReconcilerOptions::DepGraph();
  service::HttpServerOptions http_options;
  int max_inflight = -1;  // -1 = default to 4x threads.

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::cout << ReconBuildInfo() << "\n";
      return kExitOk;
    }
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--port" && i + 1 < argc) {
      if (!ParseInt("--port", argv[++i], 0, &port, kMaxPort)) return kExitUsage;
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseInt("--threads", argv[++i], 1, &threads, kMaxThreads)) {
        return kExitUsage;
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      int ms = 0;
      if (!ParseInt("--deadline-ms", argv[++i], 1, &ms)) return kExitUsage;
      options.query_deadline_ms = ms;
    } else if (arg == "--flush-deadline-ms" && i + 1 < argc) {
      int ms = 0;
      if (!ParseInt("--flush-deadline-ms", argv[++i], 1, &ms)) {
        return kExitUsage;
      }
      options.reconciler.budget.deadline_ms = ms;
    } else if (arg == "--data-dir" && i + 1 < argc) {
      options.durability.data_dir = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      StatusOr<service::FsyncPolicy> policy =
          service::ParseFsyncPolicy(argv[++i]);
      if (!policy.ok()) {
        std::cerr << policy.status().message() << "\n";
        return kExitUsage;
      }
      options.durability.fsync = policy.value();
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      if (!ParseInt("--checkpoint-every", argv[++i], 0,
                    &options.durability.checkpoint_every)) {
        return kExitUsage;
      }
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      if (!ParseInt("--max-inflight", argv[++i], 0, &max_inflight)) {
        return kExitUsage;
      }
    } else if (arg == "--recv-timeout-ms" && i + 1 < argc) {
      if (!ParseInt("--recv-timeout-ms", argv[++i], 1,
                    &http_options.recv_timeout_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--max-body-bytes" && i + 1 < argc) {
      int bytes = 0;
      if (!ParseInt("--max-body-bytes", argv[++i], 1, &bytes)) {
        return kExitUsage;
      }
      http_options.max_body_bytes = static_cast<size_t>(bytes);
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      return kExitUsage;
    }
  }
  // A dataset source is required unless a data dir can supply the state.
  const bool durable = !options.durability.data_dir.empty();
  if (demo && !path.empty()) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }
  if (!demo && path.empty() && !durable) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }

  Dataset data(BuildPimSchema());
  if (demo) {
    datagen::PimConfig config = datagen::PimConfigA();
    data = datagen::GeneratePim(datagen::ScaleConfig(config, 0.05));
    std::cout << "Generated demo dataset: " << data.num_references()
              << " references.\n";
  } else if (!path.empty()) {
    StatusOr<Dataset> loaded = LoadDatasetFromFile(path);
    if (!loaded.ok()) {
      std::cerr << "cannot load " << path << ": " << loaded.status().ToString()
                << "\n";
      return kExitLoad;
    }
    data = std::move(loaded).value();
    std::cout << "Loaded " << data.num_references() << " references from "
              << path << ".\n";
  }
  // else: bare --data-dir restart, schema-only dataset; recovery supplies
  // the references (an empty dir then just serves an empty generation 0).

  std::cout << (durable ? "Opening durable service...\n"
                        : "Reconciling initial dataset...\n");
  StatusOr<std::unique_ptr<service::ReconService>> opened =
      service::ReconService::Open(std::move(data), options);
  if (!opened.ok()) {
    std::cerr << "cannot open service: " << opened.status().ToString() << "\n";
    return opened.status().code() == StatusCode::kFailedPrecondition
               ? kExitData
               : kExitLoad;
  }
  std::unique_ptr<service::ReconService> service = std::move(opened).value();
  const auto snapshot = service->snapshot();
  const service::DurabilityStats durability = service->durability_stats();
  if (durability.recovered) {
    std::cout << "Recovered generation " << snapshot->generation() << " ("
              << (durability.recovered_clean ? "clean seal" : "crash tail")
              << "): replayed " << durability.replayed_epochs << " epochs, "
              << durability.replayed_references << " references";
    if (durability.wal_truncated_bytes > 0) {
      std::cout << ", truncated " << durability.wal_truncated_bytes
                << " torn bytes";
    }
    std::cout << ".\n";
  }
  std::cout << "Snapshot generation " << snapshot->generation() << ": "
            << snapshot->num_entities() << " entities from "
            << snapshot->num_references() << " references.\n";

  service::ServiceHandler handler(service.get());
  http_options.num_threads = threads;
  http_options.max_inflight = max_inflight >= 0 ? max_inflight : 4 * threads;
  service::HttpServer server(
      [&handler](const service::HttpRequest& req) {
        return handler.Handle(req);
      },
      http_options);
  const Status started = server.Start(port);
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return kExitBind;
  }
  std::cout << ReconBuildInfo() << "\n"
            << "listening on port " << server.port() << " (" << threads
            << " worker threads, max-inflight " << http_options.max_inflight;
  if (durable) {
    std::cout << ", data-dir " << options.durability.data_dir << ", fsync "
              << service::FsyncPolicyName(options.durability.fsync);
  }
  std::cout << ")\n" << std::flush;

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  sigset_t empty;
  sigemptyset(&empty);
  while (!g_stop) sigsuspend(&empty);

  // Graceful drain: stop accepting, finish every admitted request, then
  // seal the WAL so the next start knows the shutdown was clean.
  std::cout << "shutting down\n";
  server.Stop();
  const Status sealed = service->Seal();
  if (!sealed.ok()) {
    std::cerr << "wal seal failed: " << sealed.ToString() << "\n";
    return kExitData;
  }
  if (durable) {
    std::cout << "sealed wal at generation "
              << service->durability_stats().durable_generation << "\n";
  }
  return kExitOk;
}
