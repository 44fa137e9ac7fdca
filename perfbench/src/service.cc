// The service phase of every workload: a durable ReconService (fsync every
// flush, checkpoint every 32 generations, reconciler on 2 threads with the
// workload's block cap) over PIM B 0.25x, driven in-process through
// ServiceHandler::Handle while
//   * one writer sends the held-out tail as /ingest batches of 16
//     references with flush=true, closed loop (next batch after the reply);
//   * one reader sends /reconcile batches of 10 queries open loop at 200
//     batches/s.
// Sockets are left out: the server closes the connection after every
// request, so loopback timing would measure connection churn in the kernel.
//
// The --seed shuffles the corpus's reference order (which picks the
// held-out tail) and draws the query batches and their order.
//
// The timed run reports the median query batch reply time and the median
// CPU time the service spends on an ingest. It checks that the last
// published partition equals an IncrementalReconciler fed the same batches,
// and that after ingest stops every /reconcile body is byte-identical to
// Snapshot::Query + RenderReconcileBody.
//
// The traced run performs the same traffic by calling the functions
// ReconService::Ingest and ReconService::Reconcile are made of (WAL append,
// AddReference, Flush, clusters, BuildSnapshot, checkpoint write; parse,
// Query, render), and checks its final partition against a ReconService
// fed the same batches.

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/incremental.h"
#include "core/schema_binding.h"
#include "model/text_io.h"
#include "service/checkpoint.h"
#include "service/handlers.h"
#include "service/service.h"
#include "service/wal.h"
#include "util/atomic_shared_ptr.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

namespace {

using recon::Dataset;
using recon::RefId;
using recon::Reference;
using recon::service::HttpRequest;
using recon::service::HttpResponse;
using recon::service::ReconQuery;
using recon::service::ReconService;
using recon::service::ServiceHandler;
using recon::service::Snapshot;
using Clock = std::chrono::steady_clock;

constexpr double kCorpusFactor = 0.25;
constexpr int kIngests = 128;
constexpr int kIngestBatch = 16;
constexpr int kQueriesPerBatch = 10;
constexpr double kBatchesPerSecond = 200;
constexpr int kCheckpointEvery = 32;
constexpr int kDistinctQueryBatches = 256;
/// Data directories of the durable services, under the build directory of
/// the checkout the benchmark runs from.
constexpr char kWorkDir[] = ".bench_build/work";

/// The generated inputs: initial corpus, ingest batches, query batches.
struct Corpus {
  std::optional<Dataset> full;
  RefId split = 0;
  std::vector<std::vector<Reference>> batches;
  std::vector<std::vector<int>> golds;
  std::vector<std::string> ingest_bodies;
  std::vector<std::string> query_bodies;
};

/// `src` with every association into the held-out tail dropped.
Reference Truncated(const Reference& src, RefId split) {
  Reference ref(src.class_id(), src.num_attributes());
  for (int attr = 0; attr < src.num_attributes(); ++attr) {
    for (const std::string& v : src.atomic_values(attr)) {
      ref.AddAtomicValue(attr, v);
    }
    for (const RefId target : src.associations(attr)) {
      if (target < split) ref.AddAssociation(attr, target);
    }
  }
  return ref;
}

Dataset InitialDataset(const Corpus& corpus) {
  const Dataset& full = *corpus.full;
  Dataset initial(full.schema());
  for (RefId id = 0; id < corpus.split; ++id) {
    initial.AddReference(Truncated(full.reference(id), corpus.split),
                         full.gold_entity(id), full.provenance(id));
  }
  return initial;
}

std::string IngestBody(const recon::Schema& schema,
                       const std::vector<Reference>& refs,
                       const std::vector<int>& golds) {
  recon::json::Value doc = recon::json::Value::Object();
  recon::json::Value list = recon::json::Value::Array();
  for (size_t i = 0; i < refs.size(); ++i) {
    const Reference& ref = refs[i];
    const recon::ClassDef& class_def = schema.class_def(ref.class_id());
    recon::json::Value ref_doc = recon::json::Value::Object();
    ref_doc.Set("class", class_def.name);
    recon::json::Value values = recon::json::Value::Object();
    recon::json::Value links = recon::json::Value::Object();
    for (int attr = 0; attr < ref.num_attributes(); ++attr) {
      recon::json::Value items = recon::json::Value::Array();
      if (class_def.attributes[attr].kind == recon::AttrKind::kAtomic) {
        if (ref.atomic_values(attr).empty()) continue;
        for (const std::string& v : ref.atomic_values(attr)) items.Append(v);
        values.Set(class_def.attributes[attr].name, std::move(items));
      } else if (!ref.associations(attr).empty()) {
        for (const RefId target : ref.associations(attr)) items.Append(target);
        links.Set(class_def.attributes[attr].name, std::move(items));
      }
    }
    ref_doc.Set("values", std::move(values));
    ref_doc.Set("links", std::move(links));
    ref_doc.Set("gold", golds[i]);
    list.Append(std::move(ref_doc));
  }
  doc.Set("references", std::move(list));
  doc.Set("flush", true);
  return doc.Dump();
}

/// One OpenRefine-style query for reference `id`, or nullopt if it has no
/// name-like text.
std::optional<ReconQuery> QueryFor(const Dataset& dataset,
                                   const recon::SchemaBinding& binding,
                                   RefId id) {
  const Reference& ref = dataset.reference(id);
  ReconQuery query;
  query.limit = 5;
  if (ref.class_id() == binding.person) {
    query.type = "Person";
    query.text = ref.FirstValue(binding.person_name);
    const std::string& email = ref.FirstValue(binding.person_email);
    if (!email.empty()) query.properties.emplace_back("email", email);
  } else if (ref.class_id() == binding.article) {
    query.type = "Article";
    query.text = ref.FirstValue(binding.article_title);
  } else if (ref.class_id() == binding.venue) {
    query.type = "Venue";
    query.text = ref.FirstValue(binding.venue_name);
  }
  if (query.text.empty()) return std::nullopt;
  return query;
}

std::string QueryBatchBody(const std::vector<ReconQuery>& queries) {
  recon::json::Value doc = recon::json::Value::Object();
  for (size_t q = 0; q < queries.size(); ++q) {
    recon::json::Value entry = recon::json::Value::Object();
    entry.Set("query", queries[q].text);
    entry.Set("type", queries[q].type);
    entry.Set("limit", queries[q].limit);
    if (!queries[q].properties.empty()) {
      recon::json::Value props = recon::json::Value::Array();
      for (const auto& [pid, v] : queries[q].properties) {
        recon::json::Value prop = recon::json::Value::Object();
        prop.Set("pid", pid);
        prop.Set("v", v);
        props.Append(std::move(prop));
      }
      entry.Set("properties", std::move(props));
    }
    doc.Set("q" + std::to_string(q), std::move(entry));
  }
  return doc.Dump();
}

Corpus MakeCorpus(const Args& args) {
  Corpus corpus;
  corpus.full.emplace(GenerateCorpus(kCorpusFactor * args.scale, args));
  const Dataset& full = *corpus.full;
  const int ingests =
      std::max(4, static_cast<int>(kIngests * std::min(1.0, args.scale)));
  corpus.split = full.num_references() - ingests * kIngestBatch;
  RECON_CHECK_GT(corpus.split, 0) << "corpus too small for the ingest tail";

  for (int b = 0; b < ingests; ++b) {
    std::vector<Reference> refs;
    std::vector<int> golds;
    for (int i = 0; i < kIngestBatch; ++i) {
      const RefId id = corpus.split + b * kIngestBatch + i;
      refs.push_back(Truncated(full.reference(id), corpus.split));
      golds.push_back(full.gold_entity(id));
    }
    corpus.ingest_bodies.push_back(IngestBody(full.schema(), refs, golds));
    corpus.batches.push_back(std::move(refs));
    corpus.golds.push_back(std::move(golds));
  }

  // Query batches drawn from the initial corpus by a seeded generator.
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(full.schema());
  std::mt19937_64 rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<RefId> pick(0, corpus.split - 1);
  for (int b = 0; b < kDistinctQueryBatches; ++b) {
    std::vector<ReconQuery> queries;
    while (static_cast<int>(queries.size()) < kQueriesPerBatch) {
      if (auto query = QueryFor(full, binding, pick(rng))) {
        queries.push_back(std::move(*query));
      }
    }
    corpus.query_bodies.push_back(QueryBatchBody(queries));
  }
  return corpus;
}

/// The fixed query schedule: batch i is due at start + i / rate and sends
/// query_bodies[order[i]], with `order` drawn from the seed.
class QuerySchedule {
 public:
  QuerySchedule(uint64_t seed, int num_bodies)
      : rng_(seed), pick_(0, num_bodies - 1) {}
  Clock::time_point Due(Clock::time_point start, int64_t i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / kBatchesPerSecond));
  }
  int NextBody() { return pick_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::uniform_int_distribution<int> pick_;
};

recon::service::ServiceOptions ServiceOptionsFor(const WorkloadSpec& spec,
                                                 const std::string& dir) {
  recon::service::ServiceOptions options;
  options.reconciler = recon::ReconcilerOptions::DepGraph();
  options.reconciler.num_threads = 2;
  options.reconciler.max_block_size = spec.max_block_size;
  options.durability.data_dir = dir;
  options.durability.fsync = recon::service::FsyncPolicy::kEveryFlush;
  options.durability.checkpoint_every = kCheckpointEvery;
  return options;
}

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest req;
  req.method = "POST";
  req.path = path;
  req.body = body;
  return req;
}

/// A fresh, empty directory under the work dir; removed by its destructor.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& name)
      : path_(root + "/" + name + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<ReconService> OpenService(const WorkloadSpec& spec,
                                          Dataset initial,
                                          const std::string& dir,
                                          Result& result) {
  auto opened =
      ReconService::Open(std::move(initial), ServiceOptionsFor(spec, dir));
  if (!opened.ok()) {
    result.Fail("service Open failed: " + opened.status().ToString());
    return nullptr;
  }
  return std::move(opened).value();
}

/// The partition a snapshot publishes, as smallest-member representatives.
std::vector<int> SnapshotPartition(const Snapshot& snapshot) {
  std::vector<int> cluster(snapshot.num_references());
  for (RefId ref = 0; ref < snapshot.num_references(); ++ref) {
    cluster[ref] = snapshot.entity(snapshot.EntityOfRef(ref)).members[0];
  }
  return CanonicalPartition(cluster);
}

/// Feeds the initial corpus and every batch to a bare IncrementalReconciler,
/// one flush per batch, as the service does; checks each flush converged.
std::vector<int> OraclePartition(const WorkloadSpec& spec,
                                 const Corpus& corpus, Result& result) {
  recon::IncrementalReconciler oracle(
      InitialDataset(corpus), ServiceOptionsFor(spec, "").reconciler);
  oracle.clusters();
  bool converged = oracle.stats().stop_reason == recon::StopReason::kConverged;
  for (size_t b = 0; b < corpus.batches.size(); ++b) {
    for (size_t i = 0; i < corpus.batches[b].size(); ++i) {
      oracle.AddReference(corpus.batches[b][i], corpus.golds[b][i]);
    }
    oracle.clusters();
    converged = converged &&
                oracle.stats().stop_reason == recon::StopReason::kConverged;
  }
  if (!converged) result.Fail("an incremental flush did not converge");
  return CanonicalPartition(oracle.clusters());
}

/// What the reader saw, per batch: the time from sending it to the reply,
/// the time from when it was due to the reply, and how late it was sent.
struct ReaderStats {
  std::vector<double> reply_ms;
  std::vector<double> from_due_ms;
  std::vector<double> late_ms;
  int64_t failed = 0;
};

/// Runs the open-loop reader until `stop` is set; `send` handles one query
/// batch body and returns whether it succeeded.
template <typename Send>
ReaderStats RunReader(const Corpus& corpus, uint64_t seed,
                      const std::atomic<bool>& stop, Send send) {
  ReaderStats stats;
  QuerySchedule schedule(seed, static_cast<int>(corpus.query_bodies.size()));
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
    const Clock::time_point due = schedule.Due(start, i);
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const bool ok = send(corpus.query_bodies[schedule.NextBody()]);
    const Clock::time_point done = Clock::now();
    stats.reply_ms.push_back(
        std::chrono::duration<double, std::milli>(done - sent).count());
    stats.from_due_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    stats.late_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - due).count());
    if (!ok) ++stats.failed;
  }
  return stats;
}

void RunTimed(const Args& args, const WorkloadSpec& spec, Result& result) {
  const Corpus corpus = MakeCorpus(args);
  result.Info("service_references", corpus.full->num_references());
  result.Info("ingests", static_cast<double>(corpus.batches.size()));

  // The expected final partition comes first. Computing it also grows this
  // process's heap the way a running service's heap has grown, so the
  // traffic below does not time first-touch page faults of a fresh process.
  // This process's peak RSS (oracle, Open and traffic) depends on which
  // malloc arenas the threads happen to use (211-320 MiB over runs of one
  // seed on a 4-vCPU VM), so it is reported in the run line only.
  const std::vector<int> expected = OraclePartition(spec, corpus, result);
  const ScratchDir dir(kWorkDir, "service");
  const double open_cpu_start = CpuSeconds();
  const Clock::time_point open_start = Clock::now();
  const std::unique_ptr<ReconService> service =
      OpenService(spec, InitialDataset(corpus), dir.path(), result);
  if (service == nullptr) return;
  result.Info("service_open_wall_s", SecondsSince(open_start));
  result.Info("service_open_cpu_s", CpuSeconds() - open_cpu_start);
  const ServiceHandler handler(service.get());

  const HostCpu host_start = HostCpu::Now();
  std::atomic<bool> ingest_done{false};
  ReaderStats reader;
  std::thread reader_thread([&] {
    reader = RunReader(corpus, args.seed, ingest_done,
                       [&](const std::string& body) {
                         const HttpResponse res =
                             handler.Handle(Post("/reconcile", body));
                         return res.status == 200 &&
                                res.body.find("\"degraded\"") ==
                                    std::string::npos;
                       });
  });
  // The service's CPU time for an ingest is the process's CPU time over the
  // request minus the reader's: nothing else runs but the writer and the
  // reconciler's pool threads, which only the ingest's flush uses.
  clockid_t reader_clock{};
  const bool reader_clock_ok =
      ::pthread_getcpuclockid(reader_thread.native_handle(), &reader_clock) ==
      0;
  std::vector<double> ingest_ms;
  std::vector<double> ingest_cpu_ms;
  int64_t ingest_failed = 0;
  std::thread writer([&] {
    for (const std::string& body : corpus.ingest_bodies) {
      const double reader_start = CpuSeconds(reader_clock);
      const double cpu_start = CpuSeconds();
      const Clock::time_point start = Clock::now();
      const HttpResponse res = handler.Handle(Post("/ingest", body));
      ingest_ms.push_back(MillisSince(start));
      const double cpu_s = CpuSeconds() - cpu_start;
      ingest_cpu_ms.push_back(
          (cpu_s - (CpuSeconds(reader_clock) - reader_start)) * 1e3);
      if (res.status != 200) ++ingest_failed;
    }
    ingest_done.store(true, std::memory_order_release);
  });
  writer.join();
  reader_thread.join();
  const double peak_mb = PeakRssMb();
  if (!reader_clock_ok) result.Fail("no CPU clock for the reader thread");
  result.Info("service_host_steal_share",
              HostCpu::Now().StealShareSince(host_start));

  result.Count(static_cast<int64_t>(ingest_ms.size()), ingest_failed);
  result.Count(static_cast<int64_t>(reader.reply_ms.size()), reader.failed);
  if (ingest_failed + reader.failed > 0) {
    result.Fail(std::to_string(ingest_failed) + " ingests and " +
                std::to_string(reader.failed) + " query batches failed");
  }
  if (service->counters().degraded_queries.load() != 0) {
    result.Fail("degraded queries were served");
  }

  // Checks, with ingest stopped: handler bytes equal the library oracle ...
  const std::shared_ptr<const Snapshot> last = service->snapshot();
  int mismatches = 0;
  for (const std::string& body : corpus.query_bodies) {
    const HttpResponse served = handler.Handle(Post("/reconcile", body));
    const auto batch = recon::service::ParseQueryBatch(body);
    if (!batch.ok()) {
      ++mismatches;
      continue;
    }
    recon::service::BatchAnswer direct;
    direct.snapshot = last;
    for (const auto& [id, query] : batch.value()) {
      direct.results.push_back(last->Query(query));
    }
    if (served.status != 200 ||
        served.body != RenderReconcileBody(batch.value(), direct)) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    result.Fail(std::to_string(mismatches) +
                " /reconcile bodies differ from Snapshot::Query + render");
  }
  // ... and the last published partition equals the incremental oracle's.
  if (last->generation() != corpus.batches.size()) {
    result.Fail("last snapshot generation " +
                std::to_string(last->generation()) + ", expected " +
                std::to_string(corpus.batches.size()));
  }
  const std::vector<int> published = SnapshotPartition(*last);
  if (published != expected) {
    result.Fail("published partition differs from the incremental oracle");
  }

  result.Info("query_batches", static_cast<double>(reader.reply_ms.size()));
  // Tails follow the host's steal time (query p99 from due time went from
  // 5 to 17 ms as steal rose from 1% to 9% of CPU time on a 4-vCPU VM),
  // so they are reported here, beside the steal share, not as metrics.
  result.Info("query_from_due_p50_ms", Percentile(reader.from_due_ms, 0.50));
  result.Info("query_from_due_p99_ms", Percentile(reader.from_due_ms, 0.99));
  result.Info("query_p99_ms", Percentile(reader.reply_ms, 0.99));
  // Ingest and set-up wall times follow steal too (ingest p50 went from 97
  // to 175 ms as steal rose from 3% to 23%), so the bounded metrics are
  // their CPU time, with the wall times here.
  result.Info("ingest_p50_ms", Percentile(ingest_ms, 0.50));
  result.Info("ingest_p90_ms", Percentile(ingest_ms, 0.90));
  result.Info("sched_late_p99_ms", Percentile(reader.late_ms, 0.99));
  result.Info("traffic_process_peak_rss_mb", peak_mb);
  const std::array<double, 3> f1 = BCubedF1(*corpus.full, published);
  recon::json::Value f1_values = recon::json::Value::Array();
  for (const double v : f1) f1_values.Append(v);
  result.Info("service_bcubed_f1", std::move(f1_values));
  result.Add("query_p50_ms", Percentile(reader.reply_ms, 0.50), "ms");
  result.Add("ingest_cpu_ms", Median(ingest_cpu_ms), "ms");
}

/// What the traced writer keeps between ingests: ReconService's state.
struct TracedService {
  std::string dir;
  std::optional<recon::IncrementalReconciler> reconciler;
  recon::ReconcilerOptions options;
  std::unique_ptr<recon::service::WriteAheadLog> wal;
  recon::AtomicSharedPtr<const Snapshot> snapshot;
  uint64_t generation = 0;
  std::vector<int64_t> epoch_refs;
  std::string checkpoint_path;
  int64_t wal_bytes = 0;  ///< Appended by retired WAL segments.
  bool converged = true;
};

/// WriteCheckpointLocked's sequence: serialize, write the checkpoint,
/// start a WAL segment at this generation, retire the old files.
bool Checkpoint(TracedService& s, Trace& trace, const std::string& prefix) {
  recon::service::CheckpointData data;
  std::string path;
  {
    Trace::Scope span(trace, prefix + "checkpoint.write", 0);
    data.generation = s.generation;
    data.epoch_refs = s.epoch_refs;
    data.dataset_text = recon::SerializeDataset(s.reconciler->dataset());
    const std::vector<int>& clusters = s.reconciler->clusters();
    data.clusters.assign(clusters.begin(), clusters.end());
    if (!recon::service::WriteCheckpointFile(s.dir, data, nullptr, &path)
             .ok()) {
      return false;
    }
  }
  Trace::Scope span(trace, prefix + "wal.rotate", 0);
  auto fresh = recon::service::WriteAheadLog::Create(
      s.dir, s.dir + "/" + recon::service::WalFileName(s.generation),
      s.generation, recon::service::FsyncPolicy::kEveryFlush, nullptr);
  if (!fresh.ok()) return false;
  if (s.wal != nullptr) {
    s.wal_bytes += s.wal->appended_bytes();
    std::filesystem::remove(s.wal->path());
  }
  if (!s.checkpoint_path.empty()) std::filesystem::remove(s.checkpoint_path);
  s.wal = std::move(fresh).value();
  s.checkpoint_path = path;
  return true;
}

void RunTraced(const Args& args, const WorkloadSpec& spec, Trace& trace,
               Result& result) {
  const Corpus corpus = MakeCorpus(args);
  const ScratchDir dir(kWorkDir, "traced");
  TracedService s;
  s.dir = dir.path();
  s.options = ServiceOptionsFor(spec, s.dir).reconciler;

  // Open: initial reconcile, snapshot 0, checkpoint-0 + wal-0.
  {
    Trace::Scope span(trace, "open.reconcile", 0);
    s.reconciler.emplace(InitialDataset(corpus), s.options);
    s.reconciler->clusters();
  }
  {
    Trace::Scope span(trace, "open.snapshot", 0);
    s.snapshot.Store(recon::service::BuildSnapshot(
        s.reconciler->dataset(), s.reconciler->clusters(), s.options, 0));
  }
  s.epoch_refs.push_back(s.reconciler->flushed_until());
  if (!Checkpoint(s, trace, "open.")) {
    result.Fail("checkpoint-0 failed");
    return;
  }

  std::atomic<bool> ingest_done{false};
  bool durable_ok = true;
  std::thread writer([&] {
    for (size_t b = 0; b < corpus.batches.size(); ++b) {
      Trace::Scope ingest(trace, "ingest", 0);
      {
        Trace::Scope span(trace, "wal.append", 0);
        durable_ok = durable_ok &&
                     s.wal->AppendBatch(corpus.batches[b], corpus.golds[b])
                         .ok() &&
                     s.wal->AppendFlush(s.generation + 1).ok();
      }
      {
        Trace::Scope span(trace, "incremental.add", 0);
        for (size_t i = 0; i < corpus.batches[b].size(); ++i) {
          s.reconciler->AddReference(corpus.batches[b][i], corpus.golds[b][i]);
        }
      }
      {
        Trace::Scope span(trace, "incremental.flush", 0);
        s.reconciler->Flush();
      }
      s.converged = s.converged && s.reconciler->stats().stop_reason ==
                                       recon::StopReason::kConverged;
      const std::vector<int>* clusters = nullptr;
      {
        Trace::Scope span(trace, "incremental.closure", 0);
        clusters = &s.reconciler->clusters();
      }
      ++s.generation;
      s.epoch_refs.push_back(s.reconciler->flushed_until());
      {
        Trace::Scope span(trace, "snapshot.build", 0);
        s.snapshot.Store(recon::service::BuildSnapshot(
            s.reconciler->dataset(), *clusters, s.options, s.generation));
      }
      if (s.generation % kCheckpointEvery == 0) {
        durable_ok = Checkpoint(s, trace, "") && durable_ok;
      }
    }
    ingest_done.store(true, std::memory_order_release);
  });

  int64_t queries = 0;
  int64_t scored = 0;
  ReaderStats reader;
  std::thread reader_thread([&] {
    reader = RunReader(
        corpus, args.seed, ingest_done, [&](const std::string& body) {
          Trace::Scope batch_span(trace, "query_batch", 1);
          std::optional<recon::service::QueryBatch> batch;
          {
            Trace::Scope span(trace, "handlers.parse", 1);
            auto parsed = recon::service::ParseQueryBatch(body);
            if (!parsed.ok()) return false;
            batch.emplace(std::move(parsed).value());
          }
          recon::service::BatchAnswer answer;
          answer.snapshot = s.snapshot.Load();
          recon::BudgetTracker tracker{recon::Budget{}};
          for (const auto& [id, query] : *batch) {
            std::string type = query.type;
            std::transform(type.begin(), type.end(), type.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            Trace::Scope span(trace, "snapshot.query." + type, 1);
            answer.results.push_back(answer.snapshot->Query(query, &tracker));
            scored += answer.results.back().num_scored;
            answer.degraded = answer.degraded || answer.results.back().degraded;
            ++queries;
          }
          Trace::Scope span(trace, "handlers.render", 1);
          const std::string rendered =
              recon::service::RenderReconcileBody(*batch, answer);
          return !answer.degraded && !rendered.empty();
        });
  });
  writer.join();
  reader_thread.join();

  result.Attempt(durable_ok);
  if (!durable_ok) result.Fail("a WAL append or checkpoint failed");
  result.Attempt(s.converged);
  if (!s.converged) result.Fail("an incremental flush did not converge");
  result.Count(static_cast<int64_t>(reader.reply_ms.size()), reader.failed);
  if (reader.failed > 0) result.Fail("traced query batches failed");

  // The traced composition must publish what the service publishes.
  {
    const ScratchDir check_dir(kWorkDir, "check");
    std::unique_ptr<ReconService> service =
        OpenService(spec, InitialDataset(corpus), check_dir.path(), result);
    if (service != nullptr) {
      const ServiceHandler handler(service.get());
      for (const std::string& body : corpus.ingest_bodies) {
        const bool ok = handler.Handle(Post("/ingest", body)).status == 200;
        result.Attempt(ok);
        if (!ok) result.Fail("check service rejected an ingest");
      }
      const bool same = SnapshotPartition(*service->snapshot()) ==
                        SnapshotPartition(*s.snapshot.Load());
      result.Attempt(same);
      if (!same) result.Fail("traced partition differs from ReconService's");
    }
  }

  const std::vector<double> flush = trace.Durations("incremental.flush");
  const size_t decile = std::max<size_t>(1, flush.size() / 10);
  const double first =
      Mean(std::vector<double>(flush.begin(), flush.begin() + decile));
  const double last =
      Mean(std::vector<double>(flush.end() - decile, flush.end()));
  const int64_t refs_ingested =
      static_cast<int64_t>(corpus.batches.size()) * kIngestBatch;
  result.Add("incremental.flush_ms_p50", Median(flush), "ms");
  result.Add("incremental.closure_ms_p50",
             Median(trace.Durations("incremental.closure")), "ms");
  result.Add("incremental.flush_growth", first > 0 ? last / first : 0,
             "ratio");
  result.Add("snapshot.build_ms_p50",
             Median(trace.Durations("snapshot.build")), "ms");
  for (const char* type : {"person", "article", "venue"}) {
    result.Add(std::string("snapshot.query_ms_p50.") + type,
               Median(trace.Durations(std::string("snapshot.query.") + type)),
               "ms");
  }
  result.Add("snapshot.scored_per_query",
             queries > 0 ? static_cast<double>(scored) / queries : 0,
             "count");
  result.Add("snapshot.bytes_mb",
             s.snapshot.Load()->approximate_bytes() / (1024.0 * 1024.0),
             "MiB");
  result.Add("handlers.parse_ms_p50",
             Median(trace.Durations("handlers.parse")), "ms");
  result.Add("handlers.render_ms_p50",
             Median(trace.Durations("handlers.render")), "ms");
  const std::vector<double> append = trace.Durations("wal.append");
  result.Add("wal.append_ms_p50", Percentile(append, 0.50), "ms");
  result.Add("wal.append_ms_p90", Percentile(append, 0.90), "ms");
  result.Add("wal.bytes_per_ref",
             static_cast<double>(s.wal_bytes + s.wal->appended_bytes()) /
                 refs_ingested,
             "B");
  result.Add("checkpoint.write_ms_p50",
             Median(trace.Durations("checkpoint.write")), "ms");
  result.Add("sched.late_p99_ms", Percentile(reader.late_ms, 0.99), "ms");
  result.Add("trace.ingest_coverage",
             trace.ChildrenMs("ingest") / trace.TotalMs("ingest"), "ratio");
  result.Info("service_references", corpus.full->num_references());
  result.Info("query_batches", static_cast<double>(reader.reply_ms.size()));
}

}  // namespace

void RunServicePhase(const Args& args, const WorkloadSpec& spec, Trace* trace,
                     Result& result) {
  if (trace != nullptr) {
    RunTraced(args, spec, *trace, result);
  } else {
    RunTimed(args, spec, result);
  }
}

}  // namespace perfbench
