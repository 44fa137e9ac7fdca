// End-to-end smoke test of the reconciliation daemon over real loopback
// HTTP: an in-process HttpServer on an ephemeral port, a raw-socket client
// (HttpFetch), and the full route surface — manifest, reconcile (three
// transports), ingest with a generation bump, entity lookup, health,
// stats, the error paths, overload shedding, and (against the real
// reconcile_serve binary) SIGTERM graceful drain + WAL seal. Labeled
// `asan` (tools/check_asan.sh): the request parsing and connection
// handling must hold up under -DRECON_SANITIZE=address-undefined.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "service/checkpoint.h"
#include "service/handlers.h"
#include "service/http.h"
#include "service/service.h"
#include "service/wal.h"
#include "util/json.h"

namespace recon::service {
namespace {

Dataset SmokeDataset() {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  const int email = data.schema().RequireAttribute(person, "email");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(name, "Grace Hopper");
  data.mutable_reference(a).AddAtomicValue(email, "grace@navy.mil");
  const RefId b = data.NewReference(person, 1);
  data.mutable_reference(b).AddAtomicValue(name, "Alan Kay");
  data.mutable_reference(b).AddAtomicValue(email, "kay@parc.com");
  return data;
}

/// Server + service wired once for the whole suite (starting a reconciler
/// per test would dominate runtime).
class ServiceSmokeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServiceOptions options;
    options.reconciler = ReconcilerOptions::DepGraph();
    service_ = new ReconService(SmokeDataset(), options);
    handler_ = new ServiceHandler(service_);
    HttpServerOptions server_options;
    server_options.num_threads = 2;
    server_ = new HttpServer(
        [](const HttpRequest& req) { return handler_->Handle(req); },
        server_options);
    ASSERT_TRUE(server_->Start(/*port=*/0).ok());
    ASSERT_GT(server_->port(), 0);
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete handler_;
    delete service_;
    server_ = nullptr;
    handler_ = nullptr;
    service_ = nullptr;
  }

  static json::Value FetchJson(const std::string& method,
                               const std::string& target,
                               const std::string& body, int expect_status) {
    const auto res = HttpFetch(server_->port(), method, target, body);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) return json::Value();
    EXPECT_EQ(res.value().status, expect_status) << res.value().body;
    const auto doc = json::Parse(res.value().body);
    EXPECT_TRUE(doc.ok()) << res.value().body;
    return doc.ok() ? doc.value() : json::Value();
  }

  static ReconService* service_;
  static ServiceHandler* handler_;
  static HttpServer* server_;
};

ReconService* ServiceSmokeTest::service_ = nullptr;
ServiceHandler* ServiceSmokeTest::handler_ = nullptr;
HttpServer* ServiceSmokeTest::server_ = nullptr;

TEST_F(ServiceSmokeTest, HealthzReportsVersionAndGeneration) {
  const json::Value doc = FetchJson("GET", "/healthz", "", 200);
  EXPECT_EQ(doc.at("status").AsString(), "ok");
  EXPECT_FALSE(doc.at("version").AsString().empty());
  EXPECT_FALSE(doc.at("build").AsString().empty());
  EXPECT_GE(doc.at("entities").AsInt(), 2);
}

TEST_F(ServiceSmokeTest, ManifestListsTypes) {
  const json::Value doc = FetchJson("GET", "/", "", 200);
  EXPECT_FALSE(doc.at("name").AsString().empty());
  EXPECT_EQ(doc.at("defaultTypes").size(), 3u);  // Person, Article, Venue.
}

TEST_F(ServiceSmokeTest, ReconcilePostJsonBody) {
  const json::Value doc = FetchJson(
      "POST", "/reconcile",
      R"({"q0": {"query": "Grace Hopper", "type": "Person"}})", 200);
  const json::Value& result = doc.at("q0").at("result");
  ASSERT_GE(result.size(), 1u);
  EXPECT_EQ(result.items()[0].at("name").AsString(), "Grace Hopper");
  EXPECT_TRUE(result.items()[0].at("match").AsBool());
}

TEST_F(ServiceSmokeTest, ReconcileFormAndUrlTransports) {
  // urlencoded form body, as OpenRefine sends it.
  const std::string form =
      "queries=%7B%22q0%22%3A%7B%22query%22%3A%22Grace+Hopper%22%2C"
      "%22type%22%3A%22Person%22%7D%7D";
  const json::Value via_form = FetchJson("POST", "/reconcile", form, 200);
  EXPECT_GE(via_form.at("q0").at("result").size(), 1u);
  // Same batch through the URL parameter.
  const json::Value via_url =
      FetchJson("GET", "/reconcile?" + form, "", 200);
  EXPECT_GE(via_url.at("q0").at("result").size(), 1u);
}

TEST_F(ServiceSmokeTest, IngestBumpsGenerationAndServesNewEntity) {
  const json::Value before = FetchJson("GET", "/healthz", "", 200);
  const int64_t generation = before.at("generation").AsInt();

  const json::Value report = FetchJson(
      "POST", "/ingest",
      R"({"references": [{"class": "Person",
                          "values": {"name": ["Radia Perlman"],
                                     "email": ["radia@dec.com"]}}],
          "flush": true})",
      200);
  EXPECT_EQ(report.at("added").AsInt(), 1);
  EXPECT_TRUE(report.at("flushed").AsBool());
  EXPECT_EQ(report.at("generation").AsInt(), generation + 1);

  const json::Value doc = FetchJson(
      "POST", "/reconcile",
      R"({"q": {"query": "Radia Perlman", "type": "Person"}})", 200);
  ASSERT_GE(doc.at("q").at("result").size(), 1u);
  EXPECT_EQ(doc.at("q").at("result").items()[0].at("name").AsString(),
            "Radia Perlman");
  EXPECT_EQ(doc.at("_snapshot").AsInt(), generation + 1);

  // The flush's graph upkeep counters reach /stats: the reconciler's graph
  // was built (and its four pools packed) before the first flush.
  const json::Value stats = FetchJson("GET", "/stats", "", 200);
  EXPECT_GE(stats.at("counters").at("negprop_sources").AsInt(), 0);
  EXPECT_GE(stats.at("counters").at("graph_compactions").AsInt(), 4);
  EXPECT_GE(stats.at("counters").at("unmerged_pairs").AsInt(), 0);
  EXPECT_GE(stats.at("counters").at("derived_non_merge_pairs").AsInt(), 0);
  EXPECT_EQ(stats.at("counters").at("dropped_blocks").AsInt(), 0);
  // The publish built the new entity and shared the others with the
  // previous snapshot.
  EXPECT_GE(stats.at("counters").at("publish_ms").AsDouble(), 0.0);
  const int64_t rebuilt =
      stats.at("counters").at("snapshot_entities_rebuilt").AsInt();
  const int64_t entities = stats.at("snapshot").at("entities").AsInt();
  EXPECT_EQ(rebuilt, 1);
  EXPECT_LT(2 * rebuilt, entities);
}

TEST_F(ServiceSmokeTest, EntityLookup) {
  const json::Value doc = FetchJson("GET", "/entity/e0", "", 200);
  EXPECT_EQ(doc.at("id").AsString(), "e0");
  EXPECT_FALSE(doc.at("name").AsString().empty());
  EXPECT_GE(doc.at("members").size(), 1u);
  FetchJson("GET", "/entity/e99999", "", 404);
  FetchJson("GET", "/entity/not-an-id", "", 404);
}

TEST_F(ServiceSmokeTest, StatsCountTraffic) {
  // Each gtest case runs in its own process under ctest: generate the
  // traffic this test counts.
  FetchJson("POST", "/reconcile",
            R"({"q": {"query": "Grace Hopper", "type": "Person"}})", 200);
  const json::Value doc = FetchJson("GET", "/stats", "", 200);
  EXPECT_GE(doc.at("counters").at("queries").AsInt(), 1);
  EXPECT_GE(doc.at("snapshot").at("entities").AsInt(), 2);
  EXPECT_GT(doc.at("snapshot").at("blocking_keys").AsInt(), 0);
}

TEST_F(ServiceSmokeTest, ErrorPaths) {
  FetchJson("GET", "/no/such/route", "", 404);
  FetchJson("POST", "/reconcile", "{broken json", 400);
  FetchJson("POST", "/ingest", R"({"flush": true})", 400);
  FetchJson("GET", "/ingest", "", 405);
  FetchJson("POST", "/ingest",
            R"({"references": [{"class": "Spaceship"}]})", 400);
}

TEST_F(ServiceSmokeTest, ResponsesCarrySnapshotGenerationHeader) {
  const auto res = HttpFetch(server_->port(), "GET", "/healthz");
  ASSERT_TRUE(res.ok());
  bool found = false;
  for (const auto& [name, value] : res.value().extra_headers) {
    if (name == "x-snapshot-generation") found = !value.empty();
  }
  EXPECT_TRUE(found);
}

TEST_F(ServiceSmokeTest, IngestMalformedJsonReportsByteOffset) {
  // The parser's position must reach the client — "bad request" alone
  // sends the caller grepping megabyte payloads by hand.
  const auto res = HttpFetch(server_->port(), "POST", "/ingest",
                             R"({"references": [}])");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().status, 400);
  EXPECT_NE(res.value().body.find("at byte"), std::string::npos)
      << res.value().body;
}

// ---- Binding -----------------------------------------------------------------

TEST(HttpServerTest, StartRejectsPortOutsideTcpRange) {
  // A port past 65535 must not wrap to another port when it is narrowed to
  // the 16-bit socket field.
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    HttpServerOptions{});
  const Status status = server.Start(65536);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(server.port(), 0);
  EXPECT_EQ(server.Start(-1).code(), StatusCode::kInvalidArgument);
}

// ---- Overload shedding (DESIGN.md §15) -------------------------------------

TEST(HttpOverloadTest, ShedsWith503AndRetryAfterWhenSaturated) {
  // A handler parked on a latch pins the single admission slot, making
  // "saturated" a deterministic state instead of a race to be won.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  HttpServerOptions options;
  options.num_threads = 2;
  options.max_inflight = 1;
  HttpServer server(
      [&](const HttpRequest&) {
        entered.fetch_add(1);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
        HttpResponse res;
        res.body = R"({"ok": true})";
        return res;
      },
      options);
  ASSERT_TRUE(server.Start(0).ok());

  std::thread slow([&server] {
    const auto res = HttpFetch(server.port(), "GET", "/slow");
    // The admitted request is never shed, even while later ones are.
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (res.ok()) EXPECT_EQ(res.value().status, 200);
  });
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The slot is pinned: every further request is shed on the accept
  // thread with 503 + Retry-After, and the client still reads the
  // response (no connection reset).
  for (int i = 0; i < 3; ++i) {
    const auto shed = HttpFetch(server.port(), "GET", "/healthz");
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed.value().status, 503);
    bool retry_after = false;
    for (const auto& [name, value] : shed.value().extra_headers) {
      if (name == "retry-after") retry_after = !value.empty();
    }
    EXPECT_TRUE(retry_after);
  }
  EXPECT_GE(server.shed_requests(), 3);
  EXPECT_EQ(server.accepted_requests(), 1);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  slow.join();
  server.Stop();
}

// ---- Graceful shutdown of the real daemon ----------------------------------

/// mkdtemp-backed scratch dir for the daemon's --data-dir.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/recon-smoke-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    RECON_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    StatusOr<DataDirState> state = ScanDataDir(path_);
    if (state.ok()) {
      for (const auto& p : state.value().checkpoint_paths) ::remove(p.c_str());
      for (const auto& p : state.value().wal_paths) ::remove(p.c_str());
      for (const auto& p : state.value().tmp_paths) ::remove(p.c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(ReconcileServeTest, SigtermDrainsInFlightSealsWalAndExitsZero) {
  TempDir dir;
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(RECON_SERVE_BINARY, RECON_SERVE_BINARY, "--demo", "--port", "0",
            "--threads", "2", "--data-dir", dir.path().c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  FILE* out = ::fdopen(out_pipe[0], "r");
  ASSERT_NE(out, nullptr);
  int port = 0;
  char line[512];
  while (::fgets(line, sizeof(line), out) != nullptr) {
    if (std::sscanf(line, "listening on port %d", &port) == 1) break;
  }
  ASSERT_GT(port, 0) << "daemon never reported its port";

  // An ingest is in flight when the signal lands; the drain must let it
  // finish (200), not cut the connection.
  std::thread inflight([port] {
    const auto res = HttpFetch(
        port, "POST", "/ingest",
        R"({"references": [{"class": "Person",
                            "values": {"name": ["Leslie Lamport"],
                                       "email": ["lamport@msr.com"]}}],
            "flush": true})");
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (res.ok()) EXPECT_EQ(res.value().status, 200) << res.value().body;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  inflight.join();

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::fclose(out);

  // The drain sealed the WAL: the next start sees a clean shutdown.
  StatusOr<DataDirState> state = ScanDataDir(dir.path());
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state.value().wal_paths.size(), 1u);
  StatusOr<WalContents> wal = ReadWalFile(state.value().wal_paths[0]);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(wal.value().sealed);
  EXPECT_EQ(wal.value().truncated_bytes, 0u);
}

}  // namespace
}  // namespace recon::service
