// Embedded, dependency-free HTTP/1.1 server for the reconciliation daemon
// (DESIGN.md §12): a blocking accept loop on its own thread feeds accepted
// connections as tasks to a PR-1 runtime thread pool. One request per
// connection (the server always answers `Connection: close`), Content-Length
// bodies only, `Expect: 100-continue` honored — the smallest surface that
// serves curl, OpenRefine clients, and the loopback smoke test.

#ifndef RECON_SERVICE_HTTP_H_
#define RECON_SERVICE_HTTP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"
#include "util/status.h"

namespace recon::service {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (upper-cased as received).
  std::string path;    ///< Path without the query string ("/reconcile").
  std::string query;   ///< Raw query string after '?', or "".
  std::vector<std::pair<std::string, std::string>> headers;  ///< Lower-cased names.
  std::string body;

  /// First header named `name` (lower-case), or "".
  const std::string& Header(const std::string& name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Standard reason phrase for the handful of statuses the service uses.
const char* HttpStatusText(int status);

/// Server tuning knobs (DESIGN.md §15 shedding policy).
struct HttpServerOptions {
  /// Request-handling workers (clamped to >= 1).
  int num_threads = 1;
  /// Admission bound: connections handed to workers but not yet answered.
  /// Above it the accept loop sheds with `503 + Retry-After` immediately
  /// instead of queueing without bound — saturation degrades to fast,
  /// honest rejections, never to stalled readers. 0 = unbounded.
  int max_inflight = 0;
  /// Per-connection socket read timeout; a stalled client cannot park a
  /// worker forever.
  int recv_timeout_ms = 10'000;
  /// Largest accepted request body (413 above it).
  size_t max_body_bytes = 8u * 1024 * 1024;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(Handler handler, HttpServerOptions options);

  /// Stops and joins (see Stop()).
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 0.0.0.0:`port` (0 = ephemeral), starts listening and spawns the
  /// accept thread. Fails with a status (a port outside [0, 65535],
  /// address in use, ...) instead of aborting.
  Status Start(int port);

  /// The bound port (useful after Start(0)).
  int port() const { return port_; }

  /// Closes the listening socket, joins the accept thread, and drains the
  /// in-flight request tasks. Idempotent.
  void Stop();

  /// Connections admitted to workers / shed with 503 (monotone counters).
  int64_t accepted_requests() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  int64_t shed_requests() const {
    return shed_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Answers 503 + Retry-After on the accept thread, then closes without
  /// triggering an RST (short bounded drain of unread request bytes).
  void ShedConnection(int fd);

  Handler handler_;
  HttpServerOptions options_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::thread accept_thread_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> shed_{0};
};

/// Minimal loopback HTTP client for tests and tools: sends one request to
/// 127.0.0.1:`port` and parses the response. `headers` are raw lines
/// ("Name: value"). Fails on connect/IO/parse errors.
StatusOr<HttpResponse> HttpFetch(int port, const std::string& method,
                                 const std::string& target,
                                 const std::string& body = "",
                                 const std::vector<std::string>& headers = {});

}  // namespace recon::service

#endif  // RECON_SERVICE_HTTP_H_
