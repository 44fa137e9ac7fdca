#include "service/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

namespace recon::service {
namespace {

constexpr size_t kMaxHeaderBytes = 64 * 1024;
/// Retry-After hint attached to shed responses, seconds.
constexpr int kRetryAfterSeconds = 1;
/// listen(2) backlog: the kernel-side accept queue is the second
/// backpressure stage behind HttpServerOptions::max_inflight.
constexpr int kListenBacklog = 128;
/// Client-side response cap for HttpFetch (the server body bound is
/// HttpServerOptions::max_body_bytes).
constexpr size_t kMaxFetchBytes = 8 * 1024 * 1024;

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

void SetRecvTimeoutMs(int fd, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetSendTimeoutMs(int fd, int timeout_ms) {
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes all of `data`; false on error. MSG_NOSIGNAL so a peer that hung
/// up yields EPIPE instead of killing the process.
bool SendAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool SendAll(int fd, const std::string& data) {
  return SendAll(fd, data.data(), data.size());
}

std::string RenderResponse(const HttpResponse& res) {
  std::string out = "HTTP/1.1 " + std::to_string(res.status) + " " +
                    HttpStatusText(res.status) + "\r\n";
  out += "Content-Type: " + res.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(res.body.size()) + "\r\n";
  for (const auto& [name, value] : res.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += res.body;
  return out;
}

/// Reads until the header terminator, filling `buf` (which may end up
/// holding the start of the body too). Returns the offset just past
/// "\r\n\r\n", or -1 on error/overflow/EOF-before-terminator.
ssize_t ReadHeaders(int fd, std::string& buf) {
  char chunk[4096];
  while (true) {
    const size_t scan_from = buf.size() >= 3 ? buf.size() - 3 : 0;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return -1;
    buf.append(chunk, static_cast<size_t>(n));
    const size_t pos = buf.find("\r\n\r\n", scan_from);
    if (pos != std::string::npos) return static_cast<ssize_t>(pos + 4);
    if (buf.size() > kMaxHeaderBytes) return -1;
  }
}

/// Parses the request line + headers from buf[0, header_end); body bytes
/// already read stay in `buf` past header_end. False on malformed input.
bool ParseRequest(const std::string& buf, size_t header_end, HttpRequest& req) {
  size_t line_end = buf.find("\r\n");
  if (line_end == std::string::npos || line_end >= header_end) return false;

  // Request line: METHOD SP target SP HTTP/x.y
  const std::string line = buf.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return false;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') return false;
  const size_t qpos = target.find('?');
  if (qpos == std::string::npos) {
    req.path = std::move(target);
  } else {
    req.path = target.substr(0, qpos);
    req.query = target.substr(qpos + 1);
  }

  // Header lines until the blank line.
  size_t pos = line_end + 2;
  while (pos + 2 <= header_end) {
    const size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos || eol + 2 > header_end) return false;
    if (eol == pos) break;  // Blank line.
    const std::string header = buf.substr(pos, eol - pos);
    const size_t colon = header.find(':');
    if (colon == std::string::npos) return false;
    std::string name = ToLower(header.substr(0, colon));
    size_t vstart = colon + 1;
    while (vstart < header.size() && (header[vstart] == ' ' || header[vstart] == '\t')) {
      ++vstart;
    }
    size_t vend = header.size();
    while (vend > vstart && (header[vend - 1] == ' ' || header[vend - 1] == '\t')) {
      --vend;
    }
    req.headers.emplace_back(std::move(name), header.substr(vstart, vend - vstart));
    pos = eol + 2;
  }
  return true;
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& name) const {
  static const std::string kEmpty;
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return kEmpty;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)),
      options_(options),
      pool_(std::make_unique<runtime::ThreadPool>(
          options.num_threads < 1 ? 1 : options.num_threads)) {
  if (options_.recv_timeout_ms < 1) options_.recv_timeout_ms = 1;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(int port) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(port) +
                                   " is outside [0, 65535]");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind port " + std::to_string(port) + ": " + err);
  }
  if (::listen(fd, kListenBacklog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname: " + err);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // shutdown() wakes the blocking accept(); close alone is not guaranteed to.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // The pool destructor drains every queued connection task before joining,
  // so no accepted request is dropped mid-flight.
  pool_.reset();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF/EINVAL after Stop()'s shutdown; anything else while running
      // (EMFILE, ...) — retry until told to stop.
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    // Bounded admission: claim an in-flight slot or shed right here.
    // Shedding on the accept thread keeps the worker pool for admitted
    // work and bounds memory — a shed connection never buffers a body.
    if (options_.max_inflight > 0) {
      int current = inflight_.load(std::memory_order_relaxed);
      bool admitted = false;
      while (current < options_.max_inflight) {
        if (inflight_.compare_exchange_weak(current, current + 1,
                                            std::memory_order_relaxed)) {
          admitted = true;
          break;
        }
      }
      if (!admitted) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        ShedConnection(fd);
        continue;
      }
    } else {
      inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    pool_->Submit([this, fd] {
      ServeConnection(fd);
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
}

void HttpServer::ShedConnection(int fd) {
  // Tight timeouts: this runs on the accept thread, so a hostile peer may
  // stall it at most ~250ms, while a well-behaved loopback client costs
  // microseconds.
  SetRecvTimeoutMs(fd, 250);
  SetSendTimeoutMs(fd, 250);
  HttpResponse res;
  res.status = 503;
  res.body = "{\"error\":\"overloaded: " +
             std::to_string(options_.max_inflight) +
             " requests in flight\"}";
  res.extra_headers.emplace_back("Retry-After",
                                 std::to_string(kRetryAfterSeconds));
  SendAll(fd, RenderResponse(res));
  // Close without an RST: the client may still be sending its request; if
  // we close with unread bytes in the receive queue the kernel resets the
  // connection and the client can lose the 503. Half-close our side, then
  // drain (bounded) until the client sees the response and closes.
  ::shutdown(fd, SHUT_WR);
  char sink[4096];
  size_t drained = 0;
  while (drained < 64 * 1024) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, timeout, or error: done either way.
    drained += static_cast<size_t>(n);
  }
  ::close(fd);
}

void HttpServer::ServeConnection(int fd) {
  SetRecvTimeoutMs(fd, options_.recv_timeout_ms);
  std::string buf;
  HttpRequest req;
  const ssize_t header_end = ReadHeaders(fd, buf);
  bool parsed = header_end >= 0 &&
                ParseRequest(buf, static_cast<size_t>(header_end), req);
  HttpResponse res;
  if (!parsed) {
    res.status = 400;
    res.body = "{\"error\":\"malformed request\"}";
    SendAll(fd, RenderResponse(res));
    ::close(fd);
    return;
  }

  size_t content_length = 0;
  const std::string& cl = req.Header("content-length");
  if (!cl.empty()) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(cl.c_str(), &end, 10);
    if (errno != 0 || end == cl.c_str() || *end != '\0' ||
        v > options_.max_body_bytes) {
      res.status = v > options_.max_body_bytes ? 413 : 400;
      res.body = "{\"error\":\"bad content-length\"}";
      SendAll(fd, RenderResponse(res));
      ::close(fd);
      return;
    }
    content_length = static_cast<size_t>(v);
  }

  // curl sends Expect: 100-continue for large bodies and waits for the nod.
  if (ToLower(req.Header("expect")) == "100-continue") {
    SendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n");
  }

  req.body = buf.substr(static_cast<size_t>(header_end));
  while (req.body.size() < content_length) {
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {  // Timeout or premature EOF.
      ::close(fd);
      return;
    }
    req.body.append(chunk, static_cast<size_t>(n));
  }
  req.body.resize(content_length);  // Ignore pipelined extra bytes.

  res = handler_(req);
  SendAll(fd, RenderResponse(res));
  ::close(fd);
}

StatusOr<HttpResponse> HttpFetch(int port, const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 const std::vector<std::string>& headers) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket: " + std::string(std::strerror(errno)));
  SetRecvTimeoutMs(fd, 10'000);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect 127.0.0.1:" + std::to_string(port) + ": " + err);
  }

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1:" + std::to_string(port) + "\r\n";
  for (const std::string& header : headers) request += header + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!SendAll(fd, request)) {
    ::close(fd);
    return Status::Internal("send failed");
  }

  // The server closes after one response: read to EOF.
  std::string raw;
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("recv: " + std::string(std::strerror(errno)));
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<size_t>(n));
    if (raw.size() > kMaxFetchBytes + kMaxHeaderBytes) break;
  }
  ::close(fd);

  // Skip interim 1xx responses (the server's 100 Continue).
  size_t start = 0;
  while (true) {
    if (raw.compare(start, 9, "HTTP/1.1 ") != 0 &&
        raw.compare(start, 9, "HTTP/1.0 ") != 0) {
      return Status::Internal("malformed response");
    }
    const int status = std::atoi(raw.c_str() + start + 9);
    const size_t head_end = raw.find("\r\n\r\n", start);
    if (head_end == std::string::npos) return Status::Internal("truncated response");
    if (status >= 200) {
      HttpResponse res;
      res.status = status;
      // Headers, lower-cased, reusing extra_headers as the parsed list.
      size_t pos = raw.find("\r\n", start) + 2;
      while (pos < head_end) {
        const size_t eol = raw.find("\r\n", pos);
        const std::string line = raw.substr(pos, eol - pos);
        const size_t colon = line.find(':');
        if (colon != std::string::npos) {
          size_t vstart = colon + 1;
          while (vstart < line.size() && line[vstart] == ' ') ++vstart;
          std::string name = ToLower(line.substr(0, colon));
          if (name == "content-type") {
            res.content_type = line.substr(vstart);
          } else {
            res.extra_headers.emplace_back(std::move(name), line.substr(vstart));
          }
        }
        pos = eol + 2;
      }
      res.body = raw.substr(head_end + 4);
      return res;
    }
    start = head_end + 4;  // 1xx: move past it to the real response.
  }
}

}  // namespace recon::service
