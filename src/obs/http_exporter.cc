#include "obs/http_exporter.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <utility>

#include "obs/build_info.h"

namespace emjoin::obs {

namespace {

// One scrape request/response cycle must finish within this many poll
// rounds of kPollMs each; a stalled client is dropped, never waited on.
constexpr int kPollMs = 100;
constexpr int kMaxRequestRounds = 20;

// Largest accepted POST body. Query specs are a few hundred bytes;
// anything near this bound is a client bug, answered with 413.
constexpr std::size_t kMaxBodyBytes = std::size_t{1} << 20;

std::string FormatResponse(const std::string& status,
                           const std::string& content_type,
                           const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

// Content-Length from a raw header block, 0 when absent (GET requests
// and body-less POSTs). Header names are case-insensitive.
std::size_t ContentLengthOf(const std::string& headers) {
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t eol = headers.find('\n', pos);
    if (eol == std::string::npos) eol = headers.size();
    std::string line = headers.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name != "content-length") continue;
    std::size_t value = 0;
    bool any = false;
    for (std::size_t i = colon + 1; i < line.size(); ++i) {
      const char c = line[i];
      if (c == ' ' || c == '\t' || c == '\r') continue;
      if (c < '0' || c > '9') break;
      value = value * 10 + static_cast<std::size_t>(c - '0');
      any = true;
    }
    if (any) return value;
  }
  return 0;
}

}  // namespace

HttpExporter::HttpExporter(Telemetry* telemetry) : telemetry_(telemetry) {}

HttpExporter::~HttpExporter() { Stop(); }

extmem::Status HttpExporter::Start(std::uint16_t port) {
  if (running()) {
    return extmem::Status(extmem::StatusCode::kInternal,
                          "http exporter already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return extmem::Status(extmem::StatusCode::kIoError,
                          "http exporter: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return extmem::Status(
        extmem::StatusCode::kIoError,
        "http exporter: cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return extmem::Status(extmem::StatusCode::kIoError,
                          "http exporter: pipe() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  start_time_ = std::chrono::steady_clock::now();
  started_ = true;
  stop_.store(false, std::memory_order_release);
  pool_ = std::make_unique<parallel::WorkerPool>(1);
  pool_->Submit([this] { Serve(); });
  return extmem::Status::Ok();
}

void HttpExporter::Stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  // Wake the serve loop out of its poll() so Stop returns at once rather
  // than at the end of a kPollMs round: a server restarted per handful
  // of queries would otherwise spend most of its time stopping.
  const char byte = 0;
  const ssize_t woke = ::write(wake_fds_[1], &byte, 1);
  static_cast<void>(woke);
  pool_.reset();  // drains the serve task, joins the worker
  for (int* fd : {&listen_fd_, &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void HttpExporter::PublishMetrics(std::string text) {
  const std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_text_ = std::move(text);
}

std::uint64_t HttpExporter::UptimeMs() const {
  if (!started_) return 0;
  const auto elapsed = std::chrono::steady_clock::now() - start_time_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
}

void HttpExporter::Serve() {
  while (!stop_.load(std::memory_order_acquire)) {
    // The wake pipe turns readable only when Stop() asks the loop to end.
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(pfds, 2, kPollMs);
    if (ready <= 0 || (pfds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void HttpExporter::HandleConnection(int fd) {
  // Read until the header block terminates, then (for POSTs) until the
  // Content-Length-framed body is complete. Scrapers send the whole
  // request in one segment, so a couple of rounds suffice.
  std::string raw;
  std::size_t header_end = std::string::npos;
  std::size_t body_needed = 0;
  for (int round = 0; round < kMaxRequestRounds; ++round) {
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        body_needed = ContentLengthOf(raw.substr(0, header_end));
      }
    }
    if (header_end != std::string::npos) {
      if (body_needed > kMaxBodyBytes) {
        const std::string response = FormatResponse(
            "413 Payload Too Large", "text/plain", "body too large\n");
        (void)::send(fd, response.data(), response.size(), 0);
        return;
      }
      if (raw.size() >= header_end + 4 + body_needed) break;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, kPollMs) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  // A bare request line with no header terminator (a client that shut
  // down its write side early) is still served as a body-less request.
  const std::size_t eol = raw.find('\n');
  if (eol == std::string::npos) return;
  std::string line = raw.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();

  HttpRequest request;
  const std::size_t method_end = line.find(' ');
  if (method_end != std::string::npos) {
    request.method = line.substr(0, method_end);
    const std::size_t path_end = line.find(' ', method_end + 1);
    request.path =
        line.substr(method_end + 1, path_end == std::string::npos
                                        ? std::string::npos
                                        : path_end - method_end - 1);
  }
  if (header_end != std::string::npos && body_needed > 0 &&
      raw.size() >= header_end + 4) {
    request.body = raw.substr(header_end + 4, body_needed);
  }

  const std::string response = ResponseFor(request);
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n =
        ::send(fd, response.data() + sent, response.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

std::string HttpExporter::ResponseFor(const HttpRequest& request) {
  if (request.method.empty() || request.path.empty()) {
    return FormatResponse("400 Bad Request", "text/plain", "bad request\n");
  }
  if (handler_) {
    HttpReply reply;
    if (handler_(request, &reply)) {
      return FormatResponse(reply.status, reply.content_type, reply.body);
    }
  }
  // Built-in single-query routes, GET only.
  if (request.method != "GET") {
    return FormatResponse("400 Bad Request", "text/plain", "bad request\n");
  }
  const std::string& path = request.path;
  if (path == "/healthz") {
    return FormatResponse("200 OK", "application/json", HealthzJson());
  }
  if (path == "/metrics") {
    std::string body;
    {
      const std::lock_guard<std::mutex> lock(metrics_mu_);
      body = metrics_text_;
    }
    return FormatResponse("200 OK", "text/plain; version=0.0.4", body);
  }
  if (path == "/progress") {
    return FormatResponse("200 OK", "application/json",
                          telemetry_->tracker().Snapshot().ToJson());
  }
  if (path == "/events") {
    return FormatResponse("200 OK", "application/x-ndjson",
                          telemetry_->recorder().ToJsonl());
  }
  return FormatResponse("404 Not Found", "text/plain", "not found\n");
}

std::string HttpExporter::HealthzJson() const {
  // Single-query view: the attached Telemetry is the one live query
  // until its tracker completes. serve::Server overrides this route
  // with daemon-wide counts through its HttpHandler.
  const bool complete = telemetry_->tracker().complete();
  std::string out = "{\"status\": \"ok\", \"version\": \"";
  out += kBuildVersion;
  out += "\", \"uptime_ms\": " + std::to_string(UptimeMs());
  out += ", \"io_clock\": " + std::to_string(telemetry_->tracker().Clock());
  out += ", \"queries_live\": " + std::string(complete ? "0" : "1");
  out += ", \"queries_completed\": " + std::string(complete ? "1" : "0");
  out += "}\n";
  return out;
}

}  // namespace emjoin::obs
