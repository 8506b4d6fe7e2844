#include "apps/http_conn.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "obs/profiler.h"

namespace dlinf {
namespace apps {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string ToLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
  return s.substr(begin, end - begin);
}

/// RFC 7230 token characters (header names, methods).
bool IsTokenChar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

bool IsToken(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsTokenChar(c)) return false;
  }
  return true;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Error";
  }
}

// A port the sockaddr_in cannot carry is an error, not something for the
// uint16_t cast to wrap onto another port.
bool PortInRange(int port, int min_port, std::string* error) {
  if (port >= min_port && port <= 65535) return true;
  if (error != nullptr) {
    *error = "port " + std::to_string(port) + " outside [" +
             std::to_string(min_port) + ", 65535]";
  }
  return false;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SendAllBlocking(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// --- HttpRequest ------------------------------------------------------------

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool HttpRequest::QueryParam(const std::string& key,
                             std::string* value) const {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        query.compare(pos, eq - pos, key) == 0) {
      *value = query.substr(eq + 1, end - eq - 1);
      return true;
    }
    pos = end + 1;
  }
  return false;
}

// --- HttpParser -------------------------------------------------------------

HttpParser::Status HttpParser::Fail(int status, const std::string& reason) {
  error_status_ = status;
  error_reason_ = reason;
  return Status::kError;
}

/// Finds the end of one line in `buffer_` starting at `from`: the position
/// of the terminating LF, accepting both CRLF and bare LF. npos when the
/// line is still incomplete.
static size_t FindLineEnd(const std::string& buffer, size_t from) {
  return buffer.find('\n', from);
}

/// The line's content (without CR/LF) given its LF position.
static std::string LineAt(const std::string& buffer, size_t from, size_t lf) {
  size_t end = lf;
  if (end > from && buffer[end - 1] == '\r') --end;
  return buffer.substr(from, end - from);
}

HttpParser::Status HttpParser::ParseHeaderBlock(size_t block_end,
                                                size_t consumed) {
  // `consumed` is the offset just past the blank line; [0, block_end) holds
  // the request line + headers (individual lines still terminated).
  pending_ = HttpRequest{};
  size_t pos = 0;

  // Request line.
  const size_t line_lf = FindLineEnd(buffer_, pos);
  const std::string request_line = LineAt(buffer_, pos, line_lf);
  if (request_line.size() > limits_.max_line_bytes) {
    return Fail(431, "request line too long");
  }
  pos = line_lf + 1;
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      request_line.find(' ', sp2 + 1) != std::string::npos) {
    return Fail(400, "malformed request line");
  }
  pending_.method = request_line.substr(0, sp1);
  pending_.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (!IsToken(pending_.method)) return Fail(400, "malformed method");
  if (pending_.method != "GET" && pending_.method != "HEAD" &&
      pending_.method != "POST") {
    return Fail(501, "method not implemented: " + pending_.method);
  }
  if (pending_.target.empty() || pending_.target[0] != '/') {
    return Fail(400, "malformed request target");
  }
  if (version == "HTTP/1.1") {
    pending_.minor_version = 1;
  } else if (version == "HTTP/1.0") {
    pending_.minor_version = 0;
  } else if (version.rfind("HTTP/", 0) == 0) {
    return Fail(505, "unsupported version: " + version);
  } else {
    return Fail(400, "malformed HTTP version");
  }
  const size_t qmark = pending_.target.find('?');
  pending_.path = pending_.target.substr(0, qmark);
  pending_.query =
      qmark == std::string::npos ? "" : pending_.target.substr(qmark + 1);

  // Header lines.
  while (pos < block_end) {
    const size_t lf = FindLineEnd(buffer_, pos);
    const std::string line = LineAt(buffer_, pos, lf);
    pos = lf + 1;
    if (line.empty()) break;  // The blank line (block_end bound is safe).
    if (line.size() > limits_.max_line_bytes) {
      return Fail(431, "header line too long");
    }
    if (pending_.headers.size() >= limits_.max_headers) {
      return Fail(431, "too many headers");
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) return Fail(400, "header without colon");
    const std::string name = ToLower(line.substr(0, colon));
    if (!IsToken(name)) return Fail(400, "malformed header name");
    pending_.headers.emplace_back(name, Trim(line.substr(colon + 1)));
  }

  // Connection semantics: 1.1 defaults to keep-alive, 1.0 to close.
  pending_.keep_alive = pending_.minor_version >= 1;
  if (const std::string* conn = pending_.FindHeader("connection")) {
    const std::string value = ToLower(*conn);
    if (value.find("close") != std::string::npos) {
      pending_.keep_alive = false;
    } else if (value.find("keep-alive") != std::string::npos) {
      pending_.keep_alive = true;
    }
  }

  // Body framing.
  const std::string* length = pending_.FindHeader("content-length");
  const std::string* encoding = pending_.FindHeader("transfer-encoding");
  if (length != nullptr && encoding != nullptr) {
    return Fail(400, "both content-length and transfer-encoding");
  }
  buffer_.erase(0, consumed);
  if (encoding != nullptr) {
    if (ToLower(*encoding) != "chunked") {
      return Fail(501, "unsupported transfer-encoding: " + *encoding);
    }
    phase_ = Phase::kChunkSize;
    trailer_lines_ = 0;
    return Status::kNeedMore;  // Caller re-enters Next().
  }
  if (length != nullptr) {
    if (length->empty() || length->size() > 12 ||
        length->find_first_not_of("0123456789") != std::string::npos) {
      return Fail(400, "malformed content-length");
    }
    const unsigned long long declared = std::stoull(*length);
    if (declared > limits_.max_body_bytes) {
      return Fail(413, "declared body too large");
    }
    body_remaining_ = static_cast<size_t>(declared);
    phase_ = Phase::kBody;
    return Status::kNeedMore;
  }
  phase_ = Phase::kHeaders;
  return Status::kRequest;
}

HttpParser::Status HttpParser::Next(HttpRequest* out) {
  if (error_status_ != 0) return Status::kError;
  for (;;) {
    switch (phase_) {
      case Phase::kHeaders: {
        // Scan for the blank line ending the header block; CRLF and LF are
        // both accepted as line terminators.
        size_t pos = 0;
        size_t block_end = std::string::npos;
        size_t consumed = 0;
        while (pos < buffer_.size()) {
          const size_t lf = FindLineEnd(buffer_, pos);
          if (lf == std::string::npos) break;
          if (LineAt(buffer_, pos, lf).empty()) {
            // Skip leading blank lines between pipelined requests (robust
            // clients send none; RFC 7230 tolerates them).
            if (pos == 0) {
              buffer_.erase(0, lf + 1);
              pos = 0;
              continue;
            }
            block_end = pos;
            consumed = lf + 1;
            break;
          }
          pos = lf + 1;
        }
        if (block_end == std::string::npos) {
          if (buffer_.size() > limits_.max_header_bytes) {
            return Fail(431, "header block too large");
          }
          // An incomplete first line may already be hopeless.
          const size_t first_lf = FindLineEnd(buffer_, 0);
          if (first_lf == std::string::npos &&
              buffer_.size() > limits_.max_line_bytes) {
            return Fail(431, "request line too long");
          }
          return Status::kNeedMore;
        }
        const Status status = ParseHeaderBlock(block_end, consumed);
        if (status == Status::kError) return status;
        if (status == Status::kRequest) {
          *out = std::move(pending_);
          pending_ = HttpRequest{};
          return Status::kRequest;
        }
        continue;  // Body phases read from the remaining buffer.
      }

      case Phase::kBody: {
        if (buffer_.size() < body_remaining_) return Status::kNeedMore;
        pending_.body.append(buffer_, 0, body_remaining_);
        buffer_.erase(0, body_remaining_);
        body_remaining_ = 0;
        phase_ = Phase::kHeaders;
        *out = std::move(pending_);
        pending_ = HttpRequest{};
        return Status::kRequest;
      }

      case Phase::kChunkSize: {
        const size_t lf = FindLineEnd(buffer_, 0);
        if (lf == std::string::npos) {
          if (buffer_.size() > limits_.max_line_bytes) {
            return Fail(400, "chunk size line too long");
          }
          return Status::kNeedMore;
        }
        std::string line = LineAt(buffer_, 0, lf);
        // Chunk extensions (";token=value") are tolerated but ignored.
        const size_t semi = line.find(';');
        if (semi != std::string::npos) line.resize(semi);
        line = Trim(line);
        if (line.empty() || line.size() > 8 ||
            line.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos) {
          return Fail(400, "malformed chunk size");
        }
        const unsigned long long size = std::stoull(line, nullptr, 16);
        if (pending_.body.size() + size > limits_.max_body_bytes) {
          return Fail(413, "chunked body too large");
        }
        buffer_.erase(0, lf + 1);
        if (size == 0) {
          phase_ = Phase::kTrailers;
        } else {
          body_remaining_ = static_cast<size_t>(size);
          phase_ = Phase::kChunkData;
        }
        continue;
      }

      case Phase::kChunkData: {
        if (buffer_.size() < body_remaining_) return Status::kNeedMore;
        pending_.body.append(buffer_, 0, body_remaining_);
        buffer_.erase(0, body_remaining_);
        body_remaining_ = 0;
        phase_ = Phase::kChunkEnd;
        continue;
      }

      case Phase::kChunkEnd: {
        // The CRLF that closes every chunk's data.
        const size_t lf = FindLineEnd(buffer_, 0);
        if (lf == std::string::npos) {
          if (buffer_.size() > 2) return Fail(400, "missing chunk terminator");
          return Status::kNeedMore;
        }
        if (!LineAt(buffer_, 0, lf).empty()) {
          return Fail(400, "garbage after chunk data");
        }
        buffer_.erase(0, lf + 1);
        phase_ = Phase::kChunkSize;
        continue;
      }

      case Phase::kTrailers: {
        const size_t lf = FindLineEnd(buffer_, 0);
        if (lf == std::string::npos) {
          if (buffer_.size() > limits_.max_line_bytes) {
            return Fail(431, "trailer line too long");
          }
          return Status::kNeedMore;
        }
        const std::string line = LineAt(buffer_, 0, lf);
        buffer_.erase(0, lf + 1);
        if (line.empty()) {
          phase_ = Phase::kHeaders;
          *out = std::move(pending_);
          pending_ = HttpRequest{};
          return Status::kRequest;
        }
        if (++trailer_lines_ > limits_.max_headers) {
          return Fail(431, "too many trailers");
        }
        if (line.find(':') == std::string::npos) {
          return Fail(400, "malformed trailer");
        }
        continue;
      }
    }
  }
}

// --- Response serialization -------------------------------------------------

std::string BuildHttpResponse(int status, std::string_view content_type,
                              std::string_view body, bool keep_alive,
                              bool head_only,
                              std::initializer_list<HttpHeader> extra_headers) {
  char code[16];
  char* code_end = std::to_chars(code, code + sizeof(code), status).ptr;
  char length[24];
  char* length_end =
      std::to_chars(length, length + sizeof(length), body.size()).ptr;
  const std::string_view reason = ReasonPhrase(status);
  // One allocation: the head's fixed text is under 96 bytes.
  size_t size = 96 + reason.size() + content_type.size() +
                (head_only ? 0 : body.size());
  for (const auto& [name, value] : extra_headers) {
    size += name.size() + value.size() + 4;
  }
  std::string out;
  out.reserve(size);
  out.append("HTTP/1.1 ").append(code, code_end).append(" ").append(reason);
  out.append("\r\nContent-Type: ").append(content_type);
  out.append("\r\nContent-Length: ").append(length, length_end);
  out.append("\r\n");
  if (!keep_alive) out.append("Connection: close\r\n");
  for (const auto& [name, value] : extra_headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  out.append("\r\n");
  if (!head_only) out.append(body);
  return out;
}

// --- HttpServer -------------------------------------------------------------

namespace {

/// The server whose event loop runs on this thread (nullptr elsewhere): a
/// response completed here is already on the loop thread.
thread_local const HttpServer* tls_loop_server = nullptr;

struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* parse_errors;
  obs::Counter* connections;
  obs::Counter* timeouts;
  obs::Gauge* open_connections;

  static const ServerMetrics& Get() {
    static const ServerMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return ServerMetrics{registry.GetCounter("service.http.requests"),
                           registry.GetCounter("service.http.parse_errors"),
                           registry.GetCounter("service.http.connections"),
                           registry.GetCounter("service.http.timeouts"),
                           registry.GetGauge("service.http.open_connections")};
    }();
    return metrics;
  }
};

}  // namespace

void HttpServer::ResponseHandle::Respond(int status,
                                         std::string_view content_type,
                                         std::string_view body) const {
  RespondWithHeaders(status, content_type, body, {});
}

void HttpServer::ResponseHandle::RespondWithHeaders(
    int status, std::string_view content_type, std::string_view body,
    std::initializer_list<HttpHeader> extra_headers) const {
  if (server_ == nullptr) return;
  server_->Complete(conn_id_, seq_,
                    BuildHttpResponse(status, content_type, body, keep_alive_,
                                      head_only_, extra_headers));
}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::Start(const Options& options, Handler handler,
                       std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "http server already running";
    return false;
  }
  if (!PortInRange(options.port, 0, error)) return false;
  options_ = options;
  handler_ = std::move(handler);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0 || !SetNonBlocking(fd)) {
    if (error != nullptr) *error = std::string("bind: ") + strerror(errno);
    ::close(fd);
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + strerror(errno);
    }
    ::close(fd);
    return false;
  }

  const int epoll_fd = ::epoll_create1(0);
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd < 0 || wake_fd < 0) {
    if (error != nullptr) {
      *error = std::string("epoll/eventfd: ") + strerror(errno);
    }
    ::close(fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // 0 == listen fd, 1 == wake fd, >=2 == conn id.
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  ev.data.u64 = 1;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev);

  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  epoll_fd_ = epoll_fd;
  wake_fd_ = wake_fd;
  next_conn_id_ = 2;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpServer::Loop, this);
  return true;
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  ServerMetrics::Get().open_connections->Set(0);
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.clear();
  }
}

void HttpServer::Complete(uint64_t conn_id, uint64_t seq, std::string bytes) {
  if (tls_loop_server == this) {
    // An inline answer: fill the slot in place. The dispatch that ran the
    // handler flushes its own connection once, after the whole read.
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // Connection died; drop the bytes.
    FillPending(it->second.get(), seq, std::move(bytes));
    if (conn_id != dispatching_conn_) FlushConn(it->second.get());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back({conn_id, seq, std::move(bytes)});
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void HttpServer::Loop() {
  if (!options_.thread_name.empty()) {
    obs::prof::RegisterCurrentThread(options_.thread_name);
  }
  tls_loop_server = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  double last_sweep = NowSeconds();
  while (running()) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        AcceptNew();
      } else if (tag == 1) {
        // One read returns (and resets) the whole eventfd counter.
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        woken = true;
      } else {
        auto it = conns_.find(tag);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConn(tag);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
        // HandleReadable may have closed the connection.
        auto again = conns_.find(tag);
        if (again != conns_.end() &&
            (events[i].events & EPOLLOUT) != 0) {
          FlushConn(again->second.get());
        }
      }
    }
    // Other threads' completions are posted before the eventfd write that
    // wakes us, so nothing is pending unless the wake fd fired.
    if (woken) DrainCompletions();
    const double now = NowSeconds();
    if (now - last_sweep > 0.2) {
      SweepIdle(now);
      last_sweep = now;
    }
  }
}

void HttpServer::AcceptNew() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try next wakeup.
    }
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Over capacity: a best-effort 503 and close — never a silent drop.
      const std::string reply = BuildHttpResponse(
          503, "text/plain", "server at connection capacity\n",
          /*keep_alive=*/false);
      SendAllBlocking(client, reply.data(), reply.size());
      ::close(client);
      continue;
    }
    if (!SetNonBlocking(client)) {
      ::close(client);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof(nodelay));
    auto conn = std::make_unique<Conn>();
    conn->fd = client;
    conn->id = next_conn_id_++;
    conn->parser = HttpParser(options_.limits);
    conn->last_progress_s = NowSeconds();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client, &ev) != 0) {
      ::close(client);
      continue;
    }
    ServerMetrics::Get().connections->Add(1);
    conns_[conn->id] = std::move(conn);
    ServerMetrics::Get().open_connections->Set(
        static_cast<double>(conns_.size()));
  }
}

void HttpServer::HandleReadable(Conn* conn) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->last_progress_s = NowSeconds();
      conn->parser.Feed(buffer, static_cast<size_t>(n));
      // A short read took everything the socket held; level-triggered epoll
      // reports whatever arrives next, so no EAGAIN probe is needed.
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed (or hard error): flush what is pending, then close. With
    // requests still in flight the pending queue keeps the conn alive until
    // they complete; answered bytes will fail to send and close it then.
    if (conn->pending.empty() && conn->out.size() == conn->out_offset) {
      CloseConn(conn->id);
      return;
    }
    conn->close_after_flush = true;
    break;
  }
  DispatchRequests(conn);
}

void HttpServer::DispatchRequests(Conn* conn) {
  // Every request this read completed is dispatched first; inline answers
  // fill their slots without flushing, and one flush below sends them all.
  // Nothing here can close `conn` before that flush.
  dispatching_conn_ = conn->id;
  int64_t dispatched = 0;
  HttpRequest request;
  for (;;) {
    const HttpParser::Status status = conn->parser.Next(&request);
    if (status == HttpParser::Status::kNeedMore) break;
    if (status == HttpParser::Status::kError) {
      ServerMetrics::Get().parse_errors->Add(1);
      // A typed reject, pipelined behind any in-flight responses; nothing
      // after a framing error can be trusted, so the connection closes.
      const uint64_t seq = conn->next_seq++;
      conn->pending.push_back(
          {seq, true,
           BuildHttpResponse(conn->parser.error_status(), "text/plain",
                             conn->parser.error_reason() + "\n",
                             /*keep_alive=*/false)});
      conn->close_after_flush = true;
      break;
    }
    ++dispatched;
    const uint64_t seq = conn->next_seq++;
    conn->pending.push_back({seq, false, {}});
    if (!request.keep_alive) conn->close_after_flush = true;
    handler_(request,
             ResponseHandle(this, conn->id, seq, request.keep_alive,
                            request.method == "HEAD"));
    if (conn->close_after_flush) break;  // Ignore pipelined leftovers.
  }
  dispatching_conn_ = 0;
  if (dispatched > 0) ServerMetrics::Get().requests->Add(dispatched);
  FlushConn(conn);
}

void HttpServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // Connection died; drop the bytes.
    Conn* conn = it->second.get();
    FillPending(conn, completion.seq, std::move(completion.bytes));
    conn->last_progress_s = NowSeconds();
    FlushConn(conn);
  }
}

void HttpServer::FillPending(Conn* conn, uint64_t seq, std::string bytes) {
  // Slots hold consecutive sequence numbers from the front's.
  if (conn->pending.empty() || seq < conn->pending.front().seq) return;
  const uint64_t index = seq - conn->pending.front().seq;
  if (index >= conn->pending.size()) return;
  Pending& pending = conn->pending[index];
  pending.ready = true;
  pending.bytes = std::move(bytes);
}

void HttpServer::FlushConn(Conn* conn) {
  // Move every leading ready response into the out buffer (strict request
  // order: a later response never overtakes an earlier in-flight one).
  while (!conn->pending.empty() && conn->pending.front().ready) {
    conn->out += conn->pending.front().bytes;
    conn->pending.pop_front();
  }
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      conn->last_progress_s = NowSeconds();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateEpollOut(conn);
      }
      return;
    }
    CloseConn(conn->id);
    return;
  }
  conn->out.clear();
  conn->out_offset = 0;
  if (conn->want_write) {
    conn->want_write = false;
    UpdateEpollOut(conn);
  }
  if (conn->close_after_flush && conn->pending.empty()) {
    CloseConn(conn->id);
  }
}

void HttpServer::UpdateEpollOut(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void HttpServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  ServerMetrics::Get().open_connections->Set(
      static_cast<double>(conns_.size()));
}

void HttpServer::SweepIdle(double now_s) {
  std::vector<uint64_t> stale;
  for (const auto& [id, conn] : conns_) {
    const bool waiting_on_handler =
        !conn->pending.empty() && !conn->pending.front().ready &&
        conn->parser.buffered_bytes() == 0;
    if (waiting_on_handler) continue;  // Handler latency is not client abuse.
    if (now_s - conn->last_progress_s > options_.idle_timeout_s) {
      stale.push_back(id);
    }
  }
  for (const uint64_t id : stale) {
    Conn* conn = conns_[id].get();
    // A half-sent request gets a typed 408 farewell; a quietly idle
    // keep-alive connection is just closed.
    if (conn->parser.buffered_bytes() > 0) {
      const std::string reply = BuildHttpResponse(
          408, "text/plain", "request timeout\n", /*keep_alive=*/false);
      SendAllBlocking(conn->fd, reply.data(), reply.size());
      ServerMetrics::Get().timeouts->Add(1);
    }
    CloseConn(id);
  }
}

// --- HttpClient -------------------------------------------------------------

bool HttpClient::Connect(int port, std::string* error) {
  Close();
  if (!PortInRange(port, 1, error)) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) *error = std::string("connect: ") + strerror(errno);
    ::close(fd);
    return false;
  }
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  timeval timeout{};
  timeout.tv_sec = 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  fd_ = fd;
  buffer_.clear();
  return true;
}

bool HttpClient::SendRaw(const std::string& bytes) {
  return fd_ >= 0 && SendAllBlocking(fd_, bytes.data(), bytes.size());
}

bool HttpClient::SendGet(const std::string& target) {
  return SendRaw("GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

bool HttpClient::SendPost(const std::string& target,
                          const std::string& body) {
  return SendRaw("POST " + target +
                 " HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
                 "application/json\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body);
}

bool HttpClient::ReadResponse(int* status, std::string* body,
                              std::string* error) {
  return ReadResponse(status, nullptr, body, error);
}

bool HttpClient::ReadResponse(
    int* status, std::vector<std::pair<std::string, std::string>>* headers,
    std::string* body, std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (fd_ < 0) return fail("not connected");

  // Accumulate until the header block is complete.
  size_t header_end;
  for (;;) {
    header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("connection closed before response headers");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  const std::string head = buffer_.substr(0, header_end);
  if (head.compare(0, 5, "HTTP/") != 0) return fail("malformed status line");
  const size_t space = head.find(' ');
  if (space == std::string::npos || space + 4 > head.size()) {
    return fail("malformed status line");
  }
  const int parsed_status = std::atoi(head.c_str() + space + 1);

  if (headers != nullptr) {
    headers->clear();
    size_t line_begin = head.find("\r\n");
    while (line_begin != std::string::npos && line_begin + 2 < head.size()) {
      line_begin += 2;
      size_t line_end = head.find("\r\n", line_begin);
      if (line_end == std::string::npos) line_end = head.size();
      const std::string line = head.substr(line_begin, line_end - line_begin);
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string value = line.substr(colon + 1);
        const size_t first = value.find_first_not_of(" \t");
        const size_t last = value.find_last_not_of(" \t");
        value = first == std::string::npos
                    ? ""
                    : value.substr(first, last - first + 1);
        headers->emplace_back(ToLower(line.substr(0, colon)),
                              std::move(value));
      }
      line_begin = line_end == head.size() ? std::string::npos : line_end;
    }
  }

  // Content-Length (every response from our servers carries one).
  size_t content_length = 0;
  {
    const std::string lowered = ToLower(head);
    const size_t pos = lowered.find("content-length:");
    if (pos == std::string::npos) return fail("response without length");
    content_length = static_cast<size_t>(
        std::atoll(head.c_str() + pos + std::strlen("content-length:")));
  }
  const size_t body_begin = header_end + 4;
  while (buffer_.size() < body_begin + content_length) {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return fail("connection closed mid-body");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  if (status != nullptr) *status = parsed_status;
  if (body != nullptr) *body = buffer_.substr(body_begin, content_length);
  buffer_.erase(0, body_begin + content_length);
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool HttpGetOnce(int port, const std::string& path, int* status,
                 std::string* body) {
  HttpClient client;
  if (!client.Connect(port)) return false;
  if (!client.SendRaw("GET " + path +
                      " HTTP/1.1\r\nHost: localhost\r\nConnection: "
                      "close\r\n\r\n")) {
    return false;
  }
  return client.ReadResponse(status, body);
}

}  // namespace apps
}  // namespace dlinf
