#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>

#include "harness.h"

namespace e2e {

struct OpenLoopClient::Conn {
  int port = 0;
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  size_t parse_pos = 0;
  std::deque<size_t> inflight;  ///< Request indexes awaiting a response.
  bool broken = false;
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Content-Length of a response header block [begin, end); -1 if absent.
long ContentLength(const std::string& in, size_t begin, size_t end) {
  for (const char* key : {"Content-Length:", "content-length:"}) {
    const size_t at = in.find(key, begin);
    if (at != std::string::npos && at < end) {
      return std::strtol(in.c_str() + at + std::strlen(key), nullptr, 10);
    }
  }
  return -1;
}

/// Nearest-rank quantile (sorts `values`), so a failure (+inf) inside the
/// tail shows as +inf instead of being interpolated away.
double NearestRank(std::vector<double>* values, double q) {
  std::sort(values->begin(), values->end());
  const size_t at =
      static_cast<size_t>(std::ceil(q * static_cast<double>(values->size())));
  return (*values)[std::min(values->size() - 1, at > 0 ? at - 1 : 0)];
}

}  // namespace

LatencySummary Summarize(const std::vector<Outcome>& outcomes,
                         const std::vector<Request>& requests, int tag,
                         double from, double to, int windows) {
  LatencySummary summary;
  windows = std::max(1, windows);
  const double width = (to - from) / windows;
  std::vector<std::vector<double>> latency(static_cast<size_t>(windows));
  std::vector<std::vector<double>> lag(static_cast<size_t>(windows));
  bool any = false;
  double first_due = kInf;
  double last_done = -kInf;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (tag >= 0 && requests[i].tag != tag) continue;
    if (o.sent < 0.0 || o.due < from || o.due >= to) continue;
    const size_t w = std::min(static_cast<size_t>(windows - 1),
                              static_cast<size_t>((o.due - from) / width));
    ++summary.sent;
    lag[w].push_back(o.lag());
    first_due = std::min(first_due, o.due);
    double value = kInf;  // A failure misses any limit.
    if (o.answered() && o.status == 200 && !o.shed) {
      ++summary.ok;
      value = o.latency();
      last_done = std::max(last_done, o.done);
    } else {
      ++summary.failed;
    }
    latency[w].push_back(value);
    any = true;
  }
  if (!any) return summary;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> lag_p99s;
  for (size_t w = 0; w < latency.size(); ++w) {
    if (latency[w].empty()) continue;
    p50s.push_back(NearestRank(&latency[w], 0.5));
    p99s.push_back(NearestRank(&latency[w], 0.99));
    lag_p99s.push_back(NearestRank(&lag[w], 0.99));
  }
  // Medians of the slices' quantiles; a +inf slice sorts last.
  summary.p50_s = NearestRank(&p50s, 0.5);
  summary.p99_s = NearestRank(&p99s, 0.5);
  summary.lag_p99_s = NearestRank(&lag_p99s, 0.5);
  if (summary.ok > 0 && last_done > first_due) {
    summary.achieved_rps =
        static_cast<double>(summary.ok) / (last_done - first_due);
  }
  return summary;
}

double ReportedMs(double latency_s) {
  return std::min(latency_s, kFailureWaitS) * 1e3;
}

int WindowsFor(double expected) {
  return static_cast<int>(std::clamp(expected / 1000.0, 1.0, 100.0));
}

Verdict JudgeStep(const LatencySummary& step, const LatencySummary& last_fifth,
                  double limit_s) {
  if (step.sent == 0 || step.failed * 100 > step.sent ||
      last_fifth.p50_s > limit_s) {
    return Verdict::kOverload;
  }
  if (step.p99_s > limit_s || step.lag_p99_s > limit_s) return Verdict::kMiss;
  return Verdict::kPass;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kMiss: return "miss";
    case Verdict::kOverload: return "overload";
  }
  return "?";
}

OpenLoopClient::OpenLoopClient() = default;

OpenLoopClient::~OpenLoopClient() { Close(); }

void OpenLoopClient::Close() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns_.clear();
}

bool OpenLoopClient::Connect(const std::vector<int>& ports,
                             std::string* error) {
  Close();
  for (const int port : ports) {
    conns_.push_back(std::make_unique<Conn>());
    conns_.back()->port = port;
    if (!Reconnect(conns_.back().get(), error)) return false;
  }
  return true;
}

bool OpenLoopClient::Reconnect(Conn* conn, std::string* error) {
  if (conn->fd >= 0) ::close(conn->fd);
  const int port = conn->port;
  *conn = Conn();
  conn->port = port;
  conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(conn->port));
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(conn->fd);
    conn->fd = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  return true;
}

void OpenLoopClient::Run(const std::vector<Request>& requests, double start,
                         std::vector<Outcome>* outcomes,
                         const std::atomic<bool>* stop, double drain_s,
                         const std::string& shed_marker) {
  outcomes->assign(requests.size(), Outcome());
  for (size_t i = 0; i < requests.size(); ++i) {
    (*outcomes)[i].due = start + requests[i].due;
  }

  auto flush = [](Conn* conn) {
    while (!conn->broken && conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_offset,
                 conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        conn->broken = true;
      }
    }
    if (conn->out_offset == conn->out.size()) {
      conn->out.clear();
      conn->out_offset = 0;
    }
  };

  Tracer& tracer = Tracer::Get();
  auto parse = [&](Conn* conn, double now) {
    for (;;) {
      const size_t header_end = conn->in.find("\r\n\r\n", conn->parse_pos);
      if (header_end == std::string::npos) break;
      const long length = ContentLength(conn->in, conn->parse_pos, header_end);
      const size_t body_begin = header_end + 4;
      const size_t body_size = length > 0 ? static_cast<size_t>(length) : 0;
      if (conn->in.size() < body_begin + body_size) break;
      if (!conn->inflight.empty()) {
        Outcome& o = (*outcomes)[conn->inflight.front()];
        const Request& r = requests[conn->inflight.front()];
        conn->inflight.pop_front();
        o.done = now;
        o.status = std::atoi(conn->in.c_str() + conn->parse_pos + 9);
        if (!shed_marker.empty()) {
          const size_t at = conn->in.find(shed_marker, body_begin);
          o.shed = at != std::string::npos && at < body_begin + body_size;
        }
        if (r.keep_body) o.body = conn->in.substr(body_begin, body_size);
        tracer.AddComplete("request", "client", o.due, now);
      }
      conn->parse_pos = body_begin + body_size;
    }
    if (conn->parse_pos == conn->in.size()) {
      conn->in.clear();
      conn->parse_pos = 0;
    } else if (conn->parse_pos > (1u << 16)) {
      conn->in.erase(0, conn->parse_pos);
      conn->parse_pos = 0;
    }
  };

  std::vector<pollfd> fds(conns_.size());
  size_t next = 0;
  size_t inflight = 0;
  double last_send = start;
  char buffer[1 << 16];
  for (;;) {
    double now = Now();
    const bool stopping =
        stop != nullptr && stop->load(std::memory_order_acquire);
    // Issue everything that is due.
    while (!stopping && next < requests.size() &&
           (*outcomes)[next].due <= now) {
      const Request& r = requests[next];
      Conn* conn = conns_[static_cast<size_t>(r.conn)].get();
      conn->out += r.bytes;
      conn->inflight.push_back(next);
      (*outcomes)[next].sent = now;
      last_send = now;
      ++inflight;
      ++next;
    }
    for (auto& conn : conns_) flush(conn.get());

    const bool issuing = !stopping && next < requests.size();
    if (!issuing && inflight == 0) break;
    if (!issuing && now > last_send + drain_s) break;

    double wait_s = issuing ? (*outcomes)[next].due - now : 0.005;
    wait_s = std::clamp(wait_s, 0.0, 0.005);
    if (wait_s < 50e-6) wait_s = 0.0;  // Spin when the next send is close.
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i]->broken ? -1 : conns_[i]->fd;
      fds[i].events = POLLIN;
      if (conns_[i]->out_offset < conns_[i]->out.size()) {
        fds[i].events |= POLLOUT;
      }
      fds[i].revents = 0;
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    now = Now();
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* conn = conns_[i].get();
      if (fds[i].revents & (POLLERR | POLLHUP)) conn->broken = true;
      if (fds[i].revents & POLLIN) {
        for (;;) {
          const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
          if (n > 0) {
            conn->in.append(buffer, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
            conn->broken = true;
          }
          break;
        }
        const size_t before = conn->inflight.size();
        parse(conn, now);
        inflight -= before - conn->inflight.size();
      }
      if (conn->broken && !conn->inflight.empty()) {
        // Transport failure: everything outstanding on it is lost.
        inflight -= conn->inflight.size();
        conn->inflight.clear();
      }
    }
  }
  // A connection that still owes responses (or broke) would hand them to
  // the next schedule; replace it.
  for (auto& conn : conns_) {
    if (conn->broken || !conn->inflight.empty() ||
        conn->out_offset < conn->out.size()) {
      std::string error;
      Reconnect(conn.get(), &error);
    }
  }
}

}  // namespace e2e
