#ifndef DLINF_E2EBENCH_LOADGEN_H_
#define DLINF_E2EBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file
/// Open-loop HTTP/1.1 load generator: one thread drives a few keep-alive
/// loopback connections with non-blocking sockets and ppoll. Every request
/// has a scheduled send time; the generator writes each request when it is
/// due whether or not earlier ones were answered (pipelining on its
/// connection), so a stalled server builds a queue instead of slowing the
/// offered load. Latency is timed from the scheduled send, which charges
/// a stall to every request it delays, and the generator's own lateness
/// (actual write minus scheduled send) is recorded beside it.

namespace e2e {

/// One request of a schedule.
struct Request {
  double due = 0.0;   ///< Seconds after the schedule's start.
  int conn = 0;       ///< Connection index.
  std::string bytes;  ///< Complete HTTP request.
  bool keep_body = false;  ///< Keep the response body (correctness checks).
  int tag = 0;        ///< Caller's request kind.
};

/// What happened to one request.
struct Outcome {
  double due = 0.0;     ///< Absolute scheduled send time.
  double sent = -1.0;   ///< Absolute write time; -1 when never sent.
  double done = -1.0;   ///< Absolute time the full response was read.
  int status = 0;       ///< HTTP status; 0 on transport failure.
  bool shed = false;    ///< Body carried the shed marker.
  std::string body;     ///< Only when Request::keep_body.

  bool answered() const { return done >= 0.0 && status != 0; }
  double latency() const { return done - due; }
  double lag() const { return sent - due; }
};

/// Latency summary of a set of outcomes.
struct LatencySummary {
  int64_t sent = 0;       ///< Requests scheduled and written.
  int64_t ok = 0;         ///< 200 and not shed.
  int64_t failed = 0;     ///< Non-200, shed, transport error or lost.
  /// Latency quantiles (failures count as +inf): medians, over `windows`
  /// equal slices of the interval, of each slice's own quantile.
  double p50_s = 0.0;
  double p99_s = 0.0;
  double lag_p99_s = 0.0;  ///< Generator lateness, p99 taken the same way.
  double achieved_rps = 0.0;  ///< ok / (last done - first due).
};

/// Summarizes outcomes with `tag` (or every outcome when tag < 0) whose
/// due time lies in [from, to). With `windows` > 1 the p99s are medians of
/// per-slice p99s: a host stall of a few milliseconds (a preempted virtual
/// CPU) then moves one slice, not the whole run's tail.
LatencySummary Summarize(const std::vector<Outcome>& outcomes,
                         const std::vector<Request>& requests, int tag,
                         double from, double to, int windows = 1);

/// Milliseconds of a latency from a LatencySummary for reporting. A failure
/// counts as +inf inside the summary (it misses any limit); reported, it is
/// charged the full wait a client gives up after, kFailureWaitS.
inline constexpr double kFailureWaitS = 5.0;
double ReportedMs(double latency_s);

/// Outcome of one ladder step.
enum class Verdict {
  kPass,      ///< p99 and the generator's p99 lateness within the limit.
  kMiss,      ///< A p99 over the limit, but no growing backlog.
  kOverload,  ///< Over 1% failed, or the last fifth's median missed the
              ///< limit: the backlog grew. Higher rates are not tried.
};

Verdict JudgeStep(const LatencySummary& step, const LatencySummary& last_fifth,
                  double limit_s);
const char* VerdictName(Verdict verdict);

/// Slices for Summarize so each holds about 1000 of `expected` samples
/// (at least ten beyond its p99), at most 100.
int WindowsFor(double expected);

class OpenLoopClient {
 public:
  OpenLoopClient();
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Opens one connection per entry of `ports` (connection i goes to
  /// ports[i]). False with a reason on failure.
  bool Connect(const std::vector<int>& ports, std::string* error);

  /// Sends `requests` (sorted by due) on the schedule starting at absolute
  /// time `start`, reads every response, and fills `outcomes` (one per
  /// request). Stops issuing once `stop` is set (unsent requests keep
  /// sent == -1); waits at most `drain_s` after the last send for
  /// outstanding responses. `shed_marker`, when nonempty, marks responses
  /// whose body contains it as shed.
  void Run(const std::vector<Request>& requests, double start,
           std::vector<Outcome>* outcomes,
           const std::atomic<bool>* stop = nullptr,
           double drain_s = kFailureWaitS,
           const std::string& shed_marker = "");

  void Close();

 private:
  struct Conn;
  bool Reconnect(Conn* conn, std::string* error);
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace e2e

#endif  // DLINF_E2EBENCH_LOADGEN_H_
