#ifndef FAIREM_ROBUST_CIRCUIT_BREAKER_H_
#define FAIREM_ROBUST_CIRCUIT_BREAKER_H_

#include <cstdint>

namespace fairem {

// Per-dependency circuit breaker (DESIGN.md §15): wraps an unreliable
// downstream (a serve backend, a remote store) so repeated failures stop
// costing latency and load. Classic three-state machine:
//
//   kClosed    normal operation; `failure_threshold` *consecutive*
//              failures trip it open (a single success resets the streak).
//   kOpen      requests are refused locally for `open_cooldown_s`; the
//              dependency gets room to recover instead of a retry storm.
//   kHalfOpen  after the cooldown, up to `half_open_max_probes` trial
//              requests may pass. One success closes the breaker; one
//              failure re-opens it (and restarts the cooldown).
//
// Time is injected as a monotonic `now_s` on every call, so the machine is
// deterministic under test and the caller (a single-threaded poll loop)
// pays no clock syscalls it was not already making. Not thread-safe by
// design — each event loop owns its breakers.

struct CircuitBreakerOptions {
  /// Consecutive failures that trip kClosed -> kOpen. Minimum 1.
  int failure_threshold = 3;
  /// Seconds spent refusing in kOpen before probing again.
  double open_cooldown_s = 1.0;
  /// Trial requests allowed through while kHalfOpen (in flight at once).
  int half_open_max_probes = 1;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  explicit CircuitBreaker(const CircuitBreakerOptions& options = {});

  /// Current state, advancing kOpen -> kHalfOpen when the cooldown has
  /// elapsed by `now_s`.
  State state(double now_s);

  /// Whether a request may be sent now. kClosed: always. kOpen: never.
  /// kHalfOpen: while fewer than `half_open_max_probes` trials are out
  /// (each true return claims a probe slot until the next Record*).
  bool AllowRequest(double now_s);

  /// A request completed successfully: resets the failure streak; a
  /// half-open trial success closes the breaker.
  void RecordSuccess(double now_s);

  /// A request failed (transport error, timeout, or an overload shed):
  /// extends the streak, trips the breaker at the threshold, and re-opens
  /// immediately from kHalfOpen.
  void RecordFailure(double now_s);

  int consecutive_failures() const { return consecutive_failures_; }
  /// Lifetime count of kClosed/kHalfOpen -> kOpen transitions.
  uint64_t times_opened() const { return times_opened_; }

 private:
  void Open(double now_s);

  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_inflight_ = 0;
  double opened_at_s_ = 0.0;
  uint64_t times_opened_ = 0;
};

}  // namespace fairem

#endif  // FAIREM_ROBUST_CIRCUIT_BREAKER_H_
