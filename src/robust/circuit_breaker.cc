#include "src/robust/circuit_breaker.h"

namespace fairem {

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  if (options_.failure_threshold < 1) options_.failure_threshold = 1;
  if (options_.open_cooldown_s < 0.0) options_.open_cooldown_s = 0.0;
  if (options_.half_open_max_probes < 1) options_.half_open_max_probes = 1;
}

CircuitBreaker::State CircuitBreaker::state(double now_s) {
  if (state_ == State::kOpen &&
      now_s - opened_at_s_ >= options_.open_cooldown_s) {
    state_ = State::kHalfOpen;
    half_open_inflight_ = 0;
  }
  return state_;
}

bool CircuitBreaker::AllowRequest(double now_s) {
  switch (state(now_s)) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (half_open_inflight_ >= options_.half_open_max_probes) return false;
      ++half_open_inflight_;
      return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess(double now_s) {
  (void)state(now_s);
  consecutive_failures_ = 0;
  half_open_inflight_ = 0;
  // A success in kHalfOpen proves recovery; a success while kOpen (a
  // request admitted just before the trip settled late) is evidence too.
  state_ = State::kClosed;
}

void CircuitBreaker::RecordFailure(double now_s) {
  State current = state(now_s);
  ++consecutive_failures_;
  if (current == State::kHalfOpen) {
    // The trial request failed: the dependency is still down.
    Open(now_s);
    return;
  }
  if (current == State::kClosed &&
      consecutive_failures_ >= options_.failure_threshold) {
    Open(now_s);
  }
  // Already kOpen: just extend the streak; the cooldown clock is NOT
  // reset, or a trickle of late failures could pin the breaker open
  // forever with no probe ever allowed.
}

void CircuitBreaker::Open(double now_s) {
  state_ = State::kOpen;
  opened_at_s_ = now_s;
  half_open_inflight_ = 0;
  ++times_opened_;
}

}  // namespace fairem
