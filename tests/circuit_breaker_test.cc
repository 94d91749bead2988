// Unit tests for the router's circuit-breaker state machine (DESIGN.md
// §15). Time is injected, so every transition is pinned deterministically:
// closed -> open on consecutive failures, open -> half-open after the
// cooldown, half-open probe success closes / failure re-opens.

#include "src/robust/circuit_breaker.h"

#include <gtest/gtest.h>

namespace fairem {
namespace {

CircuitBreakerOptions SmallOptions() {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_cooldown_s = 1.0;
  options.half_open_max_probes = 1;
  return options;
}

TEST(CircuitBreakerTest, StartsClosedAndAllows) {
  CircuitBreaker breaker(SmallOptions());
  EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  EXPECT_TRUE(breaker.AllowRequest(0.0));  // closed never rations
}

TEST(CircuitBreakerTest, ConsecutiveFailuresTrip) {
  CircuitBreaker breaker(SmallOptions());
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(0.1);
  EXPECT_EQ(breaker.state(0.1), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 2);
  breaker.RecordFailure(0.2);
  EXPECT_EQ(breaker.state(0.2), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(0.2));
  EXPECT_EQ(breaker.times_opened(), 1u);
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  CircuitBreaker breaker(SmallOptions());
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(0.1);
  breaker.RecordSuccess(0.2);  // streak broken: not consecutive any more
  breaker.RecordFailure(0.3);
  breaker.RecordFailure(0.4);
  EXPECT_EQ(breaker.state(0.4), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.4));
}

TEST(CircuitBreakerTest, CooldownMovesOpenToHalfOpen) {
  CircuitBreaker breaker(SmallOptions());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(0.5), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(0.99));
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(1.0));
}

TEST(CircuitBreakerTest, HalfOpenRationsProbes) {
  CircuitBreakerOptions options = SmallOptions();
  options.half_open_max_probes = 2;
  CircuitBreaker breaker(options);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  EXPECT_TRUE(breaker.AllowRequest(1.0));
  EXPECT_TRUE(breaker.AllowRequest(1.0));
  EXPECT_FALSE(breaker.AllowRequest(1.0));  // both probe slots out
}

TEST(CircuitBreakerTest, HalfOpenSuccessCloses) {
  CircuitBreaker breaker(SmallOptions());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  ASSERT_TRUE(breaker.AllowRequest(1.0));
  breaker.RecordSuccess(1.1);
  EXPECT_EQ(breaker.state(1.1), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.AllowRequest(1.1));
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensAndRestartsCooldown) {
  CircuitBreaker breaker(SmallOptions());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  ASSERT_TRUE(breaker.AllowRequest(1.0));
  breaker.RecordFailure(1.1);
  EXPECT_EQ(breaker.state(1.1), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  // Cooldown restarts from the re-open, not the original trip.
  EXPECT_EQ(breaker.state(1.9), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.state(2.1), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, LateFailuresWhileOpenDoNotResetCooldown) {
  CircuitBreaker breaker(SmallOptions());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure(0.0);
  // In-flight requests settling late keep failing while the breaker is
  // open; the probe at cooldown expiry must still happen.
  breaker.RecordFailure(0.5);
  breaker.RecordFailure(0.9);
  EXPECT_EQ(breaker.state(1.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(1.0));
}

TEST(CircuitBreakerTest, DegenerateOptionsAreClamped) {
  CircuitBreakerOptions options;
  options.failure_threshold = 0;    // clamped to 1
  options.open_cooldown_s = -1.0;   // clamped to 0: immediate half-open
  options.half_open_max_probes = 0; // clamped to 1
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(0.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  EXPECT_FALSE(breaker.AllowRequest(0.0));
}

}  // namespace
}  // namespace fairem
