#ifndef FAIREM_ROBUST_RETRY_H_
#define FAIREM_ROBUST_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/util/io_util.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace fairem {

/// Exponential backoff with jitter and an overall deadline. Attempt n
/// (1-based) sleeps `initial_backoff_seconds * multiplier^(n-1)` capped at
/// `max_backoff_seconds`, scaled by a uniform jitter in
/// [1 - jitter_fraction, 1 + jitter_fraction].
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  int max_attempts = 3;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  double jitter_fraction = 0.5;
  /// Wall-clock budget across all attempts and sleeps; <= 0 means none.
  double deadline_seconds = 0.0;
};

/// True for codes worth retrying: kInternal, kIOError, and kUnavailable
/// (transient infra failures and overload sheds). Input errors
/// (kInvalidArgument, kNotFound, ...) and expired deadlines never are.
bool IsRetryableStatus(const Status& status);

/// The jittered backoff before retry number `retry` (1-based).
double BackoffSeconds(const RetryPolicy& policy, int retry, Rng* rng);

namespace retry_internal {

/// Real monotonic sleep, swappable for tests via SetRetrySleepFnForTest.
void SleepSeconds(double seconds);
void CountRetry(const Status& status);
void CountGiveUp();
void CountSuccessAfterRetry();

template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}
inline const Status& StatusOf(const Status& s) { return s; }

}  // namespace retry_internal

/// Replaces the sleep used between retries (tests pass a recorder to avoid
/// real delays); nullptr restores the real sleep.
void SetRetrySleepFnForTest(std::function<void(double)> fn);

/// Runs `fn` (returning Status or Result<T>) under `policy`: retryable
/// failures are retried with jittered exponential backoff until success,
/// a non-retryable error, attempt exhaustion, or the deadline. Returns the
/// last attempt's outcome. Retries/give-ups are counted in the metrics
/// registry (fairem.robust.retries / retry_giveups / retry_successes).
/// `seed` makes the jitter sequence deterministic per call site.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, Fn&& fn, uint64_t seed = 1234)
    -> decltype(fn()) {
  Rng rng(seed ^ 0xda3e39cb94b95bdbULL);
  const double start = MonotonicSeconds();
  int attempt = 1;
  while (true) {
    auto outcome = fn();
    const Status& status = retry_internal::StatusOf(outcome);
    if (status.ok()) {
      if (attempt > 1) retry_internal::CountSuccessAfterRetry();
      return outcome;
    }
    if (!IsRetryableStatus(status) || attempt >= policy.max_attempts) {
      retry_internal::CountGiveUp();
      return outcome;
    }
    double backoff = BackoffSeconds(policy, attempt, &rng);
    if (policy.deadline_seconds > 0.0 &&
        MonotonicSeconds() - start + backoff > policy.deadline_seconds) {
      retry_internal::CountGiveUp();
      return outcome;
    }
    retry_internal::CountRetry(status);
    retry_internal::SleepSeconds(backoff);
    ++attempt;
  }
}

}  // namespace fairem

#endif  // FAIREM_ROBUST_RETRY_H_
