#include "src/robust/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace fairem {
namespace {

std::mutex g_sleep_mu;
std::function<void(double)> g_sleep_override;

}  // namespace

bool IsRetryableStatus(const Status& status) {
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kUnavailable;
}

double BackoffSeconds(const RetryPolicy& policy, int retry, Rng* rng) {
  double base = policy.initial_backoff_seconds *
                std::pow(policy.backoff_multiplier, retry - 1);
  base = std::min(base, policy.max_backoff_seconds);
  double jitter = std::clamp(policy.jitter_fraction, 0.0, 1.0);
  double scale = rng->NextDouble(1.0 - jitter, 1.0 + jitter);
  return std::max(0.0, base * scale);
}

void SetRetrySleepFnForTest(std::function<void(double)> fn) {
  std::lock_guard<std::mutex> lock(g_sleep_mu);
  g_sleep_override = std::move(fn);
}

namespace retry_internal {

void SleepSeconds(double seconds) {
  {
    std::lock_guard<std::mutex> lock(g_sleep_mu);
    if (g_sleep_override) {
      g_sleep_override(seconds);
      return;
    }
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void CountRetry(const Status& status) {
  static Counter* retries =
      MetricsRegistry::Global().GetCounter("fairem.robust.retries");
  retries->Increment();
  FAIREM_LOG(DEBUG) << "retrying after transient failure"
                    << LogKv("status", status.ToString());
}

void CountGiveUp() {
  static Counter* giveups =
      MetricsRegistry::Global().GetCounter("fairem.robust.retry_giveups");
  giveups->Increment();
}

void CountSuccessAfterRetry() {
  static Counter* successes =
      MetricsRegistry::Global().GetCounter("fairem.robust.retry_successes");
  successes->Increment();
}

}  // namespace retry_internal
}  // namespace fairem
