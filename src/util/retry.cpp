#include "util/retry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::util {

SimTime RetryPolicy::cap() const {
  if (max_backoff > 0) return max_backoff;
  // Saturate the 8x default: an initial_backoff within 8x of the
  // SimTime ceiling must cap at the ceiling, not wrap negative.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  if (initial_backoff > kMax / 8) return kMax;
  return initial_backoff * 8;
}

SimTime RetryPolicy::backoff(int attempt) const {
  OSPREY_REQUIRE(initial_backoff >= 1, "initial backoff must be positive");
  OSPREY_REQUIRE(multiplier >= 1.0, "backoff multiplier must be >= 1");
  // Harden against scheduler bookkeeping bugs: attempts are 1-based,
  // and anything below that gets the initial backoff.
  if (attempt < 1) attempt = 1;
  // Compute in double to survive large exponents, then saturate at the
  // cap *before* converting back: initial * multiplier^(attempt-1) can
  // exceed both SimTime and the exactly-representable double range for
  // large attempt counts, and llround on such a value is undefined.
  const SimTime capped_to = cap();
  double raw = static_cast<double>(initial_backoff) *
               std::pow(multiplier, static_cast<double>(attempt - 1));
  if (!(raw < static_cast<double>(capped_to))) return capped_to;
  return std::max<SimTime>(1, static_cast<SimTime>(std::llround(raw)));
}

SimTime RetryPolicy::jittered(int attempt, std::uint64_t key) const {
  OSPREY_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter fraction in [0,1)");
  if (attempt < 1) attempt = 1;
  SimTime base = backoff(attempt);
  if (jitter <= 0.0) return base;
  std::uint64_t bits =
      mix64(seed ^ mix64(key ^ mix64(static_cast<std::uint64_t>(attempt))));
  // Factor in [1 - jitter, 1 + jitter]. Saturate like backoff(): a base
  // at the SimTime ceiling times an upward jitter must not overflow.
  double factor = 1.0 + jitter * (2.0 * uniform01(bits) - 1.0);
  double scaled = static_cast<double>(base) * factor;
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  if (!(scaled < static_cast<double>(kMax))) return kMax;
  return std::max<SimTime>(1, static_cast<SimTime>(std::llround(scaled)));
}

std::uint64_t stable_key(const char* s) { return fnv1a(s); }

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config)
    : config_(config) {
  OSPREY_REQUIRE(config_.failure_threshold >= 0,
                 "breaker threshold must be non-negative");
  OSPREY_REQUIRE(config_.open_timeout >= 1, "breaker open timeout too small");
  OSPREY_REQUIRE(config_.half_open_successes >= 1,
                 "breaker needs at least one probe success to close");
}

bool CircuitBreaker::allow(SimTime now) {
  if (!config_.enabled()) return true;
  if (state_ == BreakerState::kOpen &&
      now >= opened_at_ + config_.open_timeout) {
    state_ = BreakerState::kHalfOpen;
    half_open_successes_ = 0;
  }
  return state_ != BreakerState::kOpen;
}

void CircuitBreaker::trip(SimTime now) {
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  half_open_successes_ = 0;
  ++times_opened_;
}

void CircuitBreaker::on_success(SimTime) {
  if (!config_.enabled()) return;
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= config_.half_open_successes) {
      state_ = BreakerState::kClosed;
    }
  } else if (state_ == BreakerState::kClosed) {
    // Nothing else: successes keep a closed breaker closed.
  }
}

void CircuitBreaker::on_failure(SimTime now) {
  if (!config_.enabled()) return;
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen) {
    trip(now);  // a failed probe re-opens immediately
    return;
  }
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= config_.failure_threshold) {
    trip(now);
  }
}

}  // namespace osprey::util
