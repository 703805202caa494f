#include "fabric/timer.hpp"

#include "util/error.hpp"

namespace osprey::fabric {

TimerService::TimerService(EventLoop& loop, AuthService& auth)
    : loop_(loop), auth_(auth) {}

void TimerService::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    fires_ = &own_fires_;
    return;
  }
  fires_ = &metrics->counter("fabric_timer_fires_total",
                             "periodic timer firings");
}

TimerId TimerService::every(SimTime period, SimTime first_at,
                            std::function<void()> fn,
                            const std::string& token,
                            const std::string& name) {
  auth_.validate(token, scopes::kTimers);
  OSPREY_REQUIRE(period > 0, "timer period must be positive");
  OSPREY_REQUIRE(static_cast<bool>(fn), "null timer callback");
  OSPREY_REQUIRE(first_at >= loop_.now(), "first firing is in the past");
  TimerId id = next_id_++;
  timers_.emplace(id, Timer{name, period, std::move(fn), 0});
  arm(id, first_at);
  return id;
}

void TimerService::arm(TimerId id, SimTime at) {
  // Only {this, id} is captured, which fits std::function's inline
  // buffer, so re-arming allocates nothing; the firing time is now().
  timers_.at(id).pending_event = loop_.schedule_at(at, [this, id] {
    auto it = timers_.find(id);
    if (it == timers_.end()) return;  // cancelled meanwhile
    fires_->inc();
    if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
      tracer->instant(
          obs::Category::kFlow,
          "timer:" + (it->second.name.empty() ? std::to_string(id)
                                              : it->second.name),
          obs::sim_ns(loop_.now()), obs::kNoSpan);
    }
    // Re-arm before invoking so the callback may cancel the timer.
    SimTime next = loop_.now() + it->second.period;
    std::function<void()> fn = it->second.fn;  // copy: cancel() may erase
    arm(id, next);
    fn();
  });
}

bool TimerService::cancel(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;
  loop_.cancel(it->second.pending_event);
  timers_.erase(it);
  return true;
}

}  // namespace osprey::fabric
