#include "fabric/event_loop.hpp"

#include "util/error.hpp"

namespace osprey::fabric {

EventLoop::BodyScope::BodyScope() : previous_(t_in_body) { t_in_body = true; }

EventLoop::BodyScope::~BodyScope() { t_in_body = previous_; }

void EventLoop::fail_in_body(const char* call) {
  throw osprey::util::Error(std::string("EventLoop::") + call +
                            " called from inside a compute body");
}

EventId EventLoop::schedule_at(SimTime t, Callback cb) {
  check_not_in_body("schedule_at");
  OSPREY_REQUIRE(t >= now_, "cannot schedule an event in the past");
  OSPREY_REQUIRE(static_cast<bool>(cb), "null event callback");
  EventId id = next_seq_++;
  queue_.push(Entry{t, id});
  callbacks_.emplace(id, std::move(cb));
  return id;
}

EventId EventLoop::schedule_after(SimTime dt, Callback cb) {
  check_not_in_body("schedule_after");
  OSPREY_REQUIRE(dt >= 0, "negative delay");
  return schedule_at(now_ + dt, std::move(cb));
}

bool EventLoop::cancel(EventId id) {
  check_not_in_body("cancel");
  return callbacks_.erase(id) > 0;
}

void EventLoop::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    processed_ = &own_processed_;
    return;
  }
  processed_ = &metrics->counter("fabric_events_processed_total",
                                 "events fired by the virtual-time loop");
}

bool EventLoop::fire_next() {
  while (!queue_.empty()) {
    Entry entry = queue_.top();
    auto it = callbacks_.find(entry.seq);
    if (it == callbacks_.end()) {
      queue_.pop();  // tombstone of a cancelled event
      continue;
    }
    // Advance time, detach the callback, then run it (the callback may
    // schedule or cancel other events, including itself re-arming).
    queue_.pop();
    now_ = entry.time;
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    processed_->inc();
    cb();
    return true;
  }
  return false;
}

std::size_t EventLoop::run_until(SimTime t) {
  check_not_in_body("run_until");
  OSPREY_REQUIRE(t >= now_, "run_until into the past");
  std::size_t fired = 0;
  while (!queue_.empty()) {
    // Peek past tombstones to find the next live event time.
    Entry entry = queue_.top();
    if (callbacks_.find(entry.seq) == callbacks_.end()) {
      queue_.pop();
      continue;
    }
    if (entry.time > t) break;
    if (fire_next()) ++fired;
  }
  now_ = t;
  return fired;
}

std::size_t EventLoop::run_all(std::size_t max_events) {
  check_not_in_body("run_all");
  std::size_t fired = 0;
  while (fired < max_events && fire_next()) {
    ++fired;
  }
  OSPREY_CHECK(fired < max_events, "event loop exceeded max_events cap");
  return fired;
}

}  // namespace osprey::fabric
