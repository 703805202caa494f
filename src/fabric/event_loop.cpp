#include "fabric/event_loop.hpp"

#include <algorithm>
#include <limits>

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
  heap_.push_back(Entry{t, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return id;
}

EventId EventLoop::schedule_after(SimTime dt, Callback cb) {
  check_not_in_body("schedule_after");
  OSPREY_REQUIRE(dt >= 0, "negative delay");
  return schedule_at(now_ + dt, std::move(cb));
}

bool EventLoop::cancel(EventId id) {
  check_not_in_body("cancel");
  auto it = std::find_if(heap_.begin(), heap_.end(),
                         [id](const Entry& e) { return e.seq == id; });
  if (it == heap_.end() || !it->cb) return false;
  it->cb = nullptr;  // leave a tombstone
  --live_;
  return true;
}

void EventLoop::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    processed_ = &own_processed_;
    return;
  }
  processed_ = &metrics->counter("fabric_events_processed_total",
                                 "events fired by the virtual-time loop");
}

bool EventLoop::fire_next(SimTime limit) {
  while (!heap_.empty() && !heap_.front().cb) {  // cancelled events
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  if (heap_.empty() || heap_.front().time > limit) return false;
  // Advance time, detach the entry, then run it (the callback may
  // schedule or cancel other events, including itself re-arming).
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  --live_;
  now_ = entry.time;
  processed_->inc();
  entry.cb();
  return true;
}

std::size_t EventLoop::run_until(SimTime t) {
  check_not_in_body("run_until");
  OSPREY_REQUIRE(t >= now_, "run_until into the past");
  std::size_t fired = 0;
  while (fire_next(t)) ++fired;
  now_ = t;
  return fired;
}

std::size_t EventLoop::run_all(std::size_t max_events) {
  check_not_in_body("run_all");
  std::size_t fired = 0;
  while (fired < max_events &&
         fire_next(std::numeric_limits<SimTime>::max())) {
    ++fired;
  }
  OSPREY_CHECK(fired < max_events, "event loop exceeded max_events cap");
  return fired;
}

}  // namespace osprey::fabric
