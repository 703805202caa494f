#pragma once

/// \file event_loop.hpp
/// Deterministic discrete-event core of the simulated research fabric.
/// All Globus-like services (storage, transfer, compute, timers, the
/// batch scheduler) and the AERO server schedule their work here, so a
/// months-long "always-on" workflow executes in milliseconds of real
/// time and is exactly reproducible.

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "obs/metrics.hpp"
#include "util/sim_time.hpp"

namespace osprey::fabric {

using osprey::util::SimTime;

using EventId = std::uint64_t;

/// Single-threaded priority-queue event loop over virtual time.
/// Events at equal times fire in scheduling order (stable).
///
/// Compute bodies (ComputeEndpoint) never touch the loop: they may run
/// on another thread, and whatever they read or schedule would depend
/// on thread timing. While a body runs, its thread carries a BodyScope,
/// and now/schedule_*/cancel/run_* throw util::Error instead of racing.
class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Marks the calling thread as running a compute body for its
  /// lifetime (nests; restores the previous state).
  class BodyScope {
   public:
    BodyScope();
    ~BodyScope();
    BodyScope(const BodyScope&) = delete;
    BodyScope& operator=(const BodyScope&) = delete;

   private:
    bool previous_;
  };

  SimTime now() const {
    check_not_in_body("now");
    return now_;
  }

  /// Schedule `cb` at absolute virtual time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb);
  /// Schedule `cb` at now + dt.
  EventId schedule_after(SimTime dt, Callback cb);

  /// Cancel a pending event; returns false if it already fired or is
  /// unknown.
  bool cancel(EventId id);

  /// Process all events with time <= t, then advance the clock to t.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Process events until the queue is empty (events may schedule more
  /// events; a safety cap guards against runaway self-scheduling loops).
  std::size_t run_all(std::size_t max_events = 10'000'000);

  bool empty() const { return callbacks_.empty(); }
  std::size_t pending() const { return callbacks_.size(); }
  std::uint64_t events_processed() const { return processed_->value(); }

  /// Bind the processed-events counter to `metrics` (non-owning;
  /// nullptr reverts to the loop's private fallback counter).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // doubles as the EventId
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  static inline thread_local bool t_in_body = false;
  static void check_not_in_body(const char* call) {
    if (t_in_body) fail_in_body(call);
  }
  [[noreturn]] static void fail_in_body(const char* call);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // Always points at a live obs::Counter: the owned fallback until
  // set_metrics binds a registry, so events_processed() works unwired.
  obs::Counter own_processed_;
  obs::Counter* processed_ = &own_processed_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  // Live callbacks; cancellation erases the entry, leaving a tombstone in
  // the priority queue that fire_next() skips.
  std::map<EventId, Callback> callbacks_;

  /// Pop queue entries until one is live and run it; returns false when
  /// nothing is live.
  bool fire_next();
};

}  // namespace osprey::fabric
