#pragma once

/// \file timer.hpp
/// Simulated Globus Timers: periodic actions on the research fabric.
/// AERO's ingestion flows poll their upstream data source "at a user
/// specifiable frequency, in this case daily" through this service.

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace osprey::fabric {

using TimerId = std::uint64_t;

/// Periodic callback scheduling with cancellation.
class TimerService {
 public:
  TimerService(EventLoop& loop, AuthService& auth);

  /// Fire `fn` first at `first_at` (absolute) and then every `period`.
  TimerId every(SimTime period, SimTime first_at, std::function<void()> fn,
                const std::string& token, const std::string& name = "");

  /// Cancel; returns false for unknown/finished timers.
  bool cancel(TimerId id);

  /// Attach a trace recorder (non-owning; nullptr detaches). While it
  /// is enabled, every firing becomes an instant event ("timer:<name>").
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Bind the fires counter to `metrics` (non-owning; nullptr reverts
  /// to the service's private fallback counter).
  void set_metrics(obs::MetricsRegistry* metrics);

  std::size_t active_count() const { return timers_.size(); }
  std::uint64_t total_fires() const { return fires_->value(); }

 private:
  struct Timer {
    std::string name;
    SimTime period;
    std::function<void()> fn;
    EventId pending_event;
  };

  void arm(TimerId id, SimTime at);

  EventLoop& loop_;
  AuthService& auth_;
  std::map<TimerId, Timer> timers_;
  TimerId next_id_ = 0;
  // Always points at a live obs::Counter: the owned fallback until
  // set_metrics binds a registry, so total_fires() works unwired.
  obs::Counter own_fires_;
  obs::Counter* fires_ = &own_fires_;
  obs::TraceRecorder* tracer_ = nullptr;
};

}  // namespace osprey::fabric
