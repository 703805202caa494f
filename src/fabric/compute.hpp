#pragma once

/// \file compute.hpp
/// Simulated Globus Compute (funcX): a federated function-serving
/// endpoint. Users register functions and execute them remotely with
/// JSON-like arguments. Two endpoint kinds reproduce the paper's setup:
///
///  - kLoginNode: a shared login node with a small number of slots;
///    cheap tasks (the paper's data transformation and aggregation, each
///    "running in under a minute") execute here directly.
///  - kBatch: each execution submits a one-node job to the PBS-style
///    BatchScheduler (the paper's GlobusComputeEngine on Bebop), so
///    expensive tasks pay queue wait before running.
///
/// Functions execute real C++; their *virtual* duration is the
/// registered cost (possibly input-dependent). A task's body starts at
/// the task's simulated start and is joined at its completion event:
/// batch bodies run on util::global_pool() in between, so the jobs of
/// one scheduler overlap in real time as they do in simulated time;
/// login-node bodies (sub-minute transforms and stubs, where a thread
/// hand-off would cost more than the body) run inline at the start.
/// Everything observable happens on the loop thread at those two
/// points, so sim timings, event order and artifacts do not depend on
/// where or when a body ran. See TaskContext for what a body may touch.

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/auth.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "fabric/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/uuid.hpp"
#include "util/value.hpp"

namespace osprey::fabric {

using osprey::util::Value;

/// A registered remote function: Value in, Value out.
using ComputeFn = std::function<Value(const Value&)>;
/// Virtual cost model for a function, possibly input-dependent.
using CostFn = std::function<SimTime(const Value&)>;

using ComputeTaskId = std::uint64_t;

enum class ComputeTaskStatus { kPending, kRunning, kSucceeded, kFailed };

struct ComputeTaskRecord {
  ComputeTaskId id = 0;
  std::string function_name;
  std::string endpoint;
  SimTime submitted = 0;
  SimTime started = -1;
  SimTime completed = -1;
  ComputeTaskStatus status = ComputeTaskStatus::kPending;
  std::string error;
  obs::SpanId trace_span = obs::kNoSpan;
};

enum class EndpointKind { kLoginNode, kBatch };

/// Everything a running compute body may see besides its arguments.
/// The endpoint installs it thread-locally around the body. Bodies must
/// not touch the EventLoop (EventLoop::BodyScope makes that throw) or
/// record traces/metrics directly: they defer such effects, which then
/// run on the loop thread at the task's join, in event order.
class TaskContext {
 public:
  /// The context of the body running on this thread; nullptr outside
  /// a body.
  static TaskContext* current();

  /// Simulated time the task started (the body's "now").
  SimTime start() const { return start_; }
  /// The task's compute: span (kNoSpan when untraced): the parent for
  /// spans the body records.
  obs::SpanId span() const { return span_; }
  /// Queue `effect` to run on the loop thread at the task's join,
  /// after the body returned (or threw) and before the completion
  /// callback. Effects run in the order deferred.
  void defer(std::function<void()> effect) {
    deferred_.push_back(std::move(effect));
  }

 private:
  friend class ComputeEndpoint;
  TaskContext(SimTime start, obs::SpanId span) : start_(start), span_(span) {}

  SimTime start_;
  obs::SpanId span_;
  std::vector<std::function<void()>> deferred_;
};

/// A Globus-Compute-like endpoint bound to either login-node slots or a
/// batch scheduler.
class ComputeEndpoint {
 public:
  /// Login-node endpoint with `slots` concurrent execution slots.
  ComputeEndpoint(std::string name, EventLoop& loop, AuthService& auth,
                  int slots);
  /// Batch endpoint: executions become one-node jobs on `scheduler`.
  ComputeEndpoint(std::string name, EventLoop& loop, AuthService& auth,
                  BatchScheduler& scheduler);
  /// Waits for bodies still running off the loop.
  ~ComputeEndpoint();

  ComputeEndpoint(const ComputeEndpoint&) = delete;
  ComputeEndpoint& operator=(const ComputeEndpoint&) = delete;

  const std::string& name() const { return name_; }
  EndpointKind kind() const { return kind_; }

  /// Attach a chaos FaultPlan (non-owning; nullptr detaches). The plan
  /// can kill tasks mid-run (walltime-style) and declare outage windows
  /// during which submissions fail fast ("endpoint unreachable").
  void set_fault_plan(FaultPlan* plan) { plan_ = plan; }

  /// Attach a trace recorder (non-owning; nullptr detaches). Each task
  /// becomes a span from submission to completion (queue wait included),
  /// parented to the submitting thread's current span.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Bind task counters and the end-to-end latency histogram to
  /// `metrics` (non-owning; nullptr detaches).
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Walltime requested for each batch job (batch endpoints only).
  /// Tasks whose declared cost exceeds it are killed by the scheduler
  /// and reported failed ("walltime exceeded").
  void set_batch_walltime(SimTime walltime);
  SimTime batch_walltime() const { return batch_walltime_; }

  /// Register a function with a fixed virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                SimTime cost);
  /// Register a function with an input-dependent virtual cost.
  std::string register_function(const std::string& name, ComputeFn fn,
                                CostFn cost);
  bool has_function(const std::string& function_id) const;

  using Callback =
      std::function<void(const Value& result, const ComputeTaskRecord&)>;

  /// Execute asynchronously; `on_done` fires in virtual time once the
  /// task has run (or failed — result is null and record.error set).
  ComputeTaskId execute(const std::string& function_id, Value args,
                        const std::string& token, Callback on_done);

  const ComputeTaskRecord& task(ComputeTaskId id) const;
  const std::vector<ComputeTaskRecord>& tasks() const { return records_; }
  std::size_t completed_count() const {
    return static_cast<std::size_t>(m_succeeded_->value() +
                                    m_failed_->value());
  }

 private:
  struct Registered {
    std::string name;
    ComputeFn fn;
    CostFn cost;
  };

  /// One submitted task, shared by the loop thread and, while its body
  /// runs off the loop, the worker running it.
  struct Task {
    ComputeTaskId id;
    const Registered* fn;
    Value args;
    Callback on_done;
    TaskContext context;
    Value result;
    bool failed;  // the body threw, was killed, or has not returned
    std::string error;

    void run_body();
  };
  using TaskPtr = std::shared_ptr<Task>;

  void run_on_login_node(TaskPtr task);
  void run_via_scheduler(TaskPtr task);
  void drain_login_queue();
  /// Starts the task at the current virtual time: decides its cost and
  /// any kill, starts the body, and schedules the join at completion.
  /// When `limit >= 0` and the declared cost exceeds it, the body is
  /// NOT run: the task fails at the limit (walltime kill). Returns the
  /// virtual duration the resources are occupied.
  SimTime start_task(const TaskPtr& task, SimTime limit = -1);
  /// Waits for a body running off the loop, running queued pool work
  /// meanwhile.
  static void join(std::future<void>& done);

  std::string name_;
  EventLoop& loop_;
  AuthService& auth_;
  EndpointKind kind_;
  int slots_ = 1;
  int busy_slots_ = 0;
  BatchScheduler* scheduler_ = nullptr;
  FaultPlan* plan_ = nullptr;
  SimTime batch_walltime_ = 4 * osprey::util::kHour;
  osprey::util::UuidFactory uuids_;
  std::map<std::string, Registered> functions_;  // id -> registration
  std::vector<ComputeTaskRecord> records_;
  std::deque<TaskPtr> login_queue_;
  // Bodies running off the loop, until their join.
  std::map<ComputeTaskId, std::future<void>> running_;
  obs::TraceRecorder* tracer_ = nullptr;
  // Task counters always point at a live obs::Counter: the owned
  // fallbacks until set_metrics binds a registry, so completed_count()
  // works unwired. The histogram stays optional.
  obs::Counter own_succeeded_, own_failed_;
  obs::Counter* m_succeeded_ = &own_succeeded_;
  obs::Counter* m_failed_ = &own_failed_;
  obs::Histogram* m_latency_ = nullptr;

  /// Ends the span and bumps metrics when a task record completes.
  void finish_obs(const ComputeTaskRecord& rec);
};

}  // namespace osprey::fabric
