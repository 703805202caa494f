#include "fabric/compute.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace osprey::fabric {

ComputeEndpoint::ComputeEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth, int slots)
    : name_(std::move(name)),
      loop_(loop),
      auth_(auth),
      kind_(EndpointKind::kLoginNode),
      slots_(slots),
      uuids_(0xC0DE) {
  OSPREY_REQUIRE(slots >= 1, "login-node endpoint needs at least one slot");
}

ComputeEndpoint::ComputeEndpoint(std::string name, EventLoop& loop,
                                 AuthService& auth, BatchScheduler& scheduler)
    : name_(std::move(name)),
      loop_(loop),
      auth_(auth),
      kind_(EndpointKind::kBatch),
      scheduler_(&scheduler),
      uuids_(0xC0DE) {}

std::string ComputeEndpoint::register_function(const std::string& name,
                                               ComputeFn fn, SimTime cost) {
  return register_function(name, std::move(fn),
                           CostFn([cost](const Value&) { return cost; }));
}

std::string ComputeEndpoint::register_function(const std::string& name,
                                               ComputeFn fn, CostFn cost) {
  OSPREY_REQUIRE(static_cast<bool>(fn), "null compute function");
  OSPREY_REQUIRE(static_cast<bool>(cost), "null cost function");
  std::string id = "fn-" + uuids_.next();
  functions_.emplace(id, Registered{name, std::move(fn), std::move(cost)});
  return id;
}

bool ComputeEndpoint::has_function(const std::string& function_id) const {
  return functions_.count(function_id) > 0;
}

void ComputeEndpoint::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_succeeded_ = &own_succeeded_;
    m_failed_ = &own_failed_;
    m_latency_ = nullptr;
    return;
  }
  m_succeeded_ = &metrics->counter("fabric_compute_tasks_succeeded_total",
                                   "compute tasks that ran to completion");
  m_failed_ = &metrics->counter(
      "fabric_compute_tasks_failed_total",
      "compute tasks that failed (outage, kill, walltime, error)");
  m_latency_ = &metrics->histogram(
      "fabric_compute_task_latency_ms",
      {1e3, 10e3, 60e3, 600e3, 3.6e6, 14.4e6},
      "submission-to-completion virtual latency per compute task (ms)");
}

void ComputeEndpoint::finish_obs(const ComputeTaskRecord& rec) {
  const bool ok = rec.status == ComputeTaskStatus::kSucceeded;
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.completed), ok,
                      rec.error);
  }
  if (ok) {
    m_succeeded_->inc();
  } else {
    m_failed_->inc();
  }
  if (m_latency_ != nullptr && rec.completed >= rec.submitted) {
    m_latency_->observe(static_cast<double>(rec.completed - rec.submitted));
  }
}

ComputeTaskId ComputeEndpoint::execute(const std::string& function_id,
                                       Value args, const std::string& token,
                                       Callback on_done) {
  auth_.validate(token, scopes::kCompute);
  auto it = functions_.find(function_id);
  if (it == functions_.end()) {
    throw osprey::util::NotFound("unknown compute function: " + function_id);
  }
  ComputeTaskId id = records_.size();
  ComputeTaskRecord rec;
  rec.id = id;
  rec.function_name = it->second.name;
  rec.endpoint = name_;
  rec.submitted = loop_.now();
  records_.push_back(rec);
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    records_[id].trace_span = tracer->begin_span(
        obs::Category::kCompute, "compute:" + records_[id].function_name,
        obs::sim_ns(rec.submitted), obs::kInheritParent,
        name_ + (kind_ == EndpointKind::kBatch ? " (batch)" : " (login)"));
  }

  if (plan_ != nullptr &&
      plan_->in_window(FaultKind::kEndpointOutage, "compute", name_,
                       loop_.now())) {
    // Endpoint unreachable: the submission fails fast after a short
    // connection timeout instead of queueing into a black hole.
    Callback cb = std::move(on_done);
    loop_.schedule_after(10 * osprey::util::kSecond,
                         [this, id, cb = std::move(cb)] {
                           ComputeTaskRecord& r = records_[id];
                           r.status = ComputeTaskStatus::kFailed;
                           r.error = "endpoint unreachable (outage)";
                           r.completed = loop_.now();
                           finish_obs(r);
                           if (cb) cb(Value(nullptr), r);
                         });
    return id;
  }

  auto task = std::make_shared<Task>(
      Task{id, &it->second, std::move(args), std::move(on_done),
           TaskContext(-1, records_[id].trace_span), Value(), true, {}});
  if (kind_ == EndpointKind::kLoginNode) {
    run_on_login_node(std::move(task));
  } else {
    run_via_scheduler(std::move(task));
  }
  return id;
}

void ComputeEndpoint::set_batch_walltime(SimTime walltime) {
  OSPREY_REQUIRE(kind_ == EndpointKind::kBatch,
                 "walltime applies to batch endpoints");
  OSPREY_REQUIRE(walltime > 0, "walltime must be positive");
  batch_walltime_ = walltime;
}

namespace {

thread_local TaskContext* t_context = nullptr;

/// Installs a body's TaskContext on the calling thread for a scope.
class ContextScope {
 public:
  explicit ContextScope(TaskContext* context) : outer_(t_context) {
    t_context = context;
  }
  ~ContextScope() { t_context = outer_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TaskContext* outer_;
};

}  // namespace

TaskContext* TaskContext::current() { return t_context; }

void ComputeEndpoint::Task::run_body() {
  ContextScope context_scope(&context);
  EventLoop::BodyScope in_body;
  try {
    result = fn->fn(args);
    failed = false;
  } catch (const std::exception& e) {
    error = e.what();
  }
}

void ComputeEndpoint::join(std::future<void>& done) {
  osprey::util::ThreadPool& pool = osprey::util::global_pool();
  while (done.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool.try_run_one()) {
      done.wait();
      break;
    }
  }
  done.get();  // rethrows what the body let escape
}

ComputeEndpoint::~ComputeEndpoint() {
  for (auto& [id, done] : running_) {
    (void)id;
    done.wait();
  }
}

SimTime ComputeEndpoint::start_task(const TaskPtr& task, SimTime limit) {
  ComputeTaskRecord& rec = records_[task->id];
  rec.started = loop_.now();
  rec.status = ComputeTaskStatus::kRunning;
  SimTime duration = 0;   // raw declared cost (returned to the scheduler)
  SimTime occupy = 0;     // virtual time until the task record completes
  bool runs = false;      // false: the task fails with task->error, no body
  try {
    duration = task->fn->cost(task->args);
    OSPREY_CHECK(duration >= 0, "negative declared cost");
    occupy = duration;
    if (limit >= 0 && duration > limit) {
      // The job will be killed at the walltime: the function's outputs
      // never materialize, and the caller learns of the failure at the
      // kill time. The raw duration is still returned so the scheduler
      // records the job as TIMEOUT.
      task->error = "walltime exceeded (" +
                    osprey::util::format_duration(duration) + " > " +
                    osprey::util::format_duration(limit) + ")";
      occupy = limit;
    } else if (plan_ != nullptr &&
               plan_->should_inject(FaultKind::kComputeKill, "compute",
                                    name_, loop_.now())) {
      // Injected mid-run kill: the task dies halfway through its
      // declared cost; outputs never materialize. The shortened
      // duration is also what the scheduler sees, so the node frees at
      // the kill time.
      occupy = std::max<SimTime>(1, occupy / 2);
      if (limit >= 0) occupy = std::min(occupy, limit);
      duration = occupy;
      task->error = "task killed (injected) after " +
                    osprey::util::format_duration(occupy);
    } else {
      runs = true;
    }
    if (!runs) {
      OSPREY_LOG_WARN("compute", rec.function_name << " " << task->error);
    }
  } catch (const std::exception& e) {
    task->error = e.what();
    OSPREY_LOG_WARN("compute",
                    rec.function_name << " failed: " << task->error);
  }

  // The body starts now and is joined at completion, `occupy` later in
  // virtual time. Batch bodies run on the pool in between; everything
  // observable (record, span, metrics, callback) happens at the join.
  if (runs) {
    task->context.start_ = rec.started;
    if (kind_ == EndpointKind::kBatch) {
      running_.emplace(task->id, osprey::util::global_pool().submit(
                                     [task] { task->run_body(); }));
    } else {
      task->run_body();
    }
  }
  loop_.schedule_after(occupy, [this, task, runs] {
    auto running = running_.find(task->id);
    if (running != running_.end()) {
      join(running->second);
      running_.erase(running);
    }
    for (auto& effect : task->context.deferred_) effect();
    ComputeTaskRecord& r = records_[task->id];
    r.status = task->failed ? ComputeTaskStatus::kFailed
                            : ComputeTaskStatus::kSucceeded;
    r.error = task->error;
    if (runs && task->failed) {
      OSPREY_LOG_WARN("compute", r.function_name << " failed: " << r.error);
    }
    r.completed = loop_.now();
    finish_obs(r);
    if (task->on_done) {
      task->on_done(task->failed ? Value(nullptr) : std::move(task->result),
                    r);
    }
  });
  return duration;
}

void ComputeEndpoint::run_on_login_node(TaskPtr task) {
  if (busy_slots_ >= slots_) {
    login_queue_.push_back(std::move(task));
    return;
  }
  ++busy_slots_;
  // Run on the next tick to keep submission re-entrancy simple.
  loop_.schedule_after(0, [this, task = std::move(task)] {
    SimTime duration = start_task(task);
    loop_.schedule_after(duration, [this] {
      --busy_slots_;
      drain_login_queue();
    });
  });
}

void ComputeEndpoint::drain_login_queue() {
  while (busy_slots_ < slots_ && !login_queue_.empty()) {
    TaskPtr task = std::move(login_queue_.front());
    login_queue_.pop_front();
    ++busy_slots_;
    SimTime duration = start_task(task);
    loop_.schedule_after(duration, [this] {
      --busy_slots_;
      drain_login_queue();
    });
  }
}

void ComputeEndpoint::run_via_scheduler(TaskPtr task) {
  JobSpec spec;
  spec.name = "gc:" + task->fn->name;
  spec.nodes = 1;
  spec.walltime = batch_walltime_;
  SimTime limit = batch_walltime_;
  spec.run = [this, task = std::move(task), limit]() -> SimTime {
    return start_task(task, limit);
  };
  scheduler_->submit(std::move(spec));
}

const ComputeTaskRecord& ComputeEndpoint::task(ComputeTaskId id) const {
  OSPREY_REQUIRE(id < records_.size(), "unknown compute task id");
  return records_[id];
}

}  // namespace osprey::fabric
