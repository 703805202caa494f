#include "emews/task_db.hpp"

#include <chrono>

#include "util/error.hpp"

namespace osprey::emews {

using osprey::util::MutexLock;

const char* task_status_name(TaskStatus s) {
  switch (s) {
    case TaskStatus::kQueued: return "QUEUED";
    case TaskStatus::kRunning: return "RUNNING";
    case TaskStatus::kComplete: return "COMPLETE";
    case TaskStatus::kFailed: return "FAILED";
    case TaskStatus::kCancelled: return "CANCELLED";
  }
  return "?";
}

TaskRecord& TaskDb::record_locked(TaskId id) {
  OSPREY_REQUIRE(id < tasks_.size(), "unknown task id");
  return tasks_[id];
}

const TaskRecord& TaskDb::record_locked(TaskId id) const {
  OSPREY_REQUIRE(id < tasks_.size(), "unknown task id");
  return tasks_[id];
}

TaskId TaskDb::submit(const std::string& type, osprey::util::Value payload,
                      int priority) {
  MutexLock lock(mutex_);
  OSPREY_REQUIRE(!closed_, "submit to a closed task database");
  TaskId id = tasks_.size();
  TaskRecord rec;
  rec.id = id;
  rec.type = type;
  rec.payload = std::move(payload);
  rec.priority = priority;
  rec.submitted_ns = clock_->now_ns();
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    tracer->instant(obs::Category::kEmews, "submit:" + type,
                    rec.submitted_ns, obs::kNoSpan,
                    "task " + std::to_string(id));
  }
  tasks_.push_back(std::move(rec));
  queues_[type][priority].push_back(id);
  queue_cv_.notify_one();
  return id;
}

std::optional<TaskId> TaskDb::claim_locked(const std::string& type,
                                           const std::string& worker) {
  auto qit = queues_.find(type);
  if (qit == queues_.end() || qit->second.empty()) return std::nullopt;
  auto& by_priority = qit->second;
  auto pit = by_priority.begin();
  TaskId id = pit->second.front();
  pit->second.pop_front();
  if (pit->second.empty()) by_priority.erase(pit);
  TaskRecord& rec = record_locked(id);
  rec.status = TaskStatus::kRunning;
  rec.worker = worker;
  rec.started_ns = clock_->now_ns();
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    rec.trace_span = tracer->begin_span(
        obs::Category::kEmews, "task:" + rec.type, rec.started_ns,
        obs::kNoSpan, "task " + std::to_string(id) + " on " + worker);
  }
  return id;
}

std::optional<TaskId> TaskDb::claim(const std::string& type,
                                    const std::string& worker) {
  MutexLock lock(mutex_);
  while (true) {
    if (auto id = claim_locked(type, worker)) return id;
    if (closed_) return std::nullopt;
    queue_cv_.wait(lock);
  }
}

std::optional<TaskId> TaskDb::claim_for(const std::string& type,
                                        const std::string& worker,
                                        std::int64_t timeout_ms) {
  MutexLock lock(mutex_);
  std::int64_t remaining_ms = timeout_ms;
  while (true) {
    if (auto id = claim_locked(type, worker)) return id;
    if (closed_) return std::nullopt;
    if (remaining_ms <= 0) return std::nullopt;
    // The blocking bound is real time (a poll interval, not simulated
    // state); elapsed time is measured through the injected clock so a
    // SimClock still controls the records.
    std::uint64_t t0 = clock_->now_ns();
    if (queue_cv_.wait_for(lock, std::chrono::milliseconds(remaining_ms)) ==
        std::cv_status::timeout) {
      return std::nullopt;
    }
    std::uint64_t dt_ns = clock_->now_ns() - t0;
    remaining_ms -= static_cast<std::int64_t>(dt_ns / 1'000'000ull);
  }
}

std::optional<TaskId> TaskDb::try_claim(const std::string& type,
                                        const std::string& worker) {
  MutexLock lock(mutex_);
  return claim_locked(type, worker);
}

void TaskDb::finish_locked(TaskId id, TaskStatus status) {
  TaskRecord& rec = record_locked(id);
  rec.status = status;
  rec.completed_ns = clock_->now_ns();
  if (tracer_ != nullptr && rec.trace_span != obs::kNoSpan) {
    tracer_->end_span(rec.trace_span, rec.completed_ns,
                      status == TaskStatus::kComplete,
                      status == TaskStatus::kComplete
                          ? std::string()
                          : (rec.error.empty() ? task_status_name(status)
                                               : rec.error));
    rec.trace_span = obs::kNoSpan;
  }
  ++finished_;
  done_cv_.notify_all();
}

void TaskDb::complete(TaskId id, osprey::util::Value result) {
  MutexLock lock(mutex_);
  TaskRecord& rec = record_locked(id);
  OSPREY_REQUIRE(rec.status == TaskStatus::kRunning,
                 "complete() on a task that is not running");
  rec.result = std::move(result);
  finish_locked(id, TaskStatus::kComplete);
}

void TaskDb::fail(TaskId id, const std::string& error) {
  MutexLock lock(mutex_);
  TaskRecord& rec = record_locked(id);
  OSPREY_REQUIRE(rec.status == TaskStatus::kRunning,
                 "fail() on a task that is not running");
  rec.error = error;
  finish_locked(id, TaskStatus::kFailed);
}

bool TaskDb::cancel(TaskId id) {
  MutexLock lock(mutex_);
  TaskRecord& rec = record_locked(id);
  if (rec.status != TaskStatus::kQueued) return false;
  // Remove from its queue.
  auto& by_priority = queues_[rec.type];
  auto pit = by_priority.find(rec.priority);
  if (pit != by_priority.end()) {
    auto& fifo = pit->second;
    for (auto it = fifo.begin(); it != fifo.end(); ++it) {
      if (*it == id) {
        fifo.erase(it);
        break;
      }
    }
    if (fifo.empty()) by_priority.erase(pit);
  }
  finish_locked(id, TaskStatus::kCancelled);
  return true;
}

bool TaskDb::requeue(TaskId id) {
  MutexLock lock(mutex_);
  if (closed_) return false;
  TaskRecord& rec = record_locked(id);
  if (rec.status != TaskStatus::kRunning) return false;
  if (tracer_ != nullptr && rec.trace_span != obs::kNoSpan) {
    // The attempt's span closes here; the next claim opens a fresh one.
    tracer_->end_span(rec.trace_span, clock_->now_ns(), false, "requeued");
    rec.trace_span = obs::kNoSpan;
  }
  rec.status = TaskStatus::kQueued;
  rec.worker.clear();
  rec.started_ns = 0;
  ++rec.requeues;
  queues_[rec.type][rec.priority].push_back(id);
  queue_cv_.notify_one();
  return true;
}

TaskRecord TaskDb::snapshot(TaskId id) const {
  MutexLock lock(mutex_);
  return record_locked(id);
}

bool TaskDb::is_done(TaskId id) const {
  MutexLock lock(mutex_);
  TaskStatus s = record_locked(id).status;
  return s == TaskStatus::kComplete || s == TaskStatus::kFailed ||
         s == TaskStatus::kCancelled;
}

TaskRecord TaskDb::wait(TaskId id) const {
  MutexLock lock(mutex_);
  while (true) {
    TaskStatus s = record_locked(id).status;
    if (s == TaskStatus::kComplete || s == TaskStatus::kFailed ||
        s == TaskStatus::kCancelled) {
      return record_locked(id);
    }
    done_cv_.wait(lock);
  }
}

std::uint64_t TaskDb::finished_count() const {
  MutexLock lock(mutex_);
  return finished_;
}

std::uint64_t TaskDb::wait_until_finished(std::uint64_t n) const {
  MutexLock lock(mutex_);
  while (finished_ < n && !closed_) {
    done_cv_.wait(lock);
  }
  return finished_;
}

std::size_t TaskDb::queued_count(const std::string& type) const {
  MutexLock lock(mutex_);
  auto qit = queues_.find(type);
  if (qit == queues_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [prio, fifo] : qit->second) {
    (void)prio;
    n += fifo.size();
  }
  return n;
}

std::size_t TaskDb::total_submitted() const {
  MutexLock lock(mutex_);
  return tasks_.size();
}

void TaskDb::close() {
  MutexLock lock(mutex_);
  if (closed_) return;
  closed_ = true;
  // Cancel everything still queued.
  for (auto& [type, by_priority] : queues_) {
    (void)type;
    for (auto& [prio, fifo] : by_priority) {
      (void)prio;
      for (TaskId id : fifo) {
        TaskRecord& rec = record_locked(id);
        rec.status = TaskStatus::kCancelled;
        rec.completed_ns = clock_->now_ns();
        ++finished_;
      }
      fifo.clear();
    }
  }
  queues_.clear();
  queue_cv_.notify_all();
  done_cv_.notify_all();
}

bool TaskDb::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

void TaskDb::set_tracer(obs::TraceRecorder* tracer) {
  MutexLock lock(mutex_);
  tracer_ = tracer;
}

obs::TraceRecorder* TaskDb::tracer() const {
  MutexLock lock(mutex_);
  return tracer_;
}

}  // namespace osprey::emews
