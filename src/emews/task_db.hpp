#pragma once

/// \file task_db.hpp
/// The EMEWS task database: the decoupled heart of the model-exploration
/// framework. Model-exploration (ME) algorithms insert tasks; worker
/// pools on compute resources claim and evaluate them; results flow back
/// through the same database. Submission returns immediately (the
/// asynchronous Future pattern of §3.2); completion is signalled through
/// condition variables so pollers never spin.
///
/// Thread-safe: ME algorithm threads, worker threads and monitors may
/// call concurrently. The lock discipline is machine-checked — every
/// mutable member is OSPREY_GUARDED_BY(mutex_) and the
/// OSPREY_THREAD_SAFETY build rejects unguarded access at compile time.
///
/// Timestamps come from an injected util::Clock (default: the process
/// real clock), so simulated runs driven by a util::SimClock are
/// bit-replayable; no std::chrono clock is named in this layer.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/annotations.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/value.hpp"

namespace osprey::emews {

using TaskId = std::uint64_t;

enum class TaskStatus { kQueued, kRunning, kComplete, kFailed, kCancelled };

const char* task_status_name(TaskStatus s);

/// Snapshot of one task's state.
struct TaskRecord {
  TaskId id = 0;
  std::string type;          // queue name, e.g. "metarvm"
  osprey::util::Value payload;
  int priority = 0;          // higher runs first
  TaskStatus status = TaskStatus::kQueued;
  osprey::util::Value result;
  std::string error;
  std::string worker;        // who evaluated it
  /// How often the task was returned to the queue by requeue().
  std::uint32_t requeues = 0;
  // Clock nanoseconds (injected util::Clock) for throughput accounting.
  std::uint64_t submitted_ns = 0;
  std::uint64_t started_ns = 0;
  std::uint64_t completed_ns = 0;
  /// Lifecycle span from claim to completion (kNoSpan without a tracer).
  obs::SpanId trace_span = obs::kNoSpan;
};

/// The task database.
class TaskDb {
 public:
  /// `clock` stamps task lifecycle events; nullptr selects the process
  /// real clock. Pass a util::SimClock for deterministic simulated runs.
  explicit TaskDb(const osprey::util::Clock* clock = nullptr)
      : clock_(clock != nullptr ? clock : &osprey::util::real_clock()) {}
  TaskDb(const TaskDb&) = delete;
  TaskDb& operator=(const TaskDb&) = delete;

  /// The clock stamping this database's records (shared with worker
  /// pools so busy-time accounting uses the same time base).
  const osprey::util::Clock& clock() const { return *clock_; }

  /// Insert a task; returns its id immediately (the Future handle is
  /// built from this id).
  TaskId submit(const std::string& type, osprey::util::Value payload,
                int priority = 0);

  /// Claim the highest-priority queued task of `type`, blocking until
  /// one is available or the database is closed (-> nullopt). FIFO
  /// within a priority level.
  std::optional<TaskId> claim(const std::string& type,
                              const std::string& worker);

  /// Non-blocking claim.
  std::optional<TaskId> try_claim(const std::string& type,
                                  const std::string& worker);

  /// Claim with a timeout: blocks up to `timeout_ms` for a task of
  /// `type`, then returns nullopt. Lets worker pools poll a shared queue
  /// and still observe their own stop signal (multiple pools may serve
  /// one queue, so unblocking cannot rely on per-pool poison messages).
  std::optional<TaskId> claim_for(const std::string& type,
                                  const std::string& worker,
                                  std::int64_t timeout_ms);

  void complete(TaskId id, osprey::util::Value result);
  void fail(TaskId id, const std::string& error);
  /// Cancel a still-queued task; returns false if it already started.
  bool cancel(TaskId id);
  /// Return a running task to its queue (e.g. its worker died or was
  /// preempted); it becomes claimable again at its original priority,
  /// behind tasks already queued at that priority. Returns false if the
  /// task is not currently running.
  bool requeue(TaskId id);

  /// Copy of the task's current state.
  TaskRecord snapshot(TaskId id) const;
  /// True once the task is complete/failed/cancelled.
  bool is_done(TaskId id) const;
  /// Block until the task is done; returns its record.
  TaskRecord wait(TaskId id) const;

  /// Total finished tasks (complete + failed + cancelled); used by
  /// cooperative pollers to sleep until something new finishes.
  std::uint64_t finished_count() const;
  /// Block until at least `n` tasks have finished or the database is
  /// closed; returns finished_count() at that moment. The target is an
  /// absolute count, so a completion racing the caller's last read can
  /// only make the wait shorter, never strand it.
  std::uint64_t wait_until_finished(std::uint64_t n) const;

  std::size_t queued_count(const std::string& type) const;
  std::size_t total_submitted() const;

  /// Close the database: wakes all blocked claims/waits. Pending queued
  /// tasks are cancelled.
  void close();
  bool closed() const;

  /// Attach a trace recorder (non-owning; nullptr detaches). Submissions
  /// become "submit:<type>" instants; each claim opens a "task:<type>"
  /// span that closes on complete/fail/requeue. Timestamps come from
  /// this database's injected clock.
  void set_tracer(obs::TraceRecorder* tracer);
  obs::TraceRecorder* tracer() const;

 private:
  TaskRecord& record_locked(TaskId id) OSPREY_REQUIRES(mutex_);
  const TaskRecord& record_locked(TaskId id) const OSPREY_REQUIRES(mutex_);
  void finish_locked(TaskId id, TaskStatus status) OSPREY_REQUIRES(mutex_);
  /// Pop the highest-priority queued id of `type`, mark it running by
  /// `worker`; nullopt when nothing is queued.
  std::optional<TaskId> claim_locked(const std::string& type,
                                     const std::string& worker)
      OSPREY_REQUIRES(mutex_);

  const osprey::util::Clock* clock_;
  mutable osprey::util::Mutex mutex_;
  osprey::util::CondVar queue_cv_;         // new task or close
  mutable osprey::util::CondVar done_cv_;  // task finished or close
  std::vector<TaskRecord> tasks_ OSPREY_GUARDED_BY(mutex_);
  // type -> priority -> FIFO of task ids (higher priority first).
  std::map<std::string, std::map<int, std::deque<TaskId>, std::greater<int>>>
      queues_ OSPREY_GUARDED_BY(mutex_);
  std::uint64_t finished_ OSPREY_GUARDED_BY(mutex_) = 0;
  bool closed_ OSPREY_GUARDED_BY(mutex_) = false;
  obs::TraceRecorder* tracer_ OSPREY_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace osprey::emews
