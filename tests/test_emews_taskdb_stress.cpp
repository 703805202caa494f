// TSan-targeted stress tests for emews::TaskDb: many workers claiming,
// completing, failing and requeuing tasks from a shared database
// concurrently with submitters and monitors. scripts/check.sh runs this
// binary under -fsanitize=thread; any lock-discipline regression in
// TaskDb shows up here as a data-race report.
//
// Also covers the determinism contract: with an injected util::SimClock
// every task timestamp is an exact, replayable virtual-time value.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "emews/task_db.hpp"
#include "emews/worker_pool.hpp"
#include "util/clock.hpp"
#include "util/value.hpp"

namespace oe = osprey::emews;
namespace ou = osprey::util;

namespace {

ou::Value payload_of(int i) {
  ou::ValueObject o;
  o["i"] = ou::Value(static_cast<double>(i));
  return ou::Value(std::move(o));
}

}  // namespace

TEST(TaskDbStress, ConcurrentClaimCompleteRequeue) {
  constexpr int kTasks = 400;
  constexpr int kWorkers = 8;

  oe::TaskDb db;
  // Half the tasks are pre-submitted, half arrive while workers run.
  for (int i = 0; i < kTasks / 2; ++i) {
    db.submit("stress", payload_of(i), i % 3);
  }

  std::atomic<int> requeues{0};
  std::atomic<int> fails{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&db, &requeues, &fails, w] {
      std::string name = "stress/w" + std::to_string(w);
      while (true) {
        std::optional<oe::TaskId> id = db.claim_for("stress", name, 5);
        if (!id.has_value()) {
          if (db.closed()) break;
          continue;
        }
        oe::TaskRecord rec = db.snapshot(*id);
        // Exercise every running-task transition: some tasks bounce
        // back to the queue twice before finishing, a few fail.
        if ((*id % 5 == 0) && rec.requeues < 2) {
          ASSERT_TRUE(db.requeue(*id));
          requeues.fetch_add(1, std::memory_order_relaxed);
        } else if (*id % 13 == 0) {
          db.fail(*id, "injected");
          fails.fetch_add(1, std::memory_order_relaxed);
        } else {
          db.complete(*id, rec.payload);
        }
      }
    });
  }

  // Late submitter races the workers.
  std::thread submitter([&db] {
    for (int i = kTasks / 2; i < kTasks; ++i) {
      db.submit("stress", payload_of(i), i % 3);
    }
  });
  // A monitor hammers the read-side API while everything runs.
  std::thread monitor([&db] {
    std::uint64_t seen = 0;
    while (seen < kTasks && !db.closed()) {
      (void)db.queued_count("stress");
      (void)db.total_submitted();
      seen = db.wait_until_finished(seen + 1);
    }
  });

  submitter.join();
  // Wait until every task has finished, then release the workers.
  EXPECT_EQ(db.wait_until_finished(kTasks), static_cast<std::uint64_t>(kTasks));
  db.close();
  monitor.join();
  for (auto& t : workers) t.join();

  EXPECT_EQ(db.total_submitted(), static_cast<std::size_t>(kTasks));
  EXPECT_EQ(db.finished_count(), static_cast<std::uint64_t>(kTasks));
  EXPECT_GT(requeues.load(), 0);
  int complete = 0, failed = 0;
  for (oe::TaskId id = 0; id < kTasks; ++id) {
    oe::TaskRecord rec = db.snapshot(id);
    if (rec.status == oe::TaskStatus::kComplete) ++complete;
    if (rec.status == oe::TaskStatus::kFailed) ++failed;
    if (rec.requeues > 0) {
      EXPECT_LE(rec.requeues, 2u) << "task " << id;
    }
  }
  EXPECT_EQ(failed, fails.load());
  EXPECT_EQ(complete + failed, kTasks);
}

TEST(TaskDbStress, RequeueOnlyAppliesToRunningTasks) {
  oe::TaskDb db;
  oe::TaskId id = db.submit("q", payload_of(0));
  EXPECT_FALSE(db.requeue(id)) << "queued task must not requeue";
  ASSERT_TRUE(db.try_claim("q", "w").has_value());
  EXPECT_TRUE(db.requeue(id));
  EXPECT_EQ(db.snapshot(id).status, oe::TaskStatus::kQueued);
  EXPECT_EQ(db.snapshot(id).worker, "");
  EXPECT_EQ(db.queued_count("q"), 1u);
  // Claim again and finish; requeue after completion must refuse.
  ASSERT_TRUE(db.try_claim("q", "w2").has_value());
  db.complete(id, payload_of(0));
  EXPECT_FALSE(db.requeue(id));
  EXPECT_EQ(db.snapshot(id).requeues, 1u);
}

TEST(TaskDbStress, SimClockTimestampsAreDeterministic) {
  ou::SimClock clock;
  oe::TaskDb db(&clock);
  ASSERT_EQ(&db.clock(), &clock);

  clock.set_ns(1'000);
  oe::TaskId id = db.submit("sim", payload_of(1));
  clock.set_ns(2'500);
  ASSERT_TRUE(db.try_claim("sim", "w0").has_value());
  clock.set_ns(4'000);
  db.complete(id, payload_of(1));

  oe::TaskRecord rec = db.snapshot(id);
  EXPECT_EQ(rec.submitted_ns, 1'000u);
  EXPECT_EQ(rec.started_ns, 2'500u);
  EXPECT_EQ(rec.completed_ns, 4'000u);
}

TEST(TaskDbStress, WorkerPoolStampsThroughInjectedClock) {
  ou::SimClock clock;
  clock.set_ns(5'000);
  oe::TaskDb db(&clock);
  std::vector<oe::TaskId> ids;
  for (int i = 0; i < 16; ++i) ids.push_back(db.submit("m", payload_of(i)));
  {
    oe::WorkerPool pool(db, "m", [](const ou::Value& v) { return v; }, 4,
                        "simclock-pool");
    for (oe::TaskId id : ids) db.wait(id);
    pool.shutdown();
  }
  // Real threads did the work, but every stamp came from the SimClock,
  // which never moved: a replayable, machine-independent trace.
  for (oe::TaskId id : ids) {
    oe::TaskRecord rec = db.snapshot(id);
    EXPECT_EQ(rec.status, oe::TaskStatus::kComplete);
    EXPECT_EQ(rec.submitted_ns, 5'000u);
    EXPECT_EQ(rec.started_ns, 5'000u);
    EXPECT_EQ(rec.completed_ns, 5'000u);
  }
}
