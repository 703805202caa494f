#include "emews/task_db.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "emews/task_api.hpp"
#include "util/error.hpp"

namespace oe = osprey::emews;
namespace ou = osprey::util;
using ou::Value;
using ou::ValueObject;

TEST(TaskDb, SubmitClaimCompleteLifecycle) {
  oe::TaskDb db;
  ValueObject payload;
  payload["x"] = Value(1.5);
  oe::TaskId id = db.submit("model", Value(payload));
  EXPECT_EQ(db.queued_count("model"), 1u);
  EXPECT_FALSE(db.is_done(id));

  auto claimed = db.try_claim("model", "w0");
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(*claimed, id);
  EXPECT_EQ(db.snapshot(id).status, oe::TaskStatus::kRunning);
  EXPECT_EQ(db.snapshot(id).worker, "w0");

  ValueObject result;
  result["y"] = Value(3.0);
  db.complete(id, Value(result));
  EXPECT_TRUE(db.is_done(id));
  EXPECT_EQ(db.wait(id).result.at("y").as_double(), 3.0);
  EXPECT_EQ(db.finished_count(), 1u);
}

TEST(TaskDb, PriorityOrderingThenFifo) {
  oe::TaskDb db;
  oe::TaskId low1 = db.submit("q", Value(), 0);
  oe::TaskId low2 = db.submit("q", Value(), 0);
  oe::TaskId high = db.submit("q", Value(), 5);
  EXPECT_EQ(db.try_claim("q", "w").value(), high);
  EXPECT_EQ(db.try_claim("q", "w").value(), low1);
  EXPECT_EQ(db.try_claim("q", "w").value(), low2);
  EXPECT_FALSE(db.try_claim("q", "w").has_value());
}

TEST(TaskDb, TypesAreIndependentQueues) {
  oe::TaskDb db;
  db.submit("a", Value());
  EXPECT_FALSE(db.try_claim("b", "w").has_value());
  EXPECT_TRUE(db.try_claim("a", "w").has_value());
}

TEST(TaskDb, CompleteRequiresRunning) {
  oe::TaskDb db;
  oe::TaskId id = db.submit("q", Value());
  EXPECT_THROW(db.complete(id, Value()), ou::InvalidArgument);
  db.try_claim("q", "w");
  db.complete(id, Value());
  EXPECT_THROW(db.fail(id, "late"), ou::InvalidArgument);
}

TEST(TaskDb, FailCarriesError) {
  oe::TaskDb db;
  oe::TaskId id = db.submit("q", Value());
  db.try_claim("q", "w");
  db.fail(id, "model exploded");
  oe::TaskRecord rec = db.snapshot(id);
  EXPECT_EQ(rec.status, oe::TaskStatus::kFailed);
  EXPECT_EQ(rec.error, "model exploded");
}

TEST(TaskDb, CancelQueuedOnly) {
  oe::TaskDb db;
  oe::TaskId id = db.submit("q", Value());
  EXPECT_TRUE(db.cancel(id));
  EXPECT_EQ(db.snapshot(id).status, oe::TaskStatus::kCancelled);
  EXPECT_FALSE(db.try_claim("q", "w").has_value());  // removed from queue

  oe::TaskId id2 = db.submit("q", Value());
  db.try_claim("q", "w");
  EXPECT_FALSE(db.cancel(id2));  // running: not cancellable
}

TEST(TaskDb, BlockingClaimWokenBySubmit) {
  oe::TaskDb db;
  std::optional<oe::TaskId> got;
  std::thread worker([&] { got = db.claim("q", "w"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  oe::TaskId id = db.submit("q", Value());
  worker.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, id);
}

TEST(TaskDb, CloseWakesClaimersAndCancelsQueued) {
  oe::TaskDb db;
  oe::TaskId queued = db.submit("q", Value());
  std::optional<oe::TaskId> got = oe::TaskId{123};
  std::thread worker([&] { got = db.claim("other-type", "w"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  db.close();
  worker.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(db.snapshot(queued).status, oe::TaskStatus::kCancelled);
  EXPECT_TRUE(db.closed());
  EXPECT_THROW(db.submit("q", Value()), ou::InvalidArgument);
}

TEST(TaskDb, WaitUntilFinished) {
  oe::TaskDb db;
  oe::TaskId id = db.submit("q", Value());
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    db.try_claim("q", "w");
    db.complete(id, Value());
  });
  // Blocks until the completion above; an already-met target returns
  // at once.
  EXPECT_EQ(db.wait_until_finished(1), 1u);
  EXPECT_EQ(db.wait_until_finished(0), 1u);
  completer.join();
}

TEST(TaskFuture, GetReturnsResult) {
  oe::TaskDb db;
  oe::TaskQueue queue(db, "model");
  oe::TaskFuture f = queue.submit(Value(ValueObject{{"x", Value(2.0)}}));
  EXPECT_FALSE(f.is_done());
  auto id = db.try_claim("model", "w");
  ValueObject result;
  result["y"] = Value(4.0);
  db.complete(*id, Value(result));
  EXPECT_TRUE(f.is_done());
  EXPECT_DOUBLE_EQ(f.get().at("y").as_double(), 4.0);
}

TEST(TaskFuture, GetThrowsOnFailure) {
  oe::TaskDb db;
  oe::TaskQueue queue(db, "model");
  oe::TaskFuture f = queue.submit(Value());
  auto id = db.try_claim("model", "w");
  db.fail(*id, "bad");
  EXPECT_THROW(f.get(), ou::Error);
}

TEST(TaskFuture, InvalidFutureThrows) {
  oe::TaskFuture f;
  EXPECT_FALSE(f.valid());
  EXPECT_THROW(f.is_done(), ou::InvalidArgument);
}

TEST(TaskQueue, BatchSubmitAndCounting) {
  oe::TaskDb db;
  oe::TaskQueue queue(db, "model");
  std::vector<Value> payloads(5);
  auto futures = queue.submit_batch(std::move(payloads));
  EXPECT_EQ(futures.size(), 5u);
  EXPECT_EQ(oe::TaskQueue::count_done(futures), 0u);
  for (int i = 0; i < 3; ++i) {
    auto id = db.try_claim("model", "w");
    db.complete(*id, Value());
  }
  EXPECT_EQ(oe::TaskQueue::count_done(futures), 3u);
}
