#include "fabric/compute.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kMinute;
using ou::kSecond;
using ou::Value;

class ComputeTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  std::string token = auth.issue_full_token("user");

  static Value doubler(const Value& args) {
    ou::ValueObject out;
    out["y"] = Value(args.at("x").as_double() * 2.0);
    return Value(std::move(out));
  }
};

TEST_F(ComputeTest, LoginNodeExecutesWithDeclaredCost) {
  of::ComputeEndpoint login("login", loop, auth, 2);
  std::string fn = login.register_function("double", doubler, 30 * kSecond);
  EXPECT_TRUE(login.has_function(fn));
  double result = 0.0;
  ou::ValueObject args;
  args["x"] = Value(21.0);
  login.execute(fn, Value(args), token,
                [&](const Value& r, const of::ComputeTaskRecord& rec) {
                  result = r.at("y").as_double();
                  EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                  EXPECT_EQ(rec.completed - rec.started, 30 * kSecond);
                });
  loop.run_all();
  EXPECT_DOUBLE_EQ(result, 42.0);
}

TEST_F(ComputeTest, LoginNodeSlotsSerializeWork) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn =
      login.register_function("slow", [](const Value&) { return Value(1); },
                              kMinute);
  std::vector<of::SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    ou::ValueObject args;
    login.execute(fn, Value(args), token,
                  [&](const Value&, const of::ComputeTaskRecord& rec) {
                    completions.push_back(rec.completed);
                  });
  }
  loop.run_all();
  ASSERT_EQ(completions.size(), 3u);
  // One slot: completions 1, 2, 3 minutes.
  EXPECT_EQ(completions[0], kMinute);
  EXPECT_EQ(completions[1], 2 * kMinute);
  EXPECT_EQ(completions[2], 3 * kMinute);
}

TEST_F(ComputeTest, TwoSlotsRunConcurrently) {
  of::ComputeEndpoint login("login", loop, auth, 2);
  std::string fn =
      login.register_function("slow", [](const Value&) { return Value(1); },
                              kMinute);
  std::vector<of::SimTime> completions;
  for (int i = 0; i < 2; ++i) {
    login.execute(fn, Value(ou::ValueObject{}), token,
                  [&](const Value&, const of::ComputeTaskRecord& rec) {
                    completions.push_back(rec.completed);
                  });
  }
  loop.run_all();
  EXPECT_EQ(completions[0], kMinute);
  EXPECT_EQ(completions[1], kMinute);
}

TEST_F(ComputeTest, BatchEndpointPaysQueueWait) {
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::string fn = compute.register_function(
      "analysis", [](const Value&) { return Value(0); }, 20 * kMinute);
  std::vector<of::SimTime> starts;
  for (int i = 0; i < 2; ++i) {
    compute.execute(fn, Value(ou::ValueObject{}), token,
                    [&](const Value&, const of::ComputeTaskRecord& rec) {
                      starts.push_back(rec.started);
                    });
  }
  loop.run_all();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1] - starts[0], 20 * kMinute);  // one node: serialized
  EXPECT_EQ(pbs.jobs().size(), 2u);
}

TEST_F(ComputeTest, InputDependentCost) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn = login.register_function(
      "sized", [](const Value&) { return Value(0); },
      of::CostFn([](const Value& args) {
        return args.at("n").as_int() * kSecond;
      }));
  of::SimTime completed = -1;
  ou::ValueObject args;
  args["n"] = Value(17);
  login.execute(fn, Value(args), token,
                [&](const Value&, const of::ComputeTaskRecord& rec) {
                  completed = rec.completed;
                });
  loop.run_all();
  EXPECT_EQ(completed, 17 * kSecond);
}

TEST_F(ComputeTest, FunctionExceptionBecomesFailedTask) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  std::string fn = login.register_function(
      "bad",
      [](const Value&) -> Value { throw std::runtime_error("kaboom"); },
      kSecond);
  bool saw_failure = false;
  login.execute(fn, Value(ou::ValueObject{}), token,
                [&](const Value& result, const of::ComputeTaskRecord& rec) {
                  saw_failure = true;
                  EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
                  EXPECT_NE(rec.error.find("kaboom"), std::string::npos);
                  EXPECT_TRUE(result.is_null());
                });
  loop.run_all();
  EXPECT_TRUE(saw_failure);
}

TEST_F(ComputeTest, UnknownFunctionAndScopeChecks) {
  of::ComputeEndpoint login("login", loop, auth, 1);
  EXPECT_THROW(login.execute("fn-none", Value(), token, nullptr),
               ou::NotFound);
  std::string fn = login.register_function(
      "f", [](const Value&) { return Value(0); }, kSecond);
  std::string weak = auth.issue_token("weak", {of::scopes::kStorageRead});
  EXPECT_THROW(login.execute(fn, Value(), weak, nullptr), ou::AuthError);
}

TEST_F(ComputeTest, TaskRecordsAccumulate) {
  of::ComputeEndpoint login("login", loop, auth, 4);
  std::string fn = login.register_function(
      "f", [](const Value&) { return Value(0); }, kSecond);
  for (int i = 0; i < 5; ++i) {
    login.execute(fn, Value(ou::ValueObject{}), token, nullptr);
  }
  loop.run_all();
  EXPECT_EQ(login.tasks().size(), 5u);
  EXPECT_EQ(login.completed_count(), 5u);
  EXPECT_EQ(login.task(0).function_name, "f");
}

// --- the execution model: start at the simulated start, join at the
// completion event; batch bodies run off the loop in between ---------

TEST_F(ComputeTest, BatchBodiesOfOneCycleRunConcurrently) {
  // Both jobs start at the same simulated instant on a 2-node machine,
  // so their bodies must be able to meet: each waits (bounded) for the
  // other to arrive. Bodies run one after another would time out.
  of::BatchScheduler pbs(loop, 2);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::mutex mutex;
  std::condition_variable arrived;
  int present = 0;
  std::string fn = compute.register_function(
      "meet",
      [&](const Value&) {
        std::unique_lock<std::mutex> lock(mutex);
        ++present;
        arrived.notify_all();
        bool met = arrived.wait_for(lock, std::chrono::seconds(20),
                                    [&] { return present == 2; });
        return Value(met);
      },
      20 * kMinute);
  std::vector<bool> met;
  for (int i = 0; i < 2; ++i) {
    compute.execute(fn, Value(ou::ValueObject{}), token,
                    [&](const Value& r, const of::ComputeTaskRecord& rec) {
                      EXPECT_EQ(rec.status, of::ComputeTaskStatus::kSucceeded);
                      met.push_back(r.as_bool());
                    });
  }
  loop.run_all();
  EXPECT_EQ(met, (std::vector<bool>{true, true}));
}

TEST_F(ComputeTest, ThrowingBatchBodyFailsAtItsCompletionTime) {
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::string fn = compute.register_function(
      "bad",
      [](const Value&) -> Value { throw std::runtime_error("kaboom"); },
      20 * kMinute);
  ou::set_log_level(ou::LogLevel::kOff);
  std::vector<of::SimTime> fired_at;
  for (int i = 0; i < 2; ++i) {
    compute.execute(fn, Value(ou::ValueObject{}), token,
                    [&](const Value& result, const of::ComputeTaskRecord& rec) {
                      EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
                      EXPECT_NE(rec.error.find("kaboom"), std::string::npos);
                      EXPECT_TRUE(result.is_null());
                      EXPECT_EQ(rec.completed, loop.now());
                      fired_at.push_back(loop.now());
                    });
  }
  // Until the completion event the task is still running.
  loop.run_until(10 * kMinute);
  EXPECT_EQ(compute.task(0).status, of::ComputeTaskStatus::kRunning);
  EXPECT_TRUE(compute.task(0).error.empty());
  loop.run_all();
  ou::set_log_level(ou::LogLevel::kWarn);

  // The record times are the declared cost's, the node serializes.
  EXPECT_EQ(fired_at, (std::vector<of::SimTime>{20 * kMinute, 40 * kMinute}));
  EXPECT_EQ(compute.task(0).started, 0);
  EXPECT_EQ(compute.task(0).completed, 20 * kMinute);
  EXPECT_EQ(compute.task(1).started, 20 * kMinute);
  EXPECT_EQ(compute.task(1).completed, 40 * kMinute);
  EXPECT_EQ(pbs.jobs()[0].state, of::JobState::kComplete);
  EXPECT_EQ(compute.completed_count(), 2u);
}

TEST_F(ComputeTest, BodyThatTouchesTheLoopFails) {
  of::BatchScheduler pbs(loop, 1);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::string fn = compute.register_function(
      "peek", [this](const Value&) { return Value(loop.now()); }, kMinute);
  ou::set_log_level(ou::LogLevel::kOff);
  std::string error;
  compute.execute(fn, Value(ou::ValueObject{}), token,
                  [&](const Value& result, const of::ComputeTaskRecord& rec) {
                    EXPECT_EQ(rec.status, of::ComputeTaskStatus::kFailed);
                    EXPECT_TRUE(result.is_null());
                    error = rec.error;
                  });
  loop.run_all();
  ou::set_log_level(ou::LogLevel::kWarn);
  EXPECT_NE(error.find("EventLoop::now called from inside a compute body"),
            std::string::npos)
      << error;
  // The loop thread itself is unaffected.
  EXPECT_EQ(loop.now(), kMinute);
}

TEST_F(ComputeTest, TaskContextDefersEffectsToTheJoinInOrder) {
  of::BatchScheduler pbs(loop, 2);
  of::ComputeEndpoint compute("compute", loop, auth, pbs);
  std::vector<std::string> effects;  // touched on the loop thread only
  std::string fn = compute.register_function(
      "ctx",
      [&effects](const Value& args) {
        of::TaskContext* ctx = of::TaskContext::current();
        EXPECT_NE(ctx, nullptr);
        if (ctx == nullptr) return Value(-1);
        std::string tag = args.at("tag").as_string();
        of::SimTime start = ctx->start();
        ctx->defer([&effects, tag, start] {
          effects.push_back(tag + "@" + std::to_string(start) + "/1");
        });
        ctx->defer([&effects, tag] { effects.push_back(tag + "/2"); });
        return Value(start);
      },
      kMinute);
  std::vector<std::string> seen_at_callback;
  for (const char* tag : {"a", "b", "c"}) {
    ou::ValueObject args;
    args["tag"] = Value(tag);
    compute.execute(fn, Value(args), token,
                    [&](const Value& r, const of::ComputeTaskRecord& rec) {
                      EXPECT_EQ(r.as_int(), rec.started);
                      seen_at_callback.push_back(
                          std::to_string(effects.size()));
                    });
  }
  EXPECT_EQ(of::TaskContext::current(), nullptr);
  loop.run_all();
  EXPECT_EQ(effects, (std::vector<std::string>{"a@0/1", "a/2", "b@0/1", "b/2",
                                               "c@60000/1", "c/2"}));
  // Each task's effects land before its own callback.
  EXPECT_EQ(seen_at_callback, (std::vector<std::string>{"2", "4", "6"}));
}

TEST_F(ComputeTest, DestroyingAnEndpointWaitsForItsRunningBodies) {
  of::BatchScheduler pbs(loop, 1);
  auto compute =
      std::make_unique<of::ComputeEndpoint>("compute", loop, auth, pbs);
  std::atomic<bool> finished{false};
  std::string fn = compute->register_function(
      "slow",
      [&finished](const Value& args) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        Value echo = args.at("payload");  // reads state the endpoint owns
        finished.store(true);
        return echo;
      },
      kMinute);
  ou::ValueObject args;
  args["payload"] = Value(std::string(256, 'x'));
  compute->execute(fn, Value(args), token, nullptr);
  loop.run_until(kSecond);  // started, not yet joined
  compute.reset();
  EXPECT_TRUE(finished.load());
}
