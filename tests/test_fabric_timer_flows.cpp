#include <gtest/gtest.h>

#include "fabric/flows.hpp"
#include "fabric/timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kSecond;

class TimerFlowsTest : public ::testing::Test {
 protected:
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::FlowsService flows{loop, auth};
  std::string token = auth.issue_full_token("user");
};

TEST_F(TimerFlowsTest, PeriodicFiring) {
  std::vector<of::SimTime> fires;
  timers.every(kDay, 6 * kHour, [&] { fires.push_back(loop.now()); }, token,
               "daily");
  loop.run_until(3 * kDay);
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], 6 * kHour);
  EXPECT_EQ(fires[1], kDay + 6 * kHour);
  EXPECT_EQ(fires[2], 2 * kDay + 6 * kHour);
  EXPECT_EQ(timers.total_fires(), 3u);
}

TEST_F(TimerFlowsTest, CancelStopsFiring) {
  int count = 0;
  of::TimerId id = timers.every(kHour, 0, [&] { ++count; }, token);
  loop.run_until(2 * kHour + kSecond);
  EXPECT_EQ(count, 3);  // t = 0, 1h, 2h
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));
  loop.run_until(10 * kHour);
  EXPECT_EQ(count, 3);
}

TEST_F(TimerFlowsTest, TimerCanCancelItself) {
  int count = 0;
  of::TimerId id = 0;
  id = timers.every(kHour, 0,
                    [&] {
                      if (++count == 2) timers.cancel(id);
                    },
                    token);
  loop.run_until(10 * kHour);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(timers.active_count(), 0u);
}

TEST_F(TimerFlowsTest, TimerCanCancelAnotherDueAtTheSameTime) {
  std::vector<std::string> fired;
  std::vector<bool> cancels;
  of::TimerId victim = 0;
  timers.every(kHour, kHour,
               [&] {
                 fired.push_back("killer");
                 cancels.push_back(timers.cancel(victim));
               },
               token);
  victim = timers.every(kHour, kHour, [&] { fired.push_back("victim"); },
                        token);
  // An earlier-armed timer due at the same instant cancels a later one
  // before it fires; a third timer is untouched.
  int bystander = 0;
  timers.every(kHour, kHour, [&] { ++bystander; }, token);
  loop.run_until(3 * kHour);
  EXPECT_EQ(fired, (std::vector<std::string>{"killer", "killer", "killer"}));
  EXPECT_EQ(cancels, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(bystander, 3);
  EXPECT_EQ(timers.active_count(), 2u);
  EXPECT_EQ(loop.pending(), 2u);  // the two survivors' next firings
}

TEST_F(TimerFlowsTest, TimerInstantsOnlyWhileTracing) {
  osprey::obs::TraceRecorder tracer;
  timers.set_tracer(&tracer);
  timers.every(kDay, 0, [] {}, token, "daily");
  timers.every(kDay, kHour, [] {}, token);  // unnamed: labelled by id
  loop.run_until(kDay + kHour);
  std::vector<osprey::obs::SpanRecord> spans = tracer.snapshot();
  const std::vector<std::pair<std::string, of::SimTime>> want = {
      {"timer:daily", 0},
      {"timer:1", kHour},
      {"timer:daily", kDay},
      {"timer:1", kDay + kHour}};
  ASSERT_EQ(spans.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].name, want[i].first);
    EXPECT_EQ(spans[i].begin_ns, osprey::obs::sim_ns(want[i].second));
    EXPECT_EQ(spans[i].category, osprey::obs::Category::kFlow);
    EXPECT_EQ(spans[i].parent, osprey::obs::kNoSpan);
    EXPECT_TRUE(spans[i].instant);
    EXPECT_TRUE(spans[i].detail.empty());
  }

  tracer.set_enabled(false);
  loop.run_until(3 * kDay + kHour);
  EXPECT_EQ(tracer.span_count(), want.size());
  EXPECT_EQ(timers.total_fires(), 8u);  // the timers kept firing
}

TEST_F(TimerFlowsTest, TimerRequiresScope) {
  std::string weak = auth.issue_token("weak", {of::scopes::kFlows});
  EXPECT_THROW(timers.every(kHour, 0, [] {}, weak), ou::AuthError);
  EXPECT_THROW(timers.every(0, 0, [] {}, token), ou::InvalidArgument);
}

TEST_F(TimerFlowsTest, FlowRunsStepsInOrder) {
  std::vector<std::string> order;
  of::FlowDefinition flow;
  flow.name = "pipeline";
  for (const std::string name : {"stage-in", "execute", "stage-out"}) {
    flow.steps.push_back(of::FlowStep{
        name, [&order, name](of::FlowRunContext&, of::StepDone done) {
          order.push_back(name);
          done(true, "");
        }});
  }
  bool finished = false;
  flows.run(flow, token,
            [&](const of::FlowRunRecord& rec, const ou::Value&) {
              finished = true;
              EXPECT_EQ(rec.status, of::FlowRunStatus::kSucceeded);
              EXPECT_EQ(rec.steps.size(), 3u);
            });
  loop.run_all();
  EXPECT_TRUE(finished);
  EXPECT_EQ(order,
            (std::vector<std::string>{"stage-in", "execute", "stage-out"}));
}

TEST_F(TimerFlowsTest, AsyncStepsCompleteLater) {
  of::FlowDefinition flow;
  flow.name = "async";
  flow.steps.push_back(of::FlowStep{
      "wait", [this](of::FlowRunContext&, of::StepDone done) {
        loop.schedule_after(5 * kSecond, [done] { done(true, ""); });
      }});
  flow.steps.push_back(of::FlowStep{
      "after", [this](of::FlowRunContext& ctx, of::StepDone done) {
        ctx.state["t"] = ou::Value(loop.now());
        done(true, "");
      }});
  of::SimTime second_step_time = -1;
  flows.run(flow, token,
            [&](const of::FlowRunRecord&, const ou::Value& state) {
              second_step_time = state.at("t").as_int();
            });
  loop.run_all();
  EXPECT_EQ(second_step_time, 5 * kSecond);
}

TEST_F(TimerFlowsTest, FailedStepAbortsFlow) {
  std::vector<std::string> ran;
  of::FlowDefinition flow;
  flow.name = "failing";
  flow.steps.push_back(of::FlowStep{
      "ok", [&](of::FlowRunContext&, of::StepDone done) {
        ran.push_back("ok");
        done(true, "");
      }});
  flow.steps.push_back(of::FlowStep{
      "boom", [&](of::FlowRunContext&, of::StepDone done) {
        ran.push_back("boom");
        done(false, "exploded");
      }});
  flow.steps.push_back(of::FlowStep{
      "never", [&](of::FlowRunContext&, of::StepDone done) {
        ran.push_back("never");
        done(true, "");
      }});
  of::FlowRunId id = flows.run(flow, token);
  loop.run_all();
  EXPECT_EQ(ran, (std::vector<std::string>{"ok", "boom"}));
  const of::FlowRunRecord& rec = flows.record(id);
  EXPECT_EQ(rec.status, of::FlowRunStatus::kFailed);
  EXPECT_EQ(rec.steps.back().error, "exploded");
  EXPECT_EQ(flows.runs_succeeded(), 0u);
}

TEST_F(TimerFlowsTest, ThrowingStepIsCaught) {
  of::FlowDefinition flow;
  flow.name = "thrower";
  flow.steps.push_back(of::FlowStep{
      "throws", [](of::FlowRunContext&, of::StepDone) {
        throw std::runtime_error("step exception");
      }});
  of::FlowRunId id = flows.run(flow, token);
  loop.run_all();
  EXPECT_EQ(flows.record(id).status, of::FlowRunStatus::kFailed);
  EXPECT_NE(flows.record(id).steps[0].error.find("step exception"),
            std::string::npos);
}

TEST_F(TimerFlowsTest, StateFlowsBetweenSteps) {
  of::FlowDefinition flow;
  flow.name = "stateful";
  flow.steps.push_back(
      of::FlowStep{"write", [](of::FlowRunContext& ctx, of::StepDone done) {
                     ctx.state["acc"] = ou::Value(std::int64_t{10});
                     done(true, "");
                   }});
  flow.steps.push_back(
      of::FlowStep{"add", [](of::FlowRunContext& ctx, of::StepDone done) {
                     ctx.state["acc"] =
                         ou::Value(ctx.state.at("acc").as_int() + 32);
                     done(true, "");
                   }});
  std::int64_t final_acc = 0;
  flows.run(flow, token,
            [&](const of::FlowRunRecord&, const ou::Value& state) {
              final_acc = state.at("acc").as_int();
            });
  loop.run_all();
  EXPECT_EQ(final_acc, 42);
}

TEST_F(TimerFlowsTest, EmptyFlowRejected) {
  of::FlowDefinition flow;
  flow.name = "empty";
  EXPECT_THROW(flows.run(flow, token), ou::InvalidArgument);
}
