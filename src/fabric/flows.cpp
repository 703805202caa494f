#include "fabric/flows.hpp"

#include <memory>

#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::fabric {

FlowsService::FlowsService(EventLoop& loop, AuthService& auth)
    : loop_(loop), auth_(auth) {}

void FlowsService::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    succeeded_ = &own_succeeded_;
    return;
  }
  succeeded_ = &metrics->counter("fabric_flow_runs_succeeded_total",
                                 "flow runs that completed every step");
}

FlowRunId FlowsService::run(const FlowDefinition& flow,
                            const std::string& token, RunCallback on_done,
                            osprey::util::Value initial_state) {
  auth_.validate(token, scopes::kFlows);
  OSPREY_REQUIRE(!flow.steps.empty(), "flow has no steps");
  FlowRunId id = records_.size();
  FlowRunRecord rec;
  rec.id = id;
  rec.flow_name = flow.name;
  rec.started = loop_.now();
  records_.push_back(rec);
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    records_[id].trace_span = tracer->begin_span(
        obs::Category::kFlow, "flow:" + flow.name, obs::sim_ns(rec.started));
  }

  auto active = std::make_shared<ActiveRun>();
  active->flow = flow;
  active->context.run_id = id;
  active->context.state = std::move(initial_state);
  active->on_done = std::move(on_done);

  loop_.schedule_after(0, [this, active] { advance(active); });
  return id;
}

void FlowsService::advance(std::shared_ptr<ActiveRun> run) {
  FlowRunRecord& rec = records_[run->context.run_id];
  if (run->next_step >= run->flow.steps.size()) {
    finish(run, FlowRunStatus::kSucceeded);
    return;
  }
  std::size_t step_index = run->next_step++;
  const FlowStep& step = run->flow.steps[step_index];
  rec.steps.push_back(
      StepRecord{step.name, loop_.now(), -1, false, "", obs::kNoSpan});
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    rec.steps.back().trace_span = tracer->begin_span(
        obs::Category::kFlow, "step:" + step.name, obs::sim_ns(loop_.now()),
        rec.trace_span, rec.flow_name);
  }
  OSPREY_LOG_DEBUG("flows", rec.flow_name << " step '" << step.name << "'");

  // The completion continuation may fire later in virtual time.
  auto done = [this, run, step_index](bool ok, const std::string& error) {
    FlowRunRecord& r = records_[run->context.run_id];
    StepRecord& sr = r.steps[step_index];
    sr.ended = loop_.now();
    sr.ok = ok;
    sr.error = error;
    if (tracer_ != nullptr) {
      tracer_->end_span(sr.trace_span, obs::sim_ns(sr.ended), ok, error);
    }
    if (!ok) {
      OSPREY_LOG_WARN("flows", r.flow_name << " step '" << sr.name
                                           << "' failed: " << error);
      finish(run, FlowRunStatus::kFailed);
      return;
    }
    advance(run);
  };

  auto invoke = [this, run, step_index, done] {
    const FlowStep& s = run->flow.steps[step_index];
    // Transfers/compute submitted by the step body nest under its span.
    obs::CurrentSpanGuard span_guard(
        records_[run->context.run_id].steps[step_index].trace_span);
    try {
      s.fn(run->context, done);
    } catch (const std::exception& e) {
      done(false, e.what());
    }
  };
  if (plan_ != nullptr &&
      plan_->should_inject(FaultKind::kFlowStall, "flows", rec.flow_name,
                           loop_.now())) {
    // The step starts late; the flow itself still completes, so stalls
    // surface as latency, not failure.
    loop_.schedule_after(plan_->stall_delay, invoke);
    return;
  }
  invoke();
}

void FlowsService::finish(std::shared_ptr<ActiveRun> run,
                          FlowRunStatus status) {
  FlowRunRecord& rec = records_[run->context.run_id];
  rec.status = status;
  rec.ended = loop_.now();
  if (tracer_ != nullptr) {
    tracer_->end_span(rec.trace_span, obs::sim_ns(rec.ended),
                      status == FlowRunStatus::kSucceeded);
  }
  if (status == FlowRunStatus::kSucceeded) succeeded_->inc();
  if (run->on_done) run->on_done(rec, run->context.state);
}

const FlowRunRecord& FlowsService::record(FlowRunId id) const {
  OSPREY_REQUIRE(id < records_.size(), "unknown flow run id");
  return records_[id];
}

}  // namespace osprey::fabric
