#include "serve/frontend.hpp"

#include <utility>

#include "util/error.hpp"

namespace osprey::serve {

const char* serve_outcome_name(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kHit:        return "hit";
    case ServeOutcome::kMiss:       return "miss";
    case ServeOutcome::kRevalidate: return "revalidate";
    case ServeOutcome::kDenied:     return "denied";
    case ServeOutcome::kShed:       return "shed";
  }
  return "?";
}

namespace {

ServeOutcome to_serve_outcome(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit:        return ServeOutcome::kHit;
    case CacheOutcome::kMiss:       return ServeOutcome::kMiss;
    case CacheOutcome::kRevalidate: return ServeOutcome::kRevalidate;
  }
  return ServeOutcome::kMiss;
}

}  // namespace

FrontEnd::FrontEnd(fabric::EventLoop& loop, fabric::AuthService& auth,
                   ResultCache& cache, obs::MetricsRegistry& metrics,
                   FrontEndConfig config)
    : loop_(loop), auth_(auth), cache_(cache), config_(config) {
  served_ = &metrics.counter("serve_requests_served_total",
                             "requests completed with a cache outcome");
  shed_ = &metrics.counter("serve_requests_shed_total",
                           "requests rejected by admission control");
  denied_ = &metrics.counter("serve_requests_denied_total",
                             "requests whose token lacked the serve scope");
  queue_depth_gauge_ =
      &metrics.gauge("serve_queue_depth", "requests currently waiting");
  latency_ms_ = &metrics.histogram(
      "serve_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000},
      "end-to-end request latency including queueing (virtual ms)");
}

void FrontEnd::submit(ServeRequest request, Callback done) {
  SimTime now = loop_.now();
  try {
    auth_.validate(request.token, fabric::scopes::kServe);
  } catch (const osprey::util::AuthError&) {
    denied_->inc();
    ServeResponse resp;
    resp.outcome = ServeOutcome::kDenied;
    resp.enqueued_at = now;
    resp.completed_at = now;
    if (done) done(resp);
    return;
  }
  if (queue_.size() >= config_.max_queue_depth) {
    // Overload: refuse honestly and immediately. The queue bound keeps
    // tail latency finite; shed traffic is the pressure signal.
    shed_->inc();
    if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
      tracer->instant(obs::Category::kServe, "shed:" + request.uuid,
                      obs::sim_ns(now), obs::kNoSpan, request.tenant);
    }
    ServeResponse resp;
    resp.outcome = ServeOutcome::kShed;
    resp.enqueued_at = now;
    resp.completed_at = now;
    if (done) done(resp);
    return;
  }
  queue_.push_back(Queued{std::move(request), std::move(done), now});
  queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  pump();
}

void FrontEnd::pump() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  Queued q = std::move(queue_.front());
  queue_.pop_front();
  queue_depth_gauge_->set(static_cast<double>(queue_.size()));

  // The cache outcome is decided at dequeue time; the per-outcome
  // service time models the work that outcome costs.
  ResultCache::Result r = cache_.lookup(q.request.uuid);
  ServeOutcome outcome = to_serve_outcome(r.outcome);
  SimTime service = config_.hit_service_time;
  if (r.outcome == CacheOutcome::kMiss) {
    service = config_.miss_service_time;
  } else if (r.outcome == CacheOutcome::kRevalidate) {
    service = config_.revalidate_service_time;
  }

  obs::SpanId span = obs::kNoSpan;
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    span = tracer->begin_span(
        obs::Category::kServe, "serve:" + q.request.uuid,
        obs::sim_ns(loop_.now()), obs::kNoSpan,
        q.request.tenant + " " + serve_outcome_name(outcome));
  }

  loop_.schedule_after(
      service, [this, q = std::move(q), estimate = std::move(r.estimate),
                outcome, span]() mutable {
        finish(std::move(q.request), std::move(q.done), outcome,
               std::move(estimate), q.enqueued_at, span);
      });
}

void FrontEnd::finish(ServeRequest /*request*/, Callback done,
                      ServeOutcome outcome,
                      aero::AeroServer::ServedEstimate estimate,
                      SimTime enqueued_at, obs::SpanId span) {
  ServeResponse resp;
  resp.outcome = outcome;
  resp.estimate = std::move(estimate);
  resp.enqueued_at = enqueued_at;
  resp.completed_at = loop_.now();
  served_->inc();
  latency_ms_->observe(static_cast<double>(resp.latency()));
  if (tracer_ != nullptr) {
    tracer_->end_span(span, obs::sim_ns(loop_.now()), true);
  }
  busy_ = false;
  if (done) done(resp);
  pump();
}

}  // namespace osprey::serve
