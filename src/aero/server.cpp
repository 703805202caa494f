#include "aero/server.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace osprey::aero {

using osprey::util::Value;
using osprey::util::ValueObject;

namespace {

/// The retry policy a flow actually runs with: the spec's full policy
/// when enabled, otherwise one synthesized from the legacy
/// max_retries/retry_backoff knobs (exponential, multiplier 2, capped at
/// 8x the initial backoff, no jitter).
osprey::util::RetryPolicy effective_policy(const IngestionFlowSpec& spec) {
  if (spec.retry.enabled()) return spec.retry;
  osprey::util::RetryPolicy policy;
  policy.max_attempts = spec.max_retries;
  policy.initial_backoff = spec.retry_backoff;
  return policy;
}

osprey::util::RetryPolicy effective_policy(const AnalysisFlowSpec& spec) {
  if (spec.retry.enabled()) return spec.retry;
  osprey::util::RetryPolicy policy;
  policy.max_attempts = spec.max_retries;
  policy.initial_backoff = spec.retry_backoff;
  return policy;
}

/// Degradation reason recorded while an upstream source outage window
/// is active. Matched verbatim when the source answers again so only
/// outage-caused degradation is lifted by a successful fetch.
constexpr const char* kOutageReason = "upstream source outage";

/// Probe time after a breaker denies a trigger: one tick past its
/// reopen time. The breaker is open by construction here (allow() just
/// returned false with the breaker enabled), so reopen_at() is engaged;
/// fall back to the next tick if that invariant ever changes.
SimTime probe_time(const osprey::util::CircuitBreaker& breaker, SimTime now) {
  return breaker.reopen_at().value_or(now) + 1;
}

}  // namespace

AeroServer::AeroServer(fabric::EventLoop& loop, fabric::AuthService& auth,
                       fabric::TimerService& timers,
                       fabric::TransferService& transfers,
                       fabric::FlowsService& flows, std::string identity,
                       obs::MetricsRegistry* metrics, std::uint64_t uuid_seed)
    : loop_(loop),
      auth_(auth),
      timers_(timers),
      transfers_(transfers),
      flows_(flows),
      identity_(std::move(identity)),
      token_(auth.issue_full_token(identity_)),
      db_(uuid_seed) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  polls_ = &metrics->counter("aero_polls_total",
                             "upstream source polls performed");
  updates_detected_ = &metrics->counter(
      "aero_updates_detected_total", "polls whose payload checksum changed");
  ingestion_runs_ = &metrics->counter("aero_ingestion_runs_total",
                                      "ingestion flow runs started");
  analysis_triggers_ = &metrics->counter(
      "aero_analysis_triggers_total", "analysis trigger evaluations that fired");
  analysis_runs_ = &metrics->counter("aero_analysis_runs_total",
                                     "analysis flow runs started");
  failed_runs_ = &metrics->counter("aero_failed_runs_total",
                                   "ingestion or analysis runs that failed");
  retries_ = &metrics->counter("aero_retries_total",
                               "retry runs scheduled after a failure");
  fetch_errors_ = &metrics->counter("aero_fetch_errors_total",
                                    "upstream fetches that raised");
  ingestion_permanent_ = &metrics->counter(
      "aero_ingestion_permanent_failures_total",
      "ingestion triggers that exhausted their retry budget");
  analysis_permanent_ = &metrics->counter(
      "aero_analysis_permanent_failures_total",
      "analysis triggers that exhausted their retry budget");
  superseded_triggers_ = &metrics->counter(
      "aero_superseded_triggers_total",
      "triggers whose payload was replaced by fresher upstream data");
  deferred_triggers_ = &metrics->counter(
      "aero_deferred_triggers_total",
      "triggers deferred because a circuit breaker was open");
  stale_serves_ = &metrics->counter("aero_stale_serves_total",
                                    "serve_latest calls answered stale");
  // Every version bump — flow-published or registered directly on the
  // db — flows through to the serving-tier update listeners, so a cache
  // can never keep serving a superseded version as a hit.
  db_.set_version_listener(
      [this](const std::string& uuid, int) { notify_updated(uuid); });
}

RecoveryStats AeroServer::enable_durability(osprey::util::DurableFs& fs,
                                            WalOptions options) {
  OSPREY_REQUIRE(wal_ == nullptr, "durability is already enabled");
  OSPREY_REQUIRE(db_.update_count() == 0,
                 "enable_durability must precede flow registration");
  wal_ = std::make_unique<Wal>(fs, std::move(options), metrics_, tracer_,
                               [this] { return obs::sim_ns(loop_.now()); });
  RecoveryStats stats = wal_->recover(db_);
  // Runs in flight at the crash can never complete — their compute and
  // transfers died with the process. Adjudicate them failed (through
  // the WAL, so the adjudication itself is durable) and leave a
  // recovery incident; re-triggers then start from clean provenance.
  for (const RunRecord& run : db_.runs()) {
    if (run.status != RunStatus::kRunning) continue;
    std::uint64_t run_id = run.run_id;
    db_.finish_run(run_id, RunStatus::kFailed, {}, loop_.now());
    record_incident(fabric::IncidentCategory::kRecovery, "run-interrupted",
                    run.flow_name,
                    "run #" + std::to_string(run_id) +
                        " adjudicated failed by crash recovery");
  }
  // Re-announce every recovered object: any serving-tier cache that
  // re-attaches after the restart starts from invalidated entries, so a
  // pre-crash answer can never be served as fresh.
  for (const std::string& uuid : db_.object_uuids()) {
    notify_updated(uuid);
  }
  if (stats.checkpoint_loaded || stats.replayed > 0) {
    OSPREY_LOG_INFO("aero", "recovered metadata: checkpoint lsn "
                            << stats.checkpoint_lsn << ", " << stats.replayed
                            << " WAL record(s) replayed, " << stats.torn
                            << " torn, " << stats.corrupt << " corrupt");
  }
  return stats;
}

std::string AeroServer::intern_object(const std::string& name,
                                      const std::string& producer) {
  for (const MetadataDb::ObjectSummary& s : db_.find_objects(name)) {
    if (s.name == name && s.producer_flow == producer) return s.uuid;
  }
  return db_.register_object(name, producer);
}

IngestionHandles AeroServer::register_ingestion(IngestionFlowSpec spec) {
  OSPREY_REQUIRE(spec.source != nullptr, "ingestion needs a data source");
  OSPREY_REQUIRE(spec.compute != nullptr, "ingestion needs a compute endpoint");
  OSPREY_REQUIRE(spec.staging != nullptr && spec.storage != nullptr,
                 "ingestion needs staging and storage endpoints");
  OSPREY_REQUIRE(spec.compute->has_function(spec.function_id),
                 "transformation function is not registered on the endpoint");

  Ingestion ing;
  ing.raw_uuid = intern_object(spec.name + "/raw", spec.name);
  ing.output_uuid = intern_object(spec.name + "/transformed", spec.name);
  ing.retry = effective_policy(spec);
  ing.breaker = osprey::util::CircuitBreaker(spec.breaker);
  ing.retry_key = osprey::util::stable_key(spec.name.c_str());
  ing.spec = std::move(spec);

  std::size_t index = ingestions_.size();
  ingestions_.push_back(std::move(ing));

  Ingestion& stored = ingestions_[index];
  stored.timer = timers_.every(
      stored.spec.poll_period, stored.spec.first_poll,
      [this, index] { poll_ingestion(index); }, token_,
      "poll:" + stored.spec.name);

  OSPREY_LOG_INFO("aero", "registered ingestion flow '" << stored.spec.name
                          << "' polling " << stored.spec.source->url());
  return IngestionHandles{stored.raw_uuid, stored.output_uuid, stored.timer};
}

AeroServer::Ingestion* AeroServer::find_ingestion(const std::string& name) {
  for (Ingestion& ing : ingestions_) {
    if (ing.spec.name == name) return &ing;
  }
  return nullptr;
}

const AeroServer::Ingestion* AeroServer::find_ingestion(
    const std::string& name) const {
  for (const Ingestion& ing : ingestions_) {
    if (ing.spec.name == name) return &ing;
  }
  return nullptr;
}

bool AeroServer::pause_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled || ing->paused) return false;
  timers_.cancel(ing->timer);
  ing->paused = true;
  OSPREY_LOG_INFO("aero", "paused ingestion '" << name << "'");
  return true;
}

bool AeroServer::resume_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled || !ing->paused) return false;
  // Re-arm at the next period boundary after "now".
  std::size_t index = static_cast<std::size_t>(ing - ingestions_.data());
  ing->timer = timers_.every(
      ing->spec.poll_period, loop_.now() + ing->spec.poll_period,
      [this, index] { poll_ingestion(index); }, token_,
      "poll:" + ing->spec.name);
  ing->paused = false;
  OSPREY_LOG_INFO("aero", "resumed ingestion '" << name << "'");
  return true;
}

bool AeroServer::ingestion_paused(const std::string& name) const {
  const Ingestion* ing = find_ingestion(name);
  return ing != nullptr && ing->paused;
}

bool AeroServer::cancel_ingestion(const std::string& name) {
  Ingestion* ing = find_ingestion(name);
  if (ing == nullptr || ing->cancelled) return false;
  if (!ing->paused) timers_.cancel(ing->timer);
  ing->cancelled = true;
  ing->paused = false;
  OSPREY_LOG_INFO("aero", "cancelled ingestion '" << name << "'");
  return true;
}

std::vector<std::string> AeroServer::register_analysis(AnalysisFlowSpec spec) {
  OSPREY_REQUIRE(!spec.input_uuids.empty(), "analysis needs input UUIDs");
  OSPREY_REQUIRE(spec.compute != nullptr, "analysis needs a compute endpoint");
  OSPREY_REQUIRE(spec.staging != nullptr && spec.storage != nullptr,
                 "analysis needs staging and storage endpoints");
  OSPREY_REQUIRE(!spec.output_names.empty(), "analysis needs output names");
  OSPREY_REQUIRE(spec.compute->has_function(spec.function_id),
                 "analysis function is not registered on the endpoint");
  for (const std::string& uuid : spec.input_uuids) {
    OSPREY_REQUIRE(db_.has_object(uuid), "unknown input UUID: " + uuid);
  }

  Analysis analysis;
  for (const std::string& name : spec.output_names) {
    analysis.output_uuids.push_back(
        intern_object(spec.name + "/" + name, spec.name));
  }
  for (const std::string& uuid : spec.input_uuids) {
    analysis.consumed_version[uuid] = db_.latest_version_number(uuid);
  }
  analysis.retry = effective_policy(spec);
  analysis.breaker = osprey::util::CircuitBreaker(spec.breaker);
  analysis.retry_key = osprey::util::stable_key(spec.name.c_str());
  analysis.spec = std::move(spec);

  std::vector<std::string> outputs = analysis.output_uuids;
  analyses_.push_back(std::move(analysis));
  OSPREY_LOG_INFO("aero", "registered analysis flow '"
                          << analyses_.back().spec.name << "' with "
                          << analyses_.back().spec.input_uuids.size()
                          << " input(s)");
  return outputs;
}

void AeroServer::poll_ingestion(std::size_t index) {
  Ingestion& ing = ingestions_[index];
  polls_->inc();
  // Injected upstream outage: the source is unreachable for the whole
  // window, so every poll inside it is one failed fetch.
  if (plan_ != nullptr &&
      plan_->in_window(fabric::FaultKind::kSourceOutage, "aero",
                       ing.spec.name, loop_.now())) {
    fetch_errors_->inc();
    OSPREY_LOG_WARN("aero", "fetch failed for '" << ing.spec.name
                            << "': upstream outage (injected)");
    // An unreachable upstream means the last-good estimates may lag
    // reality: flag the flow's data products stale until the source
    // answers again, so the serving tier never labels them fresh.
    // Guarded so a multi-day outage degrades once, not once per poll,
    // and never overwrites a stronger reason (retry exhaustion).
    if (degraded_.find(ing.output_uuid) == degraded_.end()) {
      mark_degraded({ing.raw_uuid, ing.output_uuid}, ing.spec.name,
                    kOutageReason);
    }
    return;
  }
  // A flaky upstream must not take the whole server down; failed
  // fetches are counted and retried on the next poll.
  std::optional<std::string> payload;
  try {
    payload = ing.spec.source->fetch(loop_.now());
  } catch (const std::exception& e) {
    fetch_errors_->inc();
    OSPREY_LOG_WARN("aero", "fetch failed for '" << ing.spec.name
                            << "': " << e.what());
    return;
  }
  // The source answered: lift outage-caused degradation. Other reasons
  // (an exhausted retry budget) stand until a fresh version publishes.
  auto deg = degraded_.find(ing.output_uuid);
  if (deg != degraded_.end() && deg->second == kOutageReason) {
    clear_degraded({ing.raw_uuid, ing.output_uuid}, ing.spec.name);
  }
  if (!payload.has_value()) return;
  // Identical bytes hash to an identical checksum: skip the SHA-256 on
  // an unchanged poll. This is pure short-circuit — the checksum
  // comparison below is unchanged for payloads that differ.
  if (ing.last_payload.has_value() && *payload == *ing.last_payload) return;
  std::string checksum = osprey::crypto::Sha256::hash_hex(*payload);
  ing.last_payload = *payload;
  if (checksum == ing.last_checksum) return;  // no upstream change

  updates_detected_->inc();
  ing.last_checksum = checksum;
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    tracer->instant(obs::Category::kAero, "update:" + ing.spec.name,
                    obs::sim_ns(loop_.now()), obs::kNoSpan,
                    "checksum " + checksum.substr(0, 12));
  }
  OSPREY_LOG_INFO("aero", "update detected for '" << ing.spec.name << "' at "
                          << osprey::util::format_sim_time(loop_.now()));
  if (ing.running) {
    // A new upstream version arrived mid-run; remember the freshest one.
    if (ing.pending) {
      superseded_triggers_->inc();
      record_incident(fabric::IncidentCategory::kRecovery,
                      "trigger-superseded", ing.spec.name,
                      "queued payload replaced by fresher upstream data");
    }
    ing.pending = true;
    ing.pending_payload = std::move(*payload);
    return;
  }
  if (!ing.breaker.allow(loop_.now())) {
    // Circuit open: park the payload and probe when the breaker is
    // willing to admit traffic again.
    deferred_triggers_->inc();
    if (ing.pending) {
      superseded_triggers_->inc();
      record_incident(fabric::IncidentCategory::kRecovery,
                      "trigger-superseded", ing.spec.name,
                      "deferred payload replaced by fresher upstream data");
    }
    ing.pending = true;
    ing.pending_payload = std::move(*payload);
    SimTime probe = probe_time(ing.breaker, loop_.now());
    record_incident(fabric::IncidentCategory::kDegraded, "trigger-deferred",
                    ing.spec.name, "circuit open; probe at " +
                        osprey::util::format_sim_time(probe));
    schedule_ingestion_probe(index, probe);
    return;
  }
  ing.attempts = 0;  // fresh trigger
  ++ing.trigger_gen;
  run_ingestion_flow(index, std::move(*payload), "poll:" + ing.spec.source->url());
}

void AeroServer::run_ingestion_flow(std::size_t index, std::string payload,
                                    const std::string& trigger) {
  Ingestion& ing = ingestions_[index];
  ing.running = true;
  ing.current_payload = payload;  // kept in case the run must be retried
  ingestion_runs_->inc();
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    // Top-level span for the whole ingest run; the wrapped flow and its
    // steps (and their transfers/compute tasks) nest underneath.
    ing.span = tracer->begin_span(obs::Category::kAero,
                                  "ingest:" + ing.spec.name,
                                  obs::sim_ns(loop_.now()), obs::kNoSpan,
                                  trigger);
  }

  const IngestionFlowSpec& spec = ing.spec;
  std::string raw_path = spec.base_path + "/raw";
  std::string out_path = spec.base_path + "/transformed";

  std::uint64_t run_id =
      db_.start_run(spec.name, FlowKind::kIngestion, trigger, {},
                    spec.compute->name(), loop_.now());

  // Shared run state the steps hand forward.
  auto payload_ptr = std::make_shared<std::string>(std::move(payload));
  auto output_ptr = std::make_shared<std::string>();

  fabric::FlowDefinition flow;
  flow.name = spec.name;

  // Step 1: upload the raw payload. It lands in compute-local staging
  // (the "temporarily sent to a Globus Compute endpoint" hop) and is
  // transferred to the durable user collection.
  flow.steps.push_back(fabric::FlowStep{
      "upload-raw",
      [this, index, payload_ptr, raw_path](fabric::FlowRunContext&,
                                           fabric::StepDone done) {
        Ingestion& ing2 = ingestions_[index];
        const IngestionFlowSpec& s = ing2.spec;
        s.staging->put(s.staging_collection, raw_path, *payload_ptr, token_);
        transfers_.transfer(
            *s.staging, s.staging_collection, raw_path, *s.storage,
            s.collection, raw_path, token_,
            [this, index, raw_path, done](const fabric::TransferRecord& rec) {
              if (rec.status != fabric::TransferStatus::kSucceeded) {
                done(false, "raw upload failed: " + rec.error);
                return;
              }
              Ingestion& ing3 = ingestions_[index];
              const IngestionFlowSpec& s3 = ing3.spec;
              db_.add_version(ing3.raw_uuid, rec.checksum, rec.bytes,
                              loop_.now(), s3.storage->name(), s3.collection,
                              raw_path);
              done(true, "");
            });
      }});

  // Step 2: run the user's validation/transformation function on the
  // compute endpoint, with the staged data as input.
  flow.steps.push_back(fabric::FlowStep{
      "transform",
      [this, index, payload_ptr, output_ptr](fabric::FlowRunContext&,
                                             fabric::StepDone done) {
        Ingestion& ing2 = ingestions_[index];
        const IngestionFlowSpec& s = ing2.spec;
        ValueObject args;
        args["input"] = Value(*payload_ptr);
        args["url"] = Value(s.source->url());
        args["args"] = s.function_args;
        s.compute->execute(
            s.function_id, Value(std::move(args)), token_,
            [output_ptr, done](const Value& result,
                               const fabric::ComputeTaskRecord& rec) {
              if (rec.status != fabric::ComputeTaskStatus::kSucceeded) {
                done(false, "transformation failed: " + rec.error);
                return;
              }
              if (!result.contains("output")) {
                done(false, "transformation returned no 'output'");
                return;
              }
              *output_ptr = result.at("output").as_string();
              done(true, "");
            });
      }});

  // Step 3: upload the transformed file to the user collection.
  flow.steps.push_back(fabric::FlowStep{
      "stage-out",
      [this, index, output_ptr, out_path](fabric::FlowRunContext&,
                                          fabric::StepDone done) {
        Ingestion& ing2 = ingestions_[index];
        const IngestionFlowSpec& s = ing2.spec;
        s.staging->put(s.staging_collection, out_path, *output_ptr, token_);
        transfers_.transfer(
            *s.staging, s.staging_collection, out_path, *s.storage,
            s.collection, out_path, token_,
            [done](const fabric::TransferRecord& rec) {
              done(rec.status == fabric::TransferStatus::kSucceeded,
                   rec.error);
            });
      }});

  // Step 4: register versioning metadata for the transformed output;
  // this is what triggers dependent analysis flows.
  flow.steps.push_back(fabric::FlowStep{
      "register-metadata",
      [this, index, output_ptr, out_path](fabric::FlowRunContext&,
                                          fabric::StepDone done) {
        Ingestion& ing2 = ingestions_[index];
        const IngestionFlowSpec& s = ing2.spec;
        std::string checksum = osprey::crypto::Sha256::hash_hex(*output_ptr);
        db_.add_version(ing2.output_uuid, checksum, output_ptr->size(),
                        loop_.now(), s.storage->name(), s.collection,
                        out_path);
        done(true, "");
      }});

  // The flow span (and everything the steps submit) nests under the
  // ingest span.
  obs::CurrentSpanGuard ingest_guard(ing.span);
  flows_.run(flow, token_,
             [this, index, run_id](const fabric::FlowRunRecord& rec,
                                   const Value&) {
               Ingestion& ing2 = ingestions_[index];
               bool ok = rec.status == fabric::FlowRunStatus::kSucceeded;
               // Incidents recorded below correlate with this run's span.
               obs::CurrentSpanGuard run_guard(ing2.span);
               if (tracer_ != nullptr && ing2.span != obs::kNoSpan) {
                 std::string err;
                 for (const fabric::StepRecord& sr : rec.steps) {
                   if (!sr.ok && !sr.error.empty()) err = sr.error;
                 }
                 tracer_->end_span(ing2.span, obs::sim_ns(loop_.now()), ok,
                                   err);
                 ing2.span = obs::kNoSpan;
               }
               std::vector<VersionRef> outputs;
               if (ok) {
                 outputs.push_back(VersionRef{
                     ing2.raw_uuid, db_.latest_version_number(ing2.raw_uuid)});
                 outputs.push_back(
                     VersionRef{ing2.output_uuid,
                                db_.latest_version_number(ing2.output_uuid)});
               } else {
                 failed_runs_->inc();
               }
               db_.finish_run(run_id,
                              ok ? RunStatus::kSucceeded : RunStatus::kFailed,
                              outputs, loop_.now());
               ing2.running = false;
               note_run_outcome(ing2.breaker, ing2.spec.name, ok);
               std::string output_uuid = ing2.output_uuid;
               if (ok) {
                 clear_degraded({ing2.raw_uuid, ing2.output_uuid},
                                ing2.spec.name);
                 on_version_added(output_uuid,
                                  "update of " + ing2.spec.name);
               } else if (ing2.attempts < ing2.retry.max_attempts &&
                          !ing2.pending) {
                 // Retry the same payload after a (jittered) backoff.
                 ++ing2.attempts;
                 retries_->inc();
                 int attempt = ing2.attempts;
                 std::uint64_t gen = ing2.trigger_gen;
                 SimTime delay = ing2.retry.jittered(attempt, ing2.retry_key);
                 record_incident(
                     fabric::IncidentCategory::kRecovery, "retry-scheduled",
                     ing2.spec.name,
                     "attempt " + std::to_string(attempt) + " in " +
                         osprey::util::format_duration(delay));
                 loop_.schedule_after(delay, [this, index, attempt, gen] {
                   fire_ingestion_retry(index, attempt, gen);
                 });
                 return;
               } else if (!ok) {
                 if (ing2.pending) {
                   // The failed payload is obsolete: fresher upstream
                   // data is queued and takes over below.
                   superseded_triggers_->inc();
                   record_incident(
                       fabric::IncidentCategory::kRecovery,
                       "trigger-superseded", ing2.spec.name,
                       "failed payload replaced by fresher upstream data");
                 } else {
                   ingestion_permanent_->inc();
                   mark_degraded({ing2.output_uuid}, ing2.spec.name,
                                 "ingestion '" + ing2.spec.name +
                                     "' exhausted its retry budget");
                 }
               }
               // Re-run for any upstream update that arrived meanwhile.
               Ingestion& ing3 = ingestions_[index];
               if (ing3.pending) {
                 if (!ing3.breaker.allow(loop_.now())) {
                   deferred_triggers_->inc();
                   SimTime probe = probe_time(ing3.breaker, loop_.now());
                   record_incident(
                       fabric::IncidentCategory::kDegraded,
                       "trigger-deferred", ing3.spec.name,
                       "circuit open; probe at " +
                           osprey::util::format_sim_time(probe));
                   schedule_ingestion_probe(index, probe);
                   return;
                 }
                 ing3.pending = false;
                 ing3.attempts = 0;
                 ++ing3.trigger_gen;
                 std::string payload2 = std::move(ing3.pending_payload);
                 run_ingestion_flow(index, std::move(payload2),
                                    "poll(pending):" +
                                        ing3.spec.source->url());
               }
             });
}

void AeroServer::fire_ingestion_retry(std::size_t index, int attempt,
                                      std::uint64_t gen) {
  Ingestion& ing = ingestions_[index];
  if (ing.cancelled) return;
  if (gen != ing.trigger_gen || ing.running) {
    // A fresh trigger took over while this retry waited; its payload
    // will never publish.
    superseded_triggers_->inc();
    record_incident(fabric::IncidentCategory::kRecovery,
                    "trigger-superseded", ing.spec.name,
                    "retry " + std::to_string(attempt) +
                        " obsolete: newer trigger in flight");
    return;
  }
  if (!ing.breaker.allow(loop_.now())) {
    // Breaker still open: push the retry past its reopen time without
    // consuming another attempt.
    loop_.schedule_at(std::max(probe_time(ing.breaker, loop_.now()),
                               loop_.now() + 1),
                      [this, index, attempt, gen] {
                        fire_ingestion_retry(index, attempt, gen);
                      });
    return;
  }
  run_ingestion_flow(index, ing.current_payload,
                     "retry " + std::to_string(attempt) + ":" +
                         ing.spec.source->url());
}

void AeroServer::schedule_ingestion_probe(std::size_t index, SimTime at) {
  loop_.schedule_at(std::max(at, loop_.now() + 1), [this, index] {
    Ingestion& ing = ingestions_[index];
    if (ing.cancelled || ing.running || !ing.pending) return;
    osprey::util::BreakerState before = ing.breaker.state();
    if (!ing.breaker.allow(loop_.now())) {
      schedule_ingestion_probe(index, probe_time(ing.breaker, loop_.now()));
      return;
    }
    if (before == osprey::util::BreakerState::kOpen) {
      record_incident(fabric::IncidentCategory::kRecovery,
                      "circuit-half-open", ing.spec.name,
                      "admitting probe run");
    }
    ing.pending = false;
    ing.attempts = 0;
    ++ing.trigger_gen;
    std::string payload = std::move(ing.pending_payload);
    run_ingestion_flow(index, std::move(payload),
                       "probe:" + ing.spec.source->url());
  });
}

bool AeroServer::analysis_ready(const Analysis& analysis) const {
  if (analysis.spec.policy == TriggerPolicy::kAny) {
    for (const std::string& uuid : analysis.spec.input_uuids) {
      if (db_.latest_version_number(uuid) >
          analysis.consumed_version.at(uuid)) {
        return true;
      }
    }
    return false;
  }
  // ALL: every input must have a version newer than the last consumed.
  for (const std::string& uuid : analysis.spec.input_uuids) {
    if (db_.latest_version_number(uuid) <=
        analysis.consumed_version.at(uuid)) {
      return false;
    }
  }
  return true;
}

void AeroServer::on_version_added(const std::string& uuid,
                                  const std::string& cause) {
  for (std::size_t i = 0; i < analyses_.size(); ++i) {
    Analysis& analysis = analyses_[i];
    bool is_input = false;
    for (const std::string& input : analysis.spec.input_uuids) {
      if (input == uuid) {
        is_input = true;
        break;
      }
    }
    if (!is_input) continue;
    if (!analysis_ready(analysis)) continue;
    analysis_triggers_->inc();
    if (analysis.running) {
      analysis.pending = true;
      analysis.pending_cause = cause;
      continue;
    }
    if (!analysis.breaker.allow(loop_.now())) {
      deferred_triggers_->inc();
      analysis.pending = true;
      analysis.pending_cause = cause;
      SimTime probe = probe_time(analysis.breaker, loop_.now());
      record_incident(fabric::IncidentCategory::kDegraded, "trigger-deferred",
                      analysis.spec.name,
                      "circuit open; probe at " +
                          osprey::util::format_sim_time(probe));
      schedule_analysis_probe(i, probe);
      continue;
    }
    analysis.attempts = 0;  // fresh trigger
    ++analysis.trigger_gen;
    run_analysis_flow(i, cause);
  }
}

void AeroServer::run_analysis_flow(std::size_t index,
                                   const std::string& trigger) {
  Analysis& analysis = analyses_[index];
  analysis.running = true;
  analysis_runs_->inc();
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    analysis.span = tracer->begin_span(
        obs::Category::kAero, "analyze:" + analysis.spec.name,
        obs::sim_ns(loop_.now()), obs::kNoSpan, trigger);
  }

  const AnalysisFlowSpec& spec = analysis.spec;

  // Snapshot the input versions this run consumes.
  std::vector<VersionRef> inputs;
  for (const std::string& uuid : spec.input_uuids) {
    int v = db_.latest_version_number(uuid);
    inputs.push_back(VersionRef{uuid, v});
    analysis.consumed_version[uuid] = v;
  }

  std::uint64_t run_id = db_.start_run(spec.name, FlowKind::kAnalysis,
                                       trigger, inputs, spec.compute->name(),
                                       loop_.now());

  auto staged = std::make_shared<std::map<std::string, std::string>>();
  auto outputs = std::make_shared<std::map<std::string, std::string>>();

  fabric::FlowDefinition flow;
  flow.name = spec.name;

  // Step 1: stage every input from the durable collection to the
  // compute endpoint's temporary space.
  flow.steps.push_back(fabric::FlowStep{
      "stage-in",
      [this, index, staged](fabric::FlowRunContext&, fabric::StepDone done) {
        Analysis& a = analyses_[index];
        const AnalysisFlowSpec& s = a.spec;
        auto remaining =
            std::make_shared<std::size_t>(s.input_uuids.size());
        auto failed = std::make_shared<bool>(false);
        for (const std::string& uuid : s.input_uuids) {
          std::optional<DataVersion> ver = db_.latest_version(uuid);
          if (!ver.has_value()) {
            done(false, "input has no version: " + uuid);
            return;
          }
          std::string staging_path = "stage/" + uuid;
          transfers_.transfer(
              *s.storage, ver->collection, ver->path, *s.staging,
              s.staging_collection, staging_path, token_,
              [this, index, uuid, staged, staging_path, remaining, failed,
               done](const fabric::TransferRecord& rec) {
                if (*failed) return;
                if (rec.status != fabric::TransferStatus::kSucceeded) {
                  *failed = true;
                  done(false, "stage-in failed: " + rec.error);
                  return;
                }
                Analysis& a2 = analyses_[index];
                // The read can fail too (expired token, ACL race); that
                // must fail the step, not escape into the event loop.
                try {
                  const fabric::StoredObject& obj = a2.spec.staging->get(
                      a2.spec.staging_collection, staging_path, token_);
                  (*staged)[uuid] = obj.bytes;
                } catch (const osprey::util::Error& e) {
                  *failed = true;
                  done(false, std::string("stage-in read failed: ") +
                                  e.what());
                  return;
                }
                if (--(*remaining) == 0) done(true, "");
              });
        }
      }});

  // Step 2: run the user analysis function with the staged inputs.
  flow.steps.push_back(fabric::FlowStep{
      "execute",
      [this, index, staged, outputs](fabric::FlowRunContext&,
                                     fabric::StepDone done) {
        Analysis& a = analyses_[index];
        const AnalysisFlowSpec& s = a.spec;
        ValueObject input_obj;
        for (const auto& [uuid, bytes] : *staged) {
          input_obj[uuid] = Value(bytes);
        }
        ValueObject args;
        args["inputs"] = Value(std::move(input_obj));
        args["args"] = s.function_args;
        s.compute->execute(
            s.function_id, Value(std::move(args)), token_,
            [index, outputs, done, this](const Value& result,
                                         const fabric::ComputeTaskRecord& rec) {
              if (rec.status != fabric::ComputeTaskStatus::kSucceeded) {
                done(false, "analysis failed: " + rec.error);
                return;
              }
              if (!result.contains("outputs")) {
                done(false, "analysis returned no 'outputs'");
                return;
              }
              Analysis& a2 = analyses_[index];
              for (const std::string& name : a2.spec.output_names) {
                if (!result.at("outputs").contains(name)) {
                  done(false, "analysis missing output: " + name);
                  return;
                }
                (*outputs)[name] =
                    result.at("outputs").at(name).as_string();
              }
              done(true, "");
            });
      }});

  // Step 3: upload every output to the durable collection.
  flow.steps.push_back(fabric::FlowStep{
      "stage-out",
      [this, index, outputs](fabric::FlowRunContext&, fabric::StepDone done) {
        Analysis& a = analyses_[index];
        const AnalysisFlowSpec& s = a.spec;
        auto remaining = std::make_shared<std::size_t>(s.output_names.size());
        auto failed = std::make_shared<bool>(false);
        for (const std::string& name : s.output_names) {
          std::string staging_path = s.base_path + "/" + name;
          s.staging->put(s.staging_collection, staging_path,
                         outputs->at(name), token_);
          transfers_.transfer(
              *s.staging, s.staging_collection, staging_path, *s.storage,
              s.collection, staging_path, token_,
              [remaining, failed, done](const fabric::TransferRecord& rec) {
                if (*failed) return;
                if (rec.status != fabric::TransferStatus::kSucceeded) {
                  *failed = true;
                  done(false, "stage-out failed: " + rec.error);
                  return;
                }
                if (--(*remaining) == 0) done(true, "");
              });
        }
      }});

  // Step 4: register versioning metadata for every output.
  flow.steps.push_back(fabric::FlowStep{
      "register-metadata",
      [this, index, outputs](fabric::FlowRunContext&, fabric::StepDone done) {
        Analysis& a = analyses_[index];
        const AnalysisFlowSpec& s = a.spec;
        for (std::size_t k = 0; k < s.output_names.size(); ++k) {
          const std::string& name = s.output_names[k];
          const std::string& bytes = outputs->at(name);
          db_.add_version(a.output_uuids[k],
                          osprey::crypto::Sha256::hash_hex(bytes),
                          bytes.size(), loop_.now(), s.storage->name(),
                          s.collection, s.base_path + "/" + name);
        }
        done(true, "");
      }});

  obs::CurrentSpanGuard analyze_guard(analysis.span);
  flows_.run(
      flow, token_,
      [this, index, run_id](const fabric::FlowRunRecord& rec, const Value&) {
        Analysis& a = analyses_[index];
        bool ok = rec.status == fabric::FlowRunStatus::kSucceeded;
        // Incidents recorded below correlate with this run's span.
        obs::CurrentSpanGuard run_guard(a.span);
        if (tracer_ != nullptr && a.span != obs::kNoSpan) {
          std::string err;
          for (const fabric::StepRecord& sr : rec.steps) {
            if (!sr.ok && !sr.error.empty()) err = sr.error;
          }
          tracer_->end_span(a.span, obs::sim_ns(loop_.now()), ok, err);
          a.span = obs::kNoSpan;
        }
        std::vector<VersionRef> outs;
        if (ok) {
          for (const std::string& uuid : a.output_uuids) {
            outs.push_back(VersionRef{uuid, db_.latest_version_number(uuid)});
          }
        } else {
          failed_runs_->inc();
        }
        db_.finish_run(run_id, ok ? RunStatus::kSucceeded : RunStatus::kFailed,
                       outs, loop_.now());
        a.running = false;
        note_run_outcome(a.breaker, a.spec.name, ok);
        std::string flow_name = a.spec.name;
        if (ok) {
          clear_degraded(a.output_uuids, a.spec.name);
          // Announce each output version; may trigger downstream flows.
          std::vector<std::string> produced = a.output_uuids;
          for (const std::string& uuid : produced) {
            on_version_added(uuid, "update of " + flow_name);
          }
        } else if (a.attempts < a.retry.max_attempts && !a.pending) {
          ++a.attempts;
          retries_->inc();
          int attempt = a.attempts;
          std::uint64_t gen = a.trigger_gen;
          SimTime delay = a.retry.jittered(attempt, a.retry_key);
          record_incident(fabric::IncidentCategory::kRecovery,
                          "retry-scheduled", a.spec.name,
                          "attempt " + std::to_string(attempt) + " in " +
                              osprey::util::format_duration(delay));
          loop_.schedule_after(delay, [this, index, attempt, gen] {
            fire_analysis_retry(index, attempt, gen);
          });
          return;
        } else if (!ok && !a.pending) {
          analysis_permanent_->inc();
          mark_degraded(a.output_uuids, a.spec.name,
                        "analysis '" + a.spec.name +
                            "' exhausted its retry budget");
        }
        Analysis& a2 = analyses_[index];
        if (a2.pending && analysis_ready(a2)) {
          if (!a2.breaker.allow(loop_.now())) {
            deferred_triggers_->inc();
            SimTime probe = probe_time(a2.breaker, loop_.now());
            record_incident(fabric::IncidentCategory::kDegraded,
                            "trigger-deferred", a2.spec.name,
                            "circuit open; probe at " +
                                osprey::util::format_sim_time(probe));
            schedule_analysis_probe(index, probe);
            return;
          }
          a2.pending = false;
          a2.attempts = 0;
          ++a2.trigger_gen;
          std::string cause = std::move(a2.pending_cause);
          run_analysis_flow(index, cause + " (queued)");
        } else {
          a2.pending = false;
        }
      });
}

void AeroServer::fire_analysis_retry(std::size_t index, int attempt,
                                     std::uint64_t gen) {
  Analysis& a = analyses_[index];
  // A newer trigger superseded the run this retry was scheduled for;
  // analysis re-triggering is driven by input versions, so nothing is
  // lost by dropping it.
  if (gen != a.trigger_gen || a.running) return;
  if (!a.breaker.allow(loop_.now())) {
    loop_.schedule_at(std::max(probe_time(a.breaker, loop_.now()),
                               loop_.now() + 1),
                      [this, index, attempt, gen] {
                        fire_analysis_retry(index, attempt, gen);
                      });
    return;
  }
  run_analysis_flow(index,
                    "retry " + std::to_string(attempt) + ":" + a.spec.name);
}

void AeroServer::schedule_analysis_probe(std::size_t index, SimTime at) {
  loop_.schedule_at(std::max(at, loop_.now() + 1), [this, index] {
    Analysis& a = analyses_[index];
    if (a.running || !a.pending) return;
    osprey::util::BreakerState before = a.breaker.state();
    if (!a.breaker.allow(loop_.now())) {
      schedule_analysis_probe(index, probe_time(a.breaker, loop_.now()));
      return;
    }
    if (before == osprey::util::BreakerState::kOpen) {
      record_incident(fabric::IncidentCategory::kRecovery,
                      "circuit-half-open", a.spec.name,
                      "admitting probe run");
    }
    if (!analysis_ready(a)) {
      a.pending = false;
      return;
    }
    a.pending = false;
    a.attempts = 0;
    ++a.trigger_gen;
    std::string cause = std::move(a.pending_cause);
    run_analysis_flow(index, cause + " (probe)");
  });
}

void AeroServer::set_fault_plan(fabric::FaultPlan* plan) {
  plan_ = plan;
  if (incidents_ == nullptr && plan != nullptr) incidents_ = &plan->log();
}

AeroServer::ServedEstimate AeroServer::serve_latest(const std::string& uuid) {
  ServedEstimate est;
  est.version = db_.latest_version(uuid);
  auto it = degraded_.find(uuid);
  if (it != degraded_.end()) {
    est.stale = true;
    // Contract: reason is empty iff fresh. A degraded entry recorded
    // without a reason must still say *something*.
    est.reason = it->second.empty() ? "degraded" : it->second;
  } else if (!est.version.has_value()) {
    est.stale = true;
    est.reason = "never-published";
  }
  if (est.stale) {
    stale_serves_->inc();
    record_incident(fabric::IncidentCategory::kDegraded, "stale-serve", uuid,
                    est.reason);
  }
  return est;
}

void AeroServer::record_incident(fabric::IncidentCategory category,
                                 const std::string& kind,
                                 const std::string& site,
                                 const std::string& detail) {
  if (obs::TraceRecorder* tracer = obs::active(tracer_)) {
    // The instant's parent is the in-flight run span (when recorded from
    // a run completion callback), correlating IncidentLog entries with
    // trace spans. IncidentLog itself is untouched: chaos replay tests
    // compare its rendered bytes.
    tracer->instant(obs::Category::kAero, "incident:" + kind,
                    obs::sim_ns(loop_.now()), obs::kInheritParent,
                    site + ": " + detail);
  }
  if (incidents_ == nullptr) return;
  incidents_->record(loop_.now(), category, kind, "aero", site, detail);
}

void AeroServer::note_run_outcome(osprey::util::CircuitBreaker& breaker,
                                  const std::string& site, bool ok) {
  if (!breaker.config().enabled()) return;
  osprey::util::BreakerState before = breaker.state();
  if (ok) {
    breaker.on_success(loop_.now());
  } else {
    breaker.on_failure(loop_.now());
  }
  osprey::util::BreakerState after = breaker.state();
  if (after == before) return;
  if (after == osprey::util::BreakerState::kOpen) {
    record_incident(fabric::IncidentCategory::kDegraded, "circuit-opened",
                    site,
                    "after " + std::to_string(breaker.consecutive_failures()) +
                        " consecutive failure(s)");
  } else if (after == osprey::util::BreakerState::kClosed) {
    record_incident(fabric::IncidentCategory::kRecovery, "circuit-closed",
                    site, "probe(s) succeeded");
  }
}

void AeroServer::mark_degraded(const std::vector<std::string>& uuids,
                               const std::string& site,
                               const std::string& reason) {
  for (const std::string& uuid : uuids) degraded_[uuid] = reason;
  record_incident(fabric::IncidentCategory::kDegraded, "degraded", site,
                  reason + "; serving last-good estimates");
  // Degradation flips the staleness of the served answer, so caches
  // must revalidate even though no new version appeared.
  for (const std::string& uuid : uuids) notify_updated(uuid);
}

void AeroServer::clear_degraded(const std::vector<std::string>& uuids,
                                const std::string& site) {
  bool any = false;
  for (const std::string& uuid : uuids) {
    if (degraded_.erase(uuid) > 0) {
      any = true;
      notify_updated(uuid);
    }
  }
  if (any) {
    record_incident(fabric::IncidentCategory::kRecovery, "recovered", site,
                    "fresh estimate published");
  }
}

std::uint64_t AeroServer::add_update_listener(UpdateListener listener) {
  std::uint64_t id = next_listener_id_++;
  update_listeners_[id] = std::move(listener);
  return id;
}

void AeroServer::remove_update_listener(std::uint64_t id) {
  update_listeners_.erase(id);
}

void AeroServer::notify_updated(const std::string& uuid) {
  for (const auto& [id, listener] : update_listeners_) {
    if (listener) listener(uuid);
  }
}

}  // namespace osprey::aero
