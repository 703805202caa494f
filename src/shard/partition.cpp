#include "shard/partition.hpp"

#include <optional>
#include <utility>

#include "aero/source.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::shard {

using osprey::util::Value;
using osprey::util::ValueObject;

/// Upstream "URL" fed by coordinator envelopes instead of a scripted
/// timeline: the hub's aggregation rides the normal AERO ingestion path
/// (poll → checksum change → transform → publish), with each
/// "aggregate-input" envelope becoming the next upstream payload.
class MailboxSource final : public aero::DataSource {
 public:
  explicit MailboxSource(std::string url) : url_(std::move(url)) {}

  std::string url() const override { return url_; }
  std::optional<std::string> fetch(SimTime) override { return payload_; }

  void set_payload(std::string payload) { payload_ = std::move(payload); }

 private:
  std::string url_;
  std::optional<std::string> payload_;
};

namespace {

/// Partition-stable uuid seed: a function of the key only, so the uuid
/// stream is invariant under the shard count AND across crash-recovery
/// restarts (WAL replay re-draws uuids in lockstep from this seed).
std::uint64_t partition_uuid_seed(const std::string& key) {
  return util::mix64(0xAE70 ^ stable_key_hash(key));
}

Value transform_fn_impl(const Value& args) {
  ValueObject out;
  out["output"] = args.at("input");
  return Value(std::move(out));
}

Value analysis_fn_impl(const Value& args) {
  ValueObject outputs;
  outputs["out"] =
      Value("analyzed:" + std::to_string(args.at("inputs").size()));
  ValueObject out;
  out["outputs"] = Value(std::move(outputs));
  return Value(std::move(out));
}

/// The hub's aggregation executes as the transform step of its
/// mailbox-fed ingestion flow, so it sees {"input": <payload JSON>}
/// where the payload is the coordinator's aggregate-input round (the
/// member versions/checksums it merges over).
Value aggregate_fn_impl(const Value& args) {
  Value round = Value::parse_json(args.at("input").as_string());
  ValueObject out;
  out["output"] = Value(
      "aggregated:round" + std::to_string(round.at("round").as_int()) + ":" +
      std::to_string(round.at("inputs").size()));
  return Value(std::move(out));
}

}  // namespace

ShardPartition::ShardPartition(PartitionConfig config)
    : config_(std::move(config)),
      timers_(loop_, auth_),
      transfers_(loop_, auth_),
      flows_(loop_, auth_),
      server_(loop_, auth_, timers_, transfers_, flows_,
              "aero/" + config_.key, &metrics_,
              partition_uuid_seed(config_.key)),
      eagle_("eagle", loop_, auth_),
      scratch_("scratch", loop_, auth_),
      login_("login", loop_, auth_, config_.login_slots),
      outbox_(config_.ordinal, config_.seed) {
  OSPREY_REQUIRE(!config_.key.empty(), "partition needs a key");
  OSPREY_REQUIRE(config_.key.find('/') == std::string::npos,
                 "partition key must not contain '/': " + config_.key);
  OSPREY_REQUIRE(config_.ordinal >= 1, "ordinal 0 is the coordinator");

  tracer_.set_shard_label(config_.key);
  tracer_.set_enabled(config_.tracing);
  loop_.set_metrics(&metrics_);
  timers_.set_metrics(&metrics_);
  transfers_.set_metrics(&metrics_);
  flows_.set_metrics(&metrics_);
  login_.set_metrics(&metrics_);
  timers_.set_tracer(&tracer_);
  transfers_.set_tracer(&tracer_);
  flows_.set_tracer(&tracer_);
  login_.set_tracer(&tracer_);
  server_.set_tracer(&tracer_);

  eagle_.create_collection("data", server_.token());
  scratch_.create_collection("staging", server_.token());
  transform_fn_ = login_.register_function("transform", transform_fn_impl,
                                           config_.transform_cost);
  analysis_fn_ = login_.register_function("analysis", analysis_fn_impl,
                                          config_.analysis_cost);
  aggregate_fn_ = login_.register_function("aggregate", aggregate_fn_impl,
                                           config_.aggregate_cost);

  cache_ = std::make_unique<serve::ResultCache>(server_, metrics_);
  cache_->set_shard(config_.key);

  server_.add_update_listener(
      [this](const std::string& uuid) { on_updated(uuid); });
}

ShardPartition::~ShardPartition() = default;

void ShardPartition::enable_chaos(const fabric::FaultPlan& master) {
  OSPREY_REQUIRE(chaos_ == nullptr, "chaos already enabled");
  chaos_ = std::make_unique<fabric::FaultPlan>(
      master.fork(stable_key_hash(config_.key)));
  auth_.set_fault_plan(chaos_.get(), &loop_);
  transfers_.set_fault_plan(chaos_.get());
  flows_.set_fault_plan(chaos_.get());
  login_.set_fault_plan(chaos_.get());
  eagle_.set_fault_plan(chaos_.get());
  scratch_.set_fault_plan(chaos_.get());
  server_.set_fault_plan(chaos_.get());
}

aero::RecoveryStats ShardPartition::enable_durability(
    osprey::util::DurableFs& fs, const std::string& base_dir) {
  aero::WalOptions options;
  options.dir = base_dir + "/" + config_.key;
  return server_.enable_durability(fs, std::move(options));
}

void ShardPartition::deliver(const Envelope& env) {
  if (env.topic == "register-feed") {
    FeedSpec spec = FeedSpec::from_value(env.payload.at("feed"));
    OSPREY_REQUIRE(spec.name == config_.key,
                   "feed routed to wrong partition: " + spec.name);
    for (const FeedInfo& feed : feeds_) {
      if (feed.name == spec.name) return;  // idempotent re-registration
    }
    add_feed(spec);
  } else if (env.topic == "register-aggregate") {
    if (aggregate_source_) return;  // idempotent re-registration
    host_aggregate(env.payload.at("campaign").as_string(),
                   static_cast<SimTime>(env.payload.at("poll_period").as_int()));
  } else if (env.topic == "aggregate-input") {
    OSPREY_REQUIRE(aggregate_source_ != nullptr,
                   "aggregate-input on a partition without a hub");
    aggregate_source_->set_payload(env.payload.to_json());
  }
  // Unknown topics are ignored (forward compatibility).
}

void ShardPartition::add_feed(const FeedSpec& spec) {
  aero::IngestionFlowSpec ing;
  ing.name = "ingest-" + spec.name;
  ing.source = std::make_shared<aero::ScriptedSource>(
      "https://feeds/" + spec.name, spec.timeline);
  ing.poll_period = spec.poll_period;
  ing.compute = &login_;
  ing.function_id = transform_fn_;
  ing.staging = &scratch_;
  ing.staging_collection = "staging";
  ing.storage = &eagle_;
  ing.collection = "data";
  ing.base_path = "feed/" + spec.name;
  ing.max_retries = spec.max_retries;
  aero::IngestionHandles handles = server_.register_ingestion(std::move(ing));

  aero::AnalysisFlowSpec ana;
  ana.name = "analyze-" + spec.name;
  ana.input_uuids = {handles.output_uuid};
  ana.policy = aero::TriggerPolicy::kAny;
  ana.compute = &login_;
  ana.function_id = analysis_fn_;
  ana.staging = &scratch_;
  ana.staging_collection = "staging";
  ana.storage = &eagle_;
  ana.collection = "data";
  ana.base_path = "analysis/" + spec.name;
  ana.output_names = {"out"};
  ana.max_retries = spec.max_retries;
  std::string analysis_uuid = server_.register_analysis(std::move(ana))[0];

  tracked_[analysis_uuid] = Tracked{spec.name, "analysis"};
  feeds_.push_back(FeedInfo{spec.name, handles.output_uuid, analysis_uuid});
}

void ShardPartition::host_aggregate(const std::string& campaign,
                                    SimTime poll_period) {
  aggregate_source_ =
      std::make_shared<MailboxSource>("mailbox://" + config_.key);
  aero::IngestionFlowSpec ing;
  ing.name = "aggregate-" + campaign;
  ing.source = aggregate_source_;
  ing.poll_period = poll_period;
  ing.compute = &login_;
  ing.function_id = aggregate_fn_;
  ing.staging = &scratch_;
  ing.staging_collection = "staging";
  ing.storage = &eagle_;
  ing.collection = "data";
  ing.base_path = "aggregate/" + campaign;
  aero::IngestionHandles handles = server_.register_ingestion(std::move(ing));

  aggregate_campaign_ = campaign;
  aggregate_uuid_ = handles.output_uuid;
  tracked_[handles.output_uuid] = Tracked{"", "aggregate"};
}

void ShardPartition::on_updated(const std::string& uuid) {
  auto it = tracked_.find(uuid);
  if (it == tracked_.end()) return;
  std::optional<aero::DataVersion> latest = server_.db().latest_version(uuid);
  if (!latest) return;  // degradation flip without a new version
  int& posted = last_version_posted_[uuid];
  if (latest->version <= posted) return;
  posted = latest->version;
  ValueObject payload;
  payload["partition"] = Value(config_.key);
  payload["feed"] = Value(it->second.feed);
  payload["kind"] = Value(it->second.kind);
  payload["uuid"] = Value(uuid);
  payload["version"] = Value(static_cast<std::int64_t>(latest->version));
  payload["checksum"] = Value(latest->checksum);
  payload["timestamp"] = Value(static_cast<std::int64_t>(latest->timestamp));
  outbox_.post(tick_, "", "version", Value(std::move(payload)));
}

void ShardPartition::run_epoch(std::uint64_t tick, SimTime until) {
  tick_ = tick;
  loop_.run_until(until);
}

std::vector<Envelope> ShardPartition::collect() { return outbox_.drain(); }

serve::ResultCache::Result ShardPartition::lookup(std::string_view uuid) {
  return cache_->lookup(uuid);
}

}  // namespace osprey::shard
