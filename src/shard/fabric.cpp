#include "shard/fabric.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/merge.hpp"
#include "util/error.hpp"

namespace osprey::shard {

ShardedFabric::ShardedFabric(ShardedFabricConfig config)
    : config_(config),
      coordinator_(config.seed),
      shard_members_(std::max<std::size_t>(config.num_shards, 1)) {
  OSPREY_REQUIRE(config_.num_shards >= 1, "need at least one shard");
  OSPREY_REQUIRE(config_.epoch > 0, "epoch must be positive");
  if (config_.num_shards > 1) {
    pool_ = std::make_unique<osprey::util::ThreadPool>(config_.num_shards);
  }
}

void ShardedFabric::set_chaos(const fabric::FaultPlan& master) {
  OSPREY_REQUIRE(partitions_.empty(),
                 "set_chaos must precede register_campaign");
  master_chaos_ = std::make_unique<fabric::FaultPlan>(master);
}

void ShardedFabric::create_partition(const std::string& key) {
  OSPREY_REQUIRE(!key.empty(), "partition key must not be empty");
  OSPREY_REQUIRE(key.find('/') == std::string::npos,
                 "partition key must not contain '/': " + key);
  OSPREY_REQUIRE(key != "coordinator",
                 "partition key 'coordinator' is reserved");
  OSPREY_REQUIRE(by_key_.count(key) == 0, "duplicate partition key: " + key);
  PartitionConfig config;
  config.key = key;
  config.ordinal = static_cast<std::uint32_t>(partitions_.size() + 1);
  config.seed = config_.seed;
  config.tracing = config_.tracing;
  config.login_slots = config_.login_slots;
  auto partition = std::make_unique<ShardPartition>(std::move(config));
  if (master_chaos_) partition->enable_chaos(*master_chaos_);
  by_key_[key] = partitions_.size();
  shard_members_[shard_of(key, config_.num_shards)].push_back(
      partitions_.size());
  keys_.push_back(key);
  partitions_.push_back(std::move(partition));
}

void ShardedFabric::register_campaign(const CampaignSpec& spec) {
  for (const FeedSpec& feed : spec.feeds) create_partition(feed.name);
  if (spec.aggregate) create_partition(Coordinator::hub_key(spec.name));
  coordinator_.register_campaign(spec);
}

ShardedFabric::RecoverySummary ShardedFabric::enable_durability(
    osprey::util::DurableFs& fs, const std::string& base_dir) {
  RecoverySummary summary;
  for (auto& partition : partitions_) {
    aero::RecoveryStats stats = partition->enable_durability(fs, base_dir);
    ++summary.partitions;
    if (stats.checkpoint_loaded) ++summary.checkpoints_loaded;
    summary.replayed += stats.replayed;
    summary.torn += stats.torn;
    summary.corrupt += stats.corrupt;
  }
  return summary;
}

void ShardedFabric::run_until(SimTime t) {
  OSPREY_REQUIRE(t >= now_, "run_until must not go backwards");
  while (now_ < t) {
    step_epoch(std::min<SimTime>(now_ + config_.epoch, t));
  }
}

void ShardedFabric::step_epoch(SimTime until) {
  // 1. Route the coordinator's pending mail to per-partition inboxes
  //    (epoch-k posts are delivered at the start of epoch k+1).
  std::vector<std::vector<Envelope>> inboxes(partitions_.size());
  for (Envelope& env : coordinator_.collect()) {
    auto it = by_key_.find(env.dest);
    OSPREY_REQUIRE(it != by_key_.end(),
                   "envelope addressed to unknown partition: " + env.dest);
    inboxes[it->second].push_back(std::move(env));
  }

  // 2. Run every shard over its partitions. Each partition is touched
  //    by exactly one task; the parallel_for join is the epoch barrier
  //    (a happens-before edge, so the collection below is race-free).
  const std::uint64_t tick = tick_;
  auto run_shard = [&](std::size_t shard) {
    for (std::size_t index : shard_members_[shard]) {
      ShardPartition& partition = *partitions_[index];
      for (const Envelope& env : inboxes[index]) partition.deliver(env);
      partition.run_epoch(tick, until);
    }
  };
  if (pool_) {
    pool_->parallel_for(shard_members_.size(), run_shard);
  } else {
    for (std::size_t s = 0; s < shard_members_.size(); ++s) run_shard(s);
  }

  // 3. Barrier: drain outboxes in ordinal order and merge into the
  //    (tick, origin, seq) total order — a pure function of logical
  //    state, independent of which threads ran which shard.
  std::vector<std::vector<Envelope>> outboxes;
  outboxes.reserve(partitions_.size());
  for (auto& partition : partitions_) outboxes.push_back(partition->collect());

  // 4. The coordinator consumes the merged stream; its responses are
  //    posted under this tick and routed at the next epoch start.
  coordinator_.begin_tick(tick_, obs::sim_ns(until));
  coordinator_.deliver(merge_envelopes(std::move(outboxes)));

  now_ = until;
  ++tick_;
}

ShardPartition& ShardedFabric::partition(std::string_view key) {
  auto it = by_key_.find(key);
  OSPREY_REQUIRE(it != by_key_.end(), "unknown partition: " + std::string(key));
  return *partitions_[it->second];
}

serve::ResultCache::Result ShardedFabric::lookup(
    std::string_view qualified_uuid) {
  std::size_t slash = qualified_uuid.find('/');
  OSPREY_REQUIRE(slash != std::string_view::npos,
                 "expected '<partition>/<uuid>': " +
                     std::string(qualified_uuid));
  return partition(qualified_uuid.substr(0, slash))
      .lookup(qualified_uuid.substr(slash + 1));
}

std::uint64_t ShardedFabric::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& partition : partitions_) {
    total += partition->events_processed();
  }
  return total;
}

std::string ShardedFabric::merged_incident_log() const {
  std::string out;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const fabric::IncidentLog* log = partitions_[i]->incident_log();
    if (log == nullptr) continue;
    out += "=== shard " + keys_[i] + " ===\n";
    out += log->to_string();
  }
  return out;
}

std::vector<obs::SpanRecord> ShardedFabric::merged_spans() const {
  std::vector<obs::LabeledSpans> sources;
  sources.reserve(partitions_.size() + 1);
  sources.push_back(
      obs::LabeledSpans{"coordinator", coordinator_.tracer().snapshot()});
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    sources.push_back(obs::LabeledSpans{keys_[i], partitions_[i]->spans()});
  }
  return obs::merge_labeled_spans(std::move(sources));
}

std::string ShardedFabric::merged_chrome_trace() const {
  return obs::chrome_trace_json(merged_spans());
}

namespace {

std::vector<obs::LabeledRegistry> labeled_registries(
    const Coordinator& coordinator, const std::vector<std::string>& keys,
    const std::vector<std::unique_ptr<ShardPartition>>& partitions) {
  std::vector<obs::LabeledRegistry> sources;
  sources.reserve(partitions.size() + 1);
  sources.push_back(obs::LabeledRegistry{"coordinator", &coordinator.metrics()});
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    sources.push_back(obs::LabeledRegistry{keys[i], &partitions[i]->metrics()});
  }
  return sources;
}

}  // namespace

osprey::util::Value ShardedFabric::merged_metrics() const {
  return obs::merged_metrics_snapshot(
      labeled_registries(coordinator_, keys_, partitions_));
}

std::string ShardedFabric::merged_prometheus() const {
  return obs::prometheus_text_sharded(
      labeled_registries(coordinator_, keys_, partitions_));
}

}  // namespace osprey::shard
