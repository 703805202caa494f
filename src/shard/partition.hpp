#pragma once

/// \file partition.hpp
/// One partition of the ShardedFabric: a self-contained mini-universe of
/// the orchestration stack — its own EventLoop, auth/timer/transfer/flow
/// services, AERO server (with a partition-stable uuid seed), storage and
/// compute endpoints, serving-tier cache and observability sinks — owning
/// exactly one surveillance feed (or one campaign's aggregation hub).
///
/// The PARTITION, not the shard, is the determinism unit: everything a
/// partition computes is a pure function of its own registration
/// envelopes, its delivered mailbox, and its forked fault-plan seed.
/// Shards are pure execution units — any number of threads may execute
/// any assignment of partitions and every artifact (trace, incident log,
/// metrics, uuids) comes out bit-identical, which is what the replay
/// sweep in tests/test_shard_replay.cpp proves.
///
/// This is the ONLY file in src/shard/ allowed to touch the aero/serve
/// orchestration types (osprey_lint's cross-shard-isolation rule):
/// fabric.cpp and coordinator.cpp must stay at the envelope level, so no
/// cross-partition reference can creep in and silently break isolation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aero/server.hpp"
#include "fabric/compute.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/fault.hpp"
#include "fabric/flows.hpp"
#include "fabric/storage.hpp"
#include "fabric/timer.hpp"
#include "fabric/transfer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "shard/campaign.hpp"
#include "shard/mailbox.hpp"
#include "util/durable_fs.hpp"

namespace osprey::shard {

class MailboxSource;  // defined in partition.cpp

struct PartitionConfig {
  /// Partition key: the feed name or "<campaign>-hub". Must not contain
  /// '/' (reserved by the "<partition>/<uuid>" serve addressing).
  std::string key;
  /// Stable 1-based ordinal in fabric registration order (0 is the
  /// coordinator). This — never the ephemeral shard/thread id — is the
  /// partition's origin in the envelope merge order.
  std::uint32_t ordinal = 1;
  /// Fabric seed; envelope stamps and the uuid stream derive from
  /// (seed, key), so they are invariant under the shard count.
  std::uint64_t seed = 0;
  bool tracing = true;
  int login_slots = 2;
  SimTime transform_cost = 30 * osprey::util::kSecond;
  SimTime analysis_cost = osprey::util::kMinute;
  SimTime aggregate_cost = osprey::util::kMinute;
};

class ShardPartition {
 public:
  explicit ShardPartition(PartitionConfig config);
  ~ShardPartition();

  ShardPartition(const ShardPartition&) = delete;
  ShardPartition& operator=(const ShardPartition&) = delete;

  const std::string& key() const { return config_.key; }
  std::uint32_t ordinal() const { return config_.ordinal; }

  /// Fork `master` into this partition's private fault plan (seeded by
  /// the stable key hash, so each partition draws an independent but
  /// replayable fault stream) and attach it to every service. Call
  /// before the first epoch.
  void enable_chaos(const fabric::FaultPlan& master);
  /// The partition's private plan (nullptr without chaos).
  fabric::FaultPlan* chaos() { return chaos_.get(); }
  const fabric::FaultPlan* chaos() const { return chaos_.get(); }

  /// Durable metadata under `<base_dir>/<key>` — each partition owns a
  /// disjoint WAL segment directory (PR 9 layout), so recovery is
  /// per-partition and embarrassingly parallel. Must precede the first
  /// epoch (registration envelopes are applied idempotently on top of
  /// the recovered state).
  aero::RecoveryStats enable_durability(osprey::util::DurableFs& fs,
                                        const std::string& base_dir);

  /// Apply one envelope addressed to this partition (start of an epoch,
  /// on the owning shard's thread).
  void deliver(const Envelope& env);

  /// Advance the partition's event loop to `until` within epoch `tick`.
  void run_epoch(std::uint64_t tick, SimTime until);

  /// Drain the partition's outbox (at the epoch barrier, post-join).
  std::vector<Envelope> collect();

  /// Serve a data object through the partition's cache tier.
  serve::ResultCache::Result lookup(std::string_view uuid);

  /// Uuids of the flows hosted for one feed.
  struct FeedInfo {
    std::string name;
    std::string ingest_uuid;    // transformed ingestion output
    std::string analysis_uuid;  // per-feed analysis output
  };
  const std::vector<FeedInfo>& feeds() const { return feeds_; }
  /// Aggregate output uuid ("" unless this partition hosts a hub).
  const std::string& aggregate_uuid() const { return aggregate_uuid_; }

  std::uint64_t events_processed() const { return loop_.events_processed(); }
  /// Chaos incident log (nullptr without chaos).
  const fabric::IncidentLog* incident_log() const {
    return chaos_ ? &chaos_->log() : nullptr;
  }
  std::vector<obs::SpanRecord> spans() const { return tracer_.snapshot(); }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Test/tool introspection into the partition's orchestration stack.
  aero::AeroServer& server() { return server_; }
  serve::ResultCache& cache() { return *cache_; }

 private:
  void add_feed(const FeedSpec& spec);
  void host_aggregate(const std::string& campaign, SimTime poll_period);
  /// Update-listener hook: report newly published versions upward.
  void on_updated(const std::string& uuid);

  PartitionConfig config_;
  obs::TraceRecorder tracer_;
  obs::MetricsRegistry metrics_;
  fabric::EventLoop loop_;
  fabric::AuthService auth_;
  fabric::TimerService timers_;
  fabric::TransferService transfers_;
  fabric::FlowsService flows_;
  std::unique_ptr<fabric::FaultPlan> chaos_;
  aero::AeroServer server_;
  fabric::StorageEndpoint eagle_;
  fabric::StorageEndpoint scratch_;
  fabric::ComputeEndpoint login_;
  /// Declared after server_ so it detaches before the server dies.
  std::unique_ptr<serve::ResultCache> cache_;
  std::string transform_fn_;
  std::string analysis_fn_;
  std::string aggregate_fn_;
  Outbox outbox_;
  std::uint64_t tick_ = 0;

  struct Tracked {
    std::string feed;  // "" for the aggregate output
    std::string kind;  // "analysis" | "aggregate"
  };
  std::map<std::string, Tracked> tracked_;  // uuid -> provenance
  std::map<std::string, int> last_version_posted_;
  std::vector<FeedInfo> feeds_;
  std::shared_ptr<MailboxSource> aggregate_source_;
  std::string aggregate_campaign_;
  std::string aggregate_uuid_;
};

}  // namespace osprey::shard
