#pragma once

/// \file fabric.hpp
/// ShardedFabric (DESIGN.md §7): N event-loop shards on real threads,
/// each owning a disjoint set of partitions (stable key hash → shard),
/// advancing in epoch lockstep:
///
///   every epoch: route coordinator mail → [parallel] each shard
///   delivers its partitions' inboxes and runs their event loops to the
///   epoch boundary → join (barrier) → drain every outbox → merge into
///   the (tick, origin, seq) total order → coordinator consumes the
///   merged stream and posts responses for the next epoch.
///
/// Messages posted in epoch k are delivered at the START of epoch k+1,
/// so no partition ever observes another mid-epoch; combined with the
/// stable-ordinal merge order this makes every run — and every merged
/// artifact: Chrome trace, incident log, metrics snapshot, Prometheus
/// export — byte-identical across shard counts, thread interleavings
/// and replays of the same seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/fault.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "shard/campaign.hpp"
#include "shard/coordinator.hpp"
#include "shard/mailbox.hpp"
#include "shard/partition.hpp"
#include "util/durable_fs.hpp"
#include "util/thread_pool.hpp"
#include "util/value.hpp"

namespace osprey::shard {

struct ShardedFabricConfig {
  std::size_t num_shards = 1;
  SimTime epoch = osprey::util::kDay;
  std::uint64_t seed = 0x05FA;
  /// Per-partition tracing (off for throughput benches).
  bool tracing = true;
  int login_slots = 2;
};

class ShardedFabric {
 public:
  explicit ShardedFabric(ShardedFabricConfig config = {});

  ShardedFabric(const ShardedFabric&) = delete;
  ShardedFabric& operator=(const ShardedFabric&) = delete;

  /// Master chaos plan; every subsequently created partition forks its
  /// own seeded replica. Must precede register_campaign.
  void set_chaos(const fabric::FaultPlan& master);

  /// Create one partition per feed (key = feed name) plus the
  /// campaign's aggregation hub, and hand the spec to the coordinator
  /// (whose registration envelopes land at the next epoch boundary).
  void register_campaign(const CampaignSpec& spec);

  /// Per-partition durable metadata under `<base_dir>/<key>`; recovery
  /// replays each partition's own WAL segment directory. Call after
  /// register_campaign and before run_until.
  struct RecoverySummary {
    std::size_t partitions = 0;
    std::size_t checkpoints_loaded = 0;
    std::uint64_t replayed = 0;
    std::uint64_t torn = 0;
    std::uint64_t corrupt = 0;
  };
  RecoverySummary enable_durability(osprey::util::DurableFs& fs,
                                    const std::string& base_dir);

  /// Advance every partition in epoch lockstep to virtual time `t`.
  void run_until(SimTime t);

  SimTime now() const { return now_; }
  /// Completed epochs.
  std::uint64_t epochs() const { return tick_ - 1; }

  /// Serve a shard-qualified object: "<partition-key>/<uuid>".
  serve::ResultCache::Result lookup(std::string_view qualified_uuid);

  std::size_t num_partitions() const { return partitions_.size(); }
  const std::vector<std::string>& partition_keys() const { return keys_; }
  ShardPartition& partition(std::string_view key);
  Coordinator& coordinator() { return coordinator_; }
  const Coordinator& coordinator() const { return coordinator_; }

  /// Sum of events processed across every partition's loop.
  std::uint64_t events_processed() const;

  // --- merged, canonical artifacts (byte-identical across replays and
  // shard counts; the replay sweep compares these) -------------------
  /// Per-partition incident logs in ordinal order, with shard headers.
  std::string merged_incident_log() const;
  /// Coordinator + partition spans, shard-labeled, canonical order.
  std::vector<obs::SpanRecord> merged_spans() const;
  std::string merged_chrome_trace() const;
  osprey::util::Value merged_metrics() const;
  std::string merged_prometheus() const;

 private:
  void create_partition(const std::string& key);
  void step_epoch(SimTime until);

  ShardedFabricConfig config_;
  Coordinator coordinator_;
  std::vector<std::unique_ptr<ShardPartition>> partitions_;  // ordinal order
  std::vector<std::string> keys_;                            // parallel
  std::map<std::string, std::size_t, std::less<>> by_key_;  // find by view
  /// shard -> its partitions' indexes, each in ordinal order.
  std::vector<std::vector<std::size_t>> shard_members_;
  std::unique_ptr<fabric::FaultPlan> master_chaos_;
  std::unique_ptr<osprey::util::ThreadPool> pool_;
  SimTime now_ = 0;
  std::uint64_t tick_ = 1;
};

}  // namespace osprey::shard
