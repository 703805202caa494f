// ShardedFabric unit + integration tests: the deterministic mailbox
// total order, campaign registration fan-out, aggregation round
// trips, shard-qualified serving, per-partition WAL layout with
// crash-recovery, fault-plan forking, and the merged observability
// artifacts. The 16-seed chaos replay sweep lives in
// test_shard_replay.cpp; this file proves the building blocks.

#include "shard/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/usecase_shard.hpp"
#include "obs/export.hpp"
#include "shard/mailbox.hpp"
#include "util/durable_fs.hpp"
#include "util/sim_time.hpp"

namespace sh = osprey::shard;
namespace ou = osprey::util;
using osprey::util::kDay;

// --- mailbox ---------------------------------------------------------------

TEST(ShardMailbox, EnvelopeOrderIsTickThenOriginThenSeq) {
  sh::Envelope a, b;
  a.tick = 1;
  b.tick = 2;
  EXPECT_TRUE(sh::envelope_before(a, b));
  b.tick = 1;
  a.origin = 1;
  b.origin = 2;
  EXPECT_TRUE(sh::envelope_before(a, b));
  b.origin = 1;
  a.seq = 3;
  b.seq = 7;
  EXPECT_TRUE(sh::envelope_before(a, b));
  EXPECT_FALSE(sh::envelope_before(b, a));
  EXPECT_FALSE(sh::envelope_before(a, a));
}

TEST(ShardMailbox, OutboxStampsAreSeededAndReplayable) {
  sh::Outbox a(3, 42), b(3, 42), c(3, 43), d(4, 42);
  a.post(1, "x", "t", ou::Value());
  b.post(1, "x", "t", ou::Value());
  c.post(1, "x", "t", ou::Value());
  d.post(1, "x", "t", ou::Value());
  std::uint64_t sa = a.drain()[0].stamp;
  EXPECT_EQ(sa, b.drain()[0].stamp);   // same (origin, seed): identical
  EXPECT_NE(sa, c.drain()[0].stamp);   // different seed: distinct
  EXPECT_NE(sa, d.drain()[0].stamp);   // different origin: distinct
}

TEST(ShardMailbox, MergeIsTotalOrderAcrossSources) {
  sh::Outbox coord(0, 7), p1(1, 7), p2(2, 7);
  p2.post(1, "", "b", ou::Value());
  p1.post(1, "", "a", ou::Value());
  p1.post(2, "", "c", ou::Value());
  coord.post(2, "", "d", ou::Value());
  std::vector<sh::Envelope> merged = sh::merge_envelopes(
      {coord.drain(), p1.drain(), p2.drain()});
  ASSERT_EQ(merged.size(), 4u);
  // tick 1: origin 1 before origin 2; tick 2: origin 0 before origin 1.
  EXPECT_EQ(merged[0].topic, "a");
  EXPECT_EQ(merged[1].topic, "b");
  EXPECT_EQ(merged[2].topic, "d");
  EXPECT_EQ(merged[3].topic, "c");
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(),
                             [](const sh::Envelope& x, const sh::Envelope& y) {
                               return sh::envelope_before(x, y);
                             }));
}

TEST(ShardMailbox, StableHashAndShardPlacement) {
  EXPECT_EQ(sh::stable_key_hash("feed0"), sh::stable_key_hash("feed0"));
  EXPECT_NE(sh::stable_key_hash("feed0"), sh::stable_key_hash("feed1"));
  for (int f = 0; f < 64; ++f) {
    std::size_t shard = sh::shard_of("feed" + std::to_string(f), 8);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, sh::shard_of("feed" + std::to_string(f), 8));
  }
}

TEST(ShardCampaign, FeedSpecRoundTripsThroughValue) {
  sh::FeedSpec spec;
  spec.name = "plant-a";
  spec.timeline = {{0, "week0"}, {7 * kDay, "week1"}};
  spec.poll_period = 2 * kDay;
  spec.max_retries = 3;
  sh::FeedSpec back = sh::FeedSpec::from_value(spec.to_value());
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.timeline, spec.timeline);
  EXPECT_EQ(back.poll_period, spec.poll_period);
  EXPECT_EQ(back.max_retries, spec.max_retries);
}

TEST(ShardFault, ForkIsDeterministicAndPerSaltIndependent) {
  osprey::fabric::FaultPlan master(99);
  master.set_rate(osprey::fabric::FaultKind::kTransferDrop, 0.25);
  osprey::fabric::FaultPlan f1 = master.fork(1);
  osprey::fabric::FaultPlan f1b = master.fork(1);
  osprey::fabric::FaultPlan f2 = master.fork(2);
  EXPECT_EQ(f1.seed(), f1b.seed());
  EXPECT_NE(f1.seed(), f2.seed());
  EXPECT_NE(f1.seed(), master.seed());
  // Config is carried over; counters and log are fresh.
  EXPECT_EQ(f1.injected_total(), 0u);
  EXPECT_EQ(f1.log().size(), 0u);
}

// --- end-to-end campaign ---------------------------------------------------

namespace {

sh::CampaignSpec small_campaign(int feeds = 3, int days = 28) {
  return osprey::core::make_surveillance_campaign("iwss", feeds, days);
}

}  // namespace

TEST(ShardFabric, CampaignRunsIngestAnalyzeAggregateRounds) {
  sh::ShardedFabricConfig config;
  config.num_shards = 2;
  sh::ShardedFabric fabric(config);
  fabric.register_campaign(small_campaign());
  ASSERT_EQ(fabric.num_partitions(), 4u);  // 3 feeds + hub
  fabric.run_until(28 * kDay);

  // Every feed partition published analysis versions upward.
  for (int f = 0; f < 3; ++f) {
    sh::ShardPartition& p =
        fabric.partition("iwss-feed" + std::to_string(f));
    ASSERT_EQ(p.feeds().size(), 1u);
    EXPECT_GT(p.server().ingestion_runs(), 0u);
    EXPECT_GT(p.server().analysis_runs(), 0u);
  }
  // The coordinator saw them and dispatched aggregation rounds; the hub
  // executed them and reported aggregate versions back.
  EXPECT_GT(fabric.coordinator().rounds_dispatched("iwss"), 0u);
  EXPECT_GT(fabric.coordinator().aggregates_published("iwss"), 0u);
  EXPECT_LE(fabric.coordinator().aggregates_published("iwss"),
            fabric.coordinator().rounds_dispatched("iwss"));
  EXPECT_FALSE(fabric.partition("iwss-hub").aggregate_uuid().empty());
  EXPECT_GT(fabric.events_processed(), 0u);
}

TEST(ShardFabric, LookupServesShardQualifiedVersions) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign());
  fabric.run_until(28 * kDay);

  sh::ShardPartition& p0 = fabric.partition("iwss-feed0");
  std::string qualified = "iwss-feed0/" + p0.feeds()[0].analysis_uuid;
  auto first = fabric.lookup(qualified);
  EXPECT_TRUE(first.estimate.version.has_value());
  EXPECT_EQ(first.shard, "iwss-feed0");
  EXPECT_EQ(first.outcome, osprey::serve::CacheOutcome::kMiss);
  auto second = fabric.lookup(qualified);
  EXPECT_EQ(second.outcome, osprey::serve::CacheOutcome::kHit);
  EXPECT_EQ(second.shard, "iwss-feed0");

  // The hub's aggregate is served under its own shard qualifier.
  auto agg = fabric.lookup("iwss-hub/" +
                           fabric.partition("iwss-hub").aggregate_uuid());
  EXPECT_TRUE(agg.estimate.version.has_value());
  EXPECT_EQ(agg.shard, "iwss-hub");
}

TEST(ShardFabric, ShardCountDoesNotChangeMergedArtifacts) {
  // The core determinism claim, smoke-sized (the full 16-seed chaos
  // sweep across {1, 2, 8} shards is test_shard_replay.cpp).
  std::string trace1, trace8, metrics1, metrics8;
  {
    sh::ShardedFabricConfig config;
    config.num_shards = 1;
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(small_campaign());
    fabric.run_until(14 * kDay);
    trace1 = fabric.merged_chrome_trace();
    metrics1 = fabric.merged_metrics().to_json();
  }
  {
    sh::ShardedFabricConfig config;
    config.num_shards = 8;
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(small_campaign());
    fabric.run_until(14 * kDay);
    trace8 = fabric.merged_chrome_trace();
    metrics8 = fabric.merged_metrics().to_json();
  }
  EXPECT_EQ(trace1, trace8);
  EXPECT_EQ(metrics1, metrics8);
  EXPECT_FALSE(trace1.empty());
}

TEST(ShardFabric, MergedSpansCarryShardLabels) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign(2, 14));
  fabric.run_until(14 * kDay);
  std::vector<osprey::obs::SpanRecord> spans = fabric.merged_spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::string> labels;
  for (const auto& s : spans) labels.insert(s.shard);
  EXPECT_TRUE(labels.count("iwss-feed0"));
  EXPECT_TRUE(labels.count("iwss-feed1"));
  EXPECT_TRUE(labels.count("iwss-hub"));
  EXPECT_FALSE(labels.count(""));  // every merged span is attributed
  // Ids are canonical (1..n ascending) after the merge.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 1);
  }
}

TEST(ShardFabric, MergedMetricsAndPrometheusAreShardDimensioned) {
  sh::ShardedFabric fabric;
  fabric.register_campaign(small_campaign(2, 14));
  fabric.run_until(14 * kDay);
  ou::Value merged = fabric.merged_metrics();
  ASSERT_TRUE(merged.is_object());
  const auto& shards = merged.at("shards").as_object();
  EXPECT_TRUE(shards.count("coordinator"));
  EXPECT_TRUE(shards.count("iwss-feed0"));
  EXPECT_TRUE(shards.count("iwss-hub"));
  // Totals sum the per-shard counters.
  const auto& totals = merged.at("totals").at("counters").as_object();
  EXPECT_TRUE(totals.count("aero_ingestion_runs_total") ||
              !totals.empty());

  std::string prom = fabric.merged_prometheus();
  EXPECT_NE(prom.find("{shard=\"iwss-feed0\"}"), std::string::npos);
  EXPECT_NE(prom.find("{shard=\"coordinator\"}"), std::string::npos);
}

// --- chaos + durability ----------------------------------------------------

TEST(ShardFabric, ChaosForksIndependentPerPartitionPlans) {
  osprey::fabric::FaultPlan master(0xC0);
  master.set_rate(osprey::fabric::FaultKind::kTransferDrop, 0.08);
  sh::ShardedFabricConfig config;
  config.num_shards = 2;
  sh::ShardedFabric fabric(config);
  fabric.set_chaos(master);
  fabric.register_campaign(small_campaign());
  fabric.run_until(28 * kDay);

  // Each partition drew its own deterministic fault stream.
  std::set<std::uint64_t> seeds;
  for (const std::string& key : fabric.partition_keys()) {
    const osprey::fabric::FaultPlan* plan = fabric.partition(key).chaos();
    ASSERT_NE(plan, nullptr);
    seeds.insert(plan->seed());
  }
  EXPECT_EQ(seeds.size(), fabric.num_partitions());
  // With drops injected, at least one partition recorded incidents and
  // the merged log attributes them by shard header.
  std::string log = fabric.merged_incident_log();
  EXPECT_NE(log.find("=== shard "), std::string::npos);
  EXPECT_NE(log.find("transfer-drop"), std::string::npos);
}

namespace {

/// Crash and recover a durable campaign whose partitions all write one
/// shared MemFs, each under its own WAL directory.
void per_partition_wal_round_trip(std::size_t shards) {
  sh::ShardedFabricConfig config;
  config.num_shards = shards;
  ou::MemFs fs;
  sh::CampaignSpec campaign = small_campaign(2, 28);
  std::string analysis_uuid_run1;
  std::string qualified;
  {
    sh::ShardedFabric fabric(config);
    fabric.register_campaign(campaign);
    auto summary = fabric.enable_durability(fs, "wal");
    EXPECT_EQ(summary.partitions, 3u);
    EXPECT_EQ(summary.replayed, 0u);  // cold start
    fabric.run_until(14 * kDay);
    ASSERT_FALSE(fabric.partition("iwss-feed0").feeds().empty());
    analysis_uuid_run1 = fabric.partition("iwss-feed0").feeds()[0].analysis_uuid;
    qualified = "iwss-feed0/" + analysis_uuid_run1;
    EXPECT_TRUE(fabric.lookup(qualified).estimate.version.has_value());
  }  // whole-fabric crash: every partition's volatile state is gone

  // Each partition owned a disjoint WAL segment directory.
  EXPECT_FALSE(fs.list("wal/iwss-feed0/").empty());
  EXPECT_FALSE(fs.list("wal/iwss-feed1/").empty());
  EXPECT_FALSE(fs.list("wal/iwss-hub/").empty());

  sh::ShardedFabric fabric2(config);
  fabric2.register_campaign(campaign);
  auto summary = fabric2.enable_durability(fs, "wal");
  EXPECT_EQ(summary.partitions, 3u);
  EXPECT_GT(summary.replayed, 0u);
  EXPECT_EQ(summary.corrupt, 0u);

  // The partition-stable uuid seed means recovery reproduces the same
  // uuid stream: the pre-crash analysis uuid resolves straight from the
  // replayed metadata db, before the first epoch re-registers the flows
  // (registration envelopes deliver at the next epoch barrier).
  auto served = fabric2.lookup(qualified);
  EXPECT_TRUE(served.estimate.version.has_value());

  // And the workflow continues past the crash point under the same ids.
  fabric2.run_until(28 * kDay);
  ASSERT_FALSE(fabric2.partition("iwss-feed0").feeds().empty());
  EXPECT_EQ(fabric2.partition("iwss-feed0").feeds()[0].analysis_uuid,
            analysis_uuid_run1);
  EXPECT_GT(fabric2.coordinator().rounds_dispatched("iwss"), 0u);
}

}  // namespace

TEST(ShardFabric, PerPartitionWalDirectoriesAndRecovery) {
  per_partition_wal_round_trip(1);
}

// Three shard threads append to the one MemFs at once (the shared
// DurableFs must be thread-safe).
TEST(ShardFabric, PerPartitionWalDirectoriesAndRecoveryOnThreeShards) {
  per_partition_wal_round_trip(3);
}

TEST(ShardFabric, RejectsMalformedKeysAndUnknownPartitions) {
  sh::ShardedFabric fabric;
  sh::CampaignSpec bad;
  bad.name = "c";
  sh::FeedSpec feed;
  feed.name = "a/b";  // '/' collides with serve addressing
  bad.feeds.push_back(feed);
  EXPECT_THROW(fabric.register_campaign(bad), std::exception);

  fabric.register_campaign(small_campaign(1, 7));
  EXPECT_THROW(fabric.partition("nope"), std::exception);
  EXPECT_THROW(fabric.lookup("no-slash"), std::exception);
}
