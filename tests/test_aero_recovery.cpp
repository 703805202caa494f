// Crash-replay harness for the durable AERO metadata layer: a 16-seed
// kProcessCrash sweep proving recovered state is byte-identical to an
// uninterrupted run, plus a whole-server crash drill (volatile platform
// destroyed, durable MemFs survives) covering run adjudication,
// idempotent re-registration and serve-tier cache rebinding.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "aero/server.hpp"
#include "aero/source.hpp"
#include "aero/wal.hpp"
#include "crypto/sha256.hpp"
#include "fabric/fault.hpp"
#include "serve/cache.hpp"
#include "util/durable_fs.hpp"
#include "util/hash.hpp"

namespace oa = osprey::aero;
namespace of = osprey::fabric;
namespace ou = osprey::util;
using ou::kDay;
using ou::kHour;
using ou::kMinute;
using ou::kSecond;
using ou::Value;
using ou::ValueObject;

namespace {

using ou::mix64;

std::string db_bytes(const oa::MetadataDb& db) {
  return db.to_json().to_json() + "\n" + db.provenance_dot();
}

/// Same deterministic op generator as test_aero_wal.cpp: one mutation
/// per index, a pure function of (seed, index, current db state) — so
/// re-issuing an op lost to a torn tail regenerates it exactly.
void scripted_op(oa::MetadataDb& db, std::uint64_t seed, std::uint64_t i) {
  std::uint64_t h = mix64(seed * 1000003 + i);
  std::vector<std::string> uuids = db.object_uuids();
  std::vector<std::uint64_t> open;
  for (const oa::RunRecord& r : db.runs()) {
    if (r.status == oa::RunStatus::kRunning) open.push_back(r.run_id);
  }
  std::uint64_t pick = h % 100;
  if (uuids.empty() || pick < 20) {
    db.register_object("obj-" + std::to_string(i),
                       "flow-" + std::to_string(h % 3));
  } else if (pick < 55) {
    const std::string& uuid = uuids[mix64(h) % uuids.size()];
    db.add_version(uuid, "sum-" + std::to_string(h % 9973),
                   h % 5000 + 1, static_cast<ou::SimTime>(i) * 60'000,
                   "eagle", "ww-rt", "p/" + std::to_string(i));
  } else if (pick < 80 || open.empty()) {
    const std::string& in = uuids[mix64(h + 1) % uuids.size()];
    db.start_run("flow-" + std::to_string(h % 4),
                 (h & 1) ? oa::FlowKind::kAnalysis : oa::FlowKind::kIngestion,
                 "op-" + std::to_string(i),
                 {{in, db.latest_version_number(in)}}, "bebop",
                 static_cast<ou::SimTime>(i) * 60'000);
  } else {
    const std::string& out = uuids[mix64(h + 2) % uuids.size()];
    db.finish_run(open[mix64(h + 3) % open.size()],
                  (h & 2) ? oa::RunStatus::kSucceeded : oa::RunStatus::kFailed,
                  {{out, db.latest_version_number(out)}},
                  static_cast<ou::SimTime>(i) * 60'000 + 30'000);
  }
}

}  // namespace

// --- 16-seed kProcessCrash sweep (registered per seed in ctest) ------

class RecoverySeedTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoverySeedTest, CrashReplayIsByteIdenticalToUninterruptedRun) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const std::uint64_t kOps = 60;
  oa::WalOptions opts;
  // Vary the checkpoint cadence across seeds: never / every 3/6/9 ops.
  opts.checkpoint_every = (seed % 4) * 3;

  // Uninterrupted reference run.
  ou::MemFs ref_fs;
  oa::MetadataDb ref_db;
  {
    oa::Wal wal(ref_fs, opts);
    wal.recover(ref_db);
    for (std::uint64_t i = 0; i < kOps; ++i) scripted_op(ref_db, seed, i);
  }
  const std::string expected = db_bytes(ref_db);

  // Crash-replay run: the fault plan decides, deterministically per
  // seed, where the "process" dies. A crash destroys the db and the
  // Wal (all volatile state); the MemFs — the disk — survives. Odd
  // crash decisions additionally tear bytes off the live segment, as a
  // crash mid-append would.
  ou::MemFs fs;
  of::FaultPlan plan(seed);
  plan.set_rate(of::FaultKind::kProcessCrash, 0.10);
  plan.script_nth(of::FaultKind::kProcessCrash, "metadata-db", 7);
  std::uint64_t crashes = 0;
  std::uint64_t applied = 0;
  bool completed = false;
  while (!completed) {
    oa::MetadataDb db;
    oa::Wal wal(fs, opts);
    oa::RecoveryStats stats = wal.recover(db);
    applied = stats.checkpoint_lsn + stats.replayed;
    ASSERT_LE(applied, kOps) << "recovery replayed ops that never ran";

    bool crashed = false;
    while (applied < kOps) {
      if (plan.should_inject(of::FaultKind::kProcessCrash, "aero",
                             "metadata-db",
                             static_cast<ou::SimTime>(applied))) {
        ++crashes;
        if (mix64(seed ^ (applied + 1)) & 1) {
          std::vector<std::string> segments = fs.list("aero-wal/wal-");
          if (!segments.empty()) {
            fs.truncate_tail(segments.back(),
                             1 + mix64(seed + applied) % 48);
          }
        }
        crashed = true;
        break;
      }
      scripted_op(db, seed, applied);
      ++applied;
    }
    completed = !crashed;
    if (completed) {
      // The surviving process's state matches the reference...
      EXPECT_EQ(db_bytes(db), expected);
    }
  }
  EXPECT_GE(crashes, 1u) << "the sweep must actually crash";
  EXPECT_GE(plan.injected(of::FaultKind::kProcessCrash), crashes);

  // ...and so does a final cold recovery from the durable files alone.
  oa::MetadataDb db;
  oa::Wal wal(fs, opts);
  oa::RecoveryStats stats = wal.recover(db);
  EXPECT_EQ(stats.checkpoint_lsn + stats.replayed, kOps);
  EXPECT_EQ(db_bytes(db), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySeedTest, ::testing::Range(0, 16));

// --- whole-server crash drill ----------------------------------------

namespace {

Value upper_transform(const Value& args) {
  std::string s = args.at("input").as_string();
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  ValueObject out;
  out["output"] = Value(s);
  return Value(std::move(out));
}

/// Everything a process holds in memory: fabric services, the AERO
/// server, endpoints. Destroying a World IS the crash; the DurableFs
/// passed in plays the disk and lives on.
struct World {
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::TransferService transfers{loop, auth, kSecond, 100.0e6};
  of::FlowsService flows{loop, auth};
  oa::AeroServer server{loop, auth, timers, transfers, flows};
  of::StorageEndpoint eagle{"eagle", loop, auth};
  of::StorageEndpoint scratch{"scratch", loop, auth};
  of::ComputeEndpoint login{"login", loop, auth, 2};
  std::string transform_fn;
  oa::RecoveryStats recovery;

  World(ou::DurableFs& fs, of::IncidentLog* incidents) {
    eagle.create_collection("data", server.token());
    scratch.create_collection("staging", server.token());
    transform_fn =
        login.register_function("upper", upper_transform, 30 * kSecond);
    if (incidents != nullptr) server.set_incident_log(incidents);
    recovery = server.enable_durability(fs);
  }

  oa::IngestionHandles register_flow(std::shared_ptr<oa::DataSource> source) {
    oa::IngestionFlowSpec spec;
    spec.name = "ww-ingest";
    spec.source = std::move(source);
    spec.poll_period = kDay;
    spec.first_poll = 0;
    spec.compute = &login;
    spec.function_id = transform_fn;
    spec.staging = &scratch;
    spec.staging_collection = "staging";
    spec.storage = &eagle;
    spec.collection = "data";
    spec.base_path = "ww-ingest";
    return server.register_ingestion(spec);
  }
};

std::shared_ptr<oa::ScriptedSource> feed() {
  return std::make_shared<oa::ScriptedSource>(
      "https://feed/ww",
      std::vector<std::pair<of::SimTime, std::string>>{{0, "week1"},
                                                       {2 * kDay, "week2"}});
}

}  // namespace

TEST(ServerCrashRecovery, MetadataAndServingTierSurviveRestart) {
  ou::MemFs fs;
  of::IncidentLog incidents;
  osprey::obs::MetricsRegistry cache_metrics;
  auto cache = std::unique_ptr<osprey::serve::ResultCache>();

  std::string raw_uuid;
  std::string output_uuid;
  {
    World w(fs, &incidents);
    EXPECT_FALSE(w.recovery.checkpoint_loaded);
    oa::IngestionHandles handles = w.register_flow(feed());
    raw_uuid = handles.raw_uuid;
    output_uuid = handles.output_uuid;
    w.loop.run_until(kHour);
    ASSERT_EQ(w.server.db().latest_version_number(output_uuid), 1);

    cache = std::make_unique<osprey::serve::ResultCache>(w.server,
                                                         cache_metrics);
    auto first = cache->lookup(output_uuid);
    EXPECT_EQ(first.outcome, osprey::serve::CacheOutcome::kMiss);
    EXPECT_TRUE(first.estimate.reason.empty());
    EXPECT_EQ(cache->lookup(output_uuid).outcome,
              osprey::serve::CacheOutcome::kHit);

    cache->detach();  // the cache object survives the crash
  }  // CRASH: the whole platform is destroyed; only `fs` persists

  {
    World w(fs, &incidents);
    // Metadata recovered from checkpoint + WAL replay.
    EXPECT_GT(w.recovery.replayed + w.recovery.checkpoint_lsn, 0u);
    EXPECT_EQ(w.server.db().latest_version_number(output_uuid), 1);
    EXPECT_EQ(w.server.db().object(output_uuid).name, "ww-ingest/transformed");

    // Re-registration is idempotent: the recovered objects are reused,
    // not duplicated.
    oa::IngestionHandles handles = w.register_flow(feed());
    EXPECT_EQ(handles.raw_uuid, raw_uuid);
    EXPECT_EQ(handles.output_uuid, output_uuid);
    EXPECT_EQ(w.server.db().find_objects("ww-ingest/").size(), 2u);

    // The rebound cache must never serve a pre-crash answer as a fresh
    // hit: the first post-restart lookup goes back to the origin.
    cache->rebind(w.server);
    auto again = cache->lookup(output_uuid);
    EXPECT_EQ(again.outcome, osprey::serve::CacheOutcome::kRevalidate);
    ASSERT_TRUE(again.estimate.version.has_value());
    EXPECT_EQ(again.estimate.version->checksum,
              osprey::crypto::Sha256::hash_hex("WEEK1"));

    // The restarted server keeps working: week2 lands as a NEW version
    // of the SAME recovered object, and the cache revalidates to it.
    w.loop.run_until(3 * kDay);
    int latest = w.server.db().latest_version_number(output_uuid);
    EXPECT_GE(latest, 2);
    auto fresh = cache->lookup(output_uuid);
    EXPECT_EQ(fresh.outcome, osprey::serve::CacheOutcome::kRevalidate);
    EXPECT_EQ(fresh.estimate.version->checksum,
              osprey::crypto::Sha256::hash_hex("WEEK2"));

    cache->detach();
  }
}

TEST(ServerCrashRecovery, InterruptedRunIsAdjudicatedFailed) {
  ou::MemFs fs;
  of::IncidentLog incidents;
  std::string output_uuid;
  {
    World w(fs, &incidents);
    oa::IngestionHandles handles = w.register_flow(feed());
    output_uuid = handles.output_uuid;
    // Stop mid-flow: the poll at t=0 has started a run (start_run is in
    // the WAL) but stage-out has not completed.
    w.loop.run_until(2 * kSecond);
    bool any_running = false;
    for (const oa::RunRecord& r : w.server.db().runs()) {
      any_running = any_running || r.status == oa::RunStatus::kRunning;
    }
    ASSERT_TRUE(any_running) << "drill needs an in-flight run to interrupt";
  }  // CRASH mid-run

  World w(fs, &incidents);
  // Every recovered run is adjudicated: nothing stays kRunning.
  ASSERT_FALSE(w.server.db().runs().empty());
  for (const oa::RunRecord& r : w.server.db().runs()) {
    EXPECT_NE(r.status, oa::RunStatus::kRunning);
  }
  EXPECT_GE(incidents.count_kind("run-interrupted"), 1u);

  // The adjudication itself was write-ahead logged: a second cold
  // recovery sees the failed run without re-adjudicating.
  of::IncidentLog incidents2;
  World w2(fs, &incidents2);
  EXPECT_EQ(incidents2.count_kind("run-interrupted"), 0u);
  EXPECT_EQ(db_bytes(w2.server.db()), db_bytes(w.server.db()));
}

TEST(ServerCrashRecovery, DurabilityMustPrecedeRegistration) {
  ou::MemFs fs;
  of::EventLoop loop;
  of::AuthService auth;
  of::TimerService timers{loop, auth};
  of::TransferService transfers{loop, auth, kSecond, 100.0e6};
  of::FlowsService flows{loop, auth};
  oa::AeroServer server{loop, auth, timers, transfers, flows};
  server.db().register_object("early", "flow");
  EXPECT_THROW(server.enable_durability(fs), ou::InvalidArgument);
}
