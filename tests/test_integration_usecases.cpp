/// Integration tests: both paper use cases end-to-end on the platform,
/// at reduced scale so they run in seconds.

#include <gtest/gtest.h>

#include <map>

#include "core/usecase_gsa.hpp"
#include "core/usecase_ww.hpp"
#include "crypto/sha256.hpp"
#include "num/stats.hpp"
#include "util/durable_fs.hpp"

namespace oc = osprey::core;
namespace on = osprey::num;
namespace ou = osprey::util;

namespace {

oc::WwUseCaseConfig small_ww_config() {
  oc::WwUseCaseConfig cfg;
  cfg.horizon_days = 70;
  cfg.first_poll_day = 28;
  cfg.goldstein.iterations = 800;
  cfg.goldstein.burnin = 400;
  cfg.goldstein.thin = 4;
  cfg.aggregate_draws = 50;
  cfg.seed = 7;
  return cfg;
}

}  // namespace

TEST(WastewaterUseCase, EndToEndPipelineProducesAllOutputs) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();

  const auto& aero = platform.aero();
  // Exact, deterministic event accounting: polling runs daily from day
  // 28; weekly publications observable within the 70-day feed fall on
  // days 28, 35, 42, 49, 56, 63 -> 6 updates per plant. Each triggers
  // one ingestion + one analysis run; the ALL-policy aggregation fires
  // once per complete publication round.
  const std::uint64_t kPublications = 6;
  EXPECT_EQ(aero.updates_detected(), 4 * kPublications);
  EXPECT_EQ(aero.ingestion_runs(), 4 * kPublications);
  EXPECT_EQ(aero.analysis_runs(), 4 * kPublications + kPublications);
  EXPECT_EQ(aero.failed_runs(), 0u);

  // Per-plant estimates exist and track the truth reasonably.
  auto outputs = usecase.plant_outputs();
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& po : outputs) {
    EXPECT_GT(po.versions, 0);
    ASSERT_GT(po.series.days(), 30u);
    std::vector<double> est(po.series.median.begin() + 7,
                            po.series.median.end() - 7);
    std::vector<double> truth(po.truth.begin() + 7, po.truth.end() - 7);
    EXPECT_LT(on::rmse(est, truth), 0.35) << po.plant.name;
    // 95% band covers a decent share of truth days.
    EXPECT_GT(po.series.coverage(po.truth), 0.5) << po.plant.name;
  }

  // The population-weighted aggregate exists.
  ASSERT_TRUE(usecase.has_aggregate());
  auto agg = usecase.aggregate_output();
  EXPECT_GT(agg.days(), 30u);
  std::vector<double> agg_truth = usecase.aggregate_truth(agg.days());
  std::vector<double> agg_mid(agg.median.begin() + 7, agg.median.end() - 7);
  std::vector<double> truth_mid(agg_truth.begin() + 7, agg_truth.end() - 7);
  EXPECT_LT(on::rmse(agg_mid, truth_mid), 0.3);
}

TEST(WastewaterUseCase, MultiLanguageHarnessesAllInvoked) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  auto& registry = usecase.harnesses();
  EXPECT_GT(registry.invocations_by(oc::Language::kPython), 0u);
  EXPECT_GT(registry.invocations_by(oc::Language::kJulia), 0u);
  EXPECT_GT(registry.invocations_by(oc::Language::kR), 0u);
}

TEST(WastewaterUseCase, PayloadsStayOffTheAeroServer) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  // Every metadata version matches an object on a storage endpoint.
  const auto& db = platform.aero().db();
  for (const std::string& uuid : db.object_uuids()) {
    auto ver = db.latest_version(uuid);
    if (!ver.has_value()) continue;
    const auto& ep = platform.storage_endpoint(ver->endpoint);
    EXPECT_TRUE(ep.exists(ver->collection, ver->path)) << uuid;
    const auto& obj =
        ep.get(ver->collection, ver->path, platform.aero().token());
    EXPECT_EQ(obj.checksum, ver->checksum);
    EXPECT_EQ(obj.bytes.size(), ver->size_bytes);
  }
}

TEST(WastewaterUseCase, StakeholderHasReadAccess) {
  oc::OspreyPlatform platform;
  oc::WastewaterUseCase usecase(platform, small_ww_config());
  usecase.build();
  usecase.run_to_end();
  // Outputs are shareable via collection permissions (paper §2.2).
  std::string stakeholder_token =
      platform.issue_token("public-health-stakeholder");
  auto& eagle = platform.storage_endpoint(oc::WastewaterUseCase::kStorageName);
  auto listing = eagle.list(oc::WastewaterUseCase::kCollection, "rt/",
                            stakeholder_token);
  EXPECT_GE(listing.size(), 12u);  // 3 outputs x 4 plants
  EXPECT_NO_THROW(
      eagle.get(oc::WastewaterUseCase::kCollection, listing[0],
                stakeholder_token));
  // ... but no write access.
  EXPECT_THROW(eagle.put(oc::WastewaterUseCase::kCollection, "rogue", "x",
                         stakeholder_token),
               ou::AuthError);
}

TEST(WastewaterUseCase, GoldenArtifactDigests) {
  // A short fixed-seed campaign with daily publication and the WAL on
  // MemFs. Every published version of the three CSV artifacts is
  // hashed in publication order, and the MetadataDb snapshot is hashed
  // at the end. The values were recorded before the numeric CSV codec
  // and the SHA-NI kernel replaced util::format/CsvTable and the
  // portable compress on this path, so any byte drift in either fails.
  ou::MemFs fs;  // outlives the platform's WAL
  oc::OspreyPlatform platform;
  platform.aero().enable_durability(fs);
  oc::WwUseCaseConfig cfg = small_ww_config();
  cfg.horizon_days = 40;
  cfg.ww.publish_period_days = 1;
  oc::WastewaterUseCase usecase(platform, cfg);
  usecase.build();

  std::map<std::string, std::string> artifact_of;  // uuid -> artifact name
  for (const auto& outs : usecase.analysis_outputs()) {
    artifact_of[outs[0]] = "rt_summary.csv";
    artifact_of[outs[1]] = "rt_draws.csv";
  }
  artifact_of[usecase.aggregate_outputs()[0]] = "aggregate_rt.csv";
  std::map<std::string, osprey::crypto::Sha256> hashers;
  std::map<std::string, int> versions;
  platform.aero().add_update_listener([&](const std::string& uuid) {
    auto it = artifact_of.find(uuid);
    if (it == artifact_of.end()) return;
    auto v = platform.aero().db().latest_version(uuid);
    ASSERT_TRUE(v.has_value());
    hashers[it->second].update(
        platform.storage_endpoint(v->endpoint)
            .get(v->collection, v->path, platform.aero().token())
            .bytes);
    ++versions[it->second];
  });
  usecase.run_to_end();

  EXPECT_EQ(versions["rt_draws.csv"], 24);
  EXPECT_EQ(versions["rt_summary.csv"], 24);
  EXPECT_EQ(versions["aggregate_rt.csv"], 6);
  EXPECT_EQ(hashers["rt_draws.csv"].hex_digest(),
            "8e645aed3181f3beebb9e6153e7c61797497c2d5a0f2ed8a6894b1160f63dc2a");
  EXPECT_EQ(hashers["rt_summary.csv"].hex_digest(),
            "5b09af3a8c50cd527ad38ac5e0acbc08b983d1a681d4eae6646c3b4d9fd98096");
  EXPECT_EQ(hashers["aggregate_rt.csv"].hex_digest(),
            "dda3f45e06cf7a60f469dc4131f5a649fd1b7d953ef19eb4395f6510e79de961");
  EXPECT_EQ(osprey::crypto::Sha256::hash_hex(
                platform.aero().db().to_json().to_json()),
            "29d01d1f819549f0d446c0d70fab511723d3c4b6e292ac21e5b194257113fbeb");
}

TEST(GsaUseCase, InterleavedReplicatesProduceTrajectories) {
  oc::OspreyPlatform platform;
  oc::GsaUseCaseConfig cfg;
  cfg.n_replicates = 3;
  cfg.n_workers = 2;
  cfg.music.n_init = 10;
  cfg.music.n_total = 18;
  cfg.music.surrogate_mc_n = 256;
  cfg.music.n_candidates = 50;
  cfg.music.gp.mle_restarts = 0;
  cfg.music.gp.mle_max_iterations = 60;
  cfg.model = osprey::epi::MetaRvmConfig::single_group(50000, 25, 60);
  oc::GsaUseCase usecase(platform, cfg);
  oc::GsaUseCaseResult result = usecase.run();

  ASSERT_EQ(result.replicates.size(), 3u);
  EXPECT_EQ(result.tasks_evaluated, 3u * 18u);
  for (const auto& rep : result.replicates) {
    EXPECT_EQ(rep.evaluations, 18u);
    ASSERT_FALSE(rep.trajectory.empty());
    for (double s1 : rep.final_s1) {
      EXPECT_GE(s1, 0.0);
      EXPECT_LE(s1, 1.0);
    }
    // ts should matter more than phd for total hospitalizations.
    EXPECT_GT(rep.final_s1[0], rep.final_s1[4]);
  }
  EXPECT_GT(result.driver_polls, 0u);
  // The scheduler-launched pool path was used.
  EXPECT_EQ(platform.scheduler("improv-pbs").jobs().size(), 1u);
}

TEST(GsaUseCase, DirectPoolPathAlsoWorks) {
  oc::OspreyPlatform platform;
  oc::GsaUseCaseConfig cfg;
  cfg.launch_via_scheduler = false;
  cfg.n_replicates = 2;
  cfg.n_workers = 2;
  cfg.music.n_init = 8;
  cfg.music.n_total = 12;
  cfg.music.surrogate_mc_n = 128;
  cfg.music.n_candidates = 30;
  cfg.music.gp.mle_restarts = 0;
  cfg.music.gp.mle_max_iterations = 40;
  cfg.model = osprey::epi::MetaRvmConfig::single_group(30000, 20, 45);
  oc::GsaUseCase usecase(platform, cfg);
  oc::GsaUseCaseResult result = usecase.run();
  EXPECT_EQ(result.replicates.size(), 2u);
  EXPECT_EQ(result.tasks_evaluated, 2u * 12u);
}

TEST(GsaUseCase, ReplicatesDifferButAreInternallyDeterministic) {
  auto run_once = [] {
    oc::OspreyPlatform platform;
    oc::GsaUseCaseConfig cfg;
    cfg.launch_via_scheduler = false;
    cfg.n_replicates = 2;
    cfg.n_workers = 2;
    cfg.music.n_init = 8;
    cfg.music.n_total = 12;
    cfg.music.surrogate_mc_n = 128;
    cfg.music.n_candidates = 30;
    cfg.music.gp.mle_restarts = 0;
    cfg.music.gp.mle_max_iterations = 40;
    cfg.model = osprey::epi::MetaRvmConfig::single_group(30000, 20, 45);
    return oc::GsaUseCase(platform, cfg).run();
  };
  oc::GsaUseCaseResult a = run_once();
  oc::GsaUseCaseResult b = run_once();
  // Cross-replicate: different random streams -> different trajectories.
  EXPECT_NE(a.replicates[0].final_s1, a.replicates[1].final_s1);
  // Re-running the whole workflow reproduces results exactly, despite
  // the multi-threaded pool (every evaluation is (x, replicate)-pure).
  for (std::size_t r = 0; r < 2; ++r) {
    ASSERT_EQ(a.replicates[r].trajectory.size(),
              b.replicates[r].trajectory.size());
    EXPECT_EQ(a.replicates[r].final_s1, b.replicates[r].final_s1);
  }
}
