#include "gsa/music.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/music_coop.hpp"
#include "crypto/sha256.hpp"
#include "emews/worker_pool.hpp"
#include "util/error.hpp"

namespace og = osprey::gsa;
namespace on = osprey::num;
namespace oe = osprey::emews;

namespace {

double additive_model(const on::Vector& x) {
  // On the box below, exact S1 = (0.64, 0.32, 0.04) / 1.0 style ratios:
  // variances: (2a)^2/12 per coefficient a and unit widths.
  return 4.0 * x[0] + 2.0 * x[1] + 1.0 * x[2];
}

std::vector<on::ParamRange> unit_ranges3() {
  return {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}, {"c", 0.0, 1.0}};
}

og::MusicConfig fast_config() {
  og::MusicConfig cfg;
  cfg.ranges = unit_ranges3();
  cfg.n_init = 10;
  cfg.n_total = 30;
  cfg.n_candidates = 60;
  cfg.surrogate_mc_n = 512;
  cfg.reopt_every = 10;
  cfg.gp.mle_restarts = 1;
  cfg.gp.mle_max_iterations = 80;
  cfg.seed = 5;
  return cfg;
}

/// Five inputs, one inert (x1), with interactions — the shape of the
/// MetaRVM QoI the paper's use case 2 screens, at analytic cost.
double five_input_model(const on::Vector& x) {
  return std::sin(x[0]) + 7.0 * std::sin(x[2]) * std::sin(x[2]) +
         0.1 * std::pow(x[3], 4.0) * std::sin(x[0]) + 0.5 * x[4];
}

/// SHA-256 over the bytes of every trajectory S1/ST value, then the
/// evaluated design and its responses: any bit that moves in the
/// surrogate's predictions or the acquisition's choices moves this.
std::string music_digest(std::uint64_t seed, bool parallel,
                         og::Acquisition acquisition, std::size_t n_total) {
  og::MusicConfig cfg;
  cfg.ranges.assign(5, on::ParamRange{"x", -M_PI, M_PI});
  cfg.n_total = n_total;
  cfg.acquisition = acquisition;
  cfg.gp.parallel = parallel;
  cfg.seed = seed;
  og::MusicResult r = og::run_music(cfg, og::ModelFn(five_input_model));
  osprey::crypto::Sha256 h;
  for (const og::MusicStep& step : r.trajectory) {
    h.update(step.s1.data(), step.s1.size() * sizeof(double));
    h.update(step.st.data(), step.st.size() * sizeof(double));
  }
  h.update(r.x_box.data().data(), r.x_box.data().size() * sizeof(double));
  h.update(r.y.data(), r.y.size() * sizeof(double));
  return h.hex_digest();
}

}  // namespace

TEST(MusicEngine, GoldenTrajectoryDigest) {
  // n_total = 60 covers the refits at n = 25 and n = 50 and the plain
  // rank-1 advances between them; the serial and the pooled surrogate
  // must give the same bits.
  struct Golden {
    std::uint64_t seed;
    const char* sha256;
  };
  const Golden golden[] = {
      {1,
       "be5653943b2d5a7d87d33f1bbfc1e99a3776b29fdf80a82970ec2e1e18b1b4a8"},
      {2,
       "2491994d05ad37012985ebe11acd5dd58c79ccdba4720715c3f4e01fbbb6cd32"},
      {3,
       "a65236d1bceaf6fab3b345d5b6d6166cd293a468427e17da3848929078932d02"},
  };
  for (const Golden& g : golden) {
    for (bool parallel : {false, true}) {
      EXPECT_EQ(music_digest(g.seed, parallel, og::Acquisition::kEigf, 60),
                g.sha256)
          << "seed " << g.seed << " parallel " << parallel;
    }
  }
}

TEST(MusicEngine, GoldenAcquisitionDigests) {
  // Every scored acquisition kind picks its points through the same
  // batched prediction; pin each one's trajectory past the first refit.
  struct Golden {
    og::Acquisition acquisition;
    const char* sha256;
  };
  const Golden golden[] = {
      {og::Acquisition::kVariance,
       "8a277f2b4db339bf8253d3ec6d3526b6c1a847c630c3039f28bde645c3fbe4f9"},
      {og::Acquisition::kEi,
       "2bd62d555d6386e1c89e93da68452ff033465678af7b4d47fe59b2a49f5059da"},
      {og::Acquisition::kUcb,
       "e54b10c1a5ed94e44869d62847c6c6c46d2f0b585cc11eb3eb56ab25c8aeb4d0"},
      {og::Acquisition::kRandom,
       "92b44759127b138f03517410f850c55dd834c55864adedda124cd31c883e5d36"},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(music_digest(4, false, g.acquisition, 40), g.sha256)
        << og::acquisition_name(g.acquisition);
  }
}

TEST(MusicEngine, InitialDesignShapeAndRange) {
  og::MusicEngine engine(fast_config());
  on::Matrix design = engine.initial_design_box();
  EXPECT_EQ(design.rows(), 10u);
  EXPECT_EQ(design.cols(), 3u);
  for (std::size_t i = 0; i < design.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(design(i, j), 0.0);
      EXPECT_LE(design(i, j), 1.0);
    }
  }
}

TEST(MusicEngine, AdvanceBeforeDesignThrows) {
  og::MusicEngine engine(fast_config());
  EXPECT_THROW(engine.advance(), osprey::util::InvalidArgument);
}

TEST(MusicEngine, BudgetRespectedAndTrajectoryRecorded) {
  og::MusicResult result =
      og::run_music(fast_config(), og::ModelFn(additive_model));
  EXPECT_EQ(result.evaluations, 30u);
  // One record per advance: at n = 10, 11, ..., 30.
  EXPECT_EQ(result.trajectory.size(), 21u);
  EXPECT_EQ(result.trajectory.front().n, 10u);
  EXPECT_EQ(result.trajectory.back().n, 30u);
  EXPECT_EQ(result.final_s1.size(), 3u);
  EXPECT_EQ(result.y.size(), 30u);
}

TEST(MusicEngine, RecoversAdditiveIndices) {
  // Exact S1 for (4, 2, 1) coefficients: 16/21, 4/21, 1/21.
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 40;
  og::MusicResult result =
      og::run_music(cfg, og::ModelFn(additive_model));
  EXPECT_NEAR(result.final_s1[0], 16.0 / 21.0, 0.08);
  EXPECT_NEAR(result.final_s1[1], 4.0 / 21.0, 0.08);
  EXPECT_NEAR(result.final_s1[2], 1.0 / 21.0, 0.06);
}

TEST(MusicEngine, DeterministicPerSeed) {
  og::MusicResult a = og::run_music(fast_config(), og::ModelFn(additive_model));
  og::MusicResult b = og::run_music(fast_config(), og::ModelFn(additive_model));
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (std::size_t r = 0; r < a.trajectory.size(); ++r) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(a.trajectory[r].s1[j], b.trajectory[r].s1[j]);
    }
  }
}

TEST(MusicEngine, AcquisitionTargetsLeastKnownRegions) {
  // After the initial design, acquired points should not duplicate
  // existing design points (EIGF's variance term repels duplicates).
  og::MusicConfig cfg = fast_config();
  cfg.n_total = 20;
  og::MusicResult result = og::run_music(cfg, og::ModelFn(additive_model));
  for (std::size_t i = cfg.n_init; i < result.x_box.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      double dist = 0.0;
      for (std::size_t c = 0; c < 3; ++c) {
        double d = result.x_box(i, c) - result.x_box(j, c);
        dist += d * d;
      }
      EXPECT_GT(std::sqrt(dist), 1e-4)
          << "acquired point " << i << " duplicates " << j;
    }
  }
}

TEST(MusicEngine, StabilizationDetection) {
  std::vector<og::MusicStep> trajectory;
  // Indices wobble until n=15, then settle.
  for (std::size_t n = 10; n <= 30; ++n) {
    double wobble = n < 15 ? 0.3 : 0.001;
    trajectory.push_back(
        og::MusicStep{n, {0.5 + (n % 2 ? wobble : -wobble), 0.3}, {}});
  }
  EXPECT_EQ(og::stabilization_n(trajectory, 0.05), 15u);
  // Never-stable trajectory returns the last n.
  std::vector<og::MusicStep> wobbly;
  for (std::size_t n = 10; n <= 20; ++n) {
    wobbly.push_back(og::MusicStep{n, {n % 2 ? 0.9 : 0.1}, {}});
  }
  EXPECT_EQ(og::stabilization_n(wobbly, 0.05), 20u);
}

TEST(MusicEngine, ConfigValidation) {
  og::MusicConfig cfg = fast_config();
  cfg.ranges.clear();
  EXPECT_THROW(og::MusicEngine{cfg}, osprey::util::InvalidArgument);
  cfg = fast_config();
  cfg.n_total = 5;  // < n_init
  EXPECT_THROW(og::MusicEngine{cfg}, osprey::util::InvalidArgument);
}

TEST(MusicCoop, RunsOverEmewsQueue) {
  oe::TaskDb db;
  oe::ModelFn model = [](const osprey::util::Value& payload) {
    on::Vector x = payload.at("x").to_doubles();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(additive_model(x));
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 2);
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop0", oe::TaskQueue(db, "m"), fast_config(), 0);
  driver.add(coop);
  driver.run();
  EXPECT_TRUE(coop->finished());
  og::MusicResult result = coop->result();
  EXPECT_EQ(result.evaluations, 30u);
  EXPECT_NEAR(result.final_s1[0], 16.0 / 21.0, 0.1);
  pool.shutdown();
}

TEST(MusicCoop, MatchesSynchronousRun) {
  // The cooperative EMEWS path must produce the same trajectory as the
  // synchronous driver (same seed, deterministic model).
  og::MusicResult sync =
      og::run_music(fast_config(), og::ModelFn(additive_model));

  oe::TaskDb db;
  oe::ModelFn model = [](const osprey::util::Value& payload) {
    on::Vector x = payload.at("x").to_doubles();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(additive_model(x));
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 1);
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop0", oe::TaskQueue(db, "m"), fast_config(), 0);
  driver.add(coop);
  driver.run();
  pool.shutdown();
  og::MusicResult async = coop->result();

  ASSERT_EQ(async.trajectory.size(), sync.trajectory.size());
  for (std::size_t r = 0; r < sync.trajectory.size(); ++r) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(async.trajectory[r].s1[j], sync.trajectory[r].s1[j], 1e-9);
    }
  }
}

TEST(MusicCoop, ReplicateCarriedInPayload) {
  oe::TaskDb db;
  std::atomic<std::int64_t> seen_replicate{-1};
  oe::ModelFn model = [&seen_replicate](const osprey::util::Value& payload) {
    seen_replicate = payload.at("replicate").as_int();
    osprey::util::ValueObject out;
    out["y"] = osprey::util::Value(1.0 + payload.at("x").to_doubles()[0]);
    return osprey::util::Value(std::move(out));
  };
  oe::WorkerPool pool(db, "m", model, 1);
  og::MusicConfig cfg = fast_config();
  cfg.n_total = cfg.n_init;  // initial design only
  oe::InterleavedDriver driver(db);
  auto coop = std::make_shared<osprey::core::MusicCoop>(
      "coop7", oe::TaskQueue(db, "m"), cfg, 7);
  driver.add(coop);
  driver.run();
  pool.shutdown();
  EXPECT_EQ(seen_replicate.load(), 7);
  EXPECT_EQ(coop->replicate(), 7u);
}
