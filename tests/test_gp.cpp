#include "gp/gp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "num/cholesky.hpp"
#include "num/sampling.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"

namespace og = osprey::gp;
namespace on = osprey::num;

namespace {

double test_fn(const on::Vector& u) {
  // Smooth 2-D function on the unit square.
  return std::sin(3.0 * u[0]) + 0.5 * std::cos(5.0 * u[1]) + u[0] * u[1];
}

/// Fit a GP on an n-point LHS of test_fn.
og::GaussianProcess fit_test_gp(std::size_t n, std::uint64_t seed = 1) {
  on::RngStream rng(seed);
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = test_fn(x.row(i));
  og::GaussianProcess gp;
  gp.fit(x, y);
  return gp;
}

/// A smooth response over d inputs in the unit cube.
double smooth_nd(const on::Vector& u) {
  double s = 0.0;
  for (std::size_t j = 0; j < u.size(); ++j) {
    s += std::sin(2.0 + 3.0 * static_cast<double>(j + 1) * u[j]);
  }
  return s + u[0] * u.back();
}

/// Runs `check` on an n-point, d-input GP after fit(), after a rank-1
/// add_point() and after reoptimize() — the three states MUSIC predicts
/// from — with the pool fan-out off and on.
void for_each_gp_state(
    std::size_t n, std::size_t d,
    const std::function<void(const og::GaussianProcess&)>& check) {
  for (bool parallel : {false, true}) {
    og::GpConfig cfg;
    cfg.mle_restarts = 0;
    cfg.mle_max_iterations = 40;
    cfg.parallel = parallel;
    og::GaussianProcess gp(cfg);
    on::RngStream rng(n * 10 + d);
    on::Matrix x = on::latin_hypercube(n, d, rng);
    on::Vector y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = smooth_nd(x.row(i));
    gp.fit(x, y);
    check(gp);
    on::Vector extra(d, 0.37);
    gp.add_point(extra, smooth_nd(extra));
    check(gp);
    gp.reoptimize();
    check(gp);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const on::Vector& a, const on::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(Kernel, SymmetricAndPsdShape) {
  og::ArdSqExpKernel k;
  k.lengthscales = {0.5, 0.2};
  k.variance = 2.0;
  on::Vector a{0.1, 0.2}, b{0.3, 0.9};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_DOUBLE_EQ(k(a, a), 2.0);      // k(x,x) = variance
  EXPECT_LT(k(a, b), k(a, a));         // correlation decays
  EXPECT_GT(k(a, b), 0.0);
}

TEST(Kernel, AnisotropyMatters) {
  og::ArdSqExpKernel k;
  k.lengthscales = {10.0, 0.01};
  k.variance = 1.0;
  on::Vector base{0.5, 0.5};
  on::Vector moved_x1{0.9, 0.5};
  on::Vector moved_x2{0.5, 0.9};
  // Long lengthscale in dim 1: moving there barely matters; dim 2 kills
  // the correlation.
  EXPECT_GT(k(base, moved_x1), 0.99);
  EXPECT_LT(k(base, moved_x2), 1e-10);
}

TEST(Kernel, CovarianceMatrixMatchesPairwise) {
  og::ArdSqExpKernel k;
  k.lengthscales = {0.3, 0.3};
  k.variance = 1.5;
  on::RngStream rng(2);
  on::Matrix x = on::latin_hypercube(6, 2, rng);
  on::Matrix cov = k.covariance(x);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(cov(i, j), k(x.row(i), x.row(j)), 1e-12);
    }
  }
  on::Vector cross = k.cross(x, x.row(3));
  EXPECT_NEAR(cross[3], 1.5, 1e-12);
}

TEST(Gp, InterpolatesTrainingPoints) {
  og::GaussianProcess gp = fit_test_gp(30);
  // Re-predicting training points: tiny nugget -> near interpolation.
  on::RngStream rng(1);
  on::Matrix x = on::latin_hypercube(30, 2, rng);
  for (std::size_t i = 0; i < 30; i += 7) {
    og::GpPrediction pred = gp.predict(x.row(i));
    EXPECT_NEAR(pred.mean, test_fn(x.row(i)), 0.05);
  }
}

TEST(Gp, PredictsHeldOutPoints) {
  og::GaussianProcess gp = fit_test_gp(60);
  on::RngStream rng(99);
  std::vector<double> errors;
  for (int i = 0; i < 50; ++i) {
    on::Vector u{rng.uniform(), rng.uniform()};
    errors.push_back(std::fabs(gp.predict(u).mean - test_fn(u)));
  }
  EXPECT_LT(on::mean(errors), 0.05);
}

TEST(Gp, VarianceSmallAtDataLargeFarAway) {
  // Train only in the lower-left quadrant.
  on::RngStream rng(5);
  on::Matrix x(20, 2);
  on::Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = 0.4 * rng.uniform();
    x(i, 1) = 0.4 * rng.uniform();
    y[i] = test_fn(x.row(i));
  }
  og::GaussianProcess gp;
  gp.fit(x, y);
  double var_near = gp.predict({0.2, 0.2}).variance;
  double var_far = gp.predict({0.95, 0.95}).variance;
  EXPECT_GT(var_far, 5.0 * var_near);
}

TEST(Gp, PredictMeanBatchMatchesSingle) {
  og::GaussianProcess gp = fit_test_gp(25);
  on::RngStream rng(7);
  on::Matrix q = on::latin_hypercube(10, 2, rng);
  on::Vector batch = gp.predict_mean(q);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(batch[i], gp.predict(q.row(i)).mean, 1e-9);
  }
}

TEST(Gp, PickFreezeMatchesPredictMeanBitwise) {
  // 1000 rows: the pooled path runs in row blocks with a partial last
  // one (n = 2 stays under the fan-out threshold and runs serially).
  for (std::size_t n : {2u, 25u, 97u}) {
    for (std::size_t d : {1u, 5u}) {
      on::RngStream rng(d);
      on::Matrix a = on::latin_hypercube(1000, d, rng);
      on::Matrix b = on::latin_hypercube(1000, d, rng);
      for_each_gp_state(n, d, [&](const og::GaussianProcess& gp) {
        std::vector<on::Vector> means = gp.predict_mean_pick_freeze(a, b);
        ASSERT_EQ(means.size(), d + 2);
        EXPECT_TRUE(same_bits(means[0], gp.predict_mean(a)))
            << "A, n=" << n << " d=" << d;
        EXPECT_TRUE(same_bits(means[1], gp.predict_mean(b)))
            << "B, n=" << n << " d=" << d;
        for (std::size_t j = 0; j < d; ++j) {
          on::Matrix ab = a;
          for (std::size_t r = 0; r < ab.rows(); ++r) ab(r, j) = b(r, j);
          EXPECT_TRUE(same_bits(means[j + 2], gp.predict_mean(ab)))
              << "AB_" << j << ", n=" << n << " d=" << d;
        }
      });
    }
  }
}

TEST(Gp, PredictBatchMatchesPredictBitwise) {
  // Candidate counts around the 16-wide block: one short block, exactly
  // one, one plus a lane, and the acquisition pool's 200 (partial last).
  for (std::size_t n : {2u, 25u, 97u}) {
    for (std::size_t d : {1u, 5u}) {
      for_each_gp_state(n, d, [&](const og::GaussianProcess& gp) {
        for (std::size_t count : {1u, 15u, 16u, 17u, 200u}) {
          on::RngStream rng(count);
          on::Matrix cand = on::latin_hypercube(count, d, rng);
          std::vector<og::GpPrediction> batch = gp.predict_batch(cand);
          ASSERT_EQ(batch.size(), count);
          for (std::size_t c = 0; c < count; ++c) {
            og::GpPrediction one = gp.predict(cand.row(c));
            EXPECT_TRUE(same_bits(batch[c].mean, one.mean))
                << "mean n=" << n << " d=" << d << " c=" << c << "/" << count;
            EXPECT_TRUE(same_bits(batch[c].variance, one.variance))
                << "variance n=" << n << " d=" << d << " c=" << c << "/"
                << count;
          }
        }
      });
    }
  }
}

TEST(Gp, AddPointImprovesLocalFit) {
  og::GaussianProcess gp = fit_test_gp(15);
  on::Vector target{0.77, 0.33};
  double before_var = gp.predict(target).variance;
  gp.add_point(target, test_fn(target));
  double after_var = gp.predict(target).variance;
  EXPECT_LT(after_var, before_var * 0.5);
  EXPECT_NEAR(gp.predict(target).mean, test_fn(target), 0.05);
  EXPECT_EQ(gp.n(), 16u);
}

TEST(Gp, IncrementalAddMatchesFullRefitOverThirtyPoints) {
  // The rank-1 Cholesky path must agree with the from-scratch
  // re-factorization to tight tolerance across a long run of sequential
  // additions (hyperparameters fixed on both sides).
  const std::size_t n0 = 20;
  const std::size_t n_add = 30;
  on::RngStream rng(42);
  on::Matrix x0 = on::latin_hypercube(n0, 2, rng);
  on::Vector y0(n0);
  for (std::size_t i = 0; i < n0; ++i) y0[i] = test_fn(x0.row(i));

  og::GpConfig cfg;
  cfg.reopt_every = 0;  // neither side re-optimizes mid-run
  og::GpConfig full_cfg = cfg;
  full_cfg.incremental = false;
  og::GaussianProcess inc(cfg);
  og::GaussianProcess full(full_cfg);
  inc.fit(x0, y0);
  full.fit(x0, y0);

  on::Matrix additions = on::latin_hypercube(n_add, 2, rng);
  on::Matrix queries = on::latin_hypercube(25, 2, rng);
  for (std::size_t i = 0; i < n_add; ++i) {
    on::Vector p = additions.row(i);
    double y = test_fn(p);
    inc.add_point(p, y);
    full.add_point(p, y);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      og::GpPrediction a = inc.predict(queries.row(q));
      og::GpPrediction b = full.predict(queries.row(q));
      EXPECT_NEAR(a.mean, b.mean, 1e-8) << "add " << i << " query " << q;
      EXPECT_NEAR(a.variance, b.variance, 1e-8)
          << "add " << i << " query " << q;
    }
  }
  EXPECT_EQ(inc.n(), n0 + n_add);
  EXPECT_NEAR(inc.log_marginal_likelihood(), full.log_marginal_likelihood(),
              1e-8);
}

TEST(Gp, AddPointPeriodicReoptimizeTracksHyperparameters) {
  // With reopt_every = 8, the 8th appended point must trigger a full
  // MLE refit; with the cadence disabled the hyperparameters stay put.
  on::RngStream rng(31);
  on::Matrix x0 = on::latin_hypercube(12, 2, rng);
  on::Vector y0(12);
  for (std::size_t i = 0; i < 12; ++i) y0[i] = test_fn(x0.row(i));
  og::GpConfig cfg;
  cfg.reopt_every = 8;
  og::GpConfig frozen_cfg = cfg;
  frozen_cfg.reopt_every = 0;
  og::GaussianProcess gp(cfg);
  og::GaussianProcess frozen(frozen_cfg);
  gp.fit(x0, y0);
  frozen.fit(x0, y0);
  on::Vector ls_before = gp.kernel().lengthscales;

  on::Matrix additions = on::latin_hypercube(8, 2, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    gp.add_point(additions.row(i), test_fn(additions.row(i)));
    frozen.add_point(additions.row(i), test_fn(additions.row(i)));
  }
  EXPECT_EQ(frozen.kernel().lengthscales, ls_before);
  bool changed = false;
  for (std::size_t j = 0; j < ls_before.size(); ++j) {
    if (std::fabs(gp.kernel().lengthscales[j] - ls_before[j]) > 1e-12) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed) << "reopt_every cadence did not refit";
}

TEST(Gp, LeaveOneOutMatchesDenseInverseFormulation) {
  // The rewritten LOO (K^{-1} diagonal straight from the factor) must
  // reproduce the old solve(Matrix::identity(n)) formulation at n=150.
  const std::size_t n = 150;
  on::RngStream rng(7);
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = test_fn(x.row(i)) + 0.05 * rng.normal();
  }
  og::GpConfig cfg;
  cfg.mle_restarts = 0;
  og::GaussianProcess gp(cfg);
  gp.fit(x, y);
  og::GaussianProcess::LooDiagnostics fast = gp.leave_one_out();

  // Reference: materialize K^{-1} the old way from the fitted
  // hyperparameters and recompute the closed-form residuals. condition()
  // adds nugget + jitter and cholesky_with_jitter layers one more base
  // jitter on its (successful) first attempt, so the factored diagonal
  // is nugget + 2 * jitter.
  on::Matrix k = gp.kernel().covariance(x);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) += gp.nugget() + 2.0 * cfg.jitter;
  }
  on::Cholesky chol(k);
  on::Matrix k_inv = chol.solve(on::Matrix::identity(n));
  double y_mean = on::mean(y);
  double y_sd = on::stddev(y);
  on::Vector y_std(n);
  for (std::size_t i = 0; i < n; ++i) y_std[i] = (y[i] - y_mean) / y_sd;
  on::Vector alpha = chol.solve(y_std);
  ASSERT_EQ(fast.residuals.size(), n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double resid = (alpha[i] / k_inv(i, i)) * y_sd;
    EXPECT_NEAR(fast.residuals[i], resid, 1e-8) << i;
    acc += resid * resid;
  }
  EXPECT_NEAR(fast.rmse, std::sqrt(acc / static_cast<double>(n)), 1e-8);
  EXPECT_GE(fast.coverage95, 0.85);  // sane diagnostics on a smooth fn
}

TEST(Gp, LogMarginalLikelihoodImprovesWithReoptimize) {
  on::RngStream rng(11);
  on::Matrix x = on::latin_hypercube(40, 2, rng);
  on::Vector y(40);
  for (std::size_t i = 0; i < 40; ++i) y[i] = test_fn(x.row(i));
  og::GaussianProcess gp;
  gp.update_data(x, y);  // default hyperparameters
  double before = gp.log_marginal_likelihood();
  gp.reoptimize();
  double after = gp.log_marginal_likelihood();
  EXPECT_GE(after, before - 1e-9);
}

TEST(Gp, NearestResponse) {
  on::Matrix x(3, 1);
  x(0, 0) = 0.1;
  x(1, 0) = 0.5;
  x(2, 0) = 0.9;
  on::Vector y{10.0, 20.0, 30.0};
  og::GaussianProcess gp;
  gp.update_data(x, y);
  EXPECT_DOUBLE_EQ(gp.nearest_response({0.45}), 20.0);
  EXPECT_DOUBLE_EQ(gp.nearest_response({0.95}), 30.0);
}

TEST(Gp, HandlesNoisyReplicatesViaNugget) {
  // y = f(x) + noise; the estimated nugget should absorb the noise, and
  // predictions should sit near the noiseless function.
  on::RngStream rng(13);
  const std::size_t n = 80;
  on::Matrix x = on::latin_hypercube(n, 2, rng);
  on::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = test_fn(x.row(i)) + 0.2 * rng.normal();
  }
  og::GaussianProcess gp;
  gp.fit(x, y);
  EXPECT_GT(gp.nugget(), 1e-4);  // noise absorbed
  std::vector<double> errors;
  for (int i = 0; i < 40; ++i) {
    on::Vector u{rng.uniform(), rng.uniform()};
    errors.push_back(std::fabs(gp.predict(u).mean - test_fn(u)));
  }
  EXPECT_LT(on::mean(errors), 0.15);
}

TEST(Gp, ConstantResponsesDoNotCrash) {
  on::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  on::Vector y(5, 3.0);
  og::GaussianProcess gp;
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 0.2);
}

TEST(Gp, PreconditionsEnforced) {
  og::GaussianProcess gp;
  EXPECT_THROW(gp.predict({0.5}), osprey::util::InvalidArgument);
  on::Matrix x(1, 1, 0.5);
  EXPECT_THROW(gp.fit(x, {1.0}), osprey::util::InvalidArgument);
  on::Matrix x2(3, 1, 0.5);
  EXPECT_THROW(gp.fit(x2, {1.0, 2.0}), osprey::util::InvalidArgument);
}
