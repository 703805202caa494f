#pragma once

/// \file gp.hpp
/// Gaussian-process regression surrogate with maximum-likelihood
/// hyperparameter estimation — the from-scratch stand-in for the hetGP
/// R package the paper's MUSIC workflow uses. The nugget is estimated
/// alongside the lengthscales, which is the (homoskedastic slice of the)
/// heteroskedastic-noise capability MUSIC relies on for stochastic
/// simulators.
///
/// Inputs are expected in the unit cube [0,1]^d (MUSIC normalizes Table-1
/// parameter boxes before fitting); outputs are standardized internally.

#include <cstdint>
#include <optional>
#include <vector>

#include "gp/kernel.hpp"
#include "num/cholesky.hpp"
#include "num/rng.hpp"

namespace osprey::gp {

struct GpConfig {
  double jitter = 1e-10;          // numerical floor added to the diagonal
  std::size_t mle_restarts = 2;   // extra Nelder–Mead starts
  std::size_t mle_max_iterations = 200;
  double min_lengthscale = 1e-3;
  double max_lengthscale = 1e2;
  double min_nugget = 1e-8;
  double max_nugget = 1.0;        // relative to unit output variance
  std::uint64_t seed = 7;         // restarts' perturbation stream
  /// add_point(): extend the Cholesky factor by one row/column in
  /// O(n^2) instead of re-factorizing in O(n^3). Hyperparameters are
  /// unchanged on this path, so the factor is exact (up to rounding);
  /// a failed extension falls back to the full re-factorization.
  bool incremental = true;
  /// add_point(): run a full hyperparameter reoptimize() every this
  /// many appended points (0 = never; the caller drives the cadence,
  /// as the MUSIC engine does).
  std::size_t reopt_every = 25;
  /// Fan wide batch predictions and MLE multistarts out on the shared
  /// util::global_pool(). Results are bit-identical to the serial path.
  bool parallel = true;
};

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  // predictive variance incl. nugget floor 0
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpConfig config = {});

  /// Fit hyperparameters by MLE and condition on (x, y).
  void fit(const Matrix& x, const Vector& y);

  /// Condition on new data, keeping the current hyperparameters (cheap
  /// path for active-learning loops between re-optimizations).
  void update_data(const Matrix& x, const Vector& y);

  /// Append one observation. With config.incremental this is the O(n^2)
  /// rank-1 Cholesky extension (the active-learning hot path); every
  /// config.reopt_every appended points it instead runs a full
  /// reoptimize() so the hyperparameters track the growing design.
  void add_point(const Vector& x, double y);

  /// Re-run the hyperparameter optimization on the current data.
  void reoptimize();

  bool fitted() const { return chol_.has_value(); }
  std::size_t n() const { return x_.rows(); }
  std::size_t dim() const { return x_.cols(); }

  GpPrediction predict(const Vector& xstar) const;
  /// predict() for every row of `xstar`, bit for bit. The forward solves
  /// run over blocks of candidates side by side, each candidate keeping
  /// predict()'s operation order (the acquisition hot path).
  std::vector<GpPrediction> predict_batch(const Matrix& xstar) const;
  /// Mean-only batch prediction (O(n·d) per point; used by the
  /// surrogate-based Sobol estimator where variance is not needed).
  Vector predict_mean(const Matrix& xstar) const;
  /// Means on a Saltelli pick-freeze design in one pass: returns
  /// {predict_mean(a), predict_mean(b), predict_mean(ab_1), ...,
  /// predict_mean(ab_d)}, each bit for bit, where ab_j is `a` with
  /// column j taken from `b`. The scaled squared distances to a row of
  /// `a` and of `b` are computed once and shared by all d + 2 variants.
  std::vector<Vector> predict_mean_pick_freeze(const Matrix& a,
                                               const Matrix& b) const;

  /// Log marginal likelihood of the current fit (standardized scale).
  double log_marginal_likelihood() const;

  const ArdSqExpKernel& kernel() const { return kernel_; }
  double nugget() const { return nugget_; }

  /// The training response closest (in the kernel metric) to x — the
  /// y(x_nn) term of the EIGF acquisition.
  double nearest_response(const Vector& xstar) const;

  /// Leave-one-out cross-validation diagnostics, via the closed form
  /// mu_{-i} = y_i - [K^{-1} y]_i / [K^{-1}]_{ii} (no n refits). The
  /// K^{-1} diagonal comes straight from the Cholesky factor's column
  /// solves — the full inverse is never materialized. The standard
  /// surrogate-quality check before trusting GSA estimates.
  struct LooDiagnostics {
    double rmse = 0.0;          // raw-scale LOO prediction error
    double coverage95 = 0.0;    // fraction of y_i inside the 95% LOO band
    std::vector<double> residuals;  // raw-scale LOO residuals
  };
  LooDiagnostics leave_one_out() const;

 private:
  /// NLML of hyperparameters packed as log values.
  double nlml(const Vector& log_params) const;
  void condition();  // rebuild Cholesky and alpha for current hypers/data
  void restandardize();  // recompute y_mean_/y_sd_/y_std_ from y_
  void refresh_alpha_and_lml();  // alpha and lml from the current factor

  GpConfig config_;
  Matrix x_;
  Vector y_;           // raw responses
  Vector y_std_;       // standardized responses
  double y_mean_ = 0.0;
  double y_sd_ = 1.0;
  ArdSqExpKernel kernel_;
  double nugget_ = 1e-6;
  std::optional<osprey::num::Cholesky> chol_;
  /// Extra diagonal jitter the last condition() actually used on top of
  /// nugget + config.jitter (cholesky_with_jitter may escalate). The
  /// rank-1 extension must add the same amount so both paths factor the
  /// identical matrix.
  double cond_jitter_ = 0.0;
  Vector alpha_;       // K^{-1} y_std
  double lml_ = 0.0;
  std::size_t points_since_reopt_ = 0;  // add_point()s since last MLE
};

}  // namespace osprey::gp
