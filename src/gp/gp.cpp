#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "num/optim.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace osprey::gp {

using osprey::num::Cholesky;
using osprey::num::Vector;

namespace {

/// predict_batch()'s candidates per block: the forward solve's scratch
/// stays O(n * kPredictBlock).
constexpr std::size_t kPredictBlock = 16;

/// Batches with real work (rows x training points) fan out on the
/// shared pool; small ones stay on the caller.
bool worth_fanning_out(std::size_t rows, std::size_t n) {
  return rows >= 32 && rows * n >= 16384;
}

}  // namespace

GaussianProcess::GaussianProcess(GpConfig config)
    : config_(std::move(config)) {}

void GaussianProcess::fit(const Matrix& x, const Vector& y) {
  update_data(x, y);
  reoptimize();
}

void GaussianProcess::restandardize() {
  y_mean_ = osprey::num::mean(y_);
  y_sd_ = osprey::num::stddev(y_);
  if (y_sd_ < 1e-12) y_sd_ = 1.0;  // constant responses: degenerate scale
  y_std_.resize(y_.size());
  for (std::size_t i = 0; i < y_.size(); ++i) {
    y_std_[i] = (y_[i] - y_mean_) / y_sd_;
  }
}

void GaussianProcess::update_data(const Matrix& x, const Vector& y) {
  OSPREY_REQUIRE(x.rows() == y.size(), "X/y size mismatch");
  OSPREY_REQUIRE(x.rows() >= 2, "GP needs at least 2 points");
  x_ = x;
  y_ = y;
  restandardize();
  if (kernel_.lengthscales.size() != x_.cols()) {
    kernel_.lengthscales.assign(x_.cols(), 0.3);
    kernel_.variance = 1.0;
    nugget_ = 1e-4;
  }
  condition();
}

void GaussianProcess::add_point(const Vector& x, double y) {
  OSPREY_REQUIRE(fitted(), "add_point before fit");
  OSPREY_REQUIRE(x.size() == x_.cols(), "point dimension mismatch");
  const std::size_t n = x_.rows();
  Matrix x2(n + 1, x_.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < x_.cols(); ++j) x2(i, j) = x_(i, j);
  }
  for (std::size_t j = 0; j < x_.cols(); ++j) x2(n, j) = x[j];
  x_ = std::move(x2);
  y_.push_back(y);
  restandardize();
  ++points_since_reopt_;

  if (config_.reopt_every > 0 && points_since_reopt_ >= config_.reopt_every) {
    reoptimize();
    return;
  }
  if (!config_.incremental) {
    condition();
    return;
  }
  // Rank-1 path: the kernel matrix of the first n points is unchanged
  // (hyperparameters are fixed here), so only the new row/column enters
  // the factor — O(n^2) instead of the O(n^3) re-factorization. The
  // response standardization does shift with the new y, but that only
  // affects alpha, which is an O(n^2) pair of triangular solves.
  Vector k(n);
  for (std::size_t i = 0; i < n; ++i) k[i] = kernel_(x_.row(i), x);
  // Diagonal must match condition() exactly: nugget + the base jitter
  // plus whatever extra jitter the last factorization escalated to.
  double c = kernel_.variance + nugget_ + config_.jitter + cond_jitter_;
  try {
    chol_->extend(k, c);
  } catch (const osprey::util::NumericalError&) {
    // Near-duplicate point made the bordered matrix numerically
    // indefinite: fall back to the jitter-growing full factorization.
    condition();
    return;
  }
  refresh_alpha_and_lml();
}

double GaussianProcess::nlml(const Vector& log_params) const {
  // log_params = [log l_1..log l_d, log variance, log nugget].
  const std::size_t d = x_.cols();
  ArdSqExpKernel kernel;
  kernel.lengthscales.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    double l = std::exp(log_params[j]);
    if (l < config_.min_lengthscale || l > config_.max_lengthscale) {
      return 1e12;
    }
    kernel.lengthscales[j] = l;
  }
  kernel.variance = std::exp(log_params[d]);
  if (kernel.variance < 1e-6 || kernel.variance > 1e4) return 1e12;
  double nugget = std::exp(log_params[d + 1]);
  if (nugget < config_.min_nugget || nugget > config_.max_nugget) return 1e12;

  Matrix k = kernel.covariance(x_);
  for (std::size_t i = 0; i < k.rows(); ++i) {
    k(i, i) += nugget + config_.jitter;
  }
  try {
    Cholesky chol(k);
    Vector alpha = chol.solve(y_std_);
    double fit_term = 0.5 * osprey::num::dot(y_std_, alpha);
    double det_term = 0.5 * chol.log_det();
    double n = static_cast<double>(x_.rows());
    return fit_term + det_term + 0.5 * n * std::log(2.0 * M_PI);
  } catch (const osprey::util::NumericalError&) {
    return 1e12;
  }
}

void GaussianProcess::reoptimize() {
  OSPREY_REQUIRE(x_.rows() >= 2, "reoptimize before data");
  const std::size_t d = x_.cols();
  Vector x0(d + 2);
  for (std::size_t j = 0; j < d; ++j) {
    x0[j] = std::log(std::clamp(kernel_.lengthscales[j],
                                config_.min_lengthscale,
                                config_.max_lengthscale));
  }
  x0[d] = std::log(std::clamp(kernel_.variance, 1e-6, 1e4));
  x0[d + 1] = std::log(std::clamp(nugget_, config_.min_nugget,
                                  config_.max_nugget));

  osprey::num::NelderMeadOptions options;
  options.max_iterations = config_.mle_max_iterations;
  options.initial_step = 0.7;
  osprey::num::RngStream rng(config_.seed);
  // nlml() only reads const state, so the multistarts are safe to fan
  // out; the result is bit-identical to the serial path.
  osprey::util::ThreadPool* pool =
      (config_.parallel && config_.mle_restarts > 0)
          ? &osprey::util::global_pool()
          : nullptr;
  osprey::num::OptimResult best = osprey::num::multistart_minimize(
      [this](const Vector& p) { return nlml(p); }, x0, config_.mle_restarts,
      1.5, rng, options, pool);

  for (std::size_t j = 0; j < d; ++j) {
    kernel_.lengthscales[j] = std::exp(best.x[j]);
  }
  kernel_.variance = std::exp(best.x[d]);
  nugget_ = std::exp(best.x[d + 1]);
  points_since_reopt_ = 0;
  condition();
}

void GaussianProcess::condition() {
  Matrix k = kernel_.covariance(x_);
  for (std::size_t i = 0; i < k.rows(); ++i) {
    k(i, i) += nugget_ + config_.jitter;
  }
  chol_ = osprey::num::cholesky_with_jitter(k, config_.jitter, 10,
                                            &cond_jitter_);
  refresh_alpha_and_lml();
}

void GaussianProcess::refresh_alpha_and_lml() {
  alpha_ = chol_->solve(y_std_);
  double fit_term = 0.5 * osprey::num::dot(y_std_, alpha_);
  double det_term = 0.5 * chol_->log_det();
  double n = static_cast<double>(x_.rows());
  lml_ = -(fit_term + det_term + 0.5 * n * std::log(2.0 * M_PI));
}

GpPrediction GaussianProcess::predict(const Vector& xstar) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  Vector k = kernel_.cross(x_, xstar);
  GpPrediction pred;
  double m = osprey::num::dot(k, alpha_);
  pred.mean = y_mean_ + y_sd_ * m;
  Vector v = chol_->solve_lower(k);
  double var = kernel_.variance - osprey::num::dot(v, v);
  var = std::max(var, 0.0);
  pred.variance = var * y_sd_ * y_sd_;
  return pred;
}

std::vector<GpPrediction> GaussianProcess::predict_batch(
    const Matrix& xstar) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  OSPREY_REQUIRE(xstar.cols() == x_.cols(), "dimension mismatch");
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const Matrix& l = chol_->lower();
  std::vector<GpPrediction> out(xstar.rows());
  // Row i of `v` holds entry i of every block candidate's k, and the
  // forward solve overwrites it with entry i of L^{-1} k. Lanes past a
  // partial block's end stay zero.
  Vector v(n * kPredictBlock);
  for (std::size_t begin = 0; begin < xstar.rows(); begin += kPredictBlock) {
    const std::size_t width = std::min(kPredictBlock, xstar.rows() - begin);
    std::fill(v.begin(), v.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < width; ++b) {
        double q = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
          double diff =
              (x_(i, c) - xstar(begin + b, c)) / kernel_.lengthscales[c];
          q += diff * diff;
        }
        v[i * kPredictBlock + b] = kernel_.variance * std::exp(-0.5 * q);
      }
    }
    double m[kPredictBlock] = {};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < kPredictBlock; ++b) {
        m[b] += v[i * kPredictBlock + b] * alpha_[i];
      }
    }
    // solve_lower's recurrence, one lane per candidate.
    for (std::size_t i = 0; i < n; ++i) {
      double s[kPredictBlock];
      double* vi = &v[i * kPredictBlock];
      std::copy(vi, vi + kPredictBlock, s);
      for (std::size_t k = 0; k < i; ++k) {
        const double lik = l(i, k);
        const double* vk = &v[k * kPredictBlock];
        for (std::size_t b = 0; b < kPredictBlock; ++b) s[b] -= lik * vk[b];
      }
      const double lii = l(i, i);
      for (std::size_t b = 0; b < kPredictBlock; ++b) vi[b] = s[b] / lii;
    }
    double vv[kPredictBlock] = {};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < kPredictBlock; ++b) {
        vv[b] += v[i * kPredictBlock + b] * v[i * kPredictBlock + b];
      }
    }
    for (std::size_t b = 0; b < width; ++b) {
      GpPrediction& pred = out[begin + b];
      pred.mean = y_mean_ + y_sd_ * m[b];
      double var = std::max(kernel_.variance - vv[b], 0.0);
      pred.variance = var * y_sd_ * y_sd_;
    }
  }
  return out;
}

Vector GaussianProcess::predict_mean(const Matrix& xstar) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  OSPREY_REQUIRE(xstar.cols() == x_.cols(), "dimension mismatch");
  Vector out(xstar.rows());
  const std::size_t d = x_.cols();
  auto predict_row = [&](std::size_t p) {
    double m = 0.0;
    for (std::size_t i = 0; i < x_.rows(); ++i) {
      double q = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        double diff = (x_(i, j) - xstar(p, j)) / kernel_.lengthscales[j];
        q += diff * diff;
      }
      m += alpha_[i] * kernel_.variance * std::exp(-0.5 * q);
    }
    out[p] = y_mean_ + y_sd_ * m;
  };
  // Rows are independent and each writes its own slot, so the fan-out
  // is bit-identical to the serial loop.
  if (config_.parallel && worth_fanning_out(xstar.rows(), x_.rows())) {
    osprey::util::global_pool().parallel_for(xstar.rows(), predict_row);
  } else {
    for (std::size_t p = 0; p < xstar.rows(); ++p) predict_row(p);
  }
  return out;
}

std::vector<Vector> GaussianProcess::predict_mean_pick_freeze(
    const Matrix& a, const Matrix& b) const {
  OSPREY_REQUIRE(fitted(), "predict before fit");
  OSPREY_REQUIRE(a.cols() == x_.cols() && b.cols() == x_.cols() &&
                     a.rows() == b.rows(),
                 "dimension mismatch");
  const std::size_t n = x_.rows();
  const std::size_t d = x_.cols();
  const std::size_t rows = a.rows();
  // Training inputs column-major, so every per-dimension loop below runs
  // down contiguous training points.
  Vector xt(d * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) xt[c * n + i] = x_(i, c);
  }
  // predict_mean's alpha_i * variance * exp(.) multiplies left to right.
  Vector w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = alpha_[i] * kernel_.variance;
  std::vector<Vector> out(d + 2, Vector(rows));

  auto predict_rows = [&](std::size_t begin, std::size_t end) {
    // Per dimension c, ta[c*n + i] = ((x_ic - a_pc)/l_c)^2 and tb the
    // same against b: predict_mean's per-term expression. Variant v is
    // A (0), B (1) or AB_j (j + 2), and its q sums its terms in c order
    // exactly as predict_mean's does for that row.
    Vector ta(d * n), tb(d * n), q(n);
    for (std::size_t p = begin; p < end; ++p) {
      for (std::size_t c = 0; c < d; ++c) {
        const double ac = a(p, c);
        const double bc = b(p, c);
        const double lc = kernel_.lengthscales[c];
        const double* xc = &xt[c * n];
        double* tac = &ta[c * n];
        double* tbc = &tb[c * n];
        for (std::size_t i = 0; i < n; ++i) {
          double da = (xc[i] - ac) / lc;
          double db = (xc[i] - bc) / lc;
          tac[i] = da * da;
          tbc[i] = db * db;
        }
      }
      for (std::size_t v = 0; v < d + 2; ++v) {
        std::fill(q.begin(), q.end(), 0.0);
        for (std::size_t c = 0; c < d; ++c) {
          const double* t = (v == 1 || v == c + 2) ? &tb[c * n] : &ta[c * n];
          for (std::size_t i = 0; i < n; ++i) q[i] += t[i];
        }
        double m = 0.0;
        for (std::size_t i = 0; i < n; ++i) m += w[i] * std::exp(-0.5 * q[i]);
        out[v][p] = y_mean_ + y_sd_ * m;
      }
    }
  };
  // Same fan-out rule as predict_mean, in blocks of rows so the scratch
  // is allocated per block, not per row.
  if (config_.parallel && worth_fanning_out(rows, n)) {
    constexpr std::size_t kRowBlock = 32;
    osprey::util::global_pool().parallel_for(
        (rows + kRowBlock - 1) / kRowBlock, [&](std::size_t k) {
          predict_rows(k * kRowBlock, std::min(rows, (k + 1) * kRowBlock));
        });
  } else {
    predict_rows(0, rows);
  }
  return out;
}

double GaussianProcess::log_marginal_likelihood() const {
  OSPREY_REQUIRE(fitted(), "log_marginal_likelihood before fit");
  return lml_;
}

GaussianProcess::LooDiagnostics GaussianProcess::leave_one_out() const {
  OSPREY_REQUIRE(fitted(), "leave_one_out before fit");
  const std::size_t n = x_.rows();
  // Diagonal of K^{-1} straight from the factor's column solves —
  // ~n^3/6 flops and O(n) memory, versus the ~n^3 flops plus two n x n
  // temporaries of the old solve(Matrix::identity(n)) formulation.
  Vector k_inv_diag = chol_->inverse_diagonal();
  LooDiagnostics out;
  out.residuals.resize(n);
  double acc = 0.0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double kii = k_inv_diag[i];
    OSPREY_CHECK(kii > 0.0, "non-positive K^{-1} diagonal");
    // Standardized-scale LOO residual and variance.
    double resid_std = alpha_[i] / kii;
    double var_std = 1.0 / kii;
    double resid = resid_std * y_sd_;
    out.residuals[i] = resid;
    acc += resid * resid;
    double sd = std::sqrt(var_std) * y_sd_;
    if (std::fabs(resid) <= 1.96 * sd) ++inside;
  }
  out.rmse = std::sqrt(acc / static_cast<double>(n));
  out.coverage95 = static_cast<double>(inside) / static_cast<double>(n);
  return out;
}

double GaussianProcess::nearest_response(const Vector& xstar) const {
  OSPREY_REQUIRE(fitted(), "nearest_response before fit");
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < x_.rows(); ++i) {
    double q = 0.0;
    for (std::size_t j = 0; j < x_.cols(); ++j) {
      double diff = (x_(i, j) - xstar[j]) / kernel_.lengthscales[j];
      q += diff * diff;
    }
    if (q < best_dist) {
      best_dist = q;
      best = i;
    }
  }
  return y_[best];
}

}  // namespace osprey::gp
