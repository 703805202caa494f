#include "gsa/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "num/sampling.hpp"
#include "util/error.hpp"

namespace osprey::gsa {

using osprey::num::Matrix;
using osprey::num::Vector;

Calibrator::Calibrator(CalibrationConfig config)
    : config_(std::move(config)),
      rng_(config_.seed, 0xCA1B),
      gp_(config_.gp) {
  OSPREY_REQUIRE(!config_.ranges.empty(), "calibration needs ranges");
  OSPREY_REQUIRE(config_.n_init >= 4, "initial design too small");
  OSPREY_REQUIRE(config_.n_total >= config_.n_init, "n_total < n_init");
}

Matrix Calibrator::initial_design_box() {
  osprey::num::RngStream design_rng = rng_.substream(1);
  Matrix unit =
      osprey::num::latin_hypercube(config_.n_init, dim(), design_rng);
  return osprey::num::scale_design(unit, config_.ranges);
}

void Calibrator::ingest(const Vector& x_box, double loss) {
  OSPREY_REQUIRE(x_box.size() == dim(), "point dimension mismatch");
  OSPREY_REQUIRE(std::isfinite(loss), "non-finite loss");
  x_unit_.push_back(osprey::num::scale_to_unit(x_box, config_.ranges));
  y_.push_back(loss);
  double best = *std::min_element(y_.begin(), y_.end());
  trajectory_.push_back(CalibrationStep{y_.size(), best});
}

std::optional<Vector> Calibrator::advance() {
  OSPREY_REQUIRE(y_.size() >= config_.n_init,
                 "advance() before the initial design is evaluated");
  if (done()) return std::nullopt;

  Matrix x(x_unit_.size(), dim());
  for (std::size_t i = 0; i < x_unit_.size(); ++i) x.set_row(i, x_unit_[i]);
  if (!gp_initialized_ || y_.size() >= last_reopt_n_ + config_.reopt_every) {
    gp_.update_data(x, y_);
    gp_.reoptimize();
    gp_initialized_ = true;
    last_reopt_n_ = y_.size();
  } else {
    gp_.update_data(x, y_);
  }

  // Expected improvement for MINIMIZATION over an LHS candidate pool.
  double best_y = *std::min_element(y_.begin(), y_.end());
  osprey::num::RngStream cand_rng = rng_.substream(1000 + y_.size());
  Matrix candidates = osprey::num::latin_hypercube(config_.n_candidates,
                                                   dim(), cand_rng);
  const std::vector<osprey::gp::GpPrediction> preds =
      gp_.predict_batch(candidates);
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  for (std::size_t c = 0; c < candidates.rows(); ++c) {
    const osprey::gp::GpPrediction& pred = preds[c];
    double sd = std::sqrt(std::max(pred.variance, 0.0));
    double score;
    if (sd <= 0.0) {
      score = best_y - pred.mean;
    } else {
      double z = (best_y - pred.mean) / sd;
      double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
      double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
      score = (best_y - pred.mean) * cdf + sd * phi;
    }
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return osprey::num::scale_to_box(candidates.row(best), config_.ranges);
}

CalibrationResult Calibrator::result() const {
  OSPREY_REQUIRE(!y_.empty(), "no evaluations recorded");
  CalibrationResult out;
  std::size_t best = 0;
  for (std::size_t i = 1; i < y_.size(); ++i) {
    if (y_[i] < y_[best]) best = i;
  }
  out.best_x = osprey::num::scale_to_box(x_unit_[best], config_.ranges);
  out.best_loss = y_[best];
  out.trajectory = trajectory_;
  out.evaluations = y_.size();
  return out;
}

CalibrationResult calibrate(const CalibrationConfig& config,
                            const LossFn& loss) {
  Calibrator calibrator(config);
  Matrix design = calibrator.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    Vector x = design.row(i);
    calibrator.ingest(x, loss(x));
  }
  while (std::optional<Vector> next = calibrator.advance()) {
    calibrator.ingest(*next, loss(*next));
  }
  return calibrator.result();
}

double series_mse_log(const std::vector<double>& simulated,
                      const std::vector<double>& observed) {
  OSPREY_REQUIRE(simulated.size() == observed.size() && !observed.empty(),
                 "series length mismatch");
  double acc = 0.0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    double d = std::log1p(std::max(simulated[t], 0.0)) -
               std::log1p(std::max(observed[t], 0.0));
    acc += d * d;
  }
  return acc / static_cast<double>(observed.size());
}

}  // namespace osprey::gsa
