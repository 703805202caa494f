#include "gsa/music.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "num/sampling.hpp"
#include "util/error.hpp"

namespace osprey::gsa {

using osprey::num::Matrix;
using osprey::num::Vector;

MusicEngine::MusicEngine(MusicConfig config)
    : config_(std::move(config)),
      rng_(config_.seed, 0xBEEF),
      gp_([&] {
        // The engine drives the refit cadence (config_.reopt_every), so
        // the GP's own add_point auto-reoptimize must stay out of the way.
        osprey::gp::GpConfig gp_config = config_.gp;
        gp_config.reopt_every = 0;
        return gp_config;
      }()) {
  OSPREY_REQUIRE(!config_.ranges.empty(), "MUSIC needs parameter ranges");
  OSPREY_REQUIRE(config_.n_init >= 4, "initial design too small");
  OSPREY_REQUIRE(config_.n_total >= config_.n_init,
                 "n_total < n_init");
  unit_ranges_.resize(config_.ranges.size());
  for (std::size_t j = 0; j < unit_ranges_.size(); ++j) {
    unit_ranges_[j] = ParamRange{config_.ranges[j].name, 0.0, 1.0};
  }
}

Matrix MusicEngine::initial_design_box() {
  osprey::num::RngStream design_rng = rng_.substream(1);
  Matrix unit = osprey::num::latin_hypercube(config_.n_init, dim(),
                                             design_rng);
  return osprey::num::scale_design(unit, config_.ranges);
}

void MusicEngine::ingest(const Vector& x_box, double y) {
  OSPREY_REQUIRE(x_box.size() == dim(), "point dimension mismatch");
  OSPREY_REQUIRE(std::isfinite(y), "non-finite response");
  x_unit_.push_back(osprey::num::scale_to_unit(x_box, config_.ranges));
  y_.push_back(y);
}

SobolIndices MusicEngine::estimate_surrogate_indices() const {
  SaltelliDesign design =
      saltelli_design(unit_ranges_, config_.surrogate_mc_n);
  SobolIndices idx =
      jansen_indices(gp_.predict_mean_pick_freeze(design.a, design.b));
  // Clamp to [0,1]: MC noise can push estimates slightly outside.
  for (double& s : idx.first_order) s = std::clamp(s, 0.0, 1.0);
  for (double& s : idx.total_order) s = std::clamp(s, 0.0, 1.0);
  return idx;
}

const char* acquisition_name(Acquisition acquisition) {
  switch (acquisition) {
    case Acquisition::kEigf: return "EIGF";
    case Acquisition::kVariance: return "variance (ALM)";
    case Acquisition::kEi: return "EI";
    case Acquisition::kUcb: return "UCB";
    case Acquisition::kRandom: return "random";
  }
  return "?";
}

Vector MusicEngine::acquire_next() {
  osprey::num::RngStream cand_rng = rng_.substream(1000 + y_.size());
  Matrix candidates = osprey::num::latin_hypercube(config_.n_candidates,
                                                   dim(), cand_rng);
  if (config_.acquisition == Acquisition::kRandom) {
    return candidates.row(
        static_cast<std::size_t>(cand_rng.uniform_int(candidates.rows())));
  }
  const std::vector<osprey::gp::GpPrediction> preds =
      gp_.predict_batch(candidates);
  // EI's incumbent: the best (largest) observed response.
  const double best_y = *std::max_element(y_.begin(), y_.end());
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best = 0;
  for (std::size_t c = 0; c < candidates.rows(); ++c) {
    const osprey::gp::GpPrediction& pred = preds[c];
    double sd = std::sqrt(std::max(pred.variance, 0.0));
    double score = 0.0;
    switch (config_.acquisition) {
      case Acquisition::kEigf: {
        // Nearest design point in the unit cube (plain Euclidean metric,
        // as in the EIGF definition).
        double best_dist = std::numeric_limits<double>::infinity();
        std::size_t nn = 0;
        for (std::size_t i = 0; i < x_unit_.size(); ++i) {
          double q = 0.0;
          for (std::size_t j = 0; j < dim(); ++j) {
            double d = x_unit_[i][j] - candidates(c, j);
            q += d * d;
          }
          if (q < best_dist) {
            best_dist = q;
            nn = i;
          }
        }
        double local = pred.mean - y_[nn];
        score = local * local + pred.variance;
        break;
      }
      case Acquisition::kVariance:
        score = pred.variance;
        break;
      case Acquisition::kEi: {
        if (sd <= 0.0) break;
        double z = (pred.mean - best_y) / sd;
        double phi = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
        double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
        score = (pred.mean - best_y) * cdf + sd * phi;
        break;
      }
      case Acquisition::kUcb:
        score = pred.mean + config_.ucb_beta * sd;
        break;
      case Acquisition::kRandom:
        break;  // drawn above
    }
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return candidates.row(best);
}

std::optional<Vector> MusicEngine::advance() {
  OSPREY_REQUIRE(y_.size() >= config_.n_init,
                 "advance() before the initial design is evaluated");

  // Refresh the surrogate: full MLE at init and every reopt_every new
  // points; otherwise append the new evaluations through the GP's
  // O(n^2) incremental rank-1 path (hyperparameters unchanged).
  if (!gp_initialized_ || y_.size() >= last_reopt_n_ + config_.reopt_every) {
    Matrix x(x_unit_.size(), dim());
    for (std::size_t i = 0; i < x_unit_.size(); ++i) x.set_row(i, x_unit_[i]);
    gp_.update_data(x, y_);
    gp_.reoptimize();
    gp_initialized_ = true;
    last_reopt_n_ = y_.size();
  } else {
    for (std::size_t i = gp_.n(); i < x_unit_.size(); ++i) {
      gp_.add_point(x_unit_[i], y_[i]);
    }
  }

  SobolIndices idx = estimate_surrogate_indices();
  trajectory_.push_back(MusicStep{y_.size(), std::move(idx.first_order),
                                  std::move(idx.total_order)});

  if (done()) return std::nullopt;
  Vector u = acquire_next();
  return osprey::num::scale_to_box(u, config_.ranges);
}

MusicResult MusicEngine::result() const {
  MusicResult out;
  out.trajectory = trajectory_;
  if (!trajectory_.empty()) out.final_s1 = trajectory_.back().s1;
  out.x_box = Matrix(x_unit_.size(), dim());
  for (std::size_t i = 0; i < x_unit_.size(); ++i) {
    out.x_box.set_row(
        i, osprey::num::scale_to_box(x_unit_[i], config_.ranges));
  }
  out.y = y_;
  out.evaluations = y_.size();
  return out;
}

MusicResult run_music(const MusicConfig& config, const ModelFn& model) {
  MusicEngine engine(config);
  Matrix design = engine.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    Vector x = design.row(i);
    engine.ingest(x, model(x));
  }
  while (std::optional<Vector> next = engine.advance()) {
    engine.ingest(*next, model(*next));
  }
  return engine.result();
}

std::size_t stabilization_n(const std::vector<MusicStep>& trajectory,
                            double eps) {
  OSPREY_REQUIRE(!trajectory.empty(), "empty trajectory");
  const std::size_t d = trajectory.front().s1.size();
  // Walk backwards: find the earliest record such that every later
  // record differs from the final values by < eps in every index.
  const std::vector<double>& final_s1 = trajectory.back().s1;
  std::size_t stable_from = trajectory.size() - 1;
  for (std::size_t r = trajectory.size(); r-- > 0;) {
    bool ok = true;
    for (std::size_t j = 0; j < d; ++j) {
      if (std::fabs(trajectory[r].s1[j] - final_s1[j]) >= eps) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    stable_from = r;
  }
  return trajectory[stable_from].n;
}

}  // namespace osprey::gsa
