#pragma once

/// \file music.hpp
/// MUSIC active-learning GSA (Chauhan et al. 2024), the paper's §3.1.2:
/// a GP surrogate is trained on a small Latin-hypercube design and then
/// refined one point at a time with the EIGF (Expected Improvement in
/// Global Fit) acquisition; first-order Sobol' indices are re-estimated
/// on the surrogate after every new evaluation, producing the
/// index-vs-sample-size convergence curves of Figures 4 and 5.
///
/// EIGF(x) = (mu_n(x) - y(x_nn))^2 + s_n^2(x), where x_nn is the nearest
/// design point — the D1-style local-fit-improvement formulation used in
/// the paper's illustration.
///
/// The algorithm is split into an engine (design / ingest / advance) so
/// the same logic runs both synchronously (run_music) and cooperatively
/// interleaved on an EMEWS task queue (music_coop.hpp).

#include <cstdint>
#include <optional>
#include <vector>

#include "gp/gp.hpp"
#include "gsa/sobol.hpp"

namespace osprey::gsa {

/// Acquisition functions selectable for the active-learning loop. The
/// paper's illustration uses EIGF; EI and UCB are the "more common"
/// alternatives it contrasts with ("which focus on minimizing prediction
/// error in global surrogate prediction"), and kVariance (ALM) is the
/// pure-exploration baseline. Kept for the ablation bench.
enum class Acquisition {
  kEigf,      // (mu(x) - y(x_nn))^2 + s^2(x)
  kVariance,  // s^2(x)                 (ALM / active learning MacKay)
  kEi,        // expected improvement over the best observed response
  kUcb,       // mu(x) + beta * s(x)
  kRandom,    // uniform random point   (no-surrogate baseline)
};

const char* acquisition_name(Acquisition acquisition);

struct MusicConfig {
  std::vector<ParamRange> ranges;   // the Table-1 parameter box
  std::size_t n_init = 25;          // initial LHS design size
  std::size_t n_total = 200;        // total evaluation budget
  std::size_t n_candidates = 200;   // acquisition candidate pool per iter
  std::size_t surrogate_mc_n = 1024;  // Saltelli base n on the surrogate
  std::size_t reopt_every = 25;     // GP hyperparameter refit cadence
  Acquisition acquisition = Acquisition::kEigf;
  double ucb_beta = 2.0;            // exploration weight for kUcb
  osprey::gp::GpConfig gp;
  std::uint64_t seed = 1;
};

/// One point of the convergence trajectory.
struct MusicStep {
  std::size_t n = 0;               // design size when recorded
  std::vector<double> s1;          // estimated first-order indices
  std::vector<double> st;          // estimated total-order indices
};

struct MusicResult {
  std::vector<MusicStep> trajectory;
  std::vector<double> final_s1;
  Matrix x_box;                    // evaluated designs (box coordinates)
  Vector y;
  std::size_t evaluations = 0;
};

/// Stepwise MUSIC core. Usage:
///   auto design = engine.initial_design_box();
///   for (row : design) engine.ingest(row, model(row));
///   while (auto next = engine.advance()) engine.ingest(*next, model(*next));
///   auto result = engine.result();
class MusicEngine {
 public:
  explicit MusicEngine(MusicConfig config);

  const MusicConfig& config() const { return config_; }
  std::size_t dim() const { return config_.ranges.size(); }
  std::size_t n_evaluated() const { return y_.size(); }
  bool done() const { return y_.size() >= config_.n_total; }

  /// The initial LHS design in box coordinates (call once).
  Matrix initial_design_box();

  /// Record one evaluated point (box coordinates).
  void ingest(const Vector& x_box, double y);

  /// Fit/refresh the surrogate on everything ingested so far, append a
  /// trajectory record, and — unless the budget is exhausted — return
  /// the next EIGF point to evaluate (box coordinates).
  std::optional<Vector> advance();

  const std::vector<MusicStep>& trajectory() const { return trajectory_; }
  const osprey::gp::GaussianProcess& surrogate() const { return gp_; }

  /// Collect the final result (valid once done()).
  MusicResult result() const;

 private:
  SobolIndices estimate_surrogate_indices() const;
  Vector acquire_next();

  MusicConfig config_;
  std::vector<ParamRange> unit_ranges_;
  osprey::num::RngStream rng_;
  osprey::gp::GaussianProcess gp_;
  std::vector<Vector> x_unit_;
  std::vector<double> y_;
  std::vector<MusicStep> trajectory_;
  bool gp_initialized_ = false;
  std::size_t last_reopt_n_ = 0;
};

/// Synchronous driver: evaluates `model` inline.
MusicResult run_music(const MusicConfig& config, const ModelFn& model);

/// Sample size after which the max subsequent change of every index
/// stays below `eps` (the "stabilization" the paper reads off Figure 4).
/// Returns the last recorded n when never stable.
std::size_t stabilization_n(const std::vector<MusicStep>& trajectory,
                            double eps);

}  // namespace osprey::gsa
