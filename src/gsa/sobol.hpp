#pragma once

/// \file sobol.hpp
/// Variance-based global sensitivity analysis: Saltelli pick–freeze
/// estimation of first-order and total-order Sobol' indices (Jansen
/// estimators). Used both directly on models (reference values) and on
/// GP surrogate means (the MUSIC inner loop).

#include <functional>
#include <vector>

#include "num/sampling.hpp"
#include "num/vecmat.hpp"

namespace osprey::gsa {

using osprey::num::Matrix;
using osprey::num::ParamRange;
using osprey::num::Vector;

/// Scalar model over a parameter box.
using ModelFn = std::function<double(const Vector&)>;
/// Batch model over the box: rows of X are points (enables vectorized
/// surrogate evaluation).
using BatchModelFn = std::function<Vector(const Matrix&)>;

struct SobolIndices {
  std::vector<double> first_order;  // S1_i
  std::vector<double> total_order;  // ST_i
  double output_variance = 0.0;
  std::size_t evaluations = 0;
};

/// Saltelli's base samples: A and B (n_base x d each) from one
/// 2d-dimensional Sobol' low-discrepancy stream. The pick-freeze matrix
/// AB_j is A with column j taken from B.
struct SaltelliDesign {
  Matrix a;
  Matrix b;
};
SaltelliDesign saltelli_design(const std::vector<ParamRange>& ranges,
                               std::size_t n_base);

/// Jansen estimators from the model outputs on a Saltelli design, laid
/// out as {f(A), f(B), f(AB_1), ..., f(AB_d)}: d + 2 vectors of n_base.
SobolIndices jansen_indices(const std::vector<Vector>& outputs);

/// saltelli_design + the model on A, B and every AB_j + jansen_indices;
/// cost = n_base * (d + 2) evaluations.
SobolIndices saltelli_indices(const BatchModelFn& model,
                              const std::vector<ParamRange>& ranges,
                              std::size_t n_base);

/// Convenience wrapper for scalar models.
SobolIndices saltelli_indices(const ModelFn& model,
                              const std::vector<ParamRange>& ranges,
                              std::size_t n_base);

}  // namespace osprey::gsa
