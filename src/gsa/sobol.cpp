#include "gsa/sobol.hpp"

#include <cmath>

#include "num/simd.hpp"
#include "num/stats.hpp"
#include "util/error.hpp"

namespace osprey::gsa {

SaltelliDesign saltelli_design(const std::vector<ParamRange>& ranges,
                               std::size_t n_base) {
  const std::size_t d = ranges.size();
  OSPREY_REQUIRE(d >= 1, "need at least one parameter");
  OSPREY_REQUIRE(n_base >= 8, "n_base too small");
  OSPREY_REQUIRE(2 * d <= osprey::num::SobolSequence::kMaxDim,
                 "too many dimensions for the Sobol' sequence table");

  // A and B from one 2d-dimensional low-discrepancy stream.
  osprey::num::SobolSequence seq(2 * d);
  SaltelliDesign design{Matrix(n_base, d), Matrix(n_base, d)};
  for (std::size_t i = 0; i < n_base; ++i) {
    Vector p = seq.next();
    for (std::size_t j = 0; j < d; ++j) {
      design.a(i, j) = ranges[j].lo + (ranges[j].hi - ranges[j].lo) * p[j];
      design.b(i, j) =
          ranges[j].lo + (ranges[j].hi - ranges[j].lo) * p[d + j];
    }
  }
  return design;
}

SobolIndices jansen_indices(const std::vector<Vector>& outputs) {
  OSPREY_REQUIRE(outputs.size() >= 3, "need f(A), f(B) and one f(AB_j)");
  const std::size_t d = outputs.size() - 2;
  const std::size_t n_base = outputs[0].size();
  for (const Vector& y : outputs) {
    OSPREY_CHECK(y.size() == n_base, "model returned wrong batch size");
  }
  const Vector& ya = outputs[0];
  const Vector& yb = outputs[1];

  // Total variance from the pooled A∪B sample.
  std::vector<double> pooled;
  pooled.reserve(2 * n_base);
  pooled.insert(pooled.end(), ya.begin(), ya.end());
  pooled.insert(pooled.end(), yb.begin(), yb.end());
  double var_y = osprey::num::variance(pooled);

  SobolIndices out;
  out.first_order.assign(d, 0.0);
  out.total_order.assign(d, 0.0);
  out.output_variance = var_y;
  out.evaluations = n_base * (d + 2);
  if (var_y <= 0.0) return out;  // constant model: all indices zero

  // Jansen squared-difference terms, batched through the SoA kernel;
  // the i-ascending accumulation below matches the scalar loop exactly,
  // so replicate fan-outs stay bitwise identical to the legacy path.
  std::vector<double> db2(n_base), da2(n_base);
  const double n = static_cast<double>(n_base);
  for (std::size_t j = 0; j < d; ++j) {
    const Vector& yab = outputs[j + 2];
    osprey::num::simd::sub_square(yb.data(), yab.data(), db2.data(), n_base);
    osprey::num::simd::sub_square(ya.data(), yab.data(), da2.data(), n_base);
    double s1_acc = 0.0;
    double st_acc = 0.0;
    for (std::size_t i = 0; i < n_base; ++i) {
      s1_acc += db2[i];
      st_acc += da2[i];
    }
    out.first_order[j] = (var_y - s1_acc / (2.0 * n)) / var_y;
    out.total_order[j] = st_acc / (2.0 * n) / var_y;
  }
  return out;
}

SobolIndices saltelli_indices(const BatchModelFn& model,
                              const std::vector<ParamRange>& ranges,
                              std::size_t n_base) {
  const SaltelliDesign design = saltelli_design(ranges, n_base);
  const std::size_t d = ranges.size();
  std::vector<Vector> outputs;
  outputs.reserve(d + 2);
  outputs.push_back(model(design.a));
  outputs.push_back(model(design.b));
  Matrix ab = design.a;
  for (std::size_t j = 0; j < d; ++j) {
    // AB_j: A with column j replaced from B, restored after the call.
    for (std::size_t i = 0; i < n_base; ++i) ab(i, j) = design.b(i, j);
    outputs.push_back(model(ab));
    for (std::size_t i = 0; i < n_base; ++i) ab(i, j) = design.a(i, j);
  }
  return jansen_indices(outputs);
}

SobolIndices saltelli_indices(const ModelFn& model,
                              const std::vector<ParamRange>& ranges,
                              std::size_t n_base) {
  BatchModelFn batch = [&model](const Matrix& x) {
    Vector out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      out[i] = model(x.row(i));
    }
    return out;
  };
  return saltelli_indices(batch, ranges, n_base);
}

}  // namespace osprey::gsa
