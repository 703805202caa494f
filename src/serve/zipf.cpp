#include "serve/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace osprey::serve {

ZipfTrace::ZipfTrace(std::size_t num_items, double exponent,
                     std::uint64_t seed)
    : seed_(seed) {
  OSPREY_REQUIRE(num_items >= 1, "zipf trace needs at least one item");
  OSPREY_REQUIRE(exponent >= 0.0, "zipf exponent must be non-negative");
  cdf_.resize(num_items);
  double total = 0.0;
  for (std::size_t k = 0; k < num_items; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

std::size_t ZipfTrace::item(std::uint64_t request_index) const {
  double u = util::uniform01(util::mix64(seed_ ^ util::mix64(request_index)));
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace osprey::serve
