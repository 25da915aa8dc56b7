#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto at_or_below = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, at_or_below);
}

bool percentile_supported(std::size_t n, double q) { return samples_beyond(n, q) >= kMinBeyond; }

}  // namespace perfbench
