#pragma once
// The sample-support rule: a percentile q is only trusted when at least
// kMinBeyond samples lie beyond it. Percentiles themselves come from
// gllm::util::SampleStats.

#include <cstddef>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly above the q-quantile position of n samples.
std::size_t samples_beyond(std::size_t n, double q);
/// True when q has at least kMinBeyond samples beyond it.
bool percentile_supported(std::size_t n, double q);

}  // namespace perfbench
