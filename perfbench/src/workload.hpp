#pragma once
// Seeded workload generation: request mixes and open-loop arrival schedules.
// Everything here is a pure function of (params, seed), so one --seed gives
// the same prompts, lengths and due times on every host.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A seed derived from two values (gllm::util::Rng draws every variate, so
/// one seed gives the same inputs on every standard library).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// One workload's traffic shape and limits (perfbench/workloads.json).
struct WorkloadParams {
  std::string name;
  std::string front = "server";    ///< server | router
  int replicas = 2;                 ///< router only
  // Prompt length: lognormal(mean, sigma) clamped to [min, max]; with
  // prefixes > 0 a prompt is one of `prefixes` shared prefix_len-token
  // prefixes plus a unique lognormal suffix.
  double prompt_mean = 32.0;
  double prompt_sigma = 0.6;
  int prompt_min = 4;
  int prompt_max = 256;
  int prefixes = 0;
  int prefix_len = 0;
  int out_min = 16;
  int out_max = 48;
  double rate = 10.0;           ///< open-phase arrivals, requests/s
  double ttft_limit_ms = 100.0;  ///< SLO: TTFT timed from the due time
  double tpot_limit_ms = 20.0;   ///< SLO: mean inter-token gap of a request
  int vocab = 256;
};

struct Request {
  std::vector<int> prompt;
  int max_tokens = 1;
};

/// Request `index` of stream `stream` (phases use distinct streams, so the
/// open and closed phases never repeat a prompt).
Request make_request(const WorkloadParams& p, std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index);

/// Poisson arrivals at `rate`/s over [0, duration): due offsets in seconds.
std::vector<double> poisson_schedule(double rate, double duration, std::uint64_t seed);

/// The full HTTP/1.1 request bytes of a streaming completion.
std::string completion_http(std::int64_t id, const Request& r);

}  // namespace perfbench
