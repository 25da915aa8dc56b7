#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace perfbench {

using gllm::util::Rng;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng r(a * 0x100000001B3ull ^ (b + 0x632BE59BD9B4E019ull));
  return r.next_u64();
}

namespace {

int lognormal_len(Rng& rng, double mean, double sigma, int lo, int hi) {
  const double x = rng.lognormal(std::log(mean) - 0.5 * sigma * sigma, sigma);
  return std::clamp(static_cast<int>(std::lround(x)), lo, hi);
}

void append_tokens(Rng& rng, int n, int vocab, std::vector<int>& out) {
  for (int i = 0; i < n; ++i) out.push_back(static_cast<int>(rng.uniform_int(0, vocab - 1)));
}

}  // namespace

Request make_request(const WorkloadParams& p, std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  Rng rng(mix(mix(seed, stream + 1), index));
  Request r;
  if (p.prefixes > 0) {
    const auto which = static_cast<std::uint64_t>(rng.uniform_int(0, p.prefixes - 1));
    Rng prefix_rng(mix(seed, 0xF1EE7 + which));  // shared by every stream
    append_tokens(prefix_rng, p.prefix_len, p.vocab, r.prompt);
  }
  const int len =
      lognormal_len(rng, p.prompt_mean, p.prompt_sigma, p.prompt_min, p.prompt_max);
  append_tokens(rng, len, p.vocab, r.prompt);
  r.max_tokens = static_cast<int>(rng.uniform_int(p.out_min, p.out_max));
  return r;
}

std::vector<double> poisson_schedule(double rate, double duration, std::uint64_t seed) {
  std::vector<double> due;
  Rng rng(mix(seed, 0xA1217A1));
  for (double t = 0.0;;) {
    t += rng.exponential(rate);
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

std::string completion_http(std::int64_t id, const Request& r) {
  std::string body = "{\"id\":" + std::to_string(id) + ",\"prompt\":[";
  for (std::size_t i = 0; i < r.prompt.size(); ++i) {
    if (i) body += ',';
    body += std::to_string(r.prompt[i]);
  }
  body += "],\"max_tokens\":" + std::to_string(r.max_tokens) + ",\"stream\":true}";
  return "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace perfbench
