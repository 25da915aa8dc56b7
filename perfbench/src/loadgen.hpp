#pragma once
// The load generator: one thread, one epoll loop, at most `conns` request
// connections. An open phase sends on a seeded Poisson schedule and times
// each request from its due time; a closed phase keeps `conns` requests in
// flight for a fixed time. Scrapes of GET endpoints can ride along at a fixed
// cadence on extra connections.

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RequestRecord {
  enum class Outcome { kPending, kOk, kShed, kError };
  std::int64_t id = 0;
  Request request;
  std::string http;  ///< the exact request bytes sent
  double due = 0.0;    ///< when it was due (open) or became sendable (closed)
  double slot = 0.0;   ///< when a connection slot was free for it
  double start = 0.0;  ///< when the generator actually connected
  double first = 0.0;  ///< first token received (0 if none)
  double last = 0.0;   ///< last token received
  std::vector<int> tokens;
  std::vector<double> token_times;  ///< arrival of each token
  int status = 0;
  Outcome outcome = Outcome::kPending;

  double ttft_from_due() const { return first - due; }
  double ttft_from_send() const { return first - start; }
  /// Mean gap between output tokens; 0 for a single-token output.
  double tpot() const {
    return tokens.size() > 1 ? (last - first) / static_cast<double>(tokens.size() - 1) : 0.0;
  }
};

struct Sample {
  double t = 0.0;
  std::string path;
  std::string body;
};

struct PhaseConfig {
  bool open = true;
  std::vector<double> due;  ///< open: due offsets, seconds from phase start
  double seconds = 0.0;     ///< closed: how long to keep issuing
  int conns = 1;
  std::uint64_t stream = 0;  ///< request stream (see make_request)
  std::vector<std::string> sample_paths;
  double sample_every = 0.0;  ///< 0 = no cadence scrapes
  double drain_timeout = 60.0;
};

/// Host CPU counters at one instant (see read_cpu()).
struct CpuSample {
  double t = 0.0;
  double steal = 0.0;
  double total = 0.0;
};

struct PhaseResult {
  double t0 = 0.0;     ///< phase start (steady-clock seconds)
  double t_end = 0.0;  ///< end of the issuing window
  std::vector<RequestRecord> requests;
  std::vector<Sample> samples;
  std::vector<CpuSample> cpu;  ///< one per second of the issuing window, and its end

  std::size_t count(RequestRecord::Outcome o) const;
  /// The issuing window cut at the CPU samples (about one second each), with
  /// the share of CPU time the hypervisor stole during each.
  struct Slice {
    double t0 = 0.0, t1 = 0.0, steal = 0.0;
  };
  std::vector<Slice> slices() const;
  /// Output tokens received in [a, b), per second.
  double token_rate(double a, double b) const;
};

class LoadGen {
 public:
  LoadGen(int port, WorkloadParams params, std::uint64_t seed)
      : port_(port), params_(std::move(params)), seed_(seed) {}
  PhaseResult run(const PhaseConfig& cfg);

 private:
  int port_;
  WorkloadParams params_;
  std::uint64_t seed_;
  std::int64_t next_id_ = 1;  ///< request ids are unique for the server's lifetime
};

}  // namespace perfbench
