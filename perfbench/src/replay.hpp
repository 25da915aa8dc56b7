#pragma once
// Per-layer replays for the traced run: each times calls into one layer's
// public functions at the shapes the workload produced, and records a span
// around every call so the merged trace shows where the replay spent time.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// A complete ("X") span on the benchmark's own timeline.
struct Span {
  std::string name;
  double ts = 0.0;   ///< steady-clock seconds
  double dur = 0.0;  ///< seconds
  int tid = 0;
  std::int64_t id = -1;  ///< request id for client spans
};

class SpanLog {
 public:
  void add(std::string name, double t0, double t1, int tid, std::int64_t id = -1) {
    spans_.push_back(Span{std::move(name), t0, t1 - t0, tid, id});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One micro-batch as the scheduler planned it.
struct PlanShape {
  struct Item {
    bool prefill = false;
    bool last_chunk = false;  ///< a prefill chunk that completes its prompt
    int n_tokens = 0;
    std::int64_t context = 0;
  };
  std::vector<Item> items;
  double plan_s = 0.0;
  int prefill_tokens() const;
  int decode_rows() const;
  /// Tokens sampled by this micro-batch: one per decode row and per
  /// completed prompt.
  int sampled_tokens() const;
};

/// Tracks of the replay timeline (Chrome tids under the replay process).
enum ReplayTrack { kTrackServer = 1, kTrackRouter, kTrackSched, kTrackNn, kTrackNet };

using Metrics = std::map<std::string, double>;

/// server::parse_http_request over the exact request bytes the client sent.
void replay_parse(const std::vector<std::string>& requests, SpanLog& log, Metrics& m);

/// kv::prompt_prefix_hash + PlacementPolicy::place/record over the prompts.
void replay_place(const std::vector<std::vector<int>>& prompts, int replicas, SpanLog& log,
                  Metrics& m);

/// An in-process PipelineService (gllm_server's defaults) whose
/// TokenThrottleScheduler sits behind a timing decorator, driven closed-loop
/// with `conns` of the workload's requests for `seconds`. Returns every
/// non-empty plan.
std::vector<PlanShape> replay_sched(const WorkloadParams& p, std::uint64_t seed, int conns,
                                    double seconds, SpanLog& log, Metrics& m);

/// TransformerStage::forward, Gemm, DotSoftmax and Sampler at those shapes.
void replay_nn(const std::vector<PlanShape>& plans, SpanLog& log, Metrics& m);

/// Wire encode/decode, CRC and a loopback frame round trip at those shapes,
/// plus the frames and bytes a multi-process (pp = 2) deployment would send
/// per output token for them, computed from the encoded sizes.
void replay_net(const std::vector<PlanShape>& plans, SpanLog& log, Metrics& m);

}  // namespace perfbench
