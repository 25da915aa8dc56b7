#include "replay.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "kv/prefix_cache.hpp"
#include "model/partition.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "nn/sampler.hpp"
#include "nn/stage.hpp"
#include "obs/obs.hpp"
#include "proc.hpp"
#include "router/policy.hpp"
#include "runtime/service.hpp"
#include "sched/token_throttle.hpp"
#include "server/http_parser.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace gs = gllm::sched;
namespace gn = gllm::nn;

int PlanShape::prefill_tokens() const {
  int n = 0;
  for (const auto& it : items) n += it.prefill ? it.n_tokens : 0;
  return n;
}

int PlanShape::decode_rows() const {
  int n = 0;
  for (const auto& it : items) n += it.prefill ? 0 : it.n_tokens;
  return n;
}

int PlanShape::sampled_tokens() const {
  int n = 0;
  for (const auto& it : items) n += it.prefill ? (it.last_chunk ? 1 : 0) : it.n_tokens;
  return n;
}

namespace {

constexpr std::uint64_t kWeightSeed = 1234;  // RuntimeOptions' default
constexpr std::int64_t kKvCapacity = 8192;    // gllm_server --kv-capacity default
constexpr int kBlock = 8;                     // gllm_server's KV block size

/// Times `fn` once and logs it as a span; returns seconds.
template <typename Fn>
double timed(SpanLog& log, const char* name, int track, Fn&& fn) {
  const double t0 = mono_now();
  fn();
  const double t1 = mono_now();
  log.add(name, t0, t1, track);
  return t1 - t0;
}

/// At most `cap` plans, evenly spaced, that contain items of the wanted kind.
std::vector<PlanShape> pick(const std::vector<PlanShape>& plans, bool prefill, std::size_t cap) {
  std::vector<PlanShape> kept;
  for (const auto& p : plans) {
    PlanShape only;
    for (const auto& it : p.items)
      if (it.prefill == prefill) only.items.push_back(it);
    if (!only.items.empty()) kept.push_back(std::move(only));
  }
  if (kept.size() <= cap) return kept;
  std::vector<PlanShape> out;
  for (std::size_t i = 0; i < cap; ++i) out.push_back(kept[i * kept.size() / cap]);
  return out;
}

/// Item views with disjoint page tables, as the driver would build them.
std::vector<gn::ItemView> views(const PlanShape& plan, std::int32_t kv_blocks) {
  std::vector<gn::ItemView> out;
  std::int32_t next = 0;
  for (const auto& it : plan.items) {
    gn::ItemView v;
    v.context = it.context;
    v.n_tokens = it.n_tokens;
    v.wants_logits = true;
    const auto blocks = (it.context + it.n_tokens + kBlock - 1) / kBlock;
    for (std::int64_t b = 0; b < blocks; ++b) v.blocks.push_back((next++) % kv_blocks);
    out.push_back(std::move(v));
  }
  return out;
}

gllm::runtime::StepMetadata metadata(const PlanShape& plan, std::uint64_t batch) {
  gllm::runtime::StepMetadata m;
  m.batch_id = batch;
  std::int32_t next = 0;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const auto& it = plan.items[i];
    gllm::runtime::ItemMeta im;
    im.seq = static_cast<gllm::kv::SeqId>(i + 1);
    im.n_tokens = it.n_tokens;
    im.context = it.context;
    im.is_prefill = it.prefill;
    im.last_chunk = it.last_chunk;
    im.wants_logits = true;
    const auto blocks = (it.context + it.n_tokens + kBlock - 1) / kBlock;
    for (std::int64_t b = 0; b < blocks; ++b) im.blocks.push_back(next++);
    im.input_tokens.assign(static_cast<std::size_t>(it.n_tokens), 7);
    m.items.push_back(std::move(im));
  }
  return m;
}

class TimedScheduler : public gs::IScheduler {
 public:
  explicit TimedScheduler(std::shared_ptr<gs::IScheduler> inner) : inner_(std::move(inner)) {}
  gs::MicroBatchPlan plan(const gs::ScheduleContext& ctx) override {
    const double t0 = mono_now();
    gs::MicroBatchPlan p = inner_->plan(ctx);
    const double t1 = mono_now();
    if (!p.empty()) {
      PlanShape s;
      s.plan_s = t1 - t0;
      for (const auto& it : p.items)
        s.items.push_back(
            {it.phase == gs::Phase::kPrefill, it.last_prefill_chunk, it.n_tokens, it.context});
      plans_.push_back(std::move(s));
      spans_.emplace_back(t0, t1);
    }
    return p;
  }
  std::string_view name() const override { return inner_->name(); }
  void set_observability(gllm::obs::Observability* obs, int track) override {
    inner_->set_observability(obs, track);
  }
  // Read only after the service's driver thread has been joined.
  std::vector<PlanShape> plans_;
  std::vector<std::pair<double, double>> spans_;

 private:
  std::shared_ptr<gs::IScheduler> inner_;
};

}  // namespace

void replay_parse(const std::vector<std::string>& requests, SpanLog& log, Metrics& m) {
  const gllm::server::HttpLimits limits;
  double total = 0.0;
  std::size_t ok = 0;
  for (const auto& bytes : requests) {
    gllm::server::HttpRequest req;
    std::size_t consumed = 0;
    auto error = gllm::server::ParseError::kNone;
    gllm::server::ParseStatus status{};
    total += timed(log, "server.parse", kTrackServer, [&] {
      status = gllm::server::parse_http_request(bytes, limits, req, consumed, error);
    });
    ok += status == gllm::server::ParseStatus::kComplete ? 1 : 0;
  }
  if (ok != requests.size()) throw std::runtime_error("replay: a sent request did not parse");
  m["server.parse_us"] = requests.empty() ? 0.0 : 1e6 * total / static_cast<double>(requests.size());
}

void replay_place(const std::vector<std::vector<int>>& prompts, int replicas, SpanLog& log,
                  Metrics& m) {
  gllm::router::PlacementPolicy policy;
  std::vector<gllm::router::Replica> table(static_cast<std::size_t>(replicas));
  for (auto& r : table) r.ever_polled = true;
  double total = 0.0;
  for (const auto& prompt : prompts) {
    const std::vector<gllm::kv::TokenId> tokens(prompt.begin(), prompt.end());
    total += timed(log, "router.place", kTrackRouter, [&] {
      const auto hash = gllm::kv::prompt_prefix_hash(tokens, kBlock);
      const auto placement = policy.place(hash, table);
      const auto chosen = placement.candidates.empty() ? 0 : placement.candidates.front();
      policy.record(hash, chosen);
      ++table[chosen].inflight;
    });
  }
  m["router.place_us"] = prompts.empty() ? 0.0 : 1e6 * total / static_cast<double>(prompts.size());
}

std::vector<PlanShape> replay_sched(const WorkloadParams& p, std::uint64_t seed, int conns,
                                    double seconds, SpanLog& log, Metrics& m) {
  gllm::runtime::RuntimeOptions options;
  options.model = gllm::model::presets::tiny();
  options.pp = 2;
  options.kv_capacity_tokens = kKvCapacity;
  options.kv_block_size = kBlock;
  gllm::obs::Observability observability;
  options.obs = &observability;
  gs::ThrottleParams params;  // gllm_server's --iterp/--maxp/--minp defaults
  params.iter_t = 4;
  params.max_p = 64;
  params.min_p = 8;
  auto timed_sched =
      std::make_shared<TimedScheduler>(std::make_shared<gs::TokenThrottleScheduler>(params));

  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  {
    gllm::runtime::PipelineService service(options, timed_sched);
    service.start();
    std::uint64_t index = 0;
    auto submit = [&] {
      const Request r = make_request(p, seed, /*stream=*/7, index);
      gn::GenRequest g;
      g.id = static_cast<std::int64_t>(++index);
      g.prompt.assign(r.prompt.begin(), r.prompt.end());
      g.max_new_tokens = r.max_tokens;
      service.submit(std::move(g), [&](const gllm::runtime::StreamEvent& e) {
        if (!e.is_last) return;
        std::lock_guard lock(mu);
        ++finished;
        cv.notify_one();
      });
    };
    for (int i = 0; i < conns; ++i) submit();
    const double end = mono_now() + seconds;
    std::unique_lock lock(mu);
    while (mono_now() < end) {
      if (finished > 0) {
        --finished;
        lock.unlock();
        submit();
        lock.lock();
        continue;
      }
      cv.wait_for(lock, std::chrono::milliseconds(5));
    }
    lock.unlock();
    service.stop();
  }

  gllm::util::OnlineStats plan_us, totals, prefill, decode;
  for (std::size_t i = 0; i < timed_sched->plans_.size(); ++i) {
    const auto& s = timed_sched->plans_[i];
    plan_us.add(1e6 * s.plan_s);
    totals.add(s.prefill_tokens() + s.decode_rows());
    prefill.add(s.prefill_tokens());
    decode.add(s.decode_rows());
    log.add("sched.plan", timed_sched->spans_[i].first, timed_sched->spans_[i].second, kTrackSched);
  }
  m["sched.plan_us"] = plan_us.mean();
  m["sched.mb_tokens_cv"] = totals.cv();
  m["sched.prefill_per_mb"] = prefill.mean();
  m["sched.decode_per_mb"] = decode.mean();
  return timed_sched->plans_;
}

void replay_nn(const std::vector<PlanShape>& plans, SpanLog& log, Metrics& m) {
  const auto cfg = gllm::model::presets::tiny();
  const gllm::model::PartitionPlan partition(cfg, 2);
  const auto kv_blocks = static_cast<std::int32_t>(kKvCapacity / kBlock);
  std::vector<gn::TransformerStage> stages;
  for (int s = 0; s < 2; ++s)
    stages.emplace_back(cfg, partition.stage(s), kWeightSeed, kv_blocks, kBlock);

  // Whole-model forward (embed, both stages, logits) per planned micro-batch,
  // split into its prefill items and its decode items.
  auto forward_us_per_token = [&](bool prefill, const char* name) {
    double secs = 0.0;
    std::int64_t tokens = 0;
    for (const auto& plan : pick(plans, prefill, 48)) {
      const auto items = views(plan, kv_blocks);
      std::vector<gn::TokenId> ids;
      for (const auto& it : plan.items) {
        tokens += it.n_tokens;
        ids.insert(ids.end(), static_cast<std::size_t>(it.n_tokens), 7);
      }
      secs += timed(log, name, kTrackNn, [&] {
        gllm::tensor::Tensor hidden = stages[0].embed(ids);
        stages[0].forward(hidden, items);
        stages[1].forward(hidden, items);
        const auto logits = stages[1].logits(hidden, items);
        (void)logits;
      });
    }
    return tokens > 0 ? 1e6 * secs / static_cast<double>(tokens) : 0.0;
  };
  m["nn.prefill_us_per_tok"] = forward_us_per_token(true, "nn.forward.prefill");
  m["nn.decode_us_per_row"] = forward_us_per_token(false, "nn.forward.decode");

  // GEMMs of one layer at the mean micro-batch M (lm_head at the mean number
  // of logit rows), with weights of the tiny model's shapes.
  double rows = 0.0, items = 0.0;
  for (const auto& p : plans) {
    rows += p.prefill_tokens() + p.decode_rows();
    items += static_cast<double>(p.items.size());
  }
  const auto n_plans = static_cast<double>(std::max<std::size_t>(plans.size(), 1));
  const auto M = std::max<std::int64_t>(1, std::llround(rows / n_plans));
  const auto M_logits = std::max<std::int64_t>(1, std::llround(items / n_plans));
  const auto isa = gllm::nn::kernels::resolve_isa();
  const auto q_dim = static_cast<std::int64_t>(cfg.n_heads) * cfg.head_dim;
  const auto kv_dim = static_cast<std::int64_t>(cfg.n_kv_heads) * cfg.head_dim;
  gllm::util::Rng rng(99);
  auto weights = [&](std::int64_t n, std::int64_t k) {
    gllm::tensor::Tensor w({n, k});
    for (std::int64_t i = 0; i < n * k; ++i) w.data()[i] = static_cast<float>(rng.uniform() - 0.5);
    return gllm::nn::kernels::PackedWeights::pack(w, gllm::model::QuantMode::kFp32);
  };
  const auto wq = weights(q_dim, cfg.hidden), wk = weights(kv_dim, cfg.hidden),
             wv = weights(kv_dim, cfg.hidden), wo = weights(cfg.hidden, q_dim),
             wg = weights(cfg.intermediate, cfg.hidden), wu = weights(cfg.intermediate, cfg.hidden),
             wd = weights(cfg.hidden, cfg.intermediate), wl = weights(cfg.vocab, cfg.hidden);
  const std::int64_t widest = std::max<std::int64_t>(cfg.intermediate, cfg.vocab);
  std::vector<float> x(static_cast<std::size_t>(M * widest), 0.25f), y(x.size());
  auto gemm = [&](std::int64_t m_rows, const gllm::nn::kernels::PackedWeights& w) {
    gllm::nn::kernels::Gemm::run(isa, x.data(), w.k(), m_rows, w, y.data(), w.n(), true);
  };
  constexpr int kReps = 200;
  auto per_call_us = [&](const char* name, auto&& body) {
    double secs = 0.0;
    for (int r = 0; r < kReps; ++r) secs += timed(log, name, kTrackNn, body);
    return 1e6 * secs / kReps;
  };
  m["nn.gemm.qkv_us"] = per_call_us("nn.gemm.qkv", [&] { gemm(M, wq); gemm(M, wk); gemm(M, wv); });
  m["nn.gemm.o_us"] = per_call_us("nn.gemm.o", [&] { gemm(M, wo); });
  m["nn.gemm.mlp_us"] = per_call_us("nn.gemm.mlp", [&] { gemm(M, wg); gemm(M, wu); gemm(M, wd); });
  m["nn.gemm.lm_head_us"] = per_call_us("nn.gemm.lm_head", [&] { gemm(M_logits, wl); });

  // Attention of one layer for a micro-batch: every query row of every item
  // against its causal context, all heads, through DotSoftmax.
  {
    const auto hd = static_cast<std::int64_t>(cfg.head_dim);
    std::int64_t max_ctx = 1;
    for (const auto& p : plans)
      for (const auto& it : p.items) max_ctx = std::max(max_ctx, it.context + it.n_tokens);
    std::vector<float> keys(static_cast<std::size_t>(max_ctx * hd), 0.1f), vals = keys;
    std::vector<float> q(static_cast<std::size_t>(hd), 0.2f), out(q.size()), scores;
    double secs = 0.0;
    std::size_t n = 0;
    std::vector<PlanShape> sample = pick(plans, true, 16);
    for (const auto& d : pick(plans, false, 32)) sample.push_back(d);
    for (const auto& plan : sample) {
      secs += timed(log, "nn.attn", kTrackNn, [&] {
        for (const auto& it : plan.items)
          for (int row = 0; row < it.n_tokens; ++row) {
            const auto ctx = it.context + row + 1;
            scores.resize(static_cast<std::size_t>(ctx));
            for (int h = 0; h < cfg.n_heads; ++h) {
              for (std::int64_t j = 0; j < ctx; ++j)
                scores[static_cast<std::size_t>(j)] = gllm::nn::kernels::DotSoftmax::dot(
                    isa, q.data(), keys.data() + j * hd, hd);
              gllm::nn::kernels::DotSoftmax::softmax(scores);
              std::fill(out.begin(), out.end(), 0.0f);
              for (std::int64_t j = 0; j < ctx; ++j)
                gllm::nn::kernels::DotSoftmax::axpy(isa, scores[static_cast<std::size_t>(j)],
                                                   vals.data() + j * hd, out.data(), hd);
            }
          }
      });
      ++n;
    }
    m["nn.attn_us"] = n ? 1e6 * secs / static_cast<double>(n) : 0.0;
  }

  {
    gn::Sampler sampler;
    std::vector<float> logits(static_cast<std::size_t>(cfg.vocab));
    for (auto& l : logits) l = static_cast<float>(rng.uniform());
    const auto argmax = std::max_element(logits.begin(), logits.end()) - logits.begin();
    bool greedy = true;  // checked, so the samples cannot be optimised away
    m["nn.sample_us"] = per_call_us("nn.sample", [&] { greedy &= sampler.sample(logits) == argmax; });
    if (!greedy) throw std::runtime_error("replay: greedy sampler did not pick the argmax");
  }
}

void replay_net(const std::vector<PlanShape>& plans, SpanLog& log, Metrics& m) {
  namespace net = gllm::net;
  const auto cfg = gllm::model::presets::tiny();
  std::vector<PlanShape> sample = pick(plans, true, 24);
  for (const auto& d : pick(plans, false, 40)) sample.push_back(d);
  double enc = 0.0, dec = 0.0;
  std::size_t act_bytes = 0;
  std::vector<std::uint8_t> meta_payload;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto meta = metadata(sample[i], i);
    gllm::runtime::Activations acts;
    acts.batch_id = i;
    acts.hidden = gllm::tensor::Tensor({static_cast<std::int64_t>(meta.total_tokens()), cfg.hidden});
    std::vector<std::uint8_t> f_meta, f_act;
    enc += timed(log, "net.encode", kTrackNet, [&] {
      net::WireWriter wm, wa;
      net::encode(wm, meta);
      net::encode(wa, acts);
      f_meta = net::encode_frame(net::MsgType::kStepMetadata, wm.bytes());
      f_act = net::encode_frame(net::MsgType::kActivations, wa.bytes());
    });
    bool ok = true;
    dec += timed(log, "net.decode", kTrackNet, [&] {
      for (const auto* buf : {&f_meta, &f_act}) {
        net::Frame frame;
        std::size_t consumed = 0;
        ok = ok && net::decode_frame(*buf, frame, consumed) == net::FrameDecodeStatus::kOk;
        net::WireReader r(frame.payload);
        if (frame.type == net::MsgType::kStepMetadata) {
          gllm::runtime::StepMetadata back;
          ok = ok && net::decode(r, back);
        } else {
          gllm::runtime::Activations back;
          ok = ok && net::decode(r, back);
        }
      }
    });
    if (!ok) throw std::runtime_error("replay: a frame failed to decode");
    act_bytes = std::max(act_bytes, f_act.size());
    if (meta_payload.empty()) {
      net::WireWriter wm;
      net::encode(wm, meta);
      meta_payload = wm.take();
    }
  }
  const auto n = static_cast<double>(std::max<std::size_t>(sample.size(), 1));
  m["net.encode_us"] = 1e6 * enc / n;
  m["net.decode_us"] = 1e6 * dec / n;

  // Per micro-batch over the wire at pp = 2: a metadata frame to each stage,
  // one activation frame between them and one sample frame back.
  double frames = 0.0, bytes = 0.0, tokens = 0.0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto meta = metadata(plans[i], i);
    net::WireWriter wm, wa, ws;
    net::encode(wm, meta);
    gllm::runtime::Activations acts;
    acts.hidden = gllm::tensor::Tensor({static_cast<std::int64_t>(meta.total_tokens()), cfg.hidden});
    net::encode(wa, acts);
    gllm::runtime::SampleResult sample;
    for (int t = 0; t < plans[i].sampled_tokens(); ++t) sample.tokens.emplace_back(t + 1, 7);
    net::encode(ws, sample);
    frames += 4.0;
    bytes += static_cast<double>(2 * wm.size() + wa.size() + ws.size() + 4 * net::kFrameHeaderBytes);
    tokens += plans[i].sampled_tokens();
  }
  m["net.frames_per_tok"] = tokens > 0 ? frames / tokens : 0.0;
  m["net.bytes_per_tok"] = tokens > 0 ? bytes / tokens : 0.0;

  std::vector<std::uint8_t> payload(std::max<std::size_t>(act_bytes, 1024));
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 31);
  const std::uint32_t want = net::crc32(payload);
  bool same = true;  // checked, so the checksums cannot be optimised away
  double crc_s = 0.0;
  for (int r = 0; r < 200; ++r)
    crc_s += timed(log, "net.crc", kTrackNet, [&] { same &= net::crc32(payload) == want; });
  if (!same) throw std::runtime_error("replay: crc32 is not deterministic");
  m["net.crc_mb_s"] = crc_s > 0 ? 200.0 * static_cast<double>(payload.size()) / crc_s / 1e6 : 0.0;

  // Metadata frame round trip over loopback through net's own primitives.
  const int listener = net::listen_tcp(0);
  if (listener < 0) throw std::runtime_error("replay: listen_tcp failed");
  const int port = net::local_port(listener);
  std::thread echo([listener] {
    const int fd = net::accept_conn(listener);
    net::Frame f;
    while (fd >= 0 && net::recv_frame(fd, f, 5.0) == net::RecvStatus::kOk)
      if (!net::send_frame(fd, f.type, f.payload)) break;
    net::close_fd(fd);
  });
  const int fd = net::connect_tcp("127.0.0.1", port);
  constexpr int kHops = 200;
  double hop_s = 0.0;
  bool ok = fd >= 0;
  for (int r = 0; r < kHops && ok; ++r)
    hop_s += timed(log, "net.hop", kTrackNet, [&] {
      net::Frame back;
      ok = net::send_frame(fd, net::MsgType::kStepMetadata, meta_payload) &&
           net::recv_frame(fd, back, 5.0) == net::RecvStatus::kOk;
    });
  net::close_fd(fd);
  if (fd < 0) net::shutdown_fd(listener);  // unblocks the echo thread's accept
  echo.join();
  net::close_fd(listener);
  if (!ok) throw std::runtime_error("replay: frame round trip failed");
  m["net.hop_us"] = 1e6 * hop_s / kHops;
}

}  // namespace perfbench
