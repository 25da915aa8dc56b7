// perfbench: one run of one serving workload, driven from outside the
// program. Spawns gllm_server / gllm_router with their default flags,
// measures set-up, an open (Poisson) phase and a saturating closed phase from
// a single-threaded epoll client, checks a seeded sample of the greedy
// streams against nn::generate_reference, and writes result.json. With
// --trace 1 it also makes a traced pass (server spans, cadence scrapes,
// client spans) and replays each layer at the workload's shapes.
//
// Normally invoked through perfbench/run.py, which builds it and passes the
// workload's parameters from perfbench/workloads.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "loadgen.hpp"
#include "model/config.hpp"
#include "nn/reference.hpp"
#include "proc.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

using namespace perfbench;
using Outcome = RequestRecord::Outcome;

namespace {

struct Options {
  WorkloadParams params;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir, out_dir;
  std::vector<std::string> server_env;  ///< "NAME=value" entries for the serving tree
  int conns = 1;  ///< client connections: nproc
};

// Throughput differs by up to a third between server lifetimes (how their
// threads land on the vCPUs, and bursts of host steal), so a run reports
// medians over several.
constexpr int kServers = 10;           ///< server lifetimes a run is split over
constexpr int kSetups = 21;            ///< spawns a plain run times for setup_s
constexpr double kWarmupS = 0.3;       ///< per lifetime, before the open phase
constexpr double kOpenShare = 0.5;     ///< of the run; the closed phase gets the rest
constexpr std::size_t kVerifyPerPhase = 24;  ///< streams checked against the reference

/// Counters of the serving tree: a server's own /metrics, or for a router its
/// gllm_router_* series plus every replica's series summed.
struct Scrape {
  std::map<std::string, double> c;
  std::vector<double> dispatched;  ///< router: per replica
  double get(const std::string& k) const {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  }
};

Scrape scrape(const Options& o, int port) {
  Scrape s;
  std::string body;
  if (http_get(port, "/metrics", body) != 200) throw std::runtime_error("GET /metrics failed");
  auto own = parse_prometheus(body);
  if (o.params.front != "router") {
    s.c = std::move(own);
    return s;
  }
  for (const auto& [k, v] : own)
    if (k.rfind("gllm_router_", 0) == 0) s.c[k] = v;
  if (http_get(port, "/v1/stats", body) != 200) throw std::runtime_error("GET /v1/stats failed");
  s.dispatched = json_numbers(body, "dispatched");
  for (const double p : json_numbers(body, "port")) {
    std::string rb;
    if (http_get(static_cast<int>(p), "/metrics", rb) != 200)
      throw std::runtime_error("GET replica /metrics failed");
    for (const auto& [k, v] : parse_prometheus(rb))
      if (k.rfind("gllm_router_", 0) != 0) s.c[k] += v;
  }
  return s;
}

/// Counter growth between two scrapes, added into `acc`.
void accumulate(Scrape& acc, const Scrape& before, const Scrape& after) {
  for (const auto& [k, v] : after.c) acc.c[k] += v - before.get(k);
  acc.dispatched.resize(std::max(acc.dispatched.size(), after.dispatched.size()), 0.0);
  for (std::size_t i = 0; i < after.dispatched.size() && i < before.dispatched.size(); ++i)
    acc.dispatched[i] += after.dispatched[i] - before.dispatched[i];
}

std::vector<std::string> server_argv(const Options& o, const std::string& trace_out) {
  std::vector<std::string> argv;
  if (o.params.front == "router") {
    argv = {o.bin_dir + "/gllm_router", "--port", "0", "--replicas",
            std::to_string(o.params.replicas), "--server-bin", o.bin_dir + "/gllm_server"};
  } else {
    argv = {o.bin_dir + "/gllm_server", "--port", "0"};
    if (!trace_out.empty()) argv.insert(argv.end(), {"--trace-out", trace_out});
  }
  return argv;
}

/// A traced server lifetime: its span file and its clock.
struct TracedLifetime {
  std::string path;
  double spawned = 0.0, sat_t0 = 0.0, sat_t1 = 0.0;
};

/// The server lifetimes of one pass with their samples pooled.
struct Pass {
  gllm::util::SampleStats setup_s, rss_mb;
  /// One value per lifetime: the median open-phase TTFT and TPOT, the share
  /// of open requests within the SLO, the closed-phase token rate and CPU
  /// time of the serving tree per output token, and the share of CPU time
  /// the hypervisor stole.
  gllm::util::SampleStats ttft_ms, tpot_ms, slo, tok_s, cpu_ms_per_tok, steal;
  std::vector<TracedLifetime> traces;
  double origin = 0.0;            ///< spawn time of the first server
  PhaseResult open, sat;          ///< pooled requests (and scrapes) of every server
  Scrape open_delta, all_delta;   ///< counter growth over open, and open + closed
  std::size_t wrong = 0, verified = 0;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Checks a seeded sample of completed streams against the single-stage
/// greedy reference. Returns the number of mismatches.
std::size_t verify(const Options& o, const PhaseResult& phase, std::uint64_t salt,
                   std::size_t& checked) {
  std::vector<const RequestRecord*> ok;
  for (const auto& r : phase.requests)
    if (r.outcome == Outcome::kOk) ok.push_back(&r);
  std::stable_sort(ok.begin(), ok.end(), [&](const RequestRecord* a, const RequestRecord* b) {
    return mix(o.seed ^ salt, static_cast<std::uint64_t>(a->id)) <
           mix(o.seed ^ salt, static_cast<std::uint64_t>(b->id));
  });
  ok.resize(std::min(ok.size(), kVerifyPerPhase));
  std::vector<gllm::nn::GenRequest> reqs;
  for (const auto* r : ok) {
    gllm::nn::GenRequest g;
    g.id = r->id;
    g.prompt.assign(r->request.prompt.begin(), r->request.prompt.end());
    g.max_new_tokens = r->request.max_tokens;
    reqs.push_back(std::move(g));
  }
  const auto ref = gllm::nn::generate_reference(gllm::model::presets::tiny(), 1234, reqs, 8);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < ok.size(); ++i)
    if (std::vector<int>(ref[i].begin(), ref[i].end()) != ok[i]->tokens) {
      ++wrong;
      std::cerr << "perfbench: request " << ok[i]->id << " differs from the greedy reference\n";
    }
  checked += ok.size();
  return wrong;
}

ServingProcess spawn(const Options& o, const std::string& trace_out) {
  return ServingProcess(server_argv(o, trace_out), o.server_env, o.out_dir + "/server.log",
                        o.params.front == "router", o.params.replicas, 60.0);
}

/// Lifetime `i`: spawn, warm up, `open_s` of Poisson arrivals, `sat_s` of
/// closed loop, stop; its samples go into `pass`. A non-empty trace_out
/// makes it a traced lifetime (server spans, cadence scrapes).
void run_lifetime(const Options& o, int i, double open_s, double sat_s,
                  const std::string& trace_out, Pass& pass) {
  const bool traced = !trace_out.empty();
  ServingProcess server = spawn(o, trace_out);
  pass.setup_s.add(server.setup_s());
  if (pass.origin == 0.0) pass.origin = server.spawned_at();
  const auto stream = static_cast<std::uint64_t>(3 * i);
  LoadGen gen(server.port(), o.params, o.seed);

  PhaseConfig warm;
  warm.open = false;
  warm.seconds = kWarmupS;
  warm.conns = o.conns;
  warm.stream = stream;
  gen.run(warm);

  PhaseConfig open;
  open.due = poisson_schedule(o.params.rate, open_s, mix(o.seed, static_cast<std::uint64_t>(i)));
  open.conns = o.conns;
  open.stream = stream + 1;
  if (traced) open.sample_paths = {"/v1/stats", "/metrics"};
  open.sample_every = traced ? 0.1 : 0.0;
  const Scrape before = scrape(o, server.port());
  PhaseResult op = gen.run(open);
  const Scrape mid = scrape(o, server.port());

  PhaseConfig sat = open;
  sat.open = false;
  sat.due.clear();
  sat.seconds = sat_s;
  sat.stream = stream + 2;
  const double cpu0 = server.tree_cpu_s();
  PhaseResult st = gen.run(sat);
  const double cpu_s = server.tree_cpu_s() - cpu0;
  const Scrape after = scrape(o, server.port());
  pass.rss_mb.add(server.tree_peak_rss_mb());
  const int status = server.stop(30.0);
  if (status != 0) std::cerr << "perfbench: server exited with status " << status << "\n";
  if (traced) pass.traces.push_back({trace_out, server.spawned_at(), st.t0, st.t_end});

  accumulate(pass.open_delta, before, mid);
  accumulate(pass.all_delta, before, after);
  gllm::util::SampleStats ttft, tpot, steal;
  std::size_t met = 0;
  for (const auto& q : op.requests) {
    if (q.outcome != Outcome::kOk) continue;  // a failed request misses the SLO
    ttft.add(1e3 * q.ttft_from_due());
    if (q.tokens.size() > 1) tpot.add(1e3 * q.tpot());
    met += 1e3 * q.ttft_from_due() <= o.params.ttft_limit_ms && 1e3 * q.tpot() <= o.params.tpot_limit_ms;
  }
  for (const auto* ph : {&op, &st})
    for (const auto& sl : ph->slices()) steal.add(sl.steal);
  const double tok_s = st.token_rate(st.t0, st.t_end);
  std::size_t sat_tokens = 0;
  for (const auto& q : st.requests) sat_tokens += q.tokens.size();
  // A lifetime's open phase holds a few dozen requests: enough for its own
  // median, which only feeds the median over lifetimes.
  if (!ttft.empty()) {
    pass.ttft_ms.add(ttft.median());
    pass.tpot_ms.add(tpot.median());
    pass.slo.add(static_cast<double>(met) / static_cast<double>(op.requests.size()));
  }
  pass.tok_s.add(tok_s);
  if (sat_tokens > 0) pass.cpu_ms_per_tok.add(1e3 * cpu_s / static_cast<double>(sat_tokens));
  pass.steal.add(steal.mean());
  std::cout << "  server " << i + 1 << (traced ? " (traced)" : "") << ": ttft_p50 "
            << fmt(ttft.median()) << " ms, " << fmt(tok_s) << " tok/s, "
            << fmt(1e3 * cpu_s / static_cast<double>(std::max<std::size_t>(1, sat_tokens)))
            << " CPU ms/tok, host steal "
            << fmt(100 * steal.mean()) << "% of CPU time\n";
  for (auto* ph : {&op, &st}) {
    auto& into = ph == &op ? pass.open : pass.sat;
    std::move(ph->requests.begin(), ph->requests.end(), std::back_inserter(into.requests));
    std::move(ph->samples.begin(), ph->samples.end(), std::back_inserter(into.samples));
  }
}

void verify_pass(const Options& o, Pass& pass) {
  const double t_verify = mono_now();
  pass.wrong = verify(o, pass.open, 1, pass.verified) + verify(o, pass.sat, 2, pass.verified);
  std::cout << "  verify " << fmt(mono_now() - t_verify) << " s\n";
}

/// A plain run: --seconds split over kServers lifetimes, and setup_s also
/// timed on spawns that serve nothing (set-up alone is short and noisy, so
/// it is a median over kSetups spawns).
Pass plain_pass(const Options& o) {
  Pass pass;
  for (int i = kServers; i < kSetups; ++i) pass.setup_s.add(spawn(o, "").setup_s());
  for (int i = 0; i < kServers; ++i)
    run_lifetime(o, i, o.seconds * kOpenShare / kServers, o.seconds * (1 - kOpenShare) / kServers,
                 "", pass);
  verify_pass(o, pass);
  return pass;
}

struct Endpoint {
  Metrics e2e;
  std::size_t attempted = 0, failed = 0;
};

/// The run's figures. Latency, SLO attainment and throughput are medians
/// over the server lifetimes, so a burst of host steal that slows one or two
/// lifetimes does not move them; the p90s pool every open request.
Endpoint end_to_end(const Pass& p) {
  Endpoint r;
  gllm::util::SampleStats ttft, tpot;
  for (const auto& q : p.open.requests)
    if (q.outcome == Outcome::kOk) {
      ttft.add(1e3 * q.ttft_from_due());
      if (q.tokens.size() > 1) tpot.add(1e3 * q.tpot());
    }
  std::cout << "  " << p.tok_s.count() << " lifetimes, host steal " << fmt(100 * p.steal.min()) << "-"
            << fmt(100 * p.steal.max()) << "% of CPU time; open requests completed n=" << ttft.count()
            << (percentile_supported(ttft.count(), 0.9) ? "" : " (p90 has under 10 samples beyond it)")
            << "\n";
  r.attempted = p.open.requests.size() + p.sat.requests.size();
  for (const auto* ph : {&p.open, &p.sat})
    r.failed += ph->count(Outcome::kError) + ph->count(Outcome::kShed);
  r.failed += p.wrong;
  r.e2e["setup_s"] = p.setup_s.median();
  r.e2e["ttft_p50_ms"] = p.ttft_ms.median();
  r.e2e["ttft_p90_ms"] = ttft.percentile(90);
  r.e2e["tpot_p50_ms"] = p.tpot_ms.median();
  r.e2e["tpot_p90_ms"] = tpot.percentile(90);
  r.e2e["slo_attain"] = p.slo.median();
  r.e2e["out_tok_s"] = p.tok_s.median();
  r.e2e["cpu_ms_per_tok"] = p.cpu_ms_per_tok.median();
  r.e2e["rss_mb"] = p.rss_mb.median();
  r.e2e["ok_ratio"] = r.attempted ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0;
  r.e2e["fail_ratio"] = 1.0 - r.e2e["ok_ratio"];
  r.e2e["host_steal_pct"] = 100 * p.steal.median();
  return r;
}

void print_counts(const char* name, const PhaseResult& ph) {
  std::cout << "  phase " << name << ": sent=" << ph.requests.size()
            << " ok=" << ph.count(Outcome::kOk) << " failed=" << ph.count(Outcome::kError)
            << " shed=" << ph.count(Outcome::kShed) << "\n";
}

Metrics per_layer(const Options& o, const Pass& p, SpanLog& log) {
  Metrics m;
  const bool router = o.params.front == "router";
  const auto& d_open = p.open_delta;
  const auto& d_all = p.all_delta;
  const double reqs = static_cast<double>(p.open.requests.size() + p.sat.requests.size());
  gllm::util::SampleStats from_send;
  for (const auto& q : p.open.requests)
    if (q.outcome == Outcome::kOk) from_send.add(1e3 * q.ttft_from_send());
  const double server_ttft_ms = 1e3 * d_open.get("gllm_ttft_seconds_sum") /
                                std::max(1.0, d_open.get("gllm_ttft_seconds_count"));
  const double gap = from_send.mean() - server_ttft_ms;

  m["server.ttft_gap_ms"] = router ? 0.0 : gap;
  m["server.events_per_req"] = d_all.get("gllm_http_stream_events_total") / reqs;
  m["server.bytes_out_per_req"] = d_all.get("gllm_http_bytes_out_total") / reqs;
  m["server.shed"] = d_all.get("gllm_http_shed_total");
  m["server.backpressure"] = d_all.get("gllm_http_backpressure_events_total");

  std::vector<std::string> sent;
  std::vector<std::vector<int>> prompts;
  for (const auto& q : p.open.requests) {
    sent.push_back(q.http);
    prompts.push_back(q.request.prompt);
  }
  replay_parse(sent, log, m);

  m["router.place_us"] = 0.0;
  m["router.prefix_hit_ratio"] = 0.0;
  m["router.ttft_gap_ms"] = 0.0;
  m["router.replica_skew"] = 0.0;
  if (router) {
    replay_place(prompts, o.params.replicas, log, m);
    m["router.prefix_hit_ratio"] = d_all.get("gllm_router_prefix_hits_total") /
                                   std::max(1.0, d_all.get("gllm_router_requests_routed_total"));
    m["router.ttft_gap_ms"] = gap;
    double lo = 1e300, hi = 0.0;
    for (const double d : d_all.dispatched) {
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    m["router.replica_skew"] = lo > 0 ? hi / lo : 0.0;
  }

  m["sched.mb_tokens_mean"] = d_all.get("gllm_iteration_tokens_sum") /
                              std::max(1.0, d_all.get("gllm_iteration_tokens_count"));
  m["kv.preemptions"] = d_all.get("gllm_preemptions_total");

  gllm::util::SampleStats waiting, running, kv_used;
  for (const auto* ph : {&p.open, &p.sat})
    for (const auto& s : ph->samples) {
      if (s.path == "/v1/stats") {
        double w = 0.0, r = 0.0;
        for (const double v : json_numbers(s.body, "waiting_prefill")) w += v;
        for (const double v : json_numbers(s.body, "running_decodes")) r += v;
        waiting.add(w);
        running.add(r);
      } else if (!router) {
        const auto c2 = parse_prometheus(s.body);
        if (const auto it = c2.find("gllm_kv_free_rate"); it != c2.end())
          kv_used.add(1.0 - it->second);
      }
    }
  m["engine.waiting_p50"] = waiting.median();
  m["engine.running_p50"] = running.median();
  m["kv.used_p90"] = kv_used.percentile(90);

  gllm::util::SampleStats late, wait;
  for (const auto& q : p.open.requests) {
    late.add(1e3 * (q.start - q.slot));
    wait.add(1e3 * (q.slot - q.due));
  }
  m["client.send_late_p99_ms"] = late.percentile(99);
  m["client.conn_wait_p50_ms"] = wait.median();

  const auto plans = replay_sched(o.params, o.seed, o.conns, 1.5, log, m);
  replay_nn(plans, log, m);
  replay_net(plans, log, m);
  return m;
}

/// Client request spans, one lane per concurrently open request.
void client_spans(const PhaseResult& ph, SpanLog& log) {
  std::vector<double> lane_end;
  for (const auto& q : ph.requests) {
    const double end = q.last > 0 ? q.last : q.start;
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > q.due) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0.0);
    lane_end[lane] = end;
    const int tid = 100 + static_cast<int>(lane);
    log.add("client.request", q.due, end, tid, q.id);
    if (q.slot > q.due) log.add("client.conn_wait", q.due, q.slot, tid, q.id);
    if (q.first > 0) log.add("client.ttft", q.start, q.first, tid, q.id);
  }
}

/// 100 * (to - from) / from; 0 when `from` is 0 (nothing was measured).
double percent_change(double from, double to) { return from != 0.0 ? 100.0 * (to - from) / from : 0.0; }

void write_json_metrics(std::ostream& os, const Metrics& m) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << "\"" << k << "\":" << fmt(std::isfinite(v) ? v : 0.0);
    first = false;
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  gllm::util::ArgParser args("perfbench", "one run of one serving workload");
  args.add_option("workload", "workload name", "chat");
  args.add_option("seed", "input seed", "1");
  args.add_option("seconds", "measured seconds (open + closed phase)", "10");
  args.add_option("trace", "1 = add the traced pass and layer replays", "0");
  args.add_option("bin-dir", "directory holding gllm_server and gllm_router", "");
  args.add_option("out-dir", "directory for result.json, logs and spans", ".");
  args.add_option("server-env", "comma-separated NAME=value entries for the serving processes", "");
  args.add_option("front", "server | router", "server");
  args.add_option("replicas", "router replicas", "2");
  args.add_option("prompt-mean", "lognormal prompt mean (tokens)", "32");
  args.add_option("prompt-sigma", "lognormal prompt sigma", "0.6");
  args.add_option("prompt-min", "shortest prompt", "4");
  args.add_option("prompt-max", "longest prompt", "256");
  args.add_option("prefixes", "shared prefixes (0 = none)", "0");
  args.add_option("prefix-len", "shared prefix length", "0");
  args.add_option("out-min", "fewest output tokens", "16");
  args.add_option("out-max", "most output tokens", "48");
  args.add_option("rate", "open-phase arrivals per second", "10");
  args.add_option("ttft-limit-ms", "SLO TTFT limit", "100");
  args.add_option("tpot-limit-ms", "SLO TPOT limit", "20");
  if (!args.parse(argc, argv)) {
    std::cerr << "error: " << args.error() << "\n" << args.usage();
    return 2;
  }
  Options o;
  o.params.name = args.get("workload");
  o.params.front = args.get("front");
  o.params.replicas = args.get_int("replicas");
  o.params.prompt_mean = args.get_double("prompt-mean");
  o.params.prompt_sigma = args.get_double("prompt-sigma");
  o.params.prompt_min = args.get_int("prompt-min");
  o.params.prompt_max = args.get_int("prompt-max");
  o.params.prefixes = args.get_int("prefixes");
  o.params.prefix_len = args.get_int("prefix-len");
  o.params.out_min = args.get_int("out-min");
  o.params.out_max = args.get_int("out-max");
  o.params.rate = args.get_double("rate");
  o.params.ttft_limit_ms = args.get_double("ttft-limit-ms");
  o.params.tpot_limit_ms = args.get_double("tpot-limit-ms");
  o.seed = static_cast<std::uint64_t>(args.get_int64("seed"));
  o.seconds = args.get_double("seconds");
  o.trace = args.get_int("trace") != 0;
  o.bin_dir = args.get("bin-dir");
  o.out_dir = args.get("out-dir");
  std::istringstream env(args.get("server-env"));
  for (std::string entry; std::getline(env, entry, ',');)
    if (!entry.empty()) o.server_env.push_back(entry);
  o.conns = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  supervise_children();
  int rc = 0;
  try {
    std::cout << "perfbench " << o.params.name << " seed=" << o.seed << " seconds=" << o.seconds
              << " conns=" << o.conns << " rate=" << o.params.rate << "/s\n";
    // A plain run splits --seconds over kServers lifetimes. A traced run
    // alternates untraced and traced lifetimes over the same split, so the
    // tracing overhead is a difference of medians over several lifetimes.
    Pass plain, traced;
    if (o.trace) {
      const double open_s = o.seconds * kOpenShare / kServers;
      const double sat_s = o.seconds * (1 - kOpenShare) / kServers;
      for (int i = 0; i < kServers; ++i) {
        const bool t = i % 2 == 1;
        run_lifetime(o, i, open_s, sat_s,
                     t ? o.out_dir + "/server_trace_" + std::to_string(i) + ".json" : "",
                     t ? traced : plain);
      }
      verify_pass(o, plain);
      verify_pass(o, traced);
    } else {
      plain = plain_pass(o);
    }
    const Endpoint e = end_to_end(plain);
    print_counts("open", plain.open);
    print_counts("sat", plain.sat);
    std::cout << "  verified " << plain.verified << " streams against the greedy reference, "
              << plain.wrong << " differ\n";

    std::ostringstream res;
    std::size_t attempted = e.attempted, failed = e.failed, wrong = plain.wrong;
    res << "{\"workload\":\"" << o.params.name << "\",\"seed\":" << o.seed
        << ",\"verified\":" << plain.verified << ",\"phases\":{";
    const std::pair<const char*, const PhaseResult*> phases[] = {{"open", &plain.open}, {"sat", &plain.sat}};
    for (std::size_t i = 0; i < 2; ++i) {
      const auto* ph = phases[i].second;
      res << (i ? "," : "") << "\"" << phases[i].first << "\":{\"sent\":" << ph->requests.size()
          << ",\"ok\":" << ph->count(Outcome::kOk) << ",\"failed\":" << ph->count(Outcome::kError)
          << ",\"shed\":" << ph->count(Outcome::kShed) << "}";
    }
    res << "},\"end_to_end\":";
    write_json_metrics(res, e.e2e);

    if (o.trace) {
      const Endpoint te = end_to_end(traced);
      attempted += te.attempted;
      failed += te.failed;
      wrong += traced.wrong;
      print_counts("traced open", traced.open);
      print_counts("traced sat", traced.sat);
      SpanLog log;
      client_spans(traced.open, log);
      client_spans(traced.sat, log);
      Metrics m = per_layer(o, traced, log);
      // Positive = the traced lifetimes did worse than the untraced ones.
      const double tok = -percent_change(plain.tok_s.median(), traced.tok_s.median());
      const double ttft = percent_change(plain.ttft_ms.median(), traced.ttft_ms.median());
      m["trace.overhead_out_tok_pct"] = tok;
      m["trace.overhead_ttft_p50_pct"] = ttft;
      // An overhead smaller than the range between lifetimes of one kind is
      // not resolved by this run.
      auto range_pct = [](const gllm::util::SampleStats& a, const gllm::util::SampleStats& b) {
        double r = 0.0;
        for (const auto* x : {&a, &b})
          if (x->median() > 0) r = std::max(r, 100 * (x->max() - x->min()) / x->median());
        return r;
      };
      const double tok_range = range_pct(plain.tok_s, traced.tok_s);
      const double ttft_range = range_pct(plain.ttft_ms, traced.ttft_ms);
      std::cout << "  tracing overhead (median of " << traced.tok_s.count() << " traced vs "
                << plain.tok_s.count() << " untraced lifetimes): out_tok_s " << fmt(tok)
                << "% (" << (std::abs(tok) > tok_range ? "resolved" : "unresolved") << ", lifetimes span "
                << fmt(tok_range) << "%), ttft_p50 " << fmt(ttft) << "% ("
                << (std::abs(ttft) > ttft_range ? "resolved" : "unresolved") << ", lifetimes span "
                << fmt(ttft_range) << "%)\n";
      res << ",\"traced_end_to_end\":";
      write_json_metrics(res, te.e2e);
      res << ",\"per_layer\":";
      write_json_metrics(res, m);
      // Each traced lifetime's server spans are timed from its own spawn.
      res << ",\"trace\":{\"lifetimes\":[";
      for (std::size_t i = 0; i < traced.traces.size(); ++i) {
        const auto& t = traced.traces[i];
        res << (i ? "," : "") << "{\"server_trace\":\""
            << (o.params.front == "router" ? "" : t.path) << "\",\"offset_us\":"
            << fmt(1e6 * (t.spawned - traced.origin)) << ",\"sat_t0_us\":"
            << fmt(1e6 * (t.sat_t0 - traced.origin)) << ",\"sat_t1_us\":"
            << fmt(1e6 * (t.sat_t1 - traced.origin)) << "}";
      }
      res << "]}";
      std::ofstream spans(o.out_dir + "/spans.json");
      spans << "[";
      bool first = true;
      for (const auto& s : log.spans()) {
        const int pid = s.tid >= 100 ? 2 : 3;
        spans << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":" << pid
              << ",\"tid\":" << s.tid << ",\"ts\":" << fmt(1e6 * (s.ts - traced.origin))
              << ",\"dur\":" << fmt(1e6 * s.dur);
        if (s.id >= 0) spans << ",\"args\":{\"id\":" << s.id << "}";
        spans << "}";
        first = false;
      }
      spans << "]\n";
    }
    res << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"wrong\":" << wrong
        << "}\n";
    std::ofstream(o.out_dir + "/result.json") << res.str();
    if (wrong > 0) rc = 1;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    rc = 1;
  }
  reap_all_children();
  return rc;
}
