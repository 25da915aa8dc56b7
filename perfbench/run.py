#!/usr/bin/env python3
"""Serving benchmark for gllm_server / gllm_router.

One run of one workload:

    python3 perfbench/run.py --workload chat --seed 1 --seconds 20 --trace 0

builds the program and the benchmark binary from source (CMake, into
.bench_build/perfbench), runs the workload (see perfbench/workloads.json)
and prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. A traced run also
writes one merged Chrome trace (client, server and replay spans) that opens
in Perfetto, and prints the self time per layer.

Other modes:

    python3 perfbench/run.py --compare 5 --workload chat [--save a.json] [--against b.json]
        run the workload 5 times for each of two sets (their runs
        alternate; --against names a saved set B instead), print each
        end-to-end metric's median and quartiles, and flag every metric whose
        medians differ by more than its bound.
    python3 perfbench/run.py --selftest
        build and run the benchmark's unit tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure and build; both steps are quick no-ops when current."""
    bdir = build_dir()
    cached = os.path.exists(os.path.join(bdir, "CMakeCache.txt"))
    gen = ["-G", "Ninja"] if shutil.which("ninja") and not cached else []
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1), "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return bdir


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    return bench, workloads


# --- traces -------------------------------------------------------------------

def spans_of(events):
    """Complete spans [(pid, tid, name, start_us, end_us)] from X and B/E events."""
    out, open_ = [], {}
    for e in events:
        ph = e.get("ph")
        key = (e.get("pid", 0), e.get("tid", 0))
        if ph == "X":
            out.append((key[0], key[1], e["name"], e["ts"], e["ts"] + e.get("dur", 0.0)))
        elif ph == "B":
            open_.setdefault(key, []).append(e)
        elif ph == "E" and open_.get(key):
            b = open_[key].pop()
            out.append((key[0], key[1], b["name"], b["ts"], e["ts"]))
    return out


def self_times(spans):
    """Fold spans into {name: self time}: a span's duration minus the part of
    it covered by spans nested inside it on the same track."""
    result = {}
    by_track = {}
    for s in spans:
        by_track.setdefault((s[0], s[1]), []).append(s)
    for track in by_track.values():
        track.sort(key=lambda s: (s[3], -s[4]))
        stack = []  # [name, start, end, covered_by_children]
        def close(frame):
            name, start, end, covered = frame
            result[name] = result.get(name, 0.0) + (end - start) - covered
        for _, _, name, start, end in track:
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += max(0.0, min(end, parent[2]) - start)
            stack.append([name, start, end, 0.0])
        while stack:
            close(stack.pop())
    return result


def layer_of(name, pid):
    head = name.split(".", 1)[0]
    if head in ("client", "server", "router", "sched", "nn", "net"):
        return head
    return "runtime" if pid == 1 else head


def busy_ratios(server_events, t0_us, t1_us, stages=2):
    """Per-stage share of [t0, t1] in `forward` spans against `wait.*` spans."""
    fwd = [0.0] * stages
    wait = [0.0] * stages
    for pid, tid, name, start, end in spans_of(server_events):
        if tid >= stages:
            continue
        overlap = max(0.0, min(end, t1_us) - max(start, t0_us))
        if name == "forward":
            fwd[tid] += overlap
        elif name.startswith("wait."):
            wait[tid] += overlap
    busy = [f / (f + w) if f + w > 0 else 0.0 for f, w in zip(fwd, wait)]
    bubble = [w / (f + w) if f + w > 0 else 0.0 for f, w in zip(fwd, wait)]
    return busy, sum(bubble) / stages


def merge_trace(result, out_dir, trace_path):
    """Write the merged Chrome trace: the benchmark's client and replay spans
    and every traced lifetime's server spans, shifted onto one clock. Returns
    (benchmark events, [server events of each lifetime])."""
    with open(os.path.join(out_dir, "spans.json")) as f:
        events = json.load(f)
    lifetimes = []
    for lt in result["trace"]["lifetimes"]:
        server_events = []
        if lt["server_trace"] and os.path.exists(lt["server_trace"]):
            with open(lt["server_trace"]) as f:
                server_events = json.load(f)["traceEvents"]
            for e in server_events:
                e["pid"] = 1
                if "ts" in e:
                    e["ts"] += lt["offset_us"]
        lifetimes.append(server_events)
    names = {1: "gllm_server (obs spans)", 2: "perfbench client", 3: "perfbench layer replays"}
    meta = [{"name": "process_name", "ph": "M", "pid": p, "tid": 0, "args": {"name": n}}
            for p, n in names.items()]
    with open(trace_path, "w") as f:
        json.dump({"traceEvents": meta + [e for lt in lifetimes for e in lt] + events,
                   "displayTimeUnit": "ms"}, f)
    return events, lifetimes


# --- one run ------------------------------------------------------------------

UNITS = {"ttft_p50_ms": "ms", "ttft_p90_ms": "ms", "tpot_p50_ms": "ms", "tpot_p90_ms": "ms",
         "slo_attain": "ratio", "out_tok_s": "tok/s", "cpu_ms_per_tok": "ms", "rss_mb": "MiB",
         "ok_ratio": "ratio", "fail_ratio": "ratio", "setup_s": "s", "host_steal_pct": "%"}


def run_once(args, bench, workloads):
    spec = workloads["workloads"].get(args.workload)
    if spec is None:
        log("unknown workload", args.workload, "- choose from", ", ".join(workloads["workloads"]))
        return 2
    bdir = build(["perfbench", "gllm_server", "gllm_router"])
    out_dir = os.path.join(bdir, "runs", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(bdir, "gllm", "tools"), "--out-dir", out_dir]
    for key, value in spec["args"].items():
        cmd += ["--" + key, str(value)]
    # The shipped defaults: the benchmark process (layer replays) never
    # inherits a GLLM_THREADS setting, and the serving processes get only the
    # workload's own server_env.
    env = {k: v for k, v in os.environ.items() if k != "GLLM_THREADS"}
    cmd += ["--server-env", ",".join(spec.get("server_env", []))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(proc.stdout)
    result_path = os.path.join(out_dir, "result.json")
    if not os.path.exists(result_path):  # written only when every phase ran
        log("perfbench failed with status", proc.returncode)
        return proc.returncode or 1
    with open(result_path) as f:
        result = json.load(f)

    if args.trace:
        trace_path = os.path.join(bdir, "traces", "%s-s%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        events, lifetimes = merge_trace(result, out_dir, trace_path)
        layer = result["per_layer"]
        # Busy and bubble shares over each traced lifetime's closed phase,
        # averaged over the lifetimes that wrote spans.
        ratios = [busy_ratios(evs, lt["sat_t0_us"], lt["sat_t1_us"])
                  for evs, lt in zip(lifetimes, result["trace"]["lifetimes"]) if evs]
        n = max(1, len(ratios))
        layer["runtime.s0.busy_ratio"] = sum(r[0][0] for r in ratios) / n
        layer["runtime.s1.busy_ratio"] = sum(r[0][1] for r in ratios) / n
        layer["runtime.bubble_ratio"] = sum(r[1] for r in ratios) / n
        spans = spans_of(events) + [s for evs in lifetimes for s in spans_of(evs)]
        per_layer_self = {}
        for name, t in self_times(spans).items():
            pid = next((s[0] for s in spans if s[2] == name), 0)
            key = layer_of(name, pid)
            per_layer_self[key] = per_layer_self.get(key, 0.0) + t
        print("self time per layer (traced pass, ms):")
        for key, t in sorted(per_layer_self.items(), key=lambda kv: -kv[1]):
            print("  %-8s %12.3f" % (key, t / 1e3))
        print("merged trace:", trace_path)
        wanted, values = bench["per_layer"], layer
    else:
        wanted, values = bench["end_to_end"], result["end_to_end"]

    e2e = result["end_to_end"]
    # Every end-to-end number the run took; "*" marks the ones BENCHMARK.json
    # bounds (the others spread too widely between runs on a shared host).
    bounded = {m["name"] for m in bench["end_to_end"]}
    print("end-to-end (%s, seed %d):" % (args.workload, args.seed))
    for name, value in sorted(e2e.items()):
        print("  %-14s %14.6g %-6s %s" % (name, value, UNITS[name], "*" if name in bounded else ""))
    for name, ph in result["phases"].items():
        print("  phase %-5s sent=%d ok=%d failed=%d shed=%d" % (name, ph["sent"], ph["ok"], ph["failed"], ph["shed"]))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = result["wrong"] == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --- compare ------------------------------------------------------------------

def run_one(args, seed, values):
    """One plain run; its end-to-end values are appended to `values`.
    Returns False when the run failed (and appends nothing)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log("run with seed", seed, "failed")
        return False
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, m in last["metrics"].items():
        values.setdefault(name, []).append(m["value"])
    log("seed", seed, "done")
    return True


def quartiles(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return q[0], statistics.median(v), q[2]


def compare(args, bench):
    """Two sets of K runs of the same seeds. Without --against the runs of
    set A and set B alternate, so a change in host load falls on both."""
    seeds = list(range(args.seed, args.seed + args.compare))
    set_a, set_b = {}, {}
    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)["values"]
    failed_runs = 0
    for seed in seeds:
        failed_runs += not run_one(args, seed, set_a)
        if saved is None:
            failed_runs += not run_one(args, seed, set_b)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": set_a}, f)
    if saved is not None:
        set_b = saved
    flagged = 0
    print("%-14s %-5s %12s %12s %12s %8s  %s" % ("metric", "set", "q1", "median", "q3", "spread", ""))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        rows = []
        for label, vals in (("A", set_a.get(name)), ("B", set_b.get(name))):
            if not vals:
                print("  no %s runs of set %s succeeded" % (name, label))
                return 1
            q1, med, q3 = quartiles(vals)
            rows.append(med)
            spread = (q3 - q1) / med if med else 0.0
            print("%-14s %-5s %12.6g %12.6g %12.6g %7.2f%%" % (name, label, q1, med, q3, 100 * spread))
            if spread > bound and name != "setup_s":
                flagged += 1
                print("  FLAG %s: set %s spreads %.2f%% (bound %.0f%%)" % (name, label, 100 * spread, 100 * bound))
        a, b = rows
        worse = (b - a) if m["better"] == "lower" else (a - b)
        change = worse / a if a else 0.0
        if abs(b - a) > bound * abs(a):
            flagged += 1
            print("  FLAG %s: medians differ by %.2f%% (bound %.0f%%, %s)"
                  % (name, 100 * (b - a) / a, 100 * bound, "worse" if change > 0 else "better"))
    print("%d flag(s), %d failed run(s)" % (flagged, failed_runs))
    return 1 if flagged or failed_runs else 0


def selftest():
    bdir = build(["perfbench_tests"])
    rc = subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode
    rc |= subprocess.run([sys.executable, "-m", "unittest", "-q", "test_run"], cwd=HERE).returncode
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="chat")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", type=int, default=0, metavar="K")
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    bench, workloads = load_config()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.compare:
        return compare(args, bench)
    return run_once(args, bench, workloads)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log("perfbench: build failed:", " ".join(e.cmd))
        sys.exit(1)
