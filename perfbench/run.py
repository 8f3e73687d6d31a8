#!/usr/bin/env python3
"""Benchmark entry point for the λFS simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/perfbench_driver from
the checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
runs the named workload in one serial process, checks the outputs, prints
every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is non-zero when the build fails, when a
correctness check fails, or when two runs of one seed disagree (the traced
run included). perfbench/README.md documents workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170

# Ledger segments (src/sim/latency.h), reported as contributions to the
# mean end-to-end latency.
SEGMENTS = [
    "client_backoff", "client_retry_wait", "net_client", "net_gateway",
    "gateway_queue", "cold_start_wait", "namenode_cpu", "net_store",
    "store_lock_wait", "store_queue", "store_service", "coherence",
    "ns_fault", "unattributed",
]
SPAN_COMPONENTS = ["client", "faas", "namenode", "store", "coord"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver"), build_dir


def run_driver(binary, args):
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("driver exited with code %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# ----------------------------------------------------------------------
# Registry export helpers
# ----------------------------------------------------------------------

def family(registry, name):
    """Sum of a counter/gauge family across its labels (None if absent)."""
    values = [m["value"] for m in registry["metrics"]
              if m["name"] == name and "value" in m]
    return sum(values) if values else None


def delta(rep, name):
    end = family(rep["registry_end"], name)
    begin = family(rep["registry_begin"], name)
    return (end or 0) - (begin or 0)


def contributions(registry):
    """Ledger segment contributions (mean x count / ops), in us."""
    total = [m for m in registry["metrics"] if m["name"] == "attr.total"]
    ops = sum(m["count"] for m in total)
    out = {seg: 0.0 for seg in SEGMENTS}
    if ops == 0:
        return out, 0.0, 0
    for m in registry["metrics"]:
        if m["name"] == "attr.segment":
            seg = dict(m["labels"]).get("seg")
            if seg in out:
                out[seg] += m["mean"] * m["count"] / ops
    mean_total = sum(m["mean"] * m["count"] for m in total) / ops
    return out, mean_total, ops


def digest(rep):
    """Hash of a repetition's modelled outputs (host timings excluded)."""
    registry = [m for m in rep["registry_end"]["metrics"]
                if not m["name"].startswith("attr.")]
    modelled = {k: rep[k] for k in ("completed", "failed", "window_us",
                                    "offered", "cost_usd", "lateness_ms")}
    modelled["latency"] = rep["latency"]["buckets"]
    modelled["registry"] = registry
    blob = json.dumps(modelled, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def best_window_host_s(reps):
    """Host seconds of one window, taking each slice's fastest repetition.

    Every repetition of a run does the same simulated work slice by slice
    (their digests agree), and host noise only ever adds time, so the
    fastest copy of each slice is the closest reading of the code's own
    cost (timeit's rule, applied per slice; see README.md).
    """
    per_slice = zip(*[[x[2] for x in r["slices"]] for r in reps])
    return sum(min(times) for times in per_slice)


def window_host_s(rep):
    return sum(x[2] for x in rep["slices"])


def end_to_end(reps, setups):
    r = reps[0]
    ops = r["completed"] + r["failed"]
    window_s = r["window_us"] / 1e6
    return {
        "sim_ops_per_host_s": r["completed"] / best_window_host_s(reps),
        "setup_s": min(setups),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "sim_throughput_ops": r["completed"] / window_s,
        "sim_latency_p50_ms": r["p50_us"] / 1e3,
        "sim_latency_p999_ms": r["p999_us"] / 1e3,
        "completed_frac": r["completed"] / ops if ops else 0.0,
        "sim_cost_usd": r["cost_usd"],
        "sim_lateness_ms": r["lateness_ms"],
    }


def per_layer(plain, traced, replay):
    t = traced[0]
    ops = max(t["completed"] + t["failed"], 1)
    events_per_op = t["events"] / max(t["completed"], 1)
    host_s = best_window_host_s(plain)
    ns_per_event = host_s * 1e9 / max(t["events"], 1)
    ns_per_op = host_s * 1e9 / max(t["completed"], 1)
    hits, misses = delta(t, "cache.hits"), delta(t, "cache.misses")
    gateway = delta(t, "faas.gateway_invocations")
    has_faas = family(t["registry_end"],
                      "faas.gateway_invocations") is not None
    writes = delta(t, "store.writes")
    contrib, _, _ = contributions(t["registry_end"])
    spans = t["spans"]
    traces = max(spans["traces"], 1)
    m = {
        "sim.events_per_op": events_per_op,
        "sim.host_ns_per_event": ns_per_event,
        "sim.peak_backlog": t["peak_backlog"],
        "sim.kernel_replay_ns": replay["sim.kernel_replay_ns"],
        "core.route_ns": replay["core.route_ns"],
        "util.path_parent_ns": replay["util.path_parent_ns"],
        "core.tcp_share": 1.0 - gateway / ops if has_faas else 0.0,
        "core.retries_per_op": delta(t, "workload.retries") / ops,
        "cache.get_ns": replay["cache.get_ns"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ns.resolve_ns": replay["ns.resolve_ns"],
        "ns.build_inodes_per_s": median(
            [x["inodes"] / x["build_s"] for x in plain + traced]),
        "ns.resident_bytes": family(t["registry_end"], "ns.resident_bytes")
        or 0.0,
        "store.reads_per_op": delta(t, "store.reads") / ops,
        "store.writes_per_op": writes / ops,
        "coord.invs_per_write": delta(t, "coord.invs") / writes
        if writes else 0.0,
        "faas.cold_starts": delta(t, "faas.cold_starts"),
        "faas.gateway_invocations": gateway,
        "trace.overhead_frac": median([window_host_s(x) for x in traced]) /
        median([window_host_s(x) for x in plain]) - 1.0,
        "trace.spans_dropped": spans["dropped"],
    }
    for seg in SEGMENTS:
        m["attr.%s_us" % seg] = contrib[seg]
    for comp in SPAN_COMPONENTS:
        m["span.%s.self_us_per_op" % comp] = \
            spans["self_us"].get(comp, 0.0) / traces
    # Host ns per op the replays account for, assuming one routing, one
    # path-parent and one cache lookup per op, one tree resolve per store
    # read, and one kernel step per event.
    explained = (replay["util.path_parent_ns"] + replay["core.route_ns"] +
                 replay["cache.get_ns"] +
                 replay["ns.resolve_ns"] * m["store.reads_per_op"] +
                 replay["sim.kernel_replay_ns"] * events_per_op)
    m["replay.explained_frac"] = explained / ns_per_op if ns_per_op else 0.0
    return m


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def checks(lines):
    """Correctness and determinism; returns a list of failures."""
    problems = []
    reps = [x for x in lines if x["kind"] == "rep"]
    for i, r in enumerate(reps):
        for e in r["errors"]:
            problems.append("rep %d: %s" % (i, e))
        if r["completed"] == 0:
            problems.append("rep %d completed no op in its window" % i)
        if r.get("spans", {}).get("dropped", 0):
            problems.append("rep %d dropped %d spans"
                            % (i, r["spans"]["dropped"]))
    digests = [digest(r) for r in reps]
    if len(set(digests)) != 1:
        kinds = ["traced" if r["traced"] else "plain" for r in reps]
        problems.append("modelled digests differ across repetitions: " +
                        ", ".join("%s=%s" % kv for kv in zip(kinds, digests)))
    return problems, digests[0] if digests else ""


def fidelity(args, build_dir, e2e):
    """Print λFS/HopsFS read throughput next to the paper's ratio."""
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-%d.json"
                           % (args.workload, args.seed)), "w") as f:
        json.dump(e2e, f)
    other = {"lfs-read-hot": "hopsfs-read",
             "hopsfs-read": "lfs-read-hot"}.get(args.workload)
    path = os.path.join(results, "%s-%d.json" % (other, args.seed))
    if other is None or not os.path.isfile(path):
        return
    with open(path) as f:
        peer = json.load(f)
    lfs, hops = ((e2e, peer) if args.workload == "lfs-read-hot"
                 else (peer, e2e))
    print("fidelity: lfs-read-hot/hopsfs-read sim_throughput_ops = %.2fx "
          "(paper: ~29x read at 1024 clients; not gated)"
          % (lfs["sim_throughput_ops"] / hops["sim_throughput_ops"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    binary, build_dir = build()
    lines = run_driver(binary, args)

    problems, dig = checks(lines)
    reps = [x for x in lines if x["kind"] == "rep"]
    plain = [x for x in reps if not x["traced"]]
    traced = [x for x in reps if x["traced"]]
    setups = [x["setup_s"] for x in lines if x["kind"] == "rep"]

    print("workload %s seed %d: %d measured repetitions, digest %s"
          % (args.workload, args.seed, len(reps), dig))
    r = reps[0]
    print("  window %.3f simulated s, %d ops, %d latency samples "
          "(%d beyond p99.9), %d host-timed slices per repetition"
          % (r["window_us"] / 1e6, r["completed"] + r["failed"],
             r["latency"]["count"], r["latency"]["count"] // 1000,
             len(r["slices"])))
    if args.trace == 0:
        values = end_to_end(plain, setups)
        fidelity(args, build_dir, values)
        wanted = spec["end_to_end"]
    else:
        replay = [x for x in lines if x["kind"] == "replay"][0]
        values = per_layer(plain, traced, replay)
        _, mean_total, attributed = contributions(traced[0]["registry_end"])
        print("  ledger: %d ops attributed, mean %.1f us = sum of "
              "attr.*_us %.1f us"
              % (attributed, mean_total,
                 sum(values["attr.%s_us" % s] for s in SEGMENTS)))
        print("  replay over %d captured paths: parent %.0f ns, route "
              "%.0f ns, cache get %.0f ns, resolve %.0f ns, kernel %.0f "
              "ns/event; in situ %.0f ns/event; replays explain %.1f%% of "
              "in-situ host time per op"
              % (replay["calls"], values["util.path_parent_ns"],
                 values["core.route_ns"], values["cache.get_ns"],
                 values["ns.resolve_ns"], values["sim.kernel_replay_ns"],
                 values["sim.host_ns_per_event"],
                 100 * values["replay.explained_frac"]))
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-28s %16.6g %s" % (m["name"], values[m["name"]],
                                     m["unit"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    attempted = sum(x["completed"] + x["failed"] for x in reps)
    failed = sum(x["failed"] for x in reps)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
