#!/usr/bin/env python3
"""End-to-end benchmark runner for the TECO simulator.

Run one workload (builds the benchmark package first):
    python3 bench_e2e/e2e.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics: the traced split
from bench_e2e, plus the substrate costs of bench_micro_link.

Spread of one checkout over seeds (max/min and quartile spread per metric):
    python3 bench_e2e/e2e.py spread [--runs 10] [--seconds S] [--workloads a,b]

Compare two checkouts (A = parent, B = change), alternating which runs first:
    python3 bench_e2e/e2e.py compare A B [--pairs 10] [--seconds S] [--workloads a,b]

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# bench_micro_link benchmarks behind the substrate per-layer metrics, and how
# many items one iteration processes.
MICRO = {
    "BM_LinkSendBare": 1,
    "BM_LinkSendMetrics": 1,
    "BM_FlitPacking": 1,
    "BM_HomeAgentUpdatePush": 1,
    "BM_AggregatorPack": 1,
    "BM_DisaggregatorMerge": 1,
    "BM_EventQueueSchedule": 1000,
    "BM_EventQueueScheduleCausal": 1000,
    "BM_CacheLookup": 1,
    "BM_ObsCounterAdd": 1,
}
MICRO_MIN_TIME_S = "0.05"  # Plain seconds: the installed library rejects "0.05s".
MICRO_REPETITIONS = 5


class BenchError(Exception):
    pass


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Configure (once) and build the package; returns the build directory."""
    out = build_dir(root)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "bench_e2e"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            raise BenchError("build failed: " + " ".join(cmd))
    return out


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def run_bench(out, workload, seed, seconds, trace_path=None):
    cmd = [os.path.join(out, "bench_e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise BenchError("bench_e2e exited with %d" % p.returncode)
    return last_json(p.stdout)


def run_micro(out):
    """Substrate costs: medians of repeated bench_micro_link runs."""
    cmd = [os.path.join(out, "bench_micro_link"),
           "--benchmark_filter=^(%s)$" % "|".join(MICRO),
           "--benchmark_format=json",
           "--benchmark_repetitions=%d" % MICRO_REPETITIONS,
           "--benchmark_report_aggregates_only=true",
           "--benchmark_min_time=" + MICRO_MIN_TIME_S]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise BenchError("bench_micro_link exited with %d" % p.returncode)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    ns = {}
    for b in json.loads(p.stdout)["benchmarks"]:
        if b.get("aggregate_name") == "median" and b["run_name"] in MICRO:
            ns[b["run_name"]] = (b["real_time"] * scale[b["time_unit"]] /
                                 MICRO[b["run_name"]])
    missing = set(MICRO) - set(ns)
    if missing:
        raise BenchError("bench_micro_link did not report " +
                         ", ".join(sorted(missing)))

    def overhead_pct(arm, base):
        return (ns[arm] / ns[base] - 1.0) * 100.0

    return {
        "cxl.link_send_ns": (ns["BM_LinkSendBare"], "ns"),
        "cxl.flit_pack_ns": (ns["BM_FlitPacking"], "ns"),
        "coherence.update_push_ns": (ns["BM_HomeAgentUpdatePush"], "ns"),
        "dba.pack_ns": (ns["BM_AggregatorPack"], "ns"),
        "dba.merge_ns": (ns["BM_DisaggregatorMerge"], "ns"),
        "sim.event_schedule_ns": (ns["BM_EventQueueSchedule"], "ns"),
        "sim.causal_overhead_pct": (
            overhead_pct("BM_EventQueueScheduleCausal", "BM_EventQueueSchedule"),
            "%"),
        "mem.cache_lookup_ns": (ns["BM_CacheLookup"], "ns"),
        "obs.counter_add_ns": (ns["BM_ObsCounterAdd"], "ns"),
        "obs.link_metrics_overhead_pct": (
            overhead_pct("BM_LinkSendMetrics", "BM_LinkSendBare"), "%"),
    }


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run; returns the result object the contract prints."""
    spec = load_spec(root)
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload " + workload)
    out = build(root)
    trace_path = (os.path.join(out, "spans_%s.json" % workload)
                  if trace else None)
    d = run_bench(out, workload, seed, seconds, trace_path)
    got = {k: (v["value"], v["unit"]) for k, v in d["metrics"].items()}
    if trace:
        got.update(run_micro(out))
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unlisted = set(got) - set(listed)
    if unlisted:
        raise BenchError("metrics missing from BENCHMARK.json: " +
                         ", ".join(sorted(unlisted)))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # A per-layer metric this workload does not report belongs to a
        # layer it never calls: that layer did no work.
        value, unit = got.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"] or value is None or not math.isfinite(value):
            raise BenchError("bad value for %s: %r %s" % (m["name"], value, unit))
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": d["ops_failed"] == 0, "attempted": d["ops"],
            "failed": d["ops_failed"], "metrics": metrics}


def quartile_spread(values):
    """Distance between the first and third quartile, over the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def workload_names(root, only):
    names = [w["name"] for w in load_spec(root)["workloads"]]
    return only.split(",") if only else names


def cmd_spread(args):
    """Repeated runs of one checkout, one seed each: max/min per metric."""
    spec = load_spec(ROOT)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("%-18s %-14s %12s %8s %9s %6s" %
          ("workload", "metric", "median", "max/min", "IQR/med", "bound"))
    ok = True
    for w in workload_names(ROOT, args.workloads):
        values = {}
        for seed in range(1, args.runs + 1):
            r = run_once(ROOT, w, seed, args.seconds, 0)
            ok = ok and r["correct"]
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, v in values.items():
            spread = quartile_spread(v)
            print("%-18s %-14s %12.6g %8.3f %8.1f%% %5.0f%%" %
                  (w, k, statistics.median(v), max(v) / min(v), spread * 100,
                   bounds[k] * 100))
    return 0 if ok else 1


def cmd_compare(args):
    """The pairwise rule: >= 10 alternating pairs of parent (A) and change (B).

    improved   B wins >= 90 % of pairs (ties count for neither) and the
               medians differ by more than A's quartile spread;
    unresolved either side's quartile spread exceeds the bound and not every
               run of B reads better than every run of A;
    regressed  B's median is worse than A's by more than the bound;
    unchanged  otherwise.
    """
    roots = [os.path.abspath(args.a), os.path.abspath(args.b)]
    spec = load_spec(roots[0])
    metrics = spec["end_to_end"]
    print("%-18s %-14s %12s %22s %12s %22s %5s  %s" %
          ("workload", "metric", "A median", "A [q1, q3]", "B median",
           "B [q1, q3]", "wins", "verdict"))
    for w in workload_names(roots[0], args.workloads):
        runs = ([], [])
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            seed = 1000 + pair
            for side in order:
                runs[side].append(run_once(roots[side], w, seed, args.seconds, 0))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            a = [r["metrics"][name]["value"] for r in runs[0]]
            b = [r["metrics"][name]["value"] for r in runs[1]]
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            med_a, med_b = statistics.median(a), statistics.median(b)
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            worse = sign * (med_a - med_b) / med_a
            all_better = min(sign * y for y in b) > max(sign * x for x in a)
            if wins >= 0.9 * len(a) and abs(med_b - med_a) > qa[2] - qa[0]:
                verdict = "improved"
            elif (max(quartile_spread(a), quartile_spread(b)) > bound and
                  not all_better):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "unchanged"
            print("%-18s %-14s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] "
                  "%2d/%-2d  %s" %
                  (w, name, med_a, qa[0], qa[2], med_b, qb[0], qb[2], wins,
                   len(a), verdict))
    return 0


def main(argv):
    if argv and argv[0] in ("spread", "compare"):
        p = argparse.ArgumentParser(prog="e2e.py " + argv[0])
        if argv[0] == "compare":
            p.add_argument("a", help="parent checkout")
            p.add_argument("b", help="changed checkout")
            p.add_argument("--pairs", type=int, default=10)
        else:
            p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int,
                       default=load_spec(ROOT)["run_seconds"])
        p.add_argument("--workloads", default="")
        args = p.parse_args(argv[1:])
        if argv[0] == "compare" and args.pairs < 10:
            p.error("the rule needs at least 10 pairs")
        return cmd_compare(args) if argv[0] == "compare" else cmd_spread(args)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(run_once(ROOT, args.workload, args.seed, args.seconds,
                              args.trace)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        sys.stderr.write("e2e.py: %s\n" % e)
        sys.exit(1)
