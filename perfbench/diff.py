#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them.

    python3 perfbench/diff.py collect DIR [--workloads a,b] [--seeds 1-10] [--trace 0]
    python3 perfbench/diff.py spread DIR
    python3 perfbench/diff.py compare OLD_DIR NEW_DIR

`collect` runs perfbench/run.py once per workload x seed and keeps each run's
standard output as DIR/<workload>.trace<t>.seed<n>.out. `spread` prints, for
every workload x metric, the median, quartiles and quartile spread (as a share
of the median) beside the metric's bound from BENCHMARK.json. `compare` reads
two such directories and prints, for every workload x end-to-end metric, both
sides' median and quartiles and a verdict: better, worse, same or unresolved.
Both modes flag any change in a count that METRICS.md marks exact.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that repeat exactly from run to run on a workload (see
# METRICS.md, "Exact counts"). Compared to 12 significant digits.
EXACT = {
    "smallops": ["wal.writes_per_op", "wal.bytes_per_op", "wal.records_per_write",
                 "lock.acquires_per_op", "lock.remote_ratio", "fs.cache_hit_ratio",
                 "fs.retries_per_op", "fs.revokes_per_op", "petal.meta.reads_per_op",
                 "petal.data.writes_per_op", "net.vector_calls_per_op"],
    "shared_dir": ["lock.acquires_per_op", "fs.retries_per_op"],
    "stream": ["lock.acquires_per_op", "lock.remote_ratio", "fs.cache_hit_ratio",
               "petal.meta.reads_per_op", "petal.data.reads_per_op",
               "net.vector_calls_per_op"],
}
# Counts that repeat to 3 decimals only: the update demon's write-back adds
# traffic that depends on how many demon periods fit in the window.
NEAR_EXACT = {
    "smallops": ["net.msgs_per_op", "petal.meta.writes_per_op"],
    "stream": ["petal.write_bytes_per_user_byte", "petal.repl_bytes_per_user_byte"],
}
FILE_RE = re.compile(r"^(?P<w>[A-Za-z0-9_]+)\.trace(?P<t>[01])\.seed(?P<s>\d+)\.out$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def load_runs(directory):
    """{(workload, trace): {seed: result}} from DIR/*.out."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        match = FILE_RE.match(os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"warning: {path} has no result line", file=sys.stderr)
            continue
        key = (match["w"], int(match["t"]))
        runs.setdefault(key, {})[int(match["s"])] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(results, name):
    return [r["metrics"][name]["value"] for r in results.values() if name in r["metrics"]]


def fmt(v):
    return f"{v:.6g}"


def exact_counts(workload):
    """(name, digits) of the counts marked exact on a workload."""
    return [(n, 12) for n in EXACT.get(workload, [])] + \
        [(n, 3) for n in NEAR_EXACT.get(workload, [])]


def shown(values, digits):
    return {f"{v:.12g}" if digits == 12 else f"{v:.3f}" for v in values}


def exact_flags(workload, runs_by_seed, label):
    """Lines flagging exact counts that differ between runs of one set."""
    out = []
    for name, digits in exact_counts(workload):
        seen = shown(values_of(runs_by_seed, name), digits)
        if len(seen) > 1:
            out.append(f"  EXACT COUNT VARIES in {label}: {workload} {name}: {sorted(seen)}")
    return out


def cmd_collect(args):
    os.makedirs(args.dir, exist_ok=True)
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        for s in seeds:
            path = os.path.join(args.dir, f"{w}.trace{args.trace}.seed{s}.out")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(s), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{w} seed {s}: run failed (exit {proc.returncode})")
                continue
            with open(path, "w") as f:
                f.write(proc.stdout)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{w} seed {s}: correct={last['correct']} failed={last['failed']}"
                  f"/{last['attempted']}", flush=True)
    return 0


def cmd_spread(args):
    _, metrics = load_spec()
    runs = load_runs(args.dir)
    worst = 0.0
    for (workload, trace), by_seed in sorted(runs.items()):
        print(f"{workload} (trace {trace}, {len(by_seed)} runs)")
        names = list(next(iter(by_seed.values()))["metrics"])
        for name in names:
            vals = values_of(by_seed, name)
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = metrics.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                ok = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound
                                                      else "OVER BOUND")
                note = f"bound {bound:g} (third {bound / 3:.3f}) {ok}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:34s} median {fmt(med):>12s}  q1 {fmt(q1):>12s}  q3 {fmt(q3):>12s}"
                  f"  spread {spread:8.4f}  {note}")
        for line in exact_flags(workload, by_seed, args.dir):
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def verdict(old, new, bound, higher_better, paired):
    q1o, mo, q3o = quartiles(old)
    q1n, mn, q3n = quartiles(new)
    sign = 1 if higher_better else -1
    change = sign * (mn - mo) / abs(mo) if mo else 0.0
    spread_old = (q3o - q1o) / abs(mo) if mo else float("inf")
    spread_new = (q3n - q1n) / abs(mn) if mn else float("inf")
    wins = sum(1 for o, n in paired if sign * (n - o) > 0)
    if change < -bound:
        v = "worse"
    elif paired and wins >= 0.9 * len(paired) and change > spread_old:
        v = "better"
    elif max(spread_old, spread_new) > bound:
        v = "unresolved"
    else:
        v = "same"
    return v, change, (q1o, mo, q3o), (q1n, mn, q3n)


def cmd_compare(args):
    _, metrics = load_spec()
    old_runs = load_runs(args.old)
    new_runs = load_runs(args.new)
    status = 0
    for key in sorted(set(old_runs) & set(new_runs)):
        workload, trace = key
        old, new = old_runs[key], new_runs[key]
        print(f"{workload} (trace {trace}; {len(old)} old runs, {len(new)} new runs)")
        names = [n for n in next(iter(new.values()))["metrics"] if n in metrics]
        for name in names:
            m = metrics[name]
            ov, nv = values_of(old, name), values_of(new, name)
            if not ov or not nv or "bound" not in m:
                continue
            paired = [(old[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                      for s in sorted(set(old) & set(new))]
            v, change, (q1o, mo, q3o), (q1n, mn, q3n) = verdict(
                ov, nv, m["bound"], m["better"] == "higher", paired)
            if v == "worse":
                status = 1
            print(f"  {name:20s} old {fmt(mo):>11s} [{fmt(q1o)}, {fmt(q3o)}]  "
                  f"new {fmt(mn):>11s} [{fmt(q1n)}, {fmt(q3n)}] {m['unit']:5s} "
                  f"{change * 100:+7.2f}% (bound {m['bound'] * 100:g}%)  {v}")
        for name, digits in exact_counts(workload):
            os_, ns_ = shown(values_of(old, name), digits), shown(values_of(new, name), digits)
            if os_ and ns_ and os_ != ns_:
                print(f"  EXACT COUNT CHANGED: {name}: old {sorted(os_)} new {sorted(ns_)}")
        for line in exact_flags(workload, old, "old") + exact_flags(workload, new, "new"):
            print(line)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect")
    p.add_argument("dir")
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=0)
    p.set_defaults(fn=cmd_collect)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
