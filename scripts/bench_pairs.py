"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
                                   [--workload W ...] --pairs N --out FILE
                                   [--seed S] [--traced-pairs K]

DIR is the root of a checkout.  For each workload, pair i runs
`python3 perfbench/run.py --workload W --seed S` once in each checkout, the
parent first in even pairs and the change first in odd ones, so that a drift
of the host's speed is shared by both sides.  Every run's last output line
(the runner's JSON result) is kept.  For each end-to-end metric that
`BENCHMARK.json` declares, FILE gets the median and the quartiles of each
side and the number of pairs in which the change was better.  With
--traced-pairs K, K more pairs run with `--trace 1`, and FILE gets the
median of each per-layer metric on each side.

A run that exits nonzero or prints no result is kept with its exit code and
the tail of its output, and left out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUN_TIMEOUT_S = 600


def run_once(root, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    record = {"exit_code": proc.returncode, "elapsed_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
    if proc.returncode or record["result"] is None:
        record["output_tail"] = (proc.stdout + proc.stderr)[-2000:]
    return record


def run_pairs(roots, workload, seed, pairs, trace):
    """Alternating pairs; returns the runs in the order they ran."""
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rec = run_once(roots[side], workload, seed, trace)
            rec.update(pair=i, side=side)
            runs.append(rec)
            value = (rec["result"] or {}).get("metrics", {}).get("wall_s", {}).get("value")
            print(f"{workload} trace={int(trace)} pair {i} {side}: exit {rec['exit_code']}"
                  + (f", wall_s {value:.4g}" if value is not None else ""), file=sys.stderr)
    return runs


def _value(rec, name):
    if rec["exit_code"] or rec["result"] is None:
        return None
    m = rec["result"]["metrics"].get(name)
    return None if m is None else m["value"]


def _spread(values):
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs, metrics, with_wins):
    """Per metric: each side's median and quartiles and, for timed runs, the
    pairs the change won."""
    out = {}
    for m in metrics:
        name = m["name"]
        entry = {"unit": m["unit"], "better": m["better"]}
        by_pair = {}
        for rec in runs:
            v = _value(rec, name)
            if v is not None:
                by_pair.setdefault(rec["pair"], {})[rec["side"]] = v
        for side in ("parent", "change"):
            entry[side] = _spread([p[side] for p in by_pair.values() if side in p])
        if with_wins:
            both = [p for p in by_pair.values() if len(p) == 2]
            lower = m["better"] == "lower"
            entry["change_won"] = sum(
                (p["change"] < p["parent"]) if lower else (p["change"] > p["parent"]) for p in both
            )
            entry["pairs"] = len(both)
        out[name] = entry
    return out


def _ops(runs):
    """Attempted and failed operations, and the runs without a correct result."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        ok = [r["result"] for r in mine if not r["exit_code"] and r["result"]]
        out[side] = {
            "runs": len(mine),
            "runs_without_result": len(mine) - len(ok),
            "attempted": sum(r.get("attempted", 0) for r in ok),
            "failed": sum(r.get("failed", 0) for r in ok),
            "all_correct": all(r.get("correct") for r in ok),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.traced_pairs < 0:
        ap.error("--pairs must be at least 1 and --traced-pairs at least 0")

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    report = {
        "command": [*bench["command"], "--seed", str(args.seed)],
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
        },
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "workloads": {},
    }
    for workload in args.workload:
        runs = run_pairs(roots, workload, args.seed, args.pairs, trace=False)
        entry = {
            "operations": _ops(runs),
            "end_to_end": summarize(runs, bench["end_to_end"], with_wins=True),
            "runs": runs,
        }
        if args.traced_pairs:
            traced = run_pairs(roots, workload, args.seed, args.traced_pairs, trace=True)
            entry["per_layer"] = summarize(traced, bench["per_layer"], with_wins=False)
            entry["traced_runs"] = traced
        report["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
