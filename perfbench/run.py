"""Benchmark runner for logderiv.

    python3 perfbench/run.py --workload {braid-a4,plane-curve,ladder}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.  One
run:

1. writes the workload's problem files, drawn from the seed, under
   `perfbench/out/<workload>/`;
2. measures set-up: `import logderiv` plus parsing those files, in a fresh
   interpreter; after one uncounted start, half the starts run before the
   worker and half after it, and the median is reported;
3. runs the operations in one worker process (worker.py), in whole rounds,
   until S seconds have passed, and at least two rounds;
4. checks every output independently of the program (checks.py); a wrong
   output stops the run with exit code 1 and no result line;
5. prints one JSON object as its last line.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
worker runs one untraced and one traced round instead, writes
`spans.jsonl` and `layers.json` under the output directory and the metrics
are the per-layer ones, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import mpmath

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_STARTS = 12  # half before the worker, half after it
RUN_LIMIT_S = 170  # the whole run, set-up and checks included
TRACE_BUDGET_FACTOR = 2  # tracing slows an operation by much less than this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def _env():
    # fixed string hashing, so that set and dict orders repeat across processes
    return dict(os.environ, PYTHONHASHSEED="0")


def setup_times(files, starts):
    """Seconds to import logderiv and parse `files`, in `starts` fresh interpreters."""
    times = []
    for _ in range(starts):
        out = subprocess.run(
            [sys.executable, WORKER, "setup", SRC, *files],
            capture_output=True, text=True, timeout=60, env=_env(), check=True,
        )
        times.append(float(out.stdout))
    return times


def run_worker(spec, outdir, deadline):
    spec_path = os.path.join(outdir, "spec.json")
    result_path = os.path.join(outdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    subprocess.run(
        [sys.executable, WORKER, "run", spec_path, result_path],
        timeout=max(1.0, deadline - time.monotonic()), env=_env(), check=True,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  Ladder latencies cluster, with gaps between the clusters; a
    single order statistic jumps across a gap when one operation gets a
    little faster or slower, this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def distinct_outputs(result):
    """{(instance, command): (exit code, report)}; outputs must not vary."""
    out = {}
    for rnd in result["rounds"]:
        for row in rnd:
            if row["error"] is not None:
                continue
            key = tuple(row["op"].split("/", 1))
            seen = out.setdefault(key, (row["code"], row["digest"]))
            if seen != (row["code"], row["digest"]):
                raise SystemExit(f"error: {row['op']}: output differs between rounds")
    return {k: (code, result["reports"][d]) for k, (code, d) in out.items()}


def end_to_end(result, budget, setup_s):
    rows = [row for rnd in result["rounds"] for row in rnd]
    rounds = len(result["rounds"])
    latencies = [
        (row["wall_s"] if row["error"] is None else budget) * 1000.0 for row in rows
    ]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(row["wall_s"] for row in rows) / rounds,
        "cpu_s": sum(row["cpu_s"] for row in rows) / rounds,
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(result, names):
    """Per-layer metrics from the traced round, named as in BENCHMARK.json."""
    trace = result["trace"]
    funcs, counters = trace["functions"], trace["counters"]
    untraced, traced = result["rounds"]
    both = [
        (u, t) for u, t in zip(untraced, traced) if u["error"] is None and t["error"] is None
    ]
    values = {"trace.overhead_s": sum(t["wall_s"] - u["wall_s"] for u, t in both)}
    count = counters["engine.spair_nf.count"]
    values["engine.spair_nf.useful_ratio"] = (
        (count - counters["engine.spair_nf.zero"]) / count if count else 0.0
    )
    values["sampling.draws"] = funcs["sampling.sample_gamma"]["calls"]
    out = {}
    for name, unit in names.items():
        if name in values:
            v = values[name]
        elif name in counters:
            v = counters[name]
        else:
            func, _, stat = name.rpartition(".")
            v = funcs[func][stat]  # a KeyError here is a misnamed metric
        out[name] = {"value": v, "unit": unit}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "logderiv", "cli.py")):
        sys.exit(f"error: the program is missing: no {os.path.join(SRC, 'logderiv')}")
    import checks  # sympy is slow to import; only once the program is there

    instances, gammas, texts, ops = workloads.build(args.workload, args.seed)
    outdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(outdir, f"{name}.lgd")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)

    files = list(paths.values())
    if not args.trace:
        setup_times(files, 1)  # uncounted: the first start may still compile bytecode
        setup = setup_times(files, SETUP_STARTS // 2)
    spec = {
        "src": SRC,
        "ops": [
            {"label": op.label, "deferred": op.deferred,
             "argv": [op.command, paths[op.instance], *op.argv, "--json"]}
            for op in ops
        ],
        "budget_s": workloads.BUDGET_S[args.workload],
        "seconds": args.seconds,
        "min_rounds": workloads.MIN_ROUNDS[args.workload],
        "trace": bool(args.trace),
        "trace_budget_factor": TRACE_BUDGET_FACTOR,
        "spans_path": os.path.join(outdir, "spans.jsonl"),
    }
    result = run_worker(spec, outdir, deadline)

    try:
        checks.Checker(instances, gammas).check(distinct_outputs(result))
    except checks.CheckFailure as e:
        sys.exit(f"error: wrong output: {e}")

    rows = [row for rnd in result["rounds"] for row in rnd]
    failed = [row for row in rows if row["error"]]
    print(f"operations: {len(rows)} attempted in {len(result['rounds'])} rounds, "
          f"{len(failed)} failed")
    for op, error in sorted({row["op"]: row["error"] for row in failed}.items()):
        print(f"failed: {op}: {error}")
    if args.trace:
        with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
            names = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = per_layer(result, names)
        with open(os.path.join(outdir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       **result["trace"]}, fh, indent=1)
    else:
        setup += setup_times(files, SETUP_STARTS - len(setup))
        metrics = end_to_end(
            result, workloads.BUDGET_S[args.workload], statistics.median(setup)
        )
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
