"""Runs the timed operations of one benchmark run in a fresh interpreter.

    python3 worker.py setup SRC FILE...      time `import logderiv` + parsing
    python3 worker.py run SPEC RESULT        run the rounds described by SPEC

Each operation is one in-process `logderiv.cli.main([command, file, ...,
"--json"])` call with its standard output captured.  An operation fails when
it raises or uses more than its budget of process CPU time (SIGPROF, so no
thread is started).  The result file holds, per operation and round, the exit
code, the wall and CPU time, and the digest of the JSON report; distinct
reports are stored once.  The peak resident memory is this process's own, so
the output checks, which run in the parent, do not count toward it; it is
read before the deferred operations, which run after the timed rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time


class OverBudget(BaseException):
    """Raised from the SIGPROF handler; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_sigprof(signum, frame):
    raise OverBudget()


def peak_rss_mb():
    """This process's peak resident set size.

    VmHWM starts afresh at exec; ru_maxrss would also carry the peak of the
    parent that forked this process, which has imported sympy.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(src, files):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import logderiv  # noqa: F401
    from logderiv.parse import parse_input

    for path in files:
        with open(path, encoding="utf-8") as fh:
            parse_input(fh.read())
    print(repr(time.perf_counter() - t0))


def run_op(main, argv, budget):
    """One CLI call: (exit code or None, error, report text, wall s, cpu s)."""
    out = io.StringIO()
    code, error = None, None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        signal.setitimer(signal.ITIMER_PROF, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        signal.setitimer(signal.ITIMER_PROF, 0)
    except OverBudget:
        error = f"over the budget of {budget:g} CPU s"
    except Exception as e:  # any raise is a failed operation, reported by name
        error = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return code, error, out.getvalue(), wall, cpu


def run_round(main, ops, budget, reports, tracer=None):
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op["label"])
        code, error, text, wall, cpu = run_op(main, op["argv"], budget)
        if tracer is not None:
            tracer.end_op(ok=error is None)
        digest = None
        if error is None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            reports.setdefault(digest, text)
        rows.append(
            {"op": op["label"], "code": code, "error": error, "digest": digest,
             "wall_s": wall, "cpu_s": cpu}
        )
    return rows


def run(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from logderiv import cli

    signal.signal(signal.SIGPROF, _on_sigprof)
    ops, budget, reports = spec["ops"], spec["budget_s"], {}
    rounds = []
    t0 = time.perf_counter()
    if spec["trace"]:
        # one untraced round for the overhead, then one traced round with a
        # wider budget so that tracing alone fails no operation
        rounds.append(run_round(cli.main, ops, budget, reports))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        rounds.append(
            run_round(cli.main, ops, budget * spec["trace_budget_factor"], reports, tracer)
        )
        tracer.write(spec["spans_path"])
        peak, trace = None, tracer.summary()
    else:
        timed = [op for op in ops if not op["deferred"]]
        while len(rounds) < spec["min_rounds"] or time.perf_counter() - t0 < spec["seconds"]:
            rounds.append(run_round(cli.main, timed, budget, reports))
        peak, trace = peak_rss_mb(), None
        # the deferred operations, once per round, after the peak is read
        deferred = [op for op in ops if op["deferred"]]
        for rnd in rounds:
            rnd.extend(run_round(cli.main, deferred, budget, reports))
    result = {"rounds": rounds, "reports": reports, "peak_rss_mb": peak, "trace": trace}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
