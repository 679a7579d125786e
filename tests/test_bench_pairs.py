"""The verdicts of scripts/bench_pairs.py on synthetic pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}
STEADY = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _runs(parent, change):
    """Run records as `run_pairs` keeps them, one pair per index."""
    return [
        {"pair": i, "side": side, "exit_code": 0, "result": {"metrics": {"wall_s": {"value": v}}}}
        for i, pair in enumerate(zip(parent, change))
        for side, v in zip(("parent", "change"), pair)
    ]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # won every pair, medians 0.2 apart against a parent IQR of 0.045
        (STEADY, [v - 0.2 for v in STEADY], "better"),
        # parent IQR about 0.8, wider than 0.2 of its median: too noisy to tell
        ([0.5, 1.5] * 5, [1.4, 0.6] * 5, "unresolved"),
        # 30 % slower at a steady parent
        (STEADY, [v * 1.3 for v in STEADY], "worse"),
        # within the bound, and no gain
        (STEADY, [v + 0.01 for v in STEADY], "unchanged"),
        # noisy parent, but every change run beats every parent run; the
        # medians differ by less than the parent's IQR, so no gain either
        ([0.5, 1.5] * 5, [0.45, 0.49] * 5, "unchanged"),
    ],
    ids=["better", "unresolved", "worse", "unchanged", "noisy-but-separated"],
)
def test_verdict(parent, change, verdict):
    entry = bench_pairs.summarize(_runs(parent, change), [WALL], with_wins=True)["wall_s"]
    assert entry["verdict"] == verdict
    assert entry["bound"] == 0.2
    median = entry["parent"]["median"]
    assert entry["relative_change"] == pytest.approx((entry["change"]["median"] - median) / median)


def test_failed_runs_leave_no_verdict():
    runs = _runs(STEADY, STEADY)
    for rec in runs:
        if rec["side"] == "change":
            rec["exit_code"] = 1
    entry = bench_pairs.summarize(runs, [WALL], with_wins=True)["wall_s"]
    assert entry["verdict"] == "unresolved" and entry["relative_change"] is None
