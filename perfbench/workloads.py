"""The benchmark's workloads: problem files drawn from the seed, and the
operations run on them.

A workload is a list of operations; one pass over the list is a round.  An
operation is one `logderiv` CLI command on one problem file.  Each instance
also carries the facts the output checks hold it to (see checks.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMMANDS = (
    "derlog",
    "free",
    "theorem-a",
    "theorem-b",
    "artin",
    "socle",
    "wiebe",
    "hessian-socle",
    "locus",
    "oracle-check",
)


@dataclass(frozen=True)
class Instance:
    name: str
    ring: tuple
    f: str
    free: bool
    holonomic: bool
    gamma: str | None = None
    # seed-independent gamma, for an instance whose operations fail on
    # purpose: a failure that must repeat in every run cannot depend on the seed
    fixed_gamma: bool = False
    # colength of Theta(gamma) for quadratic gamma: prod(exponent + 1) for a
    # homogeneous free arrangement with exponents d_i
    colength: int | None = None


SWALLOWTAIL = "256*z^3 - 128*x^2*z^2 + 144*x*y^2*z - 27*y^4 + 16*x^4*z - 4*x^3*y^2"

LADDER = (
    Instance("pinch", ("x", "y", "z"), "x^2 - y^2*z", free=False, holonomic=True),
    Instance("quintic", ("x", "y", "z"), "x*y*(x+y)*(x-y)*(y-x*z)", free=True, holonomic=False),
    Instance("xyz", ("x", "y", "z"), "x*y*z", free=True, holonomic=True, colength=8),
    Instance("abcd", ("a", "b", "c", "d"), "a*b*c*d", free=True, holonomic=True, colength=16),
    Instance(
        "a3", ("x", "y", "z"), "x*y*z*(x-y)*(x-z)*(y-z)", free=True, holonomic=True, colength=24
    ),
    Instance(
        "swallowtail", ("x", "y", "z"), SWALLOWTAIL, free=True, holonomic=True, fixed_gamma=True
    ),
)

BRAID_A4 = Instance(
    "a4",
    ("a", "b", "c", "d"),
    "(a-b)*(a-c)*(a-d)*(b-c)*(b-d)*(c-d)*a*b*c*d",
    free=True,
    holonomic=True,
)

PLANE_CURVE = Instance(
    "plane_curve",
    ("x", "y"),
    "y*(3*x-y)*(x+y)*(3*x+y) + 5*x^5",
    free=True,  # every reduced plane curve is free (Saito)
    holonomic=True,
    gamma="5*x^2 + 3*y^2",
)

WORKLOADS = ("braid-a4", "plane-curve", "ladder")

# two rounds average out more of the host's noise; they give the ladder the
# 100 operations a run its 90th percentile needs
MIN_ROUNDS = {"braid-a4": 2, "plane-curve": 2, "ladder": 2}

# CPU seconds an operation may use before it counts as failed: two to three
# times the slowest operation that finishes (on the ladder, swallowtail
# oracle-check at 1.5 s; the others are single operations of 15 to 21 s)
BUDGET_S = {"braid-a4": 60.0, "plane-curve": 60.0, "ladder": 3.0}

# operations that run past any budget (see README): they run after the timed
# rounds, so the memory they hold when cut, which depends on how far they got,
# is not part of peak_rss_mb
DEFERRED = {"swallowtail/socle", "swallowtail/wiebe", "swallowtail/locus"}


@dataclass(frozen=True)
class Op:
    instance: str
    command: str
    argv: tuple  # CLI arguments after the command and the problem file

    @property
    def label(self):
        return f"{self.instance}/{self.command}"

    @property
    def deferred(self):
        return self.label in DEFERRED


def ladder_gamma(inst, seed):
    """Quadratic diagonal gamma: the sum of squares at seed 0, otherwise
    coefficients drawn from 1..3, one generator per instance and seed."""
    if seed == 0 or inst.fixed_gamma:
        coeffs = [1] * len(inst.ring)
    else:
        rng = random.Random(f"{seed}/{inst.name}")
        coeffs = [rng.randint(1, 3) for _ in inst.ring]
    return " + ".join(
        (f"{c}*{v}^2" if c != 1 else f"{v}^2") for c, v in zip(coeffs, inst.ring)
    )


def problem_text(inst, gamma=None):
    lines = [f"# {inst.name}", f"ring: {', '.join(inst.ring)}", f"f: {inst.f}"]
    if gamma is not None:
        lines.append(f"gamma: {gamma}")
        lines.append("gamma_space: " + "; ".join(f"{v}^2" for v in inst.ring))
        lines.append("locus: " + ", ".join(inst.ring))
    return "\n".join(lines) + "\n"


def build(workload, seed):
    """(instances by name, gamma by instance name, problem texts, operations)."""
    if workload == "braid-a4":
        insts = [BRAID_A4]
        gammas = {BRAID_A4.name: None}
        ops = [Op(BRAID_A4.name, "free", ())]
    elif workload == "plane-curve":
        insts = [PLANE_CURVE]
        gammas = {PLANE_CURVE.name: PLANE_CURVE.gamma}
        ops = [Op(PLANE_CURVE.name, "theorem-b", ())]
    elif workload == "ladder":
        insts = list(LADDER)
        gammas = {i.name: ladder_gamma(i, seed) for i in insts}
        ops = [
            Op(i.name, c, ("--seed", str(seed)) if c == "theorem-a" else ())
            for i in insts
            for c in COMMANDS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    texts = {i.name: problem_text(i, gammas[i.name]) for i in insts}
    return {i.name: i for i in insts}, gammas, texts, ops
