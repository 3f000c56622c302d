"""The benchmark's four fixed workloads.

Every workload is a fixed set of operations. The seed only permutes their
order, so every seed does the same work. Each workload also names one
warm-up operation, run untimed before the pass and not part of the set, and
the run length it gives to one pass, which fixes how many whole passes a run
of a given length makes. The shorter workloads make two passes in a 15 s run,
so that every run measures 12 s or more of work.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

# The x-binding fault: eval_identity binds x at 53 bits (outside the working
# precision), so both sides are evaluated at a rounded x. Operations at an x
# that is not a dyadic rational fail the mpmath check of the single-sum side.
X_BINDING_FAULT = "x bound at 53 bits before the working precision is set"


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind "identity": eval_identity at the identity's registered strategy, or
    at strategy "direct" when route is "direct".
    kind "derivative": numeric_derivative_b(side_evaluator(...)) of one side
    of thm-1.1 at b = params["b"].
    """

    kind: str
    ident: str
    params: tuple               # sorted (name, literal) pairs
    digits: int
    route: str = "registered"
    side: str = ""
    known_fault: str = ""

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def label(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params)
        what = f"d/db {self.side}" if self.kind == "derivative" else self.route
        return f"{self.ident}[{args}]@{self.digits} {what}"


def identity(ident, digits=50, route="registered", known_fault="", **params):
    return Op("identity", ident, tuple(sorted(params.items())), digits, route,
              known_fault=known_fault)


def derivative(side, digits=30, **params):
    return Op("derivative", "thm-1.1", tuple(sorted(params.items())), digits,
              side=side)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: Op
    pass_budget_s: float        # run length given to one pass

    def passes(self, seconds: float) -> int:
        """Whole passes for a run of `seconds`; independent of the run's speed."""
        return max(1, int(seconds // self.pass_budget_s))

    def orders(self, seed: int, passes: int) -> list:
        """The operations of each pass, in an order drawn from the seed."""
        rng = random.Random(seed)
        return [rng.sample(self.ops, len(self.ops)) for _ in range(passes)]

    @property
    def kernel_dps(self) -> int:
        """The reference kernel's precision: the workload's usual working precision."""
        return statistics.mode(op.digits for op in self.ops) + 10


INTERIOR = Workload(
    "interior",
    (identity("thm-1.1", k="1", b="1/4", x="1/2"),
     identity("thm-1.1", k="2", b="1/2", x="1/2"),
     *(identity(i, k="1", x=x) for i in ("cor-1.2", "thm-1.4", "prop-3.1")
       for x in ("1/2", "-1/2")),
     identity("cor-1.2", k="1", x="1/10", known_fault=X_BINDING_FAULT),
     identity("cor-1.2", k="1", x="-1/3", known_fault=X_BINDING_FAULT)),
    warmup=identity("cor-1.2", k="1", x="1/4"),
    pass_budget_s=15.0,         # one pass takes about 22 s
)

UNIT_CIRCLE = Workload(
    "unit-circle",
    (*(identity("thm-1.1", k="1", b=b, x=x)
       for (x, b) in (("1", "1/4"), ("1", "1/2"), ("1", "3/4"),
                      ("-1", "1/2"), ("-1", "3/4"), ("i", "1/2"))),
     identity("thm-1.4", k="1", x="ru(3,1)"),
     identity("cor-1.2", k="1", x="ru(3,1)"),
     identity("cor-1.3", k="1", chi="chi3"),
     identity("cor-1.5-L", k="1", chi="chi4"),
     identity("thm-4.1", N="3", k="1", x="1"),
     identity("thm-4.4", N="3", k="1", x="1"),
     identity("gkz-even", N="3"),
     identity("gkz-odd", N="3"),
     identity("euler-sum", digits=100, l="5"),
     identity("ohno-zudilin", digits=100, l="5")),
    warmup=identity("euler-sum", digits=100, l="4"),
    pass_budget_s=15.0,         # one pass takes about 20 s
)

B_DERIVATIVE = Workload(
    "b-derivative",
    (derivative("lhs", k="1", x="1", b="1/2"),
     derivative("lhs", k="1", x="-1", b="1/2"),
     *(derivative("rhs", k=k, x=x, b=b) for b in ("1/2", "1")
       for k in ("1", "2") for x in ("1", "-1"))),
    warmup=identity("thm-1.1", digits=30, k="1", b="1/4", x="1"),
    pass_budget_s=7.5,          # one pass takes about 12 s
)

DIRECT_ORACLE = Workload(
    "direct-oracle",
    tuple(identity(i, route="direct", **p) for (i, p) in (
        ("thm-1.1", dict(k="1", b="1/4", x="1")),
        ("thm-1.1", dict(k="2", b="1/2", x="-1")),
        ("thm-1.1", dict(k="1", b="3/4", x="1/2")),
        ("cor-1.2", dict(k="1", x="1")),
        ("cor-1.2", dict(k="2", x="-1")),
        ("cor-1.2", dict(k="1", x="1/2")),
        ("thm-2.1", dict(s="3/2", b="1/4", x="1")),
        ("thm-2.1", dict(s="3/2", b="1/2", x="-1")),
        ("thm-2.1", dict(s="3/2", b="3/4", x="1/2")),
        ("thm-2.1", dict(s="2", b="1/2", x="1")))),
    warmup=identity("cor-1.2", route="direct", k="2", x="1/2"),
    pass_budget_s=7.5,          # one pass takes about 6 s
)

WORKLOADS = {w.name: w for w in (INTERIOR, UNIT_CIRCLE, B_DERIVATIVE, DIRECT_ORACLE)}
