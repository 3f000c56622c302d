"""Side-by-side fingerprint of two dpl checkouts over the registry batteries.

The changed checkout is the one holding this script. For the first 3
battery points of every registry identity, each checkout's own src/ is run
in a subprocess that evaluates the identity at 50 digits with its
registered strategy and records, for each side, its value (to 20 digits
past the working ones), its error bound and its method, and the identity's
verdict, and again with the float64 `direct` strategy on every side. The
same subprocess evaluates a fixed list of bare terms (TERMS)
with the reduction strategy: they reach paths no battery point does, such
as the inner sums at x = 0 (eval_inner_closed) and the other sums at
x = 0, geometric outer sums, a
tail start moved far out, x^(m+n) diagonals, outer atoms whose powers
merge, and lattice tables read by 12 classes, from below 0, at two shifts
and at a fractional exponent under the geometric phase. It also takes, at DERIVATIVE_DIGITS, the first b-derivatives of
thm-1.1 sides that the benchmark's `b-derivative` workload takes
(DERIVATIVES: numeric_derivative_b through side_evaluator), each with its
value, bound and method. Usage:

    python3 tools/fingerprint.py --parent ../parent --out fingerprint.json

The changed checkout also evaluates every side and term at DIGITS +
REFERENCE_EXTRA digits, with the same strategy, as a reference for its own
bounds: a bound too tight in both checkouts passes the comparison of the
two, but not this check. A side summed in float64 (`direct`, where `auto`
falls back to it) is the same sum at any precision, so it passes this
check trivially. The derivatives carry `direct_tail` bounds (a Richardson
spread), so they are compared with the parent only.

The output holds both checkouts' records, the reference records and a
summary, for the identity sides, under "direct" for the identity sides of
the `direct` strategy, under "terms" for the bare terms and under
"derivatives" for the b-derivatives: how many are
bit-identical in value, bound and method; the worst relative change in
value; the worst bound ratio (change over parent, farthest from 1); every
point whose verdict changed; and, against the reference, the
worst error/bound ratio, every side whose error exceeds its bound and every
point that evaluated at one of the two precisions but raised at the other.
The script exits 1, after writing the output, when any side, term or
derivative moved by more than the sum of its two bounds or evaluated on one
checkout but raised on the other; when a side or term is farther from the
reference than its bound, or evaluated at one precision only; or when a `direct` side moved by more than
DIRECT_VALUE_TOL * (1 + |v|) in value or by more than DIRECT_BOUND_TOL
relative in its bound, or changed its method, or a `direct` verdict changed:
the float64 sums of the two checkouts are the same sums, up to roundoff.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from mpmath import mp, mpc, mpf

ROOT = Path(__file__).resolve().parents[1]   # the changed checkout
POINTS = 3
DIGITS = 50
REFERENCE_EXTRA = 30
DIRECT_VALUE_TOL = 1e-12
DIRECT_BOUND_TOL = 1e-6
# Bare terms and their parameters (an x literal, a builtin character and b).
TERMS = [
    # the inner sums at x = 0 (tests/test_evaluator.py, X_ZERO_INNER_CASES)
    ("sum(m>=1,n>=1) chi(n) * x^(n-1) / (m^2 * (m+n)^2)", {"x": "0", "chi": "chi4"}),
    ("sum(m>=1,n>=1; m=n mod 3) x^(n-1) / (m^2 * (m+n)^2)", {"x": "0"}),
    ("sum(m>=1,n>=1) chi(m) * x^(n-2) / (m * (m+n)^2)", {"x": "0", "chi": "chi3"}),
    ("sum(m>=1,n>=1) chi(m+n) * x^(n-1) / (m^2 * (m+n)^2)", {"x": "0", "chi": "chi3"}),
    # the finite sums at x = 0 of a single sum (1/4) and of an x^(m+n) term (1/3)
    ("single(n>=1) x^(n-2) / (n^2)", {"x": "0"}),
    ("sum(m>=1,n>=1) x^(m+n-3) / (m * n * (m+n))", {"x": "0"}),
    # geometric outer sums
    ("single(n>=1) x^n / (n^2)", {"x": "1/2"}),
    ("sum(m>=1,n>=1) x^n / (m*(m+n)^3)", {"x": "1/2"}),
    # outer shifts 39 apart: the tail starts past the default cut
    ("sum(m>=1,n>=1) x^n / (m * (n+40)^2 * (m+n)^2)", {"x": "1"}),
    # x^(m+n) diagonals: one-sided with a b-shift, a congruence on the
    # circle, and shifted factors that change sign (W = 0 at m + n = 2)
    ("sum(m>=1,n>=0) x^(m+n) / ((n+b) * (m+n+b)^2)", {"x": "1/2", "b": "1/4"}),
    ("sum(m>=1,n>=1; m=-2*n mod 3) x^(m+n) / (m * n * (m+n)^2)", {"x": "i"}),
    ("sum(m>=1,n>=1) x^(m+n) / ((m-5/3) * (n-1/3) * (m+n)^2)", {"x": "-1/3"}),
    # outer atoms whose two powers share a shift and merge into one
    ("sum(m>=1,n>=1) x^n / (m * n^(3/2) * (m+n))", {"x": "i"}),
    ("sum(m>=1,n>=1) x^n / (m * n^(3/2) * (m+n))", {"x": "1/2"}),
    # lattice tables of the direct blocks: the 12 classes of ru(12,5) read
    # one table; an outer lattice that starts below 0; two powers at unequal
    # shifts; a fractional power under the geometric phase
    ("sum(m>=1,n>=1) x^n / (m * (m+n)^2)", {"x": "ru(12,5)"}),
    ("sum(m>=1,n>=1) x^n / (m * (n-5/3)^2 * (m+n)^2)", {"x": "-1"}),
    ("sum(m>=1,n>=1) x^n / (m * (n+1/3) * (m+n+1/2)^2)", {"x": "1"}),
    ("single(n>=1) x^n / ((n+1/3)^(5/2))", {"x": "1/2"}),
]
# The b-derivative workload's points: (side, thm-1.1 parameters), at
# DERIVATIVE_DIGITS with the benchmark's 10 guard digits.
DERIVATIVE_DIGITS = 30
DERIVATIVES = [("lhs", {"k": "1", "x": x, "b": "1/2"}) for x in ("1", "-1")] + [
    ("rhs", {"k": k, "x": x, "b": b}) for b in ("1/2", "1") for k in ("1", "2")
    for x in ("1", "-1")]

# Runs inside a checkout's own src/ at {digits}; prints one JSON object of records.
WORKER = """
import json
from fractions import Fraction
from mpmath import mp
from dpl.dsl import parse_term
from dpl.evaluator import (eval_double, eval_identity, eval_single, numeric_derivative_b,
                           parse_x, side_evaluator)
from dpl.registry import registry_get, registry_ids
from dpl.specfun import BUILTIN_CHARACTERS, PrecisionContext
from dpl.termlang import DoubleSumTerm, bind_term

ctx = PrecisionContext(working_digits={digits})
out = []


def side(r):
    with mp.workdps({digits} + 30):
        v = mp.mpc(r.value)
        return {{"value": [mp.nstr(v.real, {digits} + 20), mp.nstr(v.imag, {digits} + 20)],
                 "bound": mp.nstr(r.abs_error_bound, {digits} + 20), "method": r.method}}


for ident in registry_ids():
    entry = registry_get(ident)
    for assignment in entry.battery[:{points}]:
        rec = {{"id": ident, "params": assignment, "strategy": entry.strategy}}
        try:
            rep = eval_identity(entry, assignment, ctx, strategy=entry.strategy)
        except Exception as exc:
            rec["error"] = f"{{type(exc).__name__}}: {{exc}}"
        else:
            with mp.workdps({digits} + 30):
                rec["passed"] = bool(rep.passed)
            rec["lhs"], rec["rhs"] = side(rep.lhs), side(rep.rhs)
        out.append(rec)
        rec = {{"id": ident, "params": assignment, "strategy": "direct", "oracle": True}}
        try:
            rep = eval_identity(entry, assignment, ctx, strategy="direct")
        except Exception as exc:
            rec["error"] = f"{{type(exc).__name__}}: {{exc}}"
        else:
            with mp.workdps({digits} + 30):
                rec["passed"] = bool(rep.passed)
            rec["lhs"], rec["rhs"] = side(rep.lhs), side(rep.rhs)
        out.append(rec)
for text, given in {terms!r}:
    rec = {{"term": text, "params": given}}
    try:
        with ctx.workdps():
            params = {{"x": parse_x(given["x"])}}
        if "chi" in given:
            params["chi"] = BUILTIN_CHARACTERS[given["chi"]]
        if "b" in given:
            params["b"] = Fraction(given["b"])
        term = bind_term(parse_term(text), {{}})
        evaluate = eval_double if isinstance(term, DoubleSumTerm) else eval_single
        rec["sum"] = side(evaluate(term, params, ctx, "reduction"))
    except Exception as exc:
        rec["error"] = f"{{type(exc).__name__}}: {{exc}}"
    out.append(rec)
dctx = PrecisionContext(working_digits={dd}, guard_digits=10, output_digits={dd} - 10)
entry = registry_get("thm-1.1")
for which, given in {derivatives!r}:
    rec = {{"id": f"thm-1.1 d/db {{which}}", "params": given, "derivative": True}}
    try:
        func = side_evaluator(entry.spec, which, given, dctx, strategy=entry.strategy)
        rec["sum"] = side(numeric_derivative_b(func, 1, Fraction(given["b"]), dctx))
    except Exception as exc:
        rec["error"] = f"{{type(exc).__name__}}: {{exc}}"
    out.append(rec)
print(json.dumps(out))
"""


def records(checkout: Path, digits: int = DIGITS, derivatives: bool = True) -> list:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    worker = WORKER.format(digits=digits, points=POINTS, terms=TERMS, dd=DERIVATIVE_DIGITS,
                           derivatives=DERIVATIVES if derivatives else [])
    proc = subprocess.run([sys.executable, "-c", worker], cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def compare(parent: list, change: list, strict: bool = False) -> tuple[dict, bool]:
    """The summary of two checkouts' records, and whether any side moved
    beyond its bounds (or evaluated on one checkout only). strict, for the
    float64 `direct` sides, also fails a value or bound that moved past the
    DIRECT tolerances, a changed method and a changed verdict."""
    identical = sides = 0
    worst_rel, worst_ratio = mpf(0), mpf(1)
    verdicts, moved = [], []
    for p, c in zip(parent, change, strict=True):
        point = f"{p.get('id', p.get('term'))} {p['params']}"
        if ("error" in p) != ("error" in c):
            moved.append(f"{point}: {p.get('error', 'evaluates')} -> {c.get('error', 'evaluates')}")
            continue
        if "error" in p:
            continue
        if p.get("passed") != c.get("passed"):
            verdicts.append(f"{point}: passed {p['passed']} -> {c['passed']}")
        for side in ("lhs", "rhs", "sum"):
            if side not in p:
                continue
            ps, cs = p[side], c[side]
            sides += 1
            identical += ps == cs
            vp, vc = (mpc(*map(mpf, s["value"])) for s in (ps, cs))
            bp, bc = mpf(ps["bound"]), mpf(cs["bound"])
            diff = abs(vc - vp)
            if diff:
                worst_rel = max(worst_rel, diff / abs(vp) if vp else mpf("inf"))
            if bp and bc and abs(mp.log(bc / bp)) > abs(mp.log(worst_ratio)):
                worst_ratio = bc / bp
            if diff > bp + bc:
                moved.append(f"{point} {side}: moved {mp.nstr(diff, 3)} "
                             f"> bounds {mp.nstr(bp + bc, 3)}")
            if not strict:
                continue
            if diff > DIRECT_VALUE_TOL * (1 + abs(vp)):
                moved.append(f"{point} {side}: moved {mp.nstr(diff, 3)} > "
                             f"{DIRECT_VALUE_TOL:g} (1 + |v|)")
            if abs(bc - bp) > DIRECT_BOUND_TOL * bp:
                moved.append(f"{point} {side}: bound {mp.nstr(bp, 8)} -> {mp.nstr(bc, 8)}")
            if ps["method"] != cs["method"]:
                moved.append(f"{point} {side}: method {ps['method']} -> {cs['method']}")
    if strict:
        moved += verdicts
    summary = {"points": len(parent), "sides": sides, "bit_identical": identical,
               "worst_relative_value_change": mp.nstr(worst_rel, 3),
               "worst_bound_ratio": mp.nstr(worst_ratio, 6),
               "verdict_changes": verdicts, "moved_beyond_bounds": moved}
    return summary, bool(moved)


def reference_check(change: list, reference: list) -> tuple[dict, bool]:
    """The worst error/bound ratio of the change's sides against the same
    sides at more digits, and whether any error exceeds its bound or any
    point evaluated at one of the two precisions only."""
    worst, over, one_sided, sides = mpf(0), [], [], 0
    for c, r in zip(change, reference, strict=True):
        if ("error" in c) != ("error" in r):
            one_sided.append(f"{c.get('id', c.get('term'))} {c['params']}: "
                             f"{c.get('error', 'evaluates')} -> reference "
                             f"{r.get('error', 'evaluates')}")
            continue
        for side in ("lhs", "rhs", "sum"):
            if side not in c or side not in r:
                continue
            sides += 1
            vc, vr = (mpc(*map(mpf, s[side]["value"])) for s in (c, r))
            bound, ref_bound = mpf(c[side]["bound"]), mpf(r[side]["bound"])
            err = abs(vc - vr)
            ratio = err / bound if bound else (mpf(0) if not err else mpf("inf"))
            worst = max(worst, ratio)
            if err > bound + ref_bound:
                over.append(f"{c.get('id', c.get('term'))} {c['params']} {side}: error "
                            f"{mp.nstr(err, 3)} > bound {mp.nstr(bound, 3)}")
    return {"digits": DIGITS + REFERENCE_EXTRA, "sides": sides,
            "worst_error_bound_ratio": mp.nstr(worst, 3), "error_above_bound": over,
            "evaluated_at_one_precision": one_sided}, bool(over or one_sided)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    recs = {"parent": records(args.parent.resolve()), "change": records(ROOT)}
    reference = records(ROOT, DIGITS + REFERENCE_EXTRA, derivatives=False)

    def group(r):
        return ("term" if "term" in r else "direct" if "oracle" in r else
                "derivative" if "derivative" in r else "identity")

    def select(name):
        return [[r for r in recs[k] if group(r) == name] for k in ("parent", "change")]

    with mp.workdps(DIGITS + REFERENCE_EXTRA + 30):
        summary, failed = compare(*select("identity"))
        summary["direct"], failed_direct = compare(*select("direct"), strict=True)
        summary["terms"], failed_terms = compare(*select("term"))
        summary["derivatives"], failed_deriv = compare(*select("derivative"))
        summary["reference"], failed_ref = reference_check(
            [r for r in recs["change"] if group(r) != "derivative"], reference)
    failed = failed or failed_direct or failed_terms or failed_deriv or failed_ref
    args.out.write_text(json.dumps({"summary": summary, **recs, "reference": reference},
                                   indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
