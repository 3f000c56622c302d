"""Identity evaluation: parameter binding, strategies, reports, derivatives.

Weights specialize at the bound parameters (sin/cos of pi*b are exact at the
half-integers, so b=1 and b=1/2 kill their groups outright); group values
accumulate error bounds term by term, and the verdict is recomputed from the
stored fields on every access. A group's expanded term families are made
once per (group, env) for the process (reduction.STORE), as are the b-free
plans of its terms, so a side evaluated at a new b pays only for what
depends on b.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .registry import RegistryEntry, registry_get
from .specfun import (
    Character,
    DomainError,
    EvalResult,
    PrecisionContext,
    gauss_sum,
    polylog,
    result_sum,
)
from .termlang import (
    DoubleSumTerm,
    IdentitySpec,
    SingleSumTerm,
    Weight,
    expand_group,
    expr_eval,
)
from .reduction import ShapeError, XSpec, _frac_to_mp, _mp_b, eval_double_reduction, \
    eval_single_reduction, stored

STRATEGIES = ("auto", "reduction", "direct")

from .specfun import BUILTIN_CHARACTERS


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------

def parse_value(decl, raw):
    """Bind one CLI/battery value (string or python object) to a parameter."""
    kind = decl.kind
    if kind == "char":
        if isinstance(raw, Character):
            return raw
        if isinstance(raw, str) and raw in BUILTIN_CHARACTERS:
            return BUILTIN_CHARACTERS[raw]
        raise DomainError(f"unknown character {raw!r} for parameter {decl.name}")
    if kind in ("int",):
        v = _fraction(decl, raw)
        if v.denominator != 1:
            raise DomainError(f"{decl.name} must be an integer")
        if decl.minimum is not None and v < decl.minimum:
            raise DomainError(f"{decl.name} must be >= {decl.minimum}")
        if decl.odd and int(v) % 2 == 0:
            raise DomainError(f"{decl.name} must be odd")
        return v
    if kind == "real":
        v = _fraction(decl, raw)
        if decl.minimum is not None and v < decl.minimum:
            raise DomainError(f"{decl.name} must be >= {decl.minimum}")
        return v
    if kind == "b01":
        v = _fraction(decl, raw)
        if not (0 < v <= 1):
            raise DomainError(f"{decl.name} outside (0,1]")
        return v
    if kind == "unit":
        return parse_x(raw)
    if kind == "fixed":
        # exact roots such as -1 stay roots of unity, as parse_x gives them
        return parse_x(decl.fixed_value)
    raise DomainError(f"unhandled parameter kind {kind}")


def _fraction(decl, raw) -> Fraction:
    """A rational value; DomainError for a malformed literal such as 'abc' or '1/0'."""
    if isinstance(raw, Fraction):
        return raw
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {decl.name} value {raw!r}") from exc


def parse_x(raw) -> XSpec:
    """An x literal in its normal form (XSpec.number), at the precision in
    force: a rational 'p/q', a complex 'a+bi' with rational parts ('i', '-i'
    and '3i' among them), or the exact root 'ru(f,a)' = e^(2 pi i a/f); any
    other value is a number as it is."""
    if isinstance(raw, XSpec):
        return raw
    if not isinstance(raw, str):
        return XSpec.number(raw)
    s = raw.strip().replace(" ", "")
    if s.startswith("ru(") and s.endswith(")"):
        try:
            f, a = (int(v) for v in s[3:-1].split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse root of unity {raw!r}: "
                              "ru(f,a) needs two integers") from exc
        if f < 1:
            raise DomainError(f"root of unity {raw!r} needs an order f >= 1")
        return XSpec.root(f, a)
    if s.endswith("i"):
        body = s[:-1]
        for cut in range(len(body), -1, -1):
            re_part, im_part = body[:cut], body[cut:]
            if re_part and im_part[:1] not in ("+", "-"):
                continue
            try:
                rv = Fraction(re_part or 0)
                iv = Fraction(im_part + "1" if im_part in ("", "+", "-") else im_part)
            except (ValueError, ZeroDivisionError):
                continue
            return XSpec.number(mpc(_frac_to_mp(rv), _frac_to_mp(iv)))
        raise DomainError(f"cannot parse complex literal {raw!r}")
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse x value {raw!r}") from exc
    return XSpec.number(_frac_to_mp(q))


def bind_params(spec: IdentitySpec, assignments: dict):
    """Validate and split bindings into (exact env, numeric params) pair."""
    env = {}
    numeric = {}
    for decl in spec.params:
        if decl.kind == "fixed":
            val = parse_value(decl, None)
        elif decl.name not in assignments:
            raise DomainError(f"missing parameter {decl.name!r}")
        else:
            val = parse_value(decl, assignments[decl.name])
        if decl.kind in ("int", "real"):
            env[decl.name] = val
            numeric[decl.name] = val
        elif decl.kind == "b01":
            numeric["b"] = val
        elif decl.kind in ("unit", "fixed"):
            numeric["x"] = val
        elif decl.kind == "char":
            numeric[decl.name] = val
    extra = set(assignments) - {d.name for d in spec.params}
    if extra:
        raise DomainError(f"unknown parameter(s) {sorted(extra)} for {spec.id}")
    return env, numeric


@dataclass
class IdentityParams:
    """Bound parameter set for one evaluation point."""

    env: dict       # exact Fractions for exponent/weight expressions
    numeric: dict   # XSpec / Fraction b / Character slots
    display: dict   # original assignment strings for reports

    @staticmethod
    def bind(spec: IdentitySpec, assignments: dict) -> "IdentityParams":
        env, numeric = bind_params(spec, assignments)
        disp = {k: str(v) for k, v in assignments.items()}
        return IdentityParams(env, numeric, disp)


# ---------------------------------------------------------------------------
# Strategy dispatch
# ---------------------------------------------------------------------------

def _eval_term(reduce, term, params, ctx, strategy) -> EvalResult:
    """term by reduce under strategy "reduction", by the float64 oracle
    (direct.eval_term_direct) under "direct", and under "auto" by reduce,
    falling back to the oracle on a ShapeError."""
    if strategy != "direct":
        try:
            return reduce(term, params, ctx)
        except ShapeError:
            if strategy == "reduction":
                raise
    from .direct import eval_term_direct
    return eval_term_direct(term, params, ctx)


def eval_double(term: DoubleSumTerm, params: dict, ctx: PrecisionContext,
                strategy: str = "auto") -> EvalResult:
    return _eval_term(eval_double_reduction, term, params, ctx, strategy)


def eval_single(term: SingleSumTerm, params: dict, ctx: PrecisionContext,
                strategy: str = "auto") -> EvalResult:
    return _eval_term(eval_single_reduction, term, params, ctx, strategy)


def weight_value(weight: Weight, env, numeric, ctx):
    q = expr_eval(weight.coeff_expr, env)
    with ctx.workdps():
        val = _frac_to_mp(q)
        if weight.pi_pow:
            val = val * mp.pi ** weight.pi_pow
        if weight.trig:
            b = numeric.get("b")
            if b is None:
                raise DomainError("trig weight without a bound b")
            barg = _mp_b(b)
            val = val * (mp.sinpi(barg) if weight.trig == "sin" else mp.cospi(barg))
        return val


def eval_side(spec: IdentitySpec, side: str, p: IdentityParams, ctx: PrecisionContext,
              strategy: str = "auto") -> EvalResult:
    """Evaluate one side: weighted groups of expanded term families."""
    groups = spec.lhs if side == "lhs" else spec.rhs
    with ctx.workdps():
        total = EvalResult(mpf(0), mpf(0), "reduction")
        for group in groups:
            w = weight_value(group.weight, p.env, p.numeric, ctx)
            if w == 0:
                continue
            # keyed by the group's id: the entry holds the group, so no other
            # object takes that id while it is kept
            _, terms = stored(("terms", id(group), tuple(sorted(p.env.items()))),
                              lambda: (group, expand_group(group, p.env)))
            parts = []
            for term in terms:
                if isinstance(term, DoubleSumTerm):
                    parts.append(eval_double(term, p.numeric, ctx, strategy))
                else:
                    parts.append(eval_single(term, p.numeric, ctx, strategy))
            if parts:
                total = total + result_sum(parts).scale(w)
        return total


@dataclass
class IdentityReport:
    identity: str
    params: dict
    digits: int
    strategy: str
    lhs: EvalResult
    rhs: EvalResult
    tolerance: object
    elapsed_ms: float

    @property
    def residual(self):
        return abs(self.lhs.value - self.rhs.value)

    @property
    def bound(self):
        return self.lhs.abs_error_bound + self.rhs.abs_error_bound

    @property
    def passed(self):
        return self.residual <= max(self.bound, mpf(self.tolerance))

    def to_dict(self):
        with mp.workdps(self.digits):
            lv, rv = mpc(self.lhs.value), mpc(self.rhs.value)
            return {
                "identity": self.identity,
                "params": self.params,
                "digits": self.digits,
                "strategy": self.strategy,
                "lhs": {"re": mp.nstr(lv.real, 25), "im": mp.nstr(lv.imag, 25)},
                "rhs": {"re": mp.nstr(rv.real, 25), "im": mp.nstr(rv.imag, 25)},
                "residual": mp.nstr(self.residual, 8),
                "bound": mp.nstr(self.bound, 8),
                "pass": bool(self.passed),
                "elapsed_ms": round(self.elapsed_ms, 3),
            }


def eval_identity(spec_or_entry, assignments: dict, ctx: PrecisionContext,
                  strategy: str = "auto", tolerance=None) -> IdentityReport:
    if isinstance(spec_or_entry, RegistryEntry):
        entry = spec_or_entry
        spec = entry.spec
        tolerance = tolerance if tolerance is not None else mpf(entry.tolerance)
    else:
        spec = spec_or_entry
        tolerance = tolerance if tolerance is not None else mpf("1e-8")
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    with ctx.workdps():  # x literals such as 1/10 must round at working precision
        p = IdentityParams.bind(spec, assignments)
    start = time.perf_counter()
    lhs = eval_side(spec, "lhs", p, ctx, strategy)
    rhs = eval_side(spec, "rhs", p, ctx, strategy)
    elapsed = (time.perf_counter() - start) * 1000.0
    return IdentityReport(spec.id, dict(p.display), ctx.working_digits, strategy,
                          lhs, rhs, tolerance, elapsed)


# ---------------------------------------------------------------------------
# The singular-part closed form g(b) and numeric b-derivatives
# ---------------------------------------------------------------------------

def eval_g(b, k: int, x, ctx: PrecisionContext = None) -> EvalResult:
    """g(b) = cos(pi b)/(x(1-b)) Li_{k+1} + sin(pi b)/(pi x (1-b)^2) Li_{k+1}
              + k sin(pi b)/(pi x (1-b)) Li_{k+2}.

    With e = 1 - b, g = (Li_{k+1}/x) P(e) + (k Li_{k+2}/x) Q(e), where
    Q = sinc(pi e) and P = (Q - cos(pi e))/e (P = 0, Q = 1 at e = 0). P
    loses about 2 log10(1/|e|) digits to cancellation near b = 1, so it is
    formed with that many more.

    Both 1/(1-b)-type coefficients multiply Li_{k+1}; that choice is the one
    whose Taylor expansion reproduces the value/derivative triple at b=1
    (k/x Li_{k+2}, -pi^2/(3x) Li_{k+1}, -k pi^2/(3x) Li_{k+2}), which the
    derivative tests pin down numerically.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        xs = parse_x(x)
        if xs.kind == "zero":
            raise DomainError("g(b) needs x != 0")
        xv = xs.numeric(ctx)
        bv = b if not isinstance(b, Fraction) else _frac_to_mp(b)
        bv = mpc(bv) if (hasattr(bv, "imag") and bv.imag) else mpf(bv)
        li1 = polylog(k + 1, xv, ctx, x_root=xs.root_pair)
        li2 = polylog(k + 2, xv, ctx, x_root=xs.root_pair)
        e = 1 - bv
        P, Q = mpf(0), mpf(1)
        if e:
            with mp.extradps(max(0, int(2 * mp.log10(1 / abs(e)))) + 5):
                Q = mp.sincpi(e)
                P = (Q - mp.cospi(e)) / e
        val = (li1.value / xv) * P + (k * li2.value / xv) * Q
        bound = abs(P / xv) * li1.abs_error_bound + abs(k * Q / xv) * li2.abs_error_bound \
            + abs(val) * ctx.eps * 4
        return EvalResult(val, bound, "closed_form")


def g_closed_derivatives(k: int, x, ctx: PrecisionContext = None):
    """(g(1), g'(1), g''(1)) closed forms."""
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        xs = parse_x(x)
        xv = xs.numeric(ctx)
        li1 = polylog(k + 1, xv, ctx, x_root=xs.root_pair)
        li2 = polylog(k + 2, xv, ctx, x_root=xs.root_pair)
        g0 = li2.scale(mpf(k) / xv)
        g1 = li1.scale(-mp.pi ** 2 / (3 * xv))
        g2 = li2.scale(-k * mp.pi ** 2 / (3 * xv))
        return g0, g1, g2


def numeric_derivative_b(func, order: int, b0, ctx: PrecisionContext,
                         h=None) -> EvalResult:
    """Central differences in b with Richardson over h, h/2, h/4.

    func(b) must return an EvalResult; the returned bound is the spread of the
    last two extrapolation levels x4 plus the propagated evaluation bounds.
    A first derivative evaluates func 6 times, a second 7: the centre once.
    """
    if order not in (1, 2):
        raise DomainError("derivative order must be 1 or 2")
    with ctx.workdps():
        h = mpf(h) if h is not None else mpf("1e-5")
        b0v = _mp_b(b0)
        f0 = func(b0v) if order == 2 else None   # the centre, shared by every level

        def diff(hh):
            fp = func(b0v + hh)
            fm = func(b0v - hh)
            if order == 1:
                val = (fp.value - fm.value) / (2 * hh)
                bnd = (fp.abs_error_bound + fm.abs_error_bound) / (2 * hh)
            else:
                val = (fp.value - 2 * f0.value + fm.value) / hh ** 2
                bnd = (fp.abs_error_bound + 2 * f0.abs_error_bound
                       + fm.abs_error_bound) / hh ** 2
            return val, bnd

        d1, b1 = diff(h)
        d2, b2 = diff(h / 2)
        d3, b3 = diff(h / 4)
        r1 = (4 * d2 - d1) / 3
        r2 = (4 * d3 - d2) / 3
        rr = (16 * r2 - r1) / 15
        bound = 4 * abs(r2 - rr) + b3 * 2
        return EvalResult(rr, bound, "direct_tail")


def side_evaluator(spec: IdentitySpec, side: str, assignments: dict,
                   ctx: PrecisionContext, strategy: str = "auto"):
    """Returns b -> EvalResult of one side, for derivative stencils.

    Sides containing m>b ranges live on b in (0,1); single-sum-only sides are
    analytic across b=1 and may be probed on a two-sided stencil there.

    The parameters are bound once. Everything the points make that
    outlives a call lives per process, in reduction.STORE (bounded; the
    entries that depend on b are never read again, so they are the first
    to go): the tail rows, expansions, base sums and lattice tables that do
    not depend on b (those at phi = 0, an integer tail row) are made once
    per process at ctx, and so are the expanded families and the term plans, so each point
    computes only its shifts, what b's value decides, its inner zeta/psi
    values, the tables at its own fractional shift and the shapes new at
    its b.
    """
    groups = spec.lhs if side == "lhs" else spec.rhs
    singles_only = all(isinstance(f.body, SingleSumTerm)
                       for g in groups for f in g.families)
    with ctx.workdps():
        p = IdentityParams.bind(spec, assignments)

    def func(bval):
        if not singles_only and not (0 < bval < 1):
            raise DomainError("stencil leaves (0,1) on a side with m>b ranges")
        at_b = IdentityParams(p.env, {**p.numeric, "b": bval}, p.display)
        return eval_side(spec, side, at_b, ctx, strategy)

    return func


# ---------------------------------------------------------------------------
# Gauss-sum averaging consistency (character identities from x-identities)
# ---------------------------------------------------------------------------

def gauss_averaged_sides(x_identity: str, chi: Character, k: int,
                         ctx: PrecisionContext, strategy: str = "auto"):
    """Average the x-identity over x = e^{2 pi i a/f} with chi-bar weights.

    Returns (lhs, rhs) EvalResults that must match the corresponding
    character identity within bounds, by the Gauss-sum inversion formula.
    """
    entry = registry_get(x_identity)
    with ctx.workdps():
        bar = chi.conjugate()
        tau = gauss_sum(bar, ctx)
        f = chi.modulus
        lhs_parts, rhs_parts = [], []
        for a in range(1, f + 1):
            v = bar(a)
            if v == 0:
                continue
            p = IdentityParams.bind(entry.spec, {"k": k, "x": XSpec.root(f, a)})
            w = mpc(v)
            lhs_parts.append(eval_side(entry.spec, "lhs", p, ctx, strategy).scale(w))
            rhs_parts.append(eval_side(entry.spec, "rhs", p, ctx, strategy).scale(w))
        inv = 1 / tau.value
        lhs = result_sum(lhs_parts).scale(inv)
        rhs = result_sum(rhs_parts).scale(inv)
        return lhs, rhs
