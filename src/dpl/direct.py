"""Direct float64 oracle for term evaluation.

Numerically independent of the closed-form reduction path: sums are
truncated in each index and corrected with Euler-Maclaurin terms whose
integrals come from exp-substituted Gauss-Laguerre quadrature. Everything runs
in numpy float64/complex128, so values carry ~1e-11 absolute accuracy -- the
point is a cross-check of the high-precision numerics, not sharp bounds.
Residue classes make oscillating phases constant; the classes, their weights
and their phases come from the exact reduction.ClassPlan shared with the
reduction path (and checked pointwise by its own test): a single sum's
modulus plan.mod["n"], a double sum's grid plan.grid().
|x| < 1 phases truncate geometrically. Bounds are correction-size estimates
plus a roundoff floor and are tagged direct_tail; x = 0 is the exact finite
sum of the reduction path.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mpc, mpf

from .specfun import DomainError, EvalResult, PrecisionContext
from .termlang import DoubleSumTerm, SingleSumTerm
from .reduction import ClassPlan, EvalCache, ShapeError, XSpec, _eval_x_zero, _exp_value

_TCUT = 2400
_BOUND_FLOOR = 1e-10


def _lag_nodes(n):
    x, w = np.polynomial.laguerre.laggauss(n)
    return x, w


_LAG32 = _lag_nodes(32)
_LAG48 = _lag_nodes(48)


def _x_complex(x: XSpec) -> complex:
    if x.kind == "ru":
        return complex(np.exp(2j * np.pi * x.a / x.f))
    return complex(x.numeric(None))


class _ProductFactors:
    """prod_i (base0_i + sm_i*t + sn_i*u)^(-p_i) on numpy grids."""

    def __init__(self):
        self.items = []  # (base0, sm, sn, p)

    def add(self, base0, sm, sn, p):
        self.items.append((float(base0), float(sm), float(sn), float(p)))

    def value(self, t, u):
        out = 1.0
        for (b0, sm, sn, p) in self.items:
            out = out * (b0 + sm * t + sn * u) ** (-p)
        return out

    def log_derivs_t(self, t, u):
        """(L', L'', L''') of log value with respect to t."""
        l1 = 0.0
        l2 = 0.0
        l3 = 0.0
        for (b0, sm, sn, p) in self.items:
            if sm == 0:
                continue
            base = b0 + sm * t + sn * u
            l1 = l1 - p * sm / base
            l2 = l2 + p * sm ** 2 / base ** 2
            l3 = l3 - 2 * p * sm ** 3 / base ** 3
        return l1, l2, l3


def _em_tail_t(pf: _ProductFactors, Tcut, u, lag):
    """sum_{t>=Tcut} pf(t,u) by integral + EM corrections, vectorized in u."""
    nodes, weights = lag
    tv = Tcut * np.exp(nodes)
    # integral: sum w_i e^{x_i} Tcut ... with f evaluated at Tcut e^{x_i}
    if np.ndim(u) == 0:
        vals = pf.value(tv, u)
        integral = np.sum(weights * np.exp(2 * nodes) * vals * Tcut)
    else:
        vals = pf.value(tv[:, None], u[None, :])
        integral = np.sum(weights[:, None] * np.exp(2 * nodes)[:, None] * vals * Tcut, axis=0)
    f0 = pf.value(Tcut, u)
    l1, l2, l3 = pf.log_derivs_t(Tcut, u)
    f1 = f0 * l1
    f3 = f0 * (l3 + 3 * l2 * l1 + l1 ** 3)
    return integral + f0 / 2 - f1 / 12 + f3 / 720, np.abs(f3 / 720)


def _geom_cutoff(r, lam):
    if r <= 0:
        return 2
    return max(8, int(math.ceil(40.0 * math.log(10) / (lam * (-math.log(r))))) + 2)


def eval_term_direct(term, params, ctx: PrecisionContext) -> EvalResult:
    if isinstance(term, SingleSumTerm):
        return _single_direct(term, params, ctx)
    return _double_direct(term, params, ctx)


# ---------------------------------------------------------------------------
# Double sums
# ---------------------------------------------------------------------------

def _double_direct(term: DoubleSumTerm, params, ctx) -> EvalResult:
    xsel = term.xsel
    plan = ClassPlan(term, params)
    x = plan.x
    if x.kind == "zero":
        return _eval_x_zero(term, plan, params, ctx, EvalCache(ctx))
    if x.kind == "num" and abs(x.value) >= 1:
        raise ShapeError("boundary x that is not a root of unity")
    xc = _x_complex(x)
    bf = float(plan.b) if plan.b is not None else 0.0
    lam_m, lam_n = plan.grid()
    fvals = [(f.combo, float(f.shift.q0) + f.shift.q1 * bf, float(_exp_value(f)))
             for f in term.factors]

    geom_m = x.kind == "num" and xsel.kind in ("xm", "xmn")
    geom_n = x.kind == "num" and xsel.kind in ("xn", "xmn")
    r_abs = abs(xc) if x.kind == "num" else 1.0
    total = 0.0 + 0j
    err = 0.0
    coeff = float(term.coeff)
    for rm in range(lam_m):
        for rn in range(lam_n):
            w = plan.weight(rm, rn)
            if w is None:
                continue
            const = complex(w[0])
            if x.kind != "one":
                const *= xc ** plan.xexp(rm, rn)
            t0 = math.ceil((plan.m0 - rm) / lam_m)
            u0 = math.ceil((plan.n0 - rn) / lam_n)
            pf = _ProductFactors()
            for (combo, g, p) in fvals:
                if combo == "m":
                    pf.add(rm + g, lam_m, 0.0, p)
                elif combo == "n":
                    pf.add(rn + g, 0.0, lam_n, p)
                else:
                    pf.add(rm + rn + g, lam_m, lam_n, p)
            Xm = xc ** lam_m if geom_m else None
            Xn = xc ** lam_n if geom_n else None
            v, e = _class_sum(pf, t0, u0, Xm, Xn, lam_m, lam_n, r_abs)
            total += const * v
            err += abs(const) * e
    total *= coeff
    err = abs(coeff) * err + _BOUND_FLOOR * (1.0 + abs(total))
    val = mpc(total) if abs(total.imag) > 0 else mpf(total.real)
    return EvalResult(val, mpf(err), "direct_tail")


def _class_sum(pf, t0, u0, Xm, Xn, lam_m, lam_n, r_abs):
    """One residue class: vectorized block plus tails where phases allow."""
    Tm = _geom_cutoff(r_abs, lam_m) if Xm is not None else max(96, _TCUT // lam_m)
    Tn = _geom_cutoff(r_abs, lam_n) if Xn is not None else max(96, _TCUT // lam_n)
    t = np.arange(t0, t0 + Tm, dtype=float)
    u = np.arange(u0, u0 + Tn, dtype=float)
    err = 0.0

    # direct rectangle, chunked along u
    block = 0.0 + 0j
    chunk = max(1, min(Tn, 8 * 10 ** 6 // max(Tm, 1)))
    inner_direct = np.zeros(Tn, dtype=complex)
    phase_t = Xm ** t if Xm is not None else None
    for lo in range(0, Tn, chunk):
        uu = u[lo:lo + chunk]
        vals = pf.value(t[:, None], uu[None, :])
        if phase_t is not None:
            vals = vals * phase_t[:, None]
        inner_direct[lo:lo + chunk] = vals.sum(axis=0)
    # inner tail over t (only without a geometric m-phase)
    if Xm is None:
        tail48, nxt = _em_tail_t(pf, float(t0 + Tm), u, _LAG48)
        tail32, _ = _em_tail_t(pf, float(t0 + Tm), u, _LAG32)
        inner_total = inner_direct + tail48
        err += float(np.sum(np.abs(tail48 - tail32))) + float(np.sum(np.abs(nxt)))
    else:
        inner_total = inner_direct
        err += abs(Xm) ** (Tm + t0) / (1 - abs(Xm)) * float(np.max(np.abs(pf.value(t0 + Tm, u0))))

    phase_u = Xn ** u if Xn is not None else np.ones_like(u)
    block = np.sum(inner_total * phase_u)

    # outer tail over u
    if Xn is None:
        def F(uv):
            uv = np.atleast_1d(uv)
            td = pf.value(t[:, None], uv[None, :])
            if phase_t is not None:
                td = td * phase_t[:, None]
            s = td.sum(axis=0)
            if Xm is None:
                tl, _ = _em_tail_t(pf, float(t0 + Tm), uv, _LAG48)
                s = s + tl
            return s

        U = float(u0 + Tn)
        nodes48, w48 = _LAG48
        nodes32, w32 = _LAG32
        f48 = F(U * np.exp(nodes48))
        f32 = F(U * np.exp(nodes32))
        i48 = np.sum(w48 * np.exp(2 * nodes48) * f48 * U)
        i32 = np.sum(w32 * np.exp(2 * nodes32) * f32 * U)
        f0 = F(U)[0]
        # centered five-point first derivative, h = 1/2
        sten = F(np.array([U - 1.0, U - 0.5, U + 0.5, U + 1.0]))
        f1 = (sten[0] - 8 * sten[1] + 8 * sten[2] - sten[3]) / 6.0
        tail = i48 + f0 / 2 - f1 / 12
        block = block + tail
        err += abs(i48 - i32) * 2 + abs(f1) * 1e-4 + abs(f0) * 1e-8
    else:
        last = abs(inner_total[-1])
        err += abs(Xn) ** (Tn + u0) / (1 - abs(Xn)) * last * 2

    return block, err


# ---------------------------------------------------------------------------
# Single sums
# ---------------------------------------------------------------------------

def _single_direct(term: SingleSumTerm, params, ctx) -> EvalResult:
    plan = ClassPlan(term, params)
    x = plan.x
    if x.kind == "zero":
        return _eval_x_zero(term, plan, params, ctx, EvalCache(ctx))
    xc = _x_complex(x)
    bf = float(plan.b) if plan.b is not None else 0.0
    e = float(_exp_value(term.factor))
    gamma = float(term.factor.shift.q0) + term.factor.shift.q1 * bf
    lam = plan.mod["n"]

    total = 0.0 + 0j
    err = 0.0
    for rr in range(lam):
        w = plan.weight(rr)
        if w is None:
            continue
        const = complex(term.coeff)
        if w[1] is not None:
            const /= math.sin(math.pi * w[1].numerator / w[1].denominator)
        const *= complex(w[0])
        t0 = math.ceil((plan.n0 - rr) / lam)
        if x.kind != "one":
            const *= xc ** plan.xexp(rr)
        pf = _ProductFactors()
        pf.add(rr + gamma, lam, 0.0, e)
        if x.kind == "num" and term.xsel.kind == "xn":
            X = xc ** lam
            T = _geom_cutoff(abs(xc), lam)
            t = np.arange(t0, t0 + T, dtype=float)
            vals = pf.value(t, 0.0) * X ** t
            total += const * np.sum(vals)
            err += abs(const) * abs(X) ** (t0 + T) / (1 - abs(X)) * abs(pf.value(t0 + T, 0.0))
        else:
            if e <= 1:
                raise DomainError("divergent single sum at x on the unit circle")
            T = max(128, _TCUT // lam)
            t = np.arange(t0, t0 + T, dtype=float)
            vals = pf.value(t, 0.0)
            s = np.sum(vals)
            tail48, nxt = _em_tail_t(pf, float(t0 + T), 0.0, _LAG48)
            tail32, _ = _em_tail_t(pf, float(t0 + T), 0.0, _LAG32)
            total += const * (s + tail48)
            err += abs(const) * (abs(tail48 - tail32) + abs(nxt))
    err += _BOUND_FLOOR * (1.0 + abs(total))
    val = mpc(total) if abs(total.imag) > 0 else mpf(total.real)
    return EvalResult(val, mpf(err), "direct_tail")
