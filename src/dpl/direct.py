"""Direct float64 oracle for term evaluation.

Numerically independent of the closed-form reduction path: sums are
truncated in each index and corrected with Euler-Maclaurin terms whose
integrals come from exp-substituted Gauss-Laguerre quadrature. Everything runs
in numpy float64/complex128, so values carry ~1e-12 absolute accuracy -- the
point is a cross-check of the high-precision numerics, not sharp bounds.
The cut-off is short and the tail rules fine: at x = 1 the error comes from
the tail quadrature, and falls like 1/T in the cut-off but tenfold from the
48- to the 64-node rule.
Residue classes make oscillating phases constant; the classes, their weights
and their phases come from the exact reduction.ClassPlan shared with the
reduction path (and checked pointwise by its own test): a single sum's
modulus plan.mod["n"], a double sum's grid plan.grid().
Each factor of a class is raised to its power on the axis it depends on:
an m-factor on t, an n-factor on u, an (m+n)-factor on lam_m*t + lam_n*u.
The direct rectangle of a double sum is then, phase by phase of the
(m+n)-factors, a correlation of them with the m-factors, with memory linear
in the cut-off; only the (m+n)-factors at the quadrature nodes of a tail take
a 2-D grid, which each factor builds once and powers in place.
|x| < 1 phases truncate geometrically, below the cap of
specfun.geometric_length. On the unit circle the classes of a
single sum share one Euler-Maclaurin cut, so their tails combine into the
tail of one sum; at exponent 1 that sum converges when the class weights
cancel (below 1 the class tails cancel past float64, and DomainError says
so). Bounds are correction-size estimates plus a roundoff floor and are
tagged direct_tail; x = 0 is the exact finite sum of the reduction path.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mpc, mpf

from .specfun import DomainError, EvalResult, PrecisionContext, geometric_length
from .termlang import DoubleSumTerm, SingleSumTerm
from .reduction import ClassPlan, XSpec, _eval_x_zero, _exp_value

_TCUT = 600
_BOUND_FLOOR = 1e-10


def _laguerre_rules(*sizes):
    """Gauss-Laguerre rules for int_T^oo f = T int_0^oo e^-x e^2x f(T e^x) dx,
    stacked: the nodes e^x of every rule in one vector, and a weight matrix
    with one row per rule, holding its w e^2x at its own nodes."""
    rules = [np.polynomial.laguerre.laggauss(n) for n in sizes]
    ex = np.exp(np.concatenate([x for (x, _) in rules]))
    weights = np.zeros((len(sizes), len(ex)))
    start = 0
    for row, (x, w) in enumerate(rules):
        weights[row, start:start + len(x)] = w * np.exp(2 * x)
        start += len(x)
    return ex, weights


_LAG = _laguerre_rules(64, 48)    # the rule, and a coarser one for its error
_LAG64 = (_LAG[0][:64], _LAG[1][:1, :64])   # the rule alone


def _x_complex(x: XSpec) -> complex:
    if x.kind == "ru":
        return complex(np.exp(2j * np.pi * x.a / x.f))
    return complex(x.numeric(None))


def _power_in_place(base, p):
    """base^(-p), written over the float array base: a whole p up to 4 by a
    reciprocal and products, which cost less than np.power."""
    if p not in (1.0, 2.0, 3.0, 4.0):
        return np.power(base, -p, out=base)
    np.reciprocal(base, out=base)
    if p == 3.0:
        base *= np.square(base)
    elif p != 1.0:
        np.square(base, out=base)
        if p == 4.0:
            np.square(base, out=base)
    return base


class _ProductFactors:
    """prod_i (base0_i + s_i)^(-p_i) over the factors of one residue class.

    Each factor is kept with the axis it depends on, and raised to its power
    there: an m-factor on s = lam_m*t, an n-factor on s = lam_n*u, an
    (m+n)-factor on s = lam_m*t + lam_n*u.
    """

    def __init__(self, lam_m, lam_n=1):
        self.lam_m, self.lam_n = lam_m, lam_n
        self.items = {"m": [], "n": [], "mn": []}  # (base0, p)

    def add(self, combo, base0, p):
        self.items[combo].append((float(base0), float(p)))

    def axis(self, combo, s, s2=0.0):
        """The product of combo's factors at s + s2, s and s2 broadcast
        against each other (s = sm[:, None] and s2 = sn give the grid of
        np.add.outer). Each factor builds its base once, with its shift
        folded into s, powers it and multiplies it into the product in place."""
        out = None
        for (b0, p) in self.items[combo]:
            # np.asarray: the in-place ufuncs reject a numpy scalar
            base = _power_in_place(np.asarray(np.add(b0 + s, s2)), p)
            if out is None:
                out = base
            else:
                out *= base
        if out is None:
            return np.ones(np.broadcast(s, s2).shape)
        return out

    def value(self, t, u):
        """The product at (t, u); t and u broadcast against each other."""
        sm = self.lam_m * np.asarray(t, dtype=float)
        sn = self.lam_n * np.asarray(u, dtype=float)
        return self.axis("m", sm) * self.axis("n", sn) * self.axis("mn", sm, sn)

    def t_sums(self, wt, t, u):
        """sum_i wt_i value(t_i, u_j) for each u_j of a 1-D u (a scalar u only
        without (m+n)-factors), one row per row of a 2-D wt; only the
        (m+n)-factors take the 2-D grid."""
        a = wt * self.axis("m", self.lam_m * t)
        b = self.axis("n", self.lam_n * np.asarray(u, dtype=float))
        if not self.items["mn"]:
            return np.multiply.outer(np.sum(a, axis=-1), b)
        return b * (a @ self.axis("mn", self.lam_m * t[:, None], self.lam_n * u))

    def lattice_t_sums(self, wt, t0, u0, Tn):
        """t_sums on the integers t = t0 + i (i < len(wt)), u = u0 + j (j < Tn).

        There an (m+n)-factor depends on k = lm*i + ln*j alone, (lm, ln) the
        grid over its gcd g, so it is one vector C[k]. With ln*j = lm*q + r,
        the sum over i at u_j is lag q of the correlation of the phase
        C_r[k] = C[lm*k + r] with the weighted m-factors. The j of one phase
        step by lm and their lags by ln: each phase is correlated once, over
        the lags its j span, and read every ln.
        """
        g = math.gcd(self.lam_m, self.lam_n)
        lm, ln, Tm = self.lam_m // g, self.lam_n // g, len(wt)
        a = wt * self.axis("m", self.lam_m * np.arange(t0, t0 + Tm, dtype=float))
        b = self.axis("n", self.lam_n * np.arange(u0, u0 + Tn, dtype=float))
        if not self.items["mn"]:
            return b * np.sum(a)
        k = np.arange(lm * (Tm - 1) + ln * (Tn - 1) + 1, dtype=float)
        c = self.axis("mn", g * k + (self.lam_m * t0 + self.lam_n * u0))
        corr = np.empty(Tn, dtype=np.result_type(a, c))
        for j0 in range(min(lm, Tn)):
            q0, r = divmod(ln * j0, lm)
            cr = c[r::lm][q0:q0 + ln * (len(range(j0, Tn, lm)) - 1) + Tm]
            # np.correlate conjugates its second argument: a complex one goes
            # in as its two real parts
            phase = np.correlate(cr, a.real, "valid")
            if np.iscomplexobj(a):
                phase = phase + 1j * np.correlate(cr, a.imag, "valid")
            corr[j0::lm] = phase[::ln]
        return b * corr

    def value_log_derivs_t(self, t, u):
        """value(t, u) at a scalar t, and (L', L'', L''') of its log with
        respect to t. Each m- and (m+n)-factor forms the reciprocal r of its
        base once: the factor is r^p, and the derivatives take r, r^2, r^3,
        which underflow where a power of the base would overflow."""
        lm = self.lam_m
        sn = self.lam_n * np.asarray(u, dtype=float)
        f = self.axis("n", sn)
        l1 = l2 = l3 = 0.0
        for (combo, s) in (("m", lm * t), ("mn", lm * t + sn)):
            for (b0, p) in self.items[combo]:
                r = np.reciprocal(b0 + s)
                r2 = r * r
                f = f * r ** p
                l1 = l1 - p * lm * r
                l2 = l2 + p * lm ** 2 * r2
                l3 = l3 - 2 * p * lm ** 3 * (r2 * r)
        return f, l1, l2, l3


def _em_tail_t(pf: _ProductFactors, Tcut, u, lag):
    """sum_{t>=Tcut} pf(t,u) by integral + EM corrections, vectorized in u,
    one row per rule of the stacked rules lag, and the signed last
    correction f'''/720."""
    ex, weights = lag
    integral = pf.t_sums(weights * Tcut, Tcut * ex, u)
    f0, l1, l2, l3 = pf.value_log_derivs_t(Tcut, u)
    f1 = f0 * l1
    f3 = f0 * (l3 + 3 * l2 * l1 + l1 ** 3)
    return integral + (f0 / 2 - f1 / 12 + f3 / 720), f3 / 720


def _geom_cutoff(r, lam):
    """Terms of the phase X^t, |X| = r^lam, after which it is below 1e-40;
    more than specfun.geometric_length allows raise DomainError."""
    if r <= 0:
        return 2
    if r >= 1:
        raise DomainError("a geometric sum needs |x| < 1")
    return geometric_length(
        max(8, int(math.ceil(40.0 * math.log(10) / (lam * (-math.log(r)))))) + 2)


def eval_term_direct(term, params, ctx: PrecisionContext) -> EvalResult:
    if isinstance(term, SingleSumTerm):
        return _single_direct(term, params, ctx)
    return _double_direct(term, params, ctx)


# ---------------------------------------------------------------------------
# Double sums
# ---------------------------------------------------------------------------

def _double_direct(term: DoubleSumTerm, params, ctx) -> EvalResult:
    xsel = term.xsel
    with ctx.workdps():     # a raw x binds at the working precision on both routes
        plan = ClassPlan(term, params)
    b = params.get("b")
    m0, x = plan.start(b), plan.x
    if x.kind == "zero":
        return _eval_x_zero(term, plan, params, ctx)
    xc = _x_complex(x)
    bf = float(b) if b is not None else 0.0
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
            const = complex(w[0]) * xc ** plan.xexp(rm, rn)
            t0 = math.ceil((m0 - rm) / lam_m)
            u0 = math.ceil((plan.n0 - rn) / lam_n)
            pf = _ProductFactors(lam_m, lam_n)
            for (combo, g, p) in fvals:
                pf.add(combo, {"m": rm, "n": rn, "mn": rm + rn}[combo] + g, p)
            Xm = xc ** lam_m if geom_m else None
            Xn = xc ** lam_n if geom_n else None
            v, e = _class_sum(pf, t0, u0, Xm, Xn, r_abs)
            total += const * v
            err += abs(const) * e
    total *= coeff
    err = abs(coeff) * err + _BOUND_FLOOR * (1.0 + abs(total))
    val = mpc(total) if abs(total.imag) > 0 else mpf(total.real)
    return EvalResult(val, mpf(err), "direct_tail")


def _rectangle_length(lam):
    """The direct rectangle's length along an index of class modulus lam,
    without a geometric phase on it (read from _TCUT at each call)."""
    return max(96, _TCUT // lam)


def _class_sum(pf, t0, u0, Xm, Xn, r_abs):
    """One residue class: the direct rectangle plus tails where phases allow."""
    Tm = _geom_cutoff(r_abs, pf.lam_m) if Xm is not None else _rectangle_length(pf.lam_m)
    Tn = _geom_cutoff(r_abs, pf.lam_n) if Xn is not None else _rectangle_length(pf.lam_n)
    t = np.arange(t0, t0 + Tm, dtype=float)
    u = np.arange(u0, u0 + Tn, dtype=float)
    wt = Xm ** t if Xm is not None else np.ones(Tm)
    err = 0.0

    inner_direct = pf.lattice_t_sums(wt, t0, u0, Tn)
    # inner tail over t (only without a geometric m-phase)
    if Xm is None:
        (tail64, tail48), nxt = _em_tail_t(pf, float(t0 + Tm), u, _LAG)
        inner_total = inner_direct + tail64
        err += float(np.sum(np.abs(tail64 - tail48))) + float(np.sum(np.abs(nxt)))
    else:
        inner_total = inner_direct
        err += abs(Xm) ** (Tm + t0) / (1 - abs(Xm)) * float(np.max(np.abs(pf.value(t0 + Tm, u0))))

    phase_u = Xn ** u if Xn is not None else np.ones_like(u)
    block = np.sum(inner_total * phase_u)

    # outer tail over u
    if Xn is None:
        # the outer sum's column F(uv) = sum_t pf(t, uv) at the quadrature
        # nodes, at U and at a stencil around it, in one grid
        U = float(u0 + Tn)
        ex, weights = _LAG
        uv = np.concatenate([U * ex, [U, U - 1.0, U - 0.5, U + 0.5, U + 1.0]])
        col = pf.t_sums(wt, t, uv)
        if Xm is None:
            col = col + _em_tail_t(pf, float(t0 + Tm), uv, _LAG64)[0][0]
        f0, sten = col[len(ex)], col[len(ex) + 1:]
        i64, i48 = weights @ col[:len(ex)] * U
        # centered five-point first derivative, h = 1/2
        f1 = (sten[0] - 8 * sten[1] + 8 * sten[2] - sten[3]) / 6.0
        tail = i64 + f0 / 2 - f1 / 12
        block = block + tail
        err += abs(i64 - i48) * 2 + abs(f1) * 1e-4 + abs(f0) * 1e-8
    else:
        last = abs(inner_total[-1])
        err += abs(Xn) ** (Tn + u0) / (1 - abs(Xn)) * last * 2

    return block, err


# ---------------------------------------------------------------------------
# Single sums
# ---------------------------------------------------------------------------

def _single_direct(term: SingleSumTerm, params, ctx) -> EvalResult:
    with ctx.workdps():
        plan = ClassPlan(term, params)
    b = params.get("b")
    plan.start(b)       # DomainError when the term needs b and has none
    x = plan.x
    if x.kind == "zero":
        return _eval_x_zero(term, plan, params, ctx)
    xc = _x_complex(x)
    bf = float(b) if b is not None else 0.0
    e = float(_exp_value(term.factor))
    gamma = float(term.factor.shift.q0) + term.factor.shift.q1 * bf
    lam = plan.mod["n"]
    geometric = x.kind == "num" and term.xsel.kind == "xn"
    # on the unit circle every class takes its tail from one cut T, so the
    # tails combine linearly into the tail of one sum: integrable at e = 1
    # when the class weights cancel, though no class's tail is on its own
    T = max(128, _TCUT // lam) + math.ceil(plan.n0 / lam)

    total = 0.0 + 0j
    err = 0.0
    tails = np.zeros(3, dtype=complex)  # sum_r c_r (tail64_r, tail48_r, nxt_r)
    wsum = 0.0 + 0j
    wabs = 0.0
    for rr in range(lam):
        w = plan.weight(rr)
        if w is None:
            continue
        const = complex(term.coeff)
        if w[1] is not None:
            const /= math.sin(math.pi * w[1].numerator / w[1].denominator)
        const *= complex(w[0])
        const *= xc ** plan.xexp(rr)
        t0 = math.ceil((plan.n0 - rr) / lam)
        pf = _ProductFactors(lam)
        pf.add("m", rr + gamma, e)
        if geometric:
            X = xc ** lam
            Tg = _geom_cutoff(abs(xc), lam)
            t = np.arange(t0, t0 + Tg, dtype=float)
            vals = pf.value(t, 0.0) * X ** t
            total += const * np.sum(vals)
            err += abs(const) * abs(X) ** (t0 + Tg) / (1 - abs(X)) * abs(pf.value(t0 + Tg, 0.0))
        else:
            t = np.arange(t0, T, dtype=float)
            total += const * np.sum(pf.value(t, 0.0))
            (tail64, tail48), nxt = _em_tail_t(pf, float(T), 0.0, _LAG)
            tails += const * np.array([tail64, tail48, nxt])
            wsum += const
            wabs += abs(const)
    if wabs:
        if e <= 1 and abs(wsum) > 1e-12 * wabs:
            raise DomainError("divergent single sum at x on the unit circle")
        if e < 1:
            # each class's tail quadrature grows like e^((1-e) x) at the
            # Laguerre nodes: the sum of them cancels to roundoff
            raise DomainError("single sum on the unit circle below exponent 1: "
                              "its class tails cancel past float64")
        total += tails[0]
        err += abs(tails[0] - tails[1]) + abs(tails[2])
    err += _BOUND_FLOOR * (1.0 + abs(total))
    val = mpc(total) if abs(total.imag) > 0 else mpf(total.real)
    return EvalResult(val, mpf(err), "direct_tail")
