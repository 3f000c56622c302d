"""High-precision term evaluation by closed-form inner sums.

The reduction strategy rewrites the inner index sum of a double series in
closed form (Hurwitz zetas and digammas via two-pole partial fractions), then
accelerates the outer sum: a direct block driven by one-step recurrences, plus
a tail obtained by expanding every factor in inverse powers of v, the outer
variable shifted to the zeta/psi factor's argument. A power factor
(v + delta)^-p is expanded from its whole exponent p, so it may be
non-integer; one fractional part per atom moves to the row that sums the
tail. The zeta/psi factor sits at v itself, so its series is the fixed
Bernoulli expansion. The expansions multiply as truncated series, convolved
only over the kept orders. Tail base sums are Hurwitz zetas and their
log-weighted companions at one shared argument, taken together as one row of
the package's Euler-Maclaurin kernel (specfun.euler_maclaurin_row).

An evaluation keeps its rows and its outer sums in one EvalCache: the outer
sum of each atom shape (an atom without its coefficient) is formed once and
scaled by the coefficient of every atom that has that shape. Nothing is kept
between evaluations.

Residue-class splitting turns root-of-unity powers, character twists,
congruence constraints and 1/sin weights into finitely many constant-phase
classes first. ClassPlan holds that split exactly, for this route and for the
direct oracle alike; x = 0 keeps only the points whose x exponent vanishes,
each with its class weight. A single sum needs no inner closed form: on the
unit circle its classes make one periodic Hurwitz sum
(specfun.periodic_zeta_sum), and with |x| < 1 each class is a one-factor
atom with a geometric phase.

Terms weighted by x^(m+n) with |x| < 1 take a separate route: they are summed
along the diagonals N = m + n, where the (m+n) part of the summand depends on
N alone and the inner sum over m + n = N advances by running partial sums, one
new power per step. The sum stops at a triangle N <= N0 + T whose omitted
tail is bounded geometrically, so the cost is O(T) rather than O(T^2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .specfun import (
    DomainError,
    EvalResult,
    PrecisionContext,
    ZetaRow,
    bernoulli,
    euler_maclaurin_row,
    geometric_length,
    hurwitz_zeta,  # noqa: F401  (perfbench's tests check that its tracer rebinds it here)
    periodic_zeta_sum,
    root_of_unity,
    split_exponent,
)
from .termlang import DoubleSumTerm, SingleSumTerm, expr_is_num


class ShapeError(ValueError):
    """Term shape outside the closed-form catalog; caller may fall back."""


# ---------------------------------------------------------------------------
# Bound parameter values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XSpec:
    """Evaluation point x, kept exact when it is a root of unity."""

    kind: str  # 'zero' | 'one' | 'ru' | 'num'
    f: int = 1
    a: int = 0
    value: object = None  # mpf/mpc for 'num'

    @staticmethod
    def one():
        return XSpec("one")

    @staticmethod
    def zero():
        return XSpec("zero")

    @staticmethod
    def root(f, a):
        a %= f
        if a == 0:
            return XSpec("one")
        g = math.gcd(a, f)
        return XSpec("ru", f // g, a // g)

    @staticmethod
    def number(v):
        v = mpc(v) if isinstance(v, complex) or (hasattr(v, "imag") and v.imag) else mpf(v)
        if v == 0:
            return XSpec("zero")
        if v == 1:
            return XSpec("one")
        if abs(v) > 1:
            raise DomainError("x must satisfy |x| <= 1")
        return XSpec("num", value=v)

    @property
    def root_pair(self):
        """(f, a) for x = e^(2 pi i a/f) on the unit circle, else None."""
        return (self.f, self.a) if self.kind in ("one", "ru") else None

    def numeric(self, ctx) -> object:
        if self.kind == "zero":
            return mpf(0)
        if self.kind == "one":
            return mpf(1)
        if self.kind == "ru":
            return root_of_unity(self.f, self.a, ctx)
        return self.value

    def power(self, e: int, ctx):
        """x^e, exact for roots of unity."""
        if self.kind == "one":
            return mpf(1)
        if self.kind == "zero":
            return mpf(1) if e == 0 else mpf(0)
        if self.kind == "ru":
            return root_of_unity(self.f, self.a * e, ctx)
        return self.value ** e


def _frac_to_mp(q: Fraction):
    return mpf(q.numerator) / q.denominator


def shift_value(shift, bval):
    v = _frac_to_mp(shift.q0)
    if shift.q1:
        v = v + shift.q1 * bval
    return v


# ---------------------------------------------------------------------------
# Evaluation cache: kernel rows per (a, phi), outer sums per atom shape
# ---------------------------------------------------------------------------

class EvalCache:
    """Rows of special values and outer sums of atom shapes, for one evaluation.

    Every Hurwitz zeta, digamma and log-weighted zeta value is a column of a
    row of specfun.euler_maclaurin_row. The cache keeps one row r = 1..r_max
    per (a, phi), phi the fractional part of the exponent; rows at a real a
    carry the log-weighted sums, since the tails that need zeta at an a
    mostly need them too. A row too short for a request is rebuilt at least
    twice as long.

    It also keeps, in sums, the coefficient-free outer sum of every atom
    shape (slope, rpows, trans, u0, phase) that _sum_atom has summed: the
    terms of one side, and the two sides of an identity, share many shapes
    with different coefficients. Both live as long as the evaluation holds
    the cache; nothing is kept between evaluations.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.rows = {}
        self.sums = {}

    def row(self, a, phi, r_hi: int) -> ZetaRow:
        row = self.rows.get((a, phi))
        if row is None or row.r_hi < r_hi:
            if row is not None:
                r_hi = max(r_hi, 2 * row.r_hi)
            cplx = isinstance(a, mpc) or (isinstance(a, complex) and a.imag)
            row = euler_maclaurin_row(a, phi, 1, r_hi, self.ctx, logs=not cplx)
            self.rows[(a, phi)] = row
        return row

    def zeta(self, s, a) -> EvalResult:
        r, phi = split_exponent(s)
        return self.row(a, phi, r).zeta_at(r)

    def psi(self, a) -> EvalResult:
        return self.row(a, 0, 1).psi()

    def log_zeta(self, r, a) -> EvalResult:
        r, phi = split_exponent(r)
        return self.row(a, phi, r).log_zeta_at(r)


# ---------------------------------------------------------------------------
# Two-pole partial fractions (exact rational coefficients)
# ---------------------------------------------------------------------------

def two_pole_coeffs(e: int, q: int):
    """1/((t+p1)^e (t+p2)^q) = sum A_i/(t+p1)^i + sum B_j/(t+p2)^j over w=p2-p1.

    Returns (A, B) with A[i] and B[j] the exact rational multiples of
    w^-(q+e-i) and w^-(e+q-j); A[1] + B[1] = 0 always.
    """
    A = {i: Fraction((-1) ** (e - i) * math.comb(q + e - i - 1, e - i))
         for i in range(1, e + 1)}
    B = {j: Fraction((-1) ** (q - j) * (-1) ** (e + q - j) * math.comb(e + q - j - 1, q - j))
         for j in range(1, q + 1)}
    assert A.get(1, Fraction(0)) + B.get(1, Fraction(0)) == 0
    return A, B


# ---------------------------------------------------------------------------
# Outer-sum atoms
# ---------------------------------------------------------------------------

@dataclass
class Atom:
    """coef * prod_i (slope*u + gamma_i)^(-p_i) * Z(slope*u + gamma_z).

    coef carries an EvalResult so bounds from folded-in constants propagate.
    """

    coef: EvalResult
    slope: int
    rpows: tuple  # ((gamma, p) ...) with p > 0 (mpf or int powers)
    trans: tuple | None = None  # ('zeta', j, gamma_z) | ('psi', gamma_z)


class _Series:
    """sum_r (a[r] + b[r] log v) v^-r with remainder items (coef, pow, haslog)."""

    __slots__ = ("R", "a", "b", "rem")

    def __init__(self, R):
        self.R = R
        self.a = [mpf(0)] * (R + 1)
        self.b = [mpf(0)] * (R + 1)
        self.rem = []

    def mul(self, other, v0):
        """The product truncated after v^-R, valid for v >= v0.

        Only the kept triangle i + j <= R is convolved. The dropped terms
        i + j > R become remainder items at the power R + 1, bounded by
        suffix sums in O(R):

            sum_{i+j>R} |s_i||o_j| v0^(R+1-i-j)
                = v0^(R+1) sum_i |s_i| v0^-i sum_{j>R-i} |o_j| v0^-j,

        which by the triangle inequality is at least the dropped part's
        sum_r |conv_r| v0^(R+1-r). Every power of v0 comes from one table.
        """
        R = self.R
        out = _Series(R)
        ca, cb = out.a, out.b
        # log^2 products never occur: at most one factor carries logs
        oa = [(j, aj) for j, aj in enumerate(other.a) if aj]
        ob = [(j, bj) for j, bj in enumerate(other.b) if bj]
        for i, (ai, bi) in enumerate(zip(self.a, self.b)):
            k = R - i
            if ai:
                for j, aj in oa:
                    if j > k:
                        break
                    ca[i + j] += ai * aj
                for j, bj in ob:
                    if j > k:
                        break
                    cb[i + j] += ai * bj
            if bi:
                for j, aj in oa:
                    if j > k:
                        break
                    cb[i + j] += bi * aj
        inv = 1 / v0
        pw = [mpf(1)]   # pw[r] = v0^-r
        for _ in range(R + 1):
            pw.append(pw[-1] * inv)
        # suffix sums over j >= k of |o_j| v0^-j, without and with log
        sa = [mpf(0)] * (R + 2)
        sb = [mpf(0)] * (R + 2)
        for j in range(R, -1, -1):
            sa[j] = sa[j + 1] + abs(other.a[j]) * pw[j]
            sb[j] = sb[j + 1] + abs(other.b[j]) * pw[j]
        dropped = mpf(0)
        dropped_log = mpf(0)
        for i in range(1, R + 1):
            ai = abs(self.a[i]) * pw[i]
            bi = abs(self.b[i]) * pw[i]
            k = R + 1 - i
            dropped += ai * sa[k]
            dropped_log += ai * sb[k] + bi * sa[k]
        if dropped:
            out.rem.append((dropped / pw[R + 1], R + 1, False))
        if dropped_log:
            out.rem.append((dropped_log / pw[R + 1], R + 1, True))
        # cross remainders: |P| and |rho| envelopes at v >= v0
        lv = mp.log(v0)
        sup_self = self._sup(pw, lv)
        sup_other = other._sup(pw, lv)
        for (c, p, lg) in self.rem:
            out.rem.append((c * sup_other, p, lg))
        for (c, p, lg) in other.rem:
            out.rem.append((c * sup_self, p, lg))
        for (c1, p1, lg1) in self.rem:
            for (c2, p2, lg2) in other.rem:
                p = min(p1, p2)
                out.rem.append((c1 * c2 * (pw[p] if p <= R + 1 else v0 ** (-p)),
                                max(p1, p2), lg1 or lg2))
        return out

    def _sup(self, pw, lv):
        """sup over v >= v0 of |the kept part|, from pw[r] = v0^-r and lv = log v0."""
        s = mpf(0)
        for r in range(self.R + 1):
            s += (abs(self.a[r]) + abs(self.b[r]) * lv) * pw[r]
        return s


def _power_series(R, p, delta, v0):
    """(v + delta)^(-p) = sum_r C(-p, r) delta^r v^-(p+r), expanded in v^-1.

    The coefficients come from the whole exponent p. Index floor(p) + r
    stands for v^-(floor(p)+r) times v^-frac(p); the row that sums the
    series carries frac(p), so an atom may hold one fractional exponent.
    Powers above R become remainder items, and the binomial tail after
    R + 1 terms is bounded geometrically in |delta|/v0.
    """
    s = _Series(R)
    pm = mpf(p)
    base = int(mp.floor(pm))
    term = mpf(1)
    for r in range(0, R + 1):
        _put(s, term, base + r, v0)
        nxt = term * (-(pm + r)) / (r + 1) * delta
        if nxt == 0:
            return s
        term = nxt
    ratio = abs(mpf(delta)) / v0
    if ratio >= 1:
        raise ShapeError("outer tail starts inside the expansion radius")
    s.rem.append((abs(term) / (1 - ratio), R + 1, False))
    return s


def _put(s, coef, power, v0):
    """Add coef v^-power to s; a power above R becomes a remainder item."""
    if power <= s.R:
        s.a[power] += coef
    else:
        s.rem.append((abs(coef) * v0 ** (s.R + 1 - power), s.R + 1, False))


def _bernoulli_tail(s, v0, terms):
    """Add the Euler-Maclaurin terms (coef, power), powers rising, up to
    v^-(R+1). The expansion envelopes its sum for real v > 0, so twice the
    first term past v^-(R+1) bounds all that is left out."""
    for coef, power in terms:
        if power > s.R + 1:
            s.rem.append((2 * abs(coef) * v0 ** (s.R + 1 - power), s.R + 1, False))
            return s
        _put(s, coef, power, v0)


def _b2(r):
    """The Bernoulli number B_2r as an mpf."""
    b = bernoulli(2 * r)
    return mpf(b.numerator) / b.denominator


def _zeta_series(R, j, v0):
    """zeta(j, v), j an integer >= 2, expanded about v = infinity:

        v^(1-j)/(j-1) + v^-j/2 + sum_{r>=1} B_2r/(2r)! (j)_(2r-1) v^-(j+2r-1).
    """
    s = _Series(R)
    _put(s, 1 / mpf(j - 1), j - 1, v0)
    _put(s, mpf(1) / 2, j, v0)
    terms = ((_b2(r) / math.factorial(2 * r) * math.prod(range(j, j + 2 * r - 1)),  # (j)_(2r-1)
              j + 2 * r - 1) for r in itertools.count(1))
    return _bernoulli_tail(s, v0, terms)


def _psi_series(R, v0):
    """psi(v) = log v - 1/(2v) - sum_{r>=1} B_2r/(2r) v^-2r about v = infinity."""
    s = _Series(R)
    s.b[0] = mpf(1)  # log v
    _put(s, -mpf(1) / 2, 1, v0)
    terms = ((-(_b2(r) / (2 * r)), 2 * r) for r in itertools.count(1))
    return _bernoulli_tail(s, v0, terms)


# ---------------------------------------------------------------------------
# Outer summation of one atom
# ---------------------------------------------------------------------------

def _trans_table(trans, slope, u0, U0, cache):
    """Values of Z(slope*u + gamma) for u in [u0, U0) by one-step recurrence.

    Z is zeta(j, .), with j an int, a Fraction or an mpf, or psi; the table
    runs down from the one value taken from the cache at u = U0 - 1.
    """
    kind = trans[0]
    gz = trans[-1]
    a = slope * (U0 - 1) + gz
    if kind == "zeta":
        j = trans[1]
        if isinstance(j, Fraction):
            j = _num_exp(j)
        cur = cache.zeta(j, a)
    else:
        cur = cache.psi(a)
    vals = [None] * (U0 - u0)
    val = cur.value
    vals[U0 - 1 - u0] = val
    for u in range(U0 - 2, u0 - 1, -1):
        for _ in range(slope):
            a = a - 1
            val = val + a ** (-j) if kind == "zeta" else val - 1 / a
        vals[u - u0] = val
    return vals, cur.abs_error_bound


def _sum_atom(atom: Atom, u0: int, phase, cache: EvalCache, ctx) -> EvalResult:
    """sum_{u>=u0} phase(u) * atom(u).

    phase is None (constant 1) for the Euler-Maclaurin path, or a pair
    (X, x0) meaning x0 * X^u with |X| < 1 for the geometric path. The sum
    without atom.coef depends on the atom's shape alone, so the cache sums
    each shape once per evaluation and scales it by each atom's coefficient.
    """
    key = (atom.slope, atom.rpows, atom.trans, u0, phase)
    shape_sum = cache.sums.get(key)
    if shape_sum is None:
        if phase is None:
            shape_sum = _sum_shape(atom, u0, cache, ctx)
        else:
            shape_sum = _sum_atom_geometric(atom, u0, *phase, cache, ctx)
        cache.sums[key] = shape_sum
    return atom.coef.times(shape_sum)


def _sum_shape(atom: Atom, u0: int, cache: EvalCache, ctx, phase=None) -> EvalResult:
    """sum_{u>=u0} phase(u) * atom(u) / atom.coef: a direct block up to U0,
    then a tail.

    Without a phase the tail comes from the atom's expansion in inverse powers
    of u. With the geometric phase (X, x0), x0 * X^u and |X| < 1, the block
    runs until |X|^u underflows the target and the tail is bounded
    geometrically, assuming |atom| falls with u.
    """
    lam = atom.slope
    if phase is None:
        U0 = u0 + max(64, int(0.6 * ctx.dps) + 10)
        # the expansion about v = lam*u + gamma_star, at the zeta/psi shift,
        # needs v0 >= 2 max|delta| + 8
        gamma_star = atom.trans[-1] if atom.trans else atom.rpows[0][0]
        v0 = lam * U0 + gamma_star
        if v0 <= 0:
            raise ShapeError("tail starts at a nonpositive argument")
        max_delta = max([abs(mpf(g) - gamma_star) for (g, _) in atom.rpows] + [mpf(0)])
        while v0 < 2 * max_delta + 8:
            U0 = max(U0 + 8, int((2 * max_delta + 8 - gamma_star) / lam) + 1)
            v0 = lam * U0 + gamma_star
    else:
        X, x0 = phase
        r = abs(X)
        if r >= 1:
            raise ShapeError("geometric path needs |X| < 1")
        cut = int(mp.ceil((ctx.dps + 6) * mp.log(10) / (-mp.log(r))))
        U0 = u0 + geometric_length(cut + 4) + 1
    tvals, tbnd = (None, mpf(0))
    if atom.trans is not None:
        tvals, tbnd = _trans_table(atom.trans, lam, u0, U0, cache)
    total = mpf(0)
    xp = None if phase is None else x0 * X ** u0
    for u in range(u0, U0):
        val = mpf(1)
        for (g, p) in atom.rpows:
            val = val * (lam * u + g) ** (-p)
        if tvals is not None:
            val = val * tvals[u - u0]
        if xp is None:
            total = total + val
        else:
            total = total + xp * val
            xp = xp * X
    if phase is not None:
        tail_bound = abs(xp) * abs(val) / (1 - r) * 2
        bound = tail_bound + tbnd * (U0 - u0) + abs(total) * mpf(10) ** (-(ctx.dps + 2))
        return EvalResult(total, bound, "direct_tail")
    direct_bound = tbnd * (U0 - u0 + 1) + abs(total) * mpf(10) ** (-(ctx.dps + 2))
    R = max(36, int(ctx.dps * 2.303 / mp.log(v0 / max(max_delta, mpf(1)))) + 8)
    # one fractional exponent per atom; the row that sums the tail carries it
    fracs = [mpf(p) - mp.floor(p) for (_, p) in atom.rpows if mpf(p) != mp.floor(p)]
    if len(fracs) > 1:
        raise ShapeError("more than one fractional outer exponent")
    frac_extra = fracs[0] if fracs else mpf(0)
    series = None
    for (g, p) in atom.rpows:
        piece = _power_series(R, p, mpf(g) - gamma_star, v0)
        series = piece if series is None else series.mul(piece, v0)
    if atom.trans is not None:
        kind = atom.trans[0]
        piece = _zeta_series(R, atom.trans[1], v0) if kind == "zeta" else _psi_series(R, v0)
        series = piece if series is None else series.mul(piece, v0)
    # base sums: sum_{u>=U0} v^-(r+frac_extra) and the log-weighted companion,
    # all from one row at abase (remainder powers are R + 1)
    tail = mpf(0)
    tail_bound = mpf(0)
    abase = U0 + gamma_star / lam
    top = max([R + 1] + [p for (c, p, _) in series.rem if c])
    row = cache.row(abase, frac_extra if frac_extra else 0, top)
    for r in range(R + 1):
        ar, br = series.a[r], series.b[r]
        if ar == 0 and br == 0:
            continue
        rp = r + frac_extra
        if rp <= 1:
            raise ShapeError("divergent outer tail")
        zr = row.zeta_at(r)
        base = lam ** (-mpf(rp)) * zr.value
        tail = tail + ar * base
        tail_bound = tail_bound + abs(ar) * lam ** (-mpf(rp)) * zr.abs_error_bound
        if br != 0:
            lz = row.log_zeta_at(r)
            logbase = lam ** (-mpf(rp)) * (mp.log(lam) * zr.value + lz.value)
            tail = tail + br * logbase
            tail_bound = tail_bound + abs(br) * lam ** (-mpf(rp)) * (
                mp.log(lam) * zr.abs_error_bound + lz.abs_error_bound)
    for (c, p, lg) in series.rem:
        if c == 0:
            continue
        pr = p + frac_extra
        zr = row.zeta_at(p)
        extra = c * lam ** (-mpf(pr)) * abs(zr.value)
        if lg:
            lz = row.log_zeta_at(p)
            extra += c * lam ** (-mpf(pr)) * (abs(mp.log(lam)) * abs(zr.value) + abs(lz.value))
        tail_bound = tail_bound + extra
    out_val = total + tail
    bound = direct_bound + tail_bound + abs(out_val) * mpf(10) ** (-(ctx.dps + 2))
    return EvalResult(out_val, bound, "euler_maclaurin")


def _sum_atom_geometric(atom: Atom, u0: int, X, x0, cache: EvalCache, ctx) -> EvalResult:
    """_sum_shape with the geometric phase x0 X^u, under the name that
    perfbench traces."""
    return _sum_shape(atom, u0, cache, ctx, phase=(X, x0))


# ---------------------------------------------------------------------------
# Residue-class splitting and term assembly
# ---------------------------------------------------------------------------

def _exp_value(f):
    if not expr_is_num(f.exp):
        raise ShapeError("symbolic exponent at evaluation time")
    return f.exp[1]


def _as_int(q: Fraction, what: str) -> int:
    if q.denominator != 1:
        raise ShapeError(f"{what} must be an integer for the closed-form catalog")
    return int(q)


def _int_modulus(expr, what: str) -> int:
    if not expr_is_num(expr):
        raise ShapeError(f"unbound {what}")
    return _as_int(expr[1], what)


def _xspec_of(params):
    x = params.get("x")
    if x is None:
        return XSpec.one()
    if isinstance(x, XSpec):
        return x
    return XSpec.number(x)


def _mp_b(b):
    """The bound b at working precision (None when unbound)."""
    if b is None:
        return None
    return _frac_to_mp(b) if isinstance(b, Fraction) else mpf(b)


def _mp_value(v):
    """A character value or a product of them as an mpf when real, else an mpc."""
    return mpf(v.real) if not v.imag else mpc(v)


class ClassPlan:
    """Exact residue-class bookkeeping of one concrete term.

    On a residue class of the index lattice the congruence indicator, the
    character values, the 1/sin weight and a root-of-unity power of x are
    constant. The plan resolves b and the index starts m0, n0; the moduli
    mod[idx] per index that the congruence, the twists and a root-of-unity x
    require; and, for any class or lattice point, its weight and its x
    exponent. It holds ints, Fractions and the characters' stored values
    only. A single sum's classes are those of mod["n"] on both routes; a
    double sum's route picks its grid from the moduli (grid). Each route
    does its own numerics.
    """

    def __init__(self, term, params):
        self.term = term
        single = isinstance(term, SingleSumTerm)
        factors = (term.factor,) if single else term.factors
        m_after_b = not single and term.m_range == "m>b"
        self.b = params.get("b")
        if self.b is None and (m_after_b or any(f.shift.q1 for f in factors)):
            raise DomainError("term references the shift parameter b, none bound")
        self.n0 = 0 if term.n_range == "n>=0" else 1
        self.m0 = None
        if not single:
            self.m0 = 0 if term.m_range == "m>=0" else 2 if m_after_b and self.b >= 1 else 1
        self.x = _xspec_of(params) if term.xsel.kind != "none" else XSpec.one()
        twists = (((term.twist, "n"),) if term.twist else ()) if single else term.twists
        self.chars = {arg: params[name] for (name, arg) in twists}
        tw = {arg: chi.modulus for (arg, chi) in self.chars.items()}
        self.cong_mod = _int_modulus(term.cong.modulus, "congruence modulus") \
            if term.cong is not None else 1
        sw = term.sin_weight if single else None
        self.sin_mod = _int_modulus(sw.modulus, "sin-weight modulus") if sw else 1
        if single:
            self.mod = {"n": math.lcm(self.cong_mod, self.sin_mod, tw.get("n", 1), self.x.f)}
            return
        by_x = {"none": "", "xn": "n", "xm": "m", "xmn": "mn"}[term.xsel.kind]
        both = math.lcm(self.cong_mod, tw.get("mn", 1))
        self.mod = {i: math.lcm(both, tw.get(i, 1), self.x.f if i in by_x else 1)
                    for i in ("m", "n")}
        # weight(m, n, joint=False) has period pair_mod in m and in n
        self.pair_mod = math.lcm(self.cong_mod, tw.get("m", 1), tw.get("n", 1))
        self.joint_mod = tw.get("mn", 1)
        self.coupled = term.cong is not None or "mn" in tw or \
            (term.xsel.kind == "xmn" and self.x.kind == "ru")

    def grid(self, square=False):
        """Moduli (lam_m, lam_n) of a class grid of a double sum: one modulus
        for both indices when the classes couple them (a congruence, an (m+n)
        twist or a root-of-unity x^(m+n)) or square is set, else each index's
        own. Either keeps every class constant; the shape sets how many
        classes there are and how long each runs."""
        if square or self.coupled:
            lam = math.lcm(self.mod["m"], self.mod["n"])
            return lam, lam
        return self.mod["m"], self.mod["n"]

    def joint(self, N):
        """The (m+n) character's stored value at N; 1 without one."""
        chi = self.chars.get("mn")
        return 1 if chi is None else chi(N)

    def weight(self, *r, joint=True):
        """Weight of the class or lattice point r = (m, n), or (n,) for a single
        sum: None where it vanishes, else (chi, s), with chi the product of the
        characters' stored values and s the argument of a 1/sin(pi*s) weight
        (None without one). joint=False leaves the (m+n) character out."""
        t = self.term
        s = None
        if len(r) == 1:
            (n,) = r
            if t.cong is not None and (t.cong.mult * n + t.cong.off) % self.cong_mod:
                return None
            if t.sin_weight is not None:
                # even: 1/sin(2 pi n/N) over N not dividing n; odd: 1/sin((2n+1) pi/N)
                even, N = t.sin_weight.parity == "even", self.sin_mod
                k = 2 * n + (0 if even else 1)
                if (n if even else k) % N == 0:
                    return None
                s = Fraction(k % (2 * N), N)
            at = {"n": n}
        else:
            m, n = r
            if t.cong is not None and (m - t.cong.coeff * n - t.cong.offset) % self.cong_mod:
                return None
            at = {"m": m, "n": n, "mn": m + n}
        chi = 1
        for (arg, c) in self.chars.items():
            if joint or arg != "mn":
                chi = chi * c(at[arg])
        return None if chi == 0 else (chi, s)

    def xexp(self, *r):
        """Exponent of x at the class or lattice point r; None without x."""
        xsel = self.term.xsel
        if xsel.kind == "none":
            return None
        m, n = r if len(r) == 2 else (0, r[0])
        return {"xn": n, "xm": m, "xmn": m + n}[xsel.kind] + xsel.d


def eval_double_reduction(term: DoubleSumTerm, params, ctx: PrecisionContext,
                          cache: EvalCache | None = None) -> EvalResult:
    """Closed-form reduction of a concrete double term; ShapeError on misses."""
    with ctx.workdps():
        cache = cache or EvalCache(ctx)
        xsel = term.xsel
        plan = ClassPlan(term, params)
        x = plan.x
        if x.kind == "zero":
            return _eval_x_zero(term, plan, params, ctx, cache)
        if x.kind == "num" and xsel.kind == "xmn":
            return _eval_double_geometric2d(term, plan, ctx)
        if x.kind == "num" and abs(x.value) >= 1:
            raise ShapeError("boundary x that is not a root of unity")
        b_mp = _mp_b(plan.b)

        inner = "n" if xsel.kind == "xm" else "m"
        outer = "n" if inner == "m" else "m"
        ifac = term.factor(inner)
        ofacs = [f for f in term.factors if f.combo == outer]
        jfac = term.factor("mn")

        # _class_atoms needs one modulus on both indices once the inner one splits
        lam_m, lam_n = plan.grid(square=xsel.kind == "xmn" or plan.mod[inner] > 1)
        lam_i, lam_o = (lam_m, lam_n) if inner == "m" else (lam_n, lam_m)
        i0, o0 = (plan.m0, plan.n0) if inner == "m" else (plan.n0, plan.m0)

        eI = _exp_value(ifac) if ifac is not None else Fraction(0)
        q = _exp_value(jfac) if jfac is not None else Fraction(0)
        gI = shift_value(ifac.shift, b_mp) if ifac is not None else mpf(0)
        gJ = shift_value(jfac.shift, b_mp) if jfac is not None else mpf(0)
        ofac_vals = [(shift_value(f.shift, b_mp), _exp_value(f)) for f in ofacs]

        if (not eI and q <= 1) or (not q and eI <= 1):
            raise DomainError("divergent inner sum")
        if q:
            if eI:
                _as_int(eI, "inner exponent")
            _as_int(q, "joint exponent")

        total = EvalResult(mpf(0), mpf(0), "reduction")
        coeff0 = _frac_to_mp(term.coeff)
        for rI in range(lam_i):
            for rO in range(lam_o):
                rm, rn = (rI, rO) if inner == "m" else (rO, rI)
                w = plan.weight(rm, rn)
                if w is None:
                    continue
                const = mpc(coeff0) * mpc(w[0])
                phase = None
                if x.kind == "ru":
                    const = const * x.power(plan.xexp(rm, rn), ctx)
                elif x.kind == "num":
                    # geometric phase on the outer index only
                    const = const * x.value ** plan.xexp(rm, rn)
                    phase = (x.value ** lam_o, mpf(1))
                t0 = math.ceil((i0 - rI) / lam_i)
                u0 = math.ceil((o0 - rO) / lam_o)
                for atom in _class_atoms(eI, q, gI, gJ, ofac_vals, rI, rO,
                                         lam_i, lam_o, t0, cache):
                    atom.coef = atom.coef.scale(const)
                    total = total + _sum_atom(atom, u0, phase, cache, ctx)
        return EvalResult(total.value, total.abs_error_bound, "reduction")


def _class_atoms(eI, q, gI, gJ, ofac_vals, rI, rO, lam_i, lam_o, t0, cache):
    """Atoms of the inner closed form on one residue class, in the outer
    class index u.

    The class holds the inner index rI + lam_i t for t >= t0 and the outer
    index rO + lam_o u, where lam_i is 1 or equals lam_o. Dividing every base
    by lam_i gives slope lam_o // lam_i in u and the prefactor lam_i^-(total
    degree). eI and q are the inner and joint exponents as Fractions, 0 for
    an absent factor and integers when both are present; ofac_vals holds the
    outer factors' (shift, exponent) pairs.
    """
    lam = lam_i
    slope = lam_o // lam
    aI = (rI + gI) / lam
    base_rpows = [((rO + gN) / lam, p) for (gN, p) in ofac_vals]
    wg = (rO + gJ - gI) / lam
    zg = (rI + rO + gJ) / lam + t0
    ptot = eI + q + sum(p for (_, p) in ofac_vals)
    one = EvalResult(mpf(lam) ** (-_frac_to_mp(ptot)), mpf(0), "reduction")
    atoms = []

    def mk(coef, extra_rpows, trans):
        rp = tuple((g, _num_exp(p)) for (g, p) in base_rpows + extra_rpows)
        atoms.append(Atom(coef, slope, rp, trans))

    if not eI:
        # joint factor only: inner sum is zeta(q, t0 + aJ(u))
        if q <= 1:
            raise DomainError("divergent inner sum")
        mk(one, [], ("zeta", _num_exp(q), zg))
        return atoms
    if not q:
        # pure inner factor: constant zeta(eI, t0 + aI)
        mk(one.times(cache.zeta(_frac_to_mp(eI), t0 + aI)), [], None)
        return atoms
    # two-pole case
    e, q = int(eI), int(q)
    A, B = two_pole_coeffs(e, q)
    for i in range(2, e + 1):
        zc = cache.zeta(i, t0 + aI)
        coef = one.times(zc).scale(_frac_to_mp(A[i]))
        mk(coef, [(wg, e + q - i)], None)
    for j in range(2, q + 1):
        coef = one.scale(_frac_to_mp(B[j]))
        mk(coef, [(wg, e + q - j)], ("zeta", j, zg))
    A1 = _frac_to_mp(A[1])
    mk(one.scale(A1), [(wg, e + q - 1)], ("psi", zg))
    pc = cache.psi(t0 + aI)
    mk(one.times(pc).scale(-A1), [(wg, e + q - 1)], None)
    return atoms


def _atom_at(atom: Atom, cache: EvalCache) -> EvalResult:
    """The atom at u = 0: its coefficient times its powers and its zeta/psi value."""
    val = atom.coef
    for (g, p) in atom.rpows:
        val = val.scale(g ** (-p))
    if atom.trans is None:
        return val
    gz = atom.trans[-1]
    return val.times(cache.zeta(atom.trans[1], gz) if atom.trans[0] == "zeta" else cache.psi(gz))


def _eval_x_zero(term, plan, params, ctx, cache) -> EvalResult:
    """x = 0: only the summands with a vanishing x exponent survive, each
    with its class weight."""
    with ctx.workdps():
        d = term.xsel.d
        zero = EvalResult(mpf(0), mpf(0), "closed_form")
        if isinstance(term, SingleSumTerm):
            factors, points = (term.factor,), [(-d,)] if -d >= plan.n0 else []
        elif term.xsel.kind == "xm":
            raise ShapeError("x = 0 with an x^m numerator leaves an uncatalogued n-sum")
        elif term.xsel.kind == "xn":
            # the inner m-sum at n = -d, split into classes by its weights
            if -d < plan.n0:
                return zero
            return eval_inner_closed(term, -d, params, ctx, cache=cache, include_phase=False)
        else:
            factors = term.factors
            points = [(m, -d - m) for m in range(plan.m0, -d - plan.n0 + 1)]
        b_mp = _mp_b(plan.b)
        coeff0 = _frac_to_mp(term.coeff)
        total = zero
        for r in points:
            w = plan.weight(*r)
            if w is None:
                continue
            val = coeff0 * _mp_value(w[0])
            if w[1] is not None:
                val = val / mp.sinpi(_frac_to_mp(w[1]))
            m, n = r if len(r) == 2 else (0, r[0])
            for f in factors:
                base = {"m": m, "n": n, "mn": m + n}[f.combo] + shift_value(f.shift, b_mp)
                val = val * base ** (-_frac_to_mp(_exp_value(f)))
            total = total + EvalResult(val, abs(val) * ctx.eps, "closed_form")
        return total


def eval_inner_closed(term: DoubleSumTerm, n: int, params, ctx: PrecisionContext,
                      cache: EvalCache | None = None, include_phase: bool = True) -> EvalResult:
    """Inner m-sum at fixed integer n as zetas, digammas, and rationals.

    Catalogued shapes: only a joint chain; or one pure-m factor of any
    positive integer order together with an optional joint chain. The x power
    must not involve m. A congruence or twist splits m into residue classes
    mod L = plan.mod["m"], each with its ClassPlan weight at n. The class
    m = rho + L t is the set of _class_atoms with the outer index held at n
    (rO = n, lam_i = lam_o = L), each taken at u = 0.
    """
    with ctx.workdps():
        cache = cache or EvalCache(ctx)
        if term.xsel.kind in ("xm", "xmn"):
            raise ShapeError("x power involves the inner index")
        plan = ClassPlan(term, params)
        b_mp, m0 = _mp_b(plan.b), plan.m0
        if n < plan.n0:
            raise DomainError("n below the term's range")
        mfac = term.factor("m")
        jfac = term.factor("mn")
        if mfac is None and jfac is None:
            raise DomainError("no inner factors: divergent")
        e = q = Fraction(0)
        if mfac is not None:
            e = _exp_value(mfac)
            _as_int(e, "inner exponent")
        if jfac is not None:
            q = _exp_value(jfac)
            if mfac is not None:
                _as_int(q, "joint exponent")
        if (not q and e < 2) or (not e and q <= 1):
            raise DomainError("divergent inner sum")
        gM = shift_value(mfac.shift, b_mp) if mfac is not None else mpf(0)
        gJ = shift_value(jfac.shift, b_mp) if jfac is not None else mpf(0)
        nfac_vals = [(shift_value(f.shift, b_mp), _exp_value(f))
                     for f in term.factors if f.combo == "n"]
        const = _frac_to_mp(term.coeff)
        if include_phase and term.xsel.kind == "xn":
            const = const * plan.x.power(n + term.xsel.d, ctx)
        L = plan.mod["m"]
        total = EvalResult(mpf(0), mpf(0), "closed_form")
        for rho in range(L):
            w = plan.weight(rho, n)
            if w is None:
                continue
            t0 = math.ceil((m0 - rho) / L)
            if e and mp.re(t0 + (rho + gM) / L) <= 0:
                raise DomainError("inner factor vanishes inside the range")
            for atom in _class_atoms(e, q, gM, gJ, nfac_vals, rho, n, L, L, t0, cache):
                total = total + _atom_at(atom, cache).scale(const * _mp_value(w[0]))
        return total


def _eval_double_geometric2d(term, plan, ctx) -> EvalResult:
    """x^(m+n+d) with |x| < 1, summed along the diagonals N = m + n.

    The (m+n) part of the summand, gamma_N = x^(N+d) (N+g)^(-q) chi(N),
    depends on N alone, and each step N -> N+1 adds one new m (and one new
    n) to the inner sum over m + n = N. One-sided terms (an m-factor or an
    n-factor next to the (m+n) factor, not both) keep one running partial sum
    of the factor's powers per residue class mod L, where L is the lcm of the
    congruence modulus and the m- and n-twist moduli; the inner sum is then
    sum_r phi(r, (N-r) mod L) * P_r(N) with phi the class weight (congruence
    indicator times character values). Two-sided terms with integer
    exponents split by two_pole_coeffs on X = m + g_m, Y = n + g_n, with
    X + Y = W = N + g_m + g_n fixed, into one-sided pieces times powers of W.
    Any other two-sided shape convolves power tables along each diagonal.

    A diagonal with |W| < 1 is also summed directly: W = 0 where a shifted
    factor changes sign, and near it the pieces would cancel to a small
    inner sum after division by a small W.

    The omitted set is the triangle N > N0 + T, which holds k + 1 lattice
    points at N = N0 + k, each at most corner * r^k in modulus (corner: the
    summand's modulus bound at N = N0, with each factor taken at its least
    base over the range). T is the least cut-off with corner * sum_{k>T}
    (k+1) r^k below 10^-(dps+8) * corner. The rounding bound scales with
    the sum over N of |gamma_N| times the moduli the inner sum was formed
    from, so cancellation between pieces is paid for where it occurs.
    """
    with ctx.workdps():
        x, m0, n0 = plan.x, plan.m0, plan.n0
        b_mp = _mp_b(plan.b)
        N0 = m0 + n0
        fac = {}  # combo -> (shift value, summed exponent)
        for f in term.factors:
            e = _exp_value(f) + (fac[f.combo][1] if f.combo in fac else 0)
            fac[f.combo] = (shift_value(f.shift, b_mp), e)
        gm, a = fac.get("m", (mpf(0), Fraction(0)))
        gn, c = fac.get("n", (mpf(0), Fraction(0)))
        gj, q = fac.get("mn", (mpf(0), Fraction(0)))
        coeff0 = _frac_to_mp(term.coeff)

        # truncation: sum_{k>T} (k+1) r^k = r^(T+1) ((T+2) - (T+1) r) / (1-r)^2
        r = abs(x.value)
        T = geometric_length(int(mp.ceil((ctx.dps + 8) * mp.log(10) / (-mp.log(r)))))
        rt = r ** (T + 1)
        while rt * ((T + 2) - (T + 1) * r) > mpf(10) ** (-(ctx.dps + 8)) * (1 - r) ** 2:
            T = geometric_length(T + 1)
            rt *= r
        corner = abs(coeff0) * r ** (N0 + term.xsel.d)
        for combo, (g, p) in fac.items():
            corner *= _least_base({"m": m0, "n": n0, "mn": N0}[combo], g) ** (-_frac_to_mp(p))

        # class weights phi(m mod L, n mod L); the (m+n) twist joins gamma_N
        L = plan.pair_mod
        phis = [[0 if w is None else _mp_value(w[0])
                 for w in (plan.weight(rm, rn, joint=False) for rn in range(L))]
                for rm in range(L)]
        phimax = max(abs(v) for row in phis for v in row)
        chi_mn = [_mp_value(plan.joint(N)) for N in range(plan.joint_mod)]

        # pieces (side, exponent, coefficient, power of 1/W) of the summand;
        # None: a two-sided shape outside two_pole_coeffs, convolved instead
        if a and c and a.denominator == 1 and c.denominator == 1:
            # Y = W - X: the coefficients for (X, -Y) pick up these signs
            ai, ci = int(a), int(c)
            A, B = two_pole_coeffs(ai, ci)
            pieces = [("m", i, _frac_to_mp(A[i] * (-1) ** (ai - i)), ai + ci - i)
                      for i in range(1, ai + 1)]
            pieces += [("n", j, _frac_to_mp(B[j] * (-1) ** ai), ai + ci - j)
                       for j in range(1, ci + 1)]
        elif a and c:
            pieces = None
        elif c:
            pieces = [("n", _num_exp(c), mpf(1), 0)]
        else:
            pieces = [("m", _num_exp(a), mpf(1), 0)]
        running = {(side, e): [mpf(0)] * L for (side, e, _, _) in pieces or ()}
        absrun = dict.fromkeys(running, mpf(0))  # sum of moduli, all classes
        # nonzero class weights (r, phi) of the running sums, by N mod L
        wtab = {
            "m": [[(rho, phis[rho][(s - rho) % L]) for rho in range(L)
                   if phis[rho][(s - rho) % L]] for s in range(L)],
            "n": [[(rho, phis[(s - rho) % L][rho]) for rho in range(L)
                   if phis[(s - rho) % L][rho]] for s in range(L)],
        }
        ea, ec, eq = _num_exp(a), _num_exp(c), _num_exp(q)
        xa, yc = [], []  # (m+g_m)^-a and (n+g_n)^-c tables of the convolution

        def diagonal(k):
            """Inner sum over m + n = N0 + k from the whole summand, and the
            sum of the moduli of its terms."""
            inner, size = mpf(0), mpf(0)
            for i in range(k + 1):
                t = phis[(m0 + i) % L][(n0 + k - i) % L] * xa[i] * yc[k - i]
                inner += t
                size += abs(t)
            return inner, size

        xp = x.value ** (N0 + term.xsel.d)
        total = mpf(0)
        mag = mpf(0)  # sum over N of |gamma_N| times the inner sum's moduli
        for k in range(T + 1):
            N = N0 + k
            for (side, e) in running:
                if side == "m":
                    t = (m0 + k + gm) ** (-e)
                    running[(side, e)][(m0 + k) % L] += t
                else:
                    t = (n0 + k + gn) ** (-e)
                    running[(side, e)][(n0 + k) % L] += t
                absrun[(side, e)] += abs(t)
            W = N + gm + gn
            if pieces is None or (a and c and abs(W) < 1):
                xa[len(xa):] = [(m0 + i + gm) ** (-ea) for i in range(len(xa), k + 1)]
                yc[len(yc):] = [(n0 + i + gn) ** (-ec) for i in range(len(yc), k + 1)]
                inner, size = diagonal(k)
            else:
                inner, size = mpf(0), mpf(0)
                for (side, e, coef, wexp) in pieces:
                    P = running[(side, e)]
                    part = sum(w * P[rho] for (rho, w) in wtab[side][N % L])
                    scale = coef * W ** (-wexp) if wexp else coef
                    inner += scale * part
                    size += abs(scale) * absrun[(side, e)]
                size *= phimax
            gamma = xp * chi_mn[N % len(chi_mn)]
            if q:
                gamma = gamma * (N + gj) ** (-eq)
            total += gamma * inner
            mag += abs(gamma) * size
            xp *= x.value
        total = total * coeff0
        tail = corner * rt * ((T + 2) - (T + 1) * r) / (1 - r) ** 2
        # each term carries O(T + N0 + L) roundings of relative size
        # 10^-(dps+8): the x^N recurrence, the running sums, the class sums
        # and the outer sum; one more digit covers the shift and W roundings
        rounding = abs(coeff0) * mag * (3 * T + N0 + L + 32) * mpf(10) ** (-(ctx.dps + 7))
        bound = tail + rounding + abs(total) * mpf(10) ** (-(ctx.dps + 2))
        return EvalResult(total, bound, "direct_tail")


def _least_base(u0, g):
    """min |u + g| over the integers u >= u0, for a real shift g."""
    if u0 + g >= 0:
        return abs(u0 + g)
    u = int(mp.floor(-g))
    return min(abs(u + g), abs(u + 1 + g))


def _num_exp(p: Fraction):
    """An exponent as an int when integral, else as an mpf."""
    return int(p) if p.denominator == 1 else _frac_to_mp(p)


# ---------------------------------------------------------------------------
# Single sums
# ---------------------------------------------------------------------------

def eval_single_reduction(term: SingleSumTerm, params, ctx: PrecisionContext,
                          cache: EvalCache | None = None) -> EvalResult:
    """Single sums over the residue classes n = rr + lam t, lam = plan.mod["n"].

    On the unit circle every class has a constant weight and x phase, so the
    sum is one periodic Hurwitz sum (specfun.periodic_zeta_sum, with its psi
    closed form at exponent 1). With |x| < 1 each class is a one-factor atom
    summed with the geometric phase x^(lam t).
    """
    with ctx.workdps():
        cache = cache or EvalCache(ctx)
        plan = ClassPlan(term, params)
        x = plan.x
        if x.kind == "zero":
            return _eval_x_zero(term, plan, params, ctx, cache)
        e = _num_exp(_exp_value(term.factor))
        gamma = shift_value(term.factor.shift, _mp_b(plan.b))
        coeff0 = _frac_to_mp(term.coeff)
        lam = plan.mod["n"]
        lam_e = mpf(lam) ** (-mpf(e))
        total = EvalResult(mpf(0), mpf(0), "reduction")
        terms = []
        for rr in range(lam):
            w = plan.weight(rr)
            if w is None:
                continue
            const = mpc(coeff0)
            if w[1] is not None:
                const = const / mp.sinpi(_frac_to_mp(w[1]))
            const = const * mpc(w[0])
            if term.xsel.kind == "xn":
                const = const * x.power(plan.xexp(rr), ctx)
            t0 = math.ceil((plan.n0 - rr) / lam)
            a = t0 + (rr + gamma) / lam
            if mp.re(a) <= 0:
                raise DomainError("single sum needs Re(n + shift) > 0 over its range")
            if x.kind == "num":
                atom = Atom(EvalResult(const, mpf(0), "reduction"), lam, ((rr + gamma, e),))
                total = total + _sum_atom(atom, t0, (x.value ** lam, mpf(1)), cache, ctx)
            else:
                terms.append((const * lam_e, a))
        if terms:
            total = total + periodic_zeta_sum(terms, e, ctx)
        return EvalResult(total.value, total.abs_error_bound, total.method)
