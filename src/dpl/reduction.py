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
the package's Euler-Maclaurin kernel (specfun.euler_maclaurin_row), the
only rows built here: every other zeta/psi value is read from a lattice
table. The whole outer sum is fixed point: Python ints in units of 2^-P,
one P per shape, with every cut counted into the bound.

What no argument changes is made once and kept for the process, in
functools.lru_caches: the Bernoulli coefficients of the zeta/psi tail
expansions and the tail starts they need (per kind, exponent, order and
unit), and the b-free atoms of the inner closed forms (_inner_form), as the
row kernel keeps its c_k mantissas. Everything else that outlives a call
lives per process in one store, STORE, under one budget of estimated bytes
(STORE_BYTES), the entries read or made least recently going first. A key
starts with its entry's kind and holds the exact arguments the entry was
made from, with the ctx and the mp.prec where they act, so an entry's
content depends on its key alone and every number is the same in any order
of evaluation and under any eviction. The kinds:
- row: the tail row of the Euler-Maclaurin kernel per (a, phi) (base_sums);
- series, bases: the fixed-point expansions of the tail factors and each
  set of tail base sums (series, base_sums);
- shape: the outer sum of each atom shape (an atom without its
  coefficient), scaled by the coefficient of every atom that has that shape
  (_sum_atom);
- table: the lattice tables that the direct blocks of the outer sums read,
  each power (N + phi)^-p and each zeta/psi value Z(N + phi) on the whole
  N, made once per (kind, exponent, phi, precision) and read at stride lam
  by every class, shape and point (_power_slice, _trans_slice); each inner
  zeta/psi value is one entry of a zeta/psi table (zeta, psi);
- plan, terms: what depends on a term and x but not on b, the term's
  ClassPlan (ClassPlan.of, keyed by the term, mp.prec and the parameters
  but b) with its classes, their weights and constants, and each group's
  expanded families (evaluator.eval_side). Every point reads them, so the
  entries that depend on b age out first.
A point at a new b evaluates the shifts, resolves what b's value decides
(the start of an m>b range, shifts that merge, the diagonals' start, every
DomainError check), reads its inner zeta/psi values, looks up or sums each
atom's shape and adds every atom's value and bound into one pair per term.

Residue-class splitting turns root-of-unity powers, character twists,
congruence constraints and 1/sin weights into finitely many constant-phase
classes first. ClassPlan holds that split exactly, for this route and for the
direct oracle alike; x = 0 keeps only the points whose x exponent vanishes,
each with its class weight. A single sum needs no inner closed form: on the
unit circle its classes make one periodic Hurwitz sum
(specfun.periodic_zeta_sum), and with |x| < 1 each class is a one-factor
atom with a geometric phase.

Terms weighted by x^(m+n) are summed along the diagonals N = m + n, inside
the disk, on the circle and at real exponents alike: the (m+n) part of the
summand depends on N alone, and the inner sum over one diagonal is a partial
sum in closed form (zeta or psi at the diagonal's end), so each term becomes
outer atoms in N, summed as every other atom is.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp

from .specfun import (
    MAX_ROOT_ORDER,
    DomainError,
    EvalResult,
    PrecisionContext,
    _SHAPE_GUARD,
    _ceil_shift,
    _check_s_real,
    _fix,
    _signed_man_exp,
    _to_mp,
    _unfix,
    as_root_of_unity,
    bernoulli,
    euler_maclaurin_row,
    geometric_length,
    hurwitz_zeta,  # noqa: F401  (perfbench's tests check that its tracer rebinds it here)
    periodic_zeta_sum,
    root_of_unity,
)
from .termlang import DoubleSumTerm, SingleSumTerm, expr_is_num


class ShapeError(ValueError):
    """Term shape outside the closed-form catalog; caller may fall back."""


# ---------------------------------------------------------------------------
# Bound parameter values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XSpec:
    """Evaluation point x, in one normal form made where x is bound.

    'zero' is x = 0; 'ru' is the exact root of unity e^(2 pi i a/f), x = 1
    being f = 1, a = 0; 'num' is any other point, 0 < |x| < 1. XSpec.number
    is the only code that decides which a numeric x is.
    """

    kind: str  # 'zero' | 'ru' | 'num'
    f: int = 1
    a: int = 0
    value: object = None  # mpf/mpc for 'num'

    @staticmethod
    def one():
        return XSpec("ru")

    @staticmethod
    def zero():
        return XSpec("zero")

    @staticmethod
    def root(f, a):
        a %= f
        g = math.gcd(a, f)
        return XSpec("ru", f // g, a // g)

    @staticmethod
    def number(v):
        """The normal form of a numeric x, at the precision in force: a zero
        imaginary part is dropped; 0 is zero; a root of unity of order up to
        MAX_ROOT_ORDER (as_root_of_unity) is that exact root; any other
        |x| >= 1 raises DomainError; the rest is num."""
        v = _to_mp(v)
        v = v.real if isinstance(v, mpc) and not v.imag else v
        if not v:
            return XSpec.zero()
        # the roots met most, without as_root_of_unity's search
        for (exact, f, a) in ((1, 1, 0), (-1, 2, 1), (1j, 4, 1), (-1j, 4, 3)):
            if v == exact:
                return XSpec.root(f, a)
        root = as_root_of_unity(v)
        if root is not None:
            return XSpec.root(*root)
        if abs(v) >= 1:
            raise DomainError(f"x = {mp.nstr(v, 8)} is no root of unity of order <= "
                              f"{MAX_ROOT_ORDER}: a geometric sum needs |x| < 1")
        return XSpec("num", value=v)

    @property
    def root_pair(self):
        """(f, a) for x = e^(2 pi i a/f) on the unit circle, else None."""
        return (self.f, self.a) if self.kind == "ru" else None

    def numeric(self, ctx) -> object:
        if self.kind == "zero":
            return mpf(0)
        if self.kind == "ru":
            return root_of_unity(self.f, self.a, ctx)
        return self.value

    def power(self, e: int, ctx):
        """x^e, exact for roots of unity."""
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
# The process store: every entry that depends on an argument
# ---------------------------------------------------------------------------

class Store(collections.OrderedDict):
    """Entries by key, of at most limit bytes in all as _weigh estimates
    them; past the limit the entries read or made least recently go first.
    An entry heavier than the limit is returned but not kept, and evicts
    nothing."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.weight = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            value = super().get(key)
            if value is not None:
                self.move_to_end(key)
            return value

    def put(self, key, value):
        weight = _weigh(key, value)
        with self.lock:
            if weight > self.limit:
                return value
            if key in self:
                self.weight -= _weigh(key, self[key])
            self[key] = value
            self.move_to_end(key)
            self.weight += weight
            while self.weight > self.limit:
                self.weight -= _weigh(*self.popitem(last=False))
            return value


def _weigh(key, value) -> int:
    """An estimate of the bytes of STORE's entry at key, key included, from
    what it holds, by its kind key[0]: per table entry, per int of a tail
    row, per coefficient of a series and per order of a base-sum set, else per
    entry, as tracemalloc measured them after a 50-digit registry battery
    (a table entry or an int of a row takes 15-25% more at 100 digits)."""
    kind = key[0]
    if kind == "table":
        return 72 * len(value.vals)
    if kind == "row":       # zeta, logs and their errors per column
        return 320 * len(value.zeta)
    if kind == "series":
        return 36 * (len(value.a) + len(value.b or ()))
    if kind == "bases":
        return 280 * len(value[0])
    return {"shape": 700, "plan": 2400, "terms": 1800}[kind]


# The one budget of STORE, in estimated bytes: a whole 50-digit registry
# battery makes some 10 MB of entries, of which the last 8 MB used stay, and
# a long b sweep holds flat memory at it, since the entries that depend on b
# are never read again.
STORE_BYTES = 8 << 20
STORE = Store(STORE_BYTES)


def _key(kind, ctx, *parts):
    """A key of STORE: the kind, the ctx and the mp.prec in force, then parts."""
    return (kind, ctx, mp.prec) + parts


def stored(key, make):
    """STORE's entry at key, made by make() when missing."""
    value = STORE.get(key)
    return value if value is not None else STORE.put(key, make())


def zeta(j, a) -> EvalResult:
    """zeta(j, a), j >= 1 + 1e-3 or an int >= 2, a > 0 (_inner_value)."""
    jm = _check_s_real(j, 2)
    return _inner_value(("zeta", int(jm) if jm == int(jm) else jm), a)


def psi(a) -> EvalResult:
    """psi(a) for a > 0, read from its lattice table (_inner_value)."""
    return _inner_value(("psi",), a)


def series(ctx, factor, R, v0, P):
    """The fixed-point expansion of one tail factor about v0: ('pow', p,
    delta), ('zeta', j) or ('psi',)."""
    def make():
        if factor[0] == "pow":
            return _power_series(R, factor[1], factor[2], v0, P)
        if factor[0] == "zeta":
            return _zeta_series(R, factor[1], v0, P)
        return _psi_series(R, v0, P)
    return stored(_key("series", ctx, factor, R, v0, P), make)


def base_sums(ctx, abase, v0, phi, lam, R, P):
    """The tail base sums v0^r sum_{u>=U0} v^-(r+phi), scaled as the
    series are, from the tail row at abase = U0 + gamma*/lam, the columns
    1..R+1 with the log sums, kept in STORE: for r = 1..R+1, lam^-phi
    abase^r zeta(r + phi, abase) and lam^-phi abase^r (log lam zeta(r +
    phi, abase) + sum_k (k + abase)^-(r+phi) log(k + abase)), each an (int,
    error) pair in units of 2^-P. The row holds abase^s times each sum as
    ints, so a pair is the row's int moved to units 2^-P, times log lam and
    (lam abase)^-phi when they are not 1, each a cut int; the error holds
    the row's own, one unit per cut, and the rounding of abase against
    v0/lam (shapes at one shift share the row); (0, 0) where r + phi <= 1."""
    key = _key("bases", ctx, abase, v0, phi, lam, R, P)
    sums = STORE.get(key)
    if sums is not None:
        return sums
    tail_row = stored(_key("row", ctx, abase, phi),
                      lambda: euler_maclaurin_row(abase, phi, 1, R + 1, ctx, logs=True))
    sh = tail_row.P - P
    with mp.workprec(P + 20):
        f = _fix((lam * abase) ** -phi, P) if phi else None
        ll = _fix(mp.log(lam), P)
        # moving the argument and the scale by rel moves each sum by at
        # most (2r + 3) rel (|it| + |its zeta part|)
        rel = _fix(abs(abase * lam - v0) / v0, P) + 1 if abase * lam != v0 else 0
    B, L = [(0, 0)], [(0, 0)]
    for r in range(1, R + 2):
        if r + phi <= 1:
            B.append((0, 0))
            L.append((0, 0))
            continue
        i = r - tail_row.r_lo
        z, ez = tail_row.zeta[i], tail_row.zeta_err[i]
        lz, el = tail_row.logs[i], tail_row.log_err[i]
        if sh >= 0:
            z, ez = z >> sh, _ceil_shift(ez, sh) + 1
            lz, el = lz >> sh, _ceil_shift(el, sh) + 1
        else:
            z, ez, lz, el = z << -sh, ez << -sh, lz << -sh, el << -sh
        if ll:      # log lam, off by less than 2 units
            lz, el = lz + ((ll * z) >> P), el + ((abs(ll) * ez + 2 * (abs(z) + ez)) >> P) + 2
        if f is not None:   # (lam abase)^-phi, off by less than 2 units
            z, ez = (f * z) >> P, ((abs(f) * ez + 2 * (abs(z) + ez)) >> P) + 2
            lz, el = (f * lz) >> P, ((abs(f) * el + 2 * (abs(lz) + el)) >> P) + 2
        if rel:
            mz = abs(z) + ez
            ez += (((2 * r + 3) * rel * 2 * mz) >> P) + 1
            el += (((2 * r + 3) * rel * (abs(lz) + el + mz)) >> P) + 1
        B.append((z, ez))
        L.append((lz, el))
    return STORE.put(key, (B, L))


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

    coef is a (value, bound) pair, so bounds from folded-in constants propagate.
    The powers are in normal form: powers given at one shift merge into one,
    their exponents added, a zero exponent drops out and a Fraction exponent
    becomes an int or an mpf (_num_exp).
    """

    coef: tuple
    slope: int
    rpows: tuple  # ((gamma, p) ...), gammas distinct, p != 0 an int or an mpf
    trans: tuple | None = None  # ('zeta', j, gamma_z) | ('psi', gamma_z)

    def __post_init__(self):
        merged = {}
        for (g, p) in self.rpows:
            merged[g] = merged.get(g, 0) + p
        self.rpows = tuple((g, _num_exp(p) if isinstance(p, Fraction) else p)
                           for (g, p) in merged.items() if p)


# ---------------------------------------------------------------------------
# Fixed point: ints in units of 2^-P
# ---------------------------------------------------------------------------
#
# An outer sum is summed in Python ints in units of 2^-P, with one P per
# shape: the working precision plus specfun's _SHAPE_GUARD bits (the unit
# its rows bring their remainders below), raised until every shift of
# the shape is an exact multiple of 2^-P. Products are summed exactly (in
# units of 2^-2P) and cut once; every cut int division or shift, and every
# mpf value taken into an int, is off by less than one unit, and the engine
# carries a count of such units with each quantity into the bound.

_LN2 = math.log(2)


def _shape_unit(shifts) -> int:
    """P for a shape: the working precision plus guard bits, and at least the
    number of fraction bits of every shift, so that every base is exact."""
    P = mp.prec + _SHAPE_GUARD
    for g in shifts:
        if g:
            P = max(P, -_signed_man_exp(mpf(g))[1])
    return P


def _exponent_parts(p):
    """(floor(p), frac(p)) of an int, Fraction or mpf exponent; frac is 0 or an mpf."""
    if isinstance(p, int):
        return p, 0
    pm = mpf(p) if not isinstance(p, Fraction) else _frac_to_mp(p)
    k = int(mp.floor(pm))
    return k, (pm - k if pm != k else 0)


class _Series:
    """sum_r (a[r] + b[r] log v) (v0/v)^r, for v >= v0, in fixed point.

    a[r] and b[r] are ints in units of 2^-P: the coefficients of v^-r scaled
    by v0^-r, so they stay O(1) and fall with r, and scaling every
    coefficient leaves the convolution unchanged. Each is within err units
    of the exact coefficient, and none below index lo is nonzero. What the
    series leaves out is at most (rem + rem_log log v) (v0/v)^(R+1) units.
    b is None without logs; at most one factor of a product carries them.
    """

    __slots__ = ("R", "P", "lo", "a", "b", "err", "rem", "rem_log")

    def __init__(self, R, P, lo=0, logs=False):
        self.R, self.P, self.lo = R, P, lo
        self.a = [0] * (R + 1)
        self.b = [0] * (R + 1) if logs else None
        self.err = self.rem = self.rem_log = 0

    def mul(self, other):
        """The product truncated after index R.

        Only the kept triangle i + j <= R is convolved; each kept coefficient
        is summed exactly and cut once. The dropped pairs i + j > R are at
        most |s_i||o_j| (v0/v)^(R+1) each for v >= v0, and their sum comes
        from suffix sums in O(R). The kept part of a factor is at most
        sum |a| + sum |b| log v for v >= v0, which bounds each remainder
        times the other factor. Every modulus carries the coefficient's err.
        """
        if self.b is not None:
            if other.b is not None:
                raise ShapeError("log^2 terms in an outer tail")
            self, other = other, self   # the log-bearing factor second
        R, P = self.R, self.P
        logs = other.b is not None
        out = _Series(R, P, self.lo + other.lo, logs)
        pairs = [(other.a, out.a)] + ([(other.b, out.b)] if logs else [])
        for y, acc in pairs:
            nz = [(j, yj) for j, yj in enumerate(y) if yj]
            for i, xi in enumerate(self.a):
                if xi:
                    k = R - i
                    for j, yj in nz:
                        if j > k:
                            break
                        acc[i + j] += xi * yj
            acc[:] = [c >> P for c in acc]
        e, oe = self.err, other.err
        sa = self.moduli(self.a)
        oa = other.moduli(other.a)
        ob = other.moduli(other.b) if logs else [0] * (R + 1)
        AS, AO, BO = sum(sa), sum(oa), sum(ob)
        out.err = _ceil_shift(e * (AO + BO) + oe * AS + (R + 1) * e * oe, P) + 1
        # the pairs (i, j > R - i): suffix sums of the other factor's moduli
        dropped = dropped_log = 0
        fa = fb = 0
        for i in range(1, R + 1):
            fa += oa[R + 1 - i]
            fb += ob[R + 1 - i]
            dropped += sa[i] * fa
            dropped_log += sa[i] * fb
        out.rem = _ceil_shift(self.rem * AO + other.rem * AS + self.rem * other.rem + dropped, P)
        out.rem_log = _ceil_shift(self.rem * BO + other.rem_log * AS + self.rem * other.rem_log
                                  + dropped_log, P)
        return out

    def moduli(self, coefs):
        """|c_r| + err from index lo on, 0 below it."""
        return [abs(c) + self.err if r >= self.lo else 0 for r, c in enumerate(coefs)]

    def value_at_v0(self, log_v0):
        """(the series at v = v0, its error in units); log_v0 is (int, err)."""
        L, eL = log_v0
        n = self.R + 1 - self.lo
        val = sum(self.a)
        err = self.err * n + self.rem + 1
        if self.b is not None:
            sb = sum(self.b)
            val += (sb * L) >> self.P
            err += _ceil_shift((self.err * n) * (abs(L) + eL) + abs(sb) * eL
                               + self.rem_log * (abs(L) + eL), self.P) + 1
        return val, err


def _power_series(R, p, delta, v0, P):
    """(v + delta)^(-p) = v^-frac(p) sum_r C(-p, r) delta^r v^-(floor(p)+r), scaled.

    The coefficients come from the whole exponent p: index floor(p) + r holds
    C(-p, r) delta^r v0^-(floor(p)+r), and the row that sums the tail carries
    frac(p), so an atom may hold one fractional exponent. Each coefficient
    follows from the last as t (p + r)/(r + 1) (-delta/v0), two cut int
    steps. Past index R the binomial tail is bounded geometrically, in
    q = |delta|/v0 max(1, (p + r)/(r + 1)).
    """
    k, _ = _exponent_parts(p)
    pq = Fraction(p) if isinstance(p, (int, Fraction)) else _mpf_fraction(p)
    pn, pd = pq.numerator, pq.denominator
    s = _Series(R, P, lo=k)
    with mp.workprec(P + 20):
        t = _fix(mpf(v0) ** (-k), P)
        D = _fix(mpf(delta) / v0, P)
    e, eD = 2, (2 if delta else 0)
    r = 0
    while k + r <= R:
        s.a[k + r] = t
        s.err = max(s.err, e)
        if not delta:
            return s
        e = ((e * (abs(D) + eD) + abs(t) * eD) >> P) + 2
        t = (t * D) >> P
        num, den = -(pn + r * pd), pd * (r + 1)
        e = (e * abs(num)) // den + 2
        t = (t * num) // den
        r += 1
    num, den = abs(pn + r * pd), pd * (r + 1)
    Q = -((-(abs(D) + eD) * max(num, den)) // den)     # ceil of q in units
    if Q >= 1 << P:
        raise ShapeError("outer tail starts inside the expansion radius")
    s.rem = -((-(abs(t) + e) << P) // ((1 << P) - Q))
    return s


def _mpf_fraction(x):
    """An mpf as the exact Fraction it holds."""
    m, e = _signed_man_exp(mpf(x))
    return Fraction(m) * Fraction(2) ** e


def _expansion_series(R, P, v0, terms, lo, logs=False):
    """A series from expansion terms (index, mpf coefficient), indices rising.

    Terms up to index R are kept, scaled by v0^-index; the term at R + 1 is
    a remainder item, and the expansion envelopes its sum for real v > 0, so
    twice the first term past R + 1 bounds all that is left out.

    The scale is one running power w = v0^-n, an int mantissa of at most
    P + 20 bits and an exponent, carried from index to index by a product
    with the mantissa of 1/v0 (rounded at P + 20 bits), cut back to P + 20
    bits; c w is the exact product of the mantissas, cut once into units of
    2^-P. With u = 2^-(P+20), 1/v0 is off by at most u relative, so w at
    index n by n u from it and 2n u from n cuts; c comes from
    _expansion_coefficients with fewer than 3n + 6 roundings at P + 20 bits
    (a Bernoulli number over (2r)!, times a Pochhammer symbol grown by four
    roundings per r, at n >= 2r). So c w is off by less than (6n + 6) u
    relative, (6n + 8) u with the higher orders, and a coefficient of t
    units by less than 1 + ceil((6n + 8)(|t| + 1) u) units, the 1 for the
    cut: 2 units while (6n + 8)(|t| + 1) <= 2^(P+20). err holds the largest
    over the kept indices; a remainder item is |t| plus its own.
    """
    s = _Series(R, P, lo=lo, logs=logs)
    s.err = 2
    Q = P + 20
    with mp.workprec(Q):
        im, ie = _signed_man_exp(1 / mpf(v0))
    wm, we, at = 1, 0, 0
    for n, c in terms:
        while at < n:
            wm, we, at = wm * im, we + ie, at + 1
            cut = wm.bit_length() - Q
            if cut > 0:
                wm, we = wm >> cut, we + cut
        cm, ce = _signed_man_exp(c)
        sh = ce + we + P
        t = (cm * wm) << sh if sh >= 0 else (cm * wm) >> -sh
        e = 1 + _ceil_shift((6 * n + 8) * (abs(t) + 1), Q)
        if n <= R:
            s.a[n] += t
            s.err = max(s.err, e)
        elif n == R + 1:
            s.rem += abs(t) + e
        else:
            s.rem += 2 * (abs(t) + e)
            return s


def _b2(r):
    """The Bernoulli number B_2r as an mpf."""
    b = bernoulli(2 * r)
    return mpf(b.numerator) / b.denominator


def _expansion_coefficients(kind, j=None):
    """(index, mpf coefficient) of the zeta(j)/psi expansion about v =
    infinity, indices rising, at the precision in force:

        zeta(j, v) = v^(1-j)/(j-1) + v^-j/2 + sum_{r>=1} B_2r/(2r)! (j)_(2r-1) v^-(j+2r-1),
        psi(v) = log v - 1/(2v) - sum_{r>=1} B_2r/(2r) v^-2r,

    index n standing for v^-(n + frac(j)) (the row that sums the tail
    carries frac(j)); the log v of psi is not among them.
    """
    if kind == "psi":
        yield 1, -mpf(1) / 2
        for r in itertools.count(1):
            yield 2 * r, -_b2(r) / (2 * r)
        return
    k, _ = _exponent_parts(j)
    jm = _frac_to_mp(j) if isinstance(j, Fraction) else mpf(j)
    yield k - 1, 1 / (jm - 1)
    yield k, mpf(1) / 2
    poch, fact = jm, mpf(2)        # (j)_(2r-1) and (2r)!
    for r in itertools.count(1):
        yield k + 2 * r - 1, _b2(r) / fact * poch
        poch *= (jm + 2 * r - 1) * (jm + 2 * r)
        fact *= (2 * r + 1) * (2 * r + 2)


@functools.lru_cache(maxsize=256)
def _expansion_terms(kind, j, R, P) -> tuple:
    """The terms of _expansion_coefficients at P + 20 bits, through the
    first past index R + 1: all that _expansion_series reads. They depend on
    no argument of a sum, so each (kind, j, R, P) is made once per process
    (the 256 met last are kept)."""
    terms = []
    with mp.workprec(P + 20):
        for n, c in _expansion_coefficients(kind, j):
            terms.append((n, c))
            if n > R + 1:
                return tuple(terms)


def _zeta_series(R, j, v0, P):
    """zeta(j, v) about v = infinity, for real j > 1 (_expansion_coefficients),
    scaled by v0."""
    k, _ = _exponent_parts(j)
    return _expansion_series(R, P, v0, _expansion_terms("zeta", j, R, P), k - 1)


def _psi_series(R, v0, P):
    """psi(v) about v = infinity (_expansion_coefficients), scaled by v0."""
    s = _expansion_series(R, P, v0, _expansion_terms("psi", None, R, P), 0, logs=True)
    s.b[0] = 1 << P     # log v, exactly
    return s


# ---------------------------------------------------------------------------
# Choosing the tail: R per precision, the tail start from both remainders
# ---------------------------------------------------------------------------

def _tail_order(prec: int) -> int:
    """R, the last kept power of an Euler-Maclaurin outer tail, per working
    precision. Every shape at one precision keeps the same R, so every tail
    row at one argument has the same length and is built once."""
    return prec // 7 + 2


def _log2_b2(r: int) -> float:
    """log2 |B_2r|/(2r)!."""
    b = bernoulli(2 * r)
    return math.log2(abs(b.numerator)) - math.log2(b.denominator) - math.lgamma(2 * r + 1) / _LN2


def _expansion_log2(kind, j=None):
    """(index, log2 |coefficient|) of the zeta(j)/psi expansion, indices rising."""
    if kind == "psi":
        yield 1, -1.0
        for r in itertools.count(1):
            yield 2 * r, _log2_b2(r) + math.lgamma(2 * r) / _LN2
    else:
        jf = float(j)
        k = math.floor(jf)
        yield k - 1, -math.log2(jf - 1)
        yield k, -1.0
        for r in itertools.count(1):
            yield k + 2 * r - 1, _log2_b2(r) + (math.lgamma(jf + 2 * r - 1) - math.lgamma(jf)) / _LN2


@functools.lru_cache(maxsize=256)
def _expansion_need(kind, j, R, P) -> float:
    """The least v0 at which the expansion, cut after index R, leaves out
    less than 2^-(P+4); made once per (kind, j, R, P) for the process."""
    need = 0.0
    for n, c in _expansion_log2(kind, j):
        if n == R + 1:
            need = max(need, (c + P + 4) / n)
        elif n > R + 1:
            return 2 ** max(need, (c + 1 + P + 4) / n)


def _binomial_need(p, delta, R, P) -> float:
    """The least v0 at which (v + delta)^-p, cut after index R, leaves out
    less than 2^-(P+4), with q <= 1/2."""
    pf = float(p)
    k = math.floor(pf)
    if not delta:
        return 2 ** ((P + 5) / k) if k > R else 0.0
    rs = max(R + 1 - k, 0)
    lc = (math.lgamma(pf + rs) - math.lgamma(pf) - math.lgamma(rs + 1)) / _LN2
    d = abs(float(delta))
    need = 2 ** ((lc + rs * math.log2(d) + P + 5) / (k + rs))
    return max(need, 2 * d * max(1.0, (pf + rs) / (rs + 1)))


@functools.lru_cache(maxsize=None)
def _standard_start(R: int, P: int) -> float:
    """v0 at which the psi and every zeta(j), j = 2..8, expansion meets the
    target after index R: the tail start of most shapes, so that shapes at
    one shift share it and their tail rows; made once per (R, P) for the
    process."""
    return max([_expansion_need("psi", None, R, P)]
               + [_expansion_need("zeta", j, R, P) for j in range(2, 9)])


def _tail_start(need, gamma, lam, u0, R, P) -> int:
    """U0, the least u >= u0 at which v = lam*u + gamma reaches V: the
    standard start (_standard_start), doubled until it reaches need, the
    least v0 at which every expansion of a shape meets its target."""
    V = _standard_start(R, P)
    while V < need:
        V *= 2
    U0 = max(u0, math.ceil((V - float(gamma)) / lam))
    while lam * U0 + gamma < need:
        U0 += 1
    return U0


# ---------------------------------------------------------------------------
# Lattice tables: the factors of the direct blocks on the whole numbers
# ---------------------------------------------------------------------------
#
# A factor of an outer atom at slope lam and shift g takes its values at
# lam*u + g = N + phi, with N = lam*u + floor(g) whole and phi = frac(g). So
# the classes of a root of unity, the terms of a side and the points at one
# b read one table of the factor on the whole N, each at stride lam from
# its own start: a power table, (N + phi)^-p, or a zeta/psi table, Z(N +
# phi) tabled down from its expansion at a top N. A table's content depends
# on its key alone, (kind, exponent, phi in units, P), with mp.prec and the
# top for a zeta/psi table; the top is the request's rung, the least
# multiple of _RUNG at or above lam*U0 + floor(g). A power table grows entry
# by entry, a zeta/psi table only downwards, by its recurrence, so every
# entry read is the same in any order of requests. The tables live per
# process, in STORE.

_RUNG = 32


class _Lattice:
    """The entries vals[i] of one lattice table at N = lo + i, ints in units
    of 2^-P, each off by less than errs[i] units (a list, or a range where
    they fall by one per entry; None: by less than one) beyond top_err, the
    error of a zeta/psi table's top value."""

    __slots__ = ("lo", "vals", "errs", "top_err")

    def __init__(self, lo, vals, errs=None, top_err=0):
        self.lo, self.vals, self.errs, self.top_err = lo, vals, errs, top_err


def _lattice_point(g, P):
    """(floor(g), frac(g) in units of 2^-P) of a shift g, exact: P holds
    every shift."""
    G = _fix(g, P)
    return G >> P, G & ((1 << P) - 1)


def _rung(N):
    """The least multiple of _RUNG at or above N."""
    return -(-N // _RUNG) * _RUNG


def _lattice_floor(start, Phi):
    """Where a table that serves N >= start begins: at start past _RUNG, else
    at the first N with N + phi > 0, so that the classes of one lattice,
    which start a few N apart, share one build without reaching a pole."""
    return start if start > _RUNG else min(start, 0 if Phi else 1)


def _power_entries(k, frac, Phi, P, lo, hi):
    """(N + phi)^-(k + frac) for N in [lo, hi): (values, their errors, None
    for an int exponent) in units of 2^-P.

    A value is one cut division, 2^(P(k+1)) // W^k with W = (N + phi) 2^P
    exact, so it is off by less than one unit; a fractional exponent
    multiplies in F = W^-frac, a cut mpf power, and the cut product t F is
    off by less than ((2|t| + |F|) >> P) + 2 units. Where the power has no
    value, W = 0 or, under a fractional exponent, W < 0, the entry is 0:
    _power_slice raises before it would read one.
    """
    one = 1 << P
    num = 1 << (P * (k + 1))
    bases = range(lo * one + Phi, hi * one + Phi, one)
    if not frac:
        return [num // W ** k if W else 0 for W in bases], None
    vals, errs = [], []
    with mp.workprec(P + 20):
        for W in bases:
            if W <= 0:
                vals.append(0)
                errs.append(0)
                continue
            t = num // W ** k
            F = _fix(_unfix(W, P) ** -frac, P)
            vals.append((t * F) >> P)
            errs.append(((abs(t) * 2 + abs(F)) >> P) + 2)
    return vals, errs


def _power_table(tab, p, Phi, P, start, stop):
    """The power table of (N + phi)^-p, tab (None: none yet) grown entry by
    entry to serve N in [start, stop), from _lattice_floor up to the rung
    of stop."""
    k, frac = _exponent_parts(p)
    lo, hi = _lattice_floor(start, Phi), _rung(stop)
    if tab is None:
        return _Lattice(lo, *_power_entries(k, frac, Phi, P, lo, hi))
    top = tab.lo + len(tab.vals)
    lo, hi = min(lo, tab.lo), max(hi, top)
    below, eb = _power_entries(k, frac, Phi, P, lo, tab.lo)
    above, ea = _power_entries(k, frac, Phi, P, top, hi)
    return _Lattice(lo, below + tab.vals + above,
                    None if tab.errs is None else eb + tab.errs + ea)


def _power_slice(g, p, lam, u0, n, P):
    """(values, error) of (lam*u + g)^-p for u in [u0, u0 + n), n > 0, read
    at stride lam from the power table at (p, frac(g), P): ints in units of
    2^-P, each off by less than error units. ShapeError where a base read
    is 0, or not positive under a fractional p."""
    N0, Phi = _lattice_point(g, P)
    k, frac = _exponent_parts(p)
    start, stop = lam * u0 + N0, lam * (u0 + n - 1) + N0 + 1
    if k < 0:
        raise ShapeError("negative outer exponent")
    if not Phi and 0 in range(start, stop, lam):
        raise ShapeError("outer factor vanishes in the direct block")
    if frac and start + (1 if Phi else 0) <= 0:
        raise ShapeError("fractional power of a nonpositive outer base")
    key = ("table", "pow", p, Phi, P)
    tab = STORE.get(key)
    if tab is None or start < tab.lo or stop > tab.lo + len(tab.vals):
        tab = STORE.put(key, _power_table(tab, p, Phi, P, start, stop))
    at = slice(start - tab.lo, stop - tab.lo, lam)
    return tab.vals[at], 1 if tab.errs is None else max(tab.errs[at])


def _trans_top(trans, Phi, P, N):
    """Z(N + phi) from its tail expansion at v0 = N + phi, cut after the
    order of the precision (_tail_order): (value, its error) in units of
    2^-P."""
    kind = trans[0]
    R = _tail_order(mp.prec)
    v0 = _unfix((N << P) + Phi, P)      # exact
    zs = _psi_series(R, v0, P) if kind == "psi" else _zeta_series(R, trans[1], v0, P)
    with mp.workprec(P + 20):
        log_v0 = (_fix(mp.log(v0), P), 2) if kind == "psi" else (0, 0)
        top, top_err = zs.value_at_v0(log_v0)
        jfrac = _exponent_parts(trans[1])[1] if kind == "zeta" else 0
        if jfrac:   # the series stands for v^-frac(j) times its sum
            F = _fix(v0 ** -jfrac, P)
            top, top_err = (top * F) >> P, ((top_err * abs(F) + abs(top) * 2) >> P) + 2
    return top, top_err


def _trans_table(trans, Phi, lo, hi, top, err, P):
    """Z(N + phi) for whole N in [lo, hi) as ints in units of 2^-P.

    Z is zeta(j, .), j an int, a Fraction or an mpf, or psi. The table runs
    down from top, Z at N = hi, off by err units, by the exact recurrences
    zeta(j, a) = zeta(j, a+1) + a^-j and psi(a) = psi(a+1) - 1/a; each new
    power is one cut int division, and one more unit (times a cut mpf power
    for a fractional j, with its cut product's units). Returns the values
    and, for each, the units it may be off by beyond the error of the value
    the table was first tabled down from (a range for an int j or psi).
    ShapeError if an argument is 0, or negative under a fractional j.
    """
    kind, one = trans[0], 1 << P
    ji, frac = _exponent_parts(trans[1]) if kind == "zeta" else (1, 0)
    if (not Phi and lo <= 0 < hi) or (frac and lo + (1 if Phi else 0) <= 0):
        raise ShapeError("zeta/psi argument at a pole or fractional power of a negative")
    args = range((hi - 1) * one + Phi, (lo - 1) * one + Phi, -one)     # top down
    if kind == "psi":
        steps = (-((one << P) // A) for A in args)
    elif not frac:
        num = 1 << (P * (ji + 1))
        steps = (num // A ** ji for A in args)
    else:
        num, vals, errs = 1 << (P * (ji + 1)), [], []
        with mp.workprec(P + 20):
            for A in args:
                t = num // A ** ji
                F = _fix(_unfix(A, P) ** -frac, P)
                top += (t * F) >> P
                err += ((abs(t) * 2 + abs(F)) >> P) + 2
                vals.append(top)
                errs.append(err)
        return vals[::-1], errs[::-1]
    vals = list(itertools.accumulate(steps, initial=top))[:0:-1]
    return vals, range(err + hi - lo, err, -1)


def _trans_slice(trans, lam, u0, n, P, U0=None):
    """(values, errors, top error) of the zeta/psi factor Z(lam*u + gamma)
    for u in [u0, u0 + n), n > 0, read at stride lam from the zeta/psi table
    at (trans's kind and j, frac(gamma), P, mp.prec, the rung of lam*U0 +
    floor(gamma)), U0 >= u0 + n - 1 the tail start (None: u0 + n): ints in
    units of 2^-P, each off by less than its error plus the top error. A
    new table holds its top, Z there from its expansion (_trans_top); a
    table grows downwards only (_trans_table)."""
    kind, gz = trans[0], trans[-1]
    N0, Phi = _lattice_point(gz, P)
    start, top = lam * u0 + N0, _rung(lam * (u0 + n if U0 is None else U0) + N0)
    key = ("table", kind, trans[1] if kind == "zeta" else None, Phi, P, mp.prec, top)
    tab = STORE.get(key)
    if tab is None or start < tab.lo:
        if tab is None:
            value, err = _trans_top(trans, Phi, P, top)
            tab = _Lattice(top, [value], [0], err)
        lo = _lattice_floor(start, Phi)
        vals, errs = _trans_table(trans, Phi, lo, tab.lo, tab.vals[0], tab.errs[0], P)
        # an int j or psi: top - N units at N, one per step, kept as a range
        errs = range(errs[0], -1, -1) if isinstance(errs, range) else errs + tab.errs
        tab = STORE.put(key, _Lattice(lo, vals + tab.vals, errs, tab.top_err))
    at = slice(start - tab.lo, start - tab.lo + lam * (n - 1) + 1, lam)
    return tab.vals[at], tab.errs[at], tab.top_err


def _inner_value(trans, a) -> EvalResult:
    """Z(a) at a > 0, Z = ('zeta', j) or ('psi',): the entry at N = floor(a)
    of its table at frac(a) (_trans_slice), topped at the tail start of a
    lone Z(u + a), in units 2^-P that hold a and lie mp.prec + _SHAPE_GUARD
    bits below 1 and a^-j < zeta(j, a). The bound holds the entry's units, its
    top's, its rounding to mp.prec and that of a, an mpf made from a
    rational such as (r + b)/lam by a few roundings, counted as 4 of
    2^-prec: 4 |Z'(a)| a 2^-prec, at most 4 j |Z| 2^-prec (zeta(j+1, a) <=
    zeta(j, a)/a) or 4 (1 + 1/a) 2^-prec (psi'(a) <= 1/a^2 + 1/a)."""
    a = _to_mp(a)
    if isinstance(a, mpc) or not a > 0:
        raise DomainError("zeta(j, a) and psi(a) need a real a > 0")
    j = trans[1] if trans[0] == "zeta" else None
    P = _shape_unit([a]) + (math.ceil(j * math.log2(a)) if j and a > 1 else 0)
    R = _tail_order(mp.prec)
    U0 = _tail_start(_expansion_need(trans[0], j, R, P), a, 1, 0, R, P)
    (v,), (e,), top_err = _trans_slice(trans + (a,), 1, 0, 1, P, U0)
    # |Z'(a)| a in units of 2^-P; 1/a rounded up from a's exact units
    slope = math.ceil(j) * abs(v) if j is not None else \
        (1 << P) - ((-1 << 2 * P) // _fix(a, P))
    units = e + top_err + _ceil_shift(abs(v) + 4 * slope, mp.prec)
    return EvalResult(+_unfix(v, P), _unfix(units, P), "euler_maclaurin")


# ---------------------------------------------------------------------------
# Outer summation of one atom
# ---------------------------------------------------------------------------

def _sum_atom(atom: Atom, u0: int, phase, ctx) -> tuple:
    """sum_{u>=u0} phase(u) * atom(u), as (value, bound).

    phase is None (constant 1) for the Euler-Maclaurin path, or a pair
    (X, x0) meaning x0 * X^u with |X| < 1 for the geometric path. The sum
    without atom.coef depends on the atom's shape alone, so STORE holds each
    shape's once and it is scaled by each atom's coefficient, with the bound
    of EvalResult.times; the product is one more rounding at working
    precision.
    """
    shape_sum = stored(_key("shape", ctx, atom.slope, atom.rpows, atom.trans, u0, phase),
                       lambda: _sum_shape(atom, u0, ctx) if phase is None
                       else _sum_atom_geometric(atom, u0, *phase, ctx))
    (cv, ce), sv, se = atom.coef, shape_sum.value, shape_sum.abs_error_bound
    value = cv * sv
    return value, abs(cv) * se + abs(sv) * ce + ce * se + abs(value) * mp.ldexp(1, 2 - mp.prec)


def _sum_shape(atom: Atom, u0: int, ctx, phase=None) -> EvalResult:
    """sum_{u>=u0} phase(u) * atom(u) / atom.coef: a direct block up to U0,
    then a tail, summed in ints in units of 2^-P.

    Every factor is expanded in inverse powers of v = slope*u + gamma*, at
    the zeta/psi shift gamma*, cut after the power R of the precision
    (_tail_order). U0 is the least start at which those expansions leave
    out less than 2^-(P+4), taken from the start shared by most shapes
    (_standard_start), doubled as needed. Without a phase the expansions
    make the tail, whose base sums are one row at abase = U0 + gamma*/slope.
    With the geometric phase (X, x0), x0 * X^u and |X| < 1, the block runs
    on at least until |X|^u underflows the target, and the tail is bounded
    geometrically, assuming |atom| falls with u; there an atom may have no
    factor at all. Either way the block reads the lattice tables of its
    factors (_direct_block), whose zeta/psi table is tabled down from its
    expansion at the rung at or above slope*U0 + floor(gamma*).
    """
    lam, trans = atom.slope, atom.trans
    gamma_star = mpf(trans[-1] if trans else atom.rpows[0][0] if atom.rpows else 0)
    P = _shape_unit([g for (g, _) in atom.rpows] + ([trans[-1]] if trans else []))
    # one fractional power per atom, for the direct block and the tail's row;
    # a zeta table raises its own, so with a phase (no row) it may add one
    fracs = [f for (_, p) in atom.rpows if (f := _exponent_parts(p)[1])]
    if trans and trans[0] == "zeta" and phase is None:
        fracs += [f for f in [_exponent_parts(trans[1])[1]] if f]
    if len(fracs) > 1:
        raise ShapeError("more than one fractional outer exponent")
    phi = fracs[0] if fracs else 0
    kind = trans[0] if trans else None
    j = trans[1] if kind == "zeta" else None
    R = _tail_order(mp.prec)
    U0 = u0
    if phase is None or trans:
        # the expansions at v0: the zeta/psi factor's starts the table, and
        # without a phase every factor's makes the tail
        need = max([_expansion_need(kind, j, R, P) if trans else 0.0]
                   + [_binomial_need(p, mpf(g) - gamma_star, R, P)
                      for (g, p) in (atom.rpows if phase is None else ())])
        U0 = _tail_start(need, gamma_star, lam, u0, R, P)
    if phase is not None:
        X, x0 = phase
        if abs(X) >= 1:
            raise ShapeError("geometric path needs |X| < 1")
        cut = int(mp.ceil((ctx.dps + 6) * mp.log(10) / (-mp.log(abs(X)))))
        U0 = max(U0, u0 + geometric_length(cut + 4) + 1)
    with mp.workprec(P + 20):
        v0 = lam * U0 + gamma_star      # exact: P holds every shift
    total, err2, last = _direct_block(atom, u0, U0, P, phase)
    if phase is not None:
        X, x0 = phase
        xp_abs, term_abs = last
        tail_bound = _unfix(xp_abs * term_abs, 2 * P) / (1 - abs(X)) * 2
        value = _unfix(total[0], 2 * P) if not total[1] else \
            mp.make_mpc((from_man_exp(total[0], -2 * P), from_man_exp(total[1], -2 * P)))
        return EvalResult(value, tail_bound + _unfix(err2 + 1, 2 * P), "direct_tail")
    prod = None
    for (g, p) in atom.rpows:
        piece = series(ctx, ("pow", p, mpf(g) - gamma_star), R, v0, P)
        prod = piece if prod is None else prod.mul(piece)
    if trans:
        zs = series(ctx, ("psi",) if kind == "psi" else ("zeta", j), R, v0, P)
        prod = zs if prod is None else prod.mul(zs)
    if prod is None or prod.lo + phi <= 1:
        raise ShapeError("divergent outer tail")
    B, L = base_sums(ctx, U0 + gamma_star / lam, v0, phi, lam, R, P)
    tail, terr = 0, 0
    e = prod.err
    for r in range(prod.lo, R + 1):
        (zr, ez), ar = B[r], prod.a[r]
        tail += ar * zr
        terr += abs(ar) * ez + e * (abs(zr) + ez)
        if prod.b is not None:
            (lr, el), br = L[r], prod.b[r]
            tail += br * lr
            terr += abs(br) * el + e * (abs(lr) + el)
    (zr, ez), (lr, el) = B[R + 1], L[R + 1]
    terr += prod.rem * (abs(zr) + ez) + prod.rem_log * (abs(lr) + el)
    return EvalResult(_unfix(total + tail, 2 * P), _unfix(err2 + terr + 1, 2 * P),
                      "euler_maclaurin")


def _sum_atom_geometric(atom: Atom, u0: int, X, x0, ctx) -> EvalResult:
    """_sum_shape with the geometric phase x0 X^u, under the name perfbench traces."""
    return _sum_shape(atom, u0, ctx, phase=(X, x0))


def _direct_block(atom, u0, U0, P, phase):
    """sum_{u0 <= u < U0} phase(u) prod_i (slope*u + g_i)^-p_i Z(u), in units
    of 2^-2P: (total, its error, last) with total a pair (re, im) under a
    phase, and last = (|phase(U0)|, |last term|) in units of 2^-P.

    Every factor is a slice of its lattice table, read at stride slope
    (_power_slice, _trans_slice). Powers multiply entry by entry, each
    product cut once: values a and b off by e and f units make a cut product
    off by less than ceil((e|b| + f|a| + e f) / 2^P) + 1 units, taken at the
    slices' largest |a| and |b|, so M, the product of the powers, has one
    error for the block. Without a phase the block is one dot product of M
    and Z, summed exactly, and so are its error sums. With one, the phase
    advances by one complex multiplication per u, its error carried along as
    a modulus: X and the phase are each off by less than sqrt(2) units, and
    a cut product too.
    """
    lam, n = atom.slope, U0 - u0
    if n <= 0:      # the tail starts at u0; a phase's block never does
        return 0, 0, None
    M, eM = None, 0
    for (g, p) in atom.rpows:
        vals, e = _power_slice(g, p, lam, u0, n, P)
        if M is None:
            M, eM = vals, e
        else:
            a, b = max(map(abs, M)), max(map(abs, vals))
            M = [(x * y) >> P for x, y in zip(M, vals)]
            eM = _ceil_shift(eM * b + e * a + eM * e, P) + 1
    if M is None:
        M = [1 << P] * n
    Z = None
    if atom.trans is not None:
        Z, zerrs, ztop = _trans_slice(atom.trans, lam, u0, n, P)
    if phase is None:
        if Z is None:
            return sum(M) << P, (n * eM) << P, None
        absM = list(map(abs, M))
        total = sum(map(operator.mul, M, Z))
        err2 = (eM * (sum(map(abs, Z)) + sum(zerrs) + n * ztop)
                + sum(map(operator.mul, absM, zerrs)) + ztop * sum(absM))
        return total, err2, None
    X, x0 = phase
    with mp.workprec(P + 20):
        Xc, xp = mpc(X), mpc(x0) * mpc(X) ** u0
        Xr, Xi, xr, xi = (_fix(mp.re(Xc), P), _fix(mp.im(Xc), P),
                          _fix(mp.re(xp), P), _fix(mp.im(xp), P))
    eX, ex = 2, 2
    Xabs = math.isqrt(Xr * Xr + Xi * Xi) + 1 + eX     # at least |X|
    total = ti = err2 = T = eT = 0
    for i, m in enumerate(M):
        if Z is None:
            T, eT = m, eM + 2
        else:
            z, ez = Z[i], zerrs[i] + ztop
            T, eT = (m * z) >> P, ((eM * abs(z) + abs(m) * ez + eM * ez) >> P) + 2
        total += T * xr
        ti += T * xi
        err2 += abs(T) * ex + eT * (abs(xr) + abs(xi) + ex)
        ex = _ceil_shift(ex * Xabs + (abs(xr) + abs(xi)) * eX, P) + 2
        xr, xi = (xr * Xr - xi * Xi) >> P, (xr * Xi + xi * Xr) >> P
    return (total, ti), err2, (abs(xr) + abs(xi) + ex, abs(T) + eT)

# ---------------------------------------------------------------------------
# Residue-class splitting and term assembly
# ---------------------------------------------------------------------------

def _exp_value(f):
    if not expr_is_num(f.exp):
        raise ShapeError("symbolic exponent at evaluation time")
    return f.exp[1]


def _factor_at(term, combo, b):
    """(shift at b, exponent) of the term's factor in combo; (0, 0) without one."""
    f = term.factor(combo)
    return (mpf(0), Fraction(0)) if f is None else (shift_value(f.shift, b), _exp_value(f))


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
    constant. The plan resolves the index start n0, m0 at a given b
    (start), the moduli mod[idx] per index that the congruence, the twists
    and a root-of-unity x require; and, for any class or lattice point, its weight and its x
    exponent. It holds ints, Fractions and the characters' stored values
    only. A single sum's classes are those of mod["n"] on both routes; a
    double sum's route picks its grid from the moduli (grid). Each route
    does its own numerics.

    No b is held: ClassPlan.of keeps one plan per process, with what the
    routes make from it that no b changes (memo).
    """

    def __init__(self, term, params):
        self.term = term
        single = isinstance(term, SingleSumTerm)
        self.n0 = 0 if term.n_range == "n>=0" else 1
        self.made = {}
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
            (term.xsel.kind == "xmn" and self.x.f > 1)

    @staticmethod
    def of(term, params) -> "ClassPlan":
        """ClassPlan(term, params), made once per process (STORE) at the term,
        mp.prec and every parameter but b, and shared by every point. A ctx
        acts on a plan only through the mp.prec it sets. The key holds the
        term's id: the plan holds the term, so no other object takes that id
        while the plan is kept."""
        key = ("plan", id(term), mp.prec) + tuple((k, v) for (k, v) in params.items() if k != "b")
        return stored(key, lambda: ClassPlan(term, params))

    def start(self, b):
        """The start m0 of a double sum at b (None for a single sum), 2 for
        an m>b range at b >= 1; DomainError when the term needs b and b is
        None."""
        t = self.term
        single = isinstance(t, SingleSumTerm)
        m_after_b = not single and t.m_range == "m>b"
        if b is None and (m_after_b or any(f.shift.q1 for f in
                                           ((t.factor,) if single else t.factors))):
            raise DomainError("term references the shift parameter b, none bound")
        return None if single else \
            0 if t.m_range == "m>=0" else 2 if m_after_b and b >= 1 else 1

    def memo(self, name, make):
        """The plan's b-free value name, made by make() on first use."""
        value = self.made.get(name)
        if value is None:
            value = self.made[name] = make()
        return value

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
        """Exponent of x at the class or lattice point r; 0 without x."""
        xsel = self.term.xsel
        m, n = r if len(r) == 2 else (0, r[0])
        return {"none": 0, "xn": n, "xm": m, "xmn": m + n}[xsel.kind] + xsel.d


def eval_double_reduction(term: DoubleSumTerm, params, ctx: PrecisionContext) -> EvalResult:
    """Closed-form reduction of a concrete double term; ShapeError on misses.

    x^(m+n) terms run along the diagonals (_eval_diagonal); any other term
    is an outer sum over the classes of its outer index of the atoms of its
    inner closed form (_class_atoms). The classes with their weights and
    constants are made once per plan (ClassPlan.of); a point adds the value
    and bound of every atom into one pair.
    """
    with ctx.workdps():
        xsel = term.xsel
        plan, b = ClassPlan.of(term, params), params.get("b")
        m0, x = plan.start(b), plan.x
        if x.kind == "zero":
            return _eval_x_zero(term, plan, params, ctx)
        if xsel.kind == "xmn":
            return _eval_diagonal(term, plan, b, m0, ctx)
        b_mp = _mp_b(b)

        inner = "n" if xsel.kind == "xm" else "m"
        outer = "n" if inner == "m" else "m"
        (gI, eI), opow, (gJ, q) = (_factor_at(term, c, b_mp) for c in (inner, outer, "mn"))

        # _class_atoms needs one modulus on both indices once the inner one splits
        lam_m, lam_n = plan.grid(square=plan.mod[inner] > 1)
        lam_i, lam_o = (lam_m, lam_n) if inner == "m" else (lam_n, lam_m)
        i0, o0 = (m0, plan.n0) if inner == "m" else (plan.n0, m0)

        if (not eI and q <= 1) or (not q and eI <= 1):
            raise DomainError("divergent inner sum")
        if q:
            if eI:
                _as_int(eI, "inner exponent")
            _as_int(q, "joint exponent")

        def classes():
            coeff0, out = _frac_to_mp(term.coeff), []
            for rI in range(lam_i):
                for rO in range(lam_o):
                    rm, rn = (rI, rO) if inner == "m" else (rO, rI)
                    w = plan.weight(rm, rn)
                    if w is not None:
                        out.append((rI, rO, mpc(coeff0) * mpc(w[0])
                                    * x.power(plan.xexp(rm, rn), ctx)))
            # a geometric phase on the outer index only
            return out, (x.value ** lam_o, mpf(1)) if x.kind == "num" else None

        consts, phase = plan.memo("classes", classes)
        value = bound = mpf(0)
        for (rI, rO, const) in consts:
            t0 = math.ceil((i0 - rI) / lam_i)
            u0 = math.ceil((o0 - rO) / lam_o)
            for atom in _class_atoms(eI, q, gI, gJ, opow, rI, rO,
                                     lam_i, lam_o, t0, const):
                v, e = _sum_atom(atom, u0, phase, ctx)
                value, bound = value + v, bound + e
        # the geometric phase's tail bound is empirical
        return EvalResult(value, bound, "direct_tail" if x.kind == "num" else "reduction")


@functools.lru_cache(maxsize=256)
def _inner_form(eI, q, pO, lam, prec):
    """What no class or b changes of the atoms of _class_atoms: lam^-(eI +
    q + pO) and, per atom, (its inner zeta/psi factor, ('zeta', s), ('psi',)
    or None; its partial-fraction coefficient; the exponent at its joint
    shift; its outer zeta/psi factor, ('zeta', j), ('psi',) or None), made
    once per (eI, q, pO, lam, prec) for the process (the 256 met last kept)."""
    one = mpf(lam) ** (-_frac_to_mp(eI + q + pO))
    if not eI:      # joint factor only: the inner sum is zeta(q, t0 + aJ(u))
        return one, ((None, 1, 0, ("zeta", _num_exp(q))),)
    if not q:       # pure inner factor: the constant zeta(eI, t0 + aI)
        return one, ((("zeta", _frac_to_mp(eI)), 1, 0, None),)
    e, q = int(eI), int(q)
    A, B = two_pole_coeffs(e, q)
    A1 = _frac_to_mp(A[1])
    return one, (tuple((("zeta", i), _frac_to_mp(A[i]), e + q - i, None) for i in range(e, 1, -1))
                 + tuple((None, _frac_to_mp(B[j]), e + q - j, ("zeta", j)) for j in range(2, q + 1))
                 + ((None, A1, e + q - 1, ("psi",)), (("psi",), -A1, e + q - 1, None)))


def _class_atoms(eI, q, gI, gJ, opow, rI, rO, lam_i, lam_o, t0, const=1):
    """Atoms of the inner closed form on one residue class, in the outer
    class index u, their coefficients times const.

    The class holds the inner index rI + lam_i t for t >= t0 and the outer
    index rO + lam_o u, where lam_i is 1 or equals lam_o. Dividing every base
    by lam_i gives slope lam_o // lam_i in u and the prefactor lam_i^-(total
    degree). eI and q are the inner and joint exponents as Fractions, 0 for
    an absent factor and integers when both are present; opow is the outer
    factor's (shift, exponent), exponent 0 without one. The atoms come from
    _inner_form, at this class's shifts and inner zeta/psi values.
    """
    lam = lam_i
    gO, pO = opow
    one, forms = _inner_form(eI, q, pO, lam, mp.prec)
    aI = t0 + (rI + gI) / lam
    og, wg, zg = (rO + gO) / lam, (rO + gJ - gI) / lam, (rI + rO + gJ) / lam + t0
    atoms = []
    for (inner, c, p, trans) in forms:
        cv, ce = one, mpf(0)
        if inner:
            z = psi(aI) if inner[0] == "psi" else zeta(inner[1], aI)
            cv, ce = one * z.value, abs(one) * z.abs_error_bound
        atoms.append(Atom((cv * c * const, ce * abs(c) * abs(const)), lam_o // lam,
                          ((og, pO), (wg, p)), trans and trans + (zg,)))
    return atoms


def _atom_at(atom: Atom) -> EvalResult:
    """The atom at u = 0: its coefficient times its powers and its zeta/psi value."""
    val = EvalResult(*atom.coef, "reduction")
    for (g, p) in atom.rpows:
        val = val.scale(g ** (-p))
    if atom.trans is None:
        return val
    gz = atom.trans[-1]
    return val.times(zeta(atom.trans[1], gz) if atom.trans[0] == "zeta" else psi(gz))


def _eval_x_zero(term, plan, params, ctx) -> EvalResult:
    """x = 0: only the summands with a vanishing x exponent survive, each
    with its class weight."""
    with ctx.workdps():
        d, b = term.xsel.d, params.get("b")
        m0 = plan.start(b)
        zero = EvalResult(mpf(0), mpf(0), "closed_form")
        if isinstance(term, SingleSumTerm):
            factors, points = (term.factor,), [(-d,)] if -d >= plan.n0 else []
        elif term.xsel.kind == "xm":
            raise ShapeError("x = 0 with an x^m numerator leaves an uncatalogued n-sum")
        elif term.xsel.kind == "xn":
            # the inner m-sum at n = -d, split into classes by its weights
            if -d < plan.n0:
                return zero
            return eval_inner_closed(term, -d, params, ctx)
        else:
            factors = term.factors
            points = [(m, -d - m) for m in range(m0, -d - plan.n0 + 1)]
        b_mp = _mp_b(b)
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


def eval_inner_closed(term: DoubleSumTerm, n: int, params, ctx: PrecisionContext) -> EvalResult:
    """Inner m-sum at fixed integer n as zetas, digammas, and rationals.

    Catalogued shapes: only a joint chain; or one pure-m factor of any
    positive integer order together with an optional joint chain. The x power
    must not involve m. A congruence or twist splits m into residue classes
    mod L = plan.mod["m"], each with its ClassPlan weight at n. The class
    m = rho + L t is the set of _class_atoms with the outer index held at n
    (rO = n, lam_i = lam_o = L), each taken at u = 0.
    """
    with ctx.workdps():
        if term.xsel.kind in ("xm", "xmn"):
            raise ShapeError("x power involves the inner index")
        plan = ClassPlan(term, params)
        b_mp, m0 = _mp_b(params.get("b")), plan.start(params.get("b"))
        if n < plan.n0:
            raise DomainError("n below the term's range")
        (gM, e), npow, (gJ, q) = (_factor_at(term, c, b_mp) for c in ("m", "n", "mn"))
        if not e and not q:
            raise DomainError("no inner factors: divergent")
        if e:
            _as_int(e, "inner exponent")
            if q:
                _as_int(q, "joint exponent")
        if (not q and e < 2) or (not e and q <= 1):
            raise DomainError("divergent inner sum")
        const = _frac_to_mp(term.coeff) * plan.x.power(plan.xexp(0, n), ctx)
        L = plan.mod["m"]
        total = EvalResult(mpf(0), mpf(0), "closed_form")
        for rho in range(L):
            w = plan.weight(rho, n)
            if w is None:
                continue
            t0 = math.ceil((m0 - rho) / L)
            if e and mp.re(t0 + (rho + gM) / L) <= 0:
                raise DomainError("inner factor vanishes inside the range")
            for atom in _class_atoms(e, q, gM, gJ, npow, rho, n, L, L, t0):
                total = total + _atom_at(atom).scale(const * _mp_value(w[0]))
        return total


def _eval_diagonal(term, plan, b, m0, ctx) -> EvalResult:
    """x^(m+n+d) terms as outer sums over the diagonals N = m + n.

    With X = m + g_m, Y = n + g_n and W = X + Y = N + g_m + g_n, the (m+n)
    factor (N + g)^-q depends on N alone. Two-sided terms with integer
    exponents split by two_pole_coeffs into one-sided pieces X^-i W^-k and
    Y^-j W^-k; a one-sided piece summed over one diagonal, class by class
    mod L = plan.pair_mod, is a partial sum, zeta(i, start) - zeta(i, end)
    with psi(end) - psi(start) at i = 1. Without an m- or n-factor the inner
    sum counts the diagonal's points, which is linear in N. So each term is
    a sum over N of outer atoms with one zeta/psi factor at most. N runs in
    classes s mod the lcm of L, the (m+n) twist's modulus and a root of
    unity's order, on which the (m+n) twist and the phase are constant, and
    _sum_atom sums the atoms of each class with the geometric phase x^N when
    |x| < 1 (whose tail bound is empirical, so the disk keeps the direct_tail
    tag) and without one on the circle. The diagonals before every base is
    positive, W = 0 among them where the shifted factors change sign, are
    summed directly. Two-sided shapes with a non-integer exponent and
    one-sided ones with an exponent below 1 raise ShapeError. The pieces and
    each class s's constant and weighted residues rho are made once per plan
    (ClassPlan.memo); a point resolves the shifts, the start and the small
    diagonals, and merges the atoms whose shifts coincide at its b.
    """
    x, n0 = plan.x, plan.n0
    b_mp = _mp_b(b)
    (gm, a), (gn, c), (gj, q) = (_factor_at(term, k, b_mp) for k in ("m", "n", "mn"))
    if x.kind != "num" and ((not a and q <= 1) or (not q and a <= 1)):
        raise DomainError("divergent inner sum")
    coeff0 = _frac_to_mp(term.coeff)
    L = plan.pair_mod
    LN = math.lcm(L, plan.joint_mod, x.f)

    def classes():
        # pieces (side, exponent, coefficient, power of 1/W)
        if a and c:
            # Y = W - X: the coefficients for (X, -Y) pick up these signs
            ai, ci = (_as_int(e, "two-sided diagonal exponent") for e in (a, c))
            A, B = two_pole_coeffs(ai, ci)
            pieces = [("m", i, A[i] * (-1) ** (ai - i), ai + ci - i) for i in range(1, ai + 1)]
            pieces += [("n", j, B[j] * (-1) ** ai, ai + ci - j) for j in range(1, ci + 1)]
        elif a or c:
            pieces = [("m", a, Fraction(1), 0)] if a else [("n", c, Fraction(1), 0)]
            if pieces[0][1] < 1:
                raise ShapeError("diagonal partial sum below exponent 1")
        else:
            pieces = []
        # per class s of N: its constant and, per piece, the weighted rho
        # (without pieces, the weights of the diagonal's count)
        out = []
        for s in range(LN):
            chi = plan.joint(s)
            if chi == 0:
                continue
            const = mpc(coeff0) * mpc(chi) * x.power(plan.xexp(s, 0), ctx)

            def weights(side):
                ws = ((rho, plan.weight(rho, (s - rho) % L, joint=False) if side == "m"
                       else plan.weight((s - rho) % L, rho, joint=False)) for rho in range(L))
                return [(rho, w[0]) for (rho, w) in ws if w is not None]

            ks = []
            for (side, i, cf, wexp) in pieces:
                scale = const * _frac_to_mp(cf) * mpf(L) ** -_frac_to_mp(i + wexp + q)
                ks.append([(rho, scale * mpc(w)) for (rho, w) in weights(side)])
            out.append((s, const, ks or [weights("m")]))
        return pieces, out, (x.value ** LN, mpf(1)) if x.kind == "num" else None

    pieces, consts, phase = plan.memo("diagonals", classes)
    # atoms start where every base is positive: N + g, the ends of the
    # partial sums, and W > 1
    lows = [(gj, 0)] if q else []
    lows += [(gm + gn, 1)] if a and c else []
    lows += [(gm + 1 - n0, 0)] if a else []
    lows += [(gn + 1 - m0, 0)] if c else []
    N0 = m0 + n0
    Nstart = max([N0] + [int(mp.floor(lo - mp.re(g))) + 1 for (g, lo) in lows])
    total = _small_diagonals(plan, m0, range(N0, Nstart), gm, a, gn, c, gj, q, coeff0, ctx)
    value, bound = total.value, total.abs_error_bound
    slope = LN // L
    for (s, const, ks) in consts:
        atoms = {}

        def add(coef, rpows, trans=None):
            atom = Atom(coef, slope, rpows, trans)
            key = (atom.rpows, trans)
            if key in atoms:
                atoms[key].coef = (atoms[key].coef[0] + coef[0], atoms[key].coef[1] + coef[1])
            else:
                atoms[key] = atom

        for ((side, i, cf, wexp), kr) in zip(pieces, ks):
            g, own0, other0 = (gm, m0, n0) if side == "m" else (gn, n0, m0)
            rpows = [((s + gj) / L, q), ((s + gm + gn) / L, wexp)]
            sign = 1 if i == 1 else -1
            for (rho, k) in kr:
                # the class rho + L t, t >= t0, up to the diagonal's end
                start = math.ceil((own0 - rho) / L) + (rho + g) / L
                end = (s - other0 - rho) // L + 1 + (rho + g) / L
                # psi(end) - psi(start) at i = 1, else zeta(i, start) - zeta(i, end)
                add((k * sign, mpf(0)), rpows,
                    ("psi", end) if i == 1 else ("zeta", _num_exp(i), end))
                sv, se = _start_value(i, start)
                add((sv * k * -sign, abs(k) * se), rpows)
        if not pieces:
            # the class's points on the diagonal number slope u + c0 = V - v + c0
            # at V = (N + g)/L = slope u + v
            v = (s + gj) / L
            w1 = w0 = 0
            for (rho, w) in ks[0]:
                w1 += w
                w0 += w * ((s - n0 - rho) // L + 1 - math.ceil((m0 - rho) / L))
            scale = const * mpf(L) ** -_frac_to_mp(q)
            if w1 and q < 1:
                raise ShapeError("diagonal count with an (m+n) exponent below 1")
            if w1:
                add((scale * mpc(w1), mpf(0)), [(v, q - 1)])
            add((scale * (mpc(w0) - mpc(w1) * v), mpf(0)), [(v, q)])
        u0 = -((s - Nstart) // LN)
        for atom in atoms.values():
            if atom.coef[0] or atom.coef[1]:
                v, e = _sum_atom(atom, u0, phase, ctx)
                value, bound = value + v, bound + e
    return EvalResult(value, bound, "direct_tail" if x.kind == "num" else "reduction")


_eval_double_geometric2d = _eval_diagonal     # the name perfbench traces


def _small_diagonals(plan, m0, Ns, gm, a, gn, c, gj, q, coeff0, ctx) -> EvalResult:
    """The diagonals N in Ns of a _eval_diagonal term, point by point."""
    total = EvalResult(mpf(0), mpf(0), "reduction")
    for N in Ns:
        inner = size = mpf(0)
        for m in range(m0, N - plan.n0 + 1):
            w = plan.weight(m, N - m)
            if w is not None:
                t = _mp_value(w[0]) * _power(m + gm, a) * _power(N - m + gn, c)
                inner += t
                size += abs(t)
        t = coeff0 * plan.x.power(plan.xexp(N, 0), ctx) * _power(N + gj, q)
        # each point's product and power rounds a few times, the sum once a point
        total = total + EvalResult(inner * t, size * abs(t) * (N + 8) * mp.eps, "reduction")
    return total


def _power(base, p):
    """base^-p, 1 for p = 0."""
    if not p:
        return 1
    if not base:
        raise DomainError("a factor vanishes inside the range")
    return base ** -_frac_to_mp(p)


def _start_value(i, a) -> tuple:
    """zeta(i, a), or psi(a) at i = 1, from its table, continued to Re a <= 0
    by zeta(i, a) = zeta(i, a + 1) + a^-i and psi(a) = psi(a + 1) - 1/a; as
    (value, bound)."""
    head, size, k = mpf(0), mpf(0), 0
    while mp.re(a) <= 0:
        t = _power(a, i)
        head, size, k, a = head + t, size + abs(t), k + 1, a + 1
    val = psi(a) if i == 1 else zeta(_num_exp(i), a)
    return val.value + (-head if i == 1 else head), val.abs_error_bound + (k + 2) * size * mp.eps


def _num_exp(p: Fraction):
    """An exponent as an int when integral, else as an mpf."""
    return int(p) if p.denominator == 1 else _frac_to_mp(p)


# ---------------------------------------------------------------------------
# Single sums
# ---------------------------------------------------------------------------

def eval_single_reduction(term: SingleSumTerm, params, ctx: PrecisionContext) -> EvalResult:
    """Single sums over the residue classes n = rr + lam t, lam = plan.mod["n"].

    On the unit circle every class has a constant weight and x phase, so the
    sum is one periodic Hurwitz sum (specfun.periodic_zeta_sum, with its psi
    closed form at exponent 1). With |x| < 1 each class is a one-factor atom
    summed with the geometric phase x^(lam t).
    """
    with ctx.workdps():
        plan, b = ClassPlan.of(term, params), params.get("b")
        plan.start(b)       # DomainError when the term needs b and has none
        x = plan.x
        if x.kind == "zero":
            return _eval_x_zero(term, plan, params, ctx)
        e = _num_exp(_exp_value(term.factor))
        gamma = shift_value(term.factor.shift, _mp_b(b))
        lam = plan.mod["n"]

        def classes():
            coeff0, lam_e, out = _frac_to_mp(term.coeff), mpf(lam) ** (-mpf(e)), []
            for rr in range(lam):
                w = plan.weight(rr)
                if w is None:
                    continue
                const = mpc(coeff0)
                if w[1] is not None:
                    const = const / mp.sinpi(_frac_to_mp(w[1]))
                const = const * mpc(w[0]) * x.power(plan.xexp(rr), ctx)
                out.append((rr, math.ceil((plan.n0 - rr) / lam), const, const * lam_e))
            return out, (x.value ** lam, mpf(1)) if x.kind == "num" else None

        consts, phase = plan.memo("single", classes)
        value = bound = mpf(0)
        terms = []
        for (rr, t0, const, scaled) in consts:
            a = t0 + (rr + gamma) / lam
            if mp.re(a) <= 0:
                raise DomainError("single sum needs Re(n + shift) > 0 over its range")
            if phase:
                v, eb = _sum_atom(Atom((const, mpf(0)), lam, ((rr + gamma, e),)), t0, phase,
                                  ctx)
                value, bound = value + v, bound + eb
            else:
                terms.append((scaled, a))
        if terms:
            z = periodic_zeta_sum(terms, e, ctx, zeta, psi)
            value, bound = value + z.value, bound + z.abs_error_bound
        return EvalResult(value, bound, "direct_tail" if phase and consts else "reduction")
