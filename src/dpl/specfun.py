"""Arbitrary-precision special-function substrate.

Everything here returns an EvalResult: a high-precision value paired with an
absolute error bound and a tag saying how it was computed.

Hurwitz zeta values, their log-weighted companions sum_u (u+a)^-s log(u+a)
and psi(a) all come from one Euler-Maclaurin row kernel
(euler_maclaurin_row): for a shared a and exponents s = r + phi over a range
of r, one direct block of N terms and one correction loop, summed in Python
ints in units of 2^-P (P the working precision plus _ROW_GUARD bits), each
column scaled by a^s, so that every column is O(1) or O(a). The block
advances the powers (a/(a+j))^s by one cut product per column. As in
Johansson (arXiv:1309.2877), A = a + N is taken large enough for the
corrections to converge fast: N = max(0, ceil(bits/_BLOCK_BITS - Re a)), 0
for large a, depends on Re a and the precision alone, so a column has one
value and bound whichever row it is read from. Each column takes
corrections until its remainder is below one unit of the outer sums'
precision and below 10^-dps min(1, Re(a)^-s) of zeta. Each error bound is
an int in the same units: the remainder (Johansson's bound, taken as a
multiple of the first omitted correction) plus one unit per cut.
hurwitz_zeta, log_zeta_sum and digamma each read one column of a new row as
an EvalResult; reduction builds rows for its outer-sum tails only, keeps
them in its STORE and reads their ints directly. The c_k mantissas of the
corrections depend on no argument and are made once per process.

A periodic sum sum_n w(n) (n+b)^-s on the unit circle, split into residue
classes, is sum_r w_r zeta(s, a_r): periodic_zeta_sum holds it once, with its
closed form -sum_r w_r psi(a_r) at s = 1 when the weights cancel. lerch_phi
at a root of unity, dirichlet_L and the single sums of reduction call it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp


class DomainError(ValueError):
    """Parameter combination outside the supported domain."""


class CharacterError(ValueError):
    """Proposed character value table violates the character axioms."""


# ---------------------------------------------------------------------------
# Precision context and evaluation results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionContext:
    working_digits: int = 50
    guard_digits: int = 10
    output_digits: int = 30

    def __post_init__(self):
        if self.guard_digits < 10:
            raise ValueError("guard_digits must be >= 10")
        if self.working_digits < self.output_digits + self.guard_digits:
            raise ValueError("working_digits must cover output + guard digits")

    @property
    def dps(self) -> int:
        # precision actually used for mpmath arithmetic
        return self.working_digits + self.guard_digits

    @property
    def eps(self):
        with mp.workdps(self.dps + 8):
            return mpf(10) ** (-self.dps)

    def workdps(self):
        return mp.workdps(self.dps + 8)


DEFAULT_CTX = PrecisionContext()

METHODS = ("closed_form", "euler_maclaurin", "direct_tail", "reduction", "hybrid")


@dataclass(frozen=True)
class EvalResult:
    """Value + rigorous absolute error bound + method tag; frozen, since
    stored results (row columns, shape sums) are shared by every reader."""

    value: object            # mpf or mpc
    abs_error_bound: object  # mpf >= 0
    method: str = "closed_form"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if mp.isnan(self.value) or mp.isinf(self.value):
            raise DomainError("non-finite value escaped an operation")

    def __add__(self, other):
        return EvalResult(self.value + other.value,
                          self.abs_error_bound + other.abs_error_bound,
                          _merge_methods(self.method, other.method))

    def __sub__(self, other):
        return EvalResult(self.value - other.value,
                          self.abs_error_bound + other.abs_error_bound,
                          _merge_methods(self.method, other.method))

    def __neg__(self):
        return EvalResult(-self.value, self.abs_error_bound, self.method)

    def scale(self, c):
        """Multiply by an exactly-known scalar (an mpf, an mpc or an int)."""
        return EvalResult(self.value * c, self.abs_error_bound * abs(c), self.method)

    def times(self, other):
        a, b = abs(self.value), abs(other.value)
        ea, eb = self.abs_error_bound, other.abs_error_bound
        return EvalResult(self.value * other.value,
                          a * eb + b * ea + ea * eb,
                          _merge_methods(self.method, other.method))


def _merge_methods(m1, m2):
    if m1 == m2:
        return m1
    if "direct_tail" in (m1, m2):
        return "direct_tail"
    return "hybrid"


def result_sum(results, method=None):
    val = mpf(0)
    bnd = mpf(0)
    meth = None
    for r in results:
        val = val + r.value
        bnd = bnd + r.abs_error_bound
        meth = r.method if meth is None else _merge_methods(meth, r.method)
    return EvalResult(val, bnd, method or meth or "closed_form")


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact rationals, B1 = -1/2 convention)
# ---------------------------------------------------------------------------

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n via sum_{j<=n} C(n+1,j) B_j = 0."""
    if n < 0:
        raise DomainError("bernoulli index must be >= 0")
    if n < len(_bernoulli_cache):
        return _bernoulli_cache[n]
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            if m % 2 == 1:
                _bernoulli_cache.append(Fraction(0))
                continue
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * _bernoulli_cache[j]
            _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


# ---------------------------------------------------------------------------
# Hurwitz zeta, digamma, log-weighted zeta sums: one Euler-Maclaurin row kernel
# ---------------------------------------------------------------------------

_MIN_S_GAP = mpf("0.001")
_MAX_CORRECTIONS = 400   # per column; the block length keeps M far below this
_LN10 = math.log(10)
_LN2 = math.log(2)
# An outer-sum shape (reduction) sums in units of 2^-(prec + _SHAPE_GUARD),
# prec the working precision. A row sums in units of 2^-(prec + _ROW_GUARD)
# and takes corrections until its remainder is below one unit of the
# shapes', which read the tail rows as they are. log A is held to
# _LOG_GUARD more bits, since A log A amplifies its error by A.
_SHAPE_GUARD = 8
_ROW_GUARD = 24
_LOG_GUARD = 20
# A row's direct block runs until A = Re(a) + N reaches bits/_BLOCK_BITS,
# bits = working precision + _SHAPE_GUARD, so N depends on Re(a) and the
# precision alone and a column reads the same in every row at its argument.
# The corrections shrink at best to about e^(-2 pi A), so A must exceed
# bits ln 2/(2 pi) = bits/9.06; past that a larger A trades corrections for
# block terms. Timed over the rows of one benchmark pass (best of 3, 2-vCPU
# host, Python 3.11), any value from 2.5 to 6 builds them in 0.11-0.13 s
# (unit-circle, 120 rows) and 0.11 s (b-derivative, 150); 3.6 gives N = 0 on
# every tail row of a unit-circle pass at 50 digits (a >= 68.5) and N =
# 65-66 on its short rows at a < 1. bits/3.6 > 28 at any admitted precision,
# so A > 2 and log(A + t) > 0, as the bounds of the log sums need.
_BLOCK_BITS = 3.6


def _to_mp(z):
    if isinstance(z, Fraction):
        return mpf(z.numerator) / z.denominator
    if isinstance(z, complex):
        return mpc(z.real, z.imag) if z.imag else mpf(z.real)
    if isinstance(z, (int, float, mpf, mpc)):
        return mpc(z) if isinstance(z, mpc) else mpf(z)
    return z


def _check_s_real(s, min_int):
    """Exponents must be integers >= min_int or reals 1+delta away from 1."""
    sm = _to_mp(s)
    if isinstance(sm, mpc):
        raise DomainError("complex exponents are not supported")
    if sm == mp.floor(sm):
        if int(sm) < min_int:
            raise DomainError(f"integer exponent must be >= {min_int}, got {s}")
    elif sm < 1 + _MIN_S_GAP:
        raise DomainError(f"real exponent must be >= 1 + 1e-3, got {s}")
    return sm


def split_exponent(s):
    """s = r + phi with r an int and 0 <= phi < 1 (phi the int 0 when s is integral)."""
    sm = _to_mp(s)
    r = int(mp.floor(sm))
    phi = sm - r
    return r, (phi if phi else 0)


# ---------------------------------------------------------------------------
# Fixed point: ints in units of 2^-P
# ---------------------------------------------------------------------------

def _signed_man_exp(x: mpf):
    """(m, e) with x = m 2^e and m a signed int."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _fix(x, P: int) -> int:
    """x 2^P as an int, for an mpf x: off by less than 1."""
    m, e = _signed_man_exp(mpf(x))
    e += P
    return m << e if e >= 0 else m >> -e


def _unfix(n: int, P: int):
    """The int n in units of 2^-P as an exact mpf."""
    return mp.make_mpf(from_man_exp(n, -P))


def _ceil_shift(n: int, P: int) -> int:
    """ceil(n / 2^P) for n >= 0."""
    return -((-n) >> P)


def _exact_units(x):
    """(n, F): x = n 2^-F exactly, F >= 0, for an mpf x."""
    m, e = _signed_man_exp(x)
    return (m, -e) if e < 0 else (m << e, 0)


@dataclass(frozen=True)
class ZetaRow:
    """Columns s = r + phi, r = r_lo..r_hi, of euler_maclaurin_row at one a.

    The columns are ints in units of 2^-P, each scaled by a^s: zeta[i] is
    a^s zeta(s, a) (zeta_im its imaginary part at complex a, else None) and
    logs[i] is a^s sum_u (u+a)^-s log(u+a) (logs is None when the row was
    made without them); zeta_err and log_err bound their errors in units.
    With phi = 0 the column r = 1 holds a psi(a) in place of the divergent
    a zeta(1, a). zeta_at, log_zeta_at and psi return EvalResults, converted
    at the caller's precision, with the rounding of the conversion counted
    into the bound. block is the length N of the row's direct block and
    corrections[i] the number M of corrections column i took.
    """

    a: object
    phi: object
    r_lo: int
    P: int
    zeta: tuple
    zeta_err: tuple
    zeta_im: tuple | None = None
    logs: tuple | None = None
    log_err: tuple | None = None
    block: int = 0
    corrections: tuple = ()

    @property
    def r_hi(self) -> int:
        return self.r_lo + len(self.zeta) - 1

    def _index(self, r):
        if not self.r_lo <= r <= self.r_hi:
            raise IndexError(f"column {r} outside the row {self.r_lo}..{self.r_hi}")
        if r < 2:   # s = r + phi >= 2 needs no check
            _check_s_real(r + self.phi, 2)
        return r - self.r_lo

    def _read(self, kind, r) -> EvalResult:
        """Column r of zeta or logs times a^-s, or psi times 1/a, with its
        bound."""
        i = 0 if kind == "psi" else self._index(r)
        n, err = (self.logs[i], self.log_err[i]) if kind == "logs" else \
            (self.zeta[i], self.zeta_err[i])
        n_im = self.zeta_im[i] if kind != "logs" and self.zeta_im is not None else None
        scale = 1 / self.a if kind == "psi" else self.a ** -(r + self.phi)
        v = _unfix(n, self.P) if n_im is None else mpc(_unfix(n, self.P), _unfix(n_im, self.P))
        # scale is an mpf power (an exp of a log at 10 more bits for a
        # fractional s), and the product one more rounding
        rnd = mp.ldexp(1, 10 - mp.prec)
        return EvalResult(v * scale, (_unfix(err, self.P) + abs(v) * rnd) * abs(scale) * (1 + rnd),
                          "euler_maclaurin")

    def zeta_at(self, r) -> EvalResult:
        return self._read("zeta", r)

    def log_zeta_at(self, r) -> EvalResult:
        if self.logs is None:
            raise DomainError("row made without the log-weighted sums (complex a)")
        return self._read("logs", r)

    def psi(self) -> EvalResult:
        if self.phi or self.r_lo != 1:
            raise ValueError("psi(a) is the column r = 1 of a row with phi = 0")
        return self._read("psi", 1)


def _log_target(s: float, dps: int, bits: int, alpha: float, log_absa: float) -> float:
    """log of a column's absolute target: 10^-dps min(1, alpha^-s), and at
    most one unit of 2^-bits of a^s zeta(s, a)."""
    return min(-dps * _LN10 - s * max(0.0, math.log(alpha)), -bits * _LN2 - s * log_absa)


def _correction_factors(Ar: int, Ai: int, Pa: int, wp: int):
    """-c_k A^(1-2k), c_k = B_2k/(2k)!, for k = 1, 2, ..., at the exact
    A = (Ar + i Ai) 2^-Pa: each as (mr, mi, e), (mr + i mi) 2^e, the longer
    of the int mantissas mr and mi wp bits long, off by less than 12k 2^-wp
    of it in modulus.

    1/A and each c_k are int quotients, and A^(1-2k) advances by one product
    by 1/A^2 a step; a product is exact and then cut to wp bits. A quotient
    or a cut is off by less than 2^(1-wp) of its longer component, so by
    less than 2^(1.5-wp) of its modulus: 1/A^2 is off by 3 of those and each
    step adds 4, 11.4k - 3.6 times 2^-wp in all, to first order."""
    def mul(x, y):
        xr, xi, xe = x
        yr, yi, ye = y
        r, i = xr * yr - xi * yi, xr * yi + xi * yr
        sh = max(abs(r).bit_length(), abs(i).bit_length()) - wp
        return (r >> sh, i >> sh, xe + ye + sh) if sh > 0 else (r, i, xe + ye)

    D = Ar * Ar + Ai * Ai
    sh = wp + D.bit_length() - max(abs(Ar), abs(Ai)).bit_length()
    inv = ((Ar << sh) // D, (-Ai << sh) // D, Pa - sh)
    inv2 = mul(inv, inv)
    odd, k = inv, 1
    while True:
        m, e = _neg_bernoulli_factor(k, wp)
        yield mul((m, 0, e), odd)
        odd = mul(odd, inv2)
        k += 1


@functools.lru_cache(maxsize=None)
def _neg_bernoulli_factor(k: int, wp: int):
    """-c_k = -B_2k/(2k)! as (m, e), m 2^e, m an int quotient of wp or wp + 1
    bits (_correction_factors); made once per (k, wp) for the process."""
    b = bernoulli(2 * k)
    num, den = -b.numerator, b.denominator * math.factorial(2 * k)
    sh = wp + den.bit_length() - abs(num).bit_length()
    return (num << sh) // den, -sh


def _cut_powers(p, q, K: int, P: int) -> list:
    """[p, p q, ..., p q^(K-1)] for ints p, q in units of 2^-P ((re, im)
    pairs of ints at complex values), each product cut to ints. With |p|,
    |q| <= 1, q off by less than one unit in each part and p by e units in
    modulus, the i-th is off by less than e + 2i units (e + 3i for pairs:
    each product adds |q| e + |p| sqrt 2 and a cut of each part)."""
    out = [p]
    if isinstance(q, tuple):
        qr, qi = q
        pr, pi_ = p
        for _ in range(K - 1):
            pr, pi_ = (pr * qr - pi_ * qi) >> P, (pr * qi + pi_ * qr) >> P
            out.append((pr, pi_))
    else:
        for _ in range(K - 1):
            p = (p * q) >> P
            out.append(p)
    return out


def _ceil_int(x: float) -> int:
    """An int >= 2^x (x a float log2), with room for the float's rounding."""
    return math.ceil(2 ** x * (1 + 1e-9)) + 1 if x < 1000 else 1 << (math.ceil(x) + 1)


def euler_maclaurin_row(a, phi, r_lo: int, r_hi: int, ctx: PrecisionContext = DEFAULT_CTX,
                        logs: bool = False) -> ZetaRow:
    """a^s zeta(s, a) for s = r + phi, r = r_lo..r_hi, and with logs
    a^s sum_u (u+a)^-s log(u+a), as ints in units of 2^-P (a ZetaRow).

    P is the working precision plus _ROW_GUARD bits. With A = a + N:

        a^s zeta(s, a) = sum_{j<N} (a/(a+j))^s
                         + (a/A)^s (A/(s-1) + 1/2 + S1(s)),
        S1(s) = sum_{k<=M} c_k (s)_(2k-1) A^(1-2k),  c_k = B_2k/(2k)!.

    With phi = 0 the column s = 1 takes -A log A in place of A/(s-1) and
    yields -a psi(a). The log sums differentiate the same terms in s. When N
    is 0, as for large a (every tail row of an outer sum at 50 digits),
    (a/A)^s is 1 and a column is a handful of int operations past its
    corrections. Else each (a/(a+j)) is one cut int
    division (a pair at complex a), whose powers advance by one cut product
    per column; a fractional phi takes one cut mpf power per j and the log
    sums one cut mpf log per j. N = max(0, ceil(bits/_BLOCK_BITS - Re a)).
    The corrections and their log companions are summed in ints: with c_k
    A^(1-2k) held as m 2^e, m an int of P + 20 bits shared by every column
    (_correction_factors), and alpha_i, beta_i (f^(i)(t) = t^(-s-i)
    (alpha_i log t + beta_i)) exact ints (ints times 2^-F at a fractional
    phi) advanced two orders a step, a correction is m alpha_(2k-1)
    2^(e+P-F), cut to an int.
    A column stops at the first correction whose remainder bound falls below
    one unit of 2^-(working precision + _SHAPE_GUARD), the unit of an
    outer-sum shape, and below 10^-dps min(1, Re(a)^-s) of zeta, or once the
    corrections grow or vanish.

    Bounds, in the same units: every cut counts one unit, an mpf value taken
    into an int two, each power (a/(a+j))^s as many as it took products,
    and the mantissas m and the alpha, beta at a fractional phi their
    relative rounding, counted against the sum of the corrections' moduli.
    The remainder after M corrections is Johansson's (arXiv:1309.2877,
    Thm. 1, with |B~_2M(t)| <= 4 (2M)!/(2 pi)^2M) 4 |(s)_2M| (2 pi)^-2M
    Re(A)^(1-s-2M)/(s+2M-1), which holds for complex a too; since |c_(M+1)| > 2 (2 pi)^-2(M+1), it is
    at most the first omitted correction times W = max(2, 2 (2 pi |A|)^2 /
    ((s+2M-1)(s+2M))) (|A|/Re A)^(s+2M-1). For the log sums, f^(2M)(t) =
    t^-p (alpha_2M log t + beta_2M), p = s + 2M, gives that bound times
    log A + 1/(p-1) + |beta_2M/alpha_2M|.
    """
    with ctx.workdps():
        av = _to_mp(a)
        if mp.re(av) <= 0:
            raise DomainError("the Euler-Maclaurin row requires Re a > 0")
        cplx = isinstance(av, mpc)
        if logs and cplx:
            raise DomainError("log-weighted zeta sums require real a > 0")
        ints = not phi
        K = r_hi - r_lo + 1
        if K < 1 or r_lo < 1:
            raise DomainError("a row needs columns r = r_lo..r_hi with 1 <= r_lo <= r_hi")
        P = mp.prec + _ROW_GUARD
        bits = mp.prec + _SHAPE_GUARD
        # exact ints: a = (ar + i ai) 2^-Pa, s = sfx 2^-F
        ar, Pr = _exact_units(mp.re(av))
        ai, Pi = _exact_units(mp.im(av)) if cplx else (0, 0)
        Pa = max(Pr, Pi)
        ar, ai = ar << (Pa - Pr), ai << (Pa - Pi)
        oa = 1 << Pa
        if ints:
            F, sfx = 0, list(range(r_lo, r_hi + 1))
        else:
            pm, Fp = _exact_units(mpf(phi))
            F = max(Fp, P)
            sfx = [(r << F) + (pm << (F - Fp)) for r in range(r_lo, r_hi + 1)]
        cols = [x / (1 << F) if F else float(x) for x in sfx]
        alpha = float(mp.re(av))
        absa = float(abs(av))
        N = max(0, math.ceil(bits / _BLOCK_BITS - alpha))
        first = sfx[0]
        wp = P + 20
        with mp.workprec(wp):
            s_first = mp.ldexp(first, -F)       # exact
            # direct block: p = (a/(a+j))^s, advanced by one product per column
            z, zi = [0] * K, [0] * K
            lz = [0] * K if logs else None
            scale = None                   # (a/A)^s per column, when N > 0
            lgsum = 0                      # sum_j (|log(a+j)| + 1), in whole numbers
            for j in range(N + 1 if N else 0):
                if cplx:
                    dr = ar + j * oa
                    den = dr * dr + ai * ai
                    q = (((ar * dr + ai * ai) << P) // den, ((ai * j * oa) << P) // den)
                    if ints:
                        p = _cut_powers(q, q, first, P)[-1]
                    else:
                        w = (av / (av + j)) ** s_first
                        p = (_fix(mp.re(w), P), _fix(mp.im(w), P))
                else:
                    q = (ar << P) // (ar + j * oa)
                    if ints:
                        p = pow(q, first) >> (P * (first - 1))
                    else:
                        p = _fix((av / (av + j)) ** s_first, P)
                pows = _cut_powers(p, q, K, P)
                if j == N:
                    scale = pows
                elif cplx:
                    for i, (pr, pi_) in enumerate(pows):
                        z[i] += pr
                        zi[i] += pi_
                elif logs:
                    lg = _fix(mp.log(av + j), P)
                    lgsum += (abs(lg) >> P) + 1
                    for i, p in enumerate(pows):
                        z[i] += p
                        lz[i] += (p * lg) >> P
                else:
                    for i, p in enumerate(pows):
                        z[i] += p
            # units a power p = (a/(a+j))^s of column i may be off by, e0 + de
            # i (_cut_powers): its start is off by less than first + 1 at real
            # a, 3 first at complex a, and 4 from an mpf power
            if ints:
                e0, de = (3 * first, 3) if cplx else (first + 1, 2)
            else:
                e0, de = 4, 3 if cplx else 2

            # one Euler-Maclaurin loop at A = a + N for every column
            A = av + N
            lAx = None
            if logs or (ints and r_lo == 1):
                with mp.workprec(wp + _LOG_GUARD):
                    lA = mp.log(A)
                lAx = (_fix(mp.re(lA), P + _LOG_GUARD), _fix(mp.im(lA), P + _LOG_GUARD))
            reA, absA = float(mp.re(A)), float(abs(A))
        log_absa, log_absA = math.log(absa), math.log(absA)
        # log2 of W (s+2M-1)(s+2M) without the max: lw for the stopping
        # rule, lwb and lratio for the bound
        lw = math.log2(2 * (2 * math.pi * reA) ** 2)
        lwb = math.log2(2 * (2 * math.pi * absA) ** 2)
        lratio = math.log2(absA / reA) if cplx else 0.0
        Qs = [None]                             # -c_k A^(1-2k) at index k
        Ar, Ai = ar + N * oa, ai                # A 2^Pa
        Ac = (math.isqrt(Ar * Ar + Ai * Ai) >> Pa) + 1   # |A| rounded up
        factors = _correction_factors(Ar, Ai, Pa, wp)
        half, one, two = 1 << (P - 1), 1 << F, 2 << F
        F2 = 2 * F
        zv, zvi, ze, Ms = [], [], [], []
        lv, le = ([], []) if logs else (None, None)
        for i in range(K):
            s, sf = cols[i], sfx[i]
            # the target, in units 2^-P relative to A^-s: log2 of the smaller
            # of 10^-dps min(1, alpha^-s) and one unit of 2^-bits of a^s zeta,
            # each times |A|^s
            lt = (_log_target(s, ctx.dps, bits, alpha, log_absa) + s * log_absA) / _LN2 + P
            # the corrections: alpha_(2k-1), beta_(2k-1) in units 2^-F from
            # alpha_1 = -s, beta_1 = 1, advanced two orders a step by
            # t1 = s + 2k - 3 and t1 + 1
            a_, b_, t1 = -sf, one, sf + one
            S1 = S1i = S2 = mag1 = 0            # mag1: the sum of |correction|
            last = None
            k = 1
            while True:
                try:
                    nqr, nqi, sh = Qs[k]
                except IndexError:
                    # -c_k A^(1-2k) = (nqr + i nqi) 2^(F-P-sh), off by less
                    # than 12k 2^-wp of it, so a correction's |re| + |im| by
                    # less than 17k 2^-wp of its own; sh > 0 since |c_k
                    # A^(1-2k)| < 1/12 and the longer mantissa has wp bits
                    nqr, nqi, e = next(factors)
                    sh = F - P - e
                    Qs.append((nqr, nqi, sh))
                if k > 1:
                    m = t1 * (t1 + one)
                    if F:
                        a_, b_ = (m * a_) >> F2, ((m * b_) >> F2) - ((((t1 << 1) + one) * a_) >> F)
                    else:
                        a_, b_ = m * a_, m * b_ - ((t1 << 1) + 1) * a_
                    t1 += two
                term = (nqr * a_) >> sh
                mag = abs(term)
                if cplx:
                    term_i = (nqi * a_) >> sh
                    mag += abs(term_i)
                if k > 1 and (mag.bit_length() < lt or mag > last or k > _MAX_CORRECTIONS):
                    if (mag.bit_length() <= lt - max(1.0, lw - math.log2((s + 2 * k - 3) * (s + 2 * k - 2)))
                            or not mag or mag > last or k > _MAX_CORRECTIONS):
                        break
                S1 += term
                mag1 += mag
                if cplx:
                    S1i += term_i
                if logs:
                    S2 -= (nqr * b_) >> sh
                last = mag
                k += 1
            # term k omitted, M = k - 1 corrections taken: the remainder is at
            # most W |term k|
            M = k - 1
            Ms.append(M)
            pm1 = s + 2 * M - 1
            e = mag + 4 + ((mag * 17 * k) >> wp) + ((mag * 4 * k) >> F if F else 0)
            lwm = max(1.0, lwb - math.log2(pm1 * (pm1 + 1))) + pm1 * lratio
            zrem = _ceil_int(lwm) * e
            # the corrections' cuts and mantissa roundings
            eS1 = 4 * M + 4 + ((mag1 * 17 * M) >> wp) + ((mag1 * 4 * M) >> F if F else 0)
            s1 = sf - one                       # (s - 1) 2^F
            psi = ints and sf == 1
            if psi:                             # -A log A
                lr_, li_ = lAx
                br = -((Ar * lr_ - Ai * li_) >> (Pa + _LOG_GUARD))
                bi = -((Ar * li_ + Ai * lr_) >> (Pa + _LOG_GUARD))
                eb = ((3 * Ac) >> _LOG_GUARD) + 3
            else:                               # A/(s-1)
                br = (Ar << (P + F)) // (s1 << Pa)
                bi = (Ai << (P + F)) // (s1 << Pa) if cplx else 0
                eb = 2
            br += half + S1
            bi += S1i
            eb += eS1 + zrem
            if scale is None:
                vr, vi, ev = br, bi, eb
            else:
                eb0 = e0 + de * i
                tr, ti = scale[i] if cplx else (scale[i], 0)
                vr = z[i] + ((br * tr - bi * ti) >> P)
                vi = zi[i] + ((br * ti + bi * tr) >> P)
                # |b t - b~ t~| <= eb (|t| + e_t) + |b| e_t, and the cuts
                ev = N * eb0 + ((eb * (abs(tr) + abs(ti) + eb0) + (abs(br) + abs(bi)) * eb0) >> P) + 4
            if psi:                             # a psi(a) = -(a (-psi(a)))
                vr, vi = -vr, -vi
            zv.append(vr)
            zvi.append(vi)
            ze.append(ev)
            if not logs:
                continue
            if psi:                             # the divergent sum_u (u+a)^-1 log(u+a)
                lv.append(0)
                le.append(0)
                continue
            # |beta_i/alpha_i| = sum_(m<i) 1/(s+m) rises with i, so alpha, beta
            # at 2M + 1 bound it at 2M for the log remainder; and it is at most
            # i/s, so the log companions sum to at most 2M mag1/s in modulus
            hb = ((abs(b_) << 32) // abs(a_) + 1) / 2 ** 32
            lrem = _ceil_int(lwm + math.log2(log_absA + 1 / pm1 + hb + 1e-9)) * e
            mag2 = 2 * M * mag1 // (sf >> F)
            eS2 = 4 * M + 4 + ((mag2 * 17 * M) >> wp) + ((mag2 * 4 * M) >> F if F else 0)
            lx = lAx[0]
            lc = (lx >> (P + _LOG_GUARD)) + 1    # log A rounded up
            # A log A/(s-1) + A/(s-1)^2 + log A/2 + log A S1 - S2
            bl = ((Ar * lx << F) // (s1 << (Pa + _LOG_GUARD))
                  + (Ar << (P + F2)) // ((s1 * s1) << Pa)
                  + (lx >> (_LOG_GUARD + 1))
                  + ((lx * S1) >> (P + _LOG_GUARD)) - S2)
            el = (((2 * Ac) << F) // (s1 << _LOG_GUARD) + 7 + ((abs(S1) * 2) >> (P + _LOG_GUARD))
                  + eS1 * lc + eS2 + lrem)
            if scale is not None:
                eb0 = e0 + de * i
                el = eb0 * lgsum + 4 * N + ((el * (scale[i] + eb0) + abs(bl) * eb0) >> P) + 2
                bl = lz[i] + ((bl * scale[i]) >> P)
            lv.append(bl)
            le.append(el)
        return ZetaRow(av, phi, r_lo, P, tuple(zv), tuple(ze), tuple(zvi) if cplx else None,
                       tuple(lv) if logs else None, tuple(le) if logs else None, N, tuple(Ms))


def hurwitz_zeta(s, a, ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """zeta(s, a) = sum_{n>=0} (n+a)^-s, one column of euler_maclaurin_row.

    s: real >= 1 + 1e-3, or integer >= 2.  a: complex with Re a > 0.
    """
    with ctx.workdps():
        sv = _check_s_real(s, 2)
        av = _to_mp(a)
        if mp.re(av) <= 0:
            raise DomainError("hurwitz_zeta requires Re a > 0")
        r, phi = split_exponent(sv)
        return euler_maclaurin_row(av, phi, r, r, ctx).zeta_at(r)


def digamma(a, ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """psi(a) for Re a > 0, the column s = 1 of euler_maclaurin_row."""
    with ctx.workdps():
        av = _to_mp(a)
        if mp.re(av) <= 0:
            raise DomainError("digamma requires Re a > 0")
        return euler_maclaurin_row(av, 0, 1, 1, ctx).psi()


_gamma_cache: dict = {}
_gamma_lock = threading.Lock()


def euler_gamma(ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """Euler's constant, computed once per precision as -psi(1)."""
    key = ctx.dps
    with _gamma_lock:
        if key not in _gamma_cache:
            _gamma_cache[key] = -digamma(1, ctx)
        return _gamma_cache[key]


def log_zeta_sum(r, a, ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """sum_{u>=0} (u+a)^-r log(u+a), real a > 0 and r > 1: a row's log column."""
    with ctx.workdps():
        av = _to_mp(a)
        if isinstance(av, mpc) or av <= 0:
            raise DomainError("log_zeta_sum requires real a > 0")
        r0, phi = split_exponent(_check_s_real(r, 2))
        return euler_maclaurin_row(av, phi, r0, r0, ctx, logs=True).log_zeta_at(r0)


def periodic_zeta_sum(terms, s, ctx: PrecisionContext = DEFAULT_CTX, zeta=None,
                      psi=None) -> EvalResult:
    """sum_r w_r zeta(s, a_r) over the pairs (w_r, a_r) of terms.

    A sum sum_n w(n) (n+b)^-s with a periodic weight, split into its residue
    classes, takes this form. At s = 1 each zeta(s, a_r) has the pole
    1/(s-1) - psi(a_r) + O(s-1), so the sum converges exactly when the
    weights cancel, and is then -sum_r w_r psi(a_r); otherwise DomainError.
    zeta(s, a) and psi(a), when given, supply the values (reduction passes
    its reads of the lattice tables it keeps per process); else
    hurwitz_zeta and digamma do.
    """
    with ctx.workdps():
        zeta = zeta or (lambda s_, a: hurwitz_zeta(s_, a, ctx))
        psi = psi or (lambda a: digamma(a, ctx))
        if _to_mp(s) == 1:
            if abs(sum(w for (w, _) in terms)) > ctx.eps * sum(abs(w) for (w, _) in terms):
                raise DomainError("divergent sum at s = 1: the class weights do not cancel")
            parts = [psi(a).scale(-w) for (w, a) in terms]
        else:
            parts = [zeta(s, a).scale(w) for (w, a) in terms]
        return result_sum(parts, method="reduction")


# ---------------------------------------------------------------------------
# Roots of unity on the evaluation boundary
# ---------------------------------------------------------------------------

def root_of_unity(f: int, a: int, ctx: PrecisionContext = DEFAULT_CTX):
    """e^{2 pi i a / f} at working precision."""
    with ctx.workdps():
        a = a % f
        if a == 0:
            return mpf(1)
        return mp.expjpi(mpf(2 * a) / f)


# Largest order f that as_root_of_unity recognises.
MAX_ROOT_ORDER = 64


def as_root_of_unity(x, ctx: PrecisionContext | None = None):
    """Return (f, a) with x = e^{2 pi i a/f}, gcd(a,f)=1 and f <= MAX_ROOT_ORDER, or None.

    x must be a root to the rounding level 10^-dps of the working precision
    (root_of_unity rounds at 10^-(dps+8)), under ctx.workdps() or, without
    ctx, at the precision in force as ctx.workdps() sets it; a point merely
    near a root is not one.
    """
    if ctx is not None:
        with ctx.workdps():
            return as_root_of_unity(x)
    xv = _to_mp(x)
    tol = mpf(10) ** (8 - mp.dps)
    if abs(abs(xv) - 1) > tol:
        return None
    ang = mp.arg(mpc(xv)) / (2 * mp.pi)
    for f in range(1, MAX_ROOT_ORDER + 1):
        a = int(mp.nint(ang * f))
        if abs(ang * f - a) < tol * f:
            a %= f
            g = math.gcd(a, f)
            return (f // g, a // g)
    return None


# ---------------------------------------------------------------------------
# Lerch transcendent and polylogarithm
# ---------------------------------------------------------------------------

# Longest truncation of a geometric sum with |x| < 1: the interior series of
# lerch_phi, and in reduction the geometric outer sums (the x^(m+n) diagonals
# among them). Their length grows like 1/(1 - |x|); past the cap an
# evaluation raises DomainError instead of running for hours. The admitted
# |x| falls with the precision: about 0.9991-0.9993 at 50 working digits,
# 0.9974-0.9976 at 200 (the README tabulates it).
MAX_GEOMETRIC_TERMS = 200_000


def geometric_length(T: int) -> int:
    """T, once checked against MAX_GEOMETRIC_TERMS."""
    if T > MAX_GEOMETRIC_TERMS:
        raise DomainError(f"|x| too close to 1: the geometric sum needs {T} > "
                          f"{MAX_GEOMETRIC_TERMS} terms")
    return T


def lerch_phi(x, s, b, ctx: PrecisionContext = DEFAULT_CTX, x_root=None,
              force_series=False) -> EvalResult:
    """Phi(x, s, b) = sum_{n>=0} x^n / (n+b)^s on the closed unit disk.

    Strategy by region: geometric truncation for |x| < 1; for x = 1 the
    Hurwitz zeta; for x = e^(2 pi i a/f), f > 1, the residue classes mod f,
    Phi = f^-s sum_r x^r zeta(s, (r+b)/f) by periodic_zeta_sum, whose s = 1
    case is the closed form -f^-1 sum_r x^r psi((r+b)/f). force_series routes
    boundary points through iterated trailing-window averaging instead
    (empirical bound, method tag direct_tail), as an independent cross-check
    of the classes.
    """
    with ctx.workdps():
        bv = _to_mp(b)
        if mp.re(bv) <= 0:
            raise DomainError("lerch_phi requires Re b > 0")
        xv = _to_mp(x)
        if abs(xv) > 1 + ctx.eps:
            raise DomainError("lerch_phi requires |x| <= 1")
        if xv == 0:
            sv = _to_mp(s)
            val = bv ** (-sv)
            return EvalResult(val, abs(val) * mpf(10) ** (-(ctx.dps + 4)), "closed_form")
        root = x_root
        if root is None:
            root = as_root_of_unity(xv, ctx)
        if root is not None and root[0] == 1 and not force_series:
            return hurwitz_zeta(s, bv, ctx)
        if root is not None and root[0] > 1:
            f, a = root
            sv = _to_mp(s)
            if force_series:
                return _lerch_series_averaged(f, a, sv, bv, ctx)
            terms = [(root_of_unity(f, a * r, ctx), (r + bv) / f) for r in range(f)]
            return periodic_zeta_sum(terms, s, ctx).scale(mpf(f) ** (-sv))
        # interior point: geometric series
        sv = _to_mp(s)
        if sv < 1 and not (sv == mp.floor(sv)):
            raise DomainError("lerch_phi requires s >= 1 for |x| < 1")
        r = abs(xv)
        eps = ctx.eps
        # |tail| <= r^(T+1) |T+1+b|^(-s) / (1-q): past n = T the terms fall by
        # at least q = r ((T+2+Re b)/(T+1+Re b))^max(0, -s) a step. T grows
        # until that is at most eps |partial sum|, since at negative s the
        # terms grow with n before they fall
        T = int(mp.ceil((-mp.log(eps * (1 - r))) / (-mp.log(r)))) + 4
        total, n = mpf(0), 0
        xp = mpc(1) if isinstance(xv, mpc) else mpf(1)
        while True:
            geometric_length(T)
            q = r * ((T + 2 + mp.re(bv)) / (T + 1 + mp.re(bv))) ** max(0, -sv)
            if q >= 1:
                raise DomainError(f"the tail of Phi(x, {s}, b) does not fall geometrically "
                                  f"past {T} terms")
            for n in range(n, T + 1):
                total += xp * (n + bv) ** (-sv)
                xp *= xv
            n = T + 1
            tail = abs(xp) / (1 - q) * abs((T + 1 + bv) ** (-sv))
            if tail <= eps * abs(total):
                break
            T += T // 2 + 1
        return EvalResult(total, tail + abs(total) * mpf(10) ** (-(ctx.dps + 2)), "direct_tail")


def _lerch_series_averaged(f, a, sv, bv, ctx) -> EvalResult:
    """Boundary-series Phi via iterated averaging of trailing partial sums,
    lerch_phi's force_series cross-check of the residue classes.

    Each pass averages windows of one full period f, which kills the leading
    oscillating tail exactly (a period of x^j sums to 0) and gains roughly one
    power of 1/J. The bound is the spread of the last two averaging levels x4
    -- empirical, hence the direct_tail tag.
    """
    with ctx.workdps():
        K = 64
        levels = 6
        J = max(4 * f * K, 4096)
        x = root_of_unity(f, a, ctx)
        partial = mpc(0)
        xp = mpc(1)
        sums = []
        for n in range(J):
            partial += xp * (n + bv) ** (-sv)
            sums.append(partial)
            xp *= x
        seq = sums[-(levels * f + 1):]
        level_ends = []
        for _ in range(levels):
            seq = [sum(seq[i:i + f]) / f for i in range(len(seq) - f + 1)]
            level_ends.append(seq[-1])
        spread = abs(level_ends[-1] - level_ends[-2])
        return EvalResult(level_ends[-1], 4 * spread + mpf(10) ** (-(ctx.dps // 2)),
                          "direct_tail")


def polylog(s, x, ctx: PrecisionContext = DEFAULT_CTX, x_root=None) -> EvalResult:
    """Li(s; x) = sum_{n>=1} x^n n^-s = x * Phi(x, s, 1)."""
    with ctx.workdps():
        xv = _to_mp(x)
        if xv == 0:
            return EvalResult(mpf(0), mpf(0), "closed_form")
        if xv == 1 or (x_root is not None and x_root[0] == 1):
            sv = _to_mp(s)
            if sv == mp.floor(sv) and int(sv) < 2:
                raise DomainError("polylog diverges at s=1, x=1")
        return lerch_phi(xv, s, 1, ctx, x_root=x_root).scale(xv)


# ---------------------------------------------------------------------------
# Dirichlet characters, Gauss sums, L-functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """Dirichlet character mod f stored as its value table (index a -> chi(a))."""

    modulus: int
    values: tuple  # python complex (exact for 0, +-1, +-i entries)
    is_trivial: bool
    name: str = ""

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    def conjugate(self) -> "Character":
        return Character(self.modulus, tuple(v.conjugate() for v in self.values),
                         self.is_trivial, self.name + "~" if self.name else "")


def make_character(f: int, table, name: str = "") -> Character:
    """Validate a value table against the character axioms and wrap it."""
    if f < 1 or len(table) != f:
        raise CharacterError(f"value table must have length f={f}")
    vals = tuple(complex(v) for v in table)
    tol = 1e-9
    for a in range(f):
        if math.gcd(a, f) > 1 or (f > 1 and a == 0):
            if vals[a % f] != 0:
                raise CharacterError(f"chi({a}) must vanish for gcd(a,f)>1")
        else:
            if abs(abs(vals[a]) - 1) > tol:
                raise CharacterError(f"chi({a}) must be a root of unity")
    if abs(vals[1 % f] - 1) > tol:
        raise CharacterError("chi(1) must equal 1")
    for a in range(1, f + 1):
        for b_ in range(a, f + 1):
            if math.gcd(a, f) == 1 and math.gcd(b_, f) == 1:
                lhs = vals[(a * b_) % f]
                rhs = vals[a % f] * vals[b_ % f]
                if abs(lhs - rhs) > tol:
                    raise CharacterError(
                        f"multiplicativity fails: chi({a}*{b_}) != chi({a})chi({b_})")
    trivial = all(vals[a] == 1 for a in range(f) if math.gcd(a, f) == 1)
    return Character(f, vals, trivial, name)


CHI0 = make_character(1, [1], "chi0")
CHI3 = make_character(3, [0, 1, -1], "chi3")
CHI4 = make_character(4, [0, 1, 0, -1], "chi4")

BUILTIN_CHARACTERS = {"chi0": CHI0, "chi3": CHI3, "chi4": CHI4}


def gauss_sum(chi: Character, ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """tau(chi) = sum_{a=1}^{f} chi(a) e^{2 pi i a / f}."""
    with ctx.workdps():
        f = chi.modulus
        total = mpc(0)
        for a in range(1, f + 1):
            v = chi(a)
            if v == 0:
                continue
            total += mpc(v) * root_of_unity(f, a, ctx)
        return EvalResult(total, (f + abs(total)) * mpf(10) ** (-(ctx.dps + 2)), "closed_form")


def dirichlet_L(s, chi: Character, ctx: PrecisionContext = DEFAULT_CTX) -> EvalResult:
    """L(s; chi) = f^-s sum_a chi(a) zeta(s, a/f) by periodic_zeta_sum.

    For s = 1 the character sum over a period vanishes for nonprincipal chi,
    which kills the divergent part: L(1; chi) = -(1/f) sum_a chi(a) psi(a/f).
    """
    with ctx.workdps():
        f = chi.modulus
        terms = [(mpc(chi(a)), mpf(a) / f) for a in range(1, f + 1) if chi(a) != 0]
        return periodic_zeta_sum(terms, s, ctx).scale(mpf(f) ** (-_to_mp(s)))
