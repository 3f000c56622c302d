"""Arbitrary-precision special-function substrate.

Everything here returns an EvalResult: a high-precision value paired with an
absolute error bound and a tag saying how it was computed.

Hurwitz zeta values, their log-weighted companions sum_u (u+a)^-s log(u+a)
and psi(a) all come from one Euler-Maclaurin row kernel
(euler_maclaurin_row): for a shared a and exponents s = r + phi over a range
of r, one direct block of N terms (powers by repeated multiplication by
1/(a+j)) and one correction loop. N is chosen from a, the exponents and the
precision by a cost model, as in Johansson (arXiv:1309.2877); each column
then takes corrections until the next drops below 10^-dps min(1, Re(a)^-s)
with room for Johansson's remainder bound. Each bound is the larger of
2 x the first omitted correction and Johansson's remainder bound, plus a
rounding term. hurwitz_zeta, log_zeta_sum and digamma are single columns of
it; reduction.EvalCache keeps the whole rows one evaluation builds.

A periodic sum sum_n w(n) (n+b)^-s on the unit circle, split into residue
classes, is sum_r w_r zeta(s, a_r): periodic_zeta_sum holds it once, with its
closed form -sum_r w_r psi(a_r) at s = 1 when the weights cancel. lerch_phi
at a root of unity, dirichlet_L and the single sums of reduction call it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc


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


@dataclass
class EvalResult:
    """Value + rigorous absolute error bound + method tag."""

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
        """Multiply by an exactly-known scalar."""
        return EvalResult(self.value * c, self.abs_error_bound * abs(mpc(c)), self.method)

    def times(self, other):
        a, b = abs(mpc(self.value)), abs(mpc(other.value))
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


@dataclass(frozen=True)
class ZetaRow:
    """Columns s = r + phi, r = r_lo..r_hi, of euler_maclaurin_row at one a.

    zeta[i] is zeta(s, a) and logs[i] is sum_u (u+a)^-s log(u+a) (logs is
    None when the row was made without them); *_bnd hold their bounds. With
    phi = 0 the column r = 1 holds psi(a) in place of the divergent zeta(1, a).
    """

    phi: object
    r_lo: int
    zeta: tuple
    zeta_bnd: tuple
    logs: tuple | None = None
    log_bnd: tuple | None = None

    @property
    def r_hi(self) -> int:
        return self.r_lo + len(self.zeta) - 1

    def _index(self, r):
        if not self.r_lo <= r <= self.r_hi:
            raise IndexError(f"column {r} outside the row {self.r_lo}..{self.r_hi}")
        if r < 2:   # s = r + phi >= 2 needs no check
            _check_s_real(r + self.phi, 2)
        return r - self.r_lo

    def zeta_at(self, r) -> EvalResult:
        i = self._index(r)
        return EvalResult(self.zeta[i], self.zeta_bnd[i], "euler_maclaurin")

    def log_zeta_at(self, r) -> EvalResult:
        i = self._index(r)
        if self.logs is None:
            raise DomainError("row made without the log-weighted sums (complex a)")
        return EvalResult(self.logs[i], self.log_bnd[i], "euler_maclaurin")

    def psi(self) -> EvalResult:
        if self.phi or self.r_lo != 1:
            raise ValueError("psi(a) is the column r = 1 of a row with phi = 0")
        return EvalResult(self.zeta[0], self.zeta_bnd[0], "euler_maclaurin")


def _block_length(alpha: float, cols, dps: int, per_term: float, per_column: float,
                  per_correction: float) -> int:
    """Length N of the direct block of a row, from a cost model.

    As in Johansson (arXiv:1309.2877, sec. 3), N and the number M of
    corrections are chosen together: for each candidate N, M(s) is the index
    of the first correction c_k (s)_(2k-1) A^(1-s-2k), A = alpha + N, below
    the column's target (estimated with |B_2k/(2k)!| ~ 2 (2 pi)^-2k), and the
    cost is N (per_term + K per_column) + K mean_s M(s) per_correction. Only
    the first, middle and last columns are estimated. A >= 2 keeps log(A + t)
    positive in the bounds of the log-weighted sums.
    """
    K = len(cols)
    samples = sorted({float(cols[0]), float(cols[K // 2]), float(cols[-1])})
    n0 = max(0, math.ceil(2 - alpha))
    best = None
    for step in (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384):
        N = n0 + step
        A = alpha + N
        lA, l2piA = math.log(A), 2 * math.log(2 * math.pi * A)
        total_M = 0
        for s in samples:
            # log(|first correction| / target), target 10^-dps min(1, alpha^-s)
            L = math.log(s / 12) - (s + 1) * lA + dps * _LN10 + s * max(0.0, math.log(alpha))
            k = 1
            while L >= 0 and k <= _MAX_CORRECTIONS:
                step_k = math.log((s + 2 * k - 1) * (s + 2 * k)) - l2piA
                if step_k >= 0:     # the corrections grow before the target
                    break
                L += step_k
                k += 1
            if L >= 0:
                break
            total_M += k
        else:
            cost = N * (per_term + K * per_column) + K * total_M / len(samples) * per_correction
            if best is None or cost < best[0]:
                best = (cost, N)
            elif cost > 2 * best[0]:
                break
    return N if best is None else best[1]


def _signed_man_exp(x: mpf):
    """(m, e) with x = m 2^e and m a signed int."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def euler_maclaurin_row(a, phi, r_lo: int, r_hi: int, ctx: PrecisionContext = DEFAULT_CTX,
                        logs: bool = False) -> ZetaRow:
    """zeta(r + phi, a) for r = r_lo..r_hi, and with logs sum_u (u+a)^-(r+phi) log(u+a).

    One direct block sum_{j<N} (a+j)^-s for every column, by repeated
    multiplication by 1/(a+j) (one log per j for the log sums or a fractional
    phi), then one Euler-Maclaurin loop at A = a + N shared by all columns:
    zeta(s, a) = block + A^(1-s)/(s-1) + A^-s/2 + sum_{k<=M} c_k (s)_(2k-1)
    A^(-s-2k+1), c_k = B_2k/(2k)!. With phi = 0 the column s = 1 takes -log A
    in place of A^(1-s)/(s-1) and yields -psi(a). The log sums differentiate
    the same terms in s. Each column stops at the first correction below
    10^-dps min(1, Re(a)^-s), or once the corrections grow.

    Bounds: each column's remainder after M corrections is at most the larger
    of 2 x the first omitted correction and Johansson's bound (arXiv:1309.2877,
    Thm. 1, with |B~_2M(t)| <= 4 (2M)!/(2 pi)^2M) 4 |(s)_2M| (2 pi)^-2M
    Re(A)^(1-s-2M)/(s+2M-1), which holds for complex a too; for the log sums,
    4 (2 pi)^-2M Re(A)^(1-p) (|alpha_2M| ((p-1) log A + 1)/(p-1)^2 +
    |beta_2M|/(p-1)), p = s + 2M, with f^(2M)(t) = t^-p (alpha_2M log t +
    beta_2M). A rounding term of 10^-(dps+4) times the sum of the moduli of
    the summed parts is added.
    """
    with ctx.workdps():
        av = _to_mp(a)
        if mp.re(av) <= 0:
            raise DomainError("the Euler-Maclaurin row requires Re a > 0")
        cplx = isinstance(av, mpc)
        if logs and cplx:
            raise DomainError("log-weighted zeta sums require real a > 0")
        ints = not phi
        cols = list(range(r_lo, r_hi + 1)) if ints else [r + phi for r in range(r_lo, r_hi + 1)]
        K = len(cols)
        if K < 1 or r_lo < 1:
            raise DomainError("a row needs columns r = r_lo..r_hi with 1 <= r_lo <= r_hi")
        alpha = mp.re(av)
        need_log = logs or not ints
        # relative costs: a block term per column takes 2 mpf operations (4
        # with logs), a correction per column about 2/3 of one in integers,
        # a log about 24
        N = _block_length(float(alpha), cols, ctx.dps, 4 + 24 * need_log,
                          2 + 2 * logs, (2 + logs) / 3)
        first = cols[0]

        # direct block
        z = [mpf(0)] * K
        zabs = [mpf(0)] * K if cplx else z
        lsum = [mpf(0)] * K if logs else None
        lneg = [mpf(0)] * K if logs else None   # 2 |terms| with log(a+j) < 0
        for j in range(N):
            x = av + j
            inv = 1 / x
            lg = mp.log(x) if need_log else None
            p = inv ** first if ints else mp.exp(-first * lg)
            if cplx:
                q = abs(inv)
                pa = q ** first if ints else mp.exp(-first * mp.re(lg))
            for i in range(K):
                z[i] += p
                if logs:
                    t = p * lg
                    lsum[i] += t
                    if lg < 0:
                        lneg[i] -= 2 * t
                if cplx:
                    zabs[i] += pa
                    pa *= q
                p *= inv

        # one Euler-Maclaurin loop for every column
        A = av + N
        Ainv = 1 / A
        Ainv2 = Ainv * Ainv
        lA = mp.log(A)
        reA = mp.re(A)
        Apow = [Ainv ** first if ints else mp.exp(-first * lA)]
        for _ in range(K - 1):
            Apow.append(Apow[-1] * Ainv)
        # stop column s once c_k (s)_(2k-1) A^(1-2k) <= target(s) |A|^s / W(s):
        # the target is 10^-dps min(1, Re(a)^-s), and W(s) covers the ratio
        # of Johansson's bound to the first omitted correction
        eps = mpf(10) ** (-ctx.dps)
        g = abs(A) / max(alpha, 1)
        tgt = [eps * (g ** first if ints else mp.exp(first * mp.log(g)))]
        for _ in range(K - 1):
            tgt.append(tgt[-1] * g)
        w2 = 2 * (2 * math.pi * float(reA)) ** 2
        # The corrections relative to A^-s, c_k (s)_(2k-1) A^(1-2k), and their
        # log companions are summed exactly in integers, in units of 2^-P:
        # with c_k A^(1-2k) = m 2^e and alpha_i, beta_i (f^(i)(t) = t^(-s-i)
        # (alpha_i log t + beta_i)) held as ints times 2^-F, a correction is
        # m alpha_(2k-1) 2^(e+P-F), cut to an int. F = 0 for integer s, whose
        # alpha_i, beta_i are exact ints; the cuts stay below 2^-P per term.
        P = mp.prec + 20
        F = 0 if ints else P
        sfx = cols if ints else [int(mp.ldexp(c, F)) for c in cols]
        tgt = [int(mp.ldexp(t / max(2.0, w2 / ((float(c) + 1) * (float(c) + 2))), P))
               for t, c in zip(tgt, cols)]
        S1, S1i, S2 = [0] * K, [0] * K, [0] * K
        al, be = [1 << F] * K, [0] * K
        last = [None] * K
        zrem, lrem, M = [None] * K, [None] * K, [0] * K
        twopi_inv2 = 1 / (2 * mp.pi) ** 2
        tp = mpf(1)                             # (2 pi)^-2(k-1)
        Aodd = Ainv                             # A^(1-2k)
        active = list(range(K))
        k = 1
        while active:
            b2k = bernoulli(2 * k)
            Q = mpf(b2k.numerator) / b2k.denominator / mp.factorial(2 * k) * Aodd
            qr, er = _signed_man_exp(mp.re(Q))
            qi, ei = _signed_man_exp(mp.im(Q)) if cplx else (0, 0)
            er, ei = er + P - F, ei + P - F
            still = []
            for i in active:
                a_, b_ = al[i], be[i]
                t = sfx[i] + ((2 * k - 3) << F)
                if k > 1:   # i = 2k-3 -> 2k-2
                    a_, b_ = -(t * a_ >> F), a_ - (t * b_ >> F)
                a_even, b_even = a_, b_
                t += 1 << F  # -> 2k-1
                a_, b_ = -(t * a_ >> F), a_ - (t * b_ >> F)
                x = -qr * a_
                term = x << er if er >= 0 else x >> -er
                mag = abs(term)
                if cplx:
                    x = -qi * a_
                    term_i = x << ei if ei >= 0 else x >> -ei
                    mag += abs(term_i)
                if k > 1 and (mag <= tgt[i] or mag > last[i] or k > _MAX_CORRECTIONS):
                    # term k omitted, M = k - 1 corrections taken
                    s, m2 = cols[i], 2 * (k - 1)
                    Pa = abs(Apow[i])
                    scale = Pa * abs(A) ** 2 * abs(Aodd) if not cplx else reA ** (1 - s - m2)
                    a_even = mp.ldexp(abs(a_even), -F)
                    zrem[i] = max(2 * Pa * mp.ldexp(mag, -P),
                                  4 * a_even * tp * scale / (s + m2 - 1))
                    if logs:
                        pm1 = s + m2 - 1
                        omitted = Q * mp.ldexp(-a_ * lA - b_, -F)
                        lrem[i] = max(2 * Pa * abs(omitted),
                                      4 * tp * scale * (a_even * (pm1 * lA + 1) / pm1 ** 2
                                                        + mp.ldexp(abs(b_even), -F) / pm1))
                    M[i] = k - 1
                    continue
                S1[i] += term
                if cplx:
                    S1i[i] += term_i
                if logs:
                    x = qr * b_
                    S2[i] += x << er if er >= 0 else x >> -er
                al[i], be[i], last[i] = a_, b_, mag
                still.append(i)
            active = still
            Aodd *= Ainv2
            tp *= twopi_inv2
            k += 1
        S1 = [mpc(mp.ldexp(x, -P), mp.ldexp(y, -P)) if cplx else mp.ldexp(x, -P)
              for x, y in zip(S1, S1i)]
        S2 = [mp.ldexp(x, -P) for x in S2]

        zeta, zbnd = [], []
        logv, lbnd = ([], []) if logs else (None, None)
        ulp = mpf(10) ** (-(ctx.dps + 4))
        for i, s in enumerate(cols):
            P = Apow[i]
            rnd = ulp * max(1, (N + K + 2 * M[i]) / 10 ** 4)
            psi_col = ints and s == 1
            lead = -lA if psi_col else A * P / (s - 1)
            parts = (lead, P / 2, P * S1[i])
            val = z[i] + sum(parts)
            mag = abs(zabs[i]) + sum(abs(v) for v in parts)
            zeta.append(-val if psi_col else val)
            zbnd.append(zrem[i] + mag * rnd)
            if logs:
                if psi_col:   # the divergent sum_u (u+a)^-1 log(u+a)
                    logv.append(None)
                    lbnd.append(None)
                    continue
                lparts = (A * P * ((s - 1) * lA + 1) / (s - 1) ** 2, P * lA / 2,
                          P * (lA * S1[i] - S2[i]))
                logv.append(lsum[i] + sum(lparts))
                lmag = abs(lsum[i]) + lneg[i] + sum(abs(v) for v in lparts)
                lbnd.append(lrem[i] + lmag * rnd)
        return ZetaRow(phi, r_lo, tuple(zeta), tuple(zbnd),
                       tuple(logv) if logs else None, tuple(lbnd) if logs else None)


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
    """sum_{u>=0} (u+a)^-r * log(u+a), real a > 0, r integer >= 2 or real > 1.

    Companion primitive to hurwitz_zeta used by tail expansions that carry a
    logarithm (from psi and from log-bearing asymptotics).
    """
    with ctx.workdps():
        rv = _check_s_real(r, 2)
        av = _to_mp(a)
        if isinstance(av, mpc) or av <= 0:
            raise DomainError("log_zeta_sum requires real a > 0")
        r0, phi = split_exponent(rv)
        return euler_maclaurin_row(av, phi, r0, r0, ctx, logs=True).log_zeta_at(r0)


def periodic_zeta_sum(terms, s, ctx: PrecisionContext = DEFAULT_CTX, rows=None) -> EvalResult:
    """sum_r w_r zeta(s, a_r) over the pairs (w_r, a_r) of terms.

    A sum sum_n w(n) (n+b)^-s with a periodic weight, split into its residue
    classes, takes this form. At s = 1 each zeta(s, a_r) has the pole
    1/(s-1) - psi(a_r) + O(s-1), so the sum converges exactly when the
    weights cancel, and is then -sum_r w_r psi(a_r); otherwise DomainError.
    rows, when given, supplies the values by its zeta(s, a) and psi(a) (as
    reduction.EvalCache does, from rows shared with the rest of an
    evaluation); else hurwitz_zeta and digamma do.
    """
    with ctx.workdps():
        zeta = rows.zeta if rows is not None else (lambda s_, a: hurwitz_zeta(s_, a, ctx))
        psi = rows.psi if rows is not None else (lambda a: digamma(a, ctx))
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


def as_root_of_unity(x, ctx: PrecisionContext = DEFAULT_CTX):
    """Return (f, a) with x = e^{2 pi i a/f}, gcd(a,f)=1 and f <= MAX_ROOT_ORDER, or None.

    x must be a root to the rounding level 10^-dps of the working precision
    (root_of_unity rounds at 10^-(dps+8)); a point merely near a root is not
    one, and is summed as an interior point.
    """
    with ctx.workdps():
        xv = _to_mp(x)
        tol = ctx.eps
        if abs(abs(xv) - 1) > tol:
            return None
        ang = mp.arg(mpc(xv)) / (2 * mp.pi)
        for f in range(1, MAX_ROOT_ORDER + 1):
            a = int(mp.nint(ang * f))
            if abs(ang * f - a) < tol * f:
                a %= f
                g = math.gcd(a, f) if a else f
                return (f // g, a // g) if a else (1, 0)
        return None


# ---------------------------------------------------------------------------
# Lerch transcendent and polylogarithm
# ---------------------------------------------------------------------------

# Longest truncation of a geometric sum with |x| < 1: the interior series of
# lerch_phi, and in reduction the geometric outer sums and the diagonal sums
# of x^(m+n) terms. Their length grows like 1/(1 - |x|); past the cap an
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
        # |tail| <= r^(T+1) (T+1+Re b)^(-s) / (1-r) for s >= 0
        T = geometric_length(int(mp.ceil((-mp.log(eps * (1 - r))) / (-mp.log(r)))) + 4)
        total = mpf(0)
        xp = mpc(1) if isinstance(xv, mpc) else mpf(1)
        for n in range(T + 1):
            total += xp * (n + bv) ** (-sv)
            xp *= xv
        bound = abs(xp) / (1 - r) * abs((T + 1 + bv) ** (-sv)) + abs(total) * mpf(10) ** (-(ctx.dps + 2))
        return EvalResult(total, bound, "direct_tail")


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
