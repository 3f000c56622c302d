"""Special-function substrate checks against independent oracles.

mpmath's own zeta/psi/lerchphi implementations serve as cross-checks; frozen
expected values were computed with the brute-force oracles embedded below.
"""

import math
import random
import threading
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from dpl.specfun import (
    CHI0,
    CHI3,
    CHI4,
    CharacterError,
    DomainError,
    EvalResult,
    PrecisionContext,
    as_root_of_unity,
    bernoulli,
    digamma,
    dirichlet_L,
    euler_gamma,
    gauss_sum,
    hurwitz_zeta,
    lerch_phi,
    log_zeta_sum,
    make_character,
    polylog,
    root_of_unity,
    euler_maclaurin_row,
    split_exponent,
)
from dpl import specfun
from dpl import reduction

CTX = PrecisionContext()


def mp60():
    return mp.workdps(75)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def bernoulli_oracle(n):
    # defining recurrence sum_{j=0}^{n} C(n+1,j) B_j = 0, written independently
    b = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b.append(Fraction(-1, m + 1) * acc)
    return b[n]


def test_bernoulli_base_cases():
    assert bernoulli(0) == Fraction(1)
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == Fraction(0)
    assert bernoulli(7) == Fraction(0)


def test_bernoulli_b12_against_recurrence_oracle():
    assert bernoulli_oracle(12) == Fraction(-691, 2730)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("n", [2, 10, 20, 30, 50])
def test_bernoulli_matches_mpmath(n):
    with mp60():
        ours = mpf(bernoulli(n).numerator) / bernoulli(n).denominator
        assert abs(ours - mpmath.bernoulli(n)) < mpf(10) ** -60


def test_bernoulli_negative_index_rejected():
    with pytest.raises(DomainError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

def test_hurwitz_zeta_at_a1_is_riemann_zeta():
    with mp60():
        r = hurwitz_zeta(3, 1, CTX)
        assert abs(r.value - mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -70


@pytest.mark.parametrize("s", range(2, 11))
def test_hurwitz_bisection(s):
    # zeta(s, 1/2) = (2^s - 1) zeta(s, 1)
    with mp60():
        lhs = hurwitz_zeta(s, Fraction(1, 2), CTX)
        rhs = hurwitz_zeta(s, 1, CTX)
        diff = abs(lhs.value - (2 ** s - 1) * rhs.value)
        assert diff <= lhs.abs_error_bound + (2 ** s - 1) * rhs.abs_error_bound


def test_hurwitz_shift_recurrence_randomized():
    rng = random.Random(20240811)
    with mp60():
        for _ in range(120):
            s = rng.randint(2, 8)
            a = mpf(rng.uniform(0.01, 3.0))
            r1 = hurwitz_zeta(s, a, CTX)
            r2 = hurwitz_zeta(s, a + 1, CTX)
            diff = abs(r1.value - r2.value - a ** (-s))
            assert diff <= r1.abs_error_bound + r2.abs_error_bound


def test_hurwitz_shift_example():
    # zeta(2, 2) = zeta(2) - 1
    with mp60():
        r = hurwitz_zeta(2, 2, CTX)
        assert abs(r.value - (mpmath.zeta(2) - 1)) < mpf(10) ** -55


def test_hurwitz_against_mpmath_battery():
    rng = random.Random(7)
    with mp.workdps(CTX.dps + 25):
        for _ in range(25):
            s = mpf(rng.uniform(1.1, 8.0))
            a = mpf(rng.uniform(0.05, 5.0))
            r = hurwitz_zeta(s, a, CTX)
            assert abs(r.value - mpmath.zeta(s, a)) <= r.abs_error_bound


def test_hurwitz_complex_a():
    with mp.workdps(CTX.dps + 25):
        a = mpc("0.8", "0.3")
        r = hurwitz_zeta(3, a, CTX)
        assert abs(r.value - mpmath.zeta(3, a)) <= r.abs_error_bound


def test_hurwitz_domain_gates():
    with pytest.raises(DomainError):
        hurwitz_zeta(mpf("1.0005"), 1, CTX)  # closer to 1 than the allowed gap
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 1, CTX)
    with pytest.raises(DomainError):
        hurwitz_zeta(3, -2, CTX)


def test_hurwitz_bound_honesty_doubling_digits():
    coarse_ctx = PrecisionContext(working_digits=25, guard_digits=10, output_digits=15)
    fine_ctx = PrecisionContext(working_digits=50, guard_digits=10, output_digits=30)
    with mp60():
        for (s, a) in [(2, mpf("0.37")), (5, mpf("1.9")), (mpf("1.25"), mpf("2.5"))]:
            coarse = hurwitz_zeta(s, a, coarse_ctx)
            fine = hurwitz_zeta(s, a, fine_ctx)
            assert abs(coarse.value - fine.value) <= coarse.abs_error_bound


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------

def test_digamma_functional_equation():
    with mp60():
        a = mpf(3) / 2
        r1 = digamma(a + 1, CTX)
        r0 = digamma(a, CTX)
        assert abs(r1.value - r0.value - 1 / a) <= r1.abs_error_bound + r0.abs_error_bound


def harmonic_gamma_oracle(n_base=100000):
    # gamma = lim (H_n - ln n), Richardson-extrapolated in 1/n over n, 2n, 4n
    with mp.workdps(40):
        vals = []
        h = mpf(0)
        upto = 0
        for n in (n_base, 2 * n_base, 4 * n_base):
            for k in range(upto + 1, n + 1):
                h += mpf(1) / k
            upto = n
            vals.append(h - mpmath.log(n))
        # error model c1/n + c2/n^2: two Richardson passes
        r1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        return (4 * r1[1] - r1[0]) / 3


def test_digamma_at_one_is_minus_gamma():
    with mp.workdps(40):
        gamma_oracle = harmonic_gamma_oracle()
        r = digamma(1, CTX)
        assert abs(-r.value - gamma_oracle) < mpf(10) ** -12
    with mp60():
        assert abs(r.value + mpmath.euler) <= r.abs_error_bound


def test_digamma_at_half():
    # duplication: psi(1/2) = -gamma - 2 ln 2, cross-checked against the series
    with mp60():
        r = digamma(Fraction(1, 2), CTX)
        expected = -mpmath.euler - 2 * mpmath.log(2)
        assert abs(r.value - expected) <= r.abs_error_bound + mpf(10) ** -70


def test_digamma_complex_and_gates():
    with mp.workdps(CTX.dps + 25):
        a = mpc("0.4", "1.3")
        r = digamma(a, CTX)
        assert abs(r.value - mpmath.psi(0, a)) <= r.abs_error_bound
    with pytest.raises(DomainError):
        digamma(0, CTX)
    with pytest.raises(DomainError):
        digamma(-1.5, CTX)


def test_euler_gamma_cached_and_thread_consistent():
    results = []

    def worker():
        results.append(euler_gamma(CTX).value)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(v == results[0] for v in results)


# ---------------------------------------------------------------------------
# log-weighted zeta sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,a", [(2, 1.0), (3, 1.5), (5, 0.25), (2.5, 2.0)])
def test_log_zeta_sum_vs_mpmath_derivative(r, a):
    # sum (u+a)^-r log(u+a) = -d/ds zeta(s, a) at s=r
    with mp.workdps(CTX.dps + 25):
        res = log_zeta_sum(r, mpf(a), CTX)
        ref = -mpmath.diff(lambda s: mpmath.zeta(s, mpf(a)), mpf(r))
        assert abs(res.value - ref) <= res.abs_error_bound + mpf(10) ** -55


# ---------------------------------------------------------------------------
# The Euler-Maclaurin row kernel and the rows an evaluation keeps
# ---------------------------------------------------------------------------

ROW_POINTS = [Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(15, 2),
              Fraction(257, 4), Fraction(65), Fraction(1000), mpc("0.75", "2.5"),
              # tail rows of the benchmark's passes (274/3 is not dyadic)
              Fraction(549, 8), Fraction(1093, 4), Fraction(274, 3)]


def _reference_slack(ref, dps):
    # mpmath's zeta at dps + 40 digits is good to about 10^-(dps+40) relative to
    # max(1, |value|), not relative to a tiny value; below that slack a bound
    # cannot be checked against it
    return mpf(10) ** (-(dps + 38)) * max(1, abs(ref))


def _within(res, ref, dps):
    """res's bound dominates its error and is near the working precision."""
    return (abs(res.value - ref) <= res.abs_error_bound + _reference_slack(ref, dps)
            and res.abs_error_bound <= mpf(10) ** (-(dps - 5)) * max(1, abs(ref)))


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_row_bounds_dominate_true_error(digits):
    ctx = PrecisionContext(working_digits=digits, guard_digits=10,
                           output_digits=digits - 10)
    for a in ROW_POINTS:
        real = not isinstance(a, mpc)
        for phi in (0, Fraction(1, 2)):
            with ctx.workdps():
                av = specfun._to_mp(a)
                ph = specfun._to_mp(phi) if phi else 0
                row = euler_maclaurin_row(av, ph, 1, 70, ctx, logs=real)
            with mp.workdps(ctx.dps + 40):
                bad = []
                for r in range(2, 71):
                    s = r + specfun._to_mp(phi)
                    if not _within(row.zeta_at(r), mpmath.zeta(s, av), ctx.dps):
                        bad.append(("zeta", r))
                    if real and not _within(row.log_zeta_at(r), -mpmath.zeta(s, av, 1), ctx.dps):
                        bad.append(("log", r))
                if not phi:
                    ref = mpmath.digamma(av)
                    for res in (row.psi(), digamma(av, ctx)):
                        if not _within(res, ref, ctx.dps):
                            bad.append(("psi", a))
                assert not bad, (a, phi, bad)


@pytest.mark.parametrize("A", [(1093, 0, 2), (549, 0, 3), (3, 10, 2), (-7, 9, 0)],
                         ids=["1093/4", "549/8", "3/4+5/2i", "-7+9i"])
@pytest.mark.parametrize("wp", [100, 700])
def test_correction_factors_within_their_claim(A, wp):
    # each -c_k A^(1-2k) against exact rationals: off by less than 12k 2^-wp
    # of it in modulus, with the longer mantissa wp bits long
    Ar, Ai, Pa = A
    d = Fraction(Ar * Ar + Ai * Ai, 4 ** Pa)
    inv = (Fraction(Ar, 2 ** Pa) / d, Fraction(-Ai, 2 ** Pa) / d)

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    inv2, odd = mul(inv, inv), inv
    factors = specfun._correction_factors(Ar, Ai, Pa, wp)
    for k in range(1, 61):
        mr, mi, e = next(factors)
        assert max(abs(mr).bit_length(), abs(mi).bit_length()) == wp
        c = -bernoulli(2 * k) / math.factorial(2 * k)
        exact = (c * odd[0], c * odd[1])
        got = (Fraction(mr) * Fraction(2) ** e, Fraction(mi) * Fraction(2) ** e)
        err2 = (got[0] - exact[0]) ** 2 + (got[1] - exact[1]) ** 2
        assert err2 < (Fraction(12 * k, 2 ** wp)) ** 2 * (exact[0] ** 2 + exact[1] ** 2), k
        odd = mul(odd, inv2)


@pytest.mark.parametrize("a", [(Fraction(1093, 4), 0), (Fraction(1, 4), 0),
                               (Fraction(3, 4), Fraction(5, 2))],
                         ids=["1093/4", "1/4", "3/4+5/2i"])
def test_cut_powers_within_their_claim(a):
    # the row's block powers of q = a/(a+j), q cut to units of 2^-P, from p
    # = q, against exact rationals: the i-th is off by less than e + 2i
    # units, e + 3i at complex a, e = 1 (sqrt 2) the start's error
    P, K = 200, 80
    ar, ai = a
    for j in (1, 2, 7):
        d = (ar + j) ** 2 + ai ** 2
        qx = ((ar * (ar + j) + ai * ai) / d, ai * j / d)
        if ai:
            q = (math.floor(qx[0] * 2 ** P), math.floor(qx[1] * 2 ** P))
            e, de = math.sqrt(2), 3
        else:
            q, e, de = math.floor(qx[0] * 2 ** P), 1, 2
        px = qx
        for i, x in enumerate(specfun._cut_powers(q, q, K, P)):
            xr, xi = x if ai else (x, 0)
            off = math.hypot(float(xr - px[0] * 2 ** P), float(xi - px[1] * 2 ** P))
            assert off < e + de * i, (j, i, off)
            px = (px[0] * qx[0] - px[1] * qx[1], px[0] * qx[1] + px[1] * qx[0])


# 1093/4: N = 0; 1/4: a long block; 274/3: not dyadic; phi = 1/2: mpf
# powers and logs in the block; 263/4 and 527/8 at 50 digits: just below
# (N = 1, the shortest block with a scale) and just above (N = 0) the
# argument bits/_BLOCK_BITS = 237/3.6 where the block ends
CUT_POINTS = [(Fraction(1093, 4), 0, 35), (Fraction(1, 4), 0, 12), (Fraction(274, 3), 0, 20),
              (Fraction(15, 2), Fraction(1, 2), 12), (Fraction(1093, 4), Fraction(1, 2), 20),
              (mpc("0.75", "2.5"), 0, 12), (mpc("0.75", "2.5"), Fraction(1, 2), 8),
              (Fraction(263, 4), 0, 20), (Fraction(527, 8), 0, 20)]


@pytest.mark.parametrize("a, phi, K", CUT_POINTS,
                         ids=[f"{a}-{phi}" for a, phi, _ in CUT_POINTS])
def test_row_cut_counts_cover_the_cut_errors(a, phi, K, monkeypatch):
    # With the remainder bounds set to 0, a column's bound is its count of
    # cuts alone. Each int is compared with the sum the row forms at its own
    # N and M, at 200 more bits: sum_{j<N} (a/(a+j))^s + (a/A)^s (A/(s-1) +
    # 1/2 + S1), S1 = sum_{k<=M} c_k (s)_(2k-1) A^(1-2k), A = a + N; -A log A
    # in place of A/(s-1) for a psi(a); for the log sums sum_{j<N}
    # (a/(a+j))^s log(a+j) + (a/A)^s (A log A/(s-1) + A/(s-1)^2 + log A/2 +
    # log A S1 - S2), S2 = sum_{k<=M} c_k beta_(2k-1) A^(1-2k), with
    # f^(i)(t) = t^(-s-i) (alpha_i log t + beta_i) for f(t) = t^-s log t.
    monkeypatch.setattr(specfun, "_ceil_int", lambda x: 0)
    ctx = PrecisionContext()
    real = not isinstance(a, mpc)
    with ctx.workdps():
        av = specfun._to_mp(a)
        ph = specfun._to_mp(phi) if phi else 0
        row = euler_maclaurin_row(av, ph, 1, K, ctx, logs=real)
    N, P = row.block, row.P

    def fr(x):
        return mpf(x.numerator) / x.denominator

    bad = []
    with mp.workprec(P + 200):
        A = av + N
        lA = mp.log(A)
        for r in range(1, K + 1):
            sx = r + Fraction(phi)
            s = fr(sx)
            al, be, S1, S2 = Fraction(1), Fraction(0), 0, 0
            for i in range(2 * row.corrections[r - 1]):
                al, be = -(sx + i) * al, al - (sx + i) * be     # order i + 1
                if i % 2 == 0:
                    k = i // 2 + 1
                    ck = bernoulli(2 * k) / math.factorial(2 * k)
                    S1 -= fr(ck * al) * A ** (1 - 2 * k)
                    S2 += fr(ck * be) * A ** (1 - 2 * k)
            psi = sx == 1
            v = sum((av / (av + j)) ** s for j in range(N))
            v += (av / A) ** s * ((-A * lA if psi else A / (s - 1)) + mpf(1) / 2 + S1)
            cols = [((-v if psi else v), row.zeta[r - 1],
                     row.zeta_im[r - 1] if row.zeta_im else 0, row.zeta_err[r - 1])]
            if real and not psi:
                vl = sum((av / (av + j)) ** s * mp.log(av + j) for j in range(N))
                vl += (av / A) ** s * (A * lA / (s - 1) + A / (s - 1) ** 2 + lA / 2
                                       + lA * S1 - S2)
                cols.append((vl, row.logs[r - 1], 0, row.log_err[r - 1]))
            for ref, n, ni, err in cols:
                off = abs(mpc(n, ni) - ref * mp.ldexp(1, P))
                if off > err:
                    bad.append((r, float(off), err))
    assert not bad, (N, bad)


@pytest.mark.parametrize("a", [Fraction(1, 4), Fraction(15, 2), Fraction(137, 2),
                               mpc("0.75", "2.5")], ids=["1/4", "15/2", "137/2", "3/4+5/2i"])
@pytest.mark.parametrize("phi", [0, Fraction(1, 2)], ids=["phi0", "phi1/2"])
def test_row_columns_do_not_depend_on_the_row(a, phi):
    # a zeta column has one value and bound at its argument, whichever row it
    # is read from: a short row without the log sums, or a tail-like row of 35
    # columns with them (at real a)
    real = not isinstance(a, mpc)
    with CTX.workdps():
        av = specfun._to_mp(a)
        ph = specfun._to_mp(phi) if phi else 0
        rows = [euler_maclaurin_row(av, ph, 1, 5, CTX),
                euler_maclaurin_row(av, ph, 1, 35, CTX, logs=real)]
        if a == Fraction(137, 2):
            rows.append(euler_maclaurin_row(av, ph, 1, 35, CTX))
    short = rows[0]
    for row in rows[1:]:
        assert row.zeta[:5] == short.zeta
        assert row.zeta_err[:5] == short.zeta_err
        assert (row.zeta_im and row.zeta_im[:5]) == short.zeta_im


def test_single_column_wrappers_are_accurate():
    # hurwitz_zeta and log_zeta_sum choose their own block for one column; at
    # a = 45/4 and s = 3/2 an unreachable target once picked a block too short
    with mp.workdps(CTX.dps + 40):
        for a in (Fraction(1, 4), Fraction(45, 4), Fraction(257, 4), Fraction(1000)):
            for s in (2, 7, Fraction(3, 2), Fraction(5, 2), 40):
                sm, am = specfun._to_mp(s), specfun._to_mp(a)
                assert _within(hurwitz_zeta(s, a, CTX), mpmath.zeta(sm, am), CTX.dps)
                assert _within(log_zeta_sum(s, a, CTX), -mpmath.zeta(sm, am, 1), CTX.dps)


def test_split_exponent():
    assert split_exponent(3) == (3, 0)
    assert split_exponent(Fraction(7, 2)) == (3, mpf("0.5"))
    r, phi = split_exponent(mpf(2))
    assert (r, phi) == (2, 0) and isinstance(phi, int)


def test_eval_cache_keeps_precisions_apart(empty_store):
    # the tables that zeta reads are keyed by mp.prec: a read at 30 digits
    # and one at 50 make tables of their own, and a second read at 30
    # digits makes none
    ctx30 = PrecisionContext(working_digits=30, guard_digits=10, output_digits=20)
    ctx50 = PrecisionContext(working_digits=50, guard_digits=10, output_digits=30)
    with ctx30.workdps():
        a = mpf(1) / 3 + 40

    def read(ctx):
        with ctx.workdps():
            return [reduction.zeta(r, a) for r in range(2, 9)]

    z30 = read(ctx30)
    keys30 = set(reduction.STORE)
    z50 = read(ctx50)
    keys50 = set(reduction.STORE) - keys30
    assert keys50 and {key[5] for key in keys30} != {key[5] for key in keys50}
    assert read(ctx30) == z30 and set(reduction.STORE) == keys30 | keys50
    with mp.workdps(120):
        for r, v30, v50 in zip(range(2, 9), z30, z50):
            ref = mpmath.zeta(r, a)
            assert abs(v50.value - ref) <= v50.abs_error_bound
            assert v50.abs_error_bound < mpf(10) ** -55 * ref
            assert v30.abs_error_bound > mpf(10) ** -55 * ref


def test_eval_cache_keeps_one_row_per_argument(monkeypatch, empty_store):
    # the inner values read their lattice tables and build no row; the store
    # holds one table per exponent j of Z_j (psi reads Z_1 = -psi), keyed
    # with frac(a) in units of 2^-P, P, the mp.prec in force and the top,
    # and a read at a + 1 shares the table of a
    built = []
    row = reduction.euler_maclaurin_row
    monkeypatch.setattr(reduction, "euler_maclaurin_row",
                        lambda *args, **kw: built.append(args) or row(*args, **kw))
    a = mpf("64.25")
    with CTX.workdps():
        for r in range(2, 12):
            reduction.zeta(r, a)
        reduction.psi(a)
        reduction.zeta(Fraction(5, 2), a)
        keys = set(reduction.STORE)
        reduction.zeta(3, a + 1)
        assert set(reduction.STORE) == keys
        prec = mp.prec
    assert not built
    assert sorted(((key[1], key[2]) for key in keys), key=str) == sorted(
        [("zeta", r) for r in range(1, 12)] + [("zeta", mpf("2.5"))], key=str)
    for key in keys:
        tag, _, _, Phi, P, key_prec, top = key
        assert tag == "table" and Phi == 1 << (P - 2) and key_prec == prec
        assert top % reduction._RUNG == 0 and top >= 64


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
def test_table_reads_within_their_bounds(digits):
    # reduction.zeta and reduction.psi against mpmath at 40 more digits, each
    # bound no looser than the one hurwitz_zeta or digamma gives at the point
    ctx = PrecisionContext(working_digits=digits, output_digits=digits - 10)
    with ctx.workdps():
        for a in (mpf(1) / 4, mpf(1) / 3, mpf(2) / 3, mpf(1), mpf(7) / 3, mpf("64.25")):
            for j in (2, 3, 7, Fraction(3, 2), Fraction(5, 2), None):
                if j is None:
                    got, row = reduction.psi(a), digamma(a, ctx)
                else:
                    got, row = reduction.zeta(j, a), hurwitz_zeta(j, a, ctx)
                with mp.workdps(mp.dps + 40):
                    ref = mpmath.digamma(a) if j is None else mpmath.zeta(specfun._to_mp(j), a)
                    assert abs(got.value - ref) <= got.abs_error_bound, (j, a)
                assert got.abs_error_bound <= row.abs_error_bound, (j, a)


def test_table_read_domain_checks():
    # the exponent and the argument are checked before any table is read
    with CTX.workdps():
        for j in (Fraction(1, 2), 1, -1, mpf("1.0001")):
            with pytest.raises(DomainError):
                reduction.zeta(j, mpf(1) / 3)
        for a in (0, mpf(-1) / 3, mpc(1, 1)):
            with pytest.raises(DomainError):
                reduction.zeta(2, a)
            with pytest.raises(DomainError):
                reduction.psi(a)


def test_row_domain_checks():
    row = euler_maclaurin_row(mpf(5), 0, 1, 3, CTX, logs=True)
    with pytest.raises(DomainError):
        row.zeta_at(1)              # the r = 1 column of a phi = 0 row is psi
    with pytest.raises(DomainError):
        row.log_zeta_at(1)
    crow = euler_maclaurin_row(mpc(5, 1), 0, 1, 3, CTX)
    with pytest.raises(DomainError):
        crow.log_zeta_at(2)         # no log sums at complex a
    with pytest.raises(DomainError):
        euler_maclaurin_row(mpf(-1), 0, 1, 3, CTX)


# ---------------------------------------------------------------------------
# Lerch transcendent / polylogarithm
# ---------------------------------------------------------------------------

def test_lerch_only_first_term_survives_at_x0():
    r = lerch_phi(0, 2, 3, CTX)
    with mp60():
        assert abs(r.value - mpf(1) / 9) < mpf(10) ** -55


def test_lerch_at_x1_is_zeta():
    with mp60():
        r = lerch_phi(1, 3, 1, CTX)
        assert abs(r.value - mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -70


def test_lerch_alternating_is_eta_like():
    # Phi(-1, 2, 1) = -(2^{1-2} - 1) zeta(2) = pi^2 / 12
    with mp60():
        r = lerch_phi(-1, 2, 1, CTX)
        assert abs(r.value - mp.pi ** 2 / 12) <= r.abs_error_bound + mpf(10) ** -70


def test_lerch_interior_vs_mpmath():
    with mp.workdps(CTX.dps + 25):
        # negative integer s: the terms grow with n before they fall
        for (x, s, b) in [(mpf("0.5"), 2, 1), (mpf("-0.7"), 3, mpf("0.3")),
                          (mpc("0.2", "0.4"), mpf("1.5"), mpf("1.25")),
                          (mpf("0.9"), -3, 1), (mpf("0.99"), -2, 1), (mpf("0.5"), -2, 1)]:
            r = lerch_phi(x, s, b, CTX)
            assert abs(r.value - mpmath.lerchphi(x, s, b)) <= r.abs_error_bound
    # the cut-off counts |T+1+b|^-s too: at s = -3 the bound is as small,
    # relative to the value, as on the other branches
    with mp.workdps(80):
        x = mpf("0.9")
        r = lerch_phi(x, -3, 1, CTX)
        assert abs(r.value - mpmath.lerchphi(x, -3, 1)) <= r.abs_error_bound
        assert r.abs_error_bound <= mpf("1e-59") * abs(r.value)


def test_lerch_root_of_unity_grouping():
    # reduction through Hurwitz zetas against the averaged boundary series,
    # every primitive f-th root with f <= 12, s in {2,3,4}
    with mp60():
        b = mpf("0.7")
        checked = 0
        for f in range(2, 13):
            for a in range(1, f):
                if math.gcd(a, f) != 1:
                    continue
                x = root_of_unity(f, a, CTX)
                for s in (2, 3, 4):
                    red = lerch_phi(x, s, b, CTX, x_root=(f, a))
                    ser = lerch_phi(x, s, b, CTX, x_root=(f, a), force_series=True)
                    assert abs(red.value - ser.value) <= red.abs_error_bound + ser.abs_error_bound
                    checked += 1
        assert checked == 3 * sum(1 for f in range(2, 13) for a in range(1, f)
                                  if math.gcd(a, f) == 1)


def test_lerch_boundary_s1_against_closed_form():
    # Phi(x, 1, 1) = -log(1 - x)/x at a root of unity x != 1: by default the
    # classes' digamma closed form to full precision, under force_series the
    # averaged series with its empirical bound
    for (f, a) in [(2, 1), (3, 1), (4, 1), (5, 2), (12, 5)]:
        x = root_of_unity(f, a, CTX)
        r = lerch_phi(x, 1, 1, CTX)
        with mp.workdps(CTX.dps + 30):
            ref = -mpmath.log(1 - x) / x
            assert abs(r.value - ref) <= r.abs_error_bound
        assert r.abs_error_bound <= mpf(10) ** -(CTX.dps - 5)
        assert r.method != "direct_tail"
    ser = lerch_phi(x, 1, 1, CTX, x_root=(f, a), force_series=True)
    assert ser.method == "direct_tail"
    with mp.workdps(CTX.dps + 30):
        assert abs(ser.value - ref) <= ser.abs_error_bound


def test_lerch_divergent_rejected():
    with pytest.raises(DomainError):
        lerch_phi(1, 1, 1, CTX)
    with pytest.raises(DomainError):
        lerch_phi(0.5, 2, -1, CTX)
    with pytest.raises(DomainError):
        lerch_phi(0.99, -1000, 1, CTX)  # terms still growing past the cut


def test_polylog_examples():
    with mp60():
        r = polylog(4, 1, CTX)
        assert abs(r.value - mpmath.zeta(4)) <= r.abs_error_bound + mpf(10) ** -70
        r = polylog(2, -1, CTX)
        assert abs(r.value + mp.pi ** 2 / 12) <= r.abs_error_bound + mpf(10) ** -70
        # oracle: -log(1-x) at working precision
        r = polylog(1, Fraction(1, 2), CTX)
        assert abs(r.value - mpmath.log(2)) <= r.abs_error_bound + mpf(10) ** -70
    with pytest.raises(DomainError):
        polylog(1, 1, CTX)


def test_as_root_of_unity_detection():
    assert as_root_of_unity(1, CTX) == (1, 0)
    assert as_root_of_unity(-1, CTX) == (2, 1)
    assert as_root_of_unity(mpc(0, 1), CTX) == (4, 1)
    assert as_root_of_unity(root_of_unity(12, 5, CTX), CTX) == (12, 5)
    assert as_root_of_unity(mpf("0.5"), CTX) is None


# ---------------------------------------------------------------------------
# Characters, Gauss sums, L-functions
# ---------------------------------------------------------------------------

def test_builtin_characters():
    assert CHI0.is_trivial and CHI0.modulus == 1 and CHI0(17) == 1
    assert CHI3.modulus == 3 and CHI3(2) == -1 and CHI3(3) == 0
    assert not CHI3.is_trivial
    assert CHI4(3) == -1 and CHI4(2) == 0


def test_make_character_rejects_multiplicativity_violation():
    # 3*3 = 9 = 1 mod 4, so chi(3)^2 must equal chi(1)
    with pytest.raises(CharacterError):
        make_character(4, [0, 1, 1, -1])


def test_make_character_rejects_nonvanishing_at_common_factor():
    with pytest.raises(CharacterError):
        make_character(4, [0, 1, 1j, -1])


CHI5 = make_character(5, [0, 1, 1j, -1j, -1], "chi5")


@pytest.mark.parametrize("chi", [CHI3, CHI4, CHI5])
def test_character_orthogonality(chi):
    total = sum(chi(a) for a in range(1, chi.modulus + 1))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("chi", [CHI3, CHI4, CHI5])
def test_gauss_sum_inversion(chi):
    # chi(n) tau(conj chi) = sum_a conj(chi)(a) e^{2 pi i a n / f} for n = 1..3f
    with mp60():
        f = chi.modulus
        bar = chi.conjugate()
        tau_bar = gauss_sum(bar, CTX).value
        for n in range(1, 3 * f + 1):
            rhs = mpc(0)
            for a in range(1, f + 1):
                if bar(a) == 0:
                    continue
                rhs += mpc(bar(a)) * root_of_unity(f, a * n, CTX)
            assert abs(mpc(chi(n)) * tau_bar - rhs) < mpf(10) ** -50


def test_gauss_sum_values():
    with mp60():
        assert abs(gauss_sum(CHI0, CTX).value - 1) < mpf(10) ** -55
        # two-term direct sum: e^{2 pi i/3} - e^{4 pi i/3} = i sqrt(3)
        direct = root_of_unity(3, 1, CTX) - root_of_unity(3, 2, CTX)
        assert abs(gauss_sum(CHI3, CTX).value - direct) < mpf(10) ** -55
        assert abs(direct - mpc(0, 1) * mp.sqrt(3)) < mpf(10) ** -55
        assert abs(abs(gauss_sum(CHI4, CTX).value) - 2) < mpf(10) ** -55


def test_dirichlet_L_principal_is_zeta():
    with mp60():
        r = dirichlet_L(3, CHI0, CTX)
        assert abs(r.value - mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -70


def test_dirichlet_L2_chi3_two_paths_and_series():
    with mp60():
        direct = dirichlet_L(2, CHI3, CTX)
        # second path: Gauss-sum inversion through polylogarithms at cube roots
        bar = CHI3.conjugate()
        tau_bar = gauss_sum(bar, CTX).value
        alt = mpc(0)
        for a in range(1, 4):
            if bar(a) == 0:
                continue
            alt += mpc(bar(a)) * polylog(2, root_of_unity(3, a, CTX), CTX, x_root=(3, a)).value
        alt /= tau_bar
        assert abs(direct.value - alt) < mpf(10) ** -50
        # coarse series oracle with rigorous tail envelope
        part = mpf(0)
        n_cut = 200000
        for n in range(1, n_cut + 1):
            c = CHI3(n)
            if c:
                part += mpf(c.real) / n ** 2
        assert abs(direct.value - part) < mpf(2) / n_cut


def test_dirichlet_L1_chi3_psi_path_vs_paired_series_oracle():
    with mp60():
        r = dirichlet_L(1, CHI3, CTX)
        # oracle: paired partial sums 1/(3j+1) - 1/(3j+2), Richardson in 1/J
        vals = []
        total = mpf(0)
        j = 0
        for cutoff in (50000, 100000):
            while j < cutoff:
                total += mpf(1) / (3 * j + 1) - mpf(1) / (3 * j + 2)
                j += 1
            vals.append(total)
        oracle = 2 * vals[1] - vals[0]
        assert abs(r.value - oracle) < mpf(10) ** -8
        # only after the oracle agrees, pin the closed form
        assert abs(r.value - mp.pi / (3 * mp.sqrt(3))) <= r.abs_error_bound + mpf(10) ** -55


def test_dirichlet_L1_principal_rejected():
    with pytest.raises(DomainError):
        dirichlet_L(1, CHI0, CTX)


# ---------------------------------------------------------------------------
# EvalResult plumbing
# ---------------------------------------------------------------------------

def test_eval_result_bounds_add():
    a = EvalResult(mpf(2), mpf("1e-10"))
    b = EvalResult(mpf(3), mpf("2e-10"))
    assert (a + b).abs_error_bound == mpf("3e-10")
    assert (a - b).abs_error_bound == mpf("3e-10")
    c = a.scale(-2)
    assert c.value == mpf(-4) and c.abs_error_bound == mpf("2e-10")
    d = a.times(b)
    assert abs(d.value - 6) < 1e-15
    assert d.abs_error_bound >= mpf("7e-10")


def test_eval_result_bounds_match_the_complex_modulus_formula():
    # times and scale take |value| where they took |mpc(value)|: the same
    # bits, since the modulus of a real mpc is the real's absolute value;
    # real, complex and mixed operands at 100 to 500 bits
    import dataclasses

    rng = random.Random(24)

    def number(prec, cplx):
        def part():
            m = rng.getrandbits(prec) - (1 << (prec - 1))
            return mpf(m) * mp.ldexp(1, rng.randint(-prec - 60, 60 - prec))
        return mpc(part(), part()) if cplx else part()

    for _ in range(1500):
        prec = rng.randint(100, 500)
        with mp.workprec(prec):
            kinds = rng.choice([(False, False), (True, True), (False, True), (True, False)])
            a = EvalResult(number(prec, kinds[0]), abs(number(prec, False)))
            b = EvalResult(number(prec, kinds[1]), abs(number(prec, False)))
            ea, eb = a.abs_error_bound, b.abs_error_bound
            old = abs(mpc(a.value)) * eb + abs(mpc(b.value)) * ea + ea * eb
            assert repr(a.times(b).abs_error_bound) == repr(old)
            assert repr(a.scale(b.value).abs_error_bound) == repr(ea * abs(mpc(b.value)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.abs_error_bound = mpf(0)


def test_eval_result_rejects_nonfinite():
    with pytest.raises(DomainError):
        EvalResult(mpf("inf"), mpf(0))


def test_precision_context_invariants():
    with pytest.raises(ValueError):
        PrecisionContext(working_digits=20, guard_digits=10, output_digits=15)
    with pytest.raises(ValueError):
        PrecisionContext(working_digits=50, guard_digits=5, output_digits=30)
