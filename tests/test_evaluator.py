"""Evaluator checks: closed inner sums, strategies, derivatives, invariants.

Brute-force oracles are float64 numpy sums with integral-comparison tails,
kept deliberately independent of the package's closed forms.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from dpl.dsl import parse_term
from dpl.evaluator import (
    IdentityParams,
    eval_double,
    eval_g,
    eval_identity,
    eval_side,
    eval_single,
    g_closed_derivatives,
    gauss_averaged_sides,
    numeric_derivative_b,
    parse_x,
    side_evaluator,
)
from dpl.registry import registry_get
from dpl.reduction import (
    ClassPlan,
    XSpec,
    _fix,
    _trans_table,
    _unfix,
    eval_inner_closed,
)
from dpl.specfun import CHI3, CHI4, DomainError, PrecisionContext, dirichlet_L, polylog
from dpl.termlang import SingleSumTerm, bind_term

CTX = PrecisionContext()


def mp75():
    return mp.workdps(75)


# ---------------------------------------------------------------------------
# eval_inner_closed
# ---------------------------------------------------------------------------

def test_inner_closed_pure_joint_shape():
    t = parse_term("sum(m>=1,n>=0) 1 / ((n+b)*(m+n+b)^3)")
    r = eval_inner_closed(t, 2, {"b": Fraction(1, 2)}, CTX)
    with mp75():
        ref = mpf(2) / 5 * mpmath.zeta(3, mpf(7) / 2)
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -55


def test_inner_closed_fractional_joint_shape():
    t = bind_term(parse_term("sum(m>=1,n>=0) 1 / ((n+b)*(m+n+b)^(5/2))"), {})
    r = eval_inner_closed(t, 2, {"b": Fraction(1, 2)}, CTX)
    with mp75():
        ref = mpf(2) / 5 * mpmath.zeta(mpf(5) / 2, mpf(7) / 2)
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -55


def test_inner_closed_congruence_split():
    # m = 2 mod 3 at n = 2: (1/2) sum_t 3^-4 (t+a)^-2 (t+a+w)^-2, a = 2/3,
    # w = 2/3, by partial fractions in mpmath's zeta and psi
    t = parse_term("sum(m>=1,n>=1; m=n mod 3) 1 / (m^2*n*(m+n)^2)")
    r = eval_inner_closed(t, 2, {}, CTX)
    with mp75():
        a = w = mpf(2) / 3
        inner = ((mpmath.zeta(2, a) + mpmath.zeta(2, a + w)) / w ** 2
                 - 2 * (mpmath.psi(0, a + w) - mpmath.psi(0, a)) / w ** 3)
        ref = inner / 3 ** 4 / 2
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -55


def test_inner_closed_psi_shape_vs_direct_oracle():
    # sum_m 1/(m (m+3)^2) to 1e6 with integral tail as the stated oracle
    t = parse_term("sum(m>=1,n>=1) 1 / (m*(m+n)^2)")
    r = eval_inner_closed(t, 3, {}, CTX)
    m = np.arange(1, 10 ** 6 + 1, dtype=float)
    oracle = float(np.sum(1.0 / (m * (m + 3.0) ** 2)))
    M = 10 ** 6
    oracle += 1.0 / (2 * M ** 2)  # tail of ~1/m^3 between integral bounds
    assert abs(float(r.value) - oracle) < 1e-8
    with mp75():
        ref = (mpmath.psi(0, 4) + mpmath.euler) / 9 - mpmath.zeta(2, 4) / 3
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -55


def test_inner_closed_shifted_pole_vs_direct_oracle():
    t = parse_term("sum(m>b,n>=0) 1 / ((m-b)*(m+n)^2)")
    r = eval_inner_closed(t, 1, {"b": Fraction(1, 4)}, CTX)
    m = np.arange(1, 10 ** 6 + 1, dtype=float)
    oracle = float(np.sum(1.0 / ((m - 0.25) * (m + 1.0) ** 2)))
    oracle += 1.0 / (2 * (10 ** 6) ** 2)
    assert abs(float(r.value) - oracle) < 1e-8


def test_inner_closed_rejects_uncatalogued():
    from dpl.reduction import ShapeError

    t = parse_term("sum(m>=1,n>=1) x^(m+n) / (m*(m+n)^2)")
    with pytest.raises(ShapeError):
        eval_inner_closed(t, 1, {"x": XSpec.number(mpf("0.5"))}, CTX)


@pytest.mark.parametrize("repeated,power,summand", [
    ("1 / (m * m * (m+n)^2)", "1 / (m^2 * (m+n)^2)", lambda m: 1 / (m ** 2 * (m + 2) ** 2)),
    ("1 / (m * (m+n) * (m+n)^2)", "1 / (m * (m+n)^3)", lambda m: 1 / (m * (m + 2) ** 3)),
], ids=["m*m", "(m+n)*(m+n)^2"])
def test_inner_closed_repeated_factor_is_its_power(repeated, power, summand):
    # the inner m-sum at n = 2 of a repeated factor is that of its power, and
    # both match mpmath's sum 40 digits higher
    head = "sum(m>=1,n>=1) "
    r = eval_inner_closed(parse_term(head + repeated), 2, {}, CTX)
    p = eval_inner_closed(parse_term(head + power), 2, {}, CTX)
    assert (r.value, r.abs_error_bound) == (p.value, p.abs_error_bound)
    with mp.workdps(CTX.dps + 40):
        ref = mpmath.nsum(summand, [1, mpmath.inf])
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -(CTX.dps + 5)


# ---------------------------------------------------------------------------
# eval_double / eval_single examples
# ---------------------------------------------------------------------------

def test_double_zeta_values():
    with mp75():
        t = parse_term("sum(m>=1,n>=1) 1 / (m*(m+n)^2)")
        r = eval_double(t, {}, CTX, "reduction")
        assert abs(r.value - mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -55
        t = parse_term("sum(m>=1,n>=1) 1 / (m^2*(m+n)^2)")
        r = eval_double(t, {}, CTX, "reduction")
        assert abs(r.value - mpf(3) / 4 * mpmath.zeta(4)) <= r.abs_error_bound + mpf(10) ** -55
        t = parse_term("sum(m>=0,n>=0) 1 / ((n+1/2)*(m+n+1)^2)")
        r = eval_double(t, {}, CTX, "reduction")
        assert abs(r.value - mpf(7) / 2 * mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -55


def test_single_examples():
    with mp75():
        t = parse_term("single(n>=0) x^n / ((n+b)^(k+2))")
        t = bind_term(t, {"k": Fraction(1)})
        r = eval_single(t, {"x": XSpec.one(), "b": Fraction(1)}, CTX)
        assert abs(r.value - mpmath.zeta(3)) <= r.abs_error_bound + mpf(10) ** -55
        # sin-weighted kind at N=3, x=1, k=1 against the conductor-3 L-value
        t = parse_term("single(n>=1) 1 / (sin2pi(n/3) * n^(k+1))")
        t = bind_term(t, {"k": Fraction(1), "N": Fraction(3)})
        r = eval_single(t, {}, CTX)
        ref = dirichlet_L(2, CHI3, CTX).value * 2 / mp.sqrt(3)
        assert abs(r.value - ref) <= r.abs_error_bound + mpf(10) ** -50
        # half-shift kind at N=1 reduces to Phi(x, k+2, 1/2)
        from dpl.specfun import lerch_phi
        t = parse_term("single(n>=0; 2*n+1=0 mod 1) x^n / ((n+1/2)^(k+2))")
        t = bind_term(t, {"k": Fraction(1)})
        r = eval_single(t, {"x": XSpec.number(mpf("0.5"))}, CTX)
        ref = lerch_phi(mpf("0.5"), 3, mpf("0.5"), CTX)
        assert abs(r.value - ref.value) <= r.abs_error_bound + ref.abs_error_bound


def _brute_double(x, m0, n0, fm, fn, fN, weight, dps):
    """sum_{m>=m0, n>=n0} weight(m, n) x^(m+n) fm(m) fn(n) fN(m+n) on a square.

    Each summand is at most C r^(m+n) in modulus, so dropping m or n beyond
    M past its start omits at most 2 C r^(m0+n0+M+1) / (1-r)^2. Returns the
    sum and that tail bound for C = 10, which holds for every case below.
    """
    with mp.workdps(dps):
        r = abs(x)
        M = int(mpmath.ceil(dps * mpmath.log(10) / -mpmath.log(r)))
        fms = [fm(m) for m in range(m0, m0 + M + 1)]
        fns = [fn(n) for n in range(n0, n0 + M + 1)]
        fNs = {N: x ** N * fN(N) for N in range(m0 + n0, m0 + n0 + 2 * M + 1)}
        total = mpf(0)
        for i, vm in enumerate(fms):
            for j, vn in enumerate(fns):
                w = weight(m0 + i, n0 + j)
                if w:
                    total += w * vm * vn * fNs[m0 + n0 + i + j]
        return total, 20 * r ** (m0 + n0 + M + 1) / (1 - r) ** 2


def _chi3(k):
    return mpf(CHI3(k).real)


def _one(k):
    return mpf(1)


BRUTE_SHAPES = [
    ("sum(m>=1,n>=1) x^(m+n) / (m * (m+n)^3)", {}, 1, 1,
     lambda m: mpf(1) / m, _one, lambda N: mpf(N) ** -3, lambda m, n: 1),
    ("sum(m>=1,n>=0) x^(m+n) / ((n+b) * (m+n+b)^2)", {"b": Fraction(1, 4)}, 1, 0,
     _one, lambda n: 1 / (n + mpf(1) / 4), lambda N: (N + mpf(1) / 4) ** -2,
     lambda m, n: 1),
    ("sum(m>=1,n>=1; m=-2*n mod 3) x^(m+n) / (m * n * (m+n)^2)", {}, 1, 1,
     lambda m: mpf(1) / m, lambda n: mpf(1) / n, lambda N: mpf(N) ** -2,
     lambda m, n: (m + 2 * n) % 3 == 0),
    ("sum(m>=1,n>=0) x^(m+n) / (m * (n+b)^2 * (m+n+b)^(3/2))", {"b": Fraction(1, 2)}, 1, 0,
     lambda m: mpf(1) / m, lambda n: (n + mpf(1) / 2) ** -2,
     lambda N: (N + mpf(1) / 2) ** mpf(-1.5), lambda m, n: 1),
    ("sum(m>=1,n>=1) x^(m+n) / (m^(3/2) * n^(1/2) * (m+n)^2)", {}, 1, 1,
     lambda m: mpf(m) ** mpf(-1.5), lambda n: mpf(n) ** mpf(-0.5),
     lambda N: mpf(N) ** -2, lambda m, n: 1),
    ("sum(m>=1,n>=1) chi(m) * x^(m+n) / ((m+n)^3)", {"chi": CHI3}, 1, 1,
     _one, _one, lambda N: mpf(N) ** -3, lambda m, n: _chi3(m)),
    ("sum(m>=1,n>=1) chi(n) * x^(m+n) / ((m+n)^3)", {"chi": CHI3}, 1, 1,
     _one, _one, lambda N: mpf(N) ** -3, lambda m, n: _chi3(n)),
    # one-sided, a fractional exponent next to a fractional (m+n) exponent
    ("sum(m>=1,n>=0) x^(m+n) / ((n+b)^(3/2) * (m+n+b)^(5/2))", {"b": Fraction(1, 4)}, 1, 0,
     _one, lambda n: (n + mpf(1) / 4) ** mpf(-1.5),
     lambda N: (N + mpf(1) / 4) ** mpf(-2.5), lambda m, n: 1),
    ("sum(m>=1,n>=1) x^(m+n) / (m^(1/2) * (m+n)^(5/2))", {}, 1, 1,
     lambda m: mpf(m) ** mpf(-0.5), _one, lambda N: mpf(N) ** mpf(-2.5), lambda m, n: 1),
    # both shifted factors change sign, and W = (m-5/3) + (n-1/3) = 0 at m+n = 2
    ("sum(m>=1,n>=1) x^(m+n) / ((m-5/3) * (n-1/3) * (m+n)^2)", {}, 1, 1,
     lambda m: 1 / (m - mpf(5) / 3), lambda n: 1 / (n - mpf(1) / 3),
     lambda N: mpf(N) ** -2, lambda m, n: 1),
]


# outside the diagonal route, so reduction raises ShapeError and auto falls
# back to direct: two-sided with non-integer exponents (outside
# two_pole_coeffs), and one-sided with an m-exponent below 1 (whose partial
# sums would need zeta below 1)
OUTSIDE_CATALOG = ("sum(m>=1,n>=1) x^(m+n) / (m^(3/2) * n^(1/2) * (m+n)^2)",
                   "sum(m>=1,n>=1) x^(m+n) / (m^(1/2) * (m+n)^(5/2))")


@pytest.mark.parametrize("xlit", ["1/10", "-1/3"])
@pytest.mark.parametrize("shape", BRUTE_SHAPES, ids=lambda s: s[0])
def test_geometric_diagonal_sum_vs_brute_force(shape, xlit):
    # the N = m + n re-indexed |x| < 1 path against a plain double sum at
    # 30 more digits
    from dpl.reduction import ShapeError

    text, params, m0, n0, fm, fn, fN, weight = shape
    strategy = "auto" if text in OUTSIDE_CATALOG else "reduction"
    with CTX.workdps():
        x = parse_x(xlit)
        term = bind_term(parse_term(text), {})
        if strategy == "auto":
            with pytest.raises(ShapeError):
                eval_double(term, {**params, "x": x}, CTX, "reduction")
        r = eval_double(term, {**params, "x": x}, CTX, strategy)
    ref, ref_tail = _brute_double(x.value, m0, n0, fm, fn, fN, weight, CTX.dps + 38)
    with mp.workdps(CTX.dps + 38):
        assert ref_tail < r.abs_error_bound / 1000
        assert abs(r.value - ref) <= r.abs_error_bound


def _z_ref(j, a):
    """Z_j(a) by mpmath: zeta(j, a), and -psi(a) at j = 1."""
    return -mpmath.digamma(a) if j == 1 else mpmath.zeta(mpmath.mpmathify(j), a)


@pytest.mark.parametrize("trans", [(Fraction(3, 2), mpf(5) / 4), (3, mpf(5) / 4),
                                   (1, mpf(5) / 4)], ids=["zeta-3/2", "zeta-3", "psi"])
def test_trans_table_within_its_units(trans):
    # Z_j(5/4 + N) for N in [3, 13) in units of 2^-P, run down from the value
    # at N = 13: each within its own units of mpmath, and those below 1e-55;
    # Z_1 = -psi
    def ref(a):
        return _z_ref(trans[0], a)

    with CTX.workdps():
        P = mp.prec + 8
        with mp.workdps(CTX.dps + 40):
            top = _fix(ref(mpf(5) / 4 + 12), P)
        vals, errs = _trans_table(trans, _fix(mpf(1) / 4, P), 3, 13, top, 0, P)
    with mp.workdps(CTX.dps + 40):
        for N, v, e in zip(range(3, 13), vals, errs):
            assert abs(_unfix(v, P) - ref(mpf(5) / 4 + N - 1)) <= _unfix(e + 1, P)
            assert _unfix(e + 1, P) < mpf("1e-55")


def test_start_value_continues_z1_below_zero():
    # Z_1 = -psi at a <= 0, off its poles, continued from its table by
    # Z_1(a) = Z_1(a + 1) + 1/a: within its bound of -psi at 40 more digits
    from dpl.reduction import _start_value

    with CTX.workdps():
        for a in (-mpf(5) / 3, -mpf(1) / 3):
            value, bound = _start_value(1, a)
            with mp.workdps(CTX.dps + 40):
                assert abs(value + mpmath.digamma(a)) <= bound
            assert bound < mpf("1e-55")


def _lattice_block(g, lam, u0):
    """P and the end U0 of a direct block at shift g and slope lam from u0,
    as _sum_shape sets them for a shape whose tail starts at the standard
    start."""
    from dpl.reduction import _shape_unit, _standard_start, _tail_order

    P = _shape_unit([g])
    V = _standard_start(_tail_order(mp.prec), P)
    return P, max(u0 + 1, math.ceil((V - float(g)) / lam))


LATTICE_SHIFTS = [mpf(1) / 4, -mpf(5) / 3]


@pytest.mark.parametrize("lam", [1, 2, 4, 12])
@pytest.mark.parametrize("g", LATTICE_SHIFTS, ids=["1/4", "-5/3"])
def test_power_table_entries_are_cut_divisions(g, lam, empty_store):
    # each entry of a power slice, (lam u + g)^-k at stride lam from the
    # lattice table, is 2^(P(k+1)) // W^k with W = (lam u + g) 2^P, bit for
    # bit, within one unit; at -5/3 and slope 1 the lattice starts at N = -2
    from dpl.reduction import _power_slice

    with CTX.workdps():
        for k in (1, 2, 3):
            for u0 in (0, 1, 3):
                P, U0 = _lattice_block(g, lam, u0)
                vals, err = _power_slice(g, k, lam, u0, U0 - u0, P)
                W0 = _fix(g, P)
                assert err == 1 and len(vals) == U0 - u0
                assert vals == [(1 << (P * (k + 1))) // ((lam * u << P) + W0) ** k
                                for u in range(u0, U0)]


@pytest.mark.parametrize("lam", [1, 2, 4, 12])
@pytest.mark.parametrize("g", LATTICE_SHIFTS, ids=["1/4", "-5/3"])
@pytest.mark.parametrize("j", [2, Fraction(3, 2), 1], ids=["zeta-2", "zeta-3/2", "psi"])
def test_lattice_slices_within_their_units(j, g, lam, empty_store):
    # zeta(2), zeta(3/2) and Z_1 = -psi at lam u + g for u in [u0, U0), read
    # at stride lam from their tables, lie within their units of mpmath at
    # 40 more digits, and those units are below 1e-55; at -5/3 and slope 1
    # the lattice starts below 0 (zeta(3/2) there raises: a fractional power
    # of a negative argument)
    from dpl.reduction import ShapeError, _trans_slice

    spec = (j, g)

    def ref(a):
        return _z_ref(j, a)

    with CTX.workdps():
        for u0 in (0, 1, 3):
            P, U0 = _lattice_block(g, lam, u0)
            if j == Fraction(3, 2) and lam * u0 + g < 0:
                with pytest.raises(ShapeError):
                    _trans_slice(spec, lam, u0, U0 - u0, P)
                continue
            vals, errs, top_err = _trans_slice(spec, lam, u0, U0 - u0, P)
            assert len(vals) == len(errs) == U0 - u0
            with mp.workdps(CTX.dps + 40):
                for u, v, e in zip(range(u0, U0), vals, errs):
                    assert abs(_unfix(v, P) - ref(lam * u + g)) <= _unfix(e + top_err, P)
                    assert _unfix(e + top_err, P) < mpf("1e-55")


def test_lattice_tables_give_the_same_ints_in_any_order(empty_store):
    # the slices of a power table and a zeta table, read in one order and in
    # the reverse, each time from an empty store, are the same ints: the
    # classes of slope 12 and the slope-1 blocks of another extent share
    # the tables, which grow down (the slope-1 block from u = 0 takes the
    # lattice below 0) and, for the power, up
    from dpl import reduction
    from dpl.reduction import _power_slice, _trans_slice

    g = -mpf(5) / 3
    with CTX.workdps():
        P, U0 = _lattice_block(g, 1, 0)
        reads = [(lam, u0, n) for (lam, u0, n) in
                 [(12, 1, (U0 - 1) // 12), (1, 2, U0 - 2), (1, 0, U0), (1, 0, U0 + 100)]
                 + [(12, 1, (U0 - 1) // 12 - r) for r in range(3)]]

        def read(order):
            empty_store()
            out = {}
            for (lam, u0, n) in order:
                out[lam, u0, n] = (_power_slice(g, 2, lam, u0, n, P),
                                   _trans_slice((2, g), lam, u0, n, P))
            return out, sum(key[0] == "table" for key in reduction.STORE)

        forward, backward = read(reads), read(reads[::-1])
    assert forward == backward


def test_auto_falls_back_to_direct_on_a_single_sum_reduction_misses():
    # a single sum of x^n n^(1/2) has a negative outer exponent, which
    # reduction raises ShapeError on: auto gives direct's result, as it does
    # for double sums, within its bound of polylog(-1/2, 1/2)
    from dpl.reduction import ShapeError

    ctx = PrecisionContext(working_digits=30, output_digits=20)
    term = bind_term(parse_term("single(n>=1) x^n / (n^(-1/2))"), {})
    with ctx.workdps():
        params = {"x": parse_x("1/2")}
    with pytest.raises(ShapeError):
        eval_single(term, params, ctx, "reduction")
    auto, direct = eval_single(term, params, ctx, "auto"), eval_single(term, params, ctx, "direct")
    assert (auto.value, auto.abs_error_bound, auto.method) == \
        (direct.value, direct.abs_error_bound, direct.method)
    with mp.workdps(40):
        assert abs(auto.value - mpmath.polylog(-mpf(1) / 2, mpf(1) / 2)) <= auto.abs_error_bound


def test_lattice_reads_that_cover_a_pole_raise(empty_store):
    # a Z_j table (j = 1, 2) through N + phi = 0 raises ShapeError, as does a
    # power read at a vanishing base and a negative outer exponent (a single
    # sum of x^n n^(1/2)); a power read whose stride steps over the zero
    # base reads the values around it
    from dpl.reduction import ShapeError, _power_slice, _trans_slice

    with CTX.workdps():
        x = parse_x("1/2")
    with pytest.raises(ShapeError):
        eval_single(bind_term(parse_term("single(n>=1) x^n / (n^(-1/2))"), {}), {"x": x},
                    CTX, "reduction")

    g = -mpf(3)
    with CTX.workdps():
        P, U0 = _lattice_block(g, 2, 0)
        for spec in ((1, g), (2, g)):
            with pytest.raises(ShapeError):
                _trans_slice(spec, 2, 1, U0 - 1, P)
        with pytest.raises(ShapeError):
            _power_slice(g, 2, 1, 0, U0, P)
        vals, err = _power_slice(g, 2, 2, 0, U0, P)
        assert vals[:3] == [(1 << 3 * P) // (n << P) ** 2 for n in (-3, -1, 1)]


# ---------------------------------------------------------------------------
# eval_identity examples
# ---------------------------------------------------------------------------

def test_identity_cor12_at_x1():
    rep = eval_identity(registry_get("cor-1.2"), {"k": 1, "x": "1"}, CTX,
                        strategy="reduction")
    assert rep.passed and rep.residual < mpf("1e-40")


def test_identity_thm11_both_strategies_agree():
    assign = {"k": 1, "b": "1/2", "x": "1/2"}
    red = eval_identity(registry_get("thm-1.1"), assign, CTX, strategy="reduction")
    dir_ = eval_identity(registry_get("thm-1.1"), assign, CTX, strategy="direct",
                         tolerance=mpf("1e-8"))
    assert red.passed and dir_.passed
    assert abs(red.lhs.value - dir_.lhs.value) <= red.lhs.abs_error_bound \
        + dir_.lhs.abs_error_bound


def test_identity_sfnu_k3():
    rep = eval_identity(registry_get("cor-1.5-sfnu"), {"k": 3}, CTX,
                        strategy="reduction")
    with mp75():
        assert rep.passed and rep.residual < mpf("1e-30")
        assert abs(rep.rhs.value - mpmath.zeta(6)) < mpf("1e-50")


def test_identity_binds_x_at_working_precision():
    # x = 1/10 is not a dyadic rational: bound at 53 bits it would move
    # Li_3(x) in the 18th digit
    ctx = PrecisionContext(working_digits=50, guard_digits=10, output_digits=40)
    rep = eval_identity(registry_get("cor-1.2"), {"k": 1, "x": "1/10"}, ctx)
    with mp.workdps(80):
        ref = mpmath.polylog(3, mpf(1) / 10)
        assert abs(rep.rhs.value - ref) <= rep.rhs.abs_error_bound


def test_identity_report_recomputes_verdict():
    rep = eval_identity(registry_get("aux-phi"), {"s": 2}, CTX)
    assert rep.passed
    rep.tolerance = mpf(0)
    assert rep.passed == (rep.residual <= rep.bound)


def test_identity_domain_gates():
    with pytest.raises(DomainError):
        eval_identity(registry_get("thm-1.1"), {"k": 1, "b": "2", "x": "1"}, CTX)
    with pytest.raises(DomainError):
        eval_identity(registry_get("euler-sum"), {"l": 2}, CTX)
    with pytest.raises(DomainError):
        eval_identity(registry_get("thm-4.1"), {"k": 1, "N": 4, "x": "1"}, CTX)
    with pytest.raises(DomainError):
        eval_identity(registry_get("cor-1.2"), {"k": 1, "x": "2"}, CTX)
    with pytest.raises(DomainError):
        eval_identity(registry_get("cor-1.2"), {"k": 1}, CTX)


# ---------------------------------------------------------------------------
# g(b) and numeric derivatives
# ---------------------------------------------------------------------------

def test_g_at_one_and_half():
    with mp75():
        k = 2
        x = "1/2"
        g0, g1, g2 = g_closed_derivatives(k, x, CTX)
        r = eval_g(Fraction(1), k, x, CTX)
        assert abs(r.value - g0.value) <= r.abs_error_bound + g0.abs_error_bound
        r = eval_g(Fraction(1, 2), k, x, CTX)
        xv = mpf("0.5")
        li1 = polylog(k + 1, xv, CTX).value
        li2 = polylog(k + 2, xv, CTX).value
        expected = 4 / (mp.pi * xv) * li1 + 2 * k / (mp.pi * xv) * li2
        assert abs(r.value - expected) < mpf("1e-45")


def test_g_taylor_path_continuous():
    with mp75():
        far = eval_g(mpf(1) - mpf("0.002"), 2, "1/2", CTX)
        near = eval_g(mpf(1) - mpf("0.0005"), 2, "1/2", CTX)
        mid = eval_g(mpf(1) - mpf("0.001"), 2, "1/2", CTX)
        for a, b in [(far, mid), (mid, near)]:
            assert abs(a.value - b.value) < mpf("0.01")


def test_g_derivatives_fd_vs_closed():
    with mp75():
        k, x = 1, "1/2"
        g0, g1, g2 = g_closed_derivatives(k, x, CTX)
        fd1 = numeric_derivative_b(lambda b: eval_g(b, k, x, CTX), 1, Fraction(1), CTX,
                                   h=mpf("0.01"))
        assert abs(fd1.value - g1.value) / abs(g1.value) < mpf("1e-6")
        fd2 = numeric_derivative_b(lambda b: eval_g(b, k, x, CTX), 2, Fraction(1), CTX,
                                   h=mpf("0.01"))
        assert abs(fd2.value - g2.value) / abs(g2.value) < mpf("1e-5")


def test_rhs_derivative_identity_at_b1():
    # d/db of x*(rhs of the shifted formula) at b=1 equals
    # -pi^2 Li(k+1;x) + 2(k+3) Li(k+3;x)
    with mp75():
        k, xs = 1, "1/2"
        xv = mpf("0.5")
        spec = registry_get("thm-1.1").spec
        func = side_evaluator(spec, "rhs", {"k": k, "x": xs, "b": "1/2"}, CTX,
                              strategy="reduction")
        fd = numeric_derivative_b(lambda b: func(b).scale(xv), 1, Fraction(1), CTX,
                                  h=mpf("0.01"))
        expected = -mp.pi ** 2 * polylog(k + 1, xv, CTX).value \
            + 2 * (k + 3) * polylog(k + 3, xv, CTX).value
        assert abs(fd.value - expected) / abs(expected) < mpf("1e-6")


def test_derivative_consistency_both_sides_interior():
    # d/db lhs = d/db rhs at b0 = 1/2 within combined bounds
    with mp75():
        spec = registry_get("thm-1.1").spec
        assign = {"k": 1, "x": "1/2", "b": "1/2"}
        fl = side_evaluator(spec, "lhs", assign, CTX, strategy="reduction")
        fr = side_evaluator(spec, "rhs", assign, CTX, strategy="reduction")
        dl = numeric_derivative_b(fl, 1, Fraction(1, 2), CTX, h=mpf("0.005"))
        dr = numeric_derivative_b(fr, 1, Fraction(1, 2), CTX, h=mpf("0.005"))
        assert abs(dl.value - dr.value) <= dl.abs_error_bound + dr.abs_error_bound


def test_derivative_stencil_shares_one_cache(monkeypatch, empty_store):
    # the thm-1.1 lhs stencil through side_evaluator, whose points share the
    # process store, against one whose every point starts from an empty
    # store: the same derivative and bound, and what does not depend on b,
    # the Z_j tables at phi = 0 (Z_1(1) = -psi(1) and zeta(j, 1) among them) and
    # the integer tail row, built once per stencil in place of six times.
    # The stencil starts from an empty store too: its entries, made by
    # earlier evaluations, would otherwise stand in for their own
    from collections import Counter

    from dpl import reduction

    built = []
    row, top = reduction.euler_maclaurin_row, reduction._trans_top
    monkeypatch.setattr(reduction, "euler_maclaurin_row",
                        lambda a, phi, *rest, **kw: built.append(("row", a, phi)) or
                        row(a, phi, *rest, **kw))
    # _trans_top makes the top of every new Z_j table
    monkeypatch.setattr(reduction, "_trans_top",
                        lambda trans, Phi, P, N: built.append(
                            ("table", trans[:-1], Phi, P, mp.prec, N)) or top(trans, Phi, P, N))
    ctx = PrecisionContext(working_digits=30, output_digits=20)
    spec = registry_get("thm-1.1").spec
    assign = {"k": 1, "x": "1", "b": "1/2"}
    shared = numeric_derivative_b(side_evaluator(spec, "lhs", assign, ctx), 1,
                                  Fraction(1, 2), ctx)
    shared_builds = Counter(built)
    built.clear()
    with ctx.workdps():
        p = IdentityParams.bind(spec, assign)

    def fresh_point(b):
        at_b = IdentityParams(p.env, {**p.numeric, "b": b}, p.display)
        empty_store()
        return eval_side(spec, "lhs", at_b, ctx, "auto")

    fresh = numeric_derivative_b(fresh_point, 1, Fraction(1, 2), ctx)
    fresh_builds = Counter(built)
    assert (shared.value, shared.abs_error_bound, shared.method) == \
        (fresh.value, fresh.abs_error_bound, fresh.method)
    tail = [key for key in shared_builds
            if key[0] == "row" and key[1] > 1 and key[1] == int(key[1])]
    tables = [key for key in shared_builds if key[0] == "table" and key[2] == 0]
    assert len(tail) == 1 and (1,) in {key[1] for key in tables}
    for key in tail + tables:
        assert shared_builds[key] == 1
        assert fresh_builds[key] == 6


@pytest.mark.parametrize("order,calls", [(1, 6), (2, 7)])
def test_derivative_stencil_evaluates_the_centre_once(order, calls):
    # h, h/2 and h/4 each take f(b0 + h) and f(b0 - h); a second derivative
    # shares one f(b0) between the three levels
    from dpl.specfun import EvalResult

    seen = []

    def func(b):
        seen.append(b)
        return EvalResult(mp.exp(3 * b), mpf(0), "reduction")

    with mp75():
        d = numeric_derivative_b(func, order, Fraction(1, 2), CTX, h=mpf("0.01"))
        assert len(seen) == calls and len(set(seen)) == calls
        exact = 3 ** order * mp.exp(mpf(3) / 2)
        assert abs(d.value - exact) <= d.abs_error_bound


def test_stencil_domain_guard():
    spec = registry_get("thm-1.1").spec
    func = side_evaluator(spec, "lhs", {"k": 1, "x": "1/2", "b": "1/2"}, CTX)
    with pytest.raises(DomainError):
        func(mpf("1.5"))


# ---------------------------------------------------------------------------
# Cross-checks and invariants (smoke-sized; full batteries run in acceptance)
# ---------------------------------------------------------------------------

def test_gauss_average_reproduces_character_identity():
    with mp75():
        lhs, rhs = gauss_averaged_sides("cor-1.2", CHI3, 1, CTX, strategy="reduction")
        spec = registry_get("cor-1.3").spec
        p = IdentityParams.bind(spec, {"k": 1, "chi": CHI3})
        clhs = eval_side(spec, "lhs", p, CTX, "reduction")
        crhs = eval_side(spec, "rhs", p, CTX, "reduction")
        assert abs(lhs.value - clhs.value) <= lhs.abs_error_bound + clhs.abs_error_bound \
            + mpf("1e-40")
        assert abs(rhs.value - crhs.value) <= rhs.abs_error_bound + crhs.abs_error_bound \
            + mpf("1e-40")


def test_congruence_completeness_smoke():
    # residue classes m = e (mod 3) partition the lattice exactly
    with mp75():
        base = parse_term("sum(m>=1,n>=1) x^n / (n*(m+n)^2)")
        whole = eval_double(base, {"x": XSpec.number(mpf("0.5"))}, CTX, "reduction")
        total = None
        for e in range(3):
            t = parse_term(f"sum(m>=1,n>=1; m={e} mod 3) x^n / (n*(m+n)^2)")
            r = eval_double(t, {"x": XSpec.number(mpf("0.5"))}, CTX, "reduction")
            total = r if total is None else total + r
        assert abs(total.value - whole.value) <= total.abs_error_bound \
            + whole.abs_error_bound


def test_congruence_jn_class_multiplicity():
    # the m = j*n classes over-count rows with 3|n; check against brute force
    with mp75():
        parts = None
        for j in range(3):
            text = "sum(m>=1,n>=1; m=0 mod 3)" if j == 0 \
                else f"sum(m>=1,n>=1; m={j}*n mod 3)".replace("m=1*n", "m=n")
            t = parse_term(text + " x^n / (n*(m+n)^2)")
            r = eval_double(t, {"x": XSpec.number(mpf("0.5"))}, CTX, "reduction")
            parts = r if parts is None else parts + r
        m = np.arange(1, 40000)
        M = 40000
        brute = 0.0
        for n in range(1, 60):
            count = ((m[:, None] % 3) == ((np.arange(3)[None, :] * n) % 3)).sum(axis=1)
            brute += 0.5 ** n * np.sum(count / (n * (m + n).astype(float) ** 2))
            # average class multiplicity is 1; integral tail of the m-sum
            brute += 0.5 ** n / n * (1.0 / (M + n) + 0.5 / (M + n) ** 2)
        assert abs(complex(parts.value) - brute) < 1e-7


def test_value_preservation_under_rewriting_smoke():
    from dpl.termlang import canonicalize, reduce_mixed

    rng = random.Random(11)
    with mp75():
        for _ in range(25):
            k = rng.randint(1, 3)
            b = Fraction(rng.randint(1, 3), 4)
            x = rng.choice([XSpec.one(), XSpec.number(mpf("0.5")),
                            XSpec.number(-mpf("0.5"))])
            t = parse_term(f"sum(m>=1,n>=0) x^n / (m*(n+b)^{k}*(m+n+b))")
            params = {"x": x, "b": b}
            before = eval_double(t, params, CTX, "reduction")
            after_terms = canonicalize(reduce_mixed([t]))
            after = None
            for at in after_terms:
                r = eval_double(at, params, CTX, "reduction")
                after = r if after is None else after + r
            assert abs(before.value - after.value) <= \
                before.abs_error_bound + after.abs_error_bound


def test_strategy_agreement_smoke():
    pts = [
        ("sum(m>=1,n>=1) x^n / (m*(m+n)^2)", {"x": XSpec.one()}),
        ("sum(m>=1,n>=1) x^n / (m^2*(m+n)^3)", {"x": XSpec.number(mpf("0.5"))}),
        ("sum(m>=1,n>=0) x^n / ((m-b)*(m+n)^2)", {"x": XSpec.root(2, 1), "b": Fraction(1, 4)}),
        ("sum(m>=1,n>=1; m=n mod 3) x^n / (n*(m+n)^3)", {"x": XSpec.one()}),
    ]
    for (text, params) in pts:
        t = parse_term(text)
        red = eval_double(t, params, CTX, "reduction")
        dir_ = eval_double(t, params, CTX, "direct")
        assert abs(red.value - dir_.value) <= red.abs_error_bound + dir_.abs_error_bound


def test_parse_x_literals():
    assert parse_x("1") == XSpec.root(1, 0)
    assert parse_x("-1") == XSpec.root(2, 1)
    assert parse_x("i") == XSpec.root(4, 1)
    assert parse_x("ru(3,1)") == XSpec.root(3, 1)
    assert parse_x("ru(6,2)") == XSpec.root(3, 1)  # normalized
    v = parse_x("1/2")
    assert v.kind == "num" and v.value == mpf("0.5")
    with pytest.raises(DomainError):
        parse_x("3/2")


# every spelling of one point, as a literal or as a number passed as it is
SPELLINGS = [
    (XSpec.root(4, 1), ["i", "1i", "0+1i", "ru(4,1)", mpmath.mpc(0, 1), 1j]),
    (XSpec.root(2, 1), ["-1", "-1+0i", "ru(2,1)", mpf(-1), -1]),
    (XSpec.root(1, 0), ["1", "1+0i", 1]),
    (XSpec.number(mpf("0.5")), ["1/2", "1/2+0i"]),
]


@pytest.mark.parametrize("point,spellings", SPELLINGS, ids=["i", "-1", "1", "1/2"])
def test_every_spelling_of_a_point_binds_and_evaluates_alike(point, spellings):
    term = parse_term("sum(m>=1,n>=1) x^n / (m * (m+n)^2)")
    ref = eval_double(term, {"x": point}, CTX)
    for raw in spellings:
        with CTX.workdps():
            assert parse_x(raw) == point, raw
        if not isinstance(raw, str):
            r = eval_double(term, {"x": raw}, CTX)
            assert (r.value, r.abs_error_bound, r.method) == \
                (ref.value, ref.abs_error_bound, ref.method), raw


@pytest.mark.parametrize("raw", ["3/5+4/5i", "3/2", mpmath.mpc("0.6", "0.8")],
                         ids=["circle-literal", "outside", "circle-number"])
def test_a_point_off_the_disk_that_is_no_root_raises(raw):
    with CTX.workdps(), pytest.raises(DomainError, match=r"needs \|x\| < 1"):
        parse_x(raw)
    if not isinstance(raw, str):
        term = parse_term("sum(m>=1,n>=1) x^n / (m * (m+n)^2)")
        for strategy in ("auto", "reduction", "direct"):
            with pytest.raises(DomainError):
                eval_double(term, {"x": raw}, CTX, strategy)


def test_g_accepts_complex_b_near_one():
    # holomorphic across b = 1 on the small disk: Taylor and direct paths meet
    with mp75():
        from mpmath import mpc
        inner = eval_g(mpc(1, "0.0005"), 2, "1/2", CTX)
        outer = eval_g(mpc(1, "0.002"), 2, "1/2", CTX)
        assert abs(inner.value - outer.value) < mpf("0.02")
        g0, _, _ = g_closed_derivatives(2, "1/2", CTX)
        assert abs(inner.value - g0.value) < mpf("0.01")


def test_lerch_complex_b_disk():
    with mp75():
        from mpmath import mpc
        b = mpc("0.9", "0.3")
        r = lerch_phi_b = None
        from dpl.specfun import lerch_phi
        r = lerch_phi(mpf("0.5"), 2, b, CTX)
        assert abs(r.value - mpmath.lerchphi(mpf("0.5"), 2, b)) <= r.abs_error_bound


# ---------------------------------------------------------------------------
# Residue-class plan
# ---------------------------------------------------------------------------

X_ZERO_CASES = [
    ("sum(m>=1,n>=1) chi(m) * x^(m+n-3) / (m^2 * (m+n)^2)", CHI3, lambda: mpf(1) / 12),
    ("sum(m>=1,n>=1) chi(n) * x^(m+n-3) / (m^2 * (m+n)^2)", CHI4, lambda: mpf(1) / 36),
    ("single(n>=1; n=0 mod 3) x^(n-1) / (n^2)", None, lambda: mpf(0)),
    ("single(n>=1) x^(n-1) / (sin2pi(n/3) * n^2)", None, lambda: 2 / mp.sqrt(3)),
    ("single(n>=1) chi(n) * x^(n-2) / (n^2)", CHI4, lambda: mpf(0)),
]


@pytest.mark.parametrize("strategy", ["reduction", "direct"])
@pytest.mark.parametrize("text,chi,expected", X_ZERO_CASES,
                         ids=["chi3-m", "chi4-n", "congruence", "sin", "chi4-single"])
def test_x_zero_keeps_class_weights(text, chi, expected, strategy):
    # at x = 0 only the points with a vanishing x exponent survive, and each
    # keeps its congruence indicator, character values and 1/sin weight
    t = parse_term(text)
    params = {"x": parse_x("0")} | ({"chi": chi} if chi is not None else {})
    evaluate = eval_single if isinstance(t, SingleSumTerm) else eval_double
    r = evaluate(t, params, CTX, strategy=strategy)
    with mp75():
        assert abs(r.value - expected()) <= r.abs_error_bound + mpf(10) ** -45


# x^n numerators with a twist or a congruence: at x = 0 only n = -d survives,
# and the inner m-sum keeps the weights of its residue classes
X_ZERO_INNER_CASES = [
    ("sum(m>=1,n>=1) chi(n) * x^(n-1) / (m^2 * (m+n)^2)", CHI4,
     lambda: mp.nsum(lambda m: 1 / (m ** 2 * (m + 1) ** 2), [1, mp.inf])),
    ("sum(m>=1,n>=1; m=n mod 3) x^(n-1) / (m^2 * (m+n)^2)", None,
     lambda: mp.nsum(lambda t: 1 / ((3 * t + 1) ** 2 * (3 * t + 2) ** 2), [0, mp.inf])),
    ("sum(m>=1,n>=1) chi(m) * x^(n-2) / (m * (m+n)^2)", CHI3,
     lambda: mp.nsum(lambda t: 1 / ((3 * t + 1) * (3 * t + 3) ** 2)
                     - 1 / ((3 * t + 2) * (3 * t + 4) ** 2), [0, mp.inf])),
    # the (m+n) character sets the class modulus in m, beyond ClassPlan.pair_mod
    ("sum(m>=1,n>=1) chi(m+n) * x^(n-1) / (m^2 * (m+n)^2)", CHI3,
     lambda: mp.nsum(lambda t: 1 / ((3 * t + 3) ** 2 * (3 * t + 4) ** 2)
                     - 1 / ((3 * t + 1) ** 2 * (3 * t + 2) ** 2), [0, mp.inf])),
]


@pytest.mark.parametrize("strategy", ["auto", "reduction", "direct"])
@pytest.mark.parametrize("text,chi,expected", X_ZERO_INNER_CASES,
                         ids=["chi4-n", "congruence", "chi3-m", "chi3-mn"])
def test_x_zero_inner_sum_keeps_class_weights(text, chi, expected, strategy):
    t = parse_term(text)
    params = {"x": parse_x("0")} | ({"chi": chi} if chi is not None else {})
    r = eval_double(t, params, CTX, strategy=strategy)
    with mp.workdps(CTX.working_digits + CTX.guard_digits + 30):
        assert abs(r.value - expected()) <= r.abs_error_bound
    assert r.abs_error_bound < mpf(10) ** -(CTX.working_digits + 5)


PLAN_CASES = [
    ("sum(m>=1,n>=1; m=n mod 3) x^n / (m * n^2 * (m+n))", "ru(3,1)", None),
    ("sum(m>=1,n>=1; m=-2*n mod 5) x^(m+n) / (m * n * (m+n)^2)", "i", None),
    ("sum(m>=0,n>=0; m=-2*n-2 mod 3) x^m / ((m+1) * (n+1/2)^2 * (m+n+3/2))", "-1", None),
    ("sum(m>=1,n>=1; m=n+1 mod 5) chi(m) * x^(m+n-1) / (m^2 * (m+n)^2)", "ru(3,1)", CHI4),
    ("sum(m>=1,n>=1; m=-2*n-2 mod 5) chi(n) * x^n / (n^2 * (m+n)^2)", "i", CHI3),
    ("sum(m>=1,n>=1) chi(m) * x^n / (m^2 * (m+n)^2)", "i", CHI3),
    ("sum(m>=1,n>=1) chi(n) * x^m / (m^2 * (m+n)^2)", "ru(3,1)", CHI4),
    ("sum(m>=1,n>=1) chi(m) * x^(m+n) / (m^2 * (m+n)^2)", "-1", CHI4),
    ("sum(m>=1,n>=1) chi(m+n) * x^(m+n) / (m^2 * (m+n)^2)", "-1", CHI3),
    ("sum(m>=1,n>=1) chi(m+n) * x^m / (m^2 * (m+n)^2)", "ru(3,1)", CHI4),
    ("sum(m>=1,n>=1; m=-2*n mod 3) chi(m+n) * x^n / (m * (m+n)^2)", "i", CHI4),
    ("sum(m>=1,n>=1) chi(m+n) / (m * (m+n)^2)", "i", CHI3),
    ("single(n>=1; n=0 mod 3) x^(n-1) / (n^2)", "ru(3,1)", None),
    ("single(n>=0; 2*n+1=0 mod 5) x^n / ((n+1/2)^2)", "i", None),
    ("single(n>=1) x^n / (sin2pi(n/5) * n^2)", "-1", None),
    ("single(n>=1) x^n / (sinpi((2*n+1)/3) * n^2)", "ru(3,1)", None),
    ("single(n>=1) chi(n) * x^(n+1) / (n^2)", "i", CHI3),
    ("single(n>=1) chi(n) * x^n / (sin2pi(n/3) * n^2)", "-1", CHI4),
]


def _defined_weight(term, chi, x, m, n, phase):
    """Congruence indicator, character value, 1/sin weight and (if phase)
    x power at the lattice point (m, n), read off the term's definition."""
    if isinstance(term, SingleSumTerm):
        cong, sw = term.cong, term.sin_weight
        if cong is not None and (cong.mult * n + cong.off) % cong.modulus[1]:
            return 0
        w = chi(n) if term.twist else 1
        if sw is not None:
            N = sw.modulus[1]
            k = 2 * n if sw.parity == "even" else 2 * n + 1
            if (n if sw.parity == "even" else k) % N == 0:
                return 0
            w /= math.sin(math.pi * k / N)
        e = n + term.xsel.d
    else:
        cong = term.cong
        if cong is not None and (m - cong.coeff * n - cong.offset) % cong.modulus[1]:
            return 0
        w = 1
        for (_, arg) in term.twists:
            w *= chi({"m": m, "n": n, "mn": m + n}[arg])
        e = {"none": 0, "xn": n, "xm": m, "xmn": m + n}[term.xsel.kind] + term.xsel.d
    return w * cmath.exp(2j * math.pi * x.a * e / x.f) if phase else w


def _plan_constant(plan, x, r, phase):
    w = plan.weight(*r)
    if w is None:
        return None
    c = complex(w[0])
    if w[1] is not None:
        c /= math.sin(math.pi * w[1])
    e = plan.xexp(*r)
    return c * cmath.exp(2j * math.pi * x.a * e / x.f) if phase and e is not None else c


@pytest.mark.parametrize("text,x,chi", PLAN_CASES)
def test_class_plan_pointwise(text, x, chi):
    # Every lattice point of the box m, n < 4*lam must carry its class's
    # constant, x phase included, and a skipped class must vanish at each of
    # its points. Both routes split a single sum by plan.mod["n"], which
    # holds x's order; a double sum is checked on its own grid and on the
    # square one reduction uses once the inner index splits.
    t = parse_term(text)
    single = isinstance(t, SingleSumTerm)
    xs = parse_x(x)
    params = {"x": xs} | ({"chi": chi} if chi is not None else {})
    plan = ClassPlan(t, params)
    if single:
        grids = [((1, plan.mod["n"]), True)]
    else:
        grids = [(plan.grid(), True), (plan.grid(square=True), True)]
    for (lam_m, lam_n), phase in grids:
        box = [(m, n) for m in range(1 if single else 4 * lam_m) for n in range(4 * lam_n)]
        checked = 0
        for (m, n) in box:
            r = (n % lam_n,) if single else (m % lam_m, n % lam_n)
            want = _defined_weight(t, chi, xs, m, n, phase)
            got = _plan_constant(plan, xs, r, phase)
            if got is None:
                assert want == 0, (m, n)
            else:
                assert abs(got - want) < 1e-9, (m, n, got, want)
                checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# Fixed parameters and x next to the unit circle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["direct", "reduction"])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_fixed_minus_one_is_a_root_of_unity(s, strategy):
    # aux-phi fixes x = -1; bound as a number, the direct route divided by
    # 1 - |x| = 0
    entry = registry_get("aux-phi")
    p = IdentityParams.bind(entry.spec, {"s": str(s)})
    assert p.numeric["x"] == XSpec.root(2, 1)
    rep = eval_identity(entry, {"s": str(s)}, CTX, strategy=strategy)
    assert rep.passed
    with mp75():
        eta = (1 - mpf(2) ** (1 - s)) * mpmath.zeta(s)
        assert abs(rep.lhs.value + eta) <= max(rep.lhs.abs_error_bound, mpf(entry.tolerance))


def _raises_domain_error_quickly(fn):
    import time

    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        fn()
    assert time.perf_counter() - t0 < 1.0


def test_x_next_to_a_root_is_not_snapped_and_does_not_hang():
    # x = -(1 - 10^-30) is not -1: snapping it gave the value at -1 with a
    # 1e-62 bound, 1e-30 away from the true one; summing it needs ~1e32 terms
    from dpl.specfun import as_root_of_unity, lerch_phi

    with CTX.workdps():
        x = -(1 - mpf(10) ** -30)
    assert as_root_of_unity(x, CTX) is None
    _raises_domain_error_quickly(lambda: lerch_phi(x, 3, Fraction(1, 2), CTX))
    near_one = str(1 - Fraction(1, 10 ** 30))
    _raises_domain_error_quickly(lambda: eval_identity(
        registry_get("thm-1.1"), {"k": "1", "b": "1/2", "x": near_one}, CTX))


def test_interior_truncations_stay_far_below_the_cap(monkeypatch):
    # the operations of the benchmark's interior workload, at 50 digits
    import dpl.reduction
    import dpl.specfun

    lengths = []

    def record(T, _orig=dpl.specfun.geometric_length):
        lengths.append(T)
        return _orig(T)

    monkeypatch.setattr(dpl.specfun, "geometric_length", record)
    monkeypatch.setattr(dpl.reduction, "geometric_length", record)
    ops = [("thm-1.1", {"k": "1", "b": "1/4", "x": "1/2"}),
           ("thm-1.1", {"k": "2", "b": "1/2", "x": "1/2"})]
    ops += [(i, {"k": "1", "x": x}) for i in ("cor-1.2", "thm-1.4", "prop-3.1")
            for x in ("1/2", "-1/2")]
    ops += [("cor-1.2", {"k": "1", "x": x}) for x in ("1/10", "-1/3")]
    for ident, params in ops:
        entry = registry_get(ident)
        assert eval_identity(entry, params, CTX, strategy=entry.strategy).passed
    assert lengths and max(lengths) * 100 < dpl.specfun.MAX_GEOMETRIC_TERMS


def test_x_just_inside_the_cap_still_evaluates():
    # at 30 working digits the interior Lerch series needs 199 363 terms at
    # x = 0.9995 and 249 773 at x = 0.9996, across MAX_GEOMETRIC_TERMS
    from dpl.specfun import lerch_phi

    ctx = PrecisionContext(working_digits=30, guard_digits=10, output_digits=20)
    with ctx.workdps():
        x = mpf("0.9995")
        res = lerch_phi(x, 1, 1, ctx)
        assert abs(res.value + mp.log(1 - x) / x) <= res.abs_error_bound
        assert res.abs_error_bound < mpf(10) ** -35
        _raises_domain_error_quickly(lambda: lerch_phi(mpf("0.9996"), 1, 1, ctx))


# ---------------------------------------------------------------------------
# Single sums at exponent 1 on the unit circle
# ---------------------------------------------------------------------------

CTX40 = PrecisionContext(working_digits=40)

S1_CIRCLE_CASES = [
    ("single(n>=1) chi(n) / (n)", "1", CHI4, lambda: mp.pi / 4),
    ("single(n>=1) x^n / (n)", "-1", None, lambda: -mp.log(2)),
    ("single(n>=0) x^n / (n+1/3)", "ru(3,1)", None,
     lambda: mpmath.lerchphi(mpmath.expjpi(mpf(2) / 3), 1, mpf(1) / 3)),
]


@pytest.mark.parametrize("strategy", ["auto", "reduction"])
@pytest.mark.parametrize("text,x,chi,expected", S1_CIRCLE_CASES,
                         ids=["chi4-x1", "alternating", "ru3-third"])
def test_single_sum_at_exponent_one_on_the_circle(text, x, chi, expected, strategy):
    # the class weights cancel, so the sum is -sum_r w_r psi(a_r) to full
    # precision, not an averaged series with an empirical bound
    params = {"x": parse_x(x)} | ({"chi": chi} if chi is not None else {})
    r = eval_single(parse_term(text), params, CTX40, strategy=strategy)
    with mp.workdps(CTX40.dps + 30):
        assert abs(r.value - expected()) <= r.abs_error_bound
    assert r.abs_error_bound <= mpf(10) ** -CTX40.working_digits


@pytest.mark.parametrize("text,x", [("single(n>=1) 1 / (n)", "1"),
                                    ("single(n>=1; n=0 mod 3) x^n / (n)", "ru(3,1)")])
def test_single_sum_at_exponent_one_without_cancellation_diverges(text, x):
    _raises_domain_error_quickly(
        lambda: eval_single(parse_term(text), {"x": parse_x(x)}, CTX, strategy="auto"))


def test_single_sum_with_an_exponent_below_one_inside_the_disk():
    # with |x| < 1 the classes are geometric atoms, which take any positive
    # exponent; sum_n 2^-n (n+1/2)^(-1/2) = Phi(1/2, 1/2, 1/2)
    t = bind_term(parse_term("single(n>=0) x^n / ((n+1/2)^s)"), {"s": Fraction(1, 2)})
    r = eval_single(t, {"x": parse_x("1/2")}, CTX, strategy="reduction")
    with mp.workdps(CTX.dps + 30):
        half = mpf(1) / 2
        assert abs(r.value - mpmath.lerchphi(half, half, half)) <= r.abs_error_bound
    assert r.abs_error_bound <= mpf(10) ** -CTX.working_digits


@pytest.mark.parametrize("text,x,chi,expected", S1_CIRCLE_CASES,
                         ids=["chi4-x1", "alternating", "ru3-third"])
def test_single_sum_at_exponent_one_on_the_circle_direct(text, x, chi, expected):
    # the float64 oracle sums each class to one shared cut; the class tails
    # combine into the tail of one convergent sum
    params = {"x": parse_x(x)} | ({"chi": chi} if chi is not None else {})
    r = eval_single(parse_term(text), params, CTX40, strategy="direct")
    assert r.method == "direct_tail"
    with mp.workdps(CTX40.dps + 30):
        assert abs(r.value - expected()) <= r.abs_error_bound
    assert r.abs_error_bound <= mpf("1e-9")


@pytest.mark.parametrize("text,x", [("single(n>=1) 1 / (n)", "1"),
                                    ("single(n>=1; n=0 mod 3) x^n / (n)", "ru(3,1)")])
def test_single_sum_at_exponent_one_without_cancellation_diverges_direct(text, x):
    with pytest.raises(DomainError):
        eval_single(parse_term(text), {"x": parse_x(x)}, CTX, strategy="direct")


def test_single_sum_below_exponent_one_on_the_circle_direct_raises():
    # the weights cancel, but each class's float64 tail grows at the
    # quadrature nodes and their sum cancels to roundoff
    t = bind_term(parse_term("single(n>=1) x^n / (n^s)"), {"s": Fraction(1, 2)})
    with pytest.raises(DomainError):
        eval_single(t, {"x": parse_x("-1")}, CTX, strategy="direct")


# ---------------------------------------------------------------------------
# Direct oracle: the factored rectangle
# ---------------------------------------------------------------------------

def _brute_grid(factors, lam, t, u):
    # every factor powered at every point of the grid t x u
    vals = np.ones((len(t), len(u)), dtype=complex)
    for (combo, b0, p) in factors:
        sm = lam[0] if combo in ("m", "mn") else 0
        sn = lam[1] if combo in ("n", "mn") else 0
        vals *= (b0 + sm * t[:, None] + sn * u[None, :]) ** (-p)
    return vals


RECTANGLE_CASES = [
    # (lam_m, lam_n), factors (combo, base0, p), x, t0, u0
    ((2, 3), [("m", 1.25, 1.5), ("n", 2.5, 2.0), ("mn", 0.25, 1.0), ("mn", 0.75, 0.5)],
     0.9 * cmath.exp(0.7j), 1, 2),
    ((3, 2), [("mn", 1.5, 2.5), ("mn", 2.0, 1.0)], 0.8 * cmath.exp(-2.1j), 2, 1),
    ((1, 1), [("m", 1.25, 3.0), ("mn", 1.5, 1.0)], 0.5, 1, 0),
    ((2, 2), [("m", 0.5, 0.5), ("n", 1.0, 1.0), ("mn", 3.0, 1.5)], -0.85, 0, 3),
]


@pytest.mark.parametrize("lam,factors,x,t0,u0", RECTANGLE_CASES,
                         ids=["2x3-two-mn-complex", "3x2-mn-only", "1x1-real", "2x2-negative"])
def test_direct_rectangle_against_brute_force_grid(lam, factors, x, t0, u0):
    # |x| < 1 in both indices: _class_sum is exactly its truncated rectangle
    from dpl.direct import _ProductFactors, _class_sum, _geom_cutoff

    pf = _ProductFactors(*lam)
    for (combo, b0, p) in factors:
        pf.add(combo, b0, p)
    Xm, Xn = x ** lam[0], x ** lam[1]
    v, _ = _class_sum(pf, t0, u0, Xm, Xn, abs(x))
    Tm, Tn = _geom_cutoff(abs(x), lam[0]), _geom_cutoff(abs(x), lam[1])
    assert Tm > 50 and Tn > 50
    t = np.arange(t0, t0 + Tm, dtype=float)
    u = np.arange(u0, u0 + Tn, dtype=float)
    ref = Xm ** t @ _brute_grid(factors, lam, t, u) @ Xn ** u
    assert abs(v - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("lam", [(2, 3), (4, 6), (3, 1), (1, 3), (12, 12)],
                         ids=["2x3-two-phases", "4x6-gcd-2", "3x1-three-phases",
                              "1x3-one-phase-strided", "12x12-one-phase"])
def test_direct_rectangle_at_the_unit_circle_cut(lam):
    # the full cut-off rectangle of a unit-circle class, column by column,
    # and the column sums at the non-integer quadrature nodes of the u-tail;
    # the grids give one phase of the (m+n)-factors or several, and each of
    # lam_m, lam_n dividing the other
    from dpl.direct import _ProductFactors, _rectangle_length

    factors = [("m", 1.25, 1.5), ("n", 2.5, 2.0), ("mn", 0.25, 1.0), ("mn", 0.75, 0.5)]
    pf = _ProductFactors(*lam)
    for (combo, b0, p) in factors:
        pf.add(combo, b0, p)
    t0, u0 = 1, 2
    Tm, Tn = _rectangle_length(lam[0]), _rectangle_length(lam[1])
    t = np.arange(t0, t0 + Tm, dtype=float)
    wt = np.exp(0.3j * t)
    inner = pf.lattice_t_sums(wt, t0, u0, Tn)
    ref = wt @ _brute_grid(factors, lam, t, np.arange(u0, u0 + Tn, dtype=float))
    assert np.all(np.abs(inner - ref) <= 1e-13 * np.abs(ref))
    uv = np.array([u0 + Tn + 0.5, 1.7e3, 4.2e5])
    ref = wt @ _brute_grid(factors, lam, t, uv)
    assert np.all(np.abs(pf.t_sums(wt, t, uv) - ref) <= 1e-13 * np.abs(ref))


def test_direct_product_at_a_scalar_point():
    # every exponent the powering treats apart (whole 1 to 4, and any other)
    # on each axis, at one point and along t at a scalar u
    from dpl.direct import _ProductFactors

    factors = [("m", 0.5, 1.0), ("m", 1.5, 3.0), ("n", 0.25, 2.0), ("n", 2.0, 1.5),
               ("mn", 0.75, 4.0), ("mn", 1.25, 2.0)]
    pf = _ProductFactors(2, 3)
    for (combo, b0, p) in factors:
        pf.add(combo, b0, p)
    t = np.array([1.0, 2.5, 7.0])
    ref = _brute_grid(factors, (2, 3), t, np.array([1.5]))[:, 0]
    v = pf.value(2.5, 1.5)
    assert np.shape(v) == ()
    assert abs(v - ref[1]) <= 1e-15 * abs(ref[1])
    assert np.all(np.abs(pf.value(t, 1.5) - ref) <= 1e-15 * np.abs(ref))


def test_direct_geometric_cutoff_needs_the_open_disk():
    # |x| = 1 divided by zero, and near it the cut-off asked for ~1e9 terms
    from dpl.direct import _geom_cutoff

    with pytest.raises(DomainError):
        _geom_cutoff(1.0, 1)
    with pytest.raises(DomainError):
        _geom_cutoff(1 - 1e-7, 1)
    assert _geom_cutoff(0.99, 1) == 9167


def test_direct_geometric_single_sum_at_the_circle_raises():
    # |x| = 1, not a root of unity: no geometric truncation exists
    with pytest.raises(DomainError):
        eval_single(parse_term("single(n>=1) x^n / (n^2)"), {"x": parse_x("3/5+4/5i")},
                    CTX, strategy="direct")


def test_direct_geometric_single_sum_near_the_circle():
    r = eval_single(parse_term("single(n>=1) x^n / (n^2)"), {"x": parse_x("0.99")},
                    CTX, strategy="direct")
    with mp.workdps(CTX.dps):
        assert abs(r.value - mpmath.polylog(2, mpf("0.99"))) <= r.abs_error_bound
    assert r.abs_error_bound <= mpf("1e-9")


@pytest.mark.parametrize("ident,assignments,limit", [
    ("thm-1.1", {"k": 1, "b": "1/4", "x": "1"}, 1.05e-12),
    ("cor-1.2", {"k": 1, "x": "1"}, 0.75e-12),
], ids=["thm-1.1", "cor-1.2"])
def test_direct_accuracy_at_x_one(ident, assignments, limit):
    # at x = 1 the tail quadrature sets the oracle's error; each limit is half
    # the error of a 2400 cut-off with the 48- and 32-node rules (2.1e-12 and
    # 1.5e-12), against the reduction value at 40 digits
    ctx = PrecisionContext(working_digits=40)
    spec = registry_get(ident).spec
    with ctx.workdps():
        p = IdentityParams.bind(spec, assignments)
        ref = eval_side(spec, "lhs", p, ctx, "reduction")
        r = eval_side(spec, "lhs", p, ctx, "direct")
        assert abs(r.value - ref.value) <= limit
        assert abs(r.value - ref.value) <= r.abs_error_bound


def test_direct_oracle_memory_is_linear_in_the_cut():
    # powering every factor on the whole Tm x Tn rectangle peaked near 138 MB
    import tracemalloc

    tracemalloc.start()
    try:
        eval_identity(registry_get("thm-1.1"), {"k": "1", "b": "1/4", "x": "1"}, CTX,
                      strategy="direct")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Outer-sum engine: per-evaluation shape sums and the truncated product
# ---------------------------------------------------------------------------

MEMO_SIDES = [
    ("thm-1.1", {"k": "1", "b": "1/2", "x": "1"}),
    ("thm-1.1", {"k": "1", "b": "1/2", "x": "-1"}),
    ("thm-1.1", {"k": "1", "b": "1/2", "x": "i"}),
    ("cor-1.3", {"k": "1", "chi": "chi3"}),
    ("gkz-even", {"N": "3"}),
]


@pytest.mark.parametrize("ident,assignments", MEMO_SIDES,
                         ids=["thm-1.1-x1", "thm-1.1-x-1", "thm-1.1-xi", "cor-1.3", "gkz-even"])
def test_shape_sums_change_no_number(ident, assignments, monkeypatch, empty_store):
    # each term alone, in an empty store, against the same
    # term inside a whole-side evaluation, whose store holds the earlier
    # terms' shape sums
    import dpl.evaluator
    from dpl.termlang import DoubleSumTerm, expand_group

    entry = registry_get(ident)
    with CTX.workdps():
        p = IdentityParams.bind(entry.spec, assignments)
    seen = []

    def record(evaluate):
        def wrapped(*args, **kwargs):
            seen.append(evaluate(*args, **kwargs))
            return seen[-1]
        return wrapped

    for side in ("lhs", "rhs"):
        # eval_side skips the groups whose weight vanishes at these parameters
        terms = [t for g in (entry.spec.lhs if side == "lhs" else entry.spec.rhs)
                 if dpl.evaluator.weight_value(g.weight, p.env, p.numeric, CTX) != 0
                 for t in expand_group(g, p.env)]
        fresh = []
        for t in terms:
            empty_store()
            fresh.append((eval_double if isinstance(t, DoubleSumTerm) else eval_single)(
                t, p.numeric, CTX, entry.strategy))
        empty_store()
        seen.clear()
        with monkeypatch.context() as mpatch:
            mpatch.setattr(dpl.evaluator, "eval_double", record(dpl.evaluator.eval_double))
            mpatch.setattr(dpl.evaluator, "eval_single", record(dpl.evaluator.eval_single))
            eval_side(entry.spec, side, p, CTX, entry.strategy)
        assert len(seen) == len(fresh)
        for a, b in zip(fresh, seen):
            assert (a.value, a.abs_error_bound, a.method) == (b.value, b.abs_error_bound, b.method)


def test_shape_sums_are_kept_apart_by_start_and_phase(empty_store):
    # the two n ranges share every atom shape but its start u0, and the two
    # x values every shape but its geometric phase
    cases = [("sum(m>=1,n>=0) 1 / ((n+1)^2*(m+n+1)^2)", {}),
             ("sum(m>=1,n>=1) 1 / ((n+1)^2*(m+n+1)^2)", {}),
             ("sum(m>=1,n>=1) x^n / (n^2*(m+n)^2)", {"x": parse_x("1/2")}),
             ("sum(m>=1,n>=1) x^n / (n^2*(m+n)^2)", {"x": parse_x("-1/2")})]
    fresh = []
    for t, p in cases:
        empty_store()
        fresh.append(eval_double(parse_term(t), p, CTX, "reduction"))
    empty_store()
    shared = [eval_double(parse_term(t), p, CTX, "reduction") for t, p in cases]
    for a, b in zip(fresh, shared):
        assert (a.value, a.abs_error_bound) == (b.value, b.abs_error_bound)


def test_second_evaluation_of_a_term_sums_no_shape_again(monkeypatch, empty_store):
    from dpl import reduction
    from dpl.reduction import _Series

    calls = []
    mul = _Series.mul
    monkeypatch.setattr(_Series, "mul", lambda self, *a: calls.append(1) or mul(self, *a))
    t = parse_term("sum(m>b,n>=0) x^n / ((m-b)^2*(n+b)*(m+n)^2)")
    params = {"b": Fraction(1, 3), "x": parse_x("-1")}
    first = eval_double(t, params, CTX, "reduction")
    assert calls and reduction.STORE
    calls.clear()
    again = eval_double(t, params, CTX, "reduction")
    assert not calls
    assert (first.value, first.abs_error_bound) == (again.value, again.abs_error_bound)


SERIES_P = 200


def _random_series(rng, R, logs):
    """A fixed-point series with O(1) falling coefficients, some err and
    remainder units, and logs when asked for."""
    from dpl.reduction import _Series

    one = 1 << SERIES_P
    s = _Series(R, SERIES_P, lo=rng.choice([0, 1, 2]), logs=logs)
    for r in range(s.lo, R + 1):
        s.a[r] = int(rng.uniform(-3, 3) * rng.uniform(0.3, 0.8) ** r * one)
        if logs and rng.random() < 0.6:
            s.b[r] = int(rng.uniform(-2, 2) * 0.5 ** r * one)
    s.a[rng.randrange(s.lo, R + 1)] = 0     # mixed signs with some exact zeros
    s.err = rng.randrange(1, 50)
    s.rem = int(rng.uniform(0, 1e-3) * one)
    s.rem_log = int(rng.uniform(0, 1e-3) * one) if logs else 0
    return s


def _series_fn(s, v, v0, pick):
    """A function the series stands for: each coefficient moved by pick()
    times err, and the remainder at pick() times its full size."""
    t, lv = v0 / v, mp.log(v)
    f = mpf(0)
    for r in range(s.lo, s.R + 1):
        f += (s.a[r] + pick() * s.err) * t ** r
        if s.b is not None:
            f += (s.b[r] + pick() * s.err) * lv * t ** r
    f += pick() * (s.rem + s.rem_log * lv) * t ** (s.R + 1)
    return f / mpf(2) ** s.P


def _series_slack(s, v, v0):
    """|the function s stands for - its kept part| may reach this at v."""
    t, lv = v0 / v, mp.log(v)
    per_coef = 1 + (lv if s.b is not None else 0)
    return (s.err * per_coef * sum(t ** r for r in range(s.lo, s.R + 1))
            + (s.rem + s.rem_log * lv) * t ** (s.R + 1)) / mpf(2) ** s.P


def _series_kept(s, v, v0):
    t, lv = v0 / v, mp.log(v)
    f = sum((s.a[r] + (s.b[r] * lv if s.b is not None else 0)) * t ** r
            for r in range(s.R + 1))
    return f / mpf(2) ** s.P


@pytest.mark.parametrize("seed", range(6))
def test_series_product_against_full_convolution(seed):
    with CTX.workdps():
        _check_series_product(random.Random(seed), seed % 2 == 0)


def _check_series_product(rng, logs_first):
    R = rng.choice([8, 13, 21])
    v0 = mpf(rng.choice([12, 30, 75]))
    # at most one factor carries logs, as in the tails of _sum_shape
    s = _random_series(rng, R, logs_first)
    o = _random_series(rng, R, not logs_first)
    out = s.mul(o)
    # every kept coefficient is the exact convolution of the ints, cut once
    la, lb = (o, s) if logs_first else (s, o)
    for n in range(R + 1):
        assert out.a[n] == sum(la.a[i] * lb.a[n - i] for i in range(n + 1)) >> SERIES_P
        assert out.b[n] == sum(la.a[i] * lb.b[n - i] for i in range(n + 1)) >> SERIES_P
    # the remainders dominate sum_{r>R} |conv_r|, the dropped pairs at v = v0
    for rem, y in ((out.rem, lb.a), (out.rem_log, lb.b)):
        dropped = sum(abs(sum(la.a[i] * y[r - i] for i in range(r - R, R + 1)))
                      for r in range(R + 1, 2 * R + 1))
        assert rem >= dropped >> SERIES_P
    # the product of any functions the factors stand for lies within the
    # product's err and remainder units of its kept part, at v0 and 2 v0
    for v in (v0, 2 * v0):
        for _ in range(6):
            with mp.workdps(mp.dps + 40):
                exact = _series_fn(s, v, v0, lambda: rng.choice((-1, 1))) * \
                    _series_fn(o, v, v0, lambda: rng.choice((-1, 1)))
                assert abs(exact - _series_kept(out, v, v0)) <= _series_slack(out, v, v0)


# ---------------------------------------------------------------------------
# Outer tails: each factor expanded from its whole exponent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1], ids=["delta+", "delta-"])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 2), 2, 12])
def test_power_series_within_its_remainder(p, sign):
    # (v + delta)^-p with delta/v0 = +-1/2: the kept part times v^-frac(p)
    # is within its err and remainder units of mpmath at v0 and 2 v0; at
    # p = 12 the powers past R go to the remainder
    from dpl.reduction import _power_series

    with CTX.workdps():
        R, v0, P = 36, mpf(16), mp.prec + 8
        pm = mpf(p.numerator) / p.denominator if isinstance(p, Fraction) else mpf(p)
        frac = pm - mp.floor(pm)
        series = _power_series(R, pm, sign * v0 / 2, v0, P)
        for v in (v0, 2 * v0):
            with mp.workdps(mp.dps + 40):
                ref = (v + sign * v0 / 2) ** -pm * v ** frac
                assert abs(_series_kept(series, v, v0) - ref) <= _series_slack(series, v, v0)


@pytest.mark.parametrize("j", [2, 3, 7, Fraction(5, 2), pytest.param(1, id="psi")])
def test_zeta_and_psi_series_within_their_remainder(j):
    # Z_j(v), zeta(j, v) and at j = 1 -psi(v), about its own argument, kept
    # part against mpmath at v0 and 2 v0; a fractional j carries v^-frac(j)
    from dpl.reduction import _zeta_series

    with CTX.workdps():
        R, v0, P = 36, mpf(16), mp.prec + 8
        series = _zeta_series(R, j, v0, P)
        for v in (v0, 2 * v0):
            with mp.workdps(mp.dps + 40):
                jm = mpf(j.numerator) / j.denominator
                ref = _z_ref(j, v) * v ** (jm - mp.floor(jm))
                assert abs(_series_kept(series, v, v0) - ref) <= _series_slack(series, v, v0)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("j", [2, 5, mpf(5) / 2, pytest.param(1, id="psi")])
def test_kept_expansion_coefficients_make_the_fresh_series(j, digits):
    # the Z_j series from the coefficient lists kept for the process equal,
    # int for int, the series from freshly generated coefficients; Z_1 =
    # -psi carries -log v
    from dpl.reduction import (_expansion_coefficients, _expansion_series, _exponent_parts,
                               _zeta_series)

    ctx = PrecisionContext(working_digits=digits, output_digits=digits - 10)
    with ctx.workdps():
        R, P = digits // 2, mp.prec + 8
        for v0 in (mpf(16), mpf(1001) / 4):
            kept = _zeta_series(R, j, v0, P)
            with mp.workprec(P + 20):
                fresh = _expansion_series(R, P, v0, _expansion_coefficients(j),
                                          _exponent_parts(j)[0] - 1, logs=j == 1)
                if j == 1:
                    fresh.b[0] = -1 << P
            for name in fresh.__slots__:
                assert getattr(kept, name) == getattr(fresh, name), name


@pytest.mark.parametrize("x", ["1", "1/2"])
def test_shapes_summed_in_one_cache_match_fresh_caches(x, empty_store):
    # the two zeta(2) shapes share a lattice table, and all three shapes (at
    # one shift) one set of tail base sums; each summed alone, in an empty
    # store, gives the same sum and bound, with the geometric phase too
    from dpl import reduction
    from dpl.reduction import Atom, _sum_atom

    one = (mpf(1), mpf(0))
    with CTX.workdps():
        atoms = [Atom(one, 1, ((mpf(0), 2),), (1, mpf(1))),
                 Atom(one, 1, ((mpf(0), 3),), (2, mpf(1))),
                 Atom(one, 1, ((mpf(0), 2),), (2, mpf(1)))]
        phase = None if x == "1" else (mpf(1) / 2, mpf(1))
        shared = [_sum_atom(a, 1, phase, CTX) for a in atoms]
        kinds = [key[:2] for key in reduction.STORE]
        assert kinds.count(("table", "zeta")) == 2
        if phase is None:
            assert [key[0] for key in reduction.STORE].count("bases") == 1
        fresh = []
        for a in atoms:
            empty_store()
            fresh.append(_sum_atom(a, 1, phase, CTX))
    for s, f in zip(shared, fresh):
        assert s == f


_HALF = mpf(1) / 2
SPLIT_START_ATOMS = [
    # (rpows, trans, the summand at u for the reference)
    (((mpf(0), mpf(5) / 2),), (1, mpf(1)),
     lambda u: u ** -(mpf(5) / 2) * -mpmath.digamma(u + 1)),
    (((mpf(0), mpf(5) / 2),), (2, mpf(1)),
     lambda u: u ** -(mpf(5) / 2) * mpmath.zeta(2, u + 1)),
    (((_HALF, mpf(3) / 2), (mpf(0), 2)), (1, mpf(1)),
     lambda u: (u + _HALF) ** -(mpf(3) / 2) * u ** -2 * -mpmath.digamma(u + 1)),
    (((_HALF, mpf(3) / 2), (mpf(0), 1)), (2, mpf(1)),
     lambda u: (u + _HALF) ** -(mpf(3) / 2) / u * mpmath.zeta(2, u + 1)),
]


@pytest.mark.parametrize("rpows,trans,summand", SPLIT_START_ATOMS,
                         ids=["u-psi", "u-zeta2", "half-u2-psi", "half-u-zeta2"])
def test_shape_sum_splits_at_any_start(rpows, trans, summand):
    # S(1) = sum_{u=1}^{300} atom(u) + S(301) for atoms whose fractional
    # power sits at another shift than the zeta/psi factor
    from dpl.reduction import Atom, _sum_shape

    atom = Atom((mpf(1), mpf(0)), 1, rpows, trans)
    with CTX.workdps():
        whole = _sum_shape(atom, 1, CTX)
        rest = _sum_shape(atom, 301, CTX)
    with mp.workdps(CTX.dps + 30):
        head = mpmath.fsum(summand(mpf(u)) for u in range(1, 301))
        assert abs(whole.value - head - rest.value) <= whole.abs_error_bound + rest.abs_error_bound


FRACTIONAL_POINTS = [
    ("prop-4.3", {"s": "3/2", "N": "1", "x": "1"}),
    ("prop-4.3", {"s": "3/2", "N": "1", "x": "-1"}),
    ("prop-4.5", {"s": "3/2", "N": "3", "x": "1"}),
    ("prop-4.5", {"s": "3/2", "N": "3", "x": "-1"}),
    ("thm-2.1", {"s": "3/2", "b": "1/2", "x": "1"}),
]


@pytest.mark.parametrize("ident,assignments", FRACTIONAL_POINTS,
                         ids=["prop-4.3-x1", "prop-4.3-x-1", "prop-4.5-x1", "prop-4.5-x-1",
                              "thm-2.1-x1"])
def test_functional_relations_at_a_fractional_exponent(ident, assignments):
    # the relations hold for real s >= 1; the residual must stay within the
    # sides' bounds, not merely within the identity's tolerance
    rep = eval_identity(registry_get(ident), assignments, CTX40, strategy="auto")
    assert rep.residual <= rep.bound


@pytest.mark.parametrize("x", ["1", "-1"])
@pytest.mark.parametrize("b", ["1/4", "1/2", "3/4"])
def test_functional_relation_real_exponent_on_the_circle(b, x):
    # thm-2.1's x^(m+n) terms at real s run as diagonal atoms on the circle:
    # full precision, no float64 side, and within direct's bound of direct
    entry = registry_get("thm-2.1")
    assign = {"s": "3/2", "b": b, "x": x}
    red = eval_identity(entry, assign, CTX, strategy="reduction")
    dir_ = eval_identity(entry, assign, CTX, strategy="direct")
    assert red.residual <= red.bound
    assert "direct_tail" not in (red.lhs.method, red.rhs.method)
    for r, d in ((red.lhs, dir_.lhs), (red.rhs, dir_.rhs)):
        assert abs(r.value - d.value) <= d.abs_error_bound


@pytest.mark.parametrize("x", ["i", "ru(3,1)"])
@pytest.mark.parametrize("text,chi", [
    ("sum(m>=1,n>=1; m=-2*n mod 3) x^(m+n) / (m * n * (m+n)^(3/2))", None),
    ("sum(m>=1,n>=1) chi(m+n) * x^(m+n) / (m^2 * (m+n)^(5/2))", CHI3),
], ids=["congruence", "chi3-mn"])
def test_diagonal_real_exponent_at_roots_of_unity(text, chi, x):
    params = {"x": parse_x(x)} | ({"chi": chi} if chi is not None else {})
    t = bind_term(parse_term(text), {})
    red = eval_double(t, params, CTX, "reduction")
    dir_ = eval_double(t, params, CTX, "direct")
    assert red.method != "direct_tail"
    assert abs(red.value - dir_.value) <= dir_.abs_error_bound


TWO_SHIFT_TERMS = [
    # two power factors at different shifts in every outer atom
    ("sum(m>=1,n>=1) x^n / (m * (n+1/2)^2 * (m+n)^2)", ["1", "-1", "i", "1/2"]),
    # outer bases n - 5/2 start negative
    ("sum(m>=1,n>=1) x^n / ((m+5/2) * (m+n)^2)", ["1", "-1"]),
    # shifts 39 apart: the tail starts past the default U0, at 2 * 39 + 8
    ("sum(m>=1,n>=1) x^n / (m * (n+40)^2 * (m+n)^2)", ["1", "-1"]),
]


@pytest.mark.parametrize("text,xlit", [(t, x) for t, xs in TWO_SHIFT_TERMS for x in xs])
def test_outer_atoms_at_two_shifts_agree_with_direct(text, xlit):
    t = parse_term(text)
    with CTX.workdps():
        params = {"x": parse_x(xlit)}
    red = eval_double(t, params, CTX, "reduction")
    dir_ = eval_double(t, params, CTX, "direct")
    assert abs(red.value - dir_.value) <= red.abs_error_bound + dir_.abs_error_bound


REPEATED_FACTOR_TERMS = [
    # a repeated factor and its power; at x = 1 the outer sum of one (m+n)
    # factor alone diverges
    ("x^n / (m * m * (m+n)^2)", "x^n / (m^2 * (m+n)^2)", "1/2"),
    ("x^n / (m * (m+n) * (m+n)^2)", "x^n / (m * (m+n)^3)", "1/2"),
    ("x^m / (n * n * (m+n)^2)", "x^m / (n^2 * (m+n)^2)", "-1"),
    ("x^n / (m * (m+n) * (m+n)^2)", "x^n / (m * (m+n)^3)", "1"),
]


@pytest.mark.parametrize("repeated,power,xlit", REPEATED_FACTOR_TERMS)
def test_repeated_factor_evaluates_as_its_power(repeated, power, xlit):
    head = "sum(m>=1,n>=1) "
    with CTX.workdps():
        params = {"x": parse_x(xlit)}
    red = eval_double(parse_term(head + repeated), params, CTX, "reduction")
    pw = eval_double(parse_term(head + power), params, CTX, "reduction")
    dir_ = eval_double(parse_term(head + repeated), params, CTX, "direct")
    assert (red.value, red.abs_error_bound, red.method) == (pw.value, pw.abs_error_bound, pw.method)
    assert abs(red.value - dir_.value) <= dir_.abs_error_bound


@pytest.mark.parametrize("xlit,geometric", [("1/2", True), ("-1", False)])
def test_outer_sum_tag_follows_the_phase(xlit, geometric):
    # inside the disk the outer atoms are summed with the geometric phase,
    # whose tail bound is empirical, as the single sum's and the diagonal's
    ctx = PrecisionContext(working_digits=50, output_digits=40)
    with ctx.workdps():
        params = {"x": parse_x(xlit)}
    for text in ("sum(m>=1,n>=1) x^n / (m*(m+n)^3)", "sum(m>=1,n>=1) x^(m+n) / (m*(m+n)^3)",
                 "single(n>=1) x^n / (n^2)"):
        t = parse_term(text)
        evaluate = eval_single if isinstance(t, SingleSumTerm) else eval_double
        r = evaluate(t, params, ctx, "reduction")
        assert (r.method == "direct_tail") == geometric, text


def test_outer_atoms_at_two_shifts_vs_brute_force():
    # sum_n 2^-n (n+1/2)^-2 sum_m 1/(m (m+n)^2), the inner sum by partial
    # fractions in exact harmonic numbers, H_n/n^2 - (pi^2/6 - H_n^(2))/n,
    # and the outer sum cut where 2^-n drops below 10^-(dps+30)
    t = parse_term("sum(m>=1,n>=1) x^n / (m * (n+1/2)^2 * (m+n)^2)")
    with CTX.workdps():
        r = eval_double(t, {"x": parse_x("1/2")}, CTX, "reduction")
    with mp.workdps(CTX.dps + 30):
        ref, h1, h2 = mpf(0), Fraction(0), Fraction(0)
        for n in range(1, int((CTX.dps + 30) * 3.33) + 2):
            h1 += Fraction(1, n)
            h2 += Fraction(1, n * n)
            inner = (mpf(h1.numerator) / h1.denominator / n ** 2
                     - (mp.pi ** 2 / 6 - mpf(h2.numerator) / h2.denominator) / n)
            ref += mpf(2) ** -n * (n + _HALF) ** -2 * inner
        assert abs(r.value - ref) <= r.abs_error_bound


# ---------------------------------------------------------------------------
# The fixed-point outer-sum engine against a reference 40 digits higher
# ---------------------------------------------------------------------------

_Q = mpf(1) / 4   # dyadic shifts are the same number at every precision
OUTER_SHAPES = [
    # (id, slope, rpows as (shift, exponent), trans, geometric phase X); X is
    # taken at 400 digits, the same number at both precisions
    ("p1-zeta2", 1, ((2 * _Q, 1),), (2, 4 * _Q), None),
    ("p2-psi", 1, ((_Q, 2),), (1, 4 * _Q), None),
    ("p3-bare", 1, ((3 * _Q, 3),), None, None),
    ("p3/2-zeta2", 1, ((2 * _Q, Fraction(3, 2)),), (2, 4 * _Q), None),
    ("equal-shifts-psi", 1, ((2 * _Q, 1), (2 * _Q, 2)), (1, 4 * _Q), None),
    ("equal-shifts-fractional", 1, ((2 * _Q, Fraction(1, 2)), (2 * _Q, Fraction(3, 2))),
     (2, 4 * _Q), None),
    ("unequal-shifts", 1, ((_Q, 1), (3 * _Q, 2)), None, None),
    ("slope2-zeta3", 2, ((2 * _Q, 2),), (3, 6 * _Q), None),
    ("slope4-psi", 4, ((3 * _Q, 2),), (1, 5 * _Q), None),
    ("geometric-zeta2", 1, ((2 * _Q, 2),), (2, 4 * _Q), "0.5"),
    ("geometric-bare", 1, ((_Q, 3),), None, "0.5"),
    ("geometric-imaginary", 1, ((4 * _Q, 3),), None, "0.5j"),
    ("geometric-complex", 1, ((2 * _Q, 2),), (2, 4 * _Q), "0.3+0.4j"),
]


def _outer_shape_sum(shape, ctx):
    from dpl.reduction import Atom, _sum_shape

    _, slope, rpows, trans, X = shape
    with ctx.workdps():
        rp = tuple((mpf(g), p if isinstance(p, int) else mpf(p.numerator) / p.denominator)
                   for (g, p) in rpows)
        atom = Atom((mpf(1), mpf(0)), slope, rp, trans)
        with mp.workdps(400):
            phase = None if X is None else (mpmath.mpmathify(X), mpf(1))
        return _sum_shape(atom, 1, ctx, phase)


@pytest.mark.parametrize("digits", [30, 50, 100, 200])
@pytest.mark.parametrize("shape", OUTER_SHAPES, ids=lambda s: s[0])
def test_outer_shape_sums_within_their_bounds(shape, digits):
    # every rounding of the int engine is counted into the bound: the sum
    # must lie within it of the same shape at 40 more digits, and the bound
    # must still be small
    ctx = PrecisionContext(working_digits=digits, output_digits=digits - 10)
    ref_ctx = PrecisionContext(working_digits=digits + 40, output_digits=digits + 30)
    r, ref = _outer_shape_sum(shape, ctx), _outer_shape_sum(shape, ref_ctx)
    with ref_ctx.workdps():
        assert abs(r.value - ref.value) <= r.abs_error_bound + ref.abs_error_bound
        assert r.abs_error_bound <= mpf(10) ** -(ctx.dps - 5) * max(1, abs(r.value))


def test_eval_cache_builds_each_row_once(monkeypatch, empty_store):
    # one evaluation asks for every row at its final length: no (a, phi) is
    # built twice, the tail rows and the single columns at small a included,
    # though the evaluation reads and fills the process store
    import dpl.reduction
    import dpl.specfun

    built = []
    real = dpl.specfun.euler_maclaurin_row

    def spy(a, phi, *args, **kwargs):
        built.append((a, phi))
        return real(a, phi, *args, **kwargs)

    monkeypatch.setattr(dpl.specfun, "euler_maclaurin_row", spy)
    monkeypatch.setattr(dpl.reduction, "euler_maclaurin_row", spy)
    entry = registry_get("thm-1.1")
    for x in ("-1", "i"):
        # each evaluation in an empty store, which would else lend it the
        # rows of the evaluations before it
        empty_store()
        built.clear()
        rep = eval_identity(entry, {"k": 1, "b": "1/2", "x": x}, CTX, strategy=entry.strategy)
        assert rep.passed and built
        assert sorted(built, key=str) == sorted(set(built), key=str)


# a mixed battery at 50 and 100 digits: (identity, assignments, digits)
MIXED_BATTERY = [("thm-1.1", {"k": 1, "x": x, "b": b}, 50)
                 for x in ("1", "-1", "i", "1/2") for b in ("1/4", "1/2")] + \
    [("thm-1.1", {"k": 1, "x": "1", "b": "1/4"}, 100)] + \
    [(i, a, d) for d in (50, 100) for (i, a) in (("cor-1.2", {"k": 1, "x": "-1"}),
                                                 ("euler-sum", {"l": 4}))]


def test_evaluation_order_does_not_matter(empty_store):
    # the points of a mixed battery share rows and shape sums through the
    # process store; evaluated in one process forwards, backwards and each
    # in an empty store, every side has the same value, bound and method,
    # to the last bit
    from dpl.reduction import Atom, _sum_atom

    def sides(ident, assign, digits):
        ctx = PrecisionContext(working_digits=digits, output_digits=digits - 20)
        rep = eval_identity(registry_get(ident), assign, ctx)
        with mp.workprec(1024):     # every bit of each value and bound
            return [repr((r.value, r.abs_error_bound, r.method)) for r in (rep.lhs, rep.rhs)]

    forward = [sides(*p) for p in MIXED_BATTERY]
    empty_store()
    backward = [sides(*p) for p in reversed(MIXED_BATTERY)][::-1]
    alone = []
    for p in MIXED_BATTERY:
        empty_store()
        alone.append(sides(*p))
    assert forward == backward == alone
    # the store is keyed by (ctx, mp.prec): a shape summed with one ctx at
    # one precision, then at another in a store that holds it at the first,
    # gives at each what an empty store gives
    one = (mpf(1), mpf(0))
    atom = Atom(one, 1, ((mpf(0), 2),), (2, mpf(1)))
    with CTX.workdps():
        prec = mp.prec
    for p in (prec, prec + 64, prec):
        with mp.workprec(p):
            stored = _sum_atom(atom, 1, None, CTX)
            empty_store()
            fresh = _sum_atom(atom, 1, None, CTX)
        with mp.workprec(1024):
            assert repr(stored) == repr(fresh)


def _plan_sweep():
    """The points of test_shared_plans_give_the_numbers_of_fresh_points, each
    a (name, function of nothing that evaluates it): thm-1.1's sides through
    one side_evaluator per (side, k, x), b running over a sweep; a term whose
    two outer shifts merge at b = 1 only; and cor-1.3 (characters) and thm-4.1
    (a congruence) at two precisions."""
    from dpl.dsl import parse_term
    from dpl.reduction import eval_double_reduction

    ctx = PrecisionContext(working_digits=30, output_digits=20)
    ctx50 = PrecisionContext(working_digits=50, output_digits=30)
    spec = registry_get("thm-1.1").spec
    with ctx.workdps():
        bs = [mpf(1) / 4, mpf(1) / 2, mpf(1) / 2 + mpf("1e-5"), mpf(1) / 2 - mpf("1e-5"),
              1 - mpf("1e-6"), mpf("1e-6")]
    points = []
    for side in ("lhs", "rhs"):
        # sides with m>b ranges raise outside (0, 1)
        side_bs = bs + ([mpf(1), 1 + mpf("1e-6")] if side == "rhs" else [])
        for k in (1, 2):
            for x in ("1", "-1", "i", "1/2"):
                def func(side=side, k=k, x=x):
                    return side_evaluator(spec, side, {"k": k, "x": x, "b": "1/2"}, ctx)
                points += [((side, k, x, b), func, b) for b in side_bs]
    term = parse_term("sum(m>=1,n>=0) x^n / (m * (n+b) * (m+n+1)^2)")
    points += [(("merge", b), lambda: lambda b: eval_double_reduction(
        term, {"x": XSpec.one(), "b": b}, ctx), b) for b in (Fraction(1, 2), Fraction(1))]
    for c in (ctx, ctx50):
        for ident, assign in (("cor-1.3", {"k": 1, "chi": "chi3"}),
                              ("thm-4.1", {"k": 1, "x": "-1", "N": 3})):
            def func(ident=ident, assign=assign, c=c):
                entry = registry_get(ident)
                return lambda _: eval_identity(entry, assign, c, strategy=entry.strategy)
            points.append(((ident, c.working_digits), func, None))
    return points


def test_shared_plans_give_the_numbers_of_fresh_points(empty_store):
    # the points of a b-sweep share term plans (ClassPlan.of), expanded
    # families, rows and shape sums; evaluated in one process, and each alone
    # with an empty store, every value, bound and method is the
    # same to the last bit
    def record(out):
        with mp.workprec(1024):
            sides = (out.lhs, out.rhs) if hasattr(out, "lhs") else (out,)
            return [repr((r.value, r.abs_error_bound, r.method)) for r in sides]

    points = _plan_sweep()
    funcs, swept = {}, {}
    for (name, make, b) in points:
        key = name[:3] if name[0] in ("lhs", "rhs") else name
        if key not in funcs:
            funcs[key] = make()
        func = funcs[key]
        swept[name] = record(func(b))
    for (name, make, b) in points:
        empty_store()
        assert record(make()(b)) == swept[name], name


def test_store_stays_bounded_and_drops_the_least_recently_used(monkeypatch):
    # thm-1.1 lhs b-derivative stencils at four b values make more rows,
    # shape sums, tables, expansions and base sums than a store of 512 KB
    # holds: the store never weighs more, and after the sweep it holds the
    # entries that the sweep's own reads and writes used last, in that
    # order, as many as the budget holds
    from dpl import reduction

    store = reduction.Store(limit=1 << 19)
    monkeypatch.setattr(reduction, "STORE", store)
    order, weights, seen = [], {}, []
    get, put = store.get, store.put

    def use(key):
        if key in order:
            order.remove(key)
        order.append(key)
        while sum(weights[k] for k in order) > store.limit:
            del order[0]

    def spy_get(key):
        value = get(key)
        if value is not None:
            use(key)
        return value

    def spy_put(key, value):
        put(key, value)
        weight = reduction._weigh(key, value)
        if weight <= store.limit:
            weights[key] = weight
            use(key)
        seen.append(store.weight)
        return value

    monkeypatch.setattr(store, "get", spy_get)
    monkeypatch.setattr(store, "put", spy_put)
    ctx = PrecisionContext(working_digits=30, output_digits=20)
    spec = registry_get("thm-1.1").spec
    for b in ("1/8", "1/4", "3/8", "1/2"):
        func = side_evaluator(spec, "lhs", {"k": 1, "x": "1", "b": b}, ctx)
        numeric_derivative_b(func, 1, Fraction(b), ctx)
        assert max(seen) <= store.limit
    assert sum(weights.values()) > 2 * store.limit
    assert max(seen) > store.limit - max(weights.values())
    assert store.weight == sum(reduction._weigh(k, v) for k, v in store.items())
    assert list(store) == order


def test_an_entry_heavier_than_the_budget_is_used_and_not_kept(monkeypatch):
    # a power table read far past the budget (|x| near 1 asks for such
    # blocks) gives the ints of a store that could hold it, and neither
    # stays in the store nor evicts what it holds
    from dpl import reduction
    from dpl.reduction import _power_slice

    store = reduction.Store(limit=1 << 16)
    monkeypatch.setattr(reduction, "STORE", store)
    g = mpf(1) / 4
    with CTX.workdps():
        P, U0 = _lattice_block(g, 1, 0)
        eval_double(parse_term("sum(m>=1,n>=1) x^n / (n^2*(m+n)^2)"),
                    {"x": parse_x("1/2")}, CTX, "reduction")
        _power_slice(g, 2, 1, 0, U0, P)
        held, weight = list(store.items()), store.weight
        assert held and weight <= store.limit
        big = _power_slice(g, 2, 1, 0, 4 * store.limit // 72, P)
        assert list(store.items()) == held and store.weight == weight
        monkeypatch.setattr(reduction, "STORE", reduction.Store(1 << 30))
        assert _power_slice(g, 2, 1, 0, 4 * store.limit // 72, P) == big


def test_a_b_sweep_under_a_small_budget_plans_each_term_once(monkeypatch):
    # every point of a b-sweep reads its terms' plans, and the rows that
    # depend on b are never read again, so under a budget that one point's
    # entries nearly fill the rows age out and each term's ClassPlan is
    # made once; every side is the one a store that evicts nothing gives
    from collections import Counter

    from dpl import reduction

    inits, built = Counter(), []
    init, row = ClassPlan.__init__, reduction.euler_maclaurin_row
    monkeypatch.setattr(ClassPlan, "__init__", lambda self, term, params:
                        inits.update([id(term)]) or init(self, term, params))
    monkeypatch.setattr(reduction, "euler_maclaurin_row",
                        lambda a, phi, *rest, **kw: built.append((a, phi)) or
                        row(a, phi, *rest, **kw))
    ctx = PrecisionContext(working_digits=30, output_digits=20)
    entry = registry_get("thm-1.1")

    def sweep():
        out = []
        for i in range(1, 13):
            rep = eval_identity(entry, {"k": 1, "x": "1", "b": f"{i}/13"}, ctx,
                                strategy=entry.strategy)
            with mp.workprec(1024):
                out.append(repr([(r.value, r.abs_error_bound, r.method)
                                 for r in (rep.lhs, rep.rhs)]))
        return out

    store = reduction.Store(limit=1 << 19)
    monkeypatch.setattr(reduction, "STORE", store)
    small = sweep()
    assert inits and set(inits.values()) == {1}
    assert len(built) > 2 * sum(key[0] == "row" for key in store)
    monkeypatch.setattr(reduction, "STORE", reduction.Store(1 << 30))
    assert sweep() == small


@pytest.mark.parametrize("lam, phi, digits", [
    (1, 0, 50), (3, 0, 50), (1, Fraction(1, 2), 50), (3, Fraction(1, 2), 50),
    (1, 0, 200), (3, Fraction(1, 2), 200)],
    ids=["lam1-50", "lam3-50", "lam1-phi-50", "lam3-phi-50", "lam1-200", "lam3-phi-200"])
def test_base_sums_within_their_units(lam, phi, digits):
    # each (int, error) pair of the tail base sums against 40 more digits:
    # v0^r sum_{u>=U0} (lam u + g)^-s and its log-weighted companion, s = r +
    # phi; at lam = 3 the row's argument U0 + g/3 is not dyadic, so its
    # rounding against v0/lam is part of the error
    from dpl.reduction import _shape_unit, _standard_start, _tail_order, base_sums

    ctx = PrecisionContext(working_digits=digits, output_digits=digits - 10)
    g = mpf(1) / 4
    with ctx.workdps():
        R, P = _tail_order(mp.prec), _shape_unit([g])
        U0 = math.ceil((_standard_start(R, P) - 0.25) / lam)
        v0 = lam * U0 + g
        ph = mpf(phi.numerator) / phi.denominator if phi else 0
        B, L = base_sums(ctx, U0 + g / lam, v0, ph, lam, R, P)
        prec = mp.prec
    # mpmath's zeta at d digits is good to about 10^-d absolutely, and the
    # scale v0^r lam^-s is about x^r: 40 digits past the unit need r log10 x more
    bad = []
    for r in range(1, R + 2):
        with mp.workdps(ctx.dps + 40 + math.ceil(r * math.log10(U0 + 1))):
            x = U0 + g / lam
            s = r + (mpf(phi.numerator) / phi.denominator if phi else 0)
            if s <= 1:
                assert B[r] == L[r] == (0, 0)
                continue
            scale = v0 ** r * mpf(lam) ** -s
            z = mpmath.zeta(s, x)
            refs = (scale * z, scale * (mp.log(lam) * z - mpmath.zeta(s, x, 1)))
            for name, (n, err), ref in zip("BL", (B[r], L[r]), refs):
                if abs(n - mp.ldexp(ref, P)) > err:
                    bad.append((name, r, float(abs(n - mp.ldexp(ref, P))), err))
                # and the bound stays near the working precision
                if err > ((abs(n) + (1 << P)) >> (prec - 16)):
                    bad.append((name, r, "loose", err))
    assert not bad, bad


def test_a_character_sum_counts_the_rounding_of_its_arguments():
    # L(5, chi3) = 3^-5 (zeta(5, 1/3) - zeta(5, 2/3)) reads its zeta values
    # at the mpf roundings of 1/3 and 2/3: its bound counts what those
    # roundings move, which the reference at the exact arguments shows
    t = parse_term("single(n>=1) chi(n) / (n^5)")
    r = eval_single(t, {"chi": CHI3}, CTX, "reduction")
    with mp.workdps(100):
        ref = (mpmath.zeta(5, mpf(1) / 3) - mpmath.zeta(5, mpf(2) / 3)) / 3 ** 5
        assert abs(r.value - ref) <= r.abs_error_bound


def test_a_new_b_builds_tail_rows_only(monkeypatch, empty_store):
    # a thm-1.1 point at a b met before by no evaluation calls the row
    # kernel from reduction for its tail base sums only: every row with the
    # log sums and the columns 1..R+1 of the precision
    from dpl import reduction

    calls = []
    row = reduction.euler_maclaurin_row
    monkeypatch.setattr(reduction, "euler_maclaurin_row",
                        lambda *args, **kw: calls.append((args, kw)) or row(*args, **kw))
    entry = registry_get("thm-1.1")
    rep = eval_identity(entry, {"k": 1, "x": "1", "b": "3/7"}, CTX, strategy=entry.strategy)
    with CTX.workdps():
        R = reduction._tail_order(mp.prec)
    assert rep.passed and calls
    for (args, kw) in calls:
        assert (args[2:4], kw) == ((1, R + 1), {"logs": True})


def test_stored_plans_hold_nothing_of_b(empty_store):
    # points at b = 1/4, 1/2 and 1 read one stored plan, which they leave as
    # the first point left it; b and the start m0 travel beside it, and at
    # b = 1 the range m > b starts at m0 = 2
    term = parse_term("sum(m>b,n>=0) x^n / ((m-b)^2 * (m+n)^2)")
    values = {}
    for b in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        values[b] = eval_double(term, {"b": b}, CTX, "reduction")
        with CTX.workdps():
            plan = ClassPlan.of(term, {"b": b})
        if b == Fraction(1, 4):
            first, attrs, made = plan, dict(vars(plan)), dict(plan.made)
    assert plan is first and vars(plan) == attrs
    assert plan.made.keys() == made.keys() and all(plan.made[k] is v for k, v in made.items())
    assert (plan.start(Fraction(1, 2)), plan.start(Fraction(1))) == (1, 2)
    # m = m' + 1, m' >= 1
    shifted = eval_double(parse_term("sum(m>=1,n>=0) x^n / (m^2 * (m+n+1)^2)"), {}, CTX,
                          "reduction")
    at_one = values[Fraction(1)]
    assert abs(at_one.value - shifted.value) <= at_one.abs_error_bound + shifted.abs_error_bound
    with pytest.raises(DomainError):
        eval_double(term, {}, CTX, "reduction")



def test_a_far_shift_reads_a_short_table(empty_store):
    # zeta(2, 1000001) is one entry of a table that runs from its start up to
    # its top, not down from N = 0
    from dpl import reduction

    r = eval_single(parse_term("single(n>=1) x^n / ((n+1000000)^2)"), {}, CTX, "reduction")
    with mp.workdps(100):
        assert abs(r.value - mpmath.zeta(2, 1000001)) <= r.abs_error_bound
    tables = [v for (k, v) in reduction.STORE.items() if k[0] == "table"]
    assert tables and all(len(t.vals) <= reduction._RUNG + 1 for t in tables)
