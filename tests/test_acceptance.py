"""Acceptance criteria: every identity battery at its stated tolerance.

Each criterion prints one pass/fail line (echoed again in the terminal
summary). Residuals are compared against the stated tolerances directly;
property batteries run at least 100 draws with the seed recorded in the line.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp, mpf

from dpl.dsl import parse_term
from dpl.evaluator import (
    IdentityParams,
    eval_double,
    eval_g,
    eval_identity,
    eval_side,
    g_closed_derivatives,
    gauss_averaged_sides,
    numeric_derivative_b,
    side_evaluator,
)
from dpl.registry import registry_get
from dpl.reduction import XSpec
from dpl.specfun import (
    CHI3,
    CHI4,
    PrecisionContext,
    dirichlet_L,
    hurwitz_zeta,
    lerch_phi,
    polylog,
    root_of_unity,
)
from dpl.termlang import check_derivation

CTX = PrecisionContext()  # 50 working digits, 10 guard, 30 output
SEED = 20240811
REPORT_LINES = []


def record(num, label, ok, detail):
    line = f"criterion {num:>2} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def battery(ident, points, strategy, tol):
    entry = registry_get(ident)
    tol = mpf(tol)
    worst = mpf(0)
    slowest = 0.0
    failures = []
    for pt in points:
        rep = eval_identity(entry, pt, CTX, strategy=strategy, tolerance=tol)
        worst = max(worst, rep.residual)
        slowest = max(slowest, rep.elapsed_ms)
        if not rep.residual <= tol:
            failures.append((pt, mp.nstr(rep.residual, 3)))
    return failures, worst, slowest


def grid(**axes):
    keys = list(axes)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(axes[k] for k in keys))]


# ---------------------------------------------------------------------------

def test_criterion_01_euler_sum():
    pts = grid(l=range(3, 13))
    fails, worst, slowest = battery("euler-sum", pts, "reduction", "1e-40")
    ok = not fails and slowest <= 1000.0
    record(1, "euler-sum l=3..12 @1e-40, <=1s", ok,
           f"{len(pts)} pts, worst {mp.nstr(worst, 3)}, slowest {slowest:.0f} ms")


def test_criterion_02_gkz_split():
    pts = grid(N=range(2, 6))
    f1, w1, _ = battery("gkz-even", pts, "reduction", "1e-40")
    f2, w2, _ = battery("gkz-odd", pts, "reduction", "1e-40")
    record(2, "even/odd splits N=2..5 @1e-40", not (f1 or f2),
           f"8 pts, worst {mp.nstr(max(w1, w2), 3)}")


def test_criterion_03_weighted_anchors():
    f1, w1, _ = battery("ohno-zudilin", grid(l=range(3, 9)), "reduction", "1e-35")
    f2, w2, _ = battery("nakamura-1", grid(N=range(2, 6)), "reduction", "1e-35")
    f3, w3, _ = battery("nakamura-2", grid(M=range(4, 7)), "reduction", "1e-35")
    record(3, "weighted anchors @1e-35", not (f1 or f2 or f3),
           f"13 pts, worst {mp.nstr(max(w1, w2, w3), 3)}")


THM11_PTS = grid(k=[1, 2, 3], b=["1/4", "1/2", "3/4"], x=["1", "1/2", "-1", "i"])


def test_criterion_04_main_formula_reduction():
    fails, worst, slowest = battery("thm-1.1", THM11_PTS, "reduction", "1e-25")
    ok = not fails and slowest <= 60000.0
    record(4, "shifted formula, reduction @1e-25", ok,
           f"36 pts, worst {mp.nstr(worst, 3)}, slowest {slowest / 1000:.1f} s; fails={fails}")


def test_criterion_04_main_formula_direct():
    fails, worst, slowest = battery("thm-1.1", THM11_PTS, "direct", "1e-8")
    ok = not fails and slowest <= 60000.0
    record(4, "shifted formula, direct @1e-8", ok,
           f"36 pts, worst {mp.nstr(worst, 3)}, slowest {slowest / 1000:.1f} s; fails={fails}")


COR12_PTS = grid(k=range(1, 6), x=["1", "-1", "1/2", "i", "ru(3,1)"])


def test_criterion_05_unshifted_formula():
    f1, w1, _ = battery("cor-1.2", COR12_PTS, "reduction", "1e-25")
    f2, w2, _ = battery("cor-1.2", COR12_PTS, "direct", "1e-8")
    record(5, "unshifted formula @1e-25/1e-8", not (f1 or f2),
           f"25 pts x2, worst reduction {mp.nstr(w1, 3)}, worst direct {mp.nstr(w2, 3)}")


def test_criterion_06_character_identities():
    pts = grid(k=[1, 2, 3], chi=["chi3", "chi4"])
    f1, w1, _ = battery("cor-1.3", pts, "auto", "1e-8")
    f2, w2, _ = battery("cor-1.5-L", pts, "auto", "1e-8")
    # Gauss-sum averaging of the x-identity must reproduce the chi-identity
    avg_ok = True
    worst_avg = mpf(0)
    with CTX.workdps():
        for chi in (CHI3, CHI4):
            for k in (1, 2, 3):
                alhs, arhs = gauss_averaged_sides("cor-1.2", chi, k, CTX, "reduction")
                spec = registry_get("cor-1.3").spec
                p = IdentityParams.bind(spec, {"k": k, "chi": chi})
                clhs = eval_side(spec, "lhs", p, CTX, "reduction")
                crhs = eval_side(spec, "rhs", p, CTX, "reduction")
                d1 = abs(alhs.value - clhs.value)
                d2 = abs(arhs.value - crhs.value)
                worst_avg = max(worst_avg, d1, d2)
                avg_ok &= d1 <= mpf("1e-8") and d2 <= mpf("1e-8")
    record(6, "double L-values @1e-8 + Gauss averaging", not (f1 or f2) and avg_ok,
           f"12 pts, worst {mp.nstr(max(w1, w2), 3)}, worst averaging {mp.nstr(worst_avg, 3)}")


def test_criterion_07_weighted_formula():
    f1, w1, _ = battery("thm-1.4", COR12_PTS, "auto", "1e-8")
    pts = grid(k=range(2, 7))
    f2, w2, _ = battery("cor-1.5-sfnu", pts, "reduction", "1e-30")
    # the right side is zeta(k+3)
    zeta_ok = True
    with CTX.workdps():
        for k in range(2, 7):
            spec = registry_get("cor-1.5-sfnu").spec
            p = IdentityParams.bind(spec, {"k": k})
            rhs = eval_side(spec, "rhs", p, CTX, "reduction")
            zeta_ok &= abs(rhs.value - hurwitz_zeta(k + 3, 1, CTX).value) <= mpf("1e-40")
    record(7, "weighted formula @1e-8 + principal case @1e-30",
           not (f1 or f2) and zeta_ok,
           f"30 pts, worst {mp.nstr(max(w1, w2), 3)}")


def test_criterion_08_functional_relation_real_exponent():
    pts = grid(s=["1", "3/2", "2", "3"], b=["1/4", "1/2", "3/4"], x=["1", "1/2", "-1"])
    fails, worst, slowest = battery("thm-2.1", pts, "direct", "1e-8")
    record(8, "functional relation, direct @1e-8", not fails,
           f"36 pts, worst {mp.nstr(worst, 3)}, slowest {slowest / 1000:.1f} s")


def test_criterion_09_derivative_suite():
    ok = True
    worst1 = worst2 = mpf(0)
    with CTX.workdps():
        for k in (1, 2, 3):
            for x in ("1", "1/2", "-1"):
                g0c, g1c, g2c = g_closed_derivatives(k, x, CTX)
                gv = eval_g(Fraction(1), k, x, CTX)
                ok &= abs(gv.value - g0c.value) <= gv.abs_error_bound \
                    + g0c.abs_error_bound + mpf("1e-40")
                fd1 = numeric_derivative_b(lambda b: eval_g(b, k, x, CTX), 1,
                                           Fraction(1), CTX, h=mpf("0.01"))
                rel1 = abs(fd1.value - g1c.value) / abs(g1c.value)
                fd2 = numeric_derivative_b(lambda b: eval_g(b, k, x, CTX), 2,
                                           Fraction(1), CTX, h=mpf("0.01"))
                rel2 = abs(fd2.value - g2c.value) / abs(g2c.value)
                worst1, worst2 = max(worst1, rel1), max(worst2, rel2)
                ok &= rel1 <= mpf("1e-6") and rel2 <= mpf("1e-5")
        # derivative of x * rhs at b -> 1
        worst_eq5 = mpf(0)
        for (k, xs) in [(1, "1/2"), (2, "1"), (1, "i")]:
            xv = XSpec.root(4, 1).numeric(CTX) if xs == "i" else \
                (mpf(1) if xs == "1" else mpf("0.5"))
            spec = registry_get("thm-1.1").spec
            func = side_evaluator(spec, "rhs", {"k": k, "x": xs, "b": "1/2"}, CTX,
                                  strategy="reduction")
            fd = numeric_derivative_b(lambda b: func(b).scale(xv), 1, Fraction(1),
                                      CTX, h=mpf("0.01"))
            root = (4, 1) if xs == "i" else (1, 0)
            li1 = polylog(k + 1, xv, CTX, x_root=root if xs != "1/2" else None)
            li3 = polylog(k + 3, xv, CTX, x_root=root if xs != "1/2" else None)
            expected = -mp.pi ** 2 * li1.value + 2 * (k + 3) * li3.value
            rel = abs(fd.value - expected) / abs(expected)
            worst_eq5 = max(worst_eq5, rel)
            ok &= rel <= mpf("1e-6")
    f3, w3, _ = battery("prop-3.1", COR12_PTS, "auto", "1e-8")
    ok &= not f3
    record(9, "derivative suite", ok,
           f"g' worst {mp.nstr(worst1, 3)}, g'' worst {mp.nstr(worst2, 3)}, "
           f"rhs-deriv worst {mp.nstr(worst_eq5, 3)}, intermediate relation worst {mp.nstr(w3, 3)}")


def test_criterion_10_second_derivative():
    f1, w1, _ = battery("rem-3.4-higher", grid(k=[3, 4, 5], x=["1", "1/2"]),
                        "auto", "1e-8")
    f2, w2, _ = battery("rem-3.4-akf2", grid(k=[3, 4, 5]), "reduction", "1e-30")
    zeta_ok = True
    with CTX.workdps():
        for k in (3, 4, 5):
            spec = registry_get("rem-3.4-akf2").spec
            p = IdentityParams.bind(spec, {"k": k})
            rhs = eval_side(spec, "rhs", p, CTX, "reduction")
            zeta_ok &= abs(rhs.value - hurwitz_zeta(k + 4, 1, CTX).value) <= mpf("1e-40")
    record(10, "second-derivative relations @1e-8/1e-30",
           not (f1 or f2) and zeta_ok,
           f"9 pts, worst {mp.nstr(max(w1, w2), 3)}")


def test_criterion_11_congruence_suite():
    f1, w1, _ = battery("thm-4.1", grid(N=[1, 3, 5], k=[1, 2], x=["1", "1/2"]),
                        "auto", "1e-8")
    # modulus-3 corollary against its independently computed closed form
    closed_ok = True
    worst_closed = mpf(0)
    with CTX.workdps():
        for k in range(1, 5):
            spec = registry_get("cor-4.2").spec
            p = IdentityParams.bind(spec, {"k": k})
            lhs = eval_side(spec, "lhs", p, CTX, "auto")
            closed = hurwitz_zeta(k + 2, 1, CTX).value / mpf(3) ** (k + 2) \
                + mp.pi / (3 * mp.sqrt(3)) * dirichlet_L(k + 1, CHI3, CTX).value
            d = abs(lhs.value - closed)
            worst_closed = max(worst_closed, d)
            closed_ok &= d <= mpf("1e-10")
    f2, w2, _ = battery("cor-4.2", grid(k=range(1, 5)), "auto", "1e-10")
    f3, w3, _ = battery("prop-4.3", grid(s=["1", "2"], N=[1, 3, 5], x=["1", "1/2"]),
                        "auto", "1e-8")
    record(11, "congruence suite", not (f1 or f2 or f3) and closed_ok,
           f"worst residual {mp.nstr(max(w1, w2, w3), 3)}, "
           f"worst closed-form gap {mp.nstr(worst_closed, 3)}")


def test_criterion_12_half_shift_suite():
    f1, w1, _ = battery("thm-4.4", grid(N=[1, 3], k=[1, 2], x=["1", "1/2"]),
                        "auto", "1e-8")
    with CTX.workdps():
        spec = registry_get("example-n1").spec
        p = IdentityParams.bind(spec, {})
        lhs = eval_side(spec, "lhs", p, CTX, "auto")
        ref = mpf(7) / 2 * hurwitz_zeta(3, 1, CTX).value
        rel = abs(lhs.value - ref) / abs(ref)
        n1_ok = rel <= mpf("1e-10")
        spec = registry_get("example-n3").spec
        p = IdentityParams.bind(spec, {})
        lhs3 = eval_side(spec, "lhs", p, CTX, "auto")
        ref3 = mpf(7) / 54 * hurwitz_zeta(3, 1, CTX).value \
            + 5 * mp.pi / (3 * mp.sqrt(3)) * dirichlet_L(2, CHI3, CTX).value
        d3 = abs(lhs3.value - ref3)
        n3_ok = d3 <= mpf("1e-8")
    record(12, "half-shift suite", not f1 and n1_ok and n3_ok,
           f"8 pts worst {mp.nstr(w1, 3)}, 7/2*zeta(3) rel {mp.nstr(rel, 3)}, "
           f"modulus-3 example gap {mp.nstr(d3, 3)}")


def test_criterion_13_symbolic_derivations():
    ks = [1, 2, 3, 4]
    r1 = check_derivation(registry_get("thm-2.1").spec, registry_get("thm-1.1").spec, ks)
    r2 = check_derivation(registry_get("prop-4.3").spec, registry_get("thm-4.1").spec, ks)
    # negative control: perturb one coefficient, expect a named witness
    src = registry_get("thm-1.1").spec
    groups = list(src.lhs)
    fams = list(groups[0].families)
    fams[0] = dataclasses.replace(fams[0],
                                  coeff_expr=("add", fams[0].coeff_expr, ("num", Fraction(1))))
    groups[0] = dataclasses.replace(groups[0], families=tuple(fams))
    perturbed = dataclasses.replace(src, lhs=tuple(groups))
    r3 = check_derivation(registry_get("thm-2.1").spec, perturbed, [1, 2])
    neg_ok = (not r3.ok) and any("coefficient" in s.witness for s in r3.samples)
    record(13, "partial-fraction derivations k=1..4", r1.ok and r2.ok and neg_ok,
           f"pairs exact; negative control witnessed: {r3.samples[0].witness[:60]}...")


# ---------------------------------------------------------------------------
# Criterion 14: property batteries (>=100 draws each, fixed seed)
# ---------------------------------------------------------------------------

def test_criterion_14a_stuffle():
    rng = random.Random(SEED)
    checks = 0
    ok = True
    with CTX.workdps():
        # x-twisted harmonic product as a registry identity
        for pt in grid(k=[1, 2, 3], x=["1", "1/2", "-1"]):
            rep = eval_identity(registry_get("aux-stuffle"), pt, CTX,
                                strategy="reduction", tolerance=mpf("1e-25"))
            ok &= rep.residual <= max(rep.bound, mpf("1e-25"))
            checks += 1
        # untwisted: zeta(a) zeta(c) = z2(a,c) + z2(c,a) + zeta(a+c)
        pairs = [(a, c) for a in range(2, 6) for c in range(2, 6)]
        while len(pairs) < 91:
            pairs.append((rng.randint(2, 7), rng.randint(2, 7)))
        for (a, c) in pairs:
            t1 = parse_term(f"sum(m>=1,n>=1) 1 / (m^{a}*(m+n)^{c})")
            t2 = parse_term(f"sum(m>=1,n>=1) 1 / (m^{c}*(m+n)^{a})")
            z2ac = eval_double(t1, {}, CTX, "reduction")
            z2ca = eval_double(t2, {}, CTX, "reduction")
            za = hurwitz_zeta(a, 1, CTX)
            zc = hurwitz_zeta(c, 1, CTX)
            zac = hurwitz_zeta(a + c, 1, CTX)
            diff = abs(za.value * zc.value - z2ac.value - z2ca.value - zac.value)
            bound = za.abs_error_bound * abs(zc.value) + zc.abs_error_bound * abs(za.value) \
                + z2ac.abs_error_bound + z2ca.abs_error_bound + zac.abs_error_bound
            ok &= diff <= bound + mpf("1e-50")
            checks += 1
    record(14, f"stuffle battery (seed {SEED})", ok and checks >= 100,
           f"{checks} checks")


def test_criterion_14b_bisection_shift():
    rng = random.Random(SEED + 1)
    ok = True
    checks = 0
    with CTX.workdps():
        for s in range(2, 11):
            lhs = hurwitz_zeta(s, Fraction(1, 2), CTX)
            rhs = hurwitz_zeta(s, 1, CTX)
            ok &= abs(lhs.value - (2 ** s - 1) * rhs.value) <= \
                lhs.abs_error_bound + (2 ** s - 1) * rhs.abs_error_bound
            checks += 1
        for _ in range(111):
            s = rng.randint(2, 8)
            a = mpf(rng.uniform(0.02, 3.0))
            r1 = hurwitz_zeta(s, a, CTX)
            r2 = hurwitz_zeta(s, a + 1, CTX)
            ok &= abs(r1.value - r2.value - a ** (-s)) <= \
                r1.abs_error_bound + r2.abs_error_bound
            checks += 1
    record(14, f"bisection/shift battery (seed {SEED + 1})", ok and checks >= 100,
           f"{checks} checks")


def test_criterion_14c_root_of_unity_grouping():
    import math as _math

    ok = True
    checks = 0
    with CTX.workdps():
        b = mpf("0.7")
        for f in range(2, 13):
            for a in range(1, f):
                if _math.gcd(a, f) != 1:
                    continue
                x = root_of_unity(f, a, CTX)
                for s in (2, 3, 4):
                    red = lerch_phi(x, s, b, CTX, x_root=(f, a))
                    ser = lerch_phi(x, s, b, CTX, x_root=(f, a), force_series=True)
                    ok &= abs(red.value - ser.value) <= \
                        red.abs_error_bound + ser.abs_error_bound
                    checks += 1
    record(14, "root-of-unity grouping f<=12", ok and checks >= 100,
           f"{checks} checks")


def _random_catalog_term(rng):
    em = rng.randint(1, 2)
    en = rng.randint(0, 2)
    q = rng.randint(1, 3)
    if em + en + q < 3 or en + q < 2 or em + q < 2:
        q = 3
    shift = rng.choice(["", "+1/2", "+1"])
    mpart = f"m^{em}" if em else None
    npart = f"(n{shift})^{en}" if en else None
    jshift = {"": "", "+1/2": "+1/2", "+1": "+1"}[shift] if npart else ""
    jpart = f"(m+n{jshift})^{q}"
    factors = " * ".join(p for p in (mpart, npart, jpart) if p)
    xsel = rng.choice(["1", "x^n", "x^(m+n)"])
    cong = rng.choice(["", "; m=n mod 3", "; m=-2n mod 3"])
    return parse_term(f"sum(m>=1,n>=1{cong}) {xsel} / ({factors})")


def _registry_double_terms(rng):
    """Expanded double terms drawn from every registry identity."""
    from dpl.registry import registry_ids
    from dpl.termlang import DoubleSumTerm, expand_group, skeleton

    seen = set()
    terms = []
    for ident in registry_ids():
        spec = registry_get(ident).spec
        env = {}
        for p in spec.params:
            if p.kind in ("int", "real"):
                lo = int(p.minimum or 1)
                env[p.name] = Fraction(rng.randint(lo, lo + 1))
                if p.odd and env[p.name] % 2 == 0:
                    env[p.name] += 1
        for group in spec.lhs + spec.rhs:
            try:
                expanded = expand_group(group, env)
            except Exception:
                continue
            for t in expanded:
                if isinstance(t, DoubleSumTerm):
                    key = skeleton(t)
                    if key not in seen:
                        seen.add(key)
                        terms.append((ident, dataclasses.replace(t, coeff=Fraction(1))))
    return terms


def test_criterion_14d_strategy_agreement():
    rng = random.Random(SEED + 2)
    ok = True
    checks = 0
    worst = mpf(0)
    witness = ""
    terms = _registry_double_terms(rng)
    chis = {"chi": CHI3}
    with CTX.workdps():
        draws = []
        while len(draws) < 100:
            draws.extend(terms)
        rng.shuffle(draws)
        for (ident, t) in draws[:100]:
            xs = rng.choice([XSpec.one(), XSpec.number(mpf("0.5")),
                             XSpec.root(2, 1), XSpec.root(3, 1)])
            params = {"x": xs, "b": Fraction(rng.randint(1, 3), 4)}
            params.update(chis)
            try:
                red = eval_double(t, params, CTX, "reduction")
            except Exception:
                continue  # uncatalogued under reduction: only one route exists
            dir_ = eval_double(t, params, CTX, "direct")
            gap = abs(red.value - dir_.value)
            if gap > worst:
                worst, witness = gap, ident
            ok &= gap <= red.abs_error_bound + dir_.abs_error_bound
            checks += 1
        # top up with random catalog-shaped terms to guarantee >= 100 checks
        while checks < 100:
            t = _random_catalog_term(rng)
            params = {"x": rng.choice([XSpec.one(), XSpec.number(mpf("0.5"))])}
            red = eval_double(t, params, CTX, "reduction")
            dir_ = eval_double(t, params, CTX, "direct")
            gap = abs(red.value - dir_.value)
            worst = max(worst, gap)
            ok &= gap <= red.abs_error_bound + dir_.abs_error_bound
            checks += 1
    record(14, f"strategy agreement (seed {SEED + 2})", ok and checks >= 100,
           f"{checks} draws over registry terms, worst gap {mp.nstr(worst, 3)} ({witness})")


def test_criterion_14e_cutoff_robustness():
    import dpl.direct as direct_mod

    rng = random.Random(SEED + 3)
    ok = True
    checks = 0
    with CTX.workdps():
        while checks < 100:
            t = _random_catalog_term(rng)
            xs = rng.choice([XSpec.one(), XSpec.number(mpf("0.5"))])
            params = {"x": xs}
            default_cut = direct_mod._TCUT
            default = eval_double(t, params, CTX, "direct")
            try:
                direct_mod._TCUT = 2 * default_cut
                fine = eval_double(t, params, CTX, "direct")
            finally:
                direct_mod._TCUT = default_cut
            ok &= abs(default.value - fine.value) <= default.abs_error_bound
            checks += 1
    record(14, f"cutoff robustness (seed {SEED + 3})", ok and checks >= 100,
           f"{checks} draws, doubling the cutoff stays within the default bound")
