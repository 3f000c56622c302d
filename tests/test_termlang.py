"""Term model, DSL, canonicalization, and rewriting checks."""

import dataclasses
import random
from fractions import Fraction

import pytest

from dpl.dsl import ParseError, parse_identity, parse_term, render_identity, render_term
from dpl.registry import registry_get, registry_ids
from dpl.termlang import (
    Congruence,
    DoubleSumTerm,
    E,
    EV,
    LinearFactor,
    Shift,
    TermError,
    XSel,
    bind_term,
    canonicalize,
    canonicalize_group,
    check_derivation,
    expand_family,
    expr_eval,
    has_mixed_factors,
    reduce_mixed,
    TermFamily,
    TermGroup,
    Weight,
)


def F(combo, q0=0, q1=0, e=1):
    return LinearFactor(combo, Shift(Fraction(q0), q1), E(e))


def D(factors, m_range="m>=1", n_range="n>=0", coeff=1, **kw):
    return DoubleSumTerm(Fraction(coeff), XSel("none"), m_range, n_range,
                         tuple(factors), **kw)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_term_plain():
    t = parse_term("sum(m>=1,n>=1) x^n / (m*(m+n)^3)")
    assert t.xsel == XSel("xn", 0)
    assert [(f.combo, f.exp) for f in t.factors] == [("m", E(1)), ("mn", E(3))]


@pytest.mark.parametrize("repeated,power", [
    ("sum(m>=1,n>=1) x^n / (m * m * (m+n)^2)", "sum(m>=1,n>=1) x^n / (m^2 * (m+n)^2)"),
    ("sum(m>=1,n>=1) x^n / ((m+n)^2 * m * (m+n))", "sum(m>=1,n>=1) x^n / (m * (m+n)^3)"),
    ("sum(m>=1,n>=0) 1 / ((n+b)^(1/2) * (m+n+b)^2 * (n+b))",
     "sum(m>=1,n>=0) 1 / ((n+b)^(3/2) * (m+n+b)^2)"),
])
def test_repeated_factor_is_its_power(repeated, power):
    # a term holds one factor per combination, in m, n, m+n order
    t = parse_term(repeated)
    assert bind_term(t, {}) == bind_term(parse_term(power), {})
    combos = [f.combo for f in t.factors]
    assert combos == sorted(set(combos), key=["m", "n", "mn"].index)


def test_symbolic_repeated_factor_renders_as_one_power():
    t = parse_term("sum(m>=1,n>=1) 1 / (m^k * m * (m+n)^2)")
    assert [f.exp for f in t.factors] == [("add", EV("k"), E(1)), E(2)]
    text = render_term(t)
    assert "m^(k+1)" in text
    assert parse_term(text) == t


def test_two_shifts_on_one_combination_rejected():
    with pytest.raises(TermError):
        D([F("m"), F("m", 1), F("mn", 0, 0, 2)])


def test_parse_term_congruence():
    t = parse_term("sum(m>=1,n>=1; m=-2n mod 5) x^(m+n) / (m*(m+n)^3)")
    assert t.cong == Congruence(-2, 0, E(5))
    assert t.xsel == XSel("xmn", 0)


def test_parse_term_convergence_gate():
    with pytest.raises(TermError):
        parse_term("sum(m>=1,n>=1) x^n / (m+n)")
    with pytest.raises(TermError):
        parse_term("sum(m>=1,n>=1) x^n / (m^2*n)")  # n-side diverges
    # the same gate holds for a double body inside an identity
    src = '''identity "bad" params (x: unit) {
      lhs: 1 * [ sum(m>=1,n>=1) x^n / (m^2*n) ];
      rhs: 1 * [ single(n>=1) x^n / (n^3) ];
    }'''
    with pytest.raises(TermError):
        parse_identity(src)


def test_parse_weight_outside_set_rejected():
    src = '''identity "bad" params (k: int >= 1, x: unit, b: b01) {
      lhs: e^b * [ single(n>=1) x^n / (n^(k+2)) ];
      rhs: 1 * [ single(n>=1) x^n / (n^(k+2)) ];
    }'''
    with pytest.raises((ParseError, TermError)):
        parse_identity(src)


def test_parse_empty_lhs_rejected():
    src = '''identity "bad" params (k: int >= 1) {
      lhs: ;
      rhs: 1 * [ single(n>=1) 1 / (n^(k+2)) ];
    }'''
    with pytest.raises((ParseError, TermError)):
        parse_identity(src)


def test_parse_undeclared_parameter_rejected():
    src = '''identity "bad" params (k: int >= 1) {
      lhs: 1 * [ single(n>=1) 1 / (n^(k+j)) ];
      rhs: 1 * [ single(n>=1) 1 / (n^(k+2)) ];
    }'''
    with pytest.raises(TermError):
        parse_identity(src)


def test_roundtrip_all_registry_terms():
    for ident in registry_ids():
        spec = registry_get(ident).spec
        for side in (spec.lhs, spec.rhs):
            for group in side:
                for fam in group.families:
                    text = render_term(fam.body)
                    assert parse_term(text) == fam.body, (ident, text)
        blob = render_identity(spec)
        assert parse_identity(blob) == spec, ident


def test_expr_exact_exponentials():
    e = parse_term("sum(m>=1,n>=1) 1 / (m^(2*N-2*nu) * (m+n)^(2*nu))")
    fam = TermFamily("nu", E(1), ("sub", EV("N"), E(1)),
                     ("add", ("pow", E(4), EV("nu")), ("pow", E(4), ("sub", EV("N"), EV("nu")))),
                     e)
    terms = expand_family(fam, {"N": Fraction(3)})
    assert [t.coeff for t in terms] == [Fraction(4 + 16), Fraction(16 + 4)]


def test_expand_empty_family_is_zero():
    t = parse_term("sum(m>=1,n>=1) 1 / (m^(k+2-nu) * (m+n)^(nu+1))")
    fam = TermFamily("nu", E(2), EV("k"), EV("nu"), t)
    assert expand_family(fam, {"k": Fraction(1)}) == []


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def test_canonicalize_merges_and_cancels():
    t = D([F("m"), F("mn", 0, 0, 2)])
    half = dataclasses.replace(t, coeff=Fraction(1, 2))
    merged = canonicalize([half, half])
    assert merged == [t]
    assert canonicalize([t, dataclasses.replace(t, coeff=Fraction(-1))]) == []


def test_canonicalize_idempotent_on_random_groups():
    rng = random.Random(20240811)
    for _ in range(100):
        terms = []
        for _ in range(rng.randint(1, 6)):
            fs = [F("m", rng.randint(0, 2), 0, rng.randint(1, 3)),
                  F("mn", rng.randint(0, 2), 0, rng.randint(1, 3))]
            if rng.random() < 0.5:
                fs.append(F("n", rng.randint(0, 1), 0, rng.randint(1, 2)))
            terms.append(D(fs, coeff=Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
        once = canonicalize(terms)
        assert canonicalize(once) == once


def test_canonicalize_group_wrapper():
    t = parse_term("sum(m>=1,n>=1) 1 / (m*(m+n)^2)")
    fams = (TermFamily(None, None, None, E(Fraction(1, 2)), t),
            TermFamily(None, None, None, E(Fraction(1, 2)), t))
    g = canonicalize_group(TermGroup(Weight(E(1)), fams))
    assert len(g.families) == 1
    assert g.families[0].body.coeff == Fraction(1)


# ---------------------------------------------------------------------------
# Partial-fraction rewriting
# ---------------------------------------------------------------------------

def test_reduce_mixed_single_step():
    out = canonicalize(reduce_mixed([D([F("m"), F("n", 1)])]))
    assert out == canonicalize([D([F("m"), F("mn", 1)]),
                                D([F("n", 1), F("mn", 1)])])


def test_reduce_mixed_with_existing_joint():
    t = D([F("m"), F("n", 0, 1), F("mn", 0, 1)])
    out = canonicalize(reduce_mixed([t]))
    assert out == canonicalize([D([F("m"), F("mn", 0, 1, 2)]),
                                D([F("n", 0, 1), F("mn", 0, 1, 2)])])


def test_reduce_mixed_telescoped_closed_form():
    # 1/((m-b)^2 (n+b)^2 (m+n)) at k=2: telescoping pushes everything onto m+n
    t = D([F("m", 0, -1, 2), F("n", 0, 1, 2), F("mn")], m_range="m>b")
    out = canonicalize(reduce_mixed([t]))
    expected = canonicalize([
        D([F("m", 0, -1, 2), F("mn", 0, 0, 3)], m_range="m>b"),
        D([F("n", 0, 1, 2), F("mn", 0, 0, 3)], m_range="m>b"),
        D([F("n", 0, 1, 1), F("mn", 0, 0, 4)], m_range="m>b", coeff=2),
        D([F("m", 0, -1, 1), F("mn", 0, 0, 4)], m_range="m>b", coeff=2),
    ])
    assert out == expected


def test_reduce_mixed_mismatched_shifts_rejected():
    t = D([F("m", 1), F("n", 0, 1), F("mn", 0, 0)])  # 1+b != 0
    with pytest.raises(TermError):
        reduce_mixed([t])


def test_reduce_mixed_random_battery_no_mixed_and_preserves_congruence():
    rng = random.Random(7)
    for _ in range(150):
        q0m, q0n = rng.randint(0, 2), rng.randint(0, 2)
        fs = [F("m", q0m, 0, rng.randint(1, 3)), F("n", q0n, 0, rng.randint(1, 3))]
        cong = Congruence(rng.choice([1, -2]), 0, E(3)) if rng.random() < 0.4 else None
        t = D(fs + [F("mn", q0m + q0n, 0, rng.randint(1, 2))],
              n_range="n>=1", cong=cong)
        out = reduce_mixed([t])
        assert all(not has_mixed_factors(o) for o in out)
        assert all(o.cong == cong for o in out)
        assert canonicalize(canonicalize(out)) == canonicalize(out)


# ---------------------------------------------------------------------------
# Derivation checking
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pair,ks", [
    (("thm-2.1", "thm-1.1"), [1, 2, 3, 4]),
    (("prop-4.3", "thm-4.1"), [1, 2, 3]),
    (("prop-4.5", "thm-4.4"), [1, 2, 3]),
])
def test_check_derivation_pairs(pair, ks):
    rep = check_derivation(registry_get(pair[0]).spec, registry_get(pair[1]).spec, ks)
    assert rep.ok, [s.witness for s in rep.samples]


def test_check_derivation_negative_control_names_witness():
    src = registry_get("thm-1.1").spec
    groups = list(src.lhs)
    fams = list(groups[0].families)
    bad = dataclasses.replace(fams[0], coeff_expr=("add", fams[0].coeff_expr, E(1)))
    fams[0] = bad
    groups[0] = dataclasses.replace(groups[0], families=tuple(fams))
    perturbed = dataclasses.replace(src, lhs=tuple(groups))
    rep = check_derivation(registry_get("thm-2.1").spec, perturbed, [1, 2])
    assert not rep.ok
    assert any("coefficient" in s.witness for s in rep.samples if not s.ok)


def test_shift_arithmetic_guarded():
    with pytest.raises(TermError):
        Shift(Fraction(0), 1) + Shift(Fraction(0), 1)
    with pytest.raises(TermError):
        Shift(Fraction(1, 128))
    assert (Shift(Fraction(1), 0) + Shift(Fraction(1, 2), 0)).q0 == Fraction(3, 2)


def test_expr_eval_rejects_unbound_and_fractional_powers():
    with pytest.raises(TermError):
        expr_eval(EV("q"), {})
    with pytest.raises(TermError):
        expr_eval(("pow", E(2), E(Fraction(1, 2))), {})
