"""Data model and symbolic rewriting for double-sum term families.

A term denotes a (possibly congruence-restricted, character-twisted) double or
single series with affine denominator factors in m, n, m+n, an optional power
of x in the numerator, and an exact rational coefficient. Exponents, family
bounds, and weights are small exact expression trees over the identity's
integer (or one real) parameters, evaluated with Fraction arithmetic so that
the rewriting engine and derivation checks are exact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction


class TermError(ValueError):
    """Structurally invalid term or identity."""


# ---------------------------------------------------------------------------
# Exact expression trees: ('num', Fraction) | ('var', name) | (op, a, b) | ('neg', a)
# ---------------------------------------------------------------------------

def E(q) -> tuple:
    return ("num", Fraction(q))


def EV(name: str) -> tuple:
    return ("var", name)


def expr_eval(e, env) -> Fraction:
    op = e[0]
    if op == "num":
        return e[1]
    if op == "var":
        if e[1] not in env:
            raise TermError(f"unbound parameter {e[1]!r}")
        return Fraction(env[e[1]])
    if op == "neg":
        return -expr_eval(e[1], env)
    a = expr_eval(e[1], env)
    b = expr_eval(e[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise TermError("division by zero in expression")
        return a / b
    if op == "pow":
        if b.denominator != 1:
            raise TermError("exponents in expressions must be integers")
        return a ** int(b)
    raise TermError(f"unknown expression node {op!r}")


def expr_vars(e) -> frozenset:
    op = e[0]
    if op == "num":
        return frozenset()
    if op == "var":
        return frozenset({e[1]})
    if op == "neg":
        return expr_vars(e[1])
    return expr_vars(e[1]) | expr_vars(e[2])


def expr_is_num(e) -> bool:
    return e[0] == "num"


# ---------------------------------------------------------------------------
# Factors, congruences, selectors
# ---------------------------------------------------------------------------

COMBO_ORDER = {"m": 0, "n": 1, "mn": 2}
MAX_SHIFT_DENOMINATOR = 64


@dataclass(frozen=True, order=True)
class Shift:
    """Affine shift q0 + q1*b with q0 rational, q1 in {-1, 0, +1}."""

    q0: Fraction
    q1: int = 0

    def __post_init__(self):
        if self.q1 not in (-1, 0, 1):
            raise TermError("shift slope in b must be -1, 0 or +1")
        if self.q0.denominator > MAX_SHIFT_DENOMINATOR:
            raise TermError("shift denominator exceeds the canonical-form cap")

    def __add__(self, other):
        slope = self.q1 + other.q1
        if slope not in (-1, 0, 1):
            raise TermError("shift sum leaves the admissible set")
        return Shift(self.q0 + other.q0, slope)

    def value(self, b):
        return self.q0 + self.q1 * b if self.q1 else self.q0


SHIFT0 = Shift(Fraction(0))


@dataclass(frozen=True)
class LinearFactor:
    combo: str  # 'm' | 'n' | 'mn'
    shift: Shift
    exp: tuple  # expression; must evaluate to a positive number

    def __post_init__(self):
        if self.combo not in COMBO_ORDER:
            raise TermError(f"unknown factor combo {self.combo!r}")


@dataclass(frozen=True)
class Congruence:
    """Constraint m = coeff*n + offset (mod modulus); modulus 1 means none."""

    coeff: int
    offset: int
    modulus: tuple  # expression, usually ('num', N) or ('var', 'N')


@dataclass(frozen=True)
class SingleCongruence:
    """Constraint mult*n + off = 0 (mod modulus) on a single-sum index."""

    mult: int  # 1 or 2
    off: int
    modulus: tuple

    def __post_init__(self):
        if self.mult not in (1, 2):
            raise TermError("single congruence multiplier must be 1 or 2")


@dataclass(frozen=True)
class XSel:
    kind: str  # 'none' | 'xn' | 'xm' | 'xmn'
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "xn", "xm", "xmn"):
            raise TermError(f"unknown x selector {self.kind!r}")
        if self.kind == "none" and self.d:
            raise TermError("offset without x power")


@dataclass(frozen=True)
class SinWeight:
    """Designated 1/sin factor of the congruence identities.

    parity 'even': 1/sin(2 n pi / N), summing over N not dividing n.
    parity 'odd' : 1/sin((2n+1) pi / N), summing over N not dividing 2n+1.
    """

    parity: str
    modulus: tuple

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise TermError("sin weight parity must be 'even' or 'odd'")


M_RANGES = ("m>=0", "m>=1", "m>b")
N_RANGES = ("n>=0", "n>=1")


@dataclass(frozen=True)
class DoubleSumTerm:
    """A double sum in normal form: at most one factor per combination, in
    m, n, m+n order. Factors given with the same combination and shift merge
    into one, their exponents added (a symbolic sum is an 'add' node); two
    shifts on one combination are rejected."""

    coeff: Fraction
    xsel: XSel
    m_range: str
    n_range: str
    factors: tuple  # of LinearFactor
    cong: Congruence | None = None
    twists: tuple = ()  # ((chi_param, arg) ...) with arg in {'m','n','mn'}

    def __post_init__(self):
        if self.m_range not in M_RANGES or self.n_range not in N_RANGES:
            raise TermError("unknown index range")
        merged = {}
        for f in self.factors:
            g = merged.get(f.combo)
            if g is not None:
                if g.shift != f.shift:
                    raise TermError(f"more than one {f.combo} factor chain")
                exp = E(g.exp[1] + f.exp[1]) if expr_is_num(g.exp) and expr_is_num(f.exp) \
                    else ("add", g.exp, f.exp)
                f = LinearFactor(f.combo, f.shift, exp)
            merged[f.combo] = f
        object.__setattr__(self, "factors", tuple(merged[c] for c in COMBO_ORDER if c in merged))
        args = [a for (_, a) in self.twists]
        if len(args) != len(set(args)) or any(a not in COMBO_ORDER for a in args):
            raise TermError("invalid twist selectors")

    def factor(self, combo):
        for f in self.factors:
            if f.combo == combo:
                return f
        return None


@dataclass(frozen=True)
class SingleSumTerm:
    coeff: Fraction
    xsel: XSel  # 'none' or 'xn'
    n_range: str
    factor: LinearFactor  # combo 'n'
    cong: SingleCongruence | None = None
    twist: str | None = None
    sin_weight: SinWeight | None = None

    def __post_init__(self):
        if self.n_range not in N_RANGES:
            raise TermError("unknown index range")
        if self.factor.combo != "n":
            raise TermError("single-sum factor must be in the index variable")
        if self.xsel.kind not in ("none", "xn"):
            raise TermError("single sums only carry x^(n+d) numerators")


@dataclass(frozen=True)
class TermFamily:
    """Optional inner index with exact bounds and coefficient expression."""

    var: str | None
    lo: tuple | None
    hi: tuple | None
    coeff_expr: tuple
    body: object  # DoubleSumTerm | SingleSumTerm

    def __post_init__(self):
        if (self.var is None) != (self.lo is None and self.hi is None):
            raise TermError("family bounds require an index variable")


@dataclass(frozen=True)
class Weight:
    """Symbolic group weight: rational expression x pi^k x {1, sin, cos}(pi b)."""

    coeff_expr: tuple
    pi_pow: int = 0
    trig: str = ""  # '' | 'sin' | 'cos'

    def __post_init__(self):
        if self.trig not in ("", "sin", "cos"):
            raise TermError("weight trig part must be sin(pi*b), cos(pi*b) or absent")

    def signature(self):
        return (self.pi_pow, self.trig)


@dataclass(frozen=True)
class TermGroup:
    weight: Weight
    families: tuple  # of TermFamily


@dataclass(frozen=True)
class ParamDecl:
    name: str
    kind: str  # 'int' | 'real' | 'unit' | 'b01' | 'char' | 'fixed'
    minimum: Fraction | None = None
    odd: bool = False
    fixed_value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("int", "real", "unit", "b01", "char", "fixed"):
            raise TermError(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    params: tuple  # of ParamDecl
    lhs: tuple  # of TermGroup
    rhs: tuple

    def __post_init__(self):
        if not self.lhs or not self.rhs:
            raise TermError("identity sides must be nonempty")
        declared = {p.name for p in self.params}
        for side in (self.lhs, self.rhs):
            for group in side:
                for fam in group.families:
                    fam_vars = {fam.var} if fam.var else set()
                    used = set(expr_vars(fam.coeff_expr))
                    used |= set(expr_vars(group.weight.coeff_expr))
                    if fam.var:
                        used |= set(expr_vars(fam.lo)) | set(expr_vars(fam.hi))
                    body = fam.body
                    factors = body.factors if isinstance(body, DoubleSumTerm) else (body.factor,)
                    for f in factors:
                        used |= set(expr_vars(f.exp))
                    if isinstance(body, DoubleSumTerm):
                        if body.cong:
                            used |= set(expr_vars(body.cong.modulus))
                        for chi, _ in body.twists:
                            if chi not in declared:
                                raise TermError(f"undeclared character {chi!r}")
                    else:
                        if body.cong:
                            used |= set(expr_vars(body.cong.modulus))
                        if body.sin_weight:
                            used |= set(expr_vars(body.sin_weight.modulus))
                        if body.twist and body.twist not in declared:
                            raise TermError(f"undeclared character {body.twist!r}")
                    undeclared = used - declared - fam_vars
                    if undeclared:
                        raise TermError(f"undeclared parameter(s) {sorted(undeclared)}")

    def param(self, name):
        for p in self.params:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# Family expansion to concrete terms
# ---------------------------------------------------------------------------

def check_convergence_double(factors):
    """Absolute-convergence gate on the closed unit disk.

    Needs decay in each index (degree >= 2 counting the joint factor) and a
    total denominator degree >= 3. Symbolic exponents are skipped; they are
    re-gated after family expansion.
    """
    deg = {"m": Fraction(0), "n": Fraction(0), "mn": Fraction(0)}
    for f in factors:
        if not expr_is_num(f.exp):
            return
        deg[f.combo] += f.exp[1]
    if deg["m"] + deg["mn"] < 2 or deg["n"] + deg["mn"] < 2 \
            or deg["m"] + deg["n"] + deg["mn"] < 3:
        raise TermError("convergence gate: denominator degree too small on the unit disk")


def _bind_expr(e, env):
    if expr_vars(e) <= set(env):
        return E(expr_eval(e, env))
    return e


def bind_term(term, env):
    """Substitute parameter values into exponents and congruence moduli."""
    if isinstance(term, DoubleSumTerm):
        factors = []
        for f in term.factors:
            ev = _bind_expr(f.exp, env)
            if expr_is_num(ev) and ev[1] <= 0:
                raise TermError("factor exponents must stay positive")
            factors.append(LinearFactor(f.combo, f.shift, ev))
        check_convergence_double(factors)
        cong = term.cong
        if cong is not None:
            cong = Congruence(cong.coeff, cong.offset, _bind_expr(cong.modulus, env))
            if expr_is_num(cong.modulus):
                nval = cong.modulus[1]
                if nval.denominator != 1 or nval <= 0 or int(nval) % 2 == 0:
                    raise TermError("congruence modulus must be an odd positive integer")
                if nval == 1:
                    cong = None
        return dataclasses.replace(term, factors=tuple(factors), cong=cong)
    factor = LinearFactor(term.factor.combo, term.factor.shift, _bind_expr(term.factor.exp, env))
    cong = term.cong
    if cong is not None:
        cong = SingleCongruence(cong.mult, cong.off, _bind_expr(cong.modulus, env))
        if expr_is_num(cong.modulus) and cong.modulus[1] == 1 and cong.mult == 1:
            cong = None
    sw = term.sin_weight
    if sw is not None:
        sw = SinWeight(sw.parity, _bind_expr(sw.modulus, env))
    return dataclasses.replace(term, factor=factor, cong=cong, sin_weight=sw)


def expand_family(fam: TermFamily, env) -> list:
    """Expand the inner index at bound parameters; an empty range is 0."""
    out = []
    if fam.var is None:
        c = expr_eval(fam.coeff_expr, env)
        if c != 0:
            t = bind_term(fam.body, env)
            out.append(dataclasses.replace(t, coeff=t.coeff * c))
        return out
    lo = expr_eval(fam.lo, env)
    hi = expr_eval(fam.hi, env)
    if lo.denominator != 1 or hi.denominator != 1:
        raise TermError("family bounds must evaluate to integers")
    for v in range(int(lo), int(hi) + 1):
        env2 = dict(env)
        env2[fam.var] = v
        c = expr_eval(fam.coeff_expr, env2)
        if c == 0:
            continue
        t = bind_term(fam.body, env2)
        out.append(dataclasses.replace(t, coeff=t.coeff * c))
    return out


def expand_group(group: TermGroup, env) -> list:
    out = []
    for fam in group.families:
        out.extend(expand_family(fam, env))
    return out


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def skeleton(term):
    """The term with coefficient struck out; the canonical merge key."""
    return dataclasses.replace(term, coeff=Fraction(1))


def canonicalize(terms) -> list:
    """Merge like terms by summing coefficients, drop zeros."""
    acc = {}
    for t in terms:
        key = skeleton(t)
        acc[key] = acc.get(key, Fraction(0)) + t.coeff
    out = []
    for key in sorted(acc, key=lambda t: repr(t)):
        if acc[key] != 0:
            out.append(dataclasses.replace(key, coeff=acc[key]))
    return out


def canonicalize_group(group: TermGroup) -> TermGroup:
    """Group-level wrapper for already-concrete (family-free) groups."""
    for fam in group.families:
        if fam.var is not None or not expr_is_num(fam.coeff_expr):
            raise TermError("canonicalize_group needs concrete families")
    terms = [dataclasses.replace(f.body, coeff=f.body.coeff * f.coeff_expr[1])
             for f in group.families]
    fams = tuple(TermFamily(None, None, None, E(1), t) for t in canonicalize(terms))
    return TermGroup(group.weight, fams)


# ---------------------------------------------------------------------------
# Partial-fraction rewriting: 1/(XY) = (1/X + 1/Y) / (X+Y)
# ---------------------------------------------------------------------------

def _int_exp(f):
    v = f.exp[1]
    if not expr_is_num(f.exp) or v.denominator != 1 or v <= 0:
        raise TermError("rewriting needs concrete positive integer exponents")
    return int(v)


def reduce_mixed(terms) -> list:
    """Rewrite until no term carries both a pure-m and a pure-n factor.

    One application consumes one power of the m factor X and the n factor Y
    and pushes it onto the joint factor with shift shift(X) + shift(Y); the
    two branches keep the constraint and ranges unchanged. Terminates
    because the total pure exponent drops by one per application; a step
    counter asserts the quadratic budget.
    """
    out = []
    for term in terms:
        if not isinstance(term, DoubleSumTerm):
            out.append(term)
            continue
        budget_base = sum(_int_exp(f) for f in term.factors if f.combo in ("m", "n"))
        budget = budget_base * budget_base
        steps = 0
        stack = [term]
        while stack:
            t = stack.pop()
            fm, fn, fj = t.factor("m"), t.factor("n"), t.factor("mn")
            if fm is None or fn is None:
                out.append(t)
                continue
            steps += 1
            if steps > budget:
                raise TermError("rewriting exceeded its termination budget")
            joint_shift = fm.shift + fn.shift
            if fj is not None and fj.shift != joint_shift:
                raise TermError(
                    f"shifts {fm.shift} + {fn.shift} do not form the joint factor {fj.shift}")
            jexp = _int_exp(fj) if fj is not None else 0
            new_joint = LinearFactor("mn", joint_shift, E(jexp + 1))

            def rebuild(keep_m_exp, keep_n_exp):
                fs = [new_joint]
                if keep_m_exp:
                    fs.append(LinearFactor("m", fm.shift, E(keep_m_exp)))
                if keep_n_exp:
                    fs.append(LinearFactor("n", fn.shift, E(keep_n_exp)))
                return dataclasses.replace(t, factors=tuple(fs))

            em, en = _int_exp(fm), _int_exp(fn)
            stack.append(rebuild(em, en - 1))
            stack.append(rebuild(em - 1, en))
    return out


def has_mixed_factors(term) -> bool:
    if not isinstance(term, DoubleSumTerm):
        return False
    combos = {f.combo for f in term.factors}
    return "m" in combos and "n" in combos


# ---------------------------------------------------------------------------
# Derivation checking: exact multiset comparison of expanded sides
# ---------------------------------------------------------------------------

@dataclass
class DerivationSample:
    k: int
    ok: bool
    witness: str = ""


@dataclass
class DerivationReport:
    from_id: str
    to_id: str
    samples: list

    @property
    def ok(self):
        return all(s.ok for s in self.samples)


def _side_multisets(spec: IdentitySpec, env, rewrite: bool):
    """Map weight signature -> canonical term list, weights folded into coeffs."""
    per_sig = {}
    for group in spec.lhs:
        sig = group.weight.signature()
        wq = expr_eval(group.weight.coeff_expr, env)
        terms = expand_group(group, env)
        terms = [dataclasses.replace(t, coeff=t.coeff * wq) for t in terms]
        per_sig.setdefault(sig, []).extend(terms)
    out = {}
    for sig, terms in per_sig.items():
        if rewrite:
            terms = reduce_mixed(terms)
        canon = canonicalize(terms)
        if canon:
            out[sig] = canon
    return out


def _scalar_sample_env(spec: IdentitySpec, k: int):
    env = {}
    for p in spec.params:
        if p.kind in ("int", "real") and p.name in ("k", "s", "l"):
            env[p.name] = Fraction(k)
    if not env:
        raise TermError(f"identity {spec.id!r} has no sampling parameter")
    return env


def check_derivation(from_spec: IdentitySpec, to_spec: IdentitySpec,
                     k_samples) -> DerivationReport:
    """Expand from-LHS at each sample, rewrite, compare to to-LHS exactly."""
    samples = []
    for k in k_samples:
        left = _side_multisets(from_spec, _scalar_sample_env(from_spec, k), rewrite=True)
        right = _side_multisets(to_spec, _scalar_sample_env(to_spec, k), rewrite=False)
        witness = ""
        ok = True
        for sig in sorted(set(left) | set(right)):
            lt = {skeleton(t): t.coeff for t in left.get(sig, [])}
            rt = {skeleton(t): t.coeff for t in right.get(sig, [])}
            for key in sorted(set(lt) | set(rt), key=repr):
                cl, cr = lt.get(key, Fraction(0)), rt.get(key, Fraction(0))
                if cl != cr:
                    ok = False
                    witness = (f"k={k} weight {sig}: coefficient {cl} vs {cr} "
                               f"on term {key}")
                    break
            if not ok:
                break
        for t in [t for ts in left.values() for t in ts]:
            if has_mixed_factors(t):
                ok = False
                witness = f"k={k}: mixed factors survived rewriting on {t}"
                break
        samples.append(DerivationSample(int(k), ok, witness))
    return DerivationReport(from_spec.id, to_spec.id, samples)
