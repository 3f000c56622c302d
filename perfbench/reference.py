"""Reference values computed with mpmath alone, apart from dpl.

Each registered identity used by the benchmark has one side made only of
single sums. Those sides are written out here by hand as combinations of the
Lerch transcendent Phi(x, t, a) = sum_{n>=0} x^n (n+a)^-t, the polylogarithm
and the Hurwitz zeta function, so that a dpl value can be checked against a
computation that shares none of dpl's code. The module also holds the fixed
reference kernel that the benchmark times during its passes.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf

# Extra decimal digits of every reference value over the digits dpl works at.
EXTRA_DIGITS = 30

# Dirichlet characters named in the registry, as value tables mod f.
CHARACTERS = {"chi3": (0, 1, -1), "chi4": (0, 1, 0, -1)}


class XValue:
    """An x literal of the registry: a rational or an exact root of unity."""

    def __init__(self, literal: str):
        s = literal.replace(" ", "")
        self.root = None            # (f, a) for x = e^{2 pi i a/f}
        self.rational = None
        if s.startswith("ru(") and s.endswith(")"):
            f, a = (int(v) for v in s[3:-1].split(","))
            self.root = (f, a % f)
        elif s in ("i", "-i"):
            self.root = (4, 1 if s == "i" else 3)
        else:
            q = Fraction(s)
            if q == 1:
                self.root = (1, 0)
            elif q == -1:
                self.root = (2, 1)
            elif abs(q) < 1:
                self.rational = q
            else:
                raise ValueError(f"x = {literal} lies outside the closed unit disk")

    def value(self):
        if self.rational is not None:
            return mpf(self.rational.numerator) / self.rational.denominator
        f, a = self.root
        return _unit_root(f, a)

    def power(self, n: int) -> "XValue":
        """x^n as an exact literal (used for residue-class splits)."""
        if self.rational is not None:
            return XValue(str(self.rational ** n))
        f, a = self.root
        return XValue(f"ru({f},{(a * n) % f})")


def _unit_root(f, a):
    if a % f == 0:
        return mpf(1)
    return mp.expjpi(mpf(2 * a) / f)


def _char(name, n):
    table = CHARACTERS[name]
    return table[n % len(table)]


def lerch(x: XValue, t, a):
    """Phi(x, t, a) for |x| < 1 (mpmath.lerchphi) or x a root of unity.

    On the unit circle the sum splits by n mod f into Hurwitz zetas:
    Phi(e^{2 pi i p/f}, t, a) = f^-t sum_r e^{2 pi i p r/f} zeta(t, (r+a)/f).
    """
    t, a = _num(t), _num(a)
    if x.rational is not None:
        return mp.lerchphi(x.value(), t, a)
    f, p = x.root
    total = mpc(0)
    for r in range(f):
        total += _unit_root(f, p * r) * mp.zeta(t, (r + a) / mpf(f))
    return total * mpf(f) ** (-t)


def polylog(t, x: XValue):
    """Li_t(x) = x Phi(x, t, 1)."""
    if x.rational is not None:
        return mp.polylog(_num(t), x.value())
    return x.value() * lerch(x, t, 1)


def dirichlet_l(t, chi: str):
    """L(t, chi) = f^-t sum_{a=1}^{f} chi(a) zeta(t, a/f)."""
    f = len(CHARACTERS[chi])
    t = _num(t)
    return sum(_char(chi, a) * mp.zeta(t, mpf(a) / f) for a in range(1, f + 1)) \
        * mpf(f) ** (-t)


def _num(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    if isinstance(v, str):
        return _num(Fraction(v))
    return v


def _trig_combination(s, b):
    """The right side of thm-1.1 and thm-2.1 as terms c(b) Phi(x, t, b).

    pi sin(pi b) Phi(x, s+1, b) + 2 cos(pi b) Phi(x, s+2, b)
        - (2/pi) sin(pi b) Phi(x, s+3, b),
    returned as (coefficient, derivative of the coefficient, t) triples.
    """
    pi, sb, cb = mp.pi, mp.sinpi(b), mp.cospi(b)
    return [(pi * sb, pi * pi * cb, s + 1),
            (2 * cb, -2 * pi * sb, s + 2),
            (-2 / pi * sb, -2 * cb, s + 3)]


def single_side(ident: str, p: dict):
    """The value of the single-sum side (the right side) of one identity."""
    if ident in ("thm-1.1", "thm-2.1"):
        x, b = XValue(p["x"]), _num(p["b"])
        s = _num(p["k"] if ident == "thm-1.1" else p["s"])
        return sum(c * lerch(x, t, b) for (c, _, t) in _trig_combination(s, b))
    if ident == "cor-1.2":
        return polylog(int(p["k"]) + 2, XValue(p["x"]))
    if ident == "thm-1.4":
        return polylog(int(p["k"]) + 3, XValue(p["x"]))
    if ident == "prop-3.1":
        k, x = int(p["k"]), XValue(p["x"])
        return (k + 1) * polylog(k + 3, x) - mp.pi ** 2 / 6 * polylog(k + 1, x)
    if ident == "cor-1.3":
        return dirichlet_l(int(p["k"]) + 2, p["chi"])
    if ident == "cor-1.5-L":
        return dirichlet_l(int(p["k"]) + 3, p["chi"])
    if ident == "thm-4.1":
        return _congruence_rhs(int(p["k"]), XValue(p["x"]), int(p["N"]), half=False)
    if ident == "thm-4.4":
        return _congruence_rhs(int(p["k"]), XValue(p["x"]), int(p["N"]), half=True)
    if ident in ("gkz-even", "gkz-odd"):
        w = mpf(3) / 4 if ident == "gkz-even" else mpf(1) / 4
        return w * mp.zeta(2 * int(p["N"]))
    if ident == "euler-sum":
        return mp.zeta(int(p["l"]))
    if ident == "ohno-zudilin":
        l = int(p["l"])
        return (l + 1) * mp.zeta(l)
    raise KeyError(f"no mpmath reference for identity {ident!r}")


def _congruence_rhs(k: int, x: XValue, N: int, half: bool):
    """Right sides of thm-4.1 (half=False) and thm-4.4 (half=True).

    thm-4.1: 2 sum_{N | n} x^n n^-(k+2) + (pi/N) sum_{N !| n} x^n / (sin(2 pi n/N) n^(k+1)),
    thm-4.4: sum_{N | 2n+1} x^n (n+1/2)^-(k+2)
             + (pi/N) sum_{N !| 2n+1} x^n / (sin(pi (2n+1)/N) (n+1/2)^(k+1)).
    Writing n = N t + r, each class is x^r N^-e Phi(x^N, e, (r + c)/N), with
    c = 0 (thm-4.1, n >= 1) or c = 1/2 (thm-4.4, n >= 0).
    """
    xN = x.power(N)
    c = mpf(1) / 2 if half else mpf(0)
    total = mpc(0)
    for r in range(N):
        start = r if r > 0 or half else N          # the first admissible n of class r
        head = x.power(start).value() * mpf(N) ** (-(k + 1))
        a = (start + c) / N
        if ((2 * r + 1) % N == 0) if half else r == 0:
            total += (1 if half else 2) * head / N * lerch(xN, k + 2, a)
        else:
            ang = mpf(2 * r + 1) / N if half else mpf(2 * r) / N
            total += mp.pi / N / mp.sinpi(ang) * head * lerch(xN, k + 1, a)
    return total


def single_side_derivative_b(ident: str, params: dict):
    """d/db of the right side of thm-1.1, by dPhi(x, t, b)/db = -t Phi(x, t+1, b)."""
    if ident != "thm-1.1":
        raise KeyError(f"no b-derivative reference for identity {ident!r}")
    x, b, k = XValue(params["x"]), _num(params["b"]), int(params["k"])
    total = mpc(0)
    for (c, dc, t) in _trig_combination(k, b):
        total += dc * lerch(x, t, b) - c * t * lerch(x, t + 1, b)
    return total


# ---------------------------------------------------------------------------
# The reference kernel
# ---------------------------------------------------------------------------

KERNEL_TERMS = 40


def kernel(dps: int):
    """Fixed mpmath-only work at dps digits, timed during the passes.

    It mixes what dpl spends its time on: real powers, complex products and
    sums, at the working precision of the workload. It returns its value so
    that the work cannot be skipped.
    """
    with mp.workdps(dps):
        a = mpf(1) / 3
        w = mpc(0, 1) / 2
        acc = mpc(0)
        z = mpc(1)
        for j in range(KERNEL_TERMS):
            z = z * w + 1
            acc += z * (j + a) ** (-mpf(5) / 2)
        return acc
