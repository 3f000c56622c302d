"""Text DSL for identities: tokenizer, recursive-descent parser, renderer.

One identity per block:

    identity "cor-1.2" params (k: int >= 1, x: unit) {
      lhs: 1 * [
        sum(m>=1,n>=1) x^n / (m * (m+n)^(k+1))
        - sum(m>=1,n>=1) x^(m+n) / (m * (m+n)^(k+1))
        + family nu = 2 .. k+1 : sum(m>=1,n>=1) x^n / (n^(k+2-nu) * (m+n)^nu)
      ];
      rhs: 1 * [ single(n>=1) x^n / (n^(k+2)) ];
    }

Numbers are integers or fractions (no decimals); weights are products of
rationals, pi, 1/pi, sin(pi*b), cos(pi*b) and parenthesized exact expressions;
congruences read "m=-2*n-2 mod N" (the * is optional on input). Rendering
produces canonical text that reparses to the identical structure.
"""

from __future__ import annotations

from fractions import Fraction

from .termlang import (
    Congruence,
    DoubleSumTerm,
    E,
    EV,
    IdentitySpec,
    LinearFactor,
    ParamDecl,
    Shift,
    SingleCongruence,
    SingleSumTerm,
    SinWeight,
    TermFamily,
    TermGroup,
    Weight,
    XSel,
    check_convergence_double,
    expr_eval,
    expr_is_num,
)


class ParseError(ValueError):
    def __init__(self, message, pos=None, text=None):
        loc = ""
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            loc = f" at line {line}, col {col}"
        super().__init__(message + loc)


_PUNCT = ("..", ">=", "(", ")", "[", "]", "{", "}", ",", ";", ":",
          "+", "-", "*", "/", "^", "=", ">")


def tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string", i, text)
            toks.append(("str", text[i + 1:j], i))
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1] != ".":
                raise ParseError("decimals are not allowed; use fractions", i, text)
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append((p, p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i, text)
    toks.append(("eof", None, n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {t[1]!r}", t[2], self.text)
        return t

    def error(self, msg):
        raise ParseError(msg, self.peek()[2], self.text)

    # --- expressions -------------------------------------------------------

    def parse_expr(self):
        e = self.parse_expr_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_expr_term()
            e = ("add" if op == "+" else "sub", e, rhs)
        return e

    def parse_expr_term(self):
        e = self.parse_expr_power()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.parse_expr_power()
            e = ("mul" if op == "*" else "div", e, rhs)
        return e

    def parse_expr_power(self):
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.parse_expr_power())
        e = self.parse_expr_atom()
        if self.peek()[0] == "^":
            self.next()
            return ("pow", e, self.parse_expr_power())
        return e

    def parse_expr_atom(self):
        t = self.next()
        if t[0] == "num":
            return E(t[1])
        if t[0] == "name":
            return EV(t[1])
        if t[0] == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"expected expression, got {t[1]!r}", t[2], self.text)

    def parse_rational(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        num = self.expect("num")[1]
        if self.peek()[0] == "/" and self.peek(1)[0] == "num":
            self.next()
            den = self.expect("num")[1]
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # --- terms ---------------------------------------------------------------

    def parse_term(self):
        kind = self.expect("name")[1]
        if kind not in ("sum", "single"):
            self.error("expected 'sum' or 'single'")
        self.expect("(")
        if kind == "sum":
            m_range = self.parse_range("m")
            self.expect(",")
            n_range = self.parse_range("n")
            cong = None
            if self.peek()[0] == ";":
                self.next()
                cong = self.parse_congruence()
            self.expect(")")
            xsel, twists = self.parse_numerator(single=False)
            self.expect("/")
            factors, sin_w = self.parse_denominator(single=False)
            if sin_w is not None:
                self.error("sin weights only apply to single sums")
            check_convergence_double(factors)
            return DoubleSumTerm(Fraction(1), xsel, m_range, n_range,
                                 tuple(factors), cong, tuple(twists))
        n_range = self.parse_range(None)
        cong = None
        if self.peek()[0] == ";":
            self.next()
            cong = self.parse_single_congruence()
        self.expect(")")
        xsel, twists = self.parse_numerator(single=True)
        self.expect("/")
        factors, sin_w = self.parse_denominator(single=True)
        if len(factors) != 1:
            self.error("single sums take exactly one factor chain")
        twist = twists[0][0] if twists else None
        return SingleSumTerm(Fraction(1), xsel, n_range, factors[0], cong, twist, sin_w)

    def parse_range(self, which):
        name = self.expect("name")[1]
        if which == "m" and name != "m":
            self.error("first range must bound m")
        if which == "n" and name != "n":
            self.error("second range must bound n")
        if which is None and name not in ("m", "n"):
            self.error("single-sum index must be m or n")
        t = self.next()
        if t[0] == ">=":
            lo = self.expect("num")[1]
            if lo not in (0, 1):
                self.error("ranges start at 0 or 1")
            base = "m" if which == "m" else "n"
            return f"{base}>={lo}"
        if t[0] == ">" and which == "m":
            self.expect("name", "b")
            return "m>b"
        raise ParseError("malformed range", t[2], self.text)

    def parse_congruence(self):
        self.expect("name", "m")
        self.expect("=")
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        coeff, offset = 0, 0
        if self.peek()[0] == "num":
            val = sign * self.next()[1]
            if self.peek()[0] == "*":
                self.next()
                self.expect("name", "n")
                coeff = val
            elif self.peek()[0] == "name" and self.peek()[1] == "n":
                self.next()
                coeff = val
            else:
                offset = val
        elif self.peek()[0] == "name" and self.peek()[1] == "n":
            self.next()
            coeff = sign
        else:
            self.error("malformed congruence")
        if coeff and self.peek()[0] in ("+", "-"):
            s2 = 1 if self.next()[0] == "+" else -1
            offset = s2 * self.expect("num")[1]
        self.expect("name", "mod")
        return Congruence(coeff, offset, self.parse_modulus())

    def parse_single_congruence(self):
        mult = 1
        if self.peek()[0] == "num":
            mult = self.next()[1]
            if self.peek()[0] == "*":
                self.next()
        self.expect("name")  # index name, already fixed by the range
        off = 0
        if self.peek()[0] in ("+", "-"):
            s = 1 if self.next()[0] == "+" else -1
            off = s * self.expect("num")[1]
        self.expect("=")
        if self.expect("num")[1] != 0:
            self.error("single congruences are written a*n+c = 0 mod N")
        self.expect("name", "mod")
        return SingleCongruence(mult, off, self.parse_modulus())

    def parse_modulus(self):
        t = self.next()
        if t[0] == "num":
            return E(t[1])
        if t[0] == "name":
            return EV(t[1])
        raise ParseError("expected congruence modulus", t[2], self.text)

    def parse_numerator(self, single):
        xsel = XSel("none")
        twists = []
        while True:
            t = self.peek()
            if t[0] == "num" and t[1] == 1:
                self.next()
            elif t[0] == "name" and t[1] == "x":
                self.next()
                self.expect("^")
                if xsel.kind != "none":
                    self.error("more than one x power")
                xsel = self.parse_xpower(single)
            elif t[0] == "name":
                chi = self.next()[1]
                self.expect("(")
                arg = self.parse_combo_name()
                self.expect(")")
                twists.append((chi, arg))
            else:
                self.error("malformed numerator")
            if self.peek()[0] == "*" and self.peek(1)[0] != "(":
                nxt = self.peek(1)
                if nxt[0] in ("num", "name"):
                    self.next()
                    continue
            break
        twists.sort(key=lambda p: p[1])
        if single and len(twists) > 1:
            self.error("single sums carry at most one twist")
        return xsel, twists

    def parse_xpower(self, single):
        t = self.next()
        if t[0] == "name":
            if t[1] == "n" or (single and t[1] == "m"):
                return XSel("xn", 0)
            if t[1] == "m":
                return XSel("xm", 0)
            self.error("x power must involve the summation indices")
        if t[0] != "(":
            raise ParseError("malformed x power", t[2], self.text)
        first = self.expect("name")[1]
        kind = None
        if first == "n":
            kind = "xn"
        elif first == "m":
            kind = "xn" if single else "xm"
        else:
            self.error("x power must involve the summation indices")
        d = 0
        while self.peek()[0] in ("+", "-"):
            sgn = 1 if self.next()[0] == "+" else -1
            t2 = self.next()
            if t2[0] == "name" and t2[1] == "n" and sgn == 1 and kind == "xm" and not single:
                kind = "xmn"
            elif t2[0] == "num":
                d += sgn * t2[1]
            else:
                raise ParseError("malformed x power", t2[2], self.text)
        self.expect(")")
        return XSel(kind, d)

    def parse_combo_name(self):
        name = self.expect("name")[1]
        if name not in ("m", "n"):
            self.error("twist argument must be m, n or m+n")
        if name == "m" and self.peek()[0] == "+":
            self.next()
            self.expect("name", "n")
            return "mn"
        return name

    def parse_denominator(self, single):
        self.expect("(")
        factors = []
        sin_w = None
        while True:
            t = self.peek()
            if t[0] == "name" and t[1] in ("sin2pi", "sinpi"):
                if not single:
                    self.error("sin weights only apply to single sums")
                if sin_w is not None:
                    self.error("more than one sin weight")
                sin_w = self.parse_sin_weight()
            else:
                factors.append(self.parse_factor(single))
            if self.peek()[0] == "*":
                self.next()
                continue
            break
        self.expect(")")
        return factors, sin_w

    def parse_sin_weight(self):
        kind = self.next()[1]
        self.expect("(")
        if kind == "sin2pi":
            name = self.expect("name")[1]
            if name not in ("m", "n"):
                self.error("sin weight argument must be the index")
            self.expect("/")
            mod = self.parse_modulus()
            self.expect(")")
            return SinWeight("even", mod)
        self.expect("(")
        if self.expect("num")[1] != 2:
            self.error("odd sin weight reads sinpi((2*n+1)/N)")
        if self.peek()[0] == "*":
            self.next()
        name = self.expect("name")[1]
        if name not in ("m", "n"):
            self.error("sin weight argument must be the index")
        self.expect("+")
        if self.expect("num")[1] != 1:
            self.error("odd sin weight reads sinpi((2*n+1)/N)")
        self.expect(")")
        self.expect("/")
        mod = self.parse_modulus()
        self.expect(")")
        return SinWeight("odd", mod)

    def parse_factor(self, single):
        t = self.peek()
        if t[0] == "name" and t[1] in ("m", "n"):
            combo, shift = self.parse_shifted_base()
        elif t[0] == "(":
            self.next()
            combo, shift = self.parse_shifted_base()
            self.expect(")")
        else:
            raise ParseError("malformed factor", t[2], self.text)
        if single:
            combo = "n" if combo in ("m", "n") else combo
            if combo == "mn":
                self.error("single-sum factors involve only the index")
        exp = E(1)
        if self.peek()[0] == "^":
            self.next()
            t2 = self.peek()
            if t2[0] == "num":
                exp = E(self.next()[1])
            elif t2[0] == "name":
                exp = EV(self.next()[1])
            elif t2[0] == "(":
                self.next()
                exp = self.parse_expr()
                self.expect(")")
            else:
                self.error("malformed exponent")
        if expr_is_num(exp) and exp[1] <= 0:
            self.error("factor exponents must be positive")
        return LinearFactor(combo, shift, exp)

    def parse_shifted_base(self):
        name = self.expect("name")[1]
        if name not in ("m", "n"):
            self.error("factor must start with m or n")
        combo = name
        q0, q1 = Fraction(0), 0
        first = True
        while self.peek()[0] in ("+", "-"):
            sgn = 1 if self.next()[0] == "+" else -1
            t = self.next()
            if t[0] == "name" and t[1] == "n" and combo == "m" and first and sgn == 1:
                combo = "mn"
            elif t[0] == "name" and t[1] == "b":
                q1 += sgn
            elif t[0] == "num":
                q0f = Fraction(t[1])
                if self.peek()[0] == "/" and self.peek(1)[0] == "num":
                    self.next()
                    q0f = Fraction(t[1], self.expect("num")[1])
                q0 += sgn * q0f
            else:
                raise ParseError("malformed factor shift", t[2], self.text)
            first = False
        return combo, Shift(q0, q1)

    # --- groups and identities ----------------------------------------------

    def parse_family_sum(self):
        fams = []
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
        while True:
            fams.append(self.parse_family_element(sign))
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.next()[0] == "+" else -1
                continue
            break
        return fams

    def parse_family_element(self, sign):
        coeff_expr = E(sign)
        t = self.peek()
        if t[0] == "num" or t[0] == "(":
            if t[0] == "num":
                c = self.parse_rational()
            else:
                self.next()
                c = self.parse_expr()
                self.expect(")")
                c = c if sign == 1 else ("neg", c)
            coeff_expr = E(sign * c) if isinstance(c, Fraction) else c
            self.expect("*")
        if self.peek()[0] == "name" and self.peek()[1] == "family":
            self.next()
            var = self.expect("name")[1]
            self.expect("=")
            lo = self.parse_expr()
            self.expect("..")
            hi = self.parse_expr()
            inner = None
            if self.peek()[0] == ",":
                self.next()
                self.expect("(")
                inner = self.parse_expr()
                self.expect(")")
            self.expect(":")
            body = self.parse_term()
            if inner is not None:
                coeff_expr = ("mul", coeff_expr, inner)
            return TermFamily(var, lo, hi, _fold_expr(coeff_expr), body)
        return TermFamily(None, None, None, _fold_expr(coeff_expr), self.parse_term())

    def parse_group(self, sign):
        coeff = E(sign)
        pi_pow = 0
        trig = ""
        while True:
            t = self.peek()
            if t[0] == "num":
                q = self.parse_rational()
                coeff = ("mul", coeff, E(q)) if coeff != E(1) else E(sign * q)
            elif t[0] == "name" and t[1] == "pi":
                self.next()
                pi_pow += 1
            elif t[0] == "name" and t[1] in ("sin", "cos"):
                if trig:
                    self.error("only one trig factor per weight")
                trig = self.next()[1]
                self.expect("(")
                self.expect("name", "pi")
                self.expect("*")
                self.expect("name", "b")
                self.expect(")")
            elif t[0] == "(":
                self.next()
                e = self.parse_expr()
                self.expect(")")
                coeff = ("mul", coeff, e)
            elif t[0] == "name":
                self.error(f"weight factor {t[1]!r} outside the allowed set")
            else:
                self.error("malformed weight")
            nxt = self.next()
            if nxt[0] == "*":
                if self.peek()[0] == "[":
                    self.next()
                    break
                continue
            if nxt[0] == "/":
                t2 = self.peek()
                if t2[0] == "name" and t2[1] == "pi":
                    self.next()
                    pi_pow -= 1
                    self.expect("*")
                    if self.peek()[0] == "[":
                        self.next()
                        break
                    continue
                self.error("only pi may appear in a weight denominator")
            raise ParseError("weight must be followed by '* ['", nxt[2], self.text)
        fams = self.parse_family_sum()
        self.expect("]")
        return TermGroup(Weight(_fold_expr(coeff), pi_pow, trig), tuple(fams))

    def parse_group_sum(self):
        groups = []
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
        while True:
            groups.append(self.parse_group(sign))
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.next()[0] == "+" else -1
                continue
            break
        return tuple(groups)

    def parse_param_decl(self):
        name = self.expect("name")[1]
        self.expect(":")
        kind = self.expect("name")[1]
        if kind == "int":
            minimum = None
            odd = False
            if self.peek()[0] == ">=":
                self.next()
                minimum = self.parse_rational()
            if self.peek()[0] == "name" and self.peek()[1] == "odd":
                self.next()
                odd = True
            return ParamDecl(name, "int", minimum, odd)
        if kind == "real":
            minimum = None
            if self.peek()[0] == ">=":
                self.next()
                minimum = self.parse_rational()
            return ParamDecl(name, "real", minimum)
        if kind in ("unit", "b01", "char"):
            return ParamDecl(name, kind)
        if kind == "fixed":
            self.expect("(")
            val = self.parse_rational()
            self.expect(")")
            return ParamDecl(name, "fixed", fixed_value=val)
        self.error(f"unknown parameter kind {kind!r}")

    def parse_identity(self):
        self.expect("name", "identity")
        ident = self.expect("str")[1]
        self.expect("name", "params")
        self.expect("(")
        params = []
        if self.peek()[0] != ")":
            params.append(self.parse_param_decl())
            while self.peek()[0] == ",":
                self.next()
                params.append(self.parse_param_decl())
        self.expect(")")
        self.expect("{")
        self.expect("name", "lhs")
        self.expect(":")
        lhs = self.parse_group_sum()
        self.expect(";")
        self.expect("name", "rhs")
        self.expect(":")
        rhs = self.parse_group_sum()
        self.expect(";")
        self.expect("}")
        return IdentitySpec(ident, tuple(params), lhs, rhs)


def _fold_expr(e):
    """Collapse constant subtrees and unit factors so weights compare exactly."""
    if e[0] in ("num", "var"):
        return e
    if e[0] == "neg":
        inner = _fold_expr(e[1])
        return E(-inner[1]) if expr_is_num(inner) else ("neg", inner)
    a, b = _fold_expr(e[1]), _fold_expr(e[2])
    if expr_is_num(a) and expr_is_num(b):
        return E(expr_eval((e[0], a, b), {}))
    if e[0] == "mul":
        if a == ("num", Fraction(1)):
            return b
        if b == ("num", Fraction(1)):
            return a
        if a == ("num", Fraction(0)) or b == ("num", Fraction(0)):
            return E(0)
    if e[0] == "add":
        if a == ("num", Fraction(0)):
            return b
        if b == ("num", Fraction(0)):
            return a
    return (e[0], a, b)


def parse_term(text: str):
    """Parse one term; round-trips through render_term."""
    p = _Parser(text)
    t = p.parse_term()
    p.expect("eof")
    return t


def parse_identity(text: str) -> IdentitySpec:
    p = _Parser(text)
    spec = p.parse_identity()
    p.expect("eof")
    return spec


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def render_expr(e, parent_prec=0, right=False):
    op = e[0]
    if op == "num":
        q = e[1]
        s = str(q)
        return f"({s})" if q < 0 and parent_prec > 1 else s
    if op == "var":
        return e[1]
    if op == "neg":
        s = "-" + render_expr(e[1], _PREC["neg"])
        return f"({s})" if parent_prec >= _PREC["neg"] else s
    prec = _PREC[op]
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[op]
    left_s = render_expr(e[1], prec, right=False)
    right_s = render_expr(e[2], prec + (0 if op == "pow" else 1), right=True)
    s = f"{left_s}{sym}{right_s}"
    if prec < parent_prec or (prec == parent_prec and right and op in ("sub", "div")):
        return f"({s})"
    return s


def _render_shift(shift: Shift) -> str:
    parts = []
    if shift.q0:
        q = shift.q0
        parts.append(("+" if q > 0 else "-") + str(abs(q)))
    if shift.q1:
        parts.append("+b" if shift.q1 > 0 else "-b")
    return "".join(parts)


def _render_base(combo, shift):
    base = {"m": "m", "n": "n", "mn": "m+n"}[combo]
    s = _render_shift(shift)
    if not s and combo != "mn":
        return base
    return f"({base}{s})"


def render_factor(f: LinearFactor) -> str:
    base = _render_base(f.combo, f.shift)
    if expr_is_num(f.exp) and f.exp[1] == 1:
        return base
    if expr_is_num(f.exp) and f.exp[1].denominator == 1 and f.exp[1] > 0:
        return f"{base}^{f.exp[1]}"
    if f.exp[0] == "var":
        return f"{base}^{f.exp[1]}"
    return f"{base}^({render_expr(f.exp)})"


def _render_xsel(xsel: XSel) -> str:
    if xsel.kind == "none":
        return ""
    core = {"xn": "n", "xm": "m", "xmn": "m+n"}[xsel.kind]
    if xsel.d == 0 and xsel.kind != "xmn":
        return f"x^{core}"
    off = "" if xsel.d == 0 else (f"+{xsel.d}" if xsel.d > 0 else str(xsel.d))
    if xsel.kind == "xmn" and xsel.d == 0:
        return "x^(m+n)"
    return f"x^({core}{off})"


def _render_modulus(mod) -> str:
    return str(mod[1]) if expr_is_num(mod) else mod[1]


def render_term(t) -> str:
    if isinstance(t, DoubleSumTerm):
        head = f"sum({t.m_range},{t.n_range}"
        if t.cong is not None:
            c, e = t.cong.coeff, t.cong.offset
            if c == 0:
                rhs = str(e)
            else:
                rhs = {1: "n", -1: "-n"}.get(c, f"{c}*n")
                if e:
                    rhs += f"+{e}" if e > 0 else str(e)
            head += f"; m={rhs} mod {_render_modulus(t.cong.modulus)}"
        head += ")"
        numer_parts = []
        x = _render_xsel(t.xsel)
        if x:
            numer_parts.append(x)
        for chi, arg in t.twists:
            arg_s = {"m": "m", "n": "n", "mn": "m+n"}[arg]
            numer_parts.append(f"{chi}({arg_s})")
        numer = "*".join(numer_parts) if numer_parts else "1"
        denom = " * ".join(render_factor(f) for f in t.factors)
        return f"{head} {numer} / ({denom})"
    head = f"single({t.n_range}"
    if t.cong is not None:
        lead = "n" if t.cong.mult == 1 else f"{t.cong.mult}*n"
        if t.cong.off:
            lead += f"+{t.cong.off}" if t.cong.off > 0 else str(t.cong.off)
        head += f"; {lead}=0 mod {_render_modulus(t.cong.modulus)}"
    head += ")"
    x = _render_xsel(t.xsel)
    numer_parts = [p for p in (x,) if p]
    if t.twist:
        numer_parts.append(f"{t.twist}(n)")
    numer = "*".join(numer_parts) if numer_parts else "1"
    denom_parts = []
    if t.sin_weight is not None:
        mod = _render_modulus(t.sin_weight.modulus)
        if t.sin_weight.parity == "even":
            denom_parts.append(f"sin2pi(n/{mod})")
        else:
            denom_parts.append(f"sinpi((2*n+1)/{mod})")
    denom_parts.append(render_factor(t.factor))
    return f"{head} {numer} / ({' * '.join(denom_parts)})"


def render_weight(w: Weight) -> str:
    parts = []
    if expr_is_num(w.coeff_expr):
        q = w.coeff_expr[1]
        if q != 1 or (w.pi_pow == 0 and not w.trig):
            parts.append(str(q) if q >= 0 else f"({q})")
    else:
        parts.append(f"({render_expr(w.coeff_expr)})")
    parts.extend(["pi"] * max(w.pi_pow, 0))
    parts.extend(["1/pi"] * max(-w.pi_pow, 0))
    if w.trig:
        parts.append(f"{w.trig}(pi*b)")
    return " * ".join(parts) if parts else "1"


def _split_sign(e):
    """Split a leading minus off an expression: returns (negative?, expr)."""
    if expr_is_num(e) and e[1] < 0:
        return True, E(-e[1])
    if e[0] == "neg":
        return True, e[1]
    return False, e


def render_family_signed(fam: TermFamily):
    neg, coeff = _split_sign(fam.coeff_expr)
    body = render_term(fam.body)
    if fam.var is None:
        if expr_is_num(coeff) and coeff[1] == 1:
            return neg, body
        if expr_is_num(coeff):
            return neg, f"{coeff[1]} * {body}"
        return neg, f"({render_expr(coeff)}) * {body}"
    head = f"family {fam.var} = {render_expr(fam.lo)} .. {render_expr(fam.hi)}"
    if not (expr_is_num(coeff) and coeff[1] == 1):
        head += f", ({render_expr(coeff)})"
    return neg, f"{head} : {body}"


def render_identity(spec: IdentitySpec) -> str:
    def render_side(groups):
        lines = []
        for i, g in enumerate(groups):
            neg_w, coeff = _split_sign(g.weight.coeff_expr)
            w = render_weight(Weight(coeff, g.weight.pi_pow, g.weight.trig))
            fam_lines = []
            for j, fam in enumerate(g.families):
                neg, text = render_family_signed(fam)
                if j == 0:
                    prefix = "      - " if neg else "      "
                else:
                    prefix = "      - " if neg else "      + "
                fam_lines.append(prefix + text)
            sign = ("- " if neg_w else "+ ") if i else ("- " if neg_w else "")
            lines.append(f"    {sign}{w} * [\n" + "\n".join(fam_lines) + "\n    ]")
        return "\n".join(lines)

    decls = ", ".join(_render_decl(p) for p in spec.params)
    return (f'identity "{spec.id}" params ({decls}) {{\n'
            f"  lhs:\n{render_side(spec.lhs)};\n"
            f"  rhs:\n{render_side(spec.rhs)};\n}}\n")


def _render_decl(p: ParamDecl) -> str:
    if p.kind == "int":
        s = f"{p.name}: int"
        if p.minimum is not None:
            s += f" >= {p.minimum}"
        if p.odd:
            s += " odd"
        return s
    if p.kind == "real":
        s = f"{p.name}: real"
        if p.minimum is not None:
            s += f" >= {p.minimum}"
        return s
    if p.kind == "fixed":
        return f"{p.name}: fixed({p.fixed_value})"
    return f"{p.name}: {p.kind}"
