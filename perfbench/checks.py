"""Checks of every operation's output, made apart from dpl.

An identity operation passes when its residual |lhs - rhs| is at most
max(lhs bound + rhs bound, tolerance), and when its single-sum side lies
within its own bound of the mpmath-only value from reference.py. A derivative
operation passes when it lies within its bound of the b-derivative of the
single-sum side. Reference values carry EXTRA_DIGITS more digits than the
operation asks for; their own rounding is allowed for with `slack`.
"""

from __future__ import annotations

from mpmath import mp, mpf

from reference import EXTRA_DIGITS, single_side, single_side_derivative_b


def reference_dps(op) -> int:
    return op.digits + EXTRA_DIGITS


def reference_value(op):
    """The mpmath-only value an operation's output is compared with."""
    with mp.workdps(reference_dps(op)):
        if op.kind == "derivative":
            return single_side_derivative_b(op.ident, op.param_dict)
        return single_side(op.ident, op.param_dict)


def slack(reference, dps: int):
    return mpf(10) ** (5 - dps) * max(1, abs(reference))


def residual_ok(lhs, lhs_bound, rhs, rhs_bound, tolerance) -> bool:
    return abs(lhs - rhs) <= max(lhs_bound + rhs_bound, mpf(tolerance))


def within_bound(value, bound, reference, dps: int) -> bool:
    with mp.workdps(dps):
        return abs(value - reference) <= bound + slack(reference, dps)


def check(op, output, reference, tolerance) -> list:
    """The failed checks of one operation, as short messages (empty: it passed)."""
    dps = reference_dps(op)
    with mp.workdps(dps):
        if op.kind == "derivative":
            if within_bound(output.value, output.abs_error_bound, reference, dps):
                return []
            return [_miss("derivative", output.value, output.abs_error_bound, reference)]
        failed = []
        lhs, rhs = output.lhs, output.rhs
        if not residual_ok(lhs.value, lhs.abs_error_bound, rhs.value,
                           rhs.abs_error_bound, tolerance):
            failed.append(f"residual {mp.nstr(abs(lhs.value - rhs.value), 3)} above "
                          f"max(bound {mp.nstr(lhs.abs_error_bound + rhs.abs_error_bound, 3)}, "
                          f"tolerance {tolerance})")
        if not within_bound(rhs.value, rhs.abs_error_bound, reference, dps):
            failed.append(_miss("rhs", rhs.value, rhs.abs_error_bound, reference))
        return failed


def _miss(what, value, bound, reference):
    return (f"{what} {mp.nstr(value, 22)} is {mp.nstr(abs(value - reference), 3)} from "
            f"the mpmath value {mp.nstr(reference, 22)}, bound {mp.nstr(bound, 3)}")
