"""Command-line front end.

Subcommands: verify, sweep, derive, eval-term, list. Reports go to stdout or
--out in json, csv, or text; exit codes are 0 all-pass, 1 residual failure,
2 usage/domain error, 3 evaluation error.

    dpl verify --id cor-1.2 --k 1 --x 1 --digits 50
    dpl sweep  --id euler-sum --l 3..12
    dpl derive --from thm-2.1 --to thm-1.1 --k 1..4
    dpl eval-term "sum(m>=1,n>=1) x^n / (m*(m+n)^3)" --x 1/2
    dpl list --filter congruence
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from .dsl import ParseError
from .registry import DERIVATION_PAIRS, RegistryError, registry_get, registry_list
from .specfun import DomainError, PrecisionContext
from .termlang import TermError, check_derivation

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3

PARAM_FLAGS = ("k", "l", "s", "x", "b", "N", "M", "chi")


def _context(digits: int) -> PrecisionContext:
    if not 15 <= digits <= 200:
        raise DomainError("digits must lie in [15, 200]")
    guard = 10
    output = max(digits - guard, digits * 3 // 5)
    return PrecisionContext(working_digits=digits, guard_digits=guard,
                            output_digits=min(output, digits - guard))


def _expand_range(text: str):
    """'3..12' or '1,2,3' or a single value; a comma inside parentheses, as
    in 'ru(3,1)', does not split."""
    out = []
    for piece in re.split(r",(?![^(]*\))", text):
        piece = piece.strip()
        if ".." in piece:
            try:
                lo, hi = (int(v) for v in piece.split(".."))
            except ValueError as exc:
                raise DomainError(f"cannot parse range {piece!r}: lo..hi needs two integers") \
                    from exc
            out.extend(str(v) for v in range(lo, hi + 1))
        elif piece:
            out.append(piece)
    return out


def _battery_from_args(entry, args):
    """Explicit flags override the registry's default battery."""
    given = {}
    for name in PARAM_FLAGS:
        raw = getattr(args, name, None)
        if raw is not None:
            given[name] = _expand_range(raw) if name != "chi" else raw.split(",")
    declared = {p.name for p in entry.spec.params if p.kind != "fixed"}
    given = {k: v for k, v in given.items() if k in declared}
    if not given and not declared:
        return [{}]
    if not given:
        return [dict(point) for point in entry.battery]
    missing = declared - set(given)
    if missing:
        defaults = entry.battery[0] if entry.battery else {}
        for name in sorted(missing):
            if name not in defaults:
                raise DomainError(f"parameter {name!r} not supplied and has no default")
            given[name] = [defaults[name]]
    keys = sorted(given)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(given[k] for k in keys))]


def _evaluate_point(ident, point, digits, strategy, tolerance):
    # module-level for process pools
    from .evaluator import eval_identity

    entry = registry_get(ident)
    ctx = _context(digits)
    tol = tolerance if tolerance is not None else entry.tolerance
    strat = strategy or entry.strategy
    report = eval_identity(entry, point, ctx, strategy=strat,
                           tolerance=__import__("mpmath").mpf(tol))
    return report.to_dict()


def _emit(reports, fmt, out_path):
    if fmt == "json":
        text = json.dumps(reports if len(reports) != 1 else reports[0], indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["identity", "params", "digits", "strategy", "lhs_re", "lhs_im",
                         "rhs_re", "rhs_im", "residual", "bound", "pass", "elapsed_ms"])
        for r in reports:
            writer.writerow([r["identity"], json.dumps(r["params"]), r["digits"],
                             r["strategy"], r["lhs"]["re"], r["lhs"]["im"],
                             r["rhs"]["re"], r["rhs"]["im"], r["residual"],
                             r["bound"], r["pass"], r["elapsed_ms"]])
        text = buf.getvalue()
    else:
        lines = []
        for r in reports:
            mark = "pass" if r["pass"] else "FAIL"
            lines.append(f"[{mark}] {r['identity']} {json.dumps(r['params'])} "
                         f"residual={r['residual']} bound={r['bound']} "
                         f"({r['elapsed_ms']} ms, strategy={r['strategy']})")
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    entry = registry_get(args.id)
    points = _battery_from_args(entry, args)
    reports = []
    for point in points:
        reports.append(_evaluate_point(args.id, point, args.digits,
                                       args.strategy, args.tolerance))
    _emit(reports, args.format, args.out)
    return EXIT_OK if all(r["pass"] for r in reports) else EXIT_RESIDUAL


def cmd_sweep(args):
    entry = registry_get(args.id)
    points = _battery_from_args(entry, args)
    jobs = max(1, args.jobs)
    work = [(args.id, point, args.digits, args.strategy, args.tolerance)
            for point in points]
    if jobs == 1:
        reports = [_evaluate_point(*w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_evaluate_point_star, work))
    _emit(reports, args.format, args.out)
    n_pass = sum(1 for r in reports if r["pass"])
    worst = max((float(r["residual"]) for r in reports), default=0.0)
    slowest = max((r["elapsed_ms"] for r in reports), default=0.0)
    sys.stderr.write(f"{n_pass}/{len(reports)} pass; worst residual {worst:.3g}; "
                     f"slowest point {slowest:.1f} ms\n")
    return EXIT_OK if n_pass == len(reports) else EXIT_RESIDUAL


def _evaluate_point_star(work):
    return _evaluate_point(*work)


def cmd_derive(args):
    pair = (getattr(args, "from"), args.to)
    if pair not in DERIVATION_PAIRS:
        sys.stderr.write(f"error: {pair[0]} -> {pair[1]} is not a registered "
                         f"partial-fraction pair\n")
        return EXIT_USAGE
    try:
        ks = [int(v) for v in _expand_range(args.k or "1..3")]
    except ValueError as exc:
        raise DomainError(f"cannot parse k value {args.k!r}: k needs integers") from exc
    report = check_derivation(registry_get(pair[0]).spec, registry_get(pair[1]).spec, ks)
    lines = [f"derivation {report.from_id} -> {report.to_id}"]
    for s in report.samples:
        lines.append(f"  k={s.k}: {'exact multiset match' if s.ok else 'MISMATCH'}"
                     + (f" ({s.witness})" if s.witness else ""))
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        text = json.dumps({
            "from": report.from_id, "to": report.to_id,
            "samples": [{"k": s.k, "pass": s.ok, "witness": s.witness}
                        for s in report.samples],
            "pass": report.ok,
        }, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.ok else EXIT_RESIDUAL


def cmd_eval_term(args):
    from mpmath import mp

    from .dsl import parse_term
    from .evaluator import _fraction, eval_double, eval_single, parse_value, parse_x
    from .termlang import DoubleSumTerm, ParamDecl, bind_term

    ctx = _context(args.digits)
    term = parse_term(args.term)
    env = {}
    for name in ("k", "l", "s", "N", "M"):
        raw = getattr(args, name, None)
        if raw is not None:
            env[name] = _fraction(ParamDecl(name, "real"), raw)
    term = bind_term(term, env)
    params = {}
    if args.x is not None:
        with ctx.workdps():
            params["x"] = parse_x(args.x)
    if args.b is not None:
        params["b"] = _fraction(ParamDecl("b", "real"), args.b)
    if args.chi is not None:
        params["chi"] = parse_value(ParamDecl("chi", "char"), args.chi)
    strategy = args.strategy or "auto"
    if isinstance(term, DoubleSumTerm):
        res = eval_double(term, params, ctx, strategy)
    else:
        res = eval_single(term, params, ctx, strategy)
    with ctx.workdps():
        doc = {
            "term": args.term,
            "value": {"re": mp.nstr(mp.mpc(res.value).real, ctx.output_digits),
                      "im": mp.nstr(mp.mpc(res.value).imag, ctx.output_digits)},
            "bound": mp.nstr(res.abs_error_bound, 8),
            "method": res.method,
        }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_list(args):
    rows = registry_list(args.filter)
    for (ident, ref, summary) in rows:
        sys.stdout.write(f"{ident:16s} {ref}  [{summary}]\n")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="dpl",
                                description="verify sum formulas for Hurwitz-type "
                                            "double polylogarithms")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, report=True):
        sp.add_argument("--digits", type=int, default=50)
        sp.add_argument("--strategy", choices=("auto", "reduction", "direct"))
        if report:
            sp.add_argument("--out")
            sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
            sp.add_argument("--tolerance")
        for name in ("k", "l", "s", "x", "b", "N", "M", "chi"):
            sp.add_argument(f"--{name}")

    sp = sub.add_parser("verify", help="evaluate an identity on one or more points")
    sp.add_argument("--id", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="run a parameter battery and aggregate")
    sp.add_argument("--id", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("derive", help="symbolic partial-fraction derivation check")
    sp.add_argument("--from", required=True)
    sp.add_argument("--to", required=True)
    sp.add_argument("--k")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_derive)

    sp = sub.add_parser("eval-term", help="evaluate an ad-hoc DSL term")
    sp.add_argument("term")
    add_common(sp, report=False)     # it always writes one JSON record to stdout
    sp.set_defaults(func=cmd_eval_term)

    sp = sub.add_parser("list", help="list registry identities")
    sp.add_argument("--filter")
    sp.set_defaults(func=cmd_list)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, TermError, RegistryError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # evaluation failure: partial output already emitted
        sys.stderr.write(f"evaluation error: {type(exc).__name__}: {exc}\n")
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
