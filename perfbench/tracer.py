"""Per-layer spans and counters around dpl's module functions.

The tracer wraps the functions named in TARGETS from outside, without editing
dpl: it replaces the function object under every dpl module that binds it
(`reduction.hurwitz_zeta` as well as `specfun.hurwitz_zeta`), and methods on
their class. Each wrapper records a span: its calls and its self time, which
is the span's duration minus the time spent in the spans it caused. A target
that dpl no longer has is reported as absent, with zero counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

# Span targets, as "<module>.<qualified name>" under the dpl package.
TARGETS = (
    "specfun.hurwitz_zeta", "specfun.digamma", "specfun.log_zeta_sum",
    "specfun.lerch_phi",
    "reduction.eval_double_reduction", "reduction.eval_single_reduction",
    "reduction._eval_double_geometric2d", "reduction._sum_atom",
    "reduction._sum_atom_geometric", "reduction._Series.mul",
    "reduction._power_series", "reduction._zeta_series", "reduction._psi_series",
    "reduction._trans_table", "reduction._class_atoms",
    "direct.eval_term_direct", "direct._class_sum",
    "evaluator.eval_identity", "evaluator.eval_side",
    "evaluator.numeric_derivative_b",
)
# lerch_phi is reported per region of x rather than as one span.
LERCH_REGIONS = ("interior", "root_of_unity", "averaged")
# The set-up probe traces the DSL parser while the registry loads.
SETUP_TARGETS = ("dsl.parse_identity",)
# The EvalCache methods that look a value up; a lookup that calls into
# specfun is a miss.
CACHE_LOOKUPS = ("zeta", "psi", "log_zeta")


def span_names(targets=TARGETS):
    names = []
    for t in targets:
        if t == "specfun.lerch_phi":
            names += [f"{t}.{r}" for r in LERCH_REGIONS]
        else:
            names.append(t)
    return names


def metric_names():
    """Every per-layer metric of a traced run, with its unit."""
    out = {}
    for name in span_names(TARGETS + SETUP_TARGETS):
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out["reduction.EvalCache.lookups"] = "count"
    out["reduction.EvalCache.misses"] = "count"
    out["reduction.EvalCache.hit_ratio"] = "ratio"
    out["evaluator.auto_fallback.calls"] = "count"
    out["traced.wall_s"] = "s"
    return out


def lerch_region(args, kwargs):
    """The region of lerch_phi(x, s, b, ctx, x_root=None, force_series=False)."""
    from mpmath import mp

    x = args[0] if args else kwargs.get("x")
    s = args[1] if len(args) > 1 else kwargs.get("s")
    force = kwargs.get("force_series", args[5] if len(args) > 5 else False)
    if abs(mp.mpmathify(x)) < 1:
        return "interior"
    if force or mp.mpmathify(s) == 1:
        return "averaged"
    return "root_of_unity"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []            # time spent in child spans, per open span
        self._restore = []          # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, on_call=None):
        """Wrap fn in a span; name is a string or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if on_call is not None:
                on_call()
            stack = tracer._stack
            stack.append(0.0)
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer.clock() - t0
                child = stack.pop()
                tracer.calls[label] += 1
                tracer.self_s[label] += dur - child
                if stack:
                    stack[-1] += dur
        return wrapper

    def _count_specfun(self):
        self.counts["specfun"] += 1

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS, package="dpl"):
        """Wrap every target found; record the others as absent."""
        modules = _package_modules(package)
        for target in targets:
            module_name, _, qual = target.partition(".")
            owner, attr, fn = _resolve(modules.get(f"{package}.{module_name}"), qual)
            if fn is None:
                self.absent += span_names((target,))
                continue
            name = (lambda a, k, t=target: f"{t}.{lerch_region(a, k)}") \
                if target == "specfun.lerch_phi" else target
            hook = self._count_specfun if module_name == "specfun" else None
            self._replace(modules, owner, attr, fn, self.span(name, fn, hook))
        if any(t.startswith("reduction.") for t in targets):
            self._install_cache_counters(modules.get(f"{package}.reduction"))
            self._install_fallback_counter(modules, package)

    def _install_cache_counters(self, reduction):
        cls = getattr(reduction, "EvalCache", None)
        methods = [m for m in CACHE_LOOKUPS if callable(getattr(cls, m, None))]
        if not methods:
            self.absent += ["reduction.EvalCache.lookups", "reduction.EvalCache.misses",
                            "reduction.EvalCache.hit_ratio"]
            return
        for m in methods:
            fn = getattr(cls, m)

            @functools.wraps(fn)
            def lookup(*args, _fn=fn, **kwargs):
                before = self.counts["specfun"]
                try:
                    return _fn(*args, **kwargs)
                finally:
                    self.counts["reduction.EvalCache.lookups"] += 1
                    if self.counts["specfun"] != before:
                        self.counts["reduction.EvalCache.misses"] += 1
            self._replace({}, cls, m, fn, lookup)

    def _install_fallback_counter(self, modules, package):
        """Count double terms under strategy "auto" that end in eval_term_direct."""
        evaluator = modules.get(f"{package}.evaluator")
        fn = getattr(evaluator, "eval_double", None)
        if fn is None or "direct.eval_term_direct" in self.absent:
            self.absent.append("evaluator.auto_fallback.calls")
            return
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def eval_double(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            strategy = bound.arguments.get("strategy", "auto")
            term = bound.arguments.get("term")
            before = self.calls["direct.eval_term_direct"]
            try:
                return fn(*args, **kwargs)
            finally:
                if (strategy == "auto" and type(term).__name__ == "DoubleSumTerm"
                        and self.calls["direct.eval_term_direct"] != before):
                    self.counts["evaluator.auto_fallback.calls"] += 1
        self._replace(modules, evaluator, "eval_double", fn, eval_double)

    def _replace(self, modules, owner, attr, original, replacement):
        """Rebind original to replacement on owner and on every module binding it."""
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, targets=TARGETS):
        out = {}
        for name in span_names(targets):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        if any(t.startswith("reduction.") for t in targets):
            lookups = self.counts["reduction.EvalCache.lookups"]
            misses = self.counts["reduction.EvalCache.misses"]
            out["reduction.EvalCache.lookups"] = lookups
            out["reduction.EvalCache.misses"] = misses
            out["reduction.EvalCache.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
            out["evaluator.auto_fallback.calls"] = self.counts["evaluator.auto_fallback.calls"]
        return out


def _package_modules(package):
    """Import every module of the package, so that every binding is found."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))}


def _resolve(module, qual):
    """(owner, attribute, function) for a qualified name, or (None, None, None)."""
    owner = module
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(fn):
        return None, None, None
    return owner, parts[-1], fn
