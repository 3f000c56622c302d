"""Tests of the benchmark's own parts: checks, tracer, workloads, references.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from mpmath import mp, mpf

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer, metric_names, span_names  # noqa: E402
from workloads import WORKLOADS, derivative, identity  # noqa: E402


# -- checks -------------------------------------------------------------------

@pytest.fixture(scope="module")
def li3_half():
    op = identity("cor-1.2", digits=30, k="1", x="1/2")
    return op, worker.run_op(op), checks.reference_value(op)


def test_identity_output_passes_its_checks(li3_half):
    op, report, ref = li3_half
    assert checks.check(op, report, ref, worker.tolerance(op)) == []


def test_side_nudged_by_ten_bounds_fails(li3_half):
    op, report, ref = li3_half
    rhs = report.rhs
    nudged = replace(report, rhs=replace(rhs, value=rhs.value + 10 * rhs.abs_error_bound))
    failed = checks.check(op, nudged, ref, worker.tolerance(op))
    assert any(msg.startswith("rhs") for msg in failed)


def test_residual_check_uses_the_larger_of_bound_and_tolerance():
    assert checks.residual_ok(mpf(1), mpf("1e-30"), mpf(1) + mpf("1e-20"), mpf("1e-30"), "1e-8")
    assert not checks.residual_ok(mpf(1), mpf("1e-30"), mpf(1) + mpf("1e-6"), mpf("1e-30"), "1e-8")


def test_derivative_nudged_by_ten_bounds_fails():
    op = derivative("rhs", k="1", x="1", b="1/2")
    out = worker.run_op(op)
    ref = checks.reference_value(op)
    assert checks.check(op, out, ref, None) == []
    nudged = replace(out, value=out.value - 10 * out.abs_error_bound)
    assert checks.check(op, nudged, ref, None)


def test_x_binding_fault_is_caught():
    op = identity("cor-1.2", digits=30, k="1", x="1/10")
    failed = checks.check(op, worker.run_op(op), checks.reference_value(op),
                          worker.tolerance(op))
    assert any(msg.startswith("rhs") for msg in failed)


def test_drift_sampler_samples_during_work_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with worker.DriftSampler(dps=30, interval=0.01) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    signal.signal(signal.SIGALRM, before)


# -- tracer -------------------------------------------------------------------

def _dpl_modules():
    return {n: m for n, m in sys.modules.items() if n == "dpl" or n.startswith("dpl.")}


def test_every_binding_of_a_target_is_wrapped():
    import dpl.reduction
    import dpl.specfun

    original = dpl.specfun.hurwitz_zeta
    assert dpl.reduction.hurwitz_zeta is original
    tracer = Tracer()
    tracer.install()
    try:
        for target in TARGETS:
            module, _, qual = target.partition(".")
            if "." in qual:
                continue                    # methods live on their class
            wrapped = getattr(sys.modules[f"dpl.{module}"], qual)
            inner = wrapped.__wrapped__
            for name, mod in _dpl_modules().items():
                for attr, value in vars(mod).items():
                    assert value is not inner, f"{name}.{attr} still binds {target}"
        assert dpl.reduction.hurwitz_zeta is dpl.specfun.hurwitz_zeta is not original
        assert hasattr(dpl.reduction._Series.mul, "__wrapped__")
    finally:
        tracer.uninstall()
    assert dpl.reduction.hurwitz_zeta is original
    assert dpl.specfun.hurwitz_zeta is original


def test_traced_calls_are_counted_and_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.span("inner", inner)
    assert tracer.span("outer", outer)() == 2
    # clock reads: outer start 0, inner start 1, inner end 2, outer end 3
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert tracer.self_s["inner"] == 1
    assert tracer.self_s["outer"] == 2


def test_missing_target_reads_absent_and_zero():
    tracer = Tracer()
    tracer.install(("specfun.no_such_function", "reduction.NoSuchClass.mul"))
    tracer.uninstall()
    assert "specfun.no_such_function" in tracer.absent
    assert "reduction.NoSuchClass.mul" in tracer.absent
    metrics = tracer.metrics(("specfun.no_such_function",))
    assert metrics["specfun.no_such_function.calls"] == 0
    assert metrics["specfun.no_such_function.self_s"] == 0


def test_metric_names_cover_every_target():
    names = metric_names()
    for name in span_names():
        assert f"{name}.calls" in names and f"{name}.self_s" in names
    assert names["reduction.EvalCache.hit_ratio"] == "ratio"
    assert "dsl.parse_identity.calls" in names


def test_benchmark_json_names_what_the_runs_print():
    import json

    import run

    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metric_names()


# -- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_give_the_same_operations(name):
    wl = WORKLOADS[name]
    a, b = wl.orders(1, 2), wl.orders(2, 2)
    for pass_a, pass_b in zip(a, b):
        assert Counter(pass_a) == Counter(pass_b) == Counter(wl.ops)
    assert a != b
    assert wl.warmup not in wl.ops


def test_only_interior_carries_known_faults():
    for wl in WORKLOADS.values():
        faults = [op for op in wl.ops if op.known_fault]
        assert bool(faults) == (wl.name == "interior")


# -- references ---------------------------------------------------------------

def test_reference_polylog_reproduces_li3_half():
    with mp.workdps(60):
        ln2 = mp.log(2)
        closed = mpf(7) / 8 * mp.zeta(3) - mp.pi ** 2 / 12 * ln2 + ln2 ** 3 / 6
        assert abs(reference.polylog(3, reference.XValue("1/2")) - closed) < mpf(10) ** -55


def test_reference_class_sums_reproduce_known_values():
    with mp.workdps(60):
        eps = mpf(10) ** -55
        # Li_2(-1) = -pi^2/12, Li_2(i) = -pi^2/48 + i G, L(2, chi4) = G,
        # Li_2(e^{2 pi i/3}) = -pi^2/18 + i Cl_2(2 pi/3)
        assert abs(reference.polylog(2, reference.XValue("-1")) + mp.pi ** 2 / 12) < eps
        li2_i = reference.polylog(2, reference.XValue("i"))
        assert abs(li2_i - mp.mpc(-mp.pi ** 2 / 48, mp.catalan)) < eps
        li2_w = reference.polylog(2, reference.XValue("ru(3,1)"))
        assert abs(li2_w - mp.mpc(-mp.pi ** 2 / 18, mp.clsin(2, 2 * mp.pi / 3))) < eps
        assert abs(reference.dirichlet_l(2, "chi4") - mp.catalan) < eps


def test_reference_congruence_side_at_n1_is_twice_the_polylog():
    with mp.workdps(40):
        rhs = reference.single_side("thm-4.1", {"N": "1", "k": "1", "x": "1/2"})
        assert abs(rhs - 2 * mp.polylog(3, mpf(1) / 2)) < mpf(10) ** -35
