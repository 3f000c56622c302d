"""Shared test plumbing: the acceptance suite's per-criterion summary, and an
empty store of rows, shape sums, term plans and lattice tables."""

import pytest


def pytest_terminal_summary(terminalreporter):
    try:
        from . import test_acceptance
    except ImportError:
        try:
            import test_acceptance
        except ImportError:
            return
    lines = getattr(test_acceptance, "REPORT_LINES", [])
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


@pytest.fixture
def empty_store(monkeypatch):
    """Swaps an empty reduction.STORE, reduction.PLANS and reduction.TABLES
    in for the test, and again at each call of the function it returns:
    rows, shape sums, term plans and lattice tables live per process, so a
    test that counts builds, or compares with a fresh cache, starts from an
    empty store."""
    from dpl import reduction

    def empty():
        monkeypatch.setattr(reduction, "STORE", reduction.Store(reduction.STORE.limit))
        monkeypatch.setattr(reduction, "PLANS", reduction.Store(reduction.PLANS.limit))
        monkeypatch.setattr(reduction, "TABLES",
                            reduction.Store(reduction.TABLES.limit, reduction.TABLES.weigh))

    empty()
    return empty
