"""Shared test plumbing: the acceptance suite's per-criterion summary, and an
empty process store (reduction.STORE)."""

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
    """Swaps an empty reduction.STORE in for the test, and again at each call
    of the function it returns: everything that outlives a call lives per
    process in it, so a test that counts builds, or compares with fresh
    entries, starts from an empty store."""
    from dpl import reduction

    def empty():
        monkeypatch.setattr(reduction, "STORE", reduction.Store(reduction.STORE.limit))

    empty()
    return empty
