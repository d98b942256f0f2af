"""Floors on substantive checks.

A sign trial over a 0-dimensional value, a connecting square with no
entries or a 0-dimensional shift step passes whatever its sign.  These
tests rerun the suites of acceptance criteria 3, 4 and 5 with their
flags, count through the verifiers how many trials compared something,
and assert the counts, so a change of generator that makes the checks
vacuous shows.
"""

from dimshift import harness
from dimshift.derived import verify_shift_step_sign
from dimshift.harness import (
    GeneratorConfig,
    run_connecting_suite,
    run_sign_suite,
    run_step_sign_suite,
)
from dimshift.modules import FunctorSpec, TruncatedAlgebra, simple_module
from dimshift.resolutions import ResolutionRegistry


def recording(monkeypatch, name):
    """Wrap harness.<name> and return the list its reports go into."""
    verify = getattr(harness, name)
    reports = []

    def wrapped(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, name, wrapped)
    return reports


def test_sign_trials_mostly_compare_something(monkeypatch):
    reports = recording(monkeypatch, "verify_sign_identity")
    run_sign_suite(GeneratorConfig(seed=31, m=2, max_dim=12, horizon=4, trials=50))
    run_sign_suite(GeneratorConfig(seed=32, m=3, max_dim=12, horizon=4, trials=50))
    assert len(reports) == 100
    assert sum(r.dim > 0 for r in reports) == 89


def test_connecting_squares_mostly_have_entries(monkeypatch):
    reports = recording(monkeypatch, "verify_connecting_square")
    run_connecting_suite(GeneratorConfig(seed=41, m=2, max_dim=8, horizon=4, trials=50))
    run_connecting_suite(GeneratorConfig(seed=42, m=3, max_dim=8, horizon=4, trials=50))
    assert len(reports) == 100
    assert sum(r.via_chase.nrows * r.via_chase.ncols > 0 for r in reports) == 76


def test_shift_steps_mostly_are_nonzero_dimensional(monkeypatch):
    # The explicit n = 4 ladder of criterion 5 over k, then its two suites.
    algebra = TruncatedAlgebra(2)
    k = simple_module(algebra)
    registry = ResolutionRegistry()
    J = registry.resolution(k, 6)
    ladder = [verify_shift_step_sign(FunctorSpec(algebra, k), J, 4, p) for p in range(4)]
    suites = recording(monkeypatch, "verify_shift_step_sign")
    run_step_sign_suite(GeneratorConfig(seed=51, m=2, max_dim=7, horizon=4, trials=15))
    run_step_sign_suite(GeneratorConfig(seed=52, m=3, max_dim=6, horizon=3, trials=10))
    assert [r.matrix.nrows for r in ladder] == [1, 1, 1, 1]
    assert len(suites) == 59
    assert sum(r.matrix.nrows > 0 for r in suites) == 49
