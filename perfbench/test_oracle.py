"""Tests of the benchmark's own oracle.

    python3 -m pytest perfbench/test_oracle.py -q

The oracle must agree with the program where both are right, and must
reject a report whose sign is wrong even when the report is otherwise
self-consistent.
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from dimshift import (  # noqa: E402
    FunctorSpec,
    ResolutionRegistry,
    TruncatedAlgebra,
    canonical_form,
    cyclic_module,
    derived_functor,
)
from dimshift.cli import main as cli_main  # noqa: E402
from dimshift.harness import GeneratorConfig, gen_random_module  # noqa: E402


def as_fractions(M):
    return [[Fraction(x) for x in row] for row in M.rows]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_closed_form_ext_matches_derived_functor(m):
    algebra = TruncatedAlgebra(m)
    for a in range(1, m + 1):
        F = FunctorSpec(algebra, cyclic_module(algebra, a))
        for b in range(1, m + 1):
            M = cyclic_module(algebra, b)
            value = derived_functor(F, M, 6, ResolutionRegistry())
            assert oracle.block_sizes(as_fractions(M.X), m) == [b]
            for n in range(1, 6):
                assert value.dim(n) == oracle.ext_dim([a], [b], m, n), (m, a, b, n)


@pytest.mark.parametrize("seed", range(8))
def test_generator_replica_draws_the_programs_modules(seed):
    cfg = GeneratorConfig(seed=seed, m=3, max_dim=7)
    program = gen_random_module(cfg, random.Random(seed))
    replica = oracle.random_module(random.Random(seed), 3, 7)
    assert replica == as_fractions(program.X)
    assert oracle.block_sizes(replica, 3) == list(canonical_form(program).block_sizes)


def run_report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli_main(argv + ["--output", str(out)]) == 0
    return json.loads(out.read_text())


SIGN_ARGV = ["verify-sign", "--seed", "31", "--m", "2", "--max-dim", "6", "--horizon", "4", "--trials", "4"]
LEMMAS_ARGV = ["verify-lemmas", "--seed", "41", "--m", "2", "--max-dim", "4", "--horizon", "4", "--trials", "2"]
DEMO_ARGV = ["demo", "--m", "2", "--n", "4"]


@pytest.mark.parametrize("argv", [SIGN_ARGV, LEMMAS_ARGV, DEMO_ARGV])
def test_true_reports_pass(tmp_path, argv):
    report = run_report(tmp_path, argv)
    attempted, failed, problems = oracle.check_report(argv, report)
    assert (failed, problems) == (0, [])
    assert attempted == len(report["trials"]) > 0


def test_wrong_sign_in_a_sign_trial_fails(tmp_path):
    report = run_report(tmp_path, SIGN_ARGV)
    bad = copy.deepcopy(report)
    trial = next(t for t in bad["trials"] if t["c"])
    # Flip the sign and d together, so only the sign formula can object.
    trial["sign"] = -trial["sign"]
    trial["d"] = [[str(-Fraction(x)) for x in row] for row in trial["d"]]
    _, _, problems = oracle.check_report(SIGN_ARGV, bad)
    assert any(": sign " in p for p in problems)
    assert any("times c" in p for p in problems)


def test_wrong_sign_in_the_worked_example_fails(tmp_path):
    report = run_report(tmp_path, DEMO_ARGV)
    bad = copy.deepcopy(report)
    bad["trials"][2]["sign"] = -bad["trials"][2]["sign"]
    bad["trials"][2]["d"] = [[str(-Fraction(bad["trials"][2]["d"][0][0]))]]
    _, _, problems = oracle.check_report(DEMO_ARGV, bad)
    assert any(": sign " in p for p in problems)
    assert any(": d = " in p for p in problems)


def test_wrong_step_sign_fails(tmp_path):
    report = run_report(tmp_path, LEMMAS_ARGV)
    bad = copy.deepcopy(report)
    trial = next(t for t in bad["trials"] if t.get("part") == "steps")
    trial["steps"][0]["expected_sign"] = -trial["steps"][0]["expected_sign"]
    _, _, problems = oracle.check_report(LEMMAS_ARGV, bad)
    assert any("rung 0" in p for p in problems)


def test_failed_verdict_counts_as_failed_not_as_a_problem(tmp_path):
    report = run_report(tmp_path, DEMO_ARGV)
    report["trials"][0]["verdict"] = "fail"
    report["pass"] = False
    attempted, failed, problems = oracle.check_report(DEMO_ARGV, report)
    assert (attempted, failed, problems) == (4, 1, [])
