"""Deliberately broken signs must give a failing verdict, not a pass and
not a traceback.

Each test patches one sign in the running package and runs verifying
commands at fixed seeds; a command that builds the broken object must
exit 1, and one that builds none still passes.
"""

import json
import sys
from collections import Counter

from dimshift import derived, harness, resolutions
from dimshift.cli import main

# The flags of the lemmas workload and of the first sign workload.
LEMMAS = "verify-lemmas --seed 41 --m 2 --max-dim 8 --horizon 4 --trials 4".split()
SIGN = "verify-sign --seed 31 --m 2 --max-dim 12 --horizon 4 --trials 6".split()
DEMO = "demo --m 2 --n 6".split()
BROKEN_BASE = "differential does not kill the base"


def negate_thetas(monkeypatch, site=None):
    """Negate the thetas of _glue; with a site, only when the function
    of that name calls it, which flips one of the two sign sites that
    glue twisted sums."""
    glue = resolutions._glue

    def negated(base, aug, sub, quot, thetas, prefix=None):
        if site in (None, sys._getframe(1).f_code.co_name):
            thetas = [-theta for theta in thetas]
        return glue(base, aug, sub, quot, thetas, prefix)

    monkeypatch.setattr(resolutions, "_glue", negated)


def test_negated_thetas_fail_trials_and_keep_the_report(monkeypatch, tmp_path):
    negate_thetas(monkeypatch)
    out = tmp_path / "report.json"
    assert main(LEMMAS + ["--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    failed = [t for t in report["trials"] if "error" in t]
    assert failed
    for t in failed:
        assert t["verdict"] == "fail"
        assert isinstance(t["seed"], int) and t["error"]


def test_negated_thetas_fail_the_demo_and_keep_the_report(monkeypatch, tmp_path, capsys):
    negate_thetas(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["demo", "--m", "2", "--n", "3", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    failed = [t for t in report["trials"] if "error" in t]
    assert failed
    for t in failed:
        assert t["verdict"] == "fail"
        assert t["n"] in (1, 2, 3) and t["error"]
    assert "fail" in capsys.readouterr().out


def run_counting_failures(args, tmp_path):
    """The exit code, and the failed trials counted by suite part (None
    for a single-part command) next to the trials run, as
    {part: (failed, run)}.  Every failure must be a broken invariant."""
    out = tmp_path / "report.json"
    code = main(args + ["--output", str(out)])
    trials = json.loads(out.read_text())["trials"]
    failed = [t for t in trials if t["verdict"] == "fail"]
    for t in failed:
        assert isinstance(t.get("seed", t.get("n")), int)
        assert t["error"] == BROKEN_BASE
    ran = Counter(t.get("part") for t in trials)
    lost = Counter(t.get("part") for t in failed)
    return code, {part: (lost[part], ran[part]) for part in ran}


def test_a_horseshoe_without_its_minus_fails_every_horseshoe(monkeypatch, tmp_path):
    # The step trials build no horseshoe, and neither does the
    # degree-0 connecting trial.
    negate_thetas(monkeypatch, "horseshoe")
    assert run_counting_failures(SIGN, tmp_path) == (1, {None: (6, 6)})
    assert run_counting_failures(LEMMAS, tmp_path) == (
        1, {"connecting": (3, 4), "steps": (0, 4)}
    )
    assert run_counting_failures(DEMO, tmp_path) == (1, {None: (6, 6)})


def test_a_cylinder_twist_of_minus_one_to_the_p_fails_only_the_steps(monkeypatch, tmp_path):
    # Only the step trials build cylinders; the one at n = 2 passes.
    negate_thetas(monkeypatch, "cylinder_resolution")
    assert run_counting_failures(SIGN, tmp_path) == (0, {None: (0, 6)})
    assert run_counting_failures(LEMMAS, tmp_path) == (
        1, {"connecting": (0, 4), "steps": (3, 4)}
    )
    assert run_counting_failures(DEMO, tmp_path) == (0, {None: (0, 6)})


def failing_errors(args, tmp_path):
    """The exit code, and the errors of the failed trials: None where a
    trial ran to a failing verdict."""
    out = tmp_path / "report.json"
    code = main(args + ["--output", str(out)])
    trials = json.loads(out.read_text())["trials"]
    return code, {t.get("error") for t in trials if t["verdict"] == "fail"}


def test_a_constant_sign_fails_the_sign_suite(monkeypatch, tmp_path):
    # The lemmas command sees it in the products of the step signs.
    for module in (derived, harness):
        monkeypatch.setattr(module, "sign_factor", lambda n: 1)
    for args in (SIGN, LEMMAS, DEMO):
        assert failing_errors(args, tmp_path) == (1, {None})


def test_a_negated_connecting_map_fails_the_sign_suite(monkeypatch, tmp_path):
    snake = derived.snake_delta_matrix
    monkeypatch.setattr(derived, "snake_delta_matrix", lambda *args: -snake(*args))
    for args in (SIGN, LEMMAS, DEMO):
        assert failing_errors(args, tmp_path) == (1, {None})


def test_a_negated_connecting_map_fails_only_the_shift_steps(monkeypatch, tmp_path):
    # A global sign on every connecting map keeps every square
    # commuting, so the connecting suite passes; the step signs see it.
    snake = derived.snake_delta_matrix
    monkeypatch.setattr(derived, "snake_delta_matrix", lambda *args: -snake(*args))
    out = tmp_path / "report.json"
    assert main(LEMMAS + ["--output", str(out)]) == 1
    trials = json.loads(out.read_text())["trials"]
    connecting = [t for t in trials if t["part"] == "connecting"]
    steps = [t for t in trials if t["part"] == "steps"]
    assert connecting and steps
    for t in connecting:
        assert (t["square"], t["independent"], t["verdict"]) == ("pass", "pass", "pass")
    assert any(t["verdict"] == "fail" for t in steps)


def test_a_flipped_step_sign_fails_the_step_trials(monkeypatch, tmp_path):
    # A flipped step passes only when it is 0-dimensional, as the first
    # n = 1 step and both n = 2 steps are; the n = 2 product passes too,
    # its two flips cancelling.  The sign and demo commands check no step.
    step_sign = derived.step_sign
    monkeypatch.setattr(derived, "step_sign", lambda p: -step_sign(p))
    out = tmp_path / "report.json"
    assert main(LEMMAS + ["--output", str(out)]) == 1
    trials = json.loads(out.read_text())["trials"]
    steps = [
        (t["n"], t["product"], [s["verdict"] for s in t["steps"]])
        for t in trials if t["part"] == "steps"
    ]
    assert steps == [
        (1, "fail", ["pass"]),
        (1, "fail", ["fail"]),
        (2, "pass", ["pass", "pass"]),
        (3, "fail", ["fail", "fail", "fail"]),
    ]
    assert main(SIGN) == 0
    assert main(DEMO) == 0
