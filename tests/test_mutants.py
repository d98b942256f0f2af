"""Deliberately broken signs must give a failing verdict, not a pass and
not a traceback.

Each test patches one sign in the running package and runs a verifying
command at a fixed seed; the command must exit 1.
"""

import json

from dimshift import derived, harness, resolutions
from dimshift.cli import main

# The flags of the lemmas workload and of the first sign workload.
LEMMAS = "verify-lemmas --seed 41 --m 2 --max-dim 8 --horizon 4 --trials 4".split()
SIGN = "verify-sign --seed 31 --m 2 --max-dim 12 --horizon 4 --trials 6".split()


def negate_thetas(monkeypatch):
    glue = resolutions._glue

    def negated(base, aug, sub, quot, thetas):
        return glue(base, aug, sub, quot, [-theta for theta in thetas])

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


def test_a_constant_sign_fails_the_sign_suite(monkeypatch):
    for module in (derived, harness):
        monkeypatch.setattr(module, "sign_factor", lambda n: 1)
    assert main(SIGN) == 1


def test_a_negated_connecting_map_fails_the_sign_suite(monkeypatch):
    snake = derived.snake_delta_matrix
    monkeypatch.setattr(derived, "snake_delta_matrix", lambda *args: -snake(*args))
    assert main(SIGN) == 1


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
