"""Instance generators, suite runners, and the command line."""

import json
import random

import pytest

from dimshift import cli, harness
from dimshift.cli import main
from dimshift.harness import (
    GeneratorConfig,
    _trial_seeds,
    gen_padded_resolution,
    gen_random_module,
    gen_random_ses,
    run_connecting_suite,
    run_demo,
    run_sign_suite,
    run_step_sign_suite,
)
from dimshift.linalg import RationalMatrix
from dimshift.modules import is_injective
from dimshift.resolutions import ResolutionRegistry
from dimshift.serialize import module_from_json, module_map_from_json


def scrub(report_dict):
    out = dict(report_dict)
    out.pop("wall_time_s")
    return out


# -- generators ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(m=1)
    with pytest.raises(ValueError):
        GeneratorConfig(horizon=1)
    with pytest.raises(ValueError):
        GeneratorConfig(trials=0)
    with pytest.raises(ValueError):
        GeneratorConfig(max_dim=0)
    with pytest.raises(ValueError):
        GeneratorConfig(max_padding=-1)


def test_module_generation_is_seed_deterministic():
    cfg = GeneratorConfig(seed=0, m=3, max_dim=7)
    a = gen_random_module(cfg, random.Random(5))
    b = gen_random_module(cfg, random.Random(5))
    assert a == b
    assert 1 <= a.dim <= 7


def test_ses_generation_is_valid_and_deterministic():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6)
    e1 = gen_random_ses(cfg, random.Random(7))
    e2 = gen_random_ses(cfg, random.Random(7))
    assert e1.a_to_c == e2.a_to_c and e1.c_to_b == e2.c_to_b
    assert e1.sub.dim >= 1 and e1.quot.dim >= 1


def test_padded_resolutions_are_valid_and_plain_without_padding():
    cfg0 = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=0)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg0, random.Random(8))
    plain = gen_padded_resolution(Mod, 3, cfg0, random.Random(8), registry)
    assert plain is registry.resolution(Mod, 3)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=2)
    padded = gen_padded_resolution(Mod, 3, cfg, random.Random(3), registry)
    assert padded.base == Mod
    assert all(is_injective(J) for J in padded.objects)


def test_padded_resolution_is_the_registry_resolution_plus_identity_pads():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=3)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, random.Random(8))
    horizon = 4
    padded = gen_padded_resolution(Mod, horizon, cfg, random.Random(0), registry)
    base = registry.resolution(Mod, horizon)
    # The generator's draws, in order: the pad count, then per pad its
    # degree q and the rank of the free module E.
    draws = random.Random(0)
    pads = []
    for _ in range(draws.randint(0, cfg.max_padding)):
        q = draws.randint(0, horizon - 1)
        pads.append((q, cfg.m * draws.randint(1, 2)))
    # Three pads, two of them sharing a degree with the third, so the
    # block order shows.
    assert [q for q, _ in pads] == [3, 2, 3]

    def block(A, rows, cols):
        return RationalMatrix([A.row(i)[cols[0]:cols[1]] for i in range(*rows)], cols[1] - cols[0])

    dims = [J.dim for J in base.objects]
    offsets = []  # per pad: its block offset in degree q and in degree q + 1
    extra = [0] * (horizon + 1)
    for q, e in pads:
        offsets.append((dims[q] + extra[q], dims[q + 1] + extra[q + 1]))
        extra[q] += e
        extra[q + 1] += e
    assert [J.dim for J in padded.objects] == [d + x for d, x in zip(dims, extra)]
    # The leading block is the registry resolution, and nothing else
    # touches it.
    for p in range(horizon + 1):
        X = padded.objects[p].X
        assert block(X, (0, dims[p]), (0, dims[p])) == base.objects[p].X
        assert block(X, (0, dims[p]), (dims[p], X.ncols)).is_zero()
        assert block(X, (dims[p], X.nrows), (0, dims[p])).is_zero()
    for p in range(horizon):
        d = padded.differential(p).matrix
        assert block(d, (0, dims[p + 1]), (0, dims[p])) == base.differential(p).matrix
        assert block(d, (0, dims[p + 1]), (dims[p], d.ncols)).is_zero()
        assert block(d, (dims[p + 1], d.nrows), (0, dims[p])).is_zero()
    aug = padded.augmentation.matrix
    assert block(aug, (0, dims[0]), (0, Mod.dim)) == base.augmentation.matrix
    assert block(aug, (dims[0], aug.nrows), (0, Mod.dim)).is_zero()
    # Each pad is an identity block from degree q to degree q + 1.
    for (q, e), (src, dst) in zip(pads, offsets):
        d = padded.differential(q).matrix
        assert block(d, (dst, dst + e), (src, src + e)) == RationalMatrix.identity(e)
    pad_total = sum(
        sum(1 for x in padded.differential(p).matrix.rows[i] if x)
        for p in range(horizon)
        for i in range(dims[p + 1], padded.objects[p + 1].dim)
    )
    assert pad_total == sum(e for _, e in pads)


def test_trial_seed_stream_is_stable():
    cfg = GeneratorConfig(seed=123, trials=4)
    assert list(_trial_seeds(cfg)) == list(_trial_seeds(cfg))


# -- suites --------------------------------------------------------------------

def test_sign_suite_small_run_passes_and_reproduces():
    cfg = GeneratorConfig(seed=2, m=2, max_dim=6, horizon=3, trials=3)
    r1 = run_sign_suite(cfg)
    r2 = run_sign_suite(cfg)
    assert r1.passed and r2.passed
    assert scrub(r1.to_json_dict()) == scrub(r2.to_json_dict())
    trial = r1.to_json_dict()["trials"][0]
    assert set(trial) == {"seed", "n", "sign", "verdict", "c", "d"}


def test_connecting_suite_small_run_passes():
    cfg = GeneratorConfig(seed=3, m=2, max_dim=6, horizon=3, trials=2)
    report = run_connecting_suite(cfg)
    assert report.passed
    for trial in report.trials:
        assert trial["square"] == "pass" and trial["independent"] == "pass"


def test_step_sign_suite_small_run_passes():
    cfg = GeneratorConfig(seed=4, m=2, max_dim=6, horizon=3, trials=2)
    report = run_step_sign_suite(cfg)
    assert report.passed
    for trial in report.trials:
        assert trial["product"] == "pass"
        for step in trial["steps"]:
            assert step["verdict"] == "pass"


def test_demo_matches_the_sign_table():
    report = run_demo(2, 4)
    assert report.passed
    for trial in report.trials:
        assert trial["c"] == [["1"]]
        assert trial["d"] == [[str(trial["sign"])]]


# -- command line ---------------------------------------------------------------

def test_cli_sign_table(capsys):
    assert main(["sign-table", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.split() == ["-1", "-1", "+1", "+1", "-1", "-1", "+1", "+1"]


def test_cli_demo_writes_a_report(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert main(["demo", "--m", "2", "--n", "3", "--output", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert {t["n"] for t in payload["trials"]} == {1, 2, 3}


def test_cli_verify_sign_schema_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = ["verify-sign", "--trials", "2", "--max-dim", "5", "--horizon", "2"]
    assert main(flags + ["--output", str(a)]) == 0
    assert main(flags + ["--output", str(b)]) == 0
    capsys.readouterr()
    pa = json.loads(a.read_text())
    pb = json.loads(b.read_text())
    assert set(pa) == {"config", "trials", "pass", "wall_time_s"}
    pa.pop("wall_time_s"), pb.pop("wall_time_s")
    assert pa == pb
    assert pa["pass"] is True


def test_cli_verify_lemmas_runs_both_parts(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = main(
        ["verify-lemmas", "--trials", "1", "--max-dim", "5", "--horizon", "2",
         "--output", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    parts = {t["part"] for t in payload["trials"]}
    assert parts == {"connecting", "steps"}


def test_cli_markdown_reports(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(
        ["verify-sign", "--trials", "1", "--format", "md", "--output", str(out)]
    ) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "|" in text and "pass" in text


def test_cli_dump_round_trips(tmp_path, capsys):
    module_path = tmp_path / "module.json"
    assert main(["dump", "--what", "module", "--seed", "9", "--output", str(module_path)]) == 0
    capsys.readouterr()
    data = json.loads(module_path.read_text())
    Mod = module_from_json(data)
    assert Mod.dim == len(data["X"])
    map_path = tmp_path / "map.json"
    assert main(["dump", "--what", "map", "--seed", "9", "--output", str(map_path)]) == 0
    capsys.readouterr()
    f = module_map_from_json(json.loads(map_path.read_text()))
    assert f.matrix.nrows == f.dst.dim
    res_path = tmp_path / "res.json"
    assert main(["dump", "--what", "resolution", "--seed", "9", "--output", str(res_path)]) == 0
    capsys.readouterr()
    payload = json.loads(res_path.read_text())
    assert "augmentation" in payload and "objects" in payload
    fc_path = tmp_path / "fc.json"
    assert main(["dump", "--what", "fcomplex", "--seed", "9", "--output", str(fc_path)]) == 0
    capsys.readouterr()
    payload = json.loads(fc_path.read_text())
    assert "differentials" in payload


def test_cli_reports_failure_exit_code_on_bad_flags(capsys):
    with pytest.raises(SystemExit):
        main(["verify-sign", "--format", "xml"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-sign", "--m", "1"],
        ["verify-lemmas", "--trials", "0"],
        ["verify-sign", "--horizon", "1"],
        ["dump", "--max-dim", "0"],
        ["verify-sign", "--max-padding", "-1"],
        ["demo", "--m", "1"],
        ["demo", "--n", "0"],
        ["sign-table", "--n", "0"],
    ],
)
def test_cli_bad_flag_values_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    # The line names the rejected flag as it was typed.
    command, flag = argv[:2]
    assert captured.err.startswith(f"{command}: {flag} ")


@pytest.mark.parametrize("command", ["demo", "verify-sign", "dump"])
def test_cli_unwritable_output_exits_2_before_any_trial(command, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a trial ran")

    for name in ("run_demo", "run_sign_suite", "gen_random_module"):
        monkeypatch.setattr(cli, name, no_run)
    path = tmp_path / "no" / "such" / "r.json"
    assert main([command, "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command}: --output {path}: No such file or directory\n"
    assert not path.parent.exists()


def test_cli_bad_m_gives_one_message_for_every_command(capsys):
    lines = []
    for command in ("verify-sign", "demo"):
        assert main([command, "--m", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ")
        lines.append(err[len(command) + 2:])
    assert lines[0] == lines[1]


# -- a trial that crashes -----------------------------------------------------

@pytest.fixture
def crash_second_sign_check(monkeypatch):
    real = harness.verify_sign_identity
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ZeroDivisionError("division by zero")
        return real(*args)

    monkeypatch.setattr(harness, "verify_sign_identity", flaky)


def test_a_crashing_sign_trial_keeps_its_report(crash_second_sign_check, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify-sign", "--trials", "3", "--output", str(out)]) == 1
    capsys.readouterr()
    trials = json.loads(out.read_text())["trials"]
    assert [t["seed"] for t in trials] == list(_trial_seeds(GeneratorConfig(trials=3)))
    assert [t["verdict"] for t in trials] == ["pass", "fail", "pass"]
    assert trials[1]["error"].startswith("ZeroDivisionError")


def test_a_crashing_demo_degree_keeps_its_report(crash_second_sign_check, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["demo", "--n", "3", "--output", str(out)]) == 1
    assert "n=2: fail, ZeroDivisionError" in capsys.readouterr().out
    trials = json.loads(out.read_text())["trials"]
    assert [t["n"] for t in trials] == [1, 2, 3]
    assert [t["verdict"] for t in trials] == ["pass", "fail", "pass"]
    assert trials[1]["error"].startswith("ZeroDivisionError")
