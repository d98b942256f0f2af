"""Serialization round trips and report formatting."""

import json
import random

import pytest

from dimshift.cli import main
from dimshift.linalg import Rat, RationalMatrix
from dimshift.serialize import (
    complex_to_json,
    dumps,
    matrix_from_lists,
    matrix_to_lists,
    module_from_json,
    module_map_from_json,
    module_map_to_json,
    module_to_json,
    report_to_markdown,
    resolution_to_json,
)
from dimshift.harness import GeneratorConfig, gen_random_map, gen_random_module
from dimshift.resolutions import ResolutionRegistry


def test_rational_strings_round_trip():
    values = (Rat(0), Rat(5), Rat(-3), Rat(1) / Rat(2), Rat(-7) / Rat(3), Rat(4))
    (strings,) = matrix_to_lists(RationalMatrix([values], len(values)))
    assert strings == ["0", "5", "-3", "1/2", "-7/3", "4"]
    assert [Rat(s) for s in strings] == list(values)


def test_matrix_round_trip():
    M = RationalMatrix([[Rat(1) / Rat(2), Rat(0)], [Rat(-3), Rat(7)]], 2)
    assert matrix_from_lists(matrix_to_lists(M), 2) == M
    empty = RationalMatrix.zeros(0, 3)
    assert matrix_from_lists(matrix_to_lists(empty), 3) == empty


def test_module_and_map_round_trip():
    rng = random.Random(91)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5)
    A = gen_random_module(cfg, rng)
    B = gen_random_module(cfg, rng)
    f = gen_random_map(A, B, rng)
    assert module_from_json(module_to_json(A)) == A
    g = module_map_from_json(module_map_to_json(f))
    assert g == f


def test_resolution_and_complex_payloads_are_json_safe():
    rng = random.Random(92)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=4)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, rng)
    R = registry.resolution(Mod, 3)
    payload = resolution_to_json(R)
    parsed = json.loads(dumps(payload))
    assert parsed["horizon"] == 3
    assert module_from_json(parsed["base"]) == Mod
    cpx = json.loads(dumps(complex_to_json(R.complex)))
    assert cpx["horizon"] == 3


def test_report_markdown_has_a_table():
    report = {
        "config": {"suite": "verify-sign", "seed": 0},
        "trials": [
            {"seed": 1, "n": 2, "sign": -1, "verdict": "pass", "c": [], "d": []}
        ],
        "pass": True,
        "wall_time_s": 0.5,
    }
    md = report_to_markdown(report)
    assert "|" in md and "verdict" in md
    assert "pass" in md


def test_report_markdown_handles_mixed_trial_shapes():
    report = {
        "config": {"suite": "verify-lemmas", "seed": 0},
        "trials": [
            {"part": "connecting", "seed": 1, "degree": 0, "verdict": "pass"},
            {"part": "steps", "seed": 2, "n": 3, "verdict": "pass", "steps": []},
        ],
        "pass": True,
        "wall_time_s": 0.1,
    }
    md = report_to_markdown(report)
    header = next(line for line in md.splitlines() if line.startswith("|"))
    assert "degree" in header and "n" in header
    rows = [line for line in md.splitlines() if line.startswith("|")]
    # every row has the full column count, holes left blank
    assert all(row.count("|") == rows[0].count("|") for row in rows)


# -- report and dump files read back ------------------------------------------

SMALL = ["--m", "3", "--seed", "5", "--trials", "2", "--max-dim", "5", "--horizon", "2"]


@pytest.mark.parametrize("argv", [
    ["verify-sign", *SMALL],
    ["verify-lemmas", *SMALL],
    ["demo", "--m", "3", "--n", "3"],
    *(["dump", "--what", what, *SMALL] for what in ("module", "map", "resolution", "fcomplex")),
], ids=lambda argv: "-".join(argv[:3:2]) if argv[0] == "dump" else argv[0])
def test_written_json_round_trips_byte_for_byte(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    data = json.loads(text)
    assert dumps(data) == text
    rebuild = {"module": (module_from_json, module_to_json), "map": (module_map_from_json, module_map_to_json)}
    if argv[0] == "dump" and argv[2] in rebuild:
        from_json, to_json = rebuild[argv[2]]
        value = from_json(data)
        assert from_json(json.loads(dumps(to_json(value)))) == value
        assert dumps(to_json(value)) == text
