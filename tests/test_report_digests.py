"""Report bytes pinned across commits.

Criterion 7 compares two runs of the same code; these digests compare
against the bytes an earlier commit wrote, so a refactor that changes
any report byte (apart from wall_time_s) fails here.  A change that
means to alter reports updates the digests and says why.
"""

import hashlib
import importlib
import pkgutil

import pytest

import dimshift
from dimshift.cli import main
from dimshift.harness import (
    GeneratorConfig,
    run_connecting_suite,
    run_demo,
    run_sign_suite,
    run_step_sign_suite,
)
from dimshift.serialize import dumps


def package_memos() -> list:
    """Every function of a dimshift module that has a cache_clear, each
    once however many modules import it."""
    found = {}
    for info in pkgutil.iter_modules(dimshift.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"dimshift.{info.name}")
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


MEMOS = package_memos()


def test_the_cold_run_finds_the_memos():
    names = sorted(memo.__qualname__ for memo in MEMOS)
    assert names == sorted(set(names))
    assert {
        "canonical_form", "direct_sum", "_cohomology", "apply_F_map", "image_factorization",
        "_canonical_extension",
    } <= set(names)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    payload = report.to_json_dict()
    payload.pop("wall_time_s")
    return sha256(dumps(payload))


PINNED = [
    (
        "verify-sign",
        lambda: run_sign_suite(GeneratorConfig(seed=2, m=2, max_dim=6, horizon=3, trials=3)),
        "47bda7c15f2d0d40c925684a6bea5b62e5676b13282f02f684466bc1f251114a",
    ),
    (
        "lemma-connecting",
        lambda: run_connecting_suite(GeneratorConfig(seed=3, m=2, max_dim=6, horizon=3, trials=2)),
        "f3ae90e7626703974edbe6f5a932b043ef1b334c09077b6e6672a990ffb2bbb4",
    ),
    (
        "lemma-steps",
        lambda: run_step_sign_suite(GeneratorConfig(seed=4, m=2, max_dim=6, horizon=3, trials=2)),
        "42a701e3f37eb76de1db67e1561521131b5bd871d85128d04fb67d6b1b3f19d0",
    ),
    (
        "demo",
        lambda: run_demo(3, 5),
        "28faee3e2d57c668ce0fe59bf832be0c169e7784b0cda93058da740d131aec1a",
    ),
    (
        "demo-deep",
        lambda: run_demo(3, 9),
        "e2330de4348037e14eeaf3cf245225f8777e37c999476ec48a27de453f6d5cd6",
    ),
]


# Warm runs the same work once first so every memo already holds it;
# cold empties the memos.  Both must write the same bytes.
@pytest.mark.parametrize(
    "run, digest, cold",
    [
        pytest.param(run, digest, cold, id=name + ("-cold" if cold else ""))
        for name, run, digest in PINNED
        for cold in (False, True)
    ],
)
def test_report_bytes_are_pinned(run, digest, cold):
    if cold:
        for memo in MEMOS:
            memo.cache_clear()
            assert memo.cache_info().currsize == 0
    else:
        run()
    assert report_digest(run()) == digest


def test_padded_resolution_dump_is_pinned(capsys):
    # Seed 0 draws two pads, of dimensions 2 and 4, that both sit in
    # degree 1, so the block order of the pads shows in the bytes.
    assert main(["dump", "--what", "resolution", "--seed", "0", "--max-dim", "5"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "8be9b45064a250471da8b0dad6f370c48e9f319b4a56f40cd71419b8abebc72d"


def test_functor_complex_dump_is_pinned(capsys):
    # The vector-level branch of complex_to_json: horizon 4, dims
    # [10, 8, 4, 8, 8], 16 nonzero differential entries.
    assert main(["dump", "--what", "fcomplex", "--seed", "0", "--max-dim", "5"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "67595ebe59798d09459ab60c84369cb970bbe0dda368e4ee557a1f219f23fb12"
