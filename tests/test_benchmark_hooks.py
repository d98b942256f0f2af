"""The benchmark's hooks still find what they wrap.

perfbench/spans.py traces named functions of every layer, and
perfbench/worker.py marks trial boundaries on a few more.  A rename in
src/ would otherwise first show up as a failed traced run.
"""

import importlib.util
from pathlib import Path

from dimshift import cli, harness

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_on_its_owner():
    layers = load_spans()._public_layers()
    assert layers
    for metric, owner, attribute, _ in layers:
        assert callable(getattr(owner, attribute, None)), metric


def test_every_traced_method_is_defined_on_its_own_class():
    # install() wraps owner.__dict__[attribute]: an __init__ inherited
    # from object or tuple passes the check above, but is not the
    # constructor the span should time.
    for metric, owner, attribute, _ in load_spans()._public_layers():
        if isinstance(owner, type):
            assert attribute in vars(owner), metric


def test_the_trial_marks_find_their_hooks():
    # The suites the CLI calls through its module globals close a trial.
    for name in ("run_sign_suite", "run_connecting_suite", "run_step_sign_suite", "run_demo"):
        assert callable(getattr(cli, name, None)), name
    # A randomized trial opens with the functor draw, a demo degree
    # with the demo's own registry lookup.
    assert callable(harness.gen_random_functor)
    assert "resolution" in harness.run_demo.__code__.co_names
