"""One verifying command in a fresh interpreter, timed from outside.

    python3 perfbench/worker.py RESULT [SPANS] -- <dimshift argv...>

Imports dimshift from the checkout's src/, notes the moment it is ready,
then runs dimshift.cli.main(argv) the way the console script does.  With
SPANS, every layer is traced (see spans.py) and the spans are written
there at the end.  With no argv after "--", it only imports the package,
which leaves the byte code compiled for the timed runs.

RESULT receives one JSON object: when the package was ready (monotonic
clock, shared with the parent), the command's wall time and exit code,
the duration of each trial, the peak resident memory, the scalar
backend and, when traced, the per-layer totals.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dimshift.cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def install_trial_marks(events: list, tracer=None):
    """Record a trial boundary at each call the suites make once per trial.

    A trial opens with gen_random_functor in the randomized suites and
    with the registry lookup of the next degree in the demo; it closes
    where the next one opens or where its suite returns.
    """
    from dimshift import cli, harness
    from dimshift.resolutions import ResolutionRegistry

    def opening(fn, caller=None):
        def wrapper(*args, **kwargs):
            if caller is None or sys._getframe(1).f_code is caller:
                events.append(("open", time.monotonic()))
                if tracer is not None:
                    tracer.trial += 1
            return fn(*args, **kwargs)

        return wrapper

    def closing(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append(("close", time.monotonic()))
            if tracer is not None:
                tracer.trial = -1
            return result

        return wrapper

    harness.gen_random_functor = opening(harness.gen_random_functor)
    ResolutionRegistry.resolution = opening(
        ResolutionRegistry.resolution, harness.run_demo.__code__
    )
    for name in ("run_sign_suite", "run_connecting_suite", "run_step_sign_suite", "run_demo"):
        setattr(cli, name, closing(getattr(cli, name)))


def trial_durations(events: list) -> list:
    return [
        later[1] - t
        for (kind, t), later in zip(events, events[1:])
        if kind == "open"
    ]


def main() -> int:
    split = sys.argv.index("--")
    paths, argv = sys.argv[1:split], sys.argv[split + 1 :]
    result_path = Path(paths[0])
    spans_path = Path(paths[1]) if len(paths) > 1 else None
    if not argv:
        result_path.write_text(json.dumps({"ready": READY}))
        return 0

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    events = []
    install_trial_marks(events, tracer)

    started = time.monotonic()
    code = dimshift.cli.main(argv)
    wall = time.monotonic() - started

    result = {
        "ready": READY,
        "wall_s": wall,
        "exit_code": code,
        "trial_s": trial_durations(events),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": dimshift.linalg.Rat.__module__,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["spans"] = tracer.write_spans(spans_path)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
