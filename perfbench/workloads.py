"""The verifying commands one round of each workload runs.

Each command runs in its own fresh interpreter, one after another.  The
program's root seeds are fixed here, so every round and every run of a
workload does the same work; see README.md for why the benchmark seed
does not move them.
"""

WORKLOADS = {
    # Criterion-3 shapes: random conjugates with rational entries, so
    # almost every module is new and the caches mostly miss.
    "sign": (
        ["verify-sign", "--seed", "31", "--m", "2", "--max-dim", "12", "--horizon", "4", "--trials", "6"],
        ["verify-sign", "--seed", "32", "--m", "3", "--max-dim", "12", "--horizon", "4", "--trials", "3"],
    ),
    # Criterion-4 shape: connecting squares and shift steps over one
    # registry; the only workload that builds cylinder resolutions.
    "lemmas": (
        ["verify-lemmas", "--seed", "41", "--m", "2", "--max-dim", "8", "--horizon", "4", "--trials", "4"],
    ),
    # The worked example M = k, F = Hom(k, -), deeper than the default:
    # every object repeats, so the caches hit.
    "worked-deep": (
        ["demo", "--m", "3", "--n", "9"],
    ),
}
