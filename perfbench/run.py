"""Run one workload of the dimshift benchmark and print its metrics.

    python3 perfbench/run.py --workload sign --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  A round runs each of the workload's
verifying commands (workloads.py) once, each in a fresh interpreter
(worker.py), one at a time: a closed loop with one client, so every
trial starts only after the previous one ends.  Rounds repeat until
--seconds have passed, and only whole rounds are run.  Every report is
checked against the independent computations in oracle.py and against
the first round's report.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, trial_p50_s
and peak_rss_mb.  --trace 1 runs one untraced round, then traced rounds
(spans.py), and prints the per-layer metrics and trace.overhead_s.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import check_report
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Every child has ended by then, so the run exits within 180 s.
LIMIT_S = 170.0
REPEAT_SHARE_OF = (
    "modules.canonical_form",
    "modules.hom_basis",
    "complexes.cohomology",
    "complexes.apply_F_complex",
    "resolutions.registry_resolution",
    "resolutions.is_F_acyclic",
)


class BenchError(Exception):
    """The benchmark could not run the program to the end."""


def run_child(argv: list, result: Path, deadline: float, spans: Path = None) -> dict:
    """Run worker.py for one verifying command (or, with no argv, only
    the import) and return its result with setup_s added."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(result)]
    if spans is not None:
        cmd.append(str(spans))
    cmd += ["--", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv) or 'import'} ran past the time limit") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{' '.join(argv) or 'import'} failed:\n{proc.stderr[-3000:]}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - spawned
    return out


def run_round(workload: str, deadline: float, traced: bool) -> list:
    out = OUT / workload
    results = []
    for j, argv in enumerate(WORKLOADS[workload]):
        report = out / f"report-{j}.json"
        report.unlink(missing_ok=True)
        spans = out / f"spans-{j}.tsv" if traced else None
        res = run_child(argv + ["--output", str(report)], out / f"result-{j}.json", deadline, spans)
        if not report.is_file():
            raise BenchError(f"{' '.join(argv)} wrote no report")
        res["argv"] = argv
        res["report_bytes"] = report.stat().st_size
        res["report"] = json.loads(report.read_text())
        results.append(res)
    return results


def run_rounds(workload: str, seconds: float, trace: bool, deadline: float) -> tuple:
    """Untraced and traced rounds: untraced ones for --seconds, or one
    untraced round and then traced ones for --seconds."""
    untraced, traced = [], []
    started = time.monotonic()
    if trace:
        untraced.append(run_round(workload, deadline, False))
    rounds = traced if trace else untraced
    longest = 0.0
    while not rounds or time.monotonic() - started < seconds:
        if rounds and time.monotonic() + longest > deadline:
            print("stopping early: another round would pass the time limit", file=sys.stderr)
            break
        begun = time.monotonic()
        rounds.append(run_round(workload, deadline, trace))
        longest = max(longest, time.monotonic() - begun)
    return untraced, traced


def check_rounds(rounds: list) -> tuple:
    """(attempted, failed, problems) over every command of every round."""
    attempted = failed = 0
    problems = []
    first = rounds[0]
    for rnd in rounds:
        for res, reference in zip(rnd, first):
            command = " ".join(res["argv"])
            a, f, found = check_report(res["argv"], res["report"])
            attempted += a
            failed += f
            problems += found
            if res["exit_code"] != (0 if f == 0 else 1):
                problems.append(f"{command}: exit code {res['exit_code']} with {f} failed trials")
            if len(res["trial_s"]) != a:
                problems.append(f"{command}: {len(res['trial_s'])} trials timed, {a} reported")
            if res["report"]["trials"] != reference["report"]["trials"]:
                problems.append(f"{command}: report differs from the first round's")
    return attempted, failed, problems


def round_wall(rnd: list) -> float:
    return sum(res["wall_s"] for res in rnd)


def end_to_end(rounds: list) -> dict:
    setups = [res["setup_s"] for rnd in rounds for res in rnd]
    # Every round repeats the same trials, so the median trial of a round
    # is one and the same trial (or pair of trials), and its median over
    # rounds is steady.  A median pooled over rounds would instead sit at
    # the extremes of two neighbouring trials' repeats.
    round_p50 = [statistics.median(t for res in rnd for t in res["trial_s"]) for rnd in rounds]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(round_wall(rnd) for rnd in rounds), "s"),
        "trial_p50_s": (statistics.median(round_p50), "s"),
        "peak_rss_mb": (
            statistics.median(max(res["peak_rss_mb"] for res in rnd) for rnd in rounds),
            "MB",
        ),
    }


def per_layer(traced: list, untraced: list) -> dict:
    """Per-round layer totals (median over the traced rounds)."""
    per_round = []
    for rnd in traced:
        total = {}
        for res in rnd:
            for name, value in res["layers"].items():
                if name.startswith("linalg.max_"):
                    total[name] = max(total.get(name, 0), value)
                else:
                    total[name] = total.get(name, 0) + value
        total["serialize.report_bytes"] = sum(res["report_bytes"] for res in rnd)
        per_round.append(total)

    def median(name):
        return statistics.median(t[name] for t in per_round)

    metrics = {}
    for name in per_round[0]:
        if name.endswith(".calls"):
            metrics[name] = (median(name), "count")
        elif name.endswith(".self_s"):
            metrics[name] = (median(name), "s")
    metrics["linalg.matrix_new.entries"] = (median("linalg.matrix_new.entries"), "count")
    metrics["linalg.matmul.operand_density"] = (
        statistics.median(
            t["linalg.matmul.operand_nonzero"] / max(1, t["linalg.matmul.operand_entries"])
            for t in per_round
        ),
        "ratio",
    )
    metrics["linalg.max_matrix_dim"] = (median("linalg.max_matrix_dim"), "count")
    metrics["linalg.max_bit_length"] = (median("linalg.max_bit_length"), "bits")
    metrics["serialize.report_bytes"] = (median("serialize.report_bytes"), "bytes")
    for name in REPEAT_SHARE_OF:
        metrics[f"{name}.repeat_share"] = (
            statistics.median(t[f"{name}.repeats"] / max(1, t[f"{name}.calls"]) for t in per_round),
            "ratio",
        )
    metrics["trace.overhead_s"] = (
        statistics.median(round_wall(rnd) for rnd in traced)
        - statistics.median(round_wall(rnd) for rnd in untraced),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0,
        help="accepted and echoed; the workloads pin the program's own seeds (README.md)",
    )
    parser.add_argument("--seconds", type=float, default=38.0, help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + LIMIT_S
    # Turn a termination request into an exception, so that the running
    # child is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dimshift" / "__init__.py").is_file():
        print(f"error: no dimshift package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    try:
        # Compile the byte code once, so no timed start pays for it.
        run_child([], OUT / args.workload / "import.json", deadline)
        untraced, traced = run_rounds(args.workload, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_rounds(untraced + traced)
    for problem in sorted(set(problems))[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)

    backends = {res["backend"] for rnd in untraced + traced for res in rnd}
    print(f"workload {args.workload}, seed {args.seed} (unused, see README.md), "
          f"scalar backend: {', '.join(sorted(backends))}")
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; "
          f"trials: {attempted} attempted, {failed} failed")
    for rnd in untraced + traced:
        print("round wall_s:", " + ".join(f"{res['wall_s']:.3f}" for res in rnd),
              "traced" if "layers" in rnd[0] else "")
    if traced:
        spans = sum(res["spans"] for res in traced[-1])
        print(f"last traced round: {spans} spans in {OUT / args.workload}/spans-*.tsv")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
