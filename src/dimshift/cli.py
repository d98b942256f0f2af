"""Command-line surface.

Subcommands: demo, verify-sign, verify-lemmas, sign-table, dump.
Every verifying subcommand exits 0 exactly when its aggregate verdict
is a pass and 1 when it fails, printing the first failing trial; a
flag value the configuration rejects prints one line and exits 2.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import fields
from typing import Optional

from .derived import sign_factor
from .harness import (
    ConfigError,
    GeneratorConfig,
    RunReport,
    gen_padded_resolution,
    gen_random_functor,
    gen_random_map,
    gen_random_module,
    run_connecting_suite,
    run_demo,
    run_sign_suite,
    run_step_sign_suite,
)
from .complexes import apply_F_complex
from .resolutions import ResolutionRegistry
from .serialize import (
    complex_to_json,
    dumps,
    module_map_to_json,
    module_to_json,
    report_to_markdown,
    resolution_to_json,
)


def _add_generator_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--m", type=int, default=2, help="truncation order of k[x]/(x^m)")
    sub.add_argument("--seed", type=int, default=0, help="root seed for the instance stream")
    sub.add_argument("--trials", type=int, default=50, help="number of randomized trials")
    sub.add_argument("--max-dim", type=int, default=8, help="largest random module dimension")
    sub.add_argument("--max-padding", type=int, default=2, help="most contractible pads per resolution")
    sub.add_argument("--horizon", type=int, default=4, help="largest cohomological degree exercised")


def _add_output_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--output", type=str, default=None, help="write the report to this path")
    sub.add_argument("--format", choices=("json", "md"), default="json", help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimshift",
        description=(
            "Exact verification of the sign relating the dimension-shifting "
            "and comparison isomorphisms for derived Hom over k[x]/(x^m)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="worked example over the simple module")
    demo.add_argument("--m", type=int, default=2)
    demo.add_argument("--n", type=int, default=6, help="verify degrees 1..n")
    _add_output_flags(demo)

    sign = sub.add_parser("verify-sign", help="randomized sign identity suite")
    _add_generator_flags(sign)
    _add_output_flags(sign)

    lemmas = sub.add_parser(
        "verify-lemmas", help="connecting-square and shift-step suites"
    )
    _add_generator_flags(lemmas)
    _add_output_flags(lemmas)

    table = sub.add_parser("sign-table", help="print the sign for degrees 1..n")
    table.add_argument("--n", "--max", dest="n", type=int, default=8)

    dump = sub.add_parser("dump", help="serialize a generated object to JSON")
    dump.add_argument(
        "--what",
        choices=("module", "map", "resolution", "fcomplex"),
        default="resolution",
    )
    _add_generator_flags(dump)
    dump.add_argument("--output", type=str, default=None)
    return parser


def _config_from_args(args) -> GeneratorConfig:
    """Each generator flag's dest is the GeneratorConfig field it sets."""
    return GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields(GeneratorConfig)})


def _emit_report(report: RunReport, args) -> int:
    payload = report.to_json_dict()
    if args.format == "md":
        text = report_to_markdown(payload)
    else:
        text = dumps(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    suite = report.config.get("suite", "suite")
    if report.passed:
        print(f"{suite}: PASS ({len(report.trials)} trials, {report.wall_time_s:.2f}s)")
    else:
        print(f"{suite}: FAIL ({report.wall_time_s:.2f}s)")
        for trial in report.trials:
            if trial.get("verdict") != "pass":
                print("first failing trial:", trial)
                break
    if args.output:
        print(f"report written to {args.output}")
    return 0 if report.passed else 1


def _cmd_demo(args) -> int:
    report = run_demo(args.m, args.n)
    for row in report.trials:
        print(
            f"n={row['n']}: c^n = {row['c']}, d^n = {row['d']}, "
            f"sign = {row['sign']:+d}, {row['verdict']}"
        )
    return _emit_report(report, args)


def _cmd_verify_sign(args) -> int:
    return _emit_report(run_sign_suite(args.config), args)


def _cmd_verify_lemmas(args) -> int:
    cfg = args.config
    registry = ResolutionRegistry()
    connecting = run_connecting_suite(cfg, registry)
    steps = run_step_sign_suite(cfg, registry)
    merged = RunReport(
        {"suite": "verify-lemmas", **{k: v for k, v in connecting.config.items() if k != "suite"}},
        [
            {"part": "connecting", **t} for t in connecting.trials
        ]
        + [{"part": "steps", **t} for t in steps.trials],
        connecting.passed and steps.passed,
        connecting.wall_time_s + steps.wall_time_s,
    )
    return _emit_report(merged, args)


def _cmd_sign_table(args) -> int:
    print(" ".join(f"{sign_factor(n):+d}" for n in range(1, args.n + 1)))
    return 0


def _cmd_dump(args) -> int:
    cfg = args.config
    rng = random.Random(cfg.seed)
    registry = ResolutionRegistry()
    M = gen_random_module(cfg, rng)
    if args.what == "module":
        payload = module_to_json(M)
    elif args.what == "map":
        N = gen_random_module(cfg, rng)
        payload = module_map_to_json(gen_random_map(M, N, rng))
    elif args.what == "resolution":
        payload = resolution_to_json(
            gen_padded_resolution(M, cfg.horizon, cfg, rng, registry)
        )
    else:  # fcomplex: F applied to a resolution
        F = gen_random_functor(cfg, rng)
        R = gen_padded_resolution(M, cfg.horizon, cfg, rng, registry)
        payload = complex_to_json(apply_F_complex(F, R.complex))
    text = dumps(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"written to {args.output}")
    else:
        print(text, end="")
    return 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("demo", "sign-table") and args.n < 1:
            raise ConfigError("n", "must be at least 1")
        if args.command == "demo":
            GeneratorConfig(m=args.m)  # the same --m check as the suites'
        elif args.command != "sign-table":
            args.config = _config_from_args(args)
    except ConfigError as exc:
        flag = "--" + exc.field.replace("_", "-")
        print(f"{args.command}: {flag} {exc.requirement}", file=sys.stderr)
        return 2
    handlers = {
        "demo": _cmd_demo,
        "verify-sign": _cmd_verify_sign,
        "verify-lemmas": _cmd_verify_lemmas,
        "sign-table": _cmd_sign_table,
        "dump": _cmd_dump,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
