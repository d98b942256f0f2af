"""JSON and markdown serialization.

Rational scalars travel as strings "p/q", shortened to "p" for whole
numbers, so round trips are exact in every file format.  Dictionaries
are assembled in a fixed key order and dumped without re-sorting, which
is what makes reports byte-for-byte reproducible.
"""

from __future__ import annotations

import json

from .linalg import RationalMatrix
from .modules import LambdaModule, ModuleMap, TruncatedAlgebra
from .complexes import ModuleComplex, VectorComplex
from .resolutions import Resolution


def matrix_to_lists(M: RationalMatrix) -> list:
    return [[str(x) for x in row] for row in M.rows]


def matrix_from_lists(rows: list, ncols: int) -> RationalMatrix:
    return RationalMatrix(rows, ncols)


def module_to_json(M: LambdaModule) -> dict:
    return {"m": M.algebra.m, "dim": M.dim, "X": matrix_to_lists(M.X)}


def module_from_json(data: dict) -> LambdaModule:
    algebra = TruncatedAlgebra(data["m"])
    X = matrix_from_lists(data["X"], data["dim"])
    return LambdaModule(algebra, X)


def module_map_to_json(f: ModuleMap) -> dict:
    return {
        "src": module_to_json(f.src),
        "dst": module_to_json(f.dst),
        "f": matrix_to_lists(f.matrix),
    }


def module_map_from_json(data: dict) -> ModuleMap:
    src = module_from_json(data["src"])
    dst = module_from_json(data["dst"])
    return ModuleMap(src, dst, matrix_from_lists(data["f"], src.dim))


def complex_to_json(C: VectorComplex) -> dict:
    if isinstance(C, ModuleComplex):
        objects = [module_to_json(M) for M in C.objects]
    else:
        objects = list(C.dims)
    differentials = [matrix_to_lists(d) for d in C.differentials]
    return {"horizon": C.horizon, "objects": objects, "differentials": differentials}


def resolution_to_json(R: Resolution) -> dict:
    data = complex_to_json(R.complex)
    data["base"] = module_to_json(R.base)
    data["augmentation"] = matrix_to_lists(R.augmentation.matrix)
    return data


def dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def report_to_markdown(report: dict) -> str:
    """Markdown rendering of a run report: config block, one table row
    per trial, aggregate verdict line."""
    lines = []
    config = report.get("config", {})
    suite = config.get("suite", "report")
    lines.append(f"# {suite}")
    lines.append("")
    for key, value in config.items():
        if key != "suite":
            lines.append(f"- {key}: {value}")
    lines.append("")
    trials = report.get("trials", [])
    if trials:
        # Merged reports mix trial shapes, so take the union of keys in
        # first-seen order and leave the holes blank.
        columns = []
        for t in trials:
            for k in t:
                if k not in columns and k not in ("c", "d", "steps"):
                    columns.append(k)
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join("---" for _ in columns) + "|")
        for t in trials:
            lines.append(
                "| " + " | ".join(str(t.get(k, "")) for k in columns) + " |"
            )
        lines.append("")
    verdict = "pass" if report.get("pass") else "FAIL"
    lines.append(f"**aggregate: {verdict}**")
    lines.append("")
    return "\n".join(lines)
