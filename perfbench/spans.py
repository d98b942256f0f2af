"""Span recorder for the traced run.

Wraps the public functions of each dimshift layer at run time, with no
change to the package: a module-level function is replaced in every
dimshift namespace that imported it, so calls across modules are
counted too, and a constructor or method is replaced on its class.

Every call becomes a span (layer function, start, end, parent span,
trial id), kept in compact arrays in memory and written out once at the
end.  Self time is a span's duration minus the part its traced children
cover.  The bookkeeping a wrapper does for counters and repeat keys is
charged to no span, so it lands in the tracing overhead rather than in
any layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

clock = time.perf_counter


def _public_layers():
    """(metric prefix, owner, attribute, repeat key) for every traced
    function; a repeat key maps the call's arguments to what counts as
    "the same argument" for the repeat share."""
    from dimshift import cli, complexes, derived, harness, linalg, modules, resolutions

    def first(*args):
        return args[0]

    def first_two(*args):
        return args[0], args[1]

    def registry_args(registry, M, horizon):
        return M, horizon

    def acyclic_args(F, M, horizon, registry):
        return F, M, horizon

    return [
        ("linalg.matrix_new", linalg.RationalMatrix, "__init__", None),
        ("linalg.matmul", linalg.RationalMatrix, "__matmul__", None),
        ("linalg.rref", linalg, "rref", None),
        ("linalg.rank", linalg, "rank", None),
        ("linalg.kernel_basis", linalg, "kernel_basis", None),
        ("linalg.solve_matrix", linalg, "solve_matrix", None),
        ("linalg.inverse", linalg, "inverse", None),
        ("linalg.subspace", linalg.Subspace, "from_columns", None),
        ("linalg.quotient", linalg, "quotient", None),
        ("linalg.induced_map", linalg, "induced_map", None),
        ("modules.module_new", modules.LambdaModule, "__init__", None),
        ("modules.map_new", modules.ModuleMap, "__init__", None),
        ("modules.canonical_form", modules, "canonical_form", first),
        ("modules.hom_basis", modules, "hom_basis", first_two),
        ("modules.apply_F_map", modules, "apply_F_map", None),
        ("modules.extend_along_mono", modules, "extend_along_mono", None),
        ("modules.embed_into_injective", modules, "embed_into_injective", None),
        ("modules.kernel_module", modules, "kernel_module", None),
        ("complexes.chain_map_new", complexes.ChainMap, "__init__", None),
        ("complexes.cohomology", complexes, "cohomology", first_two),
        ("complexes.apply_F_complex", complexes, "apply_F_complex", first_two),
        ("complexes.apply_F_ses", complexes, "apply_F_ses", None),
        ("complexes.snake_delta_matrix", complexes, "snake_delta_matrix", None),
        ("complexes.induced_on_cohomology", complexes, "induced_on_cohomology", None),
        ("resolutions.registry_resolution", resolutions.ResolutionRegistry, "resolution", registry_args),
        ("resolutions.injective_resolution", resolutions, "injective_resolution", None),
        ("resolutions.resolution_new", resolutions.Resolution, "__init__", None),
        ("resolutions.split_resolution", resolutions, "split_resolution", None),
        ("resolutions.horseshoe", resolutions, "horseshoe", None),
        ("resolutions.lift_resolution_map", resolutions, "lift_resolution_map", None),
        ("resolutions.cylinder_resolution", resolutions, "cylinder_resolution", None),
        ("resolutions.is_F_acyclic", resolutions, "is_F_acyclic", acyclic_args),
        ("derived.comparison_iso", derived, "comparison_iso", None),
        ("derived.dimension_shift_iso", derived, "dimension_shift_iso", None),
        ("derived.derived_connecting", derived, "derived_connecting", None),
        ("derived.derived_connecting_deg0", derived, "derived_connecting_deg0", None),
        ("harness.gen_random_module", harness, "gen_random_module", None),
        ("harness.gen_random_ses", harness, "gen_random_ses", None),
        ("harness.gen_padded_resolution", harness, "gen_padded_resolution", None),
        # The report as the user gets it: payload, rendering, file write.
        ("serialize.report_write", cli, "_emit_report", None),
    ]


def replace_everywhere(original, replacement):
    """Rebind every dimshift module global that refers to original."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dimshift" or name.startswith("dimshift.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Records spans and per-function totals for one process."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.repeats = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.stack = []
        self.trial = -1
        self.counters = {
            "linalg.matrix_new.entries": 0,
            "linalg.matmul.operand_nonzero": 0,
            "linalg.matmul.operand_entries": 0,
            "linalg.max_matrix_dim": 0,
            "linalg.max_bit_length": 0,
        }

    def wrap(self, name, fn, key=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.repeats.append(0)
        seen = set()
        stack = self.stack
        calls, self_s, repeats = self.calls, self.self_s, self.repeats
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, trials = self.span_parent, self.span_trial
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if key is not None:
                k0 = clock()
                k = key(*args, **kwargs)
                if k in seen:
                    repeats[nid] += 1
                else:
                    seen.add(k)
                if parent is not None:
                    parent[1] += clock() - k0
            idx = len(starts)
            names.append(nid)
            parents.append(parent[0] if parent is not None else -1)
            trials.append(tracer.trial)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                duration = t1 - t0
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if parent is not None:
                    parent[1] += duration
            if after is not None:
                a0 = clock()
                after(args, result)
                if parent is not None:
                    parent[1] += clock() - a0
            return result

        return wrapper

    # Counters measured where the work happens.

    def _matrix_made(self, args, _result):
        M = args[0]
        c = self.counters
        c["linalg.matrix_new.entries"] += M.nrows * M.ncols
        if M.nrows > c["linalg.max_matrix_dim"] or M.ncols > c["linalg.max_matrix_dim"]:
            c["linalg.max_matrix_dim"] = max(M.nrows, M.ncols)
        big = 0
        for row in M.rows:
            for x in row:
                if x:
                    num = x.numerator
                    if num < 0:
                        num = -num
                    if num > big:
                        big = num
                    if x.denominator > big:
                        big = x.denominator
        bits = int(big).bit_length()
        if bits > c["linalg.max_bit_length"]:
            c["linalg.max_bit_length"] = bits

    def _matmul_operands(self, args, _result):
        c = self.counters
        for M in args:
            c["linalg.matmul.operand_entries"] += M.nrows * M.ncols
            c["linalg.matmul.operand_nonzero"] += sum(1 for row in M.rows for x in row if x)

    def install(self):
        """Wrap every traced function."""
        hooks = {
            "linalg.matrix_new": self._matrix_made,
            "linalg.matmul": self._matmul_operands,
        }
        for name, owner, attr, key in _public_layers():
            after = hooks.get(name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, key, after)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, key, after))
            else:
                original = getattr(owner, attr)
                replace_everywhere(original, self.wrap(name, original, key, after))

    def totals(self) -> dict:
        """Per-function calls, self seconds and repeats, and the counters."""
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.repeats"] = self.repeats[nid]
        return out

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line: name, start, end,
        parent span index (-1 for none), trial id (-1 outside trials)."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\ttrial\n")
            names = self.names
            for nid, start, end, parent, trial in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_trial
            ):
                fh.write(f"{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{trial}\n")
        return len(self.span_start)
