"""Spans around genresolvent's module boundaries, recorded from outside the program.

:func:`traced` replaces each public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, command id), and
rebinds the name in every genresolvent module that imported it, so internal
calls such as ``linalg.solve -> linalg.as_matrix`` are seen too. The CLI's
boundary is ``cli.main`` alone, so its self time covers argument parsing,
report assembly and the inline CSV formatting of ``spectrum``.
``numpy.linalg.svd`` and ``numpy.linalg.solve`` are wrapped for kernel counts.
The program itself carries no instrumentation.

Spans stay in memory, in flat arrays, until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "matio", "geninv", "resolvent", "criteria", "perturbation", "linalg")
SVD = "numpy.linalg.svd"
SOLVE = "numpy.linalg.solve"

# Every per-layer metric with its unit; all are per workload cycle except the ratios.
LAYER_UNITS = {
    "linalg.svd.calls": "count",
    "linalg.svd_full.calls": "count",
    "linalg.svd.ms": "ms",
    "linalg.svd_per_point": "calls/point",
    "linalg.svd_input_mb": "MB_computed",
    "linalg.solve.calls": "count",
    "linalg.as_matrix.calls": "count",
    "linalg.op_norm2.calls": "count",
    "resolvent.check_resolvent_axioms.ms": "ms",
    "resolvent.evaluate.calls": "count",
    "resolvent.identity_pairs": "count",
    "resolvent.existence_check.ms": "ms",
    "resolvent.build_family.ms": "ms",
    "criteria.mp_resolvent_characterization.ms": "ms",
    "criteria.rank_profile.calls": "count",
    "criteria.rank_profile.ms": "ms",
    "criteria.generalized_spectrum_scan.ms": "ms",
    "criteria.scan_drop_points": "count",
    "criteria.scan_oracle_eigs": "count",
    "geninv.mp_inverse.ms": "ms",
    "geninv.pinv_matrix.calls": "count",
    "geninv.verify_mp_axioms.ms": "ms",
    "perturbation.perturbed_inverse.calls": "count",
    "perturbation.perturbed_inverse.ms": "ms",
    "perturbation.splitting_checks.ms": "ms",
    "matio.load_matrix.ms": "ms",
    "matio.report_text.ms": "ms",
    "matio.bytes_out": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Flat, append-only span store plus the few counters spans cannot carry."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_command = -1
        self.svd_full_calls = 0
        self.svd_input_bytes = 0
        self.identity_pairs = 0
        self.report_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """A drop-in replacement for fn that records one span per call."""
        nid = self._name_id(name)
        stack, depth = self._stack, self._depth

        def traced_call(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(self.current_command)
            self.nested.append(depth[nid] > 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                depth[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced_call

    # hooks for the counters spans cannot carry

    def _svd_done(self, args, kwargs, result):
        self.svd_full_calls += bool(kwargs.get("compute_uv", True))
        self.svd_input_bytes += np.asarray(args[0]).nbytes

    def _pairs_done(self, args, kwargs, result):
        self.identity_pairs += len(result)

    def _report_done(self, args, kwargs, result):
        self.report_bytes += len(result.encode("utf-8"))

    def write(self, path) -> None:
        """Save every span to an .npz: names, and per span its name index, parent
        span index (-1 at the top), command id, start and end in seconds."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), command=np.array(self.command),
                 start=np.array(self.start), end=np.array(self.end))


def _public_functions(layer: str):
    module = importlib.import_module(f"genresolvent.{layer}")
    if layer == "cli":
        return [("main", module.main)]
    return [
        (name, fn)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every layer boundary and the numpy kernels for the duration of the block."""
    hooks = {
        "resolvent.pair_indices": tracer._pairs_done,
        "matio.report_text": tracer._report_done,
    }
    package = [m for n, m in sorted(sys.modules.items())
               if n == "genresolvent" or n.startswith("genresolvent.")]
    patches: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        for name, fn in _public_functions(layer):
            span = f"{layer}.{name}"
            wrapper = tracer.wrap(span, fn, hooks.get(span))
            for module in package:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
    for attr, span, hook in (("svd", SVD, tracer._svd_done), ("solve", SOLVE, None)):
        fn = getattr(np.linalg, attr)
        patches.append((np.linalg, attr, fn))
        setattr(np.linalg, attr, tracer.wrap(span, fn, hook))
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(patches):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, cycles: int, points_per_cycle: int,
                  grid_commands: set[int]) -> dict[str, float]:
    """Per-layer metrics for one workload cycle, averaged over the traced cycles.

    ``grid_commands`` are the ids of commands that sample a grid or scan
    region; ``points_per_cycle`` is the number of points they sampled per
    cycle. Times are inclusive unless named ``self``; a span nested in one of
    the same name is not counted twice.
    """
    count = len(tracer.start)
    name = np.frombuffer(tracer.name, dtype=np.int32, count=count)
    parent = np.frombuffer(tracer.parent, dtype=np.int32, count=count)
    command = np.frombuffer(tracer.command, dtype=np.int32, count=count)
    outer = np.frombuffer(tracer.nested, dtype=np.int8, count=count) == 0
    duration = (np.frombuffer(tracer.end, count=count) - np.frombuffer(tracer.start, count=count))
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=count)
    self_time = duration - child_time
    ids = {n: i for i, n in enumerate(tracer.names)}

    def calls(span: str) -> float:
        return float(np.count_nonzero(name == ids[span])) / cycles if span in ids else 0.0

    def ms(span: str, times=duration, mask=outer) -> float:
        if span not in ids:
            return 0.0
        return float(times[(name == ids[span]) & mask].sum()) * 1e3 / cycles

    svd_in_grid = np.count_nonzero((name == ids.get(SVD, -1)) & np.isin(command, list(grid_commands)))
    return {
        "linalg.svd.calls": calls(SVD),
        "linalg.svd_full.calls": tracer.svd_full_calls / cycles,
        "linalg.svd.ms": ms(SVD),
        "linalg.svd_per_point": svd_in_grid / cycles / points_per_cycle if points_per_cycle else 0.0,
        "linalg.svd_input_mb": tracer.svd_input_bytes / 1e6 / cycles,
        "linalg.solve.calls": calls(SOLVE),
        "linalg.as_matrix.calls": calls("linalg.as_matrix"),
        "linalg.op_norm2.calls": calls("linalg.op_norm2"),
        "resolvent.check_resolvent_axioms.ms": ms("resolvent.check_resolvent_axioms"),
        "resolvent.evaluate.calls": calls("resolvent.evaluate"),
        "resolvent.identity_pairs": tracer.identity_pairs / cycles,
        "resolvent.existence_check.ms": ms("resolvent.existence_check"),
        "resolvent.build_family.ms": ms("resolvent.build_family"),
        "criteria.mp_resolvent_characterization.ms": ms("criteria.mp_resolvent_characterization"),
        "criteria.rank_profile.calls": calls("criteria.rank_profile"),
        "criteria.rank_profile.ms": ms("criteria.rank_profile"),
        "criteria.generalized_spectrum_scan.ms": ms("criteria.generalized_spectrum_scan"),
        "geninv.mp_inverse.ms": ms("geninv.mp_inverse"),
        "geninv.pinv_matrix.calls": calls("geninv.pinv_matrix"),
        "geninv.verify_mp_axioms.ms": ms("geninv.verify_mp_axioms"),
        "perturbation.perturbed_inverse.calls": calls("perturbation.perturbed_inverse"),
        "perturbation.perturbed_inverse.ms": ms("perturbation.perturbed_inverse"),
        "perturbation.splitting_checks.ms": ms("perturbation.splitting_checks"),
        "matio.load_matrix.ms": ms("matio.load_matrix"),
        "matio.report_text.ms": ms("matio.report_text"),
        "matio.bytes_out": tracer.report_bytes / cycles,
        "cli.self_ms": ms("cli.main", times=self_time, mask=np.ones(count, dtype=bool)),
    }
