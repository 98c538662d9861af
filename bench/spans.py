"""In-memory span tracer that times qdtuner's layers from outside the package.

The tracer rebinds the public layer functions (rasterize, the thermal solvers,
spectrum synthesis, the alignment solvers, the config loaders and writers and
the cli command handlers) in every qdtuner module that holds them, so calls
made inside the package are seen too. Each call records a span: name, start,
end, parent span and the operation it belongs to. Counts that a layer exposes
through its arguments or results are recorded at the same boundary. Spans stay
in memory until the run ends. Nothing in the package itself changes, and the
original functions are restored when tracing stops.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_NO_CONVERGENCE = re.compile(r"no convergence within (\d+) passes")


def _on_rasterize(tracer, args, kwargs, grid):
    tracer.counts["device.active_cells"] += int(grid.active().sum())


def _on_solve(tracer, args, kwargs, result):
    # unknowns and operator nonzeros are computed from the grid, not read
    # from the solver: one row per free cell, plus two entries per pair of
    # neighbouring free cells
    grid = kwargs["grid"] if "grid" in kwargs else args[0]
    free = grid.active() & ~grid.dirichlet
    pairs = int((free[:, :-1] & free[:, 1:]).sum()) + int((free[:-1, :] & free[1:, :]).sum())
    n_free = int(free.sum())
    tracer.counts["thermal.unknowns"] += n_free
    tracer.counts["thermal.operator_nnz"] += n_free + 2 * pairs
    tracer.counts["thermal.iterations"] += result[1].iterations


def _on_synthesize(tracer, args, kwargs, spectrum):
    tracer.counts["spectral.samples"] += int(spectrum.intensities.size)


def _on_align_multi(tracer, args, kwargs, solution):
    passes = solution.iterations
    if not passes:
        # a give-up reports 0 iterations; its message names the passes spent
        for note in solution.warnings:
            m = _NO_CONVERGENCE.search(note)
            if m:
                passes = int(m.group(1))
    tracer.counts["control.align_multi_passes"] += passes


def _on_write(tracer, args, kwargs, result):
    stack = tracer.stack
    if stack and tracer.spans[stack[-1]][0] == "config.write":
        return  # a writer called by another writer; the outer one counts the file
    path = kwargs["path"] if "path" in kwargs else args[-1]
    tracer.counts["config.bytes_written"] += os.path.getsize(path)


def _targets():
    """(span name, module, attribute, count hook) for every traced function."""
    from qdtuner import config

    targets = [
        ("device.rasterize", "qdtuner.device", "rasterize", _on_rasterize),
        ("thermal.solve", "qdtuner.thermal", "solve_steady_state", _on_solve),
        ("thermal.lumped", "qdtuner.thermal", "lumped_temperature", None),
        ("spectral.synthesize", "qdtuner.spectral", "synthesize_spectrum", _on_synthesize),
        ("control.align_multi", "qdtuner.control", "align_multi", _on_align_multi),
        ("control.align_qd_to_cavity", "qdtuner.control", "align_qd_to_cavity", None),
        ("config.load", "qdtuner.config", "load_scenario", None),
        ("config.load", "qdtuner.config", "load_device", None),
    ]
    targets += [
        ("config.write", "qdtuner.config", name, _on_write)
        for name in sorted(vars(config))
        if name.startswith("write_") and callable(getattr(config, name))
    ]
    targets += [
        (f"cli.{command}", "qdtuner.cli", f"cmd_{command}", None)
        for command in ("thermal", "sweep", "tune", "calibrate")
    ]
    return targets


class Tracer:
    """Spans and counts of the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.recording = False
        self.op_id = -1

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            index = len(tracer.spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op_id]
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in all loaded qdtuner modules."""
        modules = [m for n, m in sys.modules.items() if n == "qdtuner" or n.startswith("qdtuner.")]
        saved = []
        for name, module_name, attr, hook in _targets():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, traced)
        try:
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; layer calls are recorded only inside one."""
        self.op_id += 1
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, self.op_id]
        self.spans.append(span)
        self.stack.append(index)
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            span[2] = time.perf_counter()
            self.stack.pop()

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name.

        Inclusive time counts only the outermost span of a name, so a loader
        that calls another loader is not counted twice. Self time is a span's
        duration minus the part its direct children cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += end - start
        return dict(inclusive), dict(self_time)

    def dump(self, path) -> None:
        """Write all spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"op": op, "name": name, "start_s": start - t0, "end_s": end - t0, "parent": parent}
                    )
                    + "\n"
                )
