"""Spans around calls into the package's public functions, from outside.

While installed, every module-level name listed in LAYER_FUNCTIONS is
replaced, in every loaded ``ioimpact`` module that holds it, by a wrapper
that records a span (name, start, end, parent). ``numpy.linalg.solve`` and
``numpy.linalg.inv`` are wrapped to count calls and flops; they are counters,
not spans, so their time stays in the layer that called them. Spans are kept
in memory and summarised after the traced operations end. A listed name that
no longer exists is reported with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYER_FUNCTIONS = (
    "ingest.parse_io_table",
    "ingest.parse_scenario",
    "table.drop_zero_sectors",
    "table.validate_table",
    "leontief.build_model",
    "leontief.technical_coefficients",
    "leontief.leontief_inverse",
    "leontief.check_productive",
    "leontief.output_multipliers",
    "scenario.build_delta",
    "scenario.extraction_intensities",
    "impact.inoperability",
    "impact.partial_extraction",
    "impact.make_extraction_spec",
    "impact.apply_blowup",
    "impact.compare_methods",
    "report.write_reports",
    "report.impact_table",
    "report.multiplier_table",
    "report.result_to_dict",
    "report.plotdata_table",
    "report.comparison_table",
    "cli.cmd_run",
)

# Per-operation counters computed at layer boundaries, with their units.
COUNTERS = {
    "ingest.bytes_read": "B",
    "linalg.solve.calls": "count",
    "linalg.solve.flops": "flop",
    "report.bytes_written": "B",
    "report.files_written": "count",
}


def _solve_flops(a, b) -> float:
    n = np.shape(a)[-1]
    k = 1 if np.ndim(b) == 1 else np.shape(b)[-1]
    return 2.0 / 3.0 * n**3 + 2.0 * n * n * k


def _inv_flops(a) -> float:
    return 2.0 * np.shape(a)[-1] ** 3


def _path_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.parse_cells = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn, flops):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["linalg.solve.calls"] += 1
            self.counters["linalg.solve.flops"] += flops(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _after_parse_table(self, args, kwargs, table):
        satellites = args[2] if len(args) > 2 else kwargs.get("satellite_files", ())
        self.counters["ingest.bytes_read"] += _path_bytes(*args[:2], *satellites)
        n = table.n
        self.parse_cells += n * (n + 7) + 3 * n

    def _after_parse_scenario(self, args, kwargs, spec):
        self.counters["ingest.bytes_read"] += _path_bytes(args[0])

    def _after_write_reports(self, args, kwargs, manifest):
        out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
        names = [e["path"] for e in manifest["files"]] + ["manifest.json"]
        self.counters["report.files_written"] += len(names)
        self.counters["report.bytes_written"] += _path_bytes(*(out_dir / p for p in names))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every loaded ioimpact module."""
        hooks = {
            "ingest.parse_io_table": self._after_parse_table,
            "ingest.parse_scenario": self._after_parse_scenario,
            "report.write_reports": self._after_write_reports,
        }
        modules = [
            m for k, m in list(sys.modules.items()) if k == "ioimpact" or k.startswith("ioimpact.")
        ]
        for name in LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            try:
                owner = importlib.import_module(f"ioimpact.{mod_name}")
            except ImportError:
                continue
            original = getattr(owner, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._span(name, original, hooks.get(name))
            for mod in modules + [owner]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for attr, flops in (("solve", _solve_flops), ("inv", _inv_flops)):
            original = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._count(original, flops))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- summary -----------------------------------------------------------

    def summary(self, operations: int) -> dict[str, tuple[float, str]]:
        """Per-operation self time and calls of every listed function, plus counters.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because operations run on one thread.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        parse_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "ingest.parse_io_table":
                parse_s += end - start
        ops = max(operations, 1)
        metrics = {}
        for name in LAYER_FUNCTIONS:
            metrics[f"{name}.self_s"] = (self_s[name] / ops, "s")
            metrics[f"{name}.calls"] = (calls[name] / ops, "count")
        for name, unit in COUNTERS.items():
            metrics[name] = (self.counters[name] / ops, unit)
        metrics["ingest.cells_per_s"] = (self.parse_cells / parse_s if parse_s > 0 else 0.0, "1/s")
        return metrics
