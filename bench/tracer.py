"""Spans at the pipeline's layer boundaries, recorded from outside `src/`.

The tracer replaces module attributes of the coopstab package with wrappers
that record a span per call: boundary name, start, end and the enclosing
span. A boundary whose target no longer exists is reported as unmeasured and
the run goes on; its work then shows in the self time of the enclosing span.

With `memory=True` the tracer instead follows tracemalloc through the same
boundaries and records, per layer, the peak traced memory allocated while that
layer was the innermost active one, above what was live when it became so.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (boundary, module, attribute). The layer is the boundary name up to the
# first dot; `output` is `cli.main` itself, so its self time is everything the
# other layers do not cover: arguments, file read, payload, json.dumps, print.
BOUNDARIES = (
    ("output", "coopstab.cli", "main"),
    ("ingest.parse", "coopstab.cli", "load_matrix_market"),
    ("ingest.validate", "coopstab.system", "validate"),
    ("condense", "coopstab.condensation", "condense"),
    ("spectra", "coopstab.stability", "analyze_all_blocks"),
    ("spectra.eigenpair", "coopstab.spectral", "dominant_eigenpair"),
    ("verdict", "coopstab.stability", "verdict"),
    ("basis", "coopstab.cli", "steady_state_basis"),
    ("basis.lu", "coopstab.stability", "lu_factor"),
    ("residual", "coopstab.cli", "nullspace_residual"),
)


def layer_of(boundary: str) -> str:
    return boundary.split(".", 1)[0]


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []  # [boundary, start, end, parent index]
        self.unmeasured: dict[str, str] = {}
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._segment_start = 0  # traced bytes when the innermost layer took over

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary target wherever a coopstab module binds it."""
        for boundary, module_name, attr in boundaries:
            target = None
            try:
                target = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                pass
            if not callable(target):
                self.unmeasured[boundary] = f"{module_name}.{attr} not found"
                continue
            wrapper = self._wrap(boundary, target)
            for name, module in list(sys.modules.items()):
                if name != "coopstab" and not name.startswith("coopstab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapper)

    def _wrap(self, boundary: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(boundary)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _innermost_layer(self) -> str | None:
        return layer_of(self.spans[self._stack[-1]][0]) if self._stack else None

    def _enter(self, boundary: str) -> None:
        if self.memory and layer_of(boundary) != self._innermost_layer():
            self._close_segment()
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([boundary, time.perf_counter(), None, parent])

    def _exit(self) -> None:
        span = self.spans[self._stack[-1]]
        span[2] = time.perf_counter()
        if self.memory and layer_of(span[0]) != self._outer_layer():
            self._close_segment()
        self._stack.pop()

    def _outer_layer(self) -> str | None:
        return layer_of(self.spans[self._stack[-2]][0]) if len(self._stack) > 1 else None

    def _close_segment(self) -> None:
        """Charge the peak since the last layer change to the innermost layer,
        then start a new segment from the current traced size."""
        layer = self._innermost_layer()
        current, peak = tracemalloc.get_traced_memory()
        if layer is not None:
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - self._segment_start)
        tracemalloc.reset_peak()
        self._segment_start = current

    def summary(self) -> dict:
        """Per boundary: call count and self time (span minus child spans);
        per layer: peak allocation in MB (memory mode only)."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for boundary, start, end, parent in self.spans:
            duration = end - start
            self_s[boundary] += duration
            calls[boundary] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "peak_mb": {k: v / 2**20 for k, v in self.peak_bytes.items()},
            "unmeasured": self.unmeasured,
        }
