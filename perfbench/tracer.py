"""Span tracer for the traced benchmark run, kept outside the program.

`Tracer.install` wraps every public function of the ghostsim modules and
rebinds each wrapped name in every ghostsim module that holds it.  Modules
call each other through from-imports (`correlation` calls
`sample_source_block` and `apply_path_block` by name), so patching only the
defining module would miss those calls.

A span records its name, start, end, parent span and thread id and, with
`memory=True`, the peak `tracemalloc` memory above its entry level.
`tracemalloc` slows allocation-heavy Python code severalfold (the
per-realization Philox loop), so time spans and memory spans come from
separate operations.  Spans stay in memory;
the caller writes them out when the run ends.  Worker threads of
`accumulate_mc` open spans on an empty stack; their parent is the span the
main thread has open at that moment, which is the `accumulate_mc` call
that started them.

This module imports nothing from ghostsim at import time, so the runner can
use `summarize` without loading the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "optics", "source", "correlation", "experiment", "cli")

# span name -> self-time metric; other spans fall back to LAYER_SELF_TIME
SELF_TIME = {
    "optics.propagate_block": "optics.propagate_s",
    "source.sample_source_block": "source.draw_s",
    "source.sample_source_field": "source.draw_s",
    "source.mode_decomposition": "source.modes_s",
    "correlation.g2_analytic": "correlation.analytic_s",
    "correlation.accumulate_mc": "correlation.mc_self_s",
    "cli.export_trace": "cli.export_s",
    "cli.export_image": "cli.export_s",
    "cli.write_manifest": "cli.export_s",
    "core.validate_sampling": "core.validate_s",
}
LAYER_SELF_TIME = {"optics": "optics.path_self_s", "experiment": "experiment.self_s"}

# counts made at the call boundary; all repeat exactly for identical inputs
COUNTS = (
    "optics.fft_rows",
    "optics.fft_bytes",
    "source.draw_calls",
    "source.realizations",
    "source.draw_alloc_bytes",
    "source.modes",
    "correlation.blocks",
    "correlation.partials_bytes",
)

_COMPLEX128_BYTES = 16


def _count_propagate(args, result):
    a = args["amplitudes"]
    n = a.shape[-1]
    rows = 2 * (a.size // n)  # one forward and one inverse FFT per row
    # computed bytes: each length-n transform reads and writes n complex128
    return {"optics.fft_rows": rows, "optics.fft_bytes": rows * n * 2 * _COMPLEX128_BYTES}


def _count_draw(args, result):
    return {
        "source.draw_calls": 1,
        "source.realizations": args["k1"] - args["k0"],
        "source.draw_alloc_bytes": result.nbytes,
    }


def _count_modes(args, result):
    return {"source.modes": len(result)}


def _count_mc(args, result):
    # accumulate_mc keeps one (sum P, sum P^2, sum I1, sum I2) tuple per block
    # until the merge; these are the computed bytes of all of them
    blocks = math.ceil(args["config"].n_realizations / args["block_size"])
    per_block = (
        2 * result.g2_raw.nbytes
        + np.asarray(result.i1_mean).nbytes
        + result.i2_mean.nbytes
    )
    return {"correlation.blocks": blocks, "correlation.partials_bytes": blocks * per_block}


COUNTERS = {
    "optics.propagate_block": _count_propagate,
    "source.sample_source_block": _count_draw,
    "source.mode_decomposition": _count_modes,
    "correlation.accumulate_mc": _count_mc,
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_mem: dict[int, list[int]] = {}  # span id -> [entry, high]
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _memory_event(self, span_id: int, entering: bool) -> float | None:
        """Fold the peak since the last event into every open span, then
        reset it; on exit return the span's peak above its entry level."""
        if not self.memory:
            return None
        with self._lock:
            current, peak = tracemalloc.get_traced_memory()
            for rec in self._open_mem.values():
                rec[1] = max(rec[1], peak)
            tracemalloc.reset_peak()
            if entering:
                self._open_mem[span_id] = [current, current]
                return None
            entry, high = self._open_mem.pop(span_id)
            return (high - entry) / 2**20

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            self._memory_event(span_id, True)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak_mb = self._memory_event(span_id, False)
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "thread": threading.get_ident(),
                        "peak_mb": peak_mb,
                    }
                )
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                increments = counter(bound.arguments, result)
                with self._lock:
                    self.counts.update(increments)
            return result

        return traced

    def install(self) -> None:
        import ghostsim

        modules = {layer: importlib.import_module(f"ghostsim.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in (*modules.values(), ghostsim):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run in parallel worker threads, so the covered part is the
    length of the union of their intervals, not the sum of their durations.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]
        )
        covered, lo, hi = 0.0, None, None
        for a, b in intervals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_peaks(spans: list[dict]) -> dict[str, float]:
    """Peak traced memory of each layer's spans, inclusive of their children,
    from an operation traced with memory=True."""
    metrics = {f"{layer}.peak_traced_mb": 0.0 for layer in LAYERS}
    for s in spans:
        key = f"{s['name'].split('.', 1)[0]}.peak_traced_mb"
        metrics[key] = max(metrics[key], s["peak_mb"])
    return metrics


def summarize(spans: list[dict], counts: dict) -> dict[str, float]:
    """Self-time and count metrics of one time-traced operation."""
    metrics = {name: 0.0 for name in (*SELF_TIME.values(), *LAYER_SELF_TIME.values())}
    selfs = self_times(spans)
    for s in spans:
        metric = SELF_TIME.get(s["name"], LAYER_SELF_TIME.get(s["name"].split(".", 1)[0]))
        if metric is not None:
            metrics[metric] += selfs[s["id"]]
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    return metrics
