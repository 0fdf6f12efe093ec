"""Span tracing around calls into the `gendt` modules.

`Tracer.install()` wraps each function named in `TRACED` at every binding a
caller can look it up through: the defining module's own attribute (what
`dsp.preprocess` resolves at call time) and every `gendt` module that
imported it by name (`controller` imports `extract_window`, `aggregate`,
`rmse`, `decide`, `forecast_ensemble` and more). `uninstall()` puts the
originals back. Nothing inside `src/` changes.

Each span records its name, start, end, parent span and epoch id; spans under
one `controller.run_epoch` call share that call's epoch id. Counts are
recorded at the same points. Spans stay in memory until `dump()`.

Work handed to other threads (the `llm_http` attempt pool) has no span open in
its own thread; its parent is the innermost span open in the thread that
installed the tracer, which is blocked waiting for that work.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from gendt.codec import DecodeFailure


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    epoch: Optional[int]
    pass_no: int
    end: float = 0.0


def _preprocess_counts(tracer: "Tracer", args, result) -> None:
    series = args[0]
    tracer.count("dsp.preprocess.samples_in", len(series.samples))
    tracer.distinct("dsp.preprocess.vertices", (series.run.index, series.state.label))


def _encode_counts(tracer: "Tracer", args, result) -> None:
    tracer.count("codec.encode.values", result.count)


def _prompt_counts(tracer: "Tracer", args, result) -> None:
    tracer.count("codec.build_prompt.chars", len(result))


def _decode_counts(tracer: "Tracer", args, result) -> None:
    if isinstance(result, DecodeFailure):
        tracer.count("codec.decode.failures")


# counts taken at a span's boundary, from its arguments and result
COUNT_HOOKS: dict[str, Callable] = {
    "dsp.preprocess": _preprocess_counts,
    "codec.encode": _encode_counts,
    "codec.build_prompt": _prompt_counts,
    "codec.decode": _decode_counts,
}


# One span per call of each of these public functions. Helpers they call
# (dsp.lowpass under dsp.preprocess, for instance) count as the caller's self
# time, so each name is the time of one layer step as the pipeline sees it.
TRACED = (
    "windowing.enumerate_epochs",
    "windowing.extract_window",
    "dsp.preprocess",
    "codec.encode",
    "codec.quantize",
    "codec.build_prompt",
    "codec.decode",
    "forecast.forecast_ensemble",
    "forecast.llm_http_call",
    "ensemble.aggregate",
    "ensemble.rmse",
    "ensemble.error_stats",
    "controller.run_epoch",
    "controller.decide",
    "controller.accumulate_health",
    "controller.run_replay",
    "cli.cmd_replay",
    "cli.cmd_ingest",
    "ptog.load_ptog",
    "ptog.build_ptog",
    "ptog.save_ptog",
    "ptog.read_samples_csv",
    "dataset.ingest_fixture",
)


def _bindings(name: str) -> list[tuple[types.ModuleType, str, types.FunctionType]]:
    """(module, attribute, function) for every `gendt` module binding of `name`."""
    mod_name, attr = name.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"gendt.{mod_name}"), attr)
    prefix = "gendt."
    return [
        (module, key, value)
        for module_name, module in sorted(sys.modules.items())
        if module is not None and module_name.startswith(prefix)
        for key, value in vars(module).items()
        if value is fn
    ]


class Tracer:
    """Collects spans and counts while installed; one `pass_no` per benchmark pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.distincts: dict[tuple[int, str], set] = defaultdict(set)
        self.pass_no = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()  # counts arrive from the attempt pool's threads too
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._saved: list[tuple[types.ModuleType, str, types.FunctionType]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span_id = next(self._ids)
        if name == "controller.run_epoch":
            epoch = span_id
        else:
            epoch = outer.epoch if outer is not None else None
        span = Span(
            span_id, name, time.perf_counter(), outer.id if outer else None, epoch, self.pass_no
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.pass_no, name)] += n

    def distinct(self, name: str, key) -> None:
        with self._lock:
            self.distincts[(self.pass_no, name)].add(key)

    def _wrap(self, fn: types.FunctionType, name: str) -> Callable:
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._root_stack
        for name in TRACED:
            bindings = _bindings(name)
            wrapper = self._wrap(bindings[0][2], name)
            for module, attr, fn in bindings:
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        result = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for start, end in sorted(children.get(s.id, ())):
                start, end = max(start, cursor), min(end, s.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[s.id] = (s.end - s.start) - covered
        return result

    def dump(self, path, extra: dict) -> None:
        """Write every span plus `extra` as gzipped JSON, times in microseconds."""
        t0 = min((s.start for s in self.spans), default=0.0)
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            **extra,
            "span_fields": ["id", "name", "start_us", "end_us", "parent", "epoch", "pass"],
            "names": names,
            "spans": [
                [
                    s.id,
                    index[s.name],
                    round((s.start - t0) * 1e6, 1),
                    round((s.end - t0) * 1e6, 1),
                    s.parent,
                    s.epoch,
                    s.pass_no,
                ]
                for s in self.spans
            ],
            "counts": [[p, n, v] for (p, n), v in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
