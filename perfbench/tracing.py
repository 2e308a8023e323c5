"""Benchmark-side spans around the public calls of each layer.

The benchmark never edits the program: :func:`instrument` swaps a
timing wrapper onto a module function or class method for the duration
of a ``with`` block and restores the original afterwards.  Spans stay
in memory (one list per :class:`Tracer`) and are written out once, when
the run ends.

A span's *self time* is its duration minus the part its direct child
spans cover, so summing self times over every span of one root never
double-counts.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: The span names a traced build records, in reporting order.  The
#: root span is the benchmark's own call into ``build_table_iv``; its
#: self time is whatever orchestration no wrapped call accounts for.
ROOT = "table4.build"
LAYERS = (
    ROOT,
    "reliability.design_points",
    "engine.get",
    "reliability.run_chunk",
    "engine.muse_fused",
    "rs.fused",
    "scenarios.generate",
    "engine.decode_batch",
    "rs.decode_batch",
    "reliability.fold",
    "distribute.run_tasks",
)


class Span:
    """One timed interval, and the context manager that records it."""

    __slots__ = ("name", "attrs", "start", "end", "parent", "thread", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start = self.end = 0.0
        self.parent: int | None = None
        self.thread = 0
        self._tracer = tracer

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.thread = threading.get_ident()
        with tracer._lock:
            stack.append(len(tracer.spans))
            tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self._tracer._stack().pop()


class Tracer:
    """An in-memory span recorder with a parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        return self._local.__dict__.setdefault("stack", [])

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.by_name(name))

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(span.attrs.get(attr, 0) for span in self.by_name(name))

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per name in LAYERS, over the trees under ROOT spans
        (spans that other threads record outside any root are left out)."""
        out = dict.fromkeys(LAYERS, 0.0)
        top: list[int] = []
        for index, span in enumerate(self.spans):
            top.append(index if span.parent is None else top[span.parent])
        for index, own in enumerate(self.self_times()):
            if self.spans[top[index]].name == ROOT:
                name = self.spans[index].name
                out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (start/end relative to the
        first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "parent": span.parent,
                            "thread": span.thread,
                            "start_s": round(span.start - origin, 9),
                            "end_s": round(span.end - origin, 9),
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


_MISSING = object()


def _trials(value: Any) -> int:
    """Trials a chunk or a word batch stands for (``len`` of a batch)."""
    size = getattr(value, "size", None)
    if isinstance(size, int) and hasattr(value, "start"):
        return size  # a Chunk
    return len(value)


class _Patches:
    """Swap attributes and put every original back on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        make: Callable[[Callable], Callable],
    ) -> None:
        held = owner.__dict__.get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, held))

    def restore(self) -> None:
        for owner, attr, held in reversed(self._undo):
            if held is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, held)
        self._undo.clear()


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[dict]:
    """Record spans around the public calls of every Table-IV layer.

    Yields the ``{id(code): label}`` map the design-point wrappers
    fill, so chunk spans carry the point they ran (``muse-3b``).
    """
    from repro.distribute import DistributedSession
    from repro.engine.native import NativeDecodeEngine
    from repro.engine.numpy_backend import NumpyBatchResult
    from repro.reliability import monte_carlo
    from repro.reliability.metrics import MsedTally
    from repro.rs.engine import NumpyRsBatchResult
    from repro.rs.engine_native import NativeRsEngine

    labels: dict[int, str] = {}
    patches = _Patches()

    def plain(name: str) -> Callable[[Callable], Callable]:
        def make(func: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return func(*args, **kwargs)

            return wrapper

        return make

    def design_point(family: str) -> Callable[[Callable], Callable]:
        def make(func: Callable) -> Callable:
            def wrapper(extra_bits, *args, **kwargs):
                with tracer.span("reliability.design_points"):
                    code = func(extra_bits, *args, **kwargs)
                labels[id(code)] = f"{family}-{extra_bits}b"
                return code

            return wrapper

        return make

    def run_chunk(func: Callable) -> Callable:
        def wrapper(self, chunk, key):
            point = labels.get(id(self.code), "?")
            with tracer.span(
                "reliability.run_chunk", point=point, trials=chunk.size
            ):
                return func(self, chunk, key)

        return wrapper

    def fused(name: str) -> Callable[[Callable], Callable]:
        def make(func: Callable) -> Callable:
            def wrapper(self, chunk, key, k_symbols):
                with tracer.span(name, trials=chunk.size) as span:
                    counts = func(self, chunk, key, k_symbols)
                    span.attrs["hit"] = counts is not None
                    return counts

            return wrapper

        return make

    def counted(name: str, trials_arg: int) -> Callable[[Callable], Callable]:
        def make(func: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with tracer.span(name, trials=_trials(args[trials_arg])):
                    return func(*args, **kwargs)

            return wrapper

        return make

    patches.wrap(monte_carlo, "muse_design_point", design_point("muse"))
    patches.wrap(monte_carlo, "rs_design_point", design_point("rs"))
    patches.wrap(monte_carlo, "get_engine", plain("engine.get"))
    patches.wrap(monte_carlo, "get_rs_engine", plain("engine.get"))
    for simulator in (monte_carlo.MuseMsedSimulator, monte_carlo.RsMsedSimulator):
        patches.wrap(simulator, "run_chunk", run_chunk)
    patches.wrap(NativeDecodeEngine, "fused_chunk_counts", fused("engine.muse_fused"))
    patches.wrap(NativeRsEngine, "fused_chunk_counts", fused("rs.fused"))
    # Generation: the scenario chunk generators, plus the msed ones the
    # fused path falls back to when a kernel declines a chunk.
    for attr in ("muse_scenario_chunk", "rs_scenario_chunk"):
        patches.wrap(monte_carlo, attr, counted("scenarios.generate", 2))
    for attr in ("muse_corruption_chunk", "rs_corruption_chunk"):
        patches.wrap(monte_carlo, attr, counted("scenarios.generate", 1))
    patches.wrap(NativeDecodeEngine, "decode_batch", counted("engine.decode_batch", 1))
    patches.wrap(NativeRsEngine, "decode_batch", counted("rs.decode_batch", 1))
    patches.wrap(NumpyBatchResult, "counts", plain("engine.decode_batch"))
    patches.wrap(NumpyRsBatchResult, "counts", plain("rs.decode_batch"))
    patches.wrap(MsedTally, "record_counts", plain("reliability.fold"))
    patches.wrap(MsedTally, "merge", plain("reliability.fold"))
    patches.wrap(DistributedSession, "run_tasks", plain("distribute.run_tasks"))
    try:
        yield labels
    finally:
        patches.restore()
