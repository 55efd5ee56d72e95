"""Spans and the CPU-time sampler — the benchmark's own tracer.

Spans sit around calls *into* the program (``repro``); nothing inside
the program is instrumented.  A span is ``{name, layer, start, end,
parent, run}``; a layer's self time is its spans' duration minus the
part their child spans cover.

The sampler is a ``signal.setitimer(ITIMER_PROF)`` tick: the handler
runs on the main thread between two bytecodes of whatever the program
was executing, so — unlike a sampling *thread*, which only gets to look
when the main thread gives up the GIL — it sees the stack where CPU
time is actually being spent.  Each tick charges the CPU time elapsed
since the previous tick to the innermost ``repro.<pkg>`` frame, so the
per-layer seconds add up to the traced CPU time by construction (a tick
delayed by a long C call charges the whole call to its caller).
"""

from __future__ import annotations

import json
import signal
import time
from typing import Any, Dict, Iterable, List, Optional

#: the packages of ``src/repro`` that count as layers
LAYERS = ("sim", "mpi", "core", "machine", "sparse", "paths", "models",
          "atlas", "par", "obs", "faults")
OTHER = "other"
TRACE = "trace"

#: CPU seconds between sampler ticks
TICK_S = 0.005


class Span:
    """Timer around one call into the program; recorded when tracing."""

    __slots__ = ("tracer", "name", "layer", "t0", "dt", "index")

    def __init__(self, tracer: "Tracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.dt = 0.0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            self.index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(self.index)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        t1 = time.perf_counter()
        self.dt = t1 - self.t0
        tracer = self.tracer
        if tracer.enabled:
            tracer.stack.pop()
            tracer.spans[self.index] = {
                "name": self.name, "layer": self.layer,
                "start": self.t0, "end": t1,
                "parent": tracer.stack[-1] if tracer.stack else None,
                "run": tracer.run,
            }
        return False


class Tracer:
    """In-memory span store; ``enabled=False`` leaves plain timers."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Optional[Dict[str, Any]]] = []
        self.stack: List[int] = []
        #: identifier shared by the spans of one round
        self.run = 0

    def span(self, name: str, layer: str) -> Span:
        return Span(self, name, layer)

    def write(self, path: str, **header: Any) -> None:
        """Write every span, with its self time, as one JSON document."""
        spans = [{**span, "self": seconds} for span, seconds
                 in zip(self.spans, span_self_times(self.spans))]
        with open(path, "w") as fh:
            json.dump({**header, "spans": spans}, fh)


def span_self_times(spans: Iterable[Dict[str, Any]]) -> List[float]:
    """Self time of every span: duration minus what its children cover.

    Children of one parent are merged as intervals first, so two
    overlapping children are not subtracted twice.
    """
    spans = list(spans)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        edge = span["start"]
        for child in sorted(children.get(index, ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], edge)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def span_totals(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name (durations, children included)."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + span["end"] - span["start"])
    return totals


def layer_of_module(module: str) -> Optional[str]:
    """Layer a module's frames are charged to (``None`` = keep looking)."""
    if module.startswith("repro."):
        pkg = module.split(".", 2)[1]
        return pkg if pkg in LAYERS else OTHER
    if module == "repro":
        return OTHER
    if module == __name__:
        return TRACE
    return None


def fold_frame(frame: Any) -> str:
    """Layer of the innermost frame that belongs to the program (or to
    this tracer); ``other`` when the stack holds neither."""
    while frame is not None:
        layer = layer_of_module(frame.f_globals.get("__name__", ""))
        if layer is not None:
            return layer
        frame = frame.f_back
    return OTHER


def fold_collapsed(stack: str) -> str:
    """:func:`fold_frame` for a ``module:func;module:func`` root-to-leaf
    line of :class:`repro.obs.profile.SamplingProfiler`."""
    for entry in reversed(stack.split(";")):
        layer = layer_of_module(entry.rsplit(":", 1)[0])
        if layer is not None:
            return layer
    return OTHER


class CpuSampler:
    """``ITIMER_PROF`` sampler folding CPU time to layers."""

    def __init__(self, tick: float = TICK_S) -> None:
        self.tick = tick
        self.seconds: Dict[str, float] = {}
        self.samples = 0
        self.cpu_s = 0.0
        self._last = 0.0
        self._start = 0.0
        self._previous: Any = None

    def _on_tick(self, _signum: int, frame: Any) -> None:
        now = time.process_time()
        layer = fold_frame(frame)
        self.seconds[layer] = self.seconds.get(layer, 0.0) + now - self._last
        self._last = now
        self.samples += 1

    def __enter__(self) -> "CpuSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        self._start = self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.tick, self.tick)
        return self

    def __exit__(self, *exc: Any) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        # never back to SIG_DFL: a straggling SIGPROF would kill the run
        signal.signal(signal.SIGPROF,
                      signal.SIG_IGN if self._previous == signal.SIG_DFL
                      else self._previous)
        now = time.process_time()
        # CPU since the last tick belongs to whoever stopped us
        self.seconds[OTHER] = self.seconds.get(OTHER, 0.0) + now - self._last
        self.cpu_s += now - self._start
        return False

    def shares(self) -> Dict[str, float]:
        total = sum(self.seconds.values())
        return {k: v / total for k, v in self.seconds.items()} if total else {}
