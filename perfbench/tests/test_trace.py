import time
from types import SimpleNamespace

from pb.trace import (CpuSampler, Tracer, fold_collapsed, fold_frame,
                      span_self_times, span_totals)


def frames(*modules):
    """Fake frame chain; ``modules`` run from the root to the leaf."""
    frame = None
    for module in modules:
        frame = SimpleNamespace(f_globals={"__name__": module}, f_back=frame)
    return frame


def test_fold_picks_the_innermost_repro_frame():
    stack = frames("__main__", "pb.harness", "repro.core.base",
                   "repro.mpi.job", "repro.sim.engine", "heapq")
    assert fold_frame(stack) == "sim"
    assert fold_frame(frames("__main__", "repro.core.base", "numpy")) == "core"


def test_fold_without_program_frames_is_other():
    assert fold_frame(frames("__main__", "pb.harness", "scipy.sparse")) == "other"
    assert fold_frame(None) == "other"
    # packages of repro that are not layers, and the package root itself
    assert fold_frame(frames("__main__", "repro.bench.report")) == "other"
    assert fold_frame(frames("__main__", "repro")) == "other"


def test_fold_charges_the_tracer_to_itself():
    assert fold_frame(frames("repro.core.base", "pb.trace")) == "trace"


def test_fold_collapsed_matches_fold_frame():
    line = "__main__:main;repro.core.base:run_exchange;repro.sim.engine:run;heapq:heappop"
    assert fold_collapsed(line) == "sim"
    assert fold_collapsed("__main__:main;json:dumps") == "other"


def span(name, start, end, parent):
    return {"name": name, "layer": "x", "start": start, "end": end,
            "parent": parent, "run": 0}


def test_span_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: 1..6 is covered once
        span("leaf", 1.5, 2.0, 1),
        span("c", 8.0, 12.0, 0),     # clipped to the parent's end
    ]
    self_times = span_self_times(spans)
    assert self_times[0] == 10.0 - 5.0 - 2.0
    assert self_times[1] == 3.0 - 0.5
    assert self_times[2] == 3.0
    assert self_times[3] == 0.5
    assert span_totals(spans)["a"] == 3.0


def test_tracer_records_parent_and_run_only_when_enabled():
    tracer = Tracer(enabled=False)
    with tracer.span("quiet", "core") as quiet:
        pass
    assert tracer.spans == [] and quiet.dt >= 0.0
    tracer.enabled = True
    tracer.run = 7
    with tracer.span("outer", "core"):
        with tracer.span("inner", "mpi"):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert inner["run"] == 7 and inner["layer"] == "mpi"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_sampler_seconds_add_up_to_cpu_time():
    sampler = CpuSampler(tick=0.001)
    with sampler:
        deadline = time.process_time() + 0.05
        while time.process_time() < deadline:
            sum(i * i for i in range(1000))
    assert sampler.samples > 0
    assert abs(sum(sampler.seconds.values()) - sampler.cpu_s) < 1e-9
    assert sampler.cpu_s >= 0.05
