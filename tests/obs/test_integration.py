"""End-to-end observability: engine spans, job metrics, determinism."""

import numpy as np
import pytest

from repro.core import (
    CommPattern,
    SplitMD,
    StandardStaged,
    ThreeStepStaged,
    run_exchange,
)
from repro.machine import lassen
from repro.mpi import SimJob
from repro.obs import (
    MemoryTracer,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import SCHEMA
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource


def heavy_pattern(num_gpus: int = 8, block: int = 128) -> CommPattern:
    sends = {
        s: {d: np.arange(block) for d in range(num_gpus) if d != s}
        for s in range(num_gpus)
    }
    return CommPattern(num_gpus, sends)


class TestEngineTracing:
    def test_process_lifecycle_records(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.process(worker(), label="w0")
        sim.run()
        assert [i.name for i in tracer.instants
                if i.track == "w0"] == ["start"]
        spans = tracer.spans_on("w0")
        assert [s.name for s in spans] == ["process"]
        assert spans[0].t0 == 0.0 and spans[0].t1 == 3.0

    def test_fine_mode_records_resumes(self):
        tracer = MemoryTracer(fine=True)
        sim = Simulator(tracer=tracer)

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(worker(), label="w0")
        sim.run()
        resumes = [i for i in tracer.instants if i.name == "resume"]
        assert len(resumes) == 3  # start token + two timeouts

    def test_queue_depth_counters_sampled(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)

        def worker():
            for _ in range(400):
                yield sim.timeout(1e-6)

        sim.process(worker(), label="w0")
        sim.run()
        samples = [c for c in tracer.counters if c.name == "queue_depth"]
        assert samples, "expected sampled queue-depth counters"
        assert sim.steps_traced > 400

    def test_watchdog_budget_does_not_change_the_counter_track(self):
        # one instrumented loop: a traced run records the same samples,
        # closing one included, with or without a watchdog budget
        def record(**budget):
            tracer = MemoryTracer()
            sim = Simulator(tracer=tracer)

            def worker():
                for _ in range(400):
                    yield sim.timeout(1e-6)

            sim.process(worker(), label="w0")
            sim.run(**budget)
            return sim, [(c.track, c.name, c.t, c.value)
                         for c in tracer.counters]

        plain, samples = record()
        guarded, guarded_samples = record(max_events=10_000,
                                          max_wall_seconds=60.0)
        assert guarded_samples == samples
        assert guarded.steps_traced == plain.steps_traced
        # the closing sample: the drained queue at the final time
        assert samples[-1] == ("engine", "queue_depth", plain.now, 0.0)
        assert len(samples) == plain.steps_traced // 256 + 1

    def test_untraced_sim_counts_no_steps(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker())
        sim.run()
        assert sim.steps_traced == 0


class TestResourceTracing:
    def test_bandwidth_resource_emits_nic_spans(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        nic = BandwidthResource(sim, rate=1e9, name="nic[0]")
        nic.completion_time(1000)
        spans = tracer.spans_on("nic[0]")
        assert len(spans) == 1
        assert spans[0].cat == "nic"
        assert spans[0].args["nbytes"] == 1000
        assert spans[0].duration == pytest.approx(1e-6)


class TestTracedExchange:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = MemoryTracer()
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True, tracer=tracer)
        result = run_exchange(job, ThreeStepStaged(), heavy_pattern())
        return job, tracer, result

    def test_virtual_times_bit_identical_to_untraced(self, traced):
        _job, _tracer, result = traced
        plain = SimJob(lassen(), num_nodes=2, ppn=8)
        baseline = run_exchange(plain, ThreeStepStaged(), heavy_pattern())
        assert result.comm_time == baseline.comm_time
        assert result.rank_times == baseline.rank_times

    def test_one_track_per_sending_rank(self, traced):
        job, tracer, _result = traced
        senders = {t.src for t in job.transport.trace_log}
        tracks = set(tracer.tracks())
        for rank in senders:
            assert f"rank{rank}" in tracks

    def test_message_spans_carry_attributes(self, traced):
        _job, tracer, result = traced
        msg_spans = [s for s in tracer.spans if s.cat == "msg"]
        assert len(msg_spans) == result.stats.messages
        for s in msg_spans:
            assert {"dest", "nbytes", "protocol", "locality"} <= set(s.args)
        names = {s.name for s in msg_spans}
        assert "gather" in names and "inter-node" in names

    def test_strategy_phase_lanes(self, traced):
        _job, tracer, _result = traced
        phase_spans = [s for s in tracer.spans if s.cat == "phase"]
        assert phase_spans
        assert all(s.track.endswith("/phase") for s in phase_spans)
        assert ({s.name for s in phase_spans}
                >= {"gather", "inter-node", "redistribute"})

    def test_nic_spans_present(self, traced):
        _job, tracer, _result = traced
        nic_spans = [s for s in tracer.spans if s.cat == "nic"]
        assert nic_spans
        assert all(s.track.startswith("nic[") for s in nic_spans)

    def test_export_round_trip(self, traced):
        _job, tracer, _result = traced
        trace = to_chrome_trace({"3-Step (staged)": tracer})
        assert validate_chrome_trace(trace) > 0

    def test_tracer_true_sugar(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, tracer=True)
        assert isinstance(job.tracer, MemoryTracer)
        run_exchange(job, StandardStaged(), heavy_pattern(block=16))
        assert job.tracer.num_records > 0


class TestJobMetrics:
    def test_snapshot_matches_stats(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True)
        result = run_exchange(job, StandardStaged(), heavy_pattern())
        snap = job.metrics()
        assert snap["schema"] == SCHEMA
        c = snap["counters"]
        assert c["transport.messages"] == result.stats.messages
        assert c["transport.bytes_sent"] == result.stats.bytes_sent
        assert c["transport.off_node.messages"] == \
            result.stats.off_node_messages
        assert snap["gauges"]["job.ranks"] == 16.0
        assert snap["gauges"]["sim.virtual_time_s"] > 0.0

    def test_histograms_from_trace_log(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True)
        result = run_exchange(job, StandardStaged(), heavy_pattern())
        hists = job.metrics()["histograms"]
        assert set(hists) == {"transport.message_bytes",
                              "transport.pipe_wait_s",
                              "transport.transfer_s"}
        sizes = hists["transport.message_bytes"]
        assert sizes["count"] == result.stats.messages
        assert sizes["min"] <= sizes["p50"] <= sizes["p99"] <= sizes["max"]

    def test_nic_utilization_gauges(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8)
        run_exchange(job, SplitMD(), heavy_pattern())
        g = job.metrics()["gauges"]
        for node in range(2):
            assert g[f"nic.nic[{node}].busy_s"] > 0.0
            assert 0.0 < g[f"nic.nic[{node}].utilization"] <= 1.0

    def test_untraced_job_has_no_histograms(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8)
        run_exchange(job, StandardStaged(), heavy_pattern(block=16))
        snap = job.metrics()
        assert snap["histograms"] == {}
        assert "engine.steps" not in snap["counters"]

    def test_json_round_trip(self):
        import json

        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True, tracer=True)
        run_exchange(job, StandardStaged(), heavy_pattern(block=16))
        snap = job.metrics()
        assert json.loads(json.dumps(snap)) == snap


class TestTraceLogLifecycle:
    """reset_stats / clear_trace are independent (observability split)."""

    def _run(self, job):
        run_exchange(job, StandardStaged(), heavy_pattern(block=16))

    def test_reset_stats_keeps_trace(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True)
        self._run(job)
        n = len(job.transport.trace_log)
        assert n > 0
        job.transport.reset_stats()
        assert job.transport.stats.messages == 0
        assert len(job.transport.trace_log) == n

    def test_clear_trace_keeps_stats(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True)
        self._run(job)
        msgs = job.transport.stats.messages
        assert msgs > 0
        job.transport.clear_trace()
        assert job.transport.trace_log == []
        assert job.transport.stats.messages == msgs

    def test_reset_state_clears_both(self):
        tracer = MemoryTracer()
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True, tracer=tracer)
        self._run(job)
        job.reset_state()
        assert job.transport.trace_log == []
        assert job.transport.stats.messages == 0
        assert tracer.num_records == 0

    def test_trace_log_entries_carry_phase_names(self):
        job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True)
        self._run(job)
        assert all(t.phase == "direct" for t in job.transport.trace_log)
