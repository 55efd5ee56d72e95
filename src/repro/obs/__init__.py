"""Unified observability layer: tracing, metrics, and trace export.

``repro.obs`` is the cross-cutting subsystem that makes the simulator's
hot paths diagnosable instead of guessable:

* :mod:`repro.obs.tracer` — a span/event/counter tracer threaded
  through the DES engine (process lifetimes, queue depths), the shared
  resources (NIC byte-server occupancy), the transport (per-message
  spans with protocol/locality/phase attributes) and the strategies
  (named phase spans).  The default :class:`NullTracer` costs one
  cached-boolean branch per record site; the untraced ``perfbench/``
  workloads time that path, and their traced runs report
  ``obs.tracer_overhead`` and ``trace.overhead``.
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with p50/p95/p99 summaries, snapshotted by
  ``SimJob.metrics()`` into a stable JSON schema.
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON (one
  track per rank and per NIC), a NIC-utilization time-series sampler,
  and a text report; driven by ``python -m repro trace``.
* :mod:`repro.obs.ledger` — the append-only, schema-versioned JSONL
  **run ledger** every CLI entry point can emit (``--ledger``):
  byte-deterministic modulo a declared non-deterministic envelope, with
  a stable content-hashed ``run_id``.  Consumed by
  ``python -m repro obs`` (:mod:`repro.obs.analysis`: ``report`` /
  ``diff`` / ``flame`` / ``validate``).
* :mod:`repro.obs.profile` — an opt-in sampling profiler (``--profile``)
  exporting collapsed-stack flamegraph data for host CPU time, the
  counterpart to the tracer's virtual-time attribution.

Enable recording per job::

    from repro.obs import MemoryTracer
    tracer = MemoryTracer()
    job = SimJob(lassen(), num_nodes=2, ppn=8, trace=True, tracer=tracer)
    run_exchange(job, SplitMD(), pattern)
    write_chrome_trace("trace.json", to_chrome_trace(tracer))
"""

from repro.obs.tracer import (
    NULL_TRACER,
    CounterRecord,
    InstantRecord,
    MemoryTracer,
    NullTracer,
    PhaseSpan,
    SpanRecord,
)
from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import (
    nic_utilization,
    render_text_report,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    canonical_dumps,
    deterministic_view,
    ledger_fingerprint,
    ledger_json_schema,
    make_run_id,
    read_ledger,
    validate_ledger,
)
from repro.obs.profile import SamplingProfiler
from repro.obs.analysis import hotspots

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "SamplingProfiler",
    "canonical_dumps",
    "deterministic_view",
    "hotspots",
    "ledger_fingerprint",
    "ledger_json_schema",
    "make_run_id",
    "read_ledger",
    "validate_ledger",
    "NULL_TRACER",
    "NullTracer",
    "MemoryTracer",
    "SpanRecord",
    "InstantRecord",
    "CounterRecord",
    "PhaseSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BYTE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "nic_utilization",
    "render_text_report",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
