"""SPMD job launcher: run one generator program on every rank.

:class:`SimJob` wires together the DES kernel, the machine layout, the
transport and the world communicator, then runs a *program* — a callable
``program(ctx, *args) -> generator`` — as one process per rank:

>>> job = SimJob(lassen(), num_nodes=2, ppn=4)
>>> def program(ctx):
...     if ctx.rank == 0:
...         yield ctx.comm.send(1024, dest=ctx.size - 1)
...     elif ctx.rank == ctx.size - 1:
...         msg = yield ctx.comm.recv(source=0)
...     return ctx.now
>>> result = job.run(program)
>>> result.elapsed > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.faults.plan import NO_FAULTS, FaultPlan
from repro.machine.topology import JobLayout, MachineSpec, ProcessPlacement
from repro.mpi.communicator import CommHandle, Communicator
from repro.mpi.device import CopyEngine
from repro.mpi.transport import Transport, TransportStats
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.tracer import NULL_PHASE, MemoryTracer, PhaseSpan
from repro.sim.engine import Simulator
from repro.sim.noise import make_noise


class RankContext:
    """Everything one rank's program can see.

    Attributes
    ----------
    rank, size:
        World rank and job size.
    comm:
        World :class:`CommHandle`.
    placement:
        Hardware placement (node / socket / core / owned GPU).
    copy:
        The job's :class:`CopyEngine` for H2D/D2H transfers.
    """

    def __init__(self, job: "SimJob", rank: int) -> None:
        self.job = job
        self.rank = rank
        self.size = job.layout.size
        self.comm: CommHandle = job.world.handle(rank)
        self.placement: ProcessPlacement = job.layout.placement(rank)
        self.copy: CopyEngine = job.copy_engine

    # -- placement sugar -----------------------------------------------------
    @property
    def node(self) -> int:
        return self.placement.node

    @property
    def socket(self) -> int:
        return self.placement.socket

    @property
    def local_rank(self) -> int:
        return self.placement.local_rank

    @property
    def gpu(self) -> Optional[int]:
        """On-node GPU index owned by this rank (None for helpers)."""
        return self.placement.gpu

    @property
    def global_gpu(self) -> Optional[int]:
        return self.job.layout.global_gpu_of(self.rank)

    @property
    def is_gpu_owner(self) -> bool:
        return self.placement.gpu is not None

    @property
    def layout(self) -> JobLayout:
        return self.job.layout

    @property
    def machine(self) -> MachineSpec:
        return self.job.layout.machine

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.job.sim.now

    def timeout(self, delay: float):
        """Locally advance this rank's time (compute phases, sleeps)."""
        return self.job.sim.timeout(delay)

    def phase(self, name: str):
        """Span context manager for a named strategy phase.

        ``with ctx.phase("gather"): ...`` records one span covering the
        block's virtual-time extent on this rank's phase track.  With
        tracing disabled it returns a shared no-op context manager, so
        instrumented strategies cost nothing in ordinary runs.
        """
        sim = self.job.sim
        if not sim._trace_on:
            return NULL_PHASE
        return PhaseSpan(sim, f"rank{self.rank}/phase", name)


@dataclass
class JobResult:
    """Outcome of one :meth:`SimJob.run`.

    ``elapsed`` is the job's virtual makespan; ``values`` the per-rank
    program return values; ``rank_times`` the virtual time at which each
    rank's program finished.  Both lists have one entry per rank of the
    job: ``None`` and ``0.0`` for a rank that was not started
    (``run(ranks=...)``) or did not finish.
    """

    elapsed: float
    values: List[Any]
    rank_times: List[float]
    stats: TransportStats

    @property
    def max_rank_time(self) -> float:
        return max(self.rank_times) if self.rank_times else 0.0


class SimJob:
    """One simulated MPI job: machine x nodes x ppn (+ noise).

    Parameters
    ----------
    machine:
        Node architecture (see :mod:`repro.machine.presets`).
    num_nodes, ppn:
        Job shape.
    noise_sigma, seed:
        Lognormal timing-jitter scale (0 = exact costs) and RNG seed.
    trace, tracer:
        ``trace=True`` records one :class:`MessageTrace` per message on
        the transport; ``tracer`` (a :class:`repro.obs.MemoryTracer`, or
        ``True`` for a fresh one) additionally enables engine/NIC/phase
        span recording for the Perfetto exporter.  Both default off —
        ordinary runs pay only cached-boolean guards.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject (default
        :data:`~repro.faults.NO_FAULTS` — fault-free, bit-identical to a
        job built without the parameter).  Forked per run like the noise
        model, so repeated runs draw independent-but-seeded fault
        streams.
    max_events, max_wall_seconds:
        Watchdog budgets forwarded to every ``sim.run`` (None = no
        budget); exceeding one raises
        :class:`~repro.sim.engine.WatchdogError`.
    """

    def __init__(self, machine: MachineSpec, num_nodes: int, ppn: int,
                 noise_sigma: float = 0.0, seed: int = 0,
                 overhead_fraction: Optional[float] = None,
                 queue_search_cost: float = 0.0,
                 trace: bool = False, tracer=None,
                 faults: Optional[FaultPlan] = None,
                 max_events: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None) -> None:
        self.layout = JobLayout(machine, num_nodes, ppn)
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.overhead_fraction = overhead_fraction
        self.queue_search_cost = queue_search_cost
        self.trace = trace
        self.faults = faults if faults is not None else NO_FAULTS
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        # ``tracer=True`` is sugar for a fresh in-memory tracer; the
        # instance is shared across runs (each run clears it first).
        self.tracer = MemoryTracer() if tracer is True else tracer
        self._run_count = 0
        self.sim: Simulator = None  # type: ignore[assignment]
        self.transport: Transport = None  # type: ignore[assignment]
        self.world: Communicator = None  # type: ignore[assignment]
        self.copy_engine: CopyEngine = None  # type: ignore[assignment]
        self._fresh()

    def _fresh(self) -> None:
        """(Re)build simulator state for an independent run.

        Each run draws fresh (but seeded) noise streams, so repeated
        runs model independent measurements while two jobs constructed
        with the same seed replay identical run sequences.
        """
        if self.tracer is not None:
            self.tracer.clear()
        self.sim = Simulator(tracer=self.tracer)
        noise = make_noise(self.noise_sigma, self.seed)
        run = self._run_count
        self._run_count += 1
        self.transport = Transport(self.sim, self.layout,
                                   noise=noise.fork(2 * run),
                                   overhead_fraction=self.overhead_fraction,
                                   queue_search_cost=self.queue_search_cost,
                                   trace=self.trace,
                                   faults=self.faults.fork(run))
        self.world = Communicator(
            self.transport, range(self.layout.size), name="world")
        self.copy_engine = CopyEngine(
            self.sim, self.layout.machine.copy_params,
            noise=noise.fork(2 * run + 1))

    def reset_state(self) -> None:
        """In-place equivalent of :meth:`_fresh` for benchmark sweeps.

        Resets the simulator clock/queues, NIC/pipe servers, transport
        statistics, communicator matching state and copy-engine counters
        while *reusing* the existing :class:`JobLayout`,
        :class:`Transport`, :class:`Communicator` and
        :class:`CopyEngine` objects (and their internal caches).  Noise
        streams are re-forked exactly as a full rebuild would, so a run
        after ``reset_state()`` produces bit-identical virtual times to
        one after ``_fresh()``.
        """
        self.sim.reset()
        if self.tracer is not None:
            self.tracer.clear()
        noise = make_noise(self.noise_sigma, self.seed)
        run = self._run_count
        self._run_count += 1
        self.transport.reset_nics()
        self.transport.reset_stats()
        self.transport.clear_trace()
        self.transport.noise = noise.fork(2 * run)
        self.transport.set_faults(self.faults.fork(run))
        self.world.reset_state()
        self.copy_engine.reset_stats()
        self.copy_engine.noise = noise.fork(2 * run + 1)

    # -- running programs ----------------------------------------------------
    def run(self, program: Callable[..., Generator], *args: Any,
            ranks: Optional[Iterable[int]] = None,
            reuse_state: bool = False, reset_state: bool = False,
            until: Optional[float] = None,
            **kwargs: Any) -> JobResult:
        """Run ``program(ctx, *args, **kwargs)`` on every rank.

        Each invocation starts from a fresh simulator (time 0, empty NIC
        queues) unless ``reuse_state=True``.  ``reset_state=True``
        instead resets the existing simulator/transport in place — the
        benchmark-sweep fast path, observably identical to a rebuild but
        without the per-point construction cost.

        ``ranks`` restricts the launch to those ranks (started in
        ascending order; default: all of them).  Ranks left out must
        have nothing to do: no process, context or trace span is created
        for them, which for a program that would have returned at once
        without touching a resource changes no virtual time.  In the
        result ``values[r] is None`` and ``rank_times[r] == 0.0`` for
        every rank that was not started or did not finish (``until``).
        """
        if reuse_state:
            pass
        elif reset_state:
            self.reset_state()
        else:
            self._fresh()
        size = self.layout.size
        started = range(size) if ranks is None else sorted(set(ranks))
        if started and not (0 <= started[0] and started[-1] < size):
            raise ValueError(f"ranks must lie in [0, {size}), got {started}")
        sim = self.sim
        finish_times = [0.0] * size

        def wrap(ctx: RankContext) -> Generator:
            value = yield from program(ctx, *args, **kwargs)
            finish_times[ctx.rank] = sim._now
            return value

        procs = [sim.process(wrap(RankContext(self, r)), label=f"rank{r}")
                 for r in started]
        sim.run(until=until, max_events=self.max_events,
                max_wall_seconds=self.max_wall_seconds)
        values: List[Any] = [None] * size
        for r, p in zip(started, procs):
            if p.processed:
                values[r] = p.value
        return JobResult(
            elapsed=sim.now,
            values=values,
            rank_times=finish_times,
            stats=self.transport.stats,
        )

    # -- observability -------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Metrics snapshot of the last run (stable JSON schema).

        Absorbs the transport/copy-engine counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` and — when message
        tracing was enabled — adds message-size and queueing-delay
        histograms with p50/p95/p99 summaries, plus per-NIC busy-time
        gauges.  Pure post-processing: calling it never perturbs
        simulation state, and it costs nothing unless called.
        """
        from repro.machine.locality import TransportKind

        reg = MetricsRegistry()
        s = self.transport.stats
        reg.counter("transport.messages").inc(s.messages)
        reg.counter("transport.bytes_sent").inc(s.bytes_sent)
        reg.counter("transport.off_node.messages").inc(s.off_node_messages)
        reg.counter("transport.off_node.bytes").inc(s.off_node_bytes)
        for proto, n in sorted(s.by_protocol.items(), key=lambda kv: kv[0].name):
            reg.counter(f"transport.protocol.{proto.name.lower()}").inc(n)
        for loc, n in sorted(s.by_locality.items(), key=lambda kv: kv[0].name):
            reg.counter(f"transport.locality.{loc.name.lower()}").inc(n)
        if self.transport.faults.active:
            reg.counter("faults.retries").inc(s.retries)
            reg.counter("faults.timeouts").inc(s.timeouts)
            reg.counter("faults.gave_up").inc(s.gave_up)
            reg.counter("faults.degraded").inc(s.degraded)
        reg.counter("copy.h2d_bytes").inc(self.copy_engine.h2d_bytes)
        reg.counter("copy.d2h_bytes").inc(self.copy_engine.d2h_bytes)
        reg.counter("copy.copies").inc(self.copy_engine.copies)
        reg.gauge("job.ranks").set(self.layout.size)
        reg.gauge("job.nodes").set(self.layout.num_nodes)
        reg.gauge("sim.virtual_time_s").set(self.sim.now)
        if self.sim.steps_traced:
            reg.counter("engine.steps").inc(self.sim.steps_traced)
        elapsed = self.sim.now
        for node in range(self.layout.num_nodes):
            nic = self.transport.nic_of(node, TransportKind.CPU)
            busy = nic.bytes_served / nic.rate
            reg.gauge(f"nic.{nic.name}.busy_s").set(busy)
            if elapsed > 0:
                reg.gauge(f"nic.{nic.name}.utilization").set(busy / elapsed)
        log = self.transport.trace_log
        if log:
            sizes = reg.histogram("transport.message_bytes")
            pipe = reg.histogram("transport.pipe_wait_s",
                                 DEFAULT_TIME_BUCKETS)
            xfer = reg.histogram("transport.transfer_s", DEFAULT_TIME_BUCKETS)
            for t in log:
                sizes.observe(t.nbytes)
                pipe.observe(t.pipe_wait)
                xfer.observe(t.transfer_time)
        return reg.to_dict()
