"""Discrete-event simulation (DES) kernel.

This package provides the simulation substrate on which the simulated MPI
runtime (:mod:`repro.mpi`) executes.  It is a small, deterministic,
generator-coroutine event loop in the style of SimPy:

* :class:`~repro.sim.engine.Simulator` owns a virtual clock and two
  pending-event queues (a deque for zero-delay events, a heap for the
  rest) that pop in ``(time, sequence)`` order, so same-time events fire
  in a deterministic FIFO order; ``Simulator.run`` is the one loop that
  dispatches them.
* Processes are plain Python generators that ``yield`` :class:`Event`
  objects — timeouts, other processes, or an :class:`AllOf` over several
  events; the engine resumes them with the event's value when it fires,
  or raises the exception inside them when it failed.
* :class:`~repro.sim.resources.BandwidthResource` models a FIFO byte
  server (used for NIC injection limits, producing max-rate behaviour
  through contention rather than through a hard-coded formula), and
  :class:`~repro.sim.resources.TokenBucket` paces injection under a
  fault plan; both are booked by time, without events.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim, log):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.process(hello(sim, log))
>>> sim.run()
1.5
>>> log
[1.5]
"""

from repro.sim.engine import (Simulator, Process, SimulationError,
                              DeadlockError, WatchdogError)
from repro.sim.events import Event, Timeout, AllOf, EventState
from repro.sim.resources import BandwidthResource, TokenBucket
from repro.sim.noise import NoiseModel, NoNoise, LognormalNoise

__all__ = [
    "Simulator",
    "Process",
    "SimulationError",
    "DeadlockError",
    "WatchdogError",
    "Event",
    "Timeout",
    "AllOf",
    "EventState",
    "BandwidthResource",
    "TokenBucket",
    "NoiseModel",
    "NoNoise",
    "LognormalNoise",
]
