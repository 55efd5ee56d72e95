"""Simulated MPI runtime on the DES kernel.

This package implements the MPI semantics the paper's communication
strategies rely on, executing in virtual time on
:class:`repro.sim.Simulator`:

* rank-per-process SPMD execution (:class:`~repro.mpi.job.SimJob`),
* point-to-point ``isend``/``irecv``/``send``/``recv``/``waitall`` with
  tag and source matching (including wildcards) and non-overtaking
  order, on the world or a :class:`Communicator` over any subset of
  world ranks,
* protocol selection (short / eager / rendezvous) by message size,
* per-locality postal costs and per-node NIC injection contention
  (max-rate behaviour),
* device buffers, ``cudaMemcpyAsync``-style H2D/D2H copies, and
  device-aware sends straight from GPU memory.

Ranks are generator coroutines; every blocking MPI call is a ``yield``:

>>> def program(ctx):
...     if ctx.rank == 0:
...         yield ctx.comm.send(np.arange(4.0), dest=1, tag=7)
...     elif ctx.rank == 1:
...         msg = yield ctx.comm.recv(source=0, tag=7)
"""

from repro.mpi.buffers import DeviceBuffer, payload_nbytes, payload_data
from repro.mpi.request import Request, RequestState
from repro.mpi.transport import Transport, TransportStats
from repro.mpi.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    CommHandle,
    Communicator,
    Message,
)
from repro.mpi.job import JobResult, RankContext, SimJob

__all__ = [
    "DeviceBuffer",
    "payload_nbytes",
    "payload_data",
    "Request",
    "RequestState",
    "Transport",
    "TransportStats",
    "ANY_SOURCE",
    "ANY_TAG",
    "CommHandle",
    "Communicator",
    "Message",
    "JobResult",
    "RankContext",
    "SimJob",
]
