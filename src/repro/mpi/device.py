"""Simulated GPU data movement: ``cudaMemcpyAsync`` analog.

Copies between host memory and :class:`~repro.mpi.buffers.DeviceBuffer`
objects cost virtual time per the machine's Table-3 parameters, keyed by
direction (H2D / D2H) and the number of processes pulling from the same
GPU concurrently (duplicate device pointers — the Split + DD path).

The paper measured 1- and 4-process parameters and observed no benefit
beyond four concurrent copies (Figure 3.1); lookups for other counts
resolve to the largest measured count not exceeding the request.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.machine.locality import CopyDirection
from repro.machine.params import CopyParams
from repro.mpi.buffers import DeviceBuffer
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.noise import NoiseModel, NoNoise


class CopyEngine:
    """Times host<->device copies for one job."""

    def __init__(self, sim: Simulator, params: CopyParams,
                 noise: Optional[NoiseModel] = None) -> None:
        self.sim = sim
        self.params = params
        self.noise = noise if noise is not None else NoNoise()
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.copies = 0

    def reset_stats(self) -> None:
        """Clear volume/count counters (between independent benchmark reps)."""
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.copies = 0

    def _cost(self, direction: CopyDirection, nbytes: int, nproc: int,
              team_bytes: Optional[int]) -> float:
        """Wall time seen by one member of an ``nproc``-way copy team.

        ``nbytes`` is this process's slice; the fitted Table-3
        parameters apply to the team's *total* volume (``team_bytes``,
        defaulting to ``nbytes * nproc`` for equal shares), since that
        is what the paper's Figure-3.1 sweep measures.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nproc < 1:
            raise ValueError(f"nproc must be >= 1, got {nproc}")
        total = nbytes * nproc if team_bytes is None else team_bytes
        if total < nbytes:
            raise ValueError(
                f"team_bytes={total} smaller than this slice ({nbytes})"
            )
        return self.noise.perturb(self.params.time(direction, total, nproc))

    # -- D2H ----------------------------------------------------------------
    def d2h(self, buf: DeviceBuffer, nproc: int = 1,
            team_bytes: Optional[int] = None) -> Tuple[Event, object]:
        """Copy this process's device slice to the host.

        Returns ``(event, host_data)``; the event fires when the copy
        completes, ``host_data`` is the array (or byte count for
        size-only buffers).  ``nproc > 1`` declares a duplicate-device-
        pointer team copy: ``buf`` is this process's slice and the cost
        follows the team's total volume with the concurrent-copy
        parameters.
        """
        if not isinstance(buf, DeviceBuffer):
            raise TypeError(f"d2h expects a DeviceBuffer, got {type(buf).__name__}")
        cost = self._cost(CopyDirection.D2H, buf.nbytes, nproc, team_bytes)
        self.d2h_bytes += buf.nbytes
        self.copies += 1
        host = buf.data if buf.data is not None else buf.nbytes
        return self.sim.timeout(cost, value=host), host

    # -- H2D ----------------------------------------------------------------
    def h2d(self, data: Union[np.ndarray, int, float], gpu: int,
            nproc: int = 1,
            team_bytes: Optional[int] = None) -> Tuple[Event, DeviceBuffer]:
        """Copy host data onto GPU ``gpu`` (slice of an ``nproc`` team).

        Returns ``(event, device_buffer)``; the event fires at copy
        completion.
        """
        buf = DeviceBuffer(gpu, data)
        cost = self._cost(CopyDirection.H2D, buf.nbytes, nproc, team_bytes)
        self.h2d_bytes += buf.nbytes
        self.copies += 1
        return self.sim.timeout(cost, value=buf), buf
