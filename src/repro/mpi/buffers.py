"""Message payloads: host arrays, device buffers, and size-only payloads.

A payload can be:

* a :class:`numpy.ndarray` — host (CPU) memory;
* a :class:`DeviceBuffer` — GPU memory, triggering the device-aware
  transport path when sent;
* a plain non-negative ``int`` or ``float`` — a *size-only* payload of
  that many bytes, used by microbenchmarks that only care about timing.
"""

from __future__ import annotations

from typing import Any, Optional, Union

import numpy as np


class DeviceBuffer:
    """A typed array resident in a (simulated) GPU's memory.

    Parameters
    ----------
    gpu:
        Job-wide GPU id the data lives on.
    data:
        The array contents (numpy array held on behalf of the device), or
        an ``int``/``float`` byte count for size-only buffers.
    """

    __slots__ = ("gpu", "data", "_nbytes")

    def __init__(self, gpu: int, data: Union[np.ndarray, int, float, Any],
                 nbytes: Optional[int] = None) -> None:
        if gpu < 0:
            raise ValueError(f"gpu id must be >= 0, got {gpu}")
        self.gpu = int(gpu)
        if isinstance(data, np.ndarray):
            self.data: Any = data
            self._nbytes = int(data.nbytes) if nbytes is None else int(nbytes)
        elif isinstance(data, (int, float)) and not isinstance(data, bool):
            if data < 0:
                raise ValueError(f"size-only payload must be >= 0, got {data!r}")
            self.data = None
            self._nbytes = int(data)
        elif nbytes is not None:
            # Structured device payload (e.g. a list of packed message
            # records) with an explicitly declared wire size.
            if nbytes < 0:
                raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
            self.data = data
            self._nbytes = int(nbytes)
        else:
            raise TypeError(
                f"DeviceBuffer data must be ndarray, byte count, or carry an "
                f"explicit nbytes, got {type(data).__name__}"
            )

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def is_size_only(self) -> bool:
        return self.data is None

    def to_gpu(self, gpu: int) -> "DeviceBuffer":
        """Rebind to another GPU (used when delivering device-aware recvs)."""
        if self.data is None:
            return DeviceBuffer(gpu, self._nbytes)
        return DeviceBuffer(gpu, self.data, nbytes=self._nbytes)

    def __len__(self) -> int:
        if self.data is None:
            raise TypeError("size-only DeviceBuffer has no element count")
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceBuffer(gpu={self.gpu}, nbytes={self._nbytes})"


Payload = Union[np.ndarray, DeviceBuffer, int, float]


def payload_nbytes(payload: Payload, nbytes: Optional[int] = None) -> int:
    """Byte size of a payload, honouring an explicit ``nbytes`` override."""
    if nbytes is not None:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        return int(nbytes)
    if isinstance(payload, DeviceBuffer):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        if payload < 0:
            raise ValueError(f"size-only payload must be >= 0, got {payload!r}")
        return int(payload)
    # Generic Python objects (control-plane values): charge
    # their serialized size, as an mpi4py lowercase send would.
    import pickle

    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # pragma: no cover - exotic unpicklables
        raise TypeError(
            f"unsupported payload type {type(payload).__name__}"
        ) from exc


def payload_data(payload: Payload) -> Optional[np.ndarray]:
    """Underlying array of a payload, ``None`` for size-only payloads."""
    if isinstance(payload, DeviceBuffer):
        return payload.data
    if isinstance(payload, np.ndarray):
        return payload
    return None


def is_device(payload: Payload) -> bool:
    """Whether a payload lives in GPU memory."""
    return isinstance(payload, DeviceBuffer)
