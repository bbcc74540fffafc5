"""Shared-memory frame transport for the process-sharded engine.

The paper keeps frames on the device from decode to display, so feeding
the cascade kernels never costs a host round-trip (Section II).  The
process-sharded :class:`~repro.detect.engine.DetectionEngine` has the
same problem one level up: shipping a frame to a worker *process* by
pickling the ndarray copies it twice (serialise + deserialise) through a
pipe.  :class:`SharedFrameRing` removes both copies on the input side —
the parent writes the pixels once into a ``multiprocessing.shared_memory``
slot and the worker reads them in place through a zero-copy ndarray view.

The ring has a fixed number of slots sized at creation.  The engine
creates it with ``slots = max_in_flight``, so its live-frame bound (a
stream's frames are live from their pull until their group completes,
and at most ``max_in_flight`` are in flight) doubles as the ring's
occupancy bound: a slot is acquired at submit and released when its
group completes, so a stream of full groups always finds a free slot.
Oversized frames (a mixed-resolution stream growing mid-flight) fall
back to pickle transport rather than failing — :meth:`put` returns
``None`` and the caller ships the array inline.

Workers attach lazily by name via :meth:`SlotTicket.view`-serving
:func:`attach_view`, caching one mapping per ring; tickets are tiny
picklable records (ring name, slot, geometry), which is all that crosses
the process boundary per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SlotTicket", "SharedFrameRing", "attach_view", "detach_all"]


@dataclass(frozen=True)
class SlotTicket:
    """A picklable claim on one ring slot holding one frame."""

    ring_name: str
    slot: int
    offset: int
    shape: tuple[int, ...]
    dtype: str


class SharedFrameRing:
    """A fixed-slot shared-memory ring the parent writes and workers read.

    Single-producer: only the creating process calls :meth:`put` /
    :meth:`release` (the engine's submit/emit loop runs on one thread).
    Readers use module-level :func:`attach_view` with the tickets
    ``put`` hands out.
    """

    def __init__(self, slots: int, slot_bytes: int, *, name: str | None = None) -> None:
        if slots <= 0:
            raise ConfigurationError(f"ring needs at least one slot, got {slots}")
        if slot_bytes <= 0:
            raise ConfigurationError(f"slot_bytes must be positive, got {slot_bytes}")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=slots * slot_bytes, name=name
        )
        self._free = list(range(slots - 1, -1, -1))
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def fits(self, array: np.ndarray) -> bool:
        return array.nbytes <= self.slot_bytes

    def put(self, array: np.ndarray) -> SlotTicket | None:
        """Copy ``array`` into a free slot; ``None`` if it does not fit.

        Raises :class:`ConfigurationError` when every slot is occupied —
        with the engine's backpressure bound that indicates a slot-leak
        bug, not a full pipeline, so it fails loudly instead of blocking.
        """
        if self._closed:
            raise ConfigurationError("ring is closed")
        if not self.fits(array):
            return None
        if not self._free:
            raise ConfigurationError(
                f"all {self.slots} ring slots occupied — release() missing?"
            )
        slot = self._free.pop()
        offset = slot * self.slot_bytes
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=self._shm.buf, offset=offset
        )
        view[...] = array
        return SlotTicket(
            ring_name=self._shm.name,
            slot=slot,
            offset=offset,
            shape=tuple(array.shape),
            dtype=str(array.dtype),
        )

    def release(self, ticket: SlotTicket) -> None:
        """Return a slot to the free list (the reader is done with it)."""
        if ticket.ring_name != self._shm.name:
            raise ConfigurationError(
                f"ticket belongs to ring {ticket.ring_name!r}, not {self._shm.name!r}"
            )
        if ticket.slot in self._free:
            raise ConfigurationError(f"slot {ticket.slot} released twice")
        self._free.append(ticket.slot)

    def view(self, ticket: SlotTicket) -> np.ndarray:
        """Zero-copy ndarray over a ticket's slot (producer-side check)."""
        return np.ndarray(
            ticket.shape,
            dtype=np.dtype(ticket.dtype),
            buffer=self._shm.buf,
            offset=ticket.offset,
        )

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent; creator-side only)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedFrameRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


#: reader-side cache: one attached segment per ring name per process
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def attach_view(ticket: SlotTicket) -> np.ndarray:
    """Zero-copy view of a ticket's frame from *any* process.

    The first ticket from a given ring attaches the segment and caches
    the mapping for the life of the process (worker pools are
    persistent, so every later frame is mapping-free).
    """
    shm = _ATTACHED.get(ticket.ring_name)
    if shm is None:
        try:
            # 3.13+: readers must not co-own tracker cleanup — the ring
            # creator unlinks, and double-tracking re-unlinks spuriously
            shm = shared_memory.SharedMemory(name=ticket.ring_name, track=False)
        except TypeError:
            # < 3.13: attach-registration goes to the *shared* tracker
            # process, whose register is idempotent, so the creator's
            # single unlink still cleans the slate — nothing to undo here
            shm = shared_memory.SharedMemory(name=ticket.ring_name)
        _ATTACHED[ticket.ring_name] = shm
    return np.ndarray(
        ticket.shape,
        dtype=np.dtype(ticket.dtype),
        buffer=shm.buf,
        offset=ticket.offset,
    )


def detach_all() -> None:
    """Drop every cached reader-side mapping (tests and worker teardown)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    _ATTACHED.clear()
