"""Shared interface machinery."""

from __future__ import annotations

import abc

from repro.common.iorequest import IORequest

# Fabricated host-buffer address space: each request's data buffer gets a
# page-aligned virtual region; the DMA engine only cares about page
# boundaries, not real contents of the addresses.
_BUFFER_BASE = 0x1_0000_0000
_BUFFER_STRIDE = 4 * 1024 * 1024


def buffer_address(req: IORequest) -> int:
    """Deterministic page-aligned host address for a request's buffer."""
    return _BUFFER_BASE + (req.req_id % 4096) * _BUFFER_STRIDE


class HostAdapter(abc.ABC):
    """Host-side entry point of a storage interface.

    The block layer calls :meth:`submit`, which must return an event that
    fires with the read payload (or None) once the device has completed
    the command and the completion structures have reached the host.
    """

    #: hardware bound on outstanding commands (NCQ slots, SQ capacity...)
    max_outstanding: int = 32

    @abc.abstractmethod
    def submit(self, req: IORequest):
        """Issue a request; returns a sim Event."""
