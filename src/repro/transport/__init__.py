"""Unified cluster transport: one fault surface, two implementations.

* :class:`~repro.transport.base.Transport` — the protocol (endpoints,
  mutes, partitions, loss, delay, the ``deliver`` verdict).
* :class:`~repro.simulation.network.SimNetwork` — the discrete-event
  implementation the simulator replays against.
* :class:`~repro.transport.asyncio_net.AsyncioTransport` — real asyncio
  sockets; :mod:`repro.transport.live` runs each MDS and Monitor replica
  as a task speaking the framed wire form of ``cluster.messages``.

See ``docs/SERVE.md`` for the live-mode architecture and CLI usage. The
package re-exports only :mod:`repro.transport.base`: the simulator imports
it, and the wire codec (with asyncio) loads only on the live path.
"""

from repro.transport.base import (
    CLIENT_ADDR,
    FaultFabric,
    Transport,
    mds_addr,
    mon_addr,
)

__all__ = [
    "CLIENT_ADDR",
    "FaultFabric",
    "Transport",
    "mds_addr",
    "mon_addr",
]
