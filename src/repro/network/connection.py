"""NeEM-style virtual connection layer.

NeEM (the implementation the paper modifies) runs gossip over TCP/IP
connections to avoid congesting the network; when a connection blocks,
messages buffer in user space and a purging strategy drops some of them
to keep latency bounded -- "a virtual connection-less layer that provides
improved guarantees for gossiping" (section 5.2).

:class:`~repro.network.transport.ConnectionTransport` models the
user-space side of each directed connection: a bounded set of in-flight
packets.  When it overflows, the configured :class:`PurgePolicy` picks a
victim.  NeEM 0.5's custom purging drops *older* buffered messages first
(fresh epidemic traffic is more valuable than stale traffic), which is
the default there.
"""

from __future__ import annotations

import enum


class PurgePolicy(enum.Enum):
    """Victim selection when a connection buffer overflows."""

    DROP_OLDEST = "drop-oldest"
    DROP_NEWEST = "drop-newest"
    DROP_RANDOM = "drop-random"
