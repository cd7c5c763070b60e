"""Client migration with session guarantees (beyond the paper).

The paper's model pins one application process to each site.  Real cloud
clients *move*: a user reads their timeline through datacenter A, then
their phone reconnects through datacenter B.  Without care this breaks the
session guarantees causal consistency is prized for — B may not have
applied what the client already saw at A (monotonic reads), or the
client's own write issued at A (read-your-writes).

:class:`MigratingClient` fixes this with a client-side *causal token*, the
moral equivalent of a COPS context, built from the protocols' own
metadata:

* **full-track** — the token is a matrix clock.  It absorbs the
  ``LastWriteOn`` clock of every value the client reads.  Before a read at
  site ``s``, the client waits until ``s`` has applied everything the
  token says was destined to ``s`` (``Apply_s >= token[:, s]``).  Before a
  write at ``s``, the token is merged into ``s``'s Write clock so the
  write's piggybacked dependencies include the client's causal past.
* **opt-track** — the token is a dependency log (merged with the same
  MERGE as the protocol); reads wait on token records naming the serving
  site; writes merge the token into the site's log first.
* **opt-track-crp / optp / ahamad** — the token is an ``n``-vector of
  per-writer clocks (full replication makes per-writer sequence numbers
  directly comparable with the sites' apply state).

All waiting runs through the cluster's event loop, so a stalled guarantee
simply blocks the client until replication catches up — availability is
traded exactly where the CAP theorem says it must be.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.core.ahamad import AhamadProtocol
from repro.core.base import CausalProtocol
from repro.core.clocks import MatrixClock, VectorClock
from repro.core.full_track import FullTrackProtocol
from repro.core.log import DepLog
from repro.core.opt_track import OptTrackProtocol
from repro.core.opt_track_crp import OptTrackCrpProtocol
from repro.core.optp import OptPProtocol
from repro.core import bitsets
from repro.errors import ConfigurationError, DeadlockError
from repro.sim.cluster import Cluster
from repro.types import SiteId, VarId, WriteId


class _Token:
    """Protocol-specific causal token."""

    def covered_by(self, proto: CausalProtocol) -> bool:
        raise NotImplementedError

    def absorb_site(self, proto: CausalProtocol) -> None:
        """Fold the site's current causal knowledge into the token (after
        an operation performed there)."""
        raise NotImplementedError

    def push_to_site(self, proto: CausalProtocol) -> None:
        """Fold the token into the site's causal state (before a write, so
        the write inherits the client's dependencies)."""
        raise NotImplementedError


class _MatrixToken(_Token):
    def __init__(self, n: int) -> None:
        self.clock = MatrixClock(n)

    def covered_by(self, proto: FullTrackProtocol) -> bool:
        col = self.clock.m[:, proto.site]
        return bool(np.all(proto.apply_counts >= col))

    def absorb_site(self, proto: FullTrackProtocol) -> None:
        self.clock.merge(proto.write_clock)

    def push_to_site(self, proto: FullTrackProtocol) -> None:
        proto.write_clock.merge(self.clock)


class _LogToken(_Token):
    def __init__(self) -> None:
        self.log = DepLog()

    def covered_by(self, proto: OptTrackProtocol) -> bool:
        me = bitsets.singleton(proto.site)
        return all(
            proto.apply_clocks[z] >= c for (z, c), d in self.log if d & me
        )

    def absorb_site(self, proto: OptTrackProtocol) -> None:
        self.log.merge(proto.log)
        self.log.purge()

    def push_to_site(self, proto: OptTrackProtocol) -> None:
        proto.log.merge(self.log)
        proto.log.purge()


class _VectorToken(_Token):
    def __init__(self, n: int) -> None:
        self.clock = VectorClock(n)

    def _site_vector(self, proto: CausalProtocol) -> VectorClock:
        if isinstance(proto, OptTrackCrpProtocol):
            return VectorClock(proto.n, proto.apply_clocks)
        if isinstance(proto, (OptPProtocol, AhamadProtocol)):
            return proto.apply_counts
        raise ConfigurationError(f"unsupported protocol {type(proto).__name__}")

    def covered_by(self, proto: CausalProtocol) -> bool:
        return self._site_vector(proto).dominates(self.clock)

    def absorb_site(self, proto: CausalProtocol) -> None:
        self.clock.merge(self._site_vector(proto))

    def push_to_site(self, proto: CausalProtocol) -> None:
        # Writes-follow-reads: the client's next write at this site must
        # piggyback the client's causal past, so other sites order it
        # after everything the client has seen.  Inject the token into the
        # structure each protocol piggybacks on writes.
        if isinstance(proto, OptTrackCrpProtocol):
            for z, c in enumerate(self.clock.v):
                if c > proto.log.get(z, 0):
                    proto.log[z] = c
        elif isinstance(proto, OptPProtocol):
            proto.write_clock.merge(self.clock)
        elif isinstance(proto, AhamadProtocol):
            proto.vector_clock.merge(self.clock)
        else:  # pragma: no cover - guarded by _make_token
            raise ConfigurationError(f"unsupported protocol {type(proto).__name__}")


def _make_token(proto: CausalProtocol) -> _Token:
    if isinstance(proto, FullTrackProtocol):
        return _MatrixToken(proto.n)
    if isinstance(proto, OptTrackProtocol):
        return _LogToken()
    if isinstance(proto, (OptTrackCrpProtocol, OptPProtocol, AhamadProtocol)):
        return _VectorToken(proto.n)
    raise ConfigurationError(
        f"no session token for protocol {type(proto).__name__}"
    )


class MigratingClient:
    """A client that can re-attach to any datacenter while keeping its
    session guarantees (read-your-writes, monotonic reads, writes-follow-
    reads) on top of the cluster's causal consistency."""

    def __init__(self, cluster: Cluster, site: SiteId, name: str = "client") -> None:
        self.cluster = cluster
        self.site = site
        self.name = name
        self.token = _make_token(cluster.protocols[site])
        self.migrations = 0

    # ------------------------------------------------------------------
    def migrate(self, new_site: SiteId) -> None:
        """Re-attach to ``new_site``.  Cheap: guarantees are enforced
        lazily, per operation."""
        if not (0 <= new_site < self.cluster.n_sites):
            raise ConfigurationError(f"site {new_site} out of range")
        if new_site != self.site:
            self.site = new_site
            self.migrations += 1

    # ------------------------------------------------------------------
    def _wait_covered(self, proto: CausalProtocol) -> None:
        c = self.cluster
        if self.token.covered_by(proto):
            return
        c.sim.run(stop_when=lambda: self.token.covered_by(proto))
        if not self.token.covered_by(proto):
            raise DeadlockError(
                f"{self.name}: site {proto.site} never caught up with the "
                f"session's causal past (lost updates?)"
            )

    def read(self, var: VarId) -> Any:
        return self.read_versioned(var)[0]

    def read_versioned(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        proto = self.cluster.protocols[self.site]
        self._wait_covered(proto)
        value, wid = self.cluster.session(self.site).read_versioned(var)
        self.token.absorb_site(proto)
        return value, wid

    def write(self, var: VarId, value: Any) -> WriteId:
        proto = self.cluster.protocols[self.site]
        self._wait_covered(proto)
        self.token.push_to_site(proto)
        wid = self.cluster.session(self.site).write(var, value)
        self.token.absorb_site(proto)
        return wid
