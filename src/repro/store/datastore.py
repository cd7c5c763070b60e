"""CausalStore — the developer-facing geo-replicated key-value API.

Wraps a :class:`repro.sim.cluster.Cluster` in the vocabulary of a cloud
key-value store: named keys (declared up front, as in the paper's fixed
variable set), datacenters, sessions pinned to a datacenter, ``put`` and
``get``.  This is the surface the examples program against; experiments
that need raw control use :class:`~repro.sim.cluster.Cluster` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, UnknownVariableError
from repro.sim.cluster import Cluster, ClusterConfig, Session
from repro.sim.topology import Topology
from repro.store.memory import SharedMemorySpec
from repro.store.placement import Placement, make_placement
from repro.types import SiteId, WriteId


@dataclass
class StoreConfig:
    """Configuration of a :class:`CausalStore`."""

    n_datacenters: int
    keys: Sequence[str]
    protocol: str = "opt-track"
    replication_factor: Optional[int] = None
    placement_strategy: str = "round-robin"
    placement: Optional[Placement] = None
    topology: Optional[Topology] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigurationError("a store needs at least one key")
        if len(set(self.keys)) != len(self.keys):
            raise ConfigurationError("duplicate keys")


class CausalStore:
    """A causally consistent, (partially) geo-replicated key-value store."""

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        n = config.n_datacenters
        if config.placement is not None:
            placement = dict(config.placement)
            missing = set(config.keys) - set(placement)
            if missing:
                raise ConfigurationError(f"placement missing keys: {sorted(missing)}")
        else:
            from repro.core.base import protocol_class

            p = (
                n
                if protocol_class(config.protocol).full_replication_only
                else (config.replication_factor or min(3, n))
            )
            distance = config.topology.delay if config.topology else None
            indexed = make_placement(
                config.placement_strategy,
                n,
                len(config.keys),
                p,
                seed=config.seed,
                distance=distance,
            )
            # re-key from x0..x{q-1} to the user's key names
            placement = {
                key: indexed[f"x{i}"] for i, key in enumerate(config.keys)
            }
        self.spec = SharedMemorySpec(n, placement)
        self.cluster = Cluster(
            ClusterConfig(
                n_sites=n,
                protocol=config.protocol,
                placement=placement,
                topology=config.topology,
                seed=config.seed,
            )
        )
        self._sessions: Dict[SiteId, Session] = {}

    # ------------------------------------------------------------------
    @property
    def keys(self) -> List[str]:
        return self.spec.variables

    def session(self, datacenter: SiteId) -> Session:
        if datacenter not in self._sessions:
            self._sessions[datacenter] = self.cluster.session(datacenter)
        return self._sessions[datacenter]

    def put(self, datacenter: SiteId, key: str, value: Any) -> WriteId:
        """Write ``key`` from ``datacenter``; replication is asynchronous."""
        if key not in self.spec.placement:
            raise UnknownVariableError(key)
        return self.session(datacenter).write(key, value)

    def get(self, datacenter: SiteId, key: str) -> Any:
        """Read ``key`` from ``datacenter`` (remote fetch if not local)."""
        if key not in self.spec.placement:
            raise UnknownVariableError(key)
        return self.session(datacenter).read(key)

    def get_versioned(self, datacenter: SiteId, key: str) -> Tuple[Any, Optional[WriteId]]:
        if key not in self.spec.placement:
            raise UnknownVariableError(key)
        return self.session(datacenter).read_versioned(key)

    def replicas(self, key: str) -> Tuple[SiteId, ...]:
        return self.spec.replicas(key)

    def settle(self) -> None:
        """Drain all in-flight replication traffic."""
        self.cluster.settle()

    def check(self):
        """Run the causal-consistency checker over everything so far."""
        from repro.verify.checker import check_history

        if self.cluster.history is None:
            raise ConfigurationError("history recording is disabled")
        return check_history(self.cluster.history, self.spec.placement)
