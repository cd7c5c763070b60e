"""FIFO message transport over the simulated WAN.

The paper assumes ``n`` sites connected by FIFO channels (Section II-B).
The network draws a delay from the latency model per message and enforces
FIFO per directed channel by clamping each arrival to be no earlier than
the channel's previous arrival.

A message in flight is one engine heap entry, ``(arrival, seq, deliver,
msg, src, dst)``: ``deliver`` is built once per message kind
(:meth:`Network._deliverer`), so a copy costs no closure or handle of its
own.  Whether the destination is down is judged when it arrives.

Failure injection (used by the availability extension and the fault tests):

* :meth:`Network.fail_site` — the site stops receiving and sending;
* :meth:`Network.partition` — split the sites into groups; messages
  crossing a group boundary are *held* and delivered (FIFO per channel)
  when :meth:`Network.heal` is called — modeling a network partition whose
  traffic is retransmitted after healing, as the paper's liveness
  assumptions require (updates are never lost, only delayed);
* :attr:`Network.drop_filter` — arbitrary predicate dropping messages.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.types import SiteId

#: minimal spacing between two arrivals on one channel, keeps FIFO strict
_FIFO_EPSILON = 1e-9


def _update_write_ids(kind: str, msg: Any) -> Tuple[Any, ...]:
    """The write ids carried by one wire message (empty for non-updates);
    what the lifecycle recorder keys its transport events on."""
    if kind == MetricsCollector.UPDATE:
        return (msg.write_id,)
    if kind == "update-batch":
        return tuple(u.write_id for u in msg.updates)
    return ()


class Network:
    """Transports messages between sites with per-channel FIFO delivery."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        rng: np.random.Generator,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.rng = rng
        self.metrics = metrics
        #: optional repro.obs lifecycle recorder (None = tracing off);
        #: set by Cluster.attach_recorder
        self.recorder = None
        self._last_arrival: Dict[Tuple[SiteId, SiteId], float] = {}
        self._handlers: Dict[SiteId, Callable[[str, Any], None]] = {}
        self.down: Set[SiteId] = set()
        #: optional predicate (kind, msg, src, dst) -> True to drop
        self.drop_filter: Optional[Callable[[str, Any, SiteId, SiteId], bool]] = None
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        self.messages_held = 0
        #: site -> partition group id; None = no partition active
        self._partition_of: Optional[Dict[SiteId, int]] = None
        #: messages held at a partition boundary, in send order
        self._held: list[Tuple[str, Any, SiteId, SiteId]] = []
        #: message kind -> its delivery callback (see _deliverer)
        self._deliverers: Dict[str, Callable[[Any, SiteId, SiteId], None]] = {}

    # ------------------------------------------------------------------
    def register(self, site: SiteId, handler: Callable[[str, Any], None]) -> None:
        """Register the delivery handler of one site: ``handler(kind, msg)``."""
        if site in self._handlers:
            raise SimulationError(f"site {site} registered twice")
        self._handlers[site] = handler

    def fail_site(self, site: SiteId) -> None:
        self.down.add(site)

    def recover_site(self, site: SiteId) -> None:
        self.down.discard(site)

    # ------------------------------------------------------------------
    def partition(self, *groups: "Iterable[SiteId]") -> None:
        """Split the network: messages between different ``groups`` are
        held until :meth:`heal`.  Sites not named fall into an implicit
        final group."""
        mapping: Dict[SiteId, int] = {}
        for gid, group in enumerate(groups):
            for site in group:
                if site in mapping:
                    raise SimulationError(f"site {site} in two partition groups")
                mapping[site] = gid
        self._partition_of = mapping

    @property
    def partitioned(self) -> bool:
        return self._partition_of is not None

    def _crosses_partition(self, src: SiteId, dst: SiteId) -> bool:
        if self._partition_of is None:
            return False
        last = max(self._partition_of.values(), default=-1) + 1
        return self._partition_of.get(src, last) != self._partition_of.get(dst, last)

    def heal(self) -> int:
        """End the partition and release every held message (original send
        order, FIFO per channel).  Returns the number released."""
        self._partition_of = None
        held, self._held = self._held, []
        for kind, msg, src, dst in held:
            self.send(kind, msg, src, dst, _replay=True)
        return len(held)

    # ------------------------------------------------------------------
    def send(
        self, kind: str, msg: Any, src: SiteId, dst: SiteId, _replay: bool = False
    ) -> None:
        """Send one message; it will be delivered after a sampled delay
        (FIFO per channel).  Metrics are charged at send time — a dropped
        message was still paid for on the wire."""
        self.send_many(kind, (msg,), src, (dst,), _replay)

    def send_many(
        self,
        kind: str,
        msgs: Sequence[Any],
        src: SiteId,
        dsts: Sequence[SiteId],
        _replay: bool = False,
    ) -> None:
        """Send ``msgs[i]`` to ``dsts[i]``, all from ``src`` — the copies of
        one multicast.  A self-send rejects the whole multicast before any
        copy is charged.  Accounting, the partition, down-site and
        drop-filter checks run per message in send order; the delays of the
        messages that survive them come from one ``LatencyModel.sample_many``
        draw, which consumes the generator exactly as per-message draws
        would."""
        if src in dsts:
            raise SimulationError(f"site {src} sending to itself")
        rec = self.recorder
        if rec is not None and not rec.enabled:
            rec = None
        now = self.sim.now
        live_msgs = []
        live_dsts = []
        for msg, dst in zip(msgs, dsts):
            if not _replay:
                self.messages_sent += 1
                if self.metrics is not None:
                    self.metrics.on_message(kind, msg)
            if self._crosses_partition(src, dst):
                self.messages_held += 1
                self._held.append((kind, msg, src, dst))
                if rec is not None:
                    for wid in _update_write_ids(kind, msg):
                        rec.on_hold(now, src, dst, wid)
            elif (
                src in self.down
                or dst in self.down
                or (
                    self.drop_filter is not None
                    and self.drop_filter(kind, msg, src, dst)
                )
            ):
                self.messages_dropped += 1
                if rec is not None:
                    for wid in _update_write_ids(kind, msg):
                        rec.on_drop(now, src, dst, wid)
            else:
                live_msgs.append(msg)
                live_dsts.append(dst)
        if not live_msgs:
            return
        delays = self.latency.sample_many(src, live_dsts, self.rng)
        last_arrival = self._last_arrival
        deliver = self._deliverers.get(kind)
        if deliver is None:
            deliver = self._deliverers[kind] = self._deliverer(kind)
        post = self.sim.post
        for msg, dst, delay in zip(live_msgs, live_dsts, delays):
            if delay < 0:
                raise SimulationError(
                    f"latency model produced negative delay {delay}"
                )
            arrival = now + delay
            key = (src, dst)
            prev = last_arrival.get(key, -1.0)
            if arrival <= prev:
                arrival = prev + _FIFO_EPSILON
            last_arrival[key] = arrival
            if rec is not None:
                for wid in _update_write_ids(kind, msg):
                    rec.on_enqueue(now, src, dst, wid, arrival)
            # arrival - now, not the delay: the engine adds now back, and
            # every recorded run carries that rounding
            post(arrival - now, deliver, msg, src, dst)

    def _deliverer(self, kind: str) -> Callable[[Any, SiteId, SiteId], None]:
        """The delivery callback of every ``kind`` message: a copy sent to a
        site that is down by its arrival is dropped there."""

        def deliver(msg: Any, src: SiteId, dst: SiteId) -> None:
            if dst in self.down:
                self.messages_dropped += 1
                rec = self.recorder
                if rec is not None and rec.enabled:
                    for wid in _update_write_ids(kind, msg):
                        rec.on_drop(self.sim.now, src, dst, wid)
                return
            self.messages_delivered += 1
            try:
                handler = self._handlers[dst]
            except KeyError:
                raise SimulationError(f"no handler registered for site {dst}") from None
            handler(kind, msg)

        return deliver
