"""Outside-in instrumentation for the traced window.

Nothing in ``repro`` is edited or subclassed for tracing: every span is
recorded from here, around a call into a module's *public* surface —

* ``client``    a span around each ``KVClient.put`` / ``get`` (recorded by
  the load generator in :mod:`kv`); its id travels in a ``contextvars``
  variable so the transport spans on that session's connection name it as
  parent and share its request id;
* ``transport`` :class:`TracingTransport` wraps the real transport and is
  handed to ``ServiceCluster(transport=...)``; it times ``send`` /
  ``send_many`` / ``recv`` on every connection and keeps the frames sent,
  which :mod:`micro` later replays through the public codec functions;
* ``core``      :func:`instrument_protocol` shadows a protocol instance's
  public methods with timing wrappers (site-tagged, no parent: nothing on
  the wire carries a request id yet);
* ``durability`` :func:`instrument_wal` does the same for ``SiteWal.append``
  / ``append_raw``.

Spans are ``(id, name, start, end, parent, request, site)`` tuples appended
to in-memory lists and written out after the window.  Self time of a span
is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.transport import Connection, Listener, Transport

#: ``(span id, request id)`` of the client operation running in this task
CURRENT_OP: contextvars.ContextVar[Optional[Tuple[int, int]]] = contextvars.ContextVar(
    "perf_current_op", default=None
)

#: spans kept individually (and written to the trace file) per window;
#: every span beyond still counts in the per-name aggregates the metrics
#: are computed from, and the file header records how many there were
SPAN_CAP = 100_000

#: one frame in this many is kept for the offline codec replay (a stride,
#: so the kept sample has the window's mix of frame kinds)
FRAME_STRIDE = 4

#: protocol methods timed by :func:`instrument_protocol`, by metric group;
#: a group's time is reported per call of its *last* method
CORE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "write": ("write",),
    "apply": ("apply_update",),
    "can_apply": ("can_apply",),
    "read": ("can_read_local", "read_local"),
    "fetch_serve": ("can_serve_fetch", "serve_fetch"),
    "remote_read": ("make_fetch_request", "reply_is_fresh", "complete_remote_read"),
}

Span = Tuple[int, str, float, float, Optional[int], Optional[int], Optional[int]]


class Tracer:
    """In-memory span and frame store for one traced window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0
        #: span name -> [count, total seconds], over every span recorded
        self.agg: Dict[str, List[float]] = {}
        #: total seconds of spans that name a parent (client op children)
        self.child_time = 0.0
        #: frames handed to a connection, counted all and kept one in
        #: :data:`FRAME_STRIDE` as ``(frame dict, codec)``
        self.frame_count = 0
        self.frames: List[Tuple[Dict[str, Any], Any]] = []
        #: UpdateMessages returned by ``protocol.write``, in write order
        self.updates: List[Any] = []
        #: recording is on only between window open and settle, so
        #: warm-up and the output checks leave no spans
        self.enabled = False
        self.clock = time.perf_counter

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def keep_frame(self, frame: Dict[str, Any], codec: Any) -> None:
        self.frame_count += 1
        if self.frame_count % FRAME_STRIDE == 0:
            self.frames.append((frame, codec))

    def add(
        self,
        span_id: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        site: Optional[int] = None,
    ) -> None:
        slot = self.agg.get(name)
        if slot is None:
            self.agg[name] = [1, end - start]
        else:
            slot[0] += 1
            slot[1] += end - start
        if parent is not None:
            self.child_time += end - start
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, request, site))

    # -- aggregation ----------------------------------------------------
    def count(self, *names: str) -> int:
        return int(sum(self.agg.get(n, (0, 0.0))[0] for n in names))

    def seconds(self, *names: str) -> float:
        return sum(self.agg.get(n, (0, 0.0))[1] for n in names)

    def seconds_under(self, prefix: str) -> float:
        return sum(v[1] for k, v in self.agg.items() if k.startswith(prefix))

    def client_self_time(self) -> float:
        """Σ over client operation spans of (duration − child coverage).
        A client op's children (its transport send and recv) never
        overlap each other, so coverage is the plain sum, and client ops
        are the only spans that have children."""
        return self.seconds_under("client.") - self.child_time

    # -- output ---------------------------------------------------------
    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the trace as JSONL: one header line, then the kept spans
        in id order.  A child whose parent fell past :data:`SPAN_CAP` is
        left out, so every parent id in the file resolves."""
        spans = sorted(self.spans)
        ids = {s[0] for s in spans}
        kept = [s for s in spans if s[4] is None or s[4] in ids]
        t0 = min((s[2] for s in spans), default=0.0)
        head = dict(header)
        head.update(
            record="header",
            spans_recorded=int(sum(v[0] for v in self.agg.values())),
            spans_written=len(kept),
            fields=["id", "name", "start_us", "end_us", "parent", "request", "site"],
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, request, site in kept:
                fh.write(
                    json.dumps(
                        [
                            span_id,
                            name,
                            round((start - t0) * 1e6, 1),
                            round((end - t0) * 1e6, 1),
                            parent,
                            request,
                            site,
                        ]
                    )
                    + "\n"
                )


def read_trace(path: str) -> Tuple[Dict[str, Any], List[list]]:
    """Parse a trace file back into ``(header, spans)``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------
class _TracingConnection(Connection):
    """Delegates to the real connection, timing its frame calls."""

    def __init__(self, inner: Connection, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    # negotiated state lives on the real connection
    @property
    def codec(self) -> Any:
        return self._inner.codec

    @property
    def wire_version(self) -> int:
        return self._inner.wire_version

    @property
    def agreed_version(self) -> int:
        return self._inner.agreed_version

    def negotiate(self, codec: Any, agreed: Optional[int] = None) -> None:
        self._inner.negotiate(codec, agreed)

    @property
    def peer(self) -> str:
        return self._inner.peer

    async def close(self) -> None:
        await self._inner.close()

    async def send(self, frame: Dict[str, Any]) -> None:
        tr = self._tracer
        if not tr.enabled:
            return await self._inner.send(frame)
        tr.keep_frame(frame, self._inner.codec)
        span_id = tr.next_id()
        op = CURRENT_OP.get()
        t0 = tr.clock()
        try:
            await self._inner.send(frame)
        finally:
            t1 = tr.clock()
            if op is None:
                tr.add(span_id, "transport.send", t0, t1)
            else:
                tr.add(span_id, "transport.send", t0, t1, op[0], op[1])

    async def send_many(self, frames: List[Dict[str, Any]]) -> None:
        tr = self._tracer
        if not tr.enabled:
            return await self._inner.send_many(frames)
        codec = self._inner.codec
        for frame in frames:
            tr.keep_frame(frame, codec)
        span_id = tr.next_id()
        t0 = tr.clock()
        try:
            await self._inner.send_many(frames)
        finally:
            tr.add(span_id, "transport.send_many", t0, tr.clock())

    async def recv(self) -> Optional[Dict[str, Any]]:
        op = CURRENT_OP.get()
        tr = self._tracer
        if op is None or not tr.enabled:
            # server-side and link-reader receives are open-ended waits
            # for the next frame, not work: not recorded
            return await self._inner.recv()
        span_id = tr.next_id()
        t0 = tr.clock()
        try:
            return await self._inner.recv()
        finally:
            tr.add(span_id, "transport.recv", t0, tr.clock(), op[0], op[1])

    async def recv_many(self) -> Optional[List[Dict[str, Any]]]:
        return await self._inner.recv_many()


class TracingTransport(Transport):
    """A :class:`Transport` that wraps another and traces every
    connection made through it, on both the dialling and listening side."""

    def __init__(self, inner: Transport, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    async def listen(self, address: str, handler: Callable) -> Listener:
        tracer = self.tracer

        async def traced_handler(conn: Connection) -> None:
            await handler(_TracingConnection(conn, tracer))

        return await self.inner.listen(address, traced_handler)

    async def connect(self, address: str) -> Connection:
        return _TracingConnection(await self.inner.connect(address), self.tracer)


# ----------------------------------------------------------------------
# protocol and WAL method shadows
# ----------------------------------------------------------------------
def _shadow(obj: Any, method: str, name: str, tracer: Tracer, site: int,
            depth: List[int], capture: Optional[Callable[[Any], None]] = None) -> None:
    """Shadow ``obj.method`` with a wrapper recording a ``name`` span.
    Only the outermost instrumented call on ``obj`` is timed (``depth``),
    so a public method calling another is not counted twice."""
    bound = getattr(obj, method)
    clock = tracer.clock

    def timed(*args: Any, **kwargs: Any) -> Any:
        if depth[0] or not tracer.enabled:
            return bound(*args, **kwargs)
        depth[0] = 1
        span_id = tracer.next_id()
        t0 = clock()
        try:
            result = bound(*args, **kwargs)
        finally:
            tracer.add(span_id, name, t0, clock(), None, None, site)
            depth[0] = 0
        if capture is not None:
            capture(result)
        return result

    setattr(obj, method, timed)


def instrument_protocol(protocol: Any, tracer: Tracer) -> None:
    """Time the public state-machine methods of one protocol instance
    (``server.protocol`` or ``Cluster.protocols[i]``) as ``core.<method>``
    spans, and keep the update messages its writes produce."""
    depth = [0]
    site = int(protocol.site)
    for methods in CORE_GROUPS.values():
        for method in methods:
            capture = None
            if method == "write":
                capture = lambda result: tracer.updates.extend(result.messages)
            _shadow(protocol, method, f"core.{method}", tracer, site, depth, capture)


def instrument_wal(wal: Any, tracer: Tracer, site: int) -> None:
    """Time ``SiteWal.append`` / ``append_raw`` as ``durability.*`` spans."""
    depth = [0]
    for method in ("append", "append_raw"):
        _shadow(wal, method, f"durability.{method}", tracer, site, depth)
