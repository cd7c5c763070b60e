"""Networked KV service running the causal protocols over real sockets.

The simulator (:mod:`repro.sim`) exercises the protocols under simulated
time; this package serves them for real: one asyncio TCP server per site
(:mod:`repro.service.server`), a failure-aware client library
(:mod:`repro.service.client`), a versioned wire format — a JSON
handshake, then length-delimited binary frames (:mod:`repro.service.wire`), and a deterministic in-process
loopback transport (:mod:`repro.service.transport`) so the whole stack —
including the causal sanitizer — runs socket-free in unit tests and CI.

``repro-kv`` (:mod:`repro.service.cli`) is the operational front end:
``serve``, ``put``/``get``, ``bench`` (YCSB load via
:mod:`repro.service.loadgen`), ``chaos-kill-site``, and the CI ``smoke``
gate.  See ``docs/service.md`` for the architecture.
"""

from repro.service.client import KVClient
from repro.service.harness import ServiceCluster
from repro.service.loadgen import LoadGenerator, LoadReport
from repro.service.server import SiteServer
from repro.service.transport import LoopbackTransport, TcpTransport
from repro.service.wire import WIRE_VERSION

__all__ = [
    "KVClient",
    "ServiceCluster",
    "LoadGenerator",
    "LoadReport",
    "SiteServer",
    "LoopbackTransport",
    "TcpTransport",
    "WIRE_VERSION",
]
