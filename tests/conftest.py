"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import settings

from repro.core.base import CausalProtocol, ProtocolConfig, protocol_class
from repro.types import SiteId, VarId


#: Tier-1's Hypothesis profile: every run draws the same examples (no
#: "fails once, then replays from .hypothesis/examples"), and nothing is
#: read from or saved to an example database.  ``--hypothesis-profile
#: default`` on the pytest command line restores random exploration.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    """Build Hypothesis's utf-8 interval cache before any test runs.
    The first ``st.text()`` draw otherwise builds it (3-4 s from an
    empty ``.hypothesis/``, CI's state) inside some test's ``too_slow``
    health-check window.  Run last, after Hypothesis's own plugin has
    left its initialization phase, so the storage access is not
    reported as an import-time side effect."""
    from hypothesis import strategies as st

    st.text().validate()


def make_sites(
    protocol: str,
    n: int,
    placement: Dict[VarId, Tuple[SiteId, ...]],
    **proto_kwargs,
) -> List[CausalProtocol]:
    """One protocol instance per site, sharing a placement — for driving
    protocols directly (no simulator)."""
    cls = protocol_class(protocol)
    return [
        cls(ProtocolConfig(n=n, site=i, replicas_of=placement), **proto_kwargs)
        for i in range(n)
    ]


def full_placement(n: int, variables: List[VarId]) -> Dict[VarId, Tuple[SiteId, ...]]:
    everyone = tuple(range(n))
    return {v: everyone for v in variables}


def deliver(sites: List[CausalProtocol], messages) -> None:
    """Apply update messages at their destinations immediately (asserts the
    activation predicate holds — for tests where order is already causal)."""
    for msg in messages:
        assert sites[msg.dest].can_apply(msg), f"not activatable: {msg}"
        sites[msg.dest].apply_update(msg)


def remote_read(sites: List[CausalProtocol], reader: int, var: VarId):
    """Run the full fetch round-trip synchronously between two protocol
    instances (server assumed ready)."""
    proto = sites[reader]
    server = proto.fetch_target(var)
    req = proto.make_fetch_request(var, server)
    assert sites[server].can_serve_fetch(req)
    reply = sites[server].serve_fetch(req)
    return proto.complete_remote_read(reply)


def stamped(frame, issued_ms):
    """A ``repl`` / ``repl.delta`` frame dict as its issue-stamped
    ``.t`` twin (what ``wire.strip_issue`` undoes)."""
    return {**frame, "t": frame["t"] + ".t", "it": int(issued_ms)}


async def open_handshaken(transport, address, **link):
    """Open a raw service connection the way a current build does and
    return ``(conn, ok)``: a ``link.hello`` when ``src`` / ``epoch`` are
    given, a client ``hello`` otherwise, both carrying the one wire
    version (``Connection.handshake`` checks the reply and installs
    the binary codec).  The one way tests get below ``KVClient`` /
    ``PeerLink`` — a connection that skips this is refused (the
    support window)."""
    from repro.service import wire

    conn = await transport.connect(address)
    kind, ok_kind = ("link.hello", "link.ok") if link else ("hello", "hello.ok")
    ok = await conn.handshake(
        wire.make_frame(kind, cv=wire.WIRE_VERSION, **link), ok_kind
    )
    assert isinstance(ok["itab"], list)
    return conn, ok


@pytest.fixture
def two_var_partial():
    """4 sites; x on {0,1,2}, y on {1,2,3} — the canonical partial layout
    used across the protocol unit tests."""
    return {"x": (0, 1, 2), "y": (1, 2, 3)}
