"""The paper-literal remote read, kept as a test-local mutant.

The paper's RemoteFetch serves the variable's current value at once, and
a local read never waits.  Under partial replication that leaves two
gaps (DESIGN.md §2a): a fetch answered before the server applied the
requester's dependencies, and a local read after a remote read imported
knowledge of an update still in flight to this site.  The library closes
both on its one read path.  These subclasses reopen them, so the tests
and the E11 ablation can show what the completions buy: a local read is
always allowed, and a fetch carries no dependency summary.  They keep
the reply-freshness gate, which judges ``reply.applied`` alone.

Substitute them through the protocol registry, the way
``test_drain_equivalence.py`` substitutes its ``RescanSite``::

    def test_something(monkeypatch):
        use_paper_literal_reads(monkeypatch)
        ...  # Cluster / ServiceCluster("opt-track") now build the mutant
"""

from __future__ import annotations

import pytest

from repro.core import base
from repro.core.full_track import FullTrackProtocol
from repro.core.messages import FetchRequest
from repro.core.opt_track import OptTrackProtocol


class _PaperLiteralReads:
    def can_read_local(self, var):
        return True

    def blocking_read_deps(self, var):
        return ()

    def make_fetch_request(self, var, server):
        return FetchRequest(var, self.site, server, self.next_fetch_id(), None)


class PaperLiteralOptTrack(_PaperLiteralReads, OptTrackProtocol):
    pass


class PaperLiteralFullTrack(_PaperLiteralReads, FullTrackProtocol):
    pass


PAPER_LITERAL = {
    "opt-track": PaperLiteralOptTrack,
    "full-track": PaperLiteralFullTrack,
}


def use_paper_literal_reads(mp: pytest.MonkeyPatch) -> None:
    """Make the registry build the mutants for ``opt-track`` and
    ``full-track`` until ``mp`` is undone.  Outside a test, use
    ``with pytest.MonkeyPatch.context() as mp:``."""
    for name, cls in PAPER_LITERAL.items():
        mp.setitem(base._REGISTRY, name, cls)
