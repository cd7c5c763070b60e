"""Unit tests for Algorithm Full-Track (paper Algorithm 1), driven
directly (no simulator), including adversarial delivery orders."""

import numpy as np
import pytest

from repro.core.full_track import FullTrackProtocol
from repro.errors import ProtocolInvariantError, UnknownVariableError
from repro.types import BOTTOM, WriteId

from tests.conftest import deliver, full_placement, make_sites, remote_read
from tests.paper_literal import use_paper_literal_reads


@pytest.fixture
def sites(two_var_partial):
    return make_sites("full-track", 4, two_var_partial)


class TestWrite:
    def test_write_increments_clock_per_replica(self, sites):
        s0 = sites[0]
        s0.write("x", 1)
        assert s0.write_clock[0, 0] == 1
        assert s0.write_clock[0, 1] == 1
        assert s0.write_clock[0, 2] == 1
        assert s0.write_clock[0, 3] == 0  # site 3 does not replicate x

    def test_write_messages_to_remote_replicas_only(self, sites):
        r = sites[0].write("x", 1)
        assert sorted(m.dest for m in r.messages) == [1, 2]

    def test_write_applies_locally_when_replicated(self, sites):
        r = sites[0].write("x", 1)
        assert r.applied_locally
        assert sites[0].local_value("x") == (1, r.write_id)
        assert sites[0].apply_counts[0] == 1

    def test_write_to_non_local_variable(self, sites):
        r = sites[0].write("y", 9)  # site 0 does not replicate y
        assert not r.applied_locally
        assert sorted(m.dest for m in r.messages) == [1, 2, 3]
        assert sites[0].apply_counts[0] == 0

    def test_write_ids_are_sequential(self, sites):
        assert sites[0].write("x", 1).write_id == WriteId(0, 1)
        assert sites[0].write("x", 2).write_id == WriteId(0, 2)

    def test_piggybacked_clock_is_frozen_snapshot(self, sites):
        r = sites[0].write("x", 1)
        snap = r.messages[0].meta
        sites[0].write("x", 2)  # later writes must not mutate the snapshot
        assert snap[0, 1] == 1

    def test_unknown_variable(self, sites):
        with pytest.raises(UnknownVariableError):
            sites[0].write("zzz", 1)


class TestApply:
    def test_apply_updates_value_and_counters(self, sites):
        r = sites[0].write("x", 1)
        deliver(sites, r.messages)
        assert sites[1].local_value("x") == (1, r.write_id)
        assert sites[1].apply_counts[0] == 1

    def test_fifo_blocks_out_of_sequence_sender(self, sites):
        r1 = sites[0].write("x", 1)
        r2 = sites[0].write("x", 2)
        m1 = next(m for m in r1.messages if m.dest == 1)
        m2 = next(m for m in r2.messages if m.dest == 1)
        assert not sites[1].can_apply(m2)  # second write first: must wait
        sites[1].apply_update(m1)
        assert sites[1].can_apply(m2)

    def test_apply_before_activation_raises(self, sites):
        sites[0].write("x", 1)
        r2 = sites[0].write("x", 2)
        m2 = next(m for m in r2.messages if m.dest == 1)
        with pytest.raises(ProtocolInvariantError):
            sites[1].apply_update(m2)

    def test_causal_dependency_across_sites_blocks(self, sites):
        # s0 writes x; s1 reads x (creating an ~>co edge) then writes y.
        # Site 2 replicates both; y's update must wait for x's.
        rx = sites[0].write("x", 1)
        m_x2 = next(m for m in rx.messages if m.dest == 2)
        m_x1 = next(m for m in rx.messages if m.dest == 1)
        sites[1].apply_update(m_x1)
        assert sites[1].read_local("x") == (1, rx.write_id)
        ry = sites[1].write("y", 2)
        m_y2 = next(m for m in ry.messages if m.dest == 2)
        assert not sites[2].can_apply(m_y2)
        sites[2].apply_update(m_x2)
        assert sites[2].can_apply(m_y2)
        sites[2].apply_update(m_y2)
        assert sites[2].local_value("y") == (2, ry.write_id)

    def test_no_false_causality_without_read(self, sites):
        # s1 merely *applies* s0's write without reading it; s1's next
        # write is concurrent under ~>co, so site 2 may apply it first.
        rx = sites[0].write("x", 1)
        sites[1].apply_update(next(m for m in rx.messages if m.dest == 1))
        ry = sites[1].write("y", 2)  # no read: no dependency
        m_y2 = next(m for m in ry.messages if m.dest == 2)
        assert sites[2].can_apply(m_y2)


class TestRead:
    def test_read_initial_value(self, sites):
        assert sites[1].read_local("x") == (BOTTOM, None)

    def test_read_merges_last_write_clock(self, sites):
        rx = sites[0].write("x", 1)
        sites[1].apply_update(next(m for m in rx.messages if m.dest == 1))
        assert sites[1].write_clock[0, 2] == 0  # not merged at receipt
        sites[1].read_local("x")
        assert sites[1].write_clock[0, 2] == 1  # merged at read

    def test_read_non_local_raises(self, sites):
        with pytest.raises(UnknownVariableError):
            sites[3].read_local("x")


class TestRemoteRead:
    def test_fetch_roundtrip(self, sites):
        rx = sites[0].write("x", 7)
        deliver(sites, rx.messages)
        value, wid = remote_read(sites, reader=3, var="x")
        assert (value, wid) == (7, rx.write_id)

    def test_fetch_merges_server_metadata(self, sites):
        rx = sites[0].write("x", 7)
        deliver(sites, rx.messages)
        remote_read(sites, reader=3, var="x")
        assert sites[3].write_clock[0, 1] == 1

    def test_fetch_of_unwritten_variable(self, sites):
        value, wid = remote_read(sites, reader=3, var="x")
        assert (value, wid) == (BOTTOM, None)

    def test_strict_fetch_blocks_until_deps_applied(self, sites):
        # s0 writes x then y; s0's y-write is known to s3 via... simpler:
        # s3 writes y itself, then fetches x? x-writes don't depend on s3.
        # Craft: s0 writes x; s1 reads x, writes y; s3 applies y then
        # fetches x from s2 which hasn't applied x yet.
        rx = sites[0].write("x", 1)
        sites[1].apply_update(next(m for m in rx.messages if m.dest == 1))
        sites[1].read_local("x")
        ry = sites[1].write("y", 2)
        sites[3].apply_update(next(m for m in ry.messages if m.dest == 3))
        sites[3].read_local("y")  # s3's causal past now includes x's write
        server = 2  # has applied neither x nor y
        req = sites[3].make_fetch_request("x", server)
        assert not sites[server].can_serve_fetch(req)
        # the column wait covers every causal-past write destined to the
        # server: both x's and y's updates must land before serving
        sites[server].apply_update(next(m for m in rx.messages if m.dest == 2))
        assert not sites[server].can_serve_fetch(req)
        sites[server].apply_update(next(m for m in ry.messages if m.dest == 2))
        assert sites[server].can_serve_fetch(req)

    def test_lenient_fetch_serves_immediately(self, two_var_partial, monkeypatch):
        use_paper_literal_reads(monkeypatch)
        sites = make_sites("full-track", 4, two_var_partial)
        rx = sites[0].write("x", 1)
        sites[1].apply_update(next(m for m in rx.messages if m.dest == 1))
        sites[1].read_local("x")
        ry = sites[1].write("y", 2)
        sites[3].apply_update(next(m for m in ry.messages if m.dest == 3))
        sites[3].read_local("y")
        req = sites[3].make_fetch_request("x", 2)
        assert req.deps is None
        assert sites[2].can_serve_fetch(req)  # the paper's literal reading


class TestMetaObjects:
    def test_yields_clock_applies_and_lastwriteon(self, sites):
        rx = sites[0].write("x", 1)
        objs = list(sites[0].meta_objects())
        assert sites[0].write_clock in objs
        assert any(o is sites[0].apply_counts for o in objs)
        assert sites[0].last_write_on["x"] in objs


class TestFullReplicationSpecialCase:
    def test_works_under_full_replication(self):
        sites = make_sites("full-track", 3, full_placement(3, ["a", "b"]))
        ra = sites[0].write("a", 1)
        deliver(sites, ra.messages)
        for s in sites:
            assert s.read_local("a") == (1, ra.write_id)
