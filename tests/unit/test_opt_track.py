"""Unit tests for Algorithm Opt-Track (paper Algorithms 2+3): the KS
pruning conditions, the activation predicate, and the remote-read path."""

from array import array

import pytest

from repro.core import bitsets
from repro.core.log import LogEntry
from repro.core.messages import OptTrackMeta
from repro.errors import ProtocolInvariantError
from repro.types import BOTTOM, WriteId

from tests.conftest import deliver, full_placement, make_sites, remote_read
from tests.paper_literal import use_paper_literal_reads


@pytest.fixture
def sites(two_var_partial):
    return make_sites("opt-track", 4, two_var_partial)


def msg_to(result, dest):
    return next(m for m in result.messages if m.dest == dest)


class TestWrite:
    def test_clock_increments_every_write(self, sites):
        sites[0].write("x", 1)
        sites[0].write("y", 2)  # y not locally replicated — clock still moves
        assert sites[0].clock == 2

    def test_messages_to_remote_replicas_only(self, sites):
        r = sites[0].write("x", 1)
        assert sorted(m.dest for m in r.messages) == [1, 2]

    def test_meta_carries_clock_and_replicas(self, sites):
        r = sites[0].write("x", 1)
        meta = msg_to(r, 1).meta
        assert isinstance(meta, OptTrackMeta)
        assert meta.clock == 1
        assert meta.replicas_mask == bitsets.mask_of([0, 1, 2])

    def test_own_entry_added_without_self(self, sites):
        sites[0].write("x", 1)
        assert sites[0].log.view() == [LogEntry(0, 1, (1, 2))]

    def test_local_apply_and_lastwriteon(self, sites):
        r = sites[0].write("x", 1)
        assert r.applied_locally
        assert sites[0].local_value("x") == (1, r.write_id)
        assert sites[0].apply_clocks[0] == 1

    def test_apply_clock_tracks_non_local_writes_too(self, sites):
        # The module-docstring deviation: Apply[i] follows clock_i even for
        # writes to variables not replicated here (prevents deadlock).
        sites[0].write("y", 1)
        assert sites[0].apply_clocks[0] == 1


class TestCondition2AtSender:
    def test_second_write_prunes_shared_replicas(self, sites):
        # After writing x (replicas 0,1,2), writing x again empties the old
        # entry's destination set.  PURGE runs *before* the new entry is
        # added (paper lines 12-13), so the emptied record survives this
        # write — it was still the newest from its sender at purge time —
        # and disappears at the next PURGE (read or write).
        sites[0].write("x", 1)
        sites[0].write("x", 2)
        assert sites[0].log.view() == [
            LogEntry(0, 1, ()),
            LogEntry(0, 2, (1, 2)),
        ]
        sites[0].read_local("x")  # line 22 PURGE collects the empty record
        assert LogEntry(0, 1, ()) not in sites[0].log.view()

    def test_second_write_keeps_disjoint_dests(self, sites):
        sites[0].write("x", 1)  # entry <0,1,{1,2}>
        sites[0].write("y", 2)  # y replicas {1,2,3} prune {1,2} -> empty
        view = {(e.sender, e.clock): e.dests for e in sites[0].log.view()}
        assert view[(0, 1)] == ()  # emptied, transiently retained
        assert view[(0, 2)] == (1, 2, 3)
        # the emptied record is never piggybacked: copies drop empty
        # non-newest records (lines 7-8)
        r = sites[0].write("x", 3)
        m1 = next(m for m in r.messages if m.dest == 1)
        assert (0, 1) not in m1.meta.log

    def test_piggyback_keeps_dest_site(self, sites):
        # the copy sent to site 1 for the y write must keep 1 in the
        # x-entry's Dests so site 1's activation waits for x
        sites[0].write("x", 1)
        r = sites[0].write("y", 2)
        m1 = msg_to(r, 1)
        assert m1.meta.log.dests_of(0, 1) == bitsets.singleton(1)
        m3 = msg_to(r, 3)
        # site 3 never was an x destination: entry retains nothing of
        # y.replicas and keeps no site-3 bit
        assert m3.meta.log.dests_of(0, 1) == bitsets.EMPTY


class TestActivation:
    def test_independent_update_applies_immediately(self, sites):
        r = sites[0].write("x", 1)
        assert sites[1].can_apply(msg_to(r, 1))

    def test_partial_replication_no_spurious_wait(self, sites):
        # s0 writes x (not replicated at 3) then y: site 3 must NOT wait
        # for x's update (it will never receive it)
        sites[0].write("x", 1)
        r = sites[0].write("y", 2)
        assert sites[3].can_apply(msg_to(r, 3))

    def test_dependent_update_waits(self, sites):
        rx = sites[0].write("x", 1)
        ry = sites[0].write("y", 2)
        m_y1 = msg_to(ry, 1)
        assert not sites[1].can_apply(m_y1)  # x's entry lists site 1
        sites[1].apply_update(msg_to(rx, 1))
        assert sites[1].can_apply(m_y1)

    def test_read_from_dependency_enforced(self, sites):
        rx = sites[0].write("x", 1)
        sites[1].apply_update(msg_to(rx, 1))
        sites[1].read_local("x")
        ry = sites[1].write("y", 2)
        m_y2 = msg_to(ry, 2)
        assert not sites[2].can_apply(m_y2)
        sites[2].apply_update(msg_to(rx, 2))
        assert sites[2].can_apply(m_y2)

    def test_no_false_causality_without_read(self, sites):
        rx = sites[0].write("x", 1)
        sites[1].apply_update(msg_to(rx, 1))
        ry = sites[1].write("y", 2)  # never read x: concurrent
        assert sites[2].can_apply(msg_to(ry, 2))

    def test_apply_before_activation_raises(self, sites):
        sites[0].write("x", 1)
        ry = sites[0].write("y", 2)
        with pytest.raises(ProtocolInvariantError):
            sites[1].apply_update(msg_to(ry, 1))

    def test_apply_is_monotonic_per_sender(self, sites):
        rx = sites[0].write("x", 1)
        m = msg_to(rx, 1)
        sites[1].apply_update(m)
        with pytest.raises(ProtocolInvariantError):
            sites[1].apply_update(m)  # same clock again


class TestApplyStoresLog:
    def test_lastwriteon_contains_update_entry_sans_self(self, sites):
        rx = sites[0].write("x", 1)
        sites[1].apply_update(msg_to(rx, 1))
        lw = sites[1].last_write_on["x"]
        assert lw.dests_of(0, 1) == bitsets.mask_of([0, 2])  # self removed

    def test_merge_happens_at_read_not_apply(self, sites):
        rx = sites[0].write("x", 1)
        sites[1].apply_update(msg_to(rx, 1))
        assert len(sites[1].log) == 0  # not merged yet
        sites[1].read_local("x")
        assert (0, 1) in sites[1].log  # merged on read


class TestRemoteRead:
    def test_roundtrip(self, sites):
        rx = sites[0].write("x", 7)
        deliver(sites, rx.messages)
        assert remote_read(sites, 3, "x") == (7, rx.write_id)

    def test_initial_value(self, sites):
        assert remote_read(sites, 3, "x") == (BOTTOM, None)

    def test_merges_server_log(self, sites):
        rx = sites[0].write("x", 7)
        deliver(sites, rx.messages)
        remote_read(sites, 3, "x")
        assert (0, 1) in sites[3].log

    def test_strict_fetch_waits_for_named_deps(self, sites):
        # s0 writes y (replicas 1,2,3); s0's log entry for y lists site 1;
        # s0 then remote-reads y from site 1 before 1 applied it.
        ry = sites[0].write("y", 5)
        req = sites[0].make_fetch_request("y", 1)
        assert req.deps == ((0, 1),)
        assert not sites[1].can_serve_fetch(req)
        sites[1].apply_update(msg_to(ry, 1))
        assert sites[1].can_serve_fetch(req)
        reply = sites[1].serve_fetch(req)
        assert sites[0].complete_remote_read(reply) == (5, ry.write_id)

    def test_lenient_fetch_has_no_deps(self, two_var_partial, monkeypatch):
        # the paper-literal mutant: no summary, so nothing defers it
        use_paper_literal_reads(monkeypatch)
        sites = make_sites("opt-track", 4, two_var_partial)
        sites[0].write("y", 5)
        req = sites[0].make_fetch_request("y", 1)
        assert req.deps is None
        assert sites[1].can_serve_fetch(req)


class TestDistributedPrune:
    """The Section III-B variant: receivers do the per-destination pruning."""

    def make(self, placement):
        return make_sites("opt-track", 4, placement, distributed_prune=True)

    def test_same_observable_state_after_apply(self, two_var_partial):
        plain = make_sites("opt-track", 4, two_var_partial)
        dist = self.make(two_var_partial)
        for group in (plain, dist):
            rx = group[0].write("x", 1)
            group[1].apply_update(next(m for m in rx.messages if m.dest == 1))
            group[1].read_local("x")
            ry = group[1].write("y", 2)
            group[2].apply_update(next(m for m in rx.messages if m.dest == 2))
            group[2].apply_update(next(m for m in ry.messages if m.dest == 2))
            group[2].read_local("y")
        assert plain[2].log == dist[2].log
        assert plain[2].last_write_on["y"] == dist[2].last_write_on["y"]

    def test_shared_snapshot_is_not_per_dest(self, two_var_partial):
        dist = self.make(two_var_partial)
        dist[0].write("x", 1)
        r = dist[0].write("y", 2)
        metas = {m.dest: m.meta.log for m in r.messages}
        assert metas[1] is metas[2] is metas[3]  # one snapshot, all dests

    def test_activation_equivalent(self, two_var_partial):
        dist = self.make(two_var_partial)
        rx = dist[0].write("x", 1)
        ry = dist[0].write("y", 2)
        m_y1 = next(m for m in ry.messages if m.dest == 1)
        assert not dist[1].can_apply(m_y1)
        dist[1].apply_update(next(m for m in rx.messages if m.dest == 1))
        assert dist[1].can_apply(m_y1)


class TestFullReplicationSpecialCase:
    def test_works_under_full_replication(self):
        sites = make_sites("opt-track", 3, full_placement(3, ["a"]))
        ra = sites[0].write("a", 1)
        deliver(sites, ra.messages)
        for s in sites:
            assert s.read_local("a") == (1, ra.write_id)


def log_of(*entries):
    from repro.core.log import DepLog

    d = DepLog()
    for sender, clock, dests in entries:
        d.add(sender, clock, bitsets.mask_of(dests))
    return d


class TestKnownAppliesGC:
    """The ack-driven Condition-1 seam: ``known_applies[d][z]`` holds
    proven lower bounds on ``Apply_d[z]``, fed by the service layer's
    applied watermarks (direct for own writes, transitive through the
    piggybacked log of each acked update), and swept into the log at
    write time and into stored logs at serve time."""

    def test_table_stays_unallocated_in_pure_message_flow(self, sites):
        # simulation runs and v3 links never feed the seam: the O(n^2)
        # table must cost nothing there
        deliver(sites, sites[0].write("x", 1).messages)
        deliver(sites, sites[1].write("y", 2).messages)
        remote_read(sites, 0, "y")
        assert all(s.known_applies is None for s in sites)

    def test_self_ack_never_allocates(self, sites):
        sites[0].write("x", 1)
        sites[0].note_remote_apply(0, 1)
        sites[0].note_remote_apply_log(
            0, OptTrackMeta(1, 0, log_of((1, 3, [0])))
        )
        assert sites[0].known_applies is None

    def test_direct_watermark_recorded_and_pruned(self, sites):
        sites[0].write("x", 1)
        sites[0].note_remote_apply(1, 1)
        assert sites[0].known_applies[1][0] == 1
        # the acking link's own-write slice is pruned immediately
        assert not bitsets.contains(sites[0].log.dests_of(0, 1), 1)

    def test_transitive_credit_only_for_named_records(self, sites):
        meta = OptTrackMeta(9, 0, log_of((2, 7, [1]), (3, 4, [2])))
        sites[0].note_remote_apply_log(1, meta)
        known = sites[0].known_applies
        # site 1 was named by <2,7> (so proved to have applied it) but
        # not by <3,4> — FIFO applies bound only the named origin
        assert known[1][2] == 7
        assert known[1][3] == 0

    def test_bounds_are_monotonic(self, sites):
        sites[0].note_remote_apply_log(1, OptTrackMeta(9, 0, log_of((2, 7, [1]))))
        sites[0].note_remote_apply_log(1, OptTrackMeta(9, 0, log_of((2, 3, [1]))))
        sites[0].note_remote_apply(2, 5)
        sites[0].note_remote_apply(2, 4)
        known = sites[0].known_applies
        assert known[1][2] == 7
        assert known[2][0] == 5

    def test_write_sweeps_proven_third_party_bits(self):
        # y's replica set shares no site with the record's remaining
        # dests, so Condition 2 alone would never clear them: only the
        # ack-driven sweep can
        sites = make_sites("opt-track", 4, {"x": (0, 1, 2), "y": (0, 3)})
        sites[0].write("x", 1)
        assert sites[0].log.dests_of(0, 1) == bitsets.mask_of([1, 2])
        sites[0].note_remote_apply_log(1, OptTrackMeta(9, 0, log_of((0, 1, [1]))))
        sites[0].write("y", 2)
        assert sites[0].log.dests_of(0, 1) == bitsets.singleton(2)

    def test_serve_fetch_refreshes_stored_log(self, sites):
        r = sites[0].write("x", 1)
        deliver(sites, r.messages)
        stored = sites[1].last_write_on["x"]
        assert bitsets.contains(stored.dests_of(0, 1), 2)
        # proof arrives later that site 2 applied <0,1>; the stored log
        # was frozen at apply time and only serve_fetch re-prunes it
        sites[1].note_remote_apply_log(2, OptTrackMeta(9, 0, log_of((0, 1, [2]))))
        reply = sites[1].serve_fetch(sites[3].make_fetch_request("x", 1))
        assert not bitsets.contains(reply.meta.dests_of(0, 1), 2)
        assert not bitsets.contains(
            sites[1].last_write_on["x"].dests_of(0, 1), 2
        )

    def test_meta_objects_include_the_table(self, sites):
        sites[0].note_remote_apply(1, 1)
        # yielded flat (row-major), so the size model prices it per entry
        table = array("q", (c for row in sites[0].known_applies for c in row))
        assert len(table) == 16 and table[4] == 1
        assert table in list(sites[0].meta_objects())
