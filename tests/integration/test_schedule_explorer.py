"""The deterministic schedule explorer (:mod:`repro.verify.schedules`).

Two halves of the await-atomicity tentpole meet here.  The clean sweep
asserts the *real* service layer survives seeded adversarial schedules
(shuffled ready queue + preempting transport) under the causal
sanitizer.  The mutant tests re-introduce the torn-drain bug shape the
static rule forbids — a parked-update drain whose can-apply decision
and list mutation are separated by a suspension point — and drive it to
a reproduced :class:`~repro.errors.SanitizerViolation`, proving the
explorer actually finds the class of bug the lint rule exists for.
"""

import asyncio
import inspect
import textwrap

import pytest

from repro.lint.engine import lint_source
from repro.lint.rules import RULES_BY_NAME
from repro.service import wire
from repro.service.server import SiteServer
from repro.verify.schedules import ScheduleOutcome, explore_schedules


class TornDrainSiteServer(SiteServer):
    """Seeded mutant: the parked-update drain torn across a yield.

    The parent drains synchronously inside :meth:`_flush_repl` — the
    single-writer discipline.  This server re-checks ``can_apply``,
    *suspends*, and only then mutates ``_parked`` and applies.  Two
    peer-link handler tasks draining concurrently can now both pass the
    check for the same parked update: one applies it, the other deletes
    whatever slid into its captured index and applies the update a
    second time — exactly the read/suspend/write shape the
    ``await-atomicity`` rule reports, surfacing at runtime as a
    per-sender monotonicity (or activation) violation at the oracle.
    """

    async def _flush_repl(self, conn, acks, applied):
        if applied:
            await self._drain_torn()
        if acks:
            for src, ack in acks.items():
                await self._send_ack(conn, ack, src)
            acks.clear()
        return 0

    async def _drain_torn(self):
        progressed = True
        while progressed:
            progressed = False
            for i, msg in enumerate(self._parked):
                if self.protocol.can_apply(msg):
                    await asyncio.sleep(0)  # the tear
                    try:
                        del self._parked[i]
                    except IndexError:
                        pass
                    self._apply(msg)
                    progressed = True
                    break
        self._notify_progress()


class TestCleanSweep:
    def test_real_service_layer_is_schedule_clean(self):
        outcomes = explore_schedules(range(6))
        assert all(o.ok for o in outcomes), [str(o) for o in outcomes]

    def test_outcomes_carry_their_seed(self):
        outcomes = explore_schedules(range(3, 5))
        assert [o.seed for o in outcomes] == [3, 4]

    def test_sweep_runs_the_path_that_ships(self):
        """The explorer's connections are on the one-pass wire (hot
        frames go message <-> bytes, as on the transports' own
        endpoints) and its seeded ``writable()`` coin takes both flush
        paths — not the dict/writer-task fallback a wrapper used to
        inherit."""
        links = []  # (connection class, its one_pass, flushes) at stop

        class Observed(SiteServer):
            async def stop(self):
                for link in self._links.values():
                    conn = link._conn
                    if conn is not None:
                        links.append(
                            (type(conn).__name__, conn.one_pass, dict(link.flushes))
                        )
                await super().stop()

        (outcome,) = explore_schedules([7], server_cls=Observed)
        assert outcome.ok, str(outcome)
        assert links
        for name, one_pass, _ in links:
            assert name == "_PreemptingConnection"
            assert one_pass is wire.BINARY_CODEC_V4
        assert sum(f["inline"] for _, _, f in links) > 0
        assert sum(f["task"] for _, _, f in links) > 0


class TestTornDrainMutant:
    #: enough seeds that the torn drain reliably interleaves at least
    #: once (empirically it fires several times in this range)
    SEEDS = range(0, 30)

    def _first_violation(self) -> ScheduleOutcome:
        outcomes = explore_schedules(
            self.SEEDS,
            server_cls=TornDrainSiteServer,
            quiesce_timeout=2.0,
            stop_on_violation=True,
        )
        bad = [o for o in outcomes if not o.ok]
        assert bad, (
            f"torn-drain mutant survived {len(outcomes)} adversarial "
            f"schedules — the explorer lost its teeth"
        )
        return bad[-1]

    def test_mutant_is_driven_to_a_sanitizer_violation(self):
        worst = self._first_violation()
        assert worst.error == "SanitizerViolation"
        assert "violated" in worst.detail

    def test_violating_seed_reproduces_exactly(self):
        worst = self._first_violation()
        replays = [
            explore_schedules(
                [worst.seed],
                server_cls=TornDrainSiteServer,
                quiesce_timeout=2.0,
            )[0]
            for _ in range(2)
        ]
        for replay in replays:
            assert replay == worst

    def test_static_rule_catches_the_same_mutant(self):
        # the tie-in: the source of the very server the explorer just
        # drove to a violation is what the await-atomicity rule flags
        source = textwrap.dedent(inspect.getsource(TornDrainSiteServer))
        findings = lint_source(
            source,
            [RULES_BY_NAME["await-atomicity"]],
            module="repro.service.torn_mutant",
            path="torn_mutant.py",
        )
        hits = [f for f in findings if f.rule == "await-atomicity"]
        assert hits, findings
        assert any("_parked" in f.message for f in hits)
