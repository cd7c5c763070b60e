"""Re-drive the causal sanitizer from a recorded JSONL trace.

A recorded run is post-hoc auditable: :func:`replay_trace` feeds a loaded
trace's ``issue`` / ``apply`` / ``read`` records into a *fresh*
:class:`repro.verify.sanitizer.CausalSanitizer`, whose matrix-clock oracle
then re-checks per-sender monotonicity and ``A_OPT`` activation safety for
every remote apply — without the simulator, the protocol objects, or the
original RNG streams.  The KS Condition-1/2 log-optimality checks need
live protocol state and are deliberately out of scope here (they run in
the live ``sanitize=True`` path).

On a violation the sanitizer raises
:class:`~repro.errors.SanitizerViolation` exactly as it would live,
carrying the reconstructed :class:`~repro.verify.sanitizer.CausalTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.jsonl import LoadedTrace
from repro.obs.recorder import decode_write_id


@dataclass
class ReplayReport:
    """What a clean replay processed (raises before returning otherwise)."""

    path: str
    protocol: Optional[str]
    n_sites: int
    records: int
    writes: int
    applies: int
    local_applies: int
    reads: int
    checks_run: int

    def summary(self) -> str:
        return (
            f"replayed {self.records} records from {self.path}: "
            f"{self.writes} writes, {self.applies} remote applies "
            f"({self.checks_run} oracle checks), "
            f"{self.local_applies} local applies, {self.reads} reads — OK"
        )


def _infer_sites(loaded: LoadedTrace) -> int:
    top = -1
    for rec in loaded.records:
        site = rec.get("s")
        if isinstance(site, int) and site > top:
            top = site
        wid = rec.get("w")
        if isinstance(wid, list) and wid and wid[0] > top:
            top = wid[0]
    if top < 0:
        raise ConfigurationError(
            f"{loaded.path}: cannot infer site count from an empty trace "
            f"(and the header carries no n_sites)"
        )
    return top + 1


def replay_trace(loaded: LoadedTrace, n: Optional[int] = None) -> ReplayReport:
    """Replay ``loaded`` through a fresh sanitizer; raises
    :class:`~repro.errors.SanitizerViolation` on any unsafe apply."""
    # deferred: repro.obs must not import repro.verify at module level
    from repro.verify.sanitizer import CausalSanitizer

    n_sites = n if n is not None else loaded.n_sites
    if n_sites is None:
        n_sites = _infer_sites(loaded)

    sanitizer = CausalSanitizer(n_sites)
    writes = applies = local_applies = reads = 0
    for rec in loaded.records:
        kind = rec["k"]
        if kind == "issue":
            wid = decode_write_id(rec["w"])
            assert wid is not None
            sanitizer.on_issue(
                rec["t"],
                rec["s"],
                rec["v"],
                wid,
                tuple(rec["d"]),
                None,  # records keep no values
                False,  # the local apply is its own record
            )
            writes += 1
        elif kind == "apply":
            wid = decode_write_id(rec["w"])
            assert wid is not None
            local = rec["s"] == wid.site
            sanitizer.observe_apply(
                rec["s"], rec["v"], wid, now=rec["t"], local=local
            )
            if local:
                local_applies += 1
            else:
                applies += 1
        elif kind == "read":
            reads += 1
            sanitizer.on_read(
                rec["t"], rec["s"], rec["v"], decode_write_id(rec["w"]), None
            )
    return ReplayReport(
        path=loaded.path,
        protocol=loaded.protocol,
        n_sites=n_sites,
        records=len(loaded.records),
        writes=writes,
        applies=applies,
        local_applies=local_applies,
        reads=reads,
        checks_run=sanitizer.checks_run,
    )
