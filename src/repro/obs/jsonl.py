"""Load a durable JSONL trace back into records, spans, and the oracle.

The write side lives in :class:`repro.obs.recorder.TraceRecorder` (one
JSON object per line, ``header`` first, atomic rename on close).  This
module is the read side:

* :func:`load_trace` — parse and validate a trace file into a
  :class:`LoadedTrace`;
* :meth:`LoadedTrace.span_tree` — the same span trees a live recorder
  builds (the round-trip tests assert equality).

:func:`repro.obs.replay.replay_trace` re-drives the causal oracle from
the loaded records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.recorder import TRACE_VERSION
from repro.obs.spans import UpdateSpan, build_spans
from repro.types import WriteId


@dataclass
class LoadedTrace:
    """One parsed trace file: the header plus the record stream."""

    path: str
    header: Dict[str, Any]
    records: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def n_sites(self) -> Optional[int]:
        return self.header.get("n_sites")

    @property
    def protocol(self) -> Optional[str]:
        return self.header.get("protocol")

    def span_tree(self) -> Dict[WriteId, UpdateSpan]:
        return build_spans(self.records)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec["k"]] = counts.get(rec["k"], 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.records)


def load_trace(path: str) -> LoadedTrace:
    """Parse one JSONL trace file; raises ``ConfigurationError`` on a
    missing/garbled header or an unknown schema version."""
    records: List[Dict[str, Any]] = []
    header: Optional[Dict[str, Any]] = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSONL ({exc})"
                ) from None
            if header is None:
                if obj.get("k") != "header":
                    raise ConfigurationError(
                        f"{path}: first record must be the header, got {obj.get('k')!r}"
                    )
                if obj.get("version") != TRACE_VERSION:
                    raise ConfigurationError(
                        f"{path}: trace schema version {obj.get('version')!r} "
                        f"unsupported (this build reads v{TRACE_VERSION})"
                    )
                header = obj
                continue
            records.append(obj)
    if header is None:
        raise ConfigurationError(f"{path}: empty trace file")
    return LoadedTrace(path=str(path), header=header, records=records)
