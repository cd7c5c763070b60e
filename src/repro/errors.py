"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid cluster, placement, protocol, or workload configuration."""


class PlacementError(ConfigurationError):
    """A variable placement is malformed (empty, out of range, duplicated)."""


class UnknownVariableError(ReproError):
    """An operation referenced a variable that is not part of the store."""


class UnknownProtocolError(ConfigurationError):
    """The requested protocol name is not registered."""


class ProtocolInvariantError(ReproError):
    """An internal protocol invariant was violated (indicates a bug)."""


class SanitizerViolation(ProtocolInvariantError):
    """The runtime causal sanitizer's oracle rejected a protocol action.

    Raised only under ``ClusterConfig(sanitize=True)``.  Carries the
    observable event stream that led to the violation in ``trace`` (a
    :class:`repro.verify.sanitizer.CausalTrace`), so the failing schedule
    can be replayed.
    """

    def __init__(self, message: str, trace: object = None) -> None:
        super().__init__(message)
        self.trace = trace


class SimulationError(ReproError):
    """The discrete-event simulation reached an illegal state."""


class DeadlockError(SimulationError):
    """The simulation quiesced while updates or fetches were still pending.

    This is raised when every application process has finished (or is
    blocked) and no events remain, yet some update message never satisfied
    its activation predicate or some remote fetch never completed.  For a
    correct protocol this indicates a liveness bug; the failure-injection
    tests trigger it deliberately.
    """


class ConsistencyViolationError(ReproError):
    """The execution checker found a violation of causal consistency."""


class ServiceError(ReproError):
    """The networked KV service (``repro.service``) hit an error."""


class WireError(ServiceError):
    """A wire frame was malformed, oversized, or of an unsupported version."""

    #: the ``err`` frame code a server answers this error with
    code = "bad-frame"


class UnsupportedVersionError(WireError):
    """A handshake offered (or a peer answered with) a wire version
    outside the support window — see ``repro.service.wire``.  The code
    is not retriable: no replica of the same build answers differently."""

    code = "unsupported-version"


class ServiceUnavailableError(ServiceError):
    """A request could not be served by any reachable replica.

    Raised by the service client after exhausting its retry/backoff budget
    across every candidate site, and by a site server when a bounded
    server-side wait (a strict read gate or a remote fetch) expires."""
