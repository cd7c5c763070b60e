"""The rule catalog of ``repro-lint`` (see docs/static-analysis.md).

Every rule encodes an invariant this repository has already paid for:

* ``import-layering``   — the package DAG (caught the ``metrics↔sim``
  circular import class);
* ``cow-discipline``    — ``DepLog`` copy-on-write aliasing rules;
* ``unordered-iteration`` / ``entropy-source`` — simulation determinism;
* ``mutable-default`` / ``bare-except``        — generic Python hazards;
* ``blocking-io``       — event-loop stalls in the asyncio service
  (``time.sleep`` / sync sockets in ``repro.service``);
* ``hook-shadow``       — the wake-index contract of
  :class:`repro.core.base.CausalProtocol`.

Rules are syntactic: they inspect one module's AST with no type
inference.  That makes them fast and predictable, at the cost of aliasing
blind spots (``log = msg.meta.log; log.purge()`` is invisible to
``cow-discipline``) — documented per rule below.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, ModuleContext, Rule
from repro.lint.interleave import AwaitAtomicityRule

# ----------------------------------------------------------------------
# import layering
# ----------------------------------------------------------------------

#: Layer rank per first-level package under ``repro``.  A module-level
#: import may only point at a strictly lower rank (same package is always
#: fine); function-local deferred imports are exempt — they cannot create
#: an import cycle at load time and are this repo's sanctioned escape
#: hatch (e.g. ``metrics.sizes`` registering ``UpdateBatch`` lazily).
LAYERS: Dict[str, int] = {
    "types": 0,
    "errors": 0,
    "core": 1,
    "lint": 1,
    "verify": 2,
    "store": 2,
    # obs sits with verify/store: readable from metrics/sim/analysis/cli;
    # its own deps on verify are function-local deferred imports
    "obs": 2,
    "metrics": 3,
    "sim": 4,
    "workload": 5,
    "ext": 5,
    # service sits above workload (loadgen drives YCSB scripts) and beside
    # analysis; nothing below it may import it
    "service": 6,
    "analysis": 6,
    "cli": 7,
    # the top-level ``repro/__init__`` facade may import anything
    "": 8,
}


def _first_level(module: str) -> Optional[str]:
    """``repro.sim.site`` -> ``sim``; ``repro`` -> ``""``; else None."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else ""


def _module_level_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Yield ``(line, target_module)`` for every import executed at module
    load time — including inside top-level ``if``/``try`` blocks, but not
    inside functions/classes, and not under ``if TYPE_CHECKING:`` (those
    never execute at runtime, so they cannot create a load-time cycle)."""

    def scan(stmts: Sequence[ast.stmt]) -> Iterator[Tuple[int, str]]:
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    yield node.lineno, node.module
            elif isinstance(node, ast.If):
                if "TYPE_CHECKING" in ast.dump(node.test):
                    continue
                yield from scan(node.body)
                yield from scan(node.orelse)
            elif isinstance(node, ast.Try):
                yield from scan(node.body)
                for handler in node.handlers:
                    yield from scan(handler.body)
                yield from scan(node.orelse)
                yield from scan(node.finalbody)
            elif isinstance(node, (ast.With, ast.For, ast.While)):
                yield from scan(node.body)

    yield from scan(tree.body)


class ImportLayeringRule(Rule):
    """Module-level imports must respect the package layer ranking.

    Allowlist payload: ``<importing module> -> <imported package>``, e.g.
    ``repro.store.datastore -> repro.sim``.
    """

    name = "import-layering"
    summary = (
        "module-level imports must point strictly down the package layers "
        "(core never imports sim/analysis/metrics, metrics never imports sim)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        src_pkg = _first_level(ctx.module)
        if src_pkg is None or src_pkg not in LAYERS:
            return
        src_rank = LAYERS[src_pkg]
        allowed = ctx.allowed_payloads(self.name)
        for line, target in _module_level_imports(ctx.tree):
            tgt_pkg = _first_level(target)
            if tgt_pkg is None or tgt_pkg == src_pkg or tgt_pkg not in LAYERS:
                continue
            if LAYERS[tgt_pkg] < src_rank:
                continue
            target_pkg_name = f"repro.{tgt_pkg}" if tgt_pkg else "repro"
            edge_ok = False
            for payload in allowed:
                if self._matches(payload, ctx.module, target):
                    ctx.mark_allow_used(self.name, payload)
                    edge_ok = True
            if edge_ok:
                continue
            yield Finding(
                self.name,
                ctx.path,
                line,
                f"{ctx.module} (layer {src_rank}: {src_pkg or 'repro'}) must "
                f"not import {target} (layer {LAYERS[tgt_pkg]}: "
                f"{target_pkg_name}); move the import into the function that "
                f"needs it, invert the dependency, or allowlist the edge",
            )

    @staticmethod
    def _matches(payload: str, module: str, target: str) -> bool:
        if "->" not in payload:
            return False
        src, _, dst = (p.strip() for p in payload.partition("->"))
        return module == src and (target == dst or target.startswith(dst + "."))


# ----------------------------------------------------------------------
# DepLog copy-on-write discipline
# ----------------------------------------------------------------------

#: dict mutators that would bypass ``DepLog._own``
_DICT_MUTATORS = {"update", "pop", "clear", "setdefault", "popitem"}
#: DepLog methods that mutate in place (must never run on a piggybacked
#: ``*.meta.log`` — copy first)
_DEPLOG_MUTATORS = {
    "add",
    "prune_dests",
    "remove_site",
    "purge",
    "retire",
    "merge",
    "absorb",
}
#: DepLog-internal attributes nothing outside core/log.py may write
_DEPLOG_INTERNALS = {"entries", "_latest", "_dests"}


def _attr_chain(node: ast.expr) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a plain chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class CowDisciplineRule(Rule):
    """No in-place mutation of ``DepLog`` internals outside ``core/log.py``.

    Flags, everywhere except the exempt module:

    * writes to ``<x>.entries`` / ``<x>._latest`` / ``<x>._dests``
      (assignment, augmented assignment, ``del``, subscript stores);
    * dict mutators called on those attributes
      (``log.entries.update(...)``);
    * ``DepLog`` mutating methods invoked directly on a piggybacked log
      (``msg.meta.log.purge()`` — shared copy-on-write state; take a
      ``.copy()`` first).

    Syntactic only: aliasing (``log = msg.meta.log; log.purge()``) is not
    tracked.
    """

    name = "cow-discipline"
    summary = "DepLog internals may only be mutated inside repro.core.log"
    exempt_modules = {"repro.core.log"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in self.exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    hit = self._internal_write(target)
                    if hit:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"in-place write to DepLog internal {hit!r} "
                            f"outside repro.core.log breaks the "
                            f"copy-on-write sharing contract",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    hit = self._internal_write(target)
                    if hit:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"del on DepLog internal {hit!r} outside "
                            f"repro.core.log breaks the copy-on-write "
                            f"sharing contract",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                method = node.func.attr
                owner = node.func.value
                if method in _DICT_MUTATORS and isinstance(
                    owner, ast.Attribute
                ):
                    if owner.attr in _DEPLOG_INTERNALS:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"mutating call .{owner.attr}.{method}(...) on "
                            f"DepLog internals outside repro.core.log",
                        )
                elif method in _DEPLOG_MUTATORS:
                    chain = _attr_chain(owner)
                    if len(chain) >= 2 and chain[-2:] == ["meta", "log"]:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"{'.'.join(chain)}.{method}(...) mutates a "
                            f"piggybacked DepLog in place — the message "
                            f"meta is shared copy-on-write state; call "
                            f".copy() first",
                        )

    @staticmethod
    def _internal_write(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in _DEPLOG_INTERNALS:
            # ``self.entries = ...`` inside DepLog methods is exempt via
            # the module check; everywhere else any owner is suspect
            return target.attr
        return None


# ----------------------------------------------------------------------
# determinism hazards
# ----------------------------------------------------------------------

_SET_BUILTINS = {"set", "frozenset"}


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_BUILTINS
    return False


class UnorderedIterationRule(Rule):
    """No direct iteration over set expressions in ``sim``/``core``.

    Event scheduling and message emission must be bit-for-bit
    deterministic (the drain-equivalence and parallel-runner property
    tests depend on it); iterating a ``set`` hands the iteration order to
    the hash seed.  Wrap the expression in ``sorted(...)`` or use an
    order-preserving container.  Syntactic only: a *variable* holding a
    set is not flagged, the set must be built at the iteration site.
    """

    name = "unordered-iteration"
    summary = "iteration over set expressions in repro.sim/repro.core"
    # tests/benchmarks assert on deterministic output, so the same
    # iteration-order discipline applies there
    scoped_prefixes = ("repro.sim", "repro.core", "tests", "benchmarks")
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(it):
                    yield Finding(
                        self.name,
                        ctx.path,
                        it.lineno,
                        "iteration over an unordered set expression in the "
                        "deterministic simulation core — wrap it in "
                        "sorted(...) or keep an ordered container",
                    )


#: stdlib entropy/wall-clock sources forbidden in the deterministic core
_ENTROPY_MODULES = {"random", "secrets"}
_ENTROPY_CALLS = {
    "time": {"time", "monotonic", "perf_counter", "time_ns", "process_time"},
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}


class EntropySourceRule(Rule):
    """No wall-clock or OS entropy in the deterministic packages.

    Simulated time comes from :class:`repro.sim.engine.Simulator`;
    randomness comes from seeded ``numpy`` generators threaded through
    :class:`~repro.sim.cluster.ClusterConfig`.  ``repro.sim.latency`` (the
    one place jitter is drawn) and the workload generators are exempt;
    add further exemptions as allowlist payloads naming the module.
    """

    name = "entropy-source"
    summary = (
        "random/time/os.urandom forbidden in repro.core/sim/store/"
        "verify/metrics (except sim.latency)"
    )
    scoped_prefixes = (
        "repro.core",
        "repro.sim",
        "repro.store",
        "repro.verify",
        "repro.metrics",
        # seeded reproducibility matters just as much in the suites that
        # assert on simulator output and the benchmarks that feed the
        # checked-in ledgers
        "tests",
        "benchmarks",
    )
    exempt_modules = {"repro.sim.latency"}
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        if ctx.module in self.exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ENTROPY_MODULES:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"import of entropy module {alias.name!r} in the "
                            f"deterministic core — draw from the cluster's "
                            f"seeded RNG streams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"import from entropy module {node.module!r} in the "
                        f"deterministic core",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                if node.attr in _ENTROPY_CALLS.get(node.value.id, ()):
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"{node.value.id}.{node.attr} in the deterministic "
                        f"core — use simulated time "
                        f"(Simulator.now) or a seeded RNG stream",
                    )


# ----------------------------------------------------------------------
# generic hazards
# ----------------------------------------------------------------------


class MutableDefaultRule(Rule):
    """Mutable default argument values (shared across calls)."""

    name = "mutable-default"
    summary = "list/dict/set default argument values"

    _LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    _CTORS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._mutable(default):
                    fn = getattr(node, "name", "<lambda>")
                    yield Finding(
                        self.name,
                        ctx.path,
                        default.lineno,
                        f"mutable default argument in {fn!r} is shared "
                        f"across calls — default to None and build inside",
                    )

    def _mutable(self, node: ast.expr) -> bool:
        if isinstance(node, self._LITERALS):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._CTORS
        return False


class BareExceptRule(Rule):
    """``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and every
    protocol-invariant error this package raises on purpose."""

    name = "bare-except"
    summary = "bare except clauses"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Finding(
                    self.name,
                    ctx.path,
                    node.lineno,
                    "bare 'except:' — name the exceptions (ReproError "
                    "covers everything this package raises)",
                )


# ----------------------------------------------------------------------
# ad-hoc logging
# ----------------------------------------------------------------------


class AdHocLoggingRule(Rule):
    """No ``print()`` or ``logging`` in the protocol and simulation layers.

    Anything worth reporting from ``repro.core``/``repro.sim`` is
    telemetry and must flow through ``repro.obs`` (a lifecycle recorder
    hook or a registry metric): stdout writes corrupt CLI output that is
    meant to be piped, and both are invisible to the trace/replay
    machinery.  Syntactic only: aliased prints (``p = print``) are not
    caught.
    """

    name = "adhoc-logging"
    summary = "print()/logging forbidden in repro.core/sim — use repro.obs"
    scoped_prefixes = ("repro.core", "repro.sim")
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield Finding(
                    self.name,
                    ctx.path,
                    node.lineno,
                    "print() in the protocol/simulation layer — emit a "
                    "repro.obs recorder event or registry metric instead",
                )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "logging":
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            "logging import in the protocol/simulation "
                            "layer — use repro.obs telemetry instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "logging":
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        "logging import in the protocol/simulation layer "
                        "— use repro.obs telemetry instead",
                    )


# ----------------------------------------------------------------------
# blocking I/O in the asyncio service
# ----------------------------------------------------------------------

#: synchronous I/O modules that stall the event loop when used from
#: service code (asyncio streams replace them)
_BLOCKING_IO_MODULES = {"socket", "socketserver", "selectors"}


class BlockingIoRule(Rule):
    """No blocking I/O inside the asyncio service package.

    ``repro.service`` is single-threaded asyncio: one ``time.sleep`` (or a
    synchronous ``socket`` call) freezes every site co-hosted on the loop
    — in the loopback tests that is the *whole cluster*, and the failure
    mode is a silent latency cliff rather than an error.  Flags:

    * ``time.sleep(...)`` anywhere in the package (coroutine or helper:
      helpers run on the loop too) — use ``asyncio.sleep``;
    * module-level or local imports of the synchronous socket machinery
      (``socket``, ``socketserver``, ``selectors``) — go through
      :mod:`repro.service.transport`, which wraps asyncio streams.

    Syntactic only: ``from time import sleep`` is caught, an aliased
    ``s = time.sleep; s()`` is not.  Allowlist payload: the module name.
    """

    name = "blocking-io"
    summary = "time.sleep / sync socket forbidden in repro.service (asyncio)"
    scoped_prefixes = ("repro.service",)
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "time" and node.attr == "sleep":
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        "time.sleep blocks the event loop and with it every "
                        "co-hosted site — await asyncio.sleep(...) instead",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _BLOCKING_IO_MODULES:
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            f"synchronous {alias.name!r} import in the asyncio "
                            f"service — use repro.service.transport (asyncio "
                            f"streams)",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BLOCKING_IO_MODULES:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"synchronous import from {node.module!r} in the "
                        f"asyncio service — use repro.service.transport "
                        f"(asyncio streams)",
                    )
                elif root == "time" and any(
                    alias.name == "sleep" for alias in node.names
                ):
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        "importing time.sleep into the asyncio service — "
                        "await asyncio.sleep(...) instead",
                    )


# ----------------------------------------------------------------------
# durability seam discipline
# ----------------------------------------------------------------------

#: ``os`` entry points that create or force file state — only the
#: durability seam may call them from service code
_DURABILITY_OS_CALLS = {"open", "fsync", "fdatasync"}

#: service modules allowed raw file I/O: the WAL/snapshot seam itself
_DURABILITY_EXEMPT = {
    "repro.service.durability",
}


class DurabilityIoRule(Rule):
    """All file I/O in the service goes through the durability seam.

    Crash safety is argued once, in :mod:`repro.service.durability`: its
    write paths pair every mutation with the fsync/rename discipline the
    recovery tests assume (torn-tail truncation, snapshot-then-unlink
    commit order, directory fsync after rename).  A raw ``open`` or
    ``os.fsync`` elsewhere in ``repro.service`` creates durable state
    the recovery path does not know how to replay or repair — and a
    *synchronous* ``open``/``fsync`` on the event loop stalls every
    co-hosted site for the duration of the disk flush.  Flags, in any
    service module other than the seam itself:

    * calls to the ``open`` builtin;
    * ``io.open`` / ``os.open`` / ``os.fsync`` / ``os.fdatasync``
      attribute uses (caught at the attribute, so aliasing
      ``f = os.fsync`` is reported at the alias site).

    Syntactic only: an aliased ``o = open; o(path)`` is not caught, and
    ``pathlib``'s ``.open()``/``.write_bytes()`` methods are out of
    scope.  Allowlist payload: the module name.
    """

    name = "durability-io"
    summary = (
        "raw open/os.fsync in repro.service — file I/O belongs to the "
        "repro.service.durability seam"
    )
    scoped_prefixes = ("repro.service",)
    exempt_modules = _DURABILITY_EXEMPT
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        if ctx.module in self.exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
            ):
                yield Finding(
                    self.name,
                    ctx.path,
                    node.lineno,
                    "raw open() in the service — durable state must be "
                    "written through repro.service.durability, where the "
                    "crash-recovery contract (CRC records, torn-tail "
                    "truncation, snapshot commit order) is enforced and "
                    "tested",
                )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id in ("os", "io") and node.attr in (
                    _DURABILITY_OS_CALLS
                ):
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"{node.value.id}.{node.attr} in the service — "
                        f"file I/O and flush discipline belong to the "
                        f"repro.service.durability seam (and a synchronous "
                        f"fsync on the event loop stalls every co-hosted "
                        f"site)",
                    )


# ----------------------------------------------------------------------
# wire codec discipline
# ----------------------------------------------------------------------

#: ``json`` module entry points that would serialize frames outside the
#: negotiated codec machinery
_JSON_SERDE = {"dumps", "loads", "dump", "load"}

#: service modules allowed to touch ``json`` directly: the codec module
#: itself, and the human-facing edge (CLI snapshot printing) whose JSON
#: never crosses a peer or client connection
_WIRE_EXEMPT = {
    "repro.service.wire",
    "repro.service.cli",
}


class WireCodecRule(Rule):
    """No raw ``json`` serialization on the service wire path.

    Every frame that crosses a connection must go through
    :mod:`repro.service.wire` — the codec registry is what makes the
    version handshake sound (a hand-rolled ``json.dumps`` in
    ``transport``/``server``/``client`` would bypass the binary codec
    the handshake installed, and after it the other side delimits frames
    by their LEB128 length and sniffs each body's first byte for a lean
    tag, the binary magic or ``{``).  Flags, in any ``repro.service``
    module other than the exempt edges:

    * ``import json`` / ``from json import ...``;
    * attribute calls ``json.dumps``/``loads``/``dump``/``load``
      (caught even without the import, e.g. via an injected module).

    Syntactic only: an aliased ``d = json.dumps; d(frame)`` is caught at
    the alias site, not the call.  Allowlist payload: the module name.
    """

    name = "wire-codec"
    summary = (
        "raw json serialization on the service wire path — all frames "
        "must go through repro.service.wire codecs"
    )
    scoped_prefixes = ("repro.service",)
    exempt_modules = _WIRE_EXEMPT
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        if ctx.module in self.exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "json":
                        yield Finding(
                            self.name,
                            ctx.path,
                            node.lineno,
                            "json import on the service wire path — frames "
                            "must travel through the repro.service.wire "
                            "codec registry (the negotiated binary profile "
                            "depends on it)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "json":
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        "import from json on the service wire path — use "
                        "the repro.service.wire codec registry",
                    )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                if node.value.id == "json" and node.attr in _JSON_SERDE:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"json.{node.attr} on the service wire path would "
                        f"bypass the negotiated codec — encode through "
                        f"repro.service.wire instead",
                    )


# ----------------------------------------------------------------------
# protocol hook shadowing
# ----------------------------------------------------------------------

#: boolean predicate -> the wake-index hook that must track it (see the
#: contract in repro.core.base: an inherited hook that disagrees with an
#: overridden predicate parks or wakes buffered items incorrectly)
_PRED_TO_HOOK = {
    "can_apply": "blocking_deps",
    "can_serve_fetch": "blocking_fetch_deps",
    "can_read_local": "blocking_read_deps",
}
_ALL_HOOK_NAMES = set(_PRED_TO_HOOK) | set(_PRED_TO_HOOK.values()) | {
    "apply_update",
    "apply_progress",
    "write",
    "read_local",
    "serve_fetch",
    "complete_remote_read",
    "make_fetch_request",
    "meta_objects",
}


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        chain = _attr_chain(base)
        if chain:
            names.append(chain[-1])
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


class HookShadowRule(Rule):
    """Protocol subclasses must keep predicates and wake-index hooks in
    sync, and must not shadow hook names with class attributes.

    * In a subclass of a *concrete* protocol (base name ends in
      ``Protocol`` but is not ``CausalProtocol``), overriding a boolean
      predicate (``can_apply``/``can_serve_fetch``/``can_read_local``)
      without also overriding its ``blocking_*`` hook inherits an index
      that disagrees with the new predicate.
    * In any ``*Protocol`` subclass, a plain assignment to a hook name
      (``can_apply = True``) silently replaces a method with a value.
    """

    name = "hook-shadow"
    summary = "protocol predicate overridden without its blocking_* hook"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = _base_names(node)
            protocol_bases = [b for b in bases if b.endswith("Protocol")]
            if not protocol_bases:
                continue
            defined = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in _ALL_HOOK_NAMES
                        ):
                            yield Finding(
                                self.name,
                                ctx.path,
                                stmt.lineno,
                                f"class attribute {target.id!r} shadows the "
                                f"protocol hook of the same name in "
                                f"{node.name}",
                            )
            concrete = [b for b in protocol_bases if b != "CausalProtocol"]
            if not concrete:
                continue
            for pred, hook in _PRED_TO_HOOK.items():
                if pred in defined and hook not in defined:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"{node.name} overrides {pred!r} but inherits "
                        f"{hook!r} from {concrete[0]} — the inherited wake "
                        f"index will park or wake buffered items against "
                        f"the new predicate; override {hook!r} too",
                    )


# ----------------------------------------------------------------------
# link chain / intern state discipline
# ----------------------------------------------------------------------

#: per-connection link state: the two chain ends (metadata baselines),
#: the chained-scalar baselines inside them (the last ``ls`` / issue
#: stamp / ack that crossed the connection) and the negotiated intern
#: tables
_DELTA_STATE_ATTRS = {
    "_delta_out", "_delta_in", "_itab", "_itabs",
    "_last_ls", "_last_it", "_last_ack",
}

#: the connection-lifecycle sites allowed to (re)build that state:
#: construction, the handshake that makes a connection's chain end, and
#: the handler exit that drops it with the connection.  Everything else
#: must treat the state as read-only — an ad-hoc reset desynchronizes
#: the two chain ends and the next repl.delta reconstructs the wrong
#: metadata, the next ``ls`` the wrong sequence number.
_DELTA_STATE_ALLOWED = {
    "repro.service.server": {
        ("PeerLink", "__init__"),
        ("PeerLink", "_handshake"),
        ("SiteServer", "__init__"),
        ("SiteServer", "_handle_conn"),
        ("SiteServer", "_handle_hello"),
    },
    "repro.service.client": {
        ("KVClient", "__init__"),
        ("KVClient", "_negotiate"),
    },
}


class WireDeltaStateRule(Rule):
    """Link chain/intern connection state mutates only on lifecycle paths.

    The ``repl.delta`` chain and the chained scalars (``ls``, the issue
    stamp, the ack) are sound because both ends advance their baselines
    in lockstep with the frames actually sent and received, and id
    interning is sound because both directions resolve against the
    table fixed at the handshake.  Any other code path touching that
    state (``_delta_out``/``_delta_in``/``_itab``/``_itabs``, or the
    ``_last_ls``/``_last_it``/``_last_ack`` baselines inside a chain
    end) breaks the agreement silently — the decoder then applies a
    diff to the wrong baseline, rebuilds the wrong sequence number or
    resolves ids against the wrong table.  Flags,
    in any ``repro.service`` module except :mod:`repro.service.wire`
    (which owns the encoder/decoder classes):

    * assignment, augmented assignment, ``del``, and subscript stores
      on those attributes outside the allowed lifecycle sites
      (:data:`_DELTA_STATE_ALLOWED`);
    * container mutators called on them (``x._delta_in.clear()``).

    Syntactic only: aliasing (``dec = self._delta_in[s]; dec.reset()``)
    is not tracked.  Allowlist payload: the module name.
    """

    name = "wire-delta-state"
    summary = (
        "link chain (delta/scalar baselines) or intern state mutated outside "
        "repro.service.wire and the connection lifecycle paths"
    )
    scoped_prefixes = ("repro.service",)
    exempt_modules = {"repro.service.wire"}
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        if ctx.module in self.exempt_modules:
            return
        allowed = _DELTA_STATE_ALLOWED.get(ctx.module, set())
        yield from self._walk(ctx, ctx.tree, None, None, allowed)

    def _walk(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        klass: Optional[str],
        meth: Optional[str],
        allowed: set,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            ck, cm = klass, meth
            if isinstance(child, ast.ClassDef):
                ck, cm = child.name, None
            elif (
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and cm is None
            ):
                # nested defs stay attributed to the enclosing method
                cm = child.name
            if (ck, cm) not in allowed:
                yield from self._findings(ctx, child)
            yield from self._walk(ctx, child, ck, cm, allowed)

    def _findings(self, ctx: ModuleContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                hit = self._state_write(target)
                if hit:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"write to link wire state {hit!r} outside the "
                        f"connection lifecycle paths — the delta chain "
                        f"and intern table only stay in sync when "
                        f"handshake/reset code owns them",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                hit = self._state_write(target)
                if hit:
                    yield Finding(
                        self.name,
                        ctx.path,
                        node.lineno,
                        f"del on link wire state {hit!r} outside the "
                        f"connection lifecycle paths",
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (
                node.func.attr in _DICT_MUTATORS
                and isinstance(owner, ast.Attribute)
                and owner.attr in _DELTA_STATE_ATTRS
            ):
                yield Finding(
                    self.name,
                    ctx.path,
                    node.lineno,
                    f"mutating call .{owner.attr}.{node.func.attr}(...) on "
                    f"link wire state outside the connection lifecycle paths",
                )

    @staticmethod
    def _state_write(target: ast.expr) -> Optional[str]:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in _DELTA_STATE_ATTRS:
            return target.attr
        return None


# ----------------------------------------------------------------------
# metric naming discipline
# ----------------------------------------------------------------------

#: registry entry points (and the service layer's thin wrappers around
#: them) whose first string argument is a metric name
_METRIC_METHODS = {"counter", "gauge", "histogram", "metric", "_metric"}

#: snake_case with a unit suffix: the exposition layer and the metric
#: names table in docs/observability.md both key off the suffix telling
#: readers (and dashboards) what the number *is*
_METRIC_NAME_RE = re.compile(
    r"^[a-z][a-z0-9_]*(_total|_ms|_bytes|_count|_ratio)$"
)


class MetricNamingRule(Rule):
    """Service-layer metric names are snake_case with a unit suffix.

    Every metric the service registers is scraped verbatim by the
    Prometheus exposition endpoint and documented in the metric names
    table of ``docs/observability.md`` — a name without a unit suffix
    (``_total`` for counters, ``_ms``/``_bytes``/``_count``/``_ratio``
    for measured values) is ambiguous on a dashboard and drifts from the
    table silently.  Flags, in any ``repro.service`` module: a string
    literal first argument to ``counter``/``gauge``/``histogram`` (the
    :class:`~repro.obs.registry.MetricsRegistry` entry points) or to the
    service's ``metric``/``_metric`` wrappers that does not match
    ``[a-z][a-z0-9_]*`` + unit suffix.

    Syntactic only: names built at runtime (``registry.counter(name)``)
    are not checked — keep them out of the service layer.  Allowlist
    payload: the module name.
    """

    name = "metric-naming"
    summary = (
        "service-layer metric names must be snake_case with a unit "
        "suffix (_total/_ms/_bytes/_count/_ratio)"
    )
    scoped_prefixes = ("repro.service",)
    module_allow = True

    def scan(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(self.scoped_prefixes):
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and node.args
            ):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if _METRIC_NAME_RE.match(first.value):
                continue
            yield Finding(
                self.name,
                ctx.path,
                first.lineno,
                f"metric name {first.value!r} breaks the naming "
                f"discipline — service metrics are snake_case with a "
                f"unit suffix (_total for counters, _ms/_bytes/_count/"
                f"_ratio for values) so the Prometheus exposition and "
                f"the docs/observability.md table stay unambiguous",
            )


#: the default rule set, in catalog order
ALL_RULES: Tuple[Rule, ...] = (
    ImportLayeringRule(),
    CowDisciplineRule(),
    UnorderedIterationRule(),
    EntropySourceRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    AdHocLoggingRule(),
    BlockingIoRule(),
    DurabilityIoRule(),
    WireCodecRule(),
    WireDeltaStateRule(),
    MetricNamingRule(),
    AwaitAtomicityRule(),
    HookShadowRule(),
)

RULES_BY_NAME: Dict[str, Rule] = {r.name: r for r in ALL_RULES}
