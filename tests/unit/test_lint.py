"""repro-lint: every rule has a firing fixture and a quiet fixture, the
suppression/allowlist machinery enforces reasons, and the repository
itself lints clean."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import ALL_RULES, RULES_BY_NAME, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    AllowEntry,
    module_name_for,
    parse_allowlist,
    parse_suppressions,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run(source, module="repro.core.example", allow=()):
    return lint_source(source, ALL_RULES, module=module, path="t.py", allow=allow)


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# import-layering
# ----------------------------------------------------------------------
class TestImportLayering:
    def test_core_importing_sim_fires(self):
        out = run("from repro.sim.cluster import Cluster\n", module="repro.core.base")
        assert rules_of(out) == ["import-layering"]
        assert "repro.sim" in out[0].message

    def test_core_importing_metrics_fires(self):
        out = run("import repro.metrics.collector\n", module="repro.core.base")
        assert rules_of(out) == ["import-layering"]

    def test_metrics_importing_sim_fires(self):
        out = run("from repro.sim import site\n", module="repro.metrics.sizes")
        assert rules_of(out) == ["import-layering"]

    def test_downward_import_is_quiet(self):
        out = run("from repro.core.log import DepLog\n", module="repro.sim.site")
        assert out == []

    def test_same_package_is_quiet(self):
        out = run("from repro.core import bitsets\n", module="repro.core.opt_track")
        assert out == []

    def test_function_local_deferred_import_is_quiet(self):
        src = "def f():\n    from repro.sim.cluster import Cluster\n    return Cluster\n"
        assert run(src, module="repro.metrics.sizes") == []

    def test_type_checking_block_is_quiet(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.sim.cluster import Cluster\n"
        )
        assert run(src, module="repro.core.base") == []

    def test_try_block_import_still_fires(self):
        src = "try:\n    import repro.sim.site\nexcept ImportError:\n    pass\n"
        assert rules_of(run(src, module="repro.core.base")) == ["import-layering"]

    def test_allowlist_edge_is_quiet(self):
        allow = [
            AllowEntry(
                "import-layering", "repro.store.datastore -> repro.sim", "facade"
            )
        ]
        src = "from repro.sim.cluster import Cluster\n"
        assert run(src, module="repro.store.datastore", allow=allow) == []
        # the entry names one module: any other importer still fires
        assert rules_of(run(src, module="repro.store.placement", allow=allow)) == [
            "import-layering"
        ]

    def test_non_repro_module_ignored(self):
        assert run("import repro.sim.site\n", module="scripts.helper") == []


# ----------------------------------------------------------------------
# cow-discipline
# ----------------------------------------------------------------------
class TestCowDiscipline:
    def test_meta_log_mutator_fires(self):
        out = run("def f(msg):\n    msg.meta.log.purge(0)\n")
        assert rules_of(out) == ["cow-discipline"]
        assert "copy" in out[0].message

    @pytest.mark.parametrize(
        "call", ["add(1, 2, 3)", "remove_site(0)", "retire(3)", "absorb(x)"]
    )
    def test_each_deplog_mutator_fires(self, call):
        out = run(f"def f(m):\n    m.meta.log.{call}\n")
        assert rules_of(out) == ["cow-discipline"]

    def test_entries_subscript_store_fires(self):
        out = run("def f(log):\n    log.entries[(0, 1)] = 3\n")
        assert rules_of(out) == ["cow-discipline"]

    def test_entries_dict_mutator_fires(self):
        out = run("def f(log, other):\n    log.entries.update(other)\n")
        assert rules_of(out) == ["cow-discipline"]

    def test_internal_del_fires(self):
        out = run("def f(log):\n    del log._latest\n")
        assert rules_of(out) == ["cow-discipline"]

    def test_reading_entries_is_quiet(self):
        assert run("def f(log):\n    return len(log.entries)\n") == []

    def test_copy_then_mutate_is_quiet(self):
        # the sanctioned pattern: take a copy, mutate the copy
        src = "def f(msg):\n    log = msg.meta.log.copy()\n    log.purge(0)\n"
        assert run(src) == []

    def test_core_log_module_is_exempt(self):
        src = "def f(self, k, v):\n    self.entries[k] = v\n"
        assert run(src, module="repro.core.log") == []


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    def test_for_over_set_literal_fires(self):
        out = run("for x in {1, 2}:\n    pass\n", module="repro.sim.site")
        assert rules_of(out) == ["unordered-iteration"]

    def test_for_over_set_call_fires(self):
        out = run("for x in set(items):\n    pass\n", module="repro.core.base")
        assert rules_of(out) == ["unordered-iteration"]

    def test_comprehension_over_setcomp_fires(self):
        out = run("ys = [y for y in {x for x in items}]\n", module="repro.sim.site")
        assert rules_of(out) == ["unordered-iteration"]

    def test_list_of_set_fires(self):
        out = run("xs = list(set(items))\n", module="repro.sim.site")
        assert rules_of(out) == ["unordered-iteration"]

    def test_sorted_set_is_quiet(self):
        assert run("for x in sorted(set(items)):\n    pass\n", module="repro.sim.site") == []

    def test_outside_scope_is_quiet(self):
        assert run("for x in {1, 2}:\n    pass\n", module="repro.analysis.figures") == []


# ----------------------------------------------------------------------
# entropy-source
# ----------------------------------------------------------------------
class TestEntropySource:
    def test_import_random_fires(self):
        out = run("import random\n", module="repro.sim.engine")
        assert rules_of(out) == ["entropy-source"]

    def test_from_secrets_fires(self):
        out = run("from secrets import token_hex\n", module="repro.core.base")
        assert rules_of(out) == ["entropy-source"]

    def test_time_time_fires(self):
        out = run("import time\nt = time.time()\n", module="repro.sim.engine")
        assert rules_of(out) == ["entropy-source"]

    def test_os_urandom_fires(self):
        out = run("import os\nb = os.urandom(8)\n", module="repro.store.datastore")
        assert rules_of(out) == ["entropy-source"]

    def test_uuid4_fires(self):
        out = run("import uuid\nu = uuid.uuid4()\n", module="repro.verify.history")
        assert rules_of(out) == ["entropy-source"]

    def test_latency_module_is_exempt(self):
        assert run("import random\n", module="repro.sim.latency") == []

    def test_workload_generators_outside_scope(self):
        assert run("import random\n", module="repro.workload.generator") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("entropy-source", "repro.sim.engine", "wall-clock probe")]
        assert run("import time\nt = time.time()\n", module="repro.sim.engine", allow=allow) == []

    def test_import_time_alone_is_quiet(self):
        # only the wall-clock calls are hazards; time.sleep etc. never
        # appear, and the import alone is not flagged
        assert run("import time\n", module="repro.sim.engine") == []


# ----------------------------------------------------------------------
# generic hazards
# ----------------------------------------------------------------------
class TestGenericHazards:
    def test_mutable_default_list_fires(self):
        out = run("def f(a=[]):\n    pass\n")
        assert rules_of(out) == ["mutable-default"]

    def test_mutable_default_dict_call_fires(self):
        out = run("def f(a=dict()):\n    pass\n")
        assert rules_of(out) == ["mutable-default"]

    def test_mutable_kwonly_default_fires(self):
        out = run("def f(*, a={}):\n    pass\n")
        assert rules_of(out) == ["mutable-default"]

    def test_none_default_is_quiet(self):
        assert run("def f(a=None, b=(), c=0):\n    pass\n") == []

    def test_bare_except_fires(self):
        out = run("try:\n    pass\nexcept:\n    pass\n")
        assert rules_of(out) == ["bare-except"]

    def test_typed_except_is_quiet(self):
        assert run("try:\n    pass\nexcept ValueError:\n    pass\n") == []


# ----------------------------------------------------------------------
# hook-shadow
# ----------------------------------------------------------------------
class TestHookShadow:
    def test_predicate_without_hook_fires(self):
        src = (
            "class Broken(OptTrackProtocol):\n"
            "    def can_apply(self, msg):\n"
            "        return True\n"
        )
        out = run(src, module="repro.ext.custom")
        assert rules_of(out) == ["hook-shadow"]
        assert "blocking_deps" in out[0].message

    def test_predicate_with_hook_is_quiet(self):
        src = (
            "class Fine(OptTrackProtocol):\n"
            "    def can_apply(self, msg):\n"
            "        return True\n"
            "    def blocking_deps(self, msg):\n"
            "        return ()\n"
        )
        assert run(src, module="repro.ext.custom") == []

    def test_abstract_base_subclass_not_required_to_override(self):
        # a direct CausalProtocol subclass defines everything from scratch;
        # the pair rule only bites when a concrete protocol is specialised
        src = (
            "class Fresh(CausalProtocol):\n"
            "    def can_apply(self, msg):\n"
            "        return True\n"
        )
        assert run(src, module="repro.ext.custom") == []

    def test_class_attribute_shadowing_hook_fires(self):
        src = "class Broken(FullTrackProtocol):\n    can_apply = True\n"
        out = run(src, module="repro.ext.custom")
        assert rules_of(out) == ["hook-shadow"]

    def test_read_predicate_pair_fires(self):
        src = (
            "class Broken(OptTrackProtocol):\n"
            "    def can_read_local(self, var):\n"
            "        return True\n"
        )
        assert rules_of(run(src, module="repro.ext.custom")) == ["hook-shadow"]

    def test_unrelated_class_is_quiet(self):
        src = "class Helper:\n    can_apply = True\n"
        assert run(src, module="repro.ext.custom") == []


# ----------------------------------------------------------------------
# adhoc-logging
# ----------------------------------------------------------------------
class TestAdHocLogging:
    def test_print_in_core_fires(self):
        out = run("print('applied')\n", module="repro.core.opt_track")
        assert rules_of(out) == ["adhoc-logging"]
        assert "repro.obs" in out[0].message

    def test_print_in_sim_fires(self):
        out = run("def f():\n    print('x')\n", module="repro.sim.site")
        assert rules_of(out) == ["adhoc-logging"]

    def test_logging_import_fires(self):
        assert rules_of(run("import logging\n", module="repro.sim.site")) == [
            "adhoc-logging"
        ]
        assert rules_of(
            run("from logging import getLogger\n", module="repro.core.base")
        ) == ["adhoc-logging"]

    def test_outside_scope_is_quiet(self):
        assert run("print('hi')\n", module="repro.cli") == []
        assert run("import logging\n", module="repro.analysis.runner") == []

    def test_method_named_print_is_quiet(self):
        # only the builtin (a bare Name) counts; attribute calls do not
        assert run("table.print()\n", module="repro.core.base") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("adhoc-logging", "repro.sim.debug", "repl aid")]
        assert (
            run("print('x')\n", module="repro.sim.debug", allow=allow) == []
        )


# ----------------------------------------------------------------------
# blocking-io
# ----------------------------------------------------------------------
class TestBlockingIo:
    def test_time_sleep_in_coroutine_fires(self):
        src = "import time\nasync def f():\n    time.sleep(0.1)\n"
        out = run(src, module="repro.service.server")
        assert rules_of(out) == ["blocking-io"]
        assert "asyncio.sleep" in out[0].message

    def test_time_sleep_in_sync_helper_fires(self):
        # helpers run on the event loop too: still a stall
        src = "import time\ndef backoff():\n    time.sleep(0.5)\n"
        assert rules_of(run(src, module="repro.service.client")) == ["blocking-io"]

    def test_from_time_import_sleep_fires(self):
        out = run("from time import sleep\n", module="repro.service.loadgen")
        assert rules_of(out) == ["blocking-io"]

    def test_socket_import_fires(self):
        assert rules_of(run("import socket\n", module="repro.service.server")) == [
            "blocking-io"
        ]
        out = run("from socket import create_connection\n", module="repro.service.wire")
        assert rules_of(out) == ["blocking-io"]

    @pytest.mark.parametrize("module", ["socketserver", "selectors"])
    def test_other_sync_io_machinery_fires(self, module):
        assert rules_of(run(f"import {module}\n", module="repro.service.cli")) == [
            "blocking-io"
        ]

    def test_asyncio_sleep_is_quiet(self):
        src = "import asyncio\nasync def f():\n    await asyncio.sleep(0.1)\n"
        assert run(src, module="repro.service.server") == []

    def test_time_monotonic_is_quiet(self):
        # reading the clock does not block; only sleeping does
        src = "import time\ndef now():\n    return time.monotonic()\n"
        assert run(src, module="repro.service.server") == []

    def test_outside_scope_is_quiet(self):
        src = "import time\ndef f():\n    time.sleep(1)\n"
        assert run(src, module="repro.analysis.runner") == []
        assert run("import socket\n", module="repro.cli") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("blocking-io", "repro.service.debug", "repl aid")]
        src = "import time\ndef f():\n    time.sleep(1)\n"
        assert run(src, module="repro.service.debug", allow=allow) == []


# ----------------------------------------------------------------------
# durability-io
# ----------------------------------------------------------------------
class TestDurabilityIo:
    def test_raw_open_in_service_fires(self):
        src = "def f(path):\n    with open(path, 'wb') as fh:\n        fh.write(b'x')\n"
        out = run(src, module="repro.service.server")
        assert rules_of(out) == ["durability-io"]
        assert "durability" in out[0].message

    def test_os_fsync_fires(self):
        src = "import os\ndef f(fd):\n    os.fsync(fd)\n"
        out = run(src, module="repro.service.harness")
        # the os import itself is fine; only the fsync attribute fires
        assert rules_of(out) == ["durability-io"]

    @pytest.mark.parametrize("attr", ["os.open", "os.fdatasync", "io.open"])
    def test_low_level_file_attrs_fire(self, attr):
        mod, name = attr.split(".")
        src = f"import {mod}\ndef f(p):\n    return {attr}(p)\n"
        assert rules_of(run(src, module="repro.service.client")) == [
            "durability-io"
        ]

    def test_aliasing_fsync_is_caught_at_the_alias(self):
        src = "import os\nflush = os.fsync\n"
        assert rules_of(run(src, module="repro.service.server")) == [
            "durability-io"
        ]

    def test_durability_seam_is_exempt(self):
        src = "import os\ndef f(p):\n    with open(p, 'wb') as fh:\n        os.fsync(fh.fileno())\n"
        assert run(src, module="repro.service.durability") == []

    def test_retired_bench_module_is_not_exempt(self):
        # repro.service.bench is gone, and its exemption with it: an
        # exemption for a module that does not exist is an open door
        src = "def f(p, text):\n    with open(p, 'w') as fh:\n        fh.write(text)\n"
        assert rules_of(run(src, module="repro.service.bench")) == [
            "durability-io"
        ]

    def test_outside_scope_is_quiet(self):
        src = "def f(p):\n    return open(p).read()\n"
        assert run(src, module="repro.analysis.runner") == []

    def test_method_named_open_is_quiet(self):
        # only the builtin (a bare Name call) counts; attribute calls
        # like path.open() are a documented blind spot
        assert run("conn.open()\n", module="repro.service.server") == []

    def test_os_path_helpers_are_quiet(self):
        src = "import os\ndef f(p):\n    return os.path.isdir(p)\n"
        assert run(src, module="repro.service.cli") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("durability-io", "repro.service.debug", "repl aid")]
        src = "def f(p):\n    return open(p).read()\n"
        assert run(src, module="repro.service.debug", allow=allow) == []


# ----------------------------------------------------------------------
# wire-codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_json_dumps_on_wire_path_fires(self):
        src = "def send(frame):\n    return json.dumps(frame)\n"
        out = run(src, module="repro.service.transport")
        assert rules_of(out) == ["wire-codec"]
        assert "repro.service.wire" in out[0].message

    def test_json_loads_on_wire_path_fires(self):
        src = "def recv(body):\n    return json.loads(body)\n"
        assert rules_of(run(src, module="repro.service.server")) == ["wire-codec"]

    def test_json_import_on_wire_path_fires(self):
        assert rules_of(run("import json\n", module="repro.service.client")) == [
            "wire-codec"
        ]
        assert rules_of(
            run("from json import dumps\n", module="repro.service.harness")
        ) == ["wire-codec"]

    def test_aliased_dumps_is_caught_at_alias_site(self):
        src = "d = json.dumps\n"
        assert rules_of(run(src, module="repro.service.server")) == ["wire-codec"]

    @pytest.mark.parametrize(
        "module", ["repro.service.wire", "repro.service.cli"]
    )
    def test_exempt_edges_are_quiet(self, module):
        src = "import json\ndef f(x):\n    return json.dumps(x)\n"
        assert run(src, module=module) == []
        # ... and only those: the retired bench module's exemption went
        # with it
        assert run(src, module="repro.service.bench") != []

    def test_outside_service_is_quiet(self):
        src = "import json\njson.dumps({})\n"
        assert run(src, module="repro.analysis.runner") == []
        assert run(src, module="repro.cli") == []

    def test_wire_codec_calls_are_quiet(self):
        src = "def send(frame, codec):\n    return codec.encode(frame)\n"
        assert run(src, module="repro.service.transport") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("wire-codec", "repro.service.debug", "repl aid")]
        src = "import json\n"
        assert run(src, module="repro.service.debug", allow=allow) == []


# ----------------------------------------------------------------------
# wire-delta-state
# ----------------------------------------------------------------------
class TestWireDeltaState:
    def test_stray_write_fires(self):
        src = "def f(link):\n    link._delta_out = None\n"
        out = run(src, module="repro.service.transport")
        assert rules_of(out) == ["wire-delta-state"]
        assert "delta chain" in out[0].message

    def test_write_in_unlisted_method_fires(self):
        # right module, wrong path: only the lifecycle sites may touch it
        src = (
            "class SiteServer:\n"
            "    def _handle_fetch(self, src):\n"
            "        self._delta_in[src] = object()\n"
        )
        out = run(src, module="repro.service.server")
        assert rules_of(out) == ["wire-delta-state"]

    def test_dict_mutator_fires(self):
        src = "def f(client):\n    client._itabs.clear()\n"
        assert rules_of(run(src, module="repro.service.harness")) == [
            "wire-delta-state"
        ]

    def test_del_fires(self):
        src = "def f(link):\n    del link._delta_out\n"
        assert rules_of(run(src, module="repro.service.server")) == [
            "wire-delta-state"
        ]

    def test_lifecycle_sites_are_quiet(self):
        src = (
            "class PeerLink:\n"
            "    def _handshake(self):\n"
            "        self._delta_out = None\n"
        )
        assert run(src, module="repro.service.server") == []
        src = (
            "class KVClient:\n"
            "    def _negotiate(self, site, reply):\n"
            "        self._itabs[site] = reply\n"
        )
        assert run(src, module="repro.service.client") == []

    def test_reads_are_quiet(self):
        src = "def f(link):\n    return link._delta_out\n"
        assert run(src, module="repro.service.transport") == []

    def test_wire_module_is_exempt(self):
        src = "def f(conn):\n    conn._delta_out = None\n"
        assert run(src, module="repro.service.wire") == []

    def test_outside_service_is_quiet(self):
        src = "def f(x):\n    x._itab = None\n"
        assert run(src, module="repro.sim.site") == []

    def test_allowlisted_module_is_quiet(self):
        allow = [AllowEntry("wire-delta-state", "repro.service.debug", "repl aid")]
        src = "def f(x):\n    x._itab = None\n"
        assert run(src, module="repro.service.debug", allow=allow) == []


# ----------------------------------------------------------------------
# service layering (the DAG covers the new package)
# ----------------------------------------------------------------------
class TestServiceLayering:
    def test_service_may_import_workload(self):
        out = run("from repro.workload.ycsb import ycsb\n", module="repro.service.loadgen")
        assert out == []

    def test_sim_importing_service_fires(self):
        out = run("from repro.service.wire import WIRE_VERSION\n", module="repro.sim.site")
        assert rules_of(out) == ["import-layering"]

    def test_core_importing_service_fires(self):
        out = run("import repro.service.server\n", module="repro.core.base")
        assert rules_of(out) == ["import-layering"]


# ----------------------------------------------------------------------
# await-atomicity (CFG + dataflow over repro.service async functions)
# ----------------------------------------------------------------------
class TestAwaitAtomicity:
    MODULE = "repro.service.example"

    # -- seeded mutants of real PR-5/6/7 code shapes --------------------
    def test_torn_ack_bookkeeping_fires(self):
        # PR-6 shape: ack watermark captured before the coalesced flush,
        # written back after — acks arriving during the send are lost
        src = (
            "class PeerLink:\n"
            "    async def flush(self, conn):\n"
            "        batch = list(self._repl)\n"
            "        acked = self._acked\n"
            "        await conn.send_many(batch)\n"
            "        self._acked = acked + len(batch)\n"
        )
        out = run(src, module=self.MODULE)
        assert rules_of(out) == ["await-atomicity"]
        assert "_acked" in out[0].message

    def test_torn_delta_baseline_fires(self):
        # PR-7 shape: delta chain baseline advanced only after the send
        # completes — a reconnect resetting the chain mid-send is lost
        src = (
            "class DeltaLink:\n"
            "    async def send_update(self, conn, msg):\n"
            "        base = self._delta_base\n"
            "        frame = delta_encode(base, msg)\n"
            "        await conn.send(frame)\n"
            "        self._delta_base = msg\n"
        )
        out = run(src, module=self.MODULE)
        assert rules_of(out) == ["await-atomicity"]
        assert "_delta_base" in out[0].message

    def test_torn_dedup_state_fires(self):
        # PR-5/6 shape: per-sender dedup watermark read before an await,
        # advanced after — a concurrently handled duplicate passes the
        # check and applies twice
        src = (
            "class Site:\n"
            "    async def handle(self, conn, frame):\n"
            "        seen = self._seen_ls.get(frame['src'], 0)\n"
            "        if frame['ls'] <= seen:\n"
            "            return\n"
            "        await self.apply_remote(frame)\n"
            "        self._seen_ls[frame['src']] = frame['ls']\n"
        )
        out = run(src, module=self.MODULE)
        assert rules_of(out) == ["await-atomicity"]
        assert "_seen_ls" in out[0].message

    # -- quiet shapes ---------------------------------------------------
    def test_fused_counter_is_quiet(self):
        # augmented assignment is an atomic read+write on the event loop
        src = (
            "class S:\n"
            "    async def wait(self):\n"
            "        self._waiting += 1\n"
            "        try:\n"
            "            await self.cond()\n"
            "        finally:\n"
            "            self._waiting -= 1\n"
        )
        assert run(src, module=self.MODULE) == []

    def test_reread_after_await_is_quiet(self):
        # the sanctioned lock-free fix: re-check shared state after the
        # suspension before writing
        src = (
            "class Pool:\n"
            "    async def connect(self, site):\n"
            "        conn = self._conns.get(site)\n"
            "        if conn is None:\n"
            "            conn = await self.dial(site)\n"
            "            if self._conns.get(site) is None:\n"
            "                self._conns[site] = conn\n"
            "        return conn\n"
        )
        assert run(src, module=self.MODULE) == []

    def test_held_lock_is_quiet(self):
        src = (
            "class S:\n"
            "    async def bump(self):\n"
            "        async with self._lock:\n"
            "            n = self._n\n"
            "            await self.persist(n)\n"
            "            self._n = n + 1\n"
        )
        assert run(src, module=self.MODULE) == []

    def test_read_outside_lock_still_fires(self):
        # the lock only vouches for what happens under it: a value read
        # before acquiring and written inside is still torn
        src = (
            "class S:\n"
            "    async def bump(self):\n"
            "        n = self._n\n"
            "        async with self._lock:\n"
            "            await self.persist(n)\n"
            "            self._n = n + 1\n"
        )
        out = run(src, module=self.MODULE)
        assert rules_of(out) == ["await-atomicity"]

    def test_atomic_marker_is_quiet(self):
        src = (
            "class S:\n"
            "    async def flush(self, conn):  # lint: "
            "atomic — single flusher task, prefix popped was captured before the send\n"
            "        n = len(self._fetch)\n"
            "        await conn.send_many(list(self._fetch))\n"
            "        for _ in range(n):\n"
            "            self._fetch.popleft()\n"
        )
        assert run(src, module=self.MODULE) == []

    def test_reasonless_atomic_marker_is_a_finding(self):
        src = (
            "class S:\n"
            "    async def flush(self, conn):  # lint: " "atomic\n"
            "        n = self._n\n"
            "        await self.persist(n)\n"
            "        self._n = n + 1\n"
        )
        out = run(src, module=self.MODULE)
        assert "await-atomicity" in rules_of(out)
        assert any("mandatory reason" in f.message for f in out)

    def test_out_of_scope_module_is_quiet(self):
        src = (
            "class S:\n"
            "    async def f(self):\n"
            "        n = self._n\n"
            "        await g()\n"
            "        self._n = n + 1\n"
        )
        assert run(src, module="repro.sim.engine") == []

    def test_loop_carried_hazard_fires(self):
        # read before the loop, suspension and write inside: the second
        # iteration writes a value derived from a pre-await read
        src = (
            "class S:\n"
            "    async def drain(self):\n"
            "        n = self._pending\n"
            "        for i in range(n):\n"
            "            await self.step()\n"
            "            self._pending = n - i\n"
        )
        out = run(src, module=self.MODULE)
        assert rules_of(out) == ["await-atomicity"]


# ----------------------------------------------------------------------
# --strict-allow: dead suppressions and allowlist entries
# ----------------------------------------------------------------------
class TestStrictAllow:
    def test_unused_inline_suppression_flagged(self):
        src = "x = 1  # lint: " "allow(entropy-source) — stale excuse\n"
        out = lint_source(
            src, ALL_RULES, module="repro.sim.engine", path="t.py", strict=True
        )
        assert rules_of(out) == ["unused-suppression"]

    def test_used_inline_suppression_not_flagged(self):
        src = "import random  # lint: " "allow(entropy-source) — fixture\n"
        out = lint_source(
            src, ALL_RULES, module="repro.sim.engine", path="t.py", strict=True
        )
        assert out == []

    def test_unused_suppression_of_unselected_rule_ignored(self):
        # a split lint run must not judge suppressions it cannot see fire
        src = "import random  # lint: " "allow(entropy-source) — fixture\n"
        rules = [RULES_BY_NAME["bare-except"]]
        out = lint_source(
            src, rules, module="repro.sim.engine", path="t.py", strict=True
        )
        assert out == []

    def test_unused_allow_entry_flagged(self, tmp_path):
        allowfile = tmp_path / ".lint-allow"
        allowfile.write_text(
            "entropy-source: repro.core.clean  # stale excuse\n"
        )
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("x = 1\n")
        out = lint_paths(
            [pkg], ALL_RULES, allowlist=allowfile, strict=True
        )
        assert rules_of(out) == ["unused-allow"]
        assert out[0].line == 1
        assert out[0].path == str(allowfile)

    def test_used_allow_entry_not_flagged(self, tmp_path):
        allowfile = tmp_path / ".lint-allow"
        allowfile.write_text(
            "entropy-source: repro.core.dirty  # bench needs wall clock\n"
        )
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import random\n")
        out = lint_paths([pkg], ALL_RULES, allowlist=allowfile, strict=True)
        assert out == []

    def test_entry_for_unvisited_module_not_judged(self, tmp_path):
        # the entry governs a module outside this run's paths: silence
        allowfile = tmp_path / ".lint-allow"
        allowfile.write_text(
            "entropy-source: repro.core.elsewhere  # governs another run\n"
        )
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("x = 1\n")
        out = lint_paths([pkg], ALL_RULES, allowlist=allowfile, strict=True)
        assert out == []

    def test_non_strict_run_ignores_dead_entries(self, tmp_path):
        allowfile = tmp_path / ".lint-allow"
        allowfile.write_text("entropy-source: repro.core.clean  # stale\n")
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("x = 1\n")
        assert lint_paths([pkg], ALL_RULES, allowlist=allowfile) == []


# ----------------------------------------------------------------------
# suppressions and allowlist machinery
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_reasoned_suppression_silences(self):
        # split so the scan of THIS file's raw lines does not adopt the
        # fixture's suppression as its own
        src = "import random  # lint: " "allow(entropy-source) — fixture needs it\n"
        assert run(src, module="repro.sim.engine") == []

    def test_reasonless_suppression_is_its_own_finding(self):
        # split so the scan of THIS file's raw lines cannot match the
        # intentionally malformed marker inside the fixture string
        src = "import random  # lint: " "allow(entropy-source)\n"
        out = run(src, module="repro.sim.engine")
        assert sorted(rules_of(out)) == ["entropy-source", "suppression-format"]

    def test_suppression_is_rule_specific(self):
        src = "import random  # lint: allow(bare-except) — wrong rule\n"
        out = run(src, module="repro.sim.engine")
        assert rules_of(out) == ["entropy-source"]

    def test_colon_and_hyphen_separators_accepted(self):
        for sep in (":", "-", "—"):
            parsed = parse_suppressions(
                "x = 1  # lint: " f"allow(foo) {sep} why\n"
            )
            assert parsed.allows(1, "foo"), sep

    def test_parse_collects_malformed(self):
        parsed = parse_suppressions("x = 1  # lint: " "allow(foo)\n")
        assert parsed.malformed == [(1, "foo")]


class TestAllowlistFile:
    def test_parse_ok(self, tmp_path):
        f = tmp_path / ".lint-allow"
        f.write_text(
            "# comment\n\n"
            "import-layering: repro.a -> repro.b  # because\n"
        )
        entries = parse_allowlist(f)
        assert entries == [
            AllowEntry("import-layering", "repro.a -> repro.b", "because", line=3)
        ]

    def test_missing_reason_rejected(self, tmp_path):
        f = tmp_path / ".lint-allow"
        f.write_text("import-layering: repro.a -> repro.b\n")
        with pytest.raises(ConfigurationError, match="reason"):
            parse_allowlist(f)

    def test_malformed_line_rejected(self, tmp_path):
        f = tmp_path / ".lint-allow"
        f.write_text("not an entry at all\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_allowlist(f)


class TestModuleNames:
    def test_src_anchor(self):
        assert module_name_for(Path("src/repro/sim/site.py")) == "repro.sim.site"

    def test_package_init(self):
        assert module_name_for(Path("src/repro/core/__init__.py")) == "repro.core"

    def test_repro_anchor_without_src(self):
        assert module_name_for(Path("repro/core/log.py")) == "repro.core.log"


# ----------------------------------------------------------------------
# the repository itself, and the CLI
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_src_repro_lints_clean(self):
        findings = lint_paths(
            [REPO_ROOT / "src" / "repro"],
            ALL_RULES,
            allowlist=REPO_ROOT / ".lint-allow",
        )
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_every_rule_is_exercised_by_fixtures(self):
        # the catalog and this test file must not drift apart
        assert set(RULES_BY_NAME) == {
            "import-layering",
            "cow-discipline",
            "unordered-iteration",
            "entropy-source",
            "mutable-default",
            "bare-except",
            "hook-shadow",
            "adhoc-logging",
            "blocking-io",
            "durability-io",
            "wire-codec",
            "wire-delta-state",
            "metric-naming",
            "await-atomicity",
        }


class TestCli:
    def test_clean_repo_exits_zero(self, capsys):
        rc = lint_main([str(REPO_ROOT / "src" / "repro")])
        assert rc == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        rc = lint_main([str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "entropy-source" in captured.out
        assert "1 finding" in captured.err

    def test_json_output(self, tmp_path, capsys):
        import json as json_mod

        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\n")
        rc = lint_main([str(bad), "--json"])
        captured = capsys.readouterr()
        assert rc == 1
        payload = json_mod.loads(captured.out)
        assert payload == [
            {
                "rule": "entropy-source",
                "path": str(bad),
                "line": 1,
                "message": payload[0]["message"],
                "reason": RULES_BY_NAME["entropy-source"].summary,
            }
        ]
        assert "entropy" in payload[0]["message"]

    def test_json_clean_is_empty_array(self, tmp_path, capsys):
        ok = tmp_path / "src" / "repro" / "core" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("x = 1\n")
        rc = lint_main([str(ok), "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip() == "[]"

    def test_strict_allow_flag(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1  # lint: " "allow(bare-except) — stale\n")
        assert lint_main([str(pkg)]) == 0
        rc = lint_main([str(pkg), "--strict-allow"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unused-suppression" in captured.out

    def test_select_unknown_rule_exits_two(self, capsys):
        rc = lint_main(["--select", "no-such-rule", "."])
        assert rc == 2

    def test_select_runs_only_chosen_rule(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\ntry:\n    pass\nexcept:\n    pass\n")
        rc = lint_main(["--select", "bare-except", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "bare-except" in captured.out
        assert "entropy-source" not in captured.out

    def test_list_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        captured = capsys.readouterr()
        assert rc == 0
        for rule in ALL_RULES:
            assert rule.name in captured.out

    def test_malformed_allowlist_exits_two(self, tmp_path, capsys):
        allow = tmp_path / ".lint-allow"
        allow.write_text("entropy-source: repro.x\n")  # no reason
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        (target / "ok.py").write_text("x = 1\n")
        rc = lint_main([str(target), "--allowlist", str(allow)])
        assert rc == 2
        assert "reason" in capsys.readouterr().err
