"""One canonical fire fixture and one quiet fixture per lint rule.

This registry is what keeps the rule catalog honest: the drift test
(``test_lint_catalog.py``) asserts that every rule in ``ALL_RULES`` has
an entry here (and a row in ``docs/static-analysis.md``), runs every
fire fixture expecting exactly that rule to report, and every quiet
fixture expecting silence.  A rule added without a registry entry — or
a registry entry for a rule that no longer exists — fails the suite.

The richer per-rule edge cases stay in ``test_lint.py``; these are the
minimal demonstrations, which doubles as a by-example catalog.
"""

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class RuleFixture:
    """The smallest source that fires the rule, and its clean twin."""

    module: str  #: dotted module name the sources are linted as
    fire: str
    quiet: str


FIXTURES: Dict[str, RuleFixture] = {
    "import-layering": RuleFixture(
        module="repro.core.base",
        fire="from repro.sim.cluster import Cluster\n",
        quiet="from repro.types import SiteId\n",
    ),
    "cow-discipline": RuleFixture(
        module="repro.core.example",
        fire="def f(msg):\n    msg.meta.log.purge(0)\n",
        quiet="def f(msg):\n    log = msg.meta.log.copy()\n    log.purge(0)\n",
    ),
    "unordered-iteration": RuleFixture(
        module="repro.sim.site",
        fire="for x in set(items):\n    pass\n",
        quiet="for x in sorted(set(items)):\n    pass\n",
    ),
    "entropy-source": RuleFixture(
        module="repro.sim.engine",
        fire="import random\n",
        quiet="import numpy as np\n",
    ),
    "mutable-default": RuleFixture(
        module="repro.core.example",
        fire="def f(a=[]):\n    pass\n",
        quiet="def f(a=None):\n    pass\n",
    ),
    "bare-except": RuleFixture(
        module="repro.core.example",
        fire="try:\n    pass\nexcept:\n    pass\n",
        quiet="try:\n    pass\nexcept ValueError:\n    pass\n",
    ),
    "hook-shadow": RuleFixture(
        module="repro.ext.custom",
        fire=(
            "class Broken(OptTrackProtocol):\n"
            "    def can_apply(self, msg):\n"
            "        return True\n"
        ),
        quiet=(
            "class Fine(OptTrackProtocol):\n"
            "    def can_apply(self, msg):\n"
            "        return True\n"
            "    def blocking_deps(self, msg):\n"
            "        return ()\n"
        ),
    ),
    "adhoc-logging": RuleFixture(
        module="repro.core.opt_track",
        fire="print('applied')\n",
        quiet="def report(obs):\n    obs.on_apply(0)\n",
    ),
    "blocking-io": RuleFixture(
        module="repro.service.server",
        fire="import time\nasync def f():\n    time.sleep(0.1)\n",
        quiet="import asyncio\nasync def f():\n    await asyncio.sleep(0.1)\n",
    ),
    "durability-io": RuleFixture(
        module="repro.service.server",
        fire=(
            "def persist(path, frame):\n"
            "    with open(path, 'wb') as f:\n"
            "        f.write(frame)\n"
        ),
        quiet=(
            "def persist(wal, frame):\n"
            "    wal.append(frame)\n"
        ),
    ),
    "wire-codec": RuleFixture(
        module="repro.service.transport",
        fire="def send(frame):\n    return json.dumps(frame)\n",
        quiet="def send(frame, codec):\n    return codec.encode(frame)\n",
    ),
    "wire-delta-state": RuleFixture(
        module="repro.service.transport",
        # a chained-scalar baseline inside a chain end is link state too
        fire="def f(link):\n    link._delta_out._last_ls = 0\n",
        quiet="def f(link):\n    return link._delta_out._last_ls\n",
    ),
    "metric-naming": RuleFixture(
        module="repro.service.server",
        fire=(
            "def f(metrics, site):\n"
            "    metrics.counter('applies', site=site).inc()\n"
        ),
        quiet=(
            "def f(metrics, site):\n"
            "    metrics.counter('service_applies_total', site=site).inc()\n"
        ),
    ),
    "await-atomicity": RuleFixture(
        module="repro.service.example",
        fire=(
            "class Link:\n"
            "    async def flush(self, conn):\n"
            "        base = self._delta_base\n"
            "        await conn.send(base)\n"
            "        self._delta_base = base + 1\n"
        ),
        quiet=(
            "class Link:\n"
            "    async def flush(self, conn):\n"
            "        base = self._delta_base\n"
            "        await conn.send(base)\n"
            "        base = self._delta_base\n"
            "        self._delta_base = base + 1\n"
        ),
    ),
}


def catalog_rows(doc_text: str) -> Tuple[str, ...]:
    """Rule names documented in the static-analysis catalog table."""
    rows = []
    for line in doc_text.splitlines():
        line = line.strip()
        if line.startswith("| `") and "` |" in line:
            rows.append(line[3 : line.index("`", 3)])
    return tuple(rows)
