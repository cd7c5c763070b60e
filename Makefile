PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-cold test-fast lint typecheck check bench bench-fast sweep-bench table1 fig4 report trace-smoke serve-smoke interleave-smoke perf-smoke stats-smoke sanitize-sweep

test:
	$(PYTHON) -m pytest -x -q

# Tier-1 from an empty Hypothesis directory: CI's state, since
# .hypothesis/ is gitignored (no example database to replay, no
# unicode cache to lean on)
test-cold:
	@dir=$$(mktemp -d); \
	HYPOTHESIS_STORAGE_DIRECTORY=$$dir $(PYTHON) -m pytest -x -q; \
	status=$$?; rm -rf $$dir; exit $$status

test-fast:
	$(PYTHON) -m pytest -x -q tests/unit

# Protocol-aware static checks (import layering, DepLog copy-on-write
# discipline, determinism hazards, await-atomicity, protocol hook
# pairing); rule catalog in docs/static-analysis.md, repo-wide
# exceptions in .lint-allow.  Two invocations: the full catalog over the
# library, then the determinism rules over tests and benchmarks.  Both
# run --strict-allow, so dead suppressions and dead allowlist entries
# fail the build.
lint:
	$(PYTHON) -m repro.lint src/repro --strict-allow
	$(PYTHON) -m repro.lint tests benchmarks --select entropy-source,mutable-default,unordered-iteration --strict-allow

# mypy over the typed core (repro.core + repro.verify).  Gated on mypy
# being importable so offline checkouts without it still pass `make
# check`; CI always installs mypy, so the gate never hides errors there.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy --config-file pyproject.toml \
		|| echo "mypy not installed; skipping typecheck (CI runs it)"

# Tier-1 suite (includes the runner determinism properties in
# tests/property/test_sweep_parallel.py) plus the benchmark-harness
# smoke tests and the E11 remote-read ablation, which live outside
# pytest's testpaths
check: lint typecheck
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -x -q benchmarks/bench_sweep.py benchmarks/bench_hot_paths.py benchmarks/bench_ablation_strict_reads.py

# End-to-end tracing smoke: record a lifecycle trace under three
# protocols, replay each through the causal sanitizer oracle, render the
# timeline reports (examples/traced_run.py), then re-render one file via
# the CLI itself
trace-smoke:
	$(PYTHON) examples/traced_run.py --out .trace-smoke
	$(PYTHON) -m repro.cli trace .trace-smoke/opt-track.jsonl --replay --top 3

# Networked-service smoke: 3-site loopback cluster per protocol, YCSB
# burst with the causal sanitizer shadowing every apply/read, one site
# killed mid-run (reads must degrade to replicas with zero surfaced
# errors), clean shutdown.  Details in docs/service.md
serve-smoke:
	$(PYTHON) -m repro.service.cli smoke

# Observability smoke: in-process TCP cluster, sys.stats over real
# sockets, `repro-kv top --once --json`, a Prometheus scrape that must
# parse, and a chaos kill that must leave a flight-recorder dump
# `repro-sim trace` can render.  Details in docs/observability.md
# ("Live service observability")
stats-smoke:
	$(PYTHON) -m repro.service.cli stats-smoke

# Schedule-exploration smoke: sweep 50 seeded adversarial schedules
# (shuffled ready queue + preempting loopback) over a 3-site cluster
# with the causal sanitizer shadowing every apply.  The preempting
# connections sit on the one-pass wire and flip a seeded coin between
# the links' inline write-through and their writer task, so the sweep
# interleaves the paths that ship.  The runtime half of the
# await-atomicity static rule; details in docs/static-analysis.md
interleave-smoke:
	$(PYTHON) -m repro.verify.schedules --seeds 50

# Fixed-seed oracle sweep: every protocol x seeds 0..499 on a 3-site,
# 3-variable cluster, 15 ops/site (p = 1 for the partial-replication
# protocols), strict reads, with the causal sanitizer and the history
# checker on; stops at the first violation and names protocol and seed
# (~10 s).  Details in docs/verification.md
sanitize-sweep:
	$(PYTHON) -m repro.verify.sweep

# Smoke test of the repository benchmark (perf/, ~20 s; not collected
# by tier-1, whose testpaths is tests/).  Its traced run wraps every
# connection in perf's TracingTransport, which inherits the base-class
# "not writable()" — the peer links' writer-task fallback end to end.
# perf/out/ is made first: on a fresh checkout the first traced case
# writes its trace there before anything else creates it
perf-smoke:
	mkdir -p perf/out
	$(PYTHON) -m pytest perf -q

# Regenerate BENCH_hot_paths.json (reference runs + DepLog and VectorClock micro-ops +
# tracing overhead guardrails: fails if the no-op recorder adds > 0.1% of
# calls (NOOP_CALL_BUDGET) or the always-on flight ring adds > 10% of
# calls (FLIGHT_CALL_BUDGET) over the detached fast path)
bench:
	$(PYTHON) -m repro.cli bench --out BENCH_hot_paths.json

bench-fast:
	$(PYTHON) -m repro.cli bench --out BENCH_hot_paths.json --fast

# Regenerate BENCH_sweeps.json (serial vs --jobs fan-out vs warm cache)
sweep-bench:
	$(PYTHON) benchmarks/bench_sweep.py --out BENCH_sweeps.json

table1:
	$(PYTHON) -m repro.cli table1

fig4:
	$(PYTHON) -m repro.cli fig4

report:
	$(PYTHON) -m repro.cli report
