# Convenience targets for the vids reproduction.

PYTHON ?= python

.PHONY: install lint speclint size sim-ident sim-tables setup-split test chaos bench bench-e2e-quick bench-all bench-full figures examples serve-demo clean

install:
	pip install -e . --no-build-isolation

# Repo-wide static analysis gate: ruff + mypy when installed, with an
# offline AST-based fallback otherwise (see tools/lint.py).  Then the
# proof that the package is standard-library only: -S hides site-packages,
# so a third-party runtime import fails.  Checkpoint coverage is checked by
# restoring checkpoints, not by reading source: the restore tier of
# tests/integration/test_tier_parity.py (docs/ROBUSTNESS.md).
lint:
	$(PYTHON) tools/lint.py
	PYTHONPATH=src $(PYTHON) -S -c "import repro, repro.live, repro.cli"

# Static verification of the EFSM specifications (docs/SPECCHECK.md), the
# shipped config and the cross_protocol=False ablation.  --strict: a
# WARNING fails too, so a guard group that cannot be decided (an ordering
# against a non-numeric constant, or a substring test) does not pass.
speclint:
	PYTHONPATH=src $(PYTHON) -m repro.cli speclint --strict --min-severity warning
	PYTHONPATH=src $(PYTHON) -m repro.cli speclint --strict --min-severity warning --no-cross-protocol

# The size measure ROADMAP.md uses: wc lines of the Python files under
# src/repro, tests/ and tools/.
size:
	@for dir in src/repro tests tools; do \
	  printf '%-10s %6d\n' $$dir $$(find $$dir -name '*.py' -exec cat {} + | wc -l); \
	done

# The simulator's output, pinned: packet count, pcap sha256 and
# events_processed of four seeded recipes (tools/sim_ident.py).  The tier
# harness replays whatever capture the simulator made, so a change to
# netsim/, sip/, rtp/, telephony/ or attacks/ shows here and nowhere else.
# The pin holds on Python 3.11: string hashing differs across versions.
sim-ident:
	$(PYTHON) tools/sim_ident.py | diff tools/sim_ident.expected -

# The seed-3 Figure 8-10, §7.3 and §7.5 tables, written to tables.out.  They
# have no wall-clock column, so a change that keeps the simulated traffic
# keeps the file byte for byte: run this in the parent's tree and in the
# change's, and diff the two files (~1-2 min each).
sim-tables:
	PYTHONHASHSEED=0 PYTHONPATH=src:benchmarks $(PYTHON) -m pytest -q -s \
	  -p no:cacheprovider --benchmark-disable \
	  benchmarks/test_fig8_workload.py benchmarks/test_fig9_call_setup_delay.py \
	  benchmarks/test_fig10_rtp_qos.py benchmarks/test_sec73_*.py \
	  benchmarks/test_sec75_*.py > tables.out

# mixed_attack's set-up split into imports / capture / write_pcap / warm-up,
# in raw seconds, with host µs per simulated event (tools/setup_split.py;
# other workloads: python tools/setup_split.py rtp_steady 7).
setup-split:
	$(PYTHON) tools/setup_split.py mixed_attack 1

test:
	$(PYTHON) -m pytest tests/

test-out:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Heavy fault-injection sweeps (see docs/ROBUSTNESS.md); excluded from
# `make test` via the pytest addopts marker filter.
chaos:
	$(PYTHON) -m pytest tests/ -m chaos

# The wire-to-alert benchmark declared in BENCHMARK.json: five workloads,
# six end-to-end metrics and a per-layer span ledger (docs/PERFORMANCE.md,
# benchmarks/e2e/README.md).  The hard rate floors (KEEP_UP_THRESHOLDS,
# SUPERVISED_OVERHEAD_FLOOR) are asserted by `make bench-all` and by the
# CI bench-smoke job.
bench:
	$(PYTHON) benchmarks/e2e/run.py

# Smoke run of the wire-to-alert benchmark (benchmarks/e2e/README.md): a
# tenth-size traced and untraced pass of all five workloads with every
# verdict checked, then the benchmark's own tests.  Catches a refactor
# that breaks one of the entry points the benchmark shims from outside.
bench-e2e-quick:
	$(PYTHON) benchmarks/e2e/run.py --quick
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/e2e/tests

# Every benchmark in benchmarks/ (paper tables, figures, capacity tests).
bench-all:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-out:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) examples/generate_figures.py figures 1800

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/efsm_modeling.py
	$(PYTHON) examples/forensic_replay.py
	$(PYTHON) examples/qos_impact_study.py 600
	$(PYTHON) examples/enterprise_attack_detection.py
	$(PYTHON) examples/live_demo.py

# Self-contained live front-end demo: bind loopback sockets, blast an
# INVITE flood over real UDP, watch the IDS catch it (docs/DEPLOYMENT.md).
serve-demo:
	PYTHONPATH=src $(PYTHON) examples/live_demo.py

clean:
	rm -rf .pytest_cache .hypothesis figures test_output.txt bench_output.txt tables.out
	find . -name __pycache__ -type d -exec rm -rf {} +
