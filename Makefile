# Developer entry points. Everything runs with src/ on PYTHONPATH; no
# install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test fuzz coverage test-udp bench-smoke bench-transfer \
	bench-ingest bench-raptor bench-adaptive bench-swarm \
	bench-gate bench-e2e bench-e2e-quick bench-memory \
	swarm-smoke docs-check typecheck all

all: test docs-check typecheck

# Tier-1: the full test suite (the bar every change must clear).
test:
	$(PYTHON) -m pytest -x -q

# The property tests on fresh random examples (tests/conftest.py: the
# `fuzz` hypothesis profile; tier-1 above runs the derandomized one).
# Not a gate: what it finds is replayed from .hypothesis/ and enters
# the suite as an @example line on the test that failed.
fuzz:
	$(PYTHON) -m pytest -q --hypothesis-profile=fuzz tests

# Line coverage of the codec core (src/repro/codes + src/repro/gf) over
# one tier-1 run.  Skips gracefully when pytest-cov is not installed (CI
# installs it and runs this for real).
coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q --cov=repro.codes --cov=repro.gf \
			--cov-report=term-missing:skip-covered ; \
	else \
		echo "pytest-cov not installed; skipping coverage" \
			"(pip install pytest-cov)"; \
	fi

# Just the transport layer (framing, pacing, memory/file/UDP delivery,
# and the spoofed-datagram loopback test: one hostile record is an
# erasure, not the end of a fetch) plus the windowed UDP serve held to
# its per-packet oracle, and again with the UDP offloads on and off
# (tests/test_udp_offload.py), plus the closed loop over the sender's
# reply port: feedback reports, the stop on a complete report, and
# stray datagrams counted, not fatal (TestUdpAdaptive), plus the UDP
# serve's report counts: dropped records are emitted x destinations -
# delivered, the oracle's own tally, and packets_used the records a
# receiver took (tests/test_report_counts.py::test_udp_serve_counts).
# Binds real loopback sockets; skips gracefully where unavailable.
test-udp:
	$(PYTHON) -m pytest -q tests/test_transport.py \
		tests/test_windowed_serve.py::TestUdpServe \
		tests/test_udp_offload.py \
		tests/test_adaptive.py::TestUdpAdaptive \
		tests/test_report_counts.py::test_udp_serve_counts

# One pass over the five benchmark modules, each of which publishes
# rows of a committed BENCH_*.json that bench-gate reads:
# bench_transfer_blocks, bench_decode_ingest, bench_raptor_encode,
# bench_adaptive and bench_swarm.  (The paper's tables and figures are
# checked in tier-1 by tests/test_paper_claims.py; UDP delivery is
# measured by bench-e2e below.)
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

# Just the transfer-subsystem sweep: block sizes x code families,
# reporting reception overhead and end-to-end goodput.
bench-transfer:
	$(PYTHON) -m pytest -q benchmarks/bench_transfer_blocks.py

# Decode-ingest rates: droplets/sec and decode MB/s per batch size,
# including the gated batched_ingest_vs_xor headline (decode MB/s over
# one plain XOR pass's MB/s on the same block; its floor is asserted in
# the bench itself and checked by bench-gate).
bench-ingest:
	$(PYTHON) -m pytest -q benchmarks/bench_decode_ingest.py

# Raptor encode fast path: solve-plan vs pre-solve speedup and cold
# geometry+plan build cost (publishes BENCH_raptor.json; byte-identity
# of the two encode paths is asserted in-bench).
bench-raptor:
	$(PYTHON) -m pytest -q benchmarks/bench_raptor_encode.py

# Closed-loop vs open-loop delivery on the Gilbert satellite population
# (regenerates BENCH_adaptive.json; the >=15% p99 win is asserted
# in-bench and cross-case locked by bench-gate).
bench-adaptive:
	$(PYTHON) -m pytest -q benchmarks/bench_adaptive.py

# Swarm scenario engine: receivers/sec + overhead percentiles at bench
# scale (publishes BENCH_swarm.json).
bench-swarm:
	$(PYTHON) -m pytest -q benchmarks/bench_swarm.py

# The perf-regression gate: compares the freshly produced BENCH_*.json
# at the repo root against the committed (HEAD) baselines with
# per-metric tolerances.  Run a bench target first.
bench-gate:
	$(PYTHON) tools/check_bench.py

# The end-to-end delivery benchmark BENCHMARK.json declares: four
# workloads (UDP, memory, file), every delivery verified byte for byte,
# each in its own interpreter (~20 s per workload; benchmarks/e2e/README.md
# defines the metrics).  The quick target runs three small repetitions
# per workload — a harness smoke test, not a measurement.
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-quick:
	python3 benchmarks/e2e/run.py --quick

# The memory gate for both ends: send_file at 10 % loss, extra=64, then
# receive_stream of what it wrote, for tornado-a, tornado-b, lt and
# raptor at 8 and 32 MiB, each run in a fresh interpreter.  Fails when a
# fixed-rate sender's peak RSS grows by more than stretch + 2 MB per
# object MB between the two sizes (the slope cancels the interpreter's
# baseline), or any receiver's by more than 5; rateless senders are
# reported, not gated.
bench-memory:
	$(PYTHON) tools/bench_memory.py

# Quick population-scale pass over committed scenarios: one scaled
# flash crowd with exact-replay validation, a cross-scenario comparison
# table, and one closed-loop run on a scenario whose schedule lever
# moves the tail (bursty_wireless at 2,000 receivers: p99 overhead
# 0.581 open loop, 0.514 closed), so a loop that stopped acting would
# show; its spot check replays the slots the closed loop dealt.
swarm-smoke:
	$(PYTHON) -m repro swarm run examples/scenarios/flash_crowd.json \
		--receivers 3000 --spot-check 8
	$(PYTHON) -m repro swarm compare \
		examples/scenarios/layered_tiers.json \
		examples/scenarios/midstream_joiners.json --receivers 2000
	$(PYTHON) -m repro swarm run examples/scenarios/bursty_wireless.json \
		--receivers 2000 --adaptive --spot-check 16

# Fails if any ```python block in the docs does not run as written, if
# the code, tests, tools or docs name a *.md file, or a .py path with a
# directory part, that does not exist, or if README's "Reproducing the
# paper" table is not the one repro.experiments.claims renders.
docs-check:
	$(PYTHON) tools/check_docs.py README.md docs/ARCHITECTURE.md

# mypy over the typed core: the registry protocols, the repro.api
# facade, the protocol layer, the receivers that feed the
# IncrementalDecoder Protocol (transfer/client.py,
# fountain/aggregate.py, protocol/receiver.py), the one sender (the
# record layout in fountain/packets.py, the one packet server in
# transfer/server.py) and
# the Raptor cold-start pair (the geometry build in raptor/precode.py,
# the weighted cache in raptor/cache.py) and the three native decoders
# behind the IncrementalDecoder contract (lt/decoder.py,
# raptor/decoder.py, tornado/decoder.py), the Tornado cap's decode
# (codes/reed_solomon.py over gf/matrix.py), and the one loss process
# and reception engine (net/loss.py, net/channel.py, sim/transfer.py)
# (config: mypy.ini).
# Skips gracefully when mypy is not installed (the library itself has
# no dependency on it); CI installs mypy and runs this for real.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/api.py src/repro/codes/registry.py \
			src/repro/protocol src/repro/transfer/client.py \
			src/repro/fountain/aggregate.py \
			src/repro/fountain/packets.py \
			src/repro/transfer/server.py \
			src/repro/codes/raptor/precode.py \
			src/repro/codes/raptor/cache.py \
			src/repro/codes/lt/decoder.py \
			src/repro/codes/raptor/decoder.py \
			src/repro/codes/tornado/decoder.py \
			src/repro/codes/reed_solomon.py \
			src/repro/gf/matrix.py \
			src/repro/net/channel.py src/repro/net/loss.py \
			src/repro/sim/transfer.py; \
	else \
		echo "mypy not installed; skipping typecheck (pip install mypy)"; \
	fi
