"""Swarm scenario engine: population-scale simulation throughput.

Runs scaled-down versions of three committed scenarios
(``examples/scenarios/``) through the
:class:`~repro.sim.swarm.SwarmSimulator` and publishes the numbers
that track the engine's perf trajectory to ``BENCH_swarm.json``:
simulated receivers per second, and the p50/p90/p99 reception overhead
the population pays (deterministic for a fixed scenario seed — these
rows are the regression-gate baseline for the swarm layer).

The full 100k-receiver flash crowd runs in the weekly CI job; here the
populations are scaled so one pass stays benchmark-smoke sized.
"""

import pathlib

import pytest

from _results import REPO_ROOT, BenchRecorder
from repro.sim.swarm import Scenario, SwarmSimulator

SCENARIOS = REPO_ROOT / "examples" / "scenarios"

RESULTS = BenchRecorder("BENCH_swarm.json", __name__)

#: (scenario file, receivers to scale to, exact replays to spot check,
#: agreement tolerance).  The engine and the replays cross the same
#: slots over the same channel draws, so the spot check measures the
#: decode-threshold pool alone.  The trace cases get a looser bar: an
#: LT receiver's thresholds come from trials thinned at the whole
#: population's rates, and the wildly heterogeneous per-trace loss
#: rates make that pool's spread, and small replay samples, noisy.
CASES = [
    ("flash_crowd.json", 20000, 8, 0.05),
    ("mobile_traces.json", 4000, 10, 0.08),
    # The Raptor leg: the identical trace population as mobile-traces,
    # code swapped for the precode+LT concatenation.  Its overhead_p99
    # must undercut the LT case's overhead_p90 (the constant-overhead
    # claim) — locked cross-case by tools/check_bench.py.
    ("raptor_traces.json", 4000, 10, 0.08),
]


@pytest.mark.parametrize("file_name,receivers,replays,tolerance",
                         CASES, ids=[c[0].split(".")[0] for c in CASES])
def test_swarm_scenario(benchmark, file_name, receivers, replays,
                        tolerance):
    """Simulate one committed scenario at bench scale."""
    scenario = Scenario.load(SCENARIOS / file_name).scaled(receivers)

    result = benchmark.pedantic(
        lambda: SwarmSimulator(scenario).run(spot_check=replays),
        rounds=1, iterations=1)
    summary = result.summary()
    assert summary["completion_rate"] == 1.0
    assert result.spot_check is not None \
        and result.spot_check.agrees(tolerance)
    benchmark.extra_info["receivers_per_second"] = round(
        summary["receivers_per_second"])
    benchmark.extra_info["overhead_p99"] = round(summary["overhead_p99"], 4)
    RESULTS.record(
        scenario.name,
        code=scenario.code,
        receivers=summary["receivers"],
        num_blocks=summary["num_blocks"],
        completion_rate=summary["completion_rate"],
        overhead_p50=round(summary["overhead_p50"], 4),
        overhead_p90=round(summary["overhead_p90"], 4),
        overhead_p99=round(summary["overhead_p99"], 4),
        receivers_per_second=round(summary["receivers_per_second"], 1),
        seconds=round(summary["elapsed_seconds"], 3),
    )
