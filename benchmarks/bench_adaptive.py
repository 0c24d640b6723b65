"""Closed-loop vs open-loop delivery on the satellite Gilbert scenario.

Runs the committed ``satellite_longhaul.json`` population (bench-scaled)
twice — once open loop, once with an
:class:`~repro.protocol.adaptive.AdaptivePolicy` driving the swarm
engine's closed loop — and publishes both tails to
``BENCH_adaptive.json``.  The committed claim, locked cross-case by
``tools/check_bench.py``: the adaptive p99 reception overhead undercuts
the open-loop p99 by at least 15%.

The code is swapped from the scenario's ``tornado-a`` to LT for these
rows: at ``block_packets=128`` tornado-a decodes at exactly ``k`` for
every permutation draw (it is effectively MDS), so there is no
laggard-block structure for the schedule lever to chase — the closed
loop can only tie.  LT's per-block decode thresholds are genuinely
heterogeneous (block-pool means spread ~129–143 at k=128), which is
precisely the population-wide straggler structure the deficit-driven
reallocation exists to exploit; the LT p99-vs-p50 gap is the bench's
motivation and its win channel.  Per-sweep slot budgets are identical
between the two runs, so the comparison is packet-for-packet fair.
"""

import dataclasses

from _results import REPO_ROOT, BenchRecorder
from repro.protocol.adaptive import AdaptivePolicy
from repro.sim.swarm import Scenario, SwarmSimulator

SCENARIOS = REPO_ROOT / "examples" / "scenarios"

RESULTS = BenchRecorder("BENCH_adaptive.json", __name__)

#: bench-scaled population (full scenario is 20k receivers).  The
#: scenario's threshold pool (32 trials/block) is kept as committed:
#: shrinking it thins the straggler tail the bench exists to measure
#: and erodes the p99 win below the gate.
RECEIVERS = 4000

#: the committed cross-case claim: adaptive p99 <= 0.85 * open p99.
P99_WIN = 0.85


def _gilbert_lt_scenario() -> Scenario:
    scenario = Scenario.load(
        SCENARIOS / "satellite_longhaul.json").scaled(RECEIVERS)
    return dataclasses.replace(scenario, code="lt:c=0.03,delta=0.5")


def test_adaptive_vs_open_loop(benchmark):
    """One Gilbert population, open loop vs the adaptive closed loop."""
    scenario = _gilbert_lt_scenario()
    open_loop = SwarmSimulator(scenario).run()
    closed = benchmark.pedantic(
        lambda: SwarmSimulator(scenario).run(policy=AdaptivePolicy()),
        rounds=1, iterations=1)

    open_summary = open_loop.summary()
    closed_summary = closed.summary()
    assert open_summary["completion_rate"] == 1.0
    assert closed_summary["completion_rate"] == 1.0
    # the committed claim, asserted here so a bench run fails fast and
    # the cross-case gate never sees a stale win:
    assert (closed_summary["overhead_p99"]
            <= P99_WIN * open_summary["overhead_p99"])
    benchmark.extra_info["overhead_p99_adaptive"] = round(
        closed_summary["overhead_p99"], 4)
    benchmark.extra_info["overhead_p99_open"] = round(
        open_summary["overhead_p99"], 4)

    for label, summary in (("adaptive", closed_summary),
                           ("openloop", open_summary)):
        RESULTS.record(
            f"{label}-gilbert",
            code=scenario.code,
            receivers=summary["receivers"],
            num_blocks=summary["num_blocks"],
            completion_rate=summary["completion_rate"],
            overhead_p50=round(summary["overhead_p50"], 4),
            overhead_p99=round(summary["overhead_p99"], 4),
            receivers_per_second=round(summary["receivers_per_second"], 1),
            seconds=round(summary["elapsed_seconds"], 3),
        )
