"""Simulation harnesses behind the paper's evaluation figures.

* :mod:`repro.sim.overhead` — reception-overhead distributions (Figure 2)
  and threshold pools reused by the larger simulations.
* :mod:`repro.sim.receivers` — multi-receiver scaling (Figure 4) and
  file-size scaling (Figure 5).
* :mod:`repro.sim.tracesim` — trace-driven comparison (Figure 6).
* :mod:`repro.sim.speedup` — the Table 4 decoding-speedup derivation.
* :mod:`repro.sim.timemodel` — machine-local cost calibration for the
  timing tables.
* :mod:`repro.sim.transfer` — block-segmented file transfer under loss
  (interleaved vs. sequential cross-block schedules), and the one
  reception engine: packets received until decode, read off the
  sender's own slot window through each receiver's channel.
* :mod:`repro.sim.swarm` — declarative many-receiver swarm scenarios,
  run vectorized over the whole population (with exact-replay spot
  checks).
"""

from repro.sim.overhead import (
    ThresholdPool,
    sample_decode_thresholds,
    overhead_statistics,
    percent_unfinished_curve,
)
from repro.sim.receivers import (
    EfficiencyPool,
    build_fountain_pool,
    build_interleaved_pool,
    scaling_experiment,
)
from repro.sim.tracesim import trace_experiment
from repro.sim.speedup import max_blocks_within_overhead, speedup_table_entry
from repro.sim.timemodel import TimingModel
from repro.sim.transfer import (
    SlotWindow,
    TransferRunResult,
    compare_schedules,
    packets_until_decode,
    simulate_transfer,
)
from repro.sim.swarm import (
    LossSpec,
    ReceiverGroup,
    Scenario,
    SpotCheckResult,
    SwarmResult,
    SwarmSimulator,
    load_scenario,
    replay_receivers,
    run_scenario,
)

__all__ = [
    "ThresholdPool",
    "sample_decode_thresholds",
    "overhead_statistics",
    "percent_unfinished_curve",
    "EfficiencyPool",
    "build_fountain_pool",
    "build_interleaved_pool",
    "scaling_experiment",
    "trace_experiment",
    "max_blocks_within_overhead",
    "speedup_table_entry",
    "TimingModel",
    "SlotWindow",
    "packets_until_decode",
    "TransferRunResult",
    "simulate_transfer",
    "compare_schedules",
    "LossSpec",
    "ReceiverGroup",
    "Scenario",
    "SpotCheckResult",
    "SwarmResult",
    "SwarmSimulator",
    "load_scenario",
    "replay_receivers",
    "run_scenario",
]
