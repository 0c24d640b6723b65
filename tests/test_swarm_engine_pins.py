"""Swarm sweep-engine pins: one engine, bit for bit.

``sim/swarm.py`` has one sweep engine (open loop = no policy).
``tests/golden/swarm_engine.json`` pins what it produces for four
committed scenarios scaled to 300 receivers: the ``completed`` vector
and ``overhead`` / ``received`` / ``completion_slot`` (as
``float.hex()``, so the comparison is bit for bit) for the open loop,
``workers=2`` and the closed loop under a default
:class:`~repro.protocol.adaptive.AdaptivePolicy`.  The pins were
recorded when the engine became exact per slot (every receiver's own
channel over the server's real schedule); the moment-matched count
model before it pinned other numbers.

The property that makes "one engine" checkable: a policy that never
chases a deficit (``SCHEDULE_GAIN`` set to 0.0) deals every sweep
proportionally, so it must equal the open loop array for array on
every committed scenario.  And the closed loop reads the policy's
schedule lever only: a stub that exposes nothing but ``block_shares``
reproduces the pinned closed-loop arrays.

Regenerate (only for an intended change of the structural model)
with::

    PYTHONPATH=src python tests/test_swarm_engine_pins.py
"""

from __future__ import annotations

import functools
import json
import pathlib

import numpy as np
import pytest

from repro.protocol import AdaptivePolicy, adaptive
from repro.sim.swarm import SwarmResult, SwarmSimulator, load_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "swarm_engine.json"
SCENARIOS_DIR = pathlib.Path(__file__).parent.parent / "examples" / "scenarios"

_PINNED = ("flash_crowd", "layered_tiers", "raptor_traces",
           "satellite_longhaul")
_RECEIVERS = 300
_MODES = ("open", "workers2", "closed")
_ARRAYS = ("overhead", "received", "completion_slot")


def _scenario(name: str):
    return load_scenario(SCENARIOS_DIR / f"{name}.json").scaled(_RECEIVERS)


@functools.lru_cache(maxsize=None)
def _run(name: str, mode: str) -> SwarmResult:
    """One run, shared between the pins and the property (read-only)."""
    kwargs = {"open": {}, "workers2": {"workers": 2},
              "closed": {"policy": AdaptivePolicy()}}
    return SwarmSimulator(_scenario(name)).run(**kwargs[mode])


def _pin(result: SwarmResult) -> dict:
    """A run's per-receiver outcome, floats spelled exactly."""
    pin = {key: [float(v).hex() for v in getattr(result, key)]
           for key in _ARRAYS}
    pin["completed"] = [int(v) for v in result.completed]
    return pin


def engine_pin(name: str, mode: str) -> dict:
    return _pin(_run(name, mode))


def all_pins() -> dict:
    return {name: {mode: engine_pin(name, mode) for mode in _MODES}
            for name in _PINNED}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_run_is_pinned(golden):
    assert sorted(golden) == sorted(_PINNED)
    for name in _PINNED:
        assert sorted(golden[name]) == sorted(_MODES)
        assert len(golden[name]["open"]["completed"]) == _RECEIVERS


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("name", _PINNED)
def test_engine_matches_golden(golden, name, mode):
    assert engine_pin(name, mode) == golden[name][mode]


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SCENARIOS_DIR.glob("*.json")))
def test_zero_gain_policy_is_the_open_loop(monkeypatch, name):
    monkeypatch.setattr(adaptive, "SCHEDULE_GAIN", 0.0)
    opened = _run(name, "open")
    closed = SwarmSimulator(_scenario(name)).run(policy=AdaptivePolicy())
    assert opened.completed.any()
    np.testing.assert_array_equal(closed.completed, opened.completed)
    for key in _ARRAYS:
        np.testing.assert_array_equal(getattr(closed, key),
                                      getattr(opened, key), err_msg=key)


class _SharesOnly:
    """A policy with the schedule lever and nothing else."""

    __slots__ = ("_policy",)

    def __init__(self):
        self._policy = AdaptivePolicy()

    def block_shares(self, deficits, block_ks):
        return self._policy.block_shares(deficits, block_ks)


@pytest.mark.parametrize("name", _PINNED)
def test_closed_loop_reads_only_block_shares(golden, name):
    result = SwarmSimulator(_scenario(name)).run(policy=_SharesOnly())
    assert _pin(result) == golden[name]["closed"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
