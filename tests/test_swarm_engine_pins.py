"""Swarm sweep-engine pins: one engine, the parent's answers.

``sim/swarm.py`` used to keep an open-loop and a closed-loop sweep
engine side by side; they are one function now (open loop = no
policy).  ``tests/golden/swarm_engine.json`` pins what both produced at
the commit *before* the merge: for four committed scenarios scaled to
300 receivers, the ``completed`` vector and ``overhead`` / ``received``
/ ``completion_slot`` (as ``float.hex()``, so the comparison is bit for
bit) for the open loop, ``workers=2`` and the closed loop under a
default :class:`~repro.protocol.adaptive.AdaptivePolicy`.

The property that makes "one engine" checkable: a policy that never
chases a deficit (``schedule_gain=0.0``) deals every sweep
proportionally, so it must equal the open loop array for array on
every committed scenario.

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

from repro.protocol import AdaptivePolicy
from repro.sim.swarm import SwarmResult, SwarmSimulator, load_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "swarm_engine.json"
SCENARIOS_DIR = pathlib.Path(__file__).parent.parent / "examples" / "scenarios"

_PINNED = ("flash_crowd", "layered_tiers", "raptor_traces",
           "satellite_longhaul")
_RECEIVERS = 300
_MODES = ("open", "workers2", "closed")
_ARRAYS = ("overhead", "received", "completion_slot")


@functools.lru_cache(maxsize=None)
def _run(name: str, mode: str) -> SwarmResult:
    """One run, shared between the pins and the property (read-only)."""
    scenario = load_scenario(SCENARIOS_DIR / f"{name}.json").scaled(_RECEIVERS)
    kwargs = {"open": {}, "workers2": {"workers": 2},
              "closed": {"policy": AdaptivePolicy()},
              "zero-gain": {"policy": AdaptivePolicy(schedule_gain=0.0)}}
    return SwarmSimulator(scenario).run(**kwargs[mode])


def engine_pin(name: str, mode: str) -> dict:
    """One run's per-receiver outcome, floats spelled exactly."""
    result = _run(name, mode)
    pin = {key: [float(v).hex() for v in getattr(result, key)]
           for key in _ARRAYS}
    pin["completed"] = [int(v) for v in result.completed]
    return pin


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
def test_zero_gain_policy_is_the_open_loop(name):
    opened = _run(name, "open")
    closed = _run(name, "zero-gain")
    assert opened.completed.any()
    np.testing.assert_array_equal(closed.completed, opened.completed)
    for key in _ARRAYS:
        np.testing.assert_array_equal(getattr(closed, key),
                                      getattr(opened, key), err_msg=key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
