"""Raptor geometry pins: what the golden wire vectors cannot see.

``tests/golden/wire_vectors.json`` pins the first 8 records of a Raptor
stream, and those are systematic rows — source bytes verbatim.  A
systematic scan that chose different ESIs, or a solve plan that solved
different intermediates, would pass it and still break every
cross-version peer on the first repair droplet.

``tests/golden/raptor_geometry.json`` therefore pins, per ``(k, seed,
eps)`` spec, a digest of ``systematic_esis``, ``repair_base``, the
solve plan's ``wave_count`` / ``xor_terms`` and a digest over every
wave's ``(dst, indptr, src)``; and, for three of those specs, the bytes
of repair droplets ``k .. k+3`` of a fixed-seed source block.  All are
compared exactly; the repair bytes both through the recorded plan and
through the peeling pre-solve, on each decode route.

The committed file was generated at the commit *before* the systematic
scan went chunked and the plan recorder stopped walking bits — by the
per-ESI loop kept in ``tests/_oracles.py::scalar_systematic_scan``.
Regenerate (only for an intended change of the sender/receiver
agreement) with::

    PYTHONPATH=src python tests/test_raptor_geometry_pins.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.codes.raptor.encoder import RaptorEncoder, build_encode_plan
from repro.codes.raptor.precode import raptor_geometry
from repro.codes.registry import block_seed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "raptor_geometry.json"

_KS = (1, 2, 5, 17, 64, 100, 256, 1000)
_SEEDS = (0, 7, block_seed(20260917, 3))
_EPSES = (0.05, 0.2)

#: the specs whose repair droplets are pinned byte for byte.
_PAYLOAD_SPECS = ((17, 7, 0.05), (100, _SEEDS[2], 0.2), (256, 0, 0.05))
_PAYLOAD = 16
_SOURCE_SEED = 20260917
_REPAIRS = 4


def _key(k: int, seed: int, eps: float) -> str:
    return f"k={k},seed={seed},eps={eps}"


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return sha.hexdigest()


def geometry_pin(k: int, seed: int, eps: float) -> dict:
    """Everything both ends must agree on for one spec, digested."""
    geometry = raptor_geometry(k, eps=eps, seed=seed)
    plan = build_encode_plan(geometry)
    return {
        "systematic_esis": _digest(geometry.systematic_esis),
        "repair_base": geometry.repair_base,
        "wave_count": plan.wave_count,
        "xor_terms": plan.xor_terms,
        "waves": _digest(*(part for wave in plan.waves for part in wave)),
    }


def repair_pin(k: int, seed: int, eps: float, planned: bool = True) -> list:
    """Hex of repair droplets ``k .. k+3`` of the fixed source block,
    its intermediates from the recorded plan or (``planned=False``) the
    peeling pre-solve."""
    geometry = raptor_geometry(k, eps=eps, seed=seed)
    source = np.random.default_rng(_SOURCE_SEED).integers(
        0, 256, size=(k, _PAYLOAD), dtype=np.uint8)
    encoder = RaptorEncoder(geometry, source, plan=build_encode_plan(geometry)
                            if planned else None)
    block = encoder.payload_block(range(k, k + _REPAIRS))
    return [bytes(row).hex() for row in block]


def _specs():
    return [(k, seed, eps) for k in _KS for seed in _SEEDS for eps in _EPSES]


def all_pins() -> dict:
    return {
        "geometry": {_key(*spec): geometry_pin(*spec) for spec in _specs()},
        "repair_droplets": {_key(*spec): repair_pin(*spec)
                            for spec in _PAYLOAD_SPECS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_spec_is_pinned(golden):
    assert sorted(golden["geometry"]) == sorted(
        _key(*spec) for spec in _specs())
    assert sorted(golden["repair_droplets"]) == sorted(
        _key(*spec) for spec in _PAYLOAD_SPECS)


@pytest.mark.parametrize("k", _KS)
def test_geometry_and_plan_match_golden(golden, k):
    for seed in _SEEDS:
        for eps in _EPSES:
            assert (geometry_pin(k, seed, eps)
                    == golden["geometry"][_key(k, seed, eps)]), (seed, eps)


@pytest.mark.parametrize("spec", _PAYLOAD_SPECS, ids=lambda spec: _key(*spec))
def test_repair_droplets_match_golden(golden, spec):
    assert repair_pin(*spec) == golden["repair_droplets"][_key(*spec)]


@pytest.mark.parametrize("spec", _PAYLOAD_SPECS, ids=lambda spec: _key(*spec))
def test_presolved_repair_droplets_match_golden(golden, route, spec):
    assert (repair_pin(*spec, planned=False)
            == golden["repair_droplets"][_key(*spec)])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
