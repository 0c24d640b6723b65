"""Golden trajectories: the codecs against the retired reference paths.

The codec stack once ran every hot kernel two ways, and the scalar
one-packet-at-a-time paths were the oracle for the vectorized ones.
``tests/golden/reference_trajectories.json`` is the last recording of
that oracle: every registry family driven through fixed seed and loss
realisations — encoded packet bytes, decode success or failure, the
exact packet at which the decoder completes, the recovered bytes — plus
full block-segmented transfers, Raptor intermediates and the GF(2)
finisher's attempt counts, all produced by the scalar paths.  The
shipped codecs must reproduce every one of them: the bytes on the wire
are the contract.  Every case runs on both decode routes
(``tests/_routes.py``): the batched one tier-1 inputs choose, and the
per-row one the scalar paths always took.

The file was generated once, at the last commit that still had the
scalar paths, by running this module as a script under them.  Do not
regenerate it from the current tree: it would only record the code
under test.
"""

import json
import sys

import pytest

from repro.sim.transfer import simulate_transfer

from tests._oracles import (
    REFERENCE_GOLDEN,
    make_source,
    raptor_encode_pair,
    reference_golden,
    roundtrip_key,
    run_roundtrip,
    sha256,
)
from tests._routes import DECODE_ROUTES, decode_route

#: (spec, k) pairs covering every registered family, its parameter
#: variants, and small/odd k values.
FAMILY_CASES = [
    ("tornado-a", 3),
    ("tornado-a", 32),
    ("tornado-a", 129),
    ("tornado-b", 3),
    ("tornado-b", 32),
    ("tornado-b", 129),
    ("lt", 2),
    ("lt", 32),
    ("lt", 100),
    ("lt:c=0.05,delta=0.5", 48),
    ("raptor", 2),
    ("raptor", 32),
    ("raptor", 100),
    ("raptor:eps=0.1,c=0.05,delta=0.5", 48),
    ("rs", 2),
    ("rs", 16),
    ("rs", 60),
    ("rs:construction=vandermonde", 16),
    ("interleaved", 16),
    ("interleaved", 40),
]

#: payload widths that do not fill a uint64 lane (and width 1).
ODD_PAYLOAD_SIZES = [1, 7, 13, 61]
ODD_CASES = [("tornado-b", 32), ("tornado-a", 32), ("lt", 32),
             ("raptor", 32), ("rs", 16), ("interleaved", 16)]

#: survivors of a 95 % loss cannot decode.
HEAVY_LOSS_CASES = [("tornado-b", 16), ("lt", 16)]

TRANSFER_FAMILIES = ["tornado-b", "lt", "rs"]
TRANSFER_GEOMETRIES = {
    # odd packet size with a partial tail block *and* a padded tail packet
    "tail-block": (37 * 16 * 2 + 19, 37, 16),
    # object smaller than one packet: single block, k=1, zero padding
    "sub-packet": (11, 37, 16),
}

RAPTOR_PLAN_CASES = [
    ("defaults", 1, {}),
    ("defaults", 2, {}),
    ("defaults", 32, {}),
    ("defaults", 100, {}),
    ("defaults", 128, {}),
    ("weakened", 48, {"eps": 0.1, "c": 0.05, "delta": 0.5}),
]
RAPTOR_PLAN_SEEDS = [0, 7, 23]


@pytest.fixture(scope="module")
def golden():
    return reference_golden()


def _check_roundtrip(golden, spec, k, payload_size, seed, **kwargs):
    run = run_roundtrip(spec, k, payload_size, seed, **kwargs)
    key = roundtrip_key(spec, k, payload_size, seed, **kwargs)
    assert run.digest() == golden["roundtrips"][key], key
    if run.complete:
        assert run.recovered == make_source(k, payload_size, seed).tobytes()
    return run


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("spec,k", FAMILY_CASES,
                         ids=[f"{s}-k{k}" for s, k in FAMILY_CASES])
def test_roundtrip_matches_reference(golden, route, spec, k, seed):
    _check_roundtrip(golden, spec, k, 32, seed)


@pytest.mark.parametrize("payload_size", ODD_PAYLOAD_SIZES)
@pytest.mark.parametrize("spec,k", ODD_CASES,
                         ids=[spec for spec, _ in ODD_CASES])
def test_odd_payload_sizes(golden, route, spec, k, payload_size):
    _check_roundtrip(golden, spec, k, payload_size, 3)


@pytest.mark.parametrize("spec,k", HEAVY_LOSS_CASES)
def test_heavy_loss_failure_matches_reference(golden, route, spec, k):
    run = _check_roundtrip(golden, spec, k, 16, 1, loss=0.95, emissions=k)
    assert not run.complete
    assert run.recovered is None


def test_wire_bytes_match_reference(golden, route):
    """Spot check straight from the docs: one spec's whole encoding."""
    _check_roundtrip(golden, "tornado-b", 64, 24, 9)


def _transfer_fingerprint(family, file_size, packet_size, block_packets):
    result = simulate_transfer(file_size=file_size, packet_size=packet_size,
                               block_packets=block_packets, family=family,
                               loss=0.2, seed=5)
    assert result.verified
    return [result.packets_sent, result.stats.total_received,
            result.stats.distinct_received, result.stats.source_packets,
            result.num_blocks]


@pytest.mark.parametrize("family", TRANSFER_FAMILIES)
@pytest.mark.parametrize("geometry", sorted(TRANSFER_GEOMETRIES))
def test_transfer_pipeline_matches_reference(golden, route, family,
                                            geometry):
    """Full pipeline (block plan, striping, lossy channel)."""
    assert _transfer_fingerprint(family, *TRANSFER_GEOMETRIES[geometry]) \
        == golden["transfers"][f"{family} {geometry}"]


# -- raptor solve-plan encode path --------------------------------------------
#
# The cached-plan fast path must emit exactly the bytes the per-block
# pre-solve produces (see tests._oracles.raptor_encode_pair), and those
# must be the intermediates the reference paths produced.


@pytest.mark.parametrize("seed", RAPTOR_PLAN_SEEDS)
@pytest.mark.parametrize(
    "label,k,params", RAPTOR_PLAN_CASES,
    ids=[f"{label}-k{k}" for label, k, _ in RAPTOR_PLAN_CASES])
def test_raptor_plan_matches_presolve(golden, route, label, k, params,
                                      seed):
    fast, slow = raptor_encode_pair(k, payload_size=32, seed=seed, **params)
    assert fast == slow
    assert sha256(fast) == golden["raptor_plans"][f"{label} k={k} P=32 "
                                                  f"seed={seed}"]


@pytest.mark.parametrize("payload_size", ODD_PAYLOAD_SIZES)
def test_raptor_plan_odd_payload_sizes(golden, route, payload_size):
    fast, slow = raptor_encode_pair(32, payload_size=payload_size, seed=3)
    assert fast == slow
    assert sha256(fast) == golden["raptor_plans"][
        f"defaults k=32 P={payload_size} seed=3"]


@pytest.mark.parametrize("seed", [0, 1])
def test_raptor_plan_routes_byte_identical(seed):
    """Off the recorded cases (k = 64, a width of 17): the pre-solve
    reaches the same intermediate bytes on both decode routes, and the
    plan replay reaches them too."""
    runs = []
    for name in DECODE_ROUTES:
        with decode_route(name):
            runs.append(raptor_encode_pair(64, payload_size=17, seed=seed))
    (fast, slow), (_, per_row_slow) = runs
    assert fast == slow == per_row_slow


def record_reference_trajectories() -> dict:
    """Every case above (and the batched-intake and finisher cases of
    ``tests/test_batched_ingest.py`` / ``tests/test_peeling.py``), run
    on the current tree."""
    from tests.test_batched_ingest import BATCH_CASES
    from tests.test_peeling import STORAGES, _decode_one_at_a_time

    cases = [(spec, k, 32, seed, {}) for spec, k in FAMILY_CASES
             for seed in (0, 7)]
    cases += [(spec, k, size, 3, {}) for spec, k in ODD_CASES
              for size in ODD_PAYLOAD_SIZES]
    cases += [(spec, k, 16, 1, {"loss": 0.95, "emissions": k})
              for spec, k in HEAVY_LOSS_CASES]
    cases += [("tornado-b", 64, 24, 9, {})]
    cases += [(spec, k, 24, seed, {}) for spec, k in BATCH_CASES
              for seed in (1, 12)]
    roundtrips = {
        roundtrip_key(spec, k, size, seed, **kw):
            run_roundtrip(spec, k, size, seed, **kw).digest()
        for spec, k, size, seed, kw in cases}
    transfers = {f"{family} {name}": _transfer_fingerprint(family, *geometry)
                 for family in TRANSFER_FAMILIES
                 for name, geometry in TRANSFER_GEOMETRIES.items()}
    plans = {f"{label} k={k} P=32 seed={seed}":
             sha256(raptor_encode_pair(k, 32, seed, **params)[1])
             for label, k, params in RAPTOR_PLAN_CASES
             for seed in RAPTOR_PLAN_SEEDS}
    plans.update({f"defaults k=32 P={size} seed=3":
                  sha256(raptor_encode_pair(32, size, 3)[1])
                  for size in ODD_PAYLOAD_SIZES})
    finisher = {}
    for storage in sorted(STORAGES):
        for seed in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                decoder, fed, _ = _decode_one_at_a_time(storage, seed, patch)
            finisher[f"{storage} seed={seed}"] = [fed,
                                                  decoder.inactivation_runs]
    return {"roundtrips": roundtrips, "transfers": transfers,
            "raptor_plans": plans, "finisher": finisher}


if __name__ == "__main__":
    if REFERENCE_GOLDEN.exists():
        sys.exit(f"{REFERENCE_GOLDEN} is the reference recording; "
                 "see the module docstring")
    REFERENCE_GOLDEN.write_text(json.dumps(
        record_reference_trajectories(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_GOLDEN}")
