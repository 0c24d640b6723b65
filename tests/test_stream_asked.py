"""The striped stream is asked, not re-derived.

``TransferServer`` is the one place that knows what emission ``t``
carries; everything else draws ``draw_ids(n)``.  Two layers hold that:

* **parity** — for every registered family, both schedules, single- and
  multi-block plans, at a packet width of whole uint64 lanes and at a
  ragged one, the ids of a structural server's ``draw_ids`` are the ids
  ``packets()`` stamps and the header columns ``record_window`` writes,
  and each packet's bytes are its row of a twin's ``record_window``;
  and any interleaving of ``draw_ids``,
  ``packets()``, ``record_window``, ``unwind``, ``reweight`` and
  ``reset`` on one server continues the stream a per-packet sender
  would have sent, serials included.
* **pins** — ``tests/golden/sim_transfer.json`` holds the counters
  ``simulate_transfer`` returned, and the overheads ``replay_receivers``
  returned on three committed scenarios, at the commit *before* the two
  harnesses stopped re-deriving the emission order by hand.  The replay
  pins of ``flash_crowd`` (joiners) and ``layered_tiers`` (rate tiers)
  were re-recorded once, when a receiver's channel came to start at its
  join slot and rate thinning became a channel of its own;
  ``raptor_traces`` (neither) stayed byte-identical.  They are
  compared exactly.  Regenerate (only for an intended change of what is
  sent or how it is counted) with::

      PYTHONPATH=src python tests/test_stream_asked.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.registry import available_codes
from repro.errors import ParameterError
from repro.fountain.packets import record_ids
from repro.sim.swarm import Scenario, replay_receivers
from repro.sim.transfer import simulate_transfer
from repro.transfer import BlockPlan, ObjectCodec, TransferServer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sim_transfer.json"
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent \
    / "examples" / "scenarios"

FAMILIES = [family.name for family in available_codes()]
SCHEDULES = ["interleave", "sequential"]

_PACKET = 64
#: label -> (file_size, block_packets): one 40-packet block, and 100
#: packets striped over four blocks with a short tail.
_GEOMETRIES = {"single": (40 * _PACKET - 5, 64),
               "multi": (100 * _PACKET - 11, 32)}
_LOSSES = (0.0, 0.1, 0.35)
_SEED = 20261001

_REPLAYED = ("flash_crowd", "raptor_traces", "layered_tiers")
_RECEIVERS = list(range(0, 36, 5))


# -- pins ----------------------------------------------------------------------


def _sim_case(family, schedule, loss, payloads, geometry):
    file_size, block_packets = _GEOMETRIES[geometry]
    run = simulate_transfer(file_size, packet_size=_PACKET,
                            block_packets=block_packets, family=family,
                            schedule=schedule, loss=loss, seed=_SEED,
                            payloads=payloads)
    return [run.packets_sent, run.stats.total_received,
            run.stats.distinct_received, run.verified]


def _sim_cases():
    return [(family, schedule, loss, payloads, geometry)
            for family in FAMILIES for schedule in SCHEDULES
            for loss in _LOSSES for payloads in (True, False)
            for geometry in _GEOMETRIES]


def _sim_key(family, schedule, loss, payloads, geometry):
    mode = "payload" if payloads else "structural"
    return f"{family}|{schedule}|{loss}|{mode}|{geometry}"


def _replay_case(name):
    scenario = Scenario.load(SCENARIOS / f"{name}.json")
    overhead, completed = replay_receivers(scenario, _RECEIVERS)
    return {"overhead": [None if np.isnan(value) else float(value)
                         for value in overhead],
            "completed": completed.tolist()}


def all_pins() -> dict:
    return {
        "simulate_transfer": {_sim_key(*case): _sim_case(*case)
                              for case in _sim_cases()},
        "replay_receivers": {name: _replay_case(name)
                             for name in _REPLAYED},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestPins:
    def test_every_configuration_is_pinned(self, golden):
        assert sorted(golden["simulate_transfer"]) == sorted(
            _sim_key(*case) for case in _sim_cases())
        assert sorted(golden["replay_receivers"]) == sorted(_REPLAYED)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_simulate_transfer_counters(self, golden, family, schedule):
        for case in _sim_cases():
            if case[:2] == (family, schedule):
                assert (_sim_case(*case)
                        == golden["simulate_transfer"][_sim_key(*case)]), case

    def test_structural_mode_counts_what_payload_mode_counts(self, golden):
        pins = golden["simulate_transfer"]
        for case in _sim_cases():
            family, schedule, loss, payloads, geometry = case
            if payloads:
                twin = _sim_key(family, schedule, loss, False, geometry)
                assert pins[_sim_key(*case)][:3] == pins[twin][:3], case

    @pytest.mark.parametrize("name", _REPLAYED)
    def test_replay_receivers_overheads(self, golden, name):
        assert _replay_case(name) == golden["replay_receivers"][name]


# -- parity --------------------------------------------------------------------


def _data(size: int) -> bytes:
    return np.random.default_rng(_SEED).integers(
        0, 256, size=size, dtype=np.uint8).tobytes()


def _codec(family: str, geometry: str, packet: int = _PACKET) -> ObjectCodec:
    """The plan of ``geometry`` at ``packet`` bytes a packet: the same
    packet counts and the same short tail."""
    file_size, block_packets = _GEOMETRIES[geometry]
    packets = -(-file_size // _PACKET)
    file_size -= packets * (_PACKET - packet)
    return ObjectCodec(BlockPlan(file_size, packet, block_packets),
                       code=family, seed=_SEED)


#: whole uint64 lanes (the XOR kernels' lane view) and a ragged width
#: (their byte route).
_WIDTHS = {"lanes": _PACKET, "ragged": _PACKET - 3}


class TestStructuralParity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("geometry", list(_GEOMETRIES))
    @pytest.mark.parametrize("width", sorted(_WIDTHS))
    def test_window_ids_are_the_stamped_ids(self, family, schedule, geometry,
                                            width):
        packet = _WIDTHS[width]
        codec = _codec(family, geometry, packet)
        data = _data(codec.plan.file_size)
        count = 3 * codec.total_k + 7       # every carousel wraps
        options = dict(schedule=schedule, seed=5)
        blocks, indices, serials = TransferServer(
            codec, **options).draw_ids(count)
        assert serials.tolist() == list(range(count))
        ids = list(zip(blocks.tolist(), indices.tolist()))
        packets = list(TransferServer(codec, data, **options).packets(count))
        assert ids == [(p.block, p.index) for p in packets]

        full = TransferServer(codec, data, **options)
        records = full.record_window(count)
        stamped = record_ids(records, records.shape[1] - packet)
        assert [ids.tolist() for ids in stamped] \
            == [blocks.tolist(), indices.tolist(), list(range(count))]
        assert records.shape[1] - packet \
            == (16 if codec.num_blocks > 1 else 12)
        # a packet is a record of one: the same bytes as the window's row
        assert [p.to_bytes() for p in packets] \
            == [row.tobytes() for row in records]
        # ... and a server holding data stamps the same rows from its ids
        full.reset()
        again = full.draw_ids(count)
        assert again[1].tolist() == indices.tolist()
        rows = full.records(*again)[:, -packet:]
        assert rows.tobytes() == records[:, -packet:].tobytes()

    def test_structural_server_emits_no_payload_packets(self):
        for family in ("lt", "tornado-b"):
            server = TransferServer(_codec(family, "multi"))
            twin = TransferServer(_codec(family, "multi"))
            # neither refusal moves the stream: a packet is a row of a
            # record window, refused before the first packet
            for refuse in (lambda: server.record_window(3),
                           lambda: next(server.packets(3))):
                with pytest.raises(ParameterError, match="structural"):
                    refuse()
                assert (server.draw_ids(9)[1].tolist()
                        == twin.draw_ids(9)[1].tolist())


_WEIGHTS = st.one_of(
    st.none(),
    st.lists(st.sampled_from([0.2, 0.5, 1.0, 3.0]), min_size=4, max_size=4))
_DRAW = st.tuples(st.sampled_from(["draw_ids", "records"]),
                  st.integers(0, 70), st.integers(0, 70),
                  st.integers(0, 70))
_OPS = st.lists(st.one_of(
    _DRAW,
    st.tuples(st.just("packets"), st.integers(0, 40)),
    st.tuples(st.just("reweight"), _WEIGHTS),
    st.tuples(st.just("reset"))), min_size=1, max_size=12)


class TestInterleavedDraws:
    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(FAMILIES),
           schedule=st.sampled_from(SCHEDULES), ops=_OPS)
    def test_any_interleaving_continues_the_stream(self, family, schedule,
                                                   ops):
        """``twin`` is the per-packet sender: it emits only what was kept
        and is reweighted / reset at the same emissions.  ``bare`` holds
        no data and sees every draw as a ``draw_ids``."""
        codec = _codec(family, "multi")
        data = _data(codec.plan.file_size)
        live = TransferServer(codec, data, schedule=schedule, seed=9)
        twin = TransferServer(codec, data, schedule=schedule, seed=9)
        bare = TransferServer(codec, schedule=schedule, seed=9)
        for op, *args in ops:
            if op == "reset":
                for server in (live, twin, bare):
                    server.reset()
            elif op == "reweight":
                for server in (live, twin, bare):
                    server.reweight(args[0])
            elif op == "packets":
                got = [p.to_bytes() for p in live.packets(args[0])]
                assert got == [p.to_bytes() for p in twin.packets(args[0])]
                bare.draw_ids(args[0])
            else:
                count, first, second = args
                first = min(first, count)
                second = min(second, count - first)
                kept = count - first - second
                want = list(twin.packets(kept))
                ids = [(p.block, p.index) for p in want]
                if op == "records":
                    rows = live.record_window(count)[:kept]
                    assert ([row.tobytes() for row in rows]
                            == [p.to_bytes() for p in want])
                else:
                    blocks, indices, serials = live.draw_ids(count)
                    assert list(zip(blocks[:kept].tolist(),
                                    indices[:kept].tolist())) == ids
                    payloads = live.records(blocks, indices, serials)[
                        :, codec.header_size:]
                    assert ([row.tobytes() for row in payloads[:kept]]
                            == [p.payload.tobytes() for p in want])
                blocks, indices, serials = bare.draw_ids(count)
                assert serials[:kept].tolist() == [p.serial for p in want]
                assert list(zip(blocks[:kept].tolist(),
                                indices[:kept].tolist())) == ids
                # the tail is taken back in two steps: unwinds add up
                for server in (live, bare):
                    server.unwind(first)
                    server.unwind(second)
                if op == "draw_ids":
                    # an ids-only draw takes its serials too: emission t
                    # carries serial t however it is drawn, so the next
                    # emission carries the twin's next serial
                    assert (next(live.packets(1)).serial
                            == next(twin.packets(1)).serial)
                    bare.draw_ids(1)
        tail = [p.to_bytes() for p in twin.packets(50)]
        assert [p.to_bytes() for p in live.packets(50)] == tail
        blocks, indices, _ = bare.draw_ids(50)
        assert (list(zip(blocks.tolist(), indices.tolist()))
                == [(int.from_bytes(r[12:16], "big"),
                     int.from_bytes(r[0:4], "big")) for r in tail])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
