"""One receiver over one decoder contract, held to the receiver it replaced.

No receiver keeps an id set of its own: the decoder validates and dedups
ids, counts the distinct ones and bounds how many more are needed, and
every receiver feeds it through :func:`~repro.codes.registry.feed`.
Two suites pin that:

* **Contract** — every registered family's ``incremental_decoder`` is an
  :class:`~repro.codes.registry.IncrementalDecoder` whose ``add_packet``
  returns True exactly on an id's first sighting and whose counters mean
  the same thing everywhere (wire-distinct ``packets_added``,
  ``duplicates_seen``, a ``min_additional_packets`` never below
  ``k - packets_added``).
* **Parity** — against ``tests/_oracles.py::SeenSetFountainClient``, the
  single-block client as it stood with its own ``_seen`` dict:
  hypothesis-drawn arrival streams of every awkward kind, every family,
  payload / structural, one packet per call and batched feeding, both
  decode routes (``tests/_routes.py``), for a decoder fed through
  ``feed`` (incremental, and the statistical ``SetDecoder`` schedule)
  and for a one-block :class:`~repro.transfer.client.TransferClient`;
  the reception counters agree after *every* call and the recovered
  bytes are identical.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes.registry import (
    IncrementalDecoder,
    SetDecoder,
    available_codes,
    build_code,
    feed,
    incremental_decoder,
)
from repro.errors import ParameterError
from repro.transfer import BlockPlan, ObjectCodec, TransferClient

from tests._oracles import ClientMode, SeenSetFountainClient, make_source
from tests._routes import DECODE_ROUTES, decode_route

FAMILIES = [family.name for family in available_codes()]

_K = 24
_PAYLOAD = 16


@functools.lru_cache(maxsize=None)
def _code(family: str):
    return build_code(family, _K, seed=11)


@functools.lru_cache(maxsize=None)
def _encoding(family: str) -> np.ndarray:
    """Payloads of ids ``0 .. pool``: the whole fixed-rate encoding, or
    the first ``3k`` droplets of a rateless stream."""
    return _encode(_code(family))


def _encode(code) -> np.ndarray:
    source = make_source(_K, _PAYLOAD, seed=5)
    if code.n is None:
        return code.encode(source, 3 * _K)
    return code.encode(source)


#: arrival kinds; each maps (pool size, rng) to an id stream that keeps
#: going well past completion.
def _wraparound(pool, rng):
    """A lossy carousel cycled four times: repeats arrive a cycle apart."""
    stream = np.tile(rng.permutation(pool), 4)
    return stream[rng.random(stream.size) >= 0.3]


def _mirrored(pool, rng):
    """Every id delivered three times back to back (mirrored servers)."""
    return np.repeat(rng.permutation(pool), 3)


def _in_batch_duplicates(pool, rng):
    """Ids drawn with replacement: duplicates land inside one batch."""
    return rng.integers(0, pool, size=8 * pool)


def _after_completion(pool, rng):
    """Every id once — completes well before the end — then repeats."""
    return np.concatenate([rng.permutation(pool), rng.permutation(pool)])


KINDS = {"wraparound": _wraparound, "mirrored": _mirrored,
         "in-batch-duplicates": _in_batch_duplicates,
         "after-completion": _after_completion}


def _counters(decoder):
    """A decoder's reception counters, in the oracle's terms."""
    return (decoder.packets_added + decoder.duplicates_seen,
            decoder.packets_added, decoder.is_complete,
            decoder.min_additional_packets)


def _oracle_counters(oracle):
    return (oracle.total_received, oracle.distinct_received,
            oracle.is_complete, oracle.min_additional)


def _feed(receive, ids, payloads, feeding):
    """Yield after every ``receive(ids, rows)`` call: one packet a call
    for ``feeding == 1``, chunks otherwise (``None`` = the whole
    stream)."""
    step = ids.size if feeding is None else feeding
    for pos in range(0, ids.size, step):
        receive(ids[pos:pos + step],
                None if payloads is None else payloads[pos:pos + step])
        yield


@pytest.mark.parametrize("route", DECODE_ROUTES)
@pytest.mark.parametrize("feeding", [1, 3, 32, None])
@pytest.mark.parametrize("payload", ["payload", "structural"])
@pytest.mark.parametrize("family", FAMILIES)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_feed_matches_the_seen_set_oracle(family, payload, feeding,
                                          route, kind, seed):
    code = _code(family)
    encoding = _encoding(family)
    ids = KINDS[kind](encoding.shape[0], np.random.default_rng(seed))
    payloads = None if payload == "structural" else encoding[ids]
    size = _PAYLOAD if payload == "payload" else None
    with decode_route(route):
        decoder = incremental_decoder(code, payload_size=size)
        # The oracle's client-side payload retention never worked over
        # a structural Raptor decoder (its held-row release indexes a
        # payload bank it does not have): size that one oracle.
        oracle = SeenSetFountainClient(
            code, payload_size=_PAYLOAD if family == "raptor"
            and payloads is not None else size)
        for _ in zip(_feed(functools.partial(feed, decoder), ids, payloads,
                           feeding),
                     _feed(oracle.receive_many, ids, payloads, feeding)):
            assert _counters(decoder) == _oracle_counters(oracle)
        assert decoder.is_complete
        if payloads is not None:
            assert decoder.source_data().tobytes() \
                == oracle.source_data().tobytes()
            assert decoder.source_data().tobytes() \
                == make_source(_K, _PAYLOAD, seed=5).tobytes()


@pytest.mark.parametrize("feeding", [1, 3, 32, None])
@pytest.mark.parametrize("payload", ["payload", "structural"])
@pytest.mark.parametrize("family", FAMILIES)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_block_transfer_client_matches_the_oracle(family, payload,
                                                      feeding, kind, seed):
    """A single-block stream is a one-block transfer: the transfer
    client's block counters are the oracle's after every call, and its
    object is the oracle's bytes."""
    codec = ObjectCodec(BlockPlan(_K * _PAYLOAD, _PAYLOAD, _K), code=family,
                        seed=11)
    code = codec.code_for(0)
    encoding = _encode(code)
    ids = KINDS[kind](encoding.shape[0], np.random.default_rng(seed))
    payloads = None if payload == "structural" else encoding[ids]
    size = _PAYLOAD if payload == "payload" else None
    client = TransferClient(codec, payload_size=size)
    oracle = SeenSetFountainClient(
        code, payload_size=_PAYLOAD if family == "raptor"
        and payloads is not None else size)
    for _ in zip(_feed(functools.partial(client.receive_many, 0), ids,
                       payloads, feeding),
                 _feed(oracle.receive_many, ids, payloads, feeding)):
        stats = client.block_stats(0)
        assert (stats.total_received, stats.distinct_received,
                client.is_complete, client.min_additional) \
            == _oracle_counters(oracle)
    assert client.is_complete
    assert client.block_stats(0) == oracle.stats()
    if payloads is not None:
        assert client.object_data() == oracle.source_data().tobytes()


@pytest.mark.parametrize("feeding", [1, 3, 32, None])
@pytest.mark.parametrize("family", FAMILIES)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2 ** 16),
       margin=st.sampled_from([0.0, 0.05, 0.3]),
       retry_step=st.integers(1, 9))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_statistical_schedule_matches_the_oracle(family, feeding, kind,
                                                 seed, margin, retry_step):
    """The §7.2 statistical protocol is a ``SetDecoder`` attempt
    schedule: same attempts at the same distinct counts, so the same
    completing packet.  (The oracle never batched statistical reception
    and its deficit bound ignores the schedule, so ``min_additional``
    is not compared.)"""
    code = _code(family)
    encoding = _encoding(family)
    ids = KINDS[kind](encoding.shape[0], np.random.default_rng(seed))
    decoder = SetDecoder(code, payload_size=_PAYLOAD,
                         first_attempt=math.ceil((1 + margin) * code.k),
                         retry_step=retry_step)
    oracle = SeenSetFountainClient(
        code, mode=ClientMode.STATISTICAL, statistical_margin=margin,
        retry_step=retry_step, payload_size=_PAYLOAD)
    for _ in zip(_feed(functools.partial(feed, decoder), ids,
                       encoding[ids], feeding),
                 _feed(oracle.receive_many, ids, encoding[ids], feeding)):
        assert _counters(decoder)[:3] == _oracle_counters(oracle)[:3]
        assert decoder.decode_attempts == oracle.decode_attempts
    assert decoder.is_complete
    assert decoder.source_data().tobytes() == oracle.source_data().tobytes()


# -- the contract ----------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_decoder_satisfies_the_protocol(family):
    decoder = incremental_decoder(_code(family))
    assert isinstance(decoder, IncrementalDecoder)
    assert decoder.packets_added == decoder.duplicates_seen == 0
    assert decoder.min_additional_packets == _K
    assert not decoder.is_complete


@pytest.mark.parametrize("route", DECODE_ROUTES)
@pytest.mark.parametrize("family", FAMILIES)
@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_add_packet_returns_true_exactly_on_first_sighting(family, route,
                                                           seed):
    code = _code(family)
    pool = 3 * _K if code.n is None else code.n
    ids = np.random.default_rng(seed).integers(0, pool, size=4 * pool)
    seen = set()
    with decode_route(route):
        scalar = incremental_decoder(code)
        batched = incremental_decoder(code)
        for pos, index in enumerate(ids.tolist()):
            assert scalar.add_packet(index) == (index not in seen)
            seen.add(index)
            assert scalar.packets_added == len(seen)
            assert scalar.duplicates_seen == pos + 1 - len(seen)
            if not scalar.is_complete:
                assert scalar.min_additional_packets >= max(
                    1, _K - len(seen))
        assert scalar.is_complete and scalar.min_additional_packets == 0
        assert batched.add_packets(ids) == len(seen)
        assert batched.packets_added == len(seen)
        assert batched.duplicates_seen == ids.size - len(seen)


def test_tornado_recovered_node_still_counts_as_distinct():
    """A first-time packet for a node peeling already recovered is a
    distinct reception — the reason receivers used to keep a second id
    set above this decoder."""
    code = _code("tornado-a")
    decoder = code.new_decoder()
    order = np.random.default_rng(3).permutation(code.n)
    recovered = np.empty(0, dtype=np.int64)
    for fed, index in enumerate(order.tolist(), start=1):
        decoder.add_packet(index)
        recovered = np.setdiff1d(np.nonzero(decoder.known)[0], order[:fed])
        if recovered.size:
            break
    assert recovered.size, "peeling never recovered an unreceived node"
    before = (decoder.packets_added, decoder.duplicates_seen,
              decoder.source_known_count)
    assert decoder.add_packet(int(recovered[0])) is True
    assert decoder.packets_added == before[0] + 1
    assert decoder.duplicates_seen == before[1]
    assert decoder.source_known_count == before[2]
    assert decoder.add_packet(int(recovered[0])) is False
    assert decoder.duplicates_seen == before[1] + 1
    if recovered.size > 1:  # and through the batch path
        assert decoder.add_packets(recovered[1:]) == recovered.size - 1
        assert decoder.duplicates_seen == before[1] + 1


@pytest.mark.parametrize("family",
                         [f.name for f in available_codes() if not f.rateless])
def test_index_outside_the_encoding_raises_and_counts_nothing(family):
    """The typed API keeps raising for a caller's own bad argument."""
    code = _code(family)
    decoder = incremental_decoder(code)
    for bad in (code.n, -1):
        with pytest.raises(ParameterError):
            feed(decoder, (bad,))
    assert _counters(decoder) == (0, 0, False, _K)
