"""The shared peeling engine, driven directly with hand-built systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import peeling
from repro.codes.lt.decoder import LTDecoder
from repro.codes.peeling import PeelingEngine, record_solve_plan
from repro.codes.registry import build_code
from repro.errors import DecodeFailure, ParameterError

from tests._oracles import gf2_eliminate, gf2_oracle_solve, make_source, \
    pack_gf2_rows, reference_golden


def payload(*values):
    return np.asarray(values, dtype=np.uint8)


class TestDynamicEquations:
    def test_degree_one_equation_solves_directly(self):
        eng = PeelingEngine(3, payload_size=2)
        assert eng.add_equation([1], payload(7, 9))
        assert eng.known[1]
        assert np.array_equal(eng.values[1], payload(7, 9))

    def test_substitution_chain(self):
        # x0 = 5; x0 ^ x1 = 3  =>  x1 = 6; x1 ^ x2 = 1  =>  x2 = 7.
        eng = PeelingEngine(3, payload_size=1)
        eng.add_equation([1, 2], payload(1))
        eng.add_equation([0, 1], payload(3))
        assert not eng.is_complete
        eng.add_equation([0], payload(5))
        assert eng.is_complete
        assert np.array_equal(eng.values[:, 0], [5, 6, 7])

    def test_redundant_equation_reports_false(self):
        eng = PeelingEngine(2, payload_size=1)
        assert eng.add_equation([0], payload(1))
        assert eng.add_equation([1], payload(2))
        assert not eng.add_equation([0, 1], payload(3))

    def test_known_participants_fold_into_rhs(self):
        eng = PeelingEngine(2, payload_size=1)
        eng.add_equation([0], payload(0xF0))
        # x0 ^ x1 = 0xFF with x0 known => x1 = 0x0F immediately.
        eng.add_equation([0, 1], payload(0xFF))
        assert np.array_equal(eng.values[1], payload(0x0F))

    def test_structural_mode_tracks_completion_only(self):
        eng = PeelingEngine(2)
        eng.add_equation([0, 1])
        eng.add_equation([0])
        assert eng.is_complete
        with pytest.raises(ParameterError):
            eng.source_data()

    def test_participant_range_checked(self):
        eng = PeelingEngine(2)
        with pytest.raises(ParameterError):
            eng.add_equation([2])

    def test_source_data_before_completion_fails(self):
        eng = PeelingEngine(2, payload_size=1)
        eng.add_equation([0], payload(1))
        with pytest.raises(DecodeFailure):
            eng.source_data()
        assert list(eng.missing_source_indices()) == [1]


class TestInactivation:
    def test_stalled_cycle_needs_elimination(self):
        # x0^x1, x1^x2, x0^x2, x0^x1^x2: no equation ever has a single
        # unknown, yet the system has full rank over GF(2).
        values = np.asarray([[3], [5], [6]], dtype=np.uint8)

        def rhs(*nodes):
            return np.bitwise_xor.reduce(values[list(nodes)], axis=0)

        pure = PeelingEngine(3, payload_size=1, inactivation_limit=0)
        solver = PeelingEngine(3, payload_size=1, inactivation_limit=3)
        for eng in (pure, solver):
            eng.add_equation([0, 1], rhs(0, 1))
            eng.add_equation([1, 2], rhs(1, 2))
            eng.add_equation([0, 2], rhs(0, 2))
            eng.add_equation([0, 1, 2], rhs(0, 1, 2))
            eng.maybe_inactivate()
        assert not pure.is_complete
        assert solver.is_complete
        assert solver.inactivation_runs == 1
        assert np.array_equal(solver.values, values)

    def test_underdetermined_system_stays_incomplete(self):
        eng = PeelingEngine(3, payload_size=1, inactivation_limit=3)
        eng.add_equation([0, 1], payload(1))
        eng.add_equation([1, 2], payload(2))
        eng.maybe_inactivate()
        assert not eng.is_complete

    def test_failed_attempt_not_repeated_until_system_changes(self):
        eng = PeelingEngine(4, inactivation_limit=4)
        eng.add_equation([0, 1])
        eng.add_equation([1, 2])
        eng.add_equation([0, 2])
        eng.add_equation([0, 1, 2])
        eng.maybe_inactivate()
        runs = eng.inactivation_runs
        eng.maybe_inactivate()          # nothing changed -> no new attempt
        assert eng.inactivation_runs == runs
        eng.add_equation([3])           # progress -> retry allowed
        eng.maybe_inactivate()
        assert eng.is_complete


class TestStaticEquations:
    def test_static_system_peels_from_observations(self):
        # One check node c = x0 ^ x1 laid out as node 2; observing x0 and
        # c recovers x1 (the Tornado feeding pattern).
        eng = PeelingEngine(3, payload_size=1)
        nodes = np.asarray([0, 1, 2])
        eqs = np.asarray([0, 0, 0])
        eng.load_static_equations(1, nodes, eqs)
        eng.observe_nodes(np.asarray([0]), payload(3)[np.newaxis])
        eng.observe_nodes(np.asarray([2]), payload(6)[np.newaxis])
        assert np.array_equal(eng.values[1], payload(5))

    def test_static_install_rejected_after_feeding(self):
        eng = PeelingEngine(2)
        eng.add_equation([0])
        with pytest.raises(ParameterError):
            eng.load_static_equations(1, np.asarray([0, 1]),
                                      np.asarray([0, 0]))


class TestGaussJordan:
    def test_full_rank_solves(self):
        # x0^x1 = 1, x1 = 1  ->  x0 = 0, x1 = 1.
        mat = np.asarray([[0b11], [0b10]], dtype=np.uint64)
        rhs = np.asarray([[1], [1]], dtype=np.uint8)
        solved, rank = gf2_eliminate(mat, 2, rhs)
        assert solved is not None and rank == 2
        assert rhs[solved][0, 0] == 0 and rhs[solved][1, 0] == 1

    def test_rank_deficient_returns_none(self):
        mat = np.asarray([[0b11], [0b11]], dtype=np.uint64)
        assert gf2_eliminate(mat, 2, None) == (None, 1)


# -- one finisher, three equation storages -----------------------------------
#
# A stalled engine reaches the one structural factorization
# (``factor_gf2``) whatever holds its equations: packed bitmatrix rows
# (LT, Raptor), the static CSR (Tornado), or the dict adjacency used
# above ``_BITMATRIX_MAX_NODES``.  Each storage is measured against the
# completing packet and attempt count of the retired scalar finisher
# (bit-packed Gauss-Jordan, ``tests._oracles.gf2_eliminate``), recorded
# in ``tests/golden/reference_trajectories.json``.

#: storage -> (code spec, k, finisher capped below k?).
#: ``bitmatrix-lazy`` is the LT decoder as shipped (one elimination over
#: the whole accumulated system); the other LT rows cap the finisher
#: below ``k`` so that engine peels incrementally, like the scalar
#: finisher did, and attempt counts are comparable.  Tornado B needs
#: k >= 160 to have a cascade graph at all (below that it is one RS cap).
STORAGES = {
    "bitmatrix": ("lt", 48, True),
    "bitmatrix-lazy": ("lt", 48, False),
    "static-csr": ("tornado-b", 200, False),
    "dict": ("lt", 48, True),
}
_P = 16


@pytest.fixture
def factor_calls(monkeypatch):
    """Counts ``factor_gf2`` / ``fold_row`` calls made by the engine."""
    calls = {"factor": 0, "fold": 0}
    real_factor = peeling.factor_gf2
    real_fold = peeling.GF2Factorization.fold_row

    def counting_factor(*args, **kwargs):
        calls["factor"] += 1
        return real_factor(*args, **kwargs)

    def counting_fold(self, cols):
        calls["fold"] += 1
        return real_fold(self, cols)

    monkeypatch.setattr(peeling, "factor_gf2", counting_factor)
    monkeypatch.setattr(peeling.GF2Factorization, "fold_row", counting_fold)
    return calls


def _storage_of(engine):
    if engine._bitmatrix:
        return "bitmatrix"
    return "static-csr" if engine._node_indptr is not None else "dict"


def _decode_one_at_a_time(storage, seed, monkeypatch, payload_size=_P):
    """Feed a shuffled stream packet by packet.

    Returns ``(decoder, packets fed at completion, source block)``.
    """
    spec, k, capped = STORAGES[storage]
    if storage == "dict":
        monkeypatch.setattr(peeling, "_BITMATRIX_MAX_NODES", 0)
    code = build_code(spec, k, seed=seed)
    source = make_source(k, _P, seed)
    if spec == "lt":
        decoder = LTDecoder(code.spec, payload_size=payload_size,
                            inactivation_limit=k - 1 if capped else None)
        stream = np.random.default_rng(seed).permutation(4 * k)
        payload_of = code.encoder(source).droplet_payload
    else:
        decoder = code.new_decoder(payload_size)
        stream = np.random.default_rng(seed).permutation(code.n)
        payload_of = code.encode(source).__getitem__
    for fed, index in enumerate(stream.tolist(), start=1):
        decoder.add_packet(
            index, None if payload_size is None else payload_of(index))
        if decoder.is_complete:
            return decoder, fed, source
    raise AssertionError("stream exhausted before completion")


@pytest.mark.parametrize("payload", [True, False],
                         ids=["payload", "structural"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_finisher_matches_reference_on_every_storage(
        storage, seed, payload, factor_calls, monkeypatch):
    """The recorded completing packet and attempt count, with payloads
    and on a structural decoder (no payload replay at all) alike."""
    decoder, fed, source = _decode_one_at_a_time(
        storage, seed, monkeypatch, payload_size=_P if payload else None)
    oracle_fed, oracle_runs = \
        reference_golden()["finisher"][f"{storage} seed={seed}"]
    assert oracle_runs >= 1                   # the finisher was needed
    assert fed == oracle_fed                  # same completing packet
    if payload:
        assert decoder.source_data().tobytes() == source.tobytes()
    if storage != "bitmatrix-lazy":
        assert decoder.inactivation_runs == oracle_runs
    assert _storage_of(decoder) == storage.replace("-lazy", "")
    assert factor_calls["factor"] >= 1        # reached the one factorization


def _stalled_engine(storage, payload_size, monkeypatch):
    """Nodes 0-3 unknown behind the rank-3 system {0,1},{1,2},{0,2},{2,3}.

    Returns ``(engine, values)``; ``values[:4]`` is what a full decode
    must recover and node 4 is known (value ``values[4]``), so ``{4}``
    is an all-known arrival.  Under ``static-csr`` the four equations
    are static checks whose private check nodes (4-7) have been
    observed, which leaves exactly the same residual system in the CSR
    store.
    """
    rows = [[0, 1], [1, 2], [0, 2], [2, 3]]
    values = make_source(8, 8, seed=9)
    for check, nodes in enumerate(rows):
        values[4 + check] = np.bitwise_xor.reduce(values[nodes], axis=0)
    if storage == "dict":
        monkeypatch.setattr(peeling, "_BITMATRIX_MAX_NODES", 0)
    if storage == "static-csr":
        engine = PeelingEngine(8, payload_size=payload_size, source_count=4,
                               inactivation_limit=4)
        nodes = np.concatenate([r + [4 + e] for e, r in enumerate(rows)])
        eqs = np.repeat(np.arange(4), [len(r) + 1 for r in rows])
        engine.load_static_equations(4, nodes, eqs)
        engine.observe_nodes(np.arange(4, 8), None if payload_size is None
                             else values[4:])
    else:
        engine = PeelingEngine(5, payload_size=payload_size, source_count=4,
                               inactivation_limit=4)
        engine.add_equation([4], None if payload_size is None
                            else values[4])
        for check, nodes in enumerate(rows):
            engine.add_equation(nodes, None if payload_size is None
                                else values[4 + check])
    return engine, values


@pytest.mark.parametrize("payload", [8, None], ids=["payload", "structural"])
@pytest.mark.parametrize("redundant_first", [False, True])
@pytest.mark.parametrize("storage", ["bitmatrix", "static-csr", "dict"])
def test_failed_attempt_then_fold_and_retry(storage, redundant_first, payload,
                                            factor_calls, monkeypatch):
    """A singular stall records its deficit; the retry only folds.

    The first attempt must fail (rank 3 of 4) without recovering
    anything.  The odd-weight row ``{0,1,2}`` is independent of the
    all-even span: on arrival it joins the kept factorization as one
    folded row — no second factorization — and completes the decode.

    With ``redundant_first`` an all-known equation arrives in between.
    The stall gate counts arrivals, so it re-opens with no new row to
    fold: that attempt must run (as the scalar finisher's did), fail
    with the same deficit and leave the kept factorization usable.  A
    structural engine (no payloads) takes the same attempts.
    """
    engine, values = _stalled_engine(storage, payload, monkeypatch)

    def rhs(nodes):
        if payload is None:
            return None
        return np.bitwise_xor.reduce(values[nodes], axis=0)

    engine.maybe_inactivate()
    assert not engine.is_complete
    assert engine.source_known_count == 0
    assert engine._stall_gate[2] == 1
    if redundant_first:
        assert not engine.add_equation([4], rhs([4]))
        engine.maybe_inactivate()
        assert engine.inactivation_runs == 2
        assert not engine.is_complete
        assert engine._stall_gate[2] == 1
    engine.add_equation([0, 1, 2], rhs([0, 1, 2]))
    engine.maybe_inactivate()
    assert engine.is_complete
    assert engine.inactivation_runs == 2 + redundant_first
    if payload is not None:
        assert np.array_equal(engine.source_data(), values[:4])
    assert _storage_of(engine) == storage
    assert factor_calls == {"factor": 1, "fold": 1}


#: (seed, inactivation_limit) -> (packets at completion, attempts) of a
#: structural k=64 LT decoder fed ids 0, 1, 2, ... one at a time, as
#: the parent commit measured them.  Every seed here has a limit at
#: which a retry is opened by redundant arrivals alone.  Both decode
#: routes read the same: the attempt count does not depend on which
#: store holds the equations.
_CAPPED_LT = {
    (23, 8): (75, 1),
    (23, 16): (71, 1),
    (23, 32): (68, 3),
    (31, 8): (96, 11),
    (31, 16): (96, 26),
    (31, 32): (96, 28),
    (39, 8): (81, 2),
    (39, 16): (81, 2),
    (39, 32): (81, 8),
    (47, 8): (77, 4),
    (47, 16): (77, 9),
    (47, 32): (77, 11),
}


@pytest.mark.parametrize("seed,limit", sorted(_CAPPED_LT))
def test_capped_finisher_retries_through_redundant_arrivals(
        seed, limit, route):
    """A finisher capped below ``k`` retries many times per decode.

    Between attempts the stream delivers droplets whose neighbours are
    all known already; they tick the stall gate without adding a row.
    """
    decoder = LTDecoder(build_code("lt", 64, seed=seed).spec,
                        inactivation_limit=limit)
    fed = 0
    while not decoder.is_complete:
        decoder.add_packet(fed)
        fed += 1
    assert (fed, decoder.inactivation_runs) == _CAPPED_LT[seed, limit]


_K_ROUTE = 40


@pytest.mark.parametrize("family", ["lt", "raptor"])
def test_decode_routes_take_their_store_and_intake(family, route,
                                                   monkeypatch):
    """``tests/_routes.py`` forces what it names.  On ``batched`` a
    droplet decoder's engine keeps a bitmatrix and a released batch
    enters in one vectorized pass; on ``per-row`` it keeps adjacency
    dicts and every row of the same batch enters through its own
    ``add_equation`` call.  Both recover the block."""
    code = build_code(family, _K_ROUTE, seed=3)
    source = make_source(_K_ROUTE, 8, seed=3)
    encoded = code.encode(source, 4 * _K_ROUTE)
    decoder = code.new_decoder(8)
    assert decoder._bitmatrix == (route == "batched")
    rows = []
    single = decoder.add_equation

    def spy(nodes, rhs=None):
        rows.append(len(nodes))
        return single(nodes, rhs)

    monkeypatch.setattr(decoder, "add_equation", spy)
    ids = np.arange(_K_ROUTE, 4 * _K_ROUTE)
    decoder.add_packets(ids, encoded[ids])
    assert decoder.is_complete
    assert np.array_equal(decoder.source_data(), source)
    assert bool(rows) == (route == "per-row")


@st.composite
def _gf2_systems(draw, max_extra_rows):
    """Random sparse-to-dense bool systems, ``n + extra`` rows by ``n``."""
    n = draw(st.integers(2, 20))
    m = n + draw(st.integers(0, max_extra_rows))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    return np.random.default_rng(seed).random((m, n)) < density


def _csr(coeffs):
    rows, cols = np.nonzero(coeffs)
    indptr = np.concatenate(([0], np.cumsum(coeffs.sum(axis=1))))
    return indptr.astype(np.int64), cols.astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(coeffs=_gf2_systems(max_extra_rows=0))
def test_plan_engine_and_oracle_agree_on_square_systems(coeffs):
    """``record_solve_plan(...).apply`` == engine decode == Gauss-Jordan."""
    n = coeffs.shape[0]
    truth = make_source(n, 8, seed=n)
    rhs = np.zeros_like(truth)
    for row in range(n):
        rhs[row] = np.bitwise_xor.reduce(
            truth[coeffs[row]], axis=0, initial=0)
    indptr, flat = _csr(coeffs)
    expected = gf2_oracle_solve(coeffs, rhs)
    engine = PeelingEngine(n, payload_size=8, inactivation_limit=n)
    engine.add_equations(indptr, flat, rhs)
    engine.maybe_inactivate()
    if expected is None:
        assert not engine.is_complete
        with pytest.raises(ParameterError):
            record_solve_plan(n, indptr, flat, np.arange(n), n)
        return
    assert np.array_equal(expected, truth)
    assert np.array_equal(engine.source_data(), truth)
    plan = record_solve_plan(n, indptr, flat, np.arange(n), n)
    assert np.array_equal(plan.apply(rhs), truth)


def test_plan_reads_the_zero_row_for_a_zero_rhs_inactive_column():
    """No row has degree one, so column 1 (the busiest) is inactivated,
    and the dense-core combination that determines it names only
    zero-rhs rows: its one source is the arena's pinned zero row."""
    indptr = np.asarray([0, 2, 4, 7, 8])
    flat = np.asarray([0, 1, 1, 2, 0, 1, 2, 3])
    plan = record_solve_plan(4, indptr, flat, np.asarray([-1, -1, -1, 0]), 1)
    zero_row, base = 1, 2
    sources = {}
    for dst, wave_indptr, src in plan.waves:
        for j, node in enumerate(dst.tolist()):
            sources[node - base] = src[wave_indptr[j]:
                                       wave_indptr[j + 1]].tolist()
    assert sources == {0: [base + 1], 1: [zero_row], 2: [base + 1], 3: [0]}
    assert plan.waves[0][0].tolist() == [base + 1, base + 3]
    inputs = make_source(1, 8, seed=4)
    assert np.array_equal(plan.apply(inputs),
                          np.concatenate([np.zeros((3, 8), np.uint8), inputs]))


@pytest.mark.parametrize("rhs_row, source", [(0, 0), (-1, 1)])
def test_plan_for_a_single_node(rhs_row, source):
    plan = record_solve_plan(1, np.asarray([0, 1]), np.asarray([0]),
                             np.asarray([rhs_row]), 1)
    (dst, wave_indptr, src), = plan.waves
    assert (dst.tolist(), wave_indptr.tolist(), src.tolist()) \
        == ([2], [0, 1], [source])
    assert all(part.dtype == np.int64 for part in plan.waves[0])


@settings(max_examples=60, deadline=None)
@given(coeffs=_gf2_systems(max_extra_rows=6),
       storage=st.sampled_from(["bitmatrix", "dict"]))
def test_structural_stall_gate_matches_reference_rank(coeffs, storage):
    """A structural engine's recorded deficit is the true rank deficit.

    Whenever an elimination attempt actually ran and failed, the stall
    gate must hold exactly ``columns - rank`` as the scalar eliminator
    computes it; an attempt skipped for want of rows records
    a smaller, still valid, bound.  Full rank completes.
    """
    m, n = coeffs.shape
    _, rank = gf2_eliminate(pack_gf2_rows(coeffs), n, None)
    indptr, flat = _csr(coeffs)
    with pytest.MonkeyPatch.context() as patch:
        if storage == "dict":
            patch.setattr(peeling, "_BITMATRIX_MAX_NODES", 0)
        engine = PeelingEngine(n, inactivation_limit=n)
        assert _storage_of(engine) == storage
        for row in range(m):
            engine.add_equation(flat[indptr[row]:indptr[row + 1]])
        engine.maybe_inactivate()
    if rank == n:
        assert engine.is_complete
        return
    assert not engine.is_complete
    deficit = engine._stall_gate[2]
    if engine.inactivation_runs:
        assert deficit == n - rank
    else:
        assert 1 <= deficit <= n - rank
