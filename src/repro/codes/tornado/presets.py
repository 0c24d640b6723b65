"""Tornado A and Tornado B presets (paper Section 5.2).

The paper benchmarks two concrete codes:

* **Tornado A** — fastest decode, average reception overhead 0.0548
  (max 0.0850, std 0.0052 over 10,000 runs);
* **Tornado B** — "a slightly different code structure that is slower to
  decode but yields a smaller average reception overhead of 0.03"
  (measured mean 0.0306, max 0.0550, std 0.0031).

The exact 1998 degree sequences were proprietary (they became Digital
Fountain Inc.'s core IP) and were never published; what the paper pins
down is the *trade-off axis*: B spends more decode work to buy a lower
overhead.  We reproduce that axis with the best openly-reproducible
machinery we found (the degree-family test in
``tests/test_paper_claims.py`` re-runs the selection at small scale):

* **tornado_a** uses a two-point left degree distribution (3/20, 30% of
  edges on the high degree) with pure peeling — the paper's original
  decoding algorithm.  Its measured mean overhead is ~0.13-0.16 at
  k = 1000..8000 versus the paper's 0.0548; the gap is the price of not
  having the authors' hand-optimised sequences.
* **tornado_b** uses the same cascade plus bounded *inactivation
  decoding* (GF(2) elimination on the stalled residual, as in modern
  RaptorQ): slower to decode, substantially lower overhead (~0.01-0.03)
  — the same direction and rough magnitude as the paper's B.

Both presets keep every headline property the paper relies on: XOR-only
encode, linear-time decode dominated by XOR, overhead concentrated in a
narrow band, and orders-of-magnitude speedups over Reed-Solomon.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.codes.tornado.code import TornadoCode
from repro.codes.tornado.degree import two_point_distribution
from repro.utils.rng import RngLike

#: Left degree distribution shared by both presets: minimum degree 3
#: kills residual 2-core cycles; 30% of edges on degree 20 sustains the
#: decoding wave (see repro.codes.tornado.degree.two_point_distribution).
PRESET_LOW_DEGREE = 3
PRESET_HIGH_DEGREE = 20
PRESET_HIGH_EDGE_FRACTION = 0.30


def _preset_distribution():
    return two_point_distribution(PRESET_LOW_DEGREE, PRESET_HIGH_DEGREE,
                                  PRESET_HIGH_EDGE_FRACTION)


def tornado_a(k: int, seed: RngLike = 0, stretch: float = 2.0) -> TornadoCode:
    """The fast operating point: pure peeling, higher reception overhead."""
    return TornadoCode(
        k,
        degree_dist=_preset_distribution(),
        stretch=stretch,
        seed=seed,
        name="tornado-a",
    )


def tornado_b(k: int, seed: RngLike = 0, stretch: float = 2.0) -> TornadoCode:
    """The thorough operating point: inactivation decoding, low overhead.

    The elimination fallback is capped at ``k`` unknowns: the stalled
    system can only reach full rank once the residual is at most the
    number of available XOR equations (~k), so a larger cap buys nothing,
    while this one catches essentially every near-threshold stall.
    Measured at k = 1000..2000 this lands at mean overhead ~0.02, max
    ~0.05 (paper B: mean 0.0306, max 0.055).
    """
    return TornadoCode(
        k,
        degree_dist=_preset_distribution(),
        stretch=stretch,
        seed=seed,
        name="tornado-b",
        inactivation_limit=k,
    )


#: Registry used by the experiment runners ("tornado-a" -> factory).
TORNADO_PRESETS: Dict[str, Callable[..., TornadoCode]] = {
    "tornado-a": tornado_a,
    "tornado-b": tornado_b,
}
