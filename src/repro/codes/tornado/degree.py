"""Degree distributions for Tornado cascade graphs.

The bipartite graphs "must be specially chosen to guarantee both rapid
encoding and decoding and the erasure property" (Section 5.1).  Following
Luby et al. [8, 9] we use a *truncated heavy-tail* distribution on the
message (left) side — node degree i with probability proportional to
1/(i(i-1)) for i in [2, D+1] — paired with a near-regular check (right)
side, realised by a configuration-model edge assignment.

The truncation parameter D is the speed/overhead dial:

* small D  -> low average degree ~ln(D) -> fewer XORs, faster codec, but a
  larger reception overhead (this is the Tornado A regime);
* large D  -> average degree grows, decoding threshold approaches the
  erasure-channel capacity, overhead shrinks (the Tornado B regime).

This matches the paper's cost formula (k+l)*ln(1/eps)*P: halving the
overhead eps costs a multiplicative bump in work.
"""

from __future__ import annotations

from repro.codes.degree import DegreeDistribution
from repro.errors import ParameterError

__all__ = [
    "DegreeDistribution",
    "heavy_tail_distribution",
    "regular_distribution",
    "two_point_distribution",
]


def heavy_tail_distribution(truncation: int) -> DegreeDistribution:
    """Truncated heavy-tail pmf: P(d=i) = C / (i(i-1)), i in [2, D+1].

    The normaliser is C = (D+1)/D because the sum telescopes:
    sum_{i=2}^{D+1} 1/(i(i-1)) = 1 - 1/(D+1) = D/(D+1).
    """
    if truncation < 1:
        raise ParameterError("truncation must be >= 1")
    degrees = tuple(range(2, truncation + 2))
    c = (truncation + 1) / truncation
    probabilities = tuple(c / (i * (i - 1)) for i in degrees)
    return DegreeDistribution(degrees, probabilities)


def regular_distribution(degree: int) -> DegreeDistribution:
    """Every left node has the same degree (the naive baseline ablation)."""
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    return DegreeDistribution((degree,), (1.0,))


def two_point_distribution(low: int, high: int,
                           high_edge_fraction: float) -> DegreeDistribution:
    """Two-degree mix specified by the *edge* fraction on the high degree.

    Empirically (the degree-family test in tests/test_paper_claims.py) a
    low/high mix with minimum degree 3 gives the most robust
    finite-length peeling of the families we evaluated: the absence of
    degree-2 message nodes eliminates the residual 2-core cycles that
    otherwise trap the last few packets, and the heavy fraction sustains
    the decoding wave through the mid-tunnel of the density-evolution
    condition.  The shipped Tornado presets build on
    ``two_point_distribution(3, 20, 0.30)``.
    """
    if low < 1 or high <= low:
        raise ParameterError("need 1 <= low < high")
    if not 0 < high_edge_fraction < 1:
        raise ParameterError("high_edge_fraction must lie in (0, 1)")
    w_low = (1 - high_edge_fraction) / low
    w_high = high_edge_fraction / high
    total = w_low + w_high
    return DegreeDistribution((low, high), (w_low / total, w_high / total))
