"""Systematic Raptor codes: LDPC precode + weakened-soliton LT stage.

A Raptor code concatenates a high-rate *precode* (here a sparse LDPC
expansion reusing the Tornado configuration-model machinery) with a
*weakened* LT code whose degree distribution is capped at a constant —
the construction that turns LT's O(log k) per-droplet cost and fat
decode-threshold tail into constant reception overhead at linear time.
See :mod:`repro.codes.raptor.precode` for the shared geometry,
:mod:`repro.codes.raptor.code` for the public code family.
"""

from repro.codes.raptor.cache import (
    GeometryPlanCache,
    RaptorAssets,
    cache_stats,
    cached_raptor_assets,
    clear_cache,
)
from repro.codes.raptor.code import RaptorCode
from repro.codes.raptor.decoder import RaptorDecoder, RaptorRankDecoder
from repro.codes.raptor.encoder import (
    RaptorEncoder,
    build_encode_plan,
    build_generator,
)
from repro.codes.raptor.precode import RaptorGeometry, raptor_geometry

__all__ = [
    "GeometryPlanCache",
    "RaptorAssets",
    "RaptorCode",
    "RaptorDecoder",
    "RaptorEncoder",
    "RaptorGeometry",
    "RaptorRankDecoder",
    "build_encode_plan",
    "build_generator",
    "cache_stats",
    "cached_raptor_assets",
    "clear_cache",
    "raptor_geometry",
]
