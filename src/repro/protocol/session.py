"""End-to-end layered-multicast sessions (the Figure 8 experiments).

Reproduces the paper's prototype measurements in simulation (the
substitution of a discrete-event simulation for the Berkeley/CMU/Cornell
testbed is listed in README, "Reproducing the paper"):

* :func:`run_session` — the 4-layer protocol: receivers with
  heterogeneous bottleneck capacities and ambient loss climb and drop
  subscription levels via SP/burst congestion control while downloading
  an erasure-coded file.
* :func:`run_single_layer_session` — the single-group control
  experiment ("these results allow us to focus on the efficiency of the
  packet transmission scheme independent of the layering scheme").

Both take ``code`` as a prebuilt code object or a registry spec string
(with ``k=...``), so layered multicast runs over any registered family
— Tornado, LT, Reed-Solomon — through one call:

    run_session("lt", k=1200, ambient_loss_rates=[0.1],
                capacity_multipliers=[4.0])

Each returns one :class:`SessionResult` per receiver (observed loss,
its :class:`~repro.fountain.metrics.ReceptionStats` — the three
efficiencies of Section 7.3 and the reception overhead — and code spec).
The sender is :func:`~repro.protocol.schedule.layered_rounds`, the one
walk of the reverse-binary schedule; :func:`_schedule` maps positions
onto a fixed-rate code's permuted carousel, and a rateless code's
position *is* its droplet id, so a fountain never repeats one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.registry import CodeSpec, build_code
from repro.errors import ParameterError
from repro.fountain.metrics import ReceptionStats
from repro.net.loss import BernoulliLoss
from repro.protocol.congestion import CongestionPolicy
from repro.protocol.layering import LayerConfig
from repro.protocol.receiver import LayeredReceiver
from repro.protocol.schedule import SWEEP_ROUNDS, layered_rounds
from repro.utils.rng import RngLike, spawn_rng

#: rng stream label for a fixed-rate code's carousel permutation.
_PERMUTATION_STREAM = 0xCA11


@dataclass(frozen=True)
class SessionResult:
    """Outcome for one receiver of a session simulation."""

    receiver_id: int
    observed_loss: float
    #: the receiver's counts: the three efficiencies of Section 7.3
    #: and the reception overhead are its properties.
    stats: ReceptionStats
    completed: bool
    rounds: int
    level_changes: int
    #: canonical spec of the code the session ran over ("?" when the
    #: caller passed an anonymous code object).
    code_spec: str = "?"

    def as_row(self) -> str:
        stats = self.stats
        return (f"recv {self.receiver_id:3d}  code {self.code_spec:<10}  "
                f"loss {self.observed_loss:6.1%}  "
                f"eta {stats.efficiency:6.1%}  "
                f"eta_c {stats.coding_efficiency:6.1%}  "
                f"eta_d {stats.distinctness_efficiency:6.1%}  "
                f"overhead {stats.reception_overhead:+6.1%}")


def _result_from(receiver: LayeredReceiver, rid: int, rounds: int,
                 code_spec: str) -> SessionResult:
    return SessionResult(
        receiver_id=rid,
        observed_loss=receiver.observed_loss_rate(),
        stats=receiver.stats(),
        completed=receiver.is_complete,
        rounds=receiver.completed_at_round + 1
        if receiver.completed_at_round is not None else rounds,
        level_changes=max(0, len(receiver.level_history) - 1),
        code_spec=code_spec,
    )


def _schedule(code: Any, config: LayerConfig,
              seed: RngLike) -> Tuple[int, Optional[np.ndarray]]:
    """Blocks in the schedule, and its offset -> encoding id map.

    A fixed-rate code's ``n`` ids are permuted once; the pad positions
    (fewer than a block) wrap onto the permutation's start, at most
    ``B - 1`` early repeats a pass.  A rateless code's position is its
    droplet id (map ``None``); its ``2k`` positions a sweep (the
    fixed-rate presets' stretch) set only the sweep granularity.  Call
    it before any receiver's rng: a ``Generator`` seed advances on
    every draw.
    """
    block = config.block_size
    n = getattr(code, "n", None)
    if n is None:
        return -(-2 * code.k // block), None
    num_blocks = -(-n // block)
    permutation = spawn_rng(seed, _PERMUTATION_STREAM).permutation(n)
    pad = num_blocks * block - n
    return num_blocks, np.concatenate([permutation, permutation[:pad]])


def _run(code: Any, config: LayerConfig, policy: CongestionPolicy,
         seed: RngLike, max_rounds: int, groups: int,
         links: Sequence[Tuple[float, float]], stream: int,
         label: str) -> List[SessionResult]:
    """Run the walk's rounds past one receiver per ``(ambient loss,
    capacity in layer-0 packets a round)`` link until all have completed
    (or ``max_rounds`` elapse); one result per receiver.  A sweep spans
    ``groups`` block groups; receiver ``i`` draws rng ``stream + i``."""
    num_blocks, ids = _schedule(code, config, seed)
    blocks_per_round = max(1, num_blocks // groups)
    receivers = [
        LayeredReceiver(
            code, config, policy,
            capacity_per_round=max(1, int(capacity * blocks_per_round)),
            ambient_loss=BernoulliLoss(loss),
            rng=spawn_rng(seed, stream + rid))
        for rid, (loss, capacity) in enumerate(links)]
    rounds = layered_rounds(config, policy, num_blocks, blocks_per_round)
    elapsed = 0
    for positions, burst in islice(rounds, max_rounds):
        if ids is not None:
            positions = [ids[p % ids.size] for p in positions]
        for receiver in receivers:
            receiver.process_round(elapsed, positions, burst)
        elapsed += 1
        if all(receiver.is_complete for receiver in receivers):
            break
    return [_result_from(r, rid, elapsed, label)
            for rid, r in enumerate(receivers)]


def _resolve_code(code: Any, k: Optional[int],
                  code_seed: int) -> Tuple[Any, str]:
    """A code object, or one built from a spec string at ``k``.

    Returns ``(code, label)`` where ``label`` is the canonical spec
    string (best-effort for anonymous code objects).
    """
    if isinstance(code, (str, CodeSpec)):
        if k is None:
            raise ParameterError(
                "k (number of source packets) is required with a spec")
        spec = CodeSpec.parse(code)
        return build_code(spec, k, seed=code_seed), spec.to_string()
    if code is None:
        raise ParameterError("a code or a spec string is required")
    label = getattr(code, "name", None)
    return code, label if label else type(code).__name__.lower()


def run_session(code: Any = None,
                ambient_loss_rates: Sequence[float] = (),
                capacity_multipliers: Sequence[float] = (),
                num_layers: int = 4,
                policy: Optional[CongestionPolicy] = None,
                max_rounds: int = 400,
                seed: RngLike = 0,
                *,
                k: Optional[int] = None,
                code_seed: int = 0) -> List[SessionResult]:
    """Simulate the 4-layer protocol for a heterogeneous receiver set.

    Parameters
    ----------
    code:
        The shared erasure code (the paper used Tornado A on a 2 MB file
        split into 8264 500-byte packets), or a registry spec string
        (e.g. ``"lt"``, ``"rs"``, ``"tornado-a"``) built at ``k``
        source packets with ``code_seed``.
    ambient_loss_rates:
        Per-receiver ambient (non-congestion) loss probability.
    capacity_multipliers:
        Per-receiver bottleneck capacity as a multiple of the base-layer
        per-round packet count; values below ``2^(g-1)`` force the
        receiver to live below the top level.
    policy:
        Congestion-control constants; defaults tuned so a download spans
        several SP epochs (see :class:`CongestionPolicy`).
    """
    code, label = _resolve_code(code, k, code_seed)
    if len(ambient_loss_rates) != len(capacity_multipliers):
        raise ParameterError("one capacity per ambient loss rate required")
    if policy is None:
        policy = CongestionPolicy(sp_base_interval=8, burst_interval=4)
    # A full-subscription download spans ~dozens of rounds, so SPs and
    # bursts act on sub-download timescales.
    return _run(code, LayerConfig(num_layers), policy, seed, max_rounds,
                SWEEP_ROUNDS, list(zip(ambient_loss_rates,
                                       capacity_multipliers)),
                0xBEEF00, label)


def run_single_layer_session(code: Any = None,
                             loss_rates: Sequence[float] = (),
                             max_rounds: int = 4000,
                             seed: RngLike = 0,
                             *,
                             k: Optional[int] = None,
                             code_seed: int = 0) -> List[SessionResult]:
    """Single multicast group at a fixed rate (Figure 8, left column).

    ``code`` is a code object or a spec string, as in
    :func:`run_session`.  Receivers never change level, so distinctness
    efficiency reflects only carousel wrap-around: by the One Level
    Property it stays at 100% until the loss rate approaches
    ``(c-1-eps)/c`` (~50% minus the code overhead at stretch 2).
    Rateless codes never wrap, so their distinctness efficiency is
    identically 1 at any loss rate.
    """
    code, label = _resolve_code(code, k, code_seed)
    policy = CongestionPolicy(sp_base_interval=10 ** 6,
                              burst_interval=10 ** 6 - 1, burst_length=0)
    # One block group a sweep; no bottleneck: ambient loss only.
    return _run(code, LayerConfig(1), policy, seed, max_rounds, 1,
                [(p, 10 ** 9) for p in loss_rates], 0xFACE00, label)
