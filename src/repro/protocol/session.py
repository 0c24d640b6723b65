"""End-to-end layered-multicast sessions (the Figure 8 experiments).

Reproduces the paper's prototype measurements in simulation (the
substitution of a discrete-event simulation for the Berkeley/CMU/Cornell
testbed is documented in DESIGN.md section 5):

* :func:`run_session` — the 4-layer protocol: receivers with
  heterogeneous bottleneck capacities and ambient loss climb and drop
  subscription levels via SP/burst congestion control while downloading
  an erasure-coded file.
* :func:`run_single_layer_session` — the single-group control
  experiment ("these results allow us to focus on the efficiency of the
  packet transmission scheme independent of the layering scheme").

Both accept either a prebuilt code object or a registry spec string
(``code_spec="lt"`` with ``k=...``), so layered multicast runs over any
registered family — Tornado, LT, Reed-Solomon — through one call:

    run_session(code_spec="lt", k=1200, ambient_loss_rates=[0.1],
                capacity_multipliers=[4.0])

Each returns per-receiver :class:`SessionResult` records carrying the
observed loss rate, the three efficiencies of Section 7.3, the code
spec the session ran over, and the reception overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.codes.registry import CodeSpec, build_code
from repro.errors import ParameterError
from repro.net.loss import BernoulliLoss
from repro.protocol.congestion import CongestionPolicy
from repro.protocol.layering import LayerConfig
from repro.protocol.receiver import LayeredReceiver
from repro.protocol.server import LayeredServer
from repro.utils.rng import RngLike, spawn_rng


@dataclass(frozen=True)
class SessionResult:
    """Outcome for one receiver of a session simulation."""

    receiver_id: int
    observed_loss: float
    efficiency: float
    coding_efficiency: float
    distinctness_efficiency: float
    completed: bool
    rounds: int
    level_changes: int
    #: canonical spec of the code the session ran over ("?" when the
    #: caller passed an anonymous code object).
    code_spec: str = "?"
    #: reception overhead: (packets received before completion) / k - 1.
    overhead: float = 0.0

    def as_row(self) -> str:
        return (f"recv {self.receiver_id:3d}  code {self.code_spec:<10}  "
                f"loss {self.observed_loss:6.1%}  "
                f"eta {self.efficiency:6.1%}  "
                f"eta_c {self.coding_efficiency:6.1%}  "
                f"eta_d {self.distinctness_efficiency:6.1%}  "
                f"overhead {self.overhead:+6.1%}")


def _result_from(receiver: LayeredReceiver, rid: int, rounds: int,
                 code_spec: str) -> SessionResult:
    stats = receiver.stats()
    return SessionResult(
        receiver_id=rid,
        observed_loss=receiver.observed_loss_rate(),
        efficiency=stats.efficiency,
        coding_efficiency=stats.coding_efficiency,
        distinctness_efficiency=stats.distinctness_efficiency,
        completed=receiver.is_complete,
        rounds=receiver.completed_at_round + 1
        if receiver.completed_at_round is not None else rounds,
        level_changes=max(0, len(receiver.level_history) - 1),
        code_spec=code_spec,
        overhead=stats.reception_overhead,
    )


def _drive(server: LayeredServer, receivers: List[LayeredReceiver],
           max_rounds: int, code_spec: str) -> List[SessionResult]:
    """Run server rounds past every receiver until all have completed
    (or ``max_rounds`` elapse); one result per receiver."""
    for rnd in range(max_rounds):
        per_layer, burst = server.next_round()
        for receiver in receivers:
            receiver.process_round(rnd, per_layer, burst)
        if all(receiver.is_complete for receiver in receivers):
            break
    return [_result_from(r, rid, server.current_round, code_spec)
            for rid, r in enumerate(receivers)]


def _resolve_code(code: Any, code_spec: Union[str, CodeSpec, None],
                  k: Optional[int], code_seed: int) -> Tuple[Any, str]:
    """Accept a code object, a spec string, or both styles of kwargs.

    Returns ``(code, label)`` where ``label`` is the canonical spec
    string (best-effort for anonymous code objects).
    """
    if isinstance(code, (str, CodeSpec)):
        if code_spec is not None:
            raise ParameterError("pass either code or code_spec, not both")
        code_spec = code
        code = None
    if code is not None and code_spec is not None:
        raise ParameterError("pass either code or code_spec, not both")
    if code_spec is not None:
        if k is None:
            raise ParameterError(
                "k (number of source packets) is required with code_spec")
        spec = CodeSpec.parse(code_spec)
        return build_code(spec, k, seed=code_seed), spec.to_string()
    if code is None:
        raise ParameterError("a code or a code_spec is required")
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
                code_spec: Union[str, CodeSpec, None] = None,
                k: Optional[int] = None,
                code_seed: int = 0) -> List[SessionResult]:
    """Simulate the 4-layer protocol for a heterogeneous receiver set.

    Parameters
    ----------
    code:
        The shared erasure code (the paper used Tornado A on a 2 MB file
        split into 8264 500-byte packets) — or a registry spec string,
        equivalent to passing it as ``code_spec``.
    ambient_loss_rates:
        Per-receiver ambient (non-congestion) loss probability.
    capacity_multipliers:
        Per-receiver bottleneck capacity as a multiple of the base-layer
        per-round packet count; values below ``2^(g-1)`` force the
        receiver to live below the top level.
    policy:
        Congestion-control constants; defaults tuned so a download spans
        several SP epochs (see :class:`CongestionPolicy`).
    code_spec, k, code_seed:
        Registry path: build ``code_spec`` (e.g. ``"lt"``, ``"rs"``,
        ``"tornado-a"``) at ``k`` source packets with ``code_seed``.
    """
    code, spec_label = _resolve_code(code, code_spec, k, code_seed)
    if len(ambient_loss_rates) != len(capacity_multipliers):
        raise ParameterError("one capacity per ambient loss rate required")
    if policy is None:
        policy = CongestionPolicy(sp_base_interval=8, burst_interval=4)
    config = LayerConfig(num_layers)
    # Pick a round granularity such that a full-subscription download
    # spans ~dozens of rounds, giving SPs and bursts realistic
    # sub-download timescales (see LayeredServer.blocks_per_round).  The
    # block count is the server's own: its schedule covers n positions
    # (2k for a rateless code) rounded up to whole blocks.
    n = getattr(code, "n", None)
    num_blocks = -(-(2 * code.k if n is None else n) // config.block_size)
    server = LayeredServer(code, config, policy, seed=seed,
                           blocks_per_round=max(1, num_blocks // 16))
    base_per_round = server.blocks_per_round  # layer-0 packets per round
    receivers = []
    for rid, (loss, cap_mult) in enumerate(
            zip(ambient_loss_rates, capacity_multipliers)):
        receivers.append(LayeredReceiver(
            code, config, policy,
            capacity_per_round=max(1, int(cap_mult * base_per_round)),
            ambient_loss=BernoulliLoss(loss),
            rng=spawn_rng(seed, 0xBEEF00 + rid),
            start_level=0,
        ))
    return _drive(server, receivers, max_rounds, spec_label)


def run_single_layer_session(code: Any = None,
                             loss_rates: Sequence[float] = (),
                             max_rounds: int = 4000,
                             seed: RngLike = 0,
                             *,
                             code_spec: Union[str, CodeSpec, None] = None,
                             k: Optional[int] = None,
                             code_seed: int = 0) -> List[SessionResult]:
    """Single multicast group at a fixed rate (Figure 8, left column).

    Receivers never change level, so distinctness efficiency reflects
    only carousel wrap-around: by the One Level Property it stays at
    100% until the loss rate approaches ``(c-1-eps)/c`` (~50% minus the
    code overhead at stretch 2).  Rateless codes never wrap, so their
    distinctness efficiency is identically 1 at any loss rate.
    """
    code, spec_label = _resolve_code(code, code_spec, k, code_seed)
    config = LayerConfig(1)
    policy = CongestionPolicy(sp_base_interval=10 ** 6,
                              burst_interval=10 ** 6 - 1, burst_length=0)
    server = LayeredServer(code, config, policy, seed=seed)
    receivers = [
        LayeredReceiver(
            code, config, policy,
            capacity_per_round=10 ** 9,  # no bottleneck: ambient loss only
            ambient_loss=BernoulliLoss(p),
            rng=spawn_rng(seed, 0xFACE00 + rid),
            start_level=0,
        )
        for rid, p in enumerate(loss_rates)
    ]
    return _drive(server, receivers, max_rounds, spec_label)
