"""Declarative many-receiver swarm simulations (the paper at population scale).

The paper's headline claim is about *scale*: one cyclic fountain stream
serves arbitrarily many heterogeneous receivers that join at different
times, see independent loss, and still pay near-constant reception
overhead.  This module is the layer that evaluates that claim for whole
populations instead of one receiver at a time:

* :class:`Scenario` — a declarative description of a swarm experiment
  (code spec, file/block geometry, cross-block schedule, and a receiver
  population of :class:`ReceiverGroup` entries with per-receiver loss
  models drawn from :mod:`repro.net.loss` / :mod:`repro.net.traces`,
  join/leave churn and optional layered rate tiers).  Scenarios
  round-trip through JSON, so experiments live in committed files
  (see ``examples/scenarios/``) rather than ad-hoc scripts.
* :class:`SwarmSimulator` — runs the whole population *vectorized*: one
  numpy pass per carousel sweep over a ``(receivers x blocks)``
  completion matrix, using empirical decode thresholds from
  :class:`~repro.sim.overhead.ThresholdPool` instead of per-receiver
  Python decoders.  10^5 heterogeneous receivers simulate in seconds.
  ``workers=N`` fans the population out over processes.
* :func:`replay_receivers` — the exact-decode spot check: replays a
  sampled sub-population through the real
  :class:`~repro.transfer.client.TransferClient` (per-packet loss
  draws, real incremental decoders) to validate the structural model.

Structural model
----------------

Time advances in *sweeps* — one full pass of the cross-block schedule,
``total_k`` packet slots, ``k_b`` of them for block ``b``: the paper's
open loop.  ``run(policy=...)`` closes the loop on the same engine —
the policy re-deals each sweep's slots from the population's block
deficits, and a policy that never chases one *is* the open loop.  Receiver
``r`` completes block ``b`` once it holds ``T[r, b]`` distinct packets
of the block, where ``T`` is drawn from the empirical decode-threshold
distribution of the block's *own* code realisation (sampled once per
block, not per receiver).  Per sweep, delivered counts are binomial
draws with the receiver's per-sweep delivery probability:

* Bernoulli loss: the exact per-packet process (binomial counts are
  distributionally identical to per-packet draws).
* Gilbert-Elliott: a beta-binomial moment-matched to the chain's
  sweep-window mean and autocorrelation-inflated variance.
* traces: the exact per-sweep delivered fraction read from the trace
  window (burst/outage structure preserved at sweep granularity).

For rateless codes every delivered packet is a fresh droplet, so
``distinct == delivered``.  For fixed-rate carousels, any ``n``
consecutive emissions of a block are distinct, so ``distinct ==
delivered`` until a receiver's offered window exceeds one revolution;
beyond that an expected-coverage correction
``n * (1 - (1 - q)^revolutions)`` accounts for duplicates.  Completion
within a sweep is linearly interpolated, and a receiver's reception
overhead is ``received / total_k - 1`` — the same epsilon the
per-receiver pipelines report.  :meth:`SwarmSimulator.run` with
``spot_check=m`` quantifies the model error against ``m`` exact
replays.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codes.registry import REGISTRY, block_seed
from repro.errors import ParameterError, ProtocolError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, TraceLoss
from repro.net.traces import MBONE_MEAN_BURST, synthesize_mbone_traces
from repro.protocol.adaptive import AdaptivePolicy
from repro.protocol.layering import LayerConfig
from repro.sim.overhead import sample_decode_thresholds
from repro.transfer.blocks import BlockPlan
from repro.transfer.client import TransferClient
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import SCHEDULES
from repro.transfer.server import TransferServer
from repro.utils.rng import spawn_rng

__all__ = [
    "LOSS_PRESETS",
    "LossSpec",
    "ReceiverGroup",
    "Scenario",
    "SpotCheckResult",
    "SwarmResult",
    "SwarmSimulator",
    "load_scenario",
    "replay_receivers",
    "run_scenario",
]

#: rng stream labels (distinct from the transfer layer's streams).
_POP_STREAM = 0x50F0
_TRACE_STREAM = 0x7ACE
_POOL_STREAM = 0xF001
_CHOICE_STREAM = 0xC40D
_SPOT_STREAM = 0x5B07
_REPLAY_STREAM = 0xBE91

#: a value that may be a scalar or a ``(low, high)`` uniform range.
Range = Union[float, Tuple[float, float]]

#: loss-spec kinds and the parameters each accepts (with defaults).
_LOSS_KINDS: Dict[str, Dict[str, Any]] = {
    "bernoulli": {"p": 0.1},
    "gilbert": {"rate": 0.18, "burst": 6.0},
    "trace": {"pool": 32, "length": 100_000},
}

_KIND_CODES = {"bernoulli": 0, "gilbert": 1, "trace": 2}

#: named wireless loss presets, usable anywhere a loss spec goes
#: (``LossSpec.preset(name)``, a bare string in scenario JSON, or the
#: CLI's ``--loss-preset``).  Parameter regimes follow the GPRS channel
#: measurements of Usman & Dunlop — slow pedestrian fading shows rarer
#: but much longer loss bursts than vehicular speeds, where fast fading
#: decorrelates the channel — plus an office wireless-LAN testbed regime
#: with deep shadowing outages.  Ranges spread receivers across the
#: regime rather than cloning one channel.
LOSS_PRESETS: Dict[str, Dict[str, Any]] = {
    "gprs-pedestrian": {
        "kind": "gilbert", "rate": [0.02, 0.08], "burst": [8.0, 24.0]},
    "gprs-vehicular": {
        "kind": "gilbert", "rate": [0.05, 0.15], "burst": [3.0, 9.0]},
    "wireless-testbed": {
        "kind": "gilbert", "rate": [0.10, 0.30], "burst": [10.0, 40.0]},
}


def _as_range(value: Any, name: str) -> Range:
    """Normalise a scalar or 2-element sequence into a canonical Range."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ParameterError(
                f"{name} range must be [low, high], got {value!r}")
        low, high = float(value[0]), float(value[1])
        if low > high:
            raise ParameterError(f"{name} range has low > high: {value!r}")
        if low == high:
            return low
        return (low, high)
    return float(value)


def _range_bounds(value: Range) -> Tuple[float, float]:
    if isinstance(value, tuple):
        return value
    return (value, value)


def _draw_range(value: Range, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Materialise ``count`` per-receiver values from a scalar or range."""
    if isinstance(value, tuple):
        return rng.uniform(value[0], value[1], size=count)
    return np.full(count, float(value))


@dataclass(frozen=True)
class LossSpec:
    """Declarative per-receiver loss process of one receiver group.

    ``kind`` selects the process; parameters may be scalars or
    ``[low, high]`` ranges drawn independently per receiver:

    * ``"bernoulli"`` — ``p``: stationary loss rate.
    * ``"gilbert"`` — ``rate``: stationary loss rate, ``burst``: mean
      burst length (a :class:`~repro.net.loss.GilbertElliottLoss`).
    * ``"trace"`` — ``pool``: how many synthetic MBone traces to
      synthesise, ``length``: trace length; each receiver replays a
      random trace from a random offset
      (:func:`~repro.net.traces.synthesize_mbone_traces`).
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _LOSS_KINDS:
            raise ParameterError(
                f"unknown loss kind {self.kind!r}; choose from "
                f"{sorted(_LOSS_KINDS)}")
        known = _LOSS_KINDS[self.kind]
        normalised = []
        for name, value in sorted(dict(self.params).items()):
            if name not in known:
                raise ParameterError(
                    f"loss kind {self.kind!r} has no parameter {name!r}; "
                    f"valid: {sorted(known)}")
            if self.kind == "trace":
                normalised.append((name, int(value)))
            else:
                normalised.append((name, _as_range(value, name)))
        object.__setattr__(self, "params", tuple(normalised))
        self._validate_bounds()

    def _validate_bounds(self) -> None:
        if self.kind == "bernoulli":
            low, high = _range_bounds(self.param("p"))
            if not 0 <= low <= high < 1:
                raise ParameterError(
                    f"bernoulli loss rate must lie in [0, 1), got "
                    f"{self.param('p')!r}")
        elif self.kind == "gilbert":
            low, high = _range_bounds(self.param("rate"))
            if not 0 < low <= high < 1:
                raise ParameterError(
                    f"gilbert loss rate must lie in (0, 1), got "
                    f"{self.param('rate')!r}")
            blow, _ = _range_bounds(self.param("burst"))
            if blow < 1:
                raise ParameterError("gilbert mean burst must be >= 1")
        else:
            if self.param("pool") <= 0 or self.param("length") <= 0:
                raise ParameterError(
                    "trace pool and length must be positive")

    @classmethod
    def make(cls, kind: str, **params: Any) -> "LossSpec":
        """Build a spec: ``LossSpec.make("bernoulli", p=[0.01, 0.3])``."""
        return cls(kind, tuple(sorted(params.items())))

    @classmethod
    def preset(cls, name: str) -> "LossSpec":
        """A named wireless channel preset from :data:`LOSS_PRESETS`."""
        if name not in LOSS_PRESETS:
            raise ParameterError(
                f"unknown loss preset {name!r}; choose from "
                f"{sorted(LOSS_PRESETS)}")
        return cls.from_dict(dict(LOSS_PRESETS[name]))

    @classmethod
    def from_dict(cls, data: Any) -> "LossSpec":
        if isinstance(data, LossSpec):
            return data
        if isinstance(data, str):
            return cls.preset(data)
        if not isinstance(data, dict) or "kind" not in data:
            raise ParameterError(
                f"loss spec must be a dict with a 'kind' key, a preset "
                f"name, or a LossSpec, got {data!r}")
        params = {k: v for k, v in data.items() if k != "kind"}
        return cls.make(data["kind"], **params)

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"kind": self.kind}
        for name, value in self.params:
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def param(self, name: str, default: Any = None) -> Any:
        """This spec's value for ``name`` (the kind's default otherwise)."""
        for key, value in self.params:
            if key == name:
                return value
        if default is not None:
            return default
        return _LOSS_KINDS[self.kind][name]


@dataclass(frozen=True)
class ReceiverGroup:
    """A homogeneous-by-description slice of the receiver population.

    Parameters
    ----------
    name, count:
        Label and number of receivers in the group.
    loss:
        The group's :class:`LossSpec` (or its dict form).  Ranges inside
        the spec make the group heterogeneous.
    join:
        Stream slot at which receivers join — a scalar or a
        ``[low, high]`` range drawn per receiver (mid-stream joiners,
        flash crowds).
    leave:
        Optional slot at which receivers leave (churn); ``None`` means
        they stay until done.
    rate_fraction:
        Fraction of the stream's slots the receiver listens to, in
        ``(0, 1]`` — a bandwidth tier (modem vs LAN).  Mutually
        exclusive with ``level``.
    level:
        Layered-multicast subscription level; requires the scenario's
        ``layers`` and maps to a rate fraction through
        :class:`~repro.protocol.layering.LayerConfig`.
    """

    name: str
    count: int
    loss: LossSpec = field(
        default_factory=lambda: LossSpec.make("bernoulli", p=0.1))
    join: Range = 0.0
    leave: Optional[Range] = None
    rate_fraction: Optional[Range] = None
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("receiver group needs a name")
        if self.count <= 0:
            raise ParameterError(
                f"group {self.name!r} needs a positive receiver count")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "loss", LossSpec.from_dict(self.loss))
        object.__setattr__(self, "join", _as_range(self.join, "join"))
        if self.leave is not None:
            object.__setattr__(self, "leave", _as_range(self.leave, "leave"))
        if self.rate_fraction is not None and self.level is not None:
            raise ParameterError(
                f"group {self.name!r}: pass rate_fraction or level, "
                "not both")
        if self.rate_fraction is not None:
            rate = _as_range(self.rate_fraction, "rate_fraction")
            low, high = _range_bounds(rate)
            if not 0 < low <= high <= 1:
                raise ParameterError(
                    f"group {self.name!r}: rate_fraction must lie in "
                    f"(0, 1], got {self.rate_fraction!r}")
            object.__setattr__(self, "rate_fraction", rate)
        if self.level is not None:
            object.__setattr__(self, "level", int(self.level))

    @classmethod
    def from_dict(cls, data: Any) -> "ReceiverGroup":
        if isinstance(data, ReceiverGroup):
            return data
        if not isinstance(data, dict):
            raise ParameterError(
                f"receiver group must be a dict, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown receiver-group fields {sorted(unknown)}; "
                f"valid: {sorted(known)}")
        return cls(**data)

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {"name": self.name, "count": self.count,
                               "loss": self.loss.to_dict()}
        for name in ("join", "leave", "rate_fraction"):
            value = getattr(self, name)
            if name == "join" and value == 0.0:
                continue
            if value is None:
                continue
            out[name] = list(value) if isinstance(value, tuple) else value
        if self.level is not None:
            out["level"] = self.level
        return out


@dataclass(frozen=True)
class Scenario:
    """One declarative swarm experiment; round-trips through JSON.

    The code is any registry spec string; geometry mirrors the transfer
    layer (``file_size`` bytes cut into blocks of ``block_packets``
    packets of ``packet_size`` bytes each).  ``max_sweeps`` bounds the
    simulated stream length (in full passes over the file) so a
    pathological population terminates loudly instead of spinning;
    ``threshold_trials`` sizes the empirical decode-threshold pool
    sampled *per block* (pool-building cost scales with
    ``num_blocks * threshold_trials`` decoder runs — the dominant cost
    of large scenarios).  ``layers`` enables layered rate tiers for
    groups that set ``level``.
    """

    name: str
    groups: Tuple[ReceiverGroup, ...]
    code: str = "tornado-b"
    file_size: int = 4 << 20
    packet_size: int = 1024
    block_packets: int = 256
    schedule: str = "interleave"
    seed: int = 2024
    max_sweeps: int = 40
    threshold_trials: int = 32
    layers: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("scenario needs a name")
        groups = tuple(ReceiverGroup.from_dict(g) for g in self.groups)
        if not groups:
            raise ParameterError("scenario needs at least one receiver group")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "code", REGISTRY.spec(self.code).to_string())
        if self.schedule not in SCHEDULES:
            raise ParameterError(
                f"unknown schedule {self.schedule!r}; choose from "
                f"{sorted(SCHEDULES)}")
        for name in ("file_size", "packet_size", "block_packets",
                     "max_sweeps", "threshold_trials"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.layers is not None and self.layers < 1:
            raise ParameterError("layers must be >= 1")
        for group in groups:
            if group.level is not None:
                if self.layers is None:
                    raise ParameterError(
                        f"group {group.name!r} sets level={group.level} but "
                        "the scenario has no layers")
                config = LayerConfig(self.layers)
                if not 0 <= group.level <= config.max_level:
                    raise ParameterError(
                        f"group {group.name!r}: level {group.level} outside "
                        f"[0, {config.max_level}]")

    # -- derived geometry ------------------------------------------------------

    def plan(self) -> BlockPlan:
        return BlockPlan(self.file_size, self.packet_size, self.block_packets)

    @property
    def total_receivers(self) -> int:
        return sum(g.count for g in self.groups)

    def group_rate_fraction(self, group: ReceiverGroup) -> Range:
        """The group's effective listen-rate fraction (tiers resolved)."""
        if group.level is not None:
            config = LayerConfig(self.layers)
            return config.level_rate(group.level) / config.block_size
        if group.rate_fraction is None:
            return 1.0
        return group.rate_fraction

    def scaled(self, receivers: int) -> "Scenario":
        """The same scenario with the population scaled to ``receivers``.

        Group proportions are preserved (every group keeps at least one
        receiver) — the handle behind ``repro swarm run --receivers``.
        """
        if receivers <= 0:
            raise ParameterError("receiver count must be positive")
        total = self.total_receivers
        counts = [max(1, int(round(g.count * receivers / total)))
                  for g in self.groups]
        groups = tuple(dataclasses.replace(g, count=c)
                       for g, c in zip(self.groups, counts))
        return dataclasses.replace(self, groups=groups)

    def with_loss(self, loss: Any) -> "Scenario":
        """The same scenario with every group's loss process replaced.

        ``loss`` is a :class:`LossSpec`, its dict form, or a preset
        name from :data:`LOSS_PRESETS` — the handle behind
        ``repro swarm run --loss-preset``.
        """
        spec = LossSpec.from_dict(loss)
        groups = tuple(dataclasses.replace(g, loss=spec)
                       for g in self.groups)
        return dataclasses.replace(self, groups=groups)

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {
            "kind": "swarm-scenario",
            "name": self.name,
            "code": self.code,
            "file_size": self.file_size,
            "packet_size": self.packet_size,
            "block_packets": self.block_packets,
            "schedule": self.schedule,
            "seed": self.seed,
            "max_sweeps": self.max_sweeps,
            "threshold_trials": self.threshold_trials,
            "groups": [g.to_dict() for g in self.groups],
        }
        if self.layers is not None:
            out["layers"] = self.layers
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ProtocolError(
                f"scenario must be a dict, got {type(data).__name__}")
        if data.get("kind", "swarm-scenario") != "swarm-scenario":
            raise ProtocolError(
                f"not a swarm scenario (kind={data.get('kind')!r})")
        known = {f.name for f in dataclasses.fields(cls)}
        fields = {k: v for k, v in data.items() if k != "kind"}
        unknown = set(fields) - known
        if unknown:
            raise ProtocolError(
                f"unknown scenario fields {sorted(unknown)}")
        return cls(**fields)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, pathlib.Path]) -> None:
        pathlib.Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "Scenario":
        path = pathlib.Path(path)
        if not path.exists():
            raise ParameterError(f"no scenario file at {path}")
        try:
            return cls.from_json(path.read_text())
        except json.JSONDecodeError as exc:
            raise ProtocolError(
                f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path: Union[str, pathlib.Path]) -> Scenario:
    """Module-level alias of :meth:`Scenario.load`."""
    return Scenario.load(path)


# -- population materialisation ------------------------------------------------


@dataclass
class _Population:
    """Per-receiver attribute arrays, materialised from the scenario.

    Materialisation is deterministic in the scenario seed and does not
    depend on worker chunking, so a fan-out over processes simulates
    the *same* population as a single-process run.
    """

    group_index: np.ndarray
    kind: np.ndarray
    loss_rate: np.ndarray
    p_gb: np.ndarray
    p_bg: np.ndarray
    trace_id: np.ndarray
    trace_offset: np.ndarray
    join: np.ndarray
    leave: np.ndarray
    rate: np.ndarray
    traces: List[np.ndarray]

    @property
    def size(self) -> int:
        return int(self.group_index.size)

    def rows(self, lo: int, hi: int) -> "_Population":
        """The sub-population of receivers ``lo..hi`` (array views)."""
        sliced = {f.name: getattr(self, f.name)[lo:hi]
                  for f in dataclasses.fields(self)
                  if f.name != "traces"}
        return _Population(traces=self.traces, **sliced)

    def loss_model(self, r: int) -> LossModel:
        """The exact per-packet loss process of receiver ``r`` (replay)."""
        kind = int(self.kind[r])
        if kind == _KIND_CODES["bernoulli"]:
            return BernoulliLoss(float(self.loss_rate[r]))
        if kind == _KIND_CODES["gilbert"]:
            return GilbertElliottLoss(float(self.p_gb[r]),
                                      float(self.p_bg[r]))
        return TraceLoss(self.traces[int(self.trace_id[r])],
                         offset=int(self.trace_offset[r]))


def _materialize(scenario: Scenario) -> _Population:
    """Draw every receiver's attributes from the scenario's groups."""
    rng = spawn_rng(scenario.seed, _POP_STREAM)
    total = scenario.total_receivers
    group_index = np.empty(total, dtype=np.int32)
    kind = np.zeros(total, dtype=np.int8)
    loss_rate = np.zeros(total)
    p_gb = np.zeros(total)
    p_bg = np.zeros(total)
    trace_id = np.full(total, -1, dtype=np.int32)
    trace_offset = np.zeros(total, dtype=np.int64)
    join = np.zeros(total)
    leave = np.full(total, np.inf)
    rate = np.ones(total)
    traces: List[np.ndarray] = []
    lo = 0
    for gi, group in enumerate(scenario.groups):
        hi = lo + group.count
        sl = slice(lo, hi)
        group_index[sl] = gi
        kind[sl] = _KIND_CODES[group.loss.kind]
        join[sl] = _draw_range(group.join, group.count, rng)
        if group.leave is not None:
            leave[sl] = _draw_range(group.leave, group.count, rng)
        rate[sl] = _draw_range(scenario.group_rate_fraction(group),
                               group.count, rng)
        if group.loss.kind == "bernoulli":
            loss_rate[sl] = _draw_range(group.loss.param("p"),
                                        group.count, rng)
        elif group.loss.kind == "gilbert":
            rates = _draw_range(group.loss.param("rate"), group.count, rng)
            bursts = np.maximum(
                _draw_range(group.loss.param("burst"), group.count, rng), 1.0)
            loss_rate[sl] = rates
            p_bg[sl] = 1.0 / bursts
            p_gb[sl] = np.minimum(rates * p_bg[sl] / (1.0 - rates), 1.0)
        else:
            pool = int(group.loss.param("pool"))
            length = int(group.loss.param("length"))
            trace_rng = spawn_rng(scenario.seed, _TRACE_STREAM + gi)
            base = len(traces)
            traces.extend(
                synthesize_mbone_traces(pool, length, rng=trace_rng).traces)
            ids = base + rng.integers(0, pool, size=group.count)
            trace_id[sl] = ids
            trace_offset[sl] = rng.integers(0, length, size=group.count)
            pool_rates = np.array([t.mean() for t in traces[base:]])
            loss_rate[sl] = pool_rates[ids - base]
        lo = hi
    return _Population(group_index=group_index, kind=kind,
                       loss_rate=loss_rate, p_gb=p_gb, p_bg=p_bg,
                       trace_id=trace_id, trace_offset=trace_offset,
                       join=join, leave=leave, rate=rate, traces=traces)


# -- decode thresholds ---------------------------------------------------------


#: ceiling on a trial's thinning rate — keeps the sampled id window
#: finite for near-total-loss receivers (their thresholds are rate-
#: insensitive far before this point).
_POOL_THINNING_MAX = 0.9


def _sample_thresholds(code: Any, trials: int, rng: np.random.Generator,
                       rateless: bool,
                       loss_rates: np.ndarray) -> np.ndarray:
    """Empirical decode thresholds of *this* code realisation.

    Fixed-rate codes receive a random permutation prefix of their
    encoding (the carousel order is itself a seeded random permutation,
    and a loss-thinned subset of it is exchangeable with a uniform
    one); rateless codes receive a loss-thinned droplet-id prefix,
    exactly the stream a receiver on a lossy channel collects.

    ``loss_rates`` carries the *population's* per-receiver effective
    droplet-loss rates; each rateless trial thins at a rate drawn from
    it, so the pool is a mixture matched to the receivers that will
    draw from it.  This matters: within one LT realisation the
    threshold *median* is rate-insensitive, but the tail is not — a
    realisation whose early droplet ids leave some source packet thinly
    covered pays a long-wait threshold exactly when the thinning
    happens to knock out the few covering ids, a probability that peaks
    at intermediate rates.  A single fixed rate can therefore sit at a
    tail-inflating operating point that almost no real receiver
    occupies, biasing the structural model against exact replays.
    Per-block interleaving also justifies i.i.d. thinning here even for
    bursty channels: consecutive slots of one block are far apart in
    the stream, so a block's survival pattern is a strided subsample of
    the loss process with its burst correlation stripped.
    """
    if not rateless:
        return sample_decode_thresholds(code, trials, rng)
    thresholds = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        thin = float(loss_rates[rng.integers(0, loss_rates.size)])
        thin = min(max(thin, 0.0), _POOL_THINNING_MAX)
        window = int(np.ceil(4 * code.k / (1.0 - thin)))
        ids = np.nonzero(rng.random(window) > thin)[0]
        thresholds[t] = code.packets_to_decode(ids)
    return thresholds


def _threshold_tables(scenario: Scenario, loss_rates: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Per-block ``k``, per-block carousel period ``n``, and per-block
    threshold samples (stacked into one lookup table).

    Returns ``(k_b, n_b, pools_by_block, rateless)`` where
    ``pools_by_block`` is a ``(num_blocks, trials)`` array of decode
    thresholds sampled from each block's *own* code realisation (the
    one every receiver of the transfer actually shares, built with the
    block's seed).  Sampling per block matters: the threshold
    distribution *conditioned on a realisation* is much tighter than
    the mixture over realisations, and receivers only ever experience
    the conditional one — pooling across realisations would
    systematically inflate the last-block tail.
    """
    spec = REGISTRY.spec(scenario.code)
    rateless = REGISTRY.is_rateless(spec)
    plan = scenario.plan()
    k_b = np.asarray(plan.block_ks, dtype=np.int64)
    n_b = np.zeros(plan.num_blocks)
    pools = np.empty((plan.num_blocks, scenario.threshold_trials),
                     dtype=np.int64)
    for b, k in enumerate(plan.block_ks):
        code = REGISTRY.build(spec, k, seed=block_seed(scenario.seed, b))
        rng = spawn_rng(scenario.seed, _POOL_STREAM + b)
        pools[b] = _sample_thresholds(code, scenario.threshold_trials,
                                      rng, rateless, loss_rates)
        n_b[b] = np.inf if rateless else float(code.n)
    return k_b, n_b, pools, rateless


# -- the vectorised engine -----------------------------------------------------


def _trace_window_losses(cumsums: List[np.ndarray], trace_ids: np.ndarray,
                         starts: np.ndarray, width: int) -> np.ndarray:
    """Loss counts in cyclic trace windows ``[start, start + width)``."""
    out = np.empty(trace_ids.size, dtype=np.int64)
    for tid in np.unique(trace_ids):
        cs = cumsums[int(tid)]
        length = cs.size - 1
        total = int(cs[-1])
        mask = trace_ids == tid
        begin = starts[mask] % length
        full, rem = divmod(width, length)
        end = begin + rem
        wrap = end > length
        partial = np.where(
            wrap,
            (cs[length] - cs[begin]) + cs[np.minimum(end - length, length)],
            cs[np.minimum(end, length)] - cs[begin])
        out[mask] = full * total + partial
    return out


def _gilbert_beta_params(pop: _Population, sweep_slots: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Beta parameters for per-sweep delivery fractions of GE receivers.

    Moment-matched: mean is the stationary delivery rate ``1 - p``; the
    variance of the sweep-window mean of a 2-state chain is inflated
    over i.i.d. by ``(1 + rho) / (1 - rho)`` with ``rho`` the lag-1
    autocorrelation ``1 - p_gb - p_bg``.
    """
    p = pop.loss_rate
    q = 1.0 - p
    rho = np.clip(1.0 - pop.p_gb - pop.p_bg, 0.0, 0.999)
    inflation = (1.0 + rho) / (1.0 - rho)
    var = np.minimum(p * q * inflation / sweep_slots, 0.9 * p * q)
    var = np.maximum(var, 1e-12)
    nu = np.maximum(p * q / var - 1.0, 1e-3)
    return q * nu, p * nu


def _run_rows(scenario: Scenario, pop: _Population, thresholds: np.ndarray,
              k_b: np.ndarray, n_b: np.ndarray, rateless: bool,
              chunk_tag: int,
              policy: Optional[AdaptivePolicy] = None
              ) -> Dict[str, np.ndarray]:
    """Simulate one slice of the population; returns per-receiver arrays.

    ``pop`` and ``thresholds`` are already sliced to this chunk's rows;
    ``chunk_tag`` seeds the chunk's private randomness.

    One sweep engine: every sweep deals ``total_k`` slots over the
    blocks as ``alloc``.  With no ``policy`` (the paper's open loop)
    block ``b`` always gets ``k_b``.  With one, the sweep is the
    feedback epoch: the population's per-block packet deficits from the
    *previous* sweep's decode state (one sweep of reporting delay
    included) are summed and fed to ``policy.block_shares`` — the same
    pure lever a live adaptive serve applies through
    ``TransferServer.reweight`` — which turns them into this sweep's
    per-block slot shares.  A single wire
    :class:`~repro.protocol.feedback.FeedbackReport` names only a
    receiver's :data:`~repro.protocol.feedback.MAX_LAGGING_BLOCKS`
    worst blocks, but a receiver files many reports per epoch and the
    named set rotates as deficits shrink, so the epoch aggregate a real
    sender accumulates approximates the full deficit vector — which is
    what this vectorized step sums directly.

    The per-sweep slot budget is the same either way (``active *
    total_k`` per receiver), so adaptive vs open-loop comparisons are
    packet-for-packet fair: only *where* slots go changes.  The
    carousel duplicate correction tracks the cumulative per-block
    offered slots, whatever dealt them.  A policy needs the whole
    population's deficits each sweep, so it runs on one chunk only.
    """
    total_k = int(k_b.sum())
    count = pop.size
    rng = np.random.default_rng(
        [int(scenario.seed) & 0x7FFFFFFF, 0xC0DE, int(chunk_tag)])
    overhead = np.full(count, np.nan)
    received = np.zeros(count)
    done_slot = np.full(count, np.inf)
    completed = np.zeros(count, dtype=bool)

    rows = np.arange(count)
    deliveries = np.zeros((count, k_b.size))
    prev_distinct = np.zeros((count, k_b.size))
    offered = np.zeros((count, k_b.size))
    alloc = k_b
    q_bernoulli = (1.0 - pop.loss_rate) * pop.rate
    gil_alpha, gil_beta = _gilbert_beta_params(pop, total_k)
    cumsums = [np.concatenate(([0], np.cumsum(t, dtype=np.int64)))
               for t in pop.traces]
    # Bursty processes lose runs of consecutive slots, and the
    # interleaved schedule deals consecutive slots to *different*
    # blocks — so given a sweep's delivery rate, per-block counts are
    # far less variable than binomial (a burst of length L removes
    # ~L/B slots from every block).  Shrink the allocation variance by
    # the mean burst length; L = 1 recovers plain binomial.
    burst_len = np.ones(count)
    gil_rows = pop.kind == _KIND_CODES["gilbert"]
    burst_len[gil_rows] = 1.0 / np.maximum(pop.p_bg[gil_rows], 1e-9)
    burst_len[pop.kind == _KIND_CODES["trace"]] = MBONE_MEAN_BURST

    for sweep in range(scenario.max_sweeps):
        if rows.size == 0:
            break
        if policy is not None:
            lag = np.maximum(thresholds[rows] - prev_distinct, 0.0)
            shares = np.asarray(policy.block_shares(
                lag.sum(axis=0).tolist(), k_b.tolist()))
            alloc = shares * total_k
        w0 = sweep * total_k
        active = np.clip(
            (np.minimum(pop.leave[rows], w0 + total_k)
             - np.maximum(pop.join[rows], w0)) / total_k, 0.0, 1.0)
        q = q_bernoulli[rows].copy()
        gil = pop.kind[rows] == _KIND_CODES["gilbert"]
        if gil.any():
            g = rows[gil]
            q[gil] = rng.beta(gil_alpha[g], gil_beta[g]) * pop.rate[g]
        tra = pop.kind[rows] == _KIND_CODES["trace"]
        if tra.any():
            t = rows[tra]
            losses = _trace_window_losses(
                cumsums, pop.trace_id[t], pop.trace_offset[t] + w0, total_k)
            q[tra] = (1.0 - losses / total_k) * pop.rate[t]
        dealt = active[:, None] * alloc[None, :]
        trials = np.rint(dealt).astype(np.int64)
        q_col = np.clip(q, 0.0, 1.0)[:, None]
        draws = rng.binomial(trials, q_col)
        bursty = burst_len[rows] > 1.0
        if bursty.any():
            t_b = trials[bursty]
            q_b = q_col[bursty]
            var = t_b * q_b * (1.0 - q_b) / burst_len[rows][bursty, None]
            noisy = np.rint(t_b * q_b
                            + rng.standard_normal(t_b.shape) * np.sqrt(var))
            draws[bursty] = np.clip(noisy, 0, t_b).astype(draws.dtype)
        deliveries += draws
        offered += dealt
        if rateless:
            distinct = deliveries
        else:
            revs = offered / n_b[None, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                q_hat = np.where(offered > 0, deliveries / offered, 0.0)
                corrected = n_b[None, :] * -np.expm1(
                    revs * np.log1p(-np.minimum(q_hat, 1.0 - 1e-12)))
            distinct = np.where(revs > 1.0, corrected, deliveries)
        done = distinct >= thresholds[rows]
        newly = done.all(axis=1)
        if newly.any():
            idx = np.nonzero(newly)[0]
            gained = np.maximum(distinct[idx] - prev_distinct[idx], 1e-12)
            frac = np.where(prev_distinct[idx] < thresholds[rows[idx]],
                            (thresholds[rows[idx]] - prev_distinct[idx])
                            / gained, 0.0)
            fraction = np.clip(frac.max(axis=1), 0.0, 1.0)
            before = (deliveries[idx] - draws[idx]).sum(axis=1)
            got = before + fraction * draws[idx].sum(axis=1)
            out = rows[idx]
            received[out] = got
            overhead[out] = got / total_k - 1.0
            done_slot[out] = (sweep + fraction) * total_k
            completed[out] = True
            keep = ~newly
            rows = rows[keep]
            deliveries = deliveries[keep]
            offered = offered[keep]
            distinct = distinct[keep]
        prev_distinct = distinct.copy()
    return {"overhead": overhead, "received": received,
            "done_slot": done_slot, "completed": completed}


def _simulate_chunk(payload: Tuple) -> Dict[str, np.ndarray]:
    """Top-level worker entry point (must be picklable)."""
    scenario_dict, pop, thresholds, k_b, n_b, rateless, tag = payload
    scenario = Scenario.from_dict(scenario_dict)
    return _run_rows(scenario, pop, thresholds, k_b, n_b, rateless, tag)


# -- results -------------------------------------------------------------------


def _percentile(values: np.ndarray, q: float) -> Optional[float]:
    if values.size == 0:
        return None
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class SpotCheckResult:
    """Agreement between the structural model and exact replays.

    ``structural_overhead`` holds the vectorized model's per-receiver
    overheads for the sampled ids; ``replay_overhead`` the exact
    :class:`~repro.transfer.client.TransferClient` replays of the same
    receivers (fresh loss realizations, identical loss *parameters*),
    so agreement is distributional: the sample means should match.
    """

    receiver_ids: np.ndarray
    structural_overhead: np.ndarray
    replay_overhead: np.ndarray
    replay_completed: np.ndarray
    #: default agreement tolerance (``agrees(tolerance=...)`` overrides).
    tolerance: float = 0.05

    @property
    def structural_mean(self) -> float:
        values = self.structural_overhead
        return float(np.nanmean(values)) if values.size else float("nan")

    @property
    def replay_mean(self) -> float:
        values = self.replay_overhead[self.replay_completed]
        return float(values.mean()) if values.size else float("nan")

    @property
    def mean_difference(self) -> float:
        return abs(self.structural_mean - self.replay_mean)

    @property
    def noise_scale(self) -> float:
        """Standard error of the mean difference under sampling noise.

        Both sides are sample means of per-receiver overheads; with a
        heavy-tailed overhead distribution a small sample's means can
        differ substantially even when the model is exact, so agreement
        must be judged against this scale, not zero.

        The design is *paired* — the same sampled receivers, sharing
        deterministic attributes (loss parameters, trace identity and
        offset, join/leave), appear on both sides — so the standard
        error of the paired differences is the correct estimator; the
        unpaired two-sample formula ignores the shared per-receiver
        attributes and is only a fallback when the completion patterns
        leave too few pairs to difference.
        """
        struct_done = ~np.isnan(self.structural_overhead)
        paired = struct_done & self.replay_completed
        if np.count_nonzero(paired) >= 2:
            diff = (self.structural_overhead[paired]
                    - self.replay_overhead[paired])
            return float(np.sqrt(diff.var() / diff.size))
        s = self.structural_overhead[struct_done]
        r = self.replay_overhead[self.replay_completed]
        if s.size < 2 or r.size < 2:
            return float("inf")
        return float(np.sqrt(s.var() / s.size + r.var() / r.size))

    def agrees(self, tolerance: Optional[float] = None) -> bool:
        """True when the means agree within ``tolerance`` (defaulting
        to :attr:`tolerance`) or within twice the
        sampling-noise scale, whichever is looser.

        The completion patterns must agree first: if the model and the
        replays disagree grossly on *whether* the sampled receivers
        finish at all, no overhead comparison can rescue that.  At
        least two completed replays (and two structural completions)
        are needed to estimate the noise scale — smaller samples
        cannot establish agreement and fail the check.
        """
        if tolerance is None:
            tolerance = self.tolerance
        struct_done = ~np.isnan(self.structural_overhead)
        done_gap = abs(float(struct_done.mean())
                       - float(self.replay_completed.mean()))
        if done_gap > 0.25:
            return False
        if not struct_done.any() and not self.replay_completed.any():
            return True  # both sides agree: nobody completes
        if not np.isfinite(self.noise_scale):
            return False
        bound = max(tolerance, 2.0 * self.noise_scale)
        return bool(self.mean_difference <= bound)

    def to_dict(self) -> dict:
        return {
            "sample_size": int(self.receiver_ids.size),
            "structural_mean_overhead": self.structural_mean,
            "replay_mean_overhead": self.replay_mean,
            "mean_difference": self.mean_difference,
            "noise_scale": self.noise_scale,
            "replay_completed": int(self.replay_completed.sum()),
        }


@dataclass
class SwarmResult:
    """Per-receiver outcomes plus aggregate views of one swarm run."""

    scenario: Scenario
    overhead: np.ndarray
    received: np.ndarray
    completion_slot: np.ndarray
    completed: np.ndarray
    group_index: np.ndarray
    total_k: int
    elapsed: float
    spot_check: Optional[SpotCheckResult] = None

    @property
    def receivers(self) -> int:
        return int(self.overhead.size)

    @property
    def completion_rate(self) -> float:
        return float(self.completed.mean())

    @property
    def receivers_per_second(self) -> float:
        return self.receivers / self.elapsed if self.elapsed > 0 else 0.0

    def overhead_percentile(self, q: float) -> Optional[float]:
        """Percentile of reception overhead over *completed* receivers."""
        return _percentile(self.overhead[self.completed], q)

    def overhead_cdf(self, points: int = 50
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """(overhead grid, fraction of completed receivers at or below)."""
        values = np.sort(self.overhead[self.completed])
        if values.size == 0:
            return np.array([]), np.array([])
        grid = np.linspace(values[0], values[-1], points)
        frac = np.searchsorted(values, grid, side="right") / values.size
        return grid, frac

    def group_summaries(self) -> List[dict]:
        out = []
        for gi, group in enumerate(self.scenario.groups):
            mask = self.group_index == gi
            done = mask & self.completed
            values = self.overhead[done]
            out.append({
                "group": group.name,
                "receivers": int(mask.sum()),
                "completion_rate": (float(done.sum() / mask.sum())
                                    if mask.any() else 0.0),
                "overhead_p50": _percentile(values, 50),
                "overhead_p99": _percentile(values, 99),
            })
        return out

    def summary(self) -> dict:
        """The aggregate dict the CLI and benchmarks report."""
        values = self.overhead[self.completed]
        slots = self.completion_slot[self.completed]
        out = {
            "scenario": self.scenario.name,
            "code": self.scenario.code,
            "schedule": self.scenario.schedule,
            "receivers": self.receivers,
            "num_blocks": self.scenario.plan().num_blocks,
            "total_k": self.total_k,
            "completed": int(self.completed.sum()),
            "completion_rate": self.completion_rate,
            "overhead_mean": (float(values.mean()) if values.size
                              else None),
            "overhead_p50": _percentile(values, 50),
            "overhead_p90": _percentile(values, 90),
            "overhead_p99": _percentile(values, 99),
            "overhead_max": (float(values.max()) if values.size else None),
            "completion_sweeps_p50": (
                _percentile(slots, 50) / self.total_k if slots.size
                else None),
            "completion_sweeps_p99": (
                _percentile(slots, 99) / self.total_k if slots.size
                else None),
            "elapsed_seconds": self.elapsed,
            "receivers_per_second": self.receivers_per_second,
            "groups": self.group_summaries(),
        }
        if self.spot_check is not None:
            out["spot_check"] = self.spot_check.to_dict()
        return out


# -- exact replay --------------------------------------------------------------


def replay_receivers(scenario: Scenario,
                     receiver_ids: Sequence[int],
                     population: Optional[_Population] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-packet replays through the real transfer client.

    For each receiver id: cross the striped stream's slots through a
    channel over its own loss process, honour join/leave and rate
    thinning, and feed the surviving ``(block, index)`` pairs — one
    counter-exact ``receive_window`` — to a payload-less
    :class:`~repro.transfer.client.TransferClient` backed by real
    incremental decoders.  Returns ``(overhead, completed)`` arrays
    aligned with ``receiver_ids``.
    """
    pop = population if population is not None else _materialize(scenario)
    plan = scenario.plan()
    codec = ObjectCodec(plan, code=scenario.code, seed=scenario.seed)
    total_k = plan.total_packets
    limit = scenario.max_sweeps * total_k
    # Shared across receivers: what every slot of the stream carries,
    # asked of the structural server (no data, ids only).
    slot_block, slot_index, _ = TransferServer(
        codec, schedule=scenario.schedule, seed=scenario.seed).window(limit)

    overhead = np.full(len(receiver_ids), np.nan)
    completed = np.zeros(len(receiver_ids), dtype=bool)
    for i, rid in enumerate(receiver_ids):
        rid = int(rid)
        rng = np.random.default_rng(
            [int(scenario.seed) & 0x7FFFFFFF, _REPLAY_STREAM, rid])
        delivered = LossyChannel(pop.loss_model(rid), rng).delivery_mask(limit)
        if pop.rate[rid] < 1.0:
            delivered &= rng.random(limit) < pop.rate[rid]
        lo = int(np.ceil(pop.join[rid]))
        hi = limit if np.isinf(pop.leave[rid]) \
            else min(limit, int(pop.leave[rid]))
        delivered[:lo] = False
        delivered[hi:] = False
        client = TransferClient(codec, payload_size=None)
        got = client.receive_window(slot_block[delivered],
                                    slot_index[delivered])
        completed[i] = client.is_complete
        if completed[i]:
            overhead[i] = got / total_k - 1.0
    return overhead, completed


# -- the simulator -------------------------------------------------------------


class SwarmSimulator:
    """Vectorised population-scale simulation of one :class:`Scenario`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.plan = scenario.plan()

    def _thresholds(self, pop: _Population
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Per-(receiver, block) decode thresholds plus block geometry.

        Rateless pools thin at the population's own effective
        droplet-loss rates (channel loss plus rate-tier thinning), so
        the threshold mixture each receiver draws from matches the id
        patterns the population actually collects.
        """
        effective_loss = 1.0 - (1.0 - pop.loss_rate) * pop.rate
        k_b, n_b, pools, rateless = _threshold_tables(
            self.scenario, effective_loss)
        rng = spawn_rng(self.scenario.seed, _CHOICE_STREAM)
        choice = rng.integers(0, pools.shape[1],
                              size=(pop.size, pools.shape[0]))
        thresholds = pools[np.arange(pools.shape[0])[None, :], choice]
        return k_b, n_b, thresholds, rateless

    def run(self, workers: Optional[int] = None,
            spot_check: int = 0,
            policy: Optional[AdaptivePolicy] = None) -> SwarmResult:
        """Simulate the whole population.

        ``workers`` > 1 fans receiver ranges out over a process pool
        (the population and thresholds are materialised once, so every
        worker simulates the same receivers it would single-process).
        ``spot_check`` replays that many sampled receivers through the
        exact transfer client and attaches a :class:`SpotCheckResult`
        (``agrees(tolerance=...)`` overrides its default bar).

        ``policy`` closes the loop on the same engine
        (:func:`_run_rows`): each sweep the population's aggregated
        block deficits drive the policy's schedule lever; without one
        every sweep is dealt proportionally — the paper's open loop.
        A closed loop is single-process (the policy must see every
        receiver's deficits) and has no exact-replay counterpart, so it
        rejects ``workers`` > 1 and ``spot_check``.
        """
        start = time.perf_counter()
        scenario = self.scenario
        pop = _materialize(scenario)
        k_b, n_b, thresholds, rateless = self._thresholds(pop)
        if policy is not None:
            if workers is not None and workers > 1:
                raise ParameterError(
                    "closed-loop runs are single-process: the policy "
                    "aggregates the whole population every sweep")
            if spot_check > 0:
                raise ParameterError(
                    "spot_check replays the open-loop schedule and "
                    "cannot validate a closed-loop run")
        if workers is not None and workers > 1:
            chunks = self._chunk_ranges(pop.size, workers)
            payloads = [(scenario.to_dict(), pop.rows(lo, hi),
                         thresholds[lo:hi], k_b, n_b, rateless, lo)
                        for lo, hi in chunks]
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers) as pool_exec:
                parts = list(pool_exec.map(_simulate_chunk, payloads))
            merged = {key: np.concatenate([p[key] for p in parts])
                      for key in parts[0]}
        else:
            merged = _run_rows(scenario, pop, thresholds, k_b, n_b,
                               rateless, 0, policy)
        result = SwarmResult(
            scenario=scenario,
            overhead=merged["overhead"],
            received=merged["received"],
            completion_slot=merged["done_slot"],
            completed=merged["completed"],
            group_index=pop.group_index,
            total_k=int(k_b.sum()),
            elapsed=time.perf_counter() - start,
        )
        if spot_check > 0:
            rng = spawn_rng(scenario.seed, _SPOT_STREAM)
            ids = rng.choice(pop.size, size=min(spot_check, pop.size),
                             replace=False)
            replay_oh, replay_done = replay_receivers(scenario, ids,
                                                      population=pop)
            result.spot_check = SpotCheckResult(
                receiver_ids=ids,
                structural_overhead=result.overhead[ids],
                replay_overhead=replay_oh,
                replay_completed=replay_done,
            )
        return result

    @staticmethod
    def _chunk_ranges(size: int, workers: int) -> List[Tuple[int, int]]:
        bounds = np.linspace(0, size, workers + 1).astype(int)
        return [(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def run_scenario(scenario: Union[Scenario, str, pathlib.Path],
                 workers: Optional[int] = None,
                 spot_check: int = 0,
                 receivers: Optional[int] = None,
                 policy: Optional[AdaptivePolicy] = None) -> SwarmResult:
    """One-call swarm run: scenario object or JSON file path in,
    :class:`SwarmResult` out.  ``receivers`` rescales the population
    proportionally (quick smoke runs of committed scenarios);
    ``policy`` runs the closed loop instead of the open one."""
    if not isinstance(scenario, Scenario):
        scenario = Scenario.load(scenario)
    if receivers is not None:
        scenario = scenario.scaled(receivers)
    return SwarmSimulator(scenario).run(workers=workers,
                                        spot_check=spot_check,
                                        policy=policy)
