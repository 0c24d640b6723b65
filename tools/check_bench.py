#!/usr/bin/env python
"""check_bench: the perf-regression gate over ``BENCH_*.json`` summaries.

Compares freshly produced benchmark summaries against committed
baselines, metric by metric, with per-metric tolerance rules:

* *config echoes* (``family``, ``num_blocks``, ``receivers``, ...) must
  match exactly — drift means the benchmark is no longer measuring the
  same thing, which would silently invalidate every other comparison;
* *quality metrics* (reception overhead, completion rate) gate the
  direction that means a regression, with tight absolute+relative
  tolerances — these are deterministic for seeded runs, so honest runs
  sit well inside the bounds;
* *timing metrics* (seconds, throughput, packets/receivers per second)
  are reported, never gated: each is one absolute reading, and the
  baseline's was taken on another machine, so comparing them measures
  the hardware — the same-process ratios below carry every perf
  contract;
* *floored metrics* (the batched-ingest rate over one XOR pass)
  additionally carry an absolute minimum that fails regardless of the
  baseline — same-machine ratios don't wobble with hardware, so the win
  itself is the contract;
* a case or metric present in the baseline but missing from the fresh
  run is a regression (coverage must not silently shrink); new cases
  and metrics are reported but pass;
* *case floors* (``CASE_FLOORS``) pin one metric of one named case to
  an absolute minimum on the fresh payload — hard perf contracts (the
  batch-size-1 ingest rate over one XOR pass, the chunked systematic
  scan's, the structural Raptor rank test's and the
  closed-form Cauchy inverse's leads over what they replaced) that must
  hold regardless of what the baseline drifted to; every one is a
  same-process ratio, never an absolute rate, so none depends on the
  machine;
* *cross-case claims* (``CROSS_CASE_RULES``) are one-sided inequalities
  between two cases of the same fresh summary — e.g. the systematic
  Raptor claim that its p99 reception overhead undercuts the plain-LT
  p90 on the identical trace population.  These gate the *claim*
  itself, not drift against a baseline, so they are evaluated on the
  fresh payload alone; a missing case or metric fails the rule.

Baselines come from ``git show <rev>:<file>`` by default (``--baseline-git
HEAD``), so the gate runs after a bench pass has overwritten the
worktree copies; ``--baseline-dir`` points at a directory of saved
baselines instead (used by the unit tests).  Exits non-zero on any
regression, printing one line per offending metric.

Usage::

    make bench-smoke                # regenerates BENCH_*.json
    python tools/check_bench.py     # gate vs the committed (HEAD) copies
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: floors of the two ingest ratios over one plain XOR pass (LT, k=128,
#: 1 KiB packets; ``benchmarks/bench_decode_ingest.py``): half of what
#: each first measured, on the 256-droplet batch and one droplet per
#: call.
BATCHED_INGEST_FLOOR = 0.021
SINGLE_INGEST_FLOOR = 0.0176

#: metrics that echo benchmark configuration; any drift fails the gate.
CONFIG_KEYS = {
    "case", "module", "family", "code", "schedule", "construction",
    "block_packets", "num_blocks", "file_size", "packet_size",
    "loss", "k", "n", "receivers", "blocks", "destinations",
}

#: ordered (pattern, direction, rule) — first match wins.  ``report``
#: metrics (absolute timings, single-shot and machine-bound) are printed
#: beside their baseline and never fail; ``factor`` rules (same-process
#: ratios, higher is better) allow that multiplicative worsening before
#: failing; ``abs_tol``/``rel_tol`` rules allow
#: ``max(abs_tol, rel_tol * |baseline|)`` of worsening.
METRIC_RULES: List[Tuple[str, str, Dict[str, float]]] = [
    (r"(seconds|elapsed|_ms$|_s$)", "report", {}),
    (r"(throughput|mbps|per_sec|per_second|goodput|pkt_s|pps)",
     "report", {}),
    # The batched-intake headline: LT bulk decode MB/s over the MB/s of
    # one plain XOR pass over the same block, timed in the same process,
    # with an absolute floor at half the ratio first measured
    # (BATCHED_INGEST_FLOOR in benchmarks/bench_decode_ingest.py).
    (r"batched_ingest_vs_xor", "higher", {"factor": 2.0,
                                          "floor": BATCHED_INGEST_FLOOR}),
    # same-process ratios — ``speedup``: a kernel over the one it
    # replaced; ``_vs_xor``: a codec rate over one plain XOR pass on the
    # same bytes — so a tight factor locks the win in.
    (r"(speedup|_vs_xor)", "higher", {"factor": 2.0}),
    (r"overhead", "lower", {"abs_tol": 0.05, "rel_tol": 0.5}),
    (r"(completion|efficiency|eta|rate)", "higher",
     {"abs_tol": 0.02, "rel_tol": 0.05}),
]

#: fallback for unclassified numeric metrics: generous two-sided drift.
DEFAULT_RULE = ("both", {"abs_tol": 1e-9, "rel_tol": 0.5})

#: absolute per-case floors, evaluated on the fresh payload alone:
#: ``(file, case, metric, floor, claim)`` fails whenever the fresh
#: value dips below ``floor``.  Unlike the pattern-matched metric rules
#: these name one case, so the same metric can carry a hard contract in
#: one row and stay advisory elsewhere.
CASE_FLOORS: List[Tuple[str, str, str, float, str]] = [
    # One droplet per call keeps its pace: the per-row routes for tiny
    # batches (``LTDecoder._enter``'s neighbour walk and
    # ``PeelingEngine.add_equations``) hold LT decode at one droplet per
    # call to a rate in plain XOR passes over the block, floored at half
    # the ratio first measured.
    ("BENCH_transfer.json", "ingest-lt-k128-b1", "ingest_vs_xor",
     SINGLE_INGEST_FLOOR,
     "batch-size-1 ingest fell towards one engine call per droplet"),
    # Raptor cold start: at the block size every end-to-end workload
    # runs, the chunked systematic scan must hold >= 3x the per-ESI
    # scan it replaced (same process, same spec; measured ~8x).
    ("BENCH_raptor.json", "raptor-geometry-build-k256", "scan_speedup", 3.0,
     "the systematic scan fell back towards one droplet at a time"),
    # A structural Raptor decode is a rank test over the missing source
    # packets: at k = 256 it must hold >= 2.2x the peeling engine on
    # the same 20 %-loss id stream (same process, same completing
    # packet asserted; half of the ~4.5x first measured).
    ("BENCH_raptor.json", "raptor-structural-decode-k256", "rank_speedup",
     2.2, "the structural Raptor decoder fell back towards the engine"),
    # The Tornado cap inverts its x-by-x Cauchy system by formula: at
    # x = 64 the closed form must hold >= 3x Gauss-Jordan on the same
    # submatrix (same process, equal inverses asserted in-bench;
    # measured ~15x).
    ("BENCH_transfer.json", "cap-inverse-x64", "closed_form_speedup", 3.0,
     "the cap's Cauchy inverse fell back towards elimination"),
]

#: one-sided claims between two cases of one summary file, evaluated on
#: the fresh payload alone:
#: ``(file, (case_a, metric_a), op, ratio, (case_b, metric_b), claim)``
#: asserts ``a <op> ratio * b``.  Overhead claims are deterministic for
#: seeded runs, so the ratio is exact; throughput claims compare two
#: rows of one process with a generous ratio (shared CI hardware
#: wobbles, but a same-machine ratio collapse is a real regression).
CROSS_CASE_RULES: List[Tuple[str, Tuple[str, str], str, float,
                             Tuple[str, str], str]] = [
    # The constant-overhead headline: on the identical mobile-trace
    # population, the systematic Raptor swarm's p99 reception overhead
    # must undercut the plain-LT swarm's p90 — its tail sits below the
    # LT population's upper decile.  1,000 real-decoder replays per
    # case at 4,000 receivers read Raptor p99 0.265 [0.244, 0.288]
    # against LT p90 0.335 [0.316, 0.360] (bootstrap 95 % intervals,
    # clear of each other); LT's median, 0.188 [0.183, 0.194], sits
    # below the Raptor p99, so the stronger p99-vs-p50 claim does not
    # hold on exact receivers.
    ("BENCH_swarm.json", ("raptor-traces", "overhead_p99"), "<=", 1.0,
     ("mobile-traces", "overhead_p90"),
     "systematic Raptor p99 overhead must undercut the LT p90"),
    # Raptor decode must stay LT-class: the two-stage decoder (precode
    # constraints + inactivation) may not cost more than 4x plain LT
    # ingest.
    ("BENCH_transfer.json",
     ("raw-raptor-k128", "decode_MBps"), ">=", 0.25,
     ("raw-lt-k128", "decode_MBps"),
     "raptor decode fell out of LT-class"),
    # The cached-plan encode path: raw raptor encode (pre-solve included)
    # must stay within 2x of plain LT encode — the pre-plan
    # implementation sat at ~4x behind.
    ("BENCH_transfer.json",
     ("raw-raptor-k128", "encode_MBps"), ">=", 0.5,
     ("raw-lt-k128", "encode_MBps"),
     "raptor encode fell out of the LT/2 class (cached solve plans)"),
    # Decode when it can finish: every native decoder banks arrivals
    # until its system is square, so cutting the same stream one packet
    # at a time may cost at most half the rate of 256 per call (it was
    # 0.26 of it when every call did engine work).  Both rows come from
    # one process, seconds apart — a ratio, not a rate.
    ("BENCH_transfer.json",
     ("ingest-lt-k128-b1", "decode_MBps"), ">=", 0.5,
     ("ingest-lt-k128-b256", "decode_MBps"),
     "LT ingest one droplet at a time fell below half the batched rate"),
    ("BENCH_transfer.json",
     ("ingest-tornado-b-k256-b1", "decode_MBps"), ">=", 0.5,
     ("ingest-tornado-b-k256-b256", "decode_MBps"),
     "Tornado ingest one packet at a time fell below half the batched "
     "rate"),
    # One synthesis pass per window: a 512-emission LT record window
    # over 16 blocks may cost little more than one over a single block
    # (same process, alternated).  Per-block synthesis read 0.34-0.62 of
    # the one-block rate; one cross-block pass reads 0.77-0.94, the gap
    # left being the 16-block stack's L3 reads (4 MiB against 256 KiB).
    ("BENCH_transfer.json",
     ("window-lt-k256-b16", "encode_MBps"), ">=", 0.7,
     ("window-lt-k256-b1", "encode_MBps"),
     "a record window over 16 blocks fell back towards one synthesis "
     "batch per block"),
    # The shape of the paper's Tables 2-3 as a same-process ratio: at
    # k = 256 (one graph layer over the cap; at k = 128 a Tornado B
    # code *is* its Reed-Solomon cap) Tornado decodes a block several
    # times faster than whole-block Reed-Solomon.  Measured once at
    # ~12x, pinned at half the reading.
    ("BENCH_transfer.json",
     ("raw-tornado-b-k256", "decode_MBps"), ">=", 6.0,
     ("raw-rs-k256", "decode_MBps"),
     "Tornado decode lost its margin over Reed-Solomon at k = 256"),
    # The closed-loop headline: on the identical Gilbert satellite
    # population (LT-coded, packet-for-packet fair slot budgets), the
    # feedback-driven adaptive sender's p99 reception overhead must
    # undercut the open-loop carousel's p99 by at least 15%.  Seeded
    # sweeps are deterministic, so the ratio is exact.
    ("BENCH_adaptive.json",
     ("adaptive-gilbert", "overhead_p99"), "<=", 0.85,
     ("openloop-gilbert", "overhead_p99"),
     "adaptive closed loop lost its >=15% p99 win"),
]


class Regression:
    """One failed comparison, with enough context to act on."""

    def __init__(self, file: str, case: str, metric: str, detail: str):
        self.file = file
        self.case = case
        self.metric = metric
        self.detail = detail

    def __str__(self) -> str:
        return (f"REGRESSION {self.file} [{self.case}] {self.metric}: "
                f"{self.detail}")


def classify(metric: str) -> Tuple[str, Dict[str, float]]:
    """The comparison rule for one metric name."""
    if metric in CONFIG_KEYS:
        return ("exact", {})
    lowered = metric.lower()
    for pattern, direction, rule in METRIC_RULES:
        if re.search(pattern, lowered):
            return (direction, rule)
    return DEFAULT_RULE


def _allowance(baseline: float, rule: Dict[str, float]) -> float:
    return max(rule.get("abs_tol", 0.0),
               rule.get("rel_tol", 0.0) * abs(baseline))


def compare_metric(metric: str, baseline: Any, current: Any
                   ) -> Optional[str]:
    """None when ``current`` passes against ``baseline``, else a reason."""
    direction, rule = classify(metric)
    if direction == "exact" or not isinstance(baseline, (int, float)) \
            or isinstance(baseline, bool):
        if baseline != current:
            return (f"configuration drift: baseline {baseline!r} != "
                    f"current {current!r}")
        return None
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        return f"baseline is numeric ({baseline!r}), current is {current!r}"
    if direction == "report":
        return None
    if "floor" in rule and current < rule["floor"]:
        return (f"{current} is below the absolute floor of "
                f"{rule['floor']:g} (hard perf gate)")
    if "factor" in rule:
        # every factor rule is a higher-is-better same-process ratio
        factor = rule["factor"]
        if current < baseline / factor:
            return (f"{current} fell below 1/{factor:g} of the baseline "
                    f"{baseline} (ratio gate)")
        return None
    allowed = _allowance(float(baseline), rule)
    delta = float(current) - float(baseline)
    if direction == "lower" and delta > allowed:
        return (f"worsened by {delta:+.4g} (baseline {baseline}, "
                f"current {current}, allowed +{allowed:.4g})")
    if direction == "higher" and -delta > allowed:
        return (f"worsened by {delta:+.4g} (baseline {baseline}, "
                f"current {current}, allowed -{allowed:.4g})")
    if direction == "both" and abs(delta) > allowed:
        return (f"drifted by {delta:+.4g} (baseline {baseline}, "
                f"current {current}, allowed ±{allowed:.4g})")
    return None


def _rows_by_case(payload: dict, origin: str) -> Dict[str, dict]:
    rows = payload.get("results")
    if not isinstance(rows, list):
        raise SystemExit(f"error: {origin} has no 'results' list")
    return {row["case"]: row for row in rows}


def compare_payloads(file_name: str, baseline: dict, current: dict
                     ) -> Tuple[List[Regression], List[str]]:
    """All regressions plus informational notes for one summary file."""
    regressions: List[Regression] = []
    notes: List[str] = []
    base_rows = _rows_by_case(baseline, f"baseline {file_name}")
    cur_rows = _rows_by_case(current, f"current {file_name}")
    for case, base_row in sorted(base_rows.items()):
        cur_row = cur_rows.get(case)
        if cur_row is None:
            regressions.append(Regression(
                file_name, case, "-", "case missing from the fresh run"))
            continue
        for metric, base_value in sorted(base_row.items()):
            if metric == "case":
                continue
            if metric not in cur_row:
                regressions.append(Regression(
                    file_name, case, metric,
                    "metric missing from the fresh run"))
                continue
            reason = compare_metric(metric, base_value, cur_row[metric])
            if reason is not None:
                regressions.append(
                    Regression(file_name, case, metric, reason))
            elif classify(metric)[0] == "report":
                notes.append(f"report: {file_name} [{case}] {metric}: "
                             f"{cur_row[metric]} (baseline {base_value})")
        for metric in sorted(set(cur_row) - set(base_row)):
            notes.append(f"note: {file_name} [{case}] new metric {metric}")
    for case in sorted(set(cur_rows) - set(base_rows)):
        notes.append(f"note: {file_name} new case {case}")
    return regressions, notes


def check_case_floors(file_name: str, current: dict) -> List[Regression]:
    """Evaluate every :data:`CASE_FLOORS` entry for one summary."""
    regressions: List[Regression] = []
    rows = _rows_by_case(current, f"current {file_name}")
    for rule_file, case, metric, floor, claim in CASE_FLOORS:
        if rule_file != file_name:
            continue
        row = rows.get(case)
        value = None if row is None else row.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            regressions.append(Regression(
                file_name, case, metric,
                f"case floor needs this metric, got {value!r} ({claim})"))
            continue
        if value < floor:
            regressions.append(Regression(
                file_name, case, metric,
                f"{value} is below the absolute floor of {floor:g}: "
                f"{claim}"))
    return regressions


def check_cross_cases(file_name: str, current: dict
                      ) -> List[Regression]:
    """Evaluate every :data:`CROSS_CASE_RULES` entry for one summary."""
    regressions: List[Regression] = []
    rows = _rows_by_case(current, f"current {file_name}")
    for rule_file, (case_a, metric_a), op, ratio, (case_b, metric_b), \
            claim in CROSS_CASE_RULES:
        if rule_file != file_name:
            continue
        values = []
        for case, metric in ((case_a, metric_a), (case_b, metric_b)):
            row = rows.get(case)
            value = None if row is None else row.get(metric)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                regressions.append(Regression(
                    file_name, case, metric,
                    f"cross-case rule needs this metric, got {value!r} "
                    f"({claim})"))
                value = None
            values.append(value)
        a, b = values
        if a is None or b is None:
            continue
        bound = ratio * float(b)
        failed = a > bound if op == "<=" else a < bound
        if failed:
            regressions.append(Regression(
                file_name, case_a, metric_a,
                f"{a} violates {metric_a} {op} {ratio:g} * "
                f"{case_b}.{metric_b} (= {bound:.4g}): {claim}"))
    return regressions


def _git_baseline(rev: str, file_name: str) -> Optional[dict]:
    proc = subprocess.run(
        ["git", "show", f"{rev}:{file_name}"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def iter_comparisons(current_dir: pathlib.Path,
                     baseline_dir: Optional[pathlib.Path],
                     baseline_git: str,
                     pattern: str) -> Iterator[Tuple[str, dict, dict]]:
    """Yield ``(file_name, baseline_payload, current_payload)`` pairs."""
    names = sorted(p.name for p in current_dir.glob(pattern)
                   if p.name != "BENCH_runinfo.json")
    if not names:
        raise SystemExit(
            f"error: no {pattern} files in {current_dir} — run the "
            "benchmarks first (make bench-smoke)")
    for name in names:
        if baseline_dir is not None:
            base_path = baseline_dir / name
            if not base_path.exists():
                print(f"note: no baseline for {name}; skipping")
                continue
            baseline = json.loads(base_path.read_text())
        else:
            baseline = _git_baseline(baseline_git, name)
            if baseline is None:
                print(f"note: {name} not committed at {baseline_git}; "
                      "skipping")
                continue
        current = json.loads((current_dir / name).read_text())
        yield name, baseline, current


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh BENCH_*.json summaries regress "
                    "against their committed baselines")
    parser.add_argument("--current-dir", type=pathlib.Path,
                        default=REPO_ROOT,
                        help="directory holding the fresh summaries "
                             "(default: the repo root)")
    parser.add_argument("--baseline-dir", type=pathlib.Path, default=None,
                        help="directory of baseline summaries (overrides "
                             "--baseline-git)")
    parser.add_argument("--baseline-git", default="HEAD",
                        help="git revision to read baselines from "
                             "(default: HEAD)")
    parser.add_argument("--pattern", default="BENCH_*.json",
                        help="summary file glob (default: BENCH_*.json)")
    args = parser.parse_args(argv)

    all_regressions: List[Regression] = []
    compared = 0
    for name, baseline, current in iter_comparisons(
            args.current_dir, args.baseline_dir, args.baseline_git,
            args.pattern):
        regressions, notes = compare_payloads(name, baseline, current)
        regressions.extend(check_case_floors(name, current))
        regressions.extend(check_cross_cases(name, current))
        for note in notes:
            print(note)
        cases = len(_rows_by_case(baseline, name))
        compared += 1
        if regressions:
            for regression in regressions:
                print(regression)
        else:
            print(f"ok   {name}: {cases} case(s) within tolerance")
        all_regressions.extend(regressions)
    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s) across "
              f"{compared} summary file(s)")
        return 1
    if compared == 0:
        print("error: no summaries had a baseline to compare against — "
              "the gate checked nothing")
        return 1
    print(f"all {compared} summary file(s) pass the perf gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
