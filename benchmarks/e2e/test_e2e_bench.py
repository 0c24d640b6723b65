"""Harness tests for the end-to-end benchmark: estimators on synthetic
data, the span recorder, and ``--quick`` runs of every workload.

No timing assertions anywhere — these catch harness rot (a renamed
callable the tracer patches, a metric missing from ``BENCHMARK.json``,
a leaked socket or temp dir), not performance.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import pathlib
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import e2e_spans  # noqa: E402
import e2e_stats  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)
wl = e2e_run.wl

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def loopback_udp():
    """Skip where a loopback UDP socket cannot be bound (sandboxes
    without a network namespace)."""
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.bind(("127.0.0.1", 0))
    except OSError as exc:
        pytest.skip(f"loopback UDP unavailable: {exc}")


def _quick(name, seed=7, trace=False):
    return e2e_run.run_one(name, seed, 1.0, trace, True, out=io.StringIO())


def _has_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


# -- calibration and estimators ------------------------------------------------


def test_best_quarter_ignores_one_sided_noise():
    rng = random.Random(5)
    clean = 10.0
    # two thirds of the repetitions are slowed by up to 60 %
    seconds = [clean * (1.0 + (rng.random() * 0.6 if i % 3 else 0.0))
               for i in range(32)]
    assert e2e_stats.best_quarter(seconds) == pytest.approx(clean, rel=0.03)
    # the median is what the best quarter is protecting against
    assert statistics.median(seconds) > clean * 1.1


def test_best_quarter_keeps_at_least_two_samples():
    assert e2e_stats.best_quarter([3.0, 1.0, 2.0]) == 1.5
    assert e2e_stats.best_quarter([3.0]) == 3.0
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.best_quarter([])


def test_normalisation_cancels_a_common_slowdown_exactly():
    base_seconds = [0.5, 0.52, 0.51, 0.55, 0.5, 0.53, 0.5, 0.56]
    slow = [s * 1.3 for s in base_seconds]
    reference = e2e_stats.summarise(base_seconds, [1.0] * 8)
    slowed = e2e_stats.summarise(slow, [1.3] * 8)
    assert slowed["value"] == pytest.approx(reference["value"], rel=1e-12)
    assert slowed["median"] == pytest.approx(reference["median"], rel=1e-12)
    assert slowed["raw"] == pytest.approx(reference["raw"] * 1.3, rel=1e-12)
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.summarise(slow, [1.3] * 7)
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.summarise(slow, [0.0] * 8)


def test_speed_factor_is_relative_to_the_reference():
    ref = e2e_stats.CAL_REF_S
    assert e2e_stats.speed_factor(ref, ref) == pytest.approx(1.0)
    assert e2e_stats.speed_factor(1.2 * ref, 1.4 * ref) == pytest.approx(1.3)
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.speed_factor(0.0, ref)


def test_zero_denominator_is_a_failure_not_inf():
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.ratio(4.0, 0.0)
    with pytest.raises(e2e_stats.MetricError):
        e2e_stats.spread([0.0, 0.0, 0.0])
    assert e2e_stats.ratio(4.0, 2.0) == 2.0


def test_spread_is_the_drivers_measure():
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 10.6, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert e2e_stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_calibrator_measures_and_releases_its_pipe():
    with e2e_stats.Calibrator() as calibrate:
        assert calibrate() > 0.0
        fds = (calibrate._read, calibrate._write)
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    calibrate.close()       # idempotent


def test_segment_clock_pairs_each_segment_with_the_passes_around_it():
    passes = iter([1.0, 1.0, 3.0, 1.0, 1.0])
    clock = wl.SegmentClock(wl._NoSpans(), lambda: next(passes))
    clock.start()
    clock.mark("send")      # passes 1.0 and 1.0
    clock.mark("recv")      # passes 1.0 and 3.0
    clock.start()           # fresh pass after untimed work: 1.0
    clock.mark("recv")      # passes 1.0 and 1.0
    assert [s.kind for s in clock.segments] == ["send", "recv", "recv"]
    ref = e2e_stats.CAL_REF_S
    assert [s.factor * ref for s in clock.segments] == pytest.approx(
        [1.0, 2.0, 1.0])
    assert all(s.seconds >= 0.0 for s in clock.segments)


def test_segments_are_estimated_one_by_one_then_added():
    def rep(*seconds):
        return wl.Repetition(segments=[
            wl.Segment("send", s, 1.0) for s in seconds])

    # each repetition is disturbed in a different segment; no whole
    # repetition is clean, every segment is clean in half of them
    reps = [rep(1.0, 3.0), rep(1.5, 2.0), rep(1.0, 3.0), rep(1.5, 2.0)]
    assert e2e_run._estimate(reps, "send")["value"] == pytest.approx(3.0)
    assert min(r.seconds("send") for r in reps) == pytest.approx(3.5)
    with pytest.raises(e2e_stats.MetricError):
        e2e_run._estimate(reps + [rep(1.0)], "send")
    with pytest.raises(e2e_stats.MetricError):
        e2e_run._estimate(reps, "recv")


# -- spans ---------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    tracer = e2e_spans.Tracer()
    tracer.keep_raw = True
    tracer.repetition = 3
    inner = tracer.wrap("inner", lambda: sum(range(2000)),
                        units=lambda: 5)
    with tracer.span("send"):
        with tracer.span("outer"):
            inner()
            inner()
    (calls, total, self_s) = tracer.agg[("send", "inner", "outer")]
    assert calls == 2 and total == pytest.approx(self_s)
    outer = tracer.agg[("send", "outer", "send")]
    assert outer[2] == pytest.approx(outer[1] - total)
    assert tracer.counts == {"send/inner.units": 10}
    everything = sum(row[2] for row in tracer.agg.values())
    assert everything == pytest.approx(tracer.agg[("send", "send", "")][1])
    raw = tracer.to_json()["raw_spans"]
    assert [s["name"] for s in raw] == ["send", "outer", "inner", "inner"]
    assert raw[2]["parent"] == raw[1]["id"] and raw[2]["repetition"] == 3
    assert raw[0]["start"] <= raw[1]["start"] <= raw[1]["end"] <= raw[0]["end"]


def test_materialise_drains_a_generator_inside_the_span():
    tracer = e2e_spans.Tracer()

    def frames(n):
        yield from range(n)

    wrapped = tracer.wrap("parse", frames, materialise=True)
    assert wrapped(3) == [0, 1, 2]
    assert tracer.calls("parse", "parse") == 1


def test_install_patches_where_callers_look_and_uninstall_restores():
    from repro.net.transport import base, udp
    from repro.codes.peeling import PeelingEngine

    before = (udp.pack_frame, udp.UdpTransport.serve,
              PeelingEngine.add_equations)
    tracer = e2e_spans.Tracer()
    undo = e2e_spans.install(tracer)
    try:
        assert udp.pack_frame is not before[0]
        assert base.pack_frame is before[0]     # only the caller's binding
        assert udp.pack_frame(1, b"ab") == base.pack_frame(1, b"ab")
        assert tracer.calls("net.base.frame", "net.base.frame") == 1
    finally:
        e2e_spans.uninstall(undo)
    assert (udp.pack_frame, udp.UdpTransport.serve,
            PeelingEngine.add_equations) == before


# -- the benchmark's own description -------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert "setup_s" in E2E_NAMES
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(set(E2E_NAMES + LAYER_NAMES)) == len(E2E_NAMES + LAYER_NAMES)


# -- quick runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_quick_run_delivers_and_cleans_up(name, loopback_udp):
    (e2e_run.OUT).mkdir(exist_ok=True)
    files_before = sorted(p.name for p in e2e_run.OUT.iterdir())
    children_before = _has_children()
    result = _quick(name)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + e2e_run.QUICK_REPS
    assert list(result["metrics"]) == E2E_NAMES
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0.0
    assert result["metrics"]["reception_ratio"]["value"] >= 1.0
    # process hygiene: one thread, no children, nothing left behind
    assert threading.active_count() == 1
    assert _has_children() == children_before
    assert sorted(p.name for p in e2e_run.OUT.iterdir()) == files_before


def test_reception_ratio_moves_with_the_seed(loopback_udp):
    # that it is exact for one seed is checked on every repetition of
    # every run: a trial whose packet count changes fails
    def ratio(seed):
        return _quick("udp-lt-lossy", seed)["metrics"]["reception_ratio"][
            "value"]

    assert ratio(7) != ratio(8)


def test_a_trial_that_changes_its_work_fails(monkeypatch, loopback_udp):
    real = wl.deliver
    calls = {"n": 0}

    def drifting(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == 3:
            rep.packets_used += 1
        return rep

    monkeypatch.setattr(wl, "deliver", drifting)
    out = io.StringIO()
    result = e2e_run.run_one("mem-raptor-lossy", 7, 1.0, False, True, out=out)
    assert result["failed"] == 1 and "same work" in out.getvalue()


def test_a_repetition_that_raises_is_counted_not_fatal(monkeypatch,
                                                       loopback_udp):
    real = wl.deliver
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise wl.DeliveryError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(wl, "deliver", flaky)
    out = io.StringIO()
    result = e2e_run.run_one("mem-raptor-lossy", 7, 1.0, False, True, out=out)
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 4)
    assert "injected" in out.getvalue()


def test_time_limit_fails_the_repetition():
    import time

    with pytest.raises(wl.DeliveryError):
        with wl.time_limit(0.05):
            time.sleep(5)


@pytest.mark.parametrize("name", ["udp-raptor-clean-p128",
                                  "mem-raptor-lossy"])
def test_quick_traced_run_reports_every_layer_metric(name, loopback_udp):
    from repro.net.transport.udp import UdpTransport

    serve = UdpTransport.serve
    result = _quick(name, trace=True)
    assert UdpTransport.serve is serve          # wrappers removed again
    assert result["correct"] is True
    assert list(result["metrics"]) == LAYER_NAMES
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.coverage"] > 0.5
    assert values["trace.overhead"] > 0.0
    udp_only = [k for k in values if k.startswith("net.udp.")]
    if name.startswith("udp-"):
        assert all(values[k] > 0 for k in udp_only
                   if k != "net.udp.malformed")
        assert values["net.memory.serve.us_per_pkt"] == 0.0
    else:
        assert all(values[k] == 0 for k in udp_only)
        assert values["net.memory.serve.us_per_pkt"] > 0.0
    trace_file = e2e_run.OUT / f"trace-{name}.json"
    spans = json.loads(trace_file.read_text())
    assert spans["aggregate"] and spans["raw_spans"]
    trace_file.unlink()


# -- the command-line contract -------------------------------------------------


def test_command_line_prints_one_result_object_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "file-tornado-replay", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == E2E_NAMES


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "udp-lt-lossy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, cwd=tmp_path, env=env)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
