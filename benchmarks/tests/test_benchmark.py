"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/tests -q

They run short (one pass) benchmark runs; a few take several seconds.
"""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_environment()
bc = run.import_beamchan()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = SPEC["end_to_end"] + SPEC["per_layer"]
HELD_OUT_SEED = 5


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in METRICS]
    assert len(names) == len(set(names))
    for m in METRICS:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_end_to_end_metric(workload):
    proc = _run_cli("--workload", workload, "--seed", str(HELD_OUT_SEED),
                    "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: v["unit"] for name, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(lines[-2])
    assert detail["env"]["blas_threads"] in (None, 1)
    assert detail["env"]["BEAMCHAN_WORKERS"] is None
    assert detail["report"]["failed_frac"] == 0.0
    if workload != "channel_build":
        assert detail["report"]["members_per_s"] > 0
    if workload == "reproduce":
        assert 0 < detail["report"]["model_gap"] < 1
    if workload == "channel_build":
        sizes = [row["n"] for row in detail["report"]["paper_claim"]]
        assert sizes == list(workloads.ChannelBuild.SIZES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_adds_up(workload):
    out = harness.execute(bc, workload, HELD_OUT_SEED, 0, True)
    result = out["result"]
    assert result["correct"]
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.remainder_s"] >= 0
    assert out["detail"]["report"]["trace_absent"] == []
    assert metrics["clusters.drawn"] > 0
    if workload == "reproduce":
        assert metrics["statistics.fcf.bdcm.ms_per_member"] > 0
        assert metrics["bdcm.beam_weights.calls"] > 0
        assert metrics["cli.bytes_written"] > 0
    if workload == "antenna_mc":
        assert metrics["statistics.stfcf.gbsm.ms_per_member"] > 0
        assert metrics["bdcm.beam_weights.calls"] == 0
    if workload == "channel_build":
        assert 0 < metrics["bdcm.visible_pair_frac"] <= 1
        assert metrics["bdcm.grid_builds"] > 0 and metrics["gbsm.los_scalar_calls"] > 0
        assert metrics["complexity.ns_per_ro.bdcm.128"] > 0
        assert metrics["statistics.self_s"] == 0


def test_missing_trace_target_is_skipped_and_reported(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + [
        ("beamchan.gbsm", "removed_scalar_twin", "geometry.removed_scalar_twin", None)])
    monkeypatch.setattr(tracing, "COUNT_TARGETS", [
        ("beamchan.clusters", "_removed_helper", "clusters.drawn")])
    original = bc.statistics.initial_clusters
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bc.statistics.initial_clusters is not original
    finally:
        tracer.uninstall()
    assert bc.statistics.initial_clusters is original
    assert tracer.absent == ["beamchan.gbsm.removed_scalar_twin",
                             "beamchan.clusters._removed_helper"]
    assert tracing.layer_metrics(tracer, 1, 1.0, 0.0)["clusters.drawn"] == 0


def _perturb_curve(fn, factor, first_lag):
    def wrapper(*args, **kwargs):
        series = fn(*args, **kwargs)
        values = series.values.copy()
        values[first_lag:] *= factor
        return dataclasses.replace(series, values=values, magnitude=np.abs(values))
    return wrapper


@pytest.mark.parametrize("seed, factor, first_lag, fails", [
    # keeps every invariant: only the stored reference catches it
    (workloads.DEFAULT_SEED, 1 - 1e-6, 1, True),
    (HELD_OUT_SEED, 1 - 1e-6, 1, False),
    # moves the zero lag off 1+0j: caught on any seed
    (HELD_OUT_SEED, 1 + 1e-3, 0, True),
])
def test_perturbed_estimator_counts_as_failed(monkeypatch, seed, factor, first_lag, fails):
    monkeypatch.setattr(bc.statistics, "space_ccf",
                        _perturb_curve(bc.statistics.space_ccf, factor, first_lag))
    out = harness.execute(bc, "antenna_mc", seed, 0, False, measure_set_up=False)
    result = out["result"]
    assert result["correct"] is not fails
    assert result["failed"] == (1 if fails else 0)   # one space_ccf per pass
    assert out["detail"]["report"]["failed_frac"] == result["failed"] / result["attempted"]


def test_perturbed_realization_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads.ChannelBuild, "SIZES", (16,))
    build = bc.bdcm.bdcm_matrix

    def perturbed(*args, **kwargs):
        real = build(*args, **kwargs)
        real.coeffs[:, :, 0] += 1e-3
        return real

    monkeypatch.setattr(bc.bdcm, "bdcm_matrix", perturbed)
    out = harness.execute(bc, "channel_build", HELD_OUT_SEED, 0, False,
                          measure_set_up=False)
    result = out["result"]
    assert result["failed"] == result["attempted"] == 2 * workloads.ChannelBuild.REALIZATIONS[16]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "reproduce", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
