"""Run loop, result assembly and run environment of the benchmark.

Imported by ``run.py`` after it has pinned the environment (one BLAS
thread, ``BEAMCHAN_WORKERS`` unset) and put the checkout's ``src/`` on the
path.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from calibration import Calibration
from workloads import (DEFAULT_SEED, WORKLOADS, complexity_metrics, model_gap,
                       paper_claim_table)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
MAX_REPORTED_FAILURES = 20


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when not queryable."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def run_environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamchan").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "BEAMCHAN_WORKERS": os.environ.get("BEAMCHAN_WORKERS"),
    }


def measure_setup(workload: str) -> float:
    """Median calibrated seconds from spawning an interpreter to its ready line.

    The probe runs ``run.py --setup-probe``: ``import beamchan`` and the
    workload's plan.  One extra probe runs first and is discarded, so
    bytecode caches are written before timing.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload]
    calibration = Calibration()
    times = []
    for i in range(SETUP_PROBES + 1):
        calibration.sample()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {err.strip()}")
        if i:
            times.append(elapsed)
    calibration.sample()
    return statistics.median(times) * calibration.scale()


def load_refs(workload: str, seed: int):
    path = HERE / "refs" / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """Executes passes of one workload and collects timings and checks."""

    def __init__(self, workload, seed, refs, tracer=None):
        self.workload = workload
        self.seed = seed
        self.refs = refs
        self.tracer = tracer
        self.calibration = Calibration()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.passes: list = []   # dicts: p, traced, seconds, infos
        self.kind_seconds: dict = {}   # op kind -> untraced op seconds
        self.kind_units: dict = {}     # op kind -> (ops, units) in one pass

    def run_pass(self, p: int, traced: bool):
        seconds = 0.0
        infos = []
        for op in self.workload.ops(self.seed, p):
            self.attempted += 1
            problems = []
            output = None
            self.calibration.sample()
            if self.tracer is not None:
                self.tracer.enabled = traced
            start = time.perf_counter()
            try:
                output = op.run()
            except Exception:
                problems.append("raised: " + traceback.format_exc(limit=3).strip())
            finally:
                elapsed = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.enabled = False
            self.calibration.sample()
            seconds += elapsed
            if not traced:
                kind = op.kind or op.key
                self.kind_seconds.setdefault(kind, []).append(elapsed)
                if p == 0:
                    ops, units = self.kind_units.get(kind, (0, 0))
                    self.kind_units[kind] = (ops + 1, units + op.units)
            if not problems:
                problems = self._check(op, output, p, infos)
            del output
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append({"pass": p, "op": op.key, "problems": problems})
        self.passes.append({"p": p, "traced": traced, "seconds": seconds,
                            "infos": infos})

    def _check(self, op, output, p, infos) -> list[str]:
        try:
            res = op.check(output)
            infos.append(res.info)
            problems = list(res.problems)
            if self.refs is not None and p < self.refs["passes"]:
                ref = self.refs["ops"].get(f"{p}/{op.key}")
                if ref is None:
                    problems.append("no stored reference")
                else:
                    problems += self.workload.compare(res.summary, ref)
            return problems
        except Exception:
            return ["check raised: " + traceback.format_exc(limit=3).strip()]

    def run_for(self, seconds: float, trace: bool):
        """Whole passes until ``seconds`` have elapsed (at least one).

        With tracing, each untraced pass is followed by a traced pass over
        the same inputs, which gives the tracing overhead.
        """
        start = time.perf_counter()
        p = 0
        while True:
            self.run_pass(p, traced=False)
            if trace:
                self.run_pass(p, traced=True)
            p += 1
            if time.perf_counter() - start >= seconds:
                break

    def rate(self, calibrated=True) -> float:
        """Realizations per second of one pass built from per-kind medians.

        Each kind of operation (same calls, same sizes; inputs differ by
        pass and realization) contributes its count per pass times the
        median of its untraced times, so neither a slow spell nor one
        unusually large input moves the figure much.
        """
        scale = self.calibration.scale() if calibrated else 1.0
        seconds = sum(self.kind_units[kind][0] * statistics.median(times)
                      for kind, times in self.kind_seconds.items())
        return sum(units for _, units in self.kind_units.values()) / (seconds * scale)


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def execute(bc, workload_name: str, seed: int, seconds: float, trace: bool,
            measure_set_up: bool = True) -> dict:
    """One benchmark run; returns {"result": ..., "detail": ...}.

    ``result`` is the object the benchmark prints last; ``detail`` holds
    the run environment and the report.  Both are also written to
    ``.bench_out/`` in the checkout.
    """
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"{workload_name}-csv-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        workload = WORKLOADS[workload_name](bc, outdir)
        run = Run(workload, seed, load_refs(workload_name, seed), tracer)
        if tracer is not None:
            tracer.install()
        try:
            run.run_for(seconds, trace)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    untraced = [q for q in run.passes if not q["traced"]]
    infos = [i for q in untraced for i in q["infos"]]
    rate = run.rate()
    report = {
        "passes": len(untraced),
        "realizations_per_s": rate,
        "raw_realizations_per_s": run.rate(calibrated=False),
        "calibration_scale": run.calibration.scale(),
        "failed_frac": run.failed / run.attempted,
        "references": run.refs is not None,
        "failures": run.failures,
    }
    if workload_name in ("reproduce", "antenna_mc"):
        report["members_per_s"] = rate
    if workload_name == "reproduce" and len(untraced[0]["infos"]) == 6:
        report["model_gap"] = model_gap(untraced[0]["infos"])
    if workload_name == "channel_build":
        report["paper_claim"] = paper_claim_table(infos)

    if trace:
        traced = [q for q in run.passes if q["traced"]]
        paired = {q["p"]: q["seconds"] for q in untraced}
        traced_s = sum(q["seconds"] for q in traced)
        metrics = tracing.layer_metrics(
            tracer, len(traced), traced_s,
            traced_s / sum(paired[q["p"]] for q in traced) - 1.0)
        metrics.update(complexity_metrics(infos))
        report["trace_absent"] = tracer.absent
        tracer.write_spans(OUT / f"spans-{workload_name}-s{seed}.csv")
    else:
        metrics = {
            "setup_s": measure_setup(workload_name) if measure_set_up else float("nan"),
            "realizations_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _units()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": run_environment(), "report": report}
    with open(OUT / f"result-{workload_name}-s{seed}-t{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    return {"result": result, "detail": detail}
