"""The three benchmark workloads and their per-operation checks.

Constructing a workload builds its plan (configs and lag grids); that is
the part of set-up the benchmark times along with ``import beamchan``.
A run then executes passes.  Pass ``p`` draws every input from
``(seed, p)``, so the seed fixes all inputs of a run, no two passes
repeat an input, and the stored references cover the first
``REF_PASSES`` passes at ``DEFAULT_SEED``.

Each operation is a pair of callables: ``run`` makes the library calls
(the only timed and traced code) and ``check`` validates the output
afterwards.  A check returns the JSON summary compared with the
reference, a list of problems and per-operation information for the
report.  All library calls go through module attributes
(``bc.cli.run_experiment``), so the tracer's wrappers see them.

Why these workloads (each puts most of its time into another module):

reproduce      ``cli.run_experiment`` + ``cli.write_output`` for fig3,
               fig4 and fig5, both models, analytic mode: the path a
               reproducing researcher runs.  The BDCM estimator kernel
               does most of the work; the channel builders do none.
antenna_mc     GBSM-only estimators: sampled/per-realization time ACF,
               analytic space CCF and joint STFCF points with all four
               lag axes non-zero.  Cluster drawing tops the profile; the
               BDCM kernel does no work.
channel_build  ``initial_clusters`` -> ``evolve_array(config=...)`` ->
               ``gbsm_matrix`` and ``bdcm_matrix`` on 16..128 antennas,
               K=0 (no direct path) and K=3 (the scalar direct-path loop
               in the GBSM builder).  Builders do all the work.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks

REF_PASSES = 8
DEFAULT_SEED = 0


def pass_seed(seed: int, p: int) -> int:
    """Estimator seed of pass ``p``: a fixed function of (seed, p)."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


@dataclass
class Op:
    key: str
    units: int                          # cluster-state realizations processed
    run: Callable[[], Any]
    check: Callable[[Any], "CheckResult"]
    kind: str = ""                      # ops of one kind share a cost model; default key


@dataclass
class CheckResult:
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


class Reproduce:
    name = "reproduce"
    ENSEMBLE = 16
    EXPERIMENTS = (("fig3", "fig3_ccf"), ("fig4", "fig4_acf"), ("fig5", "fig5_fcf"))
    MODELS = ("gbsm", "bdcm")

    def __init__(self, bc, outdir=None):
        self.bc = bc
        self.outdir = outdir
        self.configs = {fig: bc.config.preset(fig) for fig, _ in self.EXPERIMENTS}

    def labels(self, fig, model):
        if fig == "fig3":
            return [model]
        if fig == "fig4":
            return [f"{model}_t{t:g}" for t in self.configs[fig].time_samples]
        return [f"{model}_{case}" for case in ("nlos", "los")]

    def ops(self, seed, p):
        # one operation per experiment and model keeps each timed call
        # short; run_experiment(model="both") runs the same two halves
        s = pass_seed(seed, p)
        for fig, experiment in self.EXPERIMENTS:
            for model in self.MODELS:
                labels = self.labels(fig, model)

                def run(fig=fig, experiment=experiment, model=model):
                    out = self.bc.cli.run_experiment(self.configs[fig], experiment,
                                                     model=model, seed=s,
                                                     ensemble=self.ENSEMBLE)
                    return out, self.bc.cli.write_output(out, self.outdir)

                yield Op(f"{experiment}_{model}", self.ENSEMBLE * len(labels), run,
                         lambda res, labels=labels: self.check(res, labels))

    def check(self, result, labels):
        out, paths = result
        res = CheckResult()
        got = [label for label, _ in out.curves]
        if got != labels:
            res.problems.append(f"{out.experiment}: curves {got} != {labels}")
            return res
        if len(paths) != len(out.curves):
            res.problems.append(f"{out.experiment}: {len(paths)} files for {len(got)} curves")
        for (label, series), path in zip(out.curves, paths):
            name = f"{out.experiment}/{label}"
            res.problems += checks.curve_invariants(name, series, self.ENSEMBLE)
            res.problems += _csv_matches(name, path, series)
            res.summary[label] = checks.curve_summary(series)
            res.info[f"{out.experiment}/{label}"] = series.magnitude
        return res

    def compare(self, summary, ref):
        problems = []
        for label, curve in ref.items():
            if label not in summary:
                problems.append(f"{label}: missing")
            else:
                problems += checks.compare_curve(label, summary[label], curve)
        return problems


def model_gap(infos) -> float:
    """Max |gbsm - bdcm| magnitude over the paired curves of one pass."""
    mags = {k: v for info in infos for k, v in info.items()}
    return max(float(np.max(np.abs(v - mags[k.replace("/gbsm", "/bdcm", 1)])))
               for k, v in mags.items() if "/gbsm" in k)


def _csv_matches(name, path, series) -> list[str]:
    """The written CSV holds the curve's lags, magnitudes and errors exactly."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    if not rows or rows[0] != "lag,magnitude,std_error":
        return [f"{name}: CSV column row missing"]
    try:
        table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    except ValueError:
        return [f"{name}: CSV row does not parse"]
    want = np.column_stack([series.lag_axis, series.magnitude, series.std_error])
    if table.shape != want.shape or not np.array_equal(table, want):
        return [f"{name}: CSV does not round-trip the curve"]
    return []


class AntennaMC:
    name = "antenna_mc"
    ENSEMBLE = 64
    # (spacing_tx, spacing_rx, freq_lag, time_lag), every axis swept
    STFCF_POINTS = ((0.03, 0.05, 2e6, 0.01), (0.09, 0.12, 10e6, 0.05))

    def __init__(self, bc, outdir=None):
        self.bc = bc
        preset = bc.config.preset
        self.acf_config = preset("fig4").with_values(
            estimator_mode="sampled", normalization="per_realization")
        self.acf_lags = np.linspace(0.0, 0.12, 25)
        self.ccf_config = preset("fig3")
        self.ccf_lags = np.linspace(0.0, 3.0 * self.ccf_config.wavelength, 31)
        self.stfcf_config = preset("fig5").with_values(rician_k=3.0)

    def ops(self, seed, p):
        s = pass_seed(seed, p)
        stats = self.bc.statistics
        n = self.ENSEMBLE
        for t in (1.0, 4.0):
            yield Op(f"time_acf_t{t:g}", n,
                     lambda t=t: stats.time_acf(self.acf_config, model="gbsm",
                                                lag_grid=self.acf_lags, t=t,
                                                ensemble=n, seed=s),
                     lambda r, t=t: self.check_curve(f"time_acf_t{t:g}", r))
        yield Op("space_ccf", n,
                 lambda: stats.space_ccf(self.ccf_config, model="gbsm",
                                         spacing_grid=self.ccf_lags,
                                         ensemble=n, seed=s),
                 lambda r: self.check_curve("space_ccf", r))
        for i, (d_tx, d_rx, d_f, d_t) in enumerate(self.STFCF_POINTS):
            for index in (1, None):
                key = f"stfcf_p{i}_c{index or 'all'}"
                yield Op(key, n,
                         lambda d_tx=d_tx, d_rx=d_rx, d_f=d_f, d_t=d_t, index=index:
                         stats.stfcf(self.stfcf_config, model="gbsm",
                                     spacing_tx=d_tx, spacing_rx=d_rx,
                                     freq_lag=d_f, time_lag=d_t,
                                     cluster_index=index, ensemble=n, seed=s),
                         lambda r, key=key: self.check_scalar(key, r))

    def check_curve(self, key, series):
        return CheckResult({key: checks.curve_summary(series)},
                           checks.curve_invariants(key, series, self.ENSEMBLE))

    def check_scalar(self, key, value):
        value = complex(value)
        return CheckResult({key: [value.real, value.imag]},
                           checks.scalar_invariants(key, value))

    def compare(self, summary, ref):
        problems = []
        for key, want in ref.items():
            if key not in summary:
                problems.append(f"{key}: missing")
            elif isinstance(want, dict):
                problems += checks.compare_curve(key, summary[key], want)
            else:
                problems += checks.compare_scalar(key, summary[key], want)
        return problems


class ChannelBuild:
    name = "channel_build"
    SIZES = (16, 32, 64, 128)
    RICIAN = (0.0, 3.0)
    MODELS = ("gbsm", "bdcm")
    # realizations per size and K in one pass: halving the count as the
    # array doubles keeps every size a sizeable share of the pass time
    REALIZATIONS = {16: 8, 32: 4, 64: 2, 128: 1}
    TIME = 1.0

    def __init__(self, bc, outdir=None):
        self.bc = bc
        base = bc.config.preset("fig3")
        self.configs = {
            (n, k): base.with_values(
                array=bc.geometry.ArrayConfig(num_tx=n, num_rx=n), rician_k=k)
            for n in self.SIZES for k in self.RICIAN}

    def ops(self, seed, p):
        for n in self.SIZES:
            for k in self.RICIAN:
                for r in range(self.REALIZATIONS[n]):
                    key = f"n{n}_k{k:g}_r{r}"
                    spawn = (p, n, int(k), r)
                    yield Op(key, 1,
                             lambda n=n, k=k, spawn=spawn: self.realize(seed, spawn, n, k),
                             lambda res, key=key: self.check(key, res),
                             kind=f"n{n}_k{k:g}")

    def realize(self, seed, spawn, n, k):
        bc = self.bc
        cfg = self.configs[(n, k)]
        streams = np.random.SeedSequence(entropy=seed, spawn_key=spawn).spawn(4)
        rng_init, rng_evolve, rng_gbsm, rng_bdcm = (np.random.default_rng(s) for s in streams)
        clock = [time.perf_counter()]
        clusters = bc.clusters.initial_clusters(cfg, rng_init)
        clusters = bc.clusters.evolve_array(clusters, cfg.array, cfg.evolution,
                                            rng_evolve, config=cfg)
        clock.append(time.perf_counter())
        gbsm = bc.gbsm.gbsm_matrix(self.TIME, clusters, cfg,
                                   phases=bc.gbsm.draw_gbsm_phases(clusters, rng_gbsm))
        clock.append(time.perf_counter())
        bdcm_phases = bc.bdcm.draw_bdcm_phases(clusters, cfg, rng_bdcm)
        bdcm = bc.bdcm.bdcm_matrix(self.TIME, clusters, cfg, phases=bdcm_phases)
        clock.append(time.perf_counter())
        count = gbsm.coeffs.shape[2]
        ro = {"gbsm": bc.complexity.ro_gbsm(n, n, cfg.rays_per_cluster, count),
              "bdcm": bc.complexity.ro_bdcm(n, n, cfg.num_beams)}
        return {"n": n, "k": k, "config": cfg, "clusters": clusters,
                "gbsm": gbsm, "bdcm": bdcm, "bdcm_phases": bdcm_phases, "ro": ro,
                "seconds": dict(zip(("evolve", "gbsm", "bdcm"), np.diff(clock)))}

    def check(self, key, res):
        n, cfg, clusters = res["n"], res["config"], res["clusters"]
        out = CheckResult()
        for model in self.MODELS:
            out.problems += checks.realization_invariants(
                f"{key}/{model}", res[model], clusters, (n, n, len(clusters)))
        if not out.problems:
            out.problems += checks.bdcm_structure(
                f"{key}/bdcm", self.bc, res["bdcm"], clusters,
                sorted({0, len(clusters) // 2}), self.TIME, cfg, res["bdcm_phases"])
        out.summary = {model: checks.tensor_checksum(res[model].coeffs)
                       for model in self.MODELS}
        out.info = {"n": n, "clusters": len(clusters), "ro": res["ro"],
                    "seconds": {m: float(s) for m, s in res["seconds"].items()}}
        return out

    def compare(self, summary, ref):
        problems = []
        for model, want in ref.items():
            problems += checks.compare_checksum(model, summary[model], want)
        return problems


def paper_claim_table(infos) -> list[dict]:
    """Measured ms per build beside the closed-form RO counts, per size.

    ``infos`` are the per-realization records of channel_build; the GBSM
    RO count uses each realization's actual cluster count.
    """
    rows = []
    for n in ChannelBuild.SIZES:
        sel = [i for i in infos if i.get("n") == n]
        if not sel:
            continue
        row = {"n": n, "builds": len(sel),
               "mean_clusters": sum(i["clusters"] for i in sel) / len(sel)}
        for model in ChannelBuild.MODELS:
            seconds = sum(i["seconds"][model] for i in sel)
            ro = sum(i["ro"][model] for i in sel)
            row.update({f"{model}_ms": 1e3 * seconds / len(sel),
                        f"ro_{model}": ro / len(sel),
                        f"{model}_ns_per_ro": 1e9 * seconds / ro})
        row["measured_bdcm_over_gbsm"] = row["bdcm_ms"] / row["gbsm_ms"]
        row["ro_bdcm_over_gbsm"] = row["ro_bdcm"] / row["ro_gbsm"]
        rows.append(row)
    return rows


def complexity_metrics(infos) -> dict:
    """Per-layer ``complexity.*`` metrics; zero for sizes not built."""
    rows = {row["n"]: row for row in paper_claim_table(infos)}
    m = {}
    for model in ChannelBuild.MODELS:
        for n in ChannelBuild.SIZES:
            m[f"complexity.ns_per_ro.{model}.{n}"] = rows[n][f"{model}_ns_per_ro"] if n in rows else 0.0
    for n in ChannelBuild.SIZES:
        m[f"complexity.bdcm_over_gbsm.{n}"] = rows[n]["measured_bdcm_over_gbsm"] if n in rows else 0.0
    return m


WORKLOADS = {w.name: w for w in (Reproduce, AntennaMC, ChannelBuild)}
