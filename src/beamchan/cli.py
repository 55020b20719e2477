"""Experiment orchestration and CSV emission.

Every experiment writes plain CSV files with a commented provenance
header (package version, experiment name, model, estimator kind,
evaluation time, seed, ensemble size, config hash).  Floats are printed
with 17 significant digits, so re-running with the same seed reproduces
the files byte for byte regardless of the worker count.

The ensemble loop is parallelized across processes when the
BEAMCHAN_WORKERS environment variable is set to a number above one;
results do not depend on it, and a value that is not a positive integer
is an error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bdcm import bdcm_matrix, draw_bdcm_phases
from .complexity import complexity_sweep
from .config import (
    PRESET_NAMES,
    SimulationConfig,
    config_hash,
    load_config,
    preset,
)
from .gbsm import draw_gbsm_phases, gbsm_matrix
from .geometry import require_integer
from .statistics import (
    CorrelationSeries,
    fcf,
    member_channel_state,
    space_ccf,
    time_acf,
)

__all__ = ["ExperimentOutput", "run_experiment", "write_output", "main"]

EXPERIMENTS = ("fig3_ccf", "fig4_acf", "fig5_fcf", "fig6_complexity")


@dataclass
class ExperimentOutput:
    """All curves (or the cost table) produced by one experiment."""

    experiment: str
    config: SimulationConfig
    curves: list = field(default_factory=list)   # (label, CorrelationSeries)
    table: list | None = None                    # ComplexityReport rows (fig6)
    seed: int = 0
    ensemble: int = 0


def _models(model: str):
    if model == "both":
        return ("gbsm", "bdcm")
    if model in ("gbsm", "bdcm"):
        return (model,)
    raise ValueError(f"unknown model '{model}'")


def run_experiment(config: SimulationConfig, experiment: str,
                   model: str = "both", seed: int | None = None,
                   ensemble: int | None = None) -> ExperimentOutput:
    """Run one named experiment and return its curves.

    fig3_ccf   paired receive-spacing CCF curves, one per model
    fig4_acf   time ACF per model per evaluation time in config.time_samples
    fig5_fcf   frequency correlation per model, without and with a direct
               path (K=0 and K=3)
    fig6_complexity  the closed-form cost table (no simulation)
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment '{experiment}'")
    seed = config.seed if seed is None else seed
    ensemble = config.ensemble if ensemble is None else ensemble
    require_integer("seed", seed)
    require_integer("ensemble", ensemble)
    seed, ensemble = int(seed), int(ensemble)
    out = ExperimentOutput(experiment=experiment, config=config, seed=seed,
                           ensemble=ensemble)
    if experiment == "fig6_complexity":
        out.table = complexity_sweep(range(1, 11), config.rays_per_cluster,
                                     20, [20, 200, 400])
        return out
    if experiment == "fig3_ccf":
        grid = np.linspace(0.0, 3.0 * config.wavelength, 31)
        t = config.time_samples[0]
        for m in _models(model):
            series = space_ccf(config, model=m, spacing_grid=grid, t=t,
                               ensemble=ensemble, seed=seed)
            out.curves.append((m, series))
    elif experiment == "fig4_acf":
        grid = np.linspace(0.0, 0.12, 25)
        for m in _models(model):
            for t in config.time_samples:
                series = time_acf(config, model=m, lag_grid=grid, t=float(t),
                                  ensemble=ensemble, seed=seed)
                out.curves.append((f"{m}_t{t:g}", series))
    elif experiment == "fig5_fcf":
        grid = np.linspace(0.0, 20e6, 41)
        t = config.time_samples[0]
        cases = (("nlos", config.with_values(rician_k=0.0)),
                 ("los", config.with_values(rician_k=3.0)))
        for m in _models(model):
            for label, cfg in cases:
                series = fcf(cfg, model=m, freq_lag_grid=grid, t=t,
                             ensemble=ensemble, seed=seed)
                out.curves.append((f"{m}_{label}", series))
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _header_lines(digest, experiment, extra):
    """Provenance lines; ``digest`` is the ``config_hash`` of the run's
    config, computed once per run by the caller."""
    lines = [f"# beamchan {__version__}",
             f"# experiment: {experiment}"]
    lines += [f"# {k}: {v}" for k, v in extra.items()]
    lines.append(f"# config: {digest}")
    return lines


def _curve_csv(digest, experiment, label, series: CorrelationSeries,
               seed: int) -> str:
    lines = _header_lines(digest, experiment, {
        "model": series.model,
        "kind": series.kind,
        "label": label,
        "eval_time": _fmt(series.eval_time),
        "seed": seed,
        "ensemble": series.ensemble,
    })
    lines.append("lag,magnitude,std_error")
    for lag, mag, err in zip(series.lag_axis, series.magnitude,
                             series.std_error):
        lines.append(f"{_fmt(lag)},{_fmt(mag)},{_fmt(err)}")
    return "\n".join(lines) + "\n"


def _table_csv(digest, table) -> str:
    lines = _header_lines(digest, "fig6_complexity", {})
    lines.append("antenna_pairs,beams,gbsm_ro,bdcm_ro")
    gbsm = {r.num_rx: r.ro_count for r in table if r.model == "gbsm"}
    for row in table:
        if row.model != "bdcm":
            continue
        lines.append(f"{row.num_rx * row.num_tx},{row.beams},"
                     f"{gbsm[row.num_rx]},{row.ro_count}")
    return "\n".join(lines) + "\n"


def _realization_csv(digest, real, seed) -> str:
    lines = _header_lines(digest, "simulate", {
        "model": real.model,
        "eval_time": _fmt(real.time),
        "seed": seed,
    })
    lines.append("rx,tx,cluster,delay,real,imag")
    nr, nt, nc = real.coeffs.shape
    for k in range(nr):
        for l in range(nt):
            for n in range(nc):
                h = real.coeffs[k, l, n]
                lines.append(f"{k + 1},{l + 1},{n + 1},"
                             f"{_fmt(real.delays[n])},"
                             f"{_fmt(h.real)},{_fmt(h.imag)}")
    return "\n".join(lines) + "\n"


def write_output(out: ExperimentOutput, outdir) -> list[Path]:
    """Write one CSV per curve (or the cost table) and return the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    digest = config_hash(out.config)
    if out.table is not None:
        path = outdir / f"{out.experiment}.csv"
        path.write_text(_table_csv(digest, out.table), encoding="utf-8")
        written.append(path)
    for label, series in out.curves:
        path = outdir / f"{out.experiment}_{label}.csv"
        path.write_text(
            _curve_csv(digest, out.experiment, label, series, out.seed),
            encoding="utf-8")
        written.append(path)
    return written


def _load(args) -> SimulationConfig:
    cfg = load_config(args.config) if args.config else SimulationConfig()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "ensemble", None) is not None:
        updates["ensemble"] = args.ensemble
    return cfg.with_values(**updates) if updates else cfg


def _cmd_simulate(args) -> int:
    config = _load(args)
    t = float(args.time)
    clusters, rng = member_channel_state(config, config.seed, 0, t)
    written = []
    digest = config_hash(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for m in _models(args.model):
        if m == "gbsm":
            real = gbsm_matrix(t, clusters, config,
                               phases=draw_gbsm_phases(clusters, rng))
        else:
            real = bdcm_matrix(t, clusters, config,
                               phases=draw_bdcm_phases(clusters, config, rng))
        path = outdir / f"simulate_{m}.csv"
        path.write_text(_realization_csv(digest, real, config.seed),
                        encoding="utf-8")
        written.append(path)
    for p in written:
        print(p)
    return 0


_KINDS = {"space_ccf": space_ccf, "time_acf": time_acf, "fcf": fcf}


def _cmd_stats(args) -> int:
    config = _load(args)
    estimator = _KINDS[args.kind]
    # every estimate runs before the output directory exists, so rejected
    # input leaves nothing behind
    curves = {m: estimator(config, model=m, t=float(args.time),
                           ensemble=config.ensemble, seed=config.seed)
              for m in _models(args.model)}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    digest = config_hash(config)
    for m, series in curves.items():
        path = outdir / f"stats_{args.kind}_{m}.csv"
        path.write_text(_curve_csv(digest, "stats", m, series, config.seed),
                        encoding="utf-8")
        written.append(path)
    for p in written:
        print(p)
    return 0


def _cmd_complexity(args) -> int:
    config = _load(args)
    out = run_experiment(config, "fig6_complexity")
    for p in write_output(out, args.out):
        print(p)
    return 0


def _cmd_reproduce(args) -> int:
    config = load_config(args.config) if args.config else preset(args.figure)
    experiment = {"fig3": "fig3_ccf", "fig4": "fig4_acf", "fig5": "fig5_fcf",
                  "fig6": "fig6_complexity"}[args.figure]
    out = run_experiment(config, experiment, model=args.model,
                         seed=args.seed, ensemble=args.ensemble)
    for p in write_output(out, args.out):
        print(p)
    return 0


def _common_flags(sub, ensemble=True):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="root seed")
    if ensemble:
        sub.add_argument("--ensemble", type=int, help="ensemble size")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--model", default="both",
                     choices=("gbsm", "bdcm", "both"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamchan",
        description="Twin-cluster ellipse channel simulator: antenna-domain "
                    "and beam-domain models, correlation statistics, cost "
                    "formulas.")
    parser.add_argument("--version", action="version",
                        version=f"beamchan {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write one channel realization")
    _common_flags(sim, ensemble=False)
    sim.add_argument("--time", type=float, default=1.0,
                     help="evaluation time in seconds")
    sim.set_defaults(func=_cmd_simulate)

    stats = subs.add_parser("stats", help="estimate one correlation curve")
    _common_flags(stats)
    stats.add_argument("--kind", default="space_ccf", choices=sorted(_KINDS))
    stats.add_argument("--time", type=float, default=1.0)
    stats.set_defaults(func=_cmd_stats)

    comp = subs.add_parser("complexity", help="write the cost sweep table")
    _common_flags(comp, ensemble=False)
    comp.set_defaults(func=_cmd_complexity)

    rep = subs.add_parser("reproduce", help="rebuild one figure dataset")
    rep.add_argument("figure", choices=PRESET_NAMES)
    _common_flags(rep)
    rep.set_defaults(func=_cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
