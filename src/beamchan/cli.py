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
from .statistics import (
    CorrelationSeries,
    fcf,
    member_channel_state,
    space_ccf,
    time_acf,
)

__all__ = ["ExperimentOutput", "run_experiment", "write_output", "main"]

EXPERIMENTS = {"fig3": "fig3_ccf", "fig4": "fig4_acf", "fig5": "fig5_fcf", "fig6": "fig6_complexity"}


@dataclass
class ExperimentOutput:
    """All curves (or the cost table) produced by one experiment."""

    experiment: str
    config: SimulationConfig
    curves: list = field(default_factory=list)   # (label, CorrelationSeries)
    table: list | None = None                    # complexity_sweep rows (fig6)
    seed: int = 0


def _models(model: str | None):
    if model in (None, "both"):
        return ("gbsm", "bdcm")
    if model in ("gbsm", "bdcm"):
        return (model,)
    raise ValueError(f"unknown model '{model}'")


def run_experiment(config: SimulationConfig, experiment: str,
                   model: str | None = None, seed: int | None = None,
                   ensemble: int | None = None) -> ExperimentOutput:
    """Run one named experiment and return its curves.

    fig3_ccf   paired receive-spacing CCF curves, one per model
    fig4_acf   time ACF per model per evaluation time in config.time_samples
    fig5_fcf   frequency correlation per model, without and with a direct
               path (K=0 and K=3)
    fig6_complexity  the closed-form cost table (no simulation)

    ``model`` (None: both), ``seed`` and ``ensemble`` (None: the config's)
    apply to simulations only; fig6_complexity rejects each by name.
    """
    if experiment not in EXPERIMENTS.values():
        raise ValueError(f"unknown experiment '{experiment}'")
    out = ExperimentOutput(experiment=experiment, config=config,
                           seed=config.seed if seed is None else seed)
    if experiment == "fig6_complexity":
        for name, value in (("model", model), ("seed", seed), ("ensemble", ensemble)):
            if value is not None:
                raise ValueError(f"{name} does not apply to the fig6 cost table, got {value!r}")
        out.table = complexity_sweep(range(1, 11), config.rays_per_cluster,
                                     20, [20, 200, 400])
        return out
    if experiment == "fig3_ccf":
        t = config.time_samples[0]
        for m in _models(model):
            series = space_ccf(config, model=m, t=t, ensemble=ensemble, seed=seed)
            out.curves.append((m, series))
    elif experiment == "fig4_acf":
        times = {f"t{t:g}": float(t) for t in config.time_samples}
        if len(times) < len(config.time_samples):
            raise ValueError("time_samples must give distinct curve labels "
                             f"t{{t:g}}, got {config.time_samples}")
        for m in _models(model):
            for label, t in times.items():
                series = time_acf(config, model=m, t=t, ensemble=ensemble, seed=seed)
                out.curves.append((f"{m}_{label}", series))
    elif experiment == "fig5_fcf":
        t = config.time_samples[0]
        cases = (("nlos", config.with_values(rician_k=0.0)),
                 ("los", config.with_values(rician_k=3.0)))
        for m in _models(model):
            for label, cfg in cases:
                series = fcf(cfg, model=m, t=t, ensemble=ensemble, seed=seed)
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
    for n, gbsm, bdcm in table:
        lines += [f"{n * n},{m},{gbsm},{b}" for m, b in bdcm.items()]
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


def _write(outdir, files: dict) -> list[Path]:
    """Write each ``{name: text}`` of ``files`` into ``outdir``, created if
    missing, and return the paths.  Callers build every text first, so
    rejected input leaves no directory behind."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / name for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text, encoding="utf-8")
    return paths


def write_output(out: ExperimentOutput, outdir) -> list[Path]:
    """Write one CSV per curve (or the cost table) and return the paths."""
    digest = config_hash(out.config)
    files = {}
    if out.table is not None:
        files[f"{out.experiment}.csv"] = _table_csv(digest, out.table)
    for label, series in out.curves:
        files[f"{out.experiment}_{label}.csv"] = _curve_csv(
            digest, out.experiment, label, series, out.seed)
    return _write(outdir, files)


def _load(args) -> SimulationConfig:
    cfg = load_config(args.config) if args.config else SimulationConfig()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "ensemble", None) is not None:
        updates["ensemble"] = args.ensemble
    return cfg.with_values(**updates) if updates else cfg


def _cmd_simulate(args) -> list[Path]:
    config = _load(args)
    t = float(args.time)
    clusters, rng = member_channel_state(config, config.seed, 0, t)
    # both draws, in this order, whatever --model asks: one realization per seed
    phases = {"gbsm": draw_gbsm_phases(clusters, rng),
              "bdcm": draw_bdcm_phases(clusters, config, rng)}
    builders = {"gbsm": gbsm_matrix, "bdcm": bdcm_matrix}
    digest = config_hash(config)
    files = {}
    for m in _models(args.model):
        real = builders[m](t, clusters, config, phases=phases[m])
        files[f"simulate_{m}.csv"] = _realization_csv(digest, real, config.seed)
    return _write(args.out, files)


_KINDS = {"space_ccf": space_ccf, "time_acf": time_acf, "fcf": fcf}


def _cmd_stats(args) -> list[Path]:
    config = _load(args)
    estimator = _KINDS[args.kind]
    digest = config_hash(config)
    files = {}
    for m in _models(args.model):
        series = estimator(config, model=m, t=float(args.time),
                           ensemble=config.ensemble, seed=config.seed)
        files[f"stats_{args.kind}_{m}.csv"] = _curve_csv(digest, "stats", m, series,
                                                         config.seed)
    return _write(args.out, files)


def _cmd_reproduce(args) -> list[Path]:
    config = load_config(args.config) if args.config else preset(args.figure)
    out = run_experiment(config, EXPERIMENTS[args.figure], model=args.model,
                         seed=args.seed, ensemble=args.ensemble)
    return write_output(out, args.out)


def _common_flags(sub, ensemble=True):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="root seed")
    if ensemble:
        sub.add_argument("--ensemble", type=int, help="ensemble size")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--model", choices=("gbsm", "bdcm", "both"),
                     help="channel model (default: both)")


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

    rep = subs.add_parser("reproduce", help="rebuild one figure dataset")
    rep.add_argument("figure", choices=PRESET_NAMES)
    _common_flags(rep)
    rep.set_defaults(func=_cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        paths = args.func(args)
    except (ValueError, OSError) as exc:  # bad input, or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
