"""Monte-Carlo correlation estimators for both channel models.

The four correlation functions (space, time, frequency, and the joint
space-time-frequency correlation) are estimated from independent
realizations of the cluster state: every ensemble member redraws the
cluster set, delays/powers, ray angles and the evolution history from
its own seeded substreams, and lag-dependent cluster survival is applied
through each cluster's stored exponential budgets, so a single member
yields a consistent curve over the whole lag grid.

Estimator modes
  analytic   integrate the initial ray/beam phases out in closed form;
             each member contributes its exact conditional correlation.
             Removes the dominant Monte-Carlo noise term and makes the
             two models directly comparable (default).
  sampled    draw the phases and correlate realized coefficients.

Normalization is E[num] / sqrt(E[|X|^2] E[|Y|^2]) ("standard"); the
per-member alternative E[num / (|X||Y|)] ("per_realization") is
available in sampled mode only, where single-realization magnitudes
exist.

Spacing lags respace the whole array: at receive lag d > 0 the reference
is antenna 1 and the probe antenna 2 of the array rebuilt with spacing
d, so the probed pair is d apart while both stay on the physical array
axis.  At d = 0 both sides sit on antenna 1 of the configured array and
the correlation is exactly one.  Time lags keep the cluster set drawn at
evaluation time t and kill clusters during the lag with their stored
survival budgets; clusters born during the lag carry independent phases
and average out of the numerator, so they are excluded throughout.

Seeding: member j, purpose p draws from SeedSequence(entropy=seed,
spawn_key=(j, p)).  Enlarging the ensemble never perturbs existing
members, and model choice does not enter the state streams, so paired
model comparisons see identical cluster histories.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bdcm import beam_weights, center_los_doppler
from .clusters import evolve_array, evolve_time, initial_clusters, time_decay_rate
from .config import SimulationConfig
from .gbsm import cluster_ellipse
from .geometry import (
    VirtualAngleGrid,
    antenna_distances,
    aod_from_aoa,
    los_doppler_from_offsets,
    los_path_from_offsets,
    ray_doppler,
    rx_focal_distance,
    virtual_angles,
)

__all__ = [
    "CorrelationSeries",
    "member_channel_state",
    "space_ccf",
    "time_acf",
    "fcf",
    "stfcf",
]

TWO_PI = 2.0 * math.pi

# members per worker chunk; fixed so that results do not depend on the
# worker count, only on the (seed, member) pairs
_CHUNK = 256

_STREAM_INIT = 0
_STREAM_EVOLVE = 1
_STREAM_BUDGET = 2
_STREAM_PHASE = 3
_STREAM_ARRAY = 4


@dataclass(frozen=True)
class CorrelationSeries:
    """One estimated correlation curve."""

    lag_axis: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    magnitude: np.ndarray = field(repr=False)
    std_error: np.ndarray = field(repr=False)
    ensemble: int = 0
    model: str = "gbsm"
    kind: str = "space_ccf"
    eval_time: float = 0.0


def _stream(seed: int, member: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(member, purpose)))


def _broadcast_lags(lag_tx, lag_rx, lag_freq, lag_time):
    arrays = [np.atleast_1d(np.asarray(a, dtype=float))
              for a in (lag_tx, lag_rx, lag_freq, lag_time)]
    return [a.astype(float) for a in np.broadcast_arrays(*arrays)]


def _member_state(config, seed, member, t):
    clusters = initial_clusters(config, _stream(seed, member, _STREAM_INIT))
    if t > 0 and config.evolution.death_rate > 0:
        clusters = evolve_time(clusters, t, config,
                               _stream(seed, member, _STREAM_EVOLVE))
    return clusters


def member_channel_state(config, seed: int, member: int, t: float):
    """Cluster set and phase generator of one ensemble member at time t.

    The clusters are those the estimators see for (seed, member) at t,
    then evolved along both arrays from the member's own array stream,
    so every antenna pair carries its own visibility.  The returned
    generator is the member's phase stream, for drawing the initial
    phases of a channel realization.
    """
    clusters = evolve_array(_member_state(config, seed, member, t),
                            config.array, config.evolution,
                            _stream(seed, member, _STREAM_ARRAY), config=config)
    return clusters, _stream(seed, member, _STREAM_PHASE)


def _side_offsets(count: int, spacing_cfg: float, deltas: np.ndarray):
    """Reference then probe antenna offsets per lag on one array side.

    A positive lag respaces the array to the lag and probes antennas 1
    and 2; a zero lag keeps both on antenna 1 at the configured spacing,
    which makes the zero-lag correlation exact.  The result holds the
    reference offsets of all lags followed by the probe offsets.
    """
    base = (count - 1) / 2.0
    off_cfg = base * spacing_cfg
    swept = deltas > 0
    off_x = np.where(swept, base * deltas, off_cfg)
    off_y = np.where(swept, (count - 3) / 2.0 * deltas, off_cfg)
    return np.concatenate([off_x, off_y])


def _split(values):
    """Reference and probe halves of a per-offset array (last axis)."""
    half = values.shape[-1] // 2
    return values[..., :half], values[..., half:]


def _pair_gate(chain, hazard: np.ndarray) -> np.ndarray:
    """Survival of the probe antenna on one side, per lag."""
    if hazard.size == 0 or not np.any(hazard > 0):
        return np.ones(hazard.shape, dtype=bool)
    if len(chain) == 0:
        raise ValueError("spacing lag probes antenna 2 of a single-antenna array")
    return np.where(hazard > 0, chain[0] > hazard, True)


class _LagContext:
    """Precomputed per-call quantities shared by all ensemble members.

    The phasor tables depend on the lags through (dT, dR, dL) only, so
    they are built over the distinct columns of that triple, in
    first-occurrence order, and scattered back to the full lag grid
    through ``column``.  Beam-domain tables depend on the cluster only
    through its delay slot and are cached per slot.  With K > 0 the
    direct path is the last path of cluster 1; its Doppler differs
    between antenna pairs, so its row also carries the rotation at the
    call's one evaluation time t.
    """

    def __init__(self, config, model, t, lag_tx, lag_rx, lag_freq, lag_time):
        arr = config.array
        self.config = config
        self.model = model
        self.t = t
        self.sampled = config.estimator_mode == "sampled"
        self.wn = TWO_PI / config.wavelength
        self.dT, self.dR, self.dW, self.dL = _broadcast_lags(
            lag_tx, lag_rx, lag_freq, lag_time)
        self.length = self.dT.size
        if np.any(self.dT > 0) and arr.num_tx < 2:
            raise ValueError("transmit spacing lag needs at least two transmit antennas")
        if np.any(self.dR > 0) and arr.num_rx < 2:
            raise ValueError("receive spacing lag needs at least two receive antennas")
        if np.any(self.dT < 0) or np.any(self.dR < 0):
            raise ValueError("spacing lags must be non-negative")
        distinct: dict[tuple, int] = {}
        self.column = np.array([distinct.setdefault(key, len(distinct))
                                for key in zip(self.dT, self.dR, self.dL)])
        col_tx, col_rx, self.col_time = (np.array(v) for v in zip(*distinct))
        # [reference offsets of every column..., probe offsets...], so one
        # kernel call per side covers both antennas; _split separates them
        self.off_tx = _side_offsets(arr.num_tx, arr.spacing_tx, col_tx)
        self.off_rx = _side_offsets(arr.num_rx, arr.spacing_rx, col_rx)
        hz = config.evolution.death_rate / config.evolution.array_decorrelation
        self.hazard_tx = hz * self.dT
        self.hazard_rx = hz * self.dR
        self.decay = time_decay_rate(config.evolution)
        self.kfac = config.rician_k
        self._slot_cache: dict[int, tuple] = {}
        self._freq_cache: dict[int, np.ndarray] = {}
        self._angles = virtual_angles(config.num_beams) if model == "bdcm" else None
        self._direct = None
        if self.kfac > 0 and model == "gbsm":
            # the antenna-domain direct path joins the arrays, whatever
            # the cluster, so one row serves the whole call
            geo = (self.off_tx, self.off_rx, config.ellipse, arr.tilt_tx, arr.tilt_rx)
            _, _, dist = los_path_from_offsets(*geo)
            doppler = los_doppler_from_offsets(*geo, config.max_doppler,
                                               config.velocity_angle)
            self._direct = self._direct_row(*_split(dist), *_split(doppler))

    def paths(self, occ):
        """(weights, power, doppler, tables) of one cluster's paths.

        The paths are the rays or beams and, for cluster 1 with K > 0,
        the direct path as the last one; ``weights`` are their fractions
        of the cluster's total ``power``.
        """
        cfg = self.config
        if self.model == "gbsm":
            ell = cluster_ellipse(occ, cfg)
            ang = occ.ray_aoas
            doppler, tables, _ = self._tables(ang, aod_from_aoa(ang, ell), ell)
            wts = np.full(ang.size, 1.0 / ang.size)
            direct = self._direct
        else:
            cached = self._slot_cache.get(occ.slot)
            if cached is None:
                ell = cluster_ellipse(occ, cfg)
                grid = VirtualAngleGrid(num_beams=cfg.num_beams, aoa=self._angles,
                                        aod=aod_from_aoa(self._angles, ell))
                # the beam-domain direct path rides the slot's last beam
                # (angle pi) with the array-center Doppler
                f_c = center_los_doppler(cfg) if self.kfac > 0 else None
                cached = (grid, *self._tables(grid.aoa, grid.aod, ell, f_c))
                self._slot_cache[occ.slot] = cached
            grid, doppler, tables, direct = cached
            wts = beam_weights(occ.mean_aoa, cfg.kappa, grid, cfg.beam_weighting)
        power = occ.power / (self.kfac + 1.0)
        if occ.index == 1 and self.kfac > 0:
            k_eff = self.kfac / (self.kfac + 1.0)
            wts = np.append(power * wts, k_eff) / (power + k_eff)
            power = power + k_eff
            # the direct path's Doppler rotation at t is part of its row
            doppler = np.append(doppler, 0.0)
            tables = (tuple(map(np.vstack, zip(tables, direct))) if self.sampled
                      else np.vstack([tables, direct]))
        return wts, power, doppler, tables

    def _tables(self, ang, aod, ellipse, direct_doppler=None):
        """Per-path Doppler and phasor tables over the distinct lag columns.

        Analytic mode gives one (paths, columns) table exp(1j*dphase) of
        the reference-minus-probe phase.  Sampled mode gives the reference
        and probe geometry phasors; the per-path phases and the Doppler
        rotation at t enter later as a diagonal.  The time-lag Doppler
        rotation is part of the tables in both modes.  The last item is the
        direct-path row along the last path if ``direct_doppler`` is given.
        """
        cfg = self.config
        d_rx = rx_focal_distance(ang, ellipse)
        d_tx = 2.0 * ellipse.semi_major - d_rx
        tx_x, tx_y = _split(antenna_distances(d_tx, aod, cfg.array.tilt_tx, self.off_tx))
        rx_x, rx_y = _split(antenna_distances(d_rx, ang, cfg.array.tilt_rx, self.off_rx))
        doppler = ray_doppler(ang, cfg.max_doppler, cfg.velocity_angle)
        lag_phase = TWO_PI * doppler[:, None] * self.col_time[None, :]
        direct = None if direct_doppler is None else self._direct_row(
            tx_x[-1] + rx_x[-1], tx_y[-1] + rx_y[-1], direct_doppler, direct_doppler)
        if self.sampled:
            return doppler, (np.exp(1j * self.wn * (tx_x + rx_x)),
                             np.exp(1j * (self.wn * (tx_y + rx_y) + lag_phase))), direct
        dphase = self.wn * ((tx_x - tx_y) + (rx_x - rx_y)) - lag_phase
        return doppler, np.exp(1j * dphase), direct

    def _direct_row(self, d_x, d_y, f_x, f_y):
        """Direct-path table row from its reference and probe path lengths
        and Doppler shifts per lag column, rotated to the evaluation time."""
        px = self.wn * d_x + TWO_PI * f_x * self.t
        py = self.wn * d_y + TWO_PI * f_y * (self.t + self.col_time)
        if self.sampled:
            return np.exp(1j * px), np.exp(1j * py)
        return np.exp(1j * (px - py))

    def freq_factor(self, occ):
        """Per-lag frequency rotation exp(2j*pi*dW*delay) of one cluster.

        The delay is fixed by the ladder slot, so the factor is cached
        per slot for both models.
        """
        fac = self._freq_cache.get(occ.slot)
        if fac is None:
            fac = np.exp(1j * TWO_PI * self.dW * occ.delay)
            self._freq_cache[occ.slot] = fac
        return fac


def _member_terms(ctx: _LagContext, clusters, budgets, cluster_index,
                  phase_rng=None):
    """One member's contribution (numerator, |X|^2 term, |Y|^2 term).

    In analytic mode the returned triple is the exact conditional
    expectation over initial phases; in sampled mode it is computed from
    one realized phase draw taken from phase_rng.
    """
    if cluster_index is None:
        members = list(enumerate(clusters))
    elif cluster_index > len(clusters):
        members = []
    else:
        members = [(cluster_index - 1, clusters[cluster_index - 1])]
    if ctx.sampled:
        x_tot = np.zeros(ctx.length, dtype=complex)
        y_tot = np.zeros(ctx.length, dtype=complex)
    else:
        v = np.zeros(ctx.length, dtype=complex)
        a = 0.0
        b = np.zeros(ctx.length)
    for pos, occ in members:
        wts, power, doppler, tables = ctx.paths(occ)
        gate = (_pair_gate(occ.tx_chain, ctx.hazard_tx)
                & _pair_gate(occ.rx_chain, ctx.hazard_rx)
                & (budgets[pos] > ctx.decay * ctx.dL))
        freq_fac = ctx.freq_factor(occ)
        if ctx.sampled:
            phases = phase_rng.uniform(0.0, TWO_PI, wts.size)
            diag = (np.sqrt(power * wts)
                    * np.exp(1j * (TWO_PI * doppler * ctx.t + phases)))
            ex, ey = tables
            x_tot += (diag @ ex)[ctx.column]
            y_tot += (diag @ ey)[ctx.column] * gate * np.conj(freq_fac)
        else:
            pa = (wts @ tables)[ctx.column]
            v += gate * pa * freq_fac * power
            a += power
            b = b + gate * power
    if ctx.sampled:
        return x_tot * np.conj(y_tot), np.abs(x_tot) ** 2, np.abs(y_tot) ** 2
    return v, a, b


def _accumulate(args):
    """Reduce one contiguous block of ensemble members."""
    (config, model, cluster_index, t, lag_tx, lag_rx, lag_freq, lag_time,
     seed, start, stop) = args
    ctx = _LagContext(config, model, t, lag_tx, lag_rx, lag_freq, lag_time)
    num = np.zeros(ctx.length, dtype=complex)
    sq = np.zeros(ctx.length)
    den_x = np.zeros(ctx.length)
    den_y = np.zeros(ctx.length)
    pr_num = np.zeros(ctx.length, dtype=complex)
    pr_sq = np.zeros(ctx.length)
    pr_cnt = np.zeros(ctx.length, dtype=np.int64)
    for member in range(start, stop):
        clusters = _member_state(config, seed, member, t)
        budgets = _stream(seed, member, _STREAM_BUDGET).exponential(
            size=max(len(clusters), 1))
        phase_rng = (_stream(seed, member, _STREAM_PHASE) if ctx.sampled else None)
        v, a, b = _member_terms(ctx, clusters, budgets, cluster_index, phase_rng)
        num += v
        sq += np.abs(v) ** 2
        den_x = den_x + a
        den_y = den_y + b
        if ctx.sampled:
            ok = (a * b) > 0
            r = np.where(ok, v / np.sqrt(np.where(ok, a * b, 1.0)), 0.0)
            pr_num += r
            pr_sq += np.abs(r) ** 2
            pr_cnt += ok.astype(np.int64)
    return num, sq, den_x, den_y, pr_num, pr_sq, pr_cnt


def _worker_count() -> int:
    raw = os.environ.get("BEAMCHAN_WORKERS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"BEAMCHAN_WORKERS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"BEAMCHAN_WORKERS must be at least 1, got {n}")
    return n


def _estimate(config: SimulationConfig, model, cluster_index, lag_tx, lag_rx,
              lag_freq, lag_time, t, ensemble, seed):
    if model not in ("gbsm", "bdcm"):
        raise ValueError(f"unknown model '{model}'")
    if cluster_index is not None and cluster_index < 1:
        raise ValueError(f"cluster_index must be at least 1, got {cluster_index}")
    ensemble = int(config.ensemble if ensemble is None else ensemble)
    if ensemble < 1:
        raise ValueError("ensemble must be at least 1")
    seed = int(config.seed if seed is None else seed)
    if config.normalization == "per_realization" and config.estimator_mode != "sampled":
        raise ValueError("per_realization normalization needs estimator_mode='sampled'")
    blocks = [(config, model, cluster_index, t, lag_tx, lag_rx, lag_freq,
               lag_time, seed, s, min(s + _CHUNK, ensemble))
              for s in range(0, ensemble, _CHUNK)]
    workers = _worker_count()
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_accumulate, blocks))
    else:
        parts = [_accumulate(b) for b in blocks]
    num, sq, den_x, den_y, pr_num, pr_sq, pr_cnt = (
        sum(p[i] for p in parts) for i in range(7))
    if config.normalization == "per_realization":
        cnt = np.maximum(pr_cnt, 1)
        values = pr_num / cnt
        var = np.maximum(pr_sq / cnt - np.abs(values) ** 2, 0.0)
        err = np.sqrt(var / cnt)
        values = np.where(pr_cnt > 0, values, 0.0)
    else:
        scale = np.sqrt((den_x / ensemble) * (den_y / ensemble))
        safe = np.where(scale > 0, scale, 1.0)
        values = np.where(scale > 0, (num / ensemble) / safe, 0.0)
        var = np.maximum(sq / ensemble - np.abs(num / ensemble) ** 2, 0.0)
        err = np.sqrt(var / ensemble) / safe
    # at an all-zero lag the probe equals the reference, so numerator and
    # denominator are the same empirical mean and the ratio is 1 by
    # identity for any ensemble; pin it instead of round-tripping the
    # division through floating point
    dT, dR, dW, dL = _broadcast_lags(lag_tx, lag_rx, lag_freq, lag_time)
    zero = (dT == 0) & (dR == 0) & (dW == 0) & (dL == 0)
    values = np.where(zero, 1.0 + 0.0j, values)
    err = np.where(zero, 0.0, err)
    return values, err, ensemble, seed


def _make_series(config, model, kind, cluster_index, axis, lag_tx, lag_rx,
                 lag_freq, lag_time, t, ensemble, seed) -> CorrelationSeries:
    values, err, ensemble, _ = _estimate(config, model, cluster_index, lag_tx,
                                         lag_rx, lag_freq, lag_time, t,
                                         ensemble, seed)
    return CorrelationSeries(lag_axis=np.asarray(axis, dtype=float),
                             values=values, magnitude=np.abs(values),
                             std_error=err, ensemble=ensemble, model=model,
                             kind=kind, eval_time=float(t))


def space_ccf(config: SimulationConfig, model: str = "gbsm",
              cluster_index: int = 1, spacing_grid=None, t: float = 1.0,
              ensemble: int | None = None, seed: int | None = None
              ) -> CorrelationSeries:
    """Receive-spacing correlation of one cluster's coefficient."""
    if spacing_grid is None:
        spacing_grid = np.linspace(0.0, 3.0 * config.wavelength, 31)
    spacing_grid = np.asarray(spacing_grid, dtype=float)
    return _make_series(config, model, "space_ccf", cluster_index,
                        spacing_grid, 0.0, spacing_grid, 0.0, 0.0, t,
                        ensemble, seed)


def time_acf(config: SimulationConfig, model: str = "gbsm",
             cluster_index: int = 1, lag_grid=None, t: float = 1.0,
             ensemble: int | None = None, seed: int | None = None
             ) -> CorrelationSeries:
    """Time-lag correlation of one cluster's coefficient at instant t."""
    if lag_grid is None:
        lag_grid = np.linspace(0.0, 0.12, 25)
    lag_grid = np.asarray(lag_grid, dtype=float)
    return _make_series(config, model, "time_acf", cluster_index, lag_grid,
                        0.0, 0.0, 0.0, lag_grid, t, ensemble, seed)


def fcf(config: SimulationConfig, model: str = "gbsm", freq_lag_grid=None,
        t: float = 1.0, ensemble: int | None = None,
        seed: int | None = None) -> CorrelationSeries:
    """Frequency correlation of the full transfer function."""
    if freq_lag_grid is None:
        freq_lag_grid = np.linspace(0.0, 20e6, 41)
    freq_lag_grid = np.asarray(freq_lag_grid, dtype=float)
    return _make_series(config, model, "fcf", None, freq_lag_grid, 0.0, 0.0,
                        freq_lag_grid, 0.0, t, ensemble, seed)


def stfcf(config: SimulationConfig, model: str = "gbsm",
          spacing_tx: float = 0.0, spacing_rx: float = 0.0,
          freq_lag: float = 0.0, time_lag: float = 0.0,
          cluster_index: int | None = 1, t: float = 1.0,
          ensemble: int | None = None, seed: int | None = None) -> complex:
    """Joint space-time-frequency correlation at a single lag point.

    The dedicated single-axis estimators are restrictions of this one:
    fixing the other three lags at zero reproduces their values under
    the same seed to within 1e-12 (only the summation order differs).
    """
    values, _, _, _ = _estimate(config, model, cluster_index,
                                np.array([spacing_tx]), np.array([spacing_rx]),
                                np.array([freq_lag]), np.array([time_lag]),
                                t, ensemble, seed)
    return complex(values[0])
