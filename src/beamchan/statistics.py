"""Monte-Carlo correlation estimators for both channel models.

The four correlation functions (space, time, frequency, and the joint
space-time-frequency correlation) are estimated from independent
realizations of the cluster state: every ensemble member draws its
cluster set, delays/powers, ray angles and evolution history from its
own seeded substreams, and lag-dependent cluster survival is applied
through each cluster's stored exponential budgets, so a single member
yields a consistent curve over the whole lag grid.  A member draws its
clusters only through the last one the estimate reads (cluster 1 for a
single-cluster estimate), in the stream order of a full draw, so the
clusters it reads are those of the full history.

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

Seeding: member j, purpose p draws from the stream that
default_rng(SeedSequence(entropy=seed, spawn_key=(j, p))) would be, bit
for bit.  ``_streams.MemberStreams`` computes the PCG64 states of a
whole chunk in one vectorized pass (the seed's part of the hash once,
the key words as arrays) and loads each into one generator kept per
purpose, instead of building a SeedSequence and a generator per stream.
Enlarging the ensemble never perturbs existing members, and model
choice does not enter the state streams, so paired model comparisons
see identical cluster histories.

Evaluation: members are reduced in fixed chunks of ``_CHUNK``, so results
do not depend on the worker count, and each chunk in blocks of bounded
size.  Each member's cluster state is drawn on its own, then the clusters
an estimate reads are stacked over the block.  In either model a cluster
is then P weighted paths with one gate, delay and power: its S rays
(GBSM) or the M beams (BDCM), so weights, Dopplers and sampled
coefficients are (clusters, P) arrays.  GBSM builds one phasor table over
the block's rays and sums it over the ray axis; BDCM calls
``beam_weights`` once over the mean angles and multiplies the weights by
each delay slot's beam table.  The tables run the distance kernel over
the distinct spacing pairs only.  Against a loop over single clusters
only the summation order differs.

The beam tables of a delay slot, and the GBSM direct-path rows, depend on
the geometry and the lag columns only, so they are built once per process
and held read-only in ``_held.HELD`` (next to the builders' bases, under
its one byte budget).  Their key is what the tables read: the beam count,
``focal_half`` and the slot's ``semi_major``, the arrays, wavelength,
maximum Doppler, velocity angle and estimator mode, the distinct lag
columns, and, with K > 0 only, t and the center Doppler that the
direct-path rows read.  Calls differing only in seed, ensemble, kappa,
cluster index, or (at K = 0) t share them; held or fresh, a table is the
same bytes.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._held import HELD
from ._streams import MemberStreams
from .bdcm import beam_weights, center_los_doppler
from .clusters import (
    ClusterDraws,
    evolve_array,
    evolve_time,
    initial_clusters,
    time_decay_rate,
)
from .config import SimulationConfig
from .geometry import (
    VirtualAngleGrid,
    antenna_distances,
    aod_from_aoa,
    los_doppler_from_offsets,
    los_path_from_offsets,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    ray_doppler,
    require_integer,
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
# a chunk is evaluated in blocks of about this many real per-path entries
# (``_LagContext.cluster_cost`` per cluster), 128 KiB per array, which keeps
# a block's temporaries under about a megabyte for any ray or beam count
_BLOCK_ELEMENTS = 1 << 14

_STREAM_INIT = 0
_STREAM_EVOLVE = 1
_STREAM_BUDGET = 2
_STREAM_PHASE = 3
_STREAM_ARRAY = 4
_PURPOSES = (_STREAM_INIT, _STREAM_EVOLVE, _STREAM_BUDGET, _STREAM_PHASE, _STREAM_ARRAY)


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


_LAG_AXES = ("transmit spacing", "receive spacing", "frequency", "time")


def _broadcast_lags(lag_tx, lag_rx, lag_freq, lag_time):
    arrays = [np.atleast_1d(np.asarray(a, dtype=float))
              for a in (lag_tx, lag_rx, lag_freq, lag_time)]
    for axis, a in zip(_LAG_AXES, arrays):
        if a.ndim > 1:
            raise ValueError(f"{axis} lags must be one-dimensional, got shape {a.shape}")
    return [a.astype(float) for a in np.broadcast_arrays(*arrays)]


def _require_index(name: str, value) -> None:
    require_integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


def _require_time(t) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be a finite non-negative time, got {t}")


def _member_state(draws, streams, member, t, cluster_index=None):
    """The clusters an estimate reads of one member's ensemble at time t,
    and the ensemble's size.

    ``draws`` holds the draw steps of the call's config, ``streams`` the
    member's ``MemberStreams``, and ``cluster_index`` picks one position
    (``None`` picks all).  Each stream is read in the order of a full draw
    (``initial_clusters``, then ``evolve_time``), and drawing stops after
    the last cluster picked: the initial clusters run through the last
    survivor picked, the newborns through the last newborn picked.  So the
    picked clusters equal the full draw's, position for position.
    """
    init = streams.get(member, _STREAM_INIT)
    count = draws.count(init)
    alive, births = np.arange(count), 0
    if t > 0 and draws.config.evolution.death_rate > 0:
        evolve = streams.get(member, _STREAM_EVOLVE)
        alive, births = draws.fates(evolve, count, t)
    total = alive.size + births
    lo, hi = ((0, total) if cluster_index is None
              else (cluster_index - 1, min(cluster_index, total)))
    picked = alive[lo:hi]  # initial positions of the picked survivors
    initial = draws.initial(init, count, int(picked[-1]) + 1 if picked.size else 0)
    out = [initial[i] for i in picked]
    first = max(lo - alive.size, 0)  # the first newborn picked, if any
    if hi - alive.size > first:  # births, so the evolve stream exists
        out += draws.newborns(evolve, hi - alive.size, count, draws.pdp_scale(count),
                              count + 1)[first:]
    for position, c in enumerate(out, lo + 1):
        c.index = position
    return out, total


def member_channel_state(config, seed: int, member: int, t: float):
    """Cluster set and phase generator of one ensemble member at time t.

    The clusters are those the estimators see for (seed, member) at t,
    then evolved along both arrays from the member's own array stream,
    so every antenna pair carries its own visibility.  The returned
    generator is the member's phase stream, for drawing the initial
    phases of a channel realization; it is the caller's to keep.
    """
    _require_index("seed", seed)
    _require_index("member", member)
    _require_time(t)
    streams = MemberStreams(int(seed), range(int(member), int(member) + 1), _PURPOSES)
    clusters = initial_clusters(config, streams.get(member, _STREAM_INIT))
    if t > 0 and config.evolution.death_rate > 0:
        clusters = evolve_time(clusters, t, config, streams.get(member, _STREAM_EVOLVE))
    clusters = evolve_array(clusters, config.array, config.evolution,
                            streams.get(member, _STREAM_ARRAY), config=config)
    # the only phase stream these streams hand out, so no later get reloads it
    return clusters, streams.get(member, _STREAM_PHASE)


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


def _distinct(*keys):
    """Index of each entry's key tuple among the distinct tuples (first
    occurrence order), then the distinct values of each key."""
    seen: dict[tuple, int] = {}
    index = np.array([seen.setdefault(key, len(seen)) for key in zip(*keys)])
    return (index, *(np.array(v) for v in zip(*seen)))


class _PathEllipses(NamedTuple):
    """One ellipse per path: stands in for an ``EllipseConfig`` in the
    geometry functions, which read both fields elementwise."""

    semi_major: np.ndarray
    focal_half: float


def _by_member(member, rows, count: int):
    """Sum of ``rows`` per member index, in row order."""
    out = np.zeros((count,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(out, member, rows)
    return out


class _LagContext:
    """Precomputed per-call quantities shared by all ensemble members.

    The phasor tables depend on the lags through (dT, dR, dL) only, so
    they are built over the distinct columns of that triple, in
    first-occurrence order, and scattered back to the full lag grid
    through ``column``.  Within a column the path geometry depends on
    (dT, dR) only and a time lag only adds a Doppler phase, so the
    distance kernel runs over the distinct spacing pairs (``col_space``)
    and the Doppler phase over the distinct time lags (``col_lag``); the
    two phases meet per column before the one complex exponential.  With
    K > 0 the direct path is one more path of cluster 1; its Doppler
    differs between antenna pairs, so its row also carries the rotation
    at the call's one evaluation time t.

    ``key`` holds what the tables read of the call besides the delay slot,
    so the held entries of one call serve every later call that agrees on
    it (see the module docstring).
    """

    def __init__(self, config, model, t, dT, dR, dW, dL):
        arr = config.array
        self.config = config
        self.model = model
        self.t = t
        self.sampled = config.estimator_mode == "sampled"
        self.wn = TWO_PI / config.wavelength
        self.dT, self.dR, self.dW, self.dL = dT, dR, dW, dL  # checked by _estimate
        self.length = dT.size
        self.column, col_tx, col_rx, self.col_time = _distinct(dT, dR, dL)
        self.key = (config.ellipse.focal_half, arr, config.wavelength,
                    config.max_doppler, config.velocity_angle, config.estimator_mode,
                    col_tx.tobytes(), col_rx.tobytes(), self.col_time.tobytes())
        self.width = self.col_time.size
        # P paths per cluster: its S rays (GBSM) or the M beams (BDCM)
        self.num_paths = config.rays_per_cluster if model == "gbsm" else config.num_beams
        # real entries a cluster adds to a block's per-path arrays: P x (complex
        # lag columns + a few per-ray values) for GBSM; BDCM tables are per slot
        self.cluster_cost = self.num_paths * (2 * (self.width + 8) if model == "gbsm" else 1)
        self.col_space, space_tx, space_rx = _distinct(col_tx, col_rx)
        self.col_lag, self.lag_time = _distinct(self.col_time)
        # [reference offsets of every spacing pair..., probe offsets...], so
        # one kernel call per side covers both antennas; _split separates them
        self.off_tx = _side_offsets(arr.num_tx, arr.spacing_tx, space_tx)
        self.off_rx = _side_offsets(arr.num_rx, arr.spacing_rx, space_rx)
        hz = config.evolution.death_rate / config.evolution.array_decorrelation
        self.hazard_tx = hz * dT
        self.hazard_rx = hz * dR
        self.decay = time_decay_rate(config.evolution)
        self.kfac = config.rician_k
        self.k_eff = self.kfac / (self.kfac + 1.0)
        self.direct_rows = None
        if model == "bdcm":
            angles = virtual_angles(config.num_beams)
            # beam weights read only the arrival angles, which every slot shares
            self.grid = VirtualAngleGrid(num_beams=config.num_beams, aoa=angles,
                                         aod=aod_from_aoa(angles, config.ellipse))
            self.beam_doppler = ray_doppler(angles, config.max_doppler,
                                            config.velocity_angle)
            # the beam-domain direct path rides each slot's last beam with
            # the array-center Doppler
            self.center_doppler = center_los_doppler(config) if self.kfac > 0 else None
            self.direct_key = (t, self.center_doppler) if self.kfac > 0 else None
        elif self.kfac > 0:
            self.direct_rows = HELD.get(("gbsm direct", *self.key, t), self._antenna_direct_rows)

    def _antenna_direct_rows(self):
        """The antenna-domain direct path joins the arrays, whatever the
        cluster, so one row serves every call that shares the key."""
        cfg, arr = self.config, self.config.array
        dist, doppler = los_doppler_from_offsets(
            self.off_tx, self.off_rx, cfg.ellipse, arr.tilt_tx, arr.tilt_rx,
            cfg.max_doppler, cfg.velocity_angle)
        return self._direct_row(*(self._columns(v[None]) for v in
                                  (*_split(dist), *_split(doppler))))

    def _columns(self, values):
        """Spacing-pair values (last axis) spread to the distinct lag columns."""
        return values[..., self.col_space]

    def slot_key(self, semi_major):
        """The held-store key of one delay slot's beam tables."""
        return ("bdcm slot", self.num_paths, float(semi_major), *self.key, self.direct_key)

    def slot_tables(self, semi_major):
        """Beam tables of one delay slot's ellipse and, with K > 0, its
        direct-path rows; read-only, held across chunks and calls."""
        return HELD.get(self.slot_key(semi_major),
                        lambda: self.tables(self.grid.aoa, semi_major, self.kfac > 0)[1:])

    def tables(self, ang, semi_major, direct=False):
        """Per-path Doppler and phasor tables over the distinct lag columns.

        Path p arrives at ``ang[p]`` from the ellipse ``semi_major[p]``
        (or one ``semi_major`` for all).  Analytic mode gives one (paths,
        columns) table exp(1j*dphase) of the reference-minus-probe phase.
        Sampled mode gives the reference and probe geometry phasors; the
        per-path phases and the Doppler rotation at t enter later as a
        diagonal.  The time-lag Doppler rotation is part of the tables in
        both modes.  With ``direct``, the last item holds the direct-path
        row along the last path (a delay slot's beam at angle pi), in the
        same form as the tables.
        """
        cfg = self.config
        ell = _PathEllipses(semi_major, cfg.ellipse.focal_half)
        d_rx = rx_focal_distance(ang, ell)
        d_tx = 2.0 * semi_major - d_rx
        tx_x, tx_y = _split(antenna_distances(d_tx, aod_from_aoa(ang, ell),
                                              cfg.array.tilt_tx, self.off_tx))
        rx_x, rx_y = _split(antenna_distances(d_rx, ang, cfg.array.tilt_rx, self.off_rx))
        doppler = ray_doppler(ang, cfg.max_doppler, cfg.velocity_angle)
        lag_phase = (TWO_PI * doppler[:, None] * self.lag_time[None, :])[:, self.col_lag]
        rows = None if not direct else self._direct_row(
            self._columns(tx_x[-1:] + rx_x[-1:]), self._columns(tx_y[-1:] + rx_y[-1:]),
            self.center_doppler, self.center_doppler)
        if self.sampled:
            return doppler, (self._columns(np.exp(1j * self.wn * (tx_x + rx_x))),
                             np.exp(1j * (self.wn * self._columns(tx_y + rx_y)
                                          + lag_phase))), rows
        dphase = self.wn * self._columns((tx_x - tx_y) + (rx_x - rx_y)) - lag_phase
        return doppler, (np.exp(1j * dphase),), rows

    def _direct_row(self, d_x, d_y, f_x, f_y):
        """Direct-path table rows from their reference and probe path lengths
        and Doppler shifts per lag column, rotated to the evaluation time."""
        px = self.wn * d_x + TWO_PI * f_x * self.t
        py = self.wn * d_y + TWO_PI * f_y * (self.t + self.col_time)
        if self.sampled:
            return np.exp(1j * px), np.exp(1j * py)
        return (np.exp(1j * (px - py)),)


def _block_terms(ctx: _LagContext, block, phases=None):
    """Per-member (numerator, |X|^2 term, |Y|^2 term) of a block of members.

    ``block`` holds each member's picked clusters and survival budgets (by
    position) and, in sampled mode, ``phases`` each member's phase draw,
    one per path in cluster order.  The block's clusters are evaluated
    together as (clusters, P) arrays: one table build over all their rays,
    summed over the ray axis (GBSM), or one product per delay slot against
    that slot's beam table (BDCM).  Each cluster's term is gated, rotated by
    its delay and summed into its member's row: in analytic mode the
    member's exact expectation over initial phases, in sampled mode the
    product of its realized coefficients.
    """
    cfg = ctx.config
    n = len(block)
    picked = [c for clusters, _ in block for c in clusters]
    if not picked:
        zero = np.zeros((n, ctx.length))
        return (zero + 0j, zero, zero) if ctx.sampled else (zero + 0j, np.zeros(n), zero)
    member = np.repeat(np.arange(n), [len(clusters) for clusters, _ in block])
    power, delay, semi_major, mean_aoa = np.array(
        [(c.power, c.delay, c.semi_major, c.mean_aoa) for c in picked]).T
    budget = np.array([budgets[c.index - 1] for clusters, budgets in block for c in clusters])
    direct = np.array([c.index == 1 for c in picked]) & (ctx.kfac > 0)
    power = power / (ctx.kfac + 1.0)
    total = np.where(direct, power + ctx.k_eff, power)
    gate = budget[:, None] > ctx.decay * ctx.dL
    # the probe on antenna 2 sees the cluster if it survives the first step
    for hazard, side in ((ctx.hazard_tx, "tx_chain"), (ctx.hazard_rx, "rx_chain")):
        if np.any(hazard > 0):
            first = np.array([getattr(c, side)[0] for c in picked])
            gate &= (first[:, None] > hazard) | (hazard <= 0)
    delays, which = np.unique(delay, return_inverse=True)
    freq = np.exp(1j * TWO_PI * ctx.dW * delays[:, None])[which]
    if ctx.model == "gbsm":
        rays = np.stack([c.ray_aoas for c in picked])
        doppler, tables, _ = ctx.tables(rays.ravel(), np.repeat(semi_major, rays.shape[1]))
        doppler = doppler.reshape(rays.shape)
        weights = np.full(rays.shape, 1.0 / rays.shape[1])
    else:
        doppler = ctx.beam_doppler
        weights = beam_weights(mean_aoa, cfg.kappa, ctx.grid, cfg.beam_weighting)
    # cluster 1 shares its total power with the direct path, weight k_eff / total
    weights *= np.where(direct, power / total, 1.0)[:, None]
    w_direct = ctx.k_eff / total[direct]
    if ctx.sampled:
        flat = np.concatenate(phases)
        # a direct-path phase follows the P path phases of its cluster 1
        ones = np.flatnonzero(direct)
        at_direct = (ones + 1) * weights.shape[1] + np.arange(ones.size)
        angle = (TWO_PI * doppler * ctx.t
                 + np.delete(flat, at_direct).reshape(weights.shape))
        coef = np.sqrt(total[:, None] * weights) * np.exp(1j * angle)
        coef_direct = np.sqrt(total[direct] * w_direct) * np.exp(1j * flat[at_direct])
    else:
        coef, coef_direct = weights, w_direct
    if ctx.model == "gbsm":
        out = [(coef[:, None, :] @ table.reshape(*coef.shape, -1))[:, 0] for table in tables]
        rows = ctx.direct_rows
    else:
        out = [np.empty((len(picked), ctx.width), dtype=complex) for _ in range(1 + ctx.sampled)]
        rows = [np.empty((np.count_nonzero(direct), ctx.width), dtype=complex) for _ in out]
        # the inverse form: plain np.unique imports numpy.ma on first use
        semi, slot = np.unique(semi_major, return_inverse=True)
        # held slots first, so that when the slots need more than the store's
        # budget the tables built after them evict only tables already used;
        # each slot writes its own rows, so the order leaves the bytes alone
        for s in sorted(range(semi.size), key=lambda s: ctx.slot_key(semi[s]) not in HELD):
            tables, slot_rows = ctx.slot_tables(semi[s])
            mine = slot == s
            for o, table in zip(out, tables):
                o[mine] = coef[mine] @ table
            for r, row in zip(rows, slot_rows or ()):
                r[mine[direct]] = row
    if direct.any():
        for o, row in zip(out, rows):
            o[direct] += coef_direct[:, None] * row
    if ctx.sampled:
        x_tot = _by_member(member, out[0][:, ctx.column], n)
        y_tot = _by_member(member, out[1][:, ctx.column] * gate * np.conj(freq), n)
        return x_tot * np.conj(y_tot), np.abs(x_tot) ** 2, np.abs(y_tot) ** 2
    term = gate * out[0][:, ctx.column] * freq * total[:, None]
    return (_by_member(member, term, n), np.bincount(member, total, minlength=n),
            _by_member(member, gate * total[:, None], n))


def _accumulate(args):
    """Reduce one contiguous chunk of ensemble members.

    Members are evaluated in blocks: a block closes once its largest
    arrays reach ``_BLOCK_ELEMENTS`` entries or the chunk ends, which
    bounds the memory of one evaluation for any ray or beam count.
    """
    config, model, cluster_index, t, dT, dR, dW, dL, seed, start, stop = args
    ctx = _LagContext(config, model, t, dT, dR, dW, dL)
    num = np.zeros(ctx.length, dtype=complex)
    sq = np.zeros(ctx.length)
    den_x = np.zeros(ctx.length)
    den_y = np.zeros(ctx.length)
    pr_num = np.zeros(ctx.length, dtype=complex)
    pr_sq = np.zeros(ctx.length)
    pr_cnt = np.zeros(ctx.length, dtype=np.int64)
    draws = ClusterDraws(config)
    # the streams that _member_state and the loop below read
    purposes = [_STREAM_INIT, _STREAM_BUDGET]
    if t > 0 and config.evolution.death_rate > 0:
        purposes.append(_STREAM_EVOLVE)
    if ctx.sampled:
        purposes.append(_STREAM_PHASE)
    streams = MemberStreams(seed, range(start, stop), purposes)
    block, phases, cost = [], [], 0
    for member in range(start, stop):
        clusters, total = _member_state(draws, streams, member, t, cluster_index)
        budgets = streams.get(member, _STREAM_BUDGET).exponential(size=max(total, 1))
        block.append((clusters, budgets))
        if ctx.sampled:
            direct = ctx.kfac > 0 and any(c.index == 1 for c in clusters)
            phases.append(streams.get(member, _STREAM_PHASE).uniform(
                0.0, TWO_PI, len(clusters) * ctx.num_paths + direct))
        cost += ctx.cluster_cost * len(clusters)
        if cost < _BLOCK_ELEMENTS and member < stop - 1:
            continue
        v, a, b = _block_terms(ctx, block, phases)
        block, phases, cost = [], [], 0
        num += v.sum(axis=0)
        sq += (np.abs(v) ** 2).sum(axis=0)
        den_x = den_x + a.sum(axis=0)
        den_y = den_y + b.sum(axis=0)
        if ctx.sampled:
            ok = (a * b) > 0
            r = np.where(ok, v / np.sqrt(np.where(ok, a * b, 1.0)), 0.0)
            pr_num += r.sum(axis=0)
            pr_sq += (np.abs(r) ** 2).sum(axis=0)
            pr_cnt += ok.sum(axis=0)
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
    if cluster_index is not None:
        require_integer("cluster_index", cluster_index)
        if cluster_index < 1:
            raise ValueError(f"cluster_index must be at least 1, got {cluster_index}")
    ensemble = config.ensemble if ensemble is None else ensemble
    seed = config.seed if seed is None else seed
    require_integer("ensemble", ensemble)
    _require_index("seed", seed)
    ensemble, seed = int(ensemble), int(seed)
    if ensemble < 1:
        raise ValueError("ensemble must be at least 1")
    if config.normalization == "per_realization" and config.estimator_mode != "sampled":
        raise ValueError("per_realization normalization needs estimator_mode='sampled'")
    _require_time(t)
    dT, dR, dW, dL = _broadcast_lags(lag_tx, lag_rx, lag_freq, lag_time)
    for axis, lags in zip(_LAG_AXES, (dT, dR, dW, dL)):
        if not np.all(np.isfinite(lags)):
            raise ValueError(f"{axis} lags must be finite")
    # survival during a lag is only defined forward in time; with no
    # deaths on the time axis a negative lag is the conjugate lag
    if np.any(dL < 0) and time_decay_rate(config.evolution) > 0:
        raise ValueError("time lags must be non-negative while clusters die over time")
    for side, lags, count in (("transmit", dT, config.array.num_tx),
                              ("receive", dR, config.array.num_rx)):
        if np.any(lags < 0):
            raise ValueError(f"{side} spacing lags must be non-negative")
        if np.any(lags > 0) and count < 2:
            raise ValueError(f"{side} spacing lag needs at least two {side} antennas")
    blocks = [(config, model, cluster_index, t, dT, dR, dW, dL, seed, s,
               min(s + _CHUNK, ensemble)) for s in range(0, ensemble, _CHUNK)]
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
