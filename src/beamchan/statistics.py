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
for bit.  ``_streams.MemberStreams`` computes the seed words of a whole
chunk's streams in one vectorized pass (the seed's part of the hash once,
the key words as arrays), and numpy's PCG64 seeds each stream from its
words, instead of a SeedSequence being built per stream.
Enlarging the ensemble never perturbs existing members, and model
choice does not enter the state streams, so paired model comparisons
see identical cluster histories.  Each chunk's states are therefore
held in ``_held.STATES`` once drawn: the other estimates of one seed
that agree on the config, chunk, t, cluster index and phase-free flag
(the other model of a figure, the other lag points of an ``stfcf``
sweep) read the same arrays.  The estimate that drew a chunk (its model
and lags) draws it again if repeated, so a rerun of a sequence of calls
does the work of its first run, and a call with a new seed empties the
store.  A serial call takes its held chunks first and sums the chunks in
order.  Only the sampled phase draws, whose count follows the model's
path count, are made per call.  Held or drawn, a chunk's states are the
same bytes.

Evaluation: one ``_LagContext`` per call is the plan of the estimate (its
lag columns, table key, chunk state key and owner), and every chunk reads
it, in this process or pickled to a worker.  Members are reduced in fixed
chunks of ``_CHUNK``, so results do not depend on the worker count, and
each chunk in blocks of bounded size; a chunk returns only the sums the
normalization reads.  A block writes only its members' rows; the chunk
sums them over its members once, after its last block, so the bytes
depend on the chunk alone and the block budget bounds memory (BDCM rows
can still move by the rounding of the slot products, whose row count
follows the block).
Each member's clusters are drawn on their own, straight into rows
(``ClusterDraws.member_rows``: per cluster its power, delay, survival
budget, cluster-1 flag, semi-major axis, first chain steps, mean angle
and rays), with no ``Cluster`` objects; the chunk turns its rows into
one array per field once (``_Picked``), and a block is a slice of
them.  In either model a cluster
is then P weighted paths with one gate, delay and power: its S rays
(GBSM) or the M beams (BDCM), so weights, Dopplers and sampled
coefficients are (clusters, P) arrays.  GBSM builds one phasor table over
the block's rays and sums it over the ray axis; BDCM calls
``beam_weights`` once over the mean angles and multiplies the weights by
each delay slot's beam table.  The tables run the distance kernel over
the distinct spacing pairs only, and on each side over its distinct
antenna offsets.  Each path's geometry takes one cosine and one sine
(``scatter_geometry``), and each table is built lag-major, (columns,
paths), its phase written into the imaginary part and exponentiated in
place (``unit_phasors``).  The products read (paths, columns) views of
them with the strides of column-major tables: the BLAS call a product
makes, and so its rounding, follows the strides.  Against a loop over
single clusters only the summation order differs.

An analytic call with every spacing and time lag zero (every ``fcf``,
and an ``stfcf`` with only a frequency lag) is phase-free: each phasor
is exactly 1 and each cluster's path weights, with the direct path's,
sum to 1, so a cluster adds its gate times its delay rotation times its
power.  Such a call places the initial clusters (slot, delay and power)
instead of drawing their mean angles, rays and chains, and its chunks
hold only each cluster's power, delay, budget and cluster-1 flag.  Its
plan builds no beam geometry, and it builds no table, calls no
``beam_weights`` and reads no held entry.  Its member
rows are the same in both models, so the GBSM and BDCM estimates are the
same bytes; against the full tables they differ by rounding (1e-16).

The beam tables of a delay slot, and the GBSM direct-path rows, depend on
the geometry and the lag columns only, so they are built once per process
and held read-only in ``_held.HELD`` (next to the builders' bases, under
its one byte budget).  Their key is what the tables read: the beam count,
``focal_half`` and the slot's ``semi_major``, the arrays, wavelength,
maximum Doppler, velocity angle and estimator mode, the distinct lag
columns, and, with K > 0 only, t (the center Doppler of the direct-path
rows reads only the fields above).  Calls differing only in seed,
ensemble, kappa, cluster index, or (at K = 0) t share them; held or
fresh, a table is the same bytes.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._held import HELD, STATES
from ._streams import MemberStreams
from .bdcm import beam_weights, center_los_doppler, los_beam_index
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
    aod_from_aoa,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    los_doppler_from_offsets,
    los_path_from_offsets,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    ray_doppler,
    require_integer,
    require_time,
    rx_focal_distance,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    scatter_geometry,
    unit_phasors,
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
# (``_LagContext.cluster_cost`` per cluster), 512 KiB per array, which bounds
# a block's temporaries for any ray or beam count; the chunk is summed once
# over its members' rows, so the budget bounds memory and moves no byte
_BLOCK_ELEMENTS = 1 << 16

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
        if a.size == 0:
            raise ValueError(f"{axis} lags must not be empty")
    return [a.astype(float) for a in np.broadcast_arrays(*arrays)]


def _member_state(draws, streams, member, t, cluster_index, rows, positions_only):
    """Append a row per cluster an estimate reads of one member's ensemble
    at time t to ``rows`` and return their number: ``ClusterDraws.member_rows``
    over the member's initial, evolve and budget streams from ``streams``."""
    evolve = streams.get(member, _STREAM_EVOLVE) if draws.evolves(t) else None
    return draws.member_rows(streams.get(member, _STREAM_INIT), evolve,
                             streams.get(member, _STREAM_BUDGET), t, cluster_index, rows,
                             positions_only)


def member_channel_state(config, seed: int, member: int, t: float):
    """Cluster set and phase generator of one ensemble member at time t.

    The clusters are those the estimators see for (seed, member) at t,
    then evolved along both arrays from the member's own array stream,
    so every antenna pair carries its own visibility.  The returned
    generator is the member's phase stream, for drawing the initial
    phases of a channel realization; it is the caller's to keep.
    """
    require_integer("seed", seed, floor=0)
    require_integer("member", member, floor=0)
    require_time("t", t)
    streams = MemberStreams(int(seed), range(int(member), int(member) + 1), _PURPOSES)
    clusters = initial_clusters(config, streams.get(member, _STREAM_INIT))
    clusters = evolve_time(clusters, t, config, streams.get(member, _STREAM_EVOLVE))
    clusters = evolve_array(clusters, config.array, config.evolution,
                            streams.get(member, _STREAM_ARRAY), config=config)
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
    """Reference and probe halves of a per-offset array (first axis)."""
    half = values.shape[0] // 2
    return values[:half], values[half:]


def _by_path(table):
    """The (paths, columns) view of a C-ordered (columns, paths) table:
    F-ordered, or C-ordered with one column or one path."""
    return table.reshape(table.shape[::-1]) if 1 in table.shape else table.T


def _distinct(*keys):
    """Index of each entry's key tuple among the distinct tuples (first
    occurrence order), then the distinct values of each key."""
    seen: dict[tuple, int] = {}
    index = np.array([seen.setdefault(key, len(seen)) for key in zip(*keys)])
    return (index, *(np.array(v) for v in zip(*seen)))


def _phase_free(sampled: bool, dT, dR, dL) -> bool:
    """Whether every phasor of an estimate is exactly 1: analytic mode with
    every spacing and time lag zero (every ``fcf``), where the estimate
    reads only each cluster's gate, power and delay."""
    return not sampled and not (np.any(dT) or np.any(dR) or np.any(dL))


def _by_member(member, rows, count: int):
    """Sum of ``rows`` per member index; a member with no rows sums to zero.

    ``member`` is sorted.  Row k of each member goes to slab k of a
    (rank, member) array, and the slabs are added one after another, so
    every member's rows are summed in row order from zero: the bytes of
    ``np.add.at`` (which scatters one row at a time) for a few slab adds.
    """
    counts = np.bincount(member, minlength=count)
    rank = np.arange(member.size) - (np.cumsum(counts) - counts)[member]
    slabs = np.zeros((counts.max(), count) + rows.shape[1:], dtype=rows.dtype)
    slabs[rank, member] = rows
    out = np.zeros((count,) + rows.shape[1:], dtype=rows.dtype)
    for slab in slabs:
        out += slab
    return out


class _LagContext:
    """The plan of one estimate, built once per call and handed to every
    chunk (pickled to a worker; each chunk makes its own ``ClusterDraws``).
    ``state_key`` is what a chunk's draw reads, not the model or the lags;
    ``owner``, the model and lag bytes, names the estimate, which draws
    again the ``STATES`` entries it drew itself.

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

    def __init__(self, config, model, t, dT, dR, dW, dL, *, cluster_index, seed):
        arr = config.array
        self.config = config
        self.model = model
        self.t = t
        self.cluster_index, self.seed = cluster_index, seed
        self.sampled = config.estimator_mode == "sampled"
        self.phase_free = _phase_free(self.sampled, dT, dR, dL)
        self.wn = TWO_PI / config.wavelength
        self.dT, self.dR, self.dW, self.dL = dT, dR, dW, dL  # checked by _estimate
        self.owner = (model, dT.tobytes(), dR.tobytes(), dW.tobytes(), dL.tobytes())
        self.length = dT.size
        self.column, col_tx, col_rx, self.col_time = _distinct(dT, dR, dL)
        self.key = (config.ellipse.focal_half, arr, config.wavelength,
                    config.max_doppler, config.velocity_angle, config.estimator_mode,
                    col_tx.tobytes(), col_rx.tobytes(), self.col_time.tobytes())
        self.width = self.col_time.size
        # P paths per cluster: its S rays (GBSM) or the M beams (BDCM)
        self.num_paths = config.rays_per_cluster if model == "gbsm" else config.num_beams
        # real entries a cluster adds to a block's per-path arrays: P x (complex
        # lag columns + a few per-ray values) for GBSM; BDCM tables are per
        # slot; a phase-free cluster is one complex term per lag in either model
        if self.phase_free:
            self.cluster_cost = 2 * self.length
        else:
            self.cluster_cost = self.num_paths * (2 * (self.width + 8) if model == "gbsm" else 1)
        self.col_space, space_tx, space_rx = _distinct(col_tx, col_rx)
        self.col_lag, self.lag_time = _distinct(self.col_time)
        # [reference offsets of every spacing pair..., probe offsets...], so
        # one kernel call per side covers both antennas; _split separates them
        self.off_tx = _side_offsets(arr.num_tx, arr.spacing_tx, space_tx)
        self.off_rx = _side_offsets(arr.num_rx, arr.spacing_rx, space_rx)
        # the kernel is elementwise, so it runs over each side's distinct
        # offsets (in a receive sweep every transmit offset is the configured
        # one) and ``tables`` scatters them back
        self.kernel_tx = np.unique(self.off_tx, return_inverse=True)
        self.kernel_rx = np.unique(self.off_rx, return_inverse=True)
        hz = config.evolution.death_rate / config.evolution.array_decorrelation
        self.hazard_tx = hz * dT
        self.hazard_rx = hz * dR
        self.decay = time_decay_rate(config.evolution)
        self.kfac = config.rician_k
        self.k_eff = self.kfac / (self.kfac + 1.0)
        self.direct_rows = None
        if self.phase_free:  # reads no table, weight or direct-path row
            return
        if model == "bdcm":
            angles = virtual_angles(config.num_beams)
            # beam weights and the direct beam read only the arrival angles,
            # which every slot shares; each slot's tables compute its own
            # departure angles
            self.grid = VirtualAngleGrid(num_beams=config.num_beams, aoa=angles, aod=None)
            self.beam_doppler = ray_doppler(angles, config.max_doppler,
                                            config.velocity_angle)
            self.direct_beam = self.center_doppler = self.direct_key = None
            if self.kfac > 0:
                # the beam-domain direct path rides each slot's direct-path
                # beam with the array-center Doppler
                m0 = los_beam_index(self.grid)
                self.direct_beam = slice(m0 - 1, m0)
                self.center_doppler = center_los_doppler(config)
                self.direct_key = t
        elif self.kfac > 0:
            self.direct_rows = HELD.get(("gbsm direct", *self.key, t), self._antenna_direct_rows)

    def state_key(self, start: int, stop: int) -> tuple:
        """The ``STATES`` key of the chunk of members ``start`` to ``stop - 1``."""
        return (self.config, self.seed, start, stop, self.t, self.cluster_index,
                self.phase_free)

    def _antenna_direct_rows(self):
        """The antenna-domain direct path joins the arrays, whatever the
        cluster, so one row serves every call that shares the key."""
        cfg, arr = self.config, self.config.array
        dist, doppler = los_doppler_from_offsets(
            self.off_tx, self.off_rx, cfg.ellipse, arr.tilt_tx, arr.tilt_rx,
            cfg.max_doppler, cfg.velocity_angle)
        return self._direct_row(*(v[None, self.col_space] for v in
                                  (*_split(dist), *_split(doppler))))

    def slot_key(self, semi_major):
        """The held-store key of one delay slot's beam tables."""
        return ("bdcm slot", self.num_paths, float(semi_major), *self.key, self.direct_key)

    def slot_tables(self, semi_major):
        """Beam tables of one delay slot's ellipse and, with K > 0, its
        direct-path rows; read-only, held across chunks and calls."""
        return HELD.get(self.slot_key(semi_major),
                        lambda: self.tables(self.grid.aoa, semi_major, self.direct_beam)[1:])

    def tables(self, ang, semi_major, direct=None):
        """Per-path Doppler and phasor tables over the distinct lag columns.

        Path p arrives at ``ang[p]`` from the ellipse ``semi_major[p]``
        (or one ``semi_major`` for all).  Analytic mode gives one (paths,
        columns) table exp(1j*dphase) of the reference-minus-probe phase.
        Sampled mode gives the reference and probe geometry phasors; the
        per-path phases and the Doppler rotation at t enter later as a
        diagonal.  The time-lag Doppler rotation is part of the tables in
        both modes.  With ``direct``, a slice of the one path the direct
        path rides (the beam ``bdcm.los_beam_index`` picks), the last item
        holds the direct-path row along it, in the same form as the tables.

        The geometry takes one cosine and one sine per path, the distances
        come (offsets, paths) from ``antenna_distances``, and each table is
        built as (columns, paths), its phase written into the imaginary
        part and exponentiated in place.  The tables returned are (paths,
        columns) views of them, F-ordered (the analytic and probe tables
        C-ordered with one column or one path), the layout of column-major
        tables, because the BLAS call of a ray sum or slot product follows
        the strides.
        """
        cfg = self.config
        d_rx, aod = scatter_geometry(ang, semi_major, cfg.ellipse.focal_half)
        d_tx = 2.0 * semi_major - d_rx
        (off_tx, back_tx), (off_rx, back_rx) = self.kernel_tx, self.kernel_rx
        tx_x, tx_y = _split(antenna_distances(d_tx, aod, cfg.array.tilt_tx, off_tx)[back_tx])
        rx_x, rx_y = _split(antenna_distances(d_rx, ang, cfg.array.tilt_rx, off_rx)[back_rx])
        doppler = ray_doppler(ang, cfg.max_doppler, cfg.velocity_angle)
        # analytic tables take the reference-minus-probe phase, so their lag
        # phase enters with its sign turned: (-a)*b == -(a*b) exactly
        lag_phase = ((TWO_PI if self.sampled else -TWO_PI)
                     * doppler * self.lag_time[:, None])[self.col_lag]
        spread = self.col_space
        rows = None if direct is None else self._direct_row(
            (tx_x[:, direct] + rx_x[:, direct])[spread].T,
            (tx_y[:, direct] + rx_y[:, direct])[spread].T,
            self.center_doppler, self.center_doppler)
        if self.sampled:
            return doppler, (unit_phasors(self.wn, tx_x + rx_x)[spread].T,
                             _by_path(unit_phasors(self.wn, (tx_y + rx_y)[spread],
                                                   lag_phase))), rows
        dpath = ((tx_x - tx_y) + (rx_x - rx_y))[spread]
        return doppler, (_by_path(unit_phasors(self.wn, dpath, lag_phase)),), rows

    def _direct_row(self, d_x, d_y, f_x, f_y):
        """Direct-path table rows from their reference and probe path lengths
        and Doppler shifts per lag column, rotated to the evaluation time."""
        px = self.wn * d_x + TWO_PI * f_x * self.t
        py = self.wn * d_y + TWO_PI * f_y * (self.t + self.col_time)
        if self.sampled:
            return np.exp(1j * px), np.exp(1j * py)
        return (np.exp(1j * (px - py)),)


class _Picked(NamedTuple):
    """The clusters an estimate reads of a run of members, as arrays.

    ``count`` holds each member's number of picked clusters; every other
    field holds one entry per cluster, members in order and each member's
    clusters by position.  A chain step is NaN where the chain has no step
    (one antenna on that side).  A phase-free chunk holds the first five
    fields only, the ones its estimate reads; ``rays`` is also None when
    nothing is picked.
    """

    count: np.ndarray       # picked clusters per member
    power: np.ndarray
    delay: np.ndarray
    budget: np.ndarray      # survival budget on the time axis
    first: np.ndarray       # the cluster sits at position 1
    semi_major: np.ndarray | None = None
    tx_step: np.ndarray | None = None   # first budget of the transmit chain
    rx_step: np.ndarray | None = None   # first budget of the receive chain
    mean_aoa: np.ndarray | None = None
    rays: np.ndarray | None = None      # (clusters, S) arrival angles

    @classmethod
    def of_rows(cls, count, rows: list, phase_free: bool) -> "_Picked":
        """The arrays of the per-member cluster counts and the cluster rows
        of ``ClusterDraws.member_rows`` (fields ``power`` onward)."""
        names = cls._fields[1:5] if phase_free else cls._fields[1:]
        columns = list(zip(*rows)) or [()] * len(names)
        dtype = {"first": bool}
        out = {name: np.array(column, dtype=dtype.get(name, float))
               for name, column in zip(names, columns)}
        if not phase_free and not rows:
            out["rays"] = None
        return cls(np.array(count, dtype=np.intp), **out)

    def members(self, lo: int, hi: int) -> "_Picked":
        """The part of the run that its members ``lo`` to ``hi - 1`` own."""
        first, last = int(self.count[:lo].sum()), int(self.count[:hi].sum())
        return _Picked(self.count[lo:hi], *(None if a is None else a[first:last]
                                            for a in self[1:]))


def _block_terms(ctx: _LagContext, block: _Picked, phases=None):
    """Per-member (numerator, |X|^2 term, |Y|^2 term) of a block of members.

    ``block`` holds the members' picked clusters and, in sampled mode,
    ``phases`` their phase draws, one per path in cluster order, members
    in order.  The block's clusters are evaluated
    together as (clusters, P) arrays: one table build over all their rays,
    summed over the ray axis (GBSM), or one product per delay slot against
    that slot's beam table (BDCM).  Each cluster's term is gated, rotated by
    its delay and summed into its member's row: in analytic mode the
    member's exact expectation over initial phases, in sampled mode the
    product of its realized coefficients.  In a ``phase_free`` call every
    phasor is 1 and a cluster's path weights, with the direct path's
    k_eff / total, sum to 1, so its term is gate x delay rotation x power,
    from no table at all.
    """
    cfg = ctx.config
    n = block.count.size
    if not block.power.size:
        zero = np.zeros((n, ctx.length))
        return (zero + 0j, zero, zero) if ctx.sampled else (zero + 0j, np.zeros(n), zero)
    member = np.repeat(np.arange(n), block.count)
    direct = block.first & (ctx.kfac > 0)
    power = block.power / (ctx.kfac + 1.0)
    total = np.where(direct, power + ctx.k_eff, power)
    gate = block.budget[:, None] > ctx.decay * ctx.dL
    # the probe on antenna 2 sees the cluster if it survives the first step
    for hazard, first in ((ctx.hazard_tx, block.tx_step), (ctx.hazard_rx, block.rx_step)):
        if np.any(hazard > 0):
            gate &= (first[:, None] > hazard) | (hazard <= 0)
    delays, which = np.unique(block.delay, return_inverse=True)
    freq = np.exp(1j * TWO_PI * ctx.dW * delays[:, None])[which]
    if ctx.phase_free:
        return _analytic_terms(member, n, gate, 1.0, freq, total)
    if ctx.model == "gbsm":
        rays = block.rays
        doppler, tables, _ = ctx.tables(rays.ravel(), np.repeat(block.semi_major, rays.shape[1]))
        doppler = doppler.reshape(rays.shape)
        weights = np.full(rays.shape, 1.0 / rays.shape[1])
    else:
        doppler = ctx.beam_doppler
        weights = beam_weights(block.mean_aoa, cfg.kappa, ctx.grid, cfg.beam_weighting)
    # cluster 1 shares its total power with the direct path, weight k_eff / total
    weights *= np.where(direct, power / total, 1.0)[:, None]
    w_direct = ctx.k_eff / total[direct]
    if ctx.sampled:
        # a direct-path phase follows the P path phases of its cluster 1
        ones = np.flatnonzero(direct)
        at_direct = (ones + 1) * weights.shape[1] + np.arange(ones.size)
        angle = (TWO_PI * doppler * ctx.t
                 + np.delete(phases, at_direct).reshape(weights.shape))
        coef = np.sqrt(total[:, None] * weights) * np.exp(1j * angle)
        coef_direct = np.sqrt(total[direct] * w_direct) * np.exp(1j * phases[at_direct])
    else:
        coef, coef_direct = weights, w_direct
    if ctx.model == "gbsm":
        out = [(coef[:, None, :] @ table.reshape(*coef.shape, -1))[:, 0] for table in tables]
        rows = ctx.direct_rows
    else:
        out = [np.empty((block.power.size, ctx.width), dtype=complex)
               for _ in range(1 + ctx.sampled)]
        rows = [np.empty((np.count_nonzero(direct), ctx.width), dtype=complex) for _ in out]
        # the inverse form: plain np.unique imports numpy.ma on first use
        semi, slot = np.unique(block.semi_major, return_inverse=True)
        # each slot writes its own rows, so the order leaves the bytes alone
        for s in HELD.held_first([ctx.slot_key(v) for v in semi]):
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
    return _analytic_terms(member, n, gate, out[0][:, ctx.column], freq, total)


def _analytic_terms(member, n, gate, phasor, freq, total):
    """Per-member analytic (numerator, |X|^2, |Y|^2) terms from each
    cluster's gate, phasor sum and delay rotation per lag, and its power."""
    term = gate * phasor * freq * total[:, None]
    return (_by_member(member, term, n), np.bincount(member, total, minlength=n),
            _by_member(member, gate * total[:, None], n))


def _chunk_state(ctx: _LagContext, members: range) -> tuple:
    """The clusters ``ctx`` reads of each member of a chunk, with their
    survival budgets on the time axis, as arrays held in ``STATES``; and the
    member streams when drawn here (None when held), a sampled call's with
    the phase stream."""
    streams = None

    def draw():
        nonlocal streams
        draws = ClusterDraws(ctx.config)
        purposes = [_STREAM_INIT, _STREAM_BUDGET]
        if draws.evolves(ctx.t):
            purposes.append(_STREAM_EVOLVE)
        if ctx.sampled:
            purposes.append(_STREAM_PHASE)
        streams = MemberStreams(ctx.seed, members, purposes)
        rows = []
        count = [_member_state(draws, streams, member, ctx.t, ctx.cluster_index, rows,
                               ctx.phase_free) for member in members]
        return _Picked.of_rows(count, rows, ctx.phase_free)

    key = ctx.state_key(members.start, members.stop)
    return STATES.get(key, draw, scope=ctx.seed, owner=ctx.owner), streams


def _accumulate(ctx: _LagContext, start: int, stop: int) -> tuple:
    """Reduce the chunk of ensemble members ``start`` to ``stop - 1``.

    The chunk's clusters come from ``_chunk_state``, held or drawn.
    Members are evaluated in blocks: a block closes once its largest
    arrays reach ``_BLOCK_ELEMENTS`` entries or the chunk ends, which
    bounds the memory of one evaluation for any ray or beam count.  Each
    block's per-member rows are kept, and the chunk is summed over its
    members once, after the last block, so the sums do not depend on
    where the blocks close.  The phase draws read the path count, which
    the model sets, so a sampled call draws them itself.
    Returns the per-lag sums the normalization reads: numerator, its
    |.|^2, |X|^2 and |Y|^2 ("standard"), or the per-member ratio, its |.|^2
    and the count of members whose ratio is defined ("per_realization").
    """
    members = range(start, stop)
    state, streams = _chunk_state(ctx, members)
    phases = None
    if ctx.sampled:
        streams = streams or MemberStreams(ctx.seed, members, [_STREAM_PHASE])
        owner = np.repeat(np.arange(len(members)), state.count)
        direct = np.bincount(owner[state.first], minlength=len(members)) > 0
        direct &= ctx.kfac > 0
        phases = [streams.get(member, _STREAM_PHASE).uniform(
                      0.0, TWO_PI, count * ctx.num_paths + has_direct)
                  for member, count, has_direct in zip(members, state.count.tolist(),
                                                       direct.tolist())]
    terms, lo, cost = [], 0, 0
    for hi, count in enumerate(state.count.tolist(), 1):
        cost += ctx.cluster_cost * count
        if cost < _BLOCK_ELEMENTS and hi < len(members):
            continue
        terms.append(_block_terms(ctx, state.members(lo, hi),
                                  None if phases is None else np.concatenate(phases[lo:hi])))
        lo, cost = hi, 0
    v, a, b = (np.concatenate(rows) for rows in zip(*terms))
    if ctx.config.normalization == "per_realization":
        ok = (a * b) > 0
        r = np.where(ok, v / np.sqrt(np.where(ok, a * b, 1.0)), 0.0)
        return r.sum(axis=0), (np.abs(r) ** 2).sum(axis=0), ok.sum(axis=0)
    # analytic |X|^2 terms are one per member, the same at every lag
    return (v.sum(axis=0), (np.abs(v) ** 2).sum(axis=0),
            np.zeros(ctx.length) + a.sum(axis=0), b.sum(axis=0))


def _worker_count() -> int:
    raw = os.environ.get("BEAMCHAN_WORKERS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"BEAMCHAN_WORKERS must be an integer, got {raw!r}") from None
    require_integer("BEAMCHAN_WORKERS", n, floor=1)
    return n


def _estimate(config: SimulationConfig, model, cluster_index, lag_tx, lag_rx,
              lag_freq, lag_time, t, ensemble, seed):
    if model not in ("gbsm", "bdcm"):
        raise ValueError(f"unknown model '{model}'")
    if cluster_index is not None:
        require_integer("cluster_index", cluster_index, floor=1)
    ensemble = config.ensemble if ensemble is None else ensemble
    seed = config.seed if seed is None else seed
    require_integer("ensemble", ensemble, floor=1)
    require_integer("seed", seed, floor=0)
    ensemble, seed = int(ensemble), int(seed)
    if config.normalization == "per_realization" and config.estimator_mode != "sampled":
        raise ValueError("per_realization normalization needs estimator_mode='sampled'")
    require_time("t", t)
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
    ctx = _LagContext(config, model, t, dT, dR, dW, dL, cluster_index=cluster_index, seed=seed)
    starts = range(0, ensemble, _CHUNK)
    stops = [min(start + _CHUNK, ensemble) for start in starts]
    workers = _worker_count()
    if workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_accumulate, [ctx] * len(starts), starts, stops))
    else:
        # held chunks first, so that a call needing more than the budget
        # evicts only chunks it is done with; the sums keep chunk order
        parts = [None] * len(starts)
        keys = [ctx.state_key(start, stop) for start, stop in zip(starts, stops)]
        for i in STATES.held_first(keys, ctx.owner):
            parts[i] = _accumulate(ctx, starts[i], stops[i])
    sums = [sum(column) for column in zip(*parts)]
    if config.normalization == "per_realization":
        pr_num, pr_sq, pr_cnt = sums
        cnt = np.maximum(pr_cnt, 1)
        values = pr_num / cnt
        var = np.maximum(pr_sq / cnt - np.abs(values) ** 2, 0.0)
        err = np.sqrt(var / cnt)
        values = np.where(pr_cnt > 0, values, 0.0)
    else:
        num, sq, den_x, den_y = sums
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
    return values, err, ensemble


def _make_series(config, model, kind, cluster_index, axis, lag_tx, lag_rx,
                 lag_freq, lag_time, t, ensemble, seed) -> CorrelationSeries:
    values, err, ensemble = _estimate(config, model, cluster_index, lag_tx, lag_rx,
                                      lag_freq, lag_time, t, ensemble, seed)
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
    values, _, _ = _estimate(config, model, cluster_index,
                             np.array([spacing_tx]), np.array([spacing_rx]),
                             np.array([freq_lag]), np.array([time_lag]),
                             t, ensemble, seed)
    return complex(values[0])
