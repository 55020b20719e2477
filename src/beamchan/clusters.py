"""Cluster ensembles and their birth-death evolution.

Clusters sit on a ladder of confocal ellipses: cluster n (1-based slot s,
zero-based) has semi-major axis a_1 + s*c*delay_spacing/2, so consecutive
delays are delay_spacing apart.  Powers follow an exponential profile in
excess delay, normalized over the initial set.  Visibility is non
stationary on two axes: stepping along an array, a cluster survives each
inter-antenna step with probability exp(-death_rate*spacing/array_decorr),
and over a time interval dt it survives with probability
exp(-death_rate*scenario_factor*ms_speed*dt/space_decorr).  Deaths remove
nothing physically observable except visibility; births append fresh
clusters so the mean count stays birth_rate/death_rate.

Survival along the array is stored as a chain of unit-exponential budgets
(one per inter-antenna step), which makes the per-step coin flips
reproducible for any spacing: the cluster survives a step of length x
(in hazard units) exactly when the step's budget exceeds x.

``ClusterDraws`` holds the draw steps that ``initial_clusters``,
``evolve_time``, ``evolve_array`` and the correlation estimators share, so
every random draw of a cluster history is made in one place: one raw
draw per cluster (``_new_cluster``: rays, then chains), which the
builders' paths wrap into ``Cluster`` objects and the estimators' path
(``ClusterDraws.member_rows``) writes into rows of the fields they read.
The ladder itself (each slot's semi-major axis, delay and power-delay
weight) and the power scale of an initial count read only the first
semi-major axis, the delay spacing and the profile's time constant, so
one cached, immutable ``_ladder`` call per such triple and count serves
every ``ClusterDraws`` of the process.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SPEED_OF_LIGHT, require_finite, require_time

__all__ = [
    "Cluster",
    "EvolutionConfig",
    "array_survival",
    "time_survival",
    "time_decay_rate",
    "initial_clusters",
    "evolve_array",
    "evolve_time",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Birth-death rates and decorrelation distances for both axes."""

    birth_rate: float = 80.0          # per meter
    death_rate: float = 4.0           # per meter
    array_decorrelation: float = 30.0  # meters, array axis
    space_decorrelation: float = 50.0  # meters, time axis
    scenario_factor: float = 0.3      # fraction of effective scatterer motion
    ms_speed: float = 0.5             # meters per second

    def __post_init__(self):
        require_finite(self, "birth_rate", "death_rate", "ms_speed", floor=0)
        require_finite(self, "array_decorrelation", "space_decorrelation", "scenario_factor")
        if self.array_decorrelation <= 0 or self.space_decorrelation <= 0:
            raise ValueError("decorrelation distances must be positive")
        if not 0 <= self.scenario_factor <= 1:
            raise ValueError("scenario_factor must lie in [0, 1]")


def array_survival(spacing: float, evolution: EvolutionConfig) -> float:
    """Probability of surviving one inter-antenna step of ``spacing`` meters."""
    return math.exp(-evolution.death_rate * spacing / evolution.array_decorrelation)


def time_decay_rate(evolution: EvolutionConfig) -> float:
    """Hazard rate (per second) of cluster death on the time axis."""
    return (evolution.death_rate * evolution.scenario_factor * evolution.ms_speed
            / evolution.space_decorrelation)


def time_survival(dt: float, evolution: EvolutionConfig) -> float:
    """Probability of surviving a time interval of ``dt`` seconds."""
    return math.exp(-time_decay_rate(evolution) * dt)


@dataclass
class Cluster:
    """One scatterer cluster and its visibility state.

    ``index`` is the 1-based position in the current cluster list (kept in
    sync by the evolution operations); ``uid`` never changes and tracks
    identity across evolution.  ``slot`` is the delay-ladder slot the
    semi-major axis was drawn from.  The chain arrays hold one
    unit-exponential survival budget per inter-antenna step.
    Visibility is one interval of 1-based antenna indices per side (a
    ``range``): from the antenna where the cluster is born to its first death.
    """

    index: int
    uid: int
    slot: int
    semi_major: float
    delay: float
    power: float
    mean_aoa: float
    ray_aoas: np.ndarray = field(repr=False)
    visible_tx: range = range(1, 2)
    visible_rx: range = range(1, 2)
    pdp_scale: float = 1.0
    tx_chain: np.ndarray | None = field(default=None, repr=False)
    rx_chain: np.ndarray | None = field(default=None, repr=False)

    def visible_block(self) -> tuple[slice, slice]:
        """Zero-based (receive, transmit) slices of the visible antennas."""
        return tuple(slice(v.start - 1, v.stop - 1, v.step)
                     for v in (self.visible_rx, self.visible_tx))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _copied(c: Cluster) -> Cluster:
    """Shallow copy of a cluster; its arrays are shared, nothing writes them."""
    out = object.__new__(Cluster)
    out.__dict__.update(c.__dict__)
    return out


def _parentage(clusters: list[Cluster]) -> tuple[int, float, int]:
    """Ladder length, power scale and first free uid of newborns among ``clusters``."""
    return (max(len(clusters), 1), clusters[0].pdp_scale if clusters else 1.0,
            max((c.uid for c in clusters), default=0) + 1)


@functools.lru_cache(maxsize=1024)
def _ladder(semi_major: float, delay_spacing: float, tau0: float,
            length: int) -> tuple[tuple[tuple[float, float, float], ...], float]:
    """The first ``length`` slots of the delay ladder of one (first
    semi-major axis, delay spacing, tau0), each (semi-major axis, delay,
    power-delay weight), and the power scale that normalizes an initial set
    of ``length`` clusters.  Pure and cached, so threads may share it; the
    least recently used of more than 1024 entries leaves first."""
    slots = []
    for s in range(length):
        a = semi_major + s * SPEED_OF_LIGHT * delay_spacing / 2.0
        slots.append((a, 2.0 * a / SPEED_OF_LIGHT, math.exp(-s * delay_spacing / tau0)))
    return tuple(slots), 1.0 / np.array([w for _, _, w in slots]).sum()


class ClusterDraws:
    """The draw steps of a cluster history, with the config-derived
    constants they share computed once per instance; ``key`` is what the
    delay ladder (``_ladder``) reads of the config.

    Every random draw of a history goes through these steps in a fixed
    order.  The initial stream holds the count, then per cluster its mean
    angle (after the first), its rays and both array chains.  The evolve
    stream holds the survival coin flips and the birth count, then per
    newborn its ladder slot, mean angle, rays and chains.  The fates read
    only the ensemble size, so a caller that reads a few clusters can stop
    drawing after the last one it reads without moving any other draw.

    ``initial`` and ``newborns`` wrap the draws into ``Cluster`` objects
    (for the builders, ``initial_clusters`` and ``evolve_time``);
    ``member_rows`` appends one row tuple per cluster an estimate reads to
    one list and builds no objects.
    """

    def __init__(self, config):
        self.config = config
        self.kappa = config.kappa
        self.rays = config.rays_per_cluster
        self.tx_steps = max(config.array.num_tx - 1, 0)
        self.steps = self.tx_steps + max(config.array.num_rx - 1, 0)
        self.mean_count = config.mean_cluster_count
        # exponential power-delay profile in excess delay; the time constant
        # is the mean excess delay of the average-length ladder
        tau0 = config.delay_spacing * max((self.mean_count - 1.0) / 2.0, 1.0)
        self.key = (config.ellipse.semi_major, config.delay_spacing, tau0)

    def evolves(self, t: float) -> bool:
        """Whether a history at ``t`` reads its evolve stream: with no deaths
        its fates would keep every cluster and add none."""
        return t > 0 and self.config.evolution.death_rate > 0

    def count(self, rng) -> int:
        """Initial cluster count: Poisson with the steady-state mean, empty
        draws rejected."""
        count = 0
        while count == 0:
            count = int(rng.poisson(self.mean_count))
        return count

    def _drawn_initial(self, rng, stop: int):
        """Mean angle, rays and chains of each of the first ``stop`` initial
        clusters.  A mean angle is uniform(-pi, pi) written out, the same
        bits from the same stream position."""
        random = rng.random
        for s in range(stop):
            mean_aoa = self.config.mean_aoa if s == 0 else -math.pi + 2.0 * math.pi * random()
            yield (mean_aoa, *_new_cluster(self, rng, mean_aoa))

    def _drawn_newborns(self, rng, count: int, ladder: int):
        """Slot below ``ladder``, mean angle, rays and chains of each of
        ``count`` newborns."""
        integers, random = rng.integers, rng.random
        for _ in range(count):
            slot = int(integers(0, ladder))
            mean_aoa = -math.pi + 2.0 * math.pi * random()
            yield (slot, mean_aoa, *_new_cluster(self, rng, mean_aoa))

    def _cluster(self, slots, index, uid, slot, pdp_scale, mean_aoa, rays,
                 chains) -> Cluster:
        semi_major, delay, weight = slots[slot]
        return Cluster(index, uid, slot, semi_major, delay, weight * pdp_scale, mean_aoa,
                       rays, pdp_scale=pdp_scale, tx_chain=chains[:self.tx_steps],
                       rx_chain=chains[self.tx_steps:])

    def initial(self, rng, count: int) -> list[Cluster]:
        """An initial set of ``count`` clusters."""
        slots, scale = _ladder(*self.key, count)
        return [self._cluster(slots, s + 1, s + 1, s, scale, *drawn)
                for s, drawn in enumerate(self._drawn_initial(rng, count))]

    def fates(self, rng, count: int, dt: float) -> tuple[np.ndarray, int]:
        """Positions of the survivors among ``count`` clusters after ``dt``
        seconds, and the birth count."""
        surv = time_survival(dt, self.config.evolution)
        alive = (rng.random(count) < surv).nonzero()[0]
        births = int(rng.poisson(self.mean_count * (1.0 - surv)))
        if alive.size == 0 and births == 0:
            births = 1  # reject the empty ensemble, like the initial draw
        return alive, births

    def newborns(self, rng, count: int, ladder: int, pdp_scale: float,
                 first_uid: int) -> list[Cluster]:
        """``count`` fresh clusters numbered from ``first_uid``; each draws a
        slot below ``ladder``, a uniform mean angle, then its rays and chains."""
        slots = _ladder(*self.key, ladder)[0]
        return [self._cluster(slots, 0, uid, slot, pdp_scale, mean_aoa, rays, chains)
                for uid, (slot, mean_aoa, rays, chains)
                in enumerate(self._drawn_newborns(rng, count, ladder), first_uid)]

    def member_rows(self, init, evolve, budget, t: float, cluster_index, rows: list,
                    positions_only: bool) -> int:
        """Append one row per cluster an estimate reads of one member's
        history at ``t`` to ``rows``; return their number.

        ``init``, ``evolve`` and ``budget`` are the member's initial, evolve
        (None when the history does not evolve at ``t``) and time-budget
        streams; ``cluster_index`` picks one position (``None`` picks all).
        Each stream is read in the order of a full draw (``initial_clusters``,
        then ``evolve_time``), and drawing stops after the last cluster
        picked: the initial clusters run through the last survivor picked,
        the newborns through the last newborn picked.  So every row holds the
        full draw's values, position for position.  The budget stream holds
        one unit-exponential survival budget on the time axis per position.

        A row is a cluster's power, delay, budget, position-1 flag,
        semi-major axis, first transmit and receive chain budgets (NaN with
        one antenna on that side), mean angle and rays.  With
        ``positions_only`` it holds the first four, and the initial clusters
        are placed from the ladder: nothing after the count is drawn from the
        initial stream.  Newborns are drawn in full, since their slots sit
        behind the rays' draws.
        """
        count = self.count(init)
        alive, births = range(count), 0
        if evolve is not None:
            alive, births = self.fates(evolve, count, t)
            alive = alive.tolist()
        total = len(alive) + births
        lo, hi = ((0, total) if cluster_index is None
                  else (cluster_index - 1, min(cluster_index, total)))
        budgets = budget.standard_exponential(max(total, 1)).tolist()
        slots, scale = _ladder(*self.key, count)
        survivors = alive[lo:hi]  # initial positions of the picked survivors
        drawn = ([] if positions_only or not survivors
                 else list(self._drawn_initial(init, survivors[-1] + 1)))
        picked = [(s, drawn[s] if drawn else None) for s in survivors]
        first = max(lo - len(alive), 0)  # the first newborn picked, if any
        if hi - len(alive) > first:  # births, so the evolve stream exists
            newborns = list(self._drawn_newborns(evolve, hi - len(alive), count))[first:]
            picked += [(slot, rest) for slot, *rest in newborns]
        tx, rx = self.tx_steps, self.steps > self.tx_steps
        for position, (slot, drawn) in enumerate(picked, lo):
            semi_major, delay, weight = slots[slot]
            row = (weight * scale, delay, budgets[position], position == 0)
            if not positions_only:
                mean_aoa, rays, chains = drawn
                row += (semi_major, chains[0] if tx else math.nan,
                        chains[tx] if rx else math.nan, mean_aoa, rays)
            rows.append(row)
        return len(picked)


def _new_cluster(draws: ClusterDraws, rng, mean_aoa: float) -> tuple[np.ndarray, np.ndarray]:
    """The one per-cluster draw: its rays (von Mises, or uniform when
    ``kappa`` is not positive), then both array chains in one call."""
    if draws.kappa > 0:
        rays = rng.vonmises(mean_aoa, draws.kappa, draws.rays)
    else:
        rays = rng.uniform(-math.pi, math.pi, draws.rays)
    return rays, rng.standard_exponential(draws.steps)


def initial_clusters(config, rng_seed) -> list[Cluster]:
    """Draw the time-zero cluster ensemble.

    The count is Poisson with the steady-state mean (empty draws are
    rejected).  Cluster 1 is centered on the configured mean arrival
    angle; the remaining clusters draw their mean angles uniformly.
    Powers are normalized to sum to one over the initial set, and every
    cluster starts visible to antenna 1 on both arrays.
    """
    rng = _as_rng(rng_seed)
    draws = ClusterDraws(config)
    return draws.initial(rng, draws.count(rng))


def _visible_steps(chains, hazard: float, starts, count: int) -> list[range]:
    """Per cluster, the antennas from its birth antenna ``starts[i]`` up to
    the first later step whose budget is ``<= hazard``, at most to ``count``.

    ``chains[i][j]`` is the budget of the step from antenna j + 1 to j + 2.
    The steps before the birth antenna are not read, and a chain that ends
    early ends the interval there.
    """
    width = count - 1
    starts = np.asarray(starts, dtype=int).reshape(-1, 1)
    # one column past the array, dead for every cluster, ends each walk at count
    budgets = np.full((len(chains), width + 1), -np.inf)
    for row, chain in zip(budgets, chains):
        row[:min(chain.size, width)] = chain[:width]
    dead = (budgets <= hazard) & (np.arange(width + 1) >= starts - 1)
    stops = dead.argmax(axis=1) + 2
    return [range(a, b) for a, b in zip(starts[:, 0].tolist(), stops.tolist())]


def evolve_array(clusters: list[Cluster], array, evolution: EvolutionConfig,
                 rng, config=None) -> list[Cluster]:
    """Propagate cluster visibility across both arrays.

    Every input cluster must be visible at antenna 1 and carry its chains.
    Each inter-antenna step kills a cluster independently with the array
    survival probability; at every subsequent antenna, fresh clusters are
    born with mean count mean_clusters*(1 - survival) and stay visible from
    their birth antenna onward.  Newborn attribute draws need the full
    simulation config; pass ``config`` to enable them (otherwise births
    are skipped, which is the right thing for pure visibility studies).
    Returns a new list; inputs are not mutated.
    """
    if any(c.tx_chain is None or c.rx_chain is None for c in clusters):
        raise ValueError("evolve_array needs every cluster's tx_chain and rx_chain")
    rng = _as_rng(rng)
    hazard_rx = evolution.death_rate * array.spacing_rx / evolution.array_decorrelation
    hazard_tx = evolution.death_rate * array.spacing_tx / evolution.array_decorrelation
    born = [(c, 1, 1) for c in clusters]  # (cluster, birth antenna rx, tx)
    if config is not None and evolution.death_rate > 0:
        draws = ClusterDraws(config)
        ladder, pdp_scale, next_uid = _parentage(clusters)
        for side, spacing, count in (("rx", array.spacing_rx, array.num_rx),
                                     ("tx", array.spacing_tx, array.num_tx)):
            birth_mean = config.mean_cluster_count * (1.0 - array_survival(spacing, evolution))
            for antenna in range(2, count + 1):
                newborn = draws.newborns(rng, rng.poisson(birth_mean), ladder, pdp_scale,
                                         next_uid)
                next_uid += len(newborn)
                born += [(c, antenna, 1) if side == "rx" else (c, 1, antenna) for c in newborn]
    visible_rx = _visible_steps([c.rx_chain for c, _, _ in born], hazard_rx,
                                [rx for _, rx, _ in born], array.num_rx)
    visible_tx = _visible_steps([c.tx_chain for c, _, _ in born], hazard_tx,
                                [tx for _, _, tx in born], array.num_tx)
    out = []
    for i, ((c, _, _), rx, tx) in enumerate(zip(born, visible_rx, visible_tx)):
        c = _copied(c)
        c.index, c.visible_rx, c.visible_tx = i + 1, rx, tx
        out.append(c)
    return out


def evolve_time(clusters: list[Cluster], dt: float, config, rng) -> list[Cluster]:
    """Advance the cluster set by ``dt`` seconds.

    Each cluster survives with the exponential time survival probability
    (a single step is exact for any dt by memorylessness); survivors keep
    their geometry.  Births replenish the set with mean count
    mean_clusters*(1 - survival); newborns draw a fresh ladder slot,
    a uniform mean arrival angle and fresh rays.  The returned list is
    renumbered 1..N with survivors first, in their previous order.
    """
    require_time("dt", dt)
    rng = _as_rng(rng)
    if dt == 0:
        return [_copied(c) for c in clusters]
    draws = ClusterDraws(config)
    alive, births = draws.fates(rng, len(clusters), dt)
    out = [_copied(clusters[i]) for i in alive]
    out += draws.newborns(rng, births, *_parentage(clusters))
    for i, c in enumerate(out):
        c.index = i + 1
    return out
