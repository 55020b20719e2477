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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import SPEED_OF_LIGHT

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
        if self.birth_rate < 0 or self.death_rate < 0:
            raise ValueError("birth and death rates must be nonnegative")
        if self.array_decorrelation <= 0 or self.space_decorrelation <= 0:
            raise ValueError("decorrelation distances must be positive")
        if not 0 <= self.scenario_factor <= 1:
            raise ValueError("scenario_factor must lie in [0, 1]")
        if self.ms_speed < 0:
            raise ValueError("ms_speed must be nonnegative")


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


def _draw_rays(rng, mean_aoa: float, kappa: float, count: int) -> np.ndarray:
    if kappa <= 0:
        return rng.uniform(-math.pi, math.pi, count)
    return rng.vonmises(mean_aoa, kappa, count)


def _ladder_semi_major(config, slot: int) -> float:
    return config.ellipse.semi_major + slot * SPEED_OF_LIGHT * config.delay_spacing / 2.0


def _pdp_weight(config, slot: int) -> float:
    # exponential power-delay profile in excess delay; the time constant is
    # the mean excess delay of the average-length ladder
    mean_count = config.mean_cluster_count
    tau0 = config.delay_spacing * max((mean_count - 1.0) / 2.0, 1.0)
    return math.exp(-slot * config.delay_spacing / tau0)


def _new_cluster(config, rng, index: int, uid: int, slot: int, mean_aoa: float,
                 pdp_scale: float) -> Cluster:
    a = _ladder_semi_major(config, slot)
    rays = _draw_rays(rng, mean_aoa, config.kappa, config.rays_per_cluster)
    tx_chain = rng.exponential(1.0, max(config.array.num_tx - 1, 0))
    rx_chain = rng.exponential(1.0, max(config.array.num_rx - 1, 0))
    return Cluster(
        index=index,
        uid=uid,
        slot=slot,
        semi_major=a,
        delay=2.0 * a / SPEED_OF_LIGHT,
        power=_pdp_weight(config, slot) * pdp_scale,
        mean_aoa=mean_aoa,
        ray_aoas=rays,
        pdp_scale=pdp_scale,
        tx_chain=tx_chain,
        rx_chain=rx_chain,
    )


def initial_clusters(config, rng_seed) -> list[Cluster]:
    """Draw the time-zero cluster ensemble.

    The count is Poisson with the steady-state mean (empty draws are
    rejected).  Cluster 1 is centered on the configured mean arrival
    angle; the remaining clusters draw their mean angles uniformly.
    Powers are normalized to sum to one over the initial set, and every
    cluster starts visible to antenna 1 on both arrays.
    """
    rng = _as_rng(rng_seed)
    mean_count = config.mean_cluster_count
    count = 0
    while count == 0:
        count = rng.poisson(mean_count)
    weights = np.array([_pdp_weight(config, s) for s in range(count)])
    pdp_scale = 1.0 / weights.sum()
    out = []
    for s in range(count):
        mean_aoa = config.mean_aoa if s == 0 else rng.uniform(-math.pi, math.pi)
        out.append(_new_cluster(config, rng, index=s + 1, uid=s + 1, slot=s,
                                mean_aoa=mean_aoa, pdp_scale=pdp_scale))
    return out


def _newborns(config, rng, count: int, parents: list[Cluster],
              first_uid: int) -> list[Cluster]:
    """``count`` fresh clusters numbered from ``first_uid``; each draws a ladder
    slot over ``parents``, a uniform mean angle, then its rays and chains."""
    ladder = max(len(parents), 1)
    pdp_scale = parents[0].pdp_scale if parents else 1.0
    out = []
    for uid in range(first_uid, first_uid + count):
        slot = int(rng.integers(0, ladder))
        out.append(_new_cluster(config, rng, index=0, uid=uid, slot=slot,
                                mean_aoa=rng.uniform(-math.pi, math.pi),
                                pdp_scale=pdp_scale))
    return out


def _visible_steps(chain: np.ndarray, hazard: float, start: int, count: int) -> range:
    """Antennas from ``start`` up to the first step whose budget is ``<= hazard``,
    at most to ``count``; ``chain[0]`` is the budget of the step after ``start``."""
    dead = chain[: count - start] <= hazard
    return range(start, start + 1 + (int(dead.argmax()) if dead.any() else dead.size))


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
        next_uid = max((c.uid for c in clusters), default=0) + 1
        for side, hazard, count in (("rx", hazard_rx, array.num_rx),
                                    ("tx", hazard_tx, array.num_tx)):
            birth_mean = config.mean_cluster_count * (1.0 - math.exp(-hazard))
            for antenna in range(2, count + 1):
                newborn = _newborns(config, rng, rng.poisson(birth_mean), clusters, next_uid)
                next_uid += len(newborn)
                born += [(c, antenna, 1) if side == "rx" else (c, 1, antenna) for c in newborn]
    return [replace(c, index=i + 1,
                    visible_rx=_visible_steps(c.rx_chain[rx - 1:], hazard_rx, rx, array.num_rx),
                    visible_tx=_visible_steps(c.tx_chain[tx - 1:], hazard_tx, tx, array.num_tx))
            for i, (c, rx, tx) in enumerate(born)]


def evolve_time(clusters: list[Cluster], dt: float, config, rng) -> list[Cluster]:
    """Advance the cluster set by ``dt`` seconds.

    Each cluster survives with the exponential time survival probability
    (a single step is exact for any dt by memorylessness); survivors keep
    their geometry.  Births replenish the set with mean count
    mean_clusters*(1 - survival); newborns draw a fresh ladder slot,
    a uniform mean arrival angle and fresh rays.  The returned list is
    renumbered 1..N with survivors first, in their previous order.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    rng = _as_rng(rng)
    if dt == 0:
        return [replace(c) for c in clusters]
    evolution = config.evolution
    surv = time_survival(dt, evolution)
    keep = rng.random(len(clusters)) < surv
    out = [replace(c) for c, k in zip(clusters, keep) if k]
    births = rng.poisson(config.mean_cluster_count * (1.0 - surv))
    if not out and births == 0:
        births = 1  # reject the empty ensemble, like the initial draw
    out += _newborns(config, rng, births, clusters,
                     max((c.uid for c in clusters), default=0) + 1)
    for i, c in enumerate(out):
        c.index = i + 1
    return out
