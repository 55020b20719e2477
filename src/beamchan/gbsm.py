"""Antenna-domain channel model: per-ray spherical-wavefront sums.

Each visible cluster contributes an equal-gain sum of S rays.  A ray at
arrival angle theta leaves the transmitter under the matching ellipse
departure angle, and its phase is the exact path length from transmit
antenna l to the scatterer to receive antenna k, so spherical-wavefront
curvature across the arrays is kept in full.  Cluster 1 additionally
carries the direct path scaled by the Rician factor.  Coefficients for
clusters outside the joint visibility set are exactly zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clusters import Cluster
from .geometry import (
    EllipseConfig,
    antenna_distance_rx,
    antenna_distance_tx,
    aod_from_aoa,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    los_doppler,
    los_geometry,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    ray_doppler,
    require_integer,
    require_real,
    rx_focal_distance,  # noqa: F401  (a name benchmarks/tracing.py wraps)
    scatter_geometry,
)

__all__ = [
    "ChannelRealization",
    "PhaseDraw",
    "cluster_ellipse",
    "draw_gbsm_phases",
    "gbsm_matrix",
]

TWO_PI = 2.0 * math.pi


@dataclass
class ChannelRealization:
    """Per-cluster coefficient tensor at one time instant."""

    coeffs: np.ndarray = field(repr=False)  # (num_rx, num_tx, num_clusters)
    delays: np.ndarray = field(repr=False)  # (num_clusters,)
    time: float = 0.0
    model: str = "gbsm"

    def transfer(self, k: int, l: int, freq: float) -> complex:
        """Frequency response at receive antenna k, transmit antenna l."""
        num_rx, num_tx, _ = self.coeffs.shape
        for side, index, count in (("receive", k, num_rx), ("transmit", l, num_tx)):
            require_integer(f"{side} antenna index", index)
            if not 1 <= index <= count:
                raise ValueError(f"{side} antenna index {index} out of range 1..{count}")
        require_real("freq", freq)
        row = self.coeffs[k - 1, l - 1, :]
        return complex(np.sum(row * np.exp(-1j * TWO_PI * freq * self.delays)))


@dataclass
class PhaseDraw:
    """Initial phases of one realization: per cluster uid, plus the LOS one."""

    nlos: dict
    los: float


def cluster_ellipse(cluster: Cluster, config) -> EllipseConfig:
    return EllipseConfig(cluster.semi_major, config.ellipse.focal_half)


def draw_gbsm_phases(clusters, rng) -> PhaseDraw:
    """One uniform initial phase per ray per cluster, shared across antennas."""
    nlos = {c.uid: rng.uniform(0.0, TWO_PI, len(c.ray_aoas)) for c in clusters}
    return PhaseDraw(nlos=nlos, los=float(rng.uniform(0.0, TWO_PI)))


def gbsm_matrix(t: float, clusters, config, phases: PhaseDraw | None = None,
                rng=None) -> ChannelRealization:
    """Full (num_rx, num_tx, num_clusters) coefficient slice at time t."""
    require_real("t", t)
    if phases is None:
        if rng is None:
            raise ValueError("either phases or rng must be given")
        phases = draw_gbsm_phases(clusters, rng)
    arr = config.array
    kfac = config.rician_k
    wavenum = TWO_PI / config.wavelength
    coeffs = np.zeros((arr.num_rx, arr.num_tx, len(clusters)), dtype=complex)
    for i, c in enumerate(clusters):
        vis_rx, vis_tx = np.asarray(c.visible_rx), np.asarray(c.visible_tx)
        aoas = c.ray_aoas
        ellipse = cluster_ellipse(c, config)
        d_rx, aod = scatter_geometry(aoas, ellipse.semi_major, ellipse.focal_half)
        d_tx = 2.0 * ellipse.semi_major - d_rx
        dist_t = antenna_distance_tx(d_tx, aod, vis_tx, arr)
        dist_r = antenna_distance_rx(d_rx, aoas, vis_rx, arr)
        carrier = (TWO_PI * ray_doppler(aoas, config.max_doppler, config.velocity_angle) * t
                   + phases.nlos[c.uid])
        # phase tensor over (rx, tx, ray), built in the imaginary part of
        # the array that then holds its phasors
        z = np.zeros((len(vis_rx), len(vis_tx), len(aoas)), dtype=complex)
        total = z.imag
        np.add(dist_r[:, None, :], dist_t[None, :, :], out=total)
        total *= wavenum
        total += carrier
        np.exp(z, out=z)
        block = math.sqrt(c.power / ((kfac + 1.0) * len(aoas))) * np.sum(z, axis=2)
        if c.index == 1 and kfac > 0:
            dist_kl, f_los = los_doppler(vis_tx[None, :], vis_rx[:, None], config.ellipse,
                                         arr, config.max_doppler, config.velocity_angle)
            block += math.sqrt(kfac / (kfac + 1.0)) * np.exp(
                1j * (TWO_PI * f_los * t + phases.los + wavenum * dist_kl))
        rows, cols = c.visible_block()
        coeffs[rows, cols, i] = block
    delays = np.array([c.delay for c in clusters])
    return ChannelRealization(coeffs=coeffs, delays=delays, time=t, model="gbsm")
