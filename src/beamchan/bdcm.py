"""Beam-domain channel model on a fixed virtual-angle grid.

Instead of drawing ray angles, the arrival circle is sampled at M fixed
virtual angles (beams).  Per cluster the channel is a diagonal matrix in
the beam domain: entry m carries the beam's Doppler, initial phase and
the center-to-center path length through the ellipse, while the antenna
structure lives entirely in the response matrices built from the exact
per-antenna path-length differences.  Assembling U_R diag U_T^H back to
the antenna domain telescopes each beam's phase into exactly the ray
phase the antenna-domain model assigns to a ray at that angle, which is
what makes the two models converge as M grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clusters import Cluster
from .gbsm import ChannelRealization, PhaseDraw, cluster_ellipse
from .geometry import (
    VirtualAngleGrid,
    antenna_distance_rx,
    antenna_distance_tx,
    nearest_beam,
    ray_doppler,
    rx_focal_distance,
)

__all__ = [
    "ResponseMatrix",
    "BeamDomainChannel",
    "response_matrix_tx",
    "response_matrix_rx",
    "center_los_doppler",
    "los_beam_index",
    "beam_weights",
    "draw_bdcm_phases",
    "beam_domain_entries",
    "assemble_antenna_domain",
    "bdcm_cluster_matrix",
    "bdcm_matrix",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ResponseMatrix:
    """Antenna response to every beam; column m is the vector for beam m."""

    entries: np.ndarray = field(repr=False)  # (antennas, beams)
    side: str = "transmit"


@dataclass(frozen=True)
class BeamDomainChannel:
    """Diagonal beam-domain representation of one cluster.

    Only the two diagonals are stored; off-diagonal coupling does not
    exist in this representation by construction.
    """

    los_diag: np.ndarray = field(repr=False)   # (M,), nonzero at one beam only
    nlos_diag: np.ndarray = field(repr=False)  # (M,)
    grid: VirtualAngleGrid = None
    delay: float = 0.0
    cluster_uid: int = 0


def response_matrix_tx(grid: VirtualAngleGrid, ellipse, array,
                       wavelength: float) -> ResponseMatrix:
    """Unit phasors of the center-minus-antenna path differences at the transmitter."""
    d_tx = 2.0 * ellipse.semi_major - rx_focal_distance(grid.aoa, ellipse)
    dist = antenna_distance_tx(d_tx, grid.aod, np.arange(1, array.num_tx + 1), array)
    return ResponseMatrix(entries=np.exp(1j * TWO_PI / wavelength * (d_tx - dist)),
                          side="transmit")


def response_matrix_rx(grid: VirtualAngleGrid, ellipse, array,
                       wavelength: float) -> ResponseMatrix:
    """Unit phasors of the antenna-minus-center path differences at the receiver."""
    d_rx = rx_focal_distance(grid.aoa, ellipse)
    dist = antenna_distance_rx(d_rx, grid.aoa, np.arange(1, array.num_rx + 1), array)
    return ResponseMatrix(entries=np.exp(1j * TWO_PI / wavelength * (dist - d_rx)),
                          side="receive")


def center_los_doppler(config) -> float:
    """Direct-path Doppler between the two array centers."""
    # the center-to-center geometry degenerates: both offsets vanish, the
    # departure elevation is zero and the path length is the focal
    # separation, leaving only the arrival-side projection
    beta = config.array.tilt_rx
    inner = math.asin(min(1.0, max(-1.0, math.sin(-beta))))
    return config.max_doppler * math.cos(beta - config.velocity_angle + inner)


def los_beam_index(grid: VirtualAngleGrid) -> int:
    """Beam whose angle is closest to the direct-path arrival direction.

    The direct path arrives at the receive center from the transmitter,
    which sits at angle pi in the package frame regardless of the ellipse.
    """
    return nearest_beam(math.pi, grid.num_beams)


def beam_weights(mean_aoa: float, kappa: float, grid: VirtualAngleGrid,
                 weighting: str = "von_mises") -> np.ndarray:
    """Per-beam power fractions of one cluster (sum to one).

    ``von_mises`` spreads the cluster power over the grid following the
    cluster's angular density; ``uniform`` assigns 1/M to every beam.
    """
    m = grid.num_beams
    if weighting == "uniform" or kappa <= 0:
        return np.full(m, 1.0 / m)
    if weighting != "von_mises":
        raise ValueError(f"unknown beam weighting '{weighting}'")
    w = np.exp(kappa * (np.cos(grid.aoa - mean_aoa) - 1.0))
    return w / w.sum()


def draw_bdcm_phases(clusters, config, rng) -> PhaseDraw:
    """One uniform initial phase per beam per cluster, plus the LOS phase."""
    nlos = {c.uid: rng.uniform(0.0, TWO_PI, config.num_beams) for c in clusters}
    return PhaseDraw(nlos=nlos, los=float(rng.uniform(0.0, TWO_PI)))


def beam_domain_entries(cluster: Cluster, t: float, config,
                        phases: PhaseDraw, grid: VirtualAngleGrid | None = None
                        ) -> BeamDomainChannel:
    """Diagonal beam-domain entries of one cluster at time t."""
    ellipse = cluster_ellipse(cluster, config)
    if grid is None:
        grid = VirtualAngleGrid.build(config.num_beams, ellipse)
    d_rx = rx_focal_distance(grid.aoa, ellipse)
    d_tx = 2.0 * ellipse.semi_major - d_rx
    kfac = config.rician_k
    weights = beam_weights(cluster.mean_aoa, config.kappa, grid,
                           config.beam_weighting)
    doppler = ray_doppler(grid.aoa, config.max_doppler, config.velocity_angle)
    phase = (TWO_PI * doppler * t + phases.nlos[cluster.uid]
             + TWO_PI / config.wavelength * (d_rx + d_tx))
    nlos_diag = np.sqrt(weights * cluster.power / (kfac + 1.0)) * np.exp(1j * phase)
    los_diag = np.zeros(grid.num_beams, dtype=complex)
    if cluster.index == 1 and kfac > 0:
        m0 = los_beam_index(grid)
        f_c = center_los_doppler(config)
        los_phase = (TWO_PI * f_c * t + phases.los
                     + TWO_PI / config.wavelength * (d_rx[m0 - 1] - d_tx[m0 - 1]))
        los_diag[m0 - 1] = math.sqrt(kfac / (kfac + 1.0)) * np.exp(1j * los_phase)
    return BeamDomainChannel(los_diag=los_diag, nlos_diag=nlos_diag, grid=grid,
                             delay=cluster.delay, cluster_uid=cluster.uid)


def assemble_antenna_domain(beam: BeamDomainChannel, u_r: ResponseMatrix,
                            u_t: ResponseMatrix) -> np.ndarray:
    """Antenna-domain matrix U_R (los + nlos diagonal) U_T^H."""
    m = len(beam.nlos_diag)
    if u_r.entries.shape[1] != m or u_t.entries.shape[1] != m:
        raise ValueError("response matrices and beam diagonal disagree on beam count")
    diag = beam.los_diag + beam.nlos_diag
    return (u_r.entries * diag[None, :]) @ u_t.entries.conj().T


def bdcm_cluster_matrix(cluster: Cluster, t: float, config,
                        phases: PhaseDraw) -> np.ndarray:
    """All-antenna coefficient matrix of one cluster, visibility gated."""
    return bdcm_matrix(t, [cluster], config, phases).coeffs[:, :, 0]


def bdcm_matrix(t: float, clusters, config, phases: PhaseDraw | None = None,
                rng=None) -> ChannelRealization:
    """Full (num_rx, num_tx, num_clusters) coefficient slice at time t.

    The response matrices depend only on the cluster's ellipse, so they
    are built once per distinct ``semi_major`` (one delay slot) and held
    for one ellipse at a time.  Each cluster assembles only its visible
    block from views of the visible rows of U_R and U_T; every other
    entry stays exactly zero.
    """
    if phases is None:
        if rng is None:
            raise ValueError("either phases or rng must be given")
        phases = draw_bdcm_phases(clusters, config, rng)
    arr = config.array
    coeffs = np.zeros((arr.num_rx, arr.num_tx, len(clusters)), dtype=complex)
    by_ellipse: dict[float, list] = {}
    for i, c in enumerate(clusters):
        if c.visible_rx and c.visible_tx:
            by_ellipse.setdefault(c.semi_major, []).append((i, c))
    for members in by_ellipse.values():
        ellipse = cluster_ellipse(members[0][1], config)
        grid = VirtualAngleGrid.build(config.num_beams, ellipse)
        u_r = response_matrix_rx(grid, ellipse, arr, config.wavelength).entries
        u_t = response_matrix_tx(grid, ellipse, arr, config.wavelength).entries
        for i, c in members:
            rows, cols = c.visible_block()
            beam = beam_domain_entries(c, t, config, phases, grid)
            coeffs[rows, cols, i] = assemble_antenna_domain(
                beam, ResponseMatrix(u_r[rows], "receive"),
                ResponseMatrix(u_t[cols], "transmit"))
    delays = np.array([c.delay for c in clusters])
    return ChannelRealization(coeffs=coeffs, delays=delays, time=t, model="bdcm")
