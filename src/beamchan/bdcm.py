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

The grid and the response matrices depend only on the geometry (beam
count, ellipse, arrays, wavelength), never on the realization, so each
slot's basis is built once per process and shared read-only across
builds.  The bases live in ``_held.HELD``, next to the estimators' beam
tables; the held U_R and U_T bytes count against its 8 MiB budget and
the least recently used entries leave first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._held import HELD
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


def beam_weights(mean_aoa, kappa: float, grid: VirtualAngleGrid,
                 weighting: str = "von_mises") -> np.ndarray:
    """Per-beam power fractions of one cluster (sum to one).

    ``von_mises`` spreads the cluster power over the grid following the
    cluster's angular density; ``uniform`` assigns 1/M to every beam.  An
    array of mean angles gives one row of fractions per entry, beams on
    the last axis.
    """
    m = grid.num_beams
    mean = np.asarray(mean_aoa, dtype=float)[..., None]
    if weighting == "uniform" or kappa <= 0:
        return np.full(mean.shape[:-1] + (m,), 1.0 / m)
    if weighting != "von_mises":
        raise ValueError(f"unknown beam weighting '{weighting}'")
    w = np.exp(kappa * (np.cos(grid.aoa - mean) - 1.0))
    return w / w.sum(axis=-1, keepdims=True)


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


def _basis_key(ellipse, config) -> tuple:
    """Everything the grid and the response matrices of an ellipse depend on."""
    return ("basis", config.num_beams, ellipse.semi_major, ellipse.focal_half,
            config.array, config.wavelength)


def _basis(ellipse, config) -> tuple[VirtualAngleGrid, np.ndarray, np.ndarray]:
    """Read-only (grid, U_R, U_T) of one ellipse, held across calls.

    U_R and U_T count against the store's budget; a basis larger than the
    whole budget is built but not held.
    """
    def build():
        arr, wavelength = config.array, config.wavelength
        grid = VirtualAngleGrid.build(config.num_beams, ellipse)
        grid.aoa.setflags(write=False)
        grid.aod.setflags(write=False)
        return (grid, response_matrix_rx(grid, ellipse, arr, wavelength).entries,
                response_matrix_tx(grid, ellipse, arr, wavelength).entries)

    return HELD.get(_basis_key(ellipse, config), build)


def bdcm_matrix(t: float, clusters, config, phases: PhaseDraw | None = None,
                rng=None) -> ChannelRealization:
    """Full (num_rx, num_tx, num_clusters) coefficient slice at time t.

    The response matrices depend only on the cluster's ellipse, so each
    distinct ``semi_major`` (one delay slot) takes its basis from
    ``_basis``.  Each cluster assembles only its visible block from views
    of the visible rows of U_R and U_T; every other entry stays exactly
    zero.
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
    slots = [(cluster_ellipse(members[0][1], config), members)
             for members in by_ellipse.values()]
    # held bases first: the bases built after them then evict only bases
    # this call is done with, so when the slots need more than the budget
    # the held share still hits instead of each slot evicting the next
    slots.sort(key=lambda slot: _basis_key(slot[0], config) not in HELD)
    for ellipse, members in slots:
        grid, u_r, u_t = _basis(ellipse, config)
        for i, c in members:
            rows, cols = c.visible_block()
            beam = beam_domain_entries(c, t, config, phases, grid)
            coeffs[rows, cols, i] = assemble_antenna_domain(
                beam, ResponseMatrix(u_r[rows], "receive"),
                ResponseMatrix(u_t[cols], "transmit"))
    delays = np.array([c.delay for c in clusters])
    return ChannelRealization(coeffs=coeffs, delays=delays, time=t, model="bdcm")
