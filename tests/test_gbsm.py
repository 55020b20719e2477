"""Antenna-domain model: magnitudes, gates, phases, vectorization."""
import math

import numpy as np
import pytest

from beamchan.clusters import Cluster, initial_clusters
from beamchan.config import SimulationConfig
from beamchan.gbsm import (
    PhaseDraw,
    cluster_ellipse,
    draw_gbsm_phases,
    gbsm_cluster_matrix,
    gbsm_matrix,
)
from beamchan.geometry import (
    ArrayConfig,
    antenna_offset,
    aod_from_aoa,
    ray_doppler,
    rx_focal_distance,
)

TWO_PI = 2.0 * math.pi


# ------------------------------------------------- scalar oracle
# One antenna pair at a time, written out per entry: the per-ray law of
# cosines on each side and the direct path in scalar math, so the
# vectorized builder can be checked against an independent form.

def ray_geometry_phase(cluster, k, l, config):
    """Per-ray propagation phase (2 pi / lambda)(D_l^T + D_k^R)."""
    arr = config.array
    ell = cluster_ellipse(cluster, config)
    aoas = cluster.ray_aoas
    aods = aod_from_aoa(aoas, ell)
    d_rx = rx_focal_distance(aoas, ell)
    d_tx = 2.0 * ell.semi_major - d_rx
    off_t = antenna_offset(l, arr.num_tx, arr.spacing_tx)
    off_r = antenna_offset(k, arr.num_rx, arr.spacing_rx)
    dist_t = np.sqrt(d_tx * d_tx + off_t * off_t
                     - 2.0 * d_tx * off_t * np.cos(arr.tilt_tx - aods))
    dist_r = np.sqrt(d_rx * d_rx + off_r * off_r
                     - 2.0 * d_rx * off_r * np.cos(aoas - arr.tilt_rx))
    return TWO_PI / config.wavelength * (dist_t + dist_r)


def _clipped_asin(x):
    return math.asin(min(1.0, max(-1.0, x)))


def los_geometry(l, k, ellipse, arr):
    """Direct path between transmit antenna l and receive antenna k:
    (distance from l to the receive center, elevation of that path,
    distance from l to k)."""
    sep = 2.0 * ellipse.focal_half
    off_t = antenna_offset(l, arr.num_tx, arr.spacing_tx)
    dist_l = math.sqrt(sep * sep + off_t * off_t
                       - 2.0 * sep * off_t * math.cos(arr.tilt_tx))
    alpha_l = _clipped_asin(off_t * math.sin(arr.tilt_tx) / dist_l)
    off_r = antenna_offset(k, arr.num_rx, arr.spacing_rx)
    # the receive center sees antenna l at angle pi - alpha_l
    dist_kl = math.sqrt(dist_l * dist_l + off_r * off_r
                        + 2.0 * dist_l * off_r * math.cos(alpha_l + arr.tilt_rx))
    return dist_l, alpha_l, dist_kl


def los_doppler(l, k, ellipse, arr, max_doppler, velocity_angle):
    """Doppler shift of the direct path between antennas l and k."""
    dist_l, alpha_l, dist_kl = los_geometry(l, k, ellipse, arr)
    inner = _clipped_asin(dist_l / dist_kl * math.sin(alpha_l - arr.tilt_rx))
    return max_doppler * math.cos(arr.tilt_rx - velocity_angle + inner)


def gbsm_coefficient(k, l, cluster, t, config, phases):
    """Channel coefficient of one cluster between antennas (k, l) at time t;
    exactly 0 outside the cluster's joint visibility set."""
    if l not in cluster.visible_tx or k not in cluster.visible_rx:
        return 0j
    kfac = config.rician_k
    psi = ray_geometry_phase(cluster, k, l, config)
    freq = config.max_doppler * np.cos(cluster.ray_aoas - config.velocity_angle)
    rays = np.exp(1j * (TWO_PI * freq * t + phases.nlos[cluster.uid] + psi))
    value = math.sqrt(cluster.power / ((kfac + 1.0) * len(rays))) * np.sum(rays)
    if cluster.index == 1 and kfac > 0:
        f_los = los_doppler(l, k, config.ellipse, config.array,
                            config.max_doppler, config.velocity_angle)
        _, _, dist_kl = los_geometry(l, k, config.ellipse, config.array)
        phase = TWO_PI * f_los * t + phases.los + TWO_PI / config.wavelength * dist_kl
        value += math.sqrt(kfac / (kfac + 1.0)) * np.exp(1j * phase)
    return complex(value)


def entry(cluster, k, l, t, config, phases):
    """Coefficient (k, l) read from the vectorized builder."""
    return complex(gbsm_cluster_matrix(cluster, t, config, phases)[k - 1, l - 1])


def make_cluster(config, angles, power=1.0, index=1, uid=1, slot=0,
                 visible_tx=None, visible_rx=None):
    arr = config.array
    if visible_tx is None:
        visible_tx = range(1, arr.num_tx + 1)
    if visible_rx is None:
        visible_rx = range(1, arr.num_rx + 1)
    semi = config.ellipse.semi_major + slot * 299_792_458.0 * config.delay_spacing / 2.0
    return Cluster(index=index, uid=uid, slot=slot, semi_major=semi,
                   delay=2.0 * semi / 299_792_458.0, power=power,
                   mean_aoa=float(np.mean(angles)),
                   ray_aoas=np.asarray(angles, dtype=float),
                   visible_tx=visible_tx, visible_rx=visible_rx, pdp_scale=1.0)


def test_single_ray_magnitude_and_phase_cancellation():
    # one ray, no direct path: choosing the initial phase to cancel the
    # geometry and Doppler terms must give exactly sqrt(power)
    cfg = SimulationConfig(rician_k=0.0)
    c = make_cluster(cfg, [1.234], power=0.49)
    t = 0.8
    psi = ray_geometry_phase(c, 3, 5, cfg)[0]
    f = ray_doppler(c.ray_aoas, cfg.max_doppler, cfg.velocity_angle)[0]
    phases = PhaseDraw(nlos={1: np.array([-psi - TWO_PI * f * t])}, los=0.0)
    h = entry(c, 3, 5, t, cfg, phases)
    assert h == pytest.approx(0.7, rel=1e-12)
    assert abs(h.imag) < 1e-9


def test_invisible_pair_is_exactly_zero():
    cfg = SimulationConfig(rician_k=0.0)
    c = make_cluster(cfg, [0.3, 1.1, 2.0], visible_rx=range(1, 2),
                     visible_tx=range(1, 3))
    phases = draw_gbsm_phases([c], np.random.default_rng(0))
    assert entry(c, 2, 1, 0.0, cfg, phases) == 0j
    assert entry(c, 1, 3, 0.0, cfg, phases) == 0j
    assert entry(c, 1, 2, 0.0, cfg, phases) != 0j


def test_magnitude_bound_and_doppler_bound():
    cfg = SimulationConfig(rician_k=0.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        angles = rng.uniform(-math.pi, math.pi, cfg.rays_per_cluster)
        c = make_cluster(cfg, angles, power=0.37)
        phases = draw_gbsm_phases([c], rng)
        h = entry(c, 1, 1, 0.5, cfg, phases)
        # fully coherent rays give the worst case sqrt(P * S)
        assert abs(h) <= math.sqrt(0.37 * cfg.rays_per_cluster) + 1e-12
        f = ray_doppler(c.ray_aoas, cfg.max_doppler, cfg.velocity_angle)
        assert np.all(np.abs(f) <= cfg.max_doppler + 1e-12)


def test_phase_draw_power_normalization():
    # averaged over initial phases the per-entry cluster power is P/(K+1)
    cfg = SimulationConfig(rician_k=0.0, rays_per_cluster=8)
    rng = np.random.default_rng(2)
    c = make_cluster(cfg, rng.uniform(-math.pi, math.pi, 8), power=0.6)
    acc = 0.0
    n = 20_000
    for _ in range(n):
        phases = draw_gbsm_phases([c], rng)
        acc += abs(gbsm_coefficient(2, 2, c, 0.0, cfg, phases)) ** 2
    assert acc / n == pytest.approx(0.6, rel=0.03)


def test_rician_split_total_power():
    cfg = SimulationConfig(rician_k=3.0, rays_per_cluster=6)
    rng = np.random.default_rng(3)
    c = make_cluster(cfg, rng.uniform(-math.pi, math.pi, 6), power=1.0)
    acc = 0.0
    n = 20_000
    for _ in range(n):
        phases = draw_gbsm_phases([c], rng)
        acc += abs(gbsm_coefficient(1, 1, c, 0.0, cfg, phases)) ** 2
    # direct power K/(K+1) plus diffuse power P/(K+1) with P = 1
    assert acc / n == pytest.approx(1.0, rel=0.03)


def test_direct_path_only_in_first_cluster():
    cfg = SimulationConfig(rician_k=5.0, rays_per_cluster=4)
    rng = np.random.default_rng(4)
    angles = rng.uniform(-math.pi, math.pi, 4)
    c1 = make_cluster(cfg, angles, power=0.5, index=1, uid=1)
    c2 = make_cluster(cfg, angles, power=0.5, index=2, uid=2)
    phases = PhaseDraw(nlos={1: np.zeros(4), 2: np.zeros(4)}, los=0.0)
    h1 = entry(c1, 1, 1, 0.0, cfg, phases)
    h2 = entry(c2, 1, 1, 0.0, cfg, phases)
    # identical diffuse parts, so the difference is exactly the direct term
    mag = abs(h1 - h2)
    assert mag == pytest.approx(math.sqrt(5.0 / 6.0), rel=1e-12)


def test_spherical_wavefront_not_planar():
    # per-antenna path lengths must follow the exact triangle, not the
    # first-order planar projection; at 100 m range and a 3.8 m aperture
    # the edge-antenna difference is a sizeable fraction of a radian
    cfg = SimulationConfig(rician_k=0.0)
    c = make_cluster(cfg, [2.0])
    ell = cluster_ellipse(c, cfg)
    d = rx_focal_distance(2.0, ell)
    off = antenna_offset(1, cfg.array.num_rx, cfg.array.spacing_rx)
    exact = math.sqrt(d * d + off * off - 2 * d * off * math.cos(2.0 - cfg.array.tilt_rx))
    planar = d - off * math.cos(2.0 - cfg.array.tilt_rx)
    gap = TWO_PI / cfg.wavelength * (exact - planar)
    assert gap > 0.05
    # and the model actually uses the exact form
    psi_edge = ray_geometry_phase(c, 1, 16, cfg)[0]
    approx_psi = TWO_PI / cfg.wavelength * (
        (2.0 * ell.semi_major - d)  # tx side, center antenna offset ~0.03 ignored
        + exact)
    assert abs(psi_edge - approx_psi) < TWO_PI / cfg.wavelength * 0.04


def test_matrix_agrees_with_scalar_coefficients():
    cfg = SimulationConfig(rician_k=2.0, rays_per_cluster=5,
                           array=ArrayConfig(num_tx=3, num_rx=4,
                                             spacing_tx=0.06, spacing_rx=0.06))
    rng = np.random.default_rng(9)
    clusters = initial_clusters(cfg, rng)
    c = clusters[0]
    c.visible_rx = range(1, 4, 2)
    c.visible_tx = range(1, 3)
    phases = draw_gbsm_phases(clusters, rng)
    t = 0.25
    mat = gbsm_cluster_matrix(c, t, cfg, phases)
    for k in range(1, 5):
        for l in range(1, 4):
            want = gbsm_coefficient(k, l, c, t, cfg, phases)
            assert mat[k - 1, l - 1] == pytest.approx(want, abs=1e-15)


def test_full_matrix_shape_and_delays():
    cfg = SimulationConfig(array=ArrayConfig(num_tx=2, num_rx=3,
                                             spacing_tx=0.06, spacing_rx=0.06))
    rng = np.random.default_rng(12)
    clusters = initial_clusters(cfg, rng)
    real = gbsm_matrix(0.5, clusters, cfg, rng=rng)
    assert real.coeffs.shape == (3, 2, len(clusters))
    assert real.model == "gbsm"
    assert np.all(np.diff(np.sort(real.delays)) >= 0)
    steps = (real.delays - 2.0 * cfg.ellipse.semi_major / 299_792_458.0)
    ratio = steps / cfg.delay_spacing
    assert np.allclose(ratio, np.round(ratio), atol=1e-9)


def test_transfer_function_matches_manual_sum():
    cfg = SimulationConfig(array=ArrayConfig(num_tx=2, num_rx=2,
                                             spacing_tx=0.06, spacing_rx=0.06))
    rng = np.random.default_rng(21)
    clusters = initial_clusters(cfg, rng)
    real = gbsm_matrix(0.0, clusters, cfg, rng=rng)
    freq = 2.0e6
    want = np.sum(real.coeffs[0, 1, :] * np.exp(-1j * TWO_PI * freq * real.delays))
    assert real.transfer(1, 2, freq) == pytest.approx(want, abs=1e-12)


def test_time_reversal_conjugate_pairing():
    # with the geometry phase removed from the initial phase, negating
    # both time and the remaining phase conjugates the coefficient
    cfg = SimulationConfig(rician_k=0.0)
    c = make_cluster(cfg, [0.9, -1.7], power=1.0)
    psi = ray_geometry_phase(c, 2, 2, cfg)
    x = np.array([0.31, -1.2])
    hp = entry(c, 2, 2, 0.6, cfg, PhaseDraw(nlos={1: x - psi}, los=0.0))
    hm = entry(c, 2, 2, -0.6, cfg, PhaseDraw(nlos={1: -x - psi}, los=0.0))
    assert hp == pytest.approx(hm.conjugate(), abs=1e-12)
