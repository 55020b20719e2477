"""Release gate: one test per acceptance criterion, one verdict line each.

The Monte-Carlo criteria run the bundled experiment presets at the full
ensemble size of 10^4 members, so this file takes a couple of minutes;
everything else in the test tree is fast.  Each test prints a single
``criterion N: PASS/FAIL`` line with the measured numbers (visible with
``pytest -s`` and in failure reports).
"""
import math
import time

import numpy as np
from scipy.special import j0

from beamchan.bdcm import (
    BeamDomainChannel,
    assemble_antenna_domain,
    response_matrix_rx,
    response_matrix_tx,
)
from beamchan.clusters import EvolutionConfig
from beamchan.complexity import ro_bdcm, ro_gbsm
from beamchan.config import SimulationConfig, preset
from beamchan.geometry import (
    ArrayConfig,
    EllipseConfig,
    VirtualAngleGrid,
    antenna_distances,
    antenna_offset,
    rx_focal_distance,
)
from beamchan.statistics import fcf, space_ccf, time_acf

ENSEMBLE = 10_000
SEED = 1234


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


LOSING_CORNERS = {("1x1", 200), ("1x1", 400), ("2x2", 400)}


def test_criterion_1_complexity_exact_and_cheaper():
    """Cost formulas are exact integers over the whole sweep grid, and the
    cost ordering is the documented one.

    The beam-domain RO count loses (``ro_bdcm >= ro_gbsm``) at exactly the
    three small-array / large-beam-grid corners in ``LOSING_CORNERS`` and
    is cheaper at the other 27 grid points.  At massive-MIMO sizes (32, 64
    and 128 antennas per side, 20/200/400 beams) it is at least 10x
    cheaper.  These are closed-form operation counts, not wall-clock time.
    """
    start = time.perf_counter()
    exact = True
    for n in range(1, 11):
        pairs = n * n
        want_g = (174 * pairs + 3) + 20 * (19 * (208 * pairs + 19) + 4) + 1
        exact &= ro_gbsm(n, n, 20, 20) == want_g
        for m in (20, 200, 400):
            s = 2 * n
            want_b = (3 + (122 * s + 181) * m) + (3 + (122 * s + 77) * m)
            exact &= ro_bdcm(n, n, m) == want_b
    exact &= ro_gbsm(1, 1, 20, 20) == 86518
    exact &= ro_bdcm(1, 1, 20) == 14926
    elapsed = time.perf_counter() - start
    losing = {(f"{n}x{n}", m) for n in range(1, 11) for m in (20, 200, 400)
              if ro_bdcm(n, n, m) >= ro_gbsm(n, n, 20, 20)}
    unexpected = sorted(losing - LOSING_CORNERS)
    no_longer = sorted(LOSING_CORNERS - losing)
    min_ratio = min(ro_gbsm(n, n, 20, 20) / ro_bdcm(n, n, m)
                    for n in (32, 64, 128) for m in (20, 200, 400))
    ok = (exact and elapsed < 1.0 and not unexpected and not no_longer
          and min_ratio >= 10.0)
    _report(1, ok,
            f"counts exact={exact} in {elapsed * 1e3:.0f} ms; beam domain "
            f"cheaper at {30 - len(losing)}/30 grid points, "
            f"unexpected losses {unexpected}, documented corners no longer "
            f"losing {no_longer}; massive-MIMO min ratio {min_ratio:.1f}x")


def test_criterion_2_ellipse_geometry_invariants():
    """Focal distances sum to the major axis on 1e5 random triples; the
    spherical antenna distance collapses to the planar form far away."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_sum = 0.0
    worst_xcheck = 0.0
    for _ in range(1000):
        a = rng.uniform(30.0, 300.0)
        ell = EllipseConfig(semi_major=a, focal_half=a * rng.uniform(0.05, 0.95))
        theta = rng.uniform(-math.pi, math.pi, 100)
        r = rx_focal_distance(theta, ell)
        px = ell.focal_half + r * np.cos(theta)   # receive focus at (+f, 0)
        py = r * np.sin(theta)
        d_rx = np.hypot(px - ell.focal_half, py)
        d_tx = np.hypot(px + ell.focal_half, py)
        worst_sum = max(worst_sum,
                        float(np.max(np.abs(d_tx + d_rx - 2.0 * a))) / (2.0 * a))
        rx2 = rx_focal_distance(theta, ell)
        tx2 = 2.0 * ell.semi_major - rx2
        worst_xcheck = max(worst_xcheck,
                           float(np.max(np.abs(tx2 - d_tx) / d_tx)),
                           float(np.max(np.abs(rx2 - d_rx) / d_rx)))
    far = EllipseConfig(semi_major=5e4, focal_half=1e4)
    arr = ArrayConfig()
    theta = rng.uniform(-math.pi, math.pi, 10_000)
    dist = rx_focal_distance(theta, far)
    worst_far = 0.0
    for k in (1, 16, 32):
        off = antenna_offset(k, arr.num_rx, arr.spacing_rx)
        exact = antenna_distances(dist, theta, arr.tilt_rx, [off])[0]
        planar = dist - off * np.cos(theta - arr.tilt_rx)
        worst_far = max(worst_far, float(np.max(np.abs(exact - planar) / dist)))
    elapsed = time.perf_counter() - start
    ok = (worst_sum < 1e-9 and worst_xcheck < 1e-9 and worst_far < 1e-6
          and elapsed < 5.0)
    _report(2, ok,
            f"1e5 triples: sum error {worst_sum:.2e} < 1e-9, cross-check "
            f"{worst_xcheck:.2e}, far-field {worst_far:.2e} < 1e-6, "
            f"{elapsed:.1f} s")


def test_criterion_3_beam_representation_structure():
    """The per-cluster beam coupling is stored as diagonals only, response
    entries are pure phases, and assembly matches the scalar triple sum."""
    rng = np.random.default_rng(303)
    worst_mod = 0.0
    worst_asm = 0.0
    diag_only = True
    for _ in range(100):
        a = rng.uniform(60.0, 200.0)
        ell = EllipseConfig(semi_major=a, focal_half=a * rng.uniform(0.2, 0.9))
        arr = ArrayConfig(num_tx=int(rng.integers(1, 7)),
                          num_rx=int(rng.integers(1, 7)),
                          spacing_tx=float(rng.uniform(0.03, 0.2)),
                          spacing_rx=float(rng.uniform(0.03, 0.2)),
                          tilt_tx=float(rng.uniform(0.0, 3.1)),
                          tilt_rx=float(rng.uniform(0.0, 3.1)))
        m = int(rng.integers(4, 40))
        grid = VirtualAngleGrid.build(m, ell)
        wl = float(rng.uniform(0.05, 0.3))
        u_t = response_matrix_tx(grid, ell, arr, wl)
        u_r = response_matrix_rx(grid, ell, arr, wl)
        worst_mod = max(worst_mod,
                        float(np.max(np.abs(np.abs(u_t.entries) - 1.0))),
                        float(np.max(np.abs(np.abs(u_r.entries) - 1.0))))
        los = np.zeros(m, complex)
        los[-1] = rng.normal() + 1j * rng.normal()
        nlos = rng.normal(size=m) + 1j * rng.normal(size=m)
        beam = BeamDomainChannel(los_diag=los, nlos_diag=nlos, grid=grid)
        diag_only &= beam.los_diag.ndim == 1 and beam.nlos_diag.ndim == 1
        h = assemble_antenna_domain(beam, u_r, u_t)
        oracle = np.empty((arr.num_rx, arr.num_tx), complex)
        for k in range(arr.num_rx):
            for l in range(arr.num_tx):
                oracle[k, l] = np.sum(u_r.entries[k] * (los + nlos)
                                      * np.conj(u_t.entries[l]))
        worst_asm = max(worst_asm, float(np.max(np.abs(h - oracle))))
    ok = diag_only and worst_mod < 1e-12 and worst_asm < 1e-12
    _report(3, ok,
            f"100 random setups: diagonal storage={diag_only}, modulus error "
            f"{worst_mod:.1e} < 1e-12, assembly error {worst_asm:.1e} < 1e-12")


def test_criterion_4_paired_space_ccf():
    """Receive-spacing CCF of the two constructions, shared streams.

    What the model gap measures: in analytic mode a BDCM cluster estimate
    is an M-point trapezoidal quadrature of the von Mises expectation of
    the cluster phasor, within 1e-12 of it, and the GBSM estimate is an
    S-ray Monte Carlo of the same expectation.  So the gap is GBSM ray
    noise, 0.9 to 1.0 GBSM standard errors (fig3, 2,000 members).
    """
    cfg = preset("fig3")
    grid = np.linspace(0.0, 3.0 * cfg.wavelength, 31)
    g = space_ccf(cfg, model="gbsm", spacing_grid=grid, t=1.0,
                  ensemble=ENSEMBLE, seed=SEED)
    b = space_ccf(cfg, model="bdcm", spacing_grid=grid, t=1.0,
                  ensemble=ENSEMBLE, seed=SEED)
    gap = float(np.max(np.abs(g.magnitude - b.magnitude)))
    lo_g, lo_b = float(g.magnitude.min()), float(b.magnitude.min())
    ok = gap <= 0.05 and lo_g < 0.3 and lo_b < 0.3
    _report(4, ok,
            f"model gap {gap:.4f} <= 0.05; curves reach {lo_g:.3f}/{lo_b:.3f} "
            f"< 0.3 within 3 wavelengths")


def test_criterion_5_time_acf_nonstationarity():
    """Time ACF at four absolute times: the constructions agree and the
    curves drift apart with observation time.

    As in criterion 4, the BDCM estimate is a quadrature of the von Mises
    expectation and the GBSM estimate a Monte Carlo of it, so the model
    gap is GBSM ray noise, 0.9 to 1.0 GBSM standard errors.
    """
    cfg = preset("fig4")
    lags = np.linspace(0.0, 0.12, 25)
    mags = {}
    gaps = []
    for t in cfg.time_samples:
        g = time_acf(cfg, model="gbsm", lag_grid=lags, t=t,
                     ensemble=ENSEMBLE, seed=SEED)
        b = time_acf(cfg, model="bdcm", lag_grid=lags, t=t,
                     ensemble=ENSEMBLE, seed=SEED)
        gaps.append(float(np.max(np.abs(g.magnitude - b.magnitude))))
        mags[("gbsm", t)] = g.magnitude
        mags[("bdcm", t)] = b.magnitude
    sep_g = float(np.max(np.abs(mags[("gbsm", 1.0)] - mags[("gbsm", 4.0)])))
    sep_b = float(np.max(np.abs(mags[("bdcm", 1.0)] - mags[("bdcm", 4.0)])))
    ok = max(gaps) <= 0.05 and sep_g >= 0.02 and sep_b >= 0.02
    _report(5, ok,
            f"max model gap {max(gaps):.4f} <= 0.05; t=1 vs t=4 separation "
            f"{sep_g:.4f}/{sep_b:.4f} >= 0.02")


def test_criterion_6_fcf_direct_path_coherence():
    """Whole-channel FCF: both constructions coincide, and a direct path
    keeps the channel coherent over a wider frequency span.

    At zero space and time lag every ray and beam phasor is 1, so both
    estimates read only the shared cluster powers and delays, through one
    phase-free path: the model gap is exactly 0, not ray noise.
    """
    cfg = preset("fig5")
    grid = np.linspace(0.0, 20e6, 41)
    gap = 0.0
    mags = {}
    for label, k in (("nlos", 0.0), ("los", 3.0)):
        c = cfg.with_values(rician_k=k)
        g = fcf(c, model="gbsm", freq_lag_grid=grid, ensemble=4000, seed=SEED)
        b = fcf(c, model="bdcm", freq_lag_grid=grid, ensemble=4000, seed=SEED)
        gap = max(gap, float(np.max(np.abs(g.magnitude - b.magnitude))))
        mags[label] = g.magnitude
    above = bool(np.all(mags["los"][1:] > mags["nlos"][1:]))
    ok = gap <= 0.02 and above
    _report(6, ok,
            f"model gap {gap:.2e} <= 0.02; direct-path curve above the "
            f"diffuse-only curve at every nonzero lag: {above}")


def test_criterion_7_beam_grid_convergence():
    """Refining beams and rays together drives the beam-domain ACF onto
    the antenna-domain one.

    The gap at 32 comes from BDCM under-resolving the 0.2 s Doppler span:
    32 beams are 0.30 from a 2,000-beam grid, 64 beams 5e-8, while GBSM
    at 32 rays is within 0.0064 of it (fig4, 2,000 members).  At 512 both
    sit on the von Mises expectation and the gap is GBSM ray noise.
    """
    cfg = preset("fig4")
    lags = np.linspace(0.0, 0.2, 31)
    devs = {}
    for size in (32, 512):
        c = cfg.with_values(rays_per_cluster=size, num_beams=size)
        g = time_acf(c, model="gbsm", lag_grid=lags, t=1.0,
                     ensemble=ENSEMBLE, seed=SEED)
        b = time_acf(c, model="bdcm", lag_grid=lags, t=1.0,
                     ensemble=ENSEMBLE, seed=SEED)
        devs[size] = float(np.max(np.abs(g.magnitude - b.magnitude)))
    ok = devs[512] <= 0.5 * devs[32]
    _report(7, ok,
            f"deviation {devs[512]:.4f} at 512 beams/rays <= half of "
            f"{devs[32]:.4f} at 32")


def test_criterion_8_estimator_oracles():
    """Isotropic scattering reproduces the Bessel ACF; the standard error
    shrinks like 1/sqrt(ensemble); zero lag is exactly one."""
    iso = SimulationConfig(kappa=0.0, rays_per_cluster=64,
                           evolution=EvolutionConfig(death_rate=0.0),
                           mean_clusters=10.0)
    lags = np.linspace(0.0, 0.12, 25)
    acf = time_acf(iso, lag_grid=lags, t=1.0, ensemble=ENSEMBLE, seed=77)
    clarke = np.abs(j0(2.0 * math.pi * iso.max_doppler * lags))
    dev = float(np.max(np.abs(acf.magnitude - clarke)))
    small = time_acf(iso, lag_grid=lags, t=1.0, ensemble=2048, seed=77)
    big = time_acf(iso, lag_grid=lags, t=1.0, ensemble=8192, seed=77)
    # quadrupling the ensemble should halve the error bars
    ratio = float(np.mean(small.std_error[1:] / big.std_error[1:]))
    zero_exact = (acf.values[0] == 1.0 + 0.0j and acf.std_error[0] == 0.0)
    ok = dev <= 0.05 and abs(ratio - 2.0) <= 0.4 and zero_exact
    _report(8, ok,
            f"Bessel deviation {dev:.4f} <= 0.05; error ratio x4 ensemble "
            f"{ratio:.2f} ~ 2.0; zero lag exact={zero_exact}")
