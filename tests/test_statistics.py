"""Correlation estimators: exactness, oracles, restriction identities."""
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, j0

from beamchan.bdcm import bdcm_cluster_matrix, draw_bdcm_phases
from beamchan.clusters import Cluster, EvolutionConfig, time_decay_rate
from beamchan.config import SimulationConfig, preset
from beamchan import statistics
from beamchan.gbsm import draw_gbsm_phases, gbsm_cluster_matrix, gbsm_matrix
from beamchan.statistics import (
    CorrelationSeries,
    _member_state,
    fcf,
    space_ccf,
    stfcf,
    time_acf,
)
from beamchan.clusters import initial_clusters
from beamchan.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    EllipseConfig,
    rx_focal_distance,
    virtual_angles,
)

TWO_PI = 2.0 * math.pi


def frozen_config(**kw):
    # evolution switched off; mean count must then be given explicitly
    kw.setdefault("evolution", EvolutionConfig(death_rate=0.0))
    kw.setdefault("mean_clusters", 10.0)
    return SimulationConfig(**kw)


# ---------------------------------------------------------------- transfer

def test_transfer_function_single_cluster_and_zero_freq():
    cfg = frozen_config()
    rng = np.random.default_rng(0)
    clusters = initial_clusters(cfg, rng)[:1]
    real = gbsm_matrix(0.0, clusters, cfg, rng=rng)
    h = real.coeffs[0, 0, 0]
    # single cluster: the transfer function is that coefficient rotated
    # by its delay phase
    tau = real.delays[0]
    want = h * np.exp(-1j * TWO_PI * 1e6 * tau)
    assert real.transfer(1, 1, 1e6) == pytest.approx(want, abs=1e-15)
    assert real.transfer(1, 1, 0.0) == pytest.approx(h, abs=1e-15)


def test_transfer_function_destructive_combination():
    cfg = frozen_config()
    rng = np.random.default_rng(1)
    clusters = initial_clusters(cfg, rng)
    real = gbsm_matrix(0.0, clusters[:2], cfg, rng=rng)
    h1, h2 = real.coeffs[0, 0, 0], real.coeffs[0, 0, 1]
    dtau = real.delays[1] - real.delays[0]
    freq = 0.5 / dtau  # half-cycle phase difference between the two delays
    got = real.transfer(1, 1, freq)
    want = np.exp(-1j * TWO_PI * freq * real.delays[0]) * (h1 - h2)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("k, l, side, index", [
    (0, 1, "receive", 0), (4, 1, "receive", 4),
    (1, 0, "transmit", 0), (1, 3, "transmit", 3),
])
def test_transfer_rejects_antennas_outside_the_array(k, l, side, index):
    # index 0 used to wrap to the last antenna, num + 1 raised IndexError
    cfg = frozen_config(array=ArrayConfig(num_tx=2, num_rx=3,
                                          spacing_tx=0.06, spacing_rx=0.06))
    rng = np.random.default_rng(2)
    real = gbsm_matrix(0.0, initial_clusters(cfg, rng), cfg, rng=rng)
    with pytest.raises(ValueError, match=f"{side} antenna index {index} out of range"):
        real.transfer(k, l, 0.0)


# ------------------------------------------------------------- exactness

def test_zero_lag_is_exactly_one():
    cfg = SimulationConfig()
    s = space_ccf(cfg, ensemble=50, seed=3)
    a = time_acf(cfg, ensemble=50, seed=3)
    f = fcf(cfg, ensemble=50, seed=3)
    for series in (s, a, f):
        assert series.values[0] == 1.0 + 0.0j
        assert series.std_error[0] == 0.0
    assert stfcf(cfg, ensemble=50, seed=3) == 1.0 + 0.0j


def test_zero_lag_exact_in_sampled_mode():
    cfg = SimulationConfig(estimator_mode="sampled")
    s = space_ccf(cfg, ensemble=50, seed=3)
    assert s.values[0] == 1.0 + 0.0j
    cfg2 = SimulationConfig(estimator_mode="sampled", normalization="per_realization")
    s2 = space_ccf(cfg2, ensemble=50, seed=3)
    assert s2.values[0] == 1.0 + 0.0j


def _assert_restrictions(cfg, model):
    s = space_ccf(cfg, model=model, ensemble=120, seed=9)
    a = time_acf(cfg, model=model, ensemble=120, seed=9)
    f = fcf(cfg, model=model, ensemble=120, seed=9)
    for i in (3, 11, 24):
        pt = stfcf(cfg, model=model, spacing_rx=float(s.lag_axis[i]),
                   ensemble=120, seed=9)
        assert abs(pt - s.values[i]) < 1e-12
        pt = stfcf(cfg, model=model, time_lag=float(a.lag_axis[i]),
                   ensemble=120, seed=9)
        assert abs(pt - a.values[i]) < 1e-12
    for i in (5, 20):
        pt = stfcf(cfg, model=model, freq_lag=float(f.lag_axis[i]),
                   cluster_index=None, ensemble=120, seed=9)
        assert abs(pt - f.values[i]) < 1e-12


def test_restriction_identities():
    # the joint estimator restricted to one axis reproduces the dedicated
    # estimators up to summation order (same member streams)
    _assert_restrictions(SimulationConfig(), "gbsm")


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
def test_restriction_identities_bdcm(mode):
    # a single lag point builds one table column per delay slot, the
    # dedicated estimators build the whole grid; both must agree
    _assert_restrictions(SimulationConfig(estimator_mode=mode), "bdcm")


def test_restriction_identities_sampled_mode():
    cfg = SimulationConfig(estimator_mode="sampled")
    a = time_acf(cfg, ensemble=100, seed=4)
    pt = stfcf(cfg, time_lag=float(a.lag_axis[7]), ensemble=100, seed=4)
    assert abs(pt - a.values[7]) < 1e-12


def test_determinism_and_model_pairing():
    cfg = SimulationConfig()
    a1 = space_ccf(cfg, ensemble=150, seed=21)
    a2 = space_ccf(cfg, ensemble=150, seed=21)
    assert np.array_equal(a1.values, a2.values)
    # the state streams are model independent, so the frequency
    # correlation (which ignores angles) is identical between models
    f_g = fcf(cfg, model="gbsm", ensemble=150, seed=21)
    f_b = fcf(cfg, model="bdcm", ensemble=150, seed=21)
    assert np.max(np.abs(f_g.values - f_b.values)) < 1e-12


def _bdcm_curves(cfg):
    kw = dict(model="bdcm", ensemble=40, seed=43, t=2.0)
    joint = [stfcf(cfg, spacing_tx=0.05, spacing_rx=0.1, freq_lag=3e6,
                   time_lag=0.02, cluster_index=c, **kw) for c in (1, None)]
    return (space_ccf(cfg, **kw).values, time_acf(cfg, **kw).values,
            fcf(cfg, **kw).values, np.array(joint))


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_slot_cache_matches_fresh_context_per_member(monkeypatch, mode, kfac):
    # a chunk shares its per-slot phasor tables across members; chunks of
    # one member build every table afresh and are the reference
    cfg = SimulationConfig(estimator_mode=mode, rician_k=kfac)
    shared = _bdcm_curves(cfg)
    monkeypatch.setattr(statistics, "_CHUNK", 1)
    fresh = _bdcm_curves(cfg)
    for got, want in zip(shared, fresh):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_bdcm_tables_built_once_per_slot_per_chunk(monkeypatch, kfac):
    calls = []
    antenna_distances = statistics.antenna_distances

    def counting(*args):
        calls.append(args)
        return antenna_distances(*args)

    monkeypatch.setattr(statistics, "antenna_distances", counting)
    # the direct path reads the last beam's grids: K > 0 adds no kernel call
    cfg = SimulationConfig(rician_k=kfac)
    ensemble, seed = 300, 47
    fcf(cfg, model="bdcm", ensemble=ensemble, seed=seed)
    chunks = [range(s, min(s + statistics._CHUNK, ensemble))
              for s in range(0, ensemble, statistics._CHUNK)]
    assert len(chunks) == 2
    slots = sum(len({c.slot for m in chunk
                     for c in _member_state(cfg, seed, m, 1.0)})
                for chunk in chunks)
    # one table is one transmit and one receive distance grid
    assert 0 < len(calls) <= 2 * slots


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_tables_match_cartesian_path_lengths(model):
    # analytic tables against path lengths from explicit coordinates: the
    # scatterer on the cluster's ellipse, reference and probe antennas on
    # tilted arrays around the transmit focus (-f, 0) and receive focus (f, 0)
    arr = ArrayConfig(num_tx=8, num_rx=6, spacing_tx=0.05, spacing_rx=0.08,
                      tilt_tx=0.7, tilt_rx=1.9)
    cfg = SimulationConfig(array=arr, num_beams=64)
    lag_tx = np.array([0.0, 0.03, 0.0, 0.11])
    lag_rx = np.array([0.0, 0.0, 0.07, 0.02])
    ctx = statistics._LagContext(cfg, model, 1.0, lag_tx, lag_rx, 0.0, 0.0)
    occ = _member_state(cfg, 3, 0, 1.0)[0]
    _, _, _, tables = ctx.paths(occ)
    ang = occ.ray_aoas if model == "gbsm" else virtual_angles(cfg.num_beams)
    f = cfg.ellipse.focal_half
    r = rx_focal_distance(ang, EllipseConfig(occ.semi_major, f))
    scat = np.stack([f + r * np.cos(ang), r * np.sin(ang)])[:, :, None]

    def path_difference(num, spacing, tilt, lags, focus):
        ref = np.where(lags > 0, (num - 1) / 2 * lags, (num - 1) / 2 * spacing)
        probe = np.where(lags > 0, (num - 3) / 2 * lags, ref)
        axis = np.array([[math.cos(tilt)], [math.sin(tilt)]])[:, None, :]
        length = [np.hypot(*(scat - (np.array([[focus], [0.0]])[:, None, :]
                                     + axis * off[None, None, :])))
                  for off in (ref, probe)]
        return length[0] - length[1]

    dphase = TWO_PI / cfg.wavelength * (
        path_difference(8, 0.05, 0.7, lag_tx, -f)
        + path_difference(6, 0.08, 1.9, lag_rx, f))
    assert np.max(np.abs(tables[:, ctx.column] - np.exp(1j * dphase))) < 1e-9


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
@pytest.mark.parametrize("slot", [0, 3])
def test_direct_path_row_matches_builder(model, slot):
    # cluster 1 with zero diffuse power carries only the direct path; its
    # row for a receive spacing lag d and a time lag dL is the builder's
    # h_ref(t) conj(h_probe(t + dL)) / k_eff on the array respaced to d,
    # reference antenna 1 and probe antenna 2; the beam-domain direct path
    # rides the last beam of the cluster's own ellipse, so the slot matters
    cfg = SimulationConfig(rician_k=3.0, num_beams=64)
    t, d, dL = 4.0, 0.09, 0.03
    ctx = statistics._LagContext(cfg, model, t, 0.0, d, 0.0, dL)
    semi = cfg.ellipse.semi_major + slot * SPEED_OF_LIGHT * cfg.delay_spacing / 2.0
    occ = Cluster(index=1, uid=1, slot=slot, semi_major=semi,
                  delay=2.0 * semi / SPEED_OF_LIGHT, power=0.0,
                  mean_aoa=cfg.mean_aoa, ray_aoas=np.array([0.3, -1.1]),
                  visible_tx=frozenset({1}), visible_rx=frozenset({1, 2}))
    k_eff = 3.0 / 4.0
    wts, power, _, tables = ctx.paths(occ)
    assert power == k_eff and wts[-1] == 1.0 and not np.any(wts[:-1])
    respaced = cfg.with_values(array=replace(cfg.array, spacing_rx=d))
    rng = np.random.default_rng(5)
    if model == "gbsm":
        build, phases = gbsm_cluster_matrix, draw_gbsm_phases([occ], rng)
    else:
        build, phases = bdcm_cluster_matrix, draw_bdcm_phases([occ], cfg, rng)
    h_ref = build(occ, t, respaced, phases)[0, 0]
    h_probe = build(occ, t + dL, respaced, phases)[1, 0]
    want = h_ref * np.conj(h_probe) / k_eff
    assert abs(tables[-1, ctx.column[0]] - want) < 1e-10


# ----------------------------------------------------------------- oracles

def test_clarke_oracle_uniform_rays():
    # isotropic arrivals, evolution off: |ACF| follows the zeroth Bessel
    cfg = frozen_config(kappa=0.0)
    lags = np.linspace(0.0, 0.12, 25)
    a = time_acf(cfg, lag_grid=lags, ensemble=3000, seed=5)
    oracle = np.abs(j0(TWO_PI * cfg.max_doppler * lags))
    assert np.max(np.abs(a.magnitude - oracle)) < 0.05


def test_von_mises_acf_oracle_fixed_cluster():
    # concentrated arrivals, evolution off: the cluster-1 ACF matches the
    # numerically integrated angular average
    cfg = frozen_config()
    lags = np.linspace(0.0, 0.08, 9)
    a = time_acf(cfg, lag_grid=lags, ensemble=3000, seed=8)

    def avg(lag):
        def re_part(th):
            w = math.exp(cfg.kappa * math.cos(th - cfg.mean_aoa))
            return w * math.cos(TWO_PI * cfg.max_doppler
                                * math.cos(th - cfg.velocity_angle) * lag)

        def im_part(th):
            w = math.exp(cfg.kappa * math.cos(th - cfg.mean_aoa))
            return w * math.sin(TWO_PI * cfg.max_doppler
                                * math.cos(th - cfg.velocity_angle) * lag)

        norm = TWO_PI * i0(cfg.kappa)
        re = quad(re_part, -math.pi, math.pi, limit=200)[0] / norm
        im = quad(im_part, -math.pi, math.pi, limit=200)[0] / norm
        return math.hypot(re, im)

    oracle = np.array([avg(l) for l in lags])
    assert np.max(np.abs(a.magnitude - oracle)) < 0.04


def test_hermitian_symmetry_frozen_evolution():
    cfg = frozen_config(kappa=0.0)
    lags = np.linspace(0.0, 0.1, 11)
    fwd = time_acf(cfg, lag_grid=lags, ensemble=500, seed=6)
    bwd = time_acf(cfg, lag_grid=-lags, ensemble=500, seed=6)
    assert np.max(np.abs(bwd.values - np.conj(fwd.values))) == 0.0


def test_evolving_acf_mixture_oracle():
    # at evaluation time t the first cluster position holds the original
    # (fixed mean angle) cluster with the survival probability and an
    # angle-uniform newborn otherwise; the lag survival contributes the
    # square-root factor through the normalization
    cfg = preset("fig4")
    r = time_decay_rate(cfg.evolution)
    t = 2.0
    lags = np.linspace(0.0, 0.1, 11)
    a = time_acf(cfg, lag_grid=lags, t=t, ensemble=4000, seed=13)

    def vm_value(lag):
        def re_part(th):
            w = math.exp(cfg.kappa * math.cos(th - cfg.mean_aoa))
            return w * math.cos(TWO_PI * cfg.max_doppler
                                * math.cos(th - cfg.velocity_angle) * lag)

        def im_part(th):
            w = math.exp(cfg.kappa * math.cos(th - cfg.mean_aoa))
            return w * math.sin(TWO_PI * cfg.max_doppler
                                * math.cos(th - cfg.velocity_angle) * lag)

        norm = TWO_PI * i0(cfg.kappa)
        return complex(quad(re_part, -math.pi, math.pi, limit=200)[0] / norm,
                       -quad(im_part, -math.pi, math.pi, limit=200)[0] / norm)

    w_orig = math.exp(-r * t)
    oracle = np.array([
        math.exp(-r * lag / 2.0) * abs(
            w_orig * vm_value(lag)
            + (1.0 - w_orig) * j0(TWO_PI * cfg.max_doppler * lag))
        for lag in lags])
    assert np.max(np.abs(a.magnitude - oracle)) < 0.025


def test_ccf_spacing_survival_factor():
    # a single fixed direction leaves only the visibility gate: the
    # correlation magnitude is the square root of the pair survival
    cfg = SimulationConfig(rays_per_cluster=1, kappa=1e9)
    lam_r = cfg.evolution.death_rate
    dca = cfg.evolution.array_decorrelation
    grid = np.array([0.0, 1.0, 3.0])
    # t=0 keeps every first cluster at the configured mean angle, so the
    # phase factors are common and only the gate statistics remain
    s = space_ccf(cfg, spacing_grid=grid, t=0.0, ensemble=4000, seed=17)
    want = np.sqrt(np.exp(-lam_r * grid / dca))
    assert np.max(np.abs(s.magnitude - want)) < 0.03


def test_single_path_magnitude_one_at_all_spacings():
    # one ray means each realization is a pure phasor: a single member
    # gives unit magnitude at every spacing.  Across members the ray
    # angles still jitter by ~1/sqrt(kappa), so the averaged phasor sits
    # within that spread of 1 rather than within rounding.
    cfg = frozen_config(rays_per_cluster=1, kappa=1e9)
    one = space_ccf(cfg, ensemble=1, seed=19)
    assert np.max(np.abs(one.magnitude - 1.0)) < 1e-12
    many = space_ccf(cfg, ensemble=60, seed=19)
    assert np.max(np.abs(many.magnitude - 1.0)) < 1e-5


def test_single_cluster_fcf_magnitude_one():
    # a lone cluster contributes one delay, so the frequency correlation
    # of that member is a pure phase ramp with unit magnitude
    cfg = frozen_config(mean_clusters=0.01)
    assert len(_member_state(cfg, 23, 0, 1.0)) == 1
    f = fcf(cfg, ensemble=1, seed=23)
    assert np.max(np.abs(f.magnitude - 1.0)) < 1e-12


def test_magnitude_bounded_by_one_analytic():
    cfg = SimulationConfig(rician_k=2.0)
    s = space_ccf(cfg, ensemble=300, seed=29, t=2.0)
    a = time_acf(cfg, ensemble=300, seed=29, t=2.0)
    assert np.all(s.magnitude <= 1.0 + 1e-12)
    assert np.all(a.magnitude <= 1.0 + 1e-12)


def test_error_scaling_sqrt2():
    cfg = SimulationConfig()
    lag = 5
    a1 = time_acf(cfg, ensemble=1024, seed=31)
    a2 = time_acf(cfg, ensemble=2048, seed=31)
    ratio = a1.std_error[lag] / a2.std_error[lag]
    assert math.sqrt(2.0) * 0.8 <= ratio <= math.sqrt(2.0) * 1.2


def test_sampled_mode_agrees_with_analytic():
    cfg = SimulationConfig()
    grid = np.array([0.0, 0.1, 0.24])
    ref = space_ccf(cfg, spacing_grid=grid, ensemble=4000, seed=37)
    noisy = space_ccf(cfg.with_values(estimator_mode="sampled"),
                      spacing_grid=grid, ensemble=4000, seed=37)
    assert np.max(np.abs(ref.magnitude - noisy.magnitude)) < 0.08


def test_per_realization_normalization():
    cfg = SimulationConfig(estimator_mode="sampled",
                           normalization="per_realization")
    s = space_ccf(cfg, ensemble=400, seed=41)
    assert np.all(s.magnitude <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        space_ccf(SimulationConfig(normalization="per_realization"),
                  ensemble=10, seed=1)


def test_validation_errors():
    cfg = SimulationConfig()
    with pytest.raises(ValueError):
        space_ccf(cfg, ensemble=0, seed=1)
    with pytest.raises(ValueError):
        space_ccf(cfg, model="plane_wave", ensemble=10, seed=1)
    with pytest.raises(ValueError):
        space_ccf(cfg, spacing_grid=np.array([-0.1, 0.0]), ensemble=10, seed=1)
    narrow = SimulationConfig(array=ArrayConfig(num_tx=2, num_rx=1,
                                                spacing_tx=0.06, spacing_rx=0.06))
    with pytest.raises(ValueError):
        space_ccf(narrow, ensemble=10, seed=1)


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("estimator", [space_ccf, time_acf, stfcf])
def test_cluster_index_below_one_raises_naming_it(estimator, index):
    # clusters are numbered from 1; 0 or -1 would wrap to the last cluster
    with pytest.raises(ValueError, match="cluster_index"):
        estimator(SimulationConfig(), cluster_index=index, ensemble=2, seed=1)


def test_worker_env_does_not_change_results():
    code = (
        "import numpy as np\n"
        "from beamchan.config import SimulationConfig\n"
        "from beamchan.statistics import fcf, time_acf\n"
        "a = time_acf(SimulationConfig(), ensemble=300, seed=77)\n"
        "print(repr(a.values.tobytes().hex()))\n"
        "f = fcf(SimulationConfig(), model='bdcm', ensemble=300, seed=77)\n"
        "print(repr(f.values.tobytes().hex()))\n"
    )
    outs = []
    for workers in ("1", "2"):
        env = dict(os.environ, BEAMCHAN_WORKERS=workers)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(res.stdout.strip())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_worker_env_raises_naming_the_variable(monkeypatch, raw):
    monkeypatch.setenv("BEAMCHAN_WORKERS", raw)
    with pytest.raises(ValueError, match="BEAMCHAN_WORKERS"):
        space_ccf(SimulationConfig(), ensemble=1, seed=1)
