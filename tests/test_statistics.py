"""Correlation estimators: exactness, oracles, restriction identities."""
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, j0

from beamchan.bdcm import bdcm_matrix, beam_weights, draw_bdcm_phases
from beamchan.clusters import Cluster, EvolutionConfig, time_decay_rate
from beamchan.config import SimulationConfig, preset
from beamchan import geometry, statistics
from beamchan._held import HELD
from beamchan._streams import MemberStreams
from beamchan.gbsm import PhaseDraw, draw_gbsm_phases, gbsm_matrix
from beamchan.statistics import (
    CorrelationSeries,
    fcf,
    space_ccf,
    stfcf,
    time_acf,
)
from beamchan.clusters import evolve_time, initial_clusters
from beamchan.geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    EllipseConfig,
    antenna_distances,
    aod_from_aoa,
    los_doppler_from_offsets,
    ray_doppler,
    rx_focal_distance,
    virtual_angles,
)
from helpers import bdcm_cluster_matrix, gbsm_cluster_matrix, member_stream

TWO_PI = 2.0 * math.pi


def full_member_state(config, seed, member, t):
    """Every cluster of a member's history at time t, drawn in full: the
    estimators' former state draw, the oracle of their truncated one."""
    clusters = initial_clusters(config, member_stream(seed, member, statistics._STREAM_INIT))
    if t > 0 and config.evolution.death_rate > 0:
        clusters = evolve_time(clusters, t, config,
                               member_stream(seed, member, statistics._STREAM_EVOLVE))
    return clusters


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
    # the members share the held per-slot phasor tables; chunks of one
    # member with nothing held build every table afresh and are the reference
    cfg = SimulationConfig(estimator_mode=mode, rician_k=kfac)
    shared = _bdcm_curves(cfg)
    monkeypatch.setattr(statistics, "_CHUNK", 1)
    monkeypatch.setattr(HELD, "budget", 0)
    HELD.clear()
    fresh = _bdcm_curves(cfg)
    for got, want in zip(shared, fresh):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_bdcm_tables_built_once_per_slot_per_process(monkeypatch, kfac):
    calls = _recording(monkeypatch, "antenna_distances")
    # the direct path reads the last beam's grids: K > 0 adds no kernel call
    cfg = SimulationConfig(rician_k=kfac)
    ensemble, seed = 300, 47
    first = fcf(cfg, model="bdcm", ensemble=ensemble, seed=seed)
    assert ensemble > statistics._CHUNK
    slots = {c.slot for m in range(ensemble) for c in full_member_state(cfg, seed, m, 1.0)}
    # one table is one transmit and one receive distance grid, over all chunks
    assert 0 < len(calls) <= 2 * len(slots)
    calls.clear()
    again = fcf(cfg, model="bdcm", ensemble=ensemble, seed=seed)
    assert calls == [] and again.values.tobytes() == first.values.tobytes()
    # without deaths cluster 1 sits in slot 0 for every member and time, so
    # calls that differ in seed, ensemble, kappa or (at K = 0) t read the
    # one table the first call built
    frozen = frozen_config(rician_k=kfac)
    base = dict(model="bdcm", ensemble=30, seed=1, t=1.0)
    space_ccf(frozen, **base)
    assert len(calls) == 2
    for changed, kw in ((frozen, dict(base, seed=2)),
                        (frozen.with_values(kappa=2.0), dict(base, ensemble=300)),
                        (frozen, dict(base, t=2.5))):
        calls.clear()
        space_ccf(changed, **kw)
        # the direct-path rows read t, so only they make t part of the key
        assert len(calls) == (2 if kfac > 0 and kw["t"] != base["t"] else 0)


def test_slots_beyond_the_budget_still_reuse_the_held_tables(monkeypatch):
    # as in the builder: a block takes its held slots first, so the slots
    # it builds after them evict only tables it is done with
    cfg = SimulationConfig(num_beams=16)
    kw = dict(model="bdcm", ensemble=20, seed=8)
    table_bytes = 16 * cfg.num_beams  # one lag column of complex entries per beam
    monkeypatch.setattr(HELD, "budget", 3 * table_bytes)
    calls = _recording(monkeypatch, "antenna_distances")
    first = fcf(cfg, **kw)
    slots = len(calls) // 2
    assert slots == len({c.slot for m in range(20) for c in full_member_state(cfg, 8, m, 1.0)})
    assert slots > 3 and len(HELD._entries) == 3
    calls.clear()
    again = fcf(cfg, **kw)
    assert len(calls) == 2 * (slots - 3)
    assert again.values.tobytes() == first.values.tobytes()


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_slot_table_key_covers_what_the_tables_read(kfac):
    # a table held for one call serves another only where the other would
    # build the same bytes: each input the tables read changes the key, and
    # the inputs they do not read leave it alone
    base = SimulationConfig(array=ArrayConfig(num_tx=4, num_rx=6), num_beams=16,
                            rician_k=kfac)
    lags = (0.05, [0.0, 0.1, 0.1], 0.0, [0.0, 0.0, 0.02])

    def held_tables(cfg, t=1.0, lags=lags):
        ctx = statistics._LagContext(cfg, "bdcm", t, *statistics._broadcast_lags(*lags))
        tables, rows = ctx.slot_tables(107.5)
        return b"".join(a.tobytes() for a in tables + (rows or ()))

    arr = base.array
    changed = [(replace(base, num_beams=17), {}),
               (replace(base, ellipse=EllipseConfig(100.0, 70.0)), {}),
               (replace(base, wavelength=0.1), {}),
               (replace(base, max_doppler=20.0), {}),
               (replace(base, velocity_angle=0.4), {}),
               (replace(base, estimator_mode="sampled"), {}),
               (base, dict(lags=(0.06,) + lags[1:])),
               (base, dict(lags=(0.05, [0.0, 0.1, 0.2], 0.0, [0.0, 0.0, 0.02]))),
               (base, dict(lags=(0.05, [0.0, 0.1, 0.1], 0.0, [0.0, 0.0, 0.03])))]
    for f in fields(ArrayConfig):
        value = getattr(arr, f.name)
        value = value + 1 if isinstance(value, int) else value / 2.0
        changed.append((replace(base, array=replace(arr, **{f.name: value})), {}))
    if kfac > 0:
        changed.append((base, dict(t=2.0)))
    for cfg, kw in changed:
        HELD.clear()
        held_tables(base)
        got = held_tables(cfg, **kw)
        assert len(HELD._entries) == 2
        HELD.clear()
        assert got == held_tables(cfg, **kw)
    HELD.clear()
    want = held_tables(base)
    shared = [(replace(base, seed=9, ensemble=7, kappa=1.0, mean_aoa=0.2,
                       rays_per_cluster=3, delay_spacing=1e-8, beam_weighting="uniform",
                       ellipse=EllipseConfig(120.0, 80.0),
                       rician_k=2 * kfac, evolution=EvolutionConfig(death_rate=0.5)), {}),
              (base, dict(lags=(0.05, [0.0, 0.1, 0.1], [0.0, 1e6, 0.0], [0.0, 0.0, 0.02])))]
    if kfac == 0:
        shared.append((base, dict(t=2.0)))
    for cfg, kw in shared:
        assert held_tables(cfg, **kw) == want
    assert len(HELD._entries) == 1


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_cold_and_warm_store_give_the_same_bytes(monkeypatch, model, mode, kfac):
    # a curve is the same bytes whether its tables are built in the call
    # (cold store), read from a store an unrelated call warmed (other
    # seed, ensemble, kappa and, at K = 0, t), or never held at all
    cfg = SimulationConfig(estimator_mode=mode, rician_k=kfac, num_beams=64)
    kw = dict(model=model, ensemble=300, seed=5, t=1.0)

    def curves():
        return [c.values.tobytes() + c.std_error.tobytes() for c in
                (space_ccf(cfg, **kw), time_acf(cfg, **kw))]

    calls = _recording(monkeypatch, "antenna_distances")
    cold = curves()
    built_cold = len(calls)
    HELD.clear()
    other = dict(kw, ensemble=100, seed=6, t=2.0 if kfac == 0 else 1.0)
    space_ccf(cfg.with_values(kappa=2.0), **other)
    time_acf(cfg.with_values(kappa=2.0), **other)
    calls.clear()
    warm = curves()
    if model == "bdcm":
        # warm, the curves build only the slots the other calls did not read
        assert len(calls) < built_cold
    monkeypatch.setattr(HELD, "budget", 0)
    HELD.clear()
    assert warm == cold == curves()


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_direct_path_geometry_evaluated_once_per_call(monkeypatch, model):
    # the GBSM direct path takes its distance and Doppler from one path
    # evaluation per call: once per builder call, and once per estimator
    # call over all chunks (its rows are held); the BDCM direct path reads
    # the beam grids and the array-center Doppler instead
    cfg = SimulationConfig(array=ArrayConfig(num_tx=4, num_rx=4), num_beams=16,
                           rician_k=3.0)
    calls = []
    path = geometry.los_path_from_offsets

    def counting(*args):
        calls.append(args)
        return path(*args)

    monkeypatch.setattr(geometry, "los_path_from_offsets", counting)
    clusters, rng = statistics.member_channel_state(cfg, 3, 0, 1.0)
    build = gbsm_matrix if model == "gbsm" else bdcm_matrix
    build(1.0, clusters, cfg, rng=rng)
    space_ccf(cfg, model=model, ensemble=300, seed=3)
    assert len(calls) == (2 if model == "gbsm" else 0)


def _recording(monkeypatch, name):
    """Calls of ``statistics.<name>`` made while the test runs."""
    calls = []
    original = getattr(statistics, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(statistics, name, recording)
    return calls


@pytest.mark.parametrize("one_block_per_chunk", [False, True])
def test_gbsm_distance_kernel_runs_once_per_side_per_block(monkeypatch,
                                                           one_block_per_chunk):
    # every cluster of a block shares one kernel call per side, whatever
    # the members' cluster counts; the tilts tell the two sides apart
    if one_block_per_chunk:
        monkeypatch.setattr(statistics, "_BLOCK_ELEMENTS", 1 << 40)
    kernel = _recording(monkeypatch, "antenna_distances")
    blocks = _recording(monkeypatch, "_block_terms")
    cfg = SimulationConfig(array=ArrayConfig(tilt_tx=0.7, tilt_rx=1.9))
    ensemble, seed = 300, 61
    stfcf(cfg, spacing_tx=0.06, spacing_rx=0.12, cluster_index=None,
          ensemble=ensemble, seed=seed)
    assert sum(len(args[1]) for args in blocks) == ensemble
    assert sorted(args[2] for args in kernel) == [0.7] * len(blocks) + [1.9] * len(blocks)
    clusters = sum(len(full_member_state(cfg, seed, m, 1.0)) for m in range(ensemble))
    assert 10 * len(blocks) < clusters
    if one_block_per_chunk:
        assert len(blocks) == 2


@pytest.mark.parametrize("one_block_per_chunk", [False, True])
def test_bdcm_beam_weights_once_per_block(monkeypatch, one_block_per_chunk):
    # one call over the stacked mean angles of every cluster in the block
    if one_block_per_chunk:
        monkeypatch.setattr(statistics, "_BLOCK_ELEMENTS", 1 << 40)
    weights = _recording(monkeypatch, "beam_weights")
    blocks = _recording(monkeypatch, "_block_terms")
    cfg = SimulationConfig()
    ensemble, seed = 300, 47
    fcf(cfg, model="bdcm", ensemble=ensemble, seed=seed)
    assert len(weights) == len(blocks)
    picked = [sum(len(clusters) for clusters, _ in args[1]) for args in blocks]
    assert [np.size(args[0]) for args in weights] == picked
    clusters = sum(len(full_member_state(cfg, seed, m, 1.0)) for m in range(ensemble))
    assert sum(picked) == clusters and 10 * len(blocks) < clusters
    if one_block_per_chunk:
        assert len(blocks) == 2


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
    ctx = statistics._LagContext(cfg, model, 1.0,
                                 *statistics._broadcast_lags(lag_tx, lag_rx, 0.0, 0.0))
    occ = full_member_state(cfg, 3, 0, 1.0)[0]
    ang = occ.ray_aoas if model == "gbsm" else virtual_angles(cfg.num_beams)
    _, (tables,), _ = ctx.tables(ang, np.full(ang.size, occ.semi_major))
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
    ctx = statistics._LagContext(cfg, model, t, *statistics._broadcast_lags(0.0, d, 0.0, dL))
    semi = cfg.ellipse.semi_major + slot * SPEED_OF_LIGHT * cfg.delay_spacing / 2.0
    occ = Cluster(index=1, uid=1, slot=slot, semi_major=semi,
                  delay=2.0 * semi / SPEED_OF_LIGHT, power=0.0,
                  mean_aoa=cfg.mean_aoa, ray_aoas=np.array([0.3, -1.1]),
                  visible_tx=range(1, 2), visible_rx=range(1, 3),
                  rx_chain=np.array([10.0]))
    k_eff = 3.0 / 4.0
    # survival budgets far above the lag hazards keep both gates open
    v, a, b = statistics._block_terms(ctx, [([occ], np.array([10.0]))])
    assert a[0] == k_eff and b[0, 0] == k_eff
    respaced = cfg.with_values(array=replace(cfg.array, spacing_rx=d))
    rng = np.random.default_rng(5)
    if model == "gbsm":
        build, phases = gbsm_cluster_matrix, draw_gbsm_phases([occ], rng)
    else:
        build, phases = bdcm_cluster_matrix, draw_bdcm_phases([occ], cfg, rng)
    h_ref = build(occ, t, respaced, phases)[0, 0]
    h_probe = build(occ, t + dL, respaced, phases)[1, 0]
    want = h_ref * np.conj(h_probe) / k_eff
    assert abs(v[0, 0] / k_eff - want) < 1e-10


# ------------------------------------------------- per-cluster oracle

class PerClusterContext(statistics._LagContext):
    """The estimators' former per-cluster evaluation, kept as the oracle of
    the batched one: tables over the full (dT, dR, dL) columns, built per
    GBSM cluster and per BDCM slot, reduced one cluster at a time."""

    def __init__(self, config, model, t, *lags):
        super().__init__(config, model, t, *lags)
        tx, rx = (np.array([0.0] * self.width) for _ in range(2))
        for lag_tx, lag_rx, col in zip(self.dT, self.dR, self.column):
            tx[col], rx[col] = lag_tx, lag_rx
        arr = config.array
        self.off_tx = statistics._side_offsets(arr.num_tx, arr.spacing_tx, tx)
        self.off_rx = statistics._side_offsets(arr.num_rx, arr.spacing_rx, rx)
        self.slot_cache = {}

    def cluster_paths(self, occ):
        cfg = self.config
        ell = EllipseConfig(occ.semi_major, cfg.ellipse.focal_half)
        if self.model == "gbsm":
            ang = occ.ray_aoas
            doppler, tables, _ = self.path_tables(ang, aod_from_aoa(ang, ell), ell)
            wts = np.full(ang.size, 1.0 / ang.size)
            direct = self.los_row()
        else:
            if occ.slot not in self.slot_cache:
                ang = self.grid.aoa
                self.slot_cache[occ.slot] = self.path_tables(
                    ang, aod_from_aoa(ang, ell), ell, self.kfac > 0)
            doppler, tables, direct = self.slot_cache[occ.slot]
            wts = beam_weights(occ.mean_aoa, cfg.kappa, self.grid, cfg.beam_weighting)
        power = occ.power / (self.kfac + 1.0)
        if occ.index == 1 and self.kfac > 0:
            k_eff = self.kfac / (self.kfac + 1.0)
            wts = np.append(power * wts, k_eff) / (power + k_eff)
            power = power + k_eff
            doppler = np.append(doppler, 0.0)
            tables = (tuple(map(np.vstack, zip(tables, direct))) if self.sampled
                      else np.vstack([tables, direct]))
        return wts, power, doppler, tables

    def los_row(self):
        cfg, arr = self.config, self.config.array
        geo = (self.off_tx, self.off_rx, cfg.ellipse, arr.tilt_tx, arr.tilt_rx)
        dist, doppler = los_doppler_from_offsets(*geo, cfg.max_doppler, cfg.velocity_angle)
        split = statistics._split
        return self.direct_row(*split(dist), *split(doppler))

    def direct_row(self, *geometry):
        row = self._direct_row(*geometry)
        return row if self.sampled else row[0]

    def path_tables(self, ang, aod, ellipse, with_direct=False):
        cfg = self.config
        split = statistics._split
        d_rx = rx_focal_distance(ang, ellipse)
        d_tx = 2.0 * ellipse.semi_major - d_rx
        tx_x, tx_y = split(antenna_distances(d_tx, aod, cfg.array.tilt_tx, self.off_tx))
        rx_x, rx_y = split(antenna_distances(d_rx, ang, cfg.array.tilt_rx, self.off_rx))
        doppler = ray_doppler(ang, cfg.max_doppler, cfg.velocity_angle)
        lag_phase = TWO_PI * doppler[:, None] * self.col_time[None, :]
        direct = None if not with_direct else self.direct_row(
            tx_x[-1] + rx_x[-1], tx_y[-1] + rx_y[-1],
            self.center_doppler, self.center_doppler)
        if self.sampled:
            return doppler, (np.exp(1j * self.wn * (tx_x + rx_x)),
                             np.exp(1j * (self.wn * (tx_y + rx_y) + lag_phase))), direct
        dphase = self.wn * ((tx_x - tx_y) + (rx_x - rx_y)) - lag_phase
        return doppler, np.exp(1j * dphase), direct


def pair_gate(chain, hazard):
    if not np.any(hazard > 0):
        return np.ones(hazard.shape, dtype=bool)
    return np.where(hazard > 0, chain[0] > hazard, True)


def per_cluster_terms(ctx, clusters, budgets, cluster_index, phase_rng):
    if cluster_index is None:
        members = list(enumerate(clusters))
    elif cluster_index > len(clusters):
        members = []
    else:
        members = [(cluster_index - 1, clusters[cluster_index - 1])]
    x_tot = np.zeros(ctx.length, dtype=complex)
    y_tot = np.zeros(ctx.length, dtype=complex)
    v = np.zeros(ctx.length, dtype=complex)
    a = 0.0
    b = np.zeros(ctx.length)
    for pos, occ in members:
        wts, power, doppler, tables = ctx.cluster_paths(occ)
        gate = (pair_gate(occ.tx_chain, ctx.hazard_tx)
                & pair_gate(occ.rx_chain, ctx.hazard_rx)
                & (budgets[pos] > ctx.decay * ctx.dL))
        freq_fac = np.exp(1j * TWO_PI * ctx.dW * occ.delay)
        if ctx.sampled:
            phases = phase_rng.uniform(0.0, TWO_PI, wts.size)
            diag = (np.sqrt(power * wts)
                    * np.exp(1j * (TWO_PI * doppler * ctx.t + phases)))
            ex, ey = tables
            x_tot += (diag @ ex)[ctx.column]
            y_tot += (diag @ ey)[ctx.column] * gate * np.conj(freq_fac)
        else:
            pa = (wts @ tables)[ctx.column]
            v += gate * pa * freq_fac * power
            a += power
            b = b + gate * power
    if ctx.sampled:
        return x_tot * np.conj(y_tot), np.abs(x_tot) ** 2, np.abs(y_tot) ** 2
    return v, a, b


def per_cluster_accumulate(args):
    """Drop-in for ``statistics._accumulate``, one member at a time."""
    (config, model, cluster_index, t, lag_tx, lag_rx, lag_freq, lag_time,
     seed, start, stop) = args
    ctx = PerClusterContext(config, model, t, lag_tx, lag_rx, lag_freq, lag_time)
    sums = [np.zeros(ctx.length, dtype=dtype)
            for dtype in (complex, float, float, float, complex, float, np.int64)]
    for member in range(start, stop):
        clusters = full_member_state(config, seed, member, t)
        budgets = member_stream(seed, member, statistics._STREAM_BUDGET).exponential(
            size=max(len(clusters), 1))
        phase_rng = member_stream(seed, member, statistics._STREAM_PHASE)
        v, a, b = per_cluster_terms(ctx, clusters, budgets, cluster_index, phase_rng)
        ok = (a * b) > 0
        r = np.where(ok, v / np.sqrt(np.where(ok, a * b, 1.0)), 0.0)
        for total, term in zip(sums, (v, np.abs(v) ** 2, a, b, r, np.abs(r) ** 2, ok)):
            total += term
    return tuple(sums)


def _all_estimates(cfg, model, cluster_index):
    kw = dict(model=model, ensemble=40, seed=53, t=2.0)
    out = [space_ccf(cfg, cluster_index=cluster_index, **kw).values,
           time_acf(cfg, cluster_index=cluster_index, **kw).values,
           fcf(cfg, freq_lag_grid=np.linspace(0.0, 4e6, 9), **kw).values]
    out += [stfcf(cfg, spacing_tx=0.05, spacing_rx=0.1, freq_lag=3e6,
                  time_lag=0.02, cluster_index=cluster_index, **kw)]
    return out


@pytest.mark.parametrize("cluster_index", [1, None, 20])
@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("mode", ["analytic", "sampled", "per_realization"])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_batched_terms_match_per_cluster_oracle(monkeypatch, model, mode, kfac,
                                                cluster_index):
    # chunks of 16 members and small blocks, so chunk ends, block ends and
    # one-member blocks all occur
    cfg = SimulationConfig(rician_k=kfac, num_beams=64,
                           estimator_mode="analytic" if mode == "analytic" else "sampled",
                           normalization="per_realization" if mode == "per_realization"
                           else "standard")
    if cluster_index == 20:
        counts = [len(full_member_state(cfg, 53, m, 2.0)) for m in range(40)]
        assert min(counts) < 20 <= max(counts)
    monkeypatch.setattr(statistics, "_CHUNK", 16)
    monkeypatch.setattr(statistics, "_BLOCK_ELEMENTS", 3000)
    batched = _all_estimates(cfg, model, cluster_index)
    monkeypatch.setattr(statistics, "_accumulate", per_cluster_accumulate)
    oracle = _all_estimates(cfg, model, cluster_index)
    for got, want in zip(batched, oracle):
        assert np.max(np.abs(np.asarray(got) - want)) < 1e-12


# ------------------------------------------ truncated draws: full-draw oracle

def full_draw_state(draws, streams, member, t, cluster_index=None):
    """Drop-in for ``statistics._member_state`` that draws every cluster
    of the member's history and picks afterwards."""
    clusters = full_member_state(draws.config, streams.seed, member, t)
    picked = clusters if cluster_index is None else clusters[cluster_index - 1:cluster_index]
    return picked, len(clusters)


def cluster_fields(c):
    return (c.index, c.uid, c.slot, c.semi_major, c.delay, c.power, c.mean_aoa,
            c.pdp_scale, c.visible_tx, c.visible_rx, c.ray_aoas.tolist(),
            c.tx_chain.tolist(), c.rx_chain.tolist())


# at t = 40 s cluster 1 dies with probability 0.38, so the first cluster
# picked is often a later survivor, and the last position often a newborn
TRUNCATION_CASES = [pytest.param(cfg, t, id=f"{name}-t{t:g}")
                    for name, cfg in (("evolving", SimulationConfig(num_beams=32)),
                                      ("frozen", frozen_config(num_beams=32)))
                    for t in (0.0, 1.0, 40.0)]


def _past_some_counts(cfg, seed, members, t):
    """A cluster index past the ensemble size of some members, not all."""
    counts = [len(full_member_state(cfg, seed, m, t)) for m in range(members)]
    assert min(counts) < max(counts)
    return max(counts)


@pytest.mark.parametrize("cfg, t", TRUNCATION_CASES)
def test_truncated_state_equals_full_draw(cfg, t):
    draws = statistics.ClusterDraws(cfg)
    streams = MemberStreams(8, range(60), statistics._PURPOSES)
    past = _past_some_counts(cfg, 8, 60, t)
    for member in range(60):
        full = full_member_state(cfg, 8, member, t)
        for index in (1, 2, None, past):
            got, total = statistics._member_state(draws, streams, member, t, index)
            want, want_total = full_draw_state(draws, streams, member, t, index)
            assert total == want_total == len(full)
            assert [cluster_fields(c) for c in got] == [cluster_fields(c) for c in want]


def _estimates(cfg, model, t, index):
    kw = dict(model=model, ensemble=20, seed=31, t=t)
    out = [space_ccf(cfg, cluster_index=index, spacing_grid=[0.0, 0.05, 0.3], **kw),
           time_acf(cfg, cluster_index=index, lag_grid=[0.0, 0.01, 0.1], **kw),
           stfcf(cfg, spacing_tx=0.05, spacing_rx=0.1, freq_lag=3e6, time_lag=0.02,
                 cluster_index=index, **kw)]
    if index is None:
        out.append(fcf(cfg, freq_lag_grid=[0.0, 2e6, 8e6], **kw))
    return [(r, r) if isinstance(r, complex) else (r.values, r.std_error) for r in out]


@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("mode", ["analytic", "sampled", "per_realization"])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_estimates_equal_full_draw_oracle(monkeypatch, model, mode, kfac):
    # the estimators draw each member's clusters only through the last one
    # they read; every estimate must be bitwise what a full draw gives
    kw = dict(rician_k=kfac, num_beams=32,
              estimator_mode="analytic" if mode == "analytic" else "sampled",
              normalization="per_realization" if mode == "per_realization" else "standard")
    for base, t in (case.values for case in TRUNCATION_CASES):
        cfg = base.with_values(**kw)
        for index in (1, 2, None, _past_some_counts(cfg, 31, 20, t)):
            got = _estimates(cfg, model, t, index)
            with monkeypatch.context() as m:
                m.setattr(statistics, "_member_state", full_draw_state)
                want = _estimates(cfg, model, t, index)
            for (v, e), (v_want, e_want) in zip(got, want):
                assert np.array_equal(v, v_want) and np.array_equal(e, e_want)


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_builders_realize_the_estimated_space_correlation(model):
    # the empirical receive-spacing correlation of builder realizations,
    # each member's clusters and phases taken from the member's own
    # streams, equals the estimate over the same members up to rounding.
    # Only at d = the configured spacing: the estimator respaces the array
    # for any other lag, which no built array shows.  Only at K = 0: with a
    # direct path the builders draw its phase after every cluster's, the
    # estimators right after cluster 1's.
    cfg = SimulationConfig(array=ArrayConfig(num_tx=4, num_rx=4), num_beams=64,
                           estimator_mode="sampled", seed=11, rician_k=0.0)
    ensemble, pairs = 300, []
    for member in range(ensemble):
        clusters, rng = statistics.member_channel_state(cfg, cfg.seed, member, 1.0)
        if model == "gbsm":
            real = gbsm_matrix(1.0, clusters, cfg, phases=draw_gbsm_phases(clusters, rng))
        else:
            real = bdcm_matrix(1.0, clusters, cfg,
                               phases=draw_bdcm_phases(clusters, cfg, rng))
        first = [c.index for c in clusters].index(1)
        pairs.append(real.coeffs[:2, 0, first])
    x, y = np.array(pairs).T
    empirical = np.mean(x * y.conj()) / math.sqrt(
        np.mean(np.abs(x) ** 2) * np.mean(np.abs(y) ** 2))
    series = space_ccf(cfg, model=model, spacing_grid=[0.0, cfg.array.spacing_rx],
                       t=1.0, ensemble=ensemble, seed=cfg.seed)
    assert abs(empirical - series.values[1]) < 1e-10


@pytest.mark.parametrize("tilt", [math.pi / 2, 0.7])
def test_gbsm_builder_realizes_the_estimated_space_correlation_with_direct_path(tilt):
    # the receive-spacing check above with K = 3, both arrays at ``tilt``.
    # The builder draws every cluster's ray phases and then the direct-path
    # phase; the estimator reads cluster 1's S ray phases and then the
    # direct-path phase.  So the test hands the builder the phase stream in
    # the estimator's order, and builds cluster 1 alone.  GBSM only: the BDCM
    # builder's direct-path phase carries an extra per-member constant,
    # -2*k*d_tx with d_tx measured at beam pi of cluster 1's ellipse, which
    # the estimator's direct path lacks; a uniform phase hides it only in
    # expectation, not to rounding.
    arr = ArrayConfig(num_tx=4, num_rx=4, tilt_tx=tilt, tilt_rx=tilt)
    cfg = SimulationConfig(array=arr, estimator_mode="sampled", seed=11, rician_k=3.0)
    ensemble, pairs = 300, []
    for member in range(ensemble):
        clusters, rng = statistics.member_channel_state(cfg, cfg.seed, member, 1.0)
        one = clusters[[c.index for c in clusters].index(1)]
        drawn = rng.uniform(0.0, TWO_PI, len(one.ray_aoas) + 1)
        phases = PhaseDraw(nlos={one.uid: drawn[:-1]}, los=float(drawn[-1]))
        pairs.append(gbsm_cluster_matrix(one, 1.0, cfg, phases)[:2, 0])
    x, y = np.array(pairs).T
    empirical = np.mean(x * y.conj()) / math.sqrt(
        np.mean(np.abs(x) ** 2) * np.mean(np.abs(y) ** 2))
    series = space_ccf(cfg, model="gbsm", spacing_grid=[0.0, arr.spacing_rx],
                       t=1.0, ensemble=ensemble, seed=cfg.seed)
    assert abs(empirical - series.values[1]) < 1e-10


def test_single_cluster_estimate_draws_few_clusters(monkeypatch):
    # a full draw makes about 20 clusters per member; cluster 1 survives
    # t = 1 s with probability 0.988, so nearly one draw per member suffices
    from beamchan import clusters
    drawn = []
    new_cluster = clusters._new_cluster

    def counted(*args, **kwargs):
        drawn.append(1)
        return new_cluster(*args, **kwargs)

    monkeypatch.setattr(clusters, "_new_cluster", counted)
    space_ccf(SimulationConfig(num_beams=32), cluster_index=1, ensemble=300, seed=4)
    assert 300 <= len(drawn) < 2 * 300


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
    assert len(full_member_state(cfg, 23, 0, 1.0)) == 1
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


@pytest.mark.parametrize("call, message", [
    (lambda cfg: time_acf(cfg, t=-1.0), "t must be"),
    (lambda cfg: time_acf(cfg, t=math.nan), "t must be"),
    (lambda cfg: space_ccf(cfg, t=math.inf), "t must be"),
    (lambda cfg: fcf(cfg, t=-0.5), "t must be"),
    (lambda cfg: time_acf(cfg, lag_grid=[0.0, -0.01]), "time lags must be non-negative"),
    (lambda cfg: stfcf(cfg, time_lag=-0.01), "time lags must be non-negative"),
    (lambda cfg: time_acf(cfg, lag_grid=[0.0, math.nan]), "time lags must be finite"),
    (lambda cfg: space_ccf(cfg, spacing_grid=[0.0, math.nan]),
     "receive spacing lags must be finite"),
    (lambda cfg: stfcf(cfg, spacing_tx=math.inf), "transmit spacing lags must be finite"),
    (lambda cfg: fcf(cfg, freq_lag_grid=[0.0, math.nan]), "frequency lags must be finite"),
    (lambda cfg: stfcf(cfg, freq_lag=-math.inf), "frequency lags must be finite"),
], ids=["t-negative", "t-nan", "t-inf", "fcf-t-negative", "time-lag-negative",
        "stfcf-time-lag-negative", "time-lag-nan", "rx-spacing-nan", "tx-spacing-inf",
        "freq-lag-nan", "freq-lag-minus-inf"])
def test_bad_times_and_lags_raise_naming_them(call, message):
    # each used to run: t < 0 or NaN gave the t = 0 curve labelled with
    # the bad time, a negative time lag skipped the survival gate, a NaN
    # lag returned 0
    with pytest.raises(ValueError, match=message):
        call(preset("fig4").with_values(ensemble=8, seed=1))


def test_negative_frequency_lags_stay_valid():
    cfg = SimulationConfig(ensemble=20, seed=2, num_beams=32)
    got = fcf(cfg, freq_lag_grid=[-4e6, 0.0, 4e6])
    assert np.all(np.isfinite(got.values)) and got.values[1] == 1.0


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("estimator", [space_ccf, time_acf, stfcf])
def test_cluster_index_below_one_raises_naming_it(estimator, index):
    # clusters are numbered from 1; 0 or -1 would wrap to the last cluster
    with pytest.raises(ValueError, match="cluster_index"):
        estimator(SimulationConfig(), cluster_index=index, ensemble=2, seed=1)


@pytest.mark.parametrize("index", [1.5, 2.0, True, "1"])
@pytest.mark.parametrize("estimator", [space_ccf, time_acf, stfcf])
def test_cluster_index_not_an_integer_raises_naming_it(estimator, index):
    # 1.5 and 2.0 used to fail slicing with a bare TypeError, "1" failed the
    # comparison with one, and True estimated cluster 1
    with pytest.raises(ValueError, match="cluster_index must be an integer"):
        estimator(SimulationConfig(), cluster_index=index, ensemble=2, seed=1)


def test_cluster_index_accepts_numpy_integers():
    cfg = SimulationConfig(num_beams=32)
    got = stfcf(cfg, spacing_rx=0.05, cluster_index=np.int64(2), ensemble=4, seed=3)
    assert got == stfcf(cfg, spacing_rx=0.05, cluster_index=2, ensemble=4, seed=3)


@pytest.mark.parametrize("name, value", [("ensemble", 10.7), ("ensemble", True),
                                         ("ensemble", "10"), ("seed", 3.9),
                                         ("seed", False), ("seed", np.float64(2.0))])
@pytest.mark.parametrize("estimator", [space_ccf, time_acf, fcf, stfcf])
def test_ensemble_and_seed_reject_non_integers_by_name(estimator, name, value):
    # these used to be truncated by int(): 10.7 ran 10 members, True ran 1
    kw = {"ensemble": 2, "seed": 1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        estimator(SimulationConfig(), **kw)


def test_ensemble_and_seed_take_numpy_integers_and_none():
    cfg = SimulationConfig(ensemble=3, seed=5)
    got = space_ccf(cfg, ensemble=np.int64(3), seed=np.int32(5))
    assert got.ensemble == 3
    assert np.array_equal(got.values, space_ccf(cfg).values)


def test_two_dimensional_lag_grid_raises_naming_the_axis():
    # used to fail with a bare TypeError (unhashable type) from _distinct
    with pytest.raises(ValueError, match="receive spacing lags must be one-dimensional"):
        space_ccf(SimulationConfig(), spacing_grid=np.array([[0.0, 0.05], [0.1, 0.2]]),
                  ensemble=2, seed=1)
    with pytest.raises(ValueError, match="time lags must be one-dimensional"):
        time_acf(SimulationConfig(), lag_grid=np.zeros((2, 2)), ensemble=2, seed=1)


@pytest.mark.parametrize("estimator", [space_ccf, time_acf, fcf, stfcf])
def test_negative_seed_raises_naming_it(estimator):
    # used to fail inside numpy with "expected non-negative integer"
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        estimator(SimulationConfig(), ensemble=2, seed=-1)


@pytest.mark.parametrize("seed, member, name", [(3, -1, "member"), (-1, 0, "seed"),
                                                (3, 1.0, "member")])
def test_member_channel_state_rejects_bad_keys_by_name(seed, member, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        statistics.member_channel_state(SimulationConfig(), seed, member, 1.0)


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 77]
# members 2^32 and up take two key words; one range mixes one and two
STREAM_MEMBERS = [range(0, 2), range(255, 257), range(2**32 - 1, 2**32 + 1),
                  range(2**40, 2**40 + 2)]
STREAM_PURPOSES = [getattr(statistics, name) for name in dir(statistics)
                   if name.startswith("_STREAM_")]


def _first_draws(rng):
    # the int32 draw takes half of a 64-bit output and buffers the other
    # half (has_uint32), which a state load must clear
    return (rng.uniform(), rng.exponential(), rng.vonmises(0.3, 2.0),
            int(rng.integers(0, 2**31 - 1, dtype=np.int32)), int(rng.poisson(7.5)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_states_equal_seed_sequence_bit_for_bit(seed):
    assert sorted(STREAM_PURPOSES) == sorted(statistics._PURPOSES)
    for members in STREAM_MEMBERS:
        streams = MemberStreams(seed, members, STREAM_PURPOSES)
        # each purpose's generator is reused: every member is loaded twice,
        # after draws from the other member
        for member in [*members, *members]:
            for purpose in STREAM_PURPOSES:
                got = streams.get(member, purpose)
                want = member_stream(seed, member, purpose)
                assert got.bit_generator.state == want.bit_generator.state
                assert _first_draws(got) == _first_draws(want)


def test_stream_generators_are_reused_per_purpose():
    streams = MemberStreams(5, range(3), statistics._PURPOSES)
    init = streams.get(0, statistics._STREAM_INIT)
    assert streams.get(2, statistics._STREAM_INIT) is init
    assert streams.get(2, statistics._STREAM_BUDGET) is not init


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
