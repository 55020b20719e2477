"""Correlation estimators: exactness, oracles, restriction identities."""
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, j0

from beamchan.bdcm import bdcm_matrix, beam_weights, center_los_doppler, draw_bdcm_phases
from beamchan.clusters import Cluster, EvolutionConfig, time_decay_rate
from beamchan.config import SimulationConfig, preset
from beamchan import geometry, statistics
from beamchan._held import HELD, STATES
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


def stack(count, clusters, budget, phase_free=False):
    """The arrays of ``clusters`` (``count`` per member) and their survival
    budgets, read field by field from the ``Cluster`` objects: the oracle
    of the estimators' row draw.  A phase-free chunk keeps the first five
    fields."""
    def first_step(chain):
        return chain[0] if chain is not None and chain.size else math.nan

    def column(read):
        return np.array([read(c) for c in clusters], dtype=float)

    state = dict(count=np.array(count, dtype=np.intp),
                 power=column(lambda c: c.power), delay=column(lambda c: c.delay),
                 budget=np.array(budget, dtype=float),
                 first=np.array([c.index == 1 for c in clusters], dtype=bool))
    if not phase_free:
        state.update(semi_major=column(lambda c: c.semi_major),
                     tx_step=column(lambda c: first_step(c.tx_chain)),
                     rx_step=column(lambda c: first_step(c.rx_chain)),
                     mean_aoa=column(lambda c: c.mean_aoa),
                     rays=np.stack([c.ray_aoas for c in clusters]) if clusters else None)
    return statistics._Picked(**state)


def assert_same_state(got, want):
    """Every field of two ``_Picked`` the same bytes, or both None."""
    for name, g, w in zip(want._fields, got, want):
        if w is None:
            assert g is None, name
        else:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), name


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
    # True used to read antenna 1, 1.5 to raise IndexError, "1" TypeError
    (True, 1, "receive", True), (1.5, 1, "receive", 1.5), (1, "1", "transmit", "1"),
    # a non-finite frequency (given as ``index``) used to return nan
    (1, 1, "freq", math.nan), (1, 1, "freq", math.inf),
])
def test_transfer_rejects_antennas_outside_the_array(k, l, side, index):
    # index 0 used to wrap to the last antenna, num + 1 raised IndexError
    cfg = frozen_config(array=ArrayConfig(num_tx=2, num_rx=3,
                                          spacing_tx=0.06, spacing_rx=0.06))
    rng = np.random.default_rng(2)
    real = gbsm_matrix(0.0, initial_clusters(cfg, rng), cfg, rng=rng)
    freq = 0.0
    if side == "freq":
        freq, want = index, f"freq must be a finite number, got {index!r}"
    elif type(index) is int:
        want = f"{side} antenna index {index} out of range"
    else:
        want = f"{side} antenna index must be an integer, got {index!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        real.transfer(k, l, freq)


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


# a BDCM estimate over every cluster of a member, at a non-zero lag: the
# call-count tests' workload
ALL_CLUSTERS = dict(model="bdcm", cluster_index=None, spacing_rx=0.06)


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_bdcm_tables_built_once_per_slot_per_process(monkeypatch, kfac):
    calls = _recording(monkeypatch, "antenna_distances")
    # the direct path reads the last beam's grids: K > 0 adds no kernel call
    cfg = SimulationConfig(rician_k=kfac)
    ensemble, seed = 300, 47
    first = stfcf(cfg, **ALL_CLUSTERS, ensemble=ensemble, seed=seed)
    assert ensemble > statistics._CHUNK
    slots = {c.slot for m in range(ensemble) for c in full_member_state(cfg, seed, m, 1.0)}
    # one table is one transmit and one receive distance grid, over all chunks
    assert 0 < len(calls) <= 2 * len(slots)
    calls.clear()
    again = stfcf(cfg, **ALL_CLUSTERS, ensemble=ensemble, seed=seed)
    assert calls == [] and again == first
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
    kw = dict(ALL_CLUSTERS, ensemble=20, seed=8)
    table_bytes = 16 * cfg.num_beams  # one lag column of complex entries per beam
    monkeypatch.setattr(HELD, "budget", 3 * table_bytes)
    calls = _recording(monkeypatch, "antenna_distances")
    first = stfcf(cfg, **kw)
    slots = len(calls) // 2
    assert slots == len({c.slot for m in range(20) for c in full_member_state(cfg, 8, m, 1.0)})
    assert slots > 3 and len(HELD._entries) == 3
    calls.clear()
    again = stfcf(cfg, **kw)
    assert len(calls) == 2 * (slots - 3)
    assert again == first


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_slot_table_key_covers_what_the_tables_read(kfac):
    # a table held for one call serves another only where the other would
    # build the same bytes: each input the tables read changes the key, and
    # the inputs they do not read leave it alone
    base = SimulationConfig(array=ArrayConfig(num_tx=4, num_rx=6), num_beams=16,
                            rician_k=kfac)
    lags = (0.05, [0.0, 0.1, 0.1], 0.0, [0.0, 0.0, 0.02])

    def held_tables(cfg, t=1.0, lags=lags):
        ctx = statistics._LagContext(cfg, "bdcm", t, *statistics._broadcast_lags(*lags),
                                     cluster_index=1, seed=0)
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
    assert sum(args[1].count.size for args in blocks) == ensemble
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
    stfcf(cfg, **ALL_CLUSTERS, ensemble=ensemble, seed=seed)
    assert len(weights) == len(blocks)
    picked = [args[1].power.size for args in blocks]
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
                                 *statistics._broadcast_lags(lag_tx, lag_rx, 0.0, 0.0),
                                 cluster_index=1, seed=0)
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


KERNEL_LAGS = {
    "receive-sweep": (0.0, np.linspace(0.0, 0.18, 31), 0.0, 0.0),
    "transmit-sweep": (np.linspace(0.0, 0.18, 31), 0.0, 0.0, 0.0),
    "mixed": ([0.0, 0.03, 0.0, 0.11, 0.03], [0.0, 0.0, 0.07, 0.02, 0.07], 1e6,
              [0.0, 0.01, 0.02, 0.0, 0.01]),
}


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
@pytest.mark.parametrize("lags", list(KERNEL_LAGS), ids=list(KERNEL_LAGS))
def test_tables_equal_a_per_offset_kernel(model, mode, lags):
    # the distance kernel runs over each side's distinct offsets and is
    # scattered back; the tables and direct-path rows are the bytes of a
    # kernel over every offset
    arr = ArrayConfig(num_tx=8, num_rx=6, spacing_tx=0.05, spacing_rx=0.08,
                      tilt_tx=0.7, tilt_rx=1.9)
    cfg = SimulationConfig(array=arr, num_beams=64, rician_k=3.0, estimator_mode=mode)
    ctx = statistics._LagContext(cfg, model, 1.0, *statistics._broadcast_lags(*KERNEL_LAGS[lags]),
                                 cluster_index=1, seed=0)
    if lags == "receive-sweep":
        assert ctx.kernel_tx[0].size == 1 and ctx.off_tx.size == 62
    occ = full_member_state(cfg, 3, 0, 1.0)[0]
    ang = occ.ray_aoas if model == "gbsm" else ctx.grid.aoa
    args = (ang, np.full(ang.size, occ.semi_major), ctx.direct_beam if model == "bdcm" else None)
    got = ctx.tables(*args)
    ctx.kernel_tx = (ctx.off_tx, np.arange(ctx.off_tx.size))
    ctx.kernel_rx = (ctx.off_rx, np.arange(ctx.off_rx.size))
    want = ctx.tables(*args)
    doppler, tables, rows = got
    assert doppler.tobytes() == want[0].tobytes()
    for g, w in zip((*tables, *(rows or ())), (*want[1], *(want[2] or ()))):
        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())
    assert (rows is None) == (model == "gbsm")


class PathEllipses(NamedTuple):
    """One ellipse per path, read elementwise by the geometry functions."""

    semi_major: np.ndarray
    focal_half: float


def path_major_distances(center, angles, tilt, offsets):
    """The distance kernel in its former (paths, offsets) layout."""
    c = np.asarray(center, dtype=float).reshape(-1, 1)
    ca = np.cos(np.asarray(angles, dtype=float) - tilt).reshape(-1, 1)
    o = np.asarray(offsets, dtype=float)
    return np.sqrt(c * c + o * o - 2.0 * c * o * ca)


def column_major_tables(ctx, ang, semi_major, direct=None):
    """``_LagContext.tables`` as it was built in (paths, columns) order, three
    cosines per path and one complex temporary per table: the oracle of
    the lag-major, in-place tables."""
    cfg = ctx.config
    ell = PathEllipses(semi_major, cfg.ellipse.focal_half)
    d_rx = rx_focal_distance(ang, ell)
    d_tx = 2.0 * semi_major - d_rx

    def halves(values):
        half = values.shape[-1] // 2
        return values[..., :half], values[..., half:]

    def columns(values):
        return values[..., ctx.col_space]

    (off_tx, back_tx), (off_rx, back_rx) = ctx.kernel_tx, ctx.kernel_rx
    tx_x, tx_y = halves(path_major_distances(d_tx, aod_from_aoa(ang, ell),
                                             cfg.array.tilt_tx, off_tx)[:, back_tx])
    rx_x, rx_y = halves(path_major_distances(d_rx, ang, cfg.array.tilt_rx, off_rx)[:, back_rx])
    doppler = ray_doppler(ang, cfg.max_doppler, cfg.velocity_angle)
    lag_phase = (TWO_PI * doppler[:, None] * ctx.lag_time[None, :])[:, ctx.col_lag]
    rows = None if direct is None else ctx._direct_row(
        columns(tx_x[direct] + rx_x[direct]), columns(tx_y[direct] + rx_y[direct]),
        ctx.center_doppler, ctx.center_doppler)
    if ctx.sampled:
        return doppler, (columns(np.exp(1j * ctx.wn * (tx_x + rx_x))),
                         np.exp(1j * (ctx.wn * columns(tx_y + rx_y) + lag_phase))), rows
    dphase = ctx.wn * columns((tx_x - tx_y) + (rx_x - rx_y)) - lag_phase
    return doppler, (np.exp(1j * dphase),), rows


# KERNEL_LAGS and one lag point, whose tables have a single column
ORACLE_LAGS = dict(KERNEL_LAGS, point=(0.0, 0.06, 0.0, 0.01))


@pytest.mark.parametrize("paths", [20, 1], ids=["paths", "one-path"])
@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("mode", ["analytic", "sampled"])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
@pytest.mark.parametrize("lags", list(ORACLE_LAGS), ids=list(ORACLE_LAGS))
def test_tables_equal_the_column_major_oracle(model, mode, kfac, lags, paths):
    # same bytes, shapes and strides: the ray sums and slot products read
    # the strides, so equal strides keep every estimate's bytes; one path
    # (one ray of one cluster, or one beam) makes the tables C-ordered too
    arr = ArrayConfig(num_tx=8, num_rx=6, spacing_tx=0.05, spacing_rx=0.08,
                      tilt_tx=0.7, tilt_rx=1.9)
    cfg = SimulationConfig(array=arr, num_beams=64 if paths > 1 else 1, rays_per_cluster=paths,
                           rician_k=kfac, estimator_mode=mode)
    ctx = statistics._LagContext(cfg, model, 1.0, *statistics._broadcast_lags(*ORACLE_LAGS[lags]),
                                 cluster_index=None, seed=0)
    assert (ctx.width == 1) == (lags == "point")
    clusters = full_member_state(cfg, 3, 0, 1.0)
    if model == "gbsm":
        # a block's rays, each with its own cluster's ellipse
        clusters = clusters[:1] if paths == 1 else clusters
        ang = np.concatenate([c.ray_aoas for c in clusters])
        args = (ang, np.repeat([c.semi_major for c in clusters], cfg.rays_per_cluster))
    else:
        args = (ctx.grid.aoa, np.float64(clusters[-1].semi_major), ctx.direct_beam)
    got, want = ctx.tables(*args), column_major_tables(ctx, *args)
    assert got[0].tobytes() == want[0].tobytes()
    assert len(got[1]) == len(want[1]) == 1 + ctx.sampled
    assert (got[2] is None) == (want[2] is None) == (model == "gbsm" or kfac == 0)
    for g, w in zip((*got[1], *(got[2] or ())), (*want[1], *(want[2] or ()))):
        assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes())
    if model == "gbsm" and kfac > 0:
        dist, doppler = los_doppler_from_offsets(ctx.off_tx, ctx.off_rx, cfg.ellipse,
                                                 arr.tilt_tx, arr.tilt_rx, cfg.max_doppler,
                                                 cfg.velocity_angle)
        half = ctx.off_tx.size // 2
        want_rows = ctx._direct_row(*(v[None][..., ctx.col_space] for v in
                                      (dist[:half], dist[half:], doppler[:half], doppler[half:])))
        for g, w in zip(ctx.direct_rows, want_rows):
            assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes())


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
    ctx = statistics._LagContext(cfg, model, t, *statistics._broadcast_lags(0.0, d, 0.0, dL),
                                 cluster_index=1, seed=0)
    semi = cfg.ellipse.semi_major + slot * SPEED_OF_LIGHT * cfg.delay_spacing / 2.0
    occ = Cluster(index=1, uid=1, slot=slot, semi_major=semi,
                  delay=2.0 * semi / SPEED_OF_LIGHT, power=0.0,
                  mean_aoa=cfg.mean_aoa, ray_aoas=np.array([0.3, -1.1]),
                  visible_tx=range(1, 2), visible_rx=range(1, 3),
                  rx_chain=np.array([10.0]))
    k_eff = 3.0 / 4.0
    # survival budgets far above the lag hazards keep both gates open
    v, a, b = statistics._block_terms(ctx, stack([1], [occ], [10.0]))
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

    def __init__(self, config, model, t, *lags, **plan):
        super().__init__(config, model, t, *lags, **plan)
        tx, rx = (np.array([0.0] * self.width) for _ in range(2))
        for lag_tx, lag_rx, col in zip(self.dT, self.dR, self.column):
            tx[col], rx[col] = lag_tx, lag_rx
        arr = config.array
        self.off_tx = statistics._side_offsets(arr.num_tx, arr.spacing_tx, tx)
        self.off_rx = statistics._side_offsets(arr.num_rx, arr.spacing_rx, rx)
        self.slot_cache = {}
        if model == "bdcm":
            # a phase-free plan builds no beam geometry; the oracle reads it
            angles = virtual_angles(config.num_beams)
            self.grid = geometry.VirtualAngleGrid(num_beams=config.num_beams, aoa=angles,
                                                  aod=aod_from_aoa(angles, config.ellipse))
            self.center_doppler = center_los_doppler(config)

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
        tx_x, tx_y = (h.T for h in split(antenna_distances(d_tx, aod, cfg.array.tilt_tx,
                                                            self.off_tx)))
        rx_x, rx_y = (h.T for h in split(antenna_distances(d_rx, ang, cfg.array.tilt_rx,
                                                            self.off_rx)))
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


def per_cluster_accumulate(plan, start, stop):
    """Drop-in for ``statistics._accumulate``, one member at a time."""
    config, t, seed = plan.config, plan.t, plan.seed
    ctx = PerClusterContext(config, plan.model, t, plan.dT, plan.dR, plan.dW, plan.dL,
                            cluster_index=plan.cluster_index, seed=seed)
    per_realization = config.normalization == "per_realization"
    dtypes = (complex, float, np.int64) if per_realization else (complex, float, float, float)
    sums = [np.zeros(ctx.length, dtype=dtype) for dtype in dtypes]
    for member in range(start, stop):
        clusters = full_member_state(config, seed, member, t)
        budgets = member_stream(seed, member, statistics._STREAM_BUDGET).exponential(
            size=max(len(clusters), 1))
        phase_rng = member_stream(seed, member, statistics._STREAM_PHASE)
        v, a, b = per_cluster_terms(ctx, clusters, budgets, ctx.cluster_index, phase_rng)
        ok = (a * b) > 0
        r = np.where(ok, v / np.sqrt(np.where(ok, a * b, 1.0)), 0.0)
        terms = (r, np.abs(r) ** 2, ok) if per_realization else (v, np.abs(v) ** 2, a, b)
        for total, term in zip(sums, terms):
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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(), (1,), (25,)], ids=["1d", "one-lag", "25-lags"])
def test_by_member_matches_add_at(dtype, shape):
    # the oracle scatters one row at a time in row order; members 0, 3 and
    # the last have no rows, and one member has more rows than any other
    rng = np.random.default_rng(8)
    counts = rng.integers(1, 30, 12)
    counts[[0, 3, 11]] = 0
    counts[5] = 41
    member = np.repeat(np.arange(12), counts)
    rows = rng.standard_normal((member.size, *shape))
    if dtype is complex:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    want = np.zeros((12, *shape), dtype=dtype)
    np.add.at(want, member, rows)
    got = statistics._by_member(member, rows, 12)
    assert got.dtype == want.dtype and got.shape == want.shape
    # each member's rows are added in row order, so the bytes are the oracle's
    assert np.array_equal(got, want)
    assert not np.any(got[[0, 3, 11]])


def _budget_estimates(cfg, model):
    """Values and std errors of an analytic space CCF and time ACF of
    cluster 1, a sampled per-realization time ACF, and an all-cluster
    stfcf with every lag axis swept; two chunks of members each."""
    kw = dict(model=model, t=1.0, ensemble=300, seed=29)
    sampled = cfg.with_values(estimator_mode="sampled", normalization="per_realization")
    series = [space_ccf(cfg, **kw), time_acf(cfg, **kw), time_acf(sampled, **kw)]
    joint = stfcf(cfg, spacing_tx=0.03, spacing_rx=0.05, freq_lag=2e6, time_lag=0.01,
                  cluster_index=None, **kw)
    return [a for s in series for a in (s.values, s.std_error)] + [np.array([joint])]


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_estimates_do_not_depend_on_the_block_budget(monkeypatch, model):
    # a chunk keeps its members' rows and sums them once, so where its
    # blocks close moves no GBSM byte.  BDCM runs one GEMM per delay slot
    # over the block's clusters of that slot, and the row count can change
    # the BLAS kernel's rounding: these cases keep their bytes on OpenBLAS
    # 0.3.31, but a 400-beam sampled time ACF moved by 1.6e-16 between the
    # default budget and one block per chunk, so BDCM is held to 1e-15, not
    # to its bytes
    cfg = SimulationConfig(rician_k=3.0, num_beams=64)
    block_terms = statistics._block_terms
    runs = []
    for budget in (3000, 1 << 14, statistics._BLOCK_ELEMENTS, 1 << 40):
        blocks = []

        def counted(*args):
            blocks.append(1)
            return block_terms(*args)

        monkeypatch.setattr(statistics, "_BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(statistics, "_block_terms", counted)
        estimates = _budget_estimates(cfg, model)
        runs.append((len(blocks), estimates))
    counts = [count for count, _ in runs]
    # one block per chunk and estimate at the largest budget
    assert counts[0] > counts[1] > counts[2] > counts[3] == 4 * 2
    want = runs[-1][1]
    for _, got in runs:
        for g, w in zip(got, want):
            if model == "gbsm":
                assert np.array_equal(g, w)
            else:
                assert np.max(np.abs(g - w)) <= 1e-15


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

def full_draw_state(draws, streams, member, t, cluster_index, rows, positions_only):
    """Drop-in for ``statistics._member_state`` that draws every cluster of
    the member's history as ``Cluster`` objects, picks afterwards and
    appends every field of the picked clusters (all nine, also for a
    phase-free call) to ``rows``."""
    clusters = full_member_state(draws.config, streams.seed, member, t)
    lo, hi = (0, len(clusters)) if cluster_index is None else (cluster_index - 1, cluster_index)
    budgets = member_stream(streams.seed, member, statistics._STREAM_BUDGET).exponential(
        size=max(len(clusters), 1))
    picked = clusters[lo:hi]
    if picked:
        rows.extend(zip(*stack([len(picked)], picked, budgets[lo:hi])[1:]))
    return len(picked)


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


ROW_CASES = TRUNCATION_CASES + [
    pytest.param(cfg, t, id=f"{name}-t{t:g}")
    for name, cfg in (("kappa0", SimulationConfig(num_beams=32, kappa=0.0)),
                      ("one-tx", SimulationConfig(array=ArrayConfig(num_tx=1, num_rx=4),
                                                  num_beams=32)))
    for t in (0.0, 1.0, 40.0)]


@pytest.mark.parametrize("cfg, t", ROW_CASES)
def test_truncated_state_equals_full_draw(cfg, t):
    # every field of the row draw, bit for bit, against the full draw
    # (initial_clusters, then evolve_time) stacked field by field; a
    # phase-free draw places its initial clusters and still draws newborns
    draws = statistics.ClusterDraws(cfg)
    streams = MemberStreams(8, range(60), statistics._PURPOSES)
    past = _past_some_counts(cfg, 8, 60, t)
    newborns = {False: 0, True: 0}
    for member in range(60):
        full = full_member_state(cfg, 8, member, t)
        budgets = member_stream(8, member, statistics._STREAM_BUDGET).exponential(size=len(full))
        initial = draws.count(member_stream(8, member, statistics._STREAM_INIT))
        for index in (1, 2, None, past):
            lo, hi = (0, len(full)) if index is None else (index - 1, index)
            for phase_free in (False, True):
                rows = []
                count = statistics._member_state(draws, streams, member, t, index, rows,
                                                 phase_free)
                want = stack([len(full[lo:hi])], full[lo:hi], budgets[lo:hi], phase_free)
                assert_same_state(statistics._Picked.of_rows([count], rows, phase_free), want)
                newborns[phase_free] += sum(c.uid > initial for c in full[lo:hi])
    assert all((n > 0) == draws.evolves(t) for n in newborns.values())


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
            # held states would serve the oracle the truncated draws
            STATES.clear()
            with monkeypatch.context() as m:
                m.setattr(statistics, "_member_state", full_draw_state)
                want = _estimates(cfg, model, t, index)
            STATES.clear()
            for (v, e), (v_want, e_want) in zip(got, want):
                assert np.array_equal(v, v_want) and np.array_equal(e, e_want)


# ------------------------------------------------------ held cluster states

@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("mode", ["analytic", "sampled", "per_realization"])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_other_estimates_of_a_seed_draw_nothing_and_keep_the_bytes(monkeypatch, model,
                                                                  mode, kfac):
    # the cold reference holds nothing, so each of its calls draws its own
    # states; after the other model's estimates every chunk is held
    kw = dict(rician_k=kfac, num_beams=32,
              estimator_mode="analytic" if mode == "analytic" else "sampled",
              normalization="per_realization" if mode == "per_realization" else "standard")
    other = {"gbsm": "bdcm", "bdcm": "gbsm"}[model]
    states = _recording(monkeypatch, "_member_state")
    for base, t in (case.values for case in TRUNCATION_CASES):
        cfg = base.with_values(**kw)
        for index in (1, 2, None, _past_some_counts(cfg, 31, 20, t)):
            STATES.clear()
            with monkeypatch.context() as m:
                m.setattr(STATES, "budget", 0)
                cold = _estimates(cfg, model, t, index)
            assert len(STATES._entries) == 0
            _estimates(cfg, other, t, index)
            states.clear()
            warm = _estimates(cfg, model, t, index)
            assert states == []
            for (v, e), (v_want, e_want) in zip(warm, cold):
                assert np.array_equal(v, v_want) and np.array_equal(e, e_want)


def test_a_repeated_estimate_draws_again(monkeypatch):
    # an estimate reads only states another estimate drew, so a repeated
    # sequence of calls draws what its first run drew, and the same bytes
    cfg = SimulationConfig(num_beams=16, rician_k=3.0)
    calls = [lambda m=m, d=d: stfcf(cfg, model=m, spacing_rx=d, cluster_index=None,
                                    ensemble=40, seed=8)
             for m in ("gbsm", "bdcm") for d in (0.05, 0.1)]
    states = _recording(monkeypatch, "_member_state")
    runs = []
    for _ in range(3):
        states.clear()
        runs.append([call() for call in calls])
        assert len(states) == 40
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_an_estimate_plans_once_for_all_its_chunks(monkeypatch, model):
    # a serial call over three chunks builds one lag context and hands
    # that one to each chunk
    monkeypatch.delenv("BEAMCHAN_WORKERS", raising=False)
    plans = _recording(monkeypatch, "_LagContext")
    chunks = _recording(monkeypatch, "_accumulate")
    ensemble = 2 * statistics._CHUNK + 10
    time_acf(SimulationConfig(num_beams=16, rician_k=3.0), model=model,
             ensemble=ensemble, seed=4)
    assert len(plans) == 1
    assert [(start, stop) for _, start, stop in chunks] == [
        (0, statistics._CHUNK), (statistics._CHUNK, 2 * statistics._CHUNK),
        (2 * statistics._CHUNK, ensemble)]
    assert len({id(ctx) for ctx, _, _ in chunks}) == 1


@pytest.mark.parametrize("mode", ["analytic", "sampled"])
def test_gbsm_then_bdcm_on_one_seed_draws_once(monkeypatch, mode):
    # the state streams are model independent, so the BDCM call reads the
    # states the GBSM call drew; a sampled call still draws its own phases
    cfg = SimulationConfig(estimator_mode=mode, rician_k=3.0, num_beams=64)
    kw = dict(cluster_index=None, ensemble=300, seed=17, t=2.0)
    STATES.clear()
    cold = space_ccf(cfg, model="bdcm", **kw)
    STATES.clear()
    states = _recording(monkeypatch, "_member_state")
    space_ccf(cfg, model="gbsm", **kw)
    assert len(states) == 300
    warm = space_ccf(cfg, model="bdcm", **kw)
    assert len(states) == 300
    assert np.array_equal(warm.values, cold.values)
    assert np.array_equal(warm.std_error, cold.std_error)


def _changed_field(cfg, name):
    """``cfg`` with the field ``name`` changed to another valid value."""
    value = getattr(cfg, name)
    other = {"array": replace(cfg.array, num_rx=cfg.array.num_rx + 1),
             "ellipse": replace(cfg.ellipse, semi_major=cfg.ellipse.semi_major + 10.0),
             "evolution": replace(cfg.evolution, death_rate=cfg.evolution.death_rate / 2.0),
             "time_samples": cfg.time_samples + (2.0,),
             "mean_clusters": 12.0,
             "estimator_mode": "analytic",
             "normalization": "per_realization",
             "beam_weighting": "uniform"}.get(name)
    if other is None:
        other = value + 1 if isinstance(value, int) else (1.5 * value if value else 0.5)
    return replace(cfg, **{name: other})


STATE_KEY_CHANGES = ([pytest.param("config", f.name, id=f.name) for f in fields(SimulationConfig)]
                     + [pytest.param("call", name, id=name) for name in
                        ("none", "seed", "t", "cluster_index", "last_chunk", "phase_free")])


@pytest.mark.parametrize("where, name", STATE_KEY_CHANGES)
def test_state_key_covers_its_inputs(monkeypatch, where, name):
    # a held chunk serves another estimate only where that estimate would
    # draw the same states: changing any part of the key draws afresh.  The
    # whole config is in the key, including fields the draw does not read
    cfg = SimulationConfig(array=ArrayConfig(num_tx=4, num_rx=4), num_beams=16,
                           estimator_mode="sampled")
    ensemble = statistics._CHUNK + 20
    base = dict(spacing_rx=0.06, freq_lag=1e6, cluster_index=1, t=1.0,
                ensemble=ensemble, seed=3)
    changes = {"none": {}, "seed": dict(seed=4), "t": dict(t=2.0),
               "cluster_index": dict(cluster_index=2),
               "last_chunk": dict(ensemble=ensemble - 5),
               "phase_free": dict(spacing_rx=0.0)}
    if where == "config":
        other, kw = _changed_field(cfg, name), base
    else:
        other, kw = cfg, dict(base, **changes[name])
    if name == "phase_free":
        # only an analytic call with no spacing or time lag is phase-free
        cfg = other = cfg.with_values(estimator_mode="analytic")
    states = _recording(monkeypatch, "_member_state")
    want = stfcf(other, model="gbsm", **kw)
    states.clear()
    STATES.clear()
    # the other model, so that the GBSM call below is another estimate
    stfcf(cfg, model="bdcm", **base)
    assert len(states) == ensemble
    states.clear()
    got = stfcf(other, model="gbsm", **kw)
    # a shorter ensemble shares the first chunk and draws its last afresh
    drawn = {"none": 0, "last_chunk": 15}.get(name, kw["ensemble"])
    assert len(states) == drawn
    assert got == want


def test_a_new_seed_empties_the_store(monkeypatch):
    cfg = SimulationConfig(num_beams=16)
    kw = dict(model="bdcm", cluster_index=None, ensemble=40)
    space_ccf(cfg, seed=3, **kw)
    time_acf(cfg, seed=3, **kw)
    held = set(STATES._entries)
    assert held and all(key[1] == 3 for key in held)
    space_ccf(cfg, seed=4, **kw)
    assert set(STATES._entries).isdisjoint(held)
    assert all(key[1] == 4 for key in STATES._entries)
    states = _recording(monkeypatch, "_member_state")
    space_ccf(cfg, seed=3, **kw)
    assert len(states) == 40


def test_a_chunk_beyond_the_budget_is_drawn_but_not_held(monkeypatch):
    # cluster 1 of 256 members at 4,096 rays: the rays alone fill 8 MiB
    cfg = SimulationConfig(rays_per_cluster=4096, num_beams=16)
    kw = dict(model="bdcm", ensemble=statistics._CHUNK, seed=2)
    states = _recording(monkeypatch, "_member_state")
    first = space_ccf(cfg, spacing_grid=[0.0, 0.06], **kw)
    assert len(states) == statistics._CHUNK
    assert STATES._entries == {} and STATES._bytes == 0
    # another estimate of the chunk finds nothing held
    time_acf(cfg, lag_grid=[0.0, 0.01], **kw)
    assert len(states) == 2 * statistics._CHUNK
    again = space_ccf(cfg, spacing_grid=[0.0, 0.06], **kw)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.std_error, again.std_error)


def test_a_call_beyond_the_budget_reads_its_held_chunks_first(monkeypatch):
    # four chunks under a budget of three: the GBSM call leaves chunks 1
    # to 3 held, and the BDCM call reads them before it draws chunk 0 (in
    # chunk order, drawing chunk 0 would evict chunk 1 before its turn,
    # and so on down the call)
    cfg = SimulationConfig(num_beams=16)
    kw = dict(spacing_grid=[0.0, 0.06], ensemble=4 * statistics._CHUNK, seed=12)
    cold = space_ccf(cfg, model="bdcm", **kw)
    sizes = [size for _, size, _ in STATES._entries.values()]
    assert len(sizes) == 4
    STATES.clear()
    monkeypatch.setattr(STATES, "budget", sum(sizes[1:]))
    states = _recording(monkeypatch, "_member_state")
    space_ccf(cfg, model="gbsm", **kw)
    assert [key[2] for key in STATES._entries] == [256, 512, 768]
    states.clear()
    warm = space_ccf(cfg, model="bdcm", **kw)
    assert sorted(args[2] for args in states) == list(range(statistics._CHUNK))
    assert np.array_equal(warm.values, cold.values)
    assert np.array_equal(warm.std_error, cold.std_error)


def test_threads_share_the_states_safely(monkeypatch):
    # four threads with a short switch interval on two seeds and two models
    # and a budget of about two chunks, so states are looked up, drawn,
    # evicted and the store emptied for a new seed concurrently
    cfg = SimulationConfig(num_beams=16)
    kw = dict(cluster_index=None, spacing_grid=[0.0, 0.06], ensemble=30)
    cases = [(seed, model) for seed in (3, 4) for model in ("gbsm", "bdcm")]
    want = {}
    for seed, model in cases:
        STATES.clear()
        want[seed, model] = space_ccf(cfg, seed=seed, model=model, **kw).values.tobytes()
    monkeypatch.setattr(STATES, "budget", 2 * STATES._bytes)
    STATES.clear()
    wrong, errors = [], []

    def run(offset):
        try:
            for k in range(30):
                seed, model = cases[(offset + k // 3) % 4]
                got = space_ccf(cfg, seed=seed, model=model, **kw).values.tobytes()
                if got != want[seed, model]:
                    wrong.append(offset)
        except Exception as exc:  # reported below, the thread must not die silently
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []
    sizes = [size for _, size, _ in STATES._entries.values()]
    assert STATES._bytes == sum(sizes) <= STATES.budget


def test_held_states_are_read_only():
    space_ccf(SimulationConfig(num_beams=16), model="gbsm", cluster_index=None,
              ensemble=30, seed=6)
    (state, size, _), = STATES._entries.values()
    assert size == sum(a.nbytes for a in state if a is not None) > 0
    for a in state:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def _member_builds(cfg, model, times, ensemble):
    """Per member: the position of cluster 1 and one realization per time,
    from the member's clusters at ``times[0]`` and one phase draw."""
    build = gbsm_matrix if model == "gbsm" else bdcm_matrix
    for member in range(ensemble):
        clusters, rng = statistics.member_channel_state(cfg, cfg.seed, member, times[0])
        phases = (draw_gbsm_phases(clusters, rng) if model == "gbsm"
                  else draw_bdcm_phases(clusters, cfg, rng))
        yield ([c.index for c in clusters].index(1),
               [build(t, clusters, cfg, phases=phases) for t in times])


def _empirical_correlation(pairs):
    x, y = np.array(pairs).T
    return np.mean(x * y.conj()) / math.sqrt(np.mean(np.abs(x) ** 2) * np.mean(np.abs(y) ** 2))


@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_builders_realize_the_estimated_space_correlation(model):
    # the empirical correlation of builder realizations, each member's
    # clusters and phases taken from the member's own streams, equals the
    # estimate over the same members up to rounding, on every lag axis:
    # receive and transmit spacing (cluster 1), frequency (all clusters,
    # at antenna pair (1, 1), which no array newborn reaches) and time
    # (cluster 1 at pair (1, 1), built at t and t + lag from the same
    # phases; clusters frozen in time, since a build cannot kill one during
    # the lag).  Spacing only at d = the configured spacing: the estimator
    # respaces the array for any other lag, which no built array shows.
    # Only at K = 0: with a direct path the builders draw its phase after
    # every cluster's, the estimators right after cluster 1's.
    ensemble, t, df, lag = 300, 1.0, 2e6, 0.01
    for tilt in (math.pi / 2, 0.7):
        arr = ArrayConfig(num_tx=4, num_rx=4, tilt_tx=tilt, tilt_rx=tilt)
        cfg = SimulationConfig(array=arr, num_beams=64, estimator_mode="sampled", seed=11,
                               rician_k=0.0)
        frozen = cfg.with_values(evolution=EvolutionConfig(ms_speed=0.0))
        rx, tx, freq, time = [], [], [], []
        for first, (real,) in _member_builds(cfg, model, (t,), ensemble):
            rx.append(real.coeffs[:2, 0, first])
            tx.append(real.coeffs[0, :2, first])
            freq.append((real.transfer(1, 1, 0.0), real.transfer(1, 1, df)))
        for first, (now, later) in _member_builds(frozen, model, (t, t + lag), ensemble):
            time.append((now.coeffs[0, 0, first], later.coeffs[0, 0, first]))
        kw = dict(model=model, t=t, ensemble=ensemble, seed=cfg.seed)
        estimates = {
            "receive": (rx, space_ccf(cfg, spacing_grid=[0.0, arr.spacing_rx], **kw).values[1]),
            "transmit": (tx, stfcf(cfg, spacing_tx=arr.spacing_tx, **kw)),
            "frequency": (freq, fcf(cfg, freq_lag_grid=[0.0, df], **kw).values[1]),
            "time": (time, time_acf(frozen, lag_grid=[0.0, lag], **kw).values[1]),
        }
        for axis, (pairs, estimate) in estimates.items():
            assert abs(_empirical_correlation(pairs) - estimate) < 1e-10, (tilt, axis)


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


# ------------------------------------------------------ phase-free estimates

def _frequency_only(cfg, model):
    """Values and std errors of an fcf, then a frequency-only stfcf of
    cluster 1 and of all clusters, over two chunks of members."""
    kw = dict(model=model, t=1.0, ensemble=300, seed=19)
    series = fcf(cfg, freq_lag_grid=np.linspace(0.0, 8e6, 17), **kw)
    return [series.values, series.std_error,
            np.array([stfcf(cfg, freq_lag=3e6, cluster_index=index, **kw)
                      for index in (1, None)])]


@pytest.mark.parametrize("kappa", [0.0, 5.0])
@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("model", ["gbsm", "bdcm"])
def test_phase_free_path_matches_the_full_tables(monkeypatch, model, kfac, kappa):
    # at zero spacing and time lag every ray or beam phasor is 1, so the
    # estimate reads only gates, powers and delays; with that condition
    # switched off the same members go through the full tables and the
    # placed initial clusters are drawn in full
    cfg = preset("fig5").with_values(rician_k=kfac, kappa=kappa)
    lags = statistics._broadcast_lags(0.0, 0.0, [0.0, 3e6], 0.0)
    assert statistics._LagContext(cfg, model, 1.0, *lags, cluster_index=1, seed=0).phase_free
    got = _frequency_only(cfg, model)
    monkeypatch.setattr(statistics, "_phase_free", lambda *args: False)
    assert not statistics._LagContext(cfg, model, 1.0, *lags, cluster_index=1,
                                      seed=0).phase_free
    want = _frequency_only(cfg, model)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-15


@pytest.mark.parametrize("model, kfac", [
    pytest.param(model, kfac, id=model + ("-k3" if kfac else ""))
    for kfac in (0.0, 3.0) for model in ("gbsm", "bdcm")])
def test_phase_free_fcf_draws_no_rays_and_no_beam_weights(monkeypatch, model, kfac):
    # without evolution there are no newborns, so an fcf draws nothing
    # after each member's count; a spacing lag needs the rays and weights,
    # and with K > 0 the GBSM direct-path rows.  Rays are drawn only in the
    # one per-cluster draw, so it counts them
    from beamchan import clusters
    rays = []
    new_cluster = clusters._new_cluster

    def counted(*args):
        rays.append(1)
        return new_cluster(*args)

    monkeypatch.setattr(clusters, "_new_cluster", counted)
    weights = _recording(monkeypatch, "beam_weights")
    direct = _recording(monkeypatch, "los_doppler_from_offsets")
    cfg = frozen_config(rician_k=kfac)
    fcf(cfg, model=model, ensemble=50, seed=7)
    assert len(rays) == 0 and len(weights) == 0 and len(direct) == 0
    stfcf(cfg, model=model, spacing_rx=0.06, freq_lag=1e6, cluster_index=None,
          ensemble=50, seed=7)
    assert len(rays) >= 50 and (len(weights) > 0) == (model == "bdcm")
    assert (len(direct) > 0) == (model == "gbsm" and kfac > 0)


def test_a_phase_free_chunk_holds_only_what_its_estimate_reads(monkeypatch):
    # a phase-free estimate reads each cluster's count, power, delay, budget
    # and position-1 flag; the chunk holds nothing else, and the estimate is
    # the bytes of one whose chunks hold every field of the full draw
    cfg = preset("fig5")
    kw = dict(freq_lag_grid=np.linspace(0.0, 8e6, 17), ensemble=300, seed=19)
    STATES.clear()
    got = fcf(cfg, **kw)
    slim = [state for state, _, _ in STATES._entries.values()]
    assert len(slim) == 2
    for state in slim:
        assert state[5:] == (None,) * 5
    of_rows = statistics._Picked.of_rows
    STATES.clear()
    with monkeypatch.context() as m:
        m.setattr(statistics, "_member_state", full_draw_state)
        m.setattr(statistics._Picked, "of_rows",
                  classmethod(lambda cls, count, rows, phase_free: of_rows(count, rows, False)))
        want = fcf(cfg, **kw)
        full = [state for state, _, _ in STATES._entries.values()]
    STATES.clear()
    assert all(a is not None for state in full for a in state)
    for state, fat in zip(slim, full):
        assert_same_state(state, statistics._Picked(*fat[:5]))
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.std_error, want.std_error)


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_a_phase_free_context_builds_no_beam_geometry(monkeypatch, kfac):
    # a BDCM fcf reads no beam, so its plan builds no grid, no beam Dopplers
    # and no direct beam; a spacing lag builds the grid and the Dopplers,
    # the direct beam and the center Doppler at K > 0 only, and never the
    # departure angles of the config ellipse (each slot's tables compute
    # their own)
    cfg = preset("fig5").with_values(rician_k=kfac)
    kw = dict(ensemble=300, seed=23)
    gbsm = fcf(cfg, model="gbsm", **kw)
    names = ("virtual_angles", "aod_from_aoa", "ray_doppler", "los_beam_index",
             "center_los_doppler")
    calls = {name: _recording(monkeypatch, name) for name in names}
    bdcm = fcf(cfg, model="bdcm", **kw)
    assert all(calls[name] == [] for name in names)
    assert np.array_equal(bdcm.values, gbsm.values)
    assert np.array_equal(bdcm.std_error, gbsm.std_error)
    stfcf(cfg, model="bdcm", spacing_rx=0.06, ensemble=20, seed=23)
    assert len(calls["virtual_angles"]) > 0 and len(calls["ray_doppler"]) > 0
    assert calls["aod_from_aoa"] == []
    for name in ("los_beam_index", "center_los_doppler"):
        assert len(calls[name]) == (1 if kfac > 0 else 0)


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_gbsm_and_bdcm_fcf_are_bitwise_equal(kfac):
    # the phase-free path reads only what both models share, and a chunk
    # sums its member rows once, so the two analytic FCFs are the same bytes
    cfg = preset("fig5").with_values(rician_k=kfac)
    gbsm, bdcm = (fcf(cfg, model=model, ensemble=300, seed=23) for model in ("gbsm", "bdcm"))
    assert np.array_equal(gbsm.values, bdcm.values)
    assert np.array_equal(gbsm.std_error, bdcm.std_error)


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


def _von_mises_expectation(cfg, semi_major, lag_tx, lag_rx, lag_time):
    """E[exp(i*phase)] over von Mises arrivals on one cluster's ellipse, by
    quadrature: the reference-minus-probe phase at the respaced offsets
    (antennas 1 and 2 of the array rebuilt at a positive lag, both on
    antenna 1 at a zero lag) less the Doppler rotation over the time lag."""
    arr = cfg.array
    ell = EllipseConfig(semi_major, cfg.ellipse.focal_half)

    def offsets(count, spacing, lag):
        return [(count - 1) / 2 * lag, (count - 3) / 2 * lag] if lag > 0 else \
            [(count - 1) / 2 * spacing] * 2

    off_tx = offsets(arr.num_tx, arr.spacing_tx, lag_tx)
    off_rx = offsets(arr.num_rx, arr.spacing_rx, lag_rx)

    def phasor(th):
        d_rx = rx_focal_distance(th, ell)
        tx = antenna_distances(2 * semi_major - d_rx, aod_from_aoa(th, ell), arr.tilt_tx,
                               off_tx)[:, 0]
        rx = antenna_distances(d_rx, th, arr.tilt_rx, off_rx)[:, 0]
        phase = (TWO_PI / cfg.wavelength * ((tx[0] - tx[1]) + (rx[0] - rx[1]))
                 - TWO_PI * ray_doppler(th, cfg.max_doppler, cfg.velocity_angle) * lag_time)
        return math.exp(cfg.kappa * math.cos(th - cfg.mean_aoa)) * complex(math.cos(phase),
                                                                           math.sin(phase))

    # at 1e-14 quad warns of roundoff on the oscillating transmit-axis integrands
    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=500)
    return complex(quad(lambda th: phasor(th).real, -math.pi, math.pi, **kw)[0],
                   quad(lambda th: phasor(th).imag, -math.pi, math.pi, **kw)[0]) \
        / (TWO_PI * i0(cfg.kappa))


@pytest.mark.parametrize("lags", [dict(spacing_tx=0.2), dict(spacing_rx=0.2),
                                  dict(time_lag=0.02)])
@pytest.mark.parametrize("kappa", [0.0, 5.0])
@pytest.mark.parametrize("tilt", [math.pi / 2, 0.7])
def test_cluster_estimates_match_the_von_mises_quadrature(tilt, kappa, lags):
    # evolution off: no gate acts and the powers cancel, so the cluster-1
    # estimate is the expectation itself; BDCM is a trapezoidal rule of it
    # on the beam grid, exact to rounding, GBSM a Monte Carlo over its rays
    cfg = frozen_config(array=ArrayConfig(tilt_tx=tilt, tilt_rx=tilt), kappa=kappa)
    semi_major = full_member_state(cfg, 1, 0, 1.0)[0].semi_major
    want = _von_mises_expectation(cfg, semi_major, lags.get("spacing_tx", 0.0),
                                  lags.get("spacing_rx", 0.0), lags.get("time_lag", 0.0))
    assert abs(stfcf(cfg, model="bdcm", cluster_index=1, ensemble=10, seed=1, **lags)
               - want) < 1e-12
    got = stfcf(cfg, model="gbsm", cluster_index=1, ensemble=400, seed=3, **lags)
    _, err, _ = statistics._estimate(
        cfg, "gbsm", 1, *(np.array([lags.get(k, 0.0)]) for k in
                          ("spacing_tx", "spacing_rx", "freq_lag", "time_lag")), 1.0, 400, 3)
    assert abs(got - want) < 4 * err[0]


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
    (lambda cfg: time_acf(cfg, t=True), "t must be"),
    (lambda cfg: space_ccf(cfg, t="1"), "t must be"),
    (lambda cfg: time_acf(cfg, lag_grid=[0.0, -0.01]), "time lags must be non-negative"),
    (lambda cfg: stfcf(cfg, time_lag=-0.01), "time lags must be non-negative"),
    (lambda cfg: time_acf(cfg, lag_grid=[0.0, math.nan]), "time lags must be finite"),
    (lambda cfg: space_ccf(cfg, spacing_grid=[0.0, math.nan]),
     "receive spacing lags must be finite"),
    (lambda cfg: stfcf(cfg, spacing_tx=math.inf), "transmit spacing lags must be finite"),
    (lambda cfg: fcf(cfg, freq_lag_grid=[0.0, math.nan]), "frequency lags must be finite"),
    (lambda cfg: stfcf(cfg, freq_lag=-math.inf), "frequency lags must be finite"),
    (lambda cfg: space_ccf(cfg, spacing_grid=[]), "receive spacing lags must not be empty"),
    (lambda cfg: fcf(cfg, freq_lag_grid=[]), "frequency lags must not be empty"),
], ids=["t-negative", "t-nan", "t-inf", "fcf-t-negative", "t-bool", "t-string",
        "time-lag-negative", "stfcf-time-lag-negative", "time-lag-nan", "rx-spacing-nan",
        "tx-spacing-inf", "freq-lag-nan", "freq-lag-minus-inf", "rx-spacing-empty",
        "freq-lag-empty"])
def test_bad_times_and_lags_raise_naming_them(call, message):
    # each used to run: t < 0 or NaN gave the t = 0 curve labelled with
    # the bad time, a negative time lag skipped the survival gate, a NaN
    # lag returned 0; a bool t ran as a time and a string t failed unnamed;
    # an empty grid failed to unpack inside the estimator
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


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 77, 2**200 + 1]
# members 2^32 and up take two key words; one range mixes one and two
STREAM_MEMBERS = [range(0, 2), range(255, 257), range(2**32 - 1, 2**32 + 1),
                  range(2**40, 2**40 + 2)]
STREAM_PURPOSES = [getattr(statistics, name) for name in dir(statistics)
                   if name.startswith("_STREAM_")]


def _first_draws(rng):
    # the int32 draw takes half of a 64-bit output and buffers the other
    # half (has_uint32), which a fresh stream must not carry
    return (rng.uniform(), rng.exponential(), rng.vonmises(0.3, 2.0),
            int(rng.integers(0, 2**31 - 1, dtype=np.int32)), int(rng.poisson(7.5)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_states_equal_seed_sequence_bit_for_bit(seed):
    assert sorted(STREAM_PURPOSES) == sorted(statistics._PURPOSES)
    for members in STREAM_MEMBERS:
        streams = MemberStreams(seed, members, STREAM_PURPOSES)
        # every member is got twice, after draws from the other member
        for member in [*members, *members]:
            for purpose in STREAM_PURPOSES:
                got = streams.get(member, purpose)
                want = member_stream(seed, member, purpose)
                assert got.bit_generator.state == want.bit_generator.state
                assert _first_draws(got) == _first_draws(want)


def test_streams_of_one_purpose_are_independent():
    # drawing from a later stream of the same purpose leaves an earlier
    # one where it was
    streams = MemberStreams(5, range(3), statistics._PURPOSES)
    first = streams.get(0, statistics._STREAM_INIT)
    want = member_stream(5, 0, statistics._STREAM_INIT)
    assert _first_draws(first) == _first_draws(want)
    _first_draws(streams.get(2, statistics._STREAM_INIT))
    assert _first_draws(first) == _first_draws(want)
    assert first.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("member", [0, 2, 6, 9])
def test_a_member_outside_the_chunk_fails_by_name(member):
    # member 0 used to wrap round to member 3's stream, 9 to raise a bare IndexError
    streams = MemberStreams(5, range(3, 6), (0, 1))
    with pytest.raises(ValueError, match=f"member {member} is outside this chunk's "
                                         "members 3 to 5"):
        streams.get(member, 0)


def test_worker_env_does_not_change_results():
    code = (
        "import numpy as np\n"
        "from beamchan.config import SimulationConfig\n"
        "from beamchan.statistics import fcf, time_acf\n"
        "a = time_acf(SimulationConfig(), ensemble=300, seed=77)\n"
        "print(repr(a.values.tobytes().hex()))\n"
        "los = SimulationConfig(rician_k=3.0, estimator_mode='sampled')\n"
        "s = time_acf(los, cluster_index=None, ensemble=300, seed=77)\n"
        "print(repr((s.values.tobytes() + s.std_error.tobytes()).hex()))\n"
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
