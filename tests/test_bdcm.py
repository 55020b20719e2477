"""Beam-domain model: structure, normalization, equivalence to the antenna domain."""
import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from beamchan import bdcm
from beamchan._held import HELD
from beamchan.bdcm import (
    BeamDomainChannel,
    assemble_antenna_domain,
    bdcm_matrix,
    beam_domain_entries,
    beam_weights,
    center_los_doppler,
    draw_bdcm_phases,
    los_beam_index,
    response_matrix_rx,
    response_matrix_tx,
)
from beamchan.clusters import ClusterDraws, evolve_array, initial_clusters
from beamchan.config import SimulationConfig
from beamchan.gbsm import PhaseDraw, cluster_ellipse
from beamchan.geometry import (
    ArrayConfig,
    EllipseConfig,
    VirtualAngleGrid,
    antenna_offset,
    ray_doppler,
    rx_focal_distance,
)
from helpers import bdcm_cluster_matrix, gbsm_cluster_matrix

TWO_PI = 2.0 * math.pi


def small_config(**kw):
    kw.setdefault("array", ArrayConfig(num_tx=3, num_rx=4,
                                       spacing_tx=0.06, spacing_rx=0.06))
    kw.setdefault("num_beams", 16)
    return SimulationConfig(**kw)


def test_response_entries_unit_modulus():
    cfg = small_config()
    ell = cfg.ellipse
    grid = VirtualAngleGrid.build(cfg.num_beams, ell)
    u_t = response_matrix_tx(grid, ell, cfg.array, cfg.wavelength)
    u_r = response_matrix_rx(grid, ell, cfg.array, cfg.wavelength)
    assert u_t.entries.shape == (3, 16)
    assert u_r.entries.shape == (4, 16)
    assert np.max(np.abs(np.abs(u_t.entries) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(u_r.entries) - 1.0)) < 1e-12


def test_response_entry_against_cartesian_oracle():
    # receive side, computed from explicit coordinates: scatterer on the
    # ellipse at the beam angle, antenna displaced along the tilted axis
    ell = EllipseConfig(semi_major=100.0, focal_half=80.0)
    arr = ArrayConfig(num_tx=3, num_rx=4, spacing_tx=0.06, spacing_rx=0.05)
    grid = VirtualAngleGrid.build(8, ell)
    m, k = 3, 1
    theta = grid.aoa[m - 1]
    d = rx_focal_distance(theta, ell)
    scat = np.array([80.0 + d * math.cos(theta), d * math.sin(theta)])
    off = antenna_offset(k, 4, 0.05)
    ant = np.array([80.0 + off * math.cos(arr.tilt_rx),
                    off * math.sin(arr.tilt_rx)])
    dist = math.hypot(*(scat - ant))
    want = TWO_PI / 0.12 * (dist - d)
    got = response_matrix_rx(grid, ell, arr, 0.12).entries[k - 1, m - 1]
    assert math.remainder(math.atan2(got.imag, got.real) - want, TWO_PI) == \
        pytest.approx(0.0, abs=1e-9)
    # transmit side carries the opposite sign convention
    got_t = response_matrix_tx(grid, ell, arr, 0.12).entries[2 - 1, m - 1]
    d_t = 2.0 * ell.semi_major - d
    off_t = antenna_offset(2, 3, 0.06)
    ant_t = np.array([-80.0 + off_t * math.cos(arr.tilt_tx),
                      off_t * math.sin(arr.tilt_tx)])
    dist_t = math.hypot(*(scat - ant_t))
    want_t = TWO_PI / 0.12 * (d_t - dist_t)
    assert math.remainder(math.atan2(got_t.imag, got_t.real) - want_t, TWO_PI) == \
        pytest.approx(0.0, abs=1e-9)


def test_beam_weights_sum_and_peak():
    cfg = small_config()
    grid = VirtualAngleGrid.build(64, cfg.ellipse)
    w = beam_weights(1.0, 5.0, grid, "von_mises")
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    peak = grid.aoa[int(np.argmax(w))]
    assert abs(peak - 1.0) <= TWO_PI / 64
    u = beam_weights(1.0, 5.0, grid, "uniform")
    assert np.allclose(u, 1.0 / 64)
    with pytest.raises(ValueError):
        beam_weights(0.0, 1.0, grid, "boxcar")


def test_beam_diagonal_power_and_modulus():
    cfg = small_config(rician_k=0.0)
    rng = np.random.default_rng(5)
    clusters = initial_clusters(cfg, rng)
    phases = draw_bdcm_phases(clusters, cfg, rng)
    for c in clusters[:3]:
        bd = beam_domain_entries(c, 0.4, cfg, phases)
        assert np.sum(np.abs(bd.nlos_diag) ** 2) == pytest.approx(c.power, rel=1e-12)
        assert np.all(bd.los_diag == 0)


def test_direct_beam_single_entry():
    cfg = small_config(rician_k=4.0)
    rng = np.random.default_rng(6)
    clusters = initial_clusters(cfg, rng)
    phases = draw_bdcm_phases(clusters, cfg, rng)
    bd = beam_domain_entries(clusters[0], 0.0, cfg, phases)
    nz = np.nonzero(bd.los_diag)[0]
    assert len(nz) == 1
    m0 = los_beam_index(bd.grid)
    assert nz[0] == m0 - 1
    assert abs(bd.los_diag[m0 - 1]) == pytest.approx(math.sqrt(4.0 / 5.0), rel=1e-12)
    # the direct-path beam points back at the transmitter
    assert bd.grid.aoa[m0 - 1] == pytest.approx(math.pi, abs=1e-12)


def test_center_doppler_value():
    cfg = SimulationConfig()
    # broadside arrays and velocity at pi/6 from the axis
    assert center_los_doppler(cfg) == pytest.approx(
        cfg.max_doppler * math.cos(cfg.velocity_angle), rel=1e-12)
    grid = VirtualAngleGrid.build(8, cfg.ellipse)
    f = ray_doppler(grid.aoa, cfg.max_doppler, cfg.velocity_angle)[3 - 1]
    assert f == pytest.approx(
        cfg.max_doppler * math.cos(grid.aoa[2] - cfg.velocity_angle), rel=1e-12)


def test_assembly_matches_triple_loop_oracle():
    # U_R diag U_T^H written out elementwise, many random small setups
    rng = np.random.default_rng(42)
    for _ in range(100):
        mr = int(rng.integers(1, 5))
        mt = int(rng.integers(1, 5))
        m = int(rng.integers(1, 12))
        u_r = np.exp(1j * rng.uniform(-math.pi, math.pi, (mr, m)))
        u_t = np.exp(1j * rng.uniform(-math.pi, math.pi, (mt, m)))
        diag_l = np.zeros(m, complex)
        diag_l[int(rng.integers(0, m))] = rng.normal() + 1j * rng.normal()
        diag_n = rng.normal(size=m) + 1j * rng.normal(size=m)
        bd = BeamDomainChannel(los_diag=diag_l, nlos_diag=diag_n, grid=None,
                               delay=0.0, cluster_uid=0)
        from beamchan.bdcm import ResponseMatrix
        got = assemble_antenna_domain(bd, ResponseMatrix(u_r, "receive"),
                                      ResponseMatrix(u_t, "transmit"))
        want = np.zeros((mr, mt), complex)
        for k in range(mr):
            for l in range(mt):
                for b in range(m):
                    want[k, l] += u_r[k, b] * (diag_l[b] + diag_n[b]) * np.conj(u_t[l, b])
        assert np.max(np.abs(got - want)) < 1e-12


def test_assembly_dimension_check():
    bd = BeamDomainChannel(los_diag=np.zeros(4, complex),
                           nlos_diag=np.zeros(4, complex), grid=None,
                           delay=0.0, cluster_uid=0)
    from beamchan.bdcm import ResponseMatrix
    with pytest.raises(ValueError):
        assemble_antenna_domain(bd, ResponseMatrix(np.ones((2, 3), complex), "receive"),
                                ResponseMatrix(np.ones((2, 4), complex), "transmit"))


def test_single_beam_telescopes_to_ray_phase():
    # a cluster with one ray exactly at a grid angle: the assembled
    # single-beam entry and the antenna-domain ray coefficient carry the
    # same phase, and the magnitudes differ only by the beam weight
    cfg = small_config(rician_k=0.0, num_beams=16)
    rng = np.random.default_rng(10)
    clusters = initial_clusters(cfg, rng)
    base = clusters[0]
    ell = cluster_ellipse(base, cfg)
    grid = VirtualAngleGrid.build(cfg.num_beams, ell)
    for m in (1, 5, 11, 16):
        theta = grid.aoa[m - 1]
        base.ray_aoas = np.array([theta])
        base.mean_aoa = float(theta)
        base.visible_tx = range(1, cfg.array.num_tx + 1)
        base.visible_rx = range(1, cfg.array.num_rx + 1)
        phi0 = 0.4321
        t = 0.37
        hg = gbsm_cluster_matrix(
            base, t, cfg,
            PhaseDraw(nlos={base.uid: np.array([phi0])}, los=0.0))[2 - 1, 3 - 1]
        pb = PhaseDraw(nlos={base.uid: np.full(cfg.num_beams, phi0)}, los=0.0)
        bd = beam_domain_entries(base, t, cfg, pb, grid)
        only = np.zeros_like(bd.nlos_diag)
        only[m - 1] = bd.nlos_diag[m - 1]
        one = BeamDomainChannel(los_diag=np.zeros_like(only), nlos_diag=only,
                                grid=grid, delay=bd.delay, cluster_uid=base.uid)
        u_t = response_matrix_tx(grid, ell, cfg.array, cfg.wavelength)
        u_r = response_matrix_rx(grid, ell, cfg.array, cfg.wavelength)
        hb = assemble_antenna_domain(one, u_r, u_t)[1, 2]
        wm = beam_weights(base.mean_aoa, cfg.kappa, grid, cfg.beam_weighting)[m - 1]
        assert abs(hb) / math.sqrt(wm) == pytest.approx(abs(hg), rel=1e-10)
        dphi = math.remainder(np.angle(hb) - np.angle(hg), TWO_PI)
        assert abs(dphi) < 1e-9


def test_cluster_matrix_visibility_gating():
    cfg = small_config(rician_k=0.0)
    rng = np.random.default_rng(13)
    clusters = initial_clusters(cfg, rng)
    c = clusters[0]
    c.visible_rx = range(2, 5, 2)
    c.visible_tx = range(1, 2)
    phases = draw_bdcm_phases(clusters, cfg, rng)
    mat = bdcm_cluster_matrix(c, 0.2, cfg, phases)
    assert mat.shape == (4, 3)
    assert np.all(mat[0, :] == 0) and np.all(mat[2, :] == 0)
    assert np.all(mat[:, 1:] == 0)
    assert mat[1, 0] != 0 and mat[3, 0] != 0


def test_full_matrix_and_phase_requirements():
    cfg = small_config()
    rng = np.random.default_rng(14)
    clusters = initial_clusters(cfg, rng)
    real = bdcm_matrix(0.3, clusters, cfg, rng=np.random.default_rng(15))
    assert real.coeffs.shape == (4, 3, len(clusters))
    assert real.model == "bdcm"
    with pytest.raises(ValueError):
        bdcm_matrix(0.3, clusters, cfg)


def masked_full_assembly(cluster, t, config, phases):
    """Oracle: U_R diag U_T^H over the whole array, masked afterwards."""
    ellipse = cluster_ellipse(cluster, config)
    grid = VirtualAngleGrid.build(config.num_beams, ellipse)
    beam = beam_domain_entries(cluster, t, config, phases, grid)
    u_t = response_matrix_tx(grid, ellipse, config.array, config.wavelength)
    u_r = response_matrix_rx(grid, ellipse, config.array, config.wavelength)
    diag = beam.los_diag + beam.nlos_diag
    out = (u_r.entries * diag[None, :]) @ u_t.entries.conj().T
    mask_rx = np.array([k + 1 in cluster.visible_rx for k in range(config.array.num_rx)])
    mask_tx = np.array([l + 1 in cluster.visible_tx for l in range(config.array.num_tx)])
    return out * mask_rx[:, None] * mask_tx[None, :]


def clusters_with_edge_cases(cfg, seed):
    """Evolved clusters plus three built ones.

    Appended: a cluster in cluster 1's slot with non-contiguous
    visibility on both sides, and two clusters on an ellipse that no
    other cluster uses, one with no visible transmit antenna and one
    with no visible receive antenna.
    """
    rng = np.random.default_rng(seed)
    clusters = evolve_array(initial_clusters(cfg, rng), cfg.array, cfg.evolution,
                            rng, config=cfg)
    first, n, uid = clusters[0], len(clusters), max(c.uid for c in clusters)
    far = max(c.semi_major for c in clusters) + 40.0
    arr = cfg.array
    return clusters + [
        replace(first, index=n + 1, uid=uid + 1,
                visible_rx=range(1, arr.num_rx + 1, 2),
                visible_tx=range(1, arr.num_tx + 1, arr.num_tx - 1)),
        replace(first, index=n + 2, uid=uid + 2, semi_major=far,
                visible_tx=range(1, 1)),
        replace(first, index=n + 3, uid=uid + 3, semi_major=far,
                visible_rx=range(1, 1)),
    ]


@pytest.mark.parametrize("kfac", [0.0, 3.0])
@pytest.mark.parametrize("num_rx,num_tx,tilt_tx,tilt_rx", [
    (4, 3, math.pi / 2, math.pi / 2),
    (3, 4, 0.7, 1.9),
    (16, 12, 2.6, 0.3),
    (64, 64, 0.7, 1.9),
])
def test_matrix_matches_masked_full_assembly(num_rx, num_tx, tilt_tx, tilt_rx, kfac):
    arr = ArrayConfig(num_tx=num_tx, num_rx=num_rx, spacing_tx=0.06,
                      spacing_rx=0.05, tilt_tx=tilt_tx, tilt_rx=tilt_rx)
    cfg = SimulationConfig(array=arr, rician_k=kfac)
    for seed in (21, 22):
        clusters = clusters_with_edge_cases(cfg, seed)
        phases = draw_bdcm_phases(clusters, cfg, np.random.default_rng(seed + 50))
        got = bdcm_matrix(0.7, clusters, cfg, phases=phases).coeffs
        both = [c.semi_major for c in clusters if c.visible_rx and c.visible_tx]
        assert len(set(both)) < len(both)   # some ellipse holds several clusters
        for i, c in enumerate(clusters):
            want = masked_full_assembly(c, 0.7, cfg, phases)
            assert np.max(np.abs(got[:, :, i] - want)) < 1e-12
            assert np.array_equal(got[:, :, i] != 0, want != 0)


def test_response_matrices_built_once_per_ellipse(monkeypatch):
    # the basis of a slot is built on its first use and then held, so over
    # the calls of one config each (side, semi_major) is built exactly once
    calls = {"receive": [], "transmit": []}
    for side, name in (("receive", "response_matrix_rx"), ("transmit", "response_matrix_tx")):
        build = getattr(bdcm, name)

        def counting(grid, ellipse, *args, build=build, side=side):
            calls[side].append(ellipse.semi_major)
            return build(grid, ellipse, *args)

        monkeypatch.setattr(bdcm, name, counting)
    cfg = SimulationConfig(array=ArrayConfig(num_tx=12, num_rx=20), rician_k=3.0)
    realizations, used = {}, set()
    for seed in (31, 32, 33):
        clusters = clusters_with_edge_cases(cfg, seed)
        phases = draw_bdcm_phases(clusters, cfg, np.random.default_rng(seed))
        bdcm_matrix(0.2, clusters, cfg, phases=phases)
        both = [c.semi_major for c in clusters if c.visible_rx and c.visible_tx]
        assert len(set(both)) < len(both)
        used |= set(both)
        realizations[seed] = (clusters, phases)
    for made in calls.values():
        assert sorted(made) == sorted(used)
        made.clear()
    clusters, phases = realizations[31]
    bdcm_matrix(0.2, clusters, cfg, phases=phases)
    assert calls == {"receive": [], "transmit": []}


def fresh_basis(ellipse, config):
    grid = VirtualAngleGrid.build(config.num_beams, ellipse)
    return (grid,
            response_matrix_rx(grid, ellipse, config.array, config.wavelength).entries,
            response_matrix_tx(grid, ellipse, config.array, config.wavelength).entries)


def held_bytes():
    # the store counts the bytes of U_R and U_T, not those of the grid
    total = sum(u_r.nbytes + u_t.nbytes for (_, u_r, u_t), _ in HELD._entries.values())
    assert total == HELD._bytes
    return total


def held_bases():
    """The held basis keys, least recently used first."""
    return [key for key in HELD._entries if key[0] == "basis"]


def held_slots():
    """``semi_major`` of each held basis, least recently used first."""
    return [key[2] for key in held_bases()]


@pytest.mark.parametrize("counts", [(3, 4), (9, 6)])
@pytest.mark.parametrize("tilts", [(math.pi / 2, math.pi / 2), (0.3, 2.1)])
def test_basis_is_bitwise_the_fresh_build(counts, tilts):
    cfg = small_config(array=ArrayConfig(num_tx=counts[0], num_rx=counts[1],
                                         tilt_tx=tilts[0], tilt_rx=tilts[1]))
    ell = EllipseConfig(semi_major=107.5, focal_half=80.0)
    want_grid, want_r, want_t = fresh_basis(ell, cfg)
    cold = bdcm._basis(ell, cfg)
    warm = bdcm._basis(ell, cfg)
    assert all(a is b for a, b in zip(cold, warm))
    grid, u_r, u_t = warm
    assert grid.num_beams == want_grid.num_beams
    for got, want in ((grid.aoa, want_grid.aoa), (grid.aod, want_grid.aod),
                      (u_r, want_r), (u_t, want_t)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_basis_key_covers_every_geometry_field():
    cfg = small_config(rician_k=0.0)
    ell = EllipseConfig(semi_major=107.5, focal_half=80.0)
    arr = cfg.array
    changed = [
        (ell, replace(cfg, num_beams=cfg.num_beams + 1)),
        (replace(ell, focal_half=70.0), cfg),
        (replace(ell, semi_major=110.0), cfg),
        (ell, replace(cfg, wavelength=0.1)),
    ]
    for f in fields(ArrayConfig):
        value = getattr(arr, f.name)
        value = value + 1 if isinstance(value, int) else value / 2.0
        changed.append((ell, replace(cfg, array=replace(arr, **{f.name: value}))))
    for other_ell, other_cfg in changed:
        HELD.clear()
        first = bdcm._basis(ell, cfg)
        second = bdcm._basis(other_ell, other_cfg)
        assert len(held_bases()) == 2
        assert second[1] is not first[1]
        want = fresh_basis(other_ell, other_cfg)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(second[1:], want[1:]))
    # the Rician factor does not touch the basis: K = 0 and K = 3 share it
    HELD.clear()
    first = bdcm._basis(ell, cfg)
    second = bdcm._basis(ell, replace(cfg, rician_k=3.0))
    assert len(held_bases()) == 1
    assert all(a is b for a, b in zip(first, second))


def test_basis_arrays_are_read_only():
    grid, u_r, u_t = bdcm._basis(EllipseConfig(), small_config())
    for a in (grid.aoa, grid.aod, u_r, u_t):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_basis_cache_stays_within_budget():
    cfg = SimulationConfig(array=ArrayConfig(num_tx=128, num_rx=128))
    draws = ClusterDraws(cfg)
    slots = [EllipseConfig(draws.slot(s)[0], cfg.ellipse.focal_half)
             for s in range(int(2 * cfg.mean_cluster_count))]
    for ell in slots:
        bdcm._basis(ell, cfg)
        assert held_bytes() <= HELD.budget
    # the budget holds fewer than all slots; the most recent ones stay
    held = len(held_bases())
    assert 0 < held < len(slots)
    assert held_slots() == [e.semi_major for e in slots[-held:]]
    # a reused basis becomes the most recent, so the next oldest leaves
    oldest, next_oldest = slots[-held], slots[-held + 1]
    bdcm._basis(oldest, cfg)
    bdcm._basis(slots[0], cfg)
    kept = held_slots()
    assert oldest.semi_major in kept and next_oldest.semi_major not in kept
    # a basis larger than the whole budget is built and returned, not held
    per_beam = 16 * (cfg.array.num_rx + cfg.array.num_tx)
    big = replace(cfg, num_beams=HELD.budget // per_beam + 1)
    before = list(HELD._entries)
    grid, u_r, u_t = bdcm._basis(slots[0], big)
    assert u_r.nbytes + u_t.nbytes > HELD.budget
    assert grid.num_beams == big.num_beams
    assert list(HELD._entries) == before


def test_slots_beyond_the_budget_still_reuse_the_held_bases(monkeypatch):
    # a call takes the held bases before it builds the rest, so the rest
    # evict only bases the call is done with; taken in slot order, each
    # built basis would evict the one the next slot needs
    cfg = SimulationConfig(array=ArrayConfig(num_tx=12, num_rx=20))
    clusters = clusters_with_edge_cases(cfg, 31)
    phases = draw_bdcm_phases(clusters, cfg, np.random.default_rng(31))
    slots = len({c.semi_major for c in clusters if c.visible_rx and c.visible_tx})
    monkeypatch.setattr(HELD, "budget", 3 * 16 * 32 * cfg.num_beams)
    built, build = [], bdcm.response_matrix_rx

    def counting(grid, ellipse, *args):
        built.append(ellipse.semi_major)
        return build(grid, ellipse, *args)

    monkeypatch.setattr(bdcm, "response_matrix_rx", counting)
    first = bdcm_matrix(0.2, clusters, cfg, phases=phases).coeffs
    assert len(built) == slots > 3
    assert len(held_bases()) == 3
    built.clear()
    again = bdcm_matrix(0.2, clusters, cfg, phases=phases).coeffs
    assert len(built) == slots - 3
    assert again.tobytes() == first.tobytes()


def test_threads_share_the_bases_safely(monkeypatch):
    # four threads with a short switch interval building over a budget of
    # two bases, so bases are looked up, built and evicted concurrently
    configs = [small_config(array=ArrayConfig(num_tx=n, num_rx=4)) for n in (3, 5)]
    work = []
    for cfg in configs:
        clusters = clusters_with_edge_cases(cfg, 17)
        phases = draw_bdcm_phases(clusters, cfg, np.random.default_rng(17))
        want = bdcm_matrix(0.2, clusters, cfg, phases=phases).coeffs.tobytes()
        work.append((cfg, clusters, phases, want))
    monkeypatch.setattr(HELD, "budget", 2 * 16 * 9 * configs[0].num_beams)
    wrong, errors = [], []

    def run(offset):
        try:
            for k in range(100):
                cfg, clusters, phases, want = work[(offset + k) % 2]
                got = bdcm_matrix(0.2, clusters, cfg, phases=phases).coeffs.tobytes()
                if got != want:
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
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and wrong == []
    assert held_bytes() <= HELD.budget


@pytest.mark.parametrize("kfac", [0.0, 3.0])
def test_bdcm_matrix_same_cold_and_warm(kfac):
    cfg = SimulationConfig(array=ArrayConfig(num_tx=12, num_rx=20), rician_k=kfac)
    clusters = clusters_with_edge_cases(cfg, 41)
    phases = draw_bdcm_phases(clusters, cfg, np.random.default_rng(41))
    HELD.clear()
    cold = bdcm_matrix(0.3, clusters, cfg, phases=phases).coeffs
    assert held_bases()
    warm = bdcm_matrix(0.3, clusters, cfg, phases=phases).coeffs
    assert cold.tobytes() == warm.tobytes()
