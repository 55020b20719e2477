import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamchan.clusters import (
    ClusterDraws,
    EvolutionConfig,
    _ladder,
    _visible_steps,
    array_survival,
    evolve_array,
    evolve_time,
    initial_clusters,
    time_decay_rate,
    time_survival,
)
from beamchan.config import SimulationConfig
from beamchan.geometry import SPEED_OF_LIGHT, ArrayConfig, EllipseConfig


def small_config(**kwargs):
    base = dict(
        array=ArrayConfig(num_tx=2, num_rx=2, spacing_tx=0.075, spacing_rx=0.075),
        rays_per_cluster=5,
        ensemble=10,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestSurvivalFormulas:
    def test_array_step_example(self):
        evo = EvolutionConfig(death_rate=4.0, array_decorrelation=15.0)
        assert array_survival(0.075, evo) == pytest.approx(math.exp(-0.02), rel=1e-15)

    def test_time_step_example(self):
        evo = EvolutionConfig(death_rate=4.0, scenario_factor=0.3, ms_speed=0.5,
                              space_decorrelation=50.0)
        assert time_decay_rate(evo) == pytest.approx(0.012, rel=1e-12)
        assert time_survival(1.0, evo) == pytest.approx(math.exp(-0.012), rel=1e-15)

    def test_memoryless_composition(self):
        evo = EvolutionConfig()
        assert array_survival(0.15, evo) == pytest.approx(
            array_survival(0.075, evo) ** 2, rel=1e-14
        )
        assert time_survival(2.0, evo) == pytest.approx(
            time_survival(1.0, evo) ** 2, rel=1e-14
        )


class TestInitialClusters:
    def test_posterior_mean_count(self):
        cfg = small_config(rays_per_cluster=1)
        counts = [len(initial_clusters(cfg, seed)) for seed in range(800)]
        assert np.mean(counts) == pytest.approx(cfg.mean_cluster_count, rel=0.05)

    def test_no_empty_ensembles(self):
        cfg = small_config(mean_clusters=0.05)
        for seed in range(50):
            assert len(initial_clusters(cfg, seed)) >= 1

    def test_powers_normalized(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 7)
        assert sum(c.power for c in clusters) == pytest.approx(1.0, rel=1e-12)
        assert all(c.power > 0 for c in clusters)

    def test_delays_match_semi_major(self):
        cfg = small_config()
        for c in initial_clusters(cfg, 3):
            assert c.delay == pytest.approx(2.0 * c.semi_major / SPEED_OF_LIGHT)

    def test_delay_ladder_spacing(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 11)
        delays = [c.delay for c in clusters]
        np.testing.assert_allclose(np.diff(delays), cfg.delay_spacing, rtol=1e-9)

    def test_ray_count_and_concentration(self):
        cfg = small_config(rays_per_cluster=64, kappa=1e8)
        clusters = initial_clusters(cfg, 5)
        first = clusters[0]
        assert len(first.ray_aoas) == 64
        np.testing.assert_allclose(first.ray_aoas, first.mean_aoa, atol=1e-3)

    def test_first_cluster_uses_configured_mean(self):
        cfg = small_config(mean_aoa=1.0)
        for seed in range(5):
            assert initial_clusters(cfg, seed)[0].mean_aoa == 1.0

    def test_other_means_spread_uniformly(self):
        cfg = small_config(rays_per_cluster=1)
        means = []
        for seed in range(300):
            means.extend(c.mean_aoa for c in initial_clusters(cfg, seed)[1:])
        means = np.asarray(means)
        assert abs(np.mean(np.cos(means))) < 0.05
        assert abs(np.mean(np.sin(means))) < 0.05

    def test_initially_visible_to_antenna_one(self):
        cfg = small_config()
        for c in initial_clusters(cfg, 9):
            assert c.visible_tx == range(1, 2)
            assert c.visible_rx == range(1, 2)

    def test_deterministic_under_seed(self):
        cfg = small_config()
        a = initial_clusters(cfg, 42)
        b = initial_clusters(cfg, 42)
        assert [c.uid for c in a] == [c.uid for c in b]
        for ca, cb in zip(a, b):
            assert ca.power == cb.power
            np.testing.assert_array_equal(ca.ray_aoas, cb.ray_aoas)


def ladder_oracle(cfg, length):
    """Slots and initial-set power scales as each draw once computed them
    for itself: per slot (semi-major axis, delay, power-delay weight), and
    the scale of every initial count up to ``length``."""
    tau0 = cfg.delay_spacing * max((cfg.mean_cluster_count - 1.0) / 2.0, 1.0)
    slots = []
    for s in range(length):
        a = cfg.ellipse.semi_major + s * SPEED_OF_LIGHT * cfg.delay_spacing / 2.0
        slots.append((a, 2.0 * a / SPEED_OF_LIGHT, math.exp(-s * cfg.delay_spacing / tau0)))
    scales = {count: 1.0 / np.array([w for _, _, w in slots[:count]]).sum()
              for count in range(1, length + 1)}
    return slots, scales


def same_bytes(ladder, slots, scale):
    """Whether a ``_ladder`` result holds ``slots`` and ``scale`` bit for bit."""
    got_slots, got_scale = ladder
    return (np.array(got_slots).tobytes() == np.array(slots).tobytes()
            and np.float64(got_scale).tobytes() == np.float64(scale).tobytes())


class TestSharedLadder:
    def test_every_length_equals_the_oracle(self):
        cfg = small_config(delay_spacing=19e-9, mean_clusters=17.0)
        key, length = ClusterDraws(cfg).key, 500
        slots, scales = ladder_oracle(cfg, length)
        for n in range(1, length + 1):
            assert same_bytes(_ladder(*key, n), slots[:n], scales[n]), n

    def test_equal_configs_share_one_ladder_of_the_same_values(self):
        cfg = small_config(delay_spacing=17e-9, mean_clusters=13.0)
        a, b = ClusterDraws(cfg), ClusterDraws(small_config(delay_spacing=17e-9,
                                                            mean_clusters=13.0))
        assert a.key == b.key
        slots, scales = ladder_oracle(cfg, 60)
        for n in range(1, 61):
            assert _ladder(*a.key, n) is _ladder(*b.key, n)
            assert same_bytes(_ladder(*b.key, n), slots[:n], scales[n])

    @pytest.mark.parametrize("change", [
        dict(delay_spacing=30e-9),
        dict(mean_clusters=11.0),
        dict(ellipse=EllipseConfig(semi_major=120.0)),
    ], ids=["delay_spacing", "mean_clusters", "semi_major"])
    def test_configs_that_differ_in_what_it_reads_do_not_share(self, change):
        base = small_config(mean_clusters=20.0)
        other = replace(base, **change)
        key = ClusterDraws(other).key
        assert key != ClusterDraws(base).key
        assert _ladder(*ClusterDraws(base).key, 30) is not _ladder(*key, 30)
        slots, scales = ladder_oracle(other, 30)
        for n in range(1, 31):
            assert same_bytes(_ladder(*key, n), slots[:n], scales[n])

    def test_threads_reading_one_ladder_give_the_serial_values(self):
        # four threads ask for every length of one key no call has cached
        # yet, released together and switching as often as the interpreter
        # allows; every call must return the serial values
        cfg = small_config(delay_spacing=23e-9, mean_clusters=21.0)
        key, length = ClusterDraws(cfg).key, 500
        slots, scales = ladder_oracle(cfg, length)
        start = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def read(out):
            start.wait(timeout=30)
            for n in range(1, length + 1):
                out.append(_ladder(*key, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in results:
            assert len(out) == length
            assert all(same_bytes(got, slots[:n], scales[n])
                       for n, got in enumerate(out, 1))


def visible_steps_loop(chain, hazard, start, count):
    """Oracle: walk the array from ``start`` one step at a time and stop at
    the first step whose budget is at most the hazard."""
    visible = [start]
    for step, budget in enumerate(chain[: count - start]):
        if budget <= hazard:
            break
        visible.append(start + step + 1)
    return visible


# few distinct values, so budgets equal to the hazard come up often
budgets = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def walks(draw):
    count = draw(st.integers(1, 12))
    start = draw(st.integers(1, count))
    chain = draw(st.lists(budgets, max_size=count + 2))
    return chain, draw(budgets), start, count


class TestStreamIdentities:
    """numpy stream identities the draws rely on, checked on every numpy
    that CI installs: a mean angle written out as -pi + 2*pi*random() is
    scalar ``uniform(-pi, pi)``, and ``standard_exponential(n)`` is
    ``exponential(1.0, n)``, bit for bit and leaving the stream at the same
    position, which the draws after them show."""

    @pytest.mark.parametrize("kappa", [0.0, 0.01, 5.0])
    def test_written_out_mean_angle_keeps_the_stream(self, kappa):
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(300):
            x, y = a.uniform(-math.pi, math.pi), -math.pi + 2.0 * math.pi * b.random()
            assert x == y
            if kappa:
                assert a.vonmises(x, kappa, 20).tobytes() == b.vonmises(y, kappa, 20).tobytes()
            else:
                assert (a.uniform(-math.pi, math.pi, 20).tobytes()
                        == b.uniform(-math.pi, math.pi, 20).tobytes())
            assert a.exponential(1.0, 7).tobytes() == b.exponential(1.0, 7).tobytes()
        assert a.random() == b.random()

    @pytest.mark.parametrize("size", [0, 1, 7, 40])
    def test_standard_exponential_is_the_unit_exponential(self, size):
        a, b = np.random.default_rng(22), np.random.default_rng(22)
        for _ in range(300):
            assert a.exponential(1.0, size).tobytes() == b.standard_exponential(size).tobytes()
            assert a.exponential(size=size).tobytes() == b.standard_exponential(size).tobytes()
            assert a.vonmises(0.3, 5.0, 20).tobytes() == b.vonmises(0.3, 5.0, 20).tobytes()
            assert a.random() == b.random()


class TestVisibleSteps:
    @given(walk=walks())
    @example(walk=([], 0.5, 1, 6))                       # empty chain
    @example(walk=([0.0] * 5, 0.5, 1, 6))                # every step dead
    @example(walk=([2.0] * 5, 0.5, 1, 6))                # every step alive
    @example(walk=([0.5, 2.0], 0.5, 1, 3))               # budget equal to hazard
    @example(walk=([2.0, 2.0], 0.5, 4, 4))               # start == count
    @settings(max_examples=300)
    def test_matches_the_step_loop(self, walk):
        chain, hazard, start, count = walk
        # the chain starts at the birth antenna; the steps before it are
        # dead budgets that must not be read
        got, = _visible_steps([np.array([0.0] * (start - 1) + chain)], hazard, [start], count)
        assert isinstance(got, range) and got.step == 1
        assert list(got) == visible_steps_loop(chain, hazard, start, count)


class TestEvolveArray:
    def test_zero_death_rate_keeps_everything_visible(self):
        cfg = small_config(
            array=ArrayConfig(num_tx=8, num_rx=8, spacing_tx=0.075, spacing_rx=0.075),
            evolution=EvolutionConfig(death_rate=0.0),
            mean_clusters=20.0,
        )
        clusters = initial_clusters(cfg, 1)
        evolved = evolve_array(clusters, cfg.array, cfg.evolution, 2)
        for c in evolved:
            assert c.visible_tx == range(1, 9)
            assert c.visible_rx == range(1, 9)

    def test_huge_hazard_shrinks_to_birth_antenna(self):
        cfg = small_config(
            array=ArrayConfig(num_tx=8, num_rx=8, spacing_tx=500.0, spacing_rx=500.0),
            evolution=EvolutionConfig(death_rate=4.0, array_decorrelation=1.0),
        )
        clusters = initial_clusters(cfg, 1)
        evolved = evolve_array(clusters, cfg.array, cfg.evolution, 2)
        for c in evolved:
            assert c.visible_tx == range(1, 2)
            assert c.visible_rx == range(1, 2)

    def test_visibility_is_contiguous_from_antenna_one(self):
        cfg = small_config(
            array=ArrayConfig(num_tx=16, num_rx=16, spacing_tx=2.0, spacing_rx=2.0),
            evolution=EvolutionConfig(death_rate=4.0, array_decorrelation=15.0),
        )
        clusters = initial_clusters(cfg, 3)
        for c in evolve_array(clusters, cfg.array, cfg.evolution, 4):
            vis = sorted(c.visible_rx)
            assert vis == list(range(1, len(vis) + 1))

    def test_single_step_survival_rate(self):
        evo = EvolutionConfig(death_rate=4.0, array_decorrelation=15.0)
        cfg = small_config(evolution=evo, rays_per_cluster=1)
        alive = total = 0
        for seed in range(400):
            clusters = initial_clusters(cfg, seed)
            for c in evolve_array(clusters, cfg.array, evo, seed + 10_000):
                total += 1
                alive += 2 in c.visible_rx
        p = array_survival(0.075, evo)
        # binomial noise bound, four sigma
        assert alive / total == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / total))

    def test_births_appear_when_config_passed(self):
        cfg = small_config(
            array=ArrayConfig(num_tx=16, num_rx=16, spacing_tx=3.0, spacing_rx=3.0),
            evolution=EvolutionConfig(death_rate=4.0, array_decorrelation=15.0),
        )
        clusters = initial_clusters(cfg, 3)
        bare = evolve_array(clusters, cfg.array, cfg.evolution, 5)
        with_births = evolve_array(clusters, cfg.array, cfg.evolution, 5, config=cfg)
        assert len(bare) == len(clusters)
        assert len(with_births) > len(clusters)
        newborn = [c for c in with_births if c.uid > max(x.uid for x in clusters)]
        assert newborn and all(min([*c.visible_rx, *c.visible_tx]) >= 1 for c in newborn)

    def test_birth_death_balance_along_the_array(self):
        # mean count visible at receive antenna j: the initial set (empty
        # draws rejected) plus the transmit-side newborns, all visible at
        # receive antenna 1, decay by s_r per step while receive-side
        # births fill the set back toward mu
        mu, seeds = 5.0, 3000
        evo = EvolutionConfig(death_rate=4.0, array_decorrelation=15.0)
        arr = ArrayConfig(num_tx=6, num_rx=12, spacing_tx=3.0, spacing_rx=3.0)
        cfg = small_config(array=arr, evolution=evo, mean_clusters=mu,
                           rays_per_cluster=1)
        counts = np.zeros((seeds, arr.num_rx))
        for seed in range(seeds):
            clusters = initial_clusters(cfg, seed)
            for c in evolve_array(clusters, arr, evo, seed + 20_000, config=cfg):
                counts[seed, np.fromiter(c.visible_rx, int) - 1] += 1
        s_t, s_r = array_survival(3.0, evo), array_survival(3.0, evo)
        n0 = mu / (1.0 - math.exp(-mu))
        decay = s_r ** np.arange(arr.num_rx)
        want = (n0 + (arr.num_tx - 1) * mu * (1.0 - s_t)) * decay + mu * (1.0 - decay)
        err = counts.std(axis=0, ddof=1) / math.sqrt(seeds)
        # four standard errors per antenna, as the other rate checks here
        assert np.all(np.abs(counts.mean(axis=0) - want) <= 4 * err)

    def test_clusters_without_chains_rejected(self):
        cfg = small_config()
        bare = replace(initial_clusters(cfg, 6)[0], tx_chain=None)
        with pytest.raises(ValueError, match="tx_chain and rx_chain"):
            evolve_array([bare], cfg.array, cfg.evolution, 8)

    def test_inputs_not_mutated(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 6)
        before = [(c.uid, set(c.visible_rx)) for c in clusters]
        evolve_array(clusters, cfg.array, cfg.evolution, 8)
        assert [(c.uid, set(c.visible_rx)) for c in clusters] == before


class TestEvolveTime:
    def test_zero_dt_is_identity(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 2)
        out = evolve_time(clusters, 0.0, cfg, 3)
        assert [c.uid for c in out] == [c.uid for c in clusters]
        assert [c.power for c in out] == [c.power for c in clusters]

    def test_negative_dt_rejected(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 2)
        with pytest.raises(ValueError):
            evolve_time(clusters, -0.1, cfg, 3)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -0.1, True, "1"])
    def test_dt_that_is_not_a_time_fails_by_name(self, dt):
        # nan used to fail inside numpy ("lam < 0 or lam is NaN")
        cfg = small_config()
        clusters = initial_clusters(cfg, 2)
        with pytest.raises(ValueError, match="dt must be a finite non-negative time"):
            evolve_time(clusters, dt, cfg, 3)

    def test_survival_fraction(self):
        cfg = small_config(rays_per_cluster=1)
        rate = time_decay_rate(cfg.evolution)
        dt = math.log(2.0) / rate  # half-life step
        kept = total = 0
        for seed in range(300):
            clusters = initial_clusters(cfg, seed)
            out = evolve_time(clusters, dt, cfg, seed + 50_000)
            uids = {c.uid for c in clusters}
            kept += sum(1 for c in out if c.uid in uids)
            total += len(clusters)
        assert kept / total == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / total))

    def test_survivors_keep_geometry_newborns_renumbered(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 12)
        out = evolve_time(clusters, 100.0, cfg, 13)
        olds = {c.uid: c for c in clusters}
        for i, c in enumerate(out):
            assert c.index == i + 1
            if c.uid in olds:
                assert c.semi_major == olds[c.uid].semi_major
                assert c.mean_aoa == olds[c.uid].mean_aoa
            else:
                assert c.uid > max(olds)

    def test_steady_state_mean_count(self):
        cfg = small_config(rays_per_cluster=1)
        rate = time_decay_rate(cfg.evolution)
        dt = 0.5 / rate
        rng = np.random.default_rng(99)
        clusters = initial_clusters(cfg, 17)
        counts = []
        for _ in range(12_000):
            clusters = evolve_time(clusters, dt, cfg, rng)
            counts.append(len(clusters))
        assert np.mean(counts[2000:]) == pytest.approx(cfg.mean_cluster_count, rel=0.05)

    def test_deterministic_under_seed(self):
        cfg = small_config()
        clusters = initial_clusters(cfg, 4)
        a = evolve_time(clusters, 2.0, cfg, 77)
        b = evolve_time(clusters, 2.0, cfg, 77)
        assert [c.uid for c in a] == [c.uid for c in b]
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.ray_aoas, cb.ray_aoas)
