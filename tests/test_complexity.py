"""Operation-count formulas: exact values, structure, validation."""
import math

import pytest

from beamchan.complexity import (
    complexity_sweep,
    ro_bdcm,
    ro_bdcm_split,
    ro_gbsm,
)


def test_antenna_domain_spot_value():
    # single antenna pair, 20 rays, 20 clusters
    assert ro_gbsm(1, 1, 20, 20) == 86518


def test_beam_domain_spot_value():
    assert ro_bdcm(1, 1, 20) == 14926


def test_independent_arithmetic_cross_check():
    # same formulas written out differently, big grid, exact match
    for mr in range(1, 11):
        for mt in range(1, 11):
            pairs = mr * mt
            want = 174 * pairs + 3 + 20 * (19 * (208 * pairs + 19) + 4) + 1
            assert ro_gbsm(mr, mt, 20, 20) == want
            for m in (20, 200, 400):
                want_b = 6 + (244 * (mr + mt) + 258) * m
                assert ro_bdcm(mr, mt, m) == want_b


def test_ten_by_ten_values():
    assert ro_gbsm(10, 10, 20, 20) == 7_928_704
    assert ro_bdcm(10, 10, 400) == 2_055_206


def test_split_identity():
    for mr, mt, m in [(1, 1, 20), (3, 7, 200), (10, 10, 400)]:
        los, nlos = ro_bdcm_split(mr, mt, m)
        assert los + nlos == ro_bdcm(mr, mt, m)
        assert los - nlos == 104 * m  # the direct part costs more per beam


def test_single_ray_collapse():
    # one ray per cluster: the per-ray bracket vanishes and only the
    # per-cluster constant remains
    n = 17
    assert ro_gbsm(2, 3, 1, n) == 174 * 6 + 3 + 4 * n + 1


def test_linearity_in_antenna_pairs():
    base = ro_gbsm(2, 5, 20, 20)
    double = ro_gbsm(4, 5, 20, 20)
    # the affine offset is the pair-independent part
    offset = 3 + 20 * (19 * 19 + 4) + 1
    assert double - offset == 2 * (base - offset)
    # the beam-domain count is additive, not multiplicative
    assert ro_bdcm(4, 5, 20) - ro_bdcm(2, 5, 20) == ro_bdcm(4, 1, 20) - ro_bdcm(2, 1, 20)


def test_monotonicity():
    assert ro_gbsm(2, 2, 20, 20) > ro_gbsm(1, 2, 20, 20)
    assert ro_gbsm(1, 1, 21, 20) > ro_gbsm(1, 1, 20, 20)
    assert ro_gbsm(1, 1, 20, 21) > ro_gbsm(1, 1, 20, 20)
    assert ro_bdcm(2, 1, 20) > ro_bdcm(1, 1, 20)
    assert ro_bdcm(1, 1, 21) > ro_bdcm(1, 1, 20)


def test_exact_integers_no_overflow():
    big = ro_gbsm(10_000, 10_000, 500, 1000)
    assert isinstance(big, int)
    assert big == 174 * 10**8 + 3 + 1000 * (499 * (208 * 10**8 + 19) + 4) + 1


def test_validation():
    with pytest.raises(ValueError):
        ro_gbsm(0, 1, 20, 20)
    with pytest.raises(ValueError):
        ro_gbsm(1, 1, 20, -2)
    with pytest.raises(ValueError):
        ro_bdcm(1, 0, 20)
    with pytest.raises(ValueError):
        complexity_sweep([], 20, 20, [20])
    with pytest.raises(ValueError):
        complexity_sweep([1], 20, 20, [])
    # a row maps each beam count to its cost, so a repeated count would drop a column
    with pytest.raises(ValueError, match="beam_values must be distinct"):
        complexity_sweep([1], 20, 20, [20, 200, 20])
    # bools, floats and non-finite values are not counts, and fail by name
    for bad in (True, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="num_rx must be an integer"):
            ro_gbsm(bad, 2, 3, 4)
        with pytest.raises(ValueError, match="beams must be an integer"):
            ro_bdcm(1, 1, bad)


def test_sweep_shape_and_contents():
    table = complexity_sweep(range(1, 11), 20, 20, [20, 200, 400])
    # one row per antenna count: n, the GBSM count, the BDCM count per beam grid
    assert [n for n, _, _ in table] == list(range(1, 11))
    assert all(list(bdcm) == [20, 200, 400] for _, _, bdcm in table)
    assert all(gbsm > 0 and min(bdcm.values()) > 0 for _, gbsm, bdcm in table)
    n, gbsm, bdcm = table[4]
    assert n == 5 and gbsm == ro_gbsm(5, 5, 20, 20) and bdcm[200] == ro_bdcm(5, 5, 200)
