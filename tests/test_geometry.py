import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamchan.geometry import (
    ArrayConfig,
    EllipseConfig,
    VirtualAngleGrid,
    antenna_distance_rx,
    antenna_distance_tx,
    antenna_offset,
    aod_from_aoa,
    los_doppler,
    los_geometry,
    nearest_beam,
    rx_focal_distance,
    virtual_angles,
)

ELLIPSE = EllipseConfig(semi_major=100.0, focal_half=80.0)


def distance_tx(center, aod, index, arr):
    """Distance from transmit antenna ``index`` (one row of the kernel)."""
    return antenna_distance_tx(center, aod, [index], arr)[0]


def distance_rx(center, aoa, index, arr):
    """Distance from receive antenna ``index`` (one row of the kernel)."""
    return antenna_distance_rx(center, aoa, [index], arr)[0]


def center_geometry(aoa, ellipse):
    """(aod, d_tx, d_rx) of the scatterer at ``aoa``, as the models build it."""
    d_rx = rx_focal_distance(aoa, ellipse)
    return aod_from_aoa(aoa, ellipse), 2.0 * ellipse.semi_major - d_rx, d_rx


def center_distances_sine_rule(aoa, aod, ellipse):
    """Sine-rule form of the center distances, as a cross-check.

    tx = 2a*sin(aoa)/(sin(aoa)+sin(aod)), rx = 2a*sin(aod)/(...): the
    interior angle at the receive focus (pi - aoa here) faces the tx
    side.  Degenerate collinear angles fall back to the a +- f closed
    form.  Signs of the interior angles are handled through abs().
    """
    a, f = ellipse.semi_major, ellipse.focal_half
    sa = np.abs(np.sin(aoa))
    sd = np.abs(np.sin(aod))
    denom = sa + sd
    collinear = denom < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        tx = np.where(collinear, 0.0, 2.0 * a * sa / np.where(collinear, 1.0, denom))
        rx = np.where(collinear, 0.0, 2.0 * a * sd / np.where(collinear, 1.0, denom))
    # collinear scatterer: behind the receiver (aoa=0) or behind the
    # transmitter (aoa=pi)
    if np.any(collinear):
        near = np.cos(aoa) > 0
        tx = np.where(collinear, np.where(near, a + f, a - f), tx)
        rx = np.where(collinear, np.where(near, a - f, a + f), rx)
    return tx, rx


def ellipses():
    return st.builds(
        lambda a, ratio: EllipseConfig(a, a * ratio),
        st.floats(0.1, 1e4),
        st.floats(0.001, 0.99),
    )


angles = st.floats(-math.pi, math.pi, allow_nan=False)


class TestVirtualAngles:
    def test_four_beams(self):
        np.testing.assert_allclose(
            virtual_angles(4), [-math.pi / 2, 0.0, math.pi / 2, math.pi], atol=1e-15
        )

    def test_single_beam(self):
        np.testing.assert_allclose(virtual_angles(1), [math.pi])

    def test_uniform_spacing(self):
        grid = virtual_angles(8)
        np.testing.assert_allclose(np.diff(grid), math.pi / 4, rtol=1e-15)

    def test_strictly_increasing_and_ends_at_pi(self):
        grid = virtual_angles(37)
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] == pytest.approx(math.pi, abs=1e-15)

    def test_zero_beams_rejected(self):
        with pytest.raises(ValueError):
            virtual_angles(0)


class TestAodFromAoa:
    def test_collinear_beyond_receiver(self):
        assert aod_from_aoa(0.0, ELLIPSE) == pytest.approx(0.0, abs=1e-15)

    def test_collinear_behind_transmitter(self):
        assert aod_from_aoa(math.pi, ELLIPSE) == pytest.approx(math.pi, abs=1e-12)

    def test_broadside_scatterer(self):
        # scatterer at (80, 36) seen from the transmit focus (-80, 0):
        # atan2(36, 160), checked against the ellipse sum 164 + 36 = 200
        assert aod_from_aoa(math.pi / 2, ELLIPSE) == pytest.approx(
            0.2213144423477913, abs=1e-12
        )

    @given(aoa=angles, ellipse=ellipses())
    def test_ellipse_sum_invariant(self, aoa, ellipse):
        _, tx, rx = center_geometry(aoa, ellipse)
        assert tx + rx == pytest.approx(2.0 * ellipse.semi_major, rel=1e-9)

    @given(aoa=angles, ellipse=ellipses())
    def test_scatterer_really_sits_at_the_departure_angle(self, aoa, ellipse):
        # Cartesian placement from the receive focus must be seen from the
        # transmit focus under the returned angle.
        r = rx_focal_distance(aoa, ellipse)
        x = ellipse.focal_half + r * math.cos(aoa)
        y = r * math.sin(aoa)
        aod = aod_from_aoa(aoa, ellipse)
        expected = math.atan2(y, x + ellipse.focal_half)
        assert aod == pytest.approx(expected, abs=1e-12)


class TestCenterDistances:
    def test_broadside_example(self):
        _, tx, rx = center_geometry(math.pi / 2, ELLIPSE)
        assert tx == pytest.approx(164.0, rel=1e-12)
        assert rx == pytest.approx(36.0, rel=1e-12)

    def test_collinear_closed_form(self):
        _, tx, rx = center_geometry(0.0, ELLIPSE)
        assert (tx, rx) == (pytest.approx(180.0), pytest.approx(20.0))
        _, tx, rx = center_geometry(math.pi, ELLIPSE)
        assert (tx, rx) == (pytest.approx(20.0), pytest.approx(180.0))

    @given(aoa=st.floats(0.05, math.pi - 0.05), ellipse=ellipses())
    def test_sine_rule_cross_check(self, aoa, ellipse):
        aod, tx, rx = center_geometry(aoa, ellipse)
        tx2, rx2 = center_distances_sine_rule(aoa, aod, ellipse)
        assert tx == pytest.approx(tx2, rel=1e-9)
        assert rx == pytest.approx(rx2, rel=1e-9)

    @given(aoa=angles, ellipse=ellipses())
    def test_distances_bounded_by_ellipse_extremes(self, aoa, ellipse):
        _, tx, rx = center_geometry(aoa, ellipse)
        lo = ellipse.semi_major - ellipse.focal_half
        hi = ellipse.semi_major + ellipse.focal_half
        assert lo * (1 - 1e-9) <= tx <= hi * (1 + 1e-9)
        assert lo * (1 - 1e-9) <= rx <= hi * (1 + 1e-9)

    @given(aoa=st.floats(0.05, math.pi - 0.05), ellipse=ellipses())
    def test_law_of_sines_ratio(self, aoa, ellipse):
        # tx side faces the interior angle at the receive focus (sin = sin aoa),
        # rx side faces the interior angle at the transmit focus (sin = sin aod)
        aod, tx, rx = center_geometry(aoa, ellipse)
        assert tx * abs(math.sin(aod)) == pytest.approx(
            rx * abs(math.sin(aoa)), rel=1e-9
        )


class TestAntennaDistances:
    def test_transmit_example(self):
        # independent Cartesian oracle: antenna 1 at (-80, 0.03), scatterer
        # at (80, 36), so the distance is hypot(160, 35.97) ~ 163.9934 m
        arr = ArrayConfig(num_tx=2, num_rx=2, spacing_tx=0.06, spacing_rx=0.06)
        d = distance_tx(164.0, 0.2213144423477913, 1, arr)
        assert d == pytest.approx(math.hypot(160.0, 35.97), rel=1e-11)

    def test_receive_aligned_example(self):
        arr = ArrayConfig(num_tx=2, num_rx=2, spacing_tx=0.06, spacing_rx=0.06)
        d = distance_rx(36.0, math.pi / 2, 1, arr)
        assert d == pytest.approx(math.sqrt(36.0**2 + 0.03**2 - 36.0 * 0.06), rel=1e-12)

    def test_single_antenna_reduces_to_center(self):
        arr = ArrayConfig(num_tx=1, num_rx=1, spacing_tx=0.5, spacing_rx=0.5)
        assert distance_tx(164.0, 0.3, 1, arr) == pytest.approx(164.0)
        assert distance_rx(36.0, 1.1, 1, arr) == pytest.approx(36.0)

    def test_broadside_cross_term_vanishes(self):
        arr = ArrayConfig(num_tx=2, num_rx=2, spacing_tx=0.06, spacing_rx=0.06)
        aod = arr.tilt_tx - math.pi / 2
        d = distance_tx(50.0, aod, 1, arr)
        assert d == pytest.approx(math.sqrt(50.0**2 + 0.03**2), rel=1e-12)

    def test_index_out_of_range(self):
        arr = ArrayConfig(num_tx=4, num_rx=4)
        with pytest.raises(ValueError):
            antenna_offset(5, arr.num_tx, arr.spacing_tx)
        with pytest.raises(ValueError):
            antenna_offset(0, arr.num_rx, arr.spacing_rx)
        with pytest.raises(ValueError, match="index 5 out of range 1..4"):
            antenna_offset(np.arange(1, 6), 4, 0.06)

    def test_offset_accepts_index_arrays(self):
        np.testing.assert_array_equal(
            antenna_offset(np.arange(1, 9), 8, 0.06),
            [antenna_offset(k, 8, 0.06) for k in range(1, 9)])

    def test_mirror_offsets_negate(self):
        for k in range(1, 9):
            assert antenna_offset(k, 8, 0.06) == -antenna_offset(9 - k, 8, 0.06)

    def test_mirror_antennas_match_at_broadside(self):
        arr = ArrayConfig(num_tx=8, num_rx=8, tilt_tx=math.pi / 2, tilt_rx=math.pi / 2)
        aoa = arr.tilt_rx - math.pi / 2  # perpendicular: cross term vanishes
        for k in (1, 2, 3):
            assert distance_rx(40.0, aoa, k, arr) == pytest.approx(
                distance_rx(40.0, aoa, 9 - k, arr), rel=1e-15
            )

    @given(
        phi=angles,
        beta=st.floats(0.0, math.pi - 1e-6),
        spacing=st.floats(0.01, 1.0),
    )
    @settings(max_examples=50)
    def test_far_field_path_difference(self, phi, beta, spacing):
        # very distant scatterer: the exact distances collapse to the
        # plane-wave difference (l - l') * spacing * cos(beta - phi)
        dist = 1e6 * spacing
        arr = ArrayConfig(num_tx=2, num_rx=2, spacing_tx=spacing, spacing_rx=spacing,
                          tilt_tx=beta, tilt_rx=beta)
        d1 = distance_tx(dist, phi, 1, arr)
        d2 = distance_tx(dist, phi, 2, arr)
        expected = (1 - 2) * spacing * math.cos(beta - phi)
        assert d1 - d2 == pytest.approx(expected, abs=1e-6 * spacing)

    @given(
        aoa=angles,
        ellipse=ellipses(),
        tilt_t=st.floats(0.0, math.pi - 1e-9),
        tilt_r=st.floats(0.0, math.pi - 1e-9),
        spacing=st.floats(0.001, 2.0),
        num=st.integers(1, 16),
    )
    @settings(max_examples=100)
    def test_kernel_against_cartesian_coordinates(self, aoa, ellipse, tilt_t,
                                                  tilt_r, spacing, num):
        # both sides from explicit coordinates: scatterer on the ellipse
        # at arrival angle aoa, antennas displaced along the tilted axes
        # around the transmit focus (-f, 0) and the receive focus (+f, 0)
        f = ellipse.focal_half
        arr = ArrayConfig(num_tx=num, num_rx=num, spacing_tx=spacing,
                          spacing_rx=spacing, tilt_tx=tilt_t, tilt_rx=tilt_r)
        aod, d_tx, d_rx = center_geometry(np.array([aoa]), ellipse)
        scat = np.array([f + d_rx[0] * math.cos(aoa), d_rx[0] * math.sin(aoa)])
        index = np.arange(1, num + 1)
        offsets = antenna_offset(index, num, spacing)
        for got, tilt, focus in (
                (antenna_distance_tx(d_tx, aod, index, arr), tilt_t, -f),
                (antenna_distance_rx(d_rx, [aoa], index, arr), tilt_r, f)):
            assert got.shape == (num, 1) and got.flags.c_contiguous
            ant_x = focus + offsets * math.cos(tilt)
            ant_y = offsets * math.sin(tilt)
            want = np.hypot(scat[0] - ant_x, scat[1] - ant_y)
            scale = ellipse.semi_major + np.abs(offsets)
            assert np.all(np.abs(got[:, 0] - want) <= 1e-9 * scale)


class TestLosGeometry:
    def test_single_antennas_collapse_to_focal_separation(self):
        arr = ArrayConfig(num_tx=1, num_rx=1)
        assert tuple(map(float, los_geometry(1, 1, ELLIPSE, arr))) == (
            pytest.approx(160.0),
            pytest.approx(0.0),
            pytest.approx(160.0),
        )

    def test_two_element_broadside(self):
        arr = ArrayConfig(num_tx=2, num_rx=2, spacing_tx=0.06, spacing_rx=0.06)
        dist_l, alpha_l, dist_kl = los_geometry(1, 1, ELLIPSE, arr)
        assert dist_l == pytest.approx(math.sqrt(160.0**2 + 0.03**2), rel=1e-12)
        assert alpha_l == pytest.approx(math.asin(0.03 / dist_l), rel=1e-12)

    def test_broadside_right_triangle(self):
        arr = ArrayConfig(num_tx=5, num_rx=5, spacing_tx=0.1, spacing_rx=0.1,
                          tilt_tx=math.pi / 2, tilt_rx=math.pi / 2)
        off = antenna_offset(1, 5, 0.1)
        dist_l, alpha_l, _ = los_geometry(1, 3, ELLIPSE, arr)
        assert dist_l == pytest.approx(math.hypot(160.0, off), rel=1e-12)
        assert alpha_l == pytest.approx(math.asin(off / dist_l), rel=1e-12)

    def test_broadside_pairs_match_cartesian_coordinates(self):
        # at broadside the direct path is the plain antenna-to-antenna
        # distance; unequal sizes and spacings tell the two sides apart
        arr = ArrayConfig(num_tx=4, num_rx=3, spacing_tx=0.5, spacing_rx=0.9)
        l, k = np.arange(1, 5), np.arange(1, 4)
        _, _, dist_kl = los_geometry(l[None, :], k[:, None], ELLIPSE, arr)
        tx_y = antenna_offset(l, 4, 0.5)
        rx_y = antenna_offset(k, 3, 0.9)
        want = np.hypot(160.0, rx_y[:, None] - tx_y[None, :])
        np.testing.assert_allclose(dist_kl, want, rtol=1e-12)

    @given(
        tilt_t=st.floats(0.0, math.pi, exclude_max=True),
        tilt_r=st.floats(0.0, math.pi, exclude_max=True),
        spacing_t=st.floats(0.001, 1.0),
        spacing_r=st.floats(0.001, 1.0),
        num_t=st.integers(1, 16),
        num_r=st.integers(1, 16),
    )
    @settings(max_examples=100)
    def test_pairs_match_cartesian_coordinates_at_any_tilt(
            self, tilt_t, tilt_r, spacing_t, spacing_r, num_t, num_r):
        # every antenna pair from explicit coordinates: transmit antennas
        # along the tilted axis around (-f, 0), receive antennas around
        # (f, 0); offsets stay below 8 m against a 160 m focal separation
        arr = ArrayConfig(num_tx=num_t, num_rx=num_r, spacing_tx=spacing_t,
                          spacing_rx=spacing_r, tilt_tx=tilt_t, tilt_rx=tilt_r)
        l, k = np.arange(1, num_t + 1), np.arange(1, num_r + 1)
        dist_l, _, dist_kl = los_geometry(l[None, :], k[:, None], ELLIPSE, arr)
        f = ELLIPSE.focal_half
        off_t = antenna_offset(l, num_t, spacing_t)
        off_r = antenna_offset(k, num_r, spacing_r)
        tx = (-f + off_t * math.cos(tilt_t), off_t * math.sin(tilt_t))
        rx = (f + off_r * math.cos(tilt_r), off_r * math.sin(tilt_r))
        want_l = np.hypot(f - tx[0], tx[1])
        want_kl = np.hypot(rx[0][:, None] - tx[0][None, :],
                           rx[1][:, None] - tx[1][None, :])
        assert np.max(np.abs(dist_l - want_l[None, :])) <= 1e-12 * 2 * f
        assert np.max(np.abs(dist_kl - want_kl)) <= 1e-12 * 2 * f

    @given(
        tilt_t=st.floats(0.0, math.pi - 1e-9),
        tilt_r=st.floats(0.0, math.pi - 1e-9),
        spacing=st.floats(0.001, 2.0),
        num=st.integers(1, 64),
        l=st.integers(1, 64),
        k=st.integers(1, 64),
    )
    @settings(max_examples=100)
    def test_arcsin_arguments_always_valid(self, tilt_t, tilt_r, spacing, num, l, k):
        arr = ArrayConfig(num_tx=num, num_rx=num, spacing_tx=spacing,
                          spacing_rx=spacing, tilt_tx=tilt_t, tilt_rx=tilt_r)
        l, k = min(l, num), min(k, num)
        dist_l, alpha_l, dist_kl = los_geometry(l, k, ELLIPSE, arr)
        assert dist_l > 0 and dist_kl >= 0
        dist, f = los_doppler(l, k, ELLIPSE, arr, 33.33, math.pi / 6)
        assert dist == dist_kl
        assert abs(f) <= 33.33 * (1 + 1e-12)

    def test_center_doppler_matches_velocity_projection(self):
        arr = ArrayConfig(num_tx=1, num_rx=1)
        _, f = los_doppler(1, 1, ELLIPSE, arr, 33.33, math.pi / 6)
        assert f == pytest.approx(33.33 * math.cos(math.pi / 6), rel=1e-12)


class TestNearestBeam:
    def test_pi_maps_to_last_beam(self):
        for m in (1, 4, 7, 32):
            assert nearest_beam(math.pi, m) == m

    def test_zero_maps_to_second_of_four(self):
        assert nearest_beam(0.0, 4) == 2

    def test_tie_breaks_toward_smaller_index(self):
        # -pi/4 is exactly midway between -pi/2 (beam 1) and 0 (beam 2)
        assert nearest_beam(-math.pi / 4, 4) == 1

    def test_wraparound(self):
        # just below -pi is just above +pi after wrapping
        assert nearest_beam(-math.pi + 0.01, 4) == 4


class TestConfigValidation:
    def test_ellipse_rejects_degenerate(self):
        with pytest.raises(ValueError):
            EllipseConfig(semi_major=80.0, focal_half=80.0)
        with pytest.raises(ValueError):
            EllipseConfig(semi_major=100.0, focal_half=0.0)

    def test_array_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ArrayConfig(num_tx=0)
        with pytest.raises(ValueError):
            ArrayConfig(spacing_rx=0.0)
        with pytest.raises(ValueError):
            ArrayConfig(tilt_tx=math.pi)

    def test_grid_pairs_satisfy_ellipse_sum(self):
        grid = VirtualAngleGrid.build(64, ELLIPSE)
        _, tx, rx = center_geometry(grid.aoa, ELLIPSE)
        np.testing.assert_allclose(tx + rx, 200.0, rtol=1e-12)
