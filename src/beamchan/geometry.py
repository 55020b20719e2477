"""Ellipse and uniform-linear-array geometry.

Scatterer clusters live on confocal ellipses whose foci are the transmit
and receive array centers.  The coordinate frame is fixed once for the
whole package: transmit focus at (-f, 0), receive focus at (+f, 0), all
angles measured counterclockwise from the positive x axis.  Antenna 1 of
a uniform linear array sits at the positive end of the array axis, so
antenna index l has signed offset (count - 2l + 1) * spacing / 2 from
the array center along the tilt direction.

Everything in this module is pure and deterministic.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

__all__ = [
    "SPEED_OF_LIGHT",
    "ArrayConfig",
    "EllipseConfig",
    "VirtualAngleGrid",
    "virtual_angles",
    "aod_from_aoa",
    "rx_focal_distance",
    "antenna_offset",
    "antenna_distances",
    "antenna_distance_tx",
    "antenna_distance_rx",
    "ray_doppler",
    "los_path_from_offsets",
    "los_doppler_from_offsets",
    "los_geometry",
    "los_doppler",
    "nearest_beam",
]


def require_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` if ``value`` is a bool or not an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integers(owner, *names: str) -> None:
    """``require_integer`` on each field of ``owner`` in ``names``."""
    for name in names:
        require_integer(name, getattr(owner, name))


@dataclass(frozen=True)
class ArrayConfig:
    """Transmit and receive uniform linear arrays.

    Spacings are in meters, tilts in radians (angle of the array axis
    against the x axis, restricted to [0, pi)).
    """

    num_tx: int = 32
    num_rx: int = 32
    spacing_tx: float = 0.06
    spacing_rx: float = 0.06
    tilt_tx: float = math.pi / 2
    tilt_rx: float = math.pi / 2

    def __post_init__(self):
        require_integers(self, "num_tx", "num_rx")
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("antenna counts must be at least 1")
        if self.spacing_tx <= 0 or self.spacing_rx <= 0:
            raise ValueError("antenna spacings must be positive")
        if not (0 <= self.tilt_tx < math.pi) or not (0 <= self.tilt_rx < math.pi):
            raise ValueError("array tilts must lie in [0, pi)")


@dataclass(frozen=True)
class EllipseConfig:
    """One confocal ellipse: semi-major axis and focal half-separation."""

    semi_major: float = 100.0
    focal_half: float = 80.0

    def __post_init__(self):
        if not (self.semi_major > self.focal_half > 0):
            raise ValueError("ellipse requires semi_major > focal_half > 0")


def virtual_angles(num_beams: int) -> np.ndarray:
    """Uniform angle grid -pi + 2*pi*m/M for m = 1..M (last entry is pi)."""
    if num_beams < 1:
        raise ValueError("num_beams must be at least 1")
    m = np.arange(1, num_beams + 1, dtype=float)
    return -math.pi + 2.0 * math.pi * m / num_beams


def rx_focal_distance(aoa, ellipse: EllipseConfig):
    """Distance from the receive focus to the ellipse point at polar angle aoa.

    Focal polar equation r(theta) = (a^2 - f^2) / (a + f*cos(theta)).
    """
    a, f = ellipse.semi_major, ellipse.focal_half
    return (a * a - f * f) / (a + f * np.cos(aoa))


def aod_from_aoa(aoa, ellipse: EllipseConfig):
    """Departure angle at the transmit focus for a given arrival angle.

    The scatterer is placed on the ellipse at polar angle ``aoa`` from the
    receive focus; the returned angle is the direction of that point seen
    from the transmit focus.  Accepts scalars or arrays.
    """
    f = ellipse.focal_half
    r = rx_focal_distance(aoa, ellipse)
    # Cartesian position relative to the transmit focus at (-f, 0):
    # scatterer = (f + r*cos(aoa), r*sin(aoa)), so shift by +2f in x.
    return np.arctan2(r * np.sin(aoa), r * np.cos(aoa) + 2.0 * f)


def antenna_offset(index, count: int, spacing: float):
    """Signed offset of antenna ``index`` (1-based, scalar or array) from
    the array center."""
    index = np.asarray(index)
    bad = index[(index < 1) | (index > count)]
    if bad.size:
        raise ValueError(f"antenna index {bad[0]} out of range 1..{count}")
    return (count - 2 * index + 1) * spacing / 2.0


def antenna_distances(center, angles, tilt: float, offsets):
    """Exact antenna-to-scatterer distances, an (A, N) array.

    Law of cosines between the center-to-scatterer segments (A paths of
    length ``center`` in direction ``angles``) and the N antenna
    ``offsets`` along the array axis at ``tilt``: the spherical
    wavefront distance, no plane-wave approximation.
    """
    c = np.asarray(center, dtype=float).reshape(-1, 1)
    ca = np.cos(np.asarray(angles, dtype=float) - tilt).reshape(-1, 1)
    o = np.asarray(offsets, dtype=float)
    return np.sqrt(c * c + o * o - 2.0 * c * o * ca)


def antenna_distance_tx(center_dist, aod, antenna_index, array: ArrayConfig):
    """(antennas, paths) distances from the transmit antennas
    ``antenna_index`` (1-based) to the scatterers at departure angles
    ``aod``, C-ordered: the rounding of sums over paths can depend on
    the layout."""
    off = antenna_offset(antenna_index, array.num_tx, array.spacing_tx)
    return np.ascontiguousarray(antenna_distances(center_dist, aod, array.tilt_tx, off).T)


def antenna_distance_rx(center_dist, aoa, antenna_index, array: ArrayConfig):
    """(antennas, paths) distances from the receive antennas
    ``antenna_index`` (1-based) to the scatterers at arrival angles ``aoa``."""
    off = antenna_offset(antenna_index, array.num_rx, array.spacing_rx)
    return np.ascontiguousarray(antenna_distances(center_dist, aoa, array.tilt_rx, off).T)


def ray_doppler(aoas, max_doppler: float, velocity_angle: float):
    """Doppler shift of rays or beams arriving from ``aoas``."""
    return max_doppler * np.cos(np.asarray(aoas) - velocity_angle)


def los_path_from_offsets(off_tx, off_rx, ellipse: EllipseConfig,
                          tilt_tx: float, tilt_rx: float):
    """Direct-path geometry for raw antenna offsets (vectorized).

    Returns (dist_l, alpha_l, dist_kl) where dist_l is the transmit
    antenna to receive-center distance, alpha_l the elevation of that
    path and dist_kl the full antenna-to-antenna distance.
    """
    off_tx = np.asarray(off_tx, dtype=float)
    off_rx = np.asarray(off_rx, dtype=float)
    sep = 2.0 * ellipse.focal_half
    dist_l = np.sqrt(sep * sep + off_tx * off_tx
                     - 2.0 * sep * off_tx * np.cos(tilt_tx))
    # bounded by 1 because dist_l^2 - (off*sin)^2 = (sep - off*cos)^2 >= 0
    arg = np.where(dist_l > 0.0, off_tx * np.sin(tilt_tx) / np.where(dist_l > 0.0, dist_l, 1.0), 0.0)
    alpha_l = np.arcsin(np.clip(arg, -1.0, 1.0))
    # the receive center sees the transmit antenna at angle pi - alpha_l
    dist_kl = np.sqrt(dist_l * dist_l + off_rx * off_rx
                      + 2.0 * dist_l * off_rx * np.cos(alpha_l + tilt_rx))
    return dist_l, alpha_l, dist_kl


def los_doppler_from_offsets(off_tx, off_rx, ellipse: EllipseConfig,
                             tilt_tx: float, tilt_rx: float,
                             max_doppler: float, velocity_angle: float):
    """Direct-path length and Doppler for raw antenna offsets (vectorized).

    Returns (dist_kl, doppler) from one evaluation of
    ``los_path_from_offsets``: the antenna-to-antenna distance and the
    Doppler shift of the direct path.
    """
    dist_l, alpha_l, dist_kl = los_path_from_offsets(off_tx, off_rx, ellipse,
                                                     tilt_tx, tilt_rx)
    # at broadside dist_kl >= dist_l*|sin(alpha_l - tilt_rx)|; off broadside
    # the ratio can pass 1 by about off_rx/dist_l, hence the clip
    arg = np.where(dist_kl > 0.0,
                   dist_l / np.where(dist_kl > 0.0, dist_kl, 1.0)
                   * np.sin(alpha_l - tilt_rx), 0.0)
    inner = np.arcsin(np.clip(arg, -1.0, 1.0))
    return dist_kl, max_doppler * np.cos(tilt_rx - velocity_angle + inner)


def _los_frame(antenna_l, antenna_k, ellipse, array: ArrayConfig):
    return (antenna_offset(antenna_l, array.num_tx, array.spacing_tx),
            antenna_offset(antenna_k, array.num_rx, array.spacing_rx),
            ellipse, array.tilt_tx, array.tilt_rx)


def los_geometry(antenna_l, antenna_k, ellipse: EllipseConfig, array: ArrayConfig):
    """``los_path_from_offsets`` between transmit antennas ``antenna_l`` and
    receive antennas ``antenna_k`` (1-based, broadcast against each other)."""
    return los_path_from_offsets(*_los_frame(antenna_l, antenna_k, ellipse, array))


def los_doppler(antenna_l, antenna_k, ellipse: EllipseConfig, array: ArrayConfig,
                max_doppler: float, velocity_angle: float):
    """``los_doppler_from_offsets`` between transmit antennas ``antenna_l``
    and receive antennas ``antenna_k`` (1-based, broadcast): the direct
    path's (distance, Doppler)."""
    return los_doppler_from_offsets(*_los_frame(antenna_l, antenna_k, ellipse, array),
                                    max_doppler, velocity_angle)


def nearest_beam(angle: float, num_beams: int) -> int:
    """1-based index of the grid angle closest to ``angle`` (wrap-aware).

    Ties break toward the smaller index.
    """
    grid = virtual_angles(num_beams)
    diff = np.abs((angle - grid + math.pi) % (2.0 * math.pi) - math.pi)
    return int(np.argmin(diff)) + 1


@dataclass(frozen=True)
class VirtualAngleGrid:
    """The M uniformly sampled beam directions and their departure angles."""

    num_beams: int
    aoa: np.ndarray = field(repr=False)
    aod: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, num_beams: int, ellipse: EllipseConfig) -> "VirtualAngleGrid":
        aoa = virtual_angles(num_beams)
        aod = aod_from_aoa(aoa, ellipse)
        return cls(num_beams=num_beams, aoa=aoa, aod=aod)
