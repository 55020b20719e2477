"""Closed-form real-operation (RO) counts for generating one channel sample.

The counts are analytical, not measured: they evaluate the per-model
cost formulas with exact integer arithmetic.  The antenna-domain model
pays per antenna pair and per ray, the beam-domain model per beam and
per antenna (additively), which is the whole point of the comparison:
for large arrays the beam-domain cost grows like M_R + M_T instead of
M_R * M_T.
"""
from __future__ import annotations

from dataclasses import dataclass

from .geometry import require_integer

__all__ = [
    "ComplexityReport",
    "ro_gbsm",
    "ro_bdcm",
    "ro_bdcm_split",
    "complexity_sweep",
]


@dataclass(frozen=True)
class ComplexityReport:
    model: str
    ro_count: int
    num_rx: int
    num_tx: int
    rays: int | None = None
    clusters: int | None = None
    beams: int | None = None


def _require_counts(**counts):
    for name, value in counts.items():
        require_integer(name, value)
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def ro_gbsm(num_rx: int, num_tx: int, rays: int, clusters: int) -> int:
    """RO count of one antenna-domain channel sample.

    Direct-path part plus, per cluster, the ray sum over every antenna
    pair, plus one addition combining the two parts.
    """
    _require_counts(num_rx=num_rx, num_tx=num_tx, rays=rays, clusters=clusters)
    pairs = int(num_rx) * int(num_tx)
    los = 174 * pairs + 3
    nlos = int(clusters) * ((int(rays) - 1) * (208 * pairs + 19) + 4)
    return los + nlos + 1


def ro_bdcm_split(num_rx: int, num_tx: int, beams: int) -> tuple[int, int]:
    """(direct-path, diffuse) RO counts of one beam-domain sample."""
    _require_counts(num_rx=num_rx, num_tx=num_tx, beams=beams)
    s = int(num_rx) + int(num_tx)
    los = 3 + (122 * s + 181) * int(beams)
    nlos = 3 + (122 * s + 77) * int(beams)
    return los, nlos


def ro_bdcm(num_rx: int, num_tx: int, beams: int) -> int:
    """RO count of one beam-domain channel sample (direct plus diffuse)."""
    los, nlos = ro_bdcm_split(num_rx, num_tx, beams)
    return los + nlos


def complexity_sweep(antenna_range, rays: int, clusters: int, beam_values
                     ) -> list[ComplexityReport]:
    """Cost table over square array sizes, one row per model variant.

    For each antenna count n in ``antenna_range`` the table holds the
    antenna-domain count (depends on rays and clusters, not beams) and
    one beam-domain count per entry of ``beam_values``.
    """
    antenna_range = list(antenna_range)
    beam_values = list(beam_values)
    if not antenna_range or not beam_values:
        raise ValueError("antenna_range and beam_values must be non-empty")
    table = []
    for n in antenna_range:
        table.append(ComplexityReport(model="gbsm",
                                      ro_count=ro_gbsm(n, n, rays, clusters),
                                      num_rx=n, num_tx=n, rays=rays,
                                      clusters=clusters))
        for m in beam_values:
            table.append(ComplexityReport(model="bdcm",
                                          ro_count=ro_bdcm(n, n, m),
                                          num_rx=n, num_tx=n, beams=m))
    return table
