"""Closed-form real-operation (RO) counts for generating one channel sample.

The counts are analytical, not measured: they evaluate the per-model
cost formulas with exact integer arithmetic.  The antenna-domain model
pays per antenna pair and per ray, the beam-domain model per beam and
per antenna (additively), which is the whole point of the comparison:
for large arrays the beam-domain cost grows like M_R + M_T instead of
M_R * M_T.
"""
from __future__ import annotations

from .geometry import require_integer

__all__ = ["ro_gbsm", "ro_bdcm", "ro_bdcm_split", "complexity_sweep"]


def _require_counts(**counts):
    for name, value in counts.items():
        require_integer(name, value, floor=1)


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
                     ) -> list[tuple[int, int, dict[int, int]]]:
    """Cost table over square n x n arrays, one row per antenna count n in
    ``antenna_range``: ``(n, gbsm, bdcm)``, with the antenna-domain count
    (depends on rays and clusters, not beams) and ``bdcm`` mapping each
    entry of ``beam_values``, in order, to its beam-domain count.
    """
    antenna_range = list(antenna_range)
    beam_values = list(beam_values)
    if not antenna_range or not beam_values:
        raise ValueError("antenna_range and beam_values must be non-empty")
    if len(set(beam_values)) < len(beam_values):
        raise ValueError(f"beam_values must be distinct, got {beam_values}")
    return [(n, ro_gbsm(n, n, rays, clusters), {m: ro_bdcm(n, n, m) for m in beam_values})
            for n in antenna_range]
