"""Output checks: seed-independent invariants and stored references.

Every check returns a list of problems (empty when the output passes).
References are compared within tolerances that admit summation-order
drift in the last bits but not a change of the physics: correlation
values are bounded by one in magnitude, so an absolute tolerance of
1e-9 is far above rounding noise and far below any modelling change.
"""
from __future__ import annotations

import math

import numpy as np

RHO_EPS = 1e-9          # |rho| <= 1 + RHO_EPS
VALUE_TOL = 1e-9        # absolute, correlation values
STD_ERROR_TOL = 1e-6    # absolute, std errors (sqrt of a difference of means)
CHECKSUM_RTOL = 1e-9    # relative to the norm of the checked tensor
STRUCTURE_TOL = 1e-9    # absolute, BDCM block against U_R diag U_T^H


def curve_invariants(label, series, ensemble) -> list[str]:
    """Finite, bounded by one, and exactly 1+0j (std error 0) at lag zero."""
    values = np.asarray(series.values)
    err = np.asarray(series.std_error)
    problems = []
    if series.ensemble != ensemble:
        problems.append(f"{label}: ensemble {series.ensemble} != {ensemble}")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(err))):
        problems.append(f"{label}: non-finite value or std_error")
        return problems
    if np.any(np.abs(values) > 1.0 + RHO_EPS):
        problems.append(f"{label}: |rho| = {np.abs(values).max():.12g} > 1")
    if np.any(err < 0):
        problems.append(f"{label}: negative std_error")
    if series.lag_axis[0] != 0.0:
        problems.append(f"{label}: first lag is not zero")
    elif values[0] != 1.0 + 0.0j or err[0] != 0.0:
        problems.append(f"{label}: zero lag gives {values[0]!r} +- {err[0]!r}")
    return problems


def scalar_invariants(label, value) -> list[str]:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return [f"{label}: non-finite value"]
    if abs(value) > 1.0 + RHO_EPS:
        return [f"{label}: |rho| = {abs(value):.12g} > 1"]
    return []


def curve_summary(series) -> dict:
    values = np.asarray(series.values)
    return {"re": values.real.tolist(), "im": values.imag.tolist(),
            "std_error": np.asarray(series.std_error).tolist()}


def compare_curve(label, summary, ref) -> list[str]:
    got = np.asarray(summary["re"]) + 1j * np.asarray(summary["im"])
    want = np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])
    if got.shape != want.shape:
        return [f"{label}: {got.size} lags, reference has {want.size}"]
    problems = []
    gap = np.abs(got - want).max()
    if gap > VALUE_TOL:
        problems.append(f"{label}: differs from reference by {gap:.3g}")
    err_gap = np.abs(np.asarray(summary["std_error"]) - np.asarray(ref["std_error"])).max()
    if err_gap > STD_ERROR_TOL:
        problems.append(f"{label}: std_error differs from reference by {err_gap:.3g}")
    return problems


def compare_scalar(label, summary, ref) -> list[str]:
    gap = abs(complex(*summary) - complex(*ref))
    return [f"{label}: differs from reference by {gap:.3g}"] if gap > VALUE_TOL else []


def _unit_phasors(count, seed):
    return np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * math.pi, count))


def tensor_checksum(coeffs) -> dict:
    """Order-free fingerprint: shape, nonzero count, power, one projection.

    The projection weights every coefficient by a fixed unit phasor per
    axis, so changing any coefficient moves it unless the change is
    orthogonal to a fixed random vector.
    """
    nr, nt, nc = coeffs.shape
    proj = (_unit_phasors(nr, 1) @ coeffs.reshape(nr, nt * nc)).reshape(nt, nc)
    proj = _unit_phasors(nc, 3) @ (_unit_phasors(nt, 2) @ proj)
    return {"shape": [nr, nt, nc], "nnz": int(np.count_nonzero(coeffs)),
            "power": float(np.vdot(coeffs, coeffs).real),
            "proj": [float(proj.real), float(proj.imag)]}


def compare_checksum(label, got, ref) -> list[str]:
    if got["shape"] != ref["shape"] or got["nnz"] != ref["nnz"]:
        return [f"{label}: shape/nonzeros {got['shape']}/{got['nnz']} "
                f"!= {ref['shape']}/{ref['nnz']}"]
    problems = []
    scale = max(ref["power"], 1e-300)
    if abs(got["power"] - ref["power"]) > CHECKSUM_RTOL * scale:
        problems.append(f"{label}: power {got['power']!r} != {ref['power']!r}")
    # |proj| <= sqrt(power * count) by Cauchy-Schwarz
    bound = CHECKSUM_RTOL * math.sqrt(scale * math.prod(ref["shape"]))
    if abs(complex(*got["proj"]) - complex(*ref["proj"])) > bound:
        problems.append(f"{label}: projection differs from reference")
    return problems


def visibility_mask(cluster, num_rx, num_tx):
    rx = np.zeros(num_rx, dtype=bool)
    tx = np.zeros(num_tx, dtype=bool)
    rx[[k - 1 for k in cluster.visible_rx]] = True
    tx[[l - 1 for l in cluster.visible_tx]] = True
    return rx[:, None] & tx[None, :]


def realization_invariants(label, real, clusters, shape) -> list[str]:
    """Finite, right shape, exactly zero outside each cluster's visibility."""
    coeffs = real.coeffs
    if coeffs.shape != shape:
        return [f"{label}: shape {coeffs.shape} != {shape}"]
    if not np.all(np.isfinite(coeffs)):
        return [f"{label}: non-finite coefficient"]
    nr, nt, _ = shape
    for i, c in enumerate(clusters):
        outside = ~visibility_mask(c, nr, nt)
        if np.any(coeffs[:, :, i][outside] != 0):
            return [f"{label}: cluster {i + 1} non-zero outside its visibility"]
    return []


def bdcm_structure(label, bc, real, clusters, indices, t, config, phases) -> list[str]:
    """BDCM block of each checked cluster equals U_R diag U_T^H, masked."""
    problems = []
    for i in indices:
        c = clusters[i]
        ellipse = bc.gbsm.cluster_ellipse(c, config)
        grid = bc.geometry.VirtualAngleGrid.build(config.num_beams, ellipse)
        beam = bc.bdcm.beam_domain_entries(c, t, config, phases, grid)
        u_r = bc.bdcm.response_matrix_rx(grid, ellipse, config.array, config.wavelength)
        u_t = bc.bdcm.response_matrix_tx(grid, ellipse, config.array, config.wavelength)
        diag = beam.los_diag + beam.nlos_diag
        want = (u_r.entries * diag[None, :]) @ u_t.entries.conj().T
        want = want * visibility_mask(c, config.array.num_rx, config.array.num_tx)
        gap = np.abs(real.coeffs[:, :, i] - want).max()
        if gap > STRUCTURE_TOL:
            problems.append(f"{label}: cluster {i + 1} differs from U_R diag U_T^H by {gap:.3g}")
    return problems
