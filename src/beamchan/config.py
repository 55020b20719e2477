"""Simulation configuration: defaults, validation, JSON round-trip.

The default configuration matches the baseline space-correlation
experiment: 32x32 half-wavelength arrays at broadside, one cluster
ladder starting at a 100 m semi-major axis with 80 m focal half
separation, 0.12 m wavelength, 33.33 Hz maximum Doppler, von Mises ray
spread kappa=5 around a pi/3 mean arrival angle, pure NLOS.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

from .clusters import EvolutionConfig
from .geometry import (ArrayConfig, EllipseConfig, require_finite, require_integer,
                       require_integers, require_positive, require_time)

__all__ = [
    "SimulationConfig",
    "load_config",
    "loads_config",
    "config_to_dict",
    "save_config",
    "config_hash",
    "preset",
    "PRESET_NAMES",
]

_MODES = ("analytic", "sampled")
_NORMS = ("standard", "per_realization")
_WEIGHTINGS = ("von_mises", "uniform")


@dataclass(frozen=True)
class SimulationConfig:
    array: ArrayConfig = field(default_factory=ArrayConfig)
    ellipse: EllipseConfig = field(default_factory=EllipseConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    wavelength: float = 0.12
    max_doppler: float = 33.33
    velocity_angle: float = math.pi / 6
    rician_k: float = 0.0
    rays_per_cluster: int = 20
    num_beams: int = 400
    ensemble: int = 10_000
    seed: int = 1234
    time_samples: tuple = (1.0,)
    kappa: float = 5.0
    mean_aoa: float = math.pi / 3
    delay_spacing: float = 25e-9
    mean_clusters: float | None = None
    estimator_mode: str = "analytic"
    normalization: str = "standard"
    beam_weighting: str = "von_mises"

    def __post_init__(self):
        require_integers(self, "rays_per_cluster", "num_beams", "ensemble", floor=1)
        require_integer("seed", self.seed, floor=0)
        require_finite(self, "wavelength", "velocity_angle", "mean_aoa", "delay_spacing")
        require_finite(self, "max_doppler", "rician_k", "kappa", floor=0)
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.delay_spacing <= 0:
            raise ValueError("delay_spacing must be positive")
        # the initial count rejects empty draws, so a zero mean would never end
        if self.mean_clusters is not None:
            require_positive("mean_clusters", self.mean_clusters)
        elif self.evolution.death_rate <= 0:
            raise ValueError(
                "mean_clusters must be set when evolution.death_rate is zero")
        else:
            require_positive("evolution.birth_rate without mean_clusters",
                             self.evolution.birth_rate)
        if self.estimator_mode not in _MODES:
            raise ValueError(f"estimator_mode must be one of {_MODES}")
        if self.normalization not in _NORMS:
            raise ValueError(f"normalization must be one of {_NORMS}")
        if self.beam_weighting not in _WEIGHTINGS:
            raise ValueError(f"beam_weighting must be one of {_WEIGHTINGS}")
        try:
            object.__setattr__(self, "time_samples", tuple(self.time_samples))
        except TypeError:
            raise ValueError(f"time_samples must be a list of times, got {self.time_samples!r}") from None
        for t in self.time_samples:
            require_time("time_samples", t)
        if not self.time_samples:
            raise ValueError("time_samples must be non-empty")

    @property
    def mean_cluster_count(self) -> float:
        if self.mean_clusters is not None:
            return self.mean_clusters
        return self.evolution.birth_rate / self.evolution.death_rate

    def with_values(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)


_SECTIONS = {"array": ArrayConfig, "ellipse": EllipseConfig, "evolution": EvolutionConfig}


def _build(cls, data, section=None):
    """``cls`` from a parsed JSON object: the config root when ``section``
    is None, else the named section of it."""
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object" if section is None
                         else f"config section '{section}' must be an object")
    prefix = "" if section is None else f"{section}."
    kwargs = {}
    for key, value in data.items():
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown key '{prefix}{key}' in config")
        kwargs[key] = (_build(_SECTIONS[key], value, key)
                       if section is None and key in _SECTIONS else value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        where = "config" if section is None else f"config section '{section}'"
        raise ValueError(f"invalid {where}: {exc}") from exc


def loads_config(text: str) -> SimulationConfig:
    """Parse a JSON config string; empty input falls back to the defaults."""
    if not text.strip():
        return SimulationConfig()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    return _build(SimulationConfig, data)


def load_config(path) -> SimulationConfig:
    """Load a JSON config file; missing keys take the default values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return loads_config(text)


def config_to_dict(config: SimulationConfig) -> dict:
    data = asdict(config)
    data["time_samples"] = list(config.time_samples)
    return data


def save_config(config: SimulationConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config: SimulationConfig) -> str:
    """Stable short hash of the full configuration."""
    canon = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def preset(name: str) -> SimulationConfig:
    """Bundled experiment configurations for the reproduction recipes.

    fig3: receiver space cross-correlation, 32x32 arrays, 0.12 m
          wavelength, 30 m array decorrelation distance.
    fig4: cluster time autocorrelation at several absolute times,
          0.15 m wavelength, 15 m array decorrelation, walking-speed
          cluster motion.
    fig5: frequency correlation on the fig4 geometry (the LOS variant
          raises the Rician factor to 3).
    fig6: complexity sweep bookkeeping (statistics settings unused).
    """
    if name == "fig3":
        return SimulationConfig()
    if name == "fig4":
        return SimulationConfig(
            wavelength=0.15,
            array=ArrayConfig(spacing_tx=0.075, spacing_rx=0.075),
            evolution=EvolutionConfig(array_decorrelation=15.0),
            time_samples=(1.0, 2.0, 3.0, 4.0),
        )
    if name == "fig5":
        return preset("fig4").with_values(time_samples=(1.0,))
    if name == "fig6":
        return SimulationConfig(num_beams=20)
    raise ValueError(f"unknown preset '{name}'")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6")
