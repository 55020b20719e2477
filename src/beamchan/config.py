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
from .geometry import ArrayConfig, EllipseConfig, require_integers

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
        require_integers(self, "rays_per_cluster", "num_beams", "ensemble", "seed")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.max_doppler < 0:
            raise ValueError("max_doppler must be nonnegative")
        if self.rician_k < 0:
            raise ValueError("rician_k must be nonnegative")
        if self.rays_per_cluster < 1:
            raise ValueError("rays_per_cluster must be at least 1")
        if self.num_beams < 1:
            raise ValueError("num_beams must be at least 1")
        if self.ensemble < 1:
            raise ValueError("ensemble must be at least 1")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.delay_spacing <= 0:
            raise ValueError("delay_spacing must be positive")
        if self.mean_clusters is not None and self.mean_clusters <= 0:
            raise ValueError("mean_clusters must be positive when given")
        if self.mean_clusters is None and self.evolution.death_rate <= 0:
            raise ValueError(
                "mean_clusters must be set when evolution.death_rate is zero")
        if self.estimator_mode not in _MODES:
            raise ValueError(f"estimator_mode must be one of {_MODES}")
        if self.normalization not in _NORMS:
            raise ValueError(f"normalization must be one of {_NORMS}")
        if self.beam_weighting not in _WEIGHTINGS:
            raise ValueError(f"beam_weighting must be one of {_WEIGHTINGS}")
        if not self.time_samples:
            raise ValueError("time_samples must not be empty")
        object.__setattr__(self, "time_samples", tuple(self.time_samples))

    @property
    def mean_cluster_count(self) -> float:
        if self.mean_clusters is not None:
            return self.mean_clusters
        return self.evolution.birth_rate / self.evolution.death_rate

    def with_values(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)


_SECTIONS = {"array": ArrayConfig, "ellipse": EllipseConfig, "evolution": EvolutionConfig}


def _build_section(name, cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"config section '{name}' must be an object")
    valid = cls.__dataclass_fields__.keys()
    for key in data:
        if key not in valid:
            raise ValueError(f"unknown key '{name}.{key}' in config")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config section '{name}': {exc}") from exc


def loads_config(text: str) -> SimulationConfig:
    """Parse a JSON config string; empty input falls back to the defaults."""
    if not text.strip():
        data = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    kwargs = {}
    top_fields = SimulationConfig.__dataclass_fields__.keys()
    for key, value in data.items():
        if key in _SECTIONS:
            kwargs[key] = _build_section(key, _SECTIONS[key], value)
        elif key in top_fields:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown key '{key}' in config")
    try:
        return SimulationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid config: {exc}") from exc


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


def _base() -> SimulationConfig:
    return SimulationConfig()


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
        return _base()
    if name == "fig4":
        base = _base()
        return base.with_values(
            wavelength=0.15,
            array=ArrayConfig(spacing_tx=0.075, spacing_rx=0.075),
            evolution=EvolutionConfig(array_decorrelation=15.0),
            time_samples=(1.0, 2.0, 3.0, 4.0),
        )
    if name == "fig5":
        return preset("fig4").with_values(time_samples=(1.0,))
    if name == "fig6":
        return _base().with_values(num_beams=20)
    raise ValueError(f"unknown preset '{name}'")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6")
