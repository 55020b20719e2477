"""Twin-cluster ellipse massive-MIMO channel simulator.

Two equivalent channel representations over the same cluster geometry:
an antenna-domain model built from per-ray spherical-wavefront sums and
a beam-domain model built on a fixed virtual-angle grid.  Cluster
visibility evolves along the array and time axes through a birth-death
process.  Monte-Carlo correlation estimators and exact operation-count
formulas round out the package.

The top level exports the documented entry points; everything else is
reachable through its submodule (``beamchan.geometry``,
``beamchan.bdcm`` and so on).
"""
import importlib

__version__ = "0.1.0"

from .geometry import ArrayConfig, EllipseConfig
from .clusters import EvolutionConfig, initial_clusters
from .config import SimulationConfig, load_config, preset, save_config
from .gbsm import gbsm_matrix
from .bdcm import bdcm_matrix
from .statistics import fcf, space_ccf, stfcf, time_acf
from .complexity import ro_bdcm, ro_gbsm

__all__ = [
    "ArrayConfig",
    "EllipseConfig",
    "EvolutionConfig",
    "SimulationConfig",
    "bdcm_matrix",
    "fcf",
    "gbsm_matrix",
    "initial_clusters",
    "load_config",
    "preset",
    "ro_bdcm",
    "ro_gbsm",
    "run_experiment",
    "save_config",
    "space_ccf",
    "stfcf",
    "time_acf",
    "write_output",
]


def __getattr__(name):
    # the CLI module loads on first use, so that ``python -m beamchan.cli``
    # runs it once, as __main__, rather than after this package imported it
    if name in ("cli", "run_experiment", "write_output"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
