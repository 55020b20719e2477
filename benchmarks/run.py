"""beamchan benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Workloads: ``reproduce``, ``antenna_mc``, ``channel_build`` (see
``workloads.py`` for what each runs and why).  The run imports beamchan
from ``src/`` of the checkout, pins BLAS to one thread and unsets
``BEAMCHAN_WORKERS`` (one process), then executes passes of the workload
until ``--seconds`` have elapsed.  Every operation's output is checked
against seed-independent invariants and, at the default seed, against
the stored references in ``refs/``; an operation that raises or fails a
check counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  Times are calibrated
seconds (``calibration.py``): wall time times the reference time of a
fixed kernel over the kernel's mean time, sampled around every
operation of the run.

  setup_s             median over fresh interpreters of start to ready
                      (``import beamchan`` plus the workload's configs and
                      lag grids), s, lower is better
  realizations_per_s  cluster-state realizations per calibrated second of
                      operation time, for one pass built from the median
                      time of each kind of operation, 1/s, higher is
                      better.  In reproduce and antenna_mc one
                      realization is one ensemble member of an estimator
                      call (the report also names it ``members_per_s``);
                      in channel_build it is one paired build
                      (initial_clusters, evolve_array, gbsm_matrix and
                      bdcm_matrix on the same cluster state)
  peak_rss_mb         peak resident memory of the benchmark process, MB

``--trace 1`` alternates untraced and traced passes over the same inputs
and prints the per-layer metrics of ``tracing.py`` (per traced pass) plus
the ``complexity.*`` paper-claim metrics.  The line before the result
holds the run environment and a report (failed_frac, model_gap, the
paper-claim table, raw wall-clock rates, absent trace targets).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("reproduce", "antenna_mc", "channel_build")


def pin_environment():
    """One process, one BLAS thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("BEAMCHAN_WORKERS", None)


def import_beamchan():
    """Import beamchan from the checkout's ``src/``, or exit with code 2."""
    if not (SRC / "beamchan" / "__init__.py").is_file():
        print(f"error: no beamchan sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import beamchan
    if SRC not in Path(beamchan.__file__).resolve().parents:
        print(f"error: imported beamchan from {beamchan.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return beamchan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    bc = import_beamchan()
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](bc)
        print("ready", flush=True)
        return 0
    import harness
    out = harness.execute(bc, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
