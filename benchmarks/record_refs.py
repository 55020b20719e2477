"""Record the reference outputs of one or all workloads at the default seed.

    python3 benchmarks/record_refs.py [--workload NAME]

Runs the first ``REF_PASSES`` passes at ``DEFAULT_SEED``, checks every
output against the seed-independent invariants, and writes the summaries
to ``refs/<workload>.json``.  References pin the program's
outputs at the commit they were recorded from; re-record only in a change
that intends to change the outputs, and say so there.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def record(bc, name: str) -> dict:
    from harness import OUT
    from workloads import DEFAULT_SEED, REF_PASSES, WORKLOADS
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](bc, OUT / f"{name}-record")
    ops = {}
    for p in range(REF_PASSES):
        for op in workload.ops(DEFAULT_SEED, p):
            res = op.check(op.run())
            if res.problems:
                raise SystemExit(f"{name} pass {p} {op.key}: {res.problems}")
            ops[f"{p}/{op.key}"] = res.summary
    return {"workload": name, "seed": DEFAULT_SEED, "passes": REF_PASSES,
            "ensemble": getattr(workload, "ENSEMBLE", None), "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    run.pin_environment()
    bc = run.import_beamchan()
    for name in [args.workload] if args.workload else run.WORKLOAD_NAMES:
        refs = record(bc, name)
        path = run.HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{path}: {len(refs['ops'])} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
