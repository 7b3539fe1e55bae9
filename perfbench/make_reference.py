"""Regenerate reference.json: fingerprints of the first rounds of the default
seed, against which every run with that seed is checked.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run from the root of a checkout.  Only a change that alters the benchmark,
or a result on purpose, regenerates it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as wl                      # noqa: E402
from worker import REFERENCE, check_op, run_op   # noqa: E402

#: rounds pinned per workload: more than a run of a few tens of seconds reaches
ROUNDS = {"sweep": 10, "decay": 4, "thin_layer": 12}


def main() -> int:
    from conicshock.cli import main as cli_main

    work = Path(".bench_out") / "reference"
    ref = {}
    for workload, rounds in ROUNDS.items():
        ref[workload] = {}
        for key in range(rounds):
            for i, op in enumerate(wl.round_ops(workload, wl.DEFAULT_SEED, key)):
                out = work / f"{workload}-{key}.{i}"
                _, err = run_op(cli_main, op, out)
                fp, _, gate_err = check_op(op, out, None) if err is None else ({}, {}, None)
                if err or gate_err:
                    print(f"{workload} {key}.{i}: {err or gate_err}", file=sys.stderr)
                    return 1
                fp.pop("max_rh_residual", None)     # round-off level; gated by bound
                ref[workload][f"{key}.{i}"] = fp
                shutil.rmtree(out)
            print(f"{workload} round {key} done", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
