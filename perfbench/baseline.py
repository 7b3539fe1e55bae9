"""Run the benchmark over several seeds per workload and report the spread.

    python3 perfbench/baseline.py                      # print only
    python3 perfbench/baseline.py --write perfbench/baseline.json

Run from the root of a checkout.  For each workload it makes one untraced
run per seed (every end-to-end metric, ``setup_s`` included) and one traced
run on the default seed (every per-layer metric).  It prints each metric by
name with its unit, its median over the runs, the quartile spread
(Q3 - Q1) / median and the sample count, and fails if any run is not
correct.  ``--write`` records the table with the machine it ran on.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl          # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: the held-out seed (2) stays out of the baseline
SEEDS = (1, 3, 4, 5, 6, 7, 8, 9, 10, 11)

#: which end-to-end result each per-layer metric should move, and where
PREDICTIONS = [
    {"layer": "background.*", "moves": "wall_s", "on": ["sweep", "thin_layer (slightly)"],
     "no_change_on": ["decay"]},
    {"layer": "hodograph.*", "moves": "wall_s", "on": ["sweep"],
     "no_change_on": ["decay", "thin_layer"]},
    {"layer": "certificates.*", "moves": "wall_s", "on": ["sweep"],
     "no_change_on": ["decay", "thin_layer"]},
    {"layer": "gas.*", "moves": "wall_s", "on": ["decay", "thin_layer"],
     "no_change_on": ["sweep"]},
    {"layer": "simulator.steps, step_self_s, steps_per_s, rates_*, bcs_*, "
              "shock_speed_per_step", "moves": "wall_s", "on": ["decay", "thin_layer"],
     "no_change_on": ["sweep"]},
    {"layer": "simulator.init_s", "moves": "wall_s", "on": ["thin_layer"],
     "no_change_on": ["decay"]},
    {"layer": "simulator.records, diag_*, fit_s", "moves": "wall_s", "on": ["decay"],
     "no_change_on": ["thin_layer"]},
    {"layer": "cli.*", "moves": "wall_s", "on": ["decay", "sweep"],
     "no_change_on": ["thin_layer"]},
]

#: measured properties that back each workload's reason for existing
PROPERTIES = ("background.solves", "background.repeat_solve_ratio",
              "background.solve_share", "simulator.steps", "simulator.records",
              "simulator.steps_per_s", "simulator.bcs_share", "gas.density_share",
              "trace.overhead_ratio")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate\n{proc.stdout}")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", default=None, help="JSON file for the baseline record")
    args = ap.parse_args()

    seconds = BENCHMARK["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"workloads": {}}
    for workload in wl.WORKLOADS:
        runs = [bench(workload, s, seconds, 0) for s in SEEDS]
        traced = bench(workload, wl.DEFAULT_SEED, seconds, 1)
        e2e = {}
        print(f"{workload}: {len(runs)} runs of {seconds} s, seeds {SEEDS}; "
              f"operations {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            e2e[name] = {"unit": unit, "median": statistics.median(values),
                         "spread": spread(values) if len(values) > 1 else None,
                         "runs": len(values), "values": values}
            s = e2e[name]["spread"]
            print(f"  {name:16s} {e2e[name]['median']:.6g} {unit:5s} "
                  f"spread {s if s is None else round(s, 4)}  runs {len(values)}  "
                  f"bound {bounds[name]}")
        layers = traced["metrics"]
        for name in PROPERTIES:
            print(f"  traced {name:32s} {layers[name]['value']:.6g} {layers[name]['unit']}")
        # run.py keeps the traced run's full record, overhead report included
        overhead = json.loads((Path(".bench_out") / f"run-{workload}-seed"
                               f"{wl.DEFAULT_SEED}-trace1.json").read_text())["overhead_report"]
        for name, value in overhead.items():
            print(f"  overhead {name:30s} {value:.6g}")
        record["workloads"][workload] = {
            "why": wl.WHY[workload],
            "end_to_end": e2e,
            "per_layer_seed": wl.DEFAULT_SEED,
            "per_layer": layers,
            "overhead_report": overhead,
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        }

    if args.write:
        from importlib.metadata import version
        record.update(
            date=datetime.date.today().isoformat(),
            run_seconds=seconds,
            seeds=SEEDS,
            default_seed=wl.DEFAULT_SEED,
            held_out_seed=wl.HELD_OUT_SEED,
            machine={"nproc": os.cpu_count(), "platform": platform.platform(),
                     "python": platform.python_version(), "numpy": version("numpy"),
                     "scipy": version("scipy"), "click": version("click")},
            predictions=PREDICTIONS,
        )
        Path(args.write).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
