"""conicshock benchmark: time to solution of CLI runs, per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures set-up (several fresh interpreters that
import the CLI and make it ready) and then runs the workload in its own
process, tracing off; the metrics are the end-to-end ones.  With
``--trace 1`` the workload process records spans and counters around the
package's layers and the metrics are the per-layer ones.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status is 0 when a result is printed (``correct`` says whether every
output passed its gate), and non-zero without a result when the checkout
has no conicshock sources or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10         # timed fresh interpreters; one more, untimed, warms caches first
TIMEOUT_S = 170.0         # the whole run, set-up included


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CONICSHOCK_OUTPUT_DIR", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_child(argv: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped at the deadline)."""
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def measure_setup(env: dict, deadline: float) -> tuple[list, list]:
    """Wall seconds from spawn to exit of fresh interpreters that import the
    CLI and render its help, and each one's peak RSS in MB."""
    probe = [sys.executable, str(HERE / "probe.py")]
    walls, rss = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = run_child(probe, env, deadline)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if i:
            walls.append(wall)
            rss.append(float(proc.stdout.strip().splitlines()[-1]))
    return walls, rss


def main() -> int:
    ap = argparse.ArgumentParser(description="conicshock benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "conicshock" / "cli.py").is_file():
        print(f"error: no conicshock sources under {root / 'src'}; run from the "
              "root of a conicshock checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    env = bench_env(root)
    out_root = root / ".bench_out"
    try:
        setup = measure_setup(env, deadline) if not args.trace else None
        proc = run_child(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}")],
            env, deadline)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}:\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # inputs, wall time, fingerprint and verdict of every operation
    record = out_root / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    metrics = dict(result["metrics"])
    if setup is not None:
        walls, rss = setup
        metrics["setup_s"] = {"value": statistics.median(walls), "unit": "s",
                              "samples": len(walls)}
        setup_rss = statistics.median(rss)

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  rounds {result['rounds']}  "
          f"operations {result['attempted']}  failed {result['failed']}  "
          f"fail_ratio {result['failed'] / max(1, result['attempted']):.4g}  "
          f"reproducible {result['reproducible']}  "
          f"reference ops checked {len(result['reference_ops_checked'])}")
    if setup is not None:
        print(f"  setup peak RSS {setup_rss:.1f} MB (median of {len(setup[1])})")
    for name, m in sorted(metrics.items()):
        note = f" ({m['note']})" if "note" in m else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}  n={m['samples']}{note}")
    for f in result["failures"]:
        print(f"  FAIL {f['op']}: {f['error']}")
    if "overhead_report" in result:
        print("  tracing overhead per operation:")
        for name, value in result["overhead_report"].items():
            print(f"    {name:22s} {value:.6g}")
    print(f"  operations recorded in {record}")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
