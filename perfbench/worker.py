"""One workload in one process: a closed loop of in-process CLI calls.

Run by ``run.py`` with the checkout's ``src`` first on ``PYTHONPATH`` and
single-threaded BLAS/OpenMP; prints one JSON object as its last line.

    python3 perfbench/worker.py --workload decay --seed 1 --seconds 20 --trace 0 \
        --workdir .bench_out/decay

The loop issues the next operation only after the previous one returns and
starts a new round only while fewer than ``--seconds`` have elapsed, so
every round is whole.  Round 0 runs once more after the loop, untimed; its
artifact hashes must equal the first run's, which checks that reruns are
byte-reproducible.  With ``--trace 1`` even rounds run untraced and odd
rounds traced, and the per-layer numbers come from the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

REFERENCE = Path(__file__).with_name("reference.json")


def tail(walls: dict) -> tuple[float, str]:
    """90th percentile (nearest rank) of the slowest operation kind's wall
    times: its maximum up to ten samples, with at least ten samples beyond
    it from a hundred on.

    Taken per kind because ``sweep`` mixes one slow ``verify`` with twelve
    fast ``certify`` calls.  Over the mixture, and for the rule "highest
    percentile with ten samples beyond it", the reported rank jumps between
    kinds (or from maximum to minimum) as the number of rounds crosses ten.
    """
    best = None
    for kind, values in walls.items():
        xs = sorted(values)
        rank = math.ceil(0.9 * len(xs))
        cand = (xs[rank - 1], f"{kind} p90, rank {rank} of {len(xs)}")
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def run_op(main, op: wl.Op, out: Path) -> tuple[float, str | None]:
    """Call the CLI in-process; return (wall seconds, failure or None)."""
    argv = op.args + ["--output-dir", str(out)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            main(args=argv, prog_name="conicshock", standalone_mode=True)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if error:
        error += ": " + sink.getvalue().strip().replace("\n", " | ")[-300:]
    return wall, error


def check_op(op: wl.Op, out: Path, ref: dict | None) -> tuple[dict, dict, str | None]:
    """(fingerprint, artifact hashes, failure or None) of a finished op."""
    try:
        hashes = wl.read_manifest(out)
        fp = wl.fingerprint(op, out)
    except (wl.GateError, OSError, KeyError, ValueError) as exc:
        return {}, {}, f"gate: {exc}"
    if ref is not None:
        bad = wl.compare_reference(op, fp, ref)
        if bad:
            return fp, hashes, "reference: " + "; ".join(bad)
    return fp, hashes, None


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    from conicshock.cli import main as cli_main

    tracer = None
    if args.trace:
        import tracing as tr
        tracer = tr.Tracer()
        hot_cost, span_cost = tracer.calibrate()

    refs = {}
    if args.seed == wl.DEFAULT_SEED and REFERENCE.exists():
        refs = json.loads(REFERENCE.read_text())[args.workload]

    work = Path(args.workdir)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    failures, ops_log = [], []
    walls = {False: [], True: []}          # traced -> per-op walls
    kind_walls = {}                        # op kind -> untraced walls
    layer_rounds = []

    def do_round(key: int, traced: bool, timed: bool) -> list:
        ops = wl.round_ops(args.workload, args.seed, key)
        spans_from = len(tracer.spans) if tracer else 0
        stats, nbytes, results = [], 0, []
        for i, op in enumerate(ops):
            op_id = f"{key}.{i}" if timed else f"{key}.{i}.rerun"
            out = work / op_id
            rec = tracer.begin_op(op_id) if traced else None
            wall, err = run_op(cli_main, op, out)
            if traced:
                stats.append(tracer.end_op(rec))
            fp, hashes, gate_err = (check_op(op, out, refs.get(f"{key}.{i}"))
                                    if err is None else ({}, {}, None))
            err = err or gate_err
            nbytes += artifact_bytes(out) if out.exists() else 0
            shutil.rmtree(out, ignore_errors=True)
            results.append(hashes)
            if timed:
                walls[traced].append(wall)
                if not traced:
                    kind_walls.setdefault(op.kind, []).append(wall)
            ops_log.append({"op": op_id, "args": op.args, "wall_s": wall,
                            "traced": traced, "timed": timed,
                            "fingerprint": fp, "error": err})
            if err:
                failures.append({"op": op_id, "timed": timed, "error": err})
        if traced and timed:
            layer_rounds.append(tr.round_layers(tracer.spans[spans_from:], stats, nbytes))
        return results

    start = time.perf_counter()
    k = 0
    min_rounds = 2 if tracer else 1
    while k < min_rounds or time.perf_counter() - start < args.seconds:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.install()
        try:
            hashes = do_round(k, traced=traced, timed=True)
        finally:
            if traced:
                tracer.uninstall()
        if k == 0:
            first = hashes
        k += 1
    reproducible = do_round(0, traced=False, timed=False) == first and all(first)
    if not reproducible:
        failures.append({"op": "0.rerun", "timed": False,
                         "error": "artifact SHA-256s differ between identical runs"})

    attempted = len(walls[False]) + len(walls[True])
    failed = sum(1 for f in failures if f["timed"])
    result = {
        "workload": args.workload, "seed": args.seed, "rounds": k,
        "attempted": attempted, "failed": failed,
        "correct": not failures,
        "reproducible": reproducible,
        "reference_ops_checked": sorted(o["op"] for o in ops_log if o["op"] in refs),
        "failures": failures[:20],
    }
    if not args.trace:
        w = walls[False]
        tail_value, tail_rank = tail(kind_walls)
        result["metrics"] = {
            # the mean, not the median: under the host's multi-second speed
            # swings the median of a bimodal sample jumps between modes
            "wall_s": {"value": statistics.fmean(w), "unit": "s", "samples": len(w),
                       "note": f"mean; median {statistics.median(w):.6g} s"},
            "wall_s_tail": {"value": tail_value, "unit": "s", "samples": len(w),
                            "note": tail_rank},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB", "samples": 1},
        }
    else:
        metrics = {}
        if layer_rounds:
            med = tr.median_layers(layer_rounds)
            for name, unit in tr.LAYER_UNITS.items():
                metrics[name] = {"value": med[name], "unit": unit,
                                 "samples": len(layer_rounds)}
            traced_w = statistics.fmean(walls[True])
            plain_w = statistics.fmean(walls[False]) if walls[False] else traced_w
            n = len(layer_rounds)
            metrics["trace.overhead_ratio"] = {
                "value": traced_w / plain_w - 1.0, "unit": "ratio",
                "samples": len(walls[True])}
            # step time not inside a counted callee: RK4 arithmetic in step
            # itself plus wrapper bookkeeping
            metrics["trace.step_self_share"] = {
                "value": med["simulator.step_self_s"] / med["_step_time"]
                if med["_step_time"] > 0.0 else 0.0, "unit": "ratio", "samples": n}
            hot_calls, spans = med["_hot_calls"], med["_spans"]
            ops_per_round = len(walls[True]) / n
            # the tracing-overhead report, per operation: the calibrated
            # bookkeeping explains wrapper_est_s of overhead_s, the rest is
            # left unexplained
            result["overhead_report"] = {
                "traced_wall_s": traced_w, "untraced_wall_s": plain_w,
                "overhead_s": traced_w - plain_w,
                "hot_calls": hot_calls / ops_per_round,
                "spans": spans / ops_per_round,
                "wrapper_s_per_call": hot_cost, "wrapper_s_per_span": span_cost,
                "wrapper_est_s": (hot_calls * hot_cost + spans * span_cost)
                / ops_per_round,
            }
        result["metrics"] = metrics
        trace_path = work.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    result["ops"] = ops_log
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
