"""Spans and counters recorded from outside the conicshock package.

The tracer replaces module-level bindings with timing wrappers, so each
caller's own lookup is measured (``conicshock.cli.solve_background`` for
``verify``, ``conicshock.certificates.solve_background`` for ``certify``,
``conicshock.background.solve_background`` for ``asymptotic_report`` ...).
The package source is not edited; ``install``/``uninstall`` only swap the
bindings.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, operation,
  self time, and counts of hot calls made beneath it);
* hot: the callees made tens of thousands of times per operation
  (``_rates``, ``_apply_bcs``, ``shock_speed``, ``density_from_state``,
  ``shock_jump_from_speed``, ``_piston_offset`` ...) only add to per-name
  call counts and accumulated total and self time, which bounds the trace.

Self time is a call's duration minus the time covered by its direct
children of either kind.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from importlib import import_module

# (module, attribute, recorded name, kind); a dotted attribute is a method.
TARGETS = (
    ("conicshock.cli", "solve_background", "background.solve_background", "span"),
    ("conicshock.certificates", "solve_background", "background.solve_background", "span"),
    ("conicshock.background", "solve_background", "background.solve_background", "span"),
    ("conicshock.simulator", "solve_background", "background.solve_background", "span"),
    ("conicshock.cli", "asymptotic_report", "background.asymptotic_report", "span"),
    ("conicshock.background", "shock_jump_from_speed", "background.shock_jump_from_speed", "hot"),
    ("conicshock.background", "_piston_offset", "background._piston_offset", "hot"),
    ("conicshock.cli", "check_ellipticity", "hodograph.check_ellipticity", "span"),
    ("conicshock.cli", "boundary_signs", "hodograph.boundary_signs", "span"),
    ("conicshock.cli", "local_stability", "hodograph.local_stability", "span"),
    ("conicshock.hodograph", "psi_hat_from_background", "hodograph.psi_hat_from_background", "span"),
    ("conicshock.hodograph", "second_order_coeffs", "hodograph.second_order_coeffs", "hot"),
    ("conicshock.cli", "certify", "certificates.certify", "span"),
    ("conicshock.certificates", "K_coeffs", "certificates.K_coeffs", "span"),
    ("conicshock.cli", "sim_run", "simulator.run", "span"),
    ("conicshock.simulator", "step", "simulator.step", "span"),
    ("conicshock.simulator", "_rates", "simulator._rates", "hot"),
    ("conicshock.simulator", "_apply_bcs", "simulator._apply_bcs", "hot"),
    ("conicshock.simulator", "shock_speed", "simulator.shock_speed", "hot"),
    ("conicshock.simulator", "density_from_state", "gas.density_from_state", "hot"),
    ("conicshock.simulator", "ModifiedBackground.grad_phi_a", "simulator.grad_phi_a", "hot"),
    ("conicshock.simulator", "_mass_integral", "simulator._mass_integral", "hot"),
    ("conicshock.cli", "fit_decay", "simulator.fit_decay", "span"),
)

SOLVE = "background.solve_background"
SUITES = ("hodograph.check_ellipticity", "hodograph.boundary_signs",
          "hodograph.local_stability")


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans = []     # dicts, appended at span exit
        self.stats = {}     # hot name -> [calls, total_s, self_s], per operation
        self.op = None
        self._stack = []    # open frames: [name, start, child_s]
        self._spans_open = []
        self._patches = []  # (owner, attr, original, wrapper)
        self._next_id = 0
        for mod, attr, name, kind in TARGETS:
            owner = import_module(mod)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrap = self._span_wrapper(orig, name) if kind == "span" \
                else self._hot_wrapper(orig, name)
            self._patches.append((owner, leaf, orig, wrap))

    # -- bindings -----------------------------------------------------------

    def install(self) -> None:
        for owner, leaf, _, wrap in self._patches:
            setattr(owner, leaf, wrap)

    def uninstall(self) -> None:
        for owner, leaf, orig, _ in self._patches:
            setattr(owner, leaf, orig)

    # -- frames -------------------------------------------------------------

    def _hot_wrapper(self, fn, name):
        stack, clock = self._stack, time.perf_counter
        spans_open, stats = self._spans_open, self.stats

        def hot(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if spans_open:
                    counts = spans_open[-1]["counts"]
                    counts[name] = counts.get(name, 0) + 1

        return hot

    def _span_wrapper(self, fn, name):
        sig = inspect.signature(fn) if name == SOLVE else None

        def span(*args, **kwargs):
            rec = self.open_span(name)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["key"] = repr(tuple(bound.arguments.values()))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(rec)

        return span

    def open_span(self, name: str) -> dict:
        rec = {"id": self._next_id, "name": name, "op": self.op,
               "parent": self._spans_open[-1]["id"] if self._spans_open else None,
               "counts": {}}
        self._next_id += 1
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        self._spans_open.append(rec)
        frame[1] = time.perf_counter()
        return rec

    def close_span(self, rec: dict) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        self._spans_open.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        rec.update(start=frame[1], end=end, self=dur - frame[2])
        self.spans.append(rec)

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id) -> dict:
        self.op = op_id
        self.stats.clear()
        return self.open_span("cli.operation")

    def end_op(self, rec: dict) -> dict:
        self.close_span(rec)
        self.op = None
        return {k: list(v) for k, v in self.stats.items()}

    def calibrate(self, calls: int = 20000) -> tuple[float, float]:
        """Seconds of bookkeeping per hot call and per span, from wrappers
        around an empty callee."""
        costs = []
        for wrapper in (self._hot_wrapper, self._span_wrapper):
            fn = wrapper(lambda: None, "calibration")
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            costs.append((time.perf_counter() - t0) / calls)
        self.stats.pop("calibration", None)
        del self.spans[-calls:]
        return costs[0], costs[1]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: per-layer metric name -> unit; values are per round (see round_layers)
LAYER_UNITS = {
    "background.solves": "count",
    "background.repeat_solve_ratio": "ratio",
    "background.solve_s": "s",
    "background.shots_per_solve": "count",
    "background.jump_s": "s",
    "background.asymptotic_report_s": "s",
    "background.solve_share": "ratio",
    "hodograph.psi_hat_calls": "count",
    "hodograph.psi_hat_s": "s",
    "hodograph.coeffs_s": "s",
    "hodograph.suites_s": "s",
    "certificates.certify_self_s": "s",
    "certificates.k_coeffs_s": "s",
    "gas.density_calls": "count/step",
    "gas.density_s": "s",
    "gas.density_share": "ratio",
    "simulator.steps": "count",
    "simulator.step_self_s": "s",
    "simulator.steps_per_s": "1/s",
    "simulator.rates_calls": "count",
    "simulator.rates_s": "s",
    "simulator.bcs_calls": "count",
    "simulator.bcs_s": "s",
    "simulator.bcs_share": "ratio",
    "simulator.shock_speed_per_step": "count/step",
    "simulator.init_s": "s",
    "simulator.records": "count",
    "simulator.diag_calls": "count",
    "simulator.diag_s": "s",
    "simulator.fit_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
}


def round_layers(spans: list, stats: list, artifact_bytes: int) -> dict:
    """Per-layer values of one traced round.

    ``spans`` are the round's span records, ``stats`` the per-operation hot
    counters of its operations.
    """
    hot = {}
    for op_stats in stats:
        for name, (calls, total, self_s) in op_stats.items():
            h = hot.setdefault(name, [0, 0.0, 0.0])
            h[0] += calls
            h[1] += total
            h[2] += self_s

    def calls(name):
        return hot.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return hot.get(name, [0, 0.0, 0.0])[1]

    def dur(rec):
        return rec["end"] - rec["start"]

    by_name, children = {}, {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        children.setdefault(rec["parent"], []).append(rec)

    solves = by_name.get(SOLVE, [])
    # only a repeat inside one operation counts: each operation is its own
    # process in real use, so nothing carries over between them
    seen, repeats = set(), 0
    for rec in sorted(solves, key=lambda r: r["start"]):
        key = (rec["op"], rec["key"])
        repeats += key in seen
        seen.add(key)
    # every shot integrates from one jump solve; the final pass adds one more
    shots = sum(rec["counts"].get("background.shock_jump_from_speed", 0) - 1
                for rec in solves)

    certify_self = 0.0
    for rec in by_name.get("certificates.certify", []):
        certify_self += dur(rec) - sum(dur(c) for c in children.get(rec["id"], [])
                                       if c["name"] == SOLVE)

    steps = by_name.get("simulator.step", [])
    step_time = sum(dur(r) for r in steps)
    n_steps = len(steps)
    init = 0.0
    for rec in by_name.get("simulator.run", []):
        first = min((r["start"] for r in steps if r["parent"] == rec["id"]),
                    default=rec["end"])
        init += first - rec["start"]

    def per_step(name):
        return sum(r["counts"].get(name, 0) for r in steps) / n_steps if n_steps else 0.0

    ops = by_name.get("cli.operation", [])
    wall = sum(dur(r) for r in ops)
    solve_s = sum(dur(r) for r in solves)
    out = {
        "background.solves": len(solves),
        "background.repeat_solve_ratio": repeats / len(solves) if solves else 0.0,
        "background.solve_s": solve_s,
        "background.shots_per_solve": shots / len(solves) if solves else 0.0,
        "background.jump_s": total("background.shock_jump_from_speed"),
        "background.asymptotic_report_s": sum(
            dur(r) for r in by_name.get("background.asymptotic_report", [])),
        "background.solve_share": solve_s / wall,
        "hodograph.psi_hat_calls": len(by_name.get("hodograph.psi_hat_from_background", [])),
        "hodograph.psi_hat_s": sum(
            dur(r) for r in by_name.get("hodograph.psi_hat_from_background", [])),
        "hodograph.coeffs_s": total("hodograph.second_order_coeffs"),
        "hodograph.suites_s": sum(r["self"] for n in SUITES for r in by_name.get(n, [])),
        "certificates.certify_self_s": certify_self,
        "certificates.k_coeffs_s": sum(dur(r) for r in by_name.get("certificates.K_coeffs", [])),
        "gas.density_calls": per_step("gas.density_from_state"),
        "gas.density_s": total("gas.density_from_state"),
        "gas.density_share": total("gas.density_from_state") / wall,
        "simulator.steps": n_steps,
        "simulator.step_self_s": sum(r["self"] for r in steps),
        "simulator.steps_per_s": n_steps / step_time if step_time > 0.0 else 0.0,
        "simulator.rates_calls": calls("simulator._rates"),
        "simulator.rates_s": total("simulator._rates"),
        "simulator.bcs_calls": calls("simulator._apply_bcs"),
        "simulator.bcs_s": total("simulator._apply_bcs"),
        "simulator.bcs_share": total("simulator._apply_bcs") / wall,
        "simulator.shock_speed_per_step": per_step("simulator.shock_speed"),
        "simulator.init_s": init,
        "simulator.records": calls("simulator._mass_integral"),
        "simulator.diag_calls": calls("simulator.grad_phi_a") + calls("simulator._mass_integral"),
        "simulator.diag_s": total("simulator.grad_phi_a") + total("simulator._mass_integral"),
        "simulator.fit_s": sum(dur(r) for r in by_name.get("simulator.fit_decay", [])),
        "cli.self_s": sum(r["self"] for r in ops),
        "cli.artifact_bytes": artifact_bytes,
        # inputs of the tracing-overhead report, not per-layer metrics
        "_wall": wall,
        "_step_time": step_time,
        "_hot_calls": sum(h[0] for h in hot.values()),
        "_spans": len(spans),
    }
    return out


def median_layers(rounds: list) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
