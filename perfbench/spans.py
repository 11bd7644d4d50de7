"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``maxent_hjb`` module from
outside the package and records one span per call: name, layer, parent span,
pid, start and end, plus the work counts the per-layer metrics need (kernel
rows, vector-field rows, grid points, learner windows). Spans stay in memory
and are written out when the run ends.

``value_surface`` runs its bands in a fork pool. A forked worker inherits the
recorder and its open-span stack, so its spans link to the ``value_surface``
span of the parent; the worker appends its spans to ``spans-<pid>.jsonl`` each
time a band finishes, and ``collect`` merges those files into the parent's
list. Timestamps come from ``time.monotonic_ns``, which reads the system-wide
CLOCK_MONOTONIC on Linux, so parent and worker spans share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

# Span record layout: [id, parent, name, layer, pid, start_ns, end_ns, attrs]
ID, PARENT, NAME, LAYER, PID, START, END, ATTRS = range(8)

ROOT_NAME = "workload"
BAND_NAME = "hopf_lax.band"


def _kernel_work(args, result):
    ctx, x = args[0], np.asarray(args[1])
    dim = x.shape[-1] if x.ndim else 1
    return {"rows": x.size // dim, "nodes": ctx.grid.size, "dim": dim}


def _eval_work(args, result):
    x, u = np.shape(args[1]), np.shape(args[2])
    return {"rows": int(np.prod(np.broadcast_shapes(x[:-1], u[:-1]), dtype=np.int64))}


def _blown_work(args, result):
    return {"blown": float(result.blown_up_fraction)}


def _points_work(args, result):
    grid = args[2]
    return {"points": grid.nx * grid.ny}


def _windows_work(args, result):
    return {"windows": int(result.total_samples)}


def _artifact_work(args, result):
    out = Path(args[0].output_dir)
    return {"bytes": sum((out / entry["path"]).stat().st_size for entry in result.outputs)}


# (module, attribute path, layer, span name, work counter). Class methods are
# patched on the class; module functions are patched in every maxent_hjb
# module that holds a reference to them (``cli`` imports them by name).
TARGETS = (
    ("maxent_hjb.soft_hamiltonian", "HamiltonianContext.value_batch", "soft_hamiltonian",
     "soft_hamiltonian.value_batch", _kernel_work),
    ("maxent_hjb.soft_hamiltonian", "HamiltonianContext.value_grad_batch", "soft_hamiltonian",
     "soft_hamiltonian.value_grad_batch", _kernel_work),
    ("maxent_hjb.soft_hamiltonian", "HamiltonianContext.density", "soft_hamiltonian",
     "soft_hamiltonian.density", _kernel_work),
    ("maxent_hjb.soft_hamiltonian", "HamiltonianContext.report", "soft_hamiltonian",
     "soft_hamiltonian.report", _kernel_work),
    ("maxent_hjb.dynamics", "DynamicsModel.eval", "dynamics", "dynamics.eval", _eval_work),
    ("maxent_hjb.dynamics", "GenericRunning.eval", "dynamics", "dynamics.cost_eval", None),
    ("maxent_hjb.dynamics", "QuadraticRunning.eval", "dynamics", "dynamics.cost_eval", None),
    ("maxent_hjb.hopf_lax", "value_surface", "hopf_lax", "hopf_lax.value_surface", None),
    # the fork-pool task: one span per band, and the point where a worker
    # hands its spans to the parent
    ("maxent_hjb.hopf_lax", "_sweep_band_star", "hopf_lax", BAND_NAME, None),
    ("maxent_hjb.hopf_lax", "hopf_lax_value", "hopf_lax", "hopf_lax.value", _blown_work),
    ("maxent_hjb.hopf_lax", "sample_feedback", "hopf_lax", "hopf_lax.sample_feedback", None),
    ("maxent_hjb.hopf_lax", "receding_horizon_control", "hopf_lax",
     "hopf_lax.receding_horizon_control", None),
    ("maxent_hjb.godunov", "godunov_solve", "godunov", "godunov.solve", _points_work),
    ("maxent_hjb.godunov", "compare_solutions", "godunov", "godunov.compare", None),
    ("maxent_hjb.lq", "kleinman_iterate", "lq", "lq.kleinman", None),
    ("maxent_hjb.lq", "solve_lyapunov", "lq", "lq.lyapunov", None),
    ("maxent_hjb.adaptive_dp", "run_onpolicy", "adaptive_dp", "adaptive_dp.run", _windows_work),
    ("maxent_hjb.adaptive_dp", "run_offpolicy", "adaptive_dp", "adaptive_dp.run", _windows_work),
    ("maxent_hjb.adaptive_dp", "collect_onpolicy_window", "adaptive_dp",
     "adaptive_dp.collect", None),
    ("maxent_hjb.adaptive_dp", "collect_offpolicy_window", "adaptive_dp",
     "adaptive_dp.collect", None),
    ("maxent_hjb.adaptive_dp", "solve_onpolicy", "adaptive_dp", "adaptive_dp.solve", None),
    ("maxent_hjb.adaptive_dp", "solve_offpolicy", "adaptive_dp", "adaptive_dp.solve", None),
    ("maxent_hjb.cli", "run", "cli", "cli.run", _artifact_work),
)


class Recorder:
    """Records spans around the wrapped entry points of one process tree."""

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.root_pid = self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self._next = 0
        self._patches: list = []
        self._active = False

    def _new_id(self) -> int:
        self._next += 1
        return self.pid * 1_000_000_000 + self._next

    def _after_fork(self):
        # The child keeps the open-span stack (its spans link to the parent's
        # open span) but not the parent's finished spans.
        if self._active:
            self.pid = os.getpid()
            self.spans = []
            self._next = 0

    def wrap(self, fn, name, layer, work=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else None
            sid = rec._new_id()
            rec.stack.append(sid)
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                rec.stack.pop()
                attrs = None if work is None or result is None else work(args, result)
                rec.spans.append([sid, parent, name, layer, rec.pid, start, end, attrs])
                if name == BAND_NAME and rec.pid != rec.root_pid:
                    rec.spill()

        return wrapper

    def install(self):
        """Patch every target; raises if a target no longer exists."""
        for module_name, path, layer, name, work in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, name, layer, work))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, layer, work)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("maxent_hjb"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))
        self._active = True
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._active = False

    def root(self, fn):
        """``fn`` wrapped as the root span of the run."""
        return self.wrap(fn, ROOT_NAME, "bench")

    def spill(self):
        """Append this process's finished spans to its spill file."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list:
        """This process's spans merged with every worker's spill file."""
        merged = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="ascii") as fh:
                merged.extend(json.loads(line) for line in fh)
        return merged


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans (ns)."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repeat (times in s, counts exact)."""
    own = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def busy(items):
        return sum(s[END] - s[START] for s in items) / 1e9

    def self_of(layer):
        return sum(own[s[ID]] for s in spans if s[LAYER] == layer) / 1e9

    def attr_sum(items, key):
        return sum(s[ATTRS][key] for s in items if s[ATTRS])

    kernel_names = (
        "soft_hamiltonian.value_batch", "soft_hamiltonian.value_grad_batch",
        "soft_hamiltonian.density", "soft_hamiltonian.report",
    )
    kernel = named(*kernel_names)
    query_nodes = sum(s[ATTRS]["rows"] * s[ATTRS]["nodes"] for s in kernel)
    fd_nodes = sum(
        s[ATTRS]["rows"] * s[ATTRS]["nodes"] for s in named("soft_hamiltonian.value_batch")
    )
    # f (dim doubles) plus r, L, z and w*z (one double each) per query-node
    computed_bytes = sum(
        8 * s[ATTRS]["rows"] * s[ATTRS]["nodes"] * (s[ATTRS]["dim"] + 4) for s in kernel
    )
    kernel_s = busy(kernel)
    evals = named("dynamics.eval")

    bands = named(BAND_NAME)
    per_pid: dict = {}
    for s in bands:
        per_pid[s[PID]] = per_pid.get(s[PID], 0.0) + (s[END] - s[START]) / 1e9
    band_max = max(per_pid.values(), default=0.0)
    band_mean = _ratio(sum(per_pid.values()), len(per_pid))
    values = named("hopf_lax.value")

    solves = named("godunov.solve")
    points = attr_sum(solves, "points")
    runs = named("adaptive_dp.run")
    windows = attr_sum(runs, "windows")
    roots = named(ROOT_NAME)
    root_s = busy(roots)

    return {
        "soft_hamiltonian.calls": len(kernel),
        "soft_hamiltonian.query_nodes": query_nodes,
        "soft_hamiltonian.busy_s": kernel_s,
        "soft_hamiltonian.self_s": self_of("soft_hamiltonian"),
        "soft_hamiltonian.query_nodes_per_s": _ratio(query_nodes, kernel_s),
        "soft_hamiltonian.rows_per_call": _ratio(attr_sum(kernel, "rows"), len(kernel)),
        "soft_hamiltonian.fd_share": _ratio(fd_nodes, query_nodes),
        "soft_hamiltonian.computed_bytes": computed_bytes,
        "dynamics.eval_calls": len(evals),
        "dynamics.eval_rows": attr_sum(evals, "rows"),
        "dynamics.eval_s": busy(evals),
        "dynamics.cost_eval_s": busy(named("dynamics.cost_eval")),
        "hopf_lax.surface_s": busy(named("hopf_lax.value_surface")),
        "hopf_lax.value_calls": len(values),
        "hopf_lax.value_s": busy(values),
        "hopf_lax.self_s": self_of("hopf_lax"),
        "hopf_lax.band_busy_max_s": band_max,
        "hopf_lax.band_imbalance": _ratio(band_max, band_mean),
        "hopf_lax.blown_frac": _ratio(attr_sum(values, "blown"), len(values)),
        "hopf_lax.sample_calls": len(named("hopf_lax.sample_feedback")),
        "hopf_lax.sample_s": busy(named("hopf_lax.sample_feedback")),
        "godunov.solve_s": busy(solves),
        "godunov.self_s": self_of("godunov"),
        "godunov.points": points,
        "godunov.points_per_s": _ratio(points, busy(solves)),
        "godunov.compare_s": busy(named("godunov.compare")),
        "lq.kleinman_calls": len(named("lq.kleinman")),
        "lq.kleinman_s": busy(named("lq.kleinman")),
        "lq.lyapunov_calls": len(named("lq.lyapunov")),
        "lq.lyapunov_s": busy(named("lq.lyapunov")),
        "adaptive_dp.runs": len(runs),
        "adaptive_dp.windows": windows,
        "adaptive_dp.collect_s": busy(named("adaptive_dp.collect")),
        "adaptive_dp.solve_calls": len(named("adaptive_dp.solve")),
        "adaptive_dp.solve_s": busy(named("adaptive_dp.solve")),
        "adaptive_dp.self_s": self_of("adaptive_dp"),
        "adaptive_dp.windows_per_s": _ratio(windows, busy(runs)),
        "cli.run_s": busy(named("cli.run")),
        "cli.self_s": self_of("cli"),
        "cli.artifact_bytes": attr_sum(named("cli.run"), "bytes"),
        "trace.untraced_share": _ratio(sum(own[s[ID]] for s in roots) / 1e9, root_s),
    }
