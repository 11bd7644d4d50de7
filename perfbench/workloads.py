"""One repeat of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py WORKLOAD --seed N --out DIR --t0 NS
        [--trace | --setup-only] [--reference] [--tiny]

``run.py`` starts this once per repeat with ``src`` on PYTHONPATH and BLAS
pinned to one thread. The process builds its inputs from the seed (set-up),
times the workload (wall), reads its peak RSS, then checks its outputs
outside the timed region and writes everything to ``DIR/result.json``.

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started this
process. So ``setup_s`` covers interpreter start, imports, config parsing
and, for ``oracle``, building the grid and context: everything up to the
first call into the program's run path (``cli.run``, or ``godunov_solve``).

``--trace`` records spans (see ``spans.py``). ``--setup-only`` stops after
set-up, to sample ``setup_s`` more often than the workload can run.
``--reference`` adds the costly reference check that one repeat per run
needs. ``--tiny`` shrinks every size for the smoke tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
from maxent_hjb import cli, godunov
from maxent_hjb.benchmarks import vdp_control_box, vdp_plane_cost, vdp_plane_model
from maxent_hjb.hopf_lax import HopfLaxConfig, value_surface
from maxent_hjb.soft_hamiltonian import HamiltonianContext, build_grid

REL_PCT_MAX = 5.0
P_REL_ERR_MAX = 5e-2
RANK_WINDOWS_N10M10 = 155
LEARN_SEEDS = 5


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _CliJob:
    """Workloads that go through ``maxent_hjb.cli.run``, one call per config."""

    def __init__(self, configs):
        self.configs = configs
        self.manifests = []

    def run(self):
        self.manifests = [cli.run(config) for config in self.configs]

    def artifacts(self) -> dict:
        return {
            f"{config.output_dir.name}/{entry['path']}": entry["sha256"]
            for config, manifest in zip(self.configs, self.manifests)
            for entry in manifest.outputs
        }

    def manifests_ok(self) -> bool:
        return all(m.verify(c.output_dir) for c, m in zip(self.configs, self.manifests))

    def summary(self, index=0) -> dict:
        with open(self.configs[index].output_dir / "summary.json", encoding="ascii") as fh:
            return json.load(fh)


def _config(command, out: Path, name: str, seed: int, **params):
    overrides = {key: str(value) for key, value in params.items()}
    return cli.parse_config(command, overrides=overrides, seed=seed, output_dir=out / name)


class Surface(_CliJob):
    """``hjb-compare``: Hopf-Lax value surface (fork pool) plus the Godunov check."""

    def __init__(self, seed, out, tiny):
        params = {"grid_n": 13}
        if tiny:
            params = {"grid_n": 8, "nodes": 8, "n_starts": 3, "simplex_iters": 3,
                      "warm_iters": 2}
        super().__init__([_config("hjb-compare", out, "compare", seed, **params)])
        self.points = params["grid_n"] ** 2

    def work(self):
        return self.points

    def check(self, reference):
        summary = self.summary()
        values = {"rel_pct": summary["rel_pct"], "rel_pct_interior": summary["rel_pct_interior"]}
        return values, {"rel_pct": summary["rel_pct"] <= REL_PCT_MAX}


class Control(_CliJob):
    """``vdp-control``: two windows of single-point receding-horizon solves.

    Two 2.5 s windows rather than one: over a single window the controlled
    cost exceeds the uncontrolled one on some seeds (seed 1 at
    simplex_iters 20), so the ``cost_ratio < 1`` gate would not hold.
    simplex_iters 10 and ode_step 0.2 keep a repeat near 5 s.
    """

    def __init__(self, seed, out, tiny):
        params = {"total_t": 5.0, "window_t": 2.5, "simplex_iters": 10, "ode_step": 0.2}
        if tiny:
            params = {"total_t": 0.5, "window_t": 0.5, "nodes": 8, "n_starts": 2,
                      "simplex_iters": 2}
        config = _config("vdp-control", out, "control", seed, **params)
        super().__init__([config])
        p = config.params
        per_window = max(1, round(p["window_t"] / p["dt"] ** 2))
        self.solves = round(p["total_t"] / p["window_t"]) * per_window

    def work(self):
        return self.solves

    def check(self, reference):
        summary = self.summary()
        ratio = summary["controlled_running_cost"] / summary["uncontrolled_running_cost"]
        return {"cost_ratio": ratio}, {"cost_ratio": ratio < 1.0}


class Learn(_CliJob):
    """On- and off-policy learners on ``n3m2`` for five seeds, plus the
    ``n10m10`` rank count (one on-policy iteration, no rollout)."""

    def __init__(self, seed, out, tiny):
        learner = {"fixture": "n3m2", "extra_windows": 12, "eps_stop": 2e-2, "max_iters": 25}
        if tiny:
            learner["eval_horizon"] = 0.5
        seeds = [LEARN_SEEDS * seed + i for i in range(1 if tiny else LEARN_SEEDS)]
        configs = [
            _config(command, out, f"{command}-{s}", s, **learner)
            for s in seeds
            for command in ("lq-onpolicy", "lq-offpolicy")
        ]
        configs.append(_config(
            "lq-onpolicy", out, "rank-n10m10", seed,
            fixture="n10m10", eps_stop=1e9, max_iters=1, eval_horizon=0.0,
        ))
        super().__init__(configs)

    def work(self):
        return sum(self.summary(i)["total_samples"] for i in range(len(self.configs)))

    def check(self, reference):
        summaries = [self.summary(i) for i in range(len(self.configs))]
        on, off, rank = summaries[0:-1:2], summaries[1:-1:2], summaries[-1]
        values = {
            "p_rel_err_onpolicy": statistics.median(s["relative_p_error"] for s in on),
            "p_rel_err_offpolicy": statistics.median(s["relative_p_error"] for s in off),
            "samples": sum(s["total_samples"] for s in summaries),
        }
        gates = {
            "p_rel_err_onpolicy": values["p_rel_err_onpolicy"] <= P_REL_ERR_MAX,
            "p_rel_err_offpolicy": values["p_rel_err_offpolicy"] <= P_REL_ERR_MAX,
            "offpolicy_fewer_samples": sum(s["total_samples"] for s in off)
            < sum(s["total_samples"] for s in on),
            "rank_n10m10": rank["total_samples"] == RANK_WINDOWS_N10M10,
        }
        return values, gates


class Oracle:
    """``godunov_solve`` on the planar Van der Pol problem plus its CSV dump.

    The seed shifts the grid by up to half a cell on each axis, so each seed
    solves at different nodes with nearly the same step count.
    """

    HALF_WIDTH = 2.0
    T = 0.1

    def __init__(self, seed, out, tiny):
        self.seed = seed
        self.n = 13 if tiny else 51
        self.sub = 4 if tiny else 10  # the Hopf-Lax reference runs on every sub-th node
        self.ref_starts = 3 if tiny else 16
        self.csv = out / "godunov.csv"
        self.cost = vdp_plane_cost(alpha=1.0, horizon=self.T)
        self.ctx = HamiltonianContext(
            model=vdp_plane_model(), cost=self.cost, alpha=1.0,
            grid=build_grid(vdp_control_box(), 8 if tiny else 32),
        )
        d = self.HALF_WIDTH
        sx, sy = (np.random.default_rng(seed).random(2) - 0.5) * (2 * d / (self.n - 1))
        self.grid = godunov.Grid2D(-d + sx, d + sx, -d + sy, d + sy, self.n, self.n)
        out.mkdir(parents=True, exist_ok=True)

    def run(self):
        # called through the module, so a traced run sees the patched function
        self.solution = godunov.godunov_solve(
            self.ctx, self.cost.terminal, self.grid, self.T, cfl=0.5
        )
        self.solution.to_csv(self.csv)

    def work(self):
        return self.n * self.n

    def artifacts(self) -> dict:
        return {self.csv.name: _sha256(self.csv)}

    def manifests_ok(self) -> bool:
        return True

    def check(self, reference):
        if not reference:
            return {}, {}
        xs, ys = self.grid.xs[:: self.sub], self.grid.ys[:: self.sub]
        config = HopfLaxConfig(ode_step=0.025, n_starts=self.ref_starts,
                               start_radius=5.0, simplex_iters=40, seed=self.seed)
        hl = value_surface(self.ctx, self.cost.terminal, xs, ys, self.T, config,
                           n_random=1, n_bands=2, processes=1, warm_iters=20)
        diff = np.abs(self.solution.values[:: self.sub, :: self.sub] - hl)
        # same 10% margin per side as compare_solutions' interior figures
        mx, my = int(np.ceil(0.1 * len(xs))), int(np.ceil(0.1 * len(ys)))
        inner = (slice(mx, len(xs) - mx), slice(my, len(ys) - my))
        values = {
            "rel_pct": 100.0 * diff.max() / np.abs(hl).max(),
            "rel_pct_interior": 100.0 * diff[inner].max() / np.abs(hl[inner]).max(),
        }
        return values, {"rel_pct": bool(values["rel_pct"] <= REL_PCT_MAX)}


WORKLOADS = {"surface": Surface, "oracle": Oracle, "control": Control, "learn": Learn}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _numpy_env() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    recorder = spans.Recorder(args.out / "spans").install() if args.trace else None
    job = WORKLOADS[args.workload](args.seed, args.out, args.tiny)
    if args.setup_only:
        with open(args.out / "result.json", "w", encoding="ascii") as fh:
            json.dump({"setup_s": (time.monotonic_ns() - args.t0) / 1e9}, fh)
        return 0
    run = recorder.root(job.run) if recorder else job.run
    started = time.monotonic_ns()
    run()
    finished = time.monotonic_ns()
    result = {
        "setup_s": (started - args.t0) / 1e9,
        "wall_s": (finished - started) / 1e9,
        "peak_rss_mb": _peak_rss_mb(),
        "work": job.work(),
        "env": _numpy_env(),
    }
    if recorder:
        recorder.uninstall()
        result["layers"] = spans.layer_metrics(recorder.collect())
    values, gates = job.check(args.reference)
    result.update(
        values=values, gates=gates, artifacts=job.artifacts(), manifests_ok=job.manifests_ok()
    )
    with open(args.out / "result.json", "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
