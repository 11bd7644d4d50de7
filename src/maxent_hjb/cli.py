"""Experiment runner: seeded desk-scale studies with CSV/JSON artifacts.

Commands mirror the numerical studies: ``ham-sweep`` (temperature sweep of the
soft Hamiltonian), ``hjb-compare`` (grid-free vs Godunov cross-validation),
``vdp-control`` (receding-horizon control of the 4-state oscillator),
``lq-exact`` (model-based Riccati solve), and ``lq-onpolicy``/``lq-offpolicy``
(data-driven learners on fixture systems). Each run writes its artifacts plus
``manifest.json`` with content hashes; identical config and seed reproduce the
data artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adaptive_dp import HiddenLqSystem, LearnerConfig, run_offpolicy, run_onpolicy
from .benchmarks import (
    analytic_linear_channel_hamiltonian,
    linear_channel_model,
    load_fixture,
    vdp4_model,
    VDP4_X0,
    vdp_control_box,
    vdp_plane_cost,
    vdp_plane_model,
    zero_running_cost,
)
from .dynamics import ControlBox, Trajectory, euler_rollout, write_json, write_table
from .errors import ConfigError, DivergedTrajectoryError, MaxEntError
from .godunov import Grid2D, GridFunction, compare_solutions, godunov_solve
from .hopf_lax import (
    HopfLaxConfig,
    receding_horizon_control,
    value_surface,
    window_steps,
)
from .lq import kleinman_iterate, save_matrix
from .soft_hamiltonian import (
    HamiltonianContext,
    build_grid,
    laplace_gap,
    standard_hamiltonian,
)

COMMANDS = ("ham-sweep", "hjb-compare", "vdp-control", "lq-onpolicy", "lq-offpolicy", "lq-exact")
HJB_BOX = (-2.0, 2.0, -2.0, 2.0)  # hjb-compare's grid: the Van der Pol box [-2, 2]^2

# the LQ problem's keys, shared by the Riccati solve and the learners
_LQ_PROBLEM = {"fixture": (str, "n3m2"), "lam": (float, 1e-10), "alpha": (float, 1.0)}

# key -> (type, default) per command; flags mirror these one-to-one
SCHEMAS: dict = {
    "ham-sweep": {
        "alphas": (str, "2,1,0.5,0.1,0.05,0.01"),
        "x": (str, "0"),
        "p": (str, "1"),
        "model": (str, "channel"),
        "nodes": (int, 512),
    },
    "hjb-compare": {
        "alpha": (float, 1.0),
        "t": (float, 0.1),
        "grid_n": (int, 161),
        "nodes": (int, 32),
        "ode_step": (float, 0.025),
        "n_starts": (int, 16),
        "start_radius": (float, 5.0),
        "simplex_iters": (int, 40),
        "warm_iters": (int, 20),
    },
    "vdp-control": {
        "alpha": (float, 1.0),
        "total_t": (float, 5.0),
        "window_t": (float, 2.5),
        "dt": (float, 0.5),
        "nodes": (int, 32),
        "ode_step": (float, 0.1),
        "n_starts": (int, 5),
        "start_radius": (float, 1.5),
        "simplex_iters": (int, 60),
    },
    "lq-exact": dict(_LQ_PROBLEM),
    # the learners' keys are the problem's plus LearnerConfig's fields bar the seed
    "lq-onpolicy": {
        **_LQ_PROBLEM,
        **{f.name: (type(f.default), f.default) for f in fields(LearnerConfig) if f.name != "seed"},
    },
}
SCHEMAS["lq-offpolicy"] = dict(SCHEMAS["lq-onpolicy"])

# ham-sweep model -> (dynamics, running cost, control box)
_HAM_MODELS = {
    "channel": lambda: (
        linear_channel_model(), zero_running_cost(), ControlBox(lower=[-1.0], upper=[1.0])
    ),
    "vdp": lambda: (vdp_plane_model(), vdp_plane_cost(), vdp_control_box()),
}


def _numbers(raw: str):
    """The floats of a comma-separated list, or None if a token is not a finite number."""
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def _check_alphas(raw: str):
    vals = _numbers(raw)
    if vals and len(set(vals)) == len(vals) and all(a > 0 for a in vals):
        return True
    return "alphas must be distinct finite numbers > 0, comma-separated"


# the rules of the keys that no library value built in _library_values checks, or
# whose library message does not name the key (t, grid_n); these run first
_VALIDATORS = {
    "alphas": _check_alphas,
    "x": lambda v: _numbers(v) is not None or "x must be comma-separated finite numbers",
    "p": lambda v: _numbers(v) is not None or "p must be comma-separated finite numbers",
    "model": lambda v: v in _HAM_MODELS or "model must be one of " + ", ".join(_HAM_MODELS),
    "t": lambda v: v > 0 or "t must be > 0",
    "grid_n": lambda v: v >= 8 or "grid_n must be >= 8",
    "nodes": lambda v: v >= 4 or "nodes must be >= 4",
    "warm_iters": lambda v: v >= 1 or "warm_iters must be >= 1",
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int
    output_dir: Path
    params: dict
    # the library values built from the fields above (see _library_values)
    library: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    version: str
    duration_s: float
    outputs: list

    def to_json(self, path):
        write_json(path, asdict(self))

    def verify(self, base_dir) -> bool:
        for entry in self.outputs:
            path = Path(base_dir) / entry["path"]
            if not path.exists() or _sha256(path) != entry["sha256"]:
                return False
        return True


def _sha256(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _coerce(command: str, key: str, raw: str, where: str):
    schema = SCHEMAS[command]
    if key not in schema:
        valid = ", ".join(sorted(schema))
        raise ConfigError(f"unknown key {key!r} for {command} ({where}); valid keys: {valid}")
    typ = schema[key][0]
    try:
        value = typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r} ({where}): {raw!r} is not {typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"invalid {key!r} ({where}): {key} must be finite")
    verdict = _VALIDATORS[key](value) if key in _VALIDATORS else True
    if verdict is not True:
        raise ConfigError(f"invalid {key!r} ({where}): {verdict}")
    return value


def parse_config(
    command: str,
    path=None,
    overrides: dict | None = None,
    seed: int = 0,
    output_dir="out",
) -> ExperimentConfig:
    """Config from an optional key-value file plus flag overrides.

    The file is flat ``key = value`` lines; ``[section]`` headers scope keys to
    one command, keys before any section apply globally (only ``seed`` and
    ``out`` are global); a section that names no command is an error. Flags
    override file values. The library values that a run uses are built here,
    once (``_library_values``), and check their keys before any work or output
    directory.
    """
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; valid: {', '.join(COMMANDS)}")
    params = {k: default for k, (_, default) in SCHEMAS[command].items()}
    settings, section = [], None  # (key, raw, where): file lines, then flags
    try:
        lines = [] if path is None else Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMAS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section [{section}]; valid: {', '.join(COMMANDS)}"
                )
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        where = f"{path}:{lineno}"
        if section is None and key not in ("seed", "out"):
            raise ConfigError(
                f"{where}: key {key!r} outside a command section (only seed/out are global)"
            )
        if section == command and key in ("seed", "out"):
            _coerce(command, key, raw, where)  # raises: seed and out are not command keys
        if section in (None, command):
            settings.append((key, raw, where))
    settings += [(key, str(raw), "flag") for key, raw in (overrides or {}).items()]
    for key, raw, where in settings:
        if key == "seed":
            seed = raw
        elif key == "out":
            output_dir = raw
        else:
            params[key] = _coerce(command, key, raw, where)
    try:
        seed = int(seed)
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from exc
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if str(output_dir) == "":
        raise ConfigError("out must not be empty")
    try:
        library = _library_values(command, seed, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(command, seed, Path(output_dir), params, library)


def _threads() -> int:
    raw = os.environ.get("MAXENT_HJB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"MAXENT_HJB_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _library_values(command: str, seed: int, p: dict) -> dict:
    """The library values a run of ``command`` uses, built from its keys. Their
    constructors state those keys' rules and raise ValueError naming the key."""
    if command == "ham-sweep":
        model, cost, box = _HAM_MODELS[p["model"]]()
        values = {"model": model, "cost": cost, "box": box}
        for key in ("x", "p"):
            values[key] = np.array(_numbers(p[key]))
            if values[key].size != model.state_dim:
                raise ValueError(
                    f"{key} has length {values[key].size}; "
                    f"the {p['model']} model needs {model.state_dim}"
                )
        return values
    if command in ("hjb-compare", "vdp-control"):
        keys = ("ode_step", "n_starts", "start_radius", "simplex_iters")
        values = {"hopf_lax": HopfLaxConfig(seed=seed, **{key: p[key] for key in keys})}
        if command == "hjb-compare":
            model, horizon = vdp_plane_model(), p["t"]
            values["grid"] = Grid2D(*HJB_BOX, p["grid_n"], p["grid_n"])
            values["processes"] = _threads()
        else:
            # window_t first: its rule names the key, the cost's horizon rule does not
            values["windows"] = window_steps(p["total_t"], p["window_t"], p["dt"])
            model, horizon = vdp4_model(), p["window_t"]
        cost = vdp_plane_cost(alpha=p["alpha"], horizon=horizon)
        grid_q = build_grid(vdp_control_box(), p["nodes"])
        values["context"] = HamiltonianContext(model=model, cost=cost, alpha=p["alpha"], grid=grid_q)
        return values
    values = {"problem": load_fixture(p["fixture"], lam=p["lam"], alpha=p["alpha"])}
    if command != "lq-exact":
        learner = {key: value for key, value in p.items() if key not in _LQ_PROBLEM}
        values["learner"] = LearnerConfig(seed=seed, **learner)
    return values


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment; artifacts land in config.output_dir."""
    runner = {
        "ham-sweep": _run_ham_sweep,
        "hjb-compare": _run_hjb_compare,
        "vdp-control": _run_vdp_control,
        "lq-exact": _run_lq_exact,
        "lq-onpolicy": _run_lq_learner,
        "lq-offpolicy": _run_lq_learner,
    }[config.command]
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    produced: list[Path] = []
    try:
        runner(config, out, produced)
    except Exception as exc:
        for path in produced:
            path.unlink(missing_ok=True)
        if isinstance(exc, MaxEntError):  # keep the subclass: callers catch the typed error
            exc.args = (f"{config.command} failed: {exc}",)
        raise
    duration = time.time() - started
    outputs = [
        {"path": p.name, "sha256": _sha256(p)} for p in sorted(produced, key=lambda p: p.name)
    ]
    manifest = RunManifest(
        command=config.command,
        config={"seed": config.seed, **config.params},
        version=__version__,
        duration_s=duration,
        outputs=outputs,
    )
    manifest.to_json(out / "manifest.json")
    if not manifest.verify(out):
        raise MaxEntError("manifest verification failed after writing outputs")
    return manifest


def _artifact(produced: list, path: Path, write, *args):
    """``write(path, *args)``, with the path registered first for the manifest and
    for the cleanup of a failed run."""
    produced.append(path)
    write(path, *args)


def _run_ham_sweep(config: ExperimentConfig, out: Path, produced: list):
    p, lib = config.params, config.library
    alphas = sorted(_numbers(p["alphas"]), reverse=True)
    model, cost, x, pvec = lib["model"], lib["cost"], lib["x"], lib["p"]
    grid = build_grid(lib["box"], p["nodes"])
    sweep = laplace_gap(model, cost, x, pvec, alphas, grid)
    h0 = standard_hamiltonian(model, cost, x, pvec, grid)
    rows = [(a, h, ht, h0) for a, h, ht in sweep]
    _artifact(produced, out / "ham_sweep.csv", write_table, "alpha, H_alpha, H_tilde, H0", rows)
    summary = {"H0": h0, "alphas": alphas}
    if p["model"] == "channel":
        errs = [
            abs(h - analytic_linear_channel_hamiltonian(float(pvec[0]), a))
            for a, h, _ in sweep
        ]
        summary["max_abs_err_vs_closed_form"] = max(errs)
    _artifact(produced, out / "summary.json", write_json, summary)


def _run_hjb_compare(config: ExperimentConfig, out: Path, produced: list):
    p, lib = config.params, config.library
    ctx, grid = lib["context"], lib["grid"]
    godunov = godunov_solve(ctx, ctx.cost.terminal, grid, p["t"])
    values = value_surface(
        ctx, ctx.cost.terminal, grid.xs, grid.ys, p["t"], lib["hopf_lax"],
        n_random=1, n_bands=2, processes=lib["processes"], warm_iters=p["warm_iters"],
    )
    surface = GridFunction(values=values, grid=grid, time=p["t"])
    report = compare_solutions(godunov, surface)

    _artifact(produced, out / "godunov.csv", godunov.to_csv)
    _artifact(produced, out / "hopflax.csv", surface.to_csv)
    _artifact(produced, out / "summary.json", write_json, report)


def _run_vdp_control(config: ExperimentConfig, out: Path, produced: list):
    p, lib = config.params, config.library
    windows, steps_per_window = lib["windows"]
    ctx = lib["context"]
    model, cost = ctx.model, ctx.cost
    # the uncontrolled baseline first, so that a diverging one fails before any solve
    steps, h = windows * steps_per_window, p["dt"] * p["dt"]  # the step of the controlled run
    states, _ = euler_rollout(model.eval, VDP4_X0, h, steps, lambda k, x: np.zeros(1))
    if len(states) <= steps:
        raise DivergedTrajectoryError(
            len(states),
            f"the uncontrolled baseline diverged at step {len(states)} (t = {len(states) * h:g} s)",
        )
    states, times = np.asarray(states), np.add.accumulate(np.r_[0.0, np.full(steps, h)])
    zero_controls = np.zeros((steps + 1, 1))
    uncontrolled_cost = float(np.trapezoid(cost.running.eval(states, zero_controls), times))
    traj = receding_horizon_control(
        ctx, VDP4_X0, p["total_t"], p["window_t"], lib["hopf_lax"], dt=p["dt"]
    )
    controlled_cost = float(np.trapezoid(cost.running.eval(traj.states, traj.controls), traj.times))

    _artifact(produced, out / "trajectory.csv", traj.to_csv)
    header = ", ".join(["t"] + [f"x_{i}" for i in range(states.shape[1])])
    _artifact(produced, out / "uncontrolled.csv", write_table, header,
              np.column_stack([times, states]))
    summary = {
        "controlled_running_cost": controlled_cost,
        "uncontrolled_running_cost": uncontrolled_cost,
        "improved": controlled_cost < uncontrolled_cost,
    }
    _artifact(produced, out / "summary.json", write_json, summary)


def _run_lq_exact(config: ExperimentConfig, out: Path, produced: list):
    p = config.params
    sol = kleinman_iterate(config.library["problem"])
    _artifact(produced, out / "P.txt", save_matrix, sol.p)
    _artifact(produced, out / "K.txt", save_matrix, sol.k)
    summary = {
        "fixture": p["fixture"],
        "iterations": sol.iterations,
        "are_residual": sol.residual,
        "p_norm": float(np.linalg.norm(sol.p)),
        "k_norm": float(np.linalg.norm(sol.k)),
    }
    _artifact(produced, out / "summary.json", write_json, summary)


def _run_lq_learner(config: ExperimentConfig, out: Path, produced: list):
    p, lib = config.params, config.library
    prob, learner_cfg = lib["problem"], lib["learner"]
    oracle = kleinman_iterate(prob)
    system = HiddenLqSystem(prob)
    runner = run_onpolicy if config.command == "lq-onpolicy" else run_offpolicy
    report = runner(system, np.zeros((prob.m, prob.n)), learner_cfg)
    rel_err = float(np.linalg.norm(report.p_final - oracle.p) / np.linalg.norm(oracle.p))

    _artifact(produced, out / "report.json", report.to_json)
    # the file holds the delta_t window grid plus the last row; the report used every substep
    traj, last = report.trajectory, len(report.trajectory) - 1
    kept = np.r_[0 : last : learner_cfg.n_sub, last]
    on_grid = Trajectory(traj.times[kept], traj.states[kept], traj.controls[kept])
    _artifact(produced, out / "trajectory.csv", on_grid.to_csv)
    settling = report.settling_time if math.isfinite(report.settling_time) else None
    summary = {
        "fixture": p["fixture"],
        "converged": report.converged,
        "relative_p_error": rel_err,
        "total_samples": report.total_samples,
        "learning_time": report.learning_time,
        "settling_time": settling,
        "total_running_cost": report.total_running_cost,
    }
    _artifact(produced, out / "summary.json", write_json, summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxent-hjb",
        allow_abbrev=False,  # a prefix of --help, such as --h, is read as a key
        usage="%(prog)s <command> [--config FILE] [--seed N] [--out DIR] [--key value ...]",
        description="max-entropy optimal control experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    args, rest = parser.parse_known_args(argv)

    overrides = {}
    flag = None
    # --key=value reads as --key value
    tokens = [part for arg in rest for part in (arg.split("=", 1) if arg.startswith("--") else [arg])]
    for token in tokens:
        if flag is None and not token.startswith("--"):
            print(f"config error: unexpected argument {token!r}", file=sys.stderr)
            return 2
        if flag is None:
            flag = token
        elif token.startswith("--"):
            break
        else:
            overrides[flag[2:].replace("-", "_")] = token
            flag = None
    if flag is not None:
        print(f"config error: flag {flag} needs a value", file=sys.stderr)
        return 2

    try:
        config = parse_config(args.command, path=overrides.pop("config", None), overrides=overrides)
        manifest = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MaxEntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: wrote {len(manifest.outputs)} artifacts to {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
