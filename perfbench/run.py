"""Benchmark runner for maxent-hjb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repeat of the workload runs in a fresh
process (``workloads.py``), one at a time from this process (a closed loop
with one client). Repeats continue until the next one would end past
``--seconds`` (at least three, or two untraced plus two traced with
``--trace 1``); each run reports the median over its repeats.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics, the tracing overhead, and the workload's accuracy figures.
Every repeat is gated on its correctness checks; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("surface", "oracle", "control", "learn")
MIN_REPEATS = 3
MIN_TRACED = 2
SETUP_ONLY = 5  # extra set-up-only processes per untraced run, for a steadier setup_s
RUN_LIMIT_S = 160.0  # no repeat may end later than this after the run starts
# counts that must repeat exactly between traced repeats of one seed
EXACT_COUNTS = ("soft_hamiltonian.query_nodes", "dynamics.eval_rows", "adaptive_dp.windows")
ACCURACY = (
    "rel_pct", "rel_pct_interior", "p_rel_err_onpolicy", "p_rel_err_offpolicy",
    "samples", "cost_ratio",
)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # fork workers x BLAS threads stay within the cores
    env.setdefault("MAXENT_HJB_THREADS", "2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _stop_group(pgid: int):
    """Kill what is left of a repeat's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _run_child(cmd: list, env: dict, timeout: float) -> tuple[int | None, str]:
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
        return proc.returncode, output
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    finally:
        _stop_group(proc.pid)


def _repeat(args, env, out: Path, traced: bool, reference: bool, timeout: float,
            setup_only: bool = False) -> dict:
    out.mkdir(parents=True)
    flags = (["--trace"] * traced + ["--setup-only"] * setup_only
             + ["--reference"] * reference + ["--tiny"] * args.tiny)
    t0 = time.monotonic_ns()
    code, output = _run_child(
        [sys.executable, str(HERE / "workloads.py"), args.workload, "--seed", str(args.seed),
         "--out", str(out), "--t0", str(t0), *flags],
        env, timeout,
    )
    if code != 0:
        tail = output.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "setup_only": setup_only, "error": f"exit {code}: {tail[0]}"}
    with open(out / "result.json", encoding="ascii") as fh:
        return {"traced": traced, "setup_only": setup_only, **json.load(fh)}


def _repeats(args, env, work: Path) -> list:
    started = time.monotonic()
    reps: list = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        elapsed = time.monotonic() - started
        reps.append(_repeat(args, env, work / f"rep{len(reps)}", traced, not reps,
                            max(RUN_LIMIT_S - elapsed, 1.0)))
        elapsed = time.monotonic() - started
        n_traced = sum(r["traced"] for r in reps)
        enough = (len(reps) - n_traced >= (MIN_TRACED if args.trace else MIN_REPEATS)
                  and n_traced >= (MIN_TRACED if args.trace else 0))
        per_repeat = elapsed / len(reps)
        if (enough and elapsed + per_repeat > args.seconds) or elapsed + per_repeat > RUN_LIMIT_S:
            return reps


def _setups(args, env, work: Path) -> list:
    """Set-up-only repeats; untraced runs add them to the setup_s sample."""
    return [] if args.trace else [
        _repeat(args, env, work / f"setup{index}", False, False, 60.0, setup_only=True)
        for index in range(SETUP_ONLY)
    ]


def _workload_repeats(reps: list) -> list:
    return [r for r in reps if "error" not in r and not r["setup_only"]]


def _failures(reps: list) -> list:
    """One reason (or None) per repeat: errors, failed gates, and outputs or
    exact counts that differ from the first good repeat of the run."""
    good = _workload_repeats(reps)
    first = good[0] if good else None
    first_traced = next((r for r in good if r["traced"]), None)
    reasons = []
    for r in reps:
        if "error" in r:
            reasons.append(r["error"])
            continue
        if r["setup_only"]:
            reasons.append(None)
            continue
        gates = {**first["gates"], **r["gates"]}
        bad = sorted(name for name, ok in gates.items() if not ok)
        if not r["manifests_ok"]:
            bad.append("manifest_verify")
        if r["artifacts"] != first["artifacts"]:
            bad.append("artifact_sha256")
        if r["traced"] and any(
            r["layers"][c] != first_traced["layers"][c] for c in EXACT_COUNTS
        ):
            bad.append("exact_counts")
        reasons.append(", ".join(bad) or None)
    return reasons


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _metrics(args, reps: list, failed: int) -> dict:
    good = _workload_repeats(reps)
    plain = [r for r in good if not r["traced"]]
    if not args.trace:
        return {
            "setup_s": _median(r["setup_s"] for r in reps if "setup_s" in r and not r["traced"]),
            "wall_s": _median(r["wall_s"] for r in plain),
            "work_per_s": _median(r["work"] / r["wall_s"] for r in plain),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        }
    traced = [r for r in good if r["traced"]]
    names = traced[0]["layers"] if traced else {}
    metrics = {name: _median(r["layers"][name] for r in traced) for name in names}
    untraced_wall = _median(r["wall_s"] for r in plain)
    traced_wall = _median(r["wall_s"] for r in traced)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall / untraced_wall - 1.0) if untraced_wall and traced_wall else 0.0
    )
    values = good[0]["values"] if good else {}
    metrics.update({name: values.get(name, 0.0) for name in ACCURACY})
    metrics["failed_frac"] = failed / len(reps)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="maxent-hjb benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxent_hjb" / "__init__.py").is_file():
        print(f"error: no maxent_hjb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = _child_env()
    work = WORK_DIR / str(os.getpid())
    try:
        # compile the package's bytecode once, so no repeat's set-up pays for it
        code, output = _run_child([sys.executable, "-c", "import maxent_hjb.cli"], env, 60.0)
        if code != 0:
            print(f"error: cannot import maxent_hjb: {output.strip()}", file=sys.stderr)
            return 2
        reps = _repeats(args, env, work)
        reps += _setups(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    reasons = _failures(reps)
    failed = sum(reason is not None for reason in reasons)
    good = _workload_repeats(reps)
    metrics = dict.fromkeys(units, 0.0)
    if good:
        measured = _metrics(args, reps, failed)
        missing = sorted(set(units) - set(measured))
        if missing:
            raise RuntimeError(f"benchmark emits no value for {missing}")
        metrics.update(measured)
    environment = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **(good[0]["env"] if good else {}),
        "git_sha": _git_sha(),
        "MAXENT_HJB_THREADS": env["MAXENT_HJB_THREADS"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} processes, {sum(r['traced'] for r in reps)} traced, "
          f"{sum(r['setup_only'] for r in reps)} set-up only")
    print("environment " + json.dumps(environment, sort_keys=True))
    for index, (rep, reason) in enumerate(zip(reps, reasons)):
        timing = "".join(
            f" {key} {rep[key]:.3f} s" for key in ("wall_s", "setup_s") if key in rep
        )
        kind = " traced" if rep["traced"] else " set-up only" if rep["setup_only"] else ""
        print(f"repeat {index}{kind}:{timing} "
              f"{'FAILED ' + reason if reason else 'ok'}")
    for name, value in (good[0]["values"] if good else {}).items():
        print(f"check {name} {value!r}")
    print(f"failed_frac {failed / len(reps)!r} ({failed} of {len(reps)} processes)")
    for name in units:
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
