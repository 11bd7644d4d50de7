"""Run a fixed list of CLI experiments on two source trees and compare their artifacts.

Usage: python tools/artifact_check.py PARENT CHANGE [--only NAME ...]

PARENT and CHANGE are checkouts of this repository. Every run in ``RUNS`` is
``python -m maxent_hjb.cli`` with that tree's ``src`` as PYTHONPATH, writing
into a temporary directory per tree. ``--only`` keeps the named runs.

One line per artifact: ``identical``; for a table (CSV, or a matrix ``.txt``)
the largest absolute and relative difference per column; for JSON the keys
that differ. ``manifest.json`` is compared without ``duration_s`` and the
output hashes, which the data artifacts are compared for directly. The exit
status is 0 only when every data artifact is byte-identical, no run failed
and the manifests agree; 1 otherwise, and 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_VDP_CONTROL = ["--total_t", "5", "--window_t", "2.5", "--simplex_iters", "10", "--ode_step", "0.2"]

# run name -> (CLI arguments, extra environment); changing this list is a
# change of what the identity claims of a change cover
RUNS = {
    **{
        f"hjb-compare-seed{seed}-threads{threads}": (
            ["hjb-compare", "--grid_n", "13", "--seed", str(seed)],
            {"MAXENT_HJB_THREADS": str(threads)},
        )
        for seed in range(3)
        for threads in (1, 2)
    },
    "vdp-control": (["vdp-control", *_VDP_CONTROL, "--seed", "0"], {}),
    "lq-exact": (["lq-exact"], {}),
    **{
        f"{command}-seed{seed}": ([command, "--seed", str(seed)], {})
        for command in ("lq-onpolicy", "lq-offpolicy")
        for seed in range(3)
    },
    "ham-sweep-channel": (["ham-sweep"], {}),
    "ham-sweep-vdp": (["ham-sweep", "--model", "vdp", "--x", "0.5,-0.2", "--p", "1,1"], {}),
}


def run_tree(tree: Path, args: list, env_extra: dict, out: Path) -> str | None:
    """One CLI run of ``tree``'s package into ``out``; None, or the error text."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **env_extra}
    cmd = [sys.executable, "-m", "maxent_hjb.cli", *args, "--out", str(out)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return f"exit {done.returncode}: {(done.stderr.strip().splitlines() or [''])[-1]}"
    return None


def _table(path: Path):
    """(column names, float rows) of a header line plus rows of numbers."""
    lines = path.read_text().splitlines()
    rows = np.array([[float(tok) for tok in line.replace(",", " ").split()] for line in lines[1:]])
    names = [name.strip() for name in lines[0].split(",")] if path.suffix == ".csv" else []
    if len(names) != rows.shape[-1]:
        names = [str(j) for j in range(rows.shape[-1])]
    return names, rows


def _flat(value, prefix=""):
    """A JSON value as {dotted key: leaf}."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flat(item, f"{prefix}{key}."))
        return out
    return {prefix.rstrip("."): value}


def _json(path: Path) -> dict:
    """A JSON artifact as {dotted key: leaf}; a manifest without ``duration_s``
    and with only the paths of its outputs."""
    data = json.loads(path.read_text())
    if path.name == "manifest.json":
        data.pop("duration_s", None)
        data["outputs"] = [entry["path"] for entry in data.get("outputs", [])]
    return _flat(data)


def describe(a: Path, b: Path) -> str:
    """How artifact ``b`` differs from ``a``: 'identical' or a short account."""
    if a.name != "manifest.json" and a.read_bytes() == b.read_bytes():
        return "identical"
    if a.suffix == ".json":
        a_keys, b_keys = _json(a), _json(b)
        keys = sorted(k for k in a_keys.keys() | b_keys.keys() if a_keys.get(k) != b_keys.get(k))
        if not keys:
            return "identical" if a.name == "manifest.json" else "differs in formatting only"
        return "differs in " + ", ".join(keys)
    try:
        (names_a, rows_a), (names_b, rows_b) = _table(a), _table(b)
    except (ValueError, IndexError):
        return "differs (not a numeric table)"
    if names_a != names_b or rows_a.shape != rows_b.shape:
        return f"differs in shape: {names_a} {rows_a.shape} against {names_b} {rows_b.shape}"
    diff = np.abs(rows_a - rows_b)
    scale = np.maximum(np.abs(rows_a), np.abs(rows_b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    cols = [
        f"{name} abs {d:.3g} rel {r:.3g}"
        for name, d, r in zip(names_a, diff.max(axis=0), rel.max(axis=0))
    ]
    return "differs: " + "; ".join(cols)


def compare_dirs(name: str, a: Path, b: Path) -> tuple[list[str], bool]:
    """One line per artifact of run ``name`` in either directory, and whether all agree."""
    lines, same = [], True
    for artifact in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        pa, pb = a / artifact, b / artifact
        if not (pa.exists() and pb.exists()):
            verdict = "only in " + ("PARENT" if pa.exists() else "CHANGE")
        else:
            verdict = describe(pa, pb)
        same &= verdict == "identical"
        lines.append(f"{name}/{artifact}: {verdict}")
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--only", nargs="+", choices=sorted(RUNS), metavar="NAME")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "maxent_hjb").is_dir():
            print(f"{tree} holds no src/maxent_hjb", file=sys.stderr)
            return 2
    names = args.only or list(RUNS)
    identical = total = 0
    ok = True
    with tempfile.TemporaryDirectory(prefix="artifact_check_") as tmp:
        for name in names:
            cli_args, env_extra = RUNS[name]
            outs = [Path(tmp) / side / name for side in ("parent", "change")]
            errors = [run_tree(tree, cli_args, env_extra, out)
                      for tree, out in zip((args.parent, args.change), outs)]
            if any(errors):
                print(f"{name}: run failed: parent {errors[0]}, change {errors[1]}")
                ok = False
                continue
            lines, same = compare_dirs(name, *outs)
            print("\n".join(lines), flush=True)
            identical += sum(line.endswith(": identical") for line in lines)
            total += len(lines)
            ok &= same
    print(f"{identical} of {total} artifacts identical across {len(names)} runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
