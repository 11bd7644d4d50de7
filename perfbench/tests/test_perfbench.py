"""Tests of the benchmark itself: span arithmetic, worker-span merging,
metric names, and a tiny run of every workload."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(sid, parent, start, end, name="x", layer="x", pid=1, attrs=None):
    return [sid, parent, name, layer, pid, start, end, attrs]


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),  # overlaps its sibling, as parallel workers do
        _span(3, 1, 30, 70),
        _span(4, 1, 80, 90),
        _span(5, 2, 15, 25),
        _span(6, 4, 70, 95),  # reaches outside its parent: clipped to [80, 90]
    ]
    own = spans.self_times(tree)
    assert own == {1: 100 - 70, 2: 30 - 10, 3: 40, 4: 0, 5: 10, 6: 25}


def test_layer_self_time_sums_spans_of_the_layer():
    tree = [
        _span(1, None, 0, 1_000_000_000, name=spans.ROOT_NAME, layer="bench"),
        _span(2, 1, 0, 600_000_000, name="hopf_lax.value", layer="hopf_lax",
              attrs={"blown": 0.5}),
        _span(3, 2, 100_000_000, 500_000_000, name="soft_hamiltonian.value_batch",
              layer="soft_hamiltonian", attrs={"rows": 10, "nodes": 32, "dim": 4}),
    ]
    m = spans.layer_metrics(tree)
    assert m["hopf_lax.self_s"] == pytest.approx(0.2)
    assert m["soft_hamiltonian.self_s"] == pytest.approx(0.4)
    assert m["soft_hamiltonian.query_nodes"] == 320
    assert m["soft_hamiltonian.fd_share"] == 1.0
    assert m["soft_hamiltonian.computed_bytes"] == 8 * 320 * (4 + 4)
    assert m["hopf_lax.blown_frac"] == 0.5
    assert m["trace.untraced_share"] == pytest.approx(0.4)


def _traced_surface(tmp_path, processes):
    from maxent_hjb import HamiltonianContext, HopfLaxConfig, build_grid, hopf_lax
    from maxent_hjb.benchmarks import vdp_control_box, vdp_plane_cost, vdp_plane_model

    cost = vdp_plane_cost(alpha=1.0, horizon=0.1)
    ctx = HamiltonianContext(model=vdp_plane_model(), cost=cost, alpha=1.0,
                             grid=build_grid(vdp_control_box(), 8))
    config = HopfLaxConfig(n_starts=2, simplex_iters=2, seed=3)
    recorder = spans.Recorder(tmp_path / f"spans{processes}").install()
    try:
        surface = recorder.root(hopf_lax.value_surface)(
            ctx, cost.terminal, np.linspace(-1, 1, 3), np.linspace(-1, 1, 4), 0.1, config,
            n_random=1, n_bands=2, processes=processes, warm_iters=1,
        )
    finally:
        recorder.uninstall()
    return surface, recorder.collect()


def test_worker_spans_are_merged_into_the_parent(tmp_path):
    serial, serial_spans = _traced_surface(tmp_path, 1)
    forked, forked_spans = _traced_surface(tmp_path, 2)
    np.testing.assert_array_equal(serial, forked)

    (surface,) = [s for s in forked_spans if s[spans.NAME] == "hopf_lax.value_surface"]
    bands = [s for s in forked_spans if s[spans.NAME] == spans.BAND_NAME]
    assert len({s[spans.PID] for s in bands}) == 2
    assert all(s[spans.PID] != surface[spans.PID] for s in bands)
    assert all(s[spans.PARENT] == surface[spans.ID] for s in bands)
    assert len({s[spans.ID] for s in forked_spans}) == len(forked_spans)

    one, two = spans.layer_metrics(serial_spans), spans.layer_metrics(forked_spans)
    for count in ("soft_hamiltonian.calls", "soft_hamiltonian.query_nodes",
                  "dynamics.eval_rows"):
        assert one[count] == two[count] > 0


def test_metric_names_are_restricted():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    computed = set(spans.layer_metrics([])) | {"trace.overhead_pct", "failed_frac"}
    computed |= set(run.ACCURACY)
    assert computed == {m["name"] for m in SPEC["per_layer"]}


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
# every workload the runner accepts: BENCHMARK.json leaves out ``control``
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool) and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _bench(tmp_path, "--workload", "oracle", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
