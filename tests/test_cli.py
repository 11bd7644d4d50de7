import inspect
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from maxent_hjb import (
    HiddenLqSystem,
    HopfLaxConfig,
    LearnerConfig,
    kleinman_iterate,
    load_matrix,
    run_offpolicy,
    run_onpolicy,
)
from maxent_hjb.benchmarks import load_fixture
from maxent_hjb.cli import _VALIDATORS, SCHEMAS, RunManifest, main, parse_config, run
from maxent_hjb.errors import ConfigError
from maxent_hjb.hopf_lax import window_steps


class TestParseConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config("ham-sweep", path=path)
        assert config.params["alphas"] == "2,1,0.5,0.1,0.05,0.01"
        assert config.seed == 0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[hjb-compare]\nalpha = 1.0\ngrid_n = 33\n")
        config = parse_config("hjb-compare", path=path, overrides={"alpha": "0.5"})
        assert config.params["alpha"] == 0.5
        assert config.params["grid_n"] == 33

    def test_global_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nout = artifacts\n[ham-sweep]\nnodes = 64\n")
        config = parse_config("ham-sweep", path=path)
        assert config.seed == 9
        assert str(config.output_dir) == "artifacts"
        assert config.params["nodes"] == 64

    def test_unknown_key_lists_valid(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[ham-sweep]\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config("ham-sweep", path=path)
        assert "valid keys" in str(err.value)

    def test_type_mismatch_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[hjb-compare]\ngrid_n = lots\n")
        with pytest.raises(ConfigError) as err:
            parse_config("hjb-compare", path=path)
        assert "run.cfg:2" in str(err.value)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("hjb-compare", overrides={"alpha": "-0.5"})
        assert "alpha must be > 0" in str(err.value)

    def test_other_sections_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[hjb-compare]\ngrid_n = 21\n[ham-sweep]\nnodes = 32\n")
        config = parse_config("ham-sweep", path=path)
        assert config.params["nodes"] == 32

    @pytest.mark.parametrize("key", ["seed", "out"])
    def test_global_key_inside_a_section_refused(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"[ham-sweep]\n{key} = 3\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' for ham-sweep .*run.cfg:2"):
            parse_config("ham-sweep", path=path)

    def test_flags_apply_after_file_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 4\nout = from-file\n[ham-sweep]\nnodes = 64\n")
        config = parse_config("ham-sweep", path=path, overrides={"seed": "5", "nodes": "128"})
        assert (config.seed, str(config.output_dir)) == (5, "from-file")
        assert config.params["nodes"] == 128

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config("ham-sweep", path=tmp_path / "missing.cfg")


class TestHamSweepCommand:
    def test_matches_closed_form(self, tmp_path):
        config = parse_config(
            "ham-sweep", overrides={"out": str(tmp_path), "p": "1", "nodes": "256"}
        )
        manifest = run(config)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_abs_err_vs_closed_form"] < 1e-8
        lines = (tmp_path / "ham_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha, H_alpha, H_tilde, H0"
        assert len(lines) == 7
        assert manifest.verify(tmp_path)

    def test_reproducibility_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            run(parse_config("ham-sweep", overrides={"out": str(out)}, seed=3))
        for name in ("ham_sweep.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestLqCommands:
    def test_lq_exact_matches_library(self, tmp_path):
        config = parse_config("lq-exact", overrides={"out": str(tmp_path)})
        run(config)
        prob = load_fixture("n3m2")
        oracle = kleinman_iterate(prob)
        p_file = load_matrix(tmp_path / "P.txt")
        k_file = load_matrix(tmp_path / "K.txt")
        assert np.linalg.norm(p_file - oracle.p) < 1e-8
        assert np.linalg.norm(k_file - oracle.k) < 1e-8

    def test_lq_onpolicy_run(self, tmp_path):
        config = parse_config("lq-onpolicy", overrides={"out": str(tmp_path)}, seed=7)
        manifest = run(config)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["relative_p_error"] <= 5e-2
        assert manifest.verify(tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["total_samples"] == summary["total_samples"]

    def test_lq_offpolicy_fewer_samples(self, tmp_path):
        out_on = tmp_path / "on"
        out_off = tmp_path / "off"
        run(parse_config("lq-onpolicy", overrides={"out": str(out_on)}, seed=4))
        run(parse_config("lq-offpolicy", overrides={"out": str(out_off)}, seed=4))
        s_on = json.loads((out_on / "summary.json").read_text())
        s_off = json.loads((out_off / "summary.json").read_text())
        assert s_off["total_samples"] < s_on["total_samples"]

    @pytest.mark.parametrize(
        "command, overrides",
        [
            # the rollout ends 0.0005 s past a window boundary, off the grid
            ("lq-offpolicy", {"fixture": "n3m2", "eval_horizon": "3.0005"}),
            # the rank count: windows only, no rollout
            ("lq-onpolicy", {"fixture": "n10m10", "eval_horizon": "0", "eps_stop": "1e9",
                             "max_iters": "1"}),
        ],
    )
    def test_trajectory_csv_holds_the_window_grid(self, command, overrides, tmp_path):
        config = parse_config(command, overrides={"out": str(tmp_path / "run"), **overrides}, seed=1)
        run(config)
        p = config.params
        problem = {"fixture", "lam", "alpha"}
        learner_cfg = LearnerConfig(seed=1, **{k: v for k, v in p.items() if k not in problem})
        prob = load_fixture(p["fixture"], lam=p["lam"], alpha=p["alpha"])
        runner = run_onpolicy if command == "lq-onpolicy" else run_offpolicy
        report = runner(HiddenLqSystem(prob), np.zeros((prob.m, prob.n)), learner_cfg)
        report.to_json(tmp_path / "report.json")
        report.trajectory.to_csv(tmp_path / "full.csv")

        header, *rows = (tmp_path / "full.csv").read_text().splitlines(keepends=True)
        n_sub, last = learner_cfg.n_sub, len(rows) - 1
        kept = list(range(0, len(rows), n_sub))
        if command == "lq-offpolicy":
            assert last % n_sub != 0
            kept.append(last)
        else:
            assert last == n_sub * report.total_samples
        written = (tmp_path / "run" / "trajectory.csv").read_text()
        assert written == header + "".join(rows[i] for i in kept)
        assert (tmp_path / "run" / "report.json").read_bytes() == (
            tmp_path / "report.json"
        ).read_bytes()


class TestHjbCompareCommand:
    def test_coarse_run_produces_artifacts(self, tmp_path):
        config = parse_config(
            "hjb-compare",
            overrides={
                "out": str(tmp_path),
                "grid_n": "17",
                "nodes": "16",
                "n_starts": "4",
                "simplex_iters": "30",
                "warm_iters": "15",
            },
        )
        manifest = run(config)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("max_abs_diff", "sup_norm_b", "rel_pct", "rel_pct_interior"):
            assert key in summary
        assert summary["rel_pct"] < 30.0  # coarse-grid smoke bound only
        assert manifest.verify(tmp_path)
        assert (tmp_path / "godunov.csv").exists()
        assert (tmp_path / "hopflax.csv").exists()

    def test_artifacts_independent_of_thread_count(self, tmp_path, monkeypatch):
        tiny = {"grid_n": "9", "nodes": "8", "n_starts": "3", "simplex_iters": "6",
                "warm_iters": "3"}
        for threads in ("1", "2"):
            monkeypatch.setenv("MAXENT_HJB_THREADS", threads)
            out = tmp_path / threads
            run(parse_config("hjb-compare", overrides={"out": str(out), **tiny}, seed=5))
        for name in ("godunov.csv", "hopflax.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "-4", "0"])
    def test_invalid_thread_count_rejected(self, monkeypatch, threads):
        monkeypatch.setenv("MAXENT_HJB_THREADS", threads)
        with pytest.raises(ConfigError, match="MAXENT_HJB_THREADS"):
            parse_config("hjb-compare")


class TestVdpControlCommand:
    def test_short_run(self, tmp_path):
        # one window of five Euler steps of dt^2 = 0.49
        config = parse_config(
            "vdp-control",
            overrides={
                "out": str(tmp_path),
                "total_t": "2.45",
                "window_t": "2.45",
                "simplex_iters": "30",
                "n_starts": "3",
                "dt": "0.7",
            },
        )
        run(config)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "controlled_running_cost" in summary
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "uncontrolled.csv").exists()


    def test_defaults_pass_the_uncontrolled_baseline(self, tmp_path, monkeypatch):
        # the baseline is stepped first and must stay inside DIVERGENCE_NORM at the
        # defaults; reaching the receding-horizon run shows it did, with no solve made
        from maxent_hjb import cli

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "receding_horizon_control", reached)
        with pytest.raises(Reached):
            run(parse_config("vdp-control", overrides={"out": str(tmp_path)}))

    def test_diverging_baseline_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # dt 0.5: the uncontrolled Euler baseline leaves the bound at step 27 (t = 6.75 s)
        from maxent_hjb import cli

        monkeypatch.setattr(cli, "receding_horizon_control",
                            lambda *args, **kwargs: pytest.fail("a Hopf-Lax run started"))
        out = tmp_path / "out"
        code = main(["vdp-control", "--total_t", "7.5", "--window_t", "2.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "uncontrolled baseline diverged at step 27" in err
        assert not any(out.iterdir())


class TestNoFiniteStart:
    def test_hjb_compare_fails_without_artifacts(self, tmp_path, capsys):
        # at t = 5 every start blows up at some grid points of the 9x9 surface
        out = tmp_path / "out"
        argv = ["hjb-compare", "--grid_n", "9", "--nodes", "8", "--n_starts", "3",
                "--simplex_iters", "5", "--warm_iters", "3", "--t", "5", "--out", str(out)]
        assert main(argv) == 1
        assert "starts blew up" in capsys.readouterr().err
        assert not any(out.iterdir())


def reject_constant(name):
    raise AssertionError(f"{name} in a JSON artifact")


TINY_RUNS = {
    "ham-sweep": {"nodes": "64"},
    "hjb-compare": {"grid_n": "9", "nodes": "8", "n_starts": "3", "simplex_iters": "6",
                    "warm_iters": "3"},
    "vdp-control": {"total_t": "0.5", "window_t": "0.5", "n_starts": "2",
                    "simplex_iters": "5", "ode_step": "0.2"},
    "lq-exact": {},
    "lq-onpolicy": {"max_iters": "2", "eval_horizon": "0.5"},
    "lq-offpolicy": {"max_iters": "2", "eval_horizon": "0.5"},
}


class TestLibraryValues:
    @pytest.mark.parametrize("command", sorted(TINY_RUNS))
    def test_a_run_reads_the_values_built_when_parsed(self, command, tmp_path, monkeypatch):
        from maxent_hjb import cli

        config = parse_config(command, overrides={"out": str(tmp_path), **TINY_RUNS[command]})
        for name in ("_library_values", "load_fixture", "HamiltonianContext", "Grid2D",
                     "HopfLaxConfig", "LearnerConfig", "window_steps", "vdp_plane_cost"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(name))
        run(config)

    def test_configs_compare_by_their_settings(self):
        # the built values (here the vdp x and p vectors) stay out of == and repr
        flags = {"model": "vdp", "x": "0.5,-0.2", "p": "1,1"}
        config = parse_config("ham-sweep", overrides=flags)
        assert config == parse_config("ham-sweep", overrides=flags)
        assert "library" not in repr(config)


class TestStrictJson:
    @pytest.mark.parametrize("command", sorted(TINY_RUNS))
    def test_every_json_artifact_is_strict(self, command, tmp_path):
        run(parse_config(command, overrides={"out": str(tmp_path), **TINY_RUNS[command]}))
        paths = sorted(tmp_path.glob("*.json"))
        assert "manifest.json" in [p.name for p in paths] and len(paths) >= 2
        for path in paths:
            json.loads(path.read_text(), parse_constant=reject_constant)


class TestMainEntry:
    def test_exit_zero_on_success(self, tmp_path, capsys):
        code = main(["ham-sweep", "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        assert "artifacts" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        code = main(["ham-sweep", "--out", str(tmp_path), "--nodes", "grams"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_error_from_a_runner_exits_two(self, tmp_path, capsys, monkeypatch):
        # the sweep's process count is read with the keys, before the output directory
        monkeypatch.setenv("MAXENT_HJB_THREADS", "abc")
        out = tmp_path / "out"
        assert main(["hjb-compare", "--out", str(out)]) == 2
        message = "MAXENT_HJB_THREADS must be an integer >= 1, got 'abc'"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unknown_section_exits_two(self, tmp_path, capsys):
        # a mistyped section would otherwise drop its keys and run at the defaults
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(f"out = {out}\n[hjb_compare]\ngrid_n = 13\n")
        assert main(["hjb-compare", "--config", str(path)]) == 2
        valid = "ham-sweep, hjb-compare, vdp-control, lq-onpolicy, lq-offpolicy, lq-exact"
        message = f"{path}:2: unknown section [hjb_compare]; valid: {valid}"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hjb-compare", "--domain", "-1"],
            ["hjb-compare", "--cfl", "0.5"],
            ["hjb-compare", "--n_random", "-1"],
            ["hjb-compare", "--n_bands", "2"],
            ["vdp-control", "--replan_every", "0"],
            ["lq-exact", "--tol", "1e-9"],
            ["lq-onpolicy", "--settle_band", "2"],
            ["lq-offpolicy", "--settle_band", "2"],
        ],
    )
    def test_fixed_setting_is_an_unknown_key(self, argv, tmp_path, capsys):
        # the box, the CFL number, the sweep's starts and bands, one replan per step,
        # the Riccati tolerance and the settling band are constants of the studies
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"unknown key {argv[1][2:]!r} for {argv[0]} (flag)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hjb-compare", "--ode_step", "0"],
            ["hjb-compare", "--grid_n", "7"],
            ["hjb-compare", "--warm_iters", "0"],
            ["hjb-compare", "--simplex_iters", "-3"],
            ["lq-onpolicy", "--n_sub", "1"],
            ["lq-onpolicy", "--lam", "-1"],
            ["lq-onpolicy", "--max_iters", "0"],
            ["lq-offpolicy", "--max_iters", "0"],
            ["vdp-control", "--window_t", "0"],
            ["vdp-control", "--window_t", "3", "--total_t", "10"],
            ["ham-sweep", "--nodes", "3"],
            ["ham-sweep", "--alphas", "1,-1"],
            ["ham-sweep", "--alphas", "1,x"],
            ["lq-exact", "--fixture", "foo"],
            ["lq-onpolicy", "--seed", "-1"],
            ["vdp-control", "--total_t", "2.5", "--window_t", "2.5", "--dt", "0.7"],
            ["ham-sweep", "--model", "lorenz"],
            ["hjb-compare", "--t", "0"],
            # no float key takes a non-finite value
            ["hjb-compare", "--t", "inf"],
            ["lq-onpolicy", "--eval_horizon", "inf"],
            ["vdp-control", "--total_t", "inf"],
            # list keys take finite numbers only
            ["ham-sweep", "--alphas", "1,inf"],
            ["ham-sweep", "--p", "nan"],
            ["ham-sweep", "--x", "inf"],
            ["ham-sweep", "--config", "no-such-dir/run.cfg"],
            # keys checked by the library value built for them
            ["vdp-control", "--dt", "-0.5"],
            ["vdp-control", "--dt", "0"],
            ["lq-offpolicy", "--eval_horizon", "-1"],
            ["hjb-compare", "--start_radius", "0"],
            # the length rule of the ham-sweep vectors
            ["ham-sweep", "--model", "vdp", "--x", "0.5", "--p", "1,1"],
        ],
    )
    def test_out_of_range_value_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["--out=", "--out ''", "out = in the file"])
    def test_empty_out_exits_two_and_writes_nothing(self, form, tmp_path, capsys, monkeypatch):
        # an empty out would be the current directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out =\n")
        flags = {"--out=": ["--out="], "--out ''": ["--out", ""],
                 "out = in the file": ["--config", "run.cfg"]}[form]
        assert main(["lq-exact", *flags]) == 2
        assert capsys.readouterr().err == "config error: out must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("flags", [["--nodes"], ["--nodes", "--p", "2"], ["--model"]])
    def test_flag_without_value_exits_two(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ham-sweep", "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"config error: flag {flags[0]} needs a value\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "abc"], "seed must be an integer, got 'abc'"),
            (["--seed", "2.5"], "seed must be an integer, got '2.5'"),
            (["--seed=abc"], "seed must be an integer, got 'abc'"),
            (["--seed"], "flag --seed needs a value"),
            (["--out"], "flag --out needs a value"),
            (["--config"], "flag --config needs a value"),
            (["--seed", "--nodes", "64"], "flag --seed needs a value"),
        ],
    )
    def test_malformed_global_setting_exits_two(self, flags, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a bare --out would otherwise write to the default "out"
        out = tmp_path / "run"
        argv = ["ham-sweep", *flags] if "--out" in flags else ["ham-sweep", "--out", str(out), *flags]
        assert main(argv) == 2  # returns: no SystemExit
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() and not (tmp_path / "out").exists()

    def test_key_equals_value_matches_key_space_value(self, tmp_path):
        eq, sp = tmp_path / "eq", tmp_path / "sp"
        assert main(["ham-sweep", f"--out={eq}", "--seed=3", "--nodes=64"]) == 0
        assert main(["ham-sweep", "--out", str(sp), "--seed", "3", "--nodes", "64"]) == 0
        for name in ("ham_sweep.csv", "summary.json"):
            assert (eq / name).read_bytes() == (sp / name).read_bytes()
        config = json.loads((eq / "manifest.json").read_text())["config"]
        assert config == json.loads((sp / "manifest.json").read_text())["config"]
        assert (config["seed"], config["nodes"]) == (3, 64)

    def test_config_flag_takes_the_equals_form(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed = 2\nout = {tmp_path / 'run'}\n[ham-sweep]\nnodes = 64\n")
        assert main(["ham-sweep", f"--config={path}"]) == 0
        config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]
        assert (config["seed"], config["nodes"]) == (2, 64)

    def test_help_shows_the_global_flags(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        usage = capsys.readouterr().out
        assert all(flag in usage for flag in ("--config", "--seed", "--out"))

    def test_vdp_sweep_needs_planar_vectors(self, tmp_path, capsys):
        code = main(["ham-sweep", "--model", "vdp", "--out", str(tmp_path / "a")])
        assert code == 2
        assert "x has length 1; the vdp model needs 2" in capsys.readouterr().err
        args = ["--x", "0.5,-0.2", "--p", "1,1", "--nodes", "64", "--out", str(tmp_path / "b")]
        assert main(["ham-sweep", "--model", "vdp", *args]) == 0

    def test_flag_mirroring(self, tmp_path):
        code = main(["ham-sweep", "--out", str(tmp_path), "--p", "2", "--nodes", "128"])
        assert code == 0
        lines = (tmp_path / "ham_sweep.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_console_script_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "maxent_hjb.cli", "ham-sweep", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0


# the keys whose rule a library value states: parse_config builds that value.
# load_fixture's LqProblem checks fixture, lam and alpha; the HJB commands'
# CostModel and HamiltonianContext check alpha.
_LIBRARY_KEYS = (
    {f.name for f in fields(LearnerConfig)}
    | {f.name for f in fields(HopfLaxConfig)}
    | set(inspect.signature(window_steps).parameters)
    | {"fixture", "lam", "alpha"}
) - {"seed", "formula"}


class TestSchemas:
    def test_every_key_rule_is_stated_once(self):
        # by its _VALIDATORS entry or by the library value built for it, never both
        keys = {key for schema in SCHEMAS.values() for key in schema}
        assert not set(_VALIDATORS) & _LIBRARY_KEYS
        assert keys == set(_VALIDATORS) | _LIBRARY_KEYS
        assert len(_VALIDATORS) == 8

    def test_each_command_has_its_keys(self):
        hopf_lax = {"alpha", "nodes", "ode_step", "n_starts", "start_radius", "simplex_iters"}
        learner = {"fixture", "lam", "alpha", "delta_t", "n_sub", "eps_stop", "max_iters",
                   "extra_windows", "eval_horizon"}
        assert {command: set(schema) for command, schema in SCHEMAS.items()} == {
            "ham-sweep": {"alphas", "x", "p", "model", "nodes"},
            "hjb-compare": hopf_lax | {"t", "grid_n", "warm_iters"},
            "vdp-control": hopf_lax | {"total_t", "window_t", "dt"},
            "lq-exact": {"fixture", "lam", "alpha"},
            "lq-onpolicy": learner,
            "lq-offpolicy": learner,
        }
        assert len(set().union(*SCHEMAS.values())) == 24

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, schema in SCHEMAS.items() for k in sorted(schema) if k in _LIBRARY_KEYS],
    )
    def test_library_keys_checked_when_parsed(self, command, key):
        # -1 breaks every library rule: each of these keys must be > 0 or >= 0
        with pytest.raises(ConfigError, match=key):
            parse_config(command, overrides={key: "-1"})

    @pytest.mark.parametrize("command", ["lq-onpolicy", "lq-offpolicy"])
    def test_learner_keys_are_the_problem_and_the_learner_config(self, command):
        learner = {f.name for f in fields(LearnerConfig)} - {"seed"}
        schema = SCHEMAS[command]
        assert set(schema) == {"fixture", "lam", "alpha"} | learner
        assert schema["lam"] == (float, 1e-10)
        assert schema["alpha"] == (float, 1.0)

    def test_problem_keys_reach_the_learner(self, tmp_path, monkeypatch):
        from maxent_hjb import cli

        class Reached(Exception):
            pass

        seen = {}

        def record(system, k0, config):
            seen.update(alpha=system.alpha, lam=system.lam)
            raise Reached

        monkeypatch.setattr(cli, "run_onpolicy", record)
        with pytest.raises(Reached):
            main(["lq-onpolicy", "--alpha", "0.5", "--lam", "0.01", "--out", str(tmp_path)])
        assert seen == {"alpha": 0.5, "lam": 0.01}


class TestManifest:
    def test_tamper_detection(self, tmp_path):
        run(parse_config("ham-sweep", overrides={"out": str(tmp_path)}))
        payload = json.loads((tmp_path / "manifest.json").read_text())
        manifest = RunManifest(
            command=payload["command"],
            config=payload["config"],
            version=payload["version"],
            duration_s=payload["duration_s"],
            outputs=payload["outputs"],
        )
        assert manifest.verify(tmp_path)
        (tmp_path / "ham_sweep.csv").write_text("tampered\n")
        assert not manifest.verify(tmp_path)


class TestPartialOutputCleanup:
    def test_failed_run_removes_artifacts(self, tmp_path, monkeypatch):
        from maxent_hjb import cli
        from maxent_hjb.errors import MaxEntError as Err

        def broken(config, out, produced):
            path = out / "partial.csv"
            path.write_text("half-written\n")
            produced.append(path)
            raise Err("stage blew up")

        monkeypatch.setitem(
            cli.run.__globals__, "_run_ham_sweep", broken
        )
        config = parse_config("ham-sweep", overrides={"out": str(tmp_path)})
        with pytest.raises(Exception):
            run(config)
        assert not (tmp_path / "partial.csv").exists()
