import math

import numpy as np
import pytest

from maxent_hjb import (
    HiddenLqSystem,
    LearnerConfig,
    LqProblem,
    OffPolicyRows,
    OnPolicyRows,
    Trajectory,
    collect_offpolicy_window,
    collect_onpolicy_window,
    kleinman_iterate,
    run_offpolicy,
    run_onpolicy,
    settling_time,
    sinusoidal_baseline,
    solve_offpolicy,
    solve_onpolicy,
    solve_lyapunov,
)
from maxent_hjb import adaptive_dp
from maxent_hjb.adaptive_dp import _euler_steps, _rollout, _start_stream, _Stream
from maxent_hjb.benchmarks import load_fixture
from maxent_hjb.dynamics import DIVERGENCE_NORM, diverged, diverged_rows, make_rng
from maxent_hjb.errors import (
    DimensionMismatchError,
    DivergedTrajectoryError,
    RankDeficientError,
    RankStallError,
)
from maxent_hjb.lq import numerical_rank, svec, svec_size


@pytest.fixture(scope="module")
def fixture_problem():
    return load_fixture("n3m2", lam=1e-10, alpha=1.0)


@pytest.fixture(scope="module")
def fixture_oracle(fixture_problem):
    return kleinman_iterate(fixture_problem)


@pytest.fixture(scope="module")
def fixture_system(fixture_problem):
    return HiddenLqSystem(fixture_problem)


def scalar_system(a):
    """dx/dt = a x + u with unit costs, temperature and a negligible discount."""
    return HiddenLqSystem(LqProblem(a=[[a]], b=[[1.0]], q=[[1.0]], r=[[1.0]], lam=1e-10, alpha=1.0))


def default_config(seed=0, **overrides):
    base = dict(
        delta_t=0.01,
        n_sub=10,
        eps_stop=2e-2,
        max_iters=25,
        seed=seed,
        eval_horizon=20.0,
    )
    base.update(overrides)
    return LearnerConfig(**base)


def synth_exact_windows(a, b, k_gain, n_windows, delta_t=0.05, fine=400, seed=0, lam=0.0):
    """Windows from exactly propagated dynamics with zero-order-held inputs.

    Controls are held constant on each of ``fine`` sub-intervals per window
    (matching the collectors' hold convention) and the linear flow is advanced
    with the exact exponential map, so the regression identity holds to solver
    precision ('noise-free synthesized regressors').
    """
    n = a.shape[0]
    m = b.shape[1]
    rng = np.random.default_rng(seed)
    h = delta_t / fine
    # exact ZOH maps: x+ = E x + F u with E = exp(Ah), F = int_0^h exp(As) ds B
    e_map = np.eye(n)
    term = np.eye(n)
    f_int = np.eye(n) * h
    term_f = np.eye(n) * h
    for k in range(1, 25):
        term = term @ (a * h) / k
        e_map = e_map + term
        term_f = term_f @ (a * h) * (k / ((k + 1) * k))
        f_int = f_int + term_f
    f_map = f_int @ b

    x = rng.normal(size=n)
    t = 0.0
    windows = []
    for _ in range(n_windows):
        times = [t]
        states = [x.copy()]
        controls = []
        for _ in range(fine):
            u = -(k_gain @ x) + 0.5 * rng.standard_normal(m)
            controls.append(u)
            x = e_map @ x + f_map @ u
            t += h
            times.append(t)
            states.append(x.copy())
        controls.append(controls[-1])
        windows.append((np.array(times), np.array(states), np.array(controls)))
    return windows


class TestOnPolicyCollector:
    def test_no_exploration_zeroes_gain_block(self):
        # u matching the held-interval policy mean: epsilon = 0 identically
        k_gain = np.array([[0.5, -0.2]])
        times = np.linspace(0.0, 0.01, 11)
        states = np.column_stack([np.cos(times), np.sin(times)])
        mids = 0.5 * (states[:-1] + states[1:])
        controls = np.vstack([-(mids @ k_gain.T), np.zeros((1, 1))])
        theta, _ = collect_onpolicy_window(
            times, states, controls, k_gain, np.eye(2), np.eye(1), 0.0
        )
        gain_block = theta[svec_size(2):]
        assert np.max(np.abs(gain_block)) == 0.0

    def test_zero_state_zero_row(self):
        k_gain = np.zeros((1, 2))
        times = np.linspace(0, 0.01, 11)
        states = np.zeros((11, 2))
        controls = np.zeros((11, 1))
        theta, xi = collect_onpolicy_window(times, states, controls, k_gain, np.eye(2), np.eye(1), 0.0)
        assert np.all(theta == 0.0)
        assert xi == 0.0

    def test_constant_state_hand_integral(self):
        # x = 1, u = 0, K = 0, lam = 0: xi = -dt * Q, endpoint block = 0
        q_val = 2.5
        times = np.linspace(0, 0.01, 11)
        states = np.ones((11, 1))
        controls = np.zeros((11, 1))
        theta, xi = collect_onpolicy_window(
            times, states, controls, np.zeros((1, 1)), [[q_val]], [[1.0]], 0.0
        )
        assert xi == pytest.approx(-0.01 * q_val)
        assert theta[0] == pytest.approx(0.0)

    def test_misaligned_samples_rejected(self):
        with pytest.raises(DimensionMismatchError):
            collect_onpolicy_window(
                np.linspace(0, 1, 5), np.zeros((4, 2)), np.zeros((5, 1)),
                np.zeros((1, 2)), np.eye(2), np.eye(1), 0.0,
            )


class TestSolveOnPolicy:
    def test_forward_synthesis_recovery(self):
        # oracle: theta z* = xi by construction
        rng = np.random.default_rng(0)
        n, m = 3, 2
        cols = svec_size(n) + m * n
        p_star = rng.normal(size=(n, n))
        p_star = p_star + p_star.T
        k_star = rng.normal(size=(m, n))
        z = np.concatenate([svec(p_star), k_star.flatten(order="F")])
        theta = rng.normal(size=(30, cols))
        rows = OnPolicyRows(theta=theta, xi=theta @ z, n=n, m=m)
        p_hat, k_hat = solve_onpolicy(rows)
        assert np.linalg.norm(p_hat - p_star) < 1e-8
        assert np.linalg.norm(k_hat - k_star) < 1e-8

    def test_duplicate_rows_rank_deficient(self):
        n, m = 2, 1
        cols = svec_size(n) + m * n
        row = np.arange(1.0, cols + 1.0)
        rows = OnPolicyRows(theta=np.tile(row, (6, 1)), xi=np.ones(6), n=n, m=m)
        with pytest.raises(RankDeficientError) as err:
            solve_onpolicy(rows)
        assert err.value.rank == 1
        assert err.value.needed == cols

    def test_minimal_scalar_case_two_windows(self):
        # n = m = 1: two independent rows suffice (svec + mn = 2 unknowns)
        rng = np.random.default_rng(5)
        p_star = np.array([[1.7]])
        k_star = np.array([[-0.4]])
        z = np.concatenate([svec(p_star), k_star.flatten(order="F")])
        theta = rng.normal(size=(2, 2))
        rows = OnPolicyRows(theta=theta, xi=theta @ z, n=1, m=1)
        p_hat, k_hat = solve_onpolicy(rows)
        assert p_hat[0, 0] == pytest.approx(1.7, abs=1e-10)
        assert k_hat[0, 0] == pytest.approx(-0.4, abs=1e-10)


class TestOffPolicyCollector:
    def test_zero_state_zero_rows(self):
        times = np.linspace(0, 0.01, 11)
        delta, i1, i2 = collect_offpolicy_window(
            times, np.zeros((11, 2)), np.ones((11, 1)), 0.0
        )
        assert np.all(delta == 0) and np.all(i1 == 0) and np.all(i2 == 0)

    def test_constant_state_hand_integral(self):
        # x = c, u = 0, lam = 0: delta = 0, i1 = dt * kron(c, c), i2 = 0
        c = np.array([2.0, -1.0])
        times = np.linspace(0, 0.01, 11)
        states = np.tile(c, (11, 1))
        controls = np.zeros((11, 1))
        delta, i1, i2 = collect_offpolicy_window(times, states, controls, 0.0)
        assert np.allclose(delta, 0.0)
        assert np.allclose(i1, 0.01 * np.kron(c, c))
        assert np.allclose(i2, 0.0)

    def test_exponential_weighting_ratio(self):
        # stationary segment shifted by delta_t scales rows by e^{-lam dt}
        lam = 3.0
        c = np.array([1.0, 0.5])
        dt = 0.01
        times_a = np.linspace(0, dt, 11)
        times_b = times_a + dt
        states = np.tile(c, (11, 1))
        controls = np.full((11, 1), 0.3)
        _, i1_a, i2_a = collect_offpolicy_window(times_a, states, controls, lam)
        _, i1_b, i2_b = collect_offpolicy_window(times_b, states, controls, lam)
        assert np.allclose(i1_b, math.exp(-lam * dt) * i1_a, rtol=1e-12)
        assert np.allclose(i2_b, math.exp(-lam * dt) * i2_a, rtol=1e-12)


class TestSolveOffPolicy:
    def test_forward_synthesis_recovery(self):
        # oracle: rows built so the exact linear system is consistent with (P*, K*)
        rng = np.random.default_rng(1)
        n, m = 3, 2
        k_k = rng.normal(size=(m, n)) * 0.3
        q_mat = np.eye(n)
        r_mat = np.eye(m)
        p_star = rng.normal(size=(n, n))
        p_star = p_star @ p_star.T + np.eye(n)
        k_star = rng.normal(size=(m, n))
        l_rows = 40
        xs = rng.normal(size=(l_rows, n))
        us = rng.normal(size=(l_rows, m))
        i1 = np.stack([np.kron(x, x) for x in xs])
        i2 = np.stack([np.kron(x, u) for x, u in zip(xs, us)])
        gain_block = -2.0 * (
            i1 @ np.kron(np.eye(n), k_k.T @ r_mat) + i2 @ np.kron(np.eye(n), r_mat)
        )
        rhs = -i1 @ (q_mat + k_k.T @ r_mat @ k_k).flatten(order="F")
        target = rhs - gain_block @ k_star.flatten(order="F")
        sp = svec(p_star)
        delta = rng.normal(size=(l_rows, svec_size(n)))
        delta += np.outer((target - delta @ sp) / (sp @ sp), sp)
        rows = OffPolicyRows(delta=delta, i1=i1, i2=i2, n=n, m=m)
        p_hat, k_hat = solve_offpolicy(rows, k_k, q_mat, r_mat)
        assert np.linalg.norm(p_hat - p_star) < 1e-8
        assert np.linalg.norm(k_hat - k_star) < 1e-8

    def test_fixed_point_at_optimum(self, fixture_problem, fixture_oracle):
        # exact-integral data + optimal K in: solver must return K out = K*
        prob = fixture_problem
        windows = synth_exact_windows(prob.a, prob.b, fixture_oracle.k, 30, seed=3)
        delta, i1, i2 = zip(*(collect_offpolicy_window(t, x, u, prob.lam) for t, x, u in windows))
        rows = OffPolicyRows(
            delta=np.asarray(delta), i1=np.asarray(i1), i2=np.asarray(i2), n=prob.n, m=prob.m
        )
        p_hat, k_hat = solve_offpolicy(rows, fixture_oracle.k, prob.q, prob.r)
        assert np.linalg.norm(k_hat - fixture_oracle.k) < 1e-6
        assert np.linalg.norm(p_hat - fixture_oracle.p) < 1e-6

    def test_zero_data_rank_deficient(self):
        rows = OffPolicyRows(
            delta=np.zeros((10, 6)), i1=np.zeros((10, 9)), i2=np.zeros((10, 6)), n=3, m=2
        )
        with pytest.raises(RankDeficientError):
            solve_offpolicy(rows, np.zeros((2, 3)), np.eye(3), np.eye(2))


class TestOnPolicyCollectorExactIdentity:
    def test_rows_satisfy_lyapunov_identity(self, fixture_problem):
        # end-to-end collector validation on exactly integrated dynamics
        prob = fixture_problem
        k_gain = np.zeros((prob.m, prob.n))
        p_t = solve_lyapunov(prob.a, prob.lam, prob.q)
        k_t = np.linalg.solve(prob.r, prob.b.T @ p_t)
        z = np.concatenate([svec(p_t), k_t.flatten(order="F")])
        for t, x, u in synth_exact_windows(prob.a, prob.b, k_gain, 10, seed=7):
            theta, xi = collect_onpolicy_window(t, x, u, k_gain, prob.q, prob.r, prob.lam)
            assert abs(theta @ z - xi) < 1e-8


class TestLearnerConfig:
    @pytest.mark.parametrize(
        "key, value",
        [("delta_t", 0.0), ("delta_t", math.nan), ("delta_t", math.inf), ("n_sub", 1),
         ("eps_stop", 0.0), ("eps_stop", math.nan), ("max_iters", 0), ("extra_windows", -3),
         ("settle_band", 0.0), ("settle_band", math.nan), ("eval_horizon", -1.0),
         ("eval_horizon", math.nan), ("eval_horizon", math.inf)],
    )
    def test_bad_value_rejected_at_construction(self, key, value):
        # the same rules as the CLI's validators, with NaN failing each one
        with pytest.raises(ValueError, match=key):
            LearnerConfig(**{key: value})


class TestRunOnPolicy:
    def test_fixture_recovery(self, fixture_system, fixture_oracle):
        k0 = np.zeros((2, 3))
        rep = run_onpolicy(fixture_system, k0, default_config(seed=7))
        rel = np.linalg.norm(rep.p_final - fixture_oracle.p) / np.linalg.norm(fixture_oracle.p)
        assert rep.converged
        assert rel <= 5e-2

    def test_intermediate_gains_stabilizing(self, fixture_system):
        k0 = np.zeros((2, 3))
        rep = run_onpolicy(fixture_system, k0, default_config(seed=1))
        for _, k in rep.iterates:
            assert fixture_system.closed_loop_abscissa(k) < 0

    def test_monotone_iterates(self, fixture_system):
        rep = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=2, extra_windows=24))
        for (p_prev, _), (p_next, _) in zip(rep.iterates, rep.iterates[1:]):
            min_eig = np.min(np.linalg.eigvalsh(p_prev - p_next))
            assert min_eig >= -1e-6 * np.linalg.norm(p_prev) - 5e-3

    def test_huge_threshold_one_iteration(self, fixture_system):
        rep = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=3, eps_stop=1e9, max_iters=5))
        assert rep.converged
        assert len(rep.iterates) == 2  # needs one comparison pair

    def test_determinism(self, fixture_system):
        rep_a = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=11))
        rep_b = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=11))
        assert np.array_equal(rep_a.p_final, rep_b.p_final)
        assert np.array_equal(rep_a.trajectory.states, rep_b.trajectory.states)
        assert rep_a.total_running_cost == rep_b.total_running_cost

    def test_rank_stall_raises(self, fixture_system):
        # a=0 sinusoid explores nothing: rank can never be met
        silent = lambda t: np.zeros(2)
        with pytest.raises(RankStallError):
            run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=0), explore=silent)

    @pytest.mark.parametrize("runner, calls", [(run_offpolicy, 2), (run_onpolicy, 8)])
    def test_rank_computed_once_per_data_set(self, fixture_system, monkeypatch, runner, calls):
        # off-policy: one check while collecting, one for the data set all
        # iterations reuse; on-policy: the same two per iteration
        assert count_rank_calls(fixture_system, monkeypatch, runner, extra_windows=12) == calls

    @pytest.mark.parametrize("runner, calls", [(run_offpolicy, 1), (run_onpolicy, 4)])
    def test_checked_rows_are_solved_without_extra_windows(
        self, fixture_system, monkeypatch, runner, calls
    ):
        # no window after the rank check: the checked rows are solved, one SVD each
        assert count_rank_calls(fixture_system, monkeypatch, runner, extra_windows=0) == calls


def count_rank_calls(system, monkeypatch, runner, extra_windows):
    """``numerical_rank`` calls of a seed-0 run, which takes four iterations."""
    counted = []
    monkeypatch.setattr(
        adaptive_dp, "numerical_rank",
        lambda *args: counted.append(1) or numerical_rank(*args),
    )
    cfg = default_config(seed=0, extra_windows=extra_windows, eval_horizon=0.0)
    rep = runner(system, np.zeros((2, 3)), cfg)
    assert len(rep.iterates) == 4
    return len(counted)


class TestReportShape:
    def test_onpolicy_counts_every_iteration(self, fixture_system):
        rep = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=5))
        assert len(rep.samples_per_iter) == len(rep.rank_counts) == len(rep.iterates) >= 2
        # with extra_windows 0 each iteration stops at the window where rank held
        assert rep.samples_per_iter == rep.rank_counts
        assert all(s >= svec_size(3) + 6 for s in rep.samples_per_iter)
        assert rep.total_samples == sum(rep.samples_per_iter)
        assert rep.p_final is rep.iterates[-1][0]
        assert np.array_equal(rep.k_final, rep.iterates[-1][1])

    def test_offpolicy_collects_once(self, fixture_system):
        rep = run_offpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=5))
        windows = rep.samples_per_iter[0]
        assert len(rep.iterates) >= 2
        assert rep.samples_per_iter == [windows] + [0] * (len(rep.iterates) - 1)
        assert rep.rank_counts == [windows] and windows == rep.total_samples
        assert rep.p_final is rep.iterates[-1][0]
        assert np.array_equal(rep.k_final, rep.iterates[-1][1])

    def test_max_iters_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            default_config(max_iters=0)


class TestRunOffPolicy:
    def test_fixture_recovery_and_sample_ordering(self, fixture_system, fixture_oracle):
        k0 = np.zeros((2, 3))
        rels = []
        for seed in range(5):
            cfg = default_config(seed=seed)
            rep_off = run_offpolicy(fixture_system, k0, cfg)
            rep_on = run_onpolicy(fixture_system, k0, cfg)
            rels.append(
                np.linalg.norm(rep_off.p_final - fixture_oracle.p) / np.linalg.norm(fixture_oracle.p)
            )
            assert rep_off.total_samples < rep_on.total_samples
        assert float(np.median(rels)) <= 5e-2

    def test_fixed_point_fast_convergence(self, fixture_system, fixture_oracle):
        rep = run_offpolicy(
            fixture_system, fixture_oracle.k, default_config(seed=4, extra_windows=36, eps_stop=5e-2)
        )
        assert rep.converged
        assert len(rep.iterates) <= 2


class TestSinusoidalBaseline:
    def test_zero_amplitude(self):
        e = sinusoidal_baseline(0.0, 100.0, 10, seed=0, channels=2)
        assert np.allclose(e(0.37), 0.0)

    def test_single_term_exact(self):
        e = sinusoidal_baseline(2.0, 50.0, 1, seed=1, channels=1)
        w = e.omegas[0, 0]
        for t in (0.0, 0.1, 1.3):
            assert e(t)[0] == pytest.approx(2.0 * math.sin(w * t))

    def test_benchmark_configuration_shape(self):
        e = sinusoidal_baseline(0.5, 100.0, 100, seed=2, channels=3)
        assert e.omegas.shape == (3, 100)
        assert np.all(np.abs(e.omegas) <= 100.0)
        assert e(0.5).shape == (3,)


class TestSettlingTime:
    def test_identically_zero(self):
        traj = Trajectory(
            times=np.linspace(0, 1, 11), states=np.zeros((11, 2)), controls=np.zeros((11, 1))
        )
        assert settling_time(traj, band=1.0) == 0.0

    def test_never_settles(self):
        traj = Trajectory(
            times=np.linspace(0, 1, 11), states=np.full((11, 1), 2.0), controls=np.zeros((11, 1))
        )
        assert settling_time(traj, band=1.0) == math.inf

    def test_exponential_crossing(self):
        # oracle: 2 e^{-t} crosses 1 at t = log 2
        times = np.linspace(0, 3, 3001)
        states = (2.0 * np.exp(-times))[:, None]
        traj = Trajectory(times=times, states=states, controls=np.zeros((3001, 1)))
        assert settling_time(traj, band=1.0) == pytest.approx(math.log(2.0), abs=2e-3)


class TestExplorationComparison:
    def test_maxent_beats_sinusoidal_on_cost(self, fixture_system):
        k0 = np.zeros((2, 3))
        costs_me, costs_base = [], []
        for seed in range(10):
            cfg = default_config(seed=seed)
            costs_me.append(run_onpolicy(fixture_system, k0, cfg).total_running_cost)
            e = sinusoidal_baseline(0.5, 100.0, 100, seed=seed, channels=2)
            costs_base.append(run_onpolicy(fixture_system, k0, cfg, explore=e).total_running_cost)
        assert float(np.median(costs_me)) <= float(np.median(costs_base))


class TestReportSerialization:
    def test_json_round_trip(self, fixture_system, tmp_path):
        import json

        rep = run_onpolicy(fixture_system, np.zeros((2, 3)), default_config(seed=0))
        path = tmp_path / "report.json"
        rep.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["converged"] is True
        assert payload["total_samples"] == rep.total_samples
        assert len(payload["p_norms"]) == len(rep.iterates)


class _ReferenceStream:
    """The stream record as it was before the shared stepper: copying appends."""

    def __init__(self, x0):
        self.times = [0.0]
        self.states = [np.asarray(x0, dtype=float).copy()]
        self.controls = []

    def append(self, t, x, u):
        self.times.append(t)
        self.states.append(x.copy())
        self.controls.append(u.copy())


def reference_substeps(system, stream, k_gain, chol_sigma, h, count, rng, explore=None):
    """Copy of the window-collection loop before it shared the Euler stepper."""
    x = stream.states[-1].copy()
    t = stream.times[-1]
    for _ in range(count):
        mean = -(k_gain @ x)
        if explore is not None:
            u = mean + explore(t)
        else:
            u = mean + chol_sigma @ rng.standard_normal(system.m)
        x = x + h * system.drift(x, u)
        t += h
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_NORM:
            raise DivergedTrajectoryError(len(stream.times))
        stream.append(t, x, u)


def reference_rollout(system, stream, k_gain, h, eval_horizon):
    """Copy of the evaluation rollout before it shared the Euler stepper."""
    x = stream.states[-1].copy()
    t = stream.times[-1]
    while t < eval_horizon - 1e-12:
        u = -(k_gain @ x)
        x = x + h * system.drift(x, u)
        t += h
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_NORM:
            raise DivergedTrajectoryError(len(stream.times))
        stream.append(t, x, u)


def stream_arrays(stream):
    """(times, states, controls) of either stream record, stacked."""
    controls = np.vstack(stream.controls) if stream.controls else np.empty((0, 0))
    return np.hstack(stream.times), np.vstack(stream.states), controls


def stream_bytes(stream):
    return tuple(column.tobytes() for column in stream_arrays(stream))


ROLLOUT_REL_TOL = 1e-12


def assert_rollout_matches(stream, ref):
    """Same rows and byte-equal times; states and controls within
    ROLLOUT_REL_TOL relative per row of the per-step loop."""
    times, states, controls = stream_arrays(stream)
    ref_times, ref_states, ref_controls = stream_arrays(ref)
    assert len(times) == len(ref_times)
    assert times.tobytes() == ref_times.tobytes()
    for got, want in ((states, ref_states), (controls, ref_controls)):
        gap = np.linalg.norm(got - want, axis=1)
        assert np.all(gap <= ROLLOUT_REL_TOL * np.linalg.norm(want, axis=1))


class TestEulerStepper:
    """The window stepper reproduces the former window loop bit for bit; the
    block rollout matches the former per-step rollout loop within the bound."""

    @pytest.mark.parametrize("noise", ["gaussian", "explore", "none"])
    def test_matches_reference_loops(self, fixture_system, noise):
        system = fixture_system
        cfg = default_config(seed=4, eval_horizon=1.0)
        k_gain = 0.1 * np.arange(6.0).reshape(2, 3) - 0.2
        explore = sinusoidal_baseline(0.5, 100.0, 20, seed=4, channels=2)
        _, gaussian, stream = _start_stream(system, k_gain, cfg, None)
        noise_fn = {"gaussian": gaussian, "explore": explore, "none": None}[noise]
        ref = _ReferenceStream(stream.last[1])
        chol_sigma = np.linalg.cholesky(system.alpha * np.linalg.inv(system.r))
        rng = make_rng(cfg.seed)
        # windows under the exploration noise; the old loop had no noise-free
        # window, so without noise the comparison is the rollout alone
        for _ in range(0 if noise_fn is None else 7):
            _euler_steps(system, stream, k_gain, cfg.substep, noise_fn, count=cfg.n_sub)
            reference_substeps(system, ref, k_gain, chol_sigma, cfg.substep, cfg.n_sub, rng,
                               explore if noise == "explore" else None)
        assert stream.rows == (1 if noise_fn is None else 71)
        assert stream_bytes(stream) == stream_bytes(ref)
        _rollout(system, stream, k_gain, cfg.substep, cfg.eval_horizon - 1e-12)
        reference_rollout(system, ref, k_gain, cfg.substep, cfg.eval_horizon)
        assert stream.rows == 1001
        assert_rollout_matches(stream, ref)

    def test_window_is_the_stream_tail(self, fixture_system):
        cfg = default_config(seed=4)
        _, gaussian, stream = _start_stream(fixture_system, np.zeros((2, 3)), cfg, None)
        for _ in range(3):
            times, states, controls = _euler_steps(
                fixture_system, stream, np.zeros((2, 3)), cfg.substep, gaussian, cfg.n_sub)
        all_times, all_states, all_controls = stream_arrays(stream)
        assert np.array_equal(times, all_times[-11:])
        assert np.array_equal(states, all_states[-11:])
        # the last sample repeats the held control
        assert np.array_equal(controls, np.vstack([all_controls[-10:], all_controls[-1:]]))

    @pytest.mark.parametrize("noise", ["gaussian", "none"])
    def test_divergence_at_same_index(self, noise):
        system = scalar_system(5.0)
        cfg = default_config(seed=0, delta_t=0.1, n_sub=10)
        k_gain = np.zeros((1, 1))
        _, gaussian, stream = _start_stream(system, k_gain, cfg, None)
        ref = _ReferenceStream([1.0])
        with pytest.raises(DivergedTrajectoryError) as new_err:
            if noise == "gaussian":
                _euler_steps(system, stream, k_gain, cfg.substep, gaussian, count=10**6)
            else:
                _rollout(system, stream, k_gain, cfg.substep, cfg.eval_horizon)
        with pytest.raises(DivergedTrajectoryError) as ref_err:
            if noise == "gaussian":
                chol_sigma = np.linalg.cholesky(system.alpha * np.linalg.inv(system.r))
                reference_substeps(system, ref, k_gain, chol_sigma, cfg.substep, 10**6,
                                   make_rng(cfg.seed))
            else:
                reference_rollout(system, ref, k_gain, cfg.substep, cfg.eval_horizon)
        assert new_err.value.step == ref_err.value.step == stream.rows
        if noise == "gaussian":
            assert stream_bytes(stream) == stream_bytes(ref)
        else:
            assert_rollout_matches(stream, ref)

    @pytest.mark.parametrize("a, step", [(3.0, 624), (5.0, 378), (50.0, 46)])
    def test_scalar_rollout_diverges_where_the_loop_does(self, a, step):
        # (1 + 0.01 a)^step is the first power beyond DIVERGENCE_NORM
        system = scalar_system(a)
        stream, ref = _Stream(1), _ReferenceStream([1.0])
        with pytest.raises(DivergedTrajectoryError) as new_err:
            _rollout(system, stream, np.zeros((1, 1)), 0.01, 20.0 - 1e-12)
        with pytest.raises(DivergedTrajectoryError) as ref_err:
            reference_rollout(system, ref, np.zeros((1, 1)), 0.01, 20.0)
        assert new_err.value.step == ref_err.value.step == stream.rows == step
        assert_rollout_matches(stream, ref)

    @pytest.mark.parametrize("fixture", ["n3m2", "n10m10"])
    def test_full_horizon_at_the_oracle_gain(self, fixture):
        prob = load_fixture(fixture, lam=1e-10, alpha=1.0)
        k_gain = kleinman_iterate(prob).k
        system = HiddenLqSystem(prob)
        cfg = default_config(eval_horizon=20.0)
        stream, ref = _Stream(prob.n), _ReferenceStream(np.ones(prob.n))
        _rollout(system, stream, k_gain, cfg.substep, cfg.eval_horizon - 1e-12)
        reference_rollout(system, ref, k_gain, cfg.substep, cfg.eval_horizon)
        assert stream.rows == 20_001
        assert_rollout_matches(stream, ref)

    @pytest.mark.parametrize(
        "x",
        [[0.0], [1e8], [1e8 * (1 + 2**-52)], [-2e8], [math.nan], [math.inf], [-math.inf],
         [1e200, 0.0], [6e7, 8e7], [6e7, 8.0000001e7]],
    )
    def test_divergence_predicate_matches_norm_test(self, x):
        x = np.asarray(x)
        with np.errstate(over="ignore"):
            old = not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_NORM
            assert diverged(x) == old

    def test_row_predicate_matches_the_state_predicate(self):
        rows = np.array(
            [[0.0, 0.0], [1e8, 0.0], [1e8 * (1 + 2**-52), 0.0], [0.0, -2e8], [math.nan, 0.0],
             [0.0, math.inf], [-math.inf, 1.0], [math.nan, math.inf], [1e200, 0.0],
             [6e7, 8e7], [6e7, 8.0000001e7], [-1e-300, 5e7]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert diverged_rows(rows).tolist() == [diverged(row) for row in rows]
