import math

import numpy as np
import pytest

from maxent_hjb import (
    ControlAffine,
    ControlBox,
    CostModel,
    DynamicsModel,
    FeatureAffine,
    GaussianPolicy,
    GenericRunning,
    Linear,
    QuadraticRunning,
    build_grid,
    evaluate_cost,
    gaussian_entropy,
    kl_from_uniform,
    make_rng,
    relaxed_drift,
    simulate_sampled,
)
from maxent_hjb.errors import (
    DimensionMismatchError,
    DivergedTrajectoryError,
    NotPositiveDefiniteError,
    UnsupportedFamilyError,
)
from maxent_hjb import dynamics
from maxent_hjb.dynamics import DIVERGENCE_NORM, euler_rollout
from maxent_hjb.soft_hamiltonian import HamiltonianContext, grid_entropy
from maxent_hjb.benchmarks import vdp_plane_model


def scalar_decay_model():
    return DynamicsModel(1, 1, Linear(a=[[-1.0]], b=[[0.0]]))


class TestControlBox:
    def test_volume(self):
        box = ControlBox(lower=[-1.0, 0.0], upper=[1.0, 3.0])
        assert box.volume == pytest.approx(6.0)
        assert box.log_volume == pytest.approx(math.log(6.0))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ControlBox(lower=[0.0], upper=[0.0])


class TestCostModel:
    RUNNING = QuadraticRunning(q=[[1.0]], r=[[1.0]])

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan])
    def test_rejects_bad_temperature(self, alpha):
        with pytest.raises(ValueError, match="temperature alpha must be > 0"):
            CostModel(running=self.RUNNING, terminal=None, alpha=alpha)

    @pytest.mark.parametrize("lam", [-1.0, math.nan])
    def test_rejects_bad_discount(self, lam):
        with pytest.raises(ValueError, match="discount lambda must be >= 0"):
            CostModel(running=self.RUNNING, terminal=None, alpha=1.0, lam=lam)


class TestEvalDynamics:
    def test_linear_zero_drift_identity_input(self):
        model = DynamicsModel(2, 2, Linear(a=np.zeros((2, 2)), b=np.eye(2)))
        assert np.allclose(model.eval([1.0, 2.0], [3.0, 4.0]), [3.0, 4.0])

    def test_vdp_equilibrium_at_origin(self):
        model = vdp_plane_model()
        assert np.allclose(model.eval([0.0, 0.0], [0.0]), [0.0, 0.0])

    def test_vdp_hand_substitution(self):
        # oracle: direct substitution at x=(1,1), u=0.5
        model = vdp_plane_model()
        channel = 0.5 + 0.5**3 / 3.0 + math.sin(0.5)
        expected = np.array([1.0, -2.0 * (1 - 1) * 1.0 - 1.0 + (2.0 + math.sin(1.0)) * channel])
        assert np.allclose(model.eval([1.0, 1.0], [0.5]), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        model = scalar_decay_model()
        with pytest.raises(DimensionMismatchError):
            model.eval([1.0, 2.0], [0.0])

    def test_eval_broadcasts(self):
        model = vdp_plane_model()
        xs = np.random.default_rng(0).normal(size=(5, 3, 2))
        us = np.random.default_rng(1).normal(size=(5, 3, 1))
        out = model.eval(xs, us)
        assert out.shape == (5, 3, 2)
        assert np.allclose(out[2, 1], model.eval(xs[2, 1], us[2, 1]))


class TestRelaxedDrift:
    def test_zero_gain_gives_open_loop_drift(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        model = DynamicsModel(2, 1, Linear(a=a, b=[[0.0], [1.0]]))
        policy = GaussianPolicy(gain=np.zeros((1, 2)), covariance=[[1.0]])
        x = np.array([2.0, -1.0])
        assert np.allclose(relaxed_drift(model, x, policy), a @ x)

    def test_pure_negative_feedback(self):
        model = DynamicsModel(2, 2, Linear(a=np.zeros((2, 2)), b=np.eye(2)))
        policy = GaussianPolicy(gain=np.eye(2), covariance=np.eye(2))
        assert np.allclose(relaxed_drift(model, [1.0, -1.0], policy), [-1.0, 1.0])

    def test_control_affine_against_monte_carlo(self):
        # oracle: Monte-Carlo mean of sampled drifts, 1e5 draws, 3-sigma band
        model = DynamicsModel(
            2,
            1,
            ControlAffine(
                drift=lambda x: np.stack(
                    [x[..., 1], -x[..., 0]], axis=-1
                ),
                input_map=lambda x: np.stack(
                    [np.zeros_like(x[..., 0]), 2.0 + np.sin(x[..., 0] * x[..., 1])],
                    axis=-1,
                )[..., None],
            ),
        )
        gain = np.array([[0.7, -0.3]])
        policy = GaussianPolicy(gain=gain, covariance=[[0.25]])
        x = np.array([0.8, -0.4])
        closed_form = relaxed_drift(model, x, policy)

        rng = make_rng(1234)
        draws = policy.mean(x) + 0.5 * rng.standard_normal((100_000, 1))
        samples = model.eval(np.broadcast_to(x, (100_000, 2)), draws)
        mc_mean = samples.mean(axis=0)
        mc_sigma = samples.std(axis=0) / math.sqrt(100_000)
        assert np.all(np.abs(mc_mean - closed_form) <= 3.0 * mc_sigma + 1e-12)

    def test_generic_family_rejected(self):
        model = vdp_plane_model()
        policy = GaussianPolicy(gain=np.zeros((1, 2)), covariance=[[1.0]])
        with pytest.raises(UnsupportedFamilyError):
            relaxed_drift(model, [0.0, 0.0], policy)


class TestSimulateSampled:
    def test_zero_steps_returns_initial_point(self):
        model = scalar_decay_model()
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        traj = simulate_sampled(model, policy, [3.0], dt=0.1, steps=0, seed=0)
        assert len(traj) == 1
        assert np.allclose(traj.states[0], [3.0])

    def test_vanishing_noise_matches_euler(self):
        # oracle: deterministic Euler with step dt^2 and u = -Kx
        a = np.array([[0.0, 1.0], [-2.0, -0.4]])
        b = np.array([[0.0], [1.0]])
        model = DynamicsModel(2, 1, Linear(a=a, b=b))
        gain = np.array([[0.5, 0.2]])
        policy = GaussianPolicy(gain=gain, covariance=[[1e-18]])
        dt, steps = 0.1, 200
        traj = simulate_sampled(model, policy, [1.0, 0.0], dt, steps, seed=3)

        x = np.array([1.0, 0.0])
        h = dt * dt
        for _ in range(steps):
            x = x + h * (a @ x + b @ (-(gain @ x)))
        assert np.allclose(traj.states[-1], x, atol=1e-6)

    def test_scalar_linear_matches_exponential(self):
        # oracle: exact flow e^{-T} x0 with T = steps * dt^2 ~= 1
        model = scalar_decay_model()
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1e-18]])
        dt = 0.05
        steps = math.ceil(1.0 / dt**2)
        traj = simulate_sampled(model, policy, [2.0], dt, steps, seed=0)
        t_end = traj.times[-1]
        assert abs(traj.states[-1, 0] - 2.0 * math.exp(-t_end)) < 10 * dt**2

    def test_bit_for_bit_determinism(self):
        model = scalar_decay_model()
        policy = GaussianPolicy(gain=[[0.3]], covariance=[[0.5]])
        a = simulate_sampled(model, policy, [1.0], 0.1, 50, seed=42)
        b = simulate_sampled(model, policy, [1.0], 0.1, 50, seed=42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        c = simulate_sampled(model, policy, [1.0], 0.1, 50, seed=43)
        assert not np.array_equal(a.controls, c.controls)

    def test_divergence_reports_step(self):
        # x_k = 61^k, so x_5 = 8.4e8 is the first state beyond the bound
        model = DynamicsModel(1, 1, Linear(a=[[60.0]], b=[[0.0]]))
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1e-12]])
        with pytest.raises(DivergedTrajectoryError) as err:
            simulate_sampled(model, policy, [1.0], dt=1.0, steps=500, seed=0)
        assert err.value.step == 5

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        model = scalar_decay_model()
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        with pytest.raises(ValueError, match="dt"):
            simulate_sampled(model, policy, [1.0], dt=dt, steps=5, seed=0)

    def test_csv_round_trip(self, tmp_path):
        model = scalar_decay_model()
        policy = GaussianPolicy(gain=[[0.1]], covariance=[[0.2]])
        traj = simulate_sampled(model, policy, [1.0], 0.1, 20, seed=9)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t, x_0, u_0"
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back[:, 1:2], traj.states)
        assert np.array_equal(back[:, 0], traj.times)
        assert np.array_equal(back[:, 2:], traj.controls)


def reference_euler_loop(field, x0, h, steps, control):
    """The per-step Euler loop with the norm test that ``diverged`` replaced."""
    x = np.asarray(x0, dtype=float)
    states, controls = [x], []
    for k in range(steps):
        u = control(k, x)
        x = x + h * field(x, u)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_NORM:
            break
        states.append(x)
        controls.append(u)
    return states, controls


class TestEulerRollout:
    @pytest.mark.parametrize("a, kept", [(3.0, 624), (5.0, 378), (50.0, 46)])
    def test_unstable_scalar_stops_where_the_loop_does(self, a, kept):
        # x' = a x + u with a small held control: (1 + 0.01 a)^kept first passes the bound
        model = DynamicsModel(1, 1, Linear(a=[[a]], b=[[1.0]]))

        def control(k, x):
            return np.array([1e-3 * math.sin(k)])

        states, controls = euler_rollout(model.eval, np.array([1.0]), 0.01, 2000, control)
        ref_states, ref_controls = reference_euler_loop(model.eval, [1.0], 0.01, 2000, control)
        assert len(states) == len(ref_states) == kept
        assert len(controls) == len(ref_controls) == kept - 1
        assert np.array_equal(states, ref_states)
        assert np.array_equal(controls, ref_controls)

    def test_non_finite_state_stops_the_rollout(self):
        model = DynamicsModel(
            1, 1, ControlAffine(lambda x: np.where(x > 1.5, np.nan, 1.0), lambda x: np.zeros((1, 1)))
        )
        states, controls = euler_rollout(model.eval, np.array([0.0]), 1.0, 10, lambda k, x: np.zeros(1))
        assert [float(s[0]) for s in states] == [0.0, 1.0, 2.0]
        assert len(controls) == 2


class TestGronwallBounds:
    def test_state_bound_over_seeds(self, vdp_grid):
        # Appendix-style stability bound with L estimated for the clamped field
        # and C = sup_{u in U} |f(0, u)| taken over the quadrature nodes.
        base = vdp_plane_model()
        fam = base.family
        clamped = DynamicsModel(
            2, 1, FeatureAffine(fam.drift, fam.input_map, lambda u: fam.features(np.clip(u, -1.0, 1.0)))
        )
        nodes = vdp_grid.nodes
        c_bound = float(
            np.max(np.linalg.norm(base.eval(np.zeros((len(nodes), 2)), nodes), axis=1))
        )
        # One-sided Lipschitz constant for the VdP field on the test ball |x|<=3:
        # (f(x,u)-f(y,u)).(x-y) <= L|x-y|^2 with L bounded by the sup of the
        # symmetrized Jacobian spectral radius; 13 is a safe numerical bound.
        l_const = 13.0
        policy = GaussianPolicy(gain=np.zeros((1, 2)), covariance=[[0.25]])
        for seed in range(100):
            traj = simulate_sampled(clamped, policy, [0.4, -0.2], dt=0.08, steps=60, seed=seed)
            norms = np.linalg.norm(traj.states, axis=1)
            bound = (
                math.e ** (l_const * traj.times) * np.linalg.norm([0.4, -0.2])
                + (c_bound / l_const) * (np.e ** (l_const * traj.times) - 1.0)
            )
            assert np.all(norms <= bound + 1e-9)

    def test_contraction_under_shared_controls(self):
        # same control realizations from two starts: |x-y| <= e^{Lt}|x0-y0|
        a = np.array([[0.0, 1.0], [-1.0, -0.5]])
        model = DynamicsModel(2, 1, Linear(a=a, b=[[0.0], [1.0]]))
        lipschitz = 1.0
        policy = GaussianPolicy(gain=np.zeros((1, 2)), covariance=[[0.3]])
        for seed in (0, 1, 2):
            ta = simulate_sampled(model, policy, [1.0, 0.0], 0.1, 80, seed=seed)
            tb = simulate_sampled(model, policy, [0.5, 0.2], 0.1, 80, seed=seed)
            # identical seeds do NOT imply identical controls (mean differs);
            # replay tb under ta's recorded controls instead
            x = np.array([0.5, 0.2])
            h = 0.1 * 0.1
            gap0 = np.linalg.norm(ta.states[0] - x)
            for k in range(80):
                x = x + h * model.eval(x, ta.controls[k])
                gap = np.linalg.norm(ta.states[k + 1] - x)
                bound = math.exp(lipschitz * ta.times[k + 1]) * gap0
                assert gap <= bound * (1.0 + 1e-6) + 1e-12


class TestGaussianEntropy:
    def test_unit_variance(self):
        assert gaussian_entropy([[1.0]]) == pytest.approx(0.5 * math.log(2 * math.pi * math.e))

    def test_identity_two_dim(self):
        assert gaussian_entropy(np.eye(2)) == pytest.approx(math.log(2 * math.pi * math.e))

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling_law(self, c):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        gap = gaussian_entropy(c * sigma) - gaussian_entropy(sigma)
        assert gap == pytest.approx((2 / 2) * math.log(c), abs=1e-12)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_entropy([[1.0, 2.0], [2.0, 1.0]])


class TestKlFromUniform:
    def test_uniform_density_has_zero_kl(self, unit_box):
        assert kl_from_uniform(math.log(unit_box.volume), unit_box) == pytest.approx(0.0)

    def test_rearrangement(self, unit_box):
        h = math.log(unit_box.volume) - 1.0
        assert kl_from_uniform(h, unit_box) == pytest.approx(1.0)

    def test_matches_direct_quadrature_of_boltzmann(self, channel_model, zero_cost, unit_box, unit_grid):
        # oracle: direct quadrature of KL = integral g log(g |U|) du
        dens = HamiltonianContext(channel_model, zero_cost, 1.0, unit_grid).density([0.0], [1.0])
        h = grid_entropy(dens, unit_grid)
        direct = float(
            np.sum(unit_grid.weights * dens * np.log(np.maximum(dens, 1e-300) * unit_box.volume))
        )
        assert kl_from_uniform(h, unit_box) == pytest.approx(direct, abs=1e-10)


class TestEvaluateCost:
    def test_constant_integrand(self):
        # r = 0, q = 0, lam = 0: cost = -alpha H T exactly
        model = DynamicsModel(1, 1, Linear(a=[[0.0]], b=[[0.0]]))
        cost = CostModel(
            running=QuadraticRunning(q=[[0.0]], r=[[1e-12]]),
            terminal=None,
            alpha=2.0,
            lam=0.0,
            horizon=3.0,
        )
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        est = evaluate_cost(model, cost, policy, [0.0], seed=0, dt=0.1)
        h_val = gaussian_entropy([[1.0]])
        # the tiny R contributes 0.5*tr(R Sigma) = 5e-13, below the tolerance
        assert est.value == pytest.approx(-2.0 * h_val * 3.0, rel=1e-6)
        assert est.tail_bound == 0.0

    def test_alpha_linearity_of_entropy_term(self):
        model = DynamicsModel(1, 1, Linear(a=[[-1.0]], b=[[1.0]]))
        running = QuadraticRunning(q=[[1.0]], r=[[1.0]])
        policy = GaussianPolicy(gain=[[0.5]], covariance=[[0.7]])
        kw = dict(lam=0.3, horizon=2.0)
        c1 = evaluate_cost(model, CostModel(running, None, alpha=1.0, **kw), policy, [1.0], seed=5, dt=0.1)
        c2 = evaluate_cost(model, CostModel(running, None, alpha=2.0, **kw), policy, [1.0], seed=5, dt=0.1)
        h_val = gaussian_entropy([[0.7]])
        times = np.arange(0, int(round(2.0 / 0.01)) + 1) * 0.01
        discount_integral = float(np.trapezoid(np.exp(-0.3 * times), times))
        assert c2.value - c1.value == pytest.approx(-1.0 * h_val * discount_integral, rel=1e-12)

    def test_infinite_horizon_requires_discount(self):
        model = scalar_decay_model()
        cost = CostModel(
            running=QuadraticRunning(q=[[1.0]], r=[[1.0]]),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=math.inf,
        )
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        with pytest.raises(ValueError):
            evaluate_cost(model, cost, policy, [1.0], seed=0)

    @pytest.mark.parametrize("horizon, lam", [(1.0, 0.0), (math.inf, 0.5)])
    @pytest.mark.parametrize(
        "name, value",
        [("dt", 0.0), ("dt", -0.1), ("dt", math.nan), ("dt", math.inf),
         ("tol", 0.0), ("tol", -1.0), ("tol", math.nan), ("tol", math.inf)],
    )
    def test_step_and_tolerance_rejected_before_any_simulation(
        self, monkeypatch, horizon, lam, name, value
    ):
        # the step count came first: dt = 0 raised ZeroDivisionError, a NaN dt or
        # tol failed to convert to an integer, and tol 0 or -1 divided by zero or
        # took the log of a negative number
        monkeypatch.setattr(dynamics, "simulate_sampled", lambda *a, **k: pytest.fail("simulated"))
        cost = CostModel(running=QuadraticRunning(q=[[1.0]], r=[[1.0]]), terminal=None,
                         alpha=1.0, lam=lam, horizon=horizon)
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            evaluate_cost(scalar_decay_model(), cost, policy, [1.0], seed=0, **{name: value})

    def test_generic_running_needs_grid(self):
        model = scalar_decay_model()
        cost = CostModel(
            running=GenericRunning(lambda x, u: np.abs(u[..., 0])),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=1.0,
        )
        policy = GaussianPolicy(gain=[[0.0]], covariance=[[1.0]])
        with pytest.raises(UnsupportedFamilyError):
            evaluate_cost(model, cost, policy, [1.0], seed=0)
        grid = build_grid(ControlBox(lower=[-6.0], upper=[6.0]), 128)
        est = evaluate_cost(model, cost, policy, [1.0], seed=0, grid=grid)
        # E|u| for u ~ N(0,1) is sqrt(2/pi); integrand constant in time
        expected = (math.sqrt(2 / math.pi) - gaussian_entropy([[1.0]])) * 1.0
        assert est.value == pytest.approx(expected, rel=2e-2)
