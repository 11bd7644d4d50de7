import math

import numpy as np
import pytest

from maxent_hjb import (
    ControlBox,
    CostModel,
    DynamicsModel,
    Generic,
    GenericRunning,
    GenericTerminal,
    HamiltonianContext,
    HopfLaxConfig,
    L1Terminal,
    Linear,
    QuadraticRunning,
    QuadraticTerminal,
    build_grid,
    hopf_lax_value,
    integrate_characteristics,
    legendre_transform,
    receding_horizon_control,
    sample_feedback,
    value_surface,
)
from maxent_hjb import hopf_lax
from maxent_hjb.dynamics import euler_rollout
from maxent_hjb.hopf_lax import window_steps
from maxent_hjb.benchmarks import (
    VDP4_X0,
    linear_channel_model,
    vdp4_model,
    vdp_plane_cost,
)
from maxent_hjb.errors import (
    AllCharacteristicsBlewUpError,
    DimensionMismatchError,
    DivergedTrajectoryError,
    InfeasibleTransformError,
    MaxEntError,
)


def zero_scalar_cost(alpha=1.0):
    return CostModel(
        running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
        terminal=L1Terminal(),
        alpha=alpha,
        lam=0.0,
        horizon=1.0,
    )


def squared_field(x, u):
    """x' = x^2 per axis, whatever the control."""
    return x**2 + 0.0 * u[..., :1]


@pytest.fixture(scope="module")
def channel_ctx():
    """State-independent 1-D channel: f = u, r = 0, U = [-1, 1], alpha = 0.5."""
    model = linear_channel_model()
    cost = zero_scalar_cost(alpha=0.5)
    grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 64)
    return HamiltonianContext(model=model, cost=cost, alpha=0.5, grid=grid)


@pytest.fixture(scope="module")
def lq_ctx():
    """Smooth state-dependent Hamiltonian: stable LQ field on a compact box."""
    a = np.array([[0.0, 1.0], [-1.0, -0.5]])
    b = np.array([[0.0], [1.0]])
    model = DynamicsModel(2, 1, Linear(a=a, b=b))
    cost = CostModel(
        running=QuadraticRunning(q=np.eye(2), r=[[1.0]]),
        terminal=QuadraticTerminal(m=np.eye(2)),
        alpha=0.5,
        lam=0.0,
        horizon=1.0,
    )
    grid = build_grid(ControlBox(lower=[-2.0], upper=[2.0]), 48)
    return HamiltonianContext(model=model, cost=cost, alpha=0.5, grid=grid)


class TestHopfLaxConfig:
    @pytest.mark.parametrize("iters", [0, -3])
    def test_simplex_iters_below_one_rejected(self, iters):
        with pytest.raises(ValueError, match="simplex_iters"):
            HopfLaxConfig(simplex_iters=iters)

    @pytest.mark.parametrize("key", ["ode_step", "start_radius"])
    def test_nan_step_or_radius_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            HopfLaxConfig(**{key: math.nan})

    @pytest.mark.parametrize("key", ["ode_step", "start_radius"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, 0.0, -1.0])
    def test_step_and_radius_must_be_finite_and_positive(self, key, value):
        # an infinite ode_step ran the 4-step floor, an infinite radius made every start NaN
        with pytest.raises(ValueError, match=f"{key} must be finite and > 0"):
            HopfLaxConfig(**{key: value})


class TestCharacteristics:
    def test_terminal_conditions_exact(self, lq_ctx):
        cfg = HopfLaxConfig(ode_step=0.05, seed=0)
        x = np.array([0.4, -0.3])
        v = np.array([1.2, 0.7])
        curve = integrate_characteristics(lq_ctx, x, v, 0.6, cfg)
        assert np.array_equal(curve.gamma[-1], x)
        assert np.array_equal(curve.costate[-1], v)
        assert not curve.blown_up

    def test_state_independent_costate_constant(self, channel_ctx):
        cfg = HopfLaxConfig(ode_step=0.1, seed=0)
        curve = integrate_characteristics(channel_ctx, [0.7], [0.9], 0.5, cfg)
        assert np.ptp(curve.costate) == 0.0

    def test_degenerate_hamiltonian_constant_curve(self):
        # f == 0, r == 0: both characteristic right-hand sides vanish
        model = DynamicsModel(
            1, 1, Generic(lambda x, u: 0.0 * (x[..., :1] + u[..., :1]))
        )
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        curve = integrate_characteristics(ctx, [0.3], [-0.8], 0.4, HopfLaxConfig(ode_step=0.1))
        assert np.allclose(curve.gamma, 0.3, atol=1e-13)
        assert np.allclose(curve.costate, -0.8, atol=1e-13)

    def test_step_refinement_self_oracle(self, lq_ctx):
        # dense-step reference (step / 10) agrees within 1e-6
        x = np.array([0.5, 0.2])
        v = np.array([0.8, -0.6])
        coarse = integrate_characteristics(lq_ctx, x, v, 0.5, HopfLaxConfig(ode_step=0.05))
        fine = integrate_characteristics(lq_ctx, x, v, 0.5, HopfLaxConfig(ode_step=0.005))
        assert np.linalg.norm(coarse.gamma[0] - fine.gamma[0]) < 1e-6
        assert np.linalg.norm(coarse.costate[0] - fine.costate[0]) < 1e-6

    def test_blowup_flagged(self):
        # backward flow of gamma' = -gamma^2 from x=2 blows up inside t=1
        model = DynamicsModel(
            1, 1, Generic(lambda x, u: x[..., :1] ** 2 + 0.0 * u[..., :1])
        )
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        curve = integrate_characteristics(
            ctx, [2.0], [0.5], 1.0, HopfLaxConfig(ode_step=0.01)
        )
        assert curve.blown_up
        # the exact backward solution 1/(s - 0.5) leaves every bound at s = 0.5
        assert abs(curve.blowup_s - 0.5) <= 0.02


class TestLegendreTransform:
    def test_l1_inside_ball(self):
        assert legendre_transform(L1Terminal(), [0.5, -0.5]) == 0.0

    def test_l1_outside_ball(self):
        assert legendre_transform(L1Terminal(), [1.5, 0.0]) == math.inf

    def test_quadratic_self_dual(self):
        v = np.array([0.3, -1.2])
        assert legendre_transform(QuadraticTerminal(m=np.eye(2)), v) == pytest.approx(
            0.5 * float(v @ v)
        )

    def test_generic_needs_box(self):
        q = GenericTerminal(fn=lambda x: np.sum(x**2, axis=-1))
        with pytest.raises(MaxEntError):
            legendre_transform(q, [1.0])

    def test_generic_grid_approximation(self):
        # 1/2 x^2 on a wide box: q*(v) = v^2 / 2 within grid resolution
        q = GenericTerminal(
            fn=lambda x: 0.5 * np.sum(x**2, axis=-1),
            search_box=ControlBox(lower=[-4.0], upper=[4.0]),
        )
        assert legendre_transform(q, [1.0]) == pytest.approx(0.5, abs=1e-2)


class TestHopfLaxValue:
    def test_classical_hopf_lax_reduction(self, channel_ctx):
        # state-independent MaxForm equals max_v {x v - q*(v) - t H(v)} with the
        # 1-D maximization done by dense scan (independent oracle)
        q = QuadraticTerminal(m=np.eye(1))
        x, t = 0.6, 0.3
        cfg = HopfLaxConfig(
            ode_step=0.075, n_starts=8, start_radius=4.0, simplex_iters=200,
            formula="max", seed=3,
        )
        est = hopf_lax_value(channel_ctx, q, [x], t, cfg)
        vs = np.linspace(-6, 6, 20_001)
        h_vals = channel_ctx.value_batch(np.zeros((len(vs), 1)), vs[:, None])
        oracle = np.max(x * vs - 0.5 * vs**2 - t * h_vals)
        assert est.value == pytest.approx(float(oracle), abs=1e-6)

    def test_eikonal_small_alpha(self):
        # alpha = 0.01 approximates the eikonal solution max(|x| - t, 0)
        model = linear_channel_model()
        cost = zero_scalar_cost(alpha=0.01)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 128)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=0.01, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.125, n_starts=8, start_radius=3.0, simplex_iters=120, seed=0)
        for x in (-1.2, -0.3, 0.0, 0.4, 0.9, 1.6):
            est = hopf_lax_value(ctx, cost.terminal, [x], 0.5, cfg)
            assert abs(est.value - max(abs(x) - 0.5, 0.0)) < 0.05

    def test_initial_condition_at_small_t(self, channel_ctx):
        cfg = HopfLaxConfig(ode_step=2.5e-5, n_starts=8, simplex_iters=80, seed=1)
        est = hopf_lax_value(channel_ctx, L1Terminal(), [0.8], 1e-4, cfg)
        assert abs(est.value - 0.8) < 1e-3

    def test_min_max_forms_agree(self, channel_ctx):
        # smooth state-independent family: both representations match
        q = QuadraticTerminal(m=np.eye(1))
        for x in (-0.8, 0.0, 0.5, 1.1):
            vals = {}
            for form in ("min", "max"):
                cfg = HopfLaxConfig(
                    ode_step=0.0625, n_starts=8, start_radius=4.0,
                    simplex_iters=200, formula=form, seed=5,
                )
                vals[form] = hopf_lax_value(channel_ctx, q, [x], 0.25, cfg).value
            assert abs(vals["min"] - vals["max"]) < 1e-3

    def test_rk4_step_halving_order(self, lq_ctx):
        # value changes shrink by ~16x per step halving; assert ratio >= 8
        q = lq_ctx.cost.terminal
        x = [0.6, -0.4]
        vals = []
        for step in (0.1, 0.05, 0.025):
            cfg = HopfLaxConfig(
                ode_step=step, n_starts=6, start_radius=3.0, simplex_iters=300, seed=7
            )
            vals.append(hopf_lax_value(lq_ctx, q, x, 0.4, cfg).value)
        d1 = abs(vals[0] - vals[1])
        d2 = abs(vals[1] - vals[2])
        assert d2 < d1
        assert d1 / max(d2, 1e-15) >= 8.0

    def test_optimizer_determinism(self, lq_ctx):
        cfg = HopfLaxConfig(ode_step=0.05, n_starts=6, simplex_iters=60, seed=11)
        a = hopf_lax_value(lq_ctx, lq_ctx.cost.terminal, [0.3, 0.9], 0.3, cfg)
        b = hopf_lax_value(lq_ctx, lq_ctx.cost.terminal, [0.3, 0.9], 0.3, cfg)
        assert a.value == b.value
        assert np.array_equal(a.argmin_v, b.argmin_v)

    def test_all_blowup_raises(self):
        model = DynamicsModel(
            1, 1, Generic(lambda x, u: x[..., :1] ** 2 + 0.0 * u[..., :1])
        )
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.025, n_starts=4, simplex_iters=10, seed=0)
        with pytest.raises(AllCharacteristicsBlewUpError):
            hopf_lax_value(ctx, cost.terminal, [3.0], 1.0, cfg)

    @pytest.mark.parametrize("formula", ["min", "max"])
    def test_all_blowup_raises_in_both_forms(self, formula):
        # q* of a quadratic terminal is finite everywhere, so when every curve
        # blows up the max form must not report an infeasible transform
        model = DynamicsModel(
            1, 1, Generic(lambda x, u: x[..., :1] ** 2 + 0.0 * u[..., :1])
        )
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(
            ode_step=0.025, n_starts=4, simplex_iters=10, formula=formula, seed=0
        )
        with pytest.raises(AllCharacteristicsBlewUpError):
            hopf_lax_value(ctx, QuadraticTerminal(m=[[1.0]]), [3.0], 1.0, cfg)

    def test_pick_best_lowest_finite_value_ties_broken_on_v(self):
        # NaN and +-inf never win; equal values (-0.0 == 0.0 included) go to the
        # lexicographically smallest v, and equal v to the earlier start
        nan, inf = math.nan, math.inf
        values = np.array([
            [2.0, nan, 1.0, inf, 1.0, -inf],
            [0.0, -0.0, 0.0, 3.0, nan, inf],
            [nan, nan, 5.0, nan, -inf, inf],
        ])
        vertices = np.array([
            [[0.0, 0.0], [-5.0, -5.0], [1.0, 2.0], [-9.0, -9.0], [1.0, -3.0], [-9.0, 0.0]],
            [[0.5, 1.0], [0.5, -0.0], [0.5, 0.0], [-1.0, -1.0], [-2.0, 0.0], [-3.0, 0.0]],
            [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ])
        best_vals, best_v = hopf_lax._pick_best(values, vertices, infeasible=False)
        picks = [4, 1, 2]
        assert np.array_equal(best_v, vertices[np.arange(3), picks])
        assert np.array_equal(best_vals, values[np.arange(3), picks])
        assert np.signbit(best_vals[1]) and np.signbit(best_v[1, 1])

    def test_infeasible_transform_raises(self, channel_ctx):
        # l1 transform is +inf outside the unit box; park all starts far away
        cfg = HopfLaxConfig(
            ode_step=0.05, n_starts=3, start_radius=200.0, simplex_iters=4,
            formula="max", seed=13,
        )
        with pytest.raises((InfeasibleTransformError, AllCharacteristicsBlewUpError)):
            hopf_lax_value(channel_ctx, L1Terminal(), [0.2], 0.2, cfg)

    @pytest.mark.parametrize("extra", [[[1.0, 2.0, 3.0]], [0.5], [[[0.1, 0.2]]]])
    def test_extra_starts_of_the_wrong_width_rejected(self, lq_ctx, extra):
        cfg = HopfLaxConfig(ode_step=0.1, n_starts=2, simplex_iters=2)
        with pytest.raises(DimensionMismatchError, match="extra_starts"):
            hopf_lax_value(lq_ctx, lq_ctx.cost.terminal, [0.3, 0.9], 0.3, cfg, extra_starts=extra)


class TestValueSurface:
    def test_matches_per_point_solves(self, lq_ctx):
        xs = np.linspace(-1.0, 1.0, 9)
        ys = np.linspace(-1.0, 1.0, 9)
        cfg = HopfLaxConfig(ode_step=0.05, n_starts=8, start_radius=3.0, simplex_iters=80, seed=1)
        w = value_surface(lq_ctx, lq_ctx.cost.terminal, xs, ys, 0.2, cfg, n_bands=2)
        heavy = HopfLaxConfig(ode_step=0.05, n_starts=12, start_radius=3.0, simplex_iters=200, seed=5)
        for i, j in [(0, 0), (4, 4), (8, 2), (2, 7)]:
            est = hopf_lax_value(lq_ctx, lq_ctx.cost.terminal, [xs[i], ys[j]], 0.2, heavy)
            assert w[i, j] == pytest.approx(est.value, abs=1e-6)

    def test_band_layout_fixed_results(self, lq_ctx):
        # same bands, different process counts: byte-identical values
        xs = np.linspace(-0.5, 0.5, 8)
        ys = np.linspace(-0.5, 0.5, 8)
        cfg = HopfLaxConfig(ode_step=0.05, n_starts=4, simplex_iters=40, seed=2)
        w1 = value_surface(lq_ctx, lq_ctx.cost.terminal, xs, ys, 0.2, cfg, n_bands=2, processes=1)
        w2 = value_surface(lq_ctx, lq_ctx.cost.terminal, xs, ys, 0.2, cfg, n_bands=2, processes=2)
        assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("bad", [{"warm_iters": 0}, {"n_random": -1}, {"n_bands": 0},
                                     {"t": 0.0}, {"t": -0.1}, {"t": math.inf}, {"t": math.nan}])
    def test_out_of_range_keyword_rejected_before_any_band(self, lq_ctx, monkeypatch, bad):
        monkeypatch.setattr(hopf_lax, "_sweep_band", lambda *args: pytest.fail("a band ran"))
        grid = np.linspace(-0.5, 0.5, 8)
        kwargs = {"t": 0.2, "config": HopfLaxConfig(), **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            value_surface(lq_ctx, lq_ctx.cost.terminal, grid, grid, **kwargs)


    @pytest.mark.parametrize("processes", [1, 2])
    def test_point_with_no_finite_start_raises(self, processes):
        # x' = x^2 per axis: every curve from a point far enough out blows up by t = 1
        model = DynamicsModel(2, 1, Generic(squared_field))
        # a running cost of almost zero: only the blow-up decides the values
        cost = CostModel(running=QuadraticRunning(q=np.zeros((2, 2)), r=[[1e-12]]),
                         terminal=L1Terminal(), alpha=1.0, lam=0.0, horizon=1.0)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.05, n_starts=3, simplex_iters=4, seed=0)
        axis = np.linspace(0.0, 3.0, 4)
        with pytest.raises(AllCharacteristicsBlewUpError):
            value_surface(ctx, cost.terminal, axis, axis, 1.0, cfg, warm_iters=2,
                          n_bands=2, processes=processes)

    def test_lambda_context_sweeps_in_fork_workers(self):
        # fork workers inherit the context, so lambdas need no pickling
        model = DynamicsModel(2, 1, Generic(lambda x, u: -x + u[..., :1]))
        running = GenericRunning(lambda x, u: 0.5 * (np.sum(x**2, axis=-1) + u[..., 0] ** 2))
        cost = CostModel(running=running, terminal=L1Terminal(), alpha=1.0, lam=0.0, horizon=1.0)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 8)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.05, n_starts=2, simplex_iters=4, seed=0)
        axis = np.linspace(0.0, 0.5, 3)
        w1, w2 = (value_surface(ctx, cost.terminal, axis, axis, 0.1, cfg, warm_iters=2,
                                n_bands=2, processes=k) for k in (1, 2))
        assert np.all(np.isfinite(w1))
        assert np.array_equal(w1, w2)


class TestFeedbackSynthesis:
    def test_uniform_at_zero_costate(self, channel_ctx):
        dens = channel_ctx.density([0.0], np.zeros(1))
        assert np.allclose(dens, 0.5, atol=1e-13)

    def test_analytic_normalizer(self):
        model = linear_channel_model()
        cost = zero_scalar_cost(alpha=1.0)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 64)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        dens = ctx.density([0.0], np.ones(1))
        expected = np.exp(-grid.nodes[:, 0]) / (math.e - 1.0 / math.e)
        assert np.allclose(dens, expected, atol=1e-8)

    def test_density_normalization_on_states(self, lq_ctx):
        rng = np.random.default_rng(3)
        for _ in range(5):
            costate = rng.normal(size=2)
            dens = lq_ctx.density(rng.normal(size=2), costate)
            assert np.sum(lq_ctx.grid.weights * dens) == pytest.approx(1.0, abs=1e-10)

    def test_sampling_matches_density_moments(self, channel_ctx):
        from maxent_hjb.dynamics import make_rng

        rng = make_rng(7)
        costate = np.array([0.8])
        draws = np.array(
            [sample_feedback(channel_ctx, [0.0], costate, rng)[0] for _ in range(4000)]
        )
        dens = channel_ctx.density(np.zeros(1), costate)
        mean_target = float(np.sum(channel_ctx.grid.weights * dens * channel_ctx.grid.nodes[:, 0]))
        assert draws.mean() == pytest.approx(mean_target, abs=0.03)
        assert np.all(np.abs(draws) <= 1.0)


def _plane_channel_ctx(alpha, nodes_per_dim):
    """f = u, r = 0 on U = [-1, 1]^2."""
    model = DynamicsModel(2, 2, Generic(lambda x, u: u + 0.0 * x))
    cost = CostModel(
        running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
        terminal=None,
        alpha=alpha,
        lam=0.0,
        horizon=1.0,
    )
    grid = build_grid(ControlBox(lower=[-1.0, -1.0], upper=[1.0, 1.0]), nodes_per_dim)
    return HamiltonianContext(model=model, cost=cost, alpha=alpha, grid=grid)


def _cell_edges(grid):
    """Per-axis cell edges: midpoints between 1-D nodes, box bounds at the ends."""
    edges = []
    for j in range(grid.box.dim):
        ax = np.unique(grid.nodes[:, j])
        mids = 0.5 * (ax[1:] + ax[:-1])
        edges.append(np.concatenate(([grid.box.lower[j]], mids, [grid.box.upper[j]])))
    return edges


def _draws(ctx, x, costate, n, seed):
    rng = np.random.default_rng(seed)
    x, costate = np.asarray(x, dtype=float), np.asarray(costate, dtype=float)
    return np.array([sample_feedback(ctx, x, costate, rng) for _ in range(n)])


class TestFeedbackSampler:
    """``sample_feedback`` picks node i with probability w_i g_i and draws
    uniformly in its tensor cell."""

    def test_uniform_density_is_centred_and_reaches_the_box_ends(self):
        cost = zero_scalar_cost(alpha=1.0)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 8)
        ctx = HamiltonianContext(model=linear_channel_model(), cost=cost, alpha=1.0, grid=grid)
        draws = _draws(ctx, [0.0], [0.0], 20_000, seed=11)[:, 0]
        stderr = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean()) <= 4.0 * stderr
        assert draws.max() > grid.nodes[:, 0].max()
        assert draws.min() < grid.nodes[:, 0].min()

    def test_sharp_two_dimensional_density(self):
        ctx = _plane_channel_ctx(alpha=0.01, nodes_per_dim=16)
        grid = ctx.grid
        costate = np.array([0.5, -0.4])
        draws = _draws(ctx, [0.0, 0.0], costate, 1000, seed=5)
        on_node = (draws[:, None, :] == grid.nodes[None, :, :]).all(axis=2)
        assert not on_node.any()
        assert np.all((draws >= grid.box.lower) & (draws <= grid.box.upper))
        mass = grid.weights * ctx.density(np.zeros(2), costate)
        quad_mean = mass @ grid.nodes
        half_width = np.array([0.5 * np.diff(e).max() for e in _cell_edges(grid)])
        mc_err = 4.0 * draws.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - quad_mean) <= mc_err + half_width)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cell_shares_match_node_masses(self, dim):
        if dim == 1:
            ctx = HamiltonianContext(
                model=linear_channel_model(),
                cost=zero_scalar_cost(alpha=0.5),
                alpha=0.5,
                grid=build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 8),
            )
            costate = np.array([0.8])
        else:
            ctx = _plane_channel_ctx(alpha=0.5, nodes_per_dim=6)
            costate = np.array([0.8, -0.5])
        grid = ctx.grid
        n = 20_000
        draws = _draws(ctx, np.zeros(dim), costate, n, seed=dim)
        cells = tuple(
            np.clip(np.searchsorted(e, draws[:, j], side="right") - 1, 0, len(e) - 2)
            for j, e in enumerate(_cell_edges(grid))
        )
        counts = np.bincount(
            np.ravel_multi_index(cells, (grid.nodes_per_dim,) * dim), minlength=grid.size
        )
        share = grid.weights * ctx.density(np.zeros(dim), costate)
        stderr = np.sqrt(share * (1.0 - share) / n)
        assert np.all(np.abs(counts / n - share) <= 4.0 * stderr)


class TestRecedingHorizon:
    def test_zero_field_constant_trajectory(self):
        model = DynamicsModel(
            1, 1, Generic(lambda x, u: 0.0 * (x[..., :1] + u[..., :1]))
        )
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.1, n_starts=3, simplex_iters=20, seed=0)
        traj = receding_horizon_control(ctx, [0.4], 0.8, 0.4, cfg, dt=0.2, replan_every=2)
        assert np.allclose(traj.states, 0.4)

    def test_window_must_divide_horizon(self, channel_ctx):
        cfg = HopfLaxConfig(ode_step=0.1, seed=0)
        with pytest.raises(ValueError):
            receding_horizon_control(channel_ctx, [0.0], 1.0, 0.3, cfg, dt=0.1)

    def test_euler_step_must_divide_window(self, channel_ctx):
        # 2.5 / 0.7^2 = 5.10: five steps would end the run at t = 2.45
        cfg = HopfLaxConfig(ode_step=0.1, seed=0)
        with pytest.raises(ValueError, match="does not divide window_t"):
            receding_horizon_control(channel_ctx, [0.0], 2.5, 2.5, cfg, dt=0.7)

    @pytest.mark.parametrize("replan_every", [0, -1])
    def test_replan_every_must_be_positive(self, channel_ctx, monkeypatch, replan_every):
        monkeypatch.setattr(hopf_lax, "hopf_lax_value", lambda *a, **k: pytest.fail("a solve ran"))
        cfg = HopfLaxConfig(ode_step=0.1, seed=0)
        with pytest.raises(ValueError, match="replan_every"):
            receding_horizon_control(channel_ctx, [0.0], 0.8, 0.4, cfg, dt=0.2,
                                     replan_every=replan_every)

    def test_diverging_closed_loop_raises(self):
        # Euler with h = 1 on x' = -10 x + u maps x to -9 x + u, |u| <= 1: it leaves
        # DIVERGENCE_NORM within 9 steps while each one-step Hopf-Lax solve stays finite
        model = DynamicsModel(1, 1, Linear(a=[[-10.0]], b=[[1.0]]))
        cost = zero_scalar_cost()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(ode_step=0.25, n_starts=2, simplex_iters=3, seed=0)
        with pytest.raises(DivergedTrajectoryError) as err:
            receding_horizon_control(ctx, [1.0], 20.0, 1.0, cfg, dt=1.0)
        assert err.value.step <= 9

    @pytest.mark.parametrize(
        "total_t, window_t, dt, expected",
        [(20.0, 2.5, 0.5, (8, 10)), (5.0, 2.5, 0.5, (2, 10)), (0.5, 0.5, 0.5, (1, 2)),
         (0.8, 0.4, 0.2, (2, 10)), (2.45, 2.45, 0.7, (1, 5))],
    )
    def test_window_steps_of_accepted_configs(self, total_t, window_t, dt, expected):
        assert window_steps(total_t, window_t, dt) == expected

    @pytest.mark.parametrize("total_t", [math.inf, -math.inf, math.nan])
    def test_window_steps_rejects_non_finite_total(self, total_t):
        with pytest.raises(ValueError, match="total_t must be finite and > 0"):
            window_steps(total_t, 2.5, 0.5)

    @pytest.mark.parametrize(
        "args, name",
        [((5.0, 2.5, 0.0), "dt"), ((5.0, 0.0, 0.5), "window_t"), ((0.0, 2.5, 0.5), "total_t"),
         ((5.0, 2.5, -0.5), "dt"), ((5.0, -2.5, 0.5), "window_t"), ((5.0, math.nan, 0.5), "window_t"),
         ((5.0, 2.5, math.inf), "dt")],
    )
    def test_window_steps_names_a_time_that_is_not_finite_and_positive(self, args, name):
        # zeros died with ZeroDivisionError; a negative dt was squared and ran as |dt|
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            window_steps(*args)

    def test_negative_dt_refused_before_any_solve(self, channel_ctx, monkeypatch):
        monkeypatch.setattr(hopf_lax, "hopf_lax_value", lambda *a, **k: pytest.fail("a solve ran"))
        cfg = HopfLaxConfig(ode_step=0.1, seed=0)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            receding_horizon_control(channel_ctx, [0.0], 0.5, 0.25, cfg, dt=-0.5)

    @pytest.mark.slow
    def test_vdp_closed_loop_beats_uncontrolled(self):
        model = vdp4_model()
        cost = vdp_plane_cost(alpha=1.0, horizon=2.5)
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        cfg = HopfLaxConfig(
            ode_step=0.1, n_starts=5, start_radius=1.5, simplex_iters=60, seed=0
        )
        traj = receding_horizon_control(
            ctx, VDP4_X0, 5.0, 2.5, cfg, dt=0.5, replan_every=1
        )
        run_cost = float(np.trapezoid(cost.running.eval(traj.states, traj.controls), traj.times))
        # uncontrolled oracle: u = 0 rollout with the same Euler stepper and step
        steps = len(traj.times) - 1
        states, _ = euler_rollout(model.eval, VDP4_X0, 0.5 * 0.5, steps, lambda k, x: np.zeros(1))
        assert len(states) == steps + 1
        zero_controls = np.zeros((steps + 1, 1))
        uncontrolled = float(
            np.trapezoid(cost.running.eval(np.asarray(states), zero_controls), traj.times)
        )
        assert run_cost < uncontrolled
