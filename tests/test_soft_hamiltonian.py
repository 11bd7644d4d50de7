import importlib
import math
import warnings

import numpy as np
import pytest

from maxent_hjb import (
    ControlBox,
    CostModel,
    DynamicsModel,
    Generic,
    GenericRunning,
    HamiltonianContext,
    Linear,
    QuadraticRunning,
    boltzmann_moments,
    build_grid,
    check_grid_convergence,
    grid_entropy,
    laplace_gap,
    standard_hamiltonian,
)
from maxent_hjb.benchmarks import vdp4_model, vdp_control_box, vdp_plane_cost, vdp_plane_model


def sinh_oracle(p, alpha):
    """Independent closed form for f=u, r=0, U=[-1,1]."""
    if p == 0.0:
        return alpha * math.log(2.0)
    z = abs(p / alpha)
    log_sinh = z + math.log1p(-math.exp(-2.0 * z)) - math.log(2.0)
    return alpha * (math.log(2.0 * alpha / abs(p)) + log_sinh)


class TestQuadratureGrid:
    def test_weights_sum_to_volume(self):
        box = ControlBox(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        grid = build_grid(box, 16)
        assert np.sum(grid.weights) == pytest.approx(box.volume, rel=1e-12)
        assert all(box.contains(node) for node in grid.nodes)

    def test_high_dim_is_a_full_tensor_grid(self):
        box = ControlBox(lower=[-1.0] * 4, upper=[1.0] * 4)
        grid = build_grid(box, 5)
        assert grid.size == 5**4


class TestSoftHamiltonianValue:
    def test_uniform_integrand(self, channel_model, zero_cost, unit_grid):
        rep = HamiltonianContext(channel_model, zero_cost, 1.0, unit_grid).report([0.0], [0.0])
        assert rep.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unit_costate(self, channel_model, zero_cost, unit_grid):
        # analytic integral: log(e - e^-1) = 0.8545988385083556
        rep = HamiltonianContext(channel_model, zero_cost, 1.0, unit_grid).report([0.0], [1.0])
        assert rep.value == pytest.approx(math.log(math.e - 1.0 / math.e), abs=1e-10)

    def test_log_partition_of_constant_cost(self, channel_model, unit_grid):
        # Z = integral over [-1, 1] of exp(-3) du, so log Z = log 2 - 3
        cost = CostModel(
            running=GenericRunning(lambda x, u: 3.0 + 0.0 * u[..., 0] + 0.0 * x[..., 0]),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=1.0,
        )
        alpha = 1.0
        rep = HamiltonianContext(channel_model, cost, alpha, unit_grid).report([0.0], [0.0])
        assert rep.value / alpha == pytest.approx(math.log(2.0) - 3.0, abs=1e-12)

    @pytest.mark.parametrize("p", [-3.0, -1.0, -0.1, 0.1, 1.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sinh_closed_form(self, channel_model, zero_cost, unit_grid, p, alpha):
        rep = HamiltonianContext(channel_model, zero_cost, alpha, unit_grid).report([0.0], [p])
        assert abs(rep.value - sinh_oracle(p, alpha)) <= 1e-8

    def test_rejects_nonpositive_alpha(self, unit_grid):
        # the kernel holds the one temperature rule, and no warning comes before it
        l_vals = unit_grid.nodes[:, 0]
        for alpha in (-1.0, 0.0, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="alpha must be > 0"):
                    boltzmann_moments(l_vals, unit_grid.weights, alpha)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, math.nan])
    def test_context_rejects_nonpositive_alpha(self, vdp_model, vdp_cost, vdp_grid, alpha):
        # a context is what every solver takes, so no solver runs at such a temperature
        with pytest.raises(ValueError, match="alpha must be > 0"):
            HamiltonianContext(model=vdp_model, cost=vdp_cost, alpha=alpha, grid=vdp_grid)

    def test_batch_matches_scalar(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(10, 2))
        ps = rng.normal(size=(10, 2))
        ctx = HamiltonianContext(vdp_model, vdp_cost, 1.0, vdp_grid)
        vals = ctx.value_batch(xs, ps)
        for i in range(10):
            rep = ctx.report(xs[i], ps[i])
            assert vals[i] == pytest.approx(rep.value, abs=0.0)


class TestBoltzmannDensity:
    def test_uniform_when_exponent_constant(self, channel_model, zero_cost, unit_grid):
        dens = HamiltonianContext(channel_model, zero_cost, 1.0, unit_grid).density([0.0], [0.0])
        assert np.allclose(dens, 0.5, atol=1e-13)

    def test_normalization(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(3)
        ctx = HamiltonianContext(vdp_model, vdp_cost, 0.7, vdp_grid)
        for _ in range(5):
            x = rng.normal(size=2)
            p = rng.normal(size=2)
            dens = ctx.density(x, p)
            assert np.sum(vdp_grid.weights * dens) == pytest.approx(1.0, abs=1e-10)

    def test_pointwise_analytic_normalizer(self, channel_model, zero_cost, unit_grid):
        # oracle: g(u) = e^{-u} / (e - e^-1)
        dens = HamiltonianContext(channel_model, zero_cost, 1.0, unit_grid).density([0.0], [1.0])
        expected = np.exp(-unit_grid.nodes[:, 0]) / (math.e - 1.0 / math.e)
        assert np.allclose(dens, expected, atol=1e-8)

    def test_free_energy_identity(self, vdp_model, vdp_cost, vdp_grid):
        # integral g L - alpha H(g) = -H_alpha on every call
        rng = np.random.default_rng(11)
        alpha = 0.9
        ctx = HamiltonianContext(vdp_model, vdp_cost, alpha, vdp_grid)
        for _ in range(5):
            x = rng.normal(size=2) * 0.8
            p = rng.normal(size=2)
            dens = ctx.density(x, p)
            rep = ctx.report(x, p)
            f_nodes = vdp_model.eval(
                np.broadcast_to(x, (vdp_grid.size, 2)), vdp_grid.nodes
            )
            l_nodes = f_nodes @ p + vdp_cost.running.eval(
                np.broadcast_to(x, (vdp_grid.size, 2)), vdp_grid.nodes
            )
            mean_l = float(np.sum(vdp_grid.weights * dens * l_nodes))
            free_energy = mean_l - alpha * grid_entropy(dens, vdp_grid)
            assert free_energy == pytest.approx(-rep.value, abs=1e-9)


class TestStandardHamiltonian:
    def test_linear_objective_on_interval(self, channel_model, zero_cost, unit_grid):
        for p in (-2.0, -0.5, 0.7, 3.0):
            h0 = standard_hamiltonian(channel_model, zero_cost, [0.0], [p], unit_grid)
            assert h0 == pytest.approx(abs(p), abs=1e-9)

    def test_kinked_objective(self, channel_model, unit_grid):
        # oracle: 1-D enumeration of min(2u + |u|) over [-1, 1] -> -1 at u = -1
        cost = CostModel(
            running=GenericRunning(lambda x, u: np.abs(u[..., 0])),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=1.0,
        )
        dense = np.linspace(-1, 1, 10_001)
        oracle = -np.min(2.0 * dense + np.abs(dense))
        h0 = standard_hamiltonian(channel_model, cost, [0.0], [2.0], unit_grid)
        assert h0 == pytest.approx(oracle, abs=1e-9)
        assert h0 == pytest.approx(1.0, abs=1e-9)

    def test_constant_shift(self, channel_model, zero_cost, unit_grid):
        shift_cost = CostModel(
            running=GenericRunning(
                lambda x, u: 5.0 + 0.0 * u[..., 0] + 0.0 * x[..., 0]
            ),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=1.0,
        )
        base = standard_hamiltonian(channel_model, zero_cost, [0.0], [1.3], unit_grid)
        shifted = standard_hamiltonian(channel_model, shift_cost, [0.0], [1.3], unit_grid)
        assert shifted == pytest.approx(base - 5.0, abs=1e-9)


class TestLaplaceGap:
    def test_monotone_in_alpha_and_below_h0(self, vdp_model, vdp_cost, vdp_grid):
        # the shifted Hamiltonian H~ is nonincreasing in alpha and approaches
        # H0 from below as alpha -> 0
        rng = np.random.default_rng(5)
        fine = build_grid(vdp_grid.box, 512)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, size=2)
            p = rng.uniform(-0.2, 0.2, size=2)
            sweep = laplace_gap(vdp_model, vdp_cost, x, p, [2.0, 1.0, 0.5, 0.1, 0.05, 0.01], fine)
            tildes = [row[2] for row in sweep]
            assert all(t1 <= t2 + 1e-12 for t1, t2 in zip(tildes, tildes[1:]))
            h0 = standard_hamiltonian(vdp_model, vdp_cost, x, p, fine)
            assert all(t <= h0 + 1e-6 for t in tildes)

    def test_small_alpha_vs_sinh_oracle(self, channel_model, zero_cost):
        # H_alpha at alpha=0.01, p=1 sits 0.0461 below H0 = 1 (exact closed
        # form); H~ sits 0.0530 below. The quadrature must match the closed
        # form, not the 0.05 figure.
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 512)
        sweep = laplace_gap(channel_model, zero_cost, [0.0], [1.0], [0.01], grid)
        _, h, h_tilde = sweep[0]
        assert h == pytest.approx(sinh_oracle(1.0, 0.01), abs=1e-6)
        assert abs(h - 1.0) < 0.05
        assert h_tilde == pytest.approx(sinh_oracle(1.0, 0.01) - 0.01 * math.log(2.0), abs=1e-6)

    def test_degenerate_uniform_case(self, channel_model, zero_cost, unit_grid):
        sweep = laplace_gap(channel_model, zero_cost, [0.0], [0.0], [2.0, 1.0, 0.1], unit_grid)
        for _, _, h_tilde in sweep:
            assert h_tilde == pytest.approx(0.0, abs=1e-12)
        # H0 = -min over u of 0 = 0 as well
        h0 = standard_hamiltonian(channel_model, zero_cost, [0.0], [0.0], unit_grid)
        assert h0 == pytest.approx(0.0, abs=1e-12)

    def test_requires_decreasing_alphas(self, channel_model, zero_cost, unit_grid):
        with pytest.raises(ValueError):
            laplace_gap(channel_model, zero_cost, [0.0], [1.0], [0.1, 1.0], unit_grid)


class TestDerivativeChecks:
    def test_gradient_matches_central_differences(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(17)
        ctx = HamiltonianContext(vdp_model, vdp_cost, 1.0, vdp_grid)
        for _ in range(10):
            x = rng.normal(size=2) * 0.7
            p = rng.normal(size=2)
            rep = ctx.report(x, p)
            fd = np.zeros(2)
            for i in range(2):
                dp = np.zeros(2)
                dp[i] = 1e-5
                up = ctx.report(x, p + dp).value
                dn = ctx.report(x, p - dp).value
                fd[i] = (up - dn) / 2e-5
            assert np.allclose(rep.gradient_p, fd, atol=1e-5)

    def test_hessian_psd_and_matches_gradient_differences(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(23)
        ctx = HamiltonianContext(vdp_model, vdp_cost, 1.0, vdp_grid)
        for _ in range(5):
            x = rng.normal(size=2) * 0.7
            p = rng.normal(size=2)
            rep = ctx.report(x, p, order=2)
            assert np.allclose(rep.hessian_p, rep.hessian_p.T, atol=1e-10)
            min_eig = np.min(np.linalg.eigvalsh(rep.hessian_p))
            assert min_eig >= -1e-8 * (1.0 + np.trace(rep.hessian_p))
            fd = np.zeros((2, 2))
            for i in range(2):
                dp = np.zeros(2)
                dp[i] = 1e-5
                gp = ctx.report(x, p + dp).gradient_p
                gm = ctx.report(x, p - dp).gradient_p
                fd[:, i] = (gp - gm) / 2e-5
            assert np.allclose(rep.hessian_p, fd, atol=1e-4)

    def test_convexity_in_p(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(29)
        x = np.array([0.3, -0.2])
        ctx = HamiltonianContext(vdp_model, vdp_cost, 1.0, vdp_grid)
        for _ in range(200):
            p1 = rng.normal(size=2) * 2
            p2 = rng.normal(size=2) * 2
            lam = rng.uniform(0.05, 0.95)
            mid = lam * p1 + (1 - lam) * p2
            h_mid = ctx.value_batch(x, mid)
            h1 = ctx.value_batch(x, p1)
            h2 = ctx.value_batch(x, p2)
            assert float(h_mid) <= lam * float(h1) + (1 - lam) * float(h2) + 1e-9

    def test_lipschitz_in_p(self, vdp_model, vdp_cost, vdp_grid):
        rng = np.random.default_rng(31)
        ctx = HamiltonianContext(vdp_model, vdp_cost, 1.0, vdp_grid)
        for _ in range(20):
            x = rng.normal(size=2) * 0.5
            p = rng.normal(size=2)
            q = rng.normal(size=2)
            hp = ctx.value_batch(x, p)
            hq = ctx.value_batch(x, q)
            f_nodes = vdp_model.eval(np.broadcast_to(x, (vdp_grid.size, 2)), vdp_grid.nodes)
            f_max = float(np.max(np.linalg.norm(f_nodes, axis=1)))
            assert abs(float(hp) - float(hq)) <= np.linalg.norm(p - q) * f_max * (1 + 1e-8)


class TestGridSelfCheck:
    def test_smooth_integrand_converged(self, vdp_model, vdp_box):
        # smooth running cost (no |u| kink) so Gauss-Legendre converges spectrally
        smooth_cost = CostModel(
            running=GenericRunning(
                lambda x, u: np.sum(x**2, axis=-1) + np.sum(u**2, axis=-1)
            ),
            terminal=None,
            alpha=1.0,
            lam=0.0,
            horizon=1.0,
        )
        ctx = HamiltonianContext(vdp_model, smooth_cost, 1.0, build_grid(vdp_box, 64))
        gap = check_grid_convergence(ctx, np.array([0.2, -0.4]), np.array([0.5, 1.0]))
        assert gap < 1e-6

    def test_sharp_integrand_warns(self, channel_model, zero_cost, unit_box):
        with pytest.warns(RuntimeWarning):
            ctx = HamiltonianContext(channel_model, zero_cost, 0.002, build_grid(unit_box, 8))
            check_grid_convergence(ctx, np.array([0.0]), np.array([3.0]))

    def test_small_alpha_warns(self, channel_model, zero_cost, unit_grid):
        with pytest.warns(RuntimeWarning):
            HamiltonianContext(channel_model, zero_cost, 5e-4, unit_grid).report([0.0], [1.0])


def _vdp_plane_reference(x, u):
    """The planar Van der Pol field written out in one piece: the Generic twin
    of the feature-form ``vdp_plane_model``."""
    x1, x2, uu = x[..., 0], x[..., 1], u[..., 0]
    channel = uu + uu**3 / 3.0 + np.sin(uu)
    f2 = -2.0 * (x1**2 - 1.0) * x2 - x1 + (2.0 + np.sin(x1 * x2)) * channel
    return np.stack(np.broadcast_arrays(x2, f2), axis=-1)


def _vdp4_reference(x, u):
    plane = _vdp_plane_reference(x, u)
    x1, x3, x4 = x[..., 0], x[..., 2], x[..., 3]
    f4 = -x3 - 0.2 * x4 + x1
    return np.stack(np.broadcast_arrays(plane[..., 0], plane[..., 1], x4, f4), axis=-1)


def _l1_running_reference(x, u):
    return np.sum(np.abs(x), axis=-1) + np.sum(np.abs(u), axis=-1)


def _lq_ctx(a, b, q, r, box, nodes, alpha=0.5):
    model = DynamicsModel(len(a), len(b[0]), Linear(a=a, b=b))
    cost = CostModel(running=QuadraticRunning(q=q, r=r), terminal=None, alpha=alpha)
    return HamiltonianContext(model=model, cost=cost, alpha=alpha, grid=build_grid(box, nodes))


class TestStructuralGradient:
    """grad_x H of a feature-affine model with a separable cost, taken from the
    value pass and the x-only callbacks instead of 2n more quadrature passes."""

    A = np.array([[0.0, 1.0], [-1.0, -0.4]])

    @pytest.mark.parametrize(
        "b, q, r, lower, upper, nodes",
        [
            ([[0.0], [1.0]], np.eye(2), [[1.0]], [-1.0], [1.0], 4),
            ([[0.0], [1.0]], [[2.0, 0.5], [0.5, 1.0]], [[0.3]], [-3.0], [0.5], 32),
            ([[0.0], [1.0]], np.eye(2), [[1.0]], [-12.0], [12.0], 64),
            ([[1.0, 0.2], [-0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]], [[1.0, 0.2], [0.2, 0.5]],
             [-1.0, -2.0], [2.0, 1.0], 8),
        ],
    )
    def test_lq_gradient_is_exact(self, b, q, r, lower, upper, nodes):
        # d_x L = A'p + Qx does not depend on u, so neither the box nor the node
        # count enters grad_x H = -(A'p + Qx)
        ctx = _lq_ctx(self.A, b, q, r, ControlBox(lower=lower, upper=upper), nodes)
        rng = np.random.default_rng(nodes)
        x = rng.uniform(-2.0, 2.0, (200, 2))
        p = rng.uniform(-2.0, 2.0, (200, 2))
        _, _, grad_x = ctx.value_grad_batch(x, p)
        exact = -(p @ self.A + x @ np.asarray(q).T)
        assert np.max(np.abs(grad_x - exact)) <= 1e-8

    def test_lq_value_matches_closed_form(self):
        # H = -p'Ax - x'Qx/2 + p'BR^-1B'p/2 + kappa, kappa = (a m/2) log 2 pi a - (a/2) log det R,
        # when the box covers the Gaussian mean -R^-1 B'p by many standard deviations
        alpha, r = 0.5, 1.0
        ctx = _lq_ctx(self.A, [[0.0], [1.0]], np.eye(2), [[r]],
                      ControlBox(lower=[-12.0], upper=[12.0]), 64, alpha)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, (200, 2))
        p = rng.uniform(-1.0, 1.0, (200, 2))
        h, _, _ = ctx.value_grad_batch(x, p)
        kappa = 0.5 * alpha * math.log(2.0 * math.pi * alpha) - 0.5 * alpha * math.log(r)
        exact = (-np.einsum("bi,ij,bj->b", p, self.A, x) - 0.5 * np.sum(x * x, axis=1)
                 + 0.5 * p[:, 1] ** 2 / r + kappa)
        assert np.max(np.abs(h - exact)) <= 1e-10

    def test_vdp_feature_form_matches_its_generic_twin(self):
        cost = vdp_plane_cost()
        grid = build_grid(vdp_control_box(), 32)
        feature = HamiltonianContext(vdp_plane_model(), cost, 1.0, grid)
        twin_cost = CostModel(running=GenericRunning(_l1_running_reference),
                              terminal=cost.terminal, alpha=1.0, horizon=cost.horizon)
        twin = HamiltonianContext(DynamicsModel(2, 1, Generic(_vdp_plane_reference)),
                                  twin_cost, 1.0, grid)
        rng = np.random.default_rng(11)
        x = rng.uniform(-2.0, 2.0, (4000, 2))
        p = rng.uniform(-3.0, 3.0, (4000, 2))
        h, grad_p, grad_x = feature.value_grad_batch(x, p)
        h_twin, grad_p_twin, grad_x_twin = twin.value_grad_batch(x, p)
        assert np.array_equal(h, h_twin)
        assert np.array_equal(grad_p, grad_p_twin)
        assert np.max(np.abs(grad_x - grad_x_twin)) <= 1e-7

    @pytest.mark.parametrize("dim", [2, 4])
    def test_vdp_fields_equal_their_one_piece_form(self, dim):
        model, reference = (
            (vdp_plane_model(), _vdp_plane_reference) if dim == 2
            else (vdp4_model(), _vdp4_reference)
        )
        rng = np.random.default_rng(dim)
        x = rng.uniform(-3.0, 3.0, (500, 1, dim))
        u = rng.uniform(-1.0, 1.0, (1, 40, 1))
        assert np.array_equal(model.eval(x, u), reference(x, u))
        assert np.array_equal(model.eval(x[:, 0], u[0, :1]), reference(x[:, 0], u[0, :1]))

    def test_one_quadrature_pass_per_call(self, monkeypatch):
        # the feature form passes B rows through the node axis; the Generic twin
        # 2n + 1 times as many, for its central differences of H
        module = importlib.import_module("maxent_hjb.soft_hamiltonian")
        rows = []
        node_fields = module._node_fields

        def counted(model, cost, x, nodes):
            rows.append(np.asarray(x).size // 2)
            return node_fields(model, cost, x, nodes)

        monkeypatch.setattr(module, "_node_fields", counted)
        cost = vdp_plane_cost()
        grid = build_grid(vdp_control_box(), 8)
        x = np.full((10, 2), 0.3)
        HamiltonianContext(vdp_plane_model(), cost, 1.0, grid).value_grad_batch(x, x)
        assert rows == [10]
        rows.clear()
        twin = DynamicsModel(2, 1, Generic(_vdp_plane_reference))
        HamiltonianContext(twin, cost, 1.0, grid).value_grad_batch(x, x)
        assert sum(rows) == 10 * 5
