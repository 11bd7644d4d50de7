import math

import numpy as np
import pytest

import maxent_hjb.godunov as godunov_module
from maxent_hjb import (
    ControlBox,
    CostModel,
    DynamicsModel,
    Generic,
    GenericRunning,
    Grid2D,
    GridFunction,
    HamiltonianContext,
    L1Terminal,
    QuadraticTerminal,
    build_grid,
    compare_solutions,
    godunov_flux,
    godunov_solve,
)
from maxent_hjb.benchmarks import vdp_plane_cost, vdp_plane_model
from maxent_hjb.errors import DegenerateCflError, NoConvergenceError
from maxent_hjb.godunov import _CachedHamiltonian, _godunov_extremize


def zero_cost_2d(alpha=1.0):
    return CostModel(
        running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
        terminal=L1Terminal(),
        alpha=alpha,
        lam=0.0,
        horizon=1.0,
    )


def channel_2d_model():
    """f(x, u) = (u, 0): scalar control advecting the first coordinate."""
    return DynamicsModel(
        2,
        1,
        Generic(
            lambda x, u: np.stack(np.broadcast_arrays(u[..., 0], 0.0 * x[..., 0]), axis=-1)
        ),
    )


def sheared_channel_model():
    """f(x, u) = (u, x1): the second coordinate is control-free, with the sign of x1."""
    return DynamicsModel(
        2, 1, Generic(lambda x, u: np.stack(np.broadcast_arrays(u[..., 0], x[..., 0]), axis=-1))
    )


def count_kernel_rows(monkeypatch):
    """Record the rows of every Godunov call of the Boltzmann kernel in a list."""
    rows = []
    kernel = godunov_module.boltzmann_moments

    def counting(l_vals, *args, **kwargs):
        rows.append(l_vals.shape[0])
        return kernel(l_vals, *args, **kwargs)

    monkeypatch.setattr(godunov_module, "boltzmann_moments", counting)
    return rows


def planar_channel_model():
    """f(x, u) = u with u in a 2-D box."""
    return DynamicsModel(2, 2, Generic(lambda x, u: u + 0.0 * x))


@pytest.fixture(scope="module")
def vdp_ctx():
    grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
    return HamiltonianContext(
        model=vdp_plane_model(), cost=vdp_plane_cost(), alpha=1.0, grid=grid
    )


class TestGridTypes:
    def test_spacings(self):
        g = Grid2D(-2.0, 2.0, 0.0, 1.0, 9, 11)
        assert g.dx == pytest.approx(0.5)
        assert g.dy == pytest.approx(0.1)
        assert g.points().shape == (99, 2)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            Grid2D(0.0, 1.0, 0.0, 1.0, 4, 16)

    def test_nonfinite_values_rejected(self):
        g = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 8)
        values = np.zeros((8, 8))
        values[3, 3] = math.nan
        with pytest.raises(ValueError):
            GridFunction(values=values, grid=g, time=0.0)

    def test_csv_round_trip(self, tmp_path):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
        rng = np.random.default_rng(0)
        f = GridFunction(values=rng.normal(size=(8, 8)), grid=g, time=0.25)
        csv_path = tmp_path / "field.csv"
        f.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x, y, W"
        assert len(lines) == 65
        back = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 2], f.values.ravel())


class TestGodunovFlux:
    def test_degenerate_interval_equals_hamiltonian(self, vdp_ctx):
        x = np.array([0.3, -0.7])
        p = np.array([0.5, -1.1])
        flux = godunov_flux(vdp_ctx, x, p, p)
        assert flux == vdp_ctx.report(x, p).value

    def test_min_branch_below_endpoints(self, vdp_ctx):
        x = np.array([0.2, 0.4])
        pm = np.array([-1.5, -0.2])
        pp = np.array([1.0, 0.8])
        flux = godunov_flux(vdp_ctx, x, pm, pp)
        ends = [vdp_ctx.report(x, q).value for q in (pm, pp)]
        assert flux <= min(ends) + 1e-12

    def test_min_branch_matches_dense_scan(self):
        # oracle: 10^4-point scan of H over the interval on the first coordinate
        model = channel_2d_model()
        cost = zero_cost_2d()
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid)
        pm = np.array([-2.0, 0.3])
        pp = np.array([1.5, 0.3])
        flux = godunov_flux(ctx, [0.0, 0.0], pm, pp)
        dense = np.linspace(-2.0, 1.5, 10_001)
        p_rows = np.stack([dense, np.full_like(dense, 0.3)], axis=-1)
        vals = ctx.value_batch(np.zeros((len(dense), 2)), p_rows)
        assert flux == pytest.approx(float(vals.min()), abs=1e-6)

    def test_max_branch_takes_larger_endpoint(self, vdp_ctx):
        x = np.array([0.1, -0.2])
        pm = np.array([1.2, 0.0])
        pp = np.array([-0.7, 0.0])  # reversed ordering: maximizing branch
        flux = godunov_flux(vdp_ctx, x, pm, pp)
        candidates = []
        for p1 in (pm[0], pp[0]):
            q = np.array([p1, 0.25 * 0.0])
            candidates.append(vdp_ctx.report(x, q).value)
        assert flux >= max(candidates) - 1e-9

    def test_newton_cap_raises(self, vdp_ctx, monkeypatch):
        # the VdP minimizer in p2 at x = (0.2, 0.4) lies inside (-1.5, 1.0),
        # away from the midpoint where Newton starts, so one step is not enough
        cached = _CachedHamiltonian(vdp_ctx, np.array([[0.2, 0.4]]))
        pm = np.array([[0.3, -1.5]])
        pp = np.array([[0.3, 1.0]])
        _, p_star = _godunov_extremize(cached, pm, pp)
        assert -1.5 < p_star[0, 1] < 1.0 and abs(p_star[0, 1] + 0.25) > 1e-3
        monkeypatch.setattr(godunov_module, "NEWTON_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            _godunov_extremize(cached, pm, pp)


class TestUpwindControlFree:
    # f2 = x1 > 0, < 0 and = 0: H is affine in p2 with slope -x1
    STATES = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("minimizing", [True, False])
    def test_endpoint_matches_dense_scan_without_kernel_rows(self, minimizing, monkeypatch):
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
        ctx = HamiltonianContext(
            model=sheared_channel_model(), cost=zero_cost_2d(), alpha=1.0, grid=grid
        )
        cached = _CachedHamiltonian(ctx, self.STATES)
        assert np.array_equal(cached.control_free, [[False, True]] * 3)
        p1, lo, hi = 0.4, -0.8, 1.3
        start, end = (lo, hi) if minimizing else (hi, lo)
        pm = np.tile([p1, start], (3, 1))
        pp = np.tile([p1, end], (3, 1))
        rows = count_kernel_rows(monkeypatch)
        flux, p_star = _godunov_extremize(cached, pm, pp)
        # p1 is held and p2 is upwinded, so only the flux value itself is evaluated
        assert rows == [3]
        upwind = [hi, lo, lo] if minimizing else [lo, hi, lo]  # the tie at f2 = 0 picks lo
        assert p_star[:, 1].tolist() == upwind
        # oracle: 10^4-point scan of H over [lo, hi] in p2
        dense = np.linspace(lo, hi, 10_001)
        p_rows = np.column_stack([np.full_like(dense, p1), dense])
        for k, x in enumerate(self.STATES):
            vals = ctx.value_batch(np.tile(x, (dense.size, 1)), p_rows)
            target = float(vals.min() if minimizing else vals.max())
            assert flux[k] == pytest.approx(target, rel=0.0, abs=1e-12 * (1.0 + abs(target)))


class TestEndpointPasses:
    # f = (u, 0): H is even and convex in p1 with its minimum at p1 = 0, and the
    # degenerate p2 takes no search, so the flux takes one pass of its own
    PM = np.array([[0.5, 0.3], [1.0, 0.3], [-2.0, 0.3]])
    PP = np.array([[1.5, 0.3], [-0.5, 0.3], [-1.0, 0.3]])

    @staticmethod
    def cached(points):
        grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 32)
        ctx = HamiltonianContext(model=channel_2d_model(), cost=zero_cost_2d(), alpha=1.0, grid=grid)
        return ctx, _CachedHamiltonian(ctx, np.zeros((points, 2)))

    def test_hi_pass_skips_rows_stopped_at_lo(self, monkeypatch):
        # rows: minimizing with slope > 0 at lo, maximizing, minimizing with
        # slope < 0 at both ends
        ctx, cached = self.cached(3)
        rows = count_kernel_rows(monkeypatch)
        flux, p_star = _godunov_extremize(cached, self.PM, self.PP)
        # minimizing lo and hi (without the row that stopped at lo), maximizing
        # lo and hi, the flux
        assert rows == [2, 1, 1, 1, 3]
        assert p_star[:, 0].tolist() == [0.5, 1.0, -1.0]
        assert np.array_equal(flux, ctx.value_batch(np.zeros((3, 2)), p_star))

    def test_row_stopped_at_lo_sends_nothing_to_hi(self, monkeypatch):
        _, cached = self.cached(1)
        rows = count_kernel_rows(monkeypatch)
        _, p_star = _godunov_extremize(cached, self.PM[:1], self.PP[:1])
        assert rows == [1, 1]  # the lo pass and the flux
        assert p_star[0, 0] == 0.5


class TestGodunovSolve:
    @pytest.mark.parametrize("t_final", [0.0, -0.1, math.nan, math.inf])
    def test_horizon_must_be_finite_and_positive(self, vdp_ctx, t_final):
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
        with pytest.raises(ValueError, match="t_final"):
            godunov_solve(vdp_ctx, L1Terminal(), g, t_final)

    def test_constant_hamiltonian_exact(self, monkeypatch):
        # f == 0: H = alpha log|U| everywhere, so W(T) = q - T alpha log|U|,
        # reached in 8 steps of T / 8 (one speed pass, then one flux pass a step)
        model = DynamicsModel(
            2, 1, Generic(lambda x, u: 0.0 * np.stack(
                np.broadcast_arrays(x[..., 0] + u[..., 0], x[..., 1]), axis=-1
            ))
        )
        cost = zero_cost_2d(alpha=1.0)
        grid_q = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid_q)
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12)
        rows = count_kernel_rows(monkeypatch)
        sol = godunov_solve(ctx, L1Terminal(), g, 0.2)
        assert rows == [144] * 9
        expected = np.abs(g.points()).sum(axis=1).reshape(12, 12) - 0.2 * math.log(2.0)
        assert np.max(np.abs(sol.values - expected)) < 1e-13

    def test_eikonal_slice(self):
        # alpha = 0.01, f = (u, 0), q = |x1|: 1-D eikonal along each y-slice
        model = channel_2d_model()
        cost = CostModel(
            running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
            terminal=None,
            alpha=0.01,
            lam=0.0,
            horizon=1.0,
        )

        class AbsX1:
            @staticmethod
            def eval(x):
                return np.abs(np.asarray(x)[..., 0])

        grid_q = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 96)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=0.01, grid=grid_q)
        g = Grid2D(-2.0, 2.0, -1.0, 1.0, 65, 9)
        t_final = 0.3
        sol = godunov_solve(ctx, AbsX1(), g, t_final)
        xs = g.xs
        exact = np.maximum(np.abs(xs) - t_final, 0.0)
        away = np.abs(np.abs(xs) - t_final) > 2 * max(g.dx, g.dy)
        away &= np.abs(xs) > 2 * max(g.dx, g.dy)  # also skip the x=0 kink
        err = np.abs(sol.values[:, 4] - exact)
        assert np.max(err[away]) < 2 * max(g.dx, g.dy)

    def test_first_order_self_convergence(self):
        # smooth q: error against a refined reference halves with dx in [1.5, 3]
        model = planar_channel_model()
        cost = CostModel(
            running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
            terminal=QuadraticTerminal(m=np.eye(2)),
            alpha=0.25,
            lam=0.0,
            horizon=1.0,
        )
        grid_q = build_grid(ControlBox(lower=[-1.0, -1.0], upper=[1.0, 1.0]), 16)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=0.25, grid=grid_q)
        t_final = 0.15
        sols = {}
        for nx in (17, 33, 65):
            g = Grid2D(-1.0, 1.0, -1.0, 1.0, nx, nx)
            sols[nx] = godunov_solve(ctx, cost.terminal, g, t_final, cfl=0.4)
        ref = sols[65].values[::4, ::4]  # shared nodes with the 17-grid
        interior = (slice(3, 14), slice(3, 14))
        err_c = np.max(np.abs(sols[17].values[interior] - ref[interior]))
        ref_m = sols[65].values[::2, ::2]
        err_m = np.max(np.abs(sols[33].values[3:31, 3:31][::1, ::1] - ref_m[3:31, 3:31]))
        ratio = err_c / err_m
        assert 1.5 <= ratio <= 3.0

    def test_monotonicity_random_perturbations(self, vdp_ctx):
        # raising one node of W never lowers any node of the next step
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 12, 12)
        pts = g.points()
        cached = _CachedHamiltonian(vdp_ctx, pts)
        rng = np.random.default_rng(0)
        w = np.abs(pts).sum(axis=1).reshape(12, 12)
        dt_step = 0.4 * min(g.dx, g.dy) / float(
            cached.grad_norm(np.zeros((len(pts), 2))).max() + 3.0
        )

        from maxent_hjb.godunov import _godunov_extremize, _one_sided_gradients

        def step(field):
            dm_x, dp_x, dm_y, dp_y = _one_sided_gradients(field, g.dx, g.dy)
            p_m = np.stack([dm_x, dm_y], axis=-1).reshape(-1, 2)
            p_p = np.stack([dp_x, dp_y], axis=-1).reshape(-1, 2)
            flux, _ = _godunov_extremize(cached, p_m, p_p)
            return field - dt_step * flux.reshape(12, 12)

        base = step(w)
        # monotonicity holds for the interior stencil; boundary rows use the
        # extrapolating ghost condition, which reuses interior data for both
        # one-sided slopes and is a known non-monotone error source
        interior = (slice(1, 11), slice(1, 11))
        for _ in range(100):
            i = rng.integers(0, 12)
            j = rng.integers(0, 12)
            bump = w.copy()
            bump[i, j] += 0.05
            assert np.min((step(bump) - base)[interior]) >= -1e-12

    def test_kernel_rows_a_quarter_of_golden_search(self, vdp_ctx, monkeypatch):
        # rows passed to the Boltzmann kernel over one 21^2 VdP solve; the
        # 40-step golden-section search with its endpoint compares passed
        # GOLDEN_SEARCH_ROWS (grad_norm's CFL rows included)
        GOLDEN_SEARCH_ROWS = 265_427
        rows = count_kernel_rows(monkeypatch)
        g = Grid2D(-2.0, 2.0, -2.0, 2.0, 21, 21)
        godunov_solve(vdp_ctx, vdp_ctx.cost.terminal, g, 0.1, cfl=0.5)
        assert sum(rows) <= GOLDEN_SEARCH_ROWS / 4

    def test_kernel_rows_with_upwinding(self, vdp_ctx, monkeypatch):
        # the VdP x1' = x2 is control-free, so only p2 is searched, and the flux
        # is the H that search left at its optimizer; hi is read only on rows that
        # lo did not settle. One 21^2 solve passes 13,490 rows, where reading hi on
        # every row took 15,238 and searching both coordinates 33,987
        rows = count_kernel_rows(monkeypatch)
        g = Grid2D(-2.0, 2.0, -2.0, 2.0, 21, 21)
        godunov_solve(vdp_ctx, vdp_ctx.cost.terminal, g, 0.1, cfl=0.5)
        assert sum(rows) <= 14_000

    def test_cfl_stability_on_constant_terminal(self, vdp_ctx):
        # flat initial data: sup|W| grows at most linearly with slope sup|H(.,0)|
        class Const:
            @staticmethod
            def eval(x):
                return np.full(np.asarray(x).shape[:-1], 2.0)

        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 16, 16)
        t_final = 0.2
        sol = godunov_solve(vdp_ctx, Const(), g, t_final)
        pts = g.points()
        h0 = vdp_ctx.value_batch(pts, np.zeros_like(pts))
        # gradients develop after the first step, so allow a 5% envelope over
        # the flat-field Hamiltonian magnitude
        bound = 2.0 + 1.05 * t_final * float(np.max(np.abs(h0)))
        assert float(np.max(np.abs(sol.values))) <= bound

    def test_degenerate_cfl_raises(self):
        # H depends on p, but flat data + symmetric box makes the sampled
        # speeds vanish: the solver must refuse rather than advect blindly
        model = planar_channel_model()
        cost = zero_cost_2d(alpha=1.0)
        grid_q = build_grid(ControlBox(lower=[-1.0, -1.0], upper=[1.0, 1.0]), 8)
        ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid_q)

        class Const:
            @staticmethod
            def eval(x):
                return np.zeros(np.asarray(x).shape[:-1])

        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 8, 8)
        with pytest.raises(DegenerateCflError):
            godunov_solve(ctx, Const(), g, 0.1)

    def test_exhausted_step_budget_raises_no_convergence(self, vdp_ctx, monkeypatch):
        # a 16x16 grid needs more than 3 CFL steps to reach t = 0.1
        monkeypatch.setattr(godunov_module, "MAX_STEPS", 3)
        g = Grid2D(-1.0, 1.0, -1.0, 1.0, 16, 16)
        with pytest.raises(NoConvergenceError, match="did not reach T in 3 steps"):
            godunov_solve(vdp_ctx, vdp_ctx.cost.terminal, g, 0.1)


class TestCompareSolutions:
    GRID = Grid2D(-1.0, 1.0, -1.0, 1.0, 10, 10)

    def test_identical_fields(self):
        values = np.random.default_rng(1).normal(size=(10, 10))
        f = GridFunction(values=values, grid=self.GRID, time=0.1)
        report = compare_solutions(f, GridFunction(values=values, grid=self.GRID, time=0.1))
        assert report["max_abs_diff"] == 0.0
        assert report["rel_pct"] == 0.0
        assert report["sup_norm_b"] == pytest.approx(float(np.max(np.abs(values))))

    def test_constant_shift(self):
        f = GridFunction(values=np.ones((10, 10)), grid=self.GRID, time=0.0)
        shifted = GridFunction(values=np.full((10, 10), 1.0 - 0.25), grid=self.GRID, time=0.0)
        report = compare_solutions(f, shifted)
        assert report["max_abs_diff"] == pytest.approx(0.25)
        assert report["max_abs_diff_interior"] == pytest.approx(0.25)
        assert report["rel_pct"] == pytest.approx(100.0 * 0.25 / 0.75)

    def test_time_stamp_mismatch(self):
        f = GridFunction(values=np.zeros((10, 10)), grid=self.GRID, time=0.1)
        later = GridFunction(values=np.zeros((10, 10)), grid=self.GRID, time=0.2)
        with pytest.raises(ValueError, match="time stamps"):
            compare_solutions(f, later)
        # within 1e-9 the times agree
        near = GridFunction(values=np.zeros((10, 10)), grid=self.GRID, time=0.1 + 1e-10)
        assert compare_solutions(f, near)["max_abs_diff"] == 0.0

    def test_grid_mismatch(self):
        f = GridFunction(values=np.zeros((10, 10)), grid=self.GRID, time=0.1)
        wider = GridFunction(values=np.zeros((10, 10)), grid=Grid2D(-2.0, 2.0, -1.0, 1.0, 10, 10),
                             time=0.1)
        with pytest.raises(ValueError, match="different grids"):
            compare_solutions(f, wider)
