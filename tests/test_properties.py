"""Property tests pinning the invariants of the Boltzmann-moment kernel, the
Godunov flux, the Van der Pol value's point symmetry, the LQ algebra and the
learners' block rollout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxent_hjb import (
    CostModel,
    HiddenLqSystem,
    GenericRunning,
    Grid2D,
    HamiltonianContext,
    HopfLaxConfig,
    LqProblem,
    boltzmann_moments,
    build_grid,
    godunov_flux,
    godunov_solve,
    hopf_lax_value,
    kleinman_iterate,
    make_stable_system,
)
from maxent_hjb.adaptive_dp import _euler_steps, _rollout, _Stream
from maxent_hjb.benchmarks import vdp_control_box, vdp_plane_cost, vdp_plane_model
from maxent_hjb.godunov import _CachedHamiltonian
from maxent_hjb.lq import (
    are_residual,
    quad_regressor,
    reduce_kron_columns,
    solve_lyapunov,
    spectral_abscissa,
    svec,
    svec_to_mat,
)
from maxent_hjb.soft_hamiltonian import _exponent, _node_fields

MODEL = vdp_plane_model()
COST = vdp_plane_cost()
GRID = build_grid(vdp_control_box(), nodes_per_dim=32)


def _ctx(alpha, cost=COST):
    """The context of MODEL and GRID at one temperature."""
    return HamiltonianContext(MODEL, cost, alpha, GRID)


coord = st.floats(-2.0, 2.0, allow_nan=False)
pair = st.tuples(coord, coord).map(np.array)
rows = st.lists(st.tuples(pair, pair), min_size=1, max_size=6)
alphas = st.sampled_from([0.05, 0.3, 1.0, 4.0])
SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(rows, alphas)
def test_scalar_equals_batch_rows(xp, alpha):
    xs = np.array([x for x, _ in xp])
    ps = np.array([p for _, p in xp])
    ctx = _ctx(alpha)
    values, grads, _ = ctx.value_grad_batch(xs, ps)
    for x, p, value, grad in zip(xs, ps, values, grads):
        rep = ctx.report(x, p)
        assert rep.value == value
        assert np.array_equal(rep.gradient_p, grad)


@SETTINGS
@given(pair, pair, alphas, st.floats(-50.0, 50.0, allow_nan=False))
def test_running_cost_shift(x, p, alpha, c):
    shifted = CostModel(
        running=GenericRunning(lambda xs, us: COST.running.eval(xs, us) + c),
        terminal=COST.terminal,
        alpha=COST.alpha,
    )
    base = _ctx(alpha).report(x, p).value
    moved = _ctx(alpha, shifted).report(x, p).value
    assert moved == pytest.approx(base - c, abs=1e-12 * (1.0 + abs(c) + abs(base)))


@SETTINGS
@given(pair, pair, st.sampled_from([0.3, 1.0, 4.0]))
def test_hessian_symmetric_psd_and_matches_gradient_differences(x, p, alpha):
    ctx = _ctx(alpha)
    rep = ctx.report(x, p, order=2)
    hess = rep.hessian_p
    assert np.array_equal(hess, hess.T)
    assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10 * (1.0 + np.trace(hess))
    step = 1e-5
    fd = np.empty((2, 2))
    for i in range(2):
        dp = np.zeros(2)
        dp[i] = step
        up = ctx.report(x, p + dp)
        dn = ctx.report(x, p - dp)
        fd[:, i] = (up.gradient_p - dn.gradient_p) / (2.0 * step)
    np.testing.assert_allclose(hess, fd, atol=1e-5 * (1.0 + np.abs(hess).max()))


@SETTINGS
@given(pair, pair, pair, st.floats(0.0, 1.0), alphas)
def test_convex_in_p_on_the_batch_path(x, p1, p2, lam, alpha):
    # H is a log-sum-exp of functions affine in p, so convexity holds up to rounding
    mid = lam * p1 + (1.0 - lam) * p2
    values = _ctx(alpha).value_batch(np.repeat(x[None, :], 3, axis=0), np.array([p1, p2, mid]))
    chord = lam * values[0] + (1.0 - lam) * values[1]
    assert values[2] <= chord + 1e-12 * (1.0 + abs(values[0]) + abs(values[1]))


steps = st.floats(0.0, 1.0)


@SETTINGS
@given(pair, pair, pair, st.integers(0, 1), steps, alphas)
def test_godunov_flux_monotone(x, p_minus, p_plus, i, step, alpha):
    # Nondecreasing in each coordinate of p_minus, nonincreasing in each of
    # p_plus. Newton on a minimizing branch stops within 1e-13 (1 + |p|) of the
    # minimizer; at an interior minimum that moves H by O(1e-26), so rounding
    # in H sets the tolerance: 1e-12 * (1 + |H|).
    ctx = HamiltonianContext(model=MODEL, cost=COST, alpha=alpha, grid=GRID)
    base = godunov_flux(ctx, x, p_minus, p_plus)
    bump = np.zeros(2)
    bump[i] = step
    tol = 1e-12 * (1.0 + abs(base))
    assert godunov_flux(ctx, x, p_minus + bump, p_plus) >= base - tol
    assert godunov_flux(ctx, x, p_minus, p_plus + bump) <= base + tol


def _minimizer_of_h_in_p2(x, p1, alpha):
    # bisection on dH/dp2: for |x_i| <= 0.5 the VdP f2 changes sign over the
    # control nodes, so H is coercive in p2 and its minimizer lies in (-50, 50)
    lo, hi = -50.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        rep = _ctx(alpha).report(x, np.array([p1, mid]))
        lo, hi = (mid, hi) if rep.gradient_p[1] < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


near = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(np.array)
kinds = st.sampled_from(["interior", "at_lo", "at_hi", "degenerate", "maximizing"])
widths = st.floats(0.05, 2.0)


@SETTINGS
@given(near, st.floats(-2.0, 2.0), kinds, widths, widths, alphas)
def test_godunov_flux_matches_dense_scan(x, p1, kind, a, b, alpha):
    # p1 is held (a degenerate interval), so the flux is the min of H over
    # [lo, hi] in p2, or over the reversed interval its max (at an endpoint).
    # The interval is placed around the minimizer p* to make each case.
    star = _minimizer_of_h_in_p2(x, p1, alpha)
    lo, hi = {
        "interior": (star - a, star + b),
        "at_lo": (star + a, star + a + b),  # H increasing on the interval
        "at_hi": (star - a - b, star - a),  # H decreasing on the interval
        "degenerate": (star + a - b, star + a - b),
        "maximizing": (star - a, star + b),
    }[kind]
    pm, pp = (hi, lo) if kind == "maximizing" else (lo, hi)
    ctx = HamiltonianContext(model=MODEL, cost=COST, alpha=alpha, grid=GRID)
    flux = godunov_flux(ctx, x, np.array([p1, pm]), np.array([p1, pp]))
    scan = np.linspace(lo, hi, 10_001)
    f, r = _node_fields(MODEL, COST, np.tile(x, (scan.size, 1)), GRID.nodes)
    l_vals = _exponent(np.column_stack([np.full_like(scan, p1), scan]), f, r)
    vals = boltzmann_moments(l_vals, GRID.weights, alpha).value
    rounding = 1e-12 * (1.0 + np.abs(vals).max())
    if kind == "maximizing":
        assert abs(flux - vals.max()) <= rounding
        return
    # the scan misses the minimum by at most max H'' (spacing)^2 / 8, and
    # H'' = Var[f2]/alpha <= range(f2)^2 / (4 alpha)
    curvature = np.ptp(f[..., 1], axis=-1).max() ** 2 / (4.0 * alpha)
    resolution = curvature * ((hi - lo) / 10_000) ** 2 / 8.0
    assert vals.min() - resolution - rounding <= flux <= vals.min() + rounding


@SETTINGS
@given(rows, alphas)
def test_order_only_selects_the_work(xp, alpha):
    xs = np.array([x for x, _ in xp])
    ps = np.array([p for _, p in xp])
    f, r = _node_fields(MODEL, COST, xs, GRID.nodes)
    l_vals = _exponent(ps, f, r)
    zeroth = boltzmann_moments(l_vals, GRID.weights, alpha)
    first = boltzmann_moments(l_vals, GRID.weights, alpha, f, order=1)
    second = boltzmann_moments(l_vals, GRID.weights, alpha, f, order=2)
    assert zeroth.gradient is None and first.hessian is None
    assert np.array_equal(zeroth.value, first.value) and np.array_equal(first.value, second.value)
    assert np.array_equal(first.gradient, second.gradient)


@SETTINGS
@given(rows, alphas)
def test_cached_hamiltonian_matches_value_batch_bitwise(xp, alpha):
    xs = np.array([x for x, _ in xp])
    ps = np.array([p for _, p in xp])
    ctx = HamiltonianContext(model=MODEL, cost=COST, alpha=alpha, grid=GRID)
    cached = _CachedHamiltonian(ctx, xs)
    assert np.array_equal(cached.value(ps), ctx.value_batch(xs, ps))


def test_vdp_value_is_point_symmetric():
    # f(-x, -u) = -f(x, u), r and q are even and U = [-1, 1], so W(t, -x) = W(t, x).
    # Each bound is about 3x its measurement: 1.8e-15 for Godunov at 41^2 and
    # 6.0e-15 for the converged Hopf-Lax pair (16 starts x 200 iterations).
    w = godunov_solve(_ctx(1.0), COST.terminal, Grid2D(-2.0, 2.0, -2.0, 2.0, 41, 41), 0.1).values
    assert np.max(np.abs(w - w[::-1, ::-1])) <= 5e-15
    cfg = HopfLaxConfig(ode_step=0.025, n_starts=16, start_radius=5.0, simplex_iters=200, seed=0)
    x = np.array([0.7, -0.4])
    pair = [hopf_lax_value(_ctx(1.0), COST.terminal, s * x, 0.1, cfg).value for s in (1.0, -1.0)]
    assert abs(pair[0] - pair[1]) <= 2e-14


dims = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)


def _random_symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g + g.T


@SETTINGS
@given(dims, seeds)
def test_svec_round_trip(n, seed):
    p = _random_symmetric(n, seed)
    v = svec(p)
    assert v.shape == (n * (n + 1) // 2,)
    assert np.array_equal(svec_to_mat(v, n), p)
    assert np.array_equal(svec(svec_to_mat(v, n)), v)


@SETTINGS
@given(dims, seeds)
def test_quad_regressor_is_the_quadratic_form(n, seed):
    p = _random_symmetric(n, seed)
    x = np.random.default_rng(seed + 1).standard_normal(n)
    scale = 1.0 + np.abs(p).sum() * (x @ x)
    assert quad_regressor(x) @ svec(p) == pytest.approx(x @ p @ x, abs=1e-12 * scale)


@SETTINGS
@given(dims, seeds)
def test_reduced_kron_row_is_the_quadratic_form(n, seed):
    # merging the (i,j)/(j,i) columns of kron(x, x) gives the svec regressor
    p = _random_symmetric(n, seed)
    x = np.random.default_rng(seed + 1).standard_normal(n)
    scale = 1.0 + np.abs(p).sum() * (x @ x)
    reduced = reduce_kron_columns(np.kron(x, x)[None], n)
    assert reduced.shape == (1, n * (n + 1) // 2)
    assert (reduced @ svec(p))[0] == pytest.approx(x @ p @ x, abs=1e-12 * scale)


@SETTINGS
@given(dims, seeds, st.floats(0.1, 2.0), st.sampled_from([0.0, 1e-10, 0.1, 1.0]))
def test_lyapunov_residual_on_hurwitz_matrices(n, seed, margin, lam):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a -= (spectral_abscissa(a) + margin) * np.eye(n)
    g = rng.standard_normal((n, n))
    m_rhs = g @ g.T
    p = solve_lyapunov(a, lam, m_rhs)
    residual = np.linalg.norm(a.T @ p + p @ a - lam * p + m_rhs)
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(m_rhs))
    assert np.array_equal(p, p.T)
    # M PSD and A - (lam/2) I Hurwitz make P the PSD Gramian
    assert np.min(np.linalg.eigvalsh(p)) >= -1e-10 * max(1.0, np.linalg.norm(p))


@SETTINGS
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    seeds,
    st.sampled_from([0.0, 0.05, 1.0]),
    st.sampled_from([0.1, 1.0]),
)
def test_kleinman_are_residual_on_stable_systems(n, m, seed, lam, b_scale):
    a, b = make_stable_system(n, m, seed, b_scale=b_scale)
    prob = LqProblem(a=a, b=b, q=np.eye(n), r=np.eye(m), lam=lam, alpha=1.0)
    sol = kleinman_iterate(prob)
    assert are_residual(prob, sol.p) <= 1e-10 * (1.0 + np.linalg.norm(sol.p) ** 2)


@SETTINGS
@given(
    st.integers(1, 6),
    st.integers(1, 3),
    seeds,
    st.sampled_from([1e-3, 1e-2]),
    st.integers(1, 1500),
)
def test_block_rollout_matches_the_per_step_loop(n, m, seed, h, steps):
    # a random gain K and a stable closed loop A - BK
    a_cl, b = make_stable_system(n, m, seed)
    k_gain = np.random.default_rng(seed).standard_normal((m, n))
    prob = LqProblem(a=a_cl + b @ k_gain, b=b, q=np.eye(n), r=np.eye(m), lam=0.0, alpha=1.0)
    system = HiddenLqSystem(prob)
    blocked, stepped = _Stream(n), _Stream(n)
    _rollout(system, blocked, k_gain, h, steps * h - 0.5 * h)
    _euler_steps(system, stepped, k_gain, h, lambda t: np.zeros(m), steps)
    assert blocked.rows == stepped.rows == steps + 1
    assert np.hstack(blocked.times).tobytes() == np.hstack(stepped.times).tobytes()
    states, ref_states = np.vstack(blocked.states), np.vstack(stepped.states)
    state_norms = np.linalg.norm(ref_states, axis=1)
    assert np.all(np.linalg.norm(states - ref_states, axis=1) <= 1e-12 * state_norms)
    # u = -Kx can cancel to nearly zero where it changes sign, so the control
    # gap is measured on the scale of the product, |K| |x|
    control_gap = np.linalg.norm(np.vstack(blocked.controls) - np.vstack(stepped.controls), axis=1)
    assert np.all(control_gap <= 1e-12 * np.linalg.norm(k_gain, 2) * state_norms[:-1])
