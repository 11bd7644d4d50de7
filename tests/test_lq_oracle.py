"""Closed-form LQ oracle for both HJB solvers.

For f = Ax + Bu, r = x'Qx/2 + u'Ru/2, q = x'Mx/2 and a control box that covers
the Gaussian mean -R^-1 B'p by many standard deviations sqrt(alpha / R),

    H(x, p) = -p'Ax - x'Qx/2 + p'BR^-1B'p/2 + kappa,
    kappa = (alpha m / 2) log(2 pi alpha) - (alpha / 2) log det R,

and the initial-value problem W_t = -H(x, grad W), W(0) = q, is solved by
W(t, x) = x'P(t)x/2 - kappa t with P' = A'P + PA + Q - PBR^-1B'P, P(0) = M.
The Riccati ODE is integrated here by RK4 at a fine step, so each solver is
checked against an absolute reference rather than against the other.
"""

import math

import numpy as np
import pytest

from maxent_hjb import (
    ControlBox,
    CostModel,
    DynamicsModel,
    Grid2D,
    HamiltonianContext,
    HopfLaxConfig,
    Linear,
    QuadraticRunning,
    QuadraticTerminal,
    build_grid,
    godunov_solve,
    hopf_lax_value,
)

A = np.array([[0.0, 1.0], [-1.0, -0.4]])
B = np.array([[0.0], [1.0]])
Q = np.eye(2)
M = np.eye(2)
R = np.array([[1.0]])
ALPHA = 0.5
T = 0.5
KAPPA = 0.5 * ALPHA * len(R) * math.log(2.0 * math.pi * ALPHA) - 0.5 * ALPHA * math.log(
    np.linalg.det(R)
)


def riccati(t, steps=2000):
    """P(t) of P' = A'P + PA + Q - PBR^-1B'P, P(0) = M, by RK4."""
    gain = B @ np.linalg.solve(R, B.T)

    def rhs(p):
        return A.T @ p + p @ A + Q - p @ gain @ p

    p = M.copy()
    h = t / steps
    for _ in range(steps):
        k1 = rhs(p)
        k2 = rhs(p + 0.5 * h * k1)
        k3 = rhs(p + 0.5 * h * k2)
        k4 = rhs(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


def exact_value(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * np.einsum("...i,ij,...j->...", x, riccati(T), x) - KAPPA * T


@pytest.fixture(scope="module")
def ctx():
    model = DynamicsModel(2, 1, Linear(a=A, b=B))
    cost = CostModel(running=QuadraticRunning(q=Q, r=R), terminal=QuadraticTerminal(m=M),
                     alpha=ALPHA)
    grid = build_grid(ControlBox(lower=[-12.0], upper=[12.0]), 64)
    return HamiltonianContext(model=model, cost=cost, alpha=ALPHA, grid=grid)


def test_kernel_matches_the_closed_form_hamiltonian(ctx):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, (200, 2))
    p = rng.uniform(-2.0, 2.0, (200, 2))
    h, _, _ = ctx.value_grad_batch(x, p)
    pb = p @ B
    exact = (-np.einsum("bi,ij,bj->b", p, A, x) - 0.5 * np.einsum("bi,ij,bj->b", x, Q, x)
             + 0.5 * np.einsum("bi,bi->b", pb, np.linalg.solve(R, pb.T).T) + KAPPA)
    assert np.max(np.abs(h - exact)) <= 1e-10


@pytest.mark.parametrize(
    "formula, ode_step, bound",
    # 10x the errors measured at these settings (4.2e-7, 5.3e-8, 3.5e-7, 4.4e-8):
    # RK4 order, step for step, in both forms
    [("min", 0.1, 4.2e-6), ("min", 0.05, 5.3e-7), ("max", 0.1, 3.5e-6), ("max", 0.05, 4.4e-7)],
)
def test_hopf_lax_matches_the_riccati_value(ctx, formula, ode_step, bound):
    # ball starts from the seed, never from the exact costate P(t)x: a start
    # there would hide an optimizer that fails to find it
    cfg = HopfLaxConfig(ode_step=ode_step, n_starts=4, start_radius=3.0, simplex_iters=80,
                        formula=formula, seed=1)
    for x in ([0.5, -0.3], [-0.8, 0.6]):
        est = hopf_lax_value(ctx, ctx.cost.terminal, x, T, cfg)
        assert abs(est.value - exact_value(x)) <= bound


@pytest.fixture(scope="module")
def godunov_errors(ctx):
    """|W_godunov - W| on [-1, 1]^2 at 17^2, 33^2 and 65^2 nodes."""
    errors = {}
    for n in (17, 33, 65):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, n, n)
        sol = godunov_solve(ctx, ctx.cost.terminal, grid, T)
        errors[n] = (grid, np.abs(sol.values - exact_value(grid.points()).reshape(n, n)))
    return errors


def _interior(grid):
    """Nodes with |x|, |y| <= 0.8: the grid cropped by 10% per side."""
    keep = np.abs(grid.xs) <= 0.8 + 1e-12
    return np.ix_(keep, keep)


def test_godunov_interior_error_is_first_order(godunov_errors):
    interior = [err[_interior(grid)].max() for grid, err in godunov_errors.values()]
    assert interior[0] <= 6e-2  # 4.8e-2, 2.5e-2 and 1.3e-2 measured
    for coarse, fine in zip(interior, interior[1:]):
        assert 1.5 <= coarse / fine <= 3.0


def test_godunov_boundary_error_does_not_converge(godunov_errors):
    # The ghost cells are linear extrapolations, so the error on the outer
    # ring stalls near 3e-2 (5.9e-2, 3.2e-2, 3.7e-2 over the whole grid) while
    # the interior converges. This pins the known defect: a boundary closure
    # that converges would fail here, and the test should then assert it.
    grid, err = godunov_errors[65]
    interior = err[_interior(grid)].max()
    whole = [err.max() for _, err in godunov_errors.values()]
    assert whole[2] >= 2.0 * interior
    assert whole[1] / whole[2] < 1.5
    i, j = np.unravel_index(np.argmax(err), err.shape)
    assert max(abs(grid.xs[i]), abs(grid.ys[j])) > 0.8  # the worst node is on the ring
