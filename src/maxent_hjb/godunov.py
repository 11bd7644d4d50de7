"""Monotone Godunov finite-difference solver for the 2-D soft HJB IVP.

Serves as the grid-based cross-validation oracle for the grid-free solver:
forward Euler in time with the dimension-by-dimension Godunov numerical
Hamiltonian. The soft Hamiltonian is a log-sum-exp, smooth and strictly convex
in the costate, so on a minimizing interval [lo, hi] the flux is H at
clip(p*, lo, hi), where dH/dp_i(p*) = -E[f_i] = 0 (Osher & Shu 1991): a row
whose slope is >= 0 at lo stops there without reading hi. p* is found by Newton
with the kernel's own curvature Var[f_i]/alpha, safeguarded by a bisection
bracket; maxima sit at the interval endpoints. Where f_i does not depend on the
control (the Van der Pol x1' = x2), H is affine in p_i with slope -f_i, and the
extremum is the upwind endpoint, found without a kernel pass. The flux is the
H that the last coordinate's search computed at its optimizer; only rows
without one (degenerate or upwinded) take a final evaluation.

The solver precomputes f(x_ij, u_q) and r(x_ij, u_q) for the static grid once,
so a Hamiltonian evaluation during time stepping reduces to an exp/sum over
quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import write_table
from .errors import DegenerateCflError, DimensionMismatchError, NoConvergenceError
from .soft_hamiltonian import HamiltonianContext, _exponent, _node_fields, boltzmann_moments

_SPEED_REFRESH = 50
MAX_STEPS = 200_000
NEWTON_TOL = 1e-13
NEWTON_ITERS = 100


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid with at least 8 nodes per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid needs nx, ny >= 8")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must be increasing")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def points(self) -> np.ndarray:
        """All nodes as an (nx*ny, 2) array, x-major."""
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Node values of W at one time."""

    values: np.ndarray
    grid: Grid2D
    time: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.nx, self.grid.ny):
            raise DimensionMismatchError("values must be nx x ny")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function has non-finite values")
        object.__setattr__(self, "values", values)

    def to_csv(self, path):
        write_table(path, "x, y, W", np.column_stack([self.grid.points(), self.values.ravel()]))


class _CachedHamiltonian:
    """H_a(x_i, .) for a fixed set of states, with f and r precomputed on the
    control nodes; L is formed by the kernel's own ``_exponent``. ``control_free``
    marks the (state, coordinate) pairs whose f_i is one value at every node,
    and ``drift`` holds that value (f at the first node)."""

    def __init__(self, ctx: HamiltonianContext, points: np.ndarray):
        self.alpha = ctx.alpha
        self.weights = ctx.grid.weights
        f, r = _node_fields(ctx.model, ctx.cost, points, ctx.grid.nodes)
        shape = (points.shape[0], ctx.grid.size, points.shape[1])  # (M, N, n)
        self.f = np.broadcast_to(np.asarray(f, dtype=float), shape).copy()
        self.r = np.broadcast_to(np.asarray(r, dtype=float), shape[:2]).copy()
        self.drift = self.f[:, 0, :]  # (M, n)
        self.control_free = np.all(self.f == self.drift[:, None, :], axis=1)

    def value(self, p_rows: np.ndarray, rows=None, coord=None, order=0):
        """H at ``p_rows``; at ``order`` >= 1, (H, dH/dp_i, d2H/dp_i^2 or None below
        order 2) for i = ``coord``, from one kernel pass (-E[f_i], Var[f_i]/alpha)."""
        f = self.f if rows is None else self.f[rows]
        r = self.r if rows is None else self.r[rows]
        l_vals = _exponent(p_rows, f, r)
        if order == 0:
            return boltzmann_moments(l_vals, self.weights, self.alpha).value
        m = boltzmann_moments(l_vals, self.weights, self.alpha, f[..., coord : coord + 1], order)
        return m.value, m.gradient[..., 0], None if order == 1 else m.hessian[..., 0, 0]

    def grad_norm(self, p_rows: np.ndarray) -> np.ndarray:
        l_vals = _exponent(p_rows, self.f, self.r)
        grad = boltzmann_moments(l_vals, self.weights, self.alpha, self.f, order=1).gradient
        return np.linalg.norm(grad, axis=1)


def _newton_min(derivs, lo, hi, start):
    """Per-row (argmin, value there) over [lo, hi] of a smooth convex function whose
    (value, slope, curvature) at v on rows idx are ``derivs(v, idx, order)``. Rows
    with slope >= 0 at lo, read at order 1, stop there with its value; hi is read
    only on the other rows, which stop there when its slope is <= 0. The rest run
    Newton from ``start`` in a bracket narrowed by the slope's sign, bisecting
    when the Newton point leaves it or the curvature is not positive, until a
    step is <= NEWTON_TOL (1 + |v|), and keep the value at the last Newton point. The value is NaN on rows whose slopes read NaN,
    which stay at ``start`` unevaluated.
    """
    h_lo, d_lo, _ = derivs(lo, np.arange(lo.size), 1)
    at_lo = d_lo >= 0.0
    h_hi, d_hi = np.full(lo.size, np.nan), np.full(lo.size, np.nan)
    beyond = np.where(~at_lo)[0]
    if beyond.size:
        h_hi[beyond], d_hi[beyond], _ = derivs(hi[beyond], beyond, 1)
    at_hi = d_hi <= 0.0
    arg = np.where(at_lo, lo, np.where(at_hi, hi, start))
    value = np.where(at_lo, h_lo, np.where(at_hi, h_hi, np.nan))
    active = np.where((d_lo < 0.0) & (d_hi > 0.0))[0]
    a, b, v = lo[active], hi[active], start[active]
    for _ in range(NEWTON_ITERS):
        if active.size == 0:
            return arg, value
        h_v, d, h = derivs(v, active, 2)
        a, b = np.where(d < 0.0, v, a), np.where(d > 0.0, v, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = v - d / h
        v_next = np.where((h > 0.0) & (newton > a) & (newton < b), newton, 0.5 * (a + b))
        step = np.fmin(np.abs(newton - v), np.abs(v_next - v))
        done = step <= NEWTON_TOL * (1.0 + np.abs(v))
        arg[active[done]] = v[done]
        value[active[done]] = h_v[done]
        active, a, b, v = active[~done], a[~done], b[~done], v_next[~done]
    if active.size:
        raise NoConvergenceError(f"Godunov flux: {active.size} rows unconverged by Newton")
    return arg, value


def _godunov_extremize(cached: _CachedHamiltonian, p_minus, p_plus):
    """Dimension-by-dimension Godunov extremization of H over gradient intervals;
    returns (flux, optimizers).

    ``cached.value`` evaluates H at full costate rows, with its p_coord-derivatives
    on request. Coordinates are processed in order: extremized coordinates stay
    at their optimizers, pending ones at interval midpoints. A coordinate whose
    f_i is ``control_free`` has H affine in p_i with slope -f_i, so it takes the
    upwind endpoint with no kernel pass: hi when f_i > 0 on a minimizing branch
    (p_minus[i] <= p_plus[i]) or f_i < 0 on a maximizing one, else lo. Other
    minimizing branches use ``_newton_min``; other maximizing branches compare
    the endpoints (convexity puts maxima there). The flux is the H that the last
    coordinate's search computed at its optimizer; rows without one (degenerate,
    upwinded, or NaN) take one final ``cached.value`` pass.
    """
    p_minus = np.atleast_2d(np.asarray(p_minus, dtype=float))
    p_plus = np.atleast_2d(np.asarray(p_plus, dtype=float))
    n = p_minus.shape[1]
    p_work = 0.5 * (p_minus + p_plus)
    for i in range(n):
        pm = p_minus[:, i]
        pp = p_plus[:, i]
        lo = np.minimum(pm, pp)
        hi = np.maximum(pm, pp)
        degenerate = hi - lo <= 0.0
        arg = np.where(degenerate, lo, p_work[:, i])
        upwind = cached.control_free[:, i] & ~degenerate
        f_i = cached.drift[:, i]
        arg[upwind] = np.where(np.where(pm <= pp, f_i > 0.0, f_i < 0.0), hi, lo)[upwind]
        settled = degenerate | upwind
        value = np.full(lo.size, np.nan)

        def coord_eval(vals, rows, order=0):
            p_eval = p_work[rows].copy()
            p_eval[:, i] = vals
            return cached.value(p_eval, rows, i, order)

        search = (pm <= pp) & ~settled
        if np.any(search):
            rows = np.where(search)[0]
            arg[rows], value[rows] = _newton_min(
                lambda v, idx, order: coord_eval(v, rows[idx], order), lo[rows], hi[rows], arg[rows]
            )
        maxi = (pm > pp) & ~settled
        if np.any(maxi):
            rows = np.where(maxi)[0]
            h_lo = coord_eval(lo[rows], rows)
            h_hi = coord_eval(hi[rows], rows)
            take_lo = h_lo >= h_hi
            arg[rows] = np.where(take_lo, lo[rows], hi[rows])
            value[rows] = np.where(take_lo, h_lo, h_hi)
        p_work[:, i] = arg
    rest = np.where(np.isnan(value))[0]
    if rest.size:
        value[rest] = cached.value(p_work[rest], None if rest.size == lo.size else rest)
    return value, p_work


def godunov_flux(ctx: HamiltonianContext, x_cell, p_minus, p_plus) -> float:
    """Godunov numerical Hamiltonian at one cell.

    With p_minus == p_plus this degenerates to a plain soft-Hamiltonian
    evaluation. It runs the solver's own cached-Hamiltonian path.
    """
    cached = _CachedHamiltonian(ctx, np.atleast_2d(np.asarray(x_cell, dtype=float)))
    vals, _ = _godunov_extremize(cached, p_minus, p_plus)
    return float(vals[0])


def _one_sided_gradients(w, dx, dy):
    """Backward/forward differences with linear-extrapolation ghost cells."""
    int_x = (w[1:, :] - w[:-1, :]) / dx
    dm_x = np.concatenate([int_x[:1], int_x], axis=0)
    dp_x = np.concatenate([int_x, int_x[-1:]], axis=0)
    int_y = (w[:, 1:] - w[:, :-1]) / dy
    dm_y = np.concatenate([int_y[:, :1], int_y], axis=1)
    dp_y = np.concatenate([int_y, int_y[:, -1:]], axis=1)
    return dm_x, dp_x, dm_y, dp_y


def godunov_solve(
    ctx: HamiltonianContext,
    q_spec,
    grid: Grid2D,
    t_final: float,
    cfl: float = 0.5,
) -> GridFunction:
    """March the monotone scheme from W(0) = q to time ``t_final``.

    The time step is cfl * min(dx, dy) / max|grad_p H| with the speed sampled
    at the grid's central difference gradients and refreshed every 50 steps. H
    is costate-independent exactly when f is 0 at every cached (grid point,
    control node) pair; such an H is advanced exactly in steps of t_final / 8.
    A vanishing speed estimate with any non-zero f raises DegenerateCflError;
    not reaching ``t_final`` within MAX_STEPS steps raises NoConvergenceError.
    """
    if not (0.0 < cfl <= 0.9):
        raise ValueError("cfl must be in (0, 0.9]")
    if not 0.0 < t_final < math.inf:  # also rejects NaN
        raise ValueError("t_final must be finite and > 0")
    pts = grid.points()
    cached = _CachedHamiltonian(ctx, pts)
    w = np.asarray(q_spec.eval(pts), dtype=float).reshape(grid.nx, grid.ny)
    t = 0.0
    dt = None
    for step in range(MAX_STEPS):
        if t >= t_final - 1e-14:
            break
        dm_x, dp_x, dm_y, dp_y = _one_sided_gradients(w, grid.dx, grid.dy)
        if step % _SPEED_REFRESH == 0:
            p_central = np.stack(
                [0.5 * (dm_x + dp_x), 0.5 * (dm_y + dp_y)], axis=-1
            ).reshape(-1, 2)
            vmax = float(cached.grad_norm(p_central).max())
            if vmax <= 1e-14 and np.any(cached.f):
                raise DegenerateCflError(
                    "grad_p H vanished at the grid gradients, but f is not zero at every node"
                )
            dt = (t_final / 8.0) if vmax <= 1e-14 else cfl * min(grid.dx, grid.dy) / vmax
        step_dt = min(dt, t_final - t)
        p_m = np.stack([dm_x, dm_y], axis=-1).reshape(-1, 2)
        p_p = np.stack([dp_x, dp_y], axis=-1).reshape(-1, 2)
        flux, _ = _godunov_extremize(cached, p_m, p_p)
        w = w - step_dt * flux.reshape(grid.nx, grid.ny)
        t += step_dt
    else:
        raise NoConvergenceError(f"time stepping did not reach T in {MAX_STEPS} steps")
    return GridFunction(values=w, grid=grid, time=t_final)


def compare_solutions(a: GridFunction, b: GridFunction) -> dict:
    """The differences of two grid functions on one grid at one time.

    Returns max_abs_diff, sup_norm_b, and rel_pct = 100 max|a-b| / sup|b|, plus
    the same three restricted to the interior (10% margin cropped per side,
    where the extrapolating boundary condition cannot pollute the comparison).
    Raises ValueError if the grids differ or the times differ by more than 1e-9.
    """
    if a.grid != b.grid:
        raise ValueError("grid functions live on different grids")
    if abs(a.time - b.time) > 1e-9:
        raise ValueError("time stamps differ by more than 1e-9")
    diff = np.abs(a.values - b.values)
    sup_b = float(np.max(np.abs(b.values)))
    mx = int(math.ceil(0.1 * a.grid.nx))
    my = int(math.ceil(0.1 * a.grid.ny))
    interior = (slice(mx, a.grid.nx - mx), slice(my, a.grid.ny - my))
    sup_b_int = float(np.max(np.abs(b.values[interior])))
    return {
        "max_abs_diff": float(diff.max()),
        "sup_norm_b": sup_b,
        "rel_pct": 100.0 * float(diff.max()) / sup_b if sup_b > 0 else 0.0,
        "max_abs_diff_interior": float(diff[interior].max()),
        "sup_norm_b_interior": sup_b_int,
        "rel_pct_interior": (
            100.0 * float(diff[interior].max()) / sup_b_int if sup_b_int > 0 else 0.0
        ),
    }
