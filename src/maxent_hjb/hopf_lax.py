"""Grid-free soft-HJB evaluation via generalized Hopf-Lax representations.

The initial-value solution W(t, x) is recovered by optimizing, over terminal
costates v, a functional evaluated along the bi-characteristic curves

    gamma' = grad_p H(gamma, p),   p' = -grad_x H(gamma, p),
    gamma(t) = x,                  p(t) = v,

integrated backward to s = 0 with fixed-step RK4 in one loop over the s-nodes
(``_integrate_batch``). Each stage is one kernel call for H, grad_p H and
grad_x H (see ``HamiltonianContext.value_grad_batch``); the first stage's call
also gives the functional's integrand at the node, summed by Simpson's rule.
The optimization is a multi-start Nelder-Mead simplex, run batched so that many
starts (and many query points, for surface dumps) share each quadrature call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    GenericTerminal,
    L1Terminal,
    QuadraticTerminal,
    Trajectory,
    diverged_rows,
    euler_rollout,
    make_rng,
)
from .errors import (
    AllCharacteristicsBlewUpError,
    DimensionMismatchError,
    DivergedTrajectoryError,
    InfeasibleTransformError,
    MaxEntError,
)
from .soft_hamiltonian import HamiltonianContext

MIN_FORM = "min"
MAX_FORM = "max"


@dataclass(frozen=True)
class HopfLaxConfig:
    """Optimizer and integrator knobs for the Hopf-Lax evaluation."""

    ode_step: float = 0.025
    n_starts: int = 16
    start_radius: float = 5.0
    simplex_iters: int = 200
    formula: str = MIN_FORM
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.ode_step < math.inf:  # also rejects NaN
            raise ValueError("ode_step must be finite and > 0")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if not 0.0 < self.start_radius < math.inf:
            raise ValueError("start_radius must be finite and > 0")
        if self.simplex_iters < 1:
            raise ValueError("simplex_iters must be >= 1")
        if self.formula not in (MIN_FORM, MAX_FORM):
            raise ValueError("formula must be 'min' or 'max'")


@dataclass(frozen=True)
class CharacteristicCurve:
    """One bi-characteristic: s-grid, state curve, costate curve."""

    s_grid: np.ndarray
    gamma: np.ndarray
    costate: np.ndarray
    blown_up: bool
    blowup_s: float | None = None


@dataclass(frozen=True)
class ValueEstimate:
    """Best Hopf-Lax value with its optimizing costate."""

    value: float
    argmin_v: np.ndarray
    blown_up_fraction: float


def _integrate_batch(ctx: HamiltonianContext, x_rows, v_rows, t, n_steps, formula, path=None):
    """Backward RK4 of the bi-characteristics of each (x, v) row, from s = t to 0.

    One loop visits the s-nodes k = n_steps, ..., 0. At each node it makes the
    first stage's kernel call, records the integrand of ``formula``
    (``p . grad_p H - H`` for the min form, ``H - gamma . grad_x H`` for the max
    form) and, above k = 0, takes the step; the costate moves along
    p' = -grad_x H, so backward in s it gains (h/6)(gx1 + 2 gx2 + 2 gx3 + gx4).
    A curve whose gamma or p fails ``diverged_rows`` after a step is flagged
    with the s-index it reached and zeroed. ``path``, an (n_steps + 1, 2, b, n)
    array, receives gamma and p at every node when given.

    Returns (gamma(0), p(0), the integrand's composite Simpson integral,
    blown, blowup_step), one entry per row.
    """
    h = t / n_steps
    gam = x_rows.astype(float)
    p = v_rows.astype(float)
    blown = np.zeros(len(gam), dtype=bool)
    blowup_step = np.zeros(len(gam), dtype=int)
    integrand = np.empty((len(gam), n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k in range(n_steps, -1, -1):
            if path is not None:
                path[k] = gam, p
            h_val, gp1, gx1 = ctx.value_grad_batch(gam, p)
            if formula == MIN_FORM:
                integrand[:, k] = np.einsum("bi,bi->b", p, gp1) - h_val
            else:
                integrand[:, k] = h_val - np.einsum("bi,bi->b", gam, gx1)
            if k == 0:
                break
            _, gp2, gx2 = ctx.value_grad_batch(gam - 0.5 * h * gp1, p + 0.5 * h * gx1)
            _, gp3, gx3 = ctx.value_grad_batch(gam - 0.5 * h * gp2, p + 0.5 * h * gx2)
            _, gp4, gx4 = ctx.value_grad_batch(gam - h * gp3, p + h * gx3)
            gam = gam - (h / 6.0) * (gp1 + 2.0 * gp2 + 2.0 * gp3 + gp4)
            p = p + (h / 6.0) * (gx1 + 2.0 * gx2 + 2.0 * gx3 + gx4)
            newly = (diverged_rows(gam) | diverged_rows(p)) & ~blown
            if np.any(newly):
                blown |= newly
                blowup_step[newly] = k - 1
                gam[blown] = 0.0
                p[blown] = 0.0
    return gam, p, _simpson(integrand, h), blown, blowup_step


def _simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson over the curve's own s-grid (even interval count).

    Fourth-order accuracy keeps the running integral below the RK4 error, so
    step-halving studies see the integrator's order rather than the
    quadrature's.
    """
    weights = np.ones(values.shape[1])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * values @ weights


def _step_count(t: float, ode_step: float) -> int:
    n = max(4, int(math.ceil(t / ode_step - 1e-12)))
    return n + (n % 2)


def integrate_characteristics(
    ctx: HamiltonianContext,
    x,
    v,
    t: float,
    config: HopfLaxConfig,
) -> CharacteristicCurve:
    """Solve the bi-characteristic ODEs for one (x, v), stored forward in s."""
    if not 0.0 < t < math.inf:  # also rejects NaN
        raise ValueError("t must be finite and > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n_steps = _step_count(t, config.ode_step)
    path = np.empty((n_steps + 1, 2, 1, len(x)))
    *_, blown, blowup_step = _integrate_batch(
        ctx, x[None, :], v[None, :], t, n_steps, config.formula, path
    )
    s_grid = np.linspace(0.0, t, n_steps + 1)
    return CharacteristicCurve(
        s_grid=s_grid, gamma=path[:, 0, 0], costate=path[:, 1, 0],
        blown_up=bool(blown[0]), blowup_s=float(s_grid[blowup_step[0]]) if blown[0] else None,
    )


def legendre_transform(q_spec, v) -> float:
    """Legendre-Fenchel transform q*(v) = sup_x {x.v - q(x)} by terminal family."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(_legendre_batch(q_spec, v[None, :])[0])


def _legendre_batch(q_spec, v_rows):
    """q*(v) for each costate row of ``v_rows``."""
    if isinstance(q_spec, L1Terminal):
        return np.where(np.max(np.abs(v_rows), axis=1) <= 1.0, 0.0, math.inf)
    if isinstance(q_spec, QuadraticTerminal):
        sol = np.linalg.solve(q_spec.m, v_rows.T).T
        return 0.5 * np.einsum("bi,bi->b", v_rows, sol)
    if isinstance(q_spec, GenericTerminal):
        if q_spec.search_box is None:
            raise MaxEntError("generic terminal cost needs a search box for q*")
        box = q_spec.search_box
        axes = [np.linspace(lo, hi, 65) for lo, hi in zip(box.lower, box.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        # grid approximation over the search box
        return np.max(v_rows @ pts.T - q_spec.eval(pts), axis=1)
    raise MaxEntError(f"no Legendre transform for terminal family {type(q_spec).__name__}")


def _objective_batch(ctx, q_spec, x_rows, v_rows, t, n_steps, formula):
    """Hopf-Lax functional for each (x, v) row; +inf (min form) or -inf (max
    form) on blown curves and in place of NaN, so the minimizer never sees NaN.

    Also returns the rows whose curve survived, and the surviving rows whose
    terminal transform is finite (q* in the max form; always, in the min form).
    """
    gamma0, p0, integral, blown, _ = _integrate_batch(ctx, x_rows, v_rows, t, n_steps, formula)
    survived = ~blown
    if formula == MIN_FORM:
        vals = q_spec.eval(gamma0) + integral
        return np.where(blown | np.isnan(vals), math.inf, vals), survived, survived
    qstar = _legendre_batch(q_spec, p0)
    vals = np.einsum("bi,bi->b", x_rows, v_rows) - qstar - integral
    return np.where(blown | np.isnan(vals), -math.inf, vals), survived, survived & (qstar < math.inf)


def _nelder_mead_batch(objective_rows, simplices, iters, owners):
    """Vectorized Nelder-Mead over a batch of simplices (minimization).

    ``objective_rows(v_rows, owner_idx)`` evaluates vertex rows, where
    ``owner_idx`` names the query point each row belongs to (so one call can
    optimize many points at once); it returns +inf, never NaN, for a bad row.
    Returns the per-simplex best vertex and value after ``iters`` iterations.
    """
    b, k1, k = simplices.shape
    vals = objective_rows(simplices.reshape(b * k1, k), np.repeat(owners, k1)).reshape(b, k1)
    for _ in range(iters):
        order = np.argsort(vals, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        simplices = np.take_along_axis(simplices, order[:, :, None], axis=1)
        best_v, second_worst, worst_v = vals[:, 0], vals[:, -2], vals[:, -1]
        centroid = simplices[:, :-1].mean(axis=1)
        worst = simplices[:, -1]
        direction = centroid - worst
        xr = centroid + direction
        fr = objective_rows(xr, owners)

        expand = fr < best_v
        con_out = (~expand) & (fr >= second_worst) & (fr < worst_v)
        con_in = (~expand) & (fr >= worst_v)
        second = np.where(
            expand[:, None], centroid + 2.0 * direction,
            np.where(con_in[:, None], centroid - 0.5 * direction,
                     centroid + 0.5 * direction),
        )
        fs = objective_rows(second, owners)

        new_vertex = xr.copy()
        new_val = fr.copy()
        take_second = (expand & (fs < fr)) | (con_out & (fs <= fr)) | (con_in & (fs < worst_v))
        new_vertex[take_second] = second[take_second]
        new_val[take_second] = fs[take_second]

        shrink = (con_out & (fs > fr)) | (con_in & (fs >= worst_v))
        accept = ~shrink
        simplices[accept, -1] = new_vertex[accept]
        vals[accept, -1] = new_val[accept]
        if np.any(shrink):
            idx = np.where(shrink)[0]
            shrunk = simplices[idx, :1] + 0.5 * (simplices[idx, 1:] - simplices[idx, :1])
            fsh = objective_rows(shrunk.reshape(-1, k), np.repeat(owners[idx], k))
            simplices[idx, 1:] = shrunk
            vals[idx, 1:] = fsh.reshape(len(idx), k)
    order = np.argsort(vals, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    simplices = np.take_along_axis(simplices, order[:, :, None], axis=1)
    return vals[:, 0], simplices[:, 0]


def _ball_samples(rng, count, dim, radius):
    z = rng.standard_normal((count, dim))
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    norm[norm == 0.0] = 1.0
    radii = radius * rng.random((count, 1)) ** (1.0 / dim)
    return z / norm * radii


def _initial_simplices(v0_rows):
    b, k = v0_rows.shape
    simplices = np.repeat(v0_rows[:, None, :], k + 1, axis=1)
    for i in range(k):
        simplices[:, i + 1, i] += 0.25 * (1.0 + np.abs(v0_rows[:, i]))
    return simplices


def _pick_best(values, vertices, infeasible):
    """Per query point, the lowest finite value over its starts and the vertex
    holding it; ties break lexicographically on v.

    ``values`` is (points, starts) and ``vertices`` (points, starts, n). A point
    with no finite start raises InfeasibleTransformError when ``infeasible``
    (see ``_nm_with_points``), else AllCharacteristicsBlewUpError.
    """
    dead = int(np.sum(~np.any(np.isfinite(values), axis=1)))
    if dead and infeasible:
        raise InfeasibleTransformError("q* was +inf at every probed costate; max-form infeasible")
    if dead:
        raise AllCharacteristicsBlewUpError(
            f"all {values.shape[1]} starts blew up at {dead} of {len(values)} query points"
        )
    finite = np.where(np.isfinite(values), values, math.inf)
    k = np.lexsort((*np.moveaxis(vertices, -1, 0)[::-1], finite), axis=-1)[:, 0]
    rows = np.arange(len(values))
    return values[rows, k], vertices[rows, k]


def hopf_lax_value(
    ctx: HamiltonianContext,
    q_spec,
    x,
    t: float,
    config: HopfLaxConfig,
    extra_starts=None,
) -> ValueEstimate:
    """Evaluate W(t, x) by optimizing the Hopf-Lax functional over costates.

    ``extra_starts`` prepends deterministic costate starts (e.g. a previous
    solve's optimizer when tracking a trajectory) to the sampled ones.
    """
    if not 0.0 < t < math.inf:  # also rejects NaN
        raise ValueError("t must be finite and > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_steps = _step_count(t, config.ode_step)
    rng = make_rng(config.seed)
    v0 = _ball_samples(rng, config.n_starts, x.shape[0], config.start_radius)
    if extra_starts is not None:
        extra = np.atleast_2d(np.asarray(extra_starts, dtype=float))
        if extra.ndim != 2 or extra.shape[1] != len(x):
            raise DimensionMismatchError(
                f"extra_starts rows must have the width {len(x)} of x, got shape {extra.shape}"
            )
        v0 = np.concatenate([extra, v0], axis=0)

    vals, verts, infeasible = _nm_with_points(
        ctx, q_spec, x[None, :], v0[None], t, n_steps, config.formula, config.simplex_iters
    )
    best_vals, best_v = _pick_best(vals, verts, infeasible)
    return ValueEstimate(
        value=float(_sign(config.formula) * best_vals[0]),
        argmin_v=best_v[0],
        blown_up_fraction=float(np.mean(~np.isfinite(vals[0]))),
    )


def value_surface(
    ctx: HamiltonianContext,
    q_spec,
    xs: np.ndarray,
    ys: np.ndarray,
    t: float,
    config: HopfLaxConfig,
    n_random: int = 2,
    n_bands: int = 2,
    processes: int = 1,
    warm_iters: int | None = None,
) -> np.ndarray:
    """W(t, .) on a 2-D grid via a warm-started row sweep.

    The first row of each band runs the full multi-start budget from
    ``config``; subsequent rows seed simplices from the previous row's optimal
    costates (same column and neighbors) plus ``n_random`` fresh ball samples
    and polish for ``warm_iters`` iterations. The fixed band layout (not the
    process count) determines results, so outputs are reproducible per seed.
    """
    if not 0.0 < t < math.inf:  # also rejects NaN
        raise ValueError("t must be finite and > 0")
    if warm_iters is not None and warm_iters < 1:
        raise ValueError("warm_iters must be >= 1")
    if n_random < 0:
        raise ValueError("n_random must be >= 0")
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    bands = np.array_split(np.arange(len(ys)), n_bands)
    args = [
        (ctx, q_spec, xs, ys, band, t, config, n_random, warm_iters)
        for band in bands
        if len(band)
    ]
    if processes > 1 and len(args) > 1:
        import multiprocessing as mp

        # Forked workers inherit the bands through the initializer, which fork
        # does not pickle; only band indices and value arrays cross the pipe.
        with mp.get_context("fork").Pool(min(processes, len(args)), _inherit, (args,)) as pool:
            parts = pool.map(_sweep_inherited_band, range(len(args)))
    else:
        parts = [_sweep_band_star(a) for a in args]
    return np.concatenate(parts, axis=1)


_INHERITED: list = []  # a fork worker's band arguments; the parent's copy stays empty


def _inherit(args):
    _INHERITED[:] = args


def _sweep_inherited_band(i):
    return _sweep_band_star(_INHERITED[i])


def _sweep_band_star(args):
    return _sweep_band(*args)


def _sweep_band(ctx, q_spec, xs, ys, rows, t, config, n_random, warm_iters):
    nx = len(xs)
    n = 2
    n_steps = _step_count(t, config.ode_step)
    if warm_iters is None:
        warm_iters = config.simplex_iters
    out = np.empty((nx, len(rows)))
    prev_v = None
    rng = make_rng(config.seed + 7919 * int(rows[0]))
    for jj, j in enumerate(rows):
        pts = np.stack([xs, np.full(nx, ys[j])], axis=-1)
        n_cold = config.n_starts if prev_v is None else n_random
        starts = _ball_samples(rng, nx * n_cold, n, config.start_radius).reshape(nx, n_cold, n)
        if prev_v is not None:
            warm = np.stack(
                [prev_v, np.roll(prev_v, 1, axis=0), np.roll(prev_v, -1, axis=0)], axis=1
            )
            starts = np.concatenate([warm, starts], axis=1)
        iters = config.simplex_iters if prev_v is None else warm_iters
        vals, verts, infeasible = _nm_with_points(
            ctx, q_spec, pts, starts, t, n_steps, config.formula, iters
        )
        best_vals, prev_v = _pick_best(vals, verts, infeasible)
        out[:, jj] = _sign(config.formula) * best_vals
    return out


def _sign(formula) -> float:
    """Orientation of the objective: NM minimizes sign * (Hopf-Lax functional)."""
    return 1.0 if formula == MIN_FORM else -1.0


def _nm_with_points(ctx, q_spec, pts, starts, t, n_steps, formula, iters):
    """Multi-start NM for a cloud of query points, ``starts`` being
    (points, starts per point, n); each simplex row knows its own point.

    Returns the per-start values (in the minimized orientation) and vertices,
    plus whether the problem looked infeasible: some probed curve survived, but
    the terminal transform was +inf at every surviving probe.
    """
    nx, n_start, n = starts.shape
    sign = _sign(formula)
    simplices = _initial_simplices(starts.reshape(nx * n_start, n))
    owners = np.repeat(np.arange(nx), n_start)
    survived = transformed = False

    def objective_rows(v_rows, owner_rows):
        nonlocal survived, transformed
        xr = pts[owner_rows]
        vals, alive, finite_q = _objective_batch(ctx, q_spec, xr, v_rows, t, n_steps, formula)
        survived = survived or bool(np.any(alive))
        transformed = transformed or bool(np.any(finite_q))
        return sign * vals

    vals, verts = _nelder_mead_batch(objective_rows, simplices, iters, owners)
    return vals.reshape(nx, n_start), verts.reshape(nx, n_start, n), survived and not transformed


def sample_feedback(
    ctx: HamiltonianContext,
    x,
    costate,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one control from the Boltzmann feedback density, for any control dimension.

    Node k is drawn with probability w_k g_k, the quadrature's own mass, by
    inverting the cumulative masses with one uniform. The control is then
    uniform in k's tensor cell, whose edges on each axis are the midpoints
    between neighbouring 1-D nodes, with the box bounds at the two ends. The
    draw is exact for the density that puts mass w_k g_k evenly on each cell.
    """
    grid = ctx.grid
    box = grid.box
    dens = ctx.density(x, costate)
    cdf = np.cumsum(dens * grid.weights)
    k = np.searchsorted(cdf, rng.random() * cdf[-1], side="right")
    cell = np.unravel_index(k, [len(ax) for ax in grid.axes])
    lo, hi = np.empty(box.dim), np.empty(box.dim)
    for j, (ax, i) in enumerate(zip(grid.axes, cell)):
        lo[j] = box.lower[j] if i == 0 else 0.5 * (ax[i - 1] + ax[i])
        hi[j] = box.upper[j] if i == len(ax) - 1 else 0.5 * (ax[i] + ax[i + 1])
    return lo + rng.random(box.dim) * (hi - lo)


def _whole_ratio(num: float, den: float):
    """num / den as an int >= 1, or None unless it is a finite ratio within 1e-9
    of one."""
    ratio = num / den
    if not math.isfinite(ratio):
        return None
    whole = round(ratio)
    return whole if whole >= 1 and abs(ratio - whole) <= 1e-9 else None


def window_steps(total_t: float, window_t: float, dt: float) -> tuple[int, int]:
    """(windows, Euler steps per window) of a receding-horizon run.

    Raises ValueError unless all three are finite and > 0, ``window_t`` divides
    ``total_t`` and the Euler step dt^2 divides ``window_t``, so the run covers
    exactly ``total_t``.
    """
    for name, value in (("total_t", total_t), ("window_t", window_t), ("dt", dt)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    windows = _whole_ratio(total_t, window_t)
    if windows is None:
        raise ValueError(f"window_t {window_t} does not divide total_t {total_t}")
    steps = _whole_ratio(window_t, dt * dt)
    if steps is None:
        raise ValueError(f"the Euler step dt^2 = {dt * dt!r} does not divide window_t {window_t}")
    return windows, steps


def receding_horizon_control(
    ctx: HamiltonianContext,
    x0,
    total_t: float,
    window_t: float,
    config: HopfLaxConfig,
    dt: float,
    replan_every: int = 1,
) -> Trajectory:
    """Closed-loop control by successive finite-horizon Hopf-Lax solves.

    The horizon is split into equal windows (see ``window_steps``); inside each
    window the soft HJB, with the context's terminal cost, is re-solved at the
    current state with the remaining window time, a control is sampled from the
    synthesized Boltzmann density, and the state advances with the
    sampled-control Euler integrator (step dt^2). ``replan_every`` substeps
    share one sampled control. A state that fails ``diverged`` stops the run
    with DivergedTrajectoryError.
    """
    if replan_every < 1:
        raise ValueError("replan_every must be >= 1")
    n_windows, steps_per_window = window_steps(total_t, window_t, dt)
    steps = n_windows * steps_per_window
    q_spec = ctx.cost.terminal
    h = dt * dt
    rng = make_rng(config.seed)
    u = warm_v = None

    def control(k, x):
        nonlocal u, warm_v
        k %= steps_per_window  # the substep within its window
        if k % replan_every == 0:
            est = hopf_lax_value(ctx, q_spec, x, window_t - k * h, config, extra_starts=warm_v)
            warm_v = est.argmin_v[None, :]
            u = sample_feedback(ctx, x, est.argmin_v, rng)
        return u

    x = np.atleast_1d(np.asarray(x0, dtype=float))
    states, controls = euler_rollout(ctx.model.eval, x, h, steps, control)
    if len(states) <= steps:
        raise DivergedTrajectoryError(len(states))
    return Trajectory(
        times=np.add.accumulate(np.r_[0.0, np.full(steps, h)]),
        states=states,
        controls=controls + controls[-1:],  # the last time point repeats the held control
    )
