"""Soft Hamiltonian, Boltzmann minimizer, and standard Hamiltonian by quadrature.

The soft Hamiltonian is

    H_a(x, p) = a log integral_U exp(-(p.f(x,u) + r(x,u)) / a) du,

evaluated on a tensorized quadrature grid over the compact control box with a
log-sum-exp shift at the node minimum of the exponent. Its p-gradient and
p-Hessian are the (negated) mean and scaled covariance of u -> f(x, u) under the
Boltzmann density, reusing the same node weights as the value.

``HamiltonianContext`` is the one evaluator of H, grad_p H and the Boltzmann
density. Its batch methods accept leading dimensions on ``x`` and ``p``, and
every query in the batch shares one quadrature grid. ``_node_fields`` and
``_exponent`` are the one place that forms L = p.f + r, for the context, the
free sweeps below and the Godunov cache.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import (
    ControlBox,
    CostModel,
    DynamicsModel,
    FeatureAffine,
    QuadraticRunning,
    SeparableRunning,
)
from .errors import DimensionMismatchError

FD_STEP = 1e-6
SMALL_ALPHA_WARN = 1e-3
GRID_GAP_WARN = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 60


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensorized nodes/weights over a control box."""

    nodes: np.ndarray  # (N, m), the C-order tensor product of ``axes``
    weights: np.ndarray  # (N,)
    nodes_per_dim: int
    box: ControlBox
    axes: tuple[np.ndarray, ...]  # ascending 1-D nodes per control axis

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def _gauss_legendre_1d(lo, hi, n):
    xs, ws = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (xs + 1.0), half * ws


def build_grid(box: ControlBox, nodes_per_dim: int = 64) -> QuadratureGrid:
    """Tensor product of ``nodes_per_dim``-point Gauss-Legendre rules over the box."""
    per_axis = [_gauss_legendre_1d(lo, hi, nodes_per_dim) for lo, hi in zip(box.lower, box.upper)]
    axes, axis_weights = zip(*per_axis)
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = axis_weights[0]
    for w in axis_weights[1:]:
        weights = np.multiply.outer(weights, w)
    return QuadratureGrid(
        nodes=nodes,
        weights=np.asarray(weights).ravel(),
        nodes_per_dim=nodes_per_dim,
        box=box,
        axes=axes,
    )


@dataclass(frozen=True)
class HamiltonianReport:
    """Value and optional p-derivatives of the soft Hamiltonian at one (x, p)."""

    value: float
    gradient_p: np.ndarray | None
    hessian_p: np.ndarray | None


def _as_pair(x, p):
    """x and p as float arrays of one shape (..., n)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if x.shape != p.shape:
        raise DimensionMismatchError("x and p must have matching shapes")
    return x, p


def _node_fields(model: DynamicsModel, cost: CostModel, x, nodes):
    """(f(x, u_i), r(x, u_i)) at all control nodes for states ``x`` of shape
    (..., n): arrays of shape (..., N, n) and (..., N)."""
    xs = x[..., None, :]
    us = nodes[(None,) * (x.ndim - 1) + (slice(None), slice(None))]
    return model.eval(xs, us), cost.running.eval(xs, us)


def _exponent(p, f, r):
    """L_i = p.f_i + r_i at all control nodes, from ``_node_fields``' (f, r)."""
    return np.einsum("...i,...ni->...n", p, f) + r


class BoltzmannMoments(NamedTuple):
    """Output of :func:`boltzmann_moments`, one entry per batch row."""

    value: np.ndarray  # a log sum_i w_i exp(-L_i/a)
    mass: np.ndarray  # w_i exp(-(L_i - L_min)/a), unnormalized
    total: np.ndarray  # sum_i mass_i
    gradient: np.ndarray | None = None  # -E[f]
    hessian: np.ndarray | None = None  # Cov[f]/a


def boltzmann_moments(l_vals, weights, alpha, f=None, order=0) -> BoltzmannMoments:
    """The one Boltzmann-moment kernel: H = a log sum_i w_i exp(-L_i/a) over
    the last (node) axis, stabilized by a shift at the node minimum of L.

    ``order`` selects how much is computed: 0 gives the value alone, 1 adds
    -E[f] and 2 also adds Cov[f]/a, both under the density proportional to
    ``mass`` (``f`` carries the node axis second to last). Every H, density,
    Godunov and expected-cost path comes here, so this is the one place that
    rejects a temperature that is not > 0, NaN included.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    l_min = l_vals.min(axis=-1, keepdims=True)
    mass = np.exp(-(l_vals - l_min) / alpha) * weights
    total = mass.sum(axis=-1)
    value = alpha * np.log(total) - l_min[..., 0]
    if order == 0:
        return BoltzmannMoments(value, mass, total)
    mean_f = np.einsum("...n,...ni->...i", mass, f) / total[..., None]
    if order == 1:
        return BoltzmannMoments(value, mass, total, -mean_f)
    centered = f - mean_f[..., None, :]
    cov = np.einsum("...n,...ni,...nj->...ij", mass, centered, centered) / total[..., None, None]
    hessian = (cov + np.swapaxes(cov, -1, -2)) / (2.0 * alpha)
    return BoltzmannMoments(value, mass, total, -mean_f, hessian)


def grid_entropy(density: np.ndarray, grid: QuadratureGrid) -> float:
    """Differential entropy -sum w_i g_i log g_i of node density values."""
    g = np.asarray(density, dtype=float)
    glog = np.where(g > 0.0, g * np.log(np.maximum(g, 1e-300)), 0.0)
    return -float(np.sum(grid.weights * glog))


def standard_hamiltonian(
    model: DynamicsModel,
    cost: CostModel,
    x,
    p,
    grid: QuadratureGrid,
) -> float:
    """H_0(x, p) = -inf_u {p.f + r} by grid scan plus local refinement.

    The best node is refined with golden-section search (one pass per control
    coordinate, 60 iterations each; coordinate descent when m > 1) inside its
    neighbor interval.
    """
    x, p = _as_pair(x, p)
    l_vals = _exponent(p, *_node_fields(model, cost, x, grid.nodes))
    best_idx = int(np.argmin(l_vals))
    u_best = grid.nodes[best_idx].copy()
    best_val = float(l_vals[best_idx])
    m = grid.box.dim
    passes = 1 if m == 1 else 2
    for _ in range(passes):
        for j, ax in enumerate(grid.axes):
            k = int(np.argmin(np.abs(ax - u_best[j])))
            lo = ax[k - 1] if k > 0 else grid.box.lower[j]
            hi = ax[k + 1] if k < len(ax) - 1 else grid.box.upper[j]

            def coord_obj(val, j=j):
                u = u_best.copy()
                u[j] = val
                return _exponent(p, *_node_fields(model, cost, x, u[None, :]))[0]

            val, arg = _golden_min(coord_obj, lo, hi, _GOLDEN_ITERS)
            if val < best_val:
                best_val = float(val)
                u_best[j] = arg
    return -best_val


def _golden_min(evaluate, lo, hi, iters):
    """Golden-section minimum of ``evaluate`` on [lo, hi]; returns (value, argmin).

    One new evaluation per iteration.
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = evaluate(c)
    fd = evaluate(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = evaluate(d)
    return (fc, c) if fc <= fd else (fd, d)


def laplace_gap(
    model: DynamicsModel,
    cost: CostModel,
    x,
    p,
    alphas,
    grid: QuadratureGrid,
):
    """Sweep (alpha, H_alpha, H_tilde) for a decreasing list of temperatures.

    H_tilde = H_alpha - alpha log|U| converges monotonically up to H_0 as the
    temperature drops.
    """
    alphas = list(alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("all alphas must be > 0")
    if any(a1 <= a2 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be sorted decreasing")
    log_vol = grid.box.log_volume
    x, p = _as_pair(x, p)
    l_vals = _exponent(p, *_node_fields(model, cost, x, grid.nodes))
    out = []
    for a in alphas:
        h = float(boltzmann_moments(l_vals, grid.weights, a).value)
        out.append((a, h, h - a * log_vol))
    return out


def check_grid_convergence(ctx: HamiltonianContext, x, p) -> float:
    """Relative gap in H between ``ctx``'s grid and one with twice the nodes per
    axis; warns above GRID_GAP_WARN."""
    fine = replace(ctx, grid=build_grid(ctx.grid.box, 2 * ctx.grid.nodes_per_dim))
    hc, hf = ctx.value_batch(x, p), fine.value_batch(x, p)
    gap = float(np.max(np.abs(hc - hf) / (1.0 + np.abs(hf))))
    if gap > GRID_GAP_WARN:
        warnings.warn(
            f"quadrature self-check gap {gap:.3e} exceeds {GRID_GAP_WARN:.0e}; "
            "increase nodes_per_dim",
            RuntimeWarning,
            stacklevel=2,
        )
    return gap


@dataclass(frozen=True)
class HamiltonianContext:
    """Bundle of model, cost, temperature, and grid shared by the HJB solvers."""

    model: DynamicsModel
    cost: CostModel
    alpha: float
    grid: QuadratureGrid

    def __post_init__(self):
        if not self.alpha > 0:  # also rejects NaN
            raise ValueError("alpha must be > 0")

    def _moments(self, x, p, order) -> BoltzmannMoments:
        x, p = _as_pair(x, p)
        f, r = _node_fields(self.model, self.cost, x, self.grid.nodes)
        return boltzmann_moments(_exponent(p, f, r), self.grid.weights, self.alpha, f, order)

    def value_batch(self, x, p) -> np.ndarray:
        """H_a over the leading batch axes of x and p."""
        return self._moments(x, p, 0).value

    def value_grad_batch(self, x, p):
        """(H, grad_p H, grad_x H) at the (B, n) rows of x and p.

        For a feature-affine field f = a(x) + b(x) phi(u) with a separable running
        cost r1(x) + r2(u), grad_x H = -(d_x[p.a] + d_x[p'b] E_g[phi] + grad r1),
        with E_g[phi] from the value pass; the x-derivatives are central
        differences of those x-only callbacks, so no node axis is involved. Any
        other model takes central differences of H itself: 2n more passes.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = np.atleast_2d(np.asarray(p, dtype=float))
        moments = self._moments(x, p, 1)
        fam, running = self.model.family, self.cost.running
        if isinstance(fam, FeatureAffine) and isinstance(running, _SEPARABLE):
            phi = fam.features(self.grid.nodes)  # (N, k)
            mean_phi = moments.mass @ phi / moments.total[:, None]
            grad_x = -_central_diff(
                lambda xs: _state_part_of_mean_exponent(fam, running, xs, p, mean_phi), x
            )
        else:
            n = x.shape[1]
            grad_x = _central_diff(
                lambda xs: self.value_batch(
                    xs.reshape(-1, n), np.broadcast_to(p, xs.shape).reshape(-1, n)
                ).reshape(xs.shape[:-1]),
                x,
            )
        return moments.value, moments.gradient, grad_x

    def report(self, x, p, order=1) -> HamiltonianReport:
        """H at one (x, p); ``order`` 1 adds grad_p H and 2 also the p-Hessian, as in
        :func:`boltzmann_moments`."""
        if self.alpha < SMALL_ALPHA_WARN:
            warnings.warn(
                "alpha below 1e-3: the integrand is sharply peaked and the fixed "
                "grid may under-resolve it; consider more nodes",
                RuntimeWarning,
                stacklevel=2,
            )
        moments = self._moments(x, p, order)
        return HamiltonianReport(float(moments.value), moments.gradient, moments.hessian)

    def density(self, x, p) -> np.ndarray:
        """Boltzmann minimizer density g*(u) = exp(-L/a)/Z at the grid nodes; the
        node values integrate to one against the grid weights."""
        moments = self._moments(x, p, 0)
        return moments.mass / self.grid.weights / moments.total


_SEPARABLE = (QuadraticRunning, SeparableRunning)


def _state_part_of_mean_exponent(fam: FeatureAffine, running, x, p, mean_phi):
    """p.(a(x) + b(x) E_g[phi]) + r1(x): E_g[L] less its x-free part, with the
    Boltzmann mean E_g[phi] held fixed. ``p`` and ``mean_phi`` broadcast over x."""
    mean_field = fam.drift(x) + np.einsum("...ik,...k->...i", fam.input_map(x), mean_phi)
    return np.einsum("...i,...i->...", p, mean_field) + running.state_part(x)


def _central_diff(fn, x):
    """Central differences of ``fn`` in each coordinate of the (B, n) rows ``x``,
    step FD_STEP (1 + |x|) per row, from one call of ``fn`` on the 2n shifted
    copies of ``x`` stacked as (2n, B, n); ``fn`` returns (2n, B) values."""
    b, n = x.shape
    step = FD_STEP * (1.0 + np.linalg.norm(x, axis=1))  # (B,)
    shifts = np.zeros((2 * n, b, n))
    for i in range(n):
        shifts[2 * i, :, i] = step
        shifts[2 * i + 1, :, i] = -step
    v_fd = fn(x[None, :, :] + shifts)
    return (v_fd[0::2] - v_fd[1::2]).T / (2.0 * step[:, None])
