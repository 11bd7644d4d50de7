"""Systems, costs, policies, and relaxed-control trajectory simulation.

Vector fields and cost callbacks follow numpy broadcasting: states have shape
``(..., n)``, controls ``(..., m)``, and callbacks must accept broadcastable
leading dimensions. Everything here is pure given its inputs; trajectory
simulation draws controls from a counter-based PRNG so runs replay bit-for-bit
from a seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergedTrajectoryError,
    MaxEntError,
    NotPositiveDefiniteError,
    UnsupportedFamilyError,
)

DIVERGENCE_NORM = 1e8
MAX_COST_HORIZON = 1e4  # cap on the truncation horizon of an infinite-horizon cost
_TABLE_BLOCK_ROWS = 1024


def diverged(x) -> bool:
    """A 1-D state is non-finite or beyond DIVERGENCE_NORM (NaN and inf fail ``<=``)."""
    return not math.sqrt(x @ x) <= DIVERGENCE_NORM


def diverged_rows(rows) -> np.ndarray:
    """``diverged`` of each row of a 2-D array."""
    return ~(np.sqrt(np.einsum("ij,ij->i", rows, rows)) <= DIVERGENCE_NORM)


def write_table(path, header_line, table, sep=", "):
    """``header_line``, then one ``sep``-joined ``%.17g`` line per row, formatted
    a block of rows at a time so that memory stays flat on long tables."""
    table = np.asarray(table, dtype=float)
    row = sep.join(["{:.17g}"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header_line + "\n")
        for start in range(0, len(table), _TABLE_BLOCK_ROWS):
            block = table[start : start + _TABLE_BLOCK_ROWS]
            fh.write((row * len(block)).format(*block.ravel().tolist()))


def write_json(path, payload):
    """``payload`` as strict ASCII JSON, indented by 2 with sorted keys; a NaN or
    infinity raises MaxEntError before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MaxEntError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def euler_rollout(field, x0, h, steps, control):
    """Explicit Euler x_{k+1} = x_k + h field(x_k, u_k) with u_k = control(k, x_k).

    Stops at the first state that fails ``diverged``. Returns the lists of states
    x_0..x_j and of the controls u_0..u_{j-1}; j < steps means x_{j+1} diverged.
    """
    x, states, controls = x0, [x0], []
    for k in range(steps):
        u = control(k, x)
        x = x + h * field(x, u)
        if diverged(x):
            break
        states.append(x)
        controls.append(u)
    return states, controls


def _as_vector(x, dim, name):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise DimensionMismatchError(
            f"{name} has trailing dimension {x.shape[-1]}, expected {dim}"
        )
    return x


@dataclass(frozen=True)
class ControlBox:
    """Axis-aligned compact control set, one (lower, upper) pair per channel."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatchError("control box bounds must be 1-D and equal length")
        if not np.all(lower < upper):
            raise ValueError("control box requires lower[i] < upper[i] for all i")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def log_volume(self) -> float:
        return float(np.sum(np.log(self.upper - self.lower)))

    def contains(self, u, atol=1e-12) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(
            np.all(u >= self.lower - atol) and np.all(u <= self.upper + atol)
        )


def _identity_features(u):
    """phi(u) = u, the features of the linear and control-affine families."""
    return u


@dataclass(frozen=True)
class FeatureAffine:
    """dx/dt = a(x) + b(x) phi(u) with k control features phi(u) of shape (..., k).

    ``drift(x)`` returns a(x) of shape (..., n); ``input_map(x)`` returns b(x) of
    shape (..., n, k), or one n x k array when b does not depend on x.
    """

    drift: Callable[[np.ndarray], np.ndarray]
    input_map: Callable[[np.ndarray], np.ndarray]
    features: Callable[[np.ndarray], np.ndarray]


def Linear(a, b) -> FeatureAffine:
    """dx/dt = A x + B u."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("A must be square")
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        raise DimensionMismatchError("B must be n x m")
    return FeatureAffine(lambda x: x @ a.T, lambda x: b, _identity_features)


def ControlAffine(drift, input_map) -> FeatureAffine:
    """dx/dt = f1(x) + f2(x) u with f2(x) of shape (..., n, m)."""
    return FeatureAffine(drift, input_map, _identity_features)


@dataclass(frozen=True)
class Generic:
    """dx/dt = f(x, u) for an arbitrary broadcastable callback."""

    field: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DynamicsModel:
    """A controlled vector field with a structural family tag."""

    state_dim: int
    control_dim: int
    family: FeatureAffine | Generic

    def eval(self, x, u) -> np.ndarray:
        x = _as_vector(x, self.state_dim, "x")
        u = _as_vector(u, self.control_dim, "u")
        fam = self.family
        if isinstance(fam, FeatureAffine):
            bphi = np.einsum("...ik,...k->...i", fam.input_map(x), fam.features(u))
            return fam.drift(x) + bphi
        return np.asarray(fam.field(x, u), dtype=float)


@dataclass(frozen=True)
class QuadraticRunning:
    """r(x, u) = 1/2 x'Qx + 1/2 u'Ru with R symmetric positive definite."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        _require_spd(r, "R")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def eval(self, x, u):
        return self.state_part(x) + self.control_part(u)

    def state_part(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, self.q, x)

    def control_part(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", u, self.r, u)


@dataclass(frozen=True)
class SeparableRunning:
    """r(x, u) = r1(x) + r2(u) from a state callback and a control callback."""

    state_part: Callable[[np.ndarray], np.ndarray]
    control_part: Callable[[np.ndarray], np.ndarray]

    def eval(self, x, u):
        return np.asarray(self.state_part(x) + self.control_part(u), dtype=float)


@dataclass(frozen=True)
class GenericRunning:
    """r(x, u) from an arbitrary broadcastable callback."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def eval(self, x, u):
        return np.asarray(self.fn(x, u), dtype=float)


@dataclass(frozen=True)
class QuadraticTerminal:
    """q(x) = 1/2 x'Mx with M positive definite."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        _require_spd(m, "M")
        object.__setattr__(self, "m", m)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, self.m, x)


@dataclass(frozen=True)
class L1Terminal:
    """q(x) = ||x||_1."""

    def eval(self, x):
        return np.sum(np.abs(np.asarray(x, dtype=float)), axis=-1)


@dataclass(frozen=True)
class GenericTerminal:
    """q(x) from a callback; a search box enables the approximate transform."""

    fn: Callable[[np.ndarray], np.ndarray]
    search_box: "ControlBox | None" = None

    def eval(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True)
class CostModel:
    """Running/terminal cost with temperature, discount, and horizon."""

    running: QuadraticRunning | SeparableRunning | GenericRunning
    terminal: QuadraticTerminal | L1Terminal | GenericTerminal | None
    alpha: float
    lam: float = 0.0
    horizon: float = math.inf

    def __post_init__(self):
        if not self.alpha > 0.0:  # also rejects NaN
            raise ValueError("temperature alpha must be > 0")
        if not self.lam >= 0.0:
            raise ValueError("discount lambda must be >= 0")
        if not (self.horizon > 0.0):
            raise ValueError("horizon must be > 0 (math.inf for infinite)")


def _require_symmetric(m, name):
    if m.ndim != 2 or m.shape[0] != m.shape[1] or (
        np.linalg.norm(m - m.T) > 1e-10 * max(1.0, np.linalg.norm(m))
    ):
        raise NotPositiveDefiniteError(f"{name} is not symmetric")


def _require_spd(m, name):
    """The Cholesky factor of ``m``, once ``m`` is symmetric; Cholesky reads one
    triangle only, so the symmetry test comes first."""
    _require_symmetric(m, name)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


@dataclass(frozen=True)
class GaussianPolicy:
    """Feedback law u ~ N(-K x, Sigma)."""

    gain: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if cov.shape[0] != cov.shape[1] or cov.shape[0] != gain.shape[0]:
            raise DimensionMismatchError("covariance must be m x m matching the gain")
        chol = _require_spd(cov, "Sigma")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def control_dim(self) -> int:
        return self.gain.shape[0]

    @property
    def state_dim(self) -> int:
        return self.gain.shape[1]

    def mean(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return -(x @ self.gain.T)

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal(self.control_dim)
        return self.mean(x) + self._chol @ z


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator so streams replay exactly from a seed."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class Trajectory:
    """Times, states, and the sampled control realizations of one run."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        if not (len(times) == len(states) == len(controls)):
            raise DimensionMismatchError("times/states/controls lengths differ")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, path):
        """CSV with header ``t, x_0.., u_0..``; 17 significant digits."""
        n, m = self.states.shape[1], self.controls.shape[1]
        header = ["t"] + [f"x_{i}" for i in range(n)] + [f"u_{j}" for j in range(m)]
        table = np.column_stack([self.times, self.states, self.controls])
        write_table(path, ", ".join(header), table)


def relaxed_drift(model: DynamicsModel, x, policy: GaussianPolicy) -> np.ndarray:
    """Mean drift under the relaxed Gaussian control.

    Linear and control-affine fields average in closed form through the policy
    mean -Kx; the covariance never enters. Generic fields and nonlinear control
    features have no closed-form mean drift and are rejected.
    """
    fam = model.family
    if not (isinstance(fam, FeatureAffine) and fam.features is _identity_features):
        raise UnsupportedFamilyError(
            "relaxed drift has a closed form only for a field affine in the control"
        )
    return model.eval(x, policy.mean(x))


def simulate_sampled(
    model: DynamicsModel,
    policy: GaussianPolicy,
    x0,
    dt: float,
    steps: int,
    seed: int,
) -> Trajectory:
    """Sampled-control rollout x_{k+1} = x_k + dt^2 f(x_k, u_k), u_k ~ N(-Kx_k, Sigma).

    The inner step is dt^2 and a fresh control is drawn at every substep, so
    ``steps`` substeps span ``steps * dt**2`` seconds. Controls are recorded at
    every time point including the last (where the draw is not applied).
    """
    if not 0.0 < dt < math.inf:  # also rejects NaN
        raise ValueError("dt must be finite and > 0")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _as_vector(np.atleast_1d(x0), model.state_dim, "x0").astype(float)
    h = dt * dt
    rng = make_rng(seed)
    states, controls = euler_rollout(model.eval, x, h, steps, lambda k, x: policy.sample(x, rng))
    if len(states) <= steps:
        raise DivergedTrajectoryError(len(states))
    controls.append(policy.sample(states[-1], rng))
    return Trajectory(times=np.arange(steps + 1) * h, states=states, controls=controls)


def gaussian_entropy(sigma) -> float:
    """Differential entropy (1/2) log det(2 pi e Sigma) of N(c, Sigma)."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    m = sigma.shape[0]
    chol = _require_spd(sigma, "Sigma")
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return 0.5 * (m * math.log(2.0 * math.pi * math.e) + log_det)


def kl_from_uniform(entropy_h: float, box: ControlBox) -> float:
    """KL divergence from the uniform law on the box: log|U| - H."""
    return box.log_volume - entropy_h


@dataclass(frozen=True)
class CostEstimate:
    """Sampled cost value with the truncation tail bound (0 when finite-horizon)."""

    value: float
    tail_bound: float
    horizon: float

    def __float__(self) -> float:
        return self.value


def _expected_running_cost(cost: CostModel, policy: GaussianPolicy, states, grid=None):
    """E_{u~N(-Kx,Sigma)}[r(x,u)] at each state row."""
    running = cost.running
    if isinstance(running, QuadraticRunning):
        # Closed form: r1(x) + 1/2 tr(R Sigma) + 1/2 (Kx)'R(Kx).
        kx = states @ policy.gain.T
        quad = 0.5 * np.einsum("...i,ij,...j->...", kx, running.r, kx)
        trace = 0.5 * float(np.trace(running.r @ policy.covariance))
        return running.state_part(states) + quad + trace
    if grid is None:
        raise UnsupportedFamilyError(
            "generic running cost with a Gaussian policy needs a quadrature grid"
        )
    # Quadrature fallback: E[r] under the box-truncated Gaussian is the kernel's
    # -E[f] with L = 1/2 d'Sigma^-1 d, alpha = 1 and f = r. The import is local
    # because soft_hamiltonian imports this module.
    from .soft_hamiltonian import boltzmann_moments

    diff = grid.nodes[None, :, :] - policy.mean(states)[:, None, :]
    l_vals = 0.5 * np.einsum("tni,ij,tnj->tn", diff, np.linalg.inv(policy.covariance), diff)
    rvals = running.eval(states[:, None, :], grid.nodes[None, :, :])
    return -boltzmann_moments(l_vals, grid.weights, 1.0, rvals[..., None], order=1).gradient[:, 0]


def evaluate_cost(
    model: DynamicsModel,
    cost: CostModel,
    policy: GaussianPolicy,
    x0,
    seed: int,
    dt: float = 0.05,
    grid=None,
    tol: float = 1e-6,
) -> CostEstimate:
    """Sampled-trajectory estimate of the entropy-regularized cost functional.

    Finite horizon: trapezoid of e^{-lam s}(E[r] - alpha H) over [0, T] plus the
    terminal cost. Infinite horizon: requires lam > 0; truncates at
    T = (1/lam) log(M_r / (lam tol)), at most MAX_COST_HORIZON, with M_r
    bounding the integrand magnitude, and reports the tail bound
    M_r e^{-lam T}/lam alongside the value.
    """
    entropy = gaussian_entropy(policy.covariance)
    finite = math.isfinite(cost.horizon)
    if not finite and cost.lam <= 0.0:
        raise ValueError("infinite-horizon cost needs a discount lam > 0")

    h = dt * dt
    if finite:
        horizon = cost.horizon
        tail = 0.0
    else:
        x0v = np.atleast_1d(np.asarray(x0, dtype=float))
        probe = float(
            _expected_running_cost(cost, policy, x0v[None, :], grid)[0]
        ) - cost.alpha * entropy
        m_r = max(abs(probe), abs(cost.alpha * entropy), 1.0)
        horizon = min((1.0 / cost.lam) * math.log(m_r / (cost.lam * tol)), MAX_COST_HORIZON)
    steps = max(1, int(round(horizon / h)))

    traj = simulate_sampled(model, policy, x0, dt, steps, seed)
    integrand = _expected_running_cost(cost, policy, traj.states, grid)
    integrand = integrand - cost.alpha * entropy
    if not finite:
        m_r = max(float(np.max(np.abs(integrand))), 1e-300)
        tail = m_r * math.exp(-cost.lam * traj.times[-1]) / cost.lam
    weighted = np.exp(-cost.lam * traj.times) * integrand
    value = float(np.trapezoid(weighted, traj.times))
    if finite and cost.terminal is not None:
        value += float(cost.terminal.eval(traj.states[-1]))
    return CostEstimate(value=value, tail_bound=tail, horizon=float(traj.times[-1]))
