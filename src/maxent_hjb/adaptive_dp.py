"""Data-driven learning of the max-entropy LQ optimal pair without (A, B).

Both learners integrate the identity satisfied by e^{-lam t} x'P_k x along the
closed loop over windows [t_i, t_i + dt] and solve the stacked rows for
(svec(P_k), vec(K_{k+1})) by least squares. Both run through one
policy-iteration loop that asks for the rows belonging to the current gain:
the on-policy variant re-collects windows under the freshest gain every
iteration; the off-policy variant collects once under the initial gain and
reuses the same data matrices, rebuilding only the gain-dependent coefficient
blocks and right-hand side. The collectors share one window quadrature and
the solvers one rank-checked least-squares core.

Exploration comes from the max-entropy policy itself: controls are sampled from
N(-K x, alpha R^-1) at every integrator substep, and the sampled realization
u(s) + K x(s) stands in for the exploration-measure mean in the regressors.
The learners read alpha and the discount lam from the problem, through ``HiddenLqSystem``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import (
    QuadraticRunning, Trajectory, diverged_rows, euler_rollout, make_rng, write_json
)
from .errors import (
    DimensionMismatchError, DivergedTrajectoryError, RankDeficientError, RankStallError
)
from .lq import (
    LqProblem, numerical_rank, quad_regressor, reduce_kron_columns, spectral_abscissa, svec_size,
    svec_to_mat,
)

REGRESSOR_RANK_TOL = 1e-12  # relative singular-value cut for the regressor rank
WINDOW_BUDGET_FACTOR = 10  # windows allowed per unknown before a rank stall
ROLLOUT_BLOCK = 256  # noise-free Euler steps per increment-table product


@dataclass(frozen=True)
class LearnerConfig:
    """Window length, integration substeps, and stopping rules."""

    delta_t: float = 0.01
    n_sub: int = 10
    eps_stop: float = 2e-2
    max_iters: int = 25
    seed: int = 0
    extra_windows: int = 0
    eval_horizon: float = 20.0
    settle_band: float = 1.0

    def __post_init__(self):
        # each rule holds as written, so a NaN fails every one
        for holds, rule in (
            (0 < self.delta_t < math.inf, "delta_t finite and > 0"),
            (self.n_sub >= 2, "n_sub >= 2"),
            (self.eps_stop > 0, "eps_stop > 0"),
            (self.max_iters >= 1, "max_iters >= 1"),
            (self.extra_windows >= 0, "extra_windows >= 0"),
            (self.settle_band > 0, "settle_band > 0"),
            (0 <= self.eval_horizon < math.inf, "eval_horizon finite and >= 0"),
        ):
            if not holds:
                raise ValueError(f"need {rule}")

    @property
    def substep(self) -> float:
        return self.delta_t / self.n_sub


class _Rows:
    """What both rows types share: the rank of their regressors."""

    @cached_property
    def rank(self) -> int:
        """Numerical rank of ``regressors``, computed once per rows object."""
        return numerical_rank(self.regressors, REGRESSOR_RANK_TOL)


@dataclass
class OnPolicyRows(_Rows):
    """Stacked regression rows for one on-policy iteration."""

    theta: np.ndarray
    xi: np.ndarray
    n: int
    m: int

    @property
    def windows_used(self) -> int:
        return self.theta.shape[0]

    @property
    def regressors(self) -> np.ndarray:
        """The matrix whose rank decides whether (P, K) is identifiable."""
        return self.theta


@dataclass
class OffPolicyRows(_Rows):
    """Endpoint and integral data matrices shared by all off-policy iterations."""

    delta: np.ndarray
    i1: np.ndarray
    i2: np.ndarray
    n: int
    m: int

    @property
    def windows_used(self) -> int:
        return self.delta.shape[0]

    @property
    def regressors(self) -> np.ndarray:
        """The matrix whose rank decides whether (P, K) is identifiable."""
        return np.hstack([reduce_kron_columns(self.i1, self.n), self.i2])


@dataclass
class LearnerReport:
    """Learned iterates plus the sample-efficiency and closed-loop metrics."""

    iterates: list
    samples_per_iter: list
    total_samples: int
    learning_time: float
    settling_time: float
    total_running_cost: float
    converged: bool
    rank_counts: list
    p_final: np.ndarray = field(repr=False)
    k_final: np.ndarray = field(repr=False)
    trajectory: Trajectory = field(repr=False)

    def to_json(self, path):
        payload = {
            "converged": self.converged,
            "iterations": len(self.iterates),
            "samples_per_iter": list(self.samples_per_iter),
            "total_samples": self.total_samples,
            "learning_time": self.learning_time,
            # strict JSON has no Infinity; an unsettled run serializes as null
            "settling_time": self.settling_time if math.isfinite(self.settling_time) else None,
            "total_running_cost": self.total_running_cost,
            "p_norms": [float(np.linalg.norm(p)) for p, _ in self.iterates],
            "k_norms": [float(np.linalg.norm(k)) for _, k in self.iterates],
            "p_final": self.p_final.tolist(),
            "k_final": self.k_final.tolist(),
        }
        write_json(path, payload)


class HiddenLqSystem:
    """Simulation harness for an LQ problem that holds its (A, B) privately.

    The learners only see the dimensions, the cost matrices Q and R, the
    temperature alpha (the exploration covariance is alpha R^-1), the discount
    lam, and the simulated samples; the hidden truth is exposed solely through
    harness-side checks used by tests (closed-loop abscissa).
    """

    def __init__(self, prob: LqProblem):
        self._a, self._b = prob.a, prob.b
        self.q, self.r = prob.q, prob.r
        self.lam, self.alpha = prob.lam, prob.alpha

    @property
    def n(self) -> int:
        return self._a.shape[0]

    @property
    def m(self) -> int:
        return self._b.shape[1]

    def drift(self, x, u):
        return self._a @ x + self._b @ u

    def euler_increment(self, k_gain, h):
        """D = h (A - B K): one noise-free Euler substep maps x to x + D x."""
        return h * (self._a - self._b @ k_gain)

    # harness-side diagnostics (not available to the learner logic)

    def closed_loop_abscissa(self, k_gain) -> float:
        return spectral_abscissa(self._a - 0.5 * self.lam * np.eye(self.n) - self._b @ k_gain)


class _Stream:
    """Continuous simulation record from x0 = (1, ..., 1): one substep per row,
    kept as the blocks of rows that the stepper and the rollout append."""

    def __init__(self, n):
        self.times = [np.zeros(1)]
        self.states = [np.ones((1, n))]
        self.controls = []
        self.rows = 1

    @property
    def last(self):
        """Time and state of the newest row."""
        return self.times[-1][-1], self.states[-1][-1]

    def extend(self, times, states, controls):
        """Append a block of rows; controls[j] is held over the step that ends at row j."""
        if len(times):
            self.times.append(np.asarray(times))
            self.states.append(np.asarray(states))
            self.controls.append(np.asarray(controls))
            self.rows += len(times)

    def as_trajectory(self) -> Trajectory:
        # a learner collects windows before it rolls out, so controls is never empty
        controls = np.concatenate(self.controls)
        return Trajectory(
            times=np.concatenate(self.times),
            states=np.concatenate(self.states),
            controls=np.concatenate([controls, controls[-1:]]),
        )


def _euler_steps(system, stream, k_gain, h, noise, count):
    """Extend the stream by ``count`` explicit Euler substeps under u = -Kx + noise(t).

    ``noise`` is taken at the pre-step time. Returns the window: its times and
    states from the pre-step row on, and its controls with the last held one
    repeated. The stream keeps views of these arrays.
    """
    t, x = stream.last
    times = np.add.accumulate(np.r_[t, np.full(count, h)])  # in sequence, as t += h adds
    states, controls = euler_rollout(
        system.drift, x, h, count, lambda k, x: -(k_gain @ x) + noise(times[k])
    )
    times, states, controls = times[: len(states)], np.asarray(states), np.asarray(controls)
    stream.extend(times[1:], states[1:], controls)
    if len(states) <= count:
        raise DivergedTrajectoryError(stream.rows)
    return times, states, np.concatenate([controls, controls[-1:]])


def _increment_table(d, size):
    """E_i = (I + D)^i - I for i = 1..size, built by doubling from E_1 = D.

    E_{j+k} = E_j + E_k + E_j E_k fills E_{k+1..2k} from E_1..E_k in one batched
    product, so each E_i carries about log2(i) roundings instead of i. The
    increment form also keeps the rounding of I + D out of the table. The
    tests hold x + E_i x within 1e-12 relative of i explicit Euler steps.
    """
    table = np.empty((size,) + d.shape)
    table[0] = d
    filled = 1
    while filled < size:
        take = min(filled, size - filled)
        head, last = table[:take], table[filled - 1]
        table[filled : filled + take] = head + last + head @ last
        filled += take
    return table


def _rollout(system, stream, k_gain, h, t_end):
    """Extend the stream by noise-free Euler substeps under u = -Kx until t reaches t_end.

    The closed loop is linear, so each block of ROLLOUT_BLOCK steps is one
    product with the increment table. The times are accumulated in sequence,
    as the per-step loop adds them, and the divergence test runs once per
    block: the stream then holds exactly the rows before the first bad one.
    """
    steps = np.full(ROLLOUT_BLOCK + 1, h)
    t, x = stream.last
    # rows past the first diverged one are computed and dropped; they may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        table = _increment_table(system.euler_increment(k_gain, h), ROLLOUT_BLOCK)
        while t < t_end:
            steps[0] = t
            times = np.add.accumulate(steps)
            count = int(np.count_nonzero(times[:-1] < t_end))
            states = x + table[:count] @ x
            controls = -(np.concatenate([x[None], states[:-1]]) @ k_gain.T)
            bad = diverged_rows(states)
            good = int(np.argmax(bad)) if bad.any() else count
            stream.extend(times[1 : good + 1], states[:good], controls[:good])
            if good < count:
                raise DivergedTrajectoryError(stream.rows)
            t, x = stream.last


def _window_integrals(times, states, controls, lam, running, held):
    """The quadrature both collectors share, over one window's samples.

    Returns the endpoint difference of e^{-lam t} s(x), the integral of
    e^{-lam s} running(x) and the integral of e^{-lam s} kron(x, held(x, u)).
    Controls are zero-order held: controls[j] acts on [t_j, t_{j+1}), so the
    control-carrying integrand pairs the held u_j with the midpoint state of
    its interval (a trapezoid on the raw samples would pair u_{j+1} with the
    interval where u_j acted, burying the regressor under sampling noise).
    The state-only integrand uses the plain trapezoid rule.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if not (len(times) == len(states) == len(controls)) or len(times) < 2:
        raise DimensionMismatchError("window samples are misaligned")
    w = np.exp(-lam * times)
    endpoint = quad_regressor(states[-1]) * w[-1] - quad_regressor(states[0]) * w[0]
    x_mid = 0.5 * (states[:-1] + states[1:])
    w_hold = np.diff(times) * np.exp(-lam * 0.5 * (times[:-1] + times[1:]))
    v_held = held(x_mid, controls[:-1])
    kron_rows = np.einsum("ti,tj->tij", x_mid, v_held).reshape(len(w_hold), -1)
    r_vals = running(states)
    state_int = np.trapezoid(w.reshape(w.shape + (1,) * (r_vals.ndim - 1)) * r_vals, times, axis=0)
    return endpoint, state_int, np.sum(w_hold[:, None] * kron_rows, axis=0)


def collect_onpolicy_window(times, states, controls, k_gain, q_mat, r_mat, lam):
    """One (theta, xi) row from a window's samples.

    theta = [endpoint difference of e^{-lam t} s(x),
             -2 integral of e^{-lam s} kron(x, R (u + K x))]
    xi    = -integral of e^{-lam s} x'(Q + K'RK)x

    The sampled control realization u(s) + K x(s) realizes the exploration
    measure's mean.
    """
    k_gain = np.asarray(k_gain, dtype=float)
    r_mat = np.asarray(r_mat, dtype=float)
    qk = np.asarray(q_mat, dtype=float) + k_gain.T @ r_mat @ k_gain
    endpoint, cost_int, gain_int = _window_integrals(
        times, states, controls, lam,
        lambda x: np.einsum("ti,ij,tj->t", x, qk, x),
        lambda x, u: (u + x @ k_gain.T) @ r_mat.T,
    )
    return np.concatenate([endpoint, -2.0 * gain_int]), -float(cost_int)


def collect_offpolicy_window(times, states, controls, lam):
    """One (delta, i1, i2) row triple from a window's samples: the endpoint
    difference, the integral of kron(x, x) and the held integral of kron(x, u),
    all discounted by e^{-lam s}."""
    return _window_integrals(
        times, states, controls, lam,
        lambda x: np.einsum("ti,tj->tij", x, x).reshape(len(x), -1),
        lambda x, u: u,
    )


def _solve_pk(rows, coeff, rhs):
    """Rank-checked least squares coeff [svec(P); vec(K)] = rhs, split into (P, K)."""
    n_p = svec_size(rows.n)
    needed = n_p + rows.m * rows.n
    if rows.rank < needed:
        raise RankDeficientError(rows.rank, needed)
    sol, *_ = np.linalg.lstsq(coeff, rhs, rcond=None)
    p = svec_to_mat(sol[:n_p], rows.n)
    return p, sol[n_p:].reshape(rows.n, rows.m).T  # vec is column-major


def solve_onpolicy(rows: OnPolicyRows):
    """Least-squares solve of theta [svec(P); vec(K)] = xi."""
    return _solve_pk(rows, rows.theta, rows.xi)


def solve_offpolicy(rows: OffPolicyRows, k_gain, q_mat, r_mat):
    """Rebuild the gain-dependent blocks for K_k and solve for (P_k, K_{k+1})."""
    eye = np.eye(rows.n)
    gain_block = -2.0 * (rows.i1 @ np.kron(eye, k_gain.T @ r_mat) + rows.i2 @ np.kron(eye, r_mat))
    qk = q_mat + k_gain.T @ r_mat @ k_gain
    rhs = -rows.i1 @ qk.flatten(order="F")
    return _solve_pk(rows, np.hstack([rows.delta, gain_block]), rhs)


def sinusoidal_baseline(a: float, omega_bar: float, n_terms: int, seed: int, channels: int):
    """Deterministic-given-seed exploration e(t) = a sum_k sin(w_k t) per channel.

    Frequencies are drawn uniformly from (-omega_bar, omega_bar), independently
    for each control channel so multi-input systems stay fully excited.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    rng = make_rng(seed)
    omegas = rng.uniform(-omega_bar, omega_bar, size=(channels, n_terms))

    def signal(t):
        return a * np.sin(omegas * t).sum(axis=1)

    signal.omegas = omegas
    return signal


def settling_time(traj: Trajectory, band: float) -> float:
    """Earliest recorded time after which every |x_i| stays within the band."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    within = np.max(np.abs(traj.states), axis=1) <= band
    violations = np.where(~within)[0]
    if len(violations) == 0:
        return float(traj.times[0])
    last = int(violations[-1])
    if last == len(traj) - 1:
        return math.inf
    return float(traj.times[last + 1])


def _running_cost_increment(system, traj):
    vals = QuadraticRunning(system.q, system.r).eval(traj.states, traj.controls)
    return float(np.trapezoid(np.exp(-system.lam * traj.times) * vals, traj.times))


def _start_stream(system, k0, config, explore):
    """Initial gain, exploration noise and stream.

    The noise is ``explore`` when given, else one N(0, alpha R^-1) draw per call.
    """
    chol_sigma = np.linalg.cholesky(system.alpha * np.linalg.inv(system.r))
    rng = make_rng(config.seed)

    def gaussian(t):
        return chol_sigma @ rng.standard_normal(system.m)

    stream = _Stream(system.n)
    return np.asarray(k0, dtype=float).copy(), gaussian if explore is None else explore, stream


def _collect_until_rank(system, stream, k_gain, noise, config, collect, stack):
    """The window-collection loop shared by both learners.

    Simulates windows under u = -(k_gain x) + noise(t) and turns each into a tuple of
    regression rows with ``collect(times, states, controls)``. ``stack`` builds
    the rows object from the column-wise stacked tuples. Once its regressors
    reach full rank, ``extra_windows`` more are collected. Returns the rows
    and the window count at which the rank condition first held.
    """
    needed = svec_size(system.n) + system.m * system.n
    budget = WINDOW_BUDGET_FACTOR * needed
    samples = []
    rank_at = None

    def stacked():
        return stack(*map(np.asarray, zip(*samples)))

    while True:
        window = _euler_steps(system, stream, k_gain, config.substep, noise, config.n_sub)
        samples.append(collect(*window))
        windows = len(samples)
        if rank_at is None and windows >= needed:
            rows = stacked()
            if rows.rank >= needed:
                rank_at = windows
        if rank_at is not None and windows >= rank_at + config.extra_windows:
            # with no window after the rank check, the checked rows are the answer
            return (rows if windows == rank_at else stacked()), rank_at
        if windows > budget:
            raise RankStallError(f"rank condition unmet after {windows} windows (budget {budget})")


def _policy_iteration(system, stream, k_gain, config, rows_for_gain, solve):
    """The policy-iteration loop shared by both learners.

    Each iteration takes ``rows_for_gain(K_k)`` -> (rows, rank_at), where
    rank_at is the window count at which newly collected rows reached full
    rank, or None when no windows were collected for this iteration. Then
    ``solve(rows, K_k)`` gives (P_k, K_{k+1}). Stops once successive P iterates
    settle below eps_stop or after max_iters, then rolls the final gain out to
    eval_horizon under the mean control u = -Kx.
    """
    iterates = []
    samples_per_iter = []
    rank_counts = []
    converged = False
    p_prev = None
    for _ in range(config.max_iters):
        rows, rank_at = rows_for_gain(k_gain)
        p_k, k_gain = solve(rows, k_gain)
        iterates.append((p_k, k_gain))
        if rank_at is None:
            samples_per_iter.append(0)
        else:
            samples_per_iter.append(rows.windows_used)
            rank_counts.append(rank_at)
        if p_prev is not None and np.linalg.norm(p_k - p_prev) < config.eps_stop:
            converged = True
            break
        p_prev = p_k
    _rollout(system, stream, k_gain, config.substep, config.eval_horizon - 1e-12)
    traj = stream.as_trajectory()
    total_samples = int(sum(samples_per_iter))
    return LearnerReport(
        iterates=iterates,
        samples_per_iter=samples_per_iter,
        total_samples=total_samples,
        learning_time=total_samples * config.delta_t,
        settling_time=settling_time(traj, config.settle_band),
        total_running_cost=_running_cost_increment(system, traj),
        converged=converged,
        rank_counts=rank_counts,
        p_final=iterates[-1][0],
        k_final=k_gain,
        trajectory=traj,
    )


def run_onpolicy(
    system: HiddenLqSystem,
    k0: np.ndarray,
    config: LearnerConfig,
    explore=None,
) -> LearnerReport:
    """Per iteration: collect windows under N(-K_k x, alpha R^-1) until the
    regression rank condition holds, solve, update the gain; stop when
    successive P iterates settle below eps_stop.

    ``explore`` switches Gaussian exploration off in favor of a deterministic
    additive signal (the sinusoidal comparison baseline).
    """
    k_gain, noise, stream = _start_stream(system, k0, config, explore)

    def rows_for_gain(k):
        return _collect_until_rank(
            system, stream, k, noise, config,
            lambda *window: collect_onpolicy_window(*window, k, system.q, system.r, system.lam),
            lambda theta, xi: OnPolicyRows(theta=theta, xi=xi, n=system.n, m=system.m),
        )

    return _policy_iteration(
        system, stream, k_gain, config, rows_for_gain,
        lambda rows, k: solve_onpolicy(rows),
    )


def run_offpolicy(
    system: HiddenLqSystem,
    k0: np.ndarray,
    config: LearnerConfig,
    explore=None,
) -> LearnerReport:
    """Collect once under N(-K0 x, alpha R^-1) until the data matrices reach
    full rank, then iterate the off-policy solve to convergence on that data."""
    k_gain, noise, stream = _start_stream(system, k0, config, explore)
    rows, rank_at = _collect_until_rank(
        system, stream, k_gain, noise, config,
        lambda *window: collect_offpolicy_window(*window, system.lam),
        lambda delta, i1, i2: OffPolicyRows(delta=delta, i1=i1, i2=i2, n=system.n, m=system.m),
    )
    fresh = [(rows, rank_at)]  # the first iteration reports the collection
    return _policy_iteration(
        system, stream, k_gain, config,
        lambda k: fresh.pop() if fresh else (rows, None),
        lambda rows, k: solve_offpolicy(rows, k, system.q, system.r),
    )
