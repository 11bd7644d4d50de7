"""Closed-form maximum-entropy solutions for control-affine and LQ problems.

The discounted algebraic Riccati equation

    lam P + P B R^-1 B' P - Q - P A - A' P = 0

is solved by Kleinman policy iteration: a Lyapunov solve for the current gain
followed by the gain update K = R^-1 B' P. Lyapunov equations are solved as
dense linear systems in svec (symmetric-vector) coordinates, which keeps the
iterate structurally symmetric and matches the n(n+1)/2 unknown count used by
the data-driven learners.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _require_spd, _require_symmetric, write_table
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotHurwitzError,
    NotPositiveDefiniteError,
)

RANK_TOL = 1e-8
KLEINMAN_MAX_ITERS = 500


# ---------------------------------------------------------------------------
# svec utilities (upper triangle, row-major, unscaled entries; the quadratic
# regressor carries the factor 2 on off-diagonal terms)

def svec_size(n: int) -> int:
    return n * (n + 1) // 2


@functools.cache
def _triu(n: int):
    """Read-only (rows, cols) of the upper triangle in svec order, one pair per n."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def svec(mat: np.ndarray) -> np.ndarray:
    return mat[_triu(mat.shape[0])]


def svec_to_mat(v: np.ndarray, n: int) -> np.ndarray:
    rows, cols = _triu(n)
    out = np.zeros((n, n))
    out[rows, cols] = v
    out[cols, rows] = v
    return out


def quad_regressor(x: np.ndarray) -> np.ndarray:
    """s(x) with s(x) . svec(P) = x'Px: x_i^2 diagonal, 2 x_i x_j off-diagonal."""
    x = np.asarray(x, dtype=float)
    rows, cols = _triu(x.shape[-1])
    return x[..., rows] * x[..., cols] * np.where(rows == cols, 1.0, 2.0)


def reduce_kron_columns(mat: np.ndarray, n: int) -> np.ndarray:
    """Merge the (i,j)/(j,i) columns of an (l, n^2) Kronecker block to svec form."""
    rows, cols = _triu(n)
    out = mat[:, rows * n + cols]
    off = rows != cols
    out[:, off] += mat[:, cols[off] * n + rows[off]]
    return out


# ---------------------------------------------------------------------------

def spectral_abscissa(mat: np.ndarray) -> float:
    return float(np.max(np.real(np.linalg.eigvals(mat))))


def numerical_rank(mat: np.ndarray, rel_tol: float = RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    sigma = np.linalg.svd(mat, compute_uv=False)
    return 0 if sigma[0] == 0 else int(np.sum(sigma > rel_tol * sigma[0]))


def _check_rank(mat: np.ndarray, expected: int, label: str):
    rank = numerical_rank(mat)
    if rank < expected:
        warnings.warn(
            f"{label} matrix has numerical rank {rank} < {expected}; the "
            "standing assumptions may fail for this problem",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class LqProblem:
    """Discounted max-entropy LQ problem data."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    lam: float
    alpha: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        n, m = a.shape[0], b.shape[-1]
        if a.shape != (n, n) or b.shape != (n, m) or q.shape != (n, n) or r.shape != (m, m):
            raise DimensionMismatchError("inconsistent LQ matrix shapes")
        if not self.lam >= 0 or not self.alpha > 0:  # also rejects NaN
            raise ValueError("need lam >= 0 and alpha > 0")
        _require_spd(r, "R")
        _require_symmetric(q, "Q")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        a_shift = a - 0.5 * self.lam * np.eye(n)
        ctrb = np.hstack([np.linalg.matrix_power(a_shift, k) @ b for k in range(n)])
        _check_rank(ctrb, n, "controllability")
        q_half = _psd_sqrt(q)
        obsv = np.vstack([q_half @ np.linalg.matrix_power(a_shift, k) for k in range(n)])
        _check_rank(obsv, n, "observability")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


def _psd_sqrt(q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(q)
    if np.min(vals) < -1e-10 * max(1.0, np.max(np.abs(vals))):
        raise NotPositiveDefiniteError("Q must be positive semidefinite")
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged (P, K) with the Riccati residual actually achieved."""

    p: np.ndarray
    k: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        _require_spd(np.asarray(self.p, dtype=float), "P")


@dataclass(frozen=True)
class MaxEntLqPolicy:
    """Gaussian optimal policy N(-Kx, alpha R^-1) and its value function data."""

    gain: np.ndarray
    covariance: np.ndarray
    value_quadratic: np.ndarray
    value_constant: float


def solve_lyapunov(a_cl: np.ndarray, lam: float, m_rhs: np.ndarray) -> np.ndarray:
    """Unique symmetric P with A_cl'P + P A_cl - lam P + M = 0.

    Requires A_cl - (lam/2) I Hurwitz; solved densely in svec coordinates.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    m_rhs = np.asarray(m_rhs, dtype=float)
    n = a_cl.shape[0]
    shifted = a_cl - 0.5 * lam * np.eye(n)
    abscissa = spectral_abscissa(shifted)
    if abscissa >= 0:
        raise NotHurwitzError(
            f"A_cl - (lam/2)I has spectral abscissa {abscissa:.3e} >= 0"
        )
    rows, cols = _triu(n)
    basis = np.zeros((rows.size, n, n))  # one symmetric unit matrix per svec entry
    basis[np.arange(rows.size), rows, cols] = 1.0
    basis[np.arange(rows.size), cols, rows] = 1.0
    images = a_cl.T @ basis + basis @ a_cl - lam * basis
    op = images[:, rows, cols].T
    try:
        sol = np.linalg.solve(op, -svec(m_rhs))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError("singular Lyapunov system") from exc
    p = svec_to_mat(sol, n)
    residual = np.linalg.norm(a_cl.T @ p + p @ a_cl - lam * p + m_rhs)
    if residual > 1e-10 * max(1.0, np.linalg.norm(m_rhs)):
        raise NoConvergenceError(f"Lyapunov residual {residual:.3e} too large")
    return p


def are_residual(prob: LqProblem, p: np.ndarray) -> float:
    """Frobenius residual of lam P + P B R^-1 B' P - Q - PA - A'P."""
    br = prob.b @ np.linalg.solve(prob.r, prob.b.T)
    res = prob.lam * p + p @ br @ p - prob.q - p @ prob.a - prob.a.T @ p
    return float(np.linalg.norm(res))


def kleinman_iterate(
    prob: LqProblem,
    k0: np.ndarray | None = None,
    tol: float = 1e-12,
    history: list | None = None,
) -> RiccatiSolution:
    """Policy iteration for the discounted ARE from a stabilizing initial gain.

    ``history``, when given, receives every (P_k, K_{k+1}) pair in order.
    """
    if not tol > 0.0:  # also rejects NaN
        raise ValueError("tol must be > 0")
    n, m = prob.n, prob.m
    k = np.zeros((m, n)) if k0 is None else np.asarray(k0, dtype=float)
    shifted_abscissa = spectral_abscissa(prob.a - 0.5 * prob.lam * np.eye(n) - prob.b @ k)
    if shifted_abscissa >= 0:
        raise NotHurwitzError("initial gain K0 is not stabilizing")
    p_prev = None
    trace = []
    for it in range(1, KLEINMAN_MAX_ITERS + 1):
        a_cl = prob.a - prob.b @ k
        p = solve_lyapunov(a_cl, prob.lam, prob.q + k.T @ prob.r @ k)
        k = np.linalg.solve(prob.r, prob.b.T @ p)
        if history is not None:
            history.append((p, k))
        if p_prev is not None:
            delta = float(np.linalg.norm(p - p_prev))
            trace.append(delta)
            if delta < tol:
                return RiccatiSolution(
                    p=p, k=k, residual=are_residual(prob, p), iterations=it
                )
        p_prev = p
    raise NoConvergenceError(
        f"Kleinman iteration did not converge in {KLEINMAN_MAX_ITERS} steps", trace=trace
    )


def maxent_policy(prob: LqProblem, riccati: RiccatiSolution) -> MaxEntLqPolicy:
    """Optimal Gaussian policy and value data for the max-entropy LQ problem.

    The value function is V(x) = (1/2) x'Px + c with
    c = -(alpha / 2 lam) log((2 pi alpha)^m / det R), which needs lam > 0.
    """
    if prob.lam <= 0:
        raise ValueError(
            "the infinite-horizon value constant diverges at lam = 0; "
            "use finite-horizon cost evaluation instead"
        )
    m = prob.m
    _, logdet_r = np.linalg.slogdet(prob.r)
    log_ratio = m * math.log(2.0 * math.pi * prob.alpha) - logdet_r
    c = -(prob.alpha / (2.0 * prob.lam)) * log_ratio
    return MaxEntLqPolicy(
        gain=riccati.k,
        covariance=prob.alpha * np.linalg.inv(prob.r),
        value_quadratic=riccati.p,
        value_constant=float(c),
    )


def quantitative_gaps(prob: LqProblem) -> dict:
    """Closed-form exploration prices of the max-entropy relaxation.

    w2_sq: squared 2-Wasserstein distance between the Gaussian optimum and the
    Dirac optimum, alpha tr(R^-1). entropy_per_time: the stationary policy
    entropy. pure_cost_overhead: the increase m alpha / (2 lam) of the pure
    running cost over the unregularized optimum.
    """
    m = prob.m
    r_inv = np.linalg.inv(prob.r)
    _, logdet_r = np.linalg.slogdet(prob.r)
    entropy = 0.5 * (m * math.log(2.0 * math.pi * prob.alpha) - logdet_r) + 0.5 * m
    out = {
        "w2_sq": float(prob.alpha * np.trace(r_inv)),
        "entropy_per_time": float(entropy),
    }
    if prob.lam > 0:
        out["pure_cost_overhead"] = float(m * prob.alpha / (2.0 * prob.lam))
    else:
        out["pure_cost_overhead"] = math.inf
    return out


@dataclass(frozen=True)
class GaussianAtState:
    """Per-state Gaussian control: mean vector and covariance."""

    mean: np.ndarray
    covariance: np.ndarray


def control_affine_policy(f2, v0_grad, r_mat, alpha, x) -> GaussianAtState:
    """Max-entropy optimal control N(-R^-1 f2(x)' grad V0(x), alpha R^-1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(v0_grad(x), dtype=float))
    f2x = np.atleast_2d(np.asarray(f2(x), dtype=float))
    mean = -np.linalg.solve(r_mat, f2x.T @ grad)
    return GaussianAtState(mean=mean, covariance=alpha * np.linalg.inv(r_mat))


# ---------------------------------------------------------------------------
# matrix files and fixture systems

def save_matrix(path, mat: np.ndarray):
    """Plain-text matrix: first line 'n m', then whitespace-separated rows."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    write_table(path, f"{mat.shape[0]} {mat.shape[1]}", mat, sep=" ")


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        n, m = (int(tok) for tok in fh.readline().split())
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (n, m):
        raise DimensionMismatchError(f"matrix file {path} shape {data.shape} != ({n},{m})")
    return data


def make_stable_system(n: int, m: int, seed: int, shift: float = 0.01, b_scale: float = 0.1):
    """Random system per the benchmark recipe: A shifted so every eigenvalue's
    real part is <= -shift, B scaled by b_scale."""
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((n, n)) / math.sqrt(n)
    a -= (spectral_abscissa(a) + shift) * np.eye(n)
    b = b_scale * rng.standard_normal((n, m))
    return a, b
