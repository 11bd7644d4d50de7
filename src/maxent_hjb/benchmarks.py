"""Benchmark systems and fixture management.

The controlled Van der Pol oscillator appears in two flavors: the planar field
used for the HJB solver comparison and the four-state variant used for the
receding-horizon study. Fixture LQ systems for the data-driven learners ship
as plain-text matrix files under ``maxent_hjb/fixtures`` and can be regenerated
with the stable-system recipe (eigenvalues shifted to real part <= -0.01,
input matrix scaled by 0.1).
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .dynamics import (
    ControlBox,
    CostModel,
    DynamicsModel,
    FeatureAffine,
    Generic,
    GenericRunning,
    L1Terminal,
    SeparableRunning,
)
from .lq import LqProblem, load_matrix, make_stable_system, save_matrix


def _vdp_plane_drift(x):
    x1 = x[..., 0]
    x2 = x[..., 1]
    return np.stack([x2, -2.0 * (x1**2 - 1.0) * x2 - x1], axis=-1)


def _vdp_input(x):
    """b(x) of shape (..., n, 1): the gain 2 + sin(x1 x2) on x2, zero elsewhere."""
    b = np.zeros(x.shape + (1,))
    b[..., 1, 0] = 2.0 + np.sin(x[..., 0] * x[..., 1])
    return b


def _vdp_channel(u):
    """phi(u) = u + u^3/3 + sin u, the nonlinear scalar control channel."""
    return u + u**3 / 3.0 + np.sin(u)


def vdp_plane_model() -> DynamicsModel:
    """Planar Van der Pol oscillator with the nonlinear scalar control channel,
    in feature form: f = a(x) + b(x) phi(u) with b(x) = (0, 2 + sin(x1 x2))'."""
    family = FeatureAffine(_vdp_plane_drift, _vdp_input, _vdp_channel)
    return DynamicsModel(state_dim=2, control_dim=1, family=family)


def _l1_norm(v):
    return np.sum(np.abs(v), axis=-1)


def vdp_plane_cost(alpha: float = 1.0, horizon: float = 0.1) -> CostModel:
    """r = |x| + |u| running cost with the l1 terminal cost."""
    return CostModel(
        running=SeparableRunning(_l1_norm, _l1_norm),
        terminal=L1Terminal(),
        alpha=alpha,
        lam=0.0,
        horizon=horizon,
    )


def vdp_control_box() -> ControlBox:
    return ControlBox(lower=[-1.0], upper=[1.0])


def _vdp4_drift(x):
    """The planar drift on (x1, x2), driving the damped pair (x3, x4) through x1."""
    plane = _vdp_plane_drift(x)
    x1, x3, x4 = x[..., 0], x[..., 2], x[..., 3]
    return np.stack([plane[..., 0], plane[..., 1], x4, -x3 - 0.2 * x4 + x1], axis=-1)


def vdp4_model() -> DynamicsModel:
    """Four-state Van der Pol variant driving a second oscillator pair."""
    family = FeatureAffine(_vdp4_drift, _vdp_input, _vdp_channel)
    return DynamicsModel(state_dim=4, control_dim=1, family=family)


VDP4_X0 = np.array([0.05, 0.25, 0.0, 0.02])


def linear_channel_model() -> DynamicsModel:
    """1-D integrator dx/dt = u: the workhorse for analytic Hamiltonian checks."""
    return DynamicsModel(
        state_dim=1,
        control_dim=1,
        family=Generic(lambda x, u: u[..., :1] + 0.0 * x[..., :1]),
    )


def zero_running_cost(alpha: float = 1.0, horizon: float = 1.0) -> CostModel:
    return CostModel(
        running=GenericRunning(lambda x, u: np.zeros(np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape))),
        terminal=None,
        alpha=alpha,
        lam=0.0,
        horizon=horizon,
    )


def analytic_linear_channel_hamiltonian(p: float, alpha: float) -> float:
    """Closed form for f = u, r = 0, U = [-1, 1]:

        H_a(p) = a log((2a/p) sinh(p/a)),   H_a(0) = a log 2.
    """
    if p == 0.0:
        return alpha * math.log(2.0)
    ratio = p / alpha
    # log sinh with overflow protection: sinh(z) = e^{|z|}(1 - e^{-2|z|})/2.
    az = abs(ratio)
    log_sinh = az + math.log1p(-math.exp(-2.0 * az)) - math.log(2.0)
    return alpha * (math.log(2.0 * alpha / abs(p)) + log_sinh)


# n3m2 is the fast-CI learning fixture (well-damped, unit input scale);
# n10m10 follows the benchmark recipe exactly (slowest mode -0.01, B x 0.1)
# because the 155-window rank count is checked on it.
FIXTURE_SPECS = {
    "n3m2": dict(n=3, m=2, seed=20240311, shift=0.5, b_scale=1.0),
    "n10m10": dict(n=10, m=10, seed=20240642, shift=0.01, b_scale=0.1),
}


def fixture_dir():
    return resources.files("maxent_hjb") / "fixtures"


def write_fixture_files(name: str, out_dir) -> None:
    spec = FIXTURE_SPECS[name]
    a, b = make_stable_system(
        spec["n"], spec["m"], spec["seed"], shift=spec["shift"], b_scale=spec["b_scale"]
    )
    save_matrix(out_dir / f"{name}_A.txt", a)
    save_matrix(out_dir / f"{name}_B.txt", b)


def load_fixture(name: str, lam: float = 1e-10, alpha: float = 1.0) -> LqProblem:
    """Load a packaged fixture system with Q = I, R = I cost weights."""
    base = fixture_dir()
    a = load_matrix(str(base / f"{name}_A.txt"))
    b = load_matrix(str(base / f"{name}_B.txt"))
    n, m = a.shape[0], b.shape[1]
    return LqProblem(a=a, b=b, q=np.eye(n), r=np.eye(m), lam=lam, alpha=alpha)
