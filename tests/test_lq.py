import math

import numpy as np
import pytest

from maxent_hjb import (
    CostModel,
    DynamicsModel,
    GaussianPolicy,
    Linear,
    LqProblem,
    QuadraticRunning,
    control_affine_policy,
    evaluate_cost,
    kleinman_iterate,
    load_matrix,
    make_stable_system,
    maxent_policy,
    quantitative_gaps,
    save_matrix,
    solve_lyapunov,
)
from maxent_hjb.benchmarks import FIXTURE_SPECS, fixture_dir, load_fixture, write_fixture_files
from maxent_hjb.errors import DimensionMismatchError, NotHurwitzError, NotPositiveDefiniteError
from maxent_hjb.lq import (
    quad_regressor,
    reduce_kron_columns,
    spectral_abscissa,
    svec,
    svec_to_mat,
)


def scalar_are_root(a, b, q, r, lam):
    """Positive root of (b^2/r) P^2 - (2a - lam) P - q = 0."""
    aa = b * b / r
    bb = -(2 * a - lam)
    cc = -q
    return (-bb + math.sqrt(bb * bb - 4 * aa * cc)) / (2 * aa)


class TestSvec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        m = m + m.T
        assert np.allclose(svec_to_mat(svec(m), 4), m)

    def test_regressor_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5)
        p = rng.normal(size=(5, 5))
        p = p + p.T
        assert quad_regressor(x) @ svec(p) == pytest.approx(x @ p @ x)

    def test_reduce_kron_columns(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=3)
        p = rng.normal(size=(3, 3))
        p = p + p.T
        row = np.kron(x, x)[None, :]
        reduced = reduce_kron_columns(row, 3)
        assert reduced @ svec(p) == pytest.approx(x @ p @ x)


def svec_index_pairs(n: int):
    """The (i, j) pairs of the upper triangle in svec order, one Python pair at a time."""
    return [(i, j) for i in range(n) for j in range(i, n)]


class TestSvecMatchesPairLoops:
    """The indexed svec helpers against the per-pair loops they replaced, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_helpers(self, n):
        rng = np.random.default_rng(n)
        pairs = svec_index_pairs(n)
        mat = rng.normal(size=(n, n))
        v = rng.normal(size=len(pairs))
        x = rng.normal(size=(4, n))
        kron_block = rng.normal(size=(5, n * n))
        loop_mat = np.zeros((n, n))
        for k, (i, j) in enumerate(pairs):
            loop_mat[i, j] = loop_mat[j, i] = v[k]
        loop_reg = np.stack(
            [x[:, i] * x[:, j] * (1.0 if i == j else 2.0) for i, j in pairs], axis=-1
        )
        loop_kron = np.stack(
            [kron_block[:, i * n + i] if i == j
             else kron_block[:, i * n + j] + kron_block[:, j * n + i] for i, j in pairs],
            axis=-1,
        )
        assert np.array_equal(svec(mat), np.array([mat[i, j] for i, j in pairs]))
        assert np.array_equal(svec_to_mat(v, n), loop_mat)
        assert np.array_equal(quad_regressor(x), loop_reg)
        assert np.array_equal(quad_regressor(x[0]), loop_reg[0])
        assert np.array_equal(reduce_kron_columns(kron_block, n), loop_kron)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_lyapunov_operator(self, n):
        a_cl, _ = make_stable_system(n, 1, seed=n, shift=0.5)
        m_rhs = np.eye(n)
        op = np.empty((len(svec_index_pairs(n)),) * 2)
        for col, (i, j) in enumerate(svec_index_pairs(n)):
            basis = np.zeros((n, n))
            basis[i, j] = basis[j, i] = 1.0
            op[:, col] = svec(a_cl.T @ basis + basis @ a_cl - 0.3 * basis)
        p = svec_to_mat(np.linalg.solve(op, -svec(m_rhs)), n)
        assert np.array_equal(solve_lyapunov(a_cl, 0.3, m_rhs), p)


class TestSolveLyapunov:
    def test_scalar(self):
        assert solve_lyapunov(np.array([[-1.0]]), 0.0, np.array([[2.0]]))[0, 0] == pytest.approx(1.0)

    def test_zero_rhs(self):
        a_cl = np.array([[-1.0, 0.3], [0.0, -2.0]])
        assert np.allclose(solve_lyapunov(a_cl, 0.1, np.zeros((2, 2))), 0.0)

    def test_residual_random_stable(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a_cl = rng.normal(size=(4, 4))
            a_cl -= (spectral_abscissa(a_cl) + 0.5) * np.eye(4)
            m = rng.normal(size=(4, 4))
            m = m + m.T
            p = solve_lyapunov(a_cl, 0.2, m)
            res = np.linalg.norm(a_cl.T @ p + p @ a_cl - 0.2 * p + m)
            assert res <= 1e-10 * np.linalg.norm(m)
            assert np.allclose(p, p.T)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[0.5]]), 0.0, np.array([[1.0]]))


class TestKleinman:
    def test_scalar_unit_problem(self):
        prob = LqProblem(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]], lam=0.0, alpha=1.0)
        sol = kleinman_iterate(prob, k0=np.array([[1.0]]))
        assert sol.p[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert sol.k[0, 0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "a,b,q,r,lam", [(0.4, 1.2, 2.0, 0.5, 0.0), (-0.3, 0.8, 1.0, 2.0, 0.3), (1.0, 1.0, 3.0, 1.0, 0.1)]
    )
    def test_scalar_quadratic_formula(self, a, b, q, r, lam):
        # oracle: the closed-form positive ARE root
        prob = LqProblem(a=[[a]], b=[[b]], q=[[q]], r=[[r]], lam=lam, alpha=1.0)
        k0 = np.array([[(a + 1.0) / b]])  # stabilizing: a - b k0 = -1
        sol = kleinman_iterate(prob, k0=k0)
        assert sol.p[0, 0] == pytest.approx(scalar_are_root(a, b, q, r, lam), abs=1e-10)

    def test_random_system_monotone_and_residual(self):
        a, b = make_stable_system(4, 2, seed=99)
        prob = LqProblem(a=a, b=b, q=np.eye(4), r=np.eye(2), lam=0.05, alpha=1.0)
        history = []
        sol = kleinman_iterate(prob, history=history)
        assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(sol.p) ** 2)
        for (p_prev, _), (p_next, _) in zip(history, history[1:]):
            assert np.min(np.linalg.eigvalsh(p_prev - p_next)) >= -1e-9
        for _, k in history:
            shifted = prob.a - 0.5 * prob.lam * np.eye(4) - prob.b @ k
            assert spectral_abscissa(shifted) < 0

    def test_unstable_initial_gain_rejected(self):
        prob = LqProblem(a=[[1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]], lam=0.0, alpha=1.0)
        with pytest.raises(NotHurwitzError):
            kleinman_iterate(prob, k0=np.array([[0.0]]))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2)])
    def test_initial_gain_must_be_m_by_n(self, shape):
        prob = load_fixture("n3m2")
        with pytest.raises(DimensionMismatchError, match=r"expected \(m, n\) = \(2, 3\)"):
            kleinman_iterate(prob, k0=np.zeros(shape))


class TestProblemChecks:
    # Cholesky and eigh each read one triangle, so a non-symmetric weight would
    # pass them and fail later, far from its cause
    def test_non_symmetric_r_names_r(self):
        with pytest.raises(NotPositiveDefiniteError, match="R is not symmetric"):
            LqProblem(a=-np.eye(2), b=np.eye(2), q=np.eye(2), r=[[1.0, 5.0], [0.0, 1.0]],
                      lam=0.0, alpha=1.0)

    def test_non_symmetric_q_names_q(self):
        with pytest.raises(NotPositiveDefiniteError, match="Q is not symmetric"):
            LqProblem(a=-np.eye(2), b=np.eye(2), q=[[1.0, 5.0], [0.0, 1.0]], r=np.eye(2),
                      lam=0.0, alpha=1.0)

    @pytest.mark.parametrize(
        "lam, alpha", [(-1.0, 1.0), (math.nan, 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, math.nan)]
    )
    def test_rejects_bad_discount_or_temperature(self, lam, alpha):
        with pytest.raises(ValueError, match="need lam >= 0 and alpha > 0"):
            LqProblem(a=-np.eye(2), b=np.eye(2), q=np.eye(2), r=np.eye(2), lam=lam, alpha=alpha)

    @pytest.mark.parametrize("r", [[[1.0]], np.eye(2, 3)])
    def test_r_must_be_m_by_m(self, r):
        with pytest.raises(DimensionMismatchError):
            LqProblem(a=-np.eye(2), b=np.eye(2), q=np.eye(2), r=r, lam=0.0, alpha=1.0)


class TestMaxEntPolicy:
    def test_constant_vanishes_at_special_alpha(self):
        alpha = 1.0 / (2.0 * math.pi)
        prob = LqProblem(a=[[-1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]], lam=1.0, alpha=alpha)
        pol = maxent_policy(prob, kleinman_iterate(prob))
        assert pol.value_constant == pytest.approx(0.0, abs=1e-14)

    def test_identity_r_constant(self):
        for m in (1, 2, 3):
            a, b = make_stable_system(3, m, seed=5 + m)
            prob = LqProblem(a=a, b=b, q=np.eye(3), r=np.eye(m), lam=1.0, alpha=1.0)
            pol = maxent_policy(prob, kleinman_iterate(prob))
            assert pol.value_constant == pytest.approx(-(m / 2) * math.log(2 * math.pi))

    def test_covariance_spectrum(self):
        r = np.diag([1.0, 4.0])
        a, b = make_stable_system(2, 2, seed=11)
        prob = LqProblem(a=a, b=b, q=np.eye(2), r=r, lam=0.5, alpha=2.0)
        pol = maxent_policy(prob, kleinman_iterate(prob))
        assert np.allclose(np.sort(np.linalg.eigvalsh(pol.covariance)), [0.5, 2.0])
        assert np.allclose(pol.covariance, 2.0 * np.linalg.inv(r), rtol=1e-12)

    def test_lam_zero_rejected(self):
        prob = LqProblem(a=[[-1.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]], lam=0.0, alpha=1.0)
        sol = kleinman_iterate(prob)
        with pytest.raises(ValueError):
            maxent_policy(prob, sol)


class TestQuantitativeGaps:
    def test_w2_identity_r(self):
        prob = LqProblem(a=[[-1.0, 0.0], [0.0, -1.0]], b=np.eye(2), q=np.eye(2), r=np.eye(2), lam=1.0, alpha=1.0)
        assert quantitative_gaps(prob)["w2_sq"] == pytest.approx(2.0)

    def test_overhead_arithmetic(self):
        a, b = make_stable_system(3, 2, seed=21)
        prob = LqProblem(a=a, b=b, q=np.eye(3), r=np.eye(2), lam=0.5, alpha=1.0)
        assert quantitative_gaps(prob)["pure_cost_overhead"] == pytest.approx(2.0)

    def test_alpha_linearity(self):
        a, b = make_stable_system(3, 2, seed=22)
        g1 = quantitative_gaps(LqProblem(a=a, b=b, q=np.eye(3), r=np.eye(2), lam=0.5, alpha=1.0))
        g2 = quantitative_gaps(LqProblem(a=a, b=b, q=np.eye(3), r=np.eye(2), lam=0.5, alpha=2.0))
        assert g2["w2_sq"] == pytest.approx(2 * g1["w2_sq"])
        assert g2["pure_cost_overhead"] == pytest.approx(2 * g1["pure_cost_overhead"])


class TestControlAffinePolicy:
    def test_critical_point_pure_exploration(self):
        pol = control_affine_policy(
            f2=lambda x: np.array([[1.0], [0.0]]),
            v0_grad=lambda x: np.zeros(2),
            r_mat=np.array([[2.0]]),
            alpha=0.7,
            x=np.array([1.0, 2.0]),
        )
        assert np.allclose(pol.mean, 0.0)
        assert np.allclose(pol.covariance, [[0.35]])

    def test_linear_specialization_matches_lq(self):
        a, b = make_stable_system(2, 1, seed=31)
        prob = LqProblem(a=a, b=b, q=np.eye(2), r=[[1.5]], lam=0.4, alpha=1.0)
        sol = kleinman_iterate(prob)
        x = np.array([0.7, -1.1])
        pol = control_affine_policy(
            f2=lambda _: b,
            v0_grad=lambda xx: sol.p @ xx,
            r_mat=prob.r,
            alpha=prob.alpha,
            x=x,
        )
        assert np.allclose(pol.mean, -sol.k @ x, atol=1e-12)

    def test_covariance_alpha_scaling(self):
        kwargs = dict(
            f2=lambda x: np.array([[1.0]]),
            v0_grad=lambda x: x,
            r_mat=np.array([[2.0]]),
            x=np.array([1.0]),
        )
        c1 = control_affine_policy(alpha=1.0, **kwargs).covariance
        c3 = control_affine_policy(alpha=3.0, **kwargs).covariance
        assert np.allclose(c3, 3.0 * c1)


class TestSoftHjbResidual:
    def test_value_function_satisfies_soft_hjb(self):
        # lam V + 1/2 gV' B R^-1 B' gV - r1 - gV' A x + (alpha/2) log((2 pi alpha)^m / det R) = 0
        a, b = make_stable_system(3, 2, seed=41)
        prob = LqProblem(a=a, b=b, q=np.eye(3), r=np.diag([1.0, 2.0]), lam=0.7, alpha=0.8)
        sol = kleinman_iterate(prob)
        pol = maxent_policy(prob, sol)
        rng = np.random.default_rng(5)
        br = prob.b @ np.linalg.solve(prob.r, prob.b.T)
        log_term = (prob.alpha / 2.0) * (
            prob.m * math.log(2 * math.pi * prob.alpha) - np.linalg.slogdet(prob.r)[1]
        )
        for _ in range(100):
            x = rng.normal(size=3)
            grad = sol.p @ x
            v_val = 0.5 * x @ sol.p @ x + pol.value_constant
            residual = (
                prob.lam * v_val
                + 0.5 * grad @ br @ grad
                - 0.5 * x @ prob.q @ x
                - grad @ (prob.a @ x)
                + log_term
            )
            assert abs(residual) <= 1e-8


class TestValueConsistency:
    def test_monte_carlo_cost_matches_closed_form(self):
        # n=2, m=1, lam=0.5: sampled trajectories under the optimal Gaussian
        # policy reproduce V(x0) = 1/2 x0'P x0 + c within the MC band
        a, b = make_stable_system(2, 1, seed=51)
        prob = LqProblem(a=a, b=b, q=np.eye(2), r=[[1.0]], lam=0.5, alpha=0.5)
        sol = kleinman_iterate(prob)
        pol = maxent_policy(prob, sol)
        model = DynamicsModel(2, 1, Linear(a=a, b=b))
        cost = CostModel(
            running=QuadraticRunning(q=prob.q, r=prob.r),
            terminal=None,
            alpha=prob.alpha,
            lam=prob.lam,
            horizon=math.inf,
        )
        policy = GaussianPolicy(gain=pol.gain, covariance=pol.covariance)
        x0 = np.array([1.0, -0.5])
        values = []
        tail = 0.0
        for seed in range(24):
            est = evaluate_cost(model, cost, policy, x0, seed=seed, dt=0.1, tol=1e-7)
            values.append(est.value)
            tail = max(tail, est.tail_bound)
        mc_mean = float(np.mean(values))
        mc_sigma = float(np.std(values)) / math.sqrt(len(values))
        target = 0.5 * x0 @ sol.p @ x0 + pol.value_constant
        assert abs(mc_mean - target) <= 3.0 * mc_sigma + tail + 0.02


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        m = rng.normal(size=(3, 5))
        path = tmp_path / "mat.txt"
        save_matrix(path, m)
        first = path.read_text().splitlines()[0]
        assert first == "3 5"
        assert np.array_equal(load_matrix(path), m)

    def test_fixture_recipe_properties(self):
        a, b = make_stable_system(10, 10, seed=77)
        assert spectral_abscissa(a) <= -0.01 + 1e-12
        assert np.max(np.abs(b)) < 1.0  # scaled down by 0.1

    @pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
    def test_packaged_fixtures_regenerate_from_recipe(self, tmp_path, name):
        write_fixture_files(name, tmp_path)
        for part in ("A", "B"):
            packaged = (fixture_dir() / f"{name}_{part}.txt").read_bytes()
            assert (tmp_path / f"{name}_{part}.txt").read_bytes() == packaged

    def test_unknown_fixture_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="'foo'.*n3m2, n10m10"):
            load_fixture("foo")

    def test_stabilizability_warning(self):
        # both modes unreachable: the numerical rank check should warn
        with pytest.warns(RuntimeWarning):
            LqProblem(
                a=[[-1.0, 0.0], [0.0, -1.0]],
                b=[[0.0], [0.0]],
                q=np.eye(2),
                r=[[1.0]],
                lam=0.0,
                alpha=1.0,
            )
