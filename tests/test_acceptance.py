"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9's full-scale
rank-count study is opt-in via MAXENT_HJB_SLOW=1.
"""

import math
import os
import time

import numpy as np
import pytest

from maxent_hjb import (
    ControlBox,
    CostModel,
    DynamicsModel,
    GaussianPolicy,
    GenericRunning,
    HamiltonianContext,
    HiddenLqSystem,
    HopfLaxConfig,
    L1Terminal,
    LearnerConfig,
    Linear,
    LqProblem,
    OffPolicyRows,
    OnPolicyRows,
    build_grid,
    godunov_solve,
    compare_solutions,
    hopf_lax_value,
    kleinman_iterate,
    laplace_gap,
    make_stable_system,
    quantitative_gaps,
    maxent_policy,
    run_offpolicy,
    run_onpolicy,
    simulate_sampled,
    sinusoidal_baseline,
    solve_offpolicy,
    solve_onpolicy,
    standard_hamiltonian,
    value_surface,
)
from maxent_hjb.benchmarks import (
    linear_channel_model,
    load_fixture,
    vdp_control_box,
    vdp_plane_cost,
    vdp_plane_model,
    zero_running_cost,
)
from maxent_hjb.godunov import Grid2D, GridFunction
from maxent_hjb.lq import svec, svec_size


def _report(num, description, elapsed, budget, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def sinh_oracle(p, alpha):
    if p == 0.0:
        return alpha * math.log(2.0)
    z = abs(p / alpha)
    log_sinh = z + math.log1p(-math.exp(-2.0 * z)) - math.log(2.0)
    return alpha * (math.log(2.0 * alpha / abs(p)) + log_sinh)


def test_criterion_01_soft_hamiltonian_analytic_oracle():
    started = time.time()
    model = linear_channel_model()
    cost = zero_running_cost()
    grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 64)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        ctx = HamiltonianContext(model, cost, alpha, grid)
        for p in (-3.0, -1.0, -0.1, 0.1, 1.0, 3.0):
            rep = ctx.report([0.0], [p])
            worst = max(worst, abs(rep.value - sinh_oracle(p, alpha)))
    _report(1, f"quadrature vs sinh closed form, max err {worst:.2e} <= 1e-8",
            time.time() - started, 1.0, worst <= 1e-8)


def test_criterion_02_laplace_consistency():
    started = time.time()
    model = vdp_plane_model()
    cost = vdp_plane_cost()
    grid = build_grid(vdp_control_box(), 512)
    rng = np.random.default_rng(2024)
    alphas = [2.0, 1.0, 0.5, 0.1, 0.05, 0.01]
    worst_gap = 0.0
    monotone = True
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=2)
        p = rng.uniform(-0.2, 0.2, size=2)
        sweep = laplace_gap(model, cost, x, p, alphas, grid)
        tildes = [row[2] for row in sweep]
        # H~ is nonincreasing as a function of alpha (sweep lists alpha
        # decreasing, so values rise along the traversal)
        monotone &= all(t1 <= t2 + 1e-12 for t1, t2 in zip(tildes, tildes[1:]))
        h0 = standard_hamiltonian(model, cost, x, p, grid)
        worst_gap = max(worst_gap, abs(tildes[-1] - h0))
    ok = monotone and worst_gap <= 0.05
    _report(2, f"H~ monotone in alpha and |H~(0.01) - H0| max {worst_gap:.3f} <= 0.05",
            time.time() - started, 10.0, ok)


def test_criterion_03_convexity_gradient_hessian():
    started = time.time()
    model = vdp_plane_model()
    cost = vdp_plane_cost()
    grid = build_grid(vdp_control_box(), 64)
    ctx = HamiltonianContext(model, cost, 1.0, grid)
    rng = np.random.default_rng(3)
    x = np.array([0.3, -0.2])
    convex_ok = True
    for _ in range(200):
        p1 = rng.normal(size=2) * 2
        p2 = rng.normal(size=2) * 2
        lam = rng.uniform(0.05, 0.95)
        h_mid = ctx.value_batch(x, lam * p1 + (1 - lam) * p2)
        h1 = ctx.value_batch(x, p1)
        h2 = ctx.value_batch(x, p2)
        convex_ok &= float(h_mid) <= lam * float(h1) + (1 - lam) * float(h2) + 1e-9
    grad_ok = True
    hess_ok = True
    for _ in range(20):
        xs = rng.normal(size=2) * 0.7
        ps = rng.normal(size=2)
        rep = ctx.report(xs, ps, order=2)
        fd = np.zeros(2)
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = 1e-5
            up = ctx.report(xs, ps + dp).value
            dn = ctx.report(xs, ps - dp).value
            fd[i] = (up - dn) / 2e-5
        grad_ok &= bool(np.all(np.abs(rep.gradient_p - fd) <= 1e-5))
        hess_ok &= float(np.min(np.linalg.eigvalsh(rep.hessian_p))) >= -1e-8 * (
            1.0 + float(np.trace(rep.hessian_p))
        )
    ok = convex_ok and grad_ok and hess_ok
    _report(3, "200 convexity triples, gradient vs FD <= 1e-5, Hessian PSD",
            time.time() - started, 30.0, ok)


def test_criterion_04_hopf_lax_vs_godunov_benchmark():
    started = time.time()
    model = vdp_plane_model()
    cost = vdp_plane_cost(alpha=1.0, horizon=0.1)
    grid_q = build_grid(vdp_control_box(), 32)
    ctx = HamiltonianContext(model=model, cost=cost, alpha=1.0, grid=grid_q)
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 161, 161)
    godunov = godunov_solve(ctx, cost.terminal, grid, 0.1, cfl=0.5)
    hl_config = HopfLaxConfig(
        ode_step=0.025, n_starts=16, start_radius=5.0, simplex_iters=40, seed=0
    )
    threads = max(1, int(os.environ.get("MAXENT_HJB_THREADS", "2")))
    surface = value_surface(
        ctx, cost.terminal, grid.xs, grid.ys, 0.1, hl_config,
        n_random=1, n_bands=2, processes=threads, warm_iters=20,
    )
    report = compare_solutions(godunov, GridFunction(surface, grid, 0.1))
    ok = report["rel_pct"] <= 5.0
    _report(
        4,
        f"grid-free vs Godunov rel diff {report['rel_pct']:.2f}% <= 5% "
        f"(interior {report['rel_pct_interior']:.2f}%)",
        time.time() - started, 600.0, ok,
    )


def test_criterion_05_eikonal_sanity():
    started = time.time()
    model = linear_channel_model()
    cost = CostModel(
        running=GenericRunning(lambda x, u: 0.0 * (x[..., 0] + u[..., 0])),
        terminal=L1Terminal(),
        alpha=0.01,
        lam=0.0,
        horizon=0.5,
    )
    grid = build_grid(ControlBox(lower=[-1.0], upper=[1.0]), 128)
    ctx = HamiltonianContext(model=model, cost=cost, alpha=0.01, grid=grid)
    cfg = HopfLaxConfig(ode_step=0.125, n_starts=8, start_radius=3.0, simplex_iters=100, seed=0)
    worst = 0.0
    for x in np.linspace(-1.8, 1.8, 20):
        est = hopf_lax_value(ctx, cost.terminal, [x], 0.5, cfg)
        worst = max(worst, abs(est.value - max(abs(x) - 0.5, 0.0)))
    _report(5, f"eikonal max err {worst:.3f} <= 0.05 at 20 query points",
            time.time() - started, 60.0, worst <= 0.05)


def test_criterion_06_kleinman_are():
    started = time.time()
    # scalar closed form
    prob1 = LqProblem(a=[[0.4]], b=[[1.2]], q=[[2.0]], r=[[0.5]], lam=0.1, alpha=1.0)
    aa = 1.2**2 / 0.5
    bb = -(2 * 0.4 - 0.1)
    root = (-bb + math.sqrt(bb * bb + 4 * aa * 2.0)) / (2 * aa)
    sol1 = kleinman_iterate(prob1, k0=np.array([[(0.4 + 1.0) / 1.2]]))
    scalar_ok = abs(sol1.p[0, 0] - root) <= 1e-10
    # n = 4 random system
    a, b = make_stable_system(4, 2, seed=6)
    prob4 = LqProblem(a=a, b=b, q=np.eye(4), r=np.eye(2), lam=0.05, alpha=1.0)
    history = []
    sol4 = kleinman_iterate(prob4, history=history)
    residual_ok = sol4.residual <= 1e-8 * (1.0 + np.linalg.norm(sol4.p) ** 2)
    loewner_ok = all(
        np.min(np.linalg.eigvalsh(p_prev - p_next)) >= -1e-9
        for (p_prev, _), (p_next, _) in zip(history, history[1:])
    )
    ok = scalar_ok and residual_ok and loewner_ok
    _report(6, "scalar ARE root 1e-10, n=4 residual <= 1e-8(1+|P|^2), Loewner monotone",
            time.time() - started, 1.0, ok)


def test_criterion_07_maxent_lq_closed_forms():
    started = time.time()
    a, b = make_stable_system(3, 2, seed=7)
    prob = LqProblem(a=a, b=b, q=np.eye(3), r=np.diag([1.0, 2.0]), lam=0.7, alpha=0.8)
    sol = kleinman_iterate(prob)
    pol = maxent_policy(prob, sol)
    br = prob.b @ np.linalg.solve(prob.r, prob.b.T)
    log_term = (prob.alpha / 2.0) * (
        prob.m * math.log(2 * math.pi * prob.alpha) - np.linalg.slogdet(prob.r)[1]
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=3)
        grad = sol.p @ x
        v_val = 0.5 * x @ sol.p @ x + pol.value_constant
        residual = (
            prob.lam * v_val + 0.5 * grad @ br @ grad - 0.5 * x @ prob.q @ x
            - grad @ (prob.a @ x) + log_term
        )
        worst = max(worst, abs(residual))
    gaps = quantitative_gaps(
        LqProblem(a=[[-1.0, 0.0], [0.0, -1.0]], b=np.eye(2), q=np.eye(2), r=np.eye(2), lam=0.5, alpha=1.0)
    )
    unit_ok = gaps["w2_sq"] == 2.0 and gaps["pure_cost_overhead"] == 2.0
    ok = worst <= 1e-8 and unit_ok
    _report(7, f"soft-HJB residual max {worst:.2e} <= 1e-8; w2/overhead unit checks exact",
            time.time() - started, 1.0, ok)


def test_criterion_08_adaptive_dp_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(8)
    n, m = 3, 2
    cols = svec_size(n) + m * n
    p_star = rng.normal(size=(n, n))
    p_star = p_star + p_star.T
    k_star = rng.normal(size=(m, n))
    z = np.concatenate([svec(p_star), k_star.flatten(order="F")])
    theta = rng.normal(size=(24, cols))
    p_on, k_on = solve_onpolicy(OnPolicyRows(theta=theta, xi=theta @ z, n=n, m=m))
    on_ok = np.linalg.norm(p_on - p_star) < 1e-8 and np.linalg.norm(k_on - k_star) < 1e-8

    k_k = rng.normal(size=(m, n)) * 0.3
    q_mat = np.eye(n)
    r_mat = np.eye(m)
    p2 = rng.normal(size=(n, n))
    p2 = p2 @ p2.T + np.eye(n)
    k2 = rng.normal(size=(m, n))
    xs = rng.normal(size=(40, n))
    us = rng.normal(size=(40, m))
    i1 = np.stack([np.kron(x, x) for x in xs])
    i2 = np.stack([np.kron(x, u) for x, u in zip(xs, us)])
    gain_block = -2.0 * (i1 @ np.kron(np.eye(n), k_k.T @ r_mat) + i2 @ np.kron(np.eye(n), r_mat))
    rhs = -i1 @ (q_mat + k_k.T @ r_mat @ k_k).flatten(order="F")
    target = rhs - gain_block @ k2.flatten(order="F")
    sp = svec(p2)
    delta = rng.normal(size=(40, svec_size(n)))
    delta += np.outer((target - delta @ sp) / (sp @ sp), sp)
    p_off, k_off = solve_offpolicy(
        OffPolicyRows(delta=delta, i1=i1, i2=i2, n=n, m=m), k_k, q_mat, r_mat
    )
    off_ok = np.linalg.norm(p_off - p2) < 1e-8 and np.linalg.norm(k_off - k2) < 1e-8
    ok = on_ok and off_ok
    _report(8, "noise-free synthesized regressors recover (P*, K*) to 1e-8, both solvers",
            time.time() - started, 1.0, ok)


def _learner_setup():
    prob = load_fixture("n3m2", lam=1e-10, alpha=1.0)
    oracle = kleinman_iterate(prob)
    system = HiddenLqSystem(prob)
    return prob, oracle, system


def _learner_config(seed):
    return LearnerConfig(
        delta_t=0.01, n_sub=10,
        eps_stop=2e-2, max_iters=25, seed=seed, eval_horizon=20.0,
    )


def test_criterion_09_onpolicy_learning():
    started = time.time()
    prob, oracle, system = _learner_setup()
    k0 = np.zeros((prob.m, prob.n))
    rels = []
    hurwitz_ok = True
    for seed in range(5):
        rep = run_onpolicy(system, k0, _learner_config(seed))
        rels.append(np.linalg.norm(rep.p_final - oracle.p) / np.linalg.norm(oracle.p))
        for _, k in rep.iterates:
            hurwitz_ok &= system.closed_loop_abscissa(k) < 0
    median = float(np.median(rels))
    ok = median <= 5e-2 and hurwitz_ok
    _report(9, f"on-policy median rel P error {median:.3f} <= 5e-2, all loops Hurwitz",
            time.time() - started, 120.0, ok)


@pytest.mark.slow
def test_criterion_09_slow_full_scale_rank_count():
    started = time.time()
    prob = load_fixture("n10m10", lam=1e-10, alpha=1.0)
    system = HiddenLqSystem(prob)
    k0 = np.zeros((10, 10))
    hits = 0
    for seed in range(20):
        cfg = LearnerConfig(
            delta_t=0.01, n_sub=10,
            eps_stop=1e9, max_iters=1, seed=seed, eval_horizon=0.0,
        )
        rep = run_onpolicy(system, k0, cfg)
        hits += rep.rank_counts[0] == 155
    frac = hits / 20.0
    _report("9-slow", f"rank met at exactly 155 windows in {frac:.0%} of seeds (>= 90%)",
            time.time() - started, 300.0, frac >= 0.9)


def test_criterion_10_offpolicy_learning():
    started = time.time()
    prob, oracle, system = _learner_setup()
    k0 = np.zeros((prob.m, prob.n))
    rels = []
    ordering_ok = True
    for seed in range(5):
        cfg = _learner_config(seed)
        rep_off = run_offpolicy(system, k0, cfg)
        rep_on = run_onpolicy(system, k0, cfg)
        rels.append(np.linalg.norm(rep_off.p_final - oracle.p) / np.linalg.norm(oracle.p))
        ordering_ok &= rep_off.total_samples < rep_on.total_samples
    median = float(np.median(rels))
    ok = median <= 5e-2 and ordering_ok
    _report(10, f"off-policy median rel P error {median:.3f} <= 5e-2, strictly fewer samples",
            time.time() - started, 120.0, ok)


def test_criterion_11_exploration_comparison():
    started = time.time()
    prob, _, system = _learner_setup()
    k0 = np.zeros((prob.m, prob.n))
    costs_me, costs_base = [], []
    for seed in range(10):
        cfg = _learner_config(seed)
        costs_me.append(run_onpolicy(system, k0, cfg).total_running_cost)
        e = sinusoidal_baseline(0.5, 100.0, 100, seed=seed, channels=prob.m)
        costs_base.append(run_onpolicy(system, k0, cfg, explore=e).total_running_cost)
    med_me = float(np.median(costs_me))
    med_base = float(np.median(costs_base))
    _report(11, f"median running cost maxent {med_me:.2f} <= baseline {med_base:.2f}",
            time.time() - started, 300.0, med_me <= med_base)


def test_criterion_12_sampled_control_convergence():
    started = time.time()
    a_val, b_val, k_val = -1.0, 1.0, 0.3
    model = DynamicsModel(1, 1, Linear(a=[[a_val]], b=[[b_val]]))
    gain = np.array([[k_val]])

    # deterministic limit: vanishing covariance matches explicit Euler to 1e-6
    policy0 = GaussianPolicy(gain=gain, covariance=[[1e-18]])
    dt0, steps0 = 0.1, 150
    traj = simulate_sampled(model, policy0, [1.0], dt0, steps0, seed=0)
    x = 1.0
    for _ in range(steps0):
        x = x + dt0**2 * (a_val - b_val * k_val) * x
    euler_ok = abs(traj.states[-1, 0] - x) <= 1e-6

    # stochastic runs: median terminal error vs the exact relaxed flow is
    # monotone decreasing in dt over 50 seeds
    policy = GaussianPolicy(gain=gain, covariance=[[0.25]])
    t_final = 1.0
    medians = []
    for dt in (0.1, 0.05, 0.025):
        steps = int(round(t_final / dt**2))
        errs = []
        for seed in range(50):
            tr = simulate_sampled(model, policy, [1.0], dt, steps, seed=seed)
            exact = math.exp((a_val - b_val * k_val) * tr.times[-1])
            errs.append(abs(tr.states[-1, 0] - exact))
        medians.append(float(np.median(errs)))
    monotone_ok = medians[0] > medians[1] > medians[2]
    ok = euler_ok and monotone_ok
    _report(
        12,
        f"Euler limit <= 1e-6; stochastic medians {medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f}",
        time.time() - started, 60.0, ok,
    )
