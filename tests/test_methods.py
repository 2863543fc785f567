import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.cfom import run_cfom, run_mirror_dual, validate_schedule
from mirropt.dgf import euclidean, squared_lp
from mirropt.methods import (
    amd_schedule,
    run_amd,
    run_concat,
    run_dual_amd,
    run_dual_md,
    run_md,
    sample_relative_convexity,
    theta_sequence,
)
from mirropt.objectives import DiagQuadratic
from mirropt.spaces import lp_norm


def _quadratic(rng, n=5, p=2.0):
    return DiagQuadratic(d=rng.uniform(0.3, 2.5, n), b=rng.standard_normal(n), norm_p=p)


def test_theta_first_values():
    th = theta_sequence(4)
    assert th[-1] == 0.0
    assert th[-3] == 0.0
    assert th[0] == 1.0
    assert th[1] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert th[2] == pytest.approx(2.1935, abs=1e-4)


def test_theta_last_repeats_and_recursion():
    for N in (1, 2, 5, 40):
        th = theta_sequence(N)
        assert th[N] == th[N - 1]
        for i in range(1, N):
            assert abs(th.sq(i) - th[i] - th.sq(i - 1)) <= 1e-12
        for i in range(N + 1):
            assert th[i] >= (i + 2) / 2.0 - 1.0  # theta_i >= (i+2)/2 for i <= N-1
        for i in range(N):
            assert th[i] >= (i + 2) / 2.0


def test_theta_rejects_n_zero():
    with pytest.raises(ValueError):
        theta_sequence(0)


def test_md_equals_gradient_descent(rng):
    f = _quadratic(rng)
    y0 = rng.standard_normal(5)
    run = run_md(f, euclidean(), 1.0 / f.L, y0, 10)
    x = y0.copy()
    for k in range(10):
        x = x - (1.0 / f.L) * f.grad(x)
        assert np.allclose(run.traj.xs[k + 1], x, atol=1e-12)


def test_md_rate_example():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    run = run_md(f, euclidean(), 0.25, np.array([1.0, 1.0]), 100)
    gap = f.value(run.final_x) - f.f_star
    assert gap <= run.bound + 1e-9
    assert run.bound == pytest.approx(0.5 * 2.0 * 4.0 / 100.0, rel=1e-12)
    assert gap <= 1e-6


def test_md_stationary_start():
    f = DiagQuadratic(d=[1.0, 2.0], b=[0.3, -0.4])
    run = run_md(f, euclidean(), 0.5, f.grad(f.x_star) + f.x_star, 1)
    assert np.allclose(run.traj.xs[1], run.traj.xs[0])


def test_dual_md_bound_and_gradient_identity(rng):
    f = _quadratic(rng)
    q0 = rng.standard_normal(5)
    run = run_dual_md(f, euclidean(), 1.0 / f.L, q0, 40)
    for q, r in zip(run.dual_traj.qs, run.dual_traj.rs):
        assert np.allclose(r, f.grad(q), atol=1e-12)
    final = 0.5 * lp_norm(run.dual_traj.rs[-1], 2) ** 2
    assert final <= run.bound + 1e-9


def test_dual_md_stationary_start():
    f = DiagQuadratic(d=[1.0, 2.0], b=[0.3, -0.4])
    run = run_dual_md(f, euclidean(), 0.5, f.x_star, 3)
    for q in run.dual_traj.qs:
        assert np.allclose(q, f.x_star)


def test_amd_n1_closed_form(rng):
    f = _quadratic(rng)
    g = euclidean()
    y0 = rng.standard_normal(5)
    run = run_amd(f, g, y0, 1)
    y1 = y0 - (1.0 / f.L) * f.grad(g.conjugate_grad(y0))
    assert np.allclose(run.traj.ys[1], y1, atol=1e-12)
    assert np.allclose(run.traj.xs[1], g.conjugate_grad(y1), atol=1e-12)


def test_amd_rate_bound(rng):
    for N in (1, 5, 50):
        f = _quadratic(rng)
        run = run_amd(f, euclidean(), rng.standard_normal(5), N)
        gap = f.value(run.final_x) - f.f_star
        assert gap <= run.bound + 1e-9


def test_amd_zero_gradient_stationary():
    f = DiagQuadratic(d=[0.0, 0.0], b=[0.0, 0.0])
    run = run_amd(f, euclidean(), np.array([0.4, -0.2]), 5, L=1.0)
    for x in run.traj.xs:
        assert np.allclose(x, run.traj.xs[0])


def test_amd_hull_weights(rng):
    # Each x_k is a convex combination of the mirrored points.
    f = _quadratic(rng)
    N = 8
    s = amd_schedule(N, f.L, 1.0)
    w = np.zeros(N + 1)
    w[0] = 1.0
    for k in range(1, N + 1):
        w[: k + 1] -= s.b[k, : k + 1]
        assert np.all(w >= -1e-10)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-10)


def test_amd_pairing_telescope(rng):
    # y_N - y_0 + sum_i (u_i - u_{i-1}) grad f(x_i) = 0 with u_i = (sigma/L) theta_i^2.
    f = _quadratic(rng)
    N = 9
    run = run_amd(f, euclidean(), rng.standard_normal(5), N)
    th = run.theta
    u = [(run.sigma / run.L) * th.sq(i) for i in range(N + 1)]
    acc = run.traj.ys[N] - run.traj.ys[0]
    prev = 0.0
    for i in range(N + 1):
        acc = acc + (u[i] - prev) * run.traj.f_grads[i]
        prev = u[i]
    assert np.max(np.abs(acc)) <= 1e-10


def _amd_schedule_by_index(N, L, sigma):
    """amd_schedule's coefficients written entry by entry, as the reference."""
    th = theta_sequence(N)
    a = np.zeros((N + 1, N + 1))
    b = np.zeros((N + 1, N + 1))
    b[0, 0] = -1.0
    for k in range(N):
        a[k + 1, k] = (sigma / L) * (th.sq(k) - th.sq(k - 1))
        for s in range(1, k):
            b[k + 1, s] = (th.sq(s - 1) - th.sq(s - 2)) * (1.0 / th.sq(k) - 1.0 / th.sq(k + 1))
        b[k + 1, k] = (th.sq(k) - th.sq(k - 2)) / th.sq(k) - (th.sq(k - 1) - th.sq(k - 2)) / th.sq(k + 1)
        b[k + 1, k + 1] = -(th.sq(k + 1) - th.sq(k - 1)) / th.sq(k + 1)
    return a, b


def test_amd_schedule_validity_and_first_coefficient():
    for N in (1, 2, 3, 8, 57):
        s = amd_schedule(N, 2.0, 0.5)
        assert validate_schedule(s).ok
        assert s.a[1, 0] == pytest.approx(0.25)  # sigma/L at k = 0
        a, b = _amd_schedule_by_index(N, 2.0, 0.5)
        assert np.array_equal(s.a, a) and np.array_equal(s.b, b)


def test_amd_schedule_executes_to_amd(rng):
    f = _quadratic(rng, p=1.5)
    g = squared_lp(1.5)
    N = 6
    s = amd_schedule(N, f.L, g.sigma)
    y0 = rng.standard_normal(5)
    tr = run_cfom(s, f, g, y0)
    closed = run_amd(f, g, y0, N)
    for a, b in zip(tr.xs, closed.traj.xs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_dual_amd_gradient_identity_and_bound(rng):
    for N in (1, 2, 10, 30):
        f = _quadratic(rng)
        run = run_dual_amd(f, euclidean(), rng.standard_normal(5), N)
        rN = run.dual_traj.rs[-1]
        gN = f.grad(run.dual_traj.qs[-1])
        assert np.linalg.norm(rN - gN) <= 1e-9 * (1.0 + np.linalg.norm(gN))
        assert 0.5 * np.linalg.norm(rN) ** 2 <= run.bound + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.sampled_from([1.2, 1.5, 2.0]), st.integers(0, 10_000))
def test_dual_amd_equals_mirror_dual_of_amd(N, p, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    f = DiagQuadratic(d=rng.uniform(0.3, 2.5, n), b=rng.standard_normal(n), norm_p=p)
    g = squared_lp(p)
    s = amd_schedule(N, f.L, g.sigma)
    q0 = rng.standard_normal(n)
    dt = run_mirror_dual(s, f, g, q0)
    closed = run_dual_amd(f, g, q0, N)
    for a, b in zip(dt.qs, closed.dual_traj.qs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)
    for a, b in zip(dt.rs, closed.dual_traj.rs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_dual_amd_stationary_start():
    f = DiagQuadratic(d=[1.0, 2.0], b=[0.3, -0.4])
    run = run_dual_amd(f, euclidean(), f.x_star, 4)
    assert np.allclose(run.dual_traj.rs[0], 0.0)
    for q in run.dual_traj.qs:
        assert np.allclose(q, f.x_star)
    assert euclidean().conjugate_value(run.dual_traj.rs[-1]) == 0.0


def test_concat_chaining_and_bound(rng):
    f = _quadratic(rng)
    g = euclidean()
    run = run_concat(f, g, g, rng.standard_normal(5), 10)
    assert np.array_equal(run.dual_amd.dual_traj.qs[0], run.amd.traj.xs[-1])
    final = 0.5 * np.linalg.norm(f.grad(run.final_x)) ** 2
    assert final <= run.bound + 1e-9


def test_concat_lq_geometry(rng):
    p = 1.5
    f = _quadratic(rng, p=p)
    x0 = rng.standard_normal(5)
    phi = squared_lp(p)
    run = run_concat(f, phi, squared_lp(p), phi.grad(x0), 8)
    th = run.amd.theta
    q = p / (p - 1.0)
    lhs = lp_norm(f.grad(run.final_x), q)
    rhs = f.L * lp_norm(x0 - f.x_star, p) / ((p - 1.0) * th.sq(8))
    assert lhs <= rhs + 1e-9


def test_step_size_validation():
    f = DiagQuadratic(d=[1.0], b=[0.0])
    with pytest.raises(ValueError):
        run_md(f, euclidean(), 0.0, np.zeros(1), 3)
    with pytest.raises(ValueError):
        run_dual_md(f, euclidean(), -1.0, np.zeros(1), 3)
    with pytest.raises(ValueError):
        run_amd(f, euclidean(), np.zeros(1), 0)


def test_relative_convexity_sampler(rng):
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    g = euclidean()
    ok = sample_relative_convexity(g.value, f.value, lam=4.0, dim=2, trials=50, seed=3)
    assert ok >= -1e-10
    bad = sample_relative_convexity(g.value, f.value, lam=0.5, dim=2, trials=50, seed=3)
    assert bad < 0.0
