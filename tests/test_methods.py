import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.cfom import CoefficientSchedule, run_cfom, run_mirror_dual, validate_schedule
from mirropt import methods
from mirropt.dgf import euclidean, squared_lp
from mirropt.methods import (
    AMDPath,
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


def _theta_direct(N):
    vals = np.empty(N + 1)
    vals[0] = 1.0
    for i in range(1, N):
        vals[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * vals[i - 1] ** 2))
    vals[N] = vals[N - 1]
    return vals


def test_theta_prefix_equals_direct_recurrence_in_any_order(monkeypatch):
    """theta_sequence serves every N from one shared prefix, with the recurrence's floats.

    The prefix starts at theta_0 alone and grows as shuffled horizons ask
    for it.  Each call returns its own array: writing into one changes no
    later call.
    """
    monkeypatch.setattr(methods, "_THETA_PREFIX", np.ones(1))
    horizons = np.random.default_rng(7).permutation(np.arange(1, 1101)).tolist()
    direct = {N: _theta_direct(N) for N in horizons}
    for N in horizons:
        th = theta_sequence(N)
        assert th.N == N and np.array_equal(th.values, direct[N])
        th.values[:] = -1.0
    for N in (1, 2, 640, 1100):
        assert np.array_equal(theta_sequence(N).values, direct[N])


def test_theta_prefix_under_concurrent_extension(monkeypatch):
    """Threads that extend the shared prefix at once each get the recurrence's floats.

    Every thread asks for N = 1, 2, ..., so nearly every call races the
    others to extend the prefix by one entry.
    """
    monkeypatch.setattr(methods, "_THETA_PREFIX", np.ones(1))
    direct = _theta_direct(2000)
    wrong = []

    def work():
        for N in range(1, 2001):
            vals = theta_sequence(N).values
            if not (np.array_equal(vals[:N], direct[:N]) and vals[N] == vals[N - 1]):
                wrong.append(N)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("horizons", [[1, 2, 4, 8, 16, 32], [3, 4, 9, 10, 25]])
def test_amd_path_output_equals_run_amd(rng, p, horizons):
    f = _quadratic(rng, p=p)
    g = euclidean() if p == 2.0 else squared_lp(p)
    y0 = rng.standard_normal(5)
    path = AMDPath(f, g, y0)
    for N in horizons:
        assert np.array_equal(path.output(N), run_amd(f, g, y0, N).traj.xs[-1])
    assert len(path.f_grads) == horizons[-1]  # grad f at x_0 .. x_{N-1}, each once
    with pytest.raises(ValueError):
        path.output(0)


def _reference_amd(f, g, y0, N, L, sigma):
    """AMD as one loop over theta_sequence(N): (ys, xs, f_grads, mirrors)."""
    th = theta_sequence(N)
    ys, mirrors = [y0], [g.conjugate_grad(y0)]
    xs = [mirrors[0]]
    f_grads = [f.grad(xs[0])]
    for k in range(N):
        ys.append(ys[k] - (sigma / L) * (th.sq(k) - th.sq(k - 1)) * f_grads[k])
        mirrors.append(g.conjugate_grad(ys[-1]))
        tk1 = th.sq(k + 1)
        xs.append(
            th.sq(k) / tk1 * xs[k]
            + (tk1 - th.sq(k)) / tk1 * mirrors[k + 1]
            + (th.sq(k) - th.sq(k - 1)) / tk1 * (mirrors[k + 1] - mirrors[k])
        )
        f_grads.append(f.grad(xs[-1]))
    return ys, xs, f_grads, mirrors


def _reference_dual_amd(f, g, q0, N, L, sigma):
    """Dual-AMD as one loop over theta_sequence(N): (qs, rs, f_grads, mirrors)."""
    th = theta_sequence(N)
    qs, f_grads = [q0], [f.grad(q0)]
    rs = [(th.sq(N) - th.sq(N - 2)) / th.sq(N) * f_grads[0]]
    gk = f_grads[0] / th.sq(N - 1)
    mirrors = [g.conjugate_grad(rs[0])]
    for k in range(N):
        qs.append(qs[k] - (sigma / L) * (th.sq(N - k - 1) - th.sq(N - k - 2)) * mirrors[k])
        f_grads.append(f.grad(qs[-1]))
        g_next = gk + (f_grads[k + 1] - f_grads[k]) / th.sq(N - k - 1)
        rs.append(
            rs[k]
            + (th.sq(N - k - 1) - th.sq(N - k - 2)) * (g_next - gk)
            + (th.sq(N - k - 2) - th.sq(N - k - 3)) * g_next
        )
        mirrors.append(g.conjugate_grad(rs[-1]))
        gk = g_next
    return qs, rs, f_grads, mirrors


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("N", [1, 2, 5, 16, 37])
def test_amd_runners_equal_reference_loops(rng, p, N):
    """The path-built run_amd and run_dual_amd give the reference loops' floats."""
    f = _quadratic(rng, p=p)
    g = euclidean() if p == 2.0 else squared_lp(p)
    start = rng.standard_normal(5)
    tr = run_amd(f, g, start, N).traj
    for got, want in zip((tr.ys, tr.xs, tr.f_grads, tr.mirrors), _reference_amd(f, g, start, N, f.L, g.sigma)):
        assert np.array_equal(np.array(got), np.array(want))
    tr = run_dual_amd(f, g, start, N).dual_traj
    for got, want in zip((tr.qs, tr.rs, tr.f_grads, tr.mirrors),
                         _reference_dual_amd(f, g, start, N, f.L, g.sigma)):
        assert np.array_equal(np.array(got), np.array(want))


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


def _md_schedule(N, alpha):
    """MD as a CFOM: a[k+1, k] = alpha, b diagonal -1 and subdiagonal +1, so x_k = grad phi*(y_k)."""
    k = np.arange(N)
    a, b = np.zeros((N + 1, N + 1)), -np.eye(N + 1)
    a[k + 1, k] = alpha
    b[k + 1, k] = 1.0
    return CoefficientSchedule(N=N, a=a, b=b)


def _max_rel_err(got, want):
    got, want = np.array(got), np.array(want)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("N", [1, 2, 9, 40])
def test_md_runners_equal_executor_on_md_schedule(rng, p, N):
    """The paper's MD <-> dual-MD correspondence: the closed-form dual-MD runs
    the mirror dual (anti-transpose) of MD's schedule, and MD runs the schedule."""
    f = _quadratic(rng, p=p)
    g = euclidean() if p == 2.0 else squared_lp(p)
    alpha = g.sigma / f.L
    s = _md_schedule(N, alpha)
    assert validate_schedule(s).ok
    start = rng.standard_normal(5)
    dual, closed = run_mirror_dual(s, f, g, start), run_dual_md(f, g, alpha, start, N).dual_traj
    for got, want in ((dual.qs, closed.qs), (dual.rs, closed.rs), (dual.mirrors, closed.mirrors)):
        assert _max_rel_err(got, want) <= 1e-12
    primal, closed = run_cfom(s, f, g, start), run_md(f, g, alpha, start, N).traj
    for got, want in ((primal.ys, closed.ys), (primal.xs, closed.xs), (primal.f_grads, closed.f_grads)):
        assert _max_rel_err(got, want) <= 1e-12


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


class _ConstantGradient:
    """A one-dimensional objective whose gradient is the constant c."""

    x_star = f_star = None
    L = 1.0

    def __init__(self, c):
        self.c = c

    def grad(self, x):
        return np.array([self.c])


@pytest.mark.parametrize("run, start, L, message", [
    (run_amd, [1.0, 1.0], 1e-3, "non-finite dual iterate y at iteration 80"),
    (run_dual_amd, [1.0, -1.0], 1e-3, "non-finite dual iterate r at iteration 79"),
    (run_dual_amd, [1.0, -1.0], 1e-6, "non-finite primal iterate q at iteration 45"),
])
def test_diverging_amd_runners_name_the_iterate(run, start, L, message):
    """L far below the true constant 4: the runners stop at the first non-finite iterate."""
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
        run(f, euclidean(), np.array(start), 400, L=L, sigma=1.0)
    assert str(err.value) == message


def test_amd_primal_iterate_check_names_x():
    """y_0 = 0 and y_1 = 5e307 are finite, but the shifted mirror y_1 + 1.5e308 is not."""
    f = _ConstantGradient(-5e307)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
        run_amd(f, euclidean(x0=np.array([1.5e308])), np.zeros(1), 3, sigma=1.0)
    assert str(err.value) == "non-finite primal iterate x at iteration 1"


def test_relative_convexity_sampler(rng):
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    g = euclidean()
    ok = sample_relative_convexity(g.value, f.value, lam=4.0, dim=2, trials=50, seed=3)
    assert ok >= -1e-10
    bad = sample_relative_convexity(g.value, f.value, lam=0.5, dim=2, trials=50, seed=3)
    assert bad < 0.0
