import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt import certificates
from mirropt.cfom import anti_transpose
from mirropt.certificates import (
    GradientScenario,
    check_mirror_duality,
    dual_energy_trace,
    duality_transform,
    evaluate_U,
    evaluate_V,
    inverse_duality_transform,
    primal_energy_trace,
)
from mirropt.dgf import euclidean, squared_lp
from mirropt.methods import amd_schedule, run_amd, run_dual_amd, theta_sequence
from mirropt.objectives import DiagQuadratic
from mirropt.spaces import NormIndex

from conftest import random_schedule


def _quadratic(rng, n=5, p=2.0):
    return DiagQuadratic(d=rng.uniform(0.3, 2.5, n), b=rng.standard_normal(n), norm_p=p)


def _amd_weights(N, L, sigma):
    th = theta_sequence(N)
    u = [(sigma / L) * th.sq(i) for i in range(N + 1)]
    v = [L / (sigma * th.sq(N - i)) for i in range(N + 1)]
    return u, v


def test_primal_trace_amd_monotone_and_final(rng):
    f = _quadratic(rng)
    g = euclidean()
    N = 12
    run = run_amd(f, g, rng.standard_normal(5), N)
    u, _ = _amd_weights(N, run.L, run.sigma)
    et = primal_energy_trace(run.traj, f.x_star, u, f, g)
    assert et.max_increase() <= 1e-9
    assert et.min_labeled_term() >= -1e-9
    gap = f.value(run.final_x) - f.f_star
    assert et.energies[-1] >= u[N] * gap - 1e-9
    # AMD's dual telescope makes the pairing term vanish.
    assert et.final_terms["pairing_vector_norm"] <= 1e-10
    # Certified bound agrees with the closed-form rate bound.
    assert et.final_terms["certified_bound"] == pytest.approx(run.bound, rel=1e-9)


def test_primal_trace_zero_gradient_constant(rng):
    f = DiagQuadratic(d=[0.0, 0.0], b=[0.0, 0.0])
    g = euclidean()
    run = run_amd(f, g, rng.standard_normal(2), 5, L=1.0)
    x = rng.standard_normal(2)
    u = [1.0] * 6
    et = primal_energy_trace(run.traj, x, u, f, g, L=1.0)
    d_phi = g.value(x) - g.value(run.traj.xs[0]) - float(
        g.grad(run.traj.xs[0]) @ (x - run.traj.xs[0])
    )
    for e in et.energies:
        assert e == pytest.approx(d_phi, abs=1e-12)


def test_dual_trace_amd_monotone_and_bound(rng):
    f = _quadratic(rng)
    g = euclidean()
    N = 10
    run = run_dual_amd(f, g, rng.standard_normal(5), N)
    _, v = _amd_weights(N, run.L, run.sigma)
    et = dual_energy_trace(run.dual_traj, v, f, g)
    assert et.max_increase() <= 1e-9
    assert et.min_labeled_term() >= -1e-9
    assert g.conjugate_value(run.dual_traj.rs[-1]) <= et.energies[0] + 1e-9
    assert et.final_terms["bregman_zero_r0"] >= -1e-12
    assert et.final_terms["certified_bound"] == pytest.approx(
        v[0] * (f.value(run.dual_traj.qs[0]) - f.value(run.dual_traj.qs[-1])), abs=1e-12
    )


def test_dual_trace_stationary_start_is_zero():
    f = DiagQuadratic(d=[1.0, 2.0], b=[0.1, -0.2])
    g = euclidean()
    run = run_dual_amd(f, g, f.x_star, 4)
    _, v = _amd_weights(4, run.L, run.sigma)
    et = dual_energy_trace(run.dual_traj, v, f, g)
    for e in et.energies:
        assert abs(e) <= 1e-14


def test_dual_trace_rejects_shifted_dgf(rng):
    f = _quadratic(rng)
    g = euclidean(x0=np.ones(5))
    run = run_dual_amd(f, euclidean(), rng.standard_normal(5), 3)
    _, v = _amd_weights(3, run.L, run.sigma)
    with pytest.raises(ValueError):
        dual_energy_trace(run.dual_traj, v, f, g)


def test_evaluate_u_zero_scenario(rng):
    N = 5
    s = amd_schedule(N, 1.0, 1.0)
    sc = GradientScenario(A=[np.zeros(3)] * (N + 1), B=[np.zeros(3)] * (N + 1))
    assert evaluate_U(s, [1.0] * (N + 1), 1.0, 1.0, sc) == 0.0
    assert evaluate_V(s, [1.0] * (N + 1), 1.0, 1.0, sc) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_evaluate_u_matches_trajectory(p, rng):
    f = _quadratic(rng, p=p)
    g = squared_lp(p)
    N = 8
    run = run_amd(f, g, rng.standard_normal(5), N)
    u, _ = _amd_weights(N, run.L, run.sigma)
    et = primal_energy_trace(run.traj, f.x_star, u, f, g)
    sc = GradientScenario(A=list(run.traj.f_grads), B=list(run.traj.mirrors))
    s = amd_schedule(N, run.L, run.sigma)
    closed = evaluate_U(s, u, run.L, run.sigma, sc, norm=NormIndex(p))
    assert closed == pytest.approx(et.final_terms["U_A"], abs=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_evaluate_v_matches_trajectory(p, rng):
    f = _quadratic(rng, p=p)
    g = squared_lp(p)
    N = 7
    run = run_dual_amd(f, g, rng.standard_normal(5), N)
    _, v = _amd_weights(N, run.L, run.sigma)
    et = dual_energy_trace(run.dual_traj, v, f, g)
    sc = GradientScenario(A=list(run.dual_traj.f_grads), B=list(run.dual_traj.mirrors))
    s = amd_schedule(N, run.L, run.sigma)
    closed = evaluate_V(s, v, run.L, run.sigma, sc, norm=NormIndex(p))
    assert closed == pytest.approx(et.final_terms["V_B"], abs=1e-9)


def test_amd_residuals_nonnegative_over_random_scenarios(rng):
    N, L, sigma = 6, 1.3, 1.0
    s = amd_schedule(N, L, sigma)
    u, v = _amd_weights(N, L, sigma)
    th = theta_sequence(N)
    for _ in range(200):
        A = [rng.standard_normal(4) for _ in range(N + 1)]
        B = [rng.standard_normal(4) for _ in range(N + 1)]
        sc = GradientScenario(A=A, B=B)
        assert evaluate_U(s, u, L, sigma, sc) >= -1e-9
        assert evaluate_V(s, v, L, sigma, duality_transform(u, sc)) >= -1e-9
        # Per-step AM-GM structure behind the nonnegativity.
        for k in range(N):
            term = (
                u[k] / (2 * L) * np.sum((A[k] - A[k + 1]) ** 2)
                + sigma / 2 * np.sum((B[k] - B[k + 1]) ** 2)
                + (sigma / L) * (th.sq(k) - th.sq(k - 1))
                * float((A[k] - A[k + 1]) @ (B[k + 1] - B[k]))
            )
            assert term >= -1e-9


def test_duality_transform_examples():
    zero = GradientScenario(A=[np.zeros(2)] * 2, B=[np.zeros(2)] * 2)
    t = duality_transform([1.0, 2.0], zero)
    assert all(np.all(c == 0.0) for c in t.A + t.B)
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 3.0])
    sc = GradientScenario(A=[a, b], B=[np.ones(2), np.zeros(2)])
    t = duality_transform([1.0, 2.0], sc)
    assert np.allclose(t.A[0], 2.0 * b)
    assert np.allclose(t.A[1], a + b)
    assert np.allclose(t.B[0], sc.B[1])
    assert np.allclose(t.B[1], sc.B[0])


def test_duality_transform_invertible(rng):
    N = 6
    u = np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()
    sc = GradientScenario(
        A=[rng.standard_normal(4) for _ in range(N + 1)],
        B=[rng.standard_normal(4) for _ in range(N + 1)],
    )
    back = inverse_duality_transform(u, duality_transform(u, sc))
    for x, y in zip(back.A + back.B, sc.A + sc.B):
        assert np.allclose(x, y, atol=1e-12)


def test_duality_transform_rejects_nonpositive_u():
    sc = GradientScenario(A=[np.zeros(2)] * 2, B=[np.zeros(2)] * 2)
    with pytest.raises(ValueError):
        duality_transform([1.0, 0.0], sc)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_duality_identity_random_schedules(N, seed):
    rng = np.random.default_rng(seed)
    s = random_schedule(N, rng)
    u = np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()
    rep = check_mirror_duality(s, u, L=1.7, sigma=0.8, trials=20, dim=4, seed=seed)
    assert rep.ok, rep.max_residual


def test_duality_identity_amd():
    N, L, sigma = 8, 2.0, 1.0
    s = amd_schedule(N, L, sigma)
    u, _ = _amd_weights(N, L, sigma)
    rep = check_mirror_duality(s, u, L, sigma, trials=200, dim=6, seed=0)
    assert rep.ok
    assert rep.max_residual <= 1e-9


@pytest.mark.parametrize("trials, dim", [(0, 4), (-2, 4), (5, 0)])
def test_duality_check_rejects_empty_sampling(trials, dim):
    s = amd_schedule(3, 1.0, 1.0)
    u = [float(i + 1) for i in range(4)]
    with pytest.raises(ValueError, match="trials >= 1 and dim >= 1"):
        check_mirror_duality(s, u, 1.0, 1.0, trials=trials, dim=dim)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_duality_check_rejects_a_bad_tolerance(tol):
    """A negative or nan tolerance fails every trial and an infinite one passes any."""
    s = amd_schedule(3, 1.0, 1.0)
    u = [float(i + 1) for i in range(4)]
    with pytest.raises(ValueError, match="0 <= tol < inf"):
        check_mirror_duality(s, u, 1.0, 1.0, trials=5, tol=tol)


def test_duality_check_reports_mismatched_v():
    N, L, sigma = 5, 1.0, 1.0
    s = amd_schedule(N, L, sigma)
    u, _ = _amd_weights(N, L, sigma)
    bad_v = [1.1 / u[N - i] for i in range(N + 1)]
    rep = check_mirror_duality(s, u, L, sigma, trials=20, dim=4, seed=0, v=bad_v)
    assert not rep.ok
    assert len(rep.failures) > 0
    doc = rep.to_json_dict()
    assert set(doc) == {"trials", "max_residual", "failures", "tol"}


def _per_trial_check(s, u, L, sigma, trials, dim, norm=None, tol=1e-9, seed=0, v=None):
    """check_mirror_duality as one scenario per trial: the reference for the batched form."""
    rng = np.random.default_rng(seed)
    N = s.N
    v = [1.0 / u[N - i] for i in range(N + 1)] if v is None else v
    max_res, failures = 0.0, []
    for t in range(trials):
        A = [rng.standard_normal(dim) for _ in range(N + 1)]
        B = [rng.standard_normal(dim) for _ in range(N + 1)]
        sc = GradientScenario(A=A, B=B)
        u_val = evaluate_U(s, u, L, sigma, sc, norm=norm)
        v_val = evaluate_V(s, v, L, sigma, duality_transform(u, sc), norm=norm)
        res = abs(u_val - v_val) / (1.0 + abs(u_val))
        max_res = max(max_res, res)
        if res > tol:
            failures.append({"trial": t, "U": u_val, "V": v_val, "residual": res})
    return max_res, failures


def _assert_same_report(rep, max_res, failures):
    assert [f["trial"] for f in rep.failures] == [f["trial"] for f in failures]
    for got, want in zip(rep.failures, failures):
        assert all(type(got[k]) is type(want[k]) for k in want)  # plain JSON values
        assert got["U"] == pytest.approx(want["U"], rel=1e-12)
        assert got["V"] == pytest.approx(want["V"], rel=1e-12)
    if failures:
        assert rep.max_residual == pytest.approx(max_res, rel=1e-10)
    else:  # roundoff on both sides
        assert max(rep.max_residual, max_res) <= 1e-12


def _schedules(rng):
    N = 7
    u_amd, _ = _amd_weights(N, 1.4, 0.8)
    yield amd_schedule(N, 1.4, 0.8), u_amd
    for N in (1, 4, 9):
        yield random_schedule(N, rng), np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("v_scale", [1.0, 1.1])
def test_duality_check_matches_per_trial_loop(p, v_scale, rng):
    for s, u in _schedules(rng):
        N = s.N
        v = [v_scale / u[N - i] for i in range(N + 1)]
        kw = dict(L=1.4, sigma=0.8, trials=60, dim=3, norm=NormIndex(p), seed=5, v=v)
        rep = check_mirror_duality(s, u, **kw)
        max_res, failures = _per_trial_check(s, u, **kw)
        assert rep.trials == 60
        assert len(failures) == (0 if v_scale == 1.0 else 60)
        _assert_same_report(rep, max_res, failures)


def test_duality_check_is_independent_of_the_block(monkeypatch):
    N, L, sigma = 6, 1.0, 1.0
    s = amd_schedule(N, L, sigma)
    u, _ = _amd_weights(N, L, sigma)
    v = [1.1 / u[N - i] for i in range(N + 1)]
    whole = check_mirror_duality(s, u, L, sigma, trials=50, dim=4, seed=3, v=v)
    monkeypatch.setattr(certificates, "TRIAL_BLOCK", 7)
    blocked = check_mirror_duality(s, u, L, sigma, trials=50, dim=4, seed=3, v=v)
    _assert_same_report(blocked, whole.max_residual, whole.failures)
    assert [f["residual"] for f in blocked.failures] == pytest.approx(
        [f["residual"] for f in whole.failures], rel=1e-12)


def test_duality_check_fails_overflowed_trials():
    # ||A_k - A_{k+1}||^2 overflows: the residuals are nan and must not pass.
    N = 4
    s = amd_schedule(N, 1.0, 1.0)
    u, _ = _amd_weights(N, 1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_mirror_duality(s, u, 1.0, 1.0, trials=5, dim=3, magnitude=1e160)
    assert not rep.ok
    assert [f["trial"] for f in rep.failures] == list(range(5))
    assert np.isnan(rep.max_residual)


# The list-based closed forms that the stacked core replaced: each call
# stacks its families from per-step lists, and the check goes through a
# GradientScenario per block.  The core must match them byte for byte.
def _ref_stacked(scenario):
    return np.stack(scenario.A, axis=-2), np.stack(scenario.B, axis=-2)


def _ref_norm_sums(w, X, Y, L, sigma, norm):
    p = norm.p if norm is not None else 2.0
    q = norm.q if norm is not None else 2.0
    dX = np.sum(np.abs(np.diff(X, axis=-2)) ** q, axis=-1) ** (2.0 / q)
    dY = np.sum(np.abs(np.diff(Y, axis=-2)) ** p, axis=-1) ** (2.0 / p)
    return dX @ w / (2.0 * L) + sigma / 2.0 * np.sum(dY, axis=-1)


def _ref_evaluate_U(s, u, L, sigma, scenario, norm=None):
    A, B = _ref_stacked(scenario)
    u = np.asarray(u, dtype=np.float64)
    x0 = B[..., :1, :]
    xs = np.concatenate([x0, x0 - np.cumsum(s.b[1:] @ B, axis=-2)], axis=-2)
    dA = -np.diff(A, axis=-2, append=0.0)
    return (_ref_norm_sums(u[:-1], A, B, L, sigma, norm)
            + np.sum((s.a[1:] @ A) * B[..., 1:, :], axis=(-2, -1))
            - np.sum(u[:, None] * dA * xs, axis=(-2, -1)))


def _ref_evaluate_V(s, v, L, sigma, scenario, norm=None):
    C, D = _ref_stacked(scenario)
    v = np.asarray(v, dtype=np.float64)
    a_dual, b_dual = anti_transpose(s.a), anti_transpose(s.b)
    bracket = v[1:, None] * C[..., 1:, :] - np.cumsum(np.diff(v)[:, None] * C[..., :-1, :], axis=-2)
    return (_ref_norm_sums(v[1:], C, D, L, sigma, norm)
            + np.sum((b_dual @ C) * D, axis=(-2, -1))
            + np.sum(bracket * (a_dual[1:] @ D), axis=(-2, -1)))


def _ref_duality_transform(u, scenario):
    u = np.asarray(u, dtype=np.float64)
    dA = -np.diff(np.stack(scenario.A, axis=-2), axis=-2, append=0.0)
    C = np.cumsum((u[:, None] * dA)[..., ::-1, :], axis=-2)
    return GradientScenario(A=list(np.moveaxis(C, -2, 0)), B=scenario.B[::-1])


def _ref_check(s, u, L, sigma, trials, dim, norm=None, magnitude=1.0, tol=1e-9, seed=0, v=None):
    rng = np.random.default_rng(seed)
    u = [float(x) for x in u]
    N = s.N
    v = [1.0 / u[N - i] for i in range(N + 1)] if v is None else v
    max_res, failures = 0.0, []
    for start in range(0, trials, certificates.TRIAL_BLOCK):
        AB = magnitude * rng.standard_normal((min(certificates.TRIAL_BLOCK, trials - start), 2, N + 1, dim))
        sc = GradientScenario(A=list(AB[:, 0].swapaxes(0, 1)), B=list(AB[:, 1].swapaxes(0, 1)))
        u_val = _ref_evaluate_U(s, u, L, sigma, sc, norm=norm)
        v_val = _ref_evaluate_V(s, v, L, sigma, _ref_duality_transform(u, sc), norm=norm)
        res = np.abs(u_val - v_val) / (1.0 + np.abs(u_val))
        max_res = float(np.maximum(max_res, np.max(res)))
        failures += [{"trial": start + int(t), "U": float(u_val[t]), "V": float(v_val[t]),
                      "residual": float(res[t])} for t in np.flatnonzero(~(res <= tol))]
    return {"trials": trials, "max_residual": max_res, "failures": failures, "tol": tol}


def _core_cases(rng):
    """(schedule, u, v): AMD and random schedules at several N, with the conjugate v."""
    for N in (1, 7, 20):
        u, v = _amd_weights(N, 1.4, 0.8)
        yield amd_schedule(N, 1.4, 0.8), u, v
    for N in (1, 4, 9, 16):
        u = np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()
        yield random_schedule(N, rng), u, [1.0 / u[N - i] for i in range(N + 1)]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [None, 1.5])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
def test_stacked_core_matches_list_reference(p, batch, rng):
    """evaluate_U, evaluate_V and duality_transform equal the list-based forms byte for byte."""
    norm = NormIndex(p) if p else None
    d = 3
    for s, u, v in _core_cases(rng):
        N = s.N
        sc = GradientScenario(A=list(rng.standard_normal((N + 1,) + batch + (d,))),
                              B=list(rng.standard_normal((N + 1,) + batch + (d,))))
        assert _same_bytes(evaluate_U(s, u, 1.4, 0.8, sc, norm=norm),
                           _ref_evaluate_U(s, u, 1.4, 0.8, sc, norm=norm))
        dual, ref = duality_transform(u, sc), _ref_duality_transform(u, sc)
        assert all(_same_bytes(x, y) for x, y in zip(dual.A + dual.B, ref.A + ref.B))
        assert len(dual.A) == len(ref.A) == N + 1
        assert _same_bytes(evaluate_V(s, v, 1.4, 0.8, dual, norm=norm),
                           _ref_evaluate_V(s, v, 1.4, 0.8, ref, norm=norm))


@pytest.mark.parametrize("p", [None, 1.5])
@pytest.mark.parametrize("v_scale", [1.0, 1.1])
def test_duality_check_matches_list_reference(p, v_scale, rng, monkeypatch):
    """check_mirror_duality's report is byte-identical to the list-based check's, in one
    block and across several, with the conjugate v and with a perturbed one."""
    norm = NormIndex(p) if p else None
    for block in (certificates.TRIAL_BLOCK, 7):
        monkeypatch.setattr(certificates, "TRIAL_BLOCK", block)
        for s, u, v in _core_cases(rng):
            v = [v_scale * x for x in v]
            kw = dict(L=1.4, sigma=0.8, trials=30, dim=4, norm=norm, seed=11, v=v)
            rep = check_mirror_duality(s, u, **kw).to_json_dict()
            assert json.dumps(rep) == json.dumps(_ref_check(s, u, **kw))
            assert len(rep["failures"]) == (0 if v_scale == 1.0 else 30)


@pytest.mark.parametrize("p", [None, 1.5])
def test_batched_scenario_matches_single_scenarios(p, rng):
    T, N, d = 5, 6, 3
    s = random_schedule(N, rng)
    u = np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()
    v = rng.uniform(0.1, 1.0, N + 1).tolist()
    norm = NormIndex(p) if p else None
    A = rng.standard_normal((N + 1, T, d))
    B = rng.standard_normal((N + 1, T, d))
    batch = GradientScenario(A=list(A), B=list(B))
    singles = [GradientScenario(A=list(A[:, t]), B=list(B[:, t])) for t in range(T)]
    got_u = evaluate_U(s, u, 1.3, 0.7, batch, norm=norm)
    got_v = evaluate_V(s, v, 1.3, 0.7, batch, norm=norm)
    assert got_u.shape == got_v.shape == (T,)
    assert got_u == pytest.approx([evaluate_U(s, u, 1.3, 0.7, sc, norm=norm) for sc in singles],
                                  rel=1e-13)
    assert got_v == pytest.approx([evaluate_V(s, v, 1.3, 0.7, sc, norm=norm) for sc in singles],
                                  rel=1e-13)
    for transform in (duality_transform, inverse_duality_transform):
        out = transform(u, batch)
        for t, sc in enumerate(singles):
            one = transform(u, sc)
            for x, y in zip(out.A + out.B, one.A + one.B):
                assert np.allclose(x[t], y, rtol=1e-14, atol=1e-14)


def test_single_scenario_values_are_floats(rng):
    N = 4
    s = random_schedule(N, rng)
    u = np.cumsum(rng.uniform(0.1, 1.0, N + 1)).tolist()
    sc = GradientScenario(A=list(rng.standard_normal((N + 1, 3))),
                          B=list(rng.standard_normal((N + 1, 3))))
    assert type(evaluate_U(s, u, 1.0, 1.0, sc)) is float
    assert type(evaluate_V(s, u, 1.0, 1.0, duality_transform(u, sc))) is float


def test_scenario_validation():
    with pytest.raises(ValueError):
        GradientScenario(A=[np.zeros(2)], B=[np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        GradientScenario(A=[np.zeros(2), np.zeros(3)], B=[np.zeros(2), np.zeros(2)])
