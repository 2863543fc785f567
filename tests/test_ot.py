import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt import ot
from mirropt.ot import (
    OTDualObjective,
    OTInstance,
    TransportPlan,
    _Certified,
    _CountingObjective,
    _gibbs,
    _LOG_TINY,
    lp_oracle,
    ot_dual_grad,
    ot_dual_value,
    plan_from_dual,
    round_plan,
    solve_ot,
)
from mirropt.dgf import euclidean
from mirropt.methods import run_concat
from mirropt.objectives import smoothness_constant
from mirropt.spaces import bregman, finite_difference_gradient, lp_norm


def _uniform2():
    return OTInstance(C=[[0.0, 1.0], [1.0, 0.0]], mu=[0.5, 0.5], nu=[0.5, 0.5])


def _random_instance(rng, m, n):
    return OTInstance(
        C=rng.uniform(0, 1, (m, n)),
        mu=rng.dirichlet(np.ones(m) * 3),
        nu=rng.dirichlet(np.ones(n) * 3),
    )


def test_instance_validation():
    with pytest.raises(ValueError):
        OTInstance(C=[[0.0, 1.0]], mu=[0.6, 0.5], nu=[0.5, 0.5])  # mu sums to 1.1
    with pytest.raises(ValueError):
        OTInstance(C=[[-1.0, 0.0]], mu=[1.0], nu=[0.5, 0.5])
    with pytest.raises(ValueError):
        OTInstance(C=[[0.0, 1.0]], mu=[1.0], nu=[1.0, 0.0])  # zero support
    with pytest.raises(ValueError):
        OTInstance(C=[[0.0, 1.0]], mu=[1.0, 0.0], nu=[0.5, 0.5])  # shape mismatch


@pytest.mark.parametrize("field, bad", [
    ("C", [[0.0, math.nan], [1.0, 0.0]]),
    ("C", [[0.0, math.inf], [1.0, 0.0]]),
    ("mu", [math.nan, 0.5]),
    ("nu", [0.5, math.inf]),
])
def test_instance_rejects_non_finite(field, bad):
    doc = {"C": [[0.0, 1.0], [1.0, 0.0]], "mu": [0.5, 0.5], "nu": [0.5, 0.5], field: bad}
    with pytest.raises(ValueError, match="finite"):
        OTInstance(**doc)


def test_dual_value_zero_cost_example():
    inst = OTInstance(C=np.zeros((2, 2)), mu=[0.5, 0.5], nu=[0.5, 0.5])
    val = ot_dual_value(inst, 1.0, np.zeros(2), np.zeros(2))
    assert val == pytest.approx(math.log(4.0), abs=1e-12)


def test_dual_value_rejects_bad_temperature():
    with pytest.raises(ValueError):
        ot_dual_value(_uniform2(), 0.0, np.zeros(2), np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(st.floats(-5, 5), st.integers(0, 10_000))
def test_dual_value_translation_invariance(t, seed):
    rng = np.random.default_rng(seed)
    inst = _random_instance(rng, 2, 3)
    u = rng.standard_normal(2)
    v = rng.standard_normal(3)
    base = ot_dual_value(inst, 0.3, u, v)
    shifted = ot_dual_value(inst, 0.3, u + t, v - t)
    assert shifted == pytest.approx(base, abs=1e-10)


def test_dual_grad_symmetric_zero():
    inst = OTInstance(C=np.zeros((2, 2)), mu=[0.5, 0.5], nu=[0.5, 0.5])
    gu, gv = ot_dual_grad(inst, 1.0, np.zeros(2), np.zeros(2))
    assert np.allclose(gu, 0.0, atol=1e-15)
    assert np.allclose(gv, 0.0, atol=1e-15)


def test_dual_grad_blocks_sum_to_zero(rng):
    inst = _random_instance(rng, 3, 4)
    for _ in range(20):
        gu, gv = ot_dual_grad(inst, 0.2, rng.standard_normal(3), rng.standard_normal(4))
        assert abs(np.sum(gu)) <= 1e-12
        assert abs(np.sum(gv)) <= 1e-12


def test_dual_grad_matches_finite_differences(rng):
    inst = _random_instance(rng, 2, 3)
    h = OTDualObjective(inst, r=0.4)
    for _ in range(10):
        z = rng.standard_normal(5)
        fd = finite_difference_gradient(h.value, z)
        assert np.allclose(h.grad(z), fd, rtol=1e-6, atol=1e-6)


def test_dual_objective_cocoercivity_sup_norm(rng):
    # 4/r is the sup-norm constant of the coupled dual; the l2 value 1/r
    # used by the solver fails this sampler.
    inst = _random_instance(rng, 2, 3)
    h = OTDualObjective(inst, r=0.3)
    L = smoothness_constant(h, np.inf)
    for _ in range(30):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        d = bregman(h.value, h.grad, x, y)
        assert d >= lp_norm(h.grad(x) - h.grad(y), 1) ** 2 / (2.0 * L) - 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_objective_grad_equals_ot_dual_grad(rng, scale):
    """The objective's reused kernel buffer gives ot_dual_grad's floats, also at large |u|/r."""
    inst = _random_instance(rng, 7, 5)
    h = OTDualObjective(inst, r=0.01)
    for _ in range(3):
        z = scale * rng.standard_normal(12)
        gu, gv = ot_dual_grad(inst, 0.01, z[:7], z[7:])
        assert np.array_equal(h.grad(z), np.concatenate([gu, gv]))


def _log_domain(inst, r, z):
    """Gradient and plan from the log-domain kernel alone."""
    m = inst.shape[0]
    P = _gibbs(inst, r, z[:m], z[m:], np.empty(inst.shape))
    return np.concatenate([P.sum(axis=1) - inst.mu, P.sum(axis=0) - inst.nu]), P


@pytest.mark.parametrize("m, n, cost", [(20, 30, "uniform"), (40, 40, "euclid")])
def test_scaling_form_matches_log_domain_below_gate(rng, m, n, cost):
    """Just below the gate (C.max()/r = 0.999 * -log(tiny)) the two forms agree to 1e-13."""
    inst = _random_instance(rng, m, n)
    if cost == "euclid":
        x, y = rng.uniform(0, 1, (m, 2)), rng.uniform(0, 1, (n, 2))
        inst = OTInstance(C=((x[:, None] - y[None]) ** 2).sum(-1), mu=inst.mu, nu=inst.nu)
    r = float(inst.C.max()) / (0.999 * _LOG_TINY)
    h = OTDualObjective(inst, r=r)
    for spread in (1.0, 30.0, 300.0):
        z = spread * r * rng.standard_normal(m + n)
        assert h._scaling(z, np.empty(m + n)) is not None
        grad, P = _log_domain(inst, r, z)
        marginals = grad + np.concatenate([inst.mu, inst.nu])
        assert np.max(np.abs(h.grad(z) - grad)) <= 1e-13 * np.max(marginals)
        assert np.max(np.abs(plan_from_dual(inst, r, z[:m], z[m:]).X - P)) <= 1e-13 * P.max()
    assert h._buffer is None  # the log-domain buffer was never needed


def test_above_gate_is_log_domain_bit_for_bit(rng):
    inst = _random_instance(rng, 6, 9)
    r = float(inst.C.max()) / (1.001 * _LOG_TINY)
    h = OTDualObjective(inst, r=r)
    assert h._K is None
    for _ in range(5):
        z = 30.0 * r * rng.standard_normal(15)
        grad, P = _log_domain(inst, r, z)
        assert np.array_equal(h.grad(z), grad)
        assert np.array_equal(np.concatenate(ot_dual_grad(inst, r, z[:6], z[6:])), grad)
        assert np.array_equal(plan_from_dual(inst, r, z[:6], z[6:]).X, P)


def test_backstop_takes_log_domain_when_scaled_total_is_tiny():
    """The cell at (max u, max v) costs 700 r and every other cell is e^-1000 below it.

    The scaled total is then about e^-700, under the floor m n 2^52 tiny,
    so the gradient and the plan come from the log domain, bit for bit.
    """
    r = 0.01
    inst = OTInstance(C=[[7.0, 0.0], [0.0, 7.0]], mu=[0.5, 0.5], nu=[0.5, 0.5])
    z = np.array([0.0, -10.0, 0.0, -10.0])  # |u|/r spread 1000
    h = OTDualObjective(inst, r=r)
    assert h._K is not None and h._scaling(z, np.empty(4)) is None
    grad, P = _log_domain(inst, r, z)
    assert np.array_equal(h.grad(z), grad)
    assert np.array_equal(np.concatenate(ot_dual_grad(inst, r, z[:2], z[2:])), grad)
    assert np.array_equal(plan_from_dual(inst, r, z[:2], z[2:]).X, P)
    assert P[0, 0] == 1.0
    assert h._buffer is not None
    with np.errstate(invalid="ignore"):
        assert np.isnan(h.grad(np.full(4, np.nan))).all()  # nan input reaches the log domain


def _two_block(inst, r, u, v):
    """The scaling form written out block by block: (gradient, plan), or None past the backstop.

    A reference for the fused kernel on the stacked (u, v): the same
    operations on the same operands, so the floats must agree exactly.
    """
    K = np.exp(np.divide(inst.C, -r))
    a = np.exp((u - u.max()) / r)
    b = np.exp((v - v.max()) / r)
    row = a * (K @ b)
    tot = row.sum()
    if not K.size * 2.0 ** 52 * ot._TINY <= tot < math.inf:
        return None
    cols = (a @ K) * b
    grad = np.concatenate([row / tot, cols / tot]) - np.concatenate([inst.mu, inst.nu])
    X = K * a[:, None]
    X *= b[None, :]
    X /= tot
    return grad, X


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (3, 3), (7, 5), (16, 31), (32, 32), (60, 40)])
def test_fused_kernel_equals_two_block_arithmetic(m, n):
    """Below the gate, the gradient, ot_dual_grad and the plan are the two-block floats."""
    rng = np.random.default_rng([m, n])
    inst = _random_instance(rng, m, n)
    for r in (0.5, 0.05, 0.005):
        assert inst.C.max() / r <= _LOG_TINY
        h = OTDualObjective(inst, r=r)
        for spread in (0.1, 3.0, 30.0):
            z = spread * r * rng.standard_normal(m + n)
            grad, X = _two_block(inst, r, z[:m], z[m:])
            assert np.array_equal(h.grad(z), grad)
            assert np.array_equal(np.concatenate(ot_dual_grad(inst, r, z[:m], z[m:])), grad)
            assert np.array_equal(plan_from_dual(inst, r, z[:m], z[m:]).X, X)
        assert h._buffer is None


def test_plan_from_dual_uniform_and_normalized(rng):
    inst = OTInstance(C=np.zeros((2, 2)), mu=[0.5, 0.5], nu=[0.5, 0.5])
    plan = plan_from_dual(inst, 1.0, np.zeros(2), np.zeros(2))
    assert np.allclose(plan.X, 0.25)
    inst2 = _random_instance(rng, 3, 4)
    plan2 = plan_from_dual(inst2, 0.1, rng.standard_normal(3), rng.standard_normal(4))
    assert np.sum(plan2.X) == pytest.approx(1.0, abs=1e-12)


def test_plan_from_dual_low_temperature_example():
    plan = plan_from_dual(_uniform2(), 0.1, np.zeros(2), np.zeros(2))
    w = math.exp(-10.0)
    expect = np.array([[1.0, w], [w, 1.0]]) / (2.0 + 2.0 * w)
    assert np.allclose(plan.X, expect, atol=1e-15)


def test_round_plan_feasible_input_unchanged():
    inst = _uniform2()
    X = np.full((2, 2), 0.25)
    out = round_plan(inst, TransportPlan(X=X))
    assert np.allclose(out.X, X, atol=1e-15)
    assert out.feasible


def test_round_plan_hand_example():
    inst = _uniform2()
    out = round_plan(inst, TransportPlan(X=np.array([[0.3, 0.3], [0.2, 0.2]])))
    assert np.allclose(out.X, 0.25, atol=1e-12)


def test_round_plan_exact_marginals(rng):
    inst = _random_instance(rng, 3, 4)
    for _ in range(20):
        X = rng.dirichlet(np.ones(12)).reshape(3, 4)
        out = round_plan(inst, TransportPlan(X=X))
        assert out.marginal_residual(inst) <= 1e-12


@st.composite
def _marginal(draw, k):
    """A probability vector of length k with some entries near 1e-12 (not all of them)."""
    w = np.array(draw(st.lists(
        st.one_of(st.floats(0.5, 1.5), st.floats(0.1, 10.0).map(lambda f: 1e-12 * f)),
        min_size=k, max_size=k)))
    w[draw(st.integers(0, k - 1))] = 1.0
    return w / w.sum()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_plan_feasible_with_marginals_near_1e_12(data):
    """Rounding any nonnegative plan meets both marginals to a few ulps of the total mass."""
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 6))
    mu, nu = data.draw(_marginal(m)), data.draw(_marginal(n))
    inst = OTInstance(C=np.zeros((m, n)), mu=mu, nu=nu)
    cells = st.one_of(st.just(0.0), st.floats(1e-15, 1.0), st.floats(1e-13, 1e-11))
    X = np.array(data.draw(st.lists(cells, min_size=m * n, max_size=m * n))).reshape(m, n)
    out = round_plan(inst, TransportPlan(X=X))
    ulp = np.finfo(np.float64).eps
    assert out.feasible
    assert np.max(np.abs(out.X.sum(axis=1) - mu)) <= 4 * ulp
    assert np.max(np.abs(out.X.sum(axis=0) - nu)) <= 4 * ulp
    assert out.X.min() >= -4 * ulp * max(mu.max(), nu.max())


def test_round_plan_rejects_negative():
    with pytest.raises(ValueError):
        TransportPlan(X=np.array([[-0.1, 0.6], [0.3, 0.2]]))


def test_rounding_distance_bound(rng):
    # ||rounded - raw||_1 <= 2 ||grad h||_1 when the raw plan comes from
    # the dual point itself.
    inst = _random_instance(rng, 3, 3)
    r = 0.2
    for _ in range(10):
        u = 0.5 * rng.standard_normal(3)
        v = 0.5 * rng.standard_normal(3)
        raw = plan_from_dual(inst, r, u, v)
        rounded = round_plan(inst, raw)
        gu, gv = ot_dual_grad(inst, r, u, v)
        grad_l1 = np.sum(np.abs(gu)) + np.sum(np.abs(gv))
        assert np.sum(np.abs(rounded.X - raw.X)) <= 2.0 * grad_l1 + 1e-10


def test_solve_ot_2x2_example():
    res = solve_ot(_uniform2(), 0.05)
    assert res.cost - lp_oracle(_uniform2()) <= 0.05
    assert res.plan.marginal_residual(_uniform2()) <= 1e-10
    assert res.report["grad_l1"] <= res.report["grad_tol"]


def test_solve_ot_concentrates_on_diagonal():
    inst = OTInstance(
        C=[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
        mu=[1 / 3] * 3,
        nu=[1 / 3] * 3,
    )
    prev_off = math.inf
    for eps in (0.2, 0.1, 0.05):
        res = solve_ot(inst, eps)
        off = float(np.sum(res.plan.X) - np.trace(res.plan.X))
        assert off <= prev_off + 1e-12
        prev_off = off
        assert res.cost - lp_oracle(inst) <= eps
    assert prev_off <= 0.05


def test_solve_ot_validation_and_cap():
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_ot(_uniform2(), eps)
    inst = OTInstance(C=[[0.0, 5.0], [5.0, 0.0]], mu=[0.3, 0.7], nu=[0.6, 0.4])
    with pytest.raises(RuntimeError):
        solve_ot(inst, 0.001, eval_cap=8)


def _record_grads(monkeypatch):
    """Patch OTDualObjective.grad to record every (point, gradient) pair it returns."""
    calls = []
    grad = OTDualObjective.grad

    def recorded(self, z):
        g = grad(self, z)
        calls.append((np.array(z), g.copy()))
        return g

    monkeypatch.setattr(OTDualObjective, "grad", recorded)
    return calls


def test_solve_ot_counts_every_gradient_call(rng, monkeypatch):
    calls = _record_grads(monkeypatch)
    res = solve_ot(_random_instance(rng, 10, 10), 0.05)
    assert res.report["N"] > 1  # several attempts
    assert res.report["grad_evals"] == len(calls)


@pytest.mark.parametrize("seed, m, n, eps", [(5, 10, 10, 0.05), (6, 3, 7, 0.02), (7, 30, 20, 0.1)])
def test_solve_ot_stops_at_first_gradient_within_tolerance(seed, m, n, eps, monkeypatch):
    """Exactly the last gradient evaluated certifies, and its l1 norm is the reported one."""
    calls = _record_grads(monkeypatch)
    res = solve_ot(_random_instance(np.random.default_rng(seed), m, n), eps)
    tol = res.report["grad_tol"]
    l1 = [float(np.sum(np.abs(g))) for _, g in calls]
    assert [x <= tol for x in l1] == [False] * (len(l1) - 1) + [True]
    assert l1[-1] == res.report["grad_l1"]
    assert res.report["grad_evals"] == len(calls)


def test_solve_ot_never_passes_eval_cap(rng, monkeypatch):
    """The budget is checked before each evaluation, not before each attempt."""
    calls = _record_grads(monkeypatch)
    with pytest.raises(RuntimeError, match="budget 60 exhausted"):
        solve_ot(_random_instance(rng, 30, 30), 0.001, eval_cap=60)
    assert len(calls) == 60


@pytest.mark.parametrize("cap", [1, 2, 7, 133])
def test_solve_ot_spends_exactly_eval_cap(rng, monkeypatch, cap):
    """eval_cap = k evaluates k gradients, then refuses the next one."""
    calls = _record_grads(monkeypatch)
    with pytest.raises(RuntimeError, match=f"budget {cap} exhausted"):
        solve_ot(_random_instance(rng, 8, 9), 0.001, eval_cap=cap)
    assert len(calls) == cap


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_ot_past_log_domain_gate_returns_or_exhausts_budget(data):
    """At eps 1e-6 a solve returns a certified plan or raises the budget RuntimeError (CLI
    exit 4), and never overflows; C.max()/r is past the log-domain gate once C.max() > 5.2e-4."""
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e6]))
    costs = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=m * n, max_size=m * n)
    inst = OTInstance(C=scale * np.array(data.draw(costs)).reshape(m, n),
                      mu=data.draw(_marginal(m)), nu=data.draw(_marginal(n)))
    cap = data.draw(st.integers(1, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = solve_ot(inst, 1e-6, eval_cap=cap)
        except RuntimeError as e:
            assert f"budget {cap} exhausted" in str(e)
            return
    assert res.report["grad_evals"] <= cap
    assert res.report["grad_l1"] <= res.report["grad_tol"]
    assert res.plan.marginal_residual(inst) <= 1e-10
    assert res.cost <= lp_oracle(inst) + 1e-6 * (1 + 1e-9)


class _FixedGradients(OTDualObjective):
    """The OT dual on _uniform2 whose gradients are read off a list, in call order."""

    def __init__(self, grads):
        super().__init__(_uniform2(), r=0.1)
        self.grads = iter(grads)

    def grad(self, z):
        return np.array(next(self.grads))


def test_counting_objective_certifies_first_l1_within_tolerance():
    """l2 <= tol is not enough, l1 = tol exactly is; nan never certifies, even with tol = inf."""
    tol = 0.1
    counted = _CountingObjective(_FixedGradients([
        [np.nan, 0.0, 0.0, 0.0], [0.03, -0.03, 0.03, -0.0301], [tol, 0.0, 0.0, 0.0]]), tol, eval_cap=5)
    for _ in range(2):
        counted.grad(np.zeros(4))
    assert counted.z is None
    with pytest.raises(_Certified):
        counted.grad(np.ones(4))
    assert counted.grad_l1 == tol and np.array_equal(counted.z, np.ones(4))
    assert counted.grad_evals == 3
    nan_only = _CountingObjective(_FixedGradients([[np.nan] * 4]), math.inf, eval_cap=1)
    assert np.isnan(nan_only.grad(np.zeros(4))).all() and nan_only.z is None
    with pytest.raises(RuntimeError, match="budget 1 exhausted"):
        nan_only.grad(np.zeros(4))


@pytest.mark.parametrize("eps, above_gate", [(0.05, False), (0.004, True)])
def test_solve_ot_plan_is_plan_from_dual_at_stop_point(monkeypatch, eps, above_gate):
    """The plan built from the objective's own kernel equals plan_from_dual's, bit for bit."""
    inst = OTInstance(C=[[0.0, 1.0, 0.6], [0.9, 0.0, 0.3]], mu=[0.45, 0.55], nu=[0.2, 0.5, 0.3])
    calls = _record_grads(monkeypatch)
    raws = []

    def spy(inst, plan):
        raws.append(plan)
        return round_plan(inst, plan)

    monkeypatch.setattr(ot, "round_plan", spy)
    res = solve_ot(inst, eps)
    r = res.report["r"]
    assert (inst.C.max() / r > _LOG_TINY) == above_gate
    z = calls[-1][0]
    assert np.array_equal(raws[0].X, plan_from_dual(inst, r, z[:2], z[2:]).X)
    assert np.array_equal(res.plan.X, round_plan(inst, raws[0]).X)


def _restart_reference(inst, eps):
    """solve_ot as a fresh AMD + dual-AMD concatenation from 0 per doubling of N.

    Gradients are scanned in the order solve_ot evaluates them: per
    attempt N, the AMD path's new ones at x_{N/2} .. x_{N-1} (x_0 at
    N = 1), then dual-AMD's at q_0 .. q_N.  The first with l1 norm <= tol
    ends the search at its point.
    """
    m, n = inst.shape
    r = eps / (2.0 * math.log(m * n))
    tol = eps / (8.0 * float(np.max(np.abs(inst.C))))
    h = OTDualObjective(inst, r=r)
    N, evals = 1, 0
    while True:
        run = run_concat(h, euclidean(), euclidean(), np.zeros(m + n), N, L=h.L, sigma1=1.0, sigma2=1.0)
        amd, dual = run.amd.traj, run.dual_amd.dual_traj
        path = [(amd.xs[k], amd.f_grads[k]) for k in range(N // 2, N)]
        for z, g in path + list(zip(dual.qs, dual.f_grads)):
            evals += 1
            grad_l1 = float(np.sum(np.abs(g)))
            if grad_l1 <= tol:
                plan = round_plan(inst, plan_from_dual(inst, r, z[:m], z[m:]))
                return plan, float(np.sum(inst.C * plan.X)), N, grad_l1, evals
        N *= 2


@pytest.mark.parametrize("seed, m, n, eps", [(1, 4, 5, 0.1), (2, 6, 6, 0.05), (3, 9, 4, 0.08), (4, 3, 12, 0.2)])
def test_solve_ot_matches_restart_reference(seed, m, n, eps):
    """Sharing one AMD path and stopping at the first certified gradient gives the reference's floats."""
    inst = _random_instance(np.random.default_rng(seed), m, n)
    res = solve_ot(inst, eps)
    plan, cost, N, grad_l1, evals = _restart_reference(inst, eps)
    assert res.report["N"] == N > 1
    assert res.plan.X.tobytes() == plan.X.tobytes()
    assert res.cost == cost
    assert res.report["grad_l1"] == grad_l1
    assert res.report["grad_evals"] == evals


def test_lp_oracle_examples():
    assert lp_oracle(_uniform2()) == pytest.approx(0.0, abs=1e-15)
    const = OTInstance(C=np.full((2, 2), 0.7), mu=[0.4, 0.6], nu=[0.3, 0.7])
    assert lp_oracle(const) == pytest.approx(0.7, abs=1e-12)
    inst = OTInstance(C=[[1.0, 2.0], [3.0, 4.0]], mu=[0.3, 0.7], nu=[0.6, 0.4])
    # cost(t) for t = X_11 in [0, 0.3]; evaluate both endpoints by hand:
    # t=0: 0*1 + 0.3*2 + 0.6*3 + 0.1*4 = 2.8 ; t=0.3: 0.3+0+0.9+1.6 = 2.8... use formula
    def cost(t):
        return 1.0 * t + 2.0 * (0.3 - t) + 3.0 * (0.6 - t) + 4.0 * (0.7 - (0.6 - t))
    assert lp_oracle(inst) == pytest.approx(min(cost(0.0), cost(0.3)), abs=1e-12)


def test_lp_oracle_enumeration_matches_scipy(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    for m, n in [(3, 3), (3, 4)]:
        inst = _random_instance(rng, m, n)
        A_eq = np.zeros((m + n, m * n))
        for i in range(m):
            for j in range(n):
                A_eq[i, i * n + j] = 1.0
                A_eq[m + j, i * n + j] = 1.0
        ref = scipy_opt.linprog(
            inst.C.ravel(), A_eq=A_eq, b_eq=np.concatenate([inst.mu, inst.nu]),
            bounds=(0, None),
        )
        assert lp_oracle(inst) == pytest.approx(ref.fun, abs=1e-9)


def test_lp_oracle_rejects_large():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lp_oracle(_random_instance(rng, 4, 4))
