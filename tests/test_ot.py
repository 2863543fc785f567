import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.ot import (
    OTDualObjective,
    OTInstance,
    TransportPlan,
    lp_oracle,
    ot_dual_grad,
    ot_dual_value,
    plan_from_dual,
    round_plan,
    solve_ot,
)
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
    # 4/r is the safe sup-norm constant for the coupled dual; the
    # per-block value 1/r used by the solver fails this sampler.
    inst = _random_instance(rng, 2, 3)
    h = OTDualObjective(inst, r=0.3)
    for _ in range(30):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        d = bregman(h.value, h.grad, x, y)
        assert d >= lp_norm(h.grad(x) - h.grad(y), 1) ** 2 / (8.0 * h.L) - 1e-10


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
    with pytest.raises(ValueError):
        solve_ot(_uniform2(), 0.0)
    inst = OTInstance(C=[[0.0, 5.0], [5.0, 0.0]], mu=[0.3, 0.7], nu=[0.6, 0.4])
    with pytest.raises(RuntimeError):
        solve_ot(inst, 0.001, eval_cap=8)


def test_solve_ot_counts_every_gradient_call(rng, monkeypatch):
    calls = []
    grad = OTDualObjective.grad

    def counted(self, z):
        calls.append(1)
        return grad(self, z)

    monkeypatch.setattr(OTDualObjective, "grad", counted)
    res = solve_ot(_random_instance(rng, 10, 10), 0.05)
    assert res.report["N"] > 1  # several attempts, each one ending in a grad_l1
    assert res.report["grad_evals"] == len(calls)


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
