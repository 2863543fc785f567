import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt import methods, ot
from mirropt.ot import (
    OTDualObjective,
    OTInstance,
    TransportPlan,
    _CountedGrad,
    instance_from_descriptor,
    lp_oracle,
    ot_dual_grad,
    ot_dual_value,
    plan_from_dual,
    round_plan,
    solve_ot,
)
from mirropt.dgf import euclidean
from mirropt.methods import run_concat, run_dual_amd, theta_sequence
from mirropt.objectives import smoothness_constant
from mirropt.spaces import bregman, finite_difference_gradient, lp_norm

# exp(-x) is a normal float for every x <= _LOG_TINY (about 708.4): past C.max()/r = _LOG_TINY,
# some entries of K = exp(-C/r) underflow, the regime where the kernel may be re-anchored.
_LOG_TINY = -math.log(np.finfo(np.float64).tiny)


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


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (5, 4)])
def test_instance_descriptor_round_trip(rng, m, n):
    """The strict reader takes back what to_descriptor writes, also through JSON text."""
    inst = _random_instance(rng, m, n)
    for desc in (inst.to_descriptor(), json.loads(json.dumps(inst.to_descriptor()))):
        back = instance_from_descriptor(desc)
        for field in ("C", "mu", "nu"):
            assert np.array_equal(getattr(back, field), getattr(inst, field))


def test_dual_value_zero_cost_example():
    inst = OTInstance(C=np.zeros((2, 2)), mu=[0.5, 0.5], nu=[0.5, 0.5])
    val = ot_dual_value(inst, 1.0, np.zeros(2), np.zeros(2))
    assert val == pytest.approx(math.log(4.0), abs=1e-12)


def test_dual_value_rejects_bad_temperature():
    with pytest.raises(ValueError):
        ot_dual_value(_uniform2(), 0.0, np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
def test_ot_entry_points_refuse_a_temperature_not_positive_and_finite(r):
    """r = nan gave a nan gradient, and r = inf (K all ones, L = 0) a zero gradient at
    every point of an instance with uniform marginals: each is refused, and named."""
    inst, z = _uniform2(), np.zeros(2)
    for call in (lambda: ot_dual_value(inst, r, z, z), lambda: ot_dual_grad(inst, r, z, z),
                 lambda: plan_from_dual(inst, r, z, z), lambda: OTDualObjective(inst, r=r)):
        with pytest.raises(ValueError, match=f"^r must be positive and finite, got r={r!r}$"):
            call()


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


def _dual_value_reference(inst, r, u, v):
    """ot_dual_value as one expression over fresh m x n temporaries (the reference)."""
    z = (u[:, None] + v[None, :] - inst.C) / r
    m = float(np.max(z))
    lse = m + math.log(float(np.sum(np.exp(z - m))))
    return r * lse - float(inst.mu @ u) - float(inst.nu @ v)


def test_dual_value_equals_reference_in_one_buffer(rng):
    """ot_dual_value gives the reference's float, r down to 1e-4, and holds one m x n buffer:
    its traced peak at 400 x 400 is at most 1.5 arrays (the reference's is 3)."""
    for _ in range(20):
        m, n = rng.integers(1, 30), rng.integers(2, 30)
        inst = _random_instance(rng, m, n)
        r = 10.0 ** rng.uniform(-4.0, 0.0)
        u, v = 3.0 * rng.standard_normal(m), 3.0 * rng.standard_normal(n)
        assert ot_dual_value(inst, r, u, v) == _dual_value_reference(inst, r, u, v)
    inst = _random_instance(rng, 400, 400)
    tracemalloc.start()
    try:
        ot_dual_value(inst, 0.05, np.zeros(400), np.zeros(400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * inst.C.nbytes


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
    """Gradient and plan from the log-domain kernel: shift by the max, exponentiate, normalize."""
    m = inst.shape[0]
    E = (z[:m, None] + z[None, m:] - inst.C) / r
    P = np.exp(E - E.max())
    P /= P.sum()
    return np.concatenate([P.sum(axis=1) - inst.mu, P.sum(axis=0) - inst.nu]), P


# Past the gate the scaling form and the log domain round differently: an entry's exponent
# (u_i + v_j - c_ij)/r, of size up to about 2e4 on the points below, is split between the kernel
# and the scalings, and each part carries a rounding error of about 1.1e-16 of its size, so an
# entry may differ by a few 1e-12 of itself.  Measured, the gradients differ by at most 1.2e-14
# of the largest marginal on these points and 6.3e-14 along two past-gate solves.  1e-10 of the
# largest entry bounds sums of such errors with a margin of over an order; a wrong anchor or
# scaling is off by far more.
_PAST_GATE_TOL = 1e-10


def _assert_matches_log_domain(h, z, tol):
    """h's gradient and plan at z agree with the log domain's to tol of their largest entry."""
    inst, r, m = h.inst, h.r, h._m
    grad, P = _log_domain(inst, r, z)
    marginals = grad + np.concatenate([inst.mu, inst.nu])
    assert np.max(np.abs(h.grad(z) - grad)) <= tol * np.max(marginals)
    assert np.max(np.abs(h._plan(z).X - P)) <= tol * P.max()


@pytest.mark.parametrize("m, n, cost", [(20, 30, "uniform"), (40, 40, "euclid")])
def test_scaling_form_matches_log_domain_below_gate(rng, m, n, cost):
    """Just below the gate (C.max()/r = 0.999 * -log(tiny)) the two forms agree to 1e-13,
    with no rebuild of the kernel."""
    inst = _random_instance(rng, m, n)
    if cost == "euclid":
        x, y = rng.uniform(0, 1, (m, 2)), rng.uniform(0, 1, (n, 2))
        inst = OTInstance(C=((x[:, None] - y[None]) ** 2).sum(-1), mu=inst.mu, nu=inst.nu)
    r = float(inst.C.max()) / (0.999 * _LOG_TINY)
    h = OTDualObjective(inst, r=r)
    for spread in (1.0, 30.0, 300.0):
        z = spread * r * rng.standard_normal(m + n)
        _assert_matches_log_domain(h, z, 1e-13)
        _, P = _log_domain(inst, r, z)
        assert np.max(np.abs(plan_from_dual(inst, r, z[:m], z[m:]).X - P)) <= 1e-13 * P.max()
    assert h._anchor is None  # no rebuild happened


def test_above_gate_matches_log_domain(rng):
    """Just past the gate and at three times it, the scaling form, from K = exp(-C/r) or from a
    rebuilt kernel, agrees with the log domain to _PAST_GATE_TOL; so do ot_dual_grad and
    plan_from_dual, which build their own objective."""
    for past in (1.001, 3.0):
        inst = _random_instance(rng, 6, 9)
        r = float(inst.C.max()) / (past * _LOG_TINY)
        h = OTDualObjective(inst, r=r)
        for spread in (1.0, 30.0, 3000.0):
            for _ in range(3):
                z = spread * r * rng.standard_normal(15)
                _assert_matches_log_domain(h, z, _PAST_GATE_TOL)
                grad, P = _log_domain(inst, r, z)
                assert np.max(np.abs(np.concatenate(ot_dual_grad(inst, r, z[:6], z[6:])) - grad)) <= _PAST_GATE_TOL
                assert np.max(np.abs(plan_from_dual(inst, r, z[:6], z[6:]).X - P)) <= _PAST_GATE_TOL * P.max()
        assert h._anchor is not None  # a spread of 3000 r leaves the unanchored total below the floor


def test_backstop_rebuilds_kernel_when_scaled_total_is_tiny():
    """The cell at (max u, max v) costs 700 r and every other cell is e^-1000 below it.

    The scaled total is then about e^-700, under the floor m n 2^52 tiny,
    so the kernel is rebuilt at z, where the largest entry is exactly 1.
    """
    r = 0.01
    inst = OTInstance(C=[[7.0, 0.0], [0.0, 7.0]], mu=[0.5, 0.5], nu=[0.5, 0.5])
    z = np.array([0.0, -10.0, 0.0, -10.0])  # |u|/r spread 1000
    h = OTDualObjective(inst, r=r)
    _assert_matches_log_domain(h, z, _PAST_GATE_TOL)
    assert np.array_equal(h._anchor, z)
    assert h._K[0, 0] == 1.0 and h._plan(z).X[0, 0] == 1.0
    grad, P = _log_domain(inst, r, z)
    assert np.max(np.abs(np.concatenate(ot_dual_grad(inst, r, z[:2], z[2:])) - grad)) <= _PAST_GATE_TOL
    assert np.max(np.abs(plan_from_dual(inst, r, z[:2], z[2:]).X - P)) <= _PAST_GATE_TOL


def test_nan_point_keeps_the_anchor():
    """A nan z gives a nan gradient and a nan plan and rebuilds nothing, so the kernel stays
    finite and the next gradient at a finite z still matches the log domain."""
    rng = np.random.default_rng(5)
    inst = _random_instance(rng, 6, 9)
    r = float(inst.C.max()) / (3.0 * _LOG_TINY)
    h = OTDualObjective(inst, r=r)
    z = 3000.0 * r * rng.standard_normal(15)
    _assert_matches_log_domain(h, z, _PAST_GATE_TOL)
    anchor, K = h._anchor.copy(), h._K.copy()
    bad = z.copy()
    bad[3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(h.grad(bad)).all()
        assert np.isnan(h._plan(bad).X).all()
    assert np.array_equal(h._anchor, anchor) and np.array_equal(h._K, K)
    _assert_matches_log_domain(h, z + 50.0 * r * rng.standard_normal(15), _PAST_GATE_TOL)


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
        assert h._anchor is None  # no rebuild happened


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


def test_round_plan_scales_a_subnormal_sum_without_a_warning():
    """A positive column (or row) sum of 5e-324 overflows nu / cols (or mu / rows) to
    inf; the scale min(1, inf) = 1 is the right one, and no overflow warning is raised."""
    for inst, X in [(OTInstance(C=[[0, 1, 0]], mu=[1], nu=[0.5, 5e-13, 0.5]), [[0.5, 5e-324, 0.5]]),
                    (OTInstance(C=[[0, 1], [1, 0]], mu=[1 - 5e-13, 5e-13], nu=[0.5, 0.5]),
                     [[0.5, 0.5], [5e-324, 0.0]])]:
        out = round_plan(inst, TransportPlan(X=X))
        with np.errstate(over="ignore"):
            want, _ = _round_plan_reference(inst, np.array(X))
        assert out.feasible and out.X.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_round_plan_rejects_a_non_finite_plan(bad):
    X = np.full((2, 2), 0.25)
    X[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        round_plan(_uniform2(), TransportPlan(X=X))


@pytest.mark.parametrize("u_len, v_len", [(4, 3), (2, 5), (3, 3), (12, 0)])
def test_dual_functions_refuse_a_point_of_the_wrong_shape(u_len, v_len):
    """On a 3x4 instance u must have 3 entries and v 4: a point of the right total
    length split elsewhere is refused, not re-split at m."""
    inst, rng = _random_instance(np.random.default_rng(0), 3, 4), np.random.default_rng(1)
    u, v = rng.standard_normal(u_len), rng.standard_normal(v_len)
    for fn in (ot_dual_value, ot_dual_grad, plan_from_dual):
        with pytest.raises(ValueError, match="dual point must be"):
            fn(inst, 0.5, u, v)
    with pytest.raises(ValueError, match="dual point must be"):
        ot_dual_grad(inst, 0.5, u.reshape(1, -1), v)


@pytest.mark.parametrize("shape", [(1, 4), (3, 1), (4, 3), (12,)])
def test_round_plan_refuses_a_plan_of_the_wrong_shape(shape):
    """A plan that would broadcast against a 3x4 instance is refused, not rounded."""
    inst = _random_instance(np.random.default_rng(0), 3, 4)
    with pytest.raises(ValueError, match=r"plan of shape \(3, 4\)"):
        round_plan(inst, TransportPlan(X=np.full(shape, 1.0 / np.prod(shape))))


@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2,), (4,), (2, 2, 1)])
def test_marginal_residual_refuses_a_plan_of_the_wrong_shape(shape):
    """On a 2x2 instance with mu = nu = (1/2, 1/2), a (1, 2) plan broadcast to read 0.5
    and a 1-d plan raised numpy's AxisError: each is refused, with both shapes named."""
    plan = TransportPlan(X=np.full(shape, 0.5))
    with pytest.raises(ValueError, match=re.escape(f"plan of shape (2, 2), got {shape}")):
        plan.marginal_residual(_uniform2())


def _round_plan_reference(inst, X):
    """round_plan's floats from fresh arrays and np.outer (the reference), and its s."""
    rows = X.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.where(rows > 0, np.minimum(1.0, inst.mu / rows), 1.0)
    X1 = X * row_scale[:, None]
    cols = X1.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_scale = np.where(cols > 0, np.minimum(1.0, inst.nu / cols), 1.0)
    X2 = X1 * col_scale[None, :]
    err_r = inst.mu - X2.sum(axis=1)
    err_c = inst.nu - X2.sum(axis=0)
    s = err_r.sum()
    return (X2 + np.outer(err_r, err_c) / s if s > 0 else X2), s


def test_round_plan_equals_reference_and_leaves_its_input(rng):
    """The in-place rounding gives the reference's bytes and a new array, and its input is
    unchanged: on random plans, sparse ones with zero rows and columns, the zero plan and
    product plans, whose s is zero or a rounding error of either sign."""
    seen_s = []
    for trial in range(200):
        m, n = rng.integers(1, 7), rng.integers(2, 7)
        inst = _random_instance(rng, m, n)
        X = [rng.dirichlet(np.ones(m * n)).reshape(m, n),
             rng.uniform(0, 1, (m, n)) * (rng.uniform(size=(m, n)) < 0.4),
             np.zeros((m, n)),
             rng.choice([0.5, 1.0, 2.0]) * np.outer(inst.mu, inst.nu)][trial % 4]
        before = X.copy()
        out = round_plan(inst, TransportPlan(X=X))
        want, s = _round_plan_reference(inst, before)
        seen_s.append(s)
        assert X.tobytes() == before.tobytes()
        assert out.X is not X and out.X.tobytes() == want.tobytes()
    assert min(seen_s) <= 0.0 < max(seen_s)


@pytest.mark.parametrize("m, n", [(300, 300), (301, 200)])
def test_round_plan_adds_the_fix_in_row_blocks(m, n):
    """The rank-one fix is added in row blocks, not as one m x n temporary: beside its
    input, round_plan's traced peak is at most 1.75 times its output (the new plan, one
    block and the broadcast buffers)."""
    rng = np.random.default_rng(5)
    inst = _random_instance(rng, m, n)
    X = rng.dirichlet(np.ones(m * n)).reshape(m, n)
    tracemalloc.start()
    try:
        out = round_plan(inst, TransportPlan(X=X))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.marginal_residual(inst) <= 1e-12
    assert peak <= 1.75 * out.X.nbytes


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


@pytest.mark.parametrize("cap", [math.nan, 0.5, 2.0, True, 0, -3])
def test_solve_ot_refuses_a_cap_that_is_not_an_int_of_at_least_one(cap):
    """eval_cap = nan switched the budget off and cut the fallback horizon N_c to 1, so that
    every attempt restarted from 0; 0.5 was taken as a cap.  A bool is no int here."""
    with pytest.raises(ValueError, match=f"^eval_cap must be .*, got {cap!r}$"):
        solve_ot(_uniform2(), 0.1, eval_cap=cap)


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
    with pytest.raises(RuntimeError, match="budget 60 exhausted") as exc:
        solve_ot(_random_instance(rng, 30, 30), 0.001, eval_cap=60)
    assert len(calls) == 60
    rows = exc.value.history  # the interrupted attempt's row included
    assert [row["N"] for row in rows] == [2 ** k for k in range(len(rows))]
    assert sum(row["grad_evals"] for row in rows) == 60
    assert not any(row["certified"] for row in rows)


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
    exit 4), and never overflows; C.max()/r is past the gate -log(tiny), where K = exp(-C/r)
    underflows and may be re-anchored, once C.max() > 5.2e-4."""
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


def _fixed_gradients(grads):
    """A gradient oracle that reads its gradients off a list, in call order."""
    grads = iter(grads)
    return lambda z: np.array(next(grads))


def test_counting_objective_certifies_first_l1_within_tolerance():
    """l2 <= tol is not enough, l1 = tol exactly is; nan never certifies, even with tol = inf."""
    tol = 0.1
    counted = _CountedGrad(_fixed_gradients([
        [np.nan, 0.0, 0.0, 0.0], [0.03, -0.03, 0.03, -0.0301], [tol, 0.0, 0.0, 0.0]]), tol, eval_cap=5)
    for _ in range(2):
        counted(np.zeros(4))
    assert counted.z is None
    assert counted(np.ones(4))[0] == tol
    assert counted.grad_l1 == tol and np.array_equal(counted.z, np.ones(4))
    assert counted.grad_evals == 3
    nan_only = _CountedGrad(_fixed_gradients([[np.nan] * 4]), math.inf, eval_cap=1)
    assert np.isnan(nan_only(np.zeros(4))).all() and nan_only.z is None
    with pytest.raises(RuntimeError, match="budget 1 exhausted"):
        nan_only(np.zeros(4))


@pytest.mark.parametrize("eps, above_gate", [(0.05, False), (0.004, True)])
def test_solve_ot_plan_is_plan_from_dual_at_stop_point(monkeypatch, eps, above_gate):
    """The raw plan, as round_plan receives it (solve_ot reuses its buffer once it is rounded),
    is the objective's own plan at the stop point, from the anchor the stop gradient read; below
    the gate, with no anchor, that is plan_from_dual's, bit for bit."""
    inst = OTInstance(C=[[0.0, 1.0, 0.6], [0.9, 0.0, 0.3]], mu=[0.45, 0.55], nu=[0.2, 0.5, 0.3])
    calls = _record_grads(monkeypatch)
    raws, objectives = [], []
    own_plan = OTDualObjective._plan

    def spy(inst, plan):
        raws.append(TransportPlan(X=plan.X.copy()))
        return round_plan(inst, plan)

    def plan_spy(self, z):
        objectives.append(self)
        return own_plan(self, z)

    monkeypatch.setattr(ot, "round_plan", spy)
    monkeypatch.setattr(OTDualObjective, "_plan", plan_spy)
    res = solve_ot(inst, eps)
    r = res.report["r"]
    assert (inst.C.max() / r > _LOG_TINY) == above_gate
    z = calls[-1][0]
    assert np.array_equal(raws[0].X, own_plan(objectives[0], z).X)
    if not above_gate:
        assert objectives[0]._anchor is None
        assert np.array_equal(raws[0].X, plan_from_dual(inst, r, z[:2], z[2:]).X)
    assert np.array_equal(res.plan.X, round_plan(inst, raws[0]).X)


def _highs_cost(inst):
    """The optimal transport cost by scipy's HiGHS, on the sparse m + n marginal constraints."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    m, n = inst.shape
    rows = np.concatenate([np.repeat(np.arange(m), n), m + np.tile(np.arange(n), m)])
    A = sparse.coo_matrix((np.ones(2 * m * n), (rows, np.tile(np.arange(m * n), 2))), shape=(m + n, m * n))
    res = scipy_opt.linprog(inst.C.ravel(), A_eq=A, b_eq=np.concatenate([inst.mu, inst.nu]),
                            bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("cost, eps, N, grad_evals, rebuilt", [
    ("uniform", 0.01, 2048, 2079, False), ("euclid", 0.005, 4096, 7541, True)])
def test_solve_ot_far_past_the_gate(monkeypatch, cost, eps, N, grad_evals, rebuilt):
    """100 x 100 solves far past the gate: C.max()/r is about 1842 on U[0, 1] costs at eps 0.01
    and 6624 on squared distances in the unit square at eps 0.005.  The plan is within eps of
    HiGHS's optimum, the rounding moves at most twice grad_l1, and N and the gradient count are
    those the log-domain kernel takes.  The U[0, 1] solve runs on K = exp(-C/r),
    entries lost to underflow and all; the Euclidean one re-anchors the kernel."""
    rng = np.random.default_rng(0)
    if cost == "uniform":
        inst = _random_instance(rng, 100, 100)
    else:
        x, y = rng.uniform(0, 1, (100, 2)), rng.uniform(0, 1, (100, 2))
        inst = OTInstance(C=((x[:, None] - y[None]) ** 2).sum(-1), mu=rng.dirichlet(np.full(100, 3.0)),
                          nu=rng.dirichlet(np.full(100, 3.0)))
    rebuilds, shifted_exp = [], ot._shifted_exp
    monkeypatch.setattr(ot, "_shifted_exp", lambda *args: rebuilds.append(1) or shifted_exp(*args))
    res = solve_ot(inst, eps)
    rep = res.report
    assert inst.C.max() / rep["r"] > 2.5 * _LOG_TINY
    assert (rep["N"], rep["grad_evals"]) == (N, grad_evals)
    assert bool(rebuilds) == rebuilt
    lp = _highs_cost(inst)
    assert lp - 1e-9 <= res.cost <= lp + eps
    assert rep["rounding_l1"] <= rep["rounding_l1_bound"] == 2.0 * rep["grad_l1"]
    assert rep["grad_l1"] <= rep["grad_tol"]


def _restart_reference(inst, eps):
    """solve_ot as a fresh AMD + dual-AMD concatenation from 0 per doubling of N.

    Gradients are scanned in the order solve_ot evaluates them: per
    attempt N, AMD's at x_0 .. x_{N-1}, then dual-AMD's at q_0 .. q_N.
    The first with l1 norm <= tol ends the search at its point.
    """
    m, n = inst.shape
    r = eps / (2.0 * math.log(m * n))
    tol = eps / (8.0 * float(np.max(np.abs(inst.C))))
    h = OTDualObjective(inst, r=r)
    N, evals = 1, 0
    while True:
        run = run_concat(h, euclidean(), euclidean(), np.zeros(m + n), N, L=h.L, sigma1=1.0, sigma2=1.0)
        amd, dual = run.amd.traj, run.dual_amd.dual_traj
        for z, g in list(zip(amd.xs[:N], amd.f_grads)) + list(zip(dual.qs, dual.f_grads)):
            evals += 1
            grad_l1 = float(np.sum(np.abs(g)))
            if grad_l1 <= tol:
                plan = round_plan(inst, plan_from_dual(inst, r, z[:m], z[m:]))
                return plan, float(np.sum(inst.C * plan.X)), N, grad_l1, evals
        N *= 2


@pytest.mark.parametrize("seed, m, n, eps", [(1, 4, 5, 0.1), (2, 6, 6, 0.05), (3, 9, 4, 0.08), (4, 3, 12, 0.2)])
def test_solve_ot_matches_restart_reference(seed, m, n, eps, monkeypatch):
    """With the fallback horizon forced to 1, every attempt is the concatenation from 0: stopping
    at the first certified gradient gives the reference's floats and count."""
    monkeypatch.setattr(ot, "_fallback_horizon", lambda *args: 1)
    inst = _random_instance(np.random.default_rng(seed), m, n)
    res = solve_ot(inst, eps)
    plan, cost, N, grad_l1, evals = _restart_reference(inst, eps)
    assert res.report["N"] == N > 1
    assert res.plan.X.tobytes() == plan.X.tobytes()
    assert res.cost == cost
    assert res.report["grad_l1"] == grad_l1
    assert res.report["grad_evals"] == evals


def _chain_reference(inst, eps):
    """solve_ot below its fallback horizon: dual-AMD restarted from its own last iterate.

    Attempt 1 is the concatenation at N = 1 from 0: AMD's gradient at x_0,
    then dual-AMD's at q_0, q_1.  Each later attempt doubles N and runs
    dual-AMD from the previous attempt's q_N, whose gradient is that
    attempt's last and is not evaluated again: N new gradients, at
    q_1 .. q_N.  The first gradient with l1 norm <= tol ends the search
    at its point.
    """
    m, n = inst.shape
    r = eps / (2.0 * math.log(m * n))
    tol = eps / (8.0 * float(np.max(np.abs(inst.C))))
    h = OTDualObjective(inst, r=r)
    first = run_concat(h, euclidean(), euclidean(), np.zeros(m + n), 1, L=h.L, sigma1=1.0, sigma2=1.0)
    dual = first.dual_amd.dual_traj
    grads = [(first.amd.traj.xs[0], first.amd.traj.f_grads[0])] + list(zip(dual.qs, dual.f_grads))
    N, evals = 1, 0
    while True:
        for z, g in grads:
            evals += 1
            grad_l1 = float(np.sum(np.abs(g)))
            if grad_l1 <= tol:
                plan = round_plan(inst, plan_from_dual(inst, r, z[:m], z[m:]))
                return plan, float(np.sum(inst.C * plan.X)), N, grad_l1, evals
        N *= 2
        dual = run_dual_amd(h, euclidean(), dual.qs[-1], N, L=h.L, sigma=1.0).dual_traj
        grads = list(zip(dual.qs[1:], dual.f_grads[1:]))


@pytest.mark.parametrize("seed, m, n, eps", [
    (1, 4, 5, 0.1), (2, 6, 6, 0.05), (3, 9, 4, 0.08), (4, 3, 12, 0.2), (5, 20, 15, 0.03)])
def test_solve_ot_matches_chain_reference(seed, m, n, eps):
    """Below the fallback horizon solve_ot is the restart chain, float for float."""
    inst = _random_instance(np.random.default_rng(seed), m, n)
    res = solve_ot(inst, eps)
    plan, cost, N, grad_l1, evals = _chain_reference(inst, eps)
    assert res.report["N"] == N > 1
    assert N < ot._fallback_horizon(inst, res.report["r"], res.report["grad_tol"], 1 / res.report["r"], 2 ** 20)
    assert res.plan.X.tobytes() == plan.X.tobytes()
    assert res.cost == cost
    assert res.report["grad_l1"] == grad_l1
    assert res.report["grad_evals"] == evals


@pytest.mark.parametrize("N_c", [None, 4])
def test_solve_ot_history_has_one_row_per_attempt(monkeypatch, N_c):
    """Rows split the gradient calls by attempt, each with its smallest l2 norm; the attempts
    restart below N_c and run AMD from 0 from N_c on; only the last row certifies.  A row that
    runs AMD spends N + 1 gradients on it (x_0 .. x_N), then its dual-AMD calls: N from either
    start, whose gradient is the one AMD took at x_N or, on a restart, the previous attempt's
    last."""
    if N_c is not None:
        monkeypatch.setattr(ot, "_fallback_horizon", lambda *args: N_c)
    calls = _record_grads(monkeypatch)
    dual_calls, dual_amd_steps = [], ot._dual_amd_steps

    def counted_dual_amd(*args, **kwargs):
        before = len(calls)
        try:
            yield from dual_amd_steps(*args, **kwargs)
        finally:
            dual_calls.append(len(calls) - before)

    monkeypatch.setattr(ot, "_dual_amd_steps", counted_dual_amd)
    res = solve_ot(_random_instance(np.random.default_rng(8), 10, 10), 0.05)
    rows = res.history
    assert len(dual_calls) == len(rows)
    for row, dual in zip(rows, dual_calls):
        assert row["grad_evals"] == (row["N"] + 1 if row["start"] == "path" else 0) + dual
        if not row["certified"]:
            assert row["grad_evals"] == (2 * row["N"] + 1 if row["start"] == "path" else row["N"])
    if N_c is not None:
        assert rows[-1]["N"] > N_c  # at least two attempts from N_c on
    assert [row["N"] for row in rows] == [2 ** k for k in range(len(rows))]
    assert rows[-1]["N"] == res.report["N"]
    limit = N_c or math.inf
    assert [row["start"] for row in rows] == ["restart" if 1 < row["N"] < limit else "path" for row in rows]
    assert sum(row["grad_evals"] for row in rows) == res.report["grad_evals"] == len(calls)
    assert [row["certified"] for row in rows] == [False] * (len(rows) - 1) + [True]
    ends = np.cumsum([row["grad_evals"] for row in rows])
    for row, hi in zip(rows, ends):
        lo = hi - row["grad_evals"]
        assert row["min_grad_l2"] == min(math.sqrt(g @ g) for _, g in calls[lo:hi])
        if row["start"] == "path":
            assert not calls[lo][0].any()  # AMD starts afresh from 0
        assert row["seconds"] >= 0.0
    assert rows[-1]["min_grad_l2"] <= res.report["grad_l1"]
    assert "history" not in res.to_json_dict()


@pytest.mark.parametrize("m, eps, above_gate", [(300, 0.1, False), (250, 0.03, True)])
def test_solve_ot_finish_holds_two_plan_arrays(monkeypatch, m, eps, above_gate):
    """The kernel K (re-anchored or not past the gate) is released before rounding,
    which holds the raw plan and the rounded one, and the raw plan's buffer then takes the
    rounding's l1 terms and the cost terms: at most 1.5 m x n arrays are held when rounding
    starts, and the traced peak of a solve is at most 2.75."""
    inst = _random_instance(np.random.default_rng(0), m, m)
    held = []

    def spy(inst, plan):
        held.append(tracemalloc.get_traced_memory()[0])
        return round_plan(inst, plan)

    monkeypatch.setattr(ot, "round_plan", spy)
    tracemalloc.start()
    try:
        res = solve_ot(inst, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (inst.C.max() / res.report["r"] > _LOG_TINY) == above_gate
    assert held[0] <= 1.5 * inst.C.nbytes
    assert peak <= 2.75 * inst.C.nbytes


def test_solve_ot_computes_theta_once_per_attempt(monkeypatch):
    """Each attempt computes theta_sequence(N) once and hands it to its AMD and dual-AMD
    stages; with N_c = 4 the attempts are a path at 1, a restart at 2, then paths."""
    monkeypatch.setattr(ot, "_fallback_horizon", lambda *args: 4)
    horizons = []

    def spy(N):
        horizons.append(N)
        return theta_sequence(N)

    monkeypatch.setattr(ot, "theta_sequence", spy)
    monkeypatch.setattr(methods, "theta_sequence", spy)
    rows = solve_ot(_random_instance(np.random.default_rng(8), 10, 10), 0.05).history
    assert [row["start"] for row in rows[:4]] == ["path", "restart", "path", "path"]
    assert horizons == [row["N"] for row in rows]


def test_solve_ot_memory_does_not_grow_with_N():
    """solve_ot holds only the current iterates, whatever N: from N = 64 to N = 1024 its traced
    peak grows by less than a quarter of what one list of N iterates would take.  What does
    grow is O(N) theta scalars, about 40 bytes a step."""
    rng = np.random.default_rng(3)
    m, n = 8, 56
    inst = OTInstance(C=rng.uniform(0, 1, (m, n)), mu=np.full(m, 1 / m), nu=np.full(n, 1 / n))
    peaks = {}
    for eps in (0.3, 0.01):
        tracemalloc.start()
        try:
            N = solve_ot(inst, eps).report["N"]
            peaks[N] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    small, big = sorted(peaks)
    assert small <= 64 and big >= 1024
    assert peaks[big] - peaks[small] <= big * (m + n) * 8 / 4


def test_solve_ot_history_minimum_is_per_attempt(monkeypatch):
    """A row's smallest norm is its own attempt's, not a running minimum: attempt 1's three
    gradients are shrunk tenfold, so its row's minimum falls below the next row's."""
    grad, calls = OTDualObjective.grad, itertools.count()
    monkeypatch.setattr(OTDualObjective, "grad", lambda self, z: grad(self, z) * (0.1 if next(calls) < 3 else 1.0))
    res = solve_ot(_random_instance(np.random.default_rng(8), 10, 10), 0.05)
    assert res.history[0]["grad_evals"] == 3
    assert res.history[1]["min_grad_l2"] > res.history[0]["min_grad_l2"]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dual_amd_attempt_never_increases_h(data):
    """h(q_N) <= h(q_0) along every attempt of a restart chain, from any start: dual-AMD's
    energy V_0 = v_0 (h(q_0) - h(q_N)) dominates V_N >= 0.  This is what makes restarting
    from the last iterate safe."""
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
    costs = st.lists(st.floats(0.0, 1.0), min_size=m * n, max_size=m * n)
    inst = OTInstance(C=np.array(data.draw(costs)).reshape(m, n),
                      mu=data.draw(_marginal(m)), nu=data.draw(_marginal(n)))
    h = OTDualObjective(inst, r=data.draw(st.sampled_from([0.005, 0.05, 0.5])))
    scale = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    q = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m + n, max_size=m + n)))
    for N in (1, 2, 4, 8, 16, 32, 64):
        q_N = run_dual_amd(h, euclidean(), q, N, L=h.L, sigma=1.0).final_x
        h0 = h.value(q)
        assert h.value(q_N) <= h0 + 1e-12 * (1.0 + abs(h0))
        q = q_N


def _sinkhorn(inst, r):
    """A minimizer of the dual h by log-domain Sinkhorn, run until ||grad h||_1 <= 1e-12."""
    h = OTDualObjective(inst, r=r)
    u, v = np.zeros(inst.shape[0]), np.zeros(inst.shape[1])
    for _ in range(10000):
        u = r * np.log(inst.mu) - r * np.log(np.exp((v[None, :] - inst.C) / r).sum(axis=1))
        v = r * np.log(inst.nu) - r * np.log(np.exp((u[:, None] - inst.C) / r).sum(axis=0))
        z = np.concatenate([u, v])
        if np.sum(np.abs(h.grad(z))) <= 1e-12:
            return z
    raise AssertionError("Sinkhorn did not converge")


@pytest.mark.parametrize("seed, m, n, eps, skew", [
    (1, 3, 4, 0.5, 1.0), (2, 4, 3, 0.3, 1.0), (3, 2, 5, 1.0, 0.2), (4, 5, 5, 0.5, 0.2), (5, 3, 3, 0.2, 1.0)])
def test_fallback_horizon_certifies_the_concatenation(seed, m, n, eps, skew):
    """R_z bounds the centred minimizer, and run_concat at N_c (the smallest such power of two)
    certifies; skew < 1 spreads the marginals, so the log(max mu / min mu) terms count."""
    rng = np.random.default_rng(seed)
    inst = OTInstance(C=rng.uniform(0, 1, (m, n)), mu=rng.dirichlet(np.ones(m) * skew),
                      nu=rng.dirichlet(np.ones(n) * skew))
    r = eps / (2.0 * math.log(m * n))
    tol = eps / (8.0 * inst.C.max())
    u, v = np.split(_sinkhorn(inst, r), [m])
    c_range = inst.C.max() - inst.C.min()
    s_u = c_range + r * math.log(inst.mu.max() / inst.mu.min())
    s_v = c_range + r * math.log(inst.nu.max() / inst.nu.min())
    R_z = math.sqrt(m * (s_u / 2) ** 2 + n * (s_v / 2) ** 2)
    assert np.ptp(u) <= s_u and np.ptp(v) <= s_v
    assert np.linalg.norm(np.concatenate([u - u.mean(), v - v.mean()])) <= R_z
    h = OTDualObjective(inst, r=r)
    N_c = ot._fallback_horizon(inst, r, tol, h.L, 2 ** 20)
    target = math.sqrt(m + n) * h.L * R_z / tol
    assert theta_sequence(N_c).sq(N_c) >= target > theta_sequence(N_c // 2).sq(N_c // 2)
    run = run_concat(h, euclidean(), euclidean(), np.zeros(m + n), N_c, L=h.L, sigma1=1.0, sigma2=1.0)
    assert np.sum(np.abs(run.dual_amd.dual_traj.f_grads[-1])) <= tol


def test_fallback_horizon_edges(monkeypatch):
    """tol = inf gives 1; the search stops at the first power of two >= limit; a horizon
    that the bounds on theta settle is found without computing theta at that size."""
    inst = _uniform2()  # R_z = 1, so the threshold is 2 L / tol
    assert ot._fallback_horizon(inst, 0.1, math.inf, 10.0, 2 ** 20) == 1
    assert ot._fallback_horizon(inst, 1e-9, 1e-12, 1e9, 1000) == 1024
    sizes = []
    monkeypatch.setattr(ot, "theta_sequence", lambda N: sizes.append(N) or theta_sequence(N))
    # threshold 30: at N = 8 the bounds leave it open (20.25 < 30 <= 36.1) and theta_8^2 = 23.9
    assert ot._fallback_horizon(inst, 0.1, 1 / 15, 1.0, 2 ** 20) == 16 and sizes == [8]
    sizes.clear()
    # 2^36 has theta <= 3.44e10 + 25 < sqrt(2e21) <= 2^37 / 2 <= theta at 2^37
    assert ot._fallback_horizon(inst, 1e-9, 1e-12, 1e9, 2 ** 60) == 2 ** 37
    assert sizes == []


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
    for m, n in [(3, 3), (3, 4)]:
        inst = _random_instance(rng, m, n)
        assert lp_oracle(inst) == pytest.approx(_highs_cost(inst), abs=1e-9)


def test_lp_oracle_rejects_large():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lp_oracle(_random_instance(rng, 4, 4))
