import math

import numpy as np
import pytest

from mirropt.objectives import (
    DenseQuadratic,
    DiagQuadratic,
    LogSumExp,
    objective_from_descriptor,
    smoothness_constant,
)
from mirropt.ot import OTDualObjective, OTInstance
from mirropt.spaces import bregman, finite_difference_gradient, lp_norm


def test_value_examples():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    assert f.value(np.array([1.0, 1.0])) == pytest.approx(2.5, abs=1e-14)
    lse = LogSumExp(r=1.0, n=2)
    assert lse.value(np.zeros(2)) == pytest.approx(np.log(2.0), abs=1e-14)
    dq = DenseQuadratic(A=[[2.0, 1.0], [1.0, 2.0]], b=[0.0, 0.0])
    assert dq.value(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_grad_examples():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    assert np.allclose(f.grad(np.array([1.0, 1.0])), [1.0, 4.0])
    lse = LogSumExp(r=1.0, n=2)
    assert np.allclose(lse.grad(np.zeros(2)), [0.5, 0.5])


@pytest.mark.parametrize("n", [0, -1])
def test_log_sum_exp_needs_a_coordinate(n):
    with pytest.raises(ValueError, match="^n must be at least 1"):
        LogSumExp(r=1.0, n=n)


@pytest.mark.parametrize("n", [2.5, True, 2.0])
def test_log_sum_exp_needs_an_integer_n(n):
    """A float n would build an objective whose every value and grad fails; True is no count."""
    with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
        LogSumExp(r=1.0, n=n)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_log_sum_exp_needs_a_positive_finite_temperature(r):
    with pytest.raises(ValueError, match=f"^r must be positive and finite, got r={r!r}$"):
        LogSumExp(r=r, n=2)


def _sample_objectives(rng):
    inst = OTInstance(
        C=rng.uniform(0, 1, (2, 3)),
        mu=rng.dirichlet([3.0, 3.0]),
        nu=rng.dirichlet([3.0, 3.0, 3.0]),
    )
    return [
        DiagQuadratic(d=rng.uniform(0.1, 3.0, 4), b=rng.standard_normal(4)),
        DiagQuadratic(d=rng.uniform(0.1, 3.0, 4), b=rng.standard_normal(4), norm_p=1.5),
        DenseQuadratic(A=np.diag([1.0, 2.0, 3.0]) + 0.1, b=rng.standard_normal(3)),
        LogSumExp(r=0.7, n=4),
        OTDualObjective(inst, r=0.5),
    ]


def test_grads_match_finite_differences(rng):
    for f in _sample_objectives(rng):
        dim = 5 if f.kind == "ot-dual" else (3 if f.kind == "dense-quadratic" else 4)
        for _ in range(10):
            x = rng.standard_normal(dim)
            fd = finite_difference_gradient(f.value, x)
            an = f.grad(x)
            assert np.allclose(an, fd, rtol=1e-6, atol=1e-6), f.kind


def test_optimum_consistency(rng):
    for f in _sample_objectives(rng):
        if f.x_star is None:
            continue
        assert abs(f.value(f.x_star) - f.f_star) <= 1e-10
        assert lp_norm(f.grad(f.x_star), 2) <= 1e-8


def test_convexity_sampling(rng):
    for f in _sample_objectives(rng):
        dim = 5 if f.kind == "ot-dual" else (3 if f.kind == "dense-quadratic" else 4)
        for _ in range(20):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            assert bregman(f.value, f.grad, x, y) >= -1e-12, f.kind


def test_cocoercivity_sampling_with_declared_constant(rng):
    for f in _sample_objectives(rng):
        dim = 5 if f.kind == "ot-dual" else (3 if f.kind == "dense-quadratic" else 4)
        p = f.norm_p
        q = 1.0 if p == np.inf else p / (p - 1.0)
        L = smoothness_constant(f, p)
        for _ in range(30):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            d = bregman(f.value, f.grad, x, y)
            assert (
                d >= lp_norm(f.grad(x) - f.grad(y), q) ** 2 / (2.0 * L) - 1e-10
            ), f.kind


def test_smoothness_constant_examples():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    assert smoothness_constant(f, 2.0) == 4.0
    f15 = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0], norm_p=1.5)
    assert smoothness_constant(f15, 1.5) == 4.0
    inst = OTInstance(C=[[0.0, 1.0], [1.0, 0.0]], mu=[0.5, 0.5], nu=[0.5, 0.5])
    h = OTDualObjective(inst, r=0.05)
    assert h.norm_p == 2.0
    assert smoothness_constant(h, 2.0) == pytest.approx(20.0)
    assert smoothness_constant(h, np.inf) == pytest.approx(80.0)


def test_smoothness_constant_rejects_unsupported_p():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        smoothness_constant(f, 3.0)
    dq = DenseQuadratic(A=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        smoothness_constant(dq, 1.5)
    inst = OTInstance(C=[[0.0, 1.0], [1.0, 0.0]], mu=[0.5, 0.5], nu=[0.5, 0.5])
    for p in (1.5, 3.0):
        with pytest.raises(ValueError):
            smoothness_constant(OTDualObjective(inst, r=0.05), p)


def _ot_hessian(h, z, step=1e-6):
    """Central differences of h.grad, symmetrized."""
    cols = [(h.grad(z + step * e) - h.grad(z - step * e)) / (2.0 * step) for e in np.eye(z.size)]
    H = np.array(cols)
    return 0.5 * (H + H.T)


def _sup_norm_curvature(H):
    """max d^T H d over the cube |d_i| <= 1, attained at a vertex (H is PSD)."""
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * H.shape[0])).reshape(H.shape[0], -1)
    return float(np.max(np.einsum("ik,ij,jk->k", signs, H, signs)))


def test_ot_dual_constants_against_sampled_hessian(rng):
    """Neither declared constant is below the sampled curvature, and both are nearly reached.

    The plan concentrated on two cells of different rows and columns
    (zero cost on the diagonal, r small) makes u_i + v_j vary by 2 per
    unit l2 norm and by 4 per unit sup norm: curvature 1/r and 4/r.
    """
    r = 0.05
    cases = [(OTInstance(C=[[0.0, 1.0], [1.0, 0.0]], mu=[0.5, 0.5], nu=[0.5, 0.5]), np.zeros(4))]
    for _ in range(20):
        inst = OTInstance(C=rng.uniform(0, 1, (2, 3)), mu=rng.dirichlet([3.0] * 2),
                          nu=rng.dirichlet([3.0] * 3))
        cases.append((inst, 0.1 * rng.standard_normal(5)))
    top_l2 = top_sup = 0.0
    for inst, z in cases:
        h = OTDualObjective(inst, r=r)
        H = _ot_hessian(h, z)
        top_l2 = max(top_l2, float(np.linalg.eigvalsh(H)[-1]))
        top_sup = max(top_sup, _sup_norm_curvature(H))
    L2, Linf = smoothness_constant(h, 2.0), smoothness_constant(h, np.inf)
    assert top_l2 <= L2 * (1 + 1e-6)
    assert top_sup <= Linf * (1 + 1e-6)
    assert top_l2 >= 0.95 * L2 and top_sup >= 0.95 * Linf


@pytest.mark.parametrize("p, reached", [(1.5, 2.0 ** (-4.0 / 3.0)), (2.0, 0.5), (np.inf, 1.0)])
def test_log_sum_exp_constant_per_norm_against_sampled_hessian(rng, p, reached):
    """d^T H d <= smoothness_constant(f, p) ||d||_p^2 along sampled directions.

    H = (1/r)(diag(s) - s s^T), so d^T H d = (1/r) Var_s(d) <= (1/r) ||d||_inf^2
    <= (1/r) ||d||_p^2: the constant 1/r holds for every p and is reached
    only in the sup norm.  The softmax split evenly over two coordinates
    with d = (1, -1, 0, ...) gives the sampled maximum, which is
    (1/r) ||d||_inf^2 / ||d||_p^2 = reached / r.
    """
    r, n, step = 0.1, 5, 1e-6
    f = LogSumExp(r=r, n=n)
    L = smoothness_constant(f, p)
    points = [r * rng.standard_normal(n) for _ in range(60)] + [np.array([0.0, 0.0, -5.0, -5.0, -5.0])]
    directions = [rng.standard_normal(n) for _ in range(30)] + [rng.choice([-1.0, 1.0], n) for _ in range(30)]
    directions.append(np.array([1.0, -1.0, 0.0, 0.0, 0.0]))
    top = 0.0
    for x in points:
        for d in directions:
            curvature = float(d @ (f.grad(x + step * d) - f.grad(x - step * d))) / (2.0 * step)
            top = max(top, curvature / lp_norm(d, p) ** 2)
    assert top <= L * (1 + 1e-6)
    assert top >= 0.99 * reached * L


def test_dense_quadratic_validation():
    with pytest.raises(ValueError):
        DenseQuadratic(A=[[1.0, 2.0], [0.0, 1.0]], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        DenseQuadratic(A=[[-1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0])


def test_diag_quadratic_validation():
    with pytest.raises(ValueError):
        DiagQuadratic(d=[-1.0, 1.0], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        DiagQuadratic(d=[1.0, 1.0], b=[0.0, 0.0], norm_p=3.0)


@pytest.mark.parametrize("d, b", [([2.0], [0.1, 0.2, 0.3]), ([1.0, 2.0, 3.0], [0.1, 0.2])])
def test_diag_quadratic_refuses_d_and_b_of_different_lengths(d, b):
    """A d of one entry is not broadcast over b, nor a longer d cut to it: both lengths are named."""
    with pytest.raises(ValueError, match=f"{len(d)} and {len(b)}"):
        DiagQuadratic(d=d, b=b)


def test_log_sum_exp_overflow_safety():
    f = LogSumExp(r=0.01, n=3)
    x = np.array([1000.0, -1000.0, 0.0])
    assert np.isfinite(f.value(x))
    assert np.all(np.isfinite(f.grad(x)))


def test_dimension_mismatch_errors():
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    with pytest.raises(ValueError):
        f.value(np.ones(3))


def test_descriptor_round_trips(rng):
    for f in _sample_objectives(rng):
        f2 = objective_from_descriptor(f.to_descriptor())
        dim = 5 if f.kind == "ot-dual" else (3 if f.kind == "dense-quadratic" else 4)
        x = rng.standard_normal(dim)
        assert f2.value(x) == pytest.approx(f.value(x), abs=1e-12)
        assert f2.kind == f.kind and f2.L == pytest.approx(f.L)


def _extreme_points(d, rng):
    """Rows of length d at magnitudes 1e-300 to 1e150, and rows with signed zeros, inf and nan."""
    rows = [rng.standard_normal(d) * 10.0 ** e for e in range(-300, 151, 50)]
    for special in (0.0, -0.0, math.inf, -math.inf, math.nan):
        x = rng.standard_normal(d)
        x[rng.integers(d)] = special
        rows.append(x)
    rows += [np.full(d, -0.0), np.zeros(d)]
    return rows


@pytest.mark.parametrize("d", [1, 3, 17, 1000])
def test_quadratic_values_are_the_former_formulas_bit_for_bit(d):
    """value, now the one-row case of values, equals the formula each quadratic used before,
    0.5 * z^T diag(d) z or 0.5 * z^T (A z), to the bit, as values does row by row."""
    rng = np.random.default_rng(d)
    M = rng.standard_normal((d, d))
    diag = DiagQuadratic(d=rng.uniform(0.0, 4.0, d), b=rng.standard_normal(d) * 1e-3)
    dense = DenseQuadratic(A=M @ M.T / d, b=diag.b)
    rows = _extreme_points(d, rng)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for f, former in ((diag, lambda z: 0.5 * float(z @ (diag.d * z))),
                          (dense, lambda z: 0.5 * float(z @ (dense.A @ z)))):
            want = np.array([former(x - f.b) for x in rows])
            assert np.array([f.value(x) for x in rows]).tobytes() == want.tobytes(), f.kind
            assert f.values(np.array(rows)).tobytes() == want.tobytes(), f.kind
