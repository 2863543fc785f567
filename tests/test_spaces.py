import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.spaces import (
    NormIndex,
    _as_matrix,
    _json_number,
    as_vector,
    bregman,
    finite_difference_gradient,
    lp_norm,
    lp_norms,
    pairing,
)


def test_pairing_examples():
    assert pairing(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    assert pairing(np.zeros(3), np.array([1.0, -2.0, 7.0])) == 0.0
    assert pairing(np.ones(3), np.array([0.5, 0.25, 0.25])) == 1.0


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(np.ones(2), np.ones(3))


def test_lp_norm_examples():
    assert lp_norm(np.array([3.0, 4.0]), 2) == 5.0
    assert lp_norm(np.array([1.0, 1.0]), 3) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert lp_norm(np.array([1.0, -2.0]), np.inf) == 2.0
    assert lp_norm(np.array([1.0, -2.0]), 1) == 3.0


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        lp_norm(np.ones(2), 0.5)


def test_lp_norms_reject_nan():
    """p = nan is refused as p < 1 is, by lp_norm and by the row-wise lp_norms, not
    answered with nan."""
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norm(np.ones(2), math.nan)
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norms(np.ones((3, 2)), math.nan)


def _lp_norm_reference(x, p):
    """The l_p norm of one row with numpy's reductions and its scalar power for the root."""
    a = np.abs(x)
    if p == np.inf:
        return np.max(a)
    if p == 1:
        return np.sum(a)
    if p == 2:
        return np.sqrt(x @ x)
    return np.sum(a ** p) ** (1.0 / p)


_EXTREME_ROWS = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [5e-324, -1e-310, 0.0, 2.5e-308],  # subnormal
    [1e150, -1e150, 3.0, 0.0],  # |x|^p, or the sum, overflows for p >= 2
    [1e150, 1e-300, -1e150, 1e150],
    [math.inf, 1.0, -2.0, 0.0],
    [-math.inf, math.inf, 0.0, 1e-320],
    [math.nan, 1.0, 0.0, -2.0],
    [math.inf, math.nan, 1e150, 0.0],
])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_lp_norms_on_extreme_rows_match_a_scalar_reference(p):
    """The roots of lp_norms, taken on Python floats, equal numpy's scalar power on rows of
    zeros, subnormals, overflowing, infinite and nan entries, with no OverflowError or
    ValueError, and lp_norm, its one-row case, equals them row by row."""
    with np.errstate(over="ignore"):  # as _norm_power_map sets it
        want = [_lp_norm_reference(x, p) for x in _EXTREME_ROWS]
        got = lp_norms(_EXTREME_ROWS, p)
        one_row = [lp_norm(x, p) for x in _EXTREME_ROWS]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(one_row, want)
    assert got[0] == 0.0 and math.isinf(got[4]) and math.isnan(got[6])


def test_norm_index_conjugacy():
    for p in (1.2, 1.5, 2.0, 3.0):
        ni = NormIndex(p)
        assert 1.0 / ni.p + 1.0 / ni.q == pytest.approx(1.0, abs=1e-15)


def test_norm_index_rejects_endpoints():
    with pytest.raises(ValueError):
        NormIndex(1.0)
    with pytest.raises(ValueError):
        NormIndex(np.inf)


def test_as_vector_rejects_nonfinite_and_matrix():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


@pytest.mark.parametrize("bad", [[1.0, True], ["1.0", 2.0], [None], [], (1.0, "2"), "12", 3.0,
                                 [2 ** 1100], [1.0, math.inf]])
def test_as_vector_reads_only_lists_of_finite_numbers(bad):
    with pytest.raises(ValueError, match="^v "):
        as_vector(bad, "v")


def test_as_vector_keeps_ints_floats_and_arrays():
    assert as_vector([1, 2.5, 2 ** 70]).tolist() == [1.0, 2.5, float(2 ** 70)]
    x = np.array([0.5, -1.0])
    assert np.array_equal(as_vector(x), x)


@pytest.mark.parametrize("bad", [True, "1.5", None, [1.0], math.nan, -math.inf, 2 ** 1100])
def test_json_number_refuses_what_float_would_take(bad):
    with pytest.raises(ValueError, match="^x "):
        _json_number(bad, "x")


@pytest.mark.parametrize("bad", [[], [[1.0], [1.0, 2.0]], [[1.0], "ab"], {"a": [1.0]}])
def test_as_matrix_needs_rows_of_one_length(bad):
    with pytest.raises(ValueError, match="^M "):
        _as_matrix(bad, "M")


def test_as_matrix_reads_lists_and_arrays_alike():
    M = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(_as_matrix(M, "M"), M)
    assert np.array_equal(_as_matrix(M.tolist(), "M"), M)


def _half_sq_l2(x):
    return 0.5 * float(np.dot(x, x))


def test_bregman_examples():
    val = bregman(_half_sq_l2, lambda x: x, np.array([1.0, 0.0]), np.zeros(2))
    assert val == pytest.approx(0.5, abs=1e-15)
    x = np.array([0.3, -0.7])
    assert bregman(_half_sq_l2, lambda z: z, x, x) == 0.0


def test_bregman_squared_l3_cross_check():
    # h = 1/2 ||x||_3^2, two independent expansions of the same divergence.
    def h(x):
        return 0.5 * lp_norm(x, 3) ** 2

    def hg(x):
        n = lp_norm(x, 3)
        if n == 0:
            return np.zeros_like(x)
        return n ** (2.0 - 3.0) * np.sign(x) * np.abs(x) ** 2

    x = np.array([1.0, 1.0])
    x0 = np.array([0.5, 0.5])
    direct = bregman(h, hg, x, x0)
    brute = h(x) - h(x0) - float(hg(x0) @ (x - x0))
    assert direct == pytest.approx(brute, abs=1e-14)
    assert direct >= 0.0


def test_bregman_rejects_nonfinite_gradient():
    with pytest.raises(ValueError):
        bregman(_half_sq_l2, lambda x: x * np.inf, np.ones(2), np.ones(2))


def test_fd_gradient_quadratic():
    g = finite_difference_gradient(_half_sq_l2, np.array([1.0, 2.0]))
    assert np.allclose(g, [1.0, 2.0], atol=1e-8)


def test_fd_gradient_constant():
    g = finite_difference_gradient(lambda x: 3.0, np.array([0.3, -0.4, 1.1]))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_fd_gradient_log_sum_exp_at_zero():
    def lse(x):
        return math.log(float(np.sum(np.exp(x))))

    g = finite_difference_gradient(lse, np.zeros(2))
    assert np.allclose(g, [0.5, 0.5], atol=1e-8)


def test_fd_gradient_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        finite_difference_gradient(_half_sq_l2, np.ones(2), step=0.0)
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda x: math.inf, np.ones(2))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.floats(1.1, 4.0),
)
def test_holder_inequality(us, xs, p):
    n = min(len(us), len(xs))
    u = np.array(us[:n])
    x = np.array(xs[:n])
    ni = NormIndex(p)
    lhs = abs(pairing(u, x))
    rhs = lp_norm(u, ni.q) * lp_norm(x, ni.p)
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_bregman_nonnegative_for_convex_h(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    x0 = rng.standard_normal(4)
    assert bregman(_half_sq_l2, lambda z: z, x, x0) >= -1e-12
