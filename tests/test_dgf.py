import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.dgf import DGF, dgf_from_descriptor, euclidean, squared_lp
from mirropt.spaces import NormIndex, bregman, finite_difference_gradient, lp_norm, pairing


def test_value_examples():
    g = euclidean()
    assert g.value(np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-14)
    g15 = squared_lp(1.5)
    assert g15.value(np.zeros(2)) == 0.0
    assert g15.value(np.array([1.0, 1.0])) == pytest.approx(0.5 * 2.0 ** (4.0 / 3.0), abs=1e-12)


def test_conjugate_value_examples():
    g = euclidean()
    assert g.conjugate_value(np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-14)
    gs = euclidean(x0=np.array([1.0, 0.0]))
    assert gs.conjugate_value(np.array([2.0, 0.0])) == pytest.approx(4.0, abs=1e-14)
    g15 = squared_lp(1.5)  # q = 3
    assert g15.conjugate_value(np.array([1.0, 1.0])) == pytest.approx(
        0.5 * 2.0 ** (2.0 / 3.0), abs=1e-12
    )


def test_conjugate_grad_examples():
    g = euclidean()
    assert np.allclose(g.conjugate_grad(np.array([1.0, 2.0])), [1.0, 2.0])
    x0 = np.array([0.7, -0.2])
    assert np.allclose(euclidean(x0=x0).conjugate_grad(np.zeros(2)), x0)
    assert np.allclose(squared_lp(1.5).conjugate_grad(np.zeros(2)), 0.0)
    got = squared_lp(1.5).conjugate_grad(np.array([1.0, 1.0]))
    assert np.allclose(got, 2.0 ** (-1.0 / 3.0) * np.ones(2), atol=1e-12)


def _general_conjugate_grad(g, y):
    """grad phi*(y) by the general formula, q = 2 included."""
    ny = lp_norm(y, g.q)
    out = np.zeros_like(y) if ny == 0.0 else ny ** (2.0 - g.q) * np.sign(y) * np.abs(y) ** (g.q - 1.0)
    return out if g.x0 is None else out + g.x0


@pytest.mark.parametrize("y", [
    [-0.0, 1.0], [-0.0, -0.0], [0.0, -0.0], [np.inf, -2.0], [-np.inf, np.inf],
    [np.nan, 1.0], [3.0, -4.0],
])
@pytest.mark.parametrize("x0", [None, [0.7, -0.0], [-0.0, 0.0]])
def test_euclidean_conjugate_grad_equals_general_formula(y, x0):
    g = euclidean(x0=None if x0 is None else np.array(x0))
    y = np.array(y)
    with np.errstate(invalid="ignore", over="ignore"):
        want = _general_conjugate_grad(g, y)
    got = g.conjugate_grad(y)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_euclidean_conjugate_grad_is_exact_below_norm_underflow():
    # ||y||^2 underflows to 0 here, so the general formula would return 0.
    y = np.array([1e-170, -1e-170])
    assert np.array_equal(euclidean().conjugate_grad(y), y)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("t, y", [
    (1e200, [1.0, 1.0]), (1e-120, [1.0, -1.0]), (1e300, [2.0, -0.5, 1.0]), (1e-250, [1.0, -3.0]),
])
def test_mirror_maps_are_homogeneous_outside_norm_range(p, t, y):
    """grad phi and grad phi* are 1-homogeneous, also where ||t y|| under- or overflows."""
    g = squared_lp(p)
    y = np.array(y)
    with np.errstate(over="ignore", under="ignore"):
        for f in (g.conjugate_grad, g.grad):
            got = f(t * y)
            assert np.all(np.isfinite(got))
            assert np.allclose(got, t * f(y), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_mirror_maps_do_not_warn_on_norm_overflow(p):
    """The overflowed norm is rescaled, so no RuntimeWarning reaches the caller."""
    g = squared_lp(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (g.conjugate_grad, g.grad):
            assert np.allclose(f(np.array([1e300, -1e300])), 1e300 * f(np.array([1.0, -1.0])),
                               rtol=1e-13, atol=0.0)


def test_grad_examples():
    x0 = np.array([0.3, 0.4, -1.0])
    g = squared_lp(1.5, x0=x0)
    assert np.allclose(g.grad(x0), 0.0)
    assert np.allclose(euclidean().grad(np.array([1.0, 2.0])), [1.0, 2.0])


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
def test_grads_match_finite_differences(p, rng):
    g = squared_lp(p, x0=rng.standard_normal(4))
    for _ in range(20):
        x = rng.standard_normal(4)
        fd = finite_difference_gradient(g.value, x)
        an = g.grad(x)
        assert np.allclose(an, fd, rtol=1e-6, atol=1e-6)
        y = rng.standard_normal(4)
        fd = finite_difference_gradient(g.conjugate_value, y)
        an = g.conjugate_grad(y)
        assert np.allclose(an, fd, rtol=1e-6, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.05, 2.0), st.integers(0, 10_000))
def test_inverse_map_property(p, seed):
    rng = np.random.default_rng(seed)
    g = squared_lp(p)
    x = rng.standard_normal(5)
    back = g.conjugate_grad(g.grad(x))
    assert np.allclose(back, x, rtol=1e-8, atol=1e-8)
    y = rng.standard_normal(5)
    fwd = g.grad(g.conjugate_grad(y))
    assert np.allclose(fwd, y, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_fenchel_inequality_and_equality_case(p, rng):
    g = squared_lp(p, x0=rng.standard_normal(3))
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        gap = g.value(x) + g.conjugate_value(y) - pairing(y, x)
        assert gap >= -1e-10
        y_star = g.grad(x)
        eq_gap = g.value(x) + g.conjugate_value(y_star) - pairing(y_star, x)
        assert abs(eq_gap) <= 1e-8


def test_conjugate_at_zero_is_zero_and_positive_elsewhere(rng):
    for p in (1.2, 1.5, 2.0):
        g = squared_lp(p)
        assert g.conjugate_value(np.zeros(4)) == 0.0
        for _ in range(20):
            y = rng.standard_normal(4)
            if lp_norm(y, 2) > 1e-12:
                assert g.conjugate_value(y) > 0.0


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_strong_convexity_sampling(p, rng):
    g = squared_lp(p)
    for _ in range(50):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        d = bregman(g.value, g.grad, x, y)
        assert d >= g.sigma / 2.0 * lp_norm(x - y, p) ** 2 - 1e-10


def test_sigma_is_p_minus_one():
    assert euclidean().sigma == 1.0
    assert squared_lp(1.5).sigma == pytest.approx(0.5)
    assert squared_lp(1.2).sigma == pytest.approx(0.2)


def test_rejects_p_above_two():
    with pytest.raises(ValueError):
        squared_lp(3.0)


def test_kind_and_descriptor_round_trip():
    cases = [
        euclidean(),
        euclidean(x0=np.array([1.0, 2.0])),
        squared_lp(1.5),
        squared_lp(1.2, x0=np.array([0.5, -0.5])),
    ]
    kinds = [c.kind for c in cases]
    assert kinds == ["euclidean", "shifted-euclidean", "squared-lp", "shifted-squared-lp"]
    for g in cases:
        g2 = dgf_from_descriptor(g.to_descriptor())
        assert g2.kind == g.kind and g2.p == g.p
        x = np.array([0.3, -1.1])
        assert g2.value(x) == pytest.approx(g.value(x), abs=1e-14)


def test_rejects_nonfinite_shift():
    with pytest.raises(ValueError):
        DGF(NormIndex(2.0), x0=np.array([1.0, np.inf]))


def test_conjugate_values_refuse_rows_longer_than_the_shift():
    """A length-1 shift was broadcast over rows of length 3 by conjugate_values, while
    conjugate_value refused them; its one-row case now refuses them as the stack does."""
    g = squared_lp(1.5, x0=[0.5])
    with pytest.raises(ValueError, match=r"\(2, 3\) vs \(2, 1\)"):
        g.conjugate_values(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\(1, 3\) vs \(1, 1\)"):
        g.conjugate_value(np.ones(3))
