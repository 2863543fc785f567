import decimal
import warnings
from decimal import Decimal

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


def _mixed_magnitudes(d: int, seed: int = 0) -> np.ndarray:
    """d entries of random sign from 1e-323 to 1e300, a -0.0 and a subnormal among them."""
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], d) * rng.uniform(1.0, 10.0, d) * 10.0 ** rng.integers(-323, 300, d)
    y[:3] = [1e300, -0.0, 5e-324]
    return y


@pytest.mark.parametrize("y", [
    [-0.0, 1.0], [-0.0, -0.0], [0.0, -0.0], [np.inf, -2.0], [-np.inf, np.inf],
    [np.nan, 1.0], [3.0, -4.0],
    # ||y||_2 in range beside subnormal entries, and overflowing beside small ones
    [5e-324, -1e-310, -0.0, 1.0], [1e300, -1e300, 1e-300, -5e-324], [-1e-300, 1e300],
    _mixed_magnitudes(1000), np.random.default_rng(1).standard_normal(1000),
])
@pytest.mark.parametrize("x0", [None, [0.7, -0.0], [-0.0, 0.0]])
def test_euclidean_conjugate_grad_equals_general_formula(y, x0):
    """At q = 2 grad phi*(y) is y + 0.0 (+ x0) bit for bit, sign bits and all: the
    general formula, with no branch of its own (x0 repeated to the length of y)."""
    y = np.array(y)
    g = euclidean(x0=None if x0 is None else np.resize(x0, y.shape))
    with np.errstate(invalid="ignore", over="ignore"):
        want = _general_conjugate_grad(g, y)
    got = g.conjugate_grad(y)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == (y + 0.0 if g.x0 is None else y + 0.0 + g.x0).tobytes()


def test_euclidean_conjugate_grad_is_exact_below_norm_underflow():
    # ||y||^2 underflows to 0 here, so the general formula would return 0.
    for y in ([1e-170, -1e-170], [5e-324, -0.0, -1e-310], _mixed_magnitudes(1000) * 1e-300):
        y = np.array(y)
        assert euclidean().conjugate_grad(y).tobytes() == (y + 0.0).tobytes()


def test_euclidean_conjugate_grad_is_exact_at_the_top_of_the_float_range():
    # max|y| >= 2^1023, whose power of two 2^1024 is past the float range.
    for y in ([1.7e308, -1e-320, -0.0], [-np.finfo(float).max, 5e-324, 1.0]):
        y = np.array(y)
        assert euclidean().conjugate_grad(y).tobytes() == (y + 0.0).tobytes()


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
def test_grad_keeps_small_entries_beside_an_overflowing_norm(p):
    """Where ||z||_p overflows, no entry far below max|z| is flushed: at p = 1.5,
    grad phi([1e300, -1e-20]) gave 0 where -1e140 is right, and at p = 2 the map is
    z itself."""
    g, y = squared_lp(p), np.array([1.0, -1e-320])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g.grad(1e300 * y)
    assert np.allclose(got, 1e300 * g.grad(y), rtol=1e-13, atol=0.0)
    if p == 2.0:
        assert got.tobytes() == (1e300 * y).tobytes()


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


def _exact_norm_power_map(z, r):
    """||z||_r^{2-r} sign(z) |z|^{r-1} of the floats z and r, as Decimals to 50 digits."""
    with decimal.localcontext(decimal.Context(prec=50)):
        z, r = [Decimal(float(v)) for v in z], Decimal(float(r))
        norm = sum(abs(v) ** r for v in z) ** (1 / r)
        return [norm ** (2 - r) * abs(v) ** (r - 1) * (1 if v > 0 else -1) for v in z]


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("z", [[1e300, 1e-10], [1e300, 1e-100], [1e300, -1e-50, 3.0]])
def test_mirror_maps_beside_an_overflowing_norm_match_the_exact_value(p, z):
    """grad phi (r = p) and grad phi* (r = q > 2) where ||z||_r overflows: each entry within
    2e-13 of the exact value, or of a subnormal one within the least subnormal, with no
    warning.  At q > 2 a scaling by a power of two of max|z| flushed the small entries:
    squared_lp(1.8).conjugate_grad([1e300, 1e-10]) gave [1e300, 0] for [1e300, 3.16e-88]."""
    g = squared_lp(p)
    for f, r in ((g.grad, g.p), (g.conjugate_grad, g.q)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(np.array(z))
        for v, want in zip(got.tolist(), _exact_norm_power_map(z, r)):
            assert abs(Decimal(v) - want) <= Decimal(2e-13) * abs(want) + Decimal(5e-324), (r, v, want)


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


@pytest.mark.parametrize("desc", [
    {"kind": "euclidean", "x0": [1.0, 2.0]},
    {"kind": "shifted-euclidean"},
    {"kind": "shifted-euclidean", "x0": None},
    {"kind": "squared-lp", "p": 1.5, "x0": [1.0, 2.0]},
    {"kind": "shifted-squared-lp", "p": 1.5},
])
def test_kind_that_disagrees_with_x0_is_refused(desc):
    """A kind names its shift: a shifted- kind with no x0 (null included), or another kind
    with one, is refused naming both, not built as the other geometry."""
    with pytest.raises(ValueError, match=f"DGF kind '{desc['kind']}' .*x0=") as e:
        dgf_from_descriptor(desc)
    assert ("needs an x0" in str(e.value)) == desc["kind"].startswith("shifted-")


def test_descriptor_without_kind_reads_its_shift_from_x0():
    """With no kind, x0 alone decides; a kind that is no string is an unknown kind."""
    assert dgf_from_descriptor({"x0": [1.0, 2.0]}).kind == "shifted-euclidean"
    assert dgf_from_descriptor({}).kind == "euclidean"
    assert dgf_from_descriptor({"kind": "euclidean", "x0": None}).kind == "euclidean"
    for kind in (None, 2, ["euclidean"]):
        with pytest.raises(ValueError, match="unknown DGF kind"):
            dgf_from_descriptor({"kind": kind, "x0": [1.0, 2.0]})


def test_rejects_nonfinite_shift():
    with pytest.raises(ValueError):
        DGF(NormIndex(2.0), x0=np.array([1.0, np.inf]))


@pytest.mark.parametrize("x0", [[1.0], [1.0, 2.0, 3.0]])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_shift_of_another_length_is_refused(x0, p):
    """A shift whose length differs from the point's is refused where the point meets it,
    naming x0 and both lengths: a length-1 shift was broadcast over a point of length 2,
    and a length-3 one failed with numpy's broadcast error."""
    g, y = squared_lp(p, x0=x0), np.array([0.5, -1.0])
    for call in (g.value, g.grad, g.conjugate_grad, g.conjugate_value):
        with pytest.raises(ValueError, match=f"x0 has length {len(x0)}, but the point has length 2"):
            call(y)
    with pytest.raises(ValueError, match=f"x0 has length {len(x0)}, but the point has length 2"):
        g.conjugate_values(np.ones((3, 2)))


def test_conjugate_values_refuse_rows_longer_than_the_shift():
    """A length-1 shift was broadcast over rows of length 3 by conjugate_values, while
    conjugate_value refused them; its one-row case now refuses them as the stack does."""
    g = squared_lp(1.5, x0=[0.5])
    with pytest.raises(ValueError, match=r"\(2, 3\) vs \(2, 1\)"):
        g.conjugate_values(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"\(1, 3\) vs \(1, 1\)"):
        g.conjugate_value(np.ones(3))
