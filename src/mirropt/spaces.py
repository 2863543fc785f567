"""Finite-dimensional primal/dual vector arithmetic and norms.

Everything lives in R^n with the dot product as the pairing between a
space and its dual.  Primal and dual vectors share the same concrete
representation (a float64 ndarray) but are kept apart by naming; the
norm indices (p for primal, q = p/(p-1) for dual) carry the geometry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]
PrimalVector = Vector
DualVector = Vector

__all__ = [
    "Vector",
    "PrimalVector",
    "DualVector",
    "NormIndex",
    "as_vector",
    "pairing",
    "pairings",
    "lp_norm",
    "lp_norms",
    "bregman",
    "finite_difference_gradient",
]

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class NormIndex:
    """A norm exponent p in (1, inf) together with its conjugate q."""

    p: float

    def __post_init__(self):
        if not (1.0 < self.p < np.inf):
            raise ValueError(f"norm index p must lie in (1, inf), got {self.p}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


def _json_int(v, what: str) -> int:
    if type(v) is not int:  # a bool is no JSON integer
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _json_number(v, what: str) -> float:
    """A JSON number as a float: a bool, string, NaN, Infinity or int past the float range is refused."""
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _positive_finite(**values) -> None:
    """Refuse, naming them, values that are not each positive and finite (so not nan)."""
    if not all(0 < v < math.inf for v in values.values()):
        raise ValueError(f"{' and '.join(values)} must be positive and finite, got "
                         + ", ".join(f"{k}={v!r}" for k, v in values.items()))


def as_vector(x, name: str = "vector") -> Vector:
    """A finite, non-empty 1-d float64 array from an array, or from a list (or tuple) of ints and
    floats, screened by entry type in one pass: a bool, string, null or nested entry is refused."""
    if not (isinstance(x, np.ndarray) or isinstance(x, (list, tuple)) and set(map(type, x)) <= {int, float}):
        raise ValueError(f"{name} must be a list of numbers")
    try:
        v = np.asarray(x, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} has an entry beyond the float range") from None
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be one-dimensional with length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _as_matrix(rows, name: str) -> np.ndarray:
    """A 2-d float64 array from a non-empty list or array of rows of one length, each read by as_vector."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:  # read whole, not row by row
        return as_vector(rows.ravel(), name).reshape(rows.shape)
    if not (isinstance(rows, (list, tuple)) and rows):
        raise ValueError(f"{name} must be a non-empty list of rows")
    vs = [as_vector(r, f"{name} row {i}") for i, r in enumerate(rows)]
    if len({v.size for v in vs}) > 1:
        raise ValueError(f"{name} rows must all have one length")
    return np.array(vs)


def pairing(u: DualVector, x: PrimalVector) -> float:
    """Canonical pairing <u, x> = sum_i u_i x_i, the one-row case of pairings."""
    return float(pairings([u], [x])[0])


def pairings(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row-wise pairings <U_k, X_k> of two (n, d) stacks.

    Each row is one dot product; pairing is its one-row case.
    """
    U = np.asarray(U, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if U.shape != X.shape or U.ndim != 2:
        raise ValueError(f"pairings needs two (n, d) stacks of one shape: {U.shape} vs {X.shape}")
    return (U[:, None, :] @ X[:, :, None])[:, 0, 0]


def lp_norm(x: Vector, p: float) -> float:
    """l_p norm for p in [1, inf]; p = inf gives the max norm.  The one-row case of
    lp_norms, with x read as one row whatever its shape."""
    return float(lp_norms(np.asarray(x, dtype=np.float64).reshape(1, -1), p)[0])


def lp_norms(X: np.ndarray, p: float) -> np.ndarray:
    """Row-wise l_p norms of an (n, d) stack; lp_norm is its one-row case.

    The sums run over the last axis; the root 1/p is taken per sum, as a
    Python float, whose power is the libm pow numpy's scalar power calls,
    since numpy's array power may round it differently.  An inf or nan sum
    gives an inf or nan root, not an error.  At p = 1 both powers are exact,
    so the general form is the plain sum of |x_i|.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"lp_norms needs an (n, d) stack, got shape {X.shape}")
    if p == np.inf:
        return np.max(np.abs(X), axis=-1)
    if not p >= 1:  # nan too
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    if p == 2:
        return np.sqrt(pairings(X, X))
    return np.array([s ** (1.0 / p) for s in np.add.reduce(np.abs(X) ** p, axis=-1).tolist()])


def bregman(
    h_value_at: Callable[[Vector], float],
    h_grad_at: Callable[[Vector], Vector],
    x: Vector,
    x0: Vector,
) -> float:
    """Bregman divergence D_h(x, x0) = h(x) - h(x0) - <grad h(x0), x - x0>."""
    x = np.asarray(x, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    g0 = np.asarray(h_grad_at(x0), dtype=np.float64)
    if not np.all(np.isfinite(g0)):
        raise ValueError("gradient of h is undefined (non-finite) at x0")
    return float(h_value_at(x)) - float(h_value_at(x0)) - pairing(g0, x - x0)


def finite_difference_gradient(
    f: Callable[[Vector], float],
    x: Vector,
    step: float = DEFAULT_FD_STEP,
) -> DualVector:
    """Central-difference gradient, the oracle for analytic gradient checks."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g
