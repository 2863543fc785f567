"""Smooth convex test objectives with declared smoothness constants.

Each objective carries an exact gradient, the smoothness constant L
for the norm it is declared against, and (when available) an analytic
minimizer / optimal value so rate bounds can be asserted exactly.
The constants are declared analytically, never estimated; the sampled
cocoercivity check in the tests guards against a misdeclared L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (DualVector, PrimalVector, Vector, _as_matrix, _json_int, _json_number, _positive_finite,
                     as_vector, pairings)

__all__ = [
    "SmoothObjective",
    "DiagQuadratic",
    "DenseQuadratic",
    "LogSumExp",
    "objective_from_descriptor",
]


class SmoothObjective:
    """Interface: value(x), grad(x), plus L / norm_p / x_star / f_star fields."""

    kind: str
    L: float
    norm_p: float
    x_star: Optional[Vector]
    f_star: Optional[float]

    def value(self, x: PrimalVector) -> float:
        raise NotImplementedError

    def grad(self, x: PrimalVector) -> DualVector:
        raise NotImplementedError

    def values(self, X: np.ndarray) -> np.ndarray:
        """value at each row of an (n, d) stack, float for float.

        Objectives whose value is a few array operations evaluate the
        stack at once, and their value is its one-row case; the others
        evaluate it row by row.
        """
        return np.array([self.value(x) for x in X], dtype=np.float64)

    def to_descriptor(self) -> dict:
        raise NotImplementedError

    def _check_dim(self, x: Vector, n: int) -> Vector:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"dimension mismatch: expected ({n},), got {x.shape}")
        return x

    def _check_rows(self, X: np.ndarray, n: int) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != n:
            raise ValueError(f"dimension mismatch: expected (rows, {n}), got {X.shape}")
        return X


@dataclass
class DiagQuadratic(SmoothObjective):
    """f(x) = (1/2) (x-b)^T diag(d) (x-b), minimized at b with value 0.

    For p in (1, 2] the smoothness constant w.r.t. ||.||_p is max_i d_i,
    since ||z||_q <= ||z||_p for the conjugate q >= 2 >= p.
    """

    d: Vector
    b: Vector
    norm_p: float = 2.0

    def __post_init__(self):
        self.d, self.b = as_vector(self.d, "d"), as_vector(self.b, "b")
        if self.d.size != self.b.size:
            raise ValueError(f"d and b must have one length, got {self.d.size} and {self.b.size}")
        if np.any(self.d < 0):
            raise ValueError("diagonal entries must be nonnegative")
        if not (1.0 < self.norm_p <= 2.0):
            raise ValueError("diag-quadratic smoothness is declared for p in (1, 2]")
        self.kind = "diag-quadratic"
        self.L = float(np.max(self.d))
        self.x_star = self.b.copy()
        self.f_star = 0.0

    def value(self, x: PrimalVector) -> float:
        return float(self.values(self._check_dim(x, self.b.size)[None])[0])

    def values(self, X: np.ndarray) -> np.ndarray:
        Z = self._check_rows(X, self.b.size) - self.b
        return 0.5 * pairings(Z, self.d * Z)

    def grad(self, x: PrimalVector) -> DualVector:
        z = self._check_dim(x, self.b.size) - self.b
        return self.d * z

    def to_descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d.tolist(),
            "b": self.b.tolist(),
            "p": self.norm_p,
        }


@dataclass
class DenseQuadratic(SmoothObjective):
    """f(x) = (1/2) (x-b)^T A (x-b) with symmetric PSD A; L = ||A||_2."""

    A: np.ndarray
    b: Vector

    def __post_init__(self):
        self.A, self.b = _as_matrix(self.A, "A"), as_vector(self.b, "b")
        if self.A.shape != (self.b.size, self.b.size):
            raise ValueError("A must be square and match b")
        if not np.allclose(self.A, self.A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(self.A)
        if eigs[0] < -1e-10:
            raise ValueError("A must be positive semidefinite")
        self.kind = "dense-quadratic"
        self.norm_p = 2.0
        self.L = float(eigs[-1])
        self.x_star = self.b.copy()
        self.f_star = 0.0

    def value(self, x: PrimalVector) -> float:
        return float(self.values(self._check_dim(x, self.b.size)[None])[0])

    def values(self, X: np.ndarray) -> np.ndarray:
        Z = self._check_rows(X, self.b.size) - self.b
        # A @ z per row (one matrix-vector product each, as in grad), not Z @ A.
        return 0.5 * pairings(Z, (self.A @ Z[:, :, None])[:, :, 0])

    def grad(self, x: PrimalVector) -> DualVector:
        z = self._check_dim(x, self.b.size) - self.b
        return self.A @ z

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "A": self.A.tolist(), "b": self.b.tolist()}


@dataclass
class LogSumExp(SmoothObjective):
    """f(x) = r log sum_i exp(x_i / r), (1/r)-smooth w.r.t. ||.||_inf.

    Its infimum over R^n is -inf (along x -> -inf * 1), so no f_star is
    attached; bounded runs obtain a reference value externally.
    """

    r: float
    n: int

    def __post_init__(self):
        _positive_finite(r=self.r)
        if _json_int(self.n, "n") < 1:  # a float or bool n would build and then fail every call
            raise ValueError(f"n must be at least 1, got {self.n}")
        self.kind = "log-sum-exp"
        self.norm_p = np.inf
        self.L = 1.0 / self.r
        self.x_star = None
        self.f_star = None

    def value(self, x: PrimalVector) -> float:
        z = self._check_dim(x, self.n) / self.r
        m = float(np.max(z))
        return self.r * (m + float(np.log(np.sum(np.exp(z - m)))))

    def grad(self, x: PrimalVector) -> DualVector:
        z = self._check_dim(x, self.n) / self.r
        z = z - np.max(z)
        e = np.exp(z)
        return e / np.sum(e)

    def to_descriptor(self) -> dict:
        return {"kind": self.kind, "r": self.r, "n": self.n}


def smoothness_constant(obj: SmoothObjective, p: float) -> float:
    """Smoothness constant of obj with respect to ||.||_p.

    Raises for (kind, p) combinations whose constant is not declared.
    """
    if obj.kind == "diag-quadratic":
        if not (1.0 < p <= 2.0):
            raise ValueError("diag-quadratic supports p in (1, 2] only")
        return obj.L
    if obj.kind == "dense-quadratic":
        if p != 2.0:
            raise ValueError("dense-quadratic supports p = 2 only")
        return obj.L
    if obj.kind == "log-sum-exp":
        # 1/r w.r.t. ||.||_inf; bounds for other p derive from that one.
        return obj.L
    if obj.kind == "ot-dual":
        # Hessian (1/r) Cov_P(u_i + v_j): at most 1/r in l2, and 4/r in the
        # sup norm, where |u_i + v_j - u_k - v_l| reaches 4.
        if p == 2.0:
            return obj.L
        if p == np.inf:
            return 4.0 * obj.L
        raise ValueError("ot-dual supports p = 2 and p = inf only")
    raise ValueError(f"unknown objective kind {obj.kind!r}")


def objective_from_descriptor(desc: dict) -> SmoothObjective:
    """Build an objective from its descriptor; every number must be a finite JSON number."""
    kind = desc["kind"]
    if kind == "diag-quadratic":
        return DiagQuadratic(d=desc["d"], b=desc["b"], norm_p=_json_number(desc.get("p", 2.0), "p"))
    if kind == "dense-quadratic":
        return DenseQuadratic(A=desc["A"], b=desc["b"])
    if kind == "log-sum-exp":
        return LogSumExp(r=_json_number(desc["r"], "r"), n=_json_int(desc["n"], "n"))
    if kind == "ot-dual":
        from .ot import OTDualObjective, instance_from_descriptor

        return OTDualObjective(instance_from_descriptor(desc), r=_json_number(desc["r"], "r"))
    raise ValueError(f"unknown objective kind {kind!r}")
