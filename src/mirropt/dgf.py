"""Distance-generating functions and their mirror maps.

All supported DGFs are of the form phi(x) = (1/2) ||x - x0||_p^2 with
p in (1, 2], which is (p-1)-strongly convex with respect to ||.||_p
(sigma = 1 in the Euclidean case p = 2).  The convex conjugate is
phi*(y) = (1/2) ||y||_q^2 + <y, x0> with q = p/(p-1), and the gradient
pair (grad phi, grad phi*) is the mirror map used by every method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spaces import DualVector, NormIndex, PrimalVector, Vector, _json_number, as_vector, lp_norm, lp_norms, pairings

__all__ = ["DGF", "euclidean", "squared_lp", "dgf_from_descriptor"]


def _signed_power(z: Vector, expo: float) -> Vector:
    return np.sign(z) * np.abs(z) ** expo


def _norm_power_map(z: Vector, r: float) -> Vector:
    """grad (1/2)||z||_r^2 = ||z||_r^{2-r} sign(z) |z|^{r-1}, and 0 at z = 0.

    The map is 1-homogeneous.  When ||z||_r comes out 0 or inf on a finite,
    nonzero z (|z_i|^r under- or overflows), it is taken at z scaled by a
    power of two of max|z| and scaled back; in-range inputs keep their floats.
    """
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        nz = lp_norm(z, r)
    e = 0
    if nz == 0.0 or nz == np.inf:
        big = float(np.max(np.abs(z)))
        if 0.0 < big < np.inf:
            e = math.frexp(big)[1]
            z = np.ldexp(z, -e)
            nz = lp_norm(z, r)
    if nz == 0.0:
        return np.zeros_like(z)
    out = nz ** (2.0 - r) * _signed_power(z, r - 1.0)
    return np.ldexp(out, e) if e else out


def _identity(y: DualVector) -> PrimalVector:
    """grad phi* of an unshifted p = 2 DGF as the runners step it: y itself, no copy."""
    return y


@dataclass(frozen=True)
class DGF:
    """Bundle of phi, phi*, grad phi, grad phi* with shift x0 and modulus sigma."""

    norm: NormIndex
    x0: Optional[Vector] = None
    sigma: float = field(init=False)

    def __post_init__(self):
        p = self.norm.p
        if p > 2:
            raise ValueError("squared-lp DGFs are supported only for p in (1, 2]")
        if self.x0 is not None:
            object.__setattr__(self, "x0", as_vector(self.x0, "x0"))
        # Modulus p - 1 w.r.t. ||.||_p (1 in the Euclidean case).
        object.__setattr__(self, "sigma", p - 1.0)

    @property
    def p(self) -> float:
        return self.norm.p

    @property
    def q(self) -> float:
        return self.norm.q

    @property
    def shifted(self) -> bool:
        return self.x0 is not None

    @property
    def kind(self) -> str:
        if self.p == 2.0:
            return "shifted-euclidean" if self.shifted else "euclidean"
        return "shifted-squared-lp" if self.shifted else "squared-lp"

    @property
    def _mirror_map(self):
        """grad phi* as every runner and executor steps it: for an unshifted p = 2 DGF
        the identity, so a run's mirror family is its dual family's storage, equal in
        value to conjugate_grad (a -0.0 stays -0.0); conjugate_grad otherwise."""
        return _identity if self.kind == "euclidean" else self.conjugate_grad

    def _shift(self, x: Vector) -> Vector:
        return x if self.x0 is None else x - self.x0

    def value(self, x: PrimalVector) -> float:
        """phi(x) = (1/2) ||x - x0||_p^2."""
        return 0.5 * lp_norm(self._shift(np.asarray(x, dtype=np.float64)), self.p) ** 2

    def grad(self, x: PrimalVector) -> DualVector:
        """grad phi(x) = ||z||_p^{2-p} sign(z) |z|^{p-1} with z = x - x0."""
        z = self._shift(np.asarray(x, dtype=np.float64))
        return _norm_power_map(z, self.p)

    def conjugate_value(self, y: DualVector) -> float:
        """phi*(y) = (1/2) ||y||_q^2 + <y, x0>, the one-row case of conjugate_values."""
        return float(self.conjugate_values(np.reshape(y, (1, -1)))[0])

    def conjugate_values(self, Y: np.ndarray) -> np.ndarray:
        """phi* at each row of an (n, d) stack; conjugate_value is its one-row case.

        The square of each norm is a Python float's power, as the roots of lp_norms are.
        """
        vals = np.array([0.5 * nq ** 2 for nq in lp_norms(Y, self.q).tolist()], dtype=np.float64)
        if self.x0 is not None:
            vals = vals + pairings(Y, np.broadcast_to(self.x0, (len(Y), self.x0.size)))
        return vals

    def conjugate_grad(self, y: DualVector) -> PrimalVector:
        """grad phi*(y) = ||y||_q^{2-q} sign(y) |y|^{q-1} + x0.

        At y = 0 the expression is 0^{2-q} * 0 for q > 2; the limit is 0,
        so the value is the shift x0 (the minimizer of phi* minus linear).
        At q = 2 the map is y + x0.  There y + 0.0 equals the general
        formula bit for bit (-0.0 becomes 0.0, inf and nan pass through),
        also where ||y||_2^2 underflows (every |y_i| below about 1e-162):
        the general formula, at any q, rescales a y whose ||y||_q under- or
        overflows by a power of two (the map is 1-homogeneous).
        It returns a new array; the runners step an unshifted p = 2 DGF with
        _mirror_map instead, whose mirror family is the dual family's storage.
        """
        y = np.asarray(y, dtype=np.float64)
        out = y + 0.0 if self.p == 2.0 else _norm_power_map(y, self.q)
        if self.x0 is not None:
            out = out + self.x0
        return out

    def to_descriptor(self) -> dict:
        d = {"kind": self.kind, "p": self.p}
        if self.x0 is not None:
            d["x0"] = [float(v) for v in self.x0]
        return d


def euclidean(x0: Optional[Vector] = None) -> DGF:
    return DGF(NormIndex(2.0), x0=x0)


def squared_lp(p: float, x0: Optional[Vector] = None) -> DGF:
    return DGF(NormIndex(p), x0=x0)


def dgf_from_descriptor(desc: dict) -> DGF:
    """Build a DGF from its serialized {kind, p, x0} form; p and x0 must be finite JSON numbers.

    A Euclidean kind takes no p but 2, the one its to_descriptor writes.
    """
    kind, x0 = desc.get("kind", "euclidean"), desc.get("x0")
    if kind in ("euclidean", "shifted-euclidean"):
        if "p" in desc and _json_number(desc["p"], "p") != 2.0:
            raise ValueError(f"p must be 2 for a {kind} DGF, got {desc['p']!r}")
        return euclidean(x0=x0)
    if kind in ("squared-lp", "shifted-squared-lp"):
        return squared_lp(_json_number(desc["p"], "p"), x0=x0)
    raise ValueError(f"unknown DGF kind {kind!r}")
