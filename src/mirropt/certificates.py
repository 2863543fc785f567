"""Numerical Lyapunov certificates and the duality bijection check.

Two energy sequences are evaluated along trajectories: U_k for primal
runs (certifying function-value decrease) and V_k for dual runs
(certifying gradient-magnitude decrease).  Each is nonincreasing by
construction, with every subtracted bracket nonnegative by convexity,
cocoercivity, or the Fenchel inequality.  The leftover residual
functionals U_A and V_B depend only on the two gradient families; the
bijection

    C_0 = u_N A_N,  C_{N-i} - C_{N-i-1} = u_i (A_i - A_{i+1}),  D_i = B_{N-i}

maps one onto the other exactly, for any schedule, which is the
identity realized numerically by check_mirror_duality.  The closed forms
take scenarios with leading batch axes and evaluate them all at once.
The public functions take per-step lists and stack them once; they and
check_mirror_duality share one core on stacked (..., N+1, d) arrays, so
the sampled check builds no per-step list.  The energy traces read a run
in windows of ROW_BLOCK + 1 consecutive rows into float64 columns, which
the CLI feeds from a method's steps as they come; U_k and V_k come from
one recurrence on them, each step of V_k the step of U_k mirrored.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .cfom import CoefficientSchedule, DualTrajectory, Trajectory, mirror_dual_schedule
from .dgf import DGF
from .methods import _constants
from .objectives import SmoothObjective
from .spaces import NormIndex, Vector, _positive_finite, lp_norm, lp_norms, pairing, pairings

__all__ = [
    "GradientScenario",
    "EnergyTrace",
    "primal_energy_trace",
    "dual_energy_trace",
    "evaluate_U",
    "evaluate_V",
    "duality_transform",
    "check_mirror_duality",
    "DualityReport",
]

# Trials drawn and evaluated together by check_mirror_duality, so that its
# memory is bounded by the block, whatever the number of trials.
TRIAL_BLOCK = 1024
# Trajectory rows stacked and evaluated together by the energy traces and
# the CLI trace rows, so that their memory is bounded by the block, whatever N.
ROW_BLOCK = 16
LAST = object()  # _TraceRows' x for the last point of a run read as it steps (cli's dual-amd q_N)


def _windows(steps):
    """Stacks of ROW_BLOCK + 1 consecutive rows of a run, taken from its steps
    as they come: each step is a tuple of vectors (one per family), and each
    window, a tuple of (rows, d) float arrays (one per family), starts at the
    last row of the one before, so that it holds the steps k -> k+1 from its
    first row.

    Each family has one float64 buffer of ROW_BLOCK + 1 rows, shaped by its
    first step; a step is copied into its row as it comes, and every window
    is those buffers (the last one views of their first rows), refilled in
    place for the next.  So a consumer must read each window within its loop
    body and keep no part of it, not even a row view: the next window
    overwrites it.  Only the buffers and the step at hand are held."""
    steps = iter(steps)
    step = next(steps)
    bufs = tuple(np.empty((ROW_BLOCK + 1,) + np.shape(v)) for v in step)
    n = 0
    for step in itertools.chain([step], steps):
        if n == ROW_BLOCK + 1:
            yield bufs
            for buf in bufs:
                buf[0] = buf[-1]
            n = 1
        for buf, v in zip(bufs, step):
            buf[n] = v
        n += 1
    yield tuple(buf[:n] for buf in bufs)


@dataclass
class GradientScenario:
    """Free variables standing for {grad f(x_i)} (A) and {grad phi*(y_i)} (B).

    Vectors have shape (..., d); leading batch axes, shared by all 2N+2
    vectors, hold that many scenarios at once.
    """

    A: List[Vector]
    B: List[Vector]

    def __post_init__(self):
        if len(self.A) != len(self.B):
            raise ValueError("A and B must have the same length N+1")
        dims = {v.shape for v in self.A} | {v.shape for v in self.B}
        if len(dims) != 1:
            raise ValueError("inconsistent scenario dimensions")

    @property
    def N(self) -> int:
        return len(self.A) - 1


@dataclass
class EnergyTrace:
    """Energy values E_0..E_N plus the labeled decrement decomposition.

    decrements[k] holds the brackets subtracted going from E_k to
    E_{k+1}; every entry is nonnegative up to roundoff when the run's
    declared constants are correct.  f_values and conjugate_values are
    the f and conjugate-DGF values the energies were built from: f at
    x_k (or q_k) and phi*(y_k) (or psi*(r_k)), k = 0..N.
    """

    energies: List[float]
    decrements: List[dict]
    final_terms: dict = field(default_factory=dict)
    f_values: List[float] = field(default_factory=list)
    conjugate_values: List[float] = field(default_factory=list)

    def min_labeled_term(self) -> float:
        vals = [t for d in self.decrements for t in d.values()]
        return min(vals) if vals else 0.0

    def max_increase(self) -> float:
        e = np.asarray(self.energies)
        return float(np.max(e[1:] - e[:-1])) if len(e) > 1 else 0.0


class _TraceRows:
    """A run's row values, read from its steps, each (point, dual, grad f(point), mirror),
    window by window (_windows) into float64 columns: per row, f at the points p_k,
    ||grad f(p_k)||_q and, on a dual run or given x, the conjugate DGF at the duals d_k
    ((x_k, y_k) or (q_k, r_k)).  Given a float64 comparison point x, also what the
    energies read, with L and sigma checked as the runners check them: f(x) and <d_0, x>
    once (on a dual run x is q_N, whose f is its last f row, equal to f.value(q_N) by the
    values contract), pair_x[k] = <grad f(p_k), x - p_k> per row and, per step k -> k+1,
    the brackets coco_f and coco_conj.  No row is kept unless x is LAST, the last point
    of a run read as it steps: points and gradients are then copied, O(N d), and pair_x
    computed from them once it comes (V_k reads no <d_0, x>).
    """

    def __init__(self, f: SmoothObjective, g: DGF, steps, dual: bool, x: Optional[Vector] = None,
                 L: Optional[float] = None, sigma: Optional[float] = None):
        if x is not None:
            L, sigma = _constants(f, g, L, sigma)
        self.f, self.g, self.dual, self.x, self.L, self.sigma = f, g, dual, x, L, sigma
        self.f_vals, self.norms, self.conj_vals, self.pair_x, self.coco_f, self.coco_conj, *self.kept = (
            array("d") for _ in range(8))
        for window in _windows(steps):
            self._add(*window)
        if x is LAST:
            P, G = (np.frombuffer(kept).reshape(len(self.f_vals), -1) for kept in self.kept)
            self.x = P[-1].copy()
            self.pair_x.frombytes(pairings(G, np.subtract(self.x, P, out=P)).tobytes())
        if x is not None:
            self.fx = self.f_vals[-1] if dual else f.value(x)

    def _add(self, P, Y, G, M) -> None:
        """Read the next window: stacks of points, duals, grad f at the points
        and the mirrors (grad of the conjugate DGF at the duals)."""
        f, g, x = self.f, self.g, self.x
        new = 1 if self.f_vals else 0  # the window's first row not read yet
        self.f_vals.extend(f.values(P[new:]).tolist())
        self.norms.extend(lp_norms(G[new:], g.q).tolist())
        if self.dual or x is not None:
            self.conj_vals.extend(g.conjugate_values(Y[new:]).tolist())
        if x is None:
            return
        if x is LAST:
            for kept, rows in zip(self.kept, (P, G)):
                kept.frombytes(rows[new:].tobytes())  # a copy: the window is refilled in place
        else:
            if not new:
                self.y0x = pairing(Y[0], x)
            self.pair_x.extend(pairings(G[new:], x - P[new:]).tolist())
        # coco_conj is coco_f mirrored: (f, p_k, grad f(p_k), q-norm, ||.||^2 / (2L)) becomes
        # (conjugate DGF, d_k, mirror_k, p-norm, (sigma/2) ||.||^2).  Python's scalar ** 2,
        # not numpy's array square, keeps the brackets' bytes.
        for vals, pts, grads, r, quad, out in (
                (self.f_vals, P, G, g.q, lambda s: s / (2.0 * self.L), self.coco_f),
                (self.conj_vals, Y, M, g.p, lambda s: self.sigma / 2.0 * s, self.coco_conj)):
            pair = pairings(grads[1:], pts[:-1] - pts[1:]).tolist()
            norm = lp_norms(grads[:-1] - grads[1:], r).tolist()
            out.extend(vals[k] - vals[k + 1] - pair[j] - quad(norm[j] ** 2)
                       for j, k in enumerate(range(len(vals) - len(P), len(vals) - 1)))

    def energies(self, w: List[float], decrements: Optional[list] = None) -> array:
        """The energies, a float64 column: U_0 .. U_N with w = u or, on a dual run,
        V_0 .. V_N with w = v and x = q_N.  They start from

            U_0 = phi(x) + phi*(y_0) - <y_0, x> - u_0 D_f(x, x_0),   V_0 = v_0 (f(q_0) - f(q_N)),

        and step k -> k+1 subtracts (w_{k+1} - w_k) D_f(x, p_j), w_i coco_f and
        coco_conj, with (j, i) = (k+1, k) for U and (k, k+1) for V: each step of
        V is the step of U mirrored.  The labelled decrements go to decrements
        when it is a list."""
        fx, fv, px = self.fx, self.f_vals, self.pair_x
        energies = array("d", [w[0] * (fv[0] - fx) if self.dual else
                               self.g.value(self.x) + self.conj_vals[0] - self.y0x - w[0] * (fx - fv[0] - px[0])])
        for k, (coco_f, coco_conj) in enumerate(zip(self.coco_f, self.coco_conj)):
            j, i = (k, k + 1) if self.dual else (k + 1, k)
            cvx = fx - fv[j] - px[j]  # D_f(x, p_j)
            if decrements is not None:
                decrements.append({"convexity": cvx, "coco_f": coco_f, "coco_conjugate": coco_conj})
            energies.append(energies[-1] - (w[k + 1] - w[k]) * cvx - w[i] * coco_f - coco_conj)
        return energies


def _weights(w: Sequence[float], n: int, name: str) -> List[float]:
    """The weights w (u or v, named by name) as floats, one for each of the n rows."""
    w = [float(x) for x in w]
    if len(w) != n:
        raise ValueError(f"{name} must have length N+1")
    return w


def _positive_u(u: Sequence[float], n: int) -> List[float]:
    """The weights u, by _weights, each positive (so not nan), as the bijection divides by them."""
    u = _weights(u, n, "u")
    if not all(x > 0 for x in u):
        raise ValueError("u must be positive")
    return u


def primal_energy_trace(
    traj: Trajectory,
    x: Vector,
    u: Sequence[float],
    f: SmoothObjective,
    g: DGF,
    L: Optional[float] = None,
    sigma: Optional[float] = None,
) -> EnergyTrace:
    """U_k along a primal run against the comparison point x.

    U_0 = phi(x) + phi*(y_0) - <y_0, x> - u_0 D_f(x, x_0), and each step
    subtracts the convexity bracket (u_{k+1}-u_k) D_f(x, x_{k+1}) and
    the two cocoercivity brackets for f and phi*.  The final terms
    isolate u_N (f(x_N) - f(x)), the Fenchel residual at (x, y_N), the
    pairing term, and the leftover U_A.
    """
    N = len(traj.xs) - 1
    u = _weights(u, N + 1, "u")
    steps = zip(traj.xs, traj.ys, traj.f_grads, traj.mirrors, strict=True)
    rows, decrements = _TraceRows(f, g, steps, False, x=np.asarray(x, dtype=np.float64), L=L, sigma=sigma), []
    energies = rows.energies(u, decrements)
    x, fx, f_vals, phi_conj = rows.x, rows.fx, rows.f_vals.tolist(), rows.conj_vals.tolist()

    fenchel = g.value(x) + phi_conj[N] - pairing(traj.ys[N], x)
    pairing_vec = traj.ys[N] - traj.ys[0]
    for du, f_grad in zip(np.diff(u, prepend=0.0), traj.f_grads):
        pairing_vec = pairing_vec + du * f_grad
    value_term = u[N] * (f_vals[N] - fx)
    final_terms = {
        "value_term": value_term,
        "fenchel_residual": fenchel,
        "pairing_term": pairing(pairing_vec, x),
        "pairing_vector_norm": lp_norm(pairing_vec, 2),
        "U_A": energies[N] - value_term - fenchel - pairing(pairing_vec, x),
        "certified_bound": (g.value(x) + phi_conj[0] - rows.y0x) / u[N],
    }
    return EnergyTrace(energies=energies.tolist(), decrements=decrements, final_terms=final_terms,
                       f_values=f_vals, conjugate_values=phi_conj)


def dual_energy_trace(
    traj: DualTrajectory,
    v: Sequence[float],
    f: SmoothObjective,
    g: DGF,
    L: Optional[float] = None,
    sigma: Optional[float] = None,
) -> EnergyTrace:
    """V_k along a dual run; V_0 = v_0 (f(q_0) - f(q_N)).

    The final decomposition is V_N = psi*(r_N) + D_{psi*}(0, r_0) + V_B,
    using psi*(0) = 0 for the unshifted DGF.
    """
    if g.shifted:
        raise ValueError("dual energies require an unshifted DGF (psi*(0) = 0)")
    N = len(traj.qs) - 1
    v = _weights(v, N + 1, "v")
    steps = zip(traj.qs, traj.rs, traj.f_grads, traj.mirrors, strict=True)
    rows, decrements = _TraceRows(f, g, steps, True, x=np.asarray(traj.qs[N], dtype=np.float64), L=L, sigma=sigma), []
    energies, psi_conj = rows.energies(v, decrements), rows.conj_vals.tolist()

    d_psi_conj_0_r0 = -psi_conj[0] + pairing(traj.rs[0], traj.mirrors[0])
    final_terms = {
        "psi_conj_final": psi_conj[N],
        "bregman_zero_r0": d_psi_conj_0_r0,
        "V_B": energies[N] - psi_conj[N] - d_psi_conj_0_r0,
        "certified_bound": energies[0],
    }
    return EnergyTrace(energies=energies.tolist(), decrements=decrements, final_terms=final_terms,
                       f_values=rows.f_vals.tolist(), conjugate_values=psi_conj)


def _stacked(s: CoefficientSchedule, scenario: GradientScenario):
    """The scenario's two families as (..., N+1, d) arrays."""
    if scenario.N != s.N:
        raise ValueError("scenario length does not match schedule")
    return np.stack(scenario.A, axis=-2), np.stack(scenario.B, axis=-2)


def _per_scenario(x: np.ndarray):
    """One value per batch index, or a plain float for a single scenario."""
    return float(x) if np.ndim(x) == 0 else x


def _sq_norms(dX: np.ndarray, r: float) -> np.ndarray:
    """||dX_k||_r^2 for each step k of stacked differences dX, shape (..., N, d)."""
    return np.add.reduce(np.abs(dX) ** r, axis=-1) ** (2.0 / r)


def _steps(u: np.ndarray, A: np.ndarray):
    """(A_{i+1} - A_i, u_i (A_i - A_{i+1})) for i = 0..N on stacked A, with A_{N+1} = 0."""
    dA = np.empty(A.shape)
    np.subtract(A[..., 1:, :], A[..., :-1, :], out=dA[..., :-1, :])
    np.subtract(0.0, A[..., -1, :], out=dA[..., -1, :])
    uA = np.multiply(u[:, None], dA)
    return dA, np.negative(uA, out=uA)


def _bijection(uA: np.ndarray) -> np.ndarray:
    """C from uA = _steps(u, A)[1]: C_0 = u_N A_N, C_{N-i} = C_{N-i-1} + u_i (A_i - A_{i+1})."""
    return uA[..., ::-1, :].cumsum(axis=-2)


class _Stacked:
    """U_A and V_B on stacked families, arrays of shape (..., N+1, d).

    What depends only on the schedule, the weights and the norm is built
    once, here, for every block of families: the weight arrays, the steps
    of v, and mirror_dual_schedule(s), the transform dualize writes, read as
    stored.  u serves U_A, v V_B.
    """

    def __init__(self, s: CoefficientSchedule, L: float, sigma: float, norm: Optional[NormIndex],
                 u: Optional[Sequence[float]] = None, v: Optional[Sequence[float]] = None):
        _positive_finite(L=L, sigma=sigma)
        self.s, self.L, self.sigma = s, L, sigma
        self.p, self.q = (2.0, 2.0) if norm is None else (norm.p, norm.q)
        if u is not None:
            self.u = np.asarray(u, dtype=np.float64)
        if v is not None:
            v = np.asarray(v, dtype=np.float64)
            self.v, self.v_col, self.dv_col = v[1:], v[1:, None], np.diff(v)[:, None]
            self.dual = mirror_dual_schedule(s)  # r_{k-1} - r_k = (b @ C)_k, q_k - q_{k+1} = (a[1:] @ D)_k

    def U(self, A: np.ndarray, B: np.ndarray):
        """U_A(A, B), with what the bijection and V_B reuse: (U_A, uA, nB) where
        uA is _steps(u, A)[1] and nB_k = ||B_{k+1} - B_k||_p^2."""
        s = self.s
        dA, uA = _steps(self.u, A)
        nB = _sq_norms(B[..., 1:, :] - B[..., :-1, :], self.p)
        # x_k as driven by the schedule when grad phi*(y_i) is replaced by B_i.
        x0 = B[..., :1, :]
        xs = np.concatenate([x0, x0 - (s.b[1:] @ B).cumsum(axis=-2)], axis=-2)
        value = (_sq_norms(dA[..., :-1, :], self.q) @ self.u[:-1] / (2.0 * self.L)
                 + self.sigma / 2.0 * np.add.reduce(nB, axis=-1)
                 + np.add.reduce((s.a[1:] @ A) * B[..., 1:, :], axis=(-2, -1))
                 - np.add.reduce(uA * xs, axis=(-2, -1)))
        return value, uA, nB

    def V(self, C: np.ndarray, D: np.ndarray, nD: Optional[np.ndarray] = None) -> np.ndarray:
        """V_B(C, D) of the mirror dual of s; nD_k = ||D_{k+1} - D_k||_p^2 when already known."""
        if nD is None:
            nD = _sq_norms(D[..., 1:, :] - D[..., :-1, :], self.p)
        bracket = self.v_col * C[..., 1:, :] - (self.dv_col * C[..., :-1, :]).cumsum(axis=-2)
        return (_sq_norms(C[..., 1:, :] - C[..., :-1, :], self.q) @ self.v / (2.0 * self.L)
                + self.sigma / 2.0 * np.add.reduce(nD, axis=-1)
                + np.add.reduce((self.dual.b @ C) * D, axis=(-2, -1))
                + np.add.reduce(bracket * (self.dual.a[1:] @ D), axis=(-2, -1)))


def evaluate_U(
    s: CoefficientSchedule,
    u: Sequence[float],
    L: float,
    sigma: float,
    scenario: GradientScenario,
    norm: Optional[NormIndex] = None,
):
    """Closed-form U_A from the gradient families alone, one value per scenario."""
    A, B = _stacked(s, scenario)
    return _per_scenario(_Stacked(s, L, sigma, norm, u=_weights(u, s.N + 1, "u")).U(A, B)[0])


def evaluate_V(
    s: CoefficientSchedule,
    v: Sequence[float],
    L: float,
    sigma: float,
    scenario: GradientScenario,
    norm: Optional[NormIndex] = None,
):
    """Closed-form V_B of the mirror dual of s on (C, D), one value per scenario."""
    C, D = _stacked(s, scenario)
    return _per_scenario(_Stacked(s, L, sigma, norm, v=_weights(v, s.N + 1, "v")).V(C, D))


def duality_transform(u: Sequence[float], scenario: GradientScenario) -> GradientScenario:
    """Map (A, B) to (C, D) per the bijection; invertible since u > 0."""
    u = np.asarray(_positive_u(u, scenario.N + 1))
    C = _bijection(_steps(u, np.stack(scenario.A, axis=-2))[1])
    return GradientScenario(A=list(np.moveaxis(C, -2, 0)), B=scenario.B[::-1])


def inverse_duality_transform(u: Sequence[float], scenario: GradientScenario) -> GradientScenario:
    """Map (C, D) back to (A, B); u is checked as duality_transform checks it."""
    u = np.asarray(_positive_u(u, scenario.N + 1))
    # A_N = C_0 / u_N and A_i = A_{i+1} + (C_{N-i} - C_{N-i-1}) / u_i.
    steps = np.diff(np.stack(scenario.A, axis=-2), axis=-2, prepend=0.0)[..., ::-1, :] / u[:, None]
    A = np.cumsum(steps[..., ::-1, :], axis=-2)[..., ::-1, :]
    return GradientScenario(A=list(np.moveaxis(A, -2, 0)), B=scenario.B[::-1])


@dataclass
class DualityReport:
    trials: int
    max_residual: float
    failures: List[dict]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_mirror_duality(
    s: CoefficientSchedule,
    u: Sequence[float],
    L: float,
    sigma: float,
    trials: int,
    dim: int = 4,
    norm: Optional[NormIndex] = None,
    magnitude: float = 1.0,
    tol: float = 1e-9,
    seed: int = 0,
    v: Optional[Sequence[float]] = None,
) -> DualityReport:
    """Sample random scenarios and assert U_A(A,B) = V_B(C,D) under the bijection.

    The weights u, N + 1 of them as of v, must be positive, as
    duality_transform, the bijection sampled, requires.  v defaults to the
    conjugate weights 1/u_{N-i}; passing anything else breaks the identity
    and is reported as failures.  L and sigma must be positive and finite,
    as the runners require.  At least one trial in at least one
    dimension is required: with none, nothing is checked; so is a tolerance
    0 <= tol < inf, as a negative or nan one fails every trial and an
    infinite one passes any.  A nan residual, as when the magnitude
    overflows the norms, fails its trial.
    """
    if not (trials >= 1 and dim >= 1 and 0 <= tol < math.inf):
        raise ValueError("check_mirror_duality needs trials >= 1 and dim >= 1, and 0 <= tol < inf")
    N = s.N
    u = _positive_u(u, N + 1)
    v = [1.0 / u[N - i] for i in range(N + 1)] if v is None else _weights(v, N + 1, "v")
    rng = np.random.default_rng(seed)
    core = _Stacked(s, L, sigma, norm, u=u, v=v)
    max_res = 0.0
    failures = []
    for start in range(0, trials, TRIAL_BLOCK):
        # Trial by trial, A_0..A_N then B_0..B_N: the per-vector stream.
        AB = magnitude * rng.standard_normal((min(TRIAL_BLOCK, trials - start), 2, N + 1, dim))
        # Contiguous copies, as stacking per-step lists gives, so that every
        # product and sum runs in the same order as in evaluate_U/evaluate_V.
        A, B = np.ascontiguousarray(AB[:, 0]), np.ascontiguousarray(AB[:, 1])
        u_val, uA, nB = core.U(A, B)
        # D is B reversed along the steps, so its step norms are B's, reversed.
        v_val = core.V(_bijection(uA), np.ascontiguousarray(B[:, ::-1]), np.ascontiguousarray(nB[:, ::-1]))
        res = np.abs(u_val - v_val) / (1.0 + np.abs(u_val))
        max_res = float(np.maximum(max_res, np.max(res)))
        # Written as "not <=" so that a nan residual fails.
        failures += [{"trial": start + int(t), "U": float(u_val[t]), "V": float(v_val[t]),
                      "residual": float(res[t])} for t in np.flatnonzero(~(res <= tol))]
    return DualityReport(trials=trials, max_residual=max_res, failures=failures, tol=tol)
