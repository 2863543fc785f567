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
the sampled check builds no per-step list.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .cfom import CoefficientSchedule, DualTrajectory, Trajectory, anti_transpose
from .dgf import DGF
from .objectives import SmoothObjective
from .spaces import NormIndex, Vector, lp_norm, lp_norms, pairing, pairings

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
    "by_row_block",
]

# Trials drawn and evaluated together by check_mirror_duality, so that its
# memory is bounded by the block, whatever the number of trials.
TRIAL_BLOCK = 1024
# Trajectory rows stacked and evaluated together by the energy traces and
# the CLI trace rows, so that their memory is bounded by the block, whatever N.
ROW_BLOCK = 16


def by_row_block(fn, *families) -> list:
    """fn on stacked blocks of ROW_BLOCK rows, as one list of Python floats.

    The families are equally long sequences of vectors; fn takes one
    (rows, d) stack of each and returns one value per row.
    """
    out = []
    for start in range(0, len(families[0]), ROW_BLOCK):
        out += fn(*(np.asarray(fam[start:start + ROW_BLOCK], dtype=np.float64)
                    for fam in families)).tolist()
    return out


def _by_step_block(fn, *families) -> list:
    """by_row_block for the steps k -> k+1 of families of N+1 rows: fn takes
    stacks of ROW_BLOCK + 1 consecutive rows and returns one value per step."""
    out = []
    for start in range(0, len(families[0]) - 1, ROW_BLOCK):
        out += fn(*(np.asarray(fam[start:start + ROW_BLOCK + 1], dtype=np.float64)
                    for fam in families)).tolist()
    return out


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


def _trace_inputs(pts, duals, traj, weights, name: str, f: SmoothObjective, g: DGF,
                  L: Optional[float], sigma: Optional[float]):
    """What both energy traces read from a run: (weights, f values, conjugate
    values, brackets), with L and sigma defaulting to f.L and g.sigma.

    pts/duals are (xs, ys) or (qs, rs); the weights (u or v, named by name)
    must number one per row.  brackets holds (coco_f, coco_conjugate) for
    each step k -> k+1.  The vector terms are evaluated on blocks of rows;
    the float operations are those of every emitted energy trace, in the
    same order, so traces keep their bytes.
    """
    L = f.L if L is None else L
    sigma = g.sigma if sigma is None else sigma
    weights = [float(w) for w in weights]
    if len(weights) != len(pts):
        raise ValueError(f"{name} must have length N+1")
    f_vals = by_row_block(f.values, pts)
    conj_vals = by_row_block(g.conjugate_values, duals)
    grads, mirrors = traj.f_grads, traj.mirrors
    # <grad f(x_{k+1}), x_k - x_{k+1}> and ||grad f(x_k) - grad f(x_{k+1})||_q.
    pair_f = _by_step_block(lambda G, X: pairings(G[1:], X[:-1] - X[1:]), grads, pts)
    norm_f = _by_step_block(lambda G: lp_norms(G[:-1] - G[1:], g.q), grads)
    # <y_k - y_{k+1}, grad phi*(y_{k+1})> and ||grad phi*(y_{k+1}) - grad phi*(y_k)||_p.
    pair_c = _by_step_block(lambda Y, M: pairings(Y[:-1] - Y[1:], M[1:]), duals, mirrors)
    norm_c = _by_step_block(lambda M: lp_norms(M[1:] - M[:-1], g.p), mirrors)
    brackets = [
        (f_vals[k] - f_vals[k + 1] - pair_f[k] - norm_f[k] ** 2 / (2.0 * L),
         conj_vals[k] - conj_vals[k + 1] - pair_c[k] - sigma / 2.0 * norm_c[k] ** 2)
        for k in range(len(pts) - 1)
    ]
    return weights, f_vals, conj_vals, brackets


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
    u, f_vals, phi_conj, brackets = _trace_inputs(traj.xs, traj.ys, traj, u, "u", f, g, L, sigma)
    x = np.asarray(x, dtype=np.float64)
    fx = f.value(x)
    # <grad f(x_{k+1}), x - x_{k+1}>, the pairing in D_f(x, x_{k+1}).
    pair_x = _by_step_block(lambda G, X: pairings(G[1:], x - X[1:]), traj.f_grads, traj.xs)

    e0 = g.value(x) + phi_conj[0] - pairing(traj.ys[0], x)
    e0 -= u[0] * (fx - f_vals[0] - pairing(traj.f_grads[0], x - traj.xs[0]))  # u_0 D_f(x, x_0)
    energies = [e0]
    decrements = []
    for k, (coco_f, coco_conj) in enumerate(brackets):
        cvx = fx - f_vals[k + 1] - pair_x[k]
        decrements.append({"convexity": cvx, "coco_f": coco_f, "coco_conjugate": coco_conj})
        energies.append(energies[-1] - (u[k + 1] - u[k]) * cvx - u[k] * coco_f - coco_conj)

    fenchel = g.value(x) + phi_conj[N] - pairing(traj.ys[N], x)
    pairing_vec = traj.ys[N] - traj.ys[0]
    prev = 0.0
    for i in range(N + 1):
        pairing_vec = pairing_vec + (u[i] - prev) * traj.f_grads[i]
        prev = u[i]
    value_term = u[N] * (f_vals[N] - fx)
    u_A = energies[N] - value_term - fenchel - pairing(pairing_vec, x)
    final_terms = {
        "value_term": value_term,
        "fenchel_residual": fenchel,
        "pairing_term": pairing(pairing_vec, x),
        "pairing_vector_norm": lp_norm(pairing_vec, 2),
        "U_A": u_A,
        "certified_bound": (g.value(x) + phi_conj[0] - pairing(traj.ys[0], x)) / u[N],
    }
    return EnergyTrace(energies=energies, decrements=decrements, final_terms=final_terms,
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
    v, f_vals, psi_conj, brackets = _trace_inputs(traj.qs, traj.rs, traj, v, "v", f, g, L, sigma)
    # <grad f(q_k), q_N - q_k>, the pairing in D_f(q_N, q_k).
    q_N = np.asarray(traj.qs[N], dtype=np.float64)
    pair_q = _by_step_block(lambda G, Q: pairings(G[:-1], q_N - Q[:-1]), traj.f_grads, traj.qs)

    energies = [v[0] * (f_vals[0] - f_vals[N])]
    decrements = []
    for k, (coco_f, coco_conj) in enumerate(brackets):
        cvx = f_vals[N] - f_vals[k] - pair_q[k]
        decrements.append({"convexity": cvx, "coco_f": coco_f, "coco_conjugate": coco_conj})
        energies.append(energies[-1] - (v[k + 1] - v[k]) * cvx - v[k + 1] * coco_f - coco_conj)

    d_psi_conj_0_r0 = -psi_conj[0] + pairing(traj.rs[0], traj.mirrors[0])
    v_B = energies[N] - psi_conj[N] - d_psi_conj_0_r0
    final_terms = {
        "psi_conj_final": psi_conj[N],
        "bregman_zero_r0": d_psi_conj_0_r0,
        "V_B": v_B,
        "certified_bound": energies[0],
    }
    return EnergyTrace(energies=energies, decrements=decrements, final_terms=final_terms,
                       f_values=f_vals, conjugate_values=psi_conj)


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
    of v, and the mirror dual of s read as stored.  u serves U_A, v V_B.
    """

    def __init__(self, s: CoefficientSchedule, L: float, sigma: float, norm: Optional[NormIndex],
                 u: Optional[Sequence[float]] = None, v: Optional[Sequence[float]] = None):
        self.s, self.L, self.sigma = s, L, sigma
        self.p, self.q = (2.0, 2.0) if norm is None else (norm.p, norm.q)
        if u is not None:
            self.u = np.asarray(u, dtype=np.float64)
        if v is not None:
            v = np.asarray(v, dtype=np.float64)
            self.v, self.v_col, self.dv_col = v[1:], v[1:, None], np.diff(v)[:, None]
            # The mirror dual of s: r_{k-1} - r_k = (b_dual @ C)_k and
            # q_k - q_{k+1} = (a_dual[1:] @ D)_k.
            self.a_dual, self.b_dual = anti_transpose(s.a)[1:], anti_transpose(s.b)

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
                + np.add.reduce((self.b_dual @ C) * D, axis=(-2, -1))
                + np.add.reduce(bracket * (self.a_dual @ D), axis=(-2, -1)))


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
    return _per_scenario(_Stacked(s, L, sigma, norm, u=u).U(A, B)[0])


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
    return _per_scenario(_Stacked(s, L, sigma, norm, v=v).V(C, D))


def duality_transform(u: Sequence[float], scenario: GradientScenario) -> GradientScenario:
    """Map (A, B) to (C, D) per the bijection; invertible since u > 0."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0):
        raise ValueError("u must be positive")
    C = _bijection(_steps(u, np.stack(scenario.A, axis=-2))[1])
    return GradientScenario(A=list(np.moveaxis(C, -2, 0)), B=scenario.B[::-1])


def inverse_duality_transform(u: Sequence[float], scenario: GradientScenario) -> GradientScenario:
    u = np.asarray(u, dtype=np.float64)
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

    v defaults to the conjugate weights 1/u_{N-i}; passing anything else
    breaks the identity and is reported as failures.  At least one trial
    in at least one dimension is required: with none, nothing is checked;
    so is a tolerance 0 <= tol < inf, as a negative or nan one fails every
    trial and an infinite one passes any.  A nan residual, as when the
    magnitude overflows the norms, fails its trial.
    """
    if not (trials >= 1 and dim >= 1 and 0 <= tol < math.inf):
        raise ValueError("check_mirror_duality needs trials >= 1 and dim >= 1, and 0 <= tol < inf")
    rng = np.random.default_rng(seed)
    u = [float(x) for x in u]
    N = s.N
    if v is None:
        v = [1.0 / u[N - i] for i in range(N + 1)]
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
