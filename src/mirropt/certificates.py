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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    declared constants are correct.
    """

    energies: List[float]
    decrements: List[dict]
    final_terms: dict = field(default_factory=dict)

    def min_labeled_term(self) -> float:
        vals = [t for d in self.decrements for t in d.values()]
        return min(vals) if vals else 0.0

    def max_increase(self) -> float:
        e = np.asarray(self.energies)
        return float(np.max(e[1:] - e[:-1])) if len(e) > 1 else 0.0


def _coco_brackets(pts, duals, traj, f_vals, conj_vals, L: float, sigma: float, g: DGF) -> list:
    """(coco_f, coco_conjugate) for each step k -> k+1 of a primal or dual run.

    pts/duals are (xs, ys) or (qs, rs) and conj_vals the conjugate DGF at
    duals.  The vector terms are evaluated on blocks of rows; the float
    operations are those of every emitted energy trace, in the same
    order, so traces keep their bytes.
    """
    grads, mirrors = traj.f_grads, traj.mirrors
    # <grad f(x_{k+1}), x_k - x_{k+1}> and ||grad f(x_k) - grad f(x_{k+1})||_q.
    pair_f = _by_step_block(lambda G, X: pairings(G[1:], X[:-1] - X[1:]), grads, pts)
    norm_f = _by_step_block(lambda G: lp_norms(G[:-1] - G[1:], g.q), grads)
    # <y_k - y_{k+1}, grad phi*(y_{k+1})> and ||grad phi*(y_{k+1}) - grad phi*(y_k)||_p.
    pair_c = _by_step_block(lambda Y, M: pairings(Y[:-1] - Y[1:], M[1:]), duals, mirrors)
    norm_c = _by_step_block(lambda M: lp_norms(M[1:] - M[:-1], g.p), mirrors)
    return [
        (f_vals[k] - f_vals[k + 1] - pair_f[k] - norm_f[k] ** 2 / (2.0 * L),
         conj_vals[k] - conj_vals[k + 1] - pair_c[k] - sigma / 2.0 * norm_c[k] ** 2)
        for k in range(len(pts) - 1)
    ]


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
    L = f.L if L is None else L
    sigma = g.sigma if sigma is None else sigma
    N = len(traj.xs) - 1
    u = [float(v) for v in u]
    if len(u) != N + 1:
        raise ValueError("u must have length N+1")
    x = np.asarray(x, dtype=np.float64)
    fx = f.value(x)
    f_vals = by_row_block(f.values, traj.xs)
    phi_conj = by_row_block(g.conjugate_values, traj.ys)
    brackets = _coco_brackets(traj.xs, traj.ys, traj, f_vals, phi_conj, L, sigma, g)
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
    return EnergyTrace(energies=energies, decrements=decrements, final_terms=final_terms)


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
    L = f.L if L is None else L
    sigma = g.sigma if sigma is None else sigma
    N = len(traj.qs) - 1
    v = [float(x) for x in v]
    if len(v) != N + 1:
        raise ValueError("v must have length N+1")
    f_vals = by_row_block(f.values, traj.qs)
    psi_conj = by_row_block(g.conjugate_values, traj.rs)
    brackets = _coco_brackets(traj.qs, traj.rs, traj, f_vals, psi_conj, L, sigma, g)
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
    return EnergyTrace(energies=energies, decrements=decrements, final_terms=final_terms)


def _stacked(s: CoefficientSchedule, scenario: GradientScenario):
    """The scenario's two families as (..., N+1, d) arrays."""
    if scenario.N != s.N:
        raise ValueError("scenario length does not match schedule")
    return np.stack(scenario.A, axis=-2), np.stack(scenario.B, axis=-2)


def _per_scenario(x: np.ndarray):
    """One value per batch index, or a plain float for a single scenario."""
    return float(x) if np.ndim(x) == 0 else x


def _norm_sums(w: np.ndarray, X: np.ndarray, Y: np.ndarray, L: float, sigma: float,
               norm: Optional[NormIndex]) -> np.ndarray:
    """sum_k w_k/(2L) ||X_k - X_{k+1}||_q^2 + sigma/2 ||Y_k - Y_{k+1}||_p^2."""
    p = norm.p if norm is not None else 2.0
    q = norm.q if norm is not None else 2.0
    dX = np.sum(np.abs(np.diff(X, axis=-2)) ** q, axis=-1) ** (2.0 / q)
    dY = np.sum(np.abs(np.diff(Y, axis=-2)) ** p, axis=-1) ** (2.0 / p)
    return dX @ w / (2.0 * L) + sigma / 2.0 * np.sum(dY, axis=-1)


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
    u = np.asarray(u, dtype=np.float64)
    # x_k as driven by the schedule when grad phi*(y_i) is replaced by B_i.
    x0 = B[..., :1, :]
    xs = np.concatenate([x0, x0 - np.cumsum(s.b[1:] @ B, axis=-2)], axis=-2)
    dA = -np.diff(A, axis=-2, append=0.0)  # A_k - A_{k+1}, A_{N+1} = 0
    return _per_scenario(_norm_sums(u[:-1], A, B, L, sigma, norm)
                         + np.sum((s.a[1:] @ A) * B[..., 1:, :], axis=(-2, -1))
                         - np.sum(u[:, None] * dA * xs, axis=(-2, -1)))


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
    v = np.asarray(v, dtype=np.float64)
    # The mirror dual of s, read as stored: r_{k-1} - r_k = (b_dual @ C)_k
    # and q_k - q_{k+1} = (a_dual[1:] @ D)_k.
    a_dual, b_dual = anti_transpose(s.a), anti_transpose(s.b)
    bracket = v[1:, None] * C[..., 1:, :] - np.cumsum(np.diff(v)[:, None] * C[..., :-1, :], axis=-2)
    return _per_scenario(_norm_sums(v[1:], C, D, L, sigma, norm)
                         + np.sum((b_dual @ C) * D, axis=(-2, -1))
                         + np.sum(bracket * (a_dual[1:] @ D), axis=(-2, -1)))


def duality_transform(u: Sequence[float], scenario: GradientScenario) -> GradientScenario:
    """Map (A, B) to (C, D) per the bijection; invertible since u > 0."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0):
        raise ValueError("u must be positive")
    dA = -np.diff(np.stack(scenario.A, axis=-2), axis=-2, append=0.0)  # A_i - A_{i+1}, A_{N+1} = 0
    # C_0 = u_N A_N and C_{N-i} = C_{N-i-1} + u_i (A_i - A_{i+1}).
    C = np.cumsum((u[:, None] * dA)[..., ::-1, :], axis=-2)
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
        return {
            "trials": self.trials,
            "max_residual": self.max_residual,
            "failures": self.failures,
            "tol": self.tol,
        }


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
    in at least one dimension is required: with none, nothing is checked.
    A nan residual, as when the magnitude overflows the norms, fails its trial.
    """
    if trials < 1 or dim < 1:
        raise ValueError("check_mirror_duality needs trials >= 1 and dim >= 1")
    rng = np.random.default_rng(seed)
    u = [float(x) for x in u]
    N = s.N
    if v is None:
        v = [1.0 / u[N - i] for i in range(N + 1)]
    max_res = 0.0
    failures = []
    for start in range(0, trials, TRIAL_BLOCK):
        # Trial by trial, A_0..A_N then B_0..B_N: the per-vector stream.
        AB = magnitude * rng.standard_normal((min(TRIAL_BLOCK, trials - start), 2, N + 1, dim))
        sc = GradientScenario(A=list(AB[:, 0].swapaxes(0, 1)), B=list(AB[:, 1].swapaxes(0, 1)))
        u_val = evaluate_U(s, u, L, sigma, sc, norm=norm)
        v_val = evaluate_V(s, v, L, sigma, duality_transform(u, sc), norm=norm)
        res = np.abs(u_val - v_val) / (1.0 + np.abs(u_val))
        max_res = float(np.maximum(max_res, np.max(res)))
        # Written as "not <=" so that a nan residual fails.
        failures += [{"trial": start + int(t), "U": float(u_val[t]), "V": float(v_val[t]),
                      "residual": float(res[t])} for t in np.flatnonzero(~(res <= tol))]
    return DualityReport(trials=trials, max_residual=max_res, failures=failures, tol=tol)
