"""Coupled first-order methods: schedules, executors, and the mirror dual.

A coupled first-order method (CFOM) is parameterized by triangular
coefficient families {a_{k,i}} and {b_{k,i}}:

    y_{k+1} = y_k - sum_{i<=k}   a_{k+1,i} grad f(x_i)
    x_{k+1} = x_k - sum_{i<=k+1} b_{k+1,i} grad phi*(y_i)

with x_0 = grad phi*(y_0) and b_{0,0} = -1 by convention.  Its mirror
dual runs the anti-transposed coefficients with the roles of f and the
conjugate DGF swapped:

    q_{k+1} = q_k - sum_{i<=k}   a_{N-i,N-1-k} grad psi*(r_i)
    r_{k+1} = r_k - sum_{i<=k+1} b_{N-i,N-1-k} grad f(q_i)

with r_0 = -b_{N,N} grad f(q_0).  Both run through one executor: the
dual schedule is the anti-transpose of both triangles, and the two
oracles trade places.  In the Euclidean case both reduce to
fixed-step first-order methods (FSFOMs) whose stepsize matrices are
anti-diagonal transposes of each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .dgf import DGF, _identity
from .objectives import SmoothObjective
from .spaces import DualVector, PrimalVector, Vector, _json_int, _json_number

__all__ = [
    "CoefficientSchedule",
    "ValidityReport",
    "Trajectory",
    "DualTrajectory",
    "validate_schedule",
    "run_cfom",
    "mirror_dual_schedule",
    "run_dual_cfom",
    "run_mirror_dual",
    "to_h_matrix",
    "anti_transpose",
    "load_schedule",
    "save_schedule",
    "schedule_to_json_dict",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CoefficientSchedule:
    """Dense lower-triangular coefficient families defining a CFOM.

    a[k, i] is nonzero only for 0 <= i < k <= N and b[k, i] only for
    0 <= i <= k <= N.  b[0, 0] is -1 for a primal schedule; a mirror
    dual schedule stores b_{N,N} of its primal there, which encodes the
    r_0 initialization of the dual iteration.

    tail, when given, is the generator form of a semiseparable schedule:
    a has only its subdiagonal, and below its subdiagonal b is rank 1,
    b[k+1, i] = tail[0][k] * tail[1][i] for i < k, with both factors of
    length N.  It is checked against the dense arrays exactly, and lets
    the executor take O(d) per step instead of O(k d).
    """

    N: int
    a: np.ndarray
    b: np.ndarray
    tail: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N >= 1 required")
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != (self.N + 1, self.N + 1) or b.shape != (self.N + 1, self.N + 1):
            raise ValueError(f"coefficient arrays must have shape ({self.N + 1}, {self.N + 1})")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite coefficient")
        # Zero outside the triangles (a strict, b inclusive); a row 0 is all zero.
        if np.triu(a).any() or np.triu(b, 1).any():
            raise ValueError("coefficients outside the triangular index range")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.tail is not None:
            object.__setattr__(self, "tail", _checked_tail(self.N, a, b, self.tail))


def _checked_tail(N: int, a: np.ndarray, b: np.ndarray, tail) -> tuple:
    """The factors as float arrays, if they and a bidiagonal a reproduce a and b exactly."""
    row, col = (np.asarray(t, dtype=np.float64) for t in tail)
    if row.shape != (N,) or col.shape != (N,):
        raise ValueError(f"tail factors must have shape ({N},)")
    if not (np.all(np.isfinite(row)) and np.all(np.isfinite(col))):
        raise ValueError("non-finite tail factor")
    # a is strictly lower triangular already, so a count settles "subdiagonal only".
    if np.count_nonzero(a) != np.count_nonzero(np.diagonal(a, -1)):
        raise ValueError("a generator-form schedule needs a on its subdiagonal only")
    if np.any((np.outer(row, col) != b[1:, :N]) & np.tri(N, k=-1, dtype=bool)):
        raise ValueError("tail factors do not reproduce b below its subdiagonal")
    return row, col


def schedule_from_entries(N: int, a_entries, b_entries) -> CoefficientSchedule:
    """Build a schedule from sparse (k, i, value) triples; omitted entries are
    zero, except b(0,0), which defaults to -1.  An index given twice is refused."""
    if N < 1:
        raise ValueError("N >= 1 required")
    a = np.zeros((N + 1, N + 1))
    b = np.zeros((N + 1, N + 1))
    b[0, 0] = -1.0
    # a is strictly lower triangular, b lower triangular with its diagonal.
    for name, arr, entries, diag in (("a", a, a_entries, 0), ("b", b, b_entries, 1)):
        seen = set()
        for k, i, v in entries:
            k, i = int(k), int(i)
            if not (0 <= i < k + diag and k <= N):
                raise ValueError(f"{name} index ({k},{i}) outside triangle")
            if (k, i) in seen:
                raise ValueError(f"{name} index ({k},{i}) given twice")
            seen.add((k, i))
            arr[k, i] = float(v)
    return CoefficientSchedule(N=N, a=a, b=b)


@dataclass
class ValidityReport:
    """Row residuals of the convex-hull condition sum_{i<=k} b_{k,i} = 0."""

    residuals: np.ndarray  # length N, rows 1..N
    tol: float = ROW_SUM_TOL

    @property
    def ok(self) -> bool:
        return bool(np.all(np.abs(self.residuals) <= self.tol))

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def validate_schedule(s: CoefficientSchedule, tol: float = ROW_SUM_TOL) -> ValidityReport:
    return ValidityReport(residuals=s.b[1:].sum(axis=1), tol=tol)


# One family of a run, k = 0..N: a list of vectors, or the executor's (N+1, d) array.
_Rows = Union[List[Vector], np.ndarray]


@dataclass
class Trajectory:
    """Primal CFOM run: iterates plus the cached oracle outputs.  Each family
    is a list, or the executor's (N+1, d) array; either is read by row.  For an
    unshifted p = 2 DGF mirrors is ys's storage, equal in value to conjugate_grad."""

    xs: _Rows       # x_0 .. x_N
    ys: _Rows       # y_0 .. y_N
    f_grads: _Rows  # grad f(x_k)
    mirrors: _Rows  # grad phi*(y_k)


@dataclass
class DualTrajectory:
    """Mirror-dual run: q/r iterates plus cached oracle outputs.  Each family
    is a list, or the executor's (N+1, d) array; either is read by row.  For an
    unshifted p = 2 DGF mirrors is rs's storage, equal in value to conjugate_grad."""

    qs: _Rows       # q_0 .. q_N
    rs: _Rows       # r_0 .. r_N
    f_grads: _Rows  # grad f(q_k)
    mirrors: _Rows  # grad psi*(r_k)


def _check_finite(v: Vector, what: str, k: int) -> Vector:
    # The ufunc reduce is ndarray.all without its Python-level wrapper;
    # the runners call this twice per step.
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise FloatingPointError(f"non-finite {what} at iteration {k}")
    return v


def _dense_steps(s: CoefficientSchedule, FU: np.ndarray, GW: np.ndarray):
    """The two sums of step k as rows of a and b times the oracle outputs so far."""
    def step_u(k):
        return s.a[k + 1, : k + 1] @ GW[: k + 1]

    def step_w(k):
        return s.b[k + 1, : k + 2] @ FU[: k + 2]

    return step_u, step_w


def _generator_steps(s: CoefficientSchedule, FU: np.ndarray, GW: np.ndarray):
    """The same sums from the generator form: a diagonal and a subdiagonal
    term, and the rank-1 tail row[k] * sum_{i<k} col[i] F(u_i) kept as a
    running sum, so a step costs O(d) whatever k."""
    row, col = s.tail
    a_sub, b_diag, b_sub = np.diagonal(s.a, -1), np.diagonal(s.b), np.diagonal(s.b, -1)
    tail_sum = np.zeros(FU.shape[1:])

    def step_u(k):
        return a_sub[k] * GW[k]

    def step_w(k):
        out = b_diag[k + 1] * FU[k + 1] + b_sub[k] * FU[k] + row[k] * tail_sum
        tail_sum[...] += col[k] * FU[k]
        return out

    return step_u, step_w


def _run_coupled(s: CoefficientSchedule, F, G, u0: Vector, u_label: str, w_label: str):
    """The one recurrence behind both executors, read with s as stored:

        u_{k+1} = u_k - sum_{i<=k}   a[k+1, i] G(w_i)
        w_{k+1} = w_k - sum_{i<=k+1} b[k+1, i] F(u_i),   w_0 = -b[0, 0] F(u_0).

    The sums are dense row products, or O(d) generator-form updates when
    s carries its tail factors.  Returns the (N+1, d) arrays of u, w, F(u)
    and G(w); when F (or G) is the identity of DGF._mirror_map, F(u) is the
    array of u itself (G(w) that of w), and no step calls it.
    """
    N = s.N
    u0 = np.asarray(u0, dtype=np.float64)
    F0 = np.asarray(F(u0), dtype=np.float64)
    U, W = np.empty((N + 1,) + u0.shape), np.empty((N + 1,) + F0.shape)
    FU = U if F is _identity else np.empty_like(W)
    GW = W if G is _identity else np.empty_like(U)
    U[0], FU[0] = u0, F0
    W[0] = -s.b[0, 0] * F0
    GW[0] = G(W[0])
    step_u, step_w = (_dense_steps if s.tail is None else _generator_steps)(s, FU, GW)
    for k in range(N):
        _check_finite(np.subtract(U[k], step_u(k), out=U[k + 1]), u_label, k + 1)
        if FU is not U:
            FU[k + 1] = F(U[k + 1])
        _check_finite(np.subtract(W[k], step_w(k), out=W[k + 1]), w_label, k + 1)
        if GW is not W:
            GW[k + 1] = G(W[k + 1])
    return U, W, FU, GW


def run_cfom(
    s: CoefficientSchedule,
    f: SmoothObjective,
    g: DGF,
    y0: DualVector,
) -> Trajectory:
    """Execute the CFOM defined by s for N steps from y0.

    x0 = -b[0, 0] grad phi*(y0), which is grad phi*(y0) under the primal
    b[0, 0] = -1 convention.  Each family of the trajectory is one (N+1, d)
    array, row k its k-th vector; for an unshifted p = 2 DGF mirrors is ys.
    """
    ys, xs, mirrors, f_grads = _run_coupled(
        s, g._mirror_map, f.grad, y0, "dual iterate y", "primal iterate x")
    return Trajectory(xs=xs, ys=ys, f_grads=f_grads, mirrors=mirrors)


def mirror_dual_schedule(s: CoefficientSchedule) -> CoefficientSchedule:
    """Anti-transpose of the coefficient triangles; an exact involution.

    The returned schedule's b[0, 0] equals the input's b[N, N]: read
    directly by the dual executor, its negation is the r_0 coefficient.
    Tail factors map with them: the dual's b[k+1, i] = col[N-1-k] *
    row[N-1-i] below the subdiagonal, so they are reversed and swapped.

    The result skips CoefficientSchedule's checks, which s has passed:
    anti-transposition moves every entry of a triangle into the same
    triangle (a's subdiagonal onto itself) and keeps every value, so
    the triangles and finiteness hold, and the swapped factors
    reproduce the dual's b exactly, since a float product commutes.
    """
    dual = object.__new__(CoefficientSchedule)
    tail = None if s.tail is None else (s.tail[1][::-1].copy(), s.tail[0][::-1].copy())
    for name, value in (("N", s.N), ("a", anti_transpose(s.a)), ("b", anti_transpose(s.b)), ("tail", tail)):
        object.__setattr__(dual, name, value)
    return dual


def run_dual_cfom(
    s_dual: CoefficientSchedule,
    f: SmoothObjective,
    g: DGF,
    q0: PrimalVector,
) -> DualTrajectory:
    """Execute a dual-form schedule directly: coefficients read as stored,
    r_0 = -b[0, 0] grad f(q_0).  The primal executor with the oracles swapped,
    its families (N+1, d) arrays as well; mirrors is rs for an unshifted p = 2 DGF."""
    qs, rs, f_grads, mirrors = _run_coupled(
        s_dual, f.grad, g._mirror_map, q0, "primal iterate q", "dual iterate r")
    return DualTrajectory(qs=qs, rs=rs, f_grads=f_grads, mirrors=mirrors)


def run_mirror_dual(
    s: CoefficientSchedule,
    f: SmoothObjective,
    g: DGF,
    q0: PrimalVector,
) -> DualTrajectory:
    """Execute the mirror dual of the (primal) schedule s from q0."""
    return run_dual_cfom(mirror_dual_schedule(s), f, g, q0)


def to_h_matrix(s: CoefficientSchedule, L: float = 1.0, form: str = "primal") -> np.ndarray:
    """Stepsize matrix H of the Euclidean (phi = psi = half-sq-l2) reduction.

    The resulting FSFOM is x_{k+1} = x_k - (1/L) sum_i H[k, i] grad f(x_i)
    (0-based rows k = 0..N-1).  form="primal" interprets s as a CFOM,
    form="dual" interprets it as a dual-form schedule (a drives the
    primal update, b drives the dual one).  Requires the convex-hull
    row-sum condition so that the y_0 dependence cancels.
    """
    N = s.N
    if form == "primal":
        if not validate_schedule(s).ok:
            raise ValueError("schedule fails the convex-hull row-sum condition")
        # Row i of cumsum(a) holds the coefficients of grad f(x_l) in y_0 - y_i.
        return -L * (s.b[1:] @ np.cumsum(s.a, axis=0))[:, :N]
    if form == "dual":
        # Row i of -cumsum(b) holds the coefficients of grad f(q_l) in r_i.
        return L * (s.a[1:] @ -np.cumsum(s.b, axis=0))[:, :N]
    raise ValueError(f"unknown form {form!r}")


def anti_transpose(H: np.ndarray) -> np.ndarray:
    """H^A with H^A[i, j] = H[N-1-j, N-1-i] (0-based)."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("anti_transpose expects a square matrix")
    return H[::-1, ::-1].T.copy()


def schedule_to_json_dict(s: CoefficientSchedule) -> dict:
    """The nonzero entries of both triangles as [k, i, value], row by row, values as
    plain floats, and b(0,0) always, which load_schedule would read as -1 if omitted;
    construction has checked that nothing lies outside the triangles."""
    b_kept = s.b != 0
    b_kept[0, 0] = True
    return {"N": s.N,
            "a": [[int(k), int(i), float(s.a[k, i])] for k, i in np.argwhere(s.a)],
            "b": [[int(k), int(i), float(s.b[k, i])] for k, i in np.argwhere(b_kept)]}


def save_schedule(s: CoefficientSchedule, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_json_dict(s), fh, indent=1)
        fh.write("\n")


def _json_entries(doc: dict, key: str) -> list:
    """The (k, i, value) triples under key, checked: integer indices, a real value."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"schedule {key!r} must be a list of [k, i, value] entries")
    out = []
    for e in entries:
        if not (isinstance(e, list) and len(e) == 3):
            raise ValueError(f"schedule {key!r} entry {e!r} is not [k, i, value]")
        k, i, v = e
        out.append((_json_int(k, f"{key} index"), _json_int(i, f"{key} index"),
                    _json_number(v, f"{key} value")))
    return out


def load_schedule(path_or_dict) -> CoefficientSchedule:
    """Load the JSON schedule format; an omitted b(0,0) defaults to -1.  A document
    schedule_to_json_dict (or save_schedule) wrote reads back as the schedule written.

    Raises ValueError on a document that is not a schedule: not an object,
    a non-integer N or index, or an entry that is not [k, i, number].
    """
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        with open(path_or_dict) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a schedule document must be a JSON object")
    if "N" not in doc:
        raise ValueError("schedule document has no N")
    N = _json_int(doc["N"], "N")
    return schedule_from_entries(N, _json_entries(doc, "a"), _json_entries(doc, "b"))
