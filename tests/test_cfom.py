import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirropt.cfom import (
    CoefficientSchedule,
    anti_transpose,
    load_schedule,
    mirror_dual_schedule,
    run_cfom,
    run_dual_cfom,
    run_mirror_dual,
    save_schedule,
    schedule_from_entries,
    to_h_matrix,
    validate_schedule,
)
from mirropt.dgf import euclidean, squared_lp
from mirropt.methods import amd_schedule, run_amd, run_dual_amd
from mirropt.objectives import DiagQuadratic

from conftest import random_schedule, random_valid_schedule


def _quadratic(rng, n=5, p=2.0):
    return DiagQuadratic(d=rng.uniform(0.3, 2.5, n), b=rng.standard_normal(n), norm_p=p)


def test_validate_amd_schedule_zero_residuals():
    for N in (1, 4, 9):
        rep = validate_schedule(amd_schedule(N, 2.0, 1.0))
        assert rep.ok
        assert rep.max_residual <= 1e-12


def test_validate_failing_row():
    s = schedule_from_entries(1, [], [[1, 0, 1.0], [1, 1, 0.0]])
    rep = validate_schedule(s)
    assert not rep.ok
    assert rep.residuals[0] == pytest.approx(1.0)


def test_validate_passing_half_row():
    s = schedule_from_entries(1, [], [[1, 0, 0.5], [1, 1, -0.5]])
    assert validate_schedule(s).ok


def test_run_cfom_zero_schedule_stationary(rng):
    f = _quadratic(rng)
    s = schedule_from_entries(3, [], [])
    y0 = rng.standard_normal(5)
    tr = run_cfom(s, f, euclidean(), y0)
    for x, y in zip(tr.xs, tr.ys):
        assert np.allclose(x, tr.xs[0])
        assert np.allclose(y, y0)


def test_run_cfom_single_gradient_step(rng):
    f = _quadratic(rng)
    alpha = 0.37
    s = schedule_from_entries(1, [[1, 0, alpha]], [])
    y0 = rng.standard_normal(5)
    tr = run_cfom(s, f, euclidean(), y0)
    assert np.allclose(tr.ys[1], y0 - alpha * f.grad(y0))
    assert np.allclose(tr.xs[1], tr.xs[0])


def test_run_cfom_matches_amd(rng):
    f = _quadratic(rng)
    N = 12
    s = amd_schedule(N, f.L, 1.0)
    y0 = rng.standard_normal(5)
    tr = run_cfom(s, f, euclidean(), y0)
    closed = run_amd(f, euclidean(), y0, N, L=f.L, sigma=1.0)
    for a, b in zip(tr.xs, closed.traj.xs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_mirror_dual_index_examples(rng):
    s = random_schedule(2, rng)
    d = mirror_dual_schedule(s)
    assert d.a[1, 0] == s.a[2, 1]
    assert d.a[2, 0] == s.a[2, 0]
    assert d.a[2, 1] == s.a[1, 0]
    assert d.b[2, 2] == s.b[0, 0] == -1.0
    assert d.b[0, 0] == s.b[2, 2]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_mirror_dual_is_exact_involution(N, seed):
    rng = np.random.default_rng(seed)
    s = random_schedule(N, rng)
    d = mirror_dual_schedule(s)
    for r in range(N + 1):
        for c in range(N + 1):
            assert d.a[r, c] == s.a[N - c, N - r] and d.b[r, c] == s.b[N - c, N - r]
    dd = mirror_dual_schedule(d)
    assert np.array_equal(dd.a, s.a)
    assert np.array_equal(dd.b, s.b)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_dual_run_recovers_gradient_for_valid_schedules(p, rng):
    for _ in range(10):
        N = int(rng.integers(1, 7))
        s = random_valid_schedule(N, rng, scale=0.3)
        f = _quadratic(rng, p=p)
        g = squared_lp(p)
        dt = run_mirror_dual(s, f, g, rng.standard_normal(5))
        gN = f.grad(dt.qs[-1])
        assert np.linalg.norm(dt.rs[-1] - gN) <= 1e-9 * (1.0 + np.linalg.norm(gN))


def test_dual_run_stationary_zero_schedule(rng):
    f = _quadratic(rng)
    N = 3
    a = np.zeros((N + 1, N + 1))
    b = np.zeros((N + 1, N + 1))  # b(0,0) = 0: dual-form schedule with r_0 = 0
    s = CoefficientSchedule(N=N, a=a, b=b)
    dt = run_dual_cfom(s, f, euclidean(), np.ones(5))
    for q in dt.qs:
        assert np.allclose(q, dt.qs[0])


def test_mirror_dual_of_amd_matches_closed_form(rng):
    f = _quadratic(rng)
    N = 10
    s = amd_schedule(N, f.L, 1.0)
    q0 = rng.standard_normal(5)
    dt = run_mirror_dual(s, f, euclidean(), q0)
    closed = run_dual_amd(f, euclidean(), q0, N, L=f.L, sigma=1.0)
    for a, b in zip(dt.qs, closed.dual_traj.qs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)
    for a, b in zip(dt.rs, closed.dual_traj.rs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_hull_weights_for_convex_schedules(rng):
    # x_k must be a convex combination of the mirrored points when the
    # b rows are differences of probability vectors.
    for _ in range(10):
        N = int(rng.integers(1, 7))
        s = random_valid_schedule(N, rng, convex=True)
        w = np.zeros(N + 1)
        w[0] = 1.0
        for k in range(1, N + 1):
            w[: k + 1] -= s.b[k, : k + 1]
            assert np.all(w >= -1e-10)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-10)


def _fsfom(H, L, f, x0):
    """x_{k+1} = x_k - (1/L) sum_{l<=k} H[k, l] grad f(x_l)."""
    xs = [np.asarray(x0, dtype=np.float64)]
    grads = [f.grad(xs[0])]
    for k in range(H.shape[0]):
        xs.append(xs[k] - (1.0 / L) * sum(H[k, l] * grads[l] for l in range(k + 1)))
        grads.append(f.grad(xs[-1]))
    return xs


def _h_schedules(rng, L):
    """AMD plus random schedules that meet the row-sum condition."""
    return [amd_schedule(7, L, 1.0)] + [
        random_valid_schedule(int(rng.integers(1, 9)), rng, scale=0.3) for _ in range(5)
    ]


def test_h_matrix_fsfom_equivalence_primal(rng):
    f = _quadratic(rng)
    L = f.L
    for s in _h_schedules(rng, L):
        H = to_h_matrix(s, L=L, form="primal")
        y0 = rng.standard_normal(5)
        tr = run_cfom(s, f, euclidean(), y0)
        for a, b in zip(_fsfom(H, L, f, y0), tr.xs):  # x_0 = y_0 for the Euclidean DGF
            assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_h_matrix_fsfom_equivalence_dual(rng):
    f = _quadratic(rng)
    L = f.L
    for s in _h_schedules(rng, L):
        s_dual = mirror_dual_schedule(s)
        H = to_h_matrix(s_dual, L=L, form="dual")
        q0 = rng.standard_normal(5)
        dt = run_dual_cfom(s_dual, f, euclidean(), q0)
        for a, b in zip(_fsfom(H, L, f, q0), dt.qs):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_h_matrix_dual_is_anti_transpose(rng):
    for _ in range(5):
        N = int(rng.integers(1, 8))
        s = random_valid_schedule(N, rng, scale=0.5)
        Hp = to_h_matrix(s, L=1.7, form="primal")
        Hd = to_h_matrix(mirror_dual_schedule(s), L=1.7, form="dual")
        assert np.allclose(Hd, anti_transpose(Hp), atol=1e-12)


def test_h_matrix_zero_a_gives_zero_h(rng):
    N = 4
    s = random_valid_schedule(N, rng)
    s = CoefficientSchedule(N=N, a=np.zeros_like(s.a), b=s.b)
    assert np.all(to_h_matrix(s, form="primal") == 0.0)


def test_h_matrix_rejects_invalid_primal_schedule(rng):
    s = schedule_from_entries(2, [[1, 0, 1.0]], [[1, 0, 1.0]])
    with pytest.raises(ValueError):
        to_h_matrix(s, form="primal")


def test_anti_transpose_examples():
    H = np.array([[1.0, 0.0], [2.0, 3.0]])
    assert np.array_equal(anti_transpose(H), [[3.0, 0.0], [2.0, 1.0]])
    assert np.array_equal(anti_transpose(anti_transpose(H)), H)
    d = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(anti_transpose(d), np.diag([3.0, 2.0, 1.0]))


def test_schedule_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CoefficientSchedule(N=2, a=np.zeros((2, 2)), b=np.zeros((3, 3)))
    a = np.zeros((3, 3))
    a[1, 2] = 1.0  # outside the strict triangle
    with pytest.raises(ValueError):
        CoefficientSchedule(N=2, a=a, b=np.zeros((3, 3)))


def test_schedule_file_round_trip(tmp_path, rng):
    s = random_valid_schedule(5, rng)
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    s2 = load_schedule(str(path))
    assert np.allclose(s2.a, s.a)
    assert np.allclose(s2.b, s.b)


def test_load_defaults_b00_to_minus_one(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"N": 2, "a": [[1, 0, 0.5]], "b": []}))
    s = load_schedule(str(path))
    assert s.b[0, 0] == -1.0


def test_load_keeps_explicit_b00(tmp_path, rng):
    # Dual-form schedules carry b(0,0) = b_primal(N,N); the loader must
    # preserve it so that dualize round-trips through files.
    s = mirror_dual_schedule(random_valid_schedule(3, rng))
    path = tmp_path / "d.json"
    save_schedule(s, str(path))
    s2 = load_schedule(str(path))
    assert s2.b[0, 0] == s.b[0, 0]
    assert s2.b[0, 0] != -1.0 or s.b[0, 0] == -1.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_iterate_raises(rng):
    f = DiagQuadratic(d=[1e150, 1e150], b=[0.0, 0.0])
    s = schedule_from_entries(2, [[1, 0, 1e160], [2, 0, 1e160]], [])
    with pytest.raises(FloatingPointError):
        run_cfom(s, f, euclidean(), np.array([1.0, 1.0]))


def _dense(s):
    """The same coefficients without the generator form: the dense reference path."""
    return CoefficientSchedule(N=s.N, a=s.a, b=s.b)


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("N", [1, 2, 3, 57, 200])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_generator_executor_matches_dense_path(N, p, rng):
    f = _quadratic(rng, n=7, p=p)
    g = squared_lp(p)
    s = amd_schedule(N, f.L, g.sigma)
    assert s.tail is not None
    start = rng.standard_normal(7)
    for got, want in [(run_cfom(s, f, g, start), run_cfom(_dense(s), f, g, start)),
                      (run_mirror_dual(s, f, g, start), run_mirror_dual(_dense(s), f, g, start))]:
        for name in ("xs", "ys", "qs", "rs", "f_grads", "mirrors"):
            if hasattr(want, name):
                assert _rel_err(getattr(got, name), getattr(want, name)) <= 1e-12, name


def test_generator_form_only_from_amd_schedule(rng, tmp_path):
    s = amd_schedule(6, 2.0, 1.0)
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    assert "tail" not in json.loads(path.read_text())
    assert load_schedule(str(path)).tail is None
    assert random_valid_schedule(6, rng).tail is None
    assert schedule_from_entries(2, [], []).tail is None


def test_tail_factors_must_reproduce_b(rng):
    s = amd_schedule(8, 2.0, 1.0)
    row, col = s.tail
    # The tail starts two below the diagonal: row[0] and col[N-1] multiply nothing.
    CoefficientSchedule(N=8, a=s.a, b=s.b, tail=(row + np.eye(8)[0], col + np.eye(8)[7]))
    for bad in [(row * 1.5, col), (row, col + np.eye(8)[3] * 1e-15), (row[:-1], col),
                (row, np.where(np.arange(8) == 7, np.inf, col))]:
        with pytest.raises(ValueError):
            CoefficientSchedule(N=8, a=s.a, b=s.b, tail=bad)
    b = s.b.copy()
    b[6, 2] += 1e-12
    with pytest.raises(ValueError, match="do not reproduce"):
        CoefficientSchedule(N=8, a=s.a, b=b, tail=s.tail)
    a = s.a.copy()
    a[5, 2] = 0.25  # a second subdiagonal has no generator form
    with pytest.raises(ValueError, match="subdiagonal only"):
        CoefficientSchedule(N=8, a=a, b=s.b, tail=s.tail)


def test_mirror_dual_maps_tail_factors():
    s = amd_schedule(9, 3.0, 0.5)
    d = mirror_dual_schedule(s)
    assert np.array_equal(d.tail[0], s.tail[1][::-1])
    assert np.array_equal(d.tail[1], s.tail[0][::-1])
    dd = mirror_dual_schedule(d)
    assert np.array_equal(dd.tail[0], s.tail[0]) and np.array_equal(dd.tail[1], s.tail[1])
    assert np.array_equal(dd.a, s.a) and np.array_equal(dd.b, s.b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_generator_executor_reports_divergence(rng):
    f = DiagQuadratic(d=[1.0, 4.0], b=[0.0, 0.0])
    s = amd_schedule(200, 0.001, 1.0)  # L far below the true 4
    with pytest.raises(FloatingPointError, match="non-finite"):
        run_cfom(s, f, euclidean(), np.array([1.0, 1.0]))


@pytest.mark.parametrize("doc", [
    [1, 2],                                  # not an object
    {"N": 2, "a": 5},                        # entries not a list
    {"N": 2, "a": [[1, 0, None]]},           # null value
    {"N": 2, "b": [None]},                   # null entry
    {"N": 3.7},                              # non-integer N, not truncated to 3
    {"N": True},
    {"a": []},                               # no N
    {"N": -3},
    {"N": 2, "b": [[1, 0.5, 1.0]]},          # non-integer index
    {"N": 2, "a": [[1, 0, "0.5"]]},
    {"N": 2, "a": [[1, 0]]},
    {"N": 2, "a": [[1, 0, 10 ** 400]]},      # beyond the float range: no OverflowError
])
def test_load_schedule_rejects_malformed_documents(doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_schedule(str(path))
