import json
import tracemalloc

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
    schedule_to_json_dict,
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


@pytest.mark.parametrize("form", ["dense", "generator", "random", "random-valid"])
@pytest.mark.parametrize("N", [1, 2, 9, 40])
def test_mirror_dual_equals_the_checked_construction(form, N, rng):
    """mirror_dual_schedule builds its result around CoefficientSchedule's checks;
    it equals the schedule built through them, and the dual of its dual is s."""
    if form in ("dense", "generator"):
        s = amd_schedule(N, 3.0, 0.5)
        if form == "dense":
            s = CoefficientSchedule(N=N, a=s.a, b=s.b)
    else:
        s = (random_schedule if form == "random" else random_valid_schedule)(N, rng)
    tail = None if s.tail is None else (s.tail[1][::-1], s.tail[0][::-1])
    want = CoefficientSchedule(N=N, a=anti_transpose(s.a), b=anti_transpose(s.b), tail=tail)
    got = mirror_dual_schedule(s)
    for d, ref in ((got, want), (mirror_dual_schedule(got), s)):
        assert type(d) is CoefficientSchedule and d.N == ref.N
        for x, y in ((d.a, ref.a), (d.b, ref.b)) + (() if ref.tail is None else tuple(zip(d.tail, ref.tail))):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert (d.tail is None) == (ref.tail is None)


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


def test_executors_return_their_arrays(rng):
    """Each family of an executor's run is one (N+1, d) array, rows equal to the
    closed form's list, and read by index, len and iteration as a list is."""
    N, f, g = 9, _quadratic(rng), squared_lp(1.5)
    s, start = amd_schedule(N, f.L, g.sigma), rng.standard_normal(5)
    tr, dt = run_cfom(s, f, g, start), run_dual_cfom(mirror_dual_schedule(s), f, g, start)
    closed, closed_dual = run_amd(f, g, start, N).traj, run_dual_amd(f, g, start, N).dual_traj
    for got, want in ((tr, closed), (dt, closed_dual)):
        for name, fam in vars(got).items():
            assert isinstance(fam, np.ndarray) and fam.shape == (N + 1, 5), name
            assert len(fam) == len(getattr(want, name)) == N + 1
            for a, b in zip(fam, getattr(want, name)):
                assert np.allclose(a, b, rtol=1e-10, atol=1e-10), name


def test_schedule_file_round_trip(tmp_path, rng):
    s = random_valid_schedule(5, rng)
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    s2 = load_schedule(str(path))
    assert np.allclose(s2.a, s.a)
    assert np.allclose(s2.b, s.b)


def _zero_last_diagonal(rng):
    """A valid schedule with b[N,N] = 0, so that its mirror dual has b(0,0) = 0."""
    s = random_valid_schedule(4, rng)
    s.b[4, 3] += s.b[4, 4]
    s.b[4, 4] = 0.0
    return s


@pytest.mark.parametrize("make", [lambda rng: amd_schedule(3, 1.0, 1.0), lambda rng: amd_schedule(9, 2.5, 0.5),
                                  lambda rng: random_schedule(5, rng), lambda rng: random_valid_schedule(6, rng),
                                  lambda rng: mirror_dual_schedule(random_valid_schedule(5, rng)),
                                  _zero_last_diagonal,
                                  lambda rng: mirror_dual_schedule(_zero_last_diagonal(rng))],
                         ids=["amd-3", "amd-9", "random", "valid", "dual", "zero-bNN", "dual-of-zero-bNN"])
def test_schedule_document_reads_back_as_written(make, rng, tmp_path):
    """load_schedule of schedule_to_json_dict(s), in memory and through save_schedule,
    is s: every value a plain float, and b(0,0) written even when it is 0."""
    s = make(rng)
    doc = schedule_to_json_dict(s)
    assert all(type(e[2]) is float for key in ("a", "b") for e in doc[key])
    assert doc["b"][0] == [0, 0, float(s.b[0, 0])]
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    for back in (load_schedule(doc), load_schedule(str(path))):
        assert back.N == s.N and np.array_equal(back.a, s.a) and np.array_equal(back.b, s.b)


def test_load_schedule_holds_little_beside_its_arrays(rng):
    """load_schedule reads a dense N = 300 document (90,601 entries) in one pass: its
    traced peak stays below 3 times the two dense arrays it returns (1.4 MiB).  A list
    of (k, i, value) tuples built before the arrays are filled holds about 9 times them."""
    N = 300
    s = random_schedule(N, rng)
    doc = schedule_to_json_dict(s)
    tracemalloc.start()
    try:
        back = load_schedule(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.a, s.a) and np.array_equal(back.b, s.b)
    arrays = 2 * (N + 1) ** 2 * 8
    assert peak < 3 * arrays, peak / arrays


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
    {"N": 2, "a": [[1, 0, 0.5], [1, 0, 0.7]]},   # one coefficient given twice
    {"N": 2, "b": [[2, 1, 0.5], [2, 1, 0.5]]},   # twice, with one value
])
def test_load_schedule_rejects_malformed_documents(doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_schedule(str(path))
