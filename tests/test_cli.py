import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirropt import ot
from mirropt.cfom import load_schedule, run_dual_cfom, save_schedule
from mirropt.cli import main
from mirropt.dgf import euclidean
from mirropt.methods import amd_schedule, run_dual_amd
from mirropt.objectives import DiagQuadratic

from conftest import random_valid_schedule


AMD_CONFIG = {
    "method": "amd",
    "objective": {"kind": "diag-quadratic", "d": [1.0, 4.0], "b": [0.0, 0.0]},
    "dgf": {"kind": "euclidean"},
    "N": 20,
    "y0": [1.0, 1.0],
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_amd_trace(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("k,")]
    assert len(rows) == 21
    assert any("method=amd" in h for h in header)
    ks = [int(r.split(",")[0]) for r in rows]
    assert ks == list(range(21))
    bounds = {r.split(",")[5] for r in rows}
    assert len(bounds) == 1  # bound column constant
    energies = [float(r.split(",")[4]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_run_is_deterministic(tmp_path):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_invalid_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1


def test_run_rejects_n_zero(tmp_path, capsys):
    doc = dict(AMD_CONFIG, N=0)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    assert "N >= 1 required" in capsys.readouterr().err


def test_certify_roundtrip_and_tamper(tmp_path):
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    parts = lines[-1].split(",")
    parts[1] = format(float(parts[1]) + 0.5, ".17g")
    lines[-1] = ",".join(parts)
    out.write_text("\n".join(lines) + "\n")
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 2
    # A converged run's last f is far below 1e-9; a changed leading digit
    # there must fail too, so the comparison is relative.
    cfg = _write(tmp_path / "cfg200.json", dict(AMD_CONFIG, N=200))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    parts = lines[-1].split(",")
    assert parts[1].startswith("6.43")
    for changed in ("7" + parts[1][1:], "nan"):
        lines[-1] = ",".join([parts[0], changed] + parts[2:])
        out.write_text("\n".join(lines) + "\n")
        assert main(["certify", "--trace", str(out), "--config", cfg]) == 2


def test_dual_amd_shifted_dgf_trace_certifies(tmp_path):
    doc = {
        "method": "dual-amd",
        "objective": {"kind": "diag-quadratic", "d": [1.0, 4.0], "b": [0.3, -0.2]},
        "dgf": {"kind": "shifted-euclidean", "x0": [1.0, 1.0]},
        "N": 10,
        "q0": [1.0, -1.0],
    }
    cfg = _write(tmp_path / "cfg.json", doc)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if ln[0].isdigit()]
    assert len(rows) == 11
    assert all(row[4] == "" and row[3] != "" for row in rows)  # no energies; psi* kept
    assert main(["certify", "--trace", str(out), "--config", cfg]) == 0


def _trace_with_row(tmp_path, edit):
    """A certified AMD trace whose last data row is replaced by edit(its cells)."""
    cfg = _write(tmp_path / "cfg.json", AMD_CONFIG)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    lines[-1] = ",".join(edit(lines[-1].split(",")))
    out.write_text("\n".join(lines) + "\n")
    return cfg, str(out)


def test_certify_rejects_a_cut_row(tmp_path, capsys):
    cfg, trace = _trace_with_row(tmp_path, lambda cells: cells[:2])
    assert main(["certify", "--trace", trace, "--config", cfg]) == 1
    assert "2 columns, expected 6" in capsys.readouterr().err


def test_certify_rejects_a_seventh_column(tmp_path, capsys):
    cfg, trace = _trace_with_row(tmp_path, lambda cells: cells + ["0"])
    assert main(["certify", "--trace", trace, "--config", cfg]) == 1
    assert "7 columns, expected 6" in capsys.readouterr().err


def test_certify_mismatch_in_k_column_exits_2(tmp_path, capsys):
    # Reported at the row's own k, so inf or nan in the k column is no traceback.
    for k in ("inf", "nan", "3"):
        cfg, trace = _trace_with_row(tmp_path, lambda cells: [k] + cells[1:])
        assert main(["certify", "--trace", trace, "--config", cfg]) == 2
        assert "trace mismatch at k=20" in capsys.readouterr().err


# The OT dual has no "n" or "b" from which a zero start could be sized.
OT_DUAL_OBJECTIVE = {"kind": "ot-dual", "C": [[0.0, 1.0], [1.0, 0.0]],
                     "mu": [0.5, 0.5], "nu": [0.3, 0.7], "r": 0.1}


@pytest.mark.parametrize("method, key", [
    ("amd", "y0"), ("dual-amd", "q0"), ("md", "y0"), ("dual-md", "q0"),
])
def test_run_and_certify_from_explicit_start(tmp_path, method, key):
    doc = {"method": method, "objective": OT_DUAL_OBJECTIVE, "N": 10, key: [0.1, 0.0, -0.1, 0.2],
           "alpha": 0.05}
    cfg = _write(tmp_path / "cfg.json", doc)
    out = str(tmp_path / "trace.csv")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["certify", "--trace", out, "--config", cfg]) == 0


def test_run_without_inferable_start_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"method": "amd", "objective": OT_DUAL_OBJECTIVE, "N": 5})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    assert "cannot infer dimension" in capsys.readouterr().err


def test_run_unknown_method_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", dict(AMD_CONFIG, method="newton"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    assert "unknown method 'newton'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_divergence_exits_4(tmp_path, capsys):
    # L far below the true constant 4: AMD diverges (non-finite y at k = 80).
    cfg = _write(tmp_path / "cfg.json", dict(AMD_CONFIG, N=200, L=0.001))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_duality_check_amd(tmp_path):
    rep = tmp_path / "rep.json"
    code = main([
        "duality-check", "--schedule", "amd", "--N", "8",
        "--trials", "100", "--tol", "1e-9", "--out", str(rep),
    ])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["max_residual"] <= 1e-9
    assert doc["trials"] == 100


@pytest.mark.parametrize("extra", [
    ["--trials", "0"], ["--trials", "-2"], ["--dim", "0"],
    # A negative or nan tolerance would fail every trial and an infinite one pass any.
    ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--perturb-v", "nan"], ["--perturb-v", "inf"], ["--perturb-v=-inf"],
])
def test_duality_check_with_nothing_sampled_exits_1(extra, capsys):
    assert main(["duality-check", "--schedule", "amd", "--N", "3", *extra]) == 1
    want = {"--tol": "0 <= tol < inf", "--perturb-v": "--perturb-v must be finite"}
    assert want.get(extra[0].split("=")[0], "trials >= 1 and dim >= 1") in capsys.readouterr().err


def test_duality_check_random_schedule_file(tmp_path, rng):
    s = random_valid_schedule(5, rng)
    path = tmp_path / "s.json"
    save_schedule(s, str(path))
    assert main(["duality-check", "--schedule", str(path), "--trials", "100"]) == 0


def test_duality_check_mismatched_v_exits_3():
    assert main([
        "duality-check", "--schedule", "amd", "--N", "5",
        "--trials", "20", "--perturb-v", "0.1",
    ]) == 3


def test_duality_check_malformed_schedule(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["duality-check", "--schedule", str(bad)]) == 1


def test_dualize_involution(tmp_path, rng):
    s = random_valid_schedule(6, rng)
    p0 = tmp_path / "s.json"
    p1 = tmp_path / "d.json"
    p2 = tmp_path / "dd.json"
    save_schedule(s, str(p0))
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    assert main(["dualize", "--schedule", str(p1), "--out", str(p2)]) == 0
    assert json.loads(p0.read_text()) == json.loads(p2.read_text())


def test_dualize_amd_matches_closed_form(tmp_path, rng):
    f = DiagQuadratic(d=[1.0, 3.0], b=[0.2, -0.4])
    N = 7
    s = amd_schedule(N, f.L, 1.0)
    p0 = tmp_path / "amd.json"
    p1 = tmp_path / "dual.json"
    save_schedule(s, str(p0))
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    dual = load_schedule(str(p1))
    q0 = np.array([0.9, -1.1])
    dt = run_dual_cfom(dual, f, euclidean(), q0)
    closed = run_dual_amd(f, euclidean(), q0, N, L=f.L, sigma=1.0)
    for a, b in zip(dt.qs, closed.dual_traj.qs):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_dualize_empty_schedule(tmp_path):
    p0 = tmp_path / "s.json"
    p0.write_text(json.dumps({"N": 3, "a": [], "b": []}))
    p1 = tmp_path / "d.json"
    assert main(["dualize", "--schedule", str(p0), "--out", str(p1)]) == 0
    doc = json.loads(p1.read_text())
    assert doc["a"] == []
    assert doc["b"] == [[3, 3, -1.0]]  # the carried b(0,0) = -1 lands at (N,N)


def test_schedule_too_large_to_allocate_exits_1(tmp_path, monkeypatch, capsys):
    """A schedule whose dense arrays cannot be allocated is a usage error, not a traceback,
    whether read from a file or built by the amd keyword.

    np.zeros is made to fail on the (N+1)^2 arrays, so nothing large is allocated.
    """
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": 100000, "a": [], "b": []}))
    zeros = np.zeros

    def no_memory(shape, *args, **kwargs):
        if shape == (100001, 100001):
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_memory)
    assert main(["dualize", "--schedule", str(path), "--out", str(tmp_path / "d.json")]) == 1
    assert main(["duality-check", "--schedule", str(path), "--trials", "2", "--dim", "2"]) == 1
    assert main(["duality-check", "--schedule", "amd", "--N", "100000", "--trials", "2", "--dim", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: schedule with N = 100000 is too large") == 3
    assert not (tmp_path / "d.json").exists()


OT_INSTANCE = {"C": [[0.0, 1.0], [1.0, 0.0]], "mu": [0.5, 0.5], "nu": [0.5, 0.5]}


def test_ot_command(tmp_path, capsys):
    inst = _write(tmp_path / "inst.json", OT_INSTANCE)
    out = tmp_path / "res.json"
    assert main(["ot", "--instance", inst, "--eps", "0.05", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cost"] <= 0.05
    X = np.array(doc["plan"])
    assert np.max(np.abs(X.sum(axis=1) - 0.5)) <= 1e-10
    assert np.max(np.abs(X.sum(axis=0) - 0.5)) <= 1e-10
    assert "gap=" in capsys.readouterr().out


def test_ot_budget_exhausted_exits_4(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    doc = {"C": rng.uniform(0, 1, (30, 30)).tolist(),
           "mu": [1.0 / 30] * 30, "nu": [1.0 / 30] * 30}
    inst = _write(tmp_path / "inst.json", doc)
    monkeypatch.setattr(ot, "solve_ot", functools.partial(ot.solve_ot, eval_cap=100))
    assert main(["ot", "--instance", inst, "--eps", "0.001", "--out", str(tmp_path / "o.json")]) == 4
    assert "budget 100 exhausted" in capsys.readouterr().err


def test_ot_rejects_bad_marginals(tmp_path):
    doc = dict(OT_INSTANCE, mu=[0.6, 0.5])
    inst = _write(tmp_path / "inst.json", doc)
    assert main(["ot", "--instance", inst, "--eps", "0.1", "--out", str(tmp_path / "o.json")]) == 1


def test_ot_rejects_bad_eps(tmp_path):
    inst = _write(tmp_path / "inst.json", OT_INSTANCE)
    assert main(["ot", "--instance", inst, "--eps", "-0.1", "--out", str(tmp_path / "o.json")]) == 1


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_ot_rejects_non_finite_eps(tmp_path, eps):
    inst = _write(tmp_path / "inst.json", OT_INSTANCE)
    assert main(["ot", "--instance", inst, "--eps", eps, "--out", str(tmp_path / "o.json")]) == 1


def test_ot_rejects_non_finite_cost(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"C": [[0.0, NaN], [1.0, 0.0]], "mu": [0.5, 0.5], "nu": [0.5, 0.5]}')
    assert main(["ot", "--instance", str(inst), "--eps", "0.1", "--out", str(tmp_path / "o.json")]) == 1
    assert "finite" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


# Malformed inputs: every one is a usage error (exit 1), never a traceback.

VALID_SCHEDULE = {"N": 3, "a": [[1, 0, 0.5], [3, 1, -0.25]],
                  "b": [[0, 0, -1.0], [1, 0, 1.0], [1, 1, -1.0], [3, 0, 0.5]]}
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                         st.floats(allow_nan=True), st.text(max_size=4))
# Anything JSON reads back as other than an int: floats stay floats (3.0 too).
NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                    st.lists(st.integers(0, 3), max_size=3))
NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                       st.lists(st.floats(), max_size=2), st.just(float("nan")),
                       st.integers(2 ** 1024, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 1024))


def _outside(key, N):
    """(k, i) outside the a (0 <= i < k <= N) or b (0 <= i <= k <= N) triangle."""
    inside = (lambda k, i: 0 <= i < k <= N) if key == "a" else (lambda k, i: 0 <= i <= k <= N)
    return st.tuples(st.integers(-3, N + 3), st.integers(-3, N + 3)).filter(lambda ki: not inside(*ki))


@st.composite
def malformed_schedules(draw):
    doc = json.loads(json.dumps(VALID_SCHEDULE))
    key = draw(st.sampled_from(["a", "b"]))
    kind = draw(st.sampled_from(["top", "N", "no-N", "small-N", "entries", "entry",
                                 "index", "value", "triangle"]))
    if kind == "top":
        return draw(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)))
    if kind == "N":
        doc["N"] = draw(NOT_INT)
    elif kind == "no-N":
        del doc["N"]
    elif kind == "small-N":
        doc["N"] = draw(st.integers(-5, 0))
    elif kind == "entries":
        doc[key] = draw(st.one_of(JSON_SCALARS, st.dictionaries(st.text(max_size=2), JSON_SCALARS)))
    else:
        j = draw(st.integers(0, len(doc[key]) - 1))
        k, i, v = doc[key][j]
        if kind == "entry":
            doc[key][j] = draw(st.one_of(JSON_SCALARS, st.lists(st.integers(0, 3), max_size=5)
                                         .filter(lambda e: len(e) != 3)))
        elif kind == "index":
            doc[key][j] = [draw(NOT_INT), i, v] if draw(st.booleans()) else [k, draw(NOT_INT), v]
        elif kind == "value":
            doc[key][j] = [k, i, draw(NOT_NUMBER)]
        else:
            doc[key][j] = [*draw(_outside(key, doc["N"])), v]
    return doc


@settings(max_examples=60, deadline=None)
@given(malformed_schedules())
def test_malformed_schedules_exit_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["dualize", "--schedule", str(path), "--out", str(Path(tmp) / "d.json")]) == 1
        assert main(["duality-check", "--schedule", str(path), "--trials", "2", "--dim", "2"]) == 1


@pytest.mark.parametrize("method", ["amd", "dual-amd"])
@pytest.mark.parametrize("key, value", [("L", "4"), ("L", 0), ("sigma", 0), ("L", -4), ("sigma", -1)])
def test_bad_smoothness_constants_exit_1(tmp_path, capsys, method, key, value):
    """A non-numeric or non-positive L or sigma is refused before the run, not a
    TypeError or ZeroDivisionError traceback, nor a violated-bound exit 2."""
    cfg = dict(AMD_CONFIG, method=method, N=4, **{key: value})
    assert main(["run", "--config", _write(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("method", ["md", "dual-md"])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "0.2", [1], 0, None])
def test_bad_md_step_size_exits_1(tmp_path, capsys, method, alpha):
    """A non-finite, non-positive, non-numeric or missing alpha is a usage error: not a
    non-finite-iterate exit 4, an accepted string, nor a TypeError traceback."""
    cfg = dict(AMD_CONFIG, method=method, N=4, alpha=alpha)
    if alpha is None:
        del cfg["alpha"]
    assert main(["run", "--config", _write(tmp_path / "cfg.json", cfg), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _certified_trace(method):
    """A config and the trace `run` writes for it (N = 4), as text."""
    key = "q0" if method.startswith("dual") else "y0"
    cfg = dict(AMD_CONFIG, method=method, N=4, alpha=0.2)
    cfg[key] = cfg.pop("y0")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "t.csv"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg, out.read_text()


TRACES = {m: _certified_trace(m) for m in ("amd", "dual-amd", "md", "dual-md")}
# Tokens float() rejects, free of the separators "," and newline.
BAD_TOKENS = st.text(alphabet="abcdefinstxyz+-._ ", min_size=1, max_size=6).filter(_not_a_float)


@st.composite
def malformed_traces(draw):
    method = draw(st.sampled_from(sorted(TRACES)))
    cfg, text = TRACES[method]
    lines = text.splitlines()
    data = [j for j, ln in enumerate(lines) if not ln.startswith(("#", "k,"))]
    j = draw(st.sampled_from(data))
    cells = lines[j].split(",")
    kind = draw(st.sampled_from(["cut", "extend", "token", "drop", "repeat", "empty", "fill"]))
    if kind == "cut":
        lines[j] = ",".join(cells[:draw(st.integers(1, 5))])
    elif kind == "extend":
        lines[j] = ",".join(cells + draw(st.lists(st.sampled_from(["", "0", "1.5"]), min_size=1, max_size=3)))
    elif kind == "token":
        c = draw(st.integers(0, 5))
        lines[j] = ",".join(cells[:c] + [draw(BAD_TOKENS)] + cells[c + 1:])
    elif kind == "drop":
        del lines[j]
    elif kind == "repeat":
        lines.insert(j, lines[j])
    else:
        # Empty a filled cell, or fill an empty one: the columns no longer match the config.
        full = [c for c, v in enumerate(cells) if (v != "") == (kind == "empty")]
        if not full:
            lines[j] = ",".join(cells[:3])
        else:
            c = draw(st.sampled_from(full))
            cells[c] = "" if kind == "empty" else "0.5"
            lines[j] = ",".join(cells)
    return cfg, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(malformed_traces())
def test_malformed_traces_exit_1(case):
    cfg, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, trace = Path(tmp) / "cfg.json", Path(tmp) / "t.csv"
        cfg_path.write_text(json.dumps(cfg))
        trace.write_text(text)
        assert main(["certify", "--trace", str(trace), "--config", str(cfg_path)]) == 1


def test_non_utf8_trace_exits_1(tmp_path):
    cfg, text = TRACES["amd"]
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    trace = tmp_path / "t.csv"
    trace.write_bytes(text.encode()[:-40] + b"\xff\xfe" + text.encode()[-40:])
    assert main(["certify", "--trace", str(trace), "--config", cfg_path]) == 1


def _main_quietly(argv) -> tuple:
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _run_then_certify(cfg) -> tuple:
    """The exit codes and stderr of `run` on cfg and of `certify` on the trace it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, trace = Path(tmp) / "cfg.json", Path(tmp) / "t.csv"
        cfg_path.write_text(json.dumps(cfg))
        return (_main_quietly(["run", "--config", str(cfg_path), "--out", str(trace)]),
                _main_quietly(["certify", "--trace", str(trace), "--config", str(cfg_path)]))


# A diag-quadratic whose true smoothness constant is 4.
PROBE_OBJECTIVE = {"kind": "diag-quadratic", "d": [1.0, 4.0], "b": [0.3, -0.2]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cfg, code, message", [
    # L below the true 4: V_k increases at once, below the final bound.
    ({"method": "dual-amd", "objective": PROBE_OBJECTIVE, "N": 5, "L": 3.5, "q0": [1.0, -1.0]},
     2, "energy increased at k=1"),
    # Finite iterates, but f(x_0), the energies and the bound overflow.
    ({"method": "amd", "objective": PROBE_OBJECTIVE, "N": 5, "y0": [1e200, 1e200]},
     4, "non-finite trace value at k=0"),
    # The p = 1.5 DGF squares a Python float in the bound: an OverflowError.
    ({"method": "amd", "objective": dict(PROBE_OBJECTIVE, p=1.5), "dgf": {"kind": "squared-lp", "p": 1.5},
      "N": 5, "y0": [1e160, -1e160]}, 4, "numerical failure"),
])
def test_run_and_certify_give_one_verdict(cfg, code, message):
    """run exits as certify does on the trace it wrote, by the energies too, not only the bound."""
    for got, err in _run_then_certify(cfg):
        assert got == code
        assert message in err


DIAG_RUNS = st.fixed_dictionaries({
    "method": st.sampled_from(["amd", "dual-amd", "md", "dual-md"]),
    "p": st.sampled_from([1.5, 2.0]),
    "c": st.floats(0.3, 1.5),
    "N": st.integers(1, 20),
    "rows": st.lists(st.tuples(st.floats(0.2, 4.0), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
                     min_size=1, max_size=4),
})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(DIAG_RUNS)
def test_certify_returns_the_exit_code_of_run(case):
    """Over valid diag-quadratic configs whose declared L = c max d may be below the true
    constant, certify on the trace run wrote exits as run did."""
    d, b, start = (list(col) for col in zip(*case["rows"]))
    p, method = case["p"], case["method"]
    L = case["c"] * max(d)
    cfg = {"method": method, "objective": {"kind": "diag-quadratic", "d": d, "b": b, "p": p},
           "dgf": {"kind": "euclidean"} if p == 2.0 else {"kind": "squared-lp", "p": p},
           "N": case["N"], ("q0" if method.startswith("dual") else "y0"): start}
    if method in ("md", "dual-md"):
        cfg["alpha"] = (p - 1.0) / L
    else:
        cfg["L"] = L
    (run_code, _), (certify_code, _) = _run_then_certify(cfg)
    assert run_code in (0, 2, 4)
    assert certify_code == run_code


VALID_RUN = {"method": "md", "objective": PROBE_OBJECTIVE, "dgf": {"kind": "euclidean"},
             "N": 4, "L": 4.0, "sigma": 1.0, "alpha": 0.2, "y0": [1.0, -1.0]}
NUMBERS = st.one_of(st.integers(-10, 10), st.floats(allow_nan=False))
TOO_LARGE = st.one_of(st.integers(2 ** 1024, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 1024))
NOT_OBJECT = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))
NOT_A_METHOD = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=8).filter(lambda t: t not in TRACES),
    st.lists(st.sampled_from(sorted(TRACES)), max_size=2), st.dictionaries(st.text(max_size=2), JSON_SCALARS))
# Not a number, where null is no default either; nan passes here and the runners refuse it.
NOT_A_NUMBER = st.one_of(st.booleans(), st.text(max_size=4), st.lists(st.floats(), max_size=2),
                         st.dictionaries(st.text(max_size=2), JSON_SCALARS), TOO_LARGE)
# A start that is no list of numbers (a non-finite entry is a numerical failure, not this).
NOT_A_START = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(min_size=1, max_size=4),
    st.dictionaries(st.text(min_size=1, max_size=2), JSON_SCALARS, min_size=1),
    st.tuples(st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(NUMBERS, max_size=2),
                        TOO_LARGE), st.booleans())
    .map(lambda t: [t[0], 1.0] if t[1] else [1.0, t[0]]))
RUN_FIELDS = {
    "method": NOT_A_METHOD,
    "objective": NOT_OBJECT,
    "dgf": NOT_OBJECT,
    "N": st.one_of(NOT_INT, st.integers(-5, 0)),
    "L": NOT_A_NUMBER,
    "sigma": NOT_A_NUMBER,
    "alpha": st.one_of(st.none(), NOT_A_NUMBER),
    "start": NOT_A_START,
}


@st.composite
def malformed_run_configs(draw):
    method = draw(st.sampled_from(sorted(TRACES)))
    doc = dict(VALID_RUN, method=method)
    key = "q0" if method.startswith("dual") else "y0"
    doc[key] = doc.pop("y0")
    kind = draw(st.sampled_from(["top", "missing", "field"]))
    if kind == "top":
        return draw(NOT_OBJECT)
    # alpha is read, and so missing or malformed, only for md and dual-md.
    fields = [k for k in RUN_FIELDS if k != "alpha" or method in ("md", "dual-md")]
    if kind == "missing":
        del doc[draw(st.sampled_from([k for k in ("method", "objective", "N", "alpha") if k in fields]))]
        return doc
    field = draw(st.sampled_from(fields))
    doc[key if field == "start" else field] = draw(RUN_FIELDS[field])
    return doc


def _exits_1(argv):
    code, err = _main_quietly(argv)
    assert code == 1
    assert err.startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(malformed_run_configs())
@example(dict(VALID_RUN, method=["md"]))
@example(dict(VALID_RUN, N="5"))
@example(dict(VALID_RUN, N=5.7))
@example(dict(VALID_RUN, N=True))
@example(dict(VALID_RUN, dgf=None))
def test_malformed_run_configs_exit_1(doc):
    """A non-object config, a missing field, or a field of a wrong JSON type is a usage
    error for run and certify: not a traceback, nor a coerced N."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        _exits_1(["run", "--config", str(cfg), "--out", str(Path(tmp) / "t.csv")])
        _exits_1(["certify", "--trace", str(Path(tmp) / "t.csv"), "--config", str(cfg)])


# Entries numpy reads as no finite float; a bool or a numeric string it coerces.
NOT_AN_ENTRY = st.one_of(st.none(), st.text(min_size=1, max_size=4).filter(_not_a_float),
                         st.dictionaries(st.text(max_size=2), JSON_SCALARS), st.lists(NUMBERS, max_size=2),
                         TOO_LARGE)


@st.composite
def malformed_ot_instances(draw):
    doc = json.loads(json.dumps(OT_INSTANCE))
    kind = draw(st.sampled_from(["top", "missing", "field", "entry"]))
    if kind == "top":
        return draw(NOT_OBJECT)
    field = draw(st.sampled_from(["C", "mu", "nu"]))
    if kind == "missing":
        del doc[field]
    elif kind == "field":
        doc[field] = draw(st.one_of(JSON_SCALARS, st.dictionaries(st.text(max_size=2), JSON_SCALARS)))
    else:
        row = doc[field][draw(st.integers(0, 1))] if field == "C" else doc[field]
        row[draw(st.integers(0, 1))] = draw(NOT_AN_ENTRY)
    return doc


@settings(max_examples=60, deadline=None)
@given(malformed_ot_instances())
@example([1, 2])
@example(dict(OT_INSTANCE, mu={"a": 1}))
def test_malformed_ot_instances_exit_1(doc):
    """A non-object instance, a missing field, a field or an entry of a wrong JSON type,
    or an integer beyond the float range is a usage error, not a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        inst.write_text(json.dumps(doc))
        _exits_1(["ot", "--instance", str(inst), "--eps", "0.1", "--out", str(Path(tmp) / "o.json")])
