"""Golden CLI outputs: `run` traces, `dualize` and `ot` results, byte for byte.

The files under tests/golden/ pin what the command line writes for a fixed
set of inputs, so that a refactor of the executors, the dual transform or
the certificates cannot change an emitted byte unnoticed.  `duality-check`
is pinned only by its exit code, trial count and failure count: its
max_residual is roundoff.

Regenerate the fixtures (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py

which names each fixture file whose bytes change before it rewrites it.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mirropt.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _run_config(method: str, p: float, x0=None) -> dict:
    cfg = {
        "method": method,
        "objective": {
            "kind": "diag-quadratic",
            "d": [0.5, 1.0, 2.0, 4.0],
            "b": [0.3, -0.2, 0.1, 0.4],
            "p": p,
        },
        "dgf": {"kind": "euclidean"} if p == 2.0 else {"kind": "squared-lp", "p": p},
        "N": 12,
    }
    if x0 is not None:
        cfg["dgf"] = {"kind": "shifted-euclidean", "x0": x0}
    if method in ("md", "dual-md"):
        cfg["alpha"] = (p - 1.0) / 4.0
    if method in ("md", "amd"):
        cfg["y0"] = [1.0, -0.5, 0.25, 2.0]
    else:
        cfg["q0"] = [1.0, -0.5, 0.25, 2.0]
    return cfg


RUN_CASES = {
    f"{method}_p{format(p, 'g').replace('.', '_')}": _run_config(method, p)
    for method in ("md", "dual-md", "amd", "dual-amd")
    for p in (2.0, 1.5)
}
# Shifted runs step through DGF.conjugate_grad (grad phi* = y + x0); the
# unshifted Euclidean ones above step with the identity.
RUN_CASES.update({
    f"{method}_p2_shifted": _run_config(method, 2.0, x0=[0.5, -1.0, 0.0, -0.125])
    for method in ("md", "amd")
})

DUALITY_CASES = {
    "amd": ["--schedule", "amd", "--N", "8", "--trials", "50"],
    "amd_perturbed": ["--schedule", "amd", "--N", "5", "--trials", "20", "--perturb-v", "0.1"],
    "schedule_file": ["--schedule", str(GOLDEN / "schedule.json"), "--trials", "50", "--seed", "3"],
}


def _random_schedule_doc(seed: int = 2024, N: int = 6) -> dict:
    """A dense schedule (a strict, b inclusive triangle, b(0,0) = -1) as JSON."""
    rng = np.random.default_rng(seed)
    a = [[k, i, float(rng.standard_normal())] for k in range(1, N + 1) for i in range(k)]
    b = [[0, 0, -1.0]] + [
        [k, i, float(rng.standard_normal())] for k in range(1, N + 1) for i in range(k + 1)
    ]
    return {"N": N, "a": a, "b": b}


def _ot_instance_doc(seed: int = 7, m: int = 3, n: int = 4) -> dict:
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, m)
    nu = rng.uniform(0.5, 1.5, n)
    return {
        "C": rng.uniform(0.0, 1.0, (m, n)).tolist(),
        "mu": (mu / mu.sum()).tolist(),
        "nu": (nu / nu.sum()).tolist(),
    }


def _cli(args) -> int:
    return main([str(a) for a in args])


def _run_trace(name: str, workdir: Path) -> tuple:
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(RUN_CASES[name]))
    out = workdir / f"{name}.csv"
    code = _cli(["run", "--config", cfg, "--out", out, "--seed", "5"])
    return code, out.read_bytes()


def _dualize(workdir: Path) -> bytes:
    out = workdir / "dual.json"
    assert _cli(["dualize", "--schedule", GOLDEN / "schedule.json", "--out", out]) == 0
    return out.read_bytes()


def _ot(workdir: Path) -> bytes:
    out = workdir / "ot.json"
    assert _cli(["ot", "--instance", GOLDEN / "ot_instance.json", "--eps", "0.1", "--out", out]) == 0
    return out.read_bytes()


def _duality(name: str, workdir: Path) -> dict:
    out = workdir / f"{name}.json"
    code = _cli(["duality-check", *DUALITY_CASES[name], "--out", out])
    doc = json.loads(out.read_text())
    return {"exit": code, "trials": doc["trials"], "failures": len(doc["failures"])}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_trace_bytes(name, tmp_path):
    code, got = _run_trace(name, tmp_path)
    want = json.loads((GOLDEN / "run_exit_codes.json").read_text())[name]
    assert code == want
    assert got == (GOLDEN / f"run_{name}.csv").read_bytes()


def test_dualize_bytes(tmp_path):
    assert _dualize(tmp_path) == (GOLDEN / "dualize_out.json").read_bytes()


def test_ot_result_bytes(tmp_path):
    assert _ot(tmp_path) == (GOLDEN / "ot_result.json").read_bytes()


@pytest.mark.parametrize("name", sorted(DUALITY_CASES))
def test_duality_check_outcome(name, tmp_path):
    want = json.loads((GOLDEN / "duality_check.json").read_text())[name]
    assert _duality(name, tmp_path) == want


def _write_fixtures(fixtures: dict) -> int:
    """Print each fixture whose bytes differ from tests/golden/, then rewrite those."""
    changed = [name for name, data in fixtures.items()
               if not (GOLDEN / name).exists() or (GOLDEN / name).read_bytes() != data]
    for name in changed:
        print(f"differs: tests/golden/{name}")
    for name in changed:
        (GOLDEN / name).write_bytes(fixtures[name])
    return len(changed)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    # The inputs first: the outputs below are computed from them.
    changed = _write_fixtures({
        "schedule.json": (json.dumps(_random_schedule_doc(), indent=1) + "\n").encode(),
        "ot_instance.json": (json.dumps(_ot_instance_doc(), indent=1) + "\n").encode(),
    })
    workdir = Path(tempfile.mkdtemp())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            outputs, codes = {}, {}
            for name in sorted(RUN_CASES):
                codes[name], outputs[f"run_{name}.csv"] = _run_trace(name, workdir)
            outputs["run_exit_codes.json"] = (json.dumps(codes, indent=1) + "\n").encode()
            outputs["dualize_out.json"] = _dualize(workdir)
            outputs["ot_result.json"] = _ot(workdir)
            outcomes = {name: _duality(name, workdir) for name in sorted(DUALITY_CASES)}
            outputs["duality_check.json"] = (json.dumps(outcomes, indent=1) + "\n").encode()
    finally:
        shutil.rmtree(workdir)
    changed += _write_fixtures(outputs)
    print(f"{changed} of {len(outputs) + 2} fixture files rewritten")


if __name__ == "__main__":
    regenerate()
