"""Command-line front end.

Subcommands:
    run            execute a configured method, emit a CSV trace
    certify        re-run a config and verify an emitted trace against it
    duality-check  sample the energy-duality identity on a schedule
    dualize        write the mirror-dual of a schedule file
    ot             solve a transport instance to accuracy eps

`run` and `certify` set up each method through methods._start, the one
place a run is set up, and evaluate the trace rows while it steps, on
windows of certificates.ROW_BLOCK + 1 steps, into the float64 columns that
are written, compared and judged: O(ROW_BLOCK d) vectors plus O(N) row
scalars, whatever N, but on dual-amd, whose energies read its last point,
copies of two of its families until that point comes, O(N d).

`run` and `certify` judge a run by one rule (_verdict); every document
is read through one boundary (_reading), where a malformed one is a
usage error, and every number in it by spaces' one reader, which refuses
bools, strings, NaN and Infinity.  N is at most MAX_N, in a config or --N.

Exit codes: 0 success, 1 usage or I/O error, 2 energy increase or
certified-bound violation, 3 duality residual above tolerance, 4
numerical failure (a non-finite iterate or trace value, an overflow, or
the OT gradient-evaluation budget exhausted).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from array import array

import numpy as np

from . import certificates, cfom, methods, ot
from .dgf import dgf_from_descriptor
from .objectives import objective_from_descriptor
from .spaces import _json_int, _json_number, as_vector

BOUND_SLACK = 1e-9
MAX_N = 2 ** 20  # the largest N a config or --N may give (the default OT gradient budget)


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


class UsageError(Exception):
    pass


# method -> key of its start point in the config
_METHODS = {"amd": "y0", "dual-amd": "q0", "md": "y0", "dual-md": "q0"}


@contextlib.contextmanager
def _reading(what: str):
    """The one read boundary: a document of the wrong shape or type is a usage error."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as e:
        raise UsageError(f"bad {what}: {e}") from None


def _load_json(path: str):
    with open(path) as fh, _reading(f"JSON in {path}"):
        return json.load(fh)


def _run_from_config(cfg: dict):
    """Execute the configured method; returns (run, (cols, bound), f, g): its
    MethodRun, with no trajectory, and its trace columns and bound (_rows),
    evaluated while it steps, as on every method.  The checks of N, L, sigma
    and alpha are methods._start's."""
    with _reading("config"):
        method = cfg["method"]
        if not isinstance(method, str) or method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        key = _METHODS[method]
        f = objective_from_descriptor(cfg["objective"])
        g = dgf_from_descriptor(cfg.get("dgf", {"kind": "euclidean"}))
        N = _json_int(cfg["N"], "N")
        if N > MAX_N:
            raise ValueError(f"N = {N} is above MAX_N = {MAX_N}")
        L, sigma = (None if cfg.get(k) is None else _json_number(cfg[k], k) for k in ("L", "sigma"))
        alpha = _json_number(cfg["alpha"], "alpha") if method in ("md", "dual-md") else None
        start = as_vector(cfg[key], key) if key in cfg else np.zeros(_dim(cfg))
    run, steps = methods._start(method, f, g, start, N, alpha=alpha, L=L, sigma=sigma)
    return run, _rows(run, steps, f, g), f, g


def _dim(cfg: dict) -> int:
    desc = cfg["objective"]
    if "b" in desc:
        return len(desc["b"])
    if "n" in desc:
        return desc["n"]
    raise UsageError("cannot infer dimension; provide y0/q0 explicitly")


def _rows(run, steps, f, g):
    """The trace's value columns [f, grad-q-norm, psi*(r_k), energy], float64
    (None where the run has none), and run.bound, set with the run (methods._start).

    steps yields the run's (point, dual, grad f(point), mirror), k = 0..N; the
    rows are evaluated on windows of ROW_BLOCK + 1 of them as they come
    (certificates._windows).  f and psi* are the values any energies are built
    from: one of each a row.
    """
    dual = run.method.startswith("dual")
    x = None  # the energies' comparison point: x* for U_k, q_N for V_k, which needs psi*(0) = 0
    if run.method == "amd" or (run.method == "dual-amd" and not g.shifted):
        x = certificates.LAST if dual else f.x_star
    rows = certificates._TraceRows(f, g, conj=dual or x is not None, x=x, L=run.L, sigma=run.sigma)
    for window in certificates._windows(steps):
        rows.add(*window)
    energies = None if x is None else rows.energies(
        methods._energy_weights(run.theta, run.L, run.sigma, dual), dual)
    return [rows.f_vals, rows.norms, rows.conj_vals if dual else None, energies], run.bound


def _cells(cols, bound):
    """The trace rows' cells, k first and the bound last, one row at a time."""
    return zip(itertools.count(), *(itertools.repeat(c) if c is None else c for c in cols), itertools.repeat(bound))


def _header(run, N, f, g, seed) -> list:
    """The lines `run` writes above the rows of an N-step trace."""
    L, sigma = run.L if run.L is not None else f.L, run.sigma if run.sigma is not None else g.sigma
    return [f"# method={run.method}", f"# N={N}", f"# L={_fmt(L)}", f"# sigma={_fmt(sigma)}",
            f"# p={_fmt(g.p)}", f"# seed={seed}", "k,f,grad_norm_q,psi_conj_r,energy,bound"]


def _write_trace(path, run, cols, bound, f, g, seed):
    with open(path, "w") as fh:
        fh.write("\n".join(_header(run, len(cols[0]) - 1, f, g, seed)) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in _cells(cols, bound))


def _verdict(cols, bound, f_star) -> int:
    """The one judgment of a run, on its value columns (_rows) and bound, reported
    on stderr: 4 at a non-finite value (a bound's at k=0); 2 at an energy increase
    past BOUND_SLACK or a final value (psi*(r_N), or f(x_N) - f_star) above the bound."""
    f_vals, _, psi, energies = cols
    finite = np.isfinite(np.array([c for c in cols if c is not None])).all(axis=0) & math.isfinite(bound or 0)
    if not finite.all():
        print(f"numerical failure: non-finite trace value at k={np.argmin(finite)}", file=sys.stderr)
        return 4
    energies = np.asarray(energies if energies is not None else [])  # never increasing when absent
    rises = np.flatnonzero(energies[1:] > energies[:-1] + BOUND_SLACK)
    if rises.size:
        print(f"energy increased at k={rises[0] + 1}", file=sys.stderr)
        return 2
    if bound is not None and (f_vals[-1] - f_star if psi is None else psi[-1]) > bound + BOUND_SLACK:
        print("certified bound violated", file=sys.stderr)
        return 2
    return 0


def cmd_run(args) -> int:
    run, (cols, bound), f, g = _run_from_config(_load_json(args.config))
    _write_trace(args.out, run, cols, bound, f, g, args.seed)
    code = _verdict(cols, bound, f.f_star)
    if code == 0:
        print(f"wrote {args.out}")
    return code


def _data_lines(fh, header: list):
    """The stripped data lines of a trace file, one at a time; its header lines go to header,
    one below a row (run writes none there) after a None, which the header check refuses."""
    below = False
    for ln in fh:
        ln = ln.strip()
        if ln.startswith(("#", "k,")):
            header += [None, ln] if below else [ln]
        elif ln:
            below = True
            yield ln


def cmd_certify(args) -> int:
    """Judge the recomputed columns as `run` does, then the file's once they match them.

    The file is read line by line, twice: its header lines (each as `run` writes
    them, the seed aside) and row count first, then each row into the file's columns."""
    run, (cols, bound), f, g = _run_from_config(_load_json(args.config))
    code = _verdict(cols, bound, f.f_star)
    if code:
        return code
    file_cols, header = [None if c is None else array("d") for c in cols], []
    with open(args.trace) as fh:
        count = sum(1 for _ in _data_lines(fh, header))
        for line, want in itertools.zip_longest(header, _header(run, len(cols[0]) - 1, f, g, "")):
            if line != want and not (want == "# seed=" and (line or "").startswith(want)):
                print(f"trace header mismatch: {line!r} where run writes {want!r}", file=sys.stderr)
                return 2
        if count != len(cols[0]):
            raise UsageError("trace row count does not match config")
        fh.seek(0)
        for ln, row in zip(_data_lines(fh, []), _cells(cols, bound)):
            parts = ln.split(",")
            if len(parts) != len(row):
                raise UsageError(f"trace row has {len(parts)} columns, expected {len(row)}")
            vals = [float(p) if p else None for p in parts]
            for got, want in zip(vals, row):
                if (got is None) != (want is None):
                    raise UsageError("trace column shape mismatch")
                # Relative, not 1e-9 (1 + |want|): values below 1e-9 must match
                # too.  Written as "not <=" so that a nan in the trace fails.
                if got is not None and not abs(got - float(want)) <= 1e-9 * abs(float(want)):
                    print(f"trace mismatch at k={row[0]}", file=sys.stderr)
                    return 2
            for col, got in zip(file_cols, vals[1:5]):
                if col is not None:
                    col.append(got)
    code = _verdict(file_cols, vals[5], f.f_star)  # the bound of the file's last row
    if code == 0:
        print("trace certified")
    return code


def cmd_duality_check(args) -> int:
    if not math.isfinite(args.perturb_v):
        raise UsageError("--perturb-v must be finite")
    L, sigma = 1.0, 1.0
    if args.schedule == "amd":
        if args.N is None or args.N > MAX_N:
            raise UsageError(f"--N at most MAX_N = {MAX_N} is required with the amd keyword")
        th = methods.theta_sequence(args.N)
        s = methods._amd_schedule(th, L, sigma)
        u = methods._energy_weights(th, L, sigma, False)
    else:
        s = cfom.load_schedule(args.schedule)
        u = np.cumsum(np.random.default_rng(args.seed).uniform(0.1, 1.0, s.N + 1)).tolist()
    v = None
    if args.perturb_v:
        v = [(1.0 + args.perturb_v) / u[s.N - i] for i in range(s.N + 1)]
    report = certificates.check_mirror_duality(
        s, u, L, sigma, trials=args.trials, dim=args.dim,
        tol=args.tol, seed=args.seed, v=v,
    )
    text = json.dumps(report.to_json_dict(), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.ok else 3


def cmd_dualize(args) -> int:
    s = cfom.load_schedule(args.schedule)
    cfom.save_schedule(cfom.mirror_dual_schedule(s), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_ot(args) -> int:
    doc = _load_json(args.instance)
    with _reading("instance"):
        inst = ot.instance_from_descriptor(doc)
    del doc  # the parsed lists take about four times the arrays read from them
    result = ot.solve_ot(inst, args.eps)
    with open(args.out, "w") as fh:
        json.dump(result.to_json_dict(), fh, indent=1)
        fh.write("\n")
    gap = f" gap={_fmt(result.cost - ot.lp_oracle(inst))}" if inst.C.size <= 12 else ""
    print(f"cost={_fmt(result.cost)} N={result.report['N']}{gap}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mirropt")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute a configured method, emit a CSV trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn="cmd_run")

    p = sub.add_parser("certify", help="verify a trace file against its config")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn="cmd_certify")

    p = sub.add_parser("duality-check", help="sample the energy-duality identity")
    p.add_argument("--schedule", required=True, help="schedule JSON path or the keyword 'amd'")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--perturb-v", type=float, default=0.0,
                   help="relative perturbation of the conjugate weights (breaks the identity)")
    p.set_defaults(fn="cmd_duality_check")

    p = sub.add_parser("dualize", help="write the mirror dual of a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn="cmd_dualize")

    p = sub.add_parser("ot", help="solve a transport instance to accuracy eps")
    p.add_argument("--instance", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn="cmd_ot")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first command: building it
    costs more than most commands' own work.  It names each handler,
    looked up in this module when a command runs, so that a wrapper set
    on a cmd_* function (as a profiler sets) runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return globals()[args.fn](args)
    # The one exit-code table: faults of the input, sizes in it that memory
    # cannot hold included, exit 1; faults of the numerics 4.
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
