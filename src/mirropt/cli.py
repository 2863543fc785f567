"""Command-line front end.

Subcommands:
    run            execute a configured method, emit a CSV trace
    certify        re-run a config and verify an emitted trace against it
    duality-check  sample the energy-duality identity on a schedule
    dualize        write the mirror-dual of a schedule file
    ot             solve a transport instance to accuracy eps

`run` and `certify` judge a run by one rule (_verdict); every document
is read through one boundary (_reading), where a malformed one is a
usage error, and config numbers are read as schedule files' are.

Exit codes: 0 success, 1 usage or I/O error, 2 energy increase or
certified-bound violation, 3 duality residual above tolerance, 4
numerical failure (a non-finite iterate or trace value, an overflow, or
the OT gradient-evaluation budget exhausted).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import certificates, cfom, methods, ot
from .cfom import _json_int, _json_number
from .dgf import dgf_from_descriptor
from .objectives import objective_from_descriptor
from .spaces import lp_norms

BOUND_SLACK = 1e-9


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


class UsageError(Exception):
    pass


# method -> (runner, key of its start point in the config)
_METHODS = {"amd": (methods.run_amd, "y0"), "dual-amd": (methods.run_dual_amd, "q0"),
            "md": (methods.run_md, "y0"), "dual-md": (methods.run_dual_md, "q0")}


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
    """Execute the configured method; returns (run, f, g).  The runners check N, L, sigma and alpha."""
    with _reading("config"):
        method = cfg["method"]
        if not isinstance(method, str) or method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        runner, key = _METHODS[method]
        f = objective_from_descriptor(cfg["objective"])
        g = dgf_from_descriptor(cfg.get("dgf", {"kind": "euclidean"}))
        N = _json_int(cfg["N"], "N")
        L, sigma = (None if cfg.get(k) is None else _json_number(cfg[k], k) for k in ("L", "sigma"))
        alpha = _json_number(cfg["alpha"], "alpha") if method in ("md", "dual-md") else None
        start = (np.array([_json_number(x, key) for x in cfg[key]], dtype=np.float64)
                 if key in cfg else np.zeros(_dim(cfg)))
    if alpha is not None:
        return runner(f, g, alpha, start, N), f, g
    return runner(f, g, start, N, L=L, sigma=sigma), f, g


def _dim(cfg: dict) -> int:
    desc = cfg["objective"]
    if "b" in desc:
        return len(desc["b"])
    if "n" in desc:
        return int(desc["n"])
    raise UsageError("cannot infer dimension; provide y0/q0 explicitly")


def _trace_rows(run, f, g):
    """Rows of (k, f, grad-q-norm, psi*(r_k) or None, energy or None, bound).

    The per-row values are evaluated on blocks of rows (certificates.ROW_BLOCK).
    Where the run has an energy trace, f and psi* are the values it was
    built from, so each is evaluated once per row.
    """
    trace = None
    if run.traj is not None:
        tr, pts = run.traj, run.traj.xs
        if run.method == "amd" and f.x_star is not None:
            th = run.theta
            u = [(run.sigma / run.L) * th.sq(i) for i in range(th.N + 1)]
            trace = certificates.primal_energy_trace(tr, f.x_star, u, f, g, L=run.L, sigma=run.sigma)
    else:
        tr, pts = run.dual_traj, run.dual_traj.qs
        # Dual energies need psi*(0) = 0; a shifted DGF leaves the column empty.
        if run.method == "dual-amd" and not g.shifted:
            th = run.theta
            v = [run.L / (run.sigma * th.sq(th.N - i)) for i in range(th.N + 1)]
            trace = certificates.dual_energy_trace(tr, v, f, g, L=run.L, sigma=run.sigma)
    n = len(pts)
    psi = [None] * n
    if run.dual_traj is not None:
        psi = certificates.by_row_block(g.conjugate_values, tr.rs) if trace is None else trace.conjugate_values
    f_vals = certificates.by_row_block(f.values, pts) if trace is None else trace.f_values
    energies = [None] * n if trace is None else trace.energies
    norms = certificates.by_row_block(lambda G: lp_norms(G, g.q), tr.f_grads)
    return list(zip(range(n), f_vals, norms, psi, energies, [run.bound] * n))


def _write_trace(path, run, f, g, seed):
    rows = _trace_rows(run, f, g)
    lines = [
        f"# method={run.method}",
        f"# N={len(rows) - 1}",
        f"# L={_fmt(run.L if run.L is not None else f.L)}",
        f"# sigma={_fmt(run.sigma if run.sigma is not None else g.sigma)}",
        f"# p={_fmt(g.p)}",
        f"# seed={seed}",
        "k,f,grad_norm_q,psi_conj_r,energy,bound",
    ]
    for k, fv, gn, pc, en, bd in rows:
        lines.append(f"{k},{_fmt(fv)},{_fmt(gn)},{_fmt(pc)},{_fmt(en)},{_fmt(bd)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return rows


def _verdict(rows, f_star) -> int:
    """The one judgment of a run, on trace rows as `run` writes them: 4 at a
    non-finite value; 2 at an energy increase past BOUND_SLACK or a final
    value (psi*(r_N), or f(x_N) - f_star) above the bound, reported on stderr."""
    cols = list(zip(*rows))
    finite = np.isfinite(np.array([c for c in cols if c[0] is not None], dtype=np.float64)).all(axis=0)
    if not finite.all():
        print(f"numerical failure: non-finite trace value at k={np.argmin(finite)}", file=sys.stderr)
        return 4
    energies = np.array(cols[4], dtype=np.float64)  # all nan, never increasing, when absent
    rises = np.flatnonzero(energies[1:] > energies[:-1] + BOUND_SLACK)
    if rises.size:
        print(f"energy increased at k={rises[0] + 1}", file=sys.stderr)
        return 2
    _, f_N, _, psi_N, _, bound = rows[-1]
    if bound is not None and (f_N - f_star if psi_N is None else psi_N) > bound + BOUND_SLACK:
        print("certified bound violated", file=sys.stderr)
        return 2
    return 0


def cmd_run(args) -> int:
    run, f, g = _run_from_config(_load_json(args.config))
    code = _verdict(_write_trace(args.out, run, f, g, args.seed), f.f_star)
    if code == 0:
        print(f"wrote {args.out}")
    return code


def cmd_certify(args) -> int:
    """Judge the recomputed rows as `run` does, then the file's rows once they match them."""
    run, f, g = _run_from_config(_load_json(args.config))
    rows = _trace_rows(run, f, g)
    code = _verdict(rows, f.f_star)
    if code:
        return code
    with open(args.trace) as fh:
        lines = [ln.strip() for ln in fh]
    data = [ln for ln in lines if ln and not ln.startswith(("#", "k,"))]
    if len(data) != len(rows):
        raise UsageError("trace row count does not match config")
    file_rows = []
    for ln, row in zip(data, rows):
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
        file_rows.append(vals)
    code = _verdict(file_rows, f.f_star)
    if code == 0:
        print("trace certified")
    return code


def cmd_duality_check(args) -> int:
    if not math.isfinite(args.perturb_v):
        raise UsageError("--perturb-v must be finite")
    rng = np.random.default_rng(args.seed)
    L, sigma = 1.0, 1.0
    if args.schedule == "amd":
        if args.N is None:
            raise UsageError("--N is required with the amd keyword")
        s = methods.amd_schedule(args.N, L, sigma)
        th = methods.theta_sequence(args.N)
        u = [(sigma / L) * th.sq(i) for i in range(args.N + 1)]
    else:
        s = cfom.load_schedule(args.schedule)
        u = np.cumsum(rng.uniform(0.1, 1.0, s.N + 1)).tolist()
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
    # The one exit-code table: faults of the input exit 1, of the numerics 4.
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
