"""Command line surface: validate, synthesize, evaluate, simulate, sweep.

Every command is file-in/file-out and deterministic for fixed inputs and
seed. Each run computes a manifest whose hash covers the command, input
file contents, resolved options and seeds (but not timing); all output
files reference that hash, and a sibling manifest JSON records it together
with artifact hashes and wall-clock data.

The commands check no input themselves: ``validate`` checks the model,
``with_overrides`` the flags that override it and ``mechanism.Mechanism`` a
mechanism's fit; ``main`` maps each error to its exit code.

Exit codes: 0 success, 1 usage, validation or I/O error, 2 infeasible
budgets, 3 solver, extraction or numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import gc
import json
import math
import os
import pickle
import sys
import time

# The package loads mechanism, sdp, synth and sim lazily: a command runs the
# code of only the modules it calls through, so they are called as
# attributes of their module rather than imported by name.
from . import _THREAD_ENV, __version__, mechanism, sdp, sim, synth
from .model import ValidationError, load_model, sha256, with_overrides, write_json

# 17 significant digits, lossless for doubles; nan and +-inf print as
# "nan", "inf" and "-inf".
_fmt = "{:.16e}".format


def _parse_eps(text: str) -> float:
    """A budget: any number ``float`` reads, "inf" included."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}") from None


def _int_at_least(low: int):
    """Parser of an integer flag value no less than ``low``."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def _parse_grid(text: str) -> list[float]:
    try:
        vals = [_parse_eps(tok) for tok in text.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad grid: {exc}") from None
    if not vals:
        raise ValueError("bad grid: empty")
    return vals


def _sha256_file(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path: str, manifest_hash: str, header: str, rows) -> None:
    """A CSV artifact: the manifest-hash comment line, the header, then one
    line per row, its floats by ``_fmt`` and every other cell by ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n{header}\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _manifest_core(command: str, inputs: dict, options: dict, seeds: dict) -> tuple[dict, str]:
    core = {
        "command": command,
        "inputs": {path: _sha256_file(path) for path in inputs.values()},
        "options": options,
        "seeds": seeds,
        "tool_version": __version__,
    }
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), default=str)
    return core, sha256(blob.encode("utf-8")).hexdigest()


def _write_manifest(path: str, core: dict, manifest_hash: str,
                    artifacts: list[str], t0: float) -> None:
    doc = dict(core)
    doc["manifest_hash"] = manifest_hash
    doc["artifacts"] = {p: _sha256_file(p) for p in artifacts}
    doc["wall_clock"] = {
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_s": time.perf_counter() - t0,
    }
    # Execution setting, kept out of the hashed core like the timing.
    doc["thread_env"] = {name: os.environ.get(name) for name in _THREAD_ENV}
    write_json(doc, path)


def _strip(path: str, ext: str) -> str:
    return path[:-len(ext)] if path.endswith(ext) else path


def _load_with_overrides(args) -> tuple:
    model, req = load_model(args.model)
    # synthesize alone takes the budgets
    return with_overrides(model, req, K=args.k, eps_y=getattr(args, "eps_y", None),
                          eps_u=getattr(args, "eps_u", None))


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    load_model(args.model)
    print("ok")
    return 0


def cmd_synthesize(args) -> int:
    t0 = time.perf_counter()
    base = _strip(args.out_mechanism, ".json")
    report_path = base + ".report.json"
    iters_path = base + ".iterations.csv"
    manifest_path = base + ".manifest.json"

    core, mh = _manifest_core(
        "synthesize",
        inputs={"model": args.model},
        options={"k": args.k, "eps_y": args.eps_y, "eps_u": args.eps_u,
                 "out_mechanism": args.out_mechanism},
        seeds={"seed": args.seed},
    )
    model, req = _load_with_overrides(args)
    rep = synth.synthesize(model, req)

    rep.mechanism.provenance["manifest_hash"] = mh
    mechanism.save_mechanism(rep.mechanism, args.out_mechanism)
    write_json({**rep.to_dict(), "manifest_hash": mh}, report_path)
    _write_csv(iters_path, mh, "iter,mu,objective",
               ((r.iteration, r.mu, r.objective) for r in rep.solution.iterations))
    _write_manifest(manifest_path, core, mh,
                    [args.out_mechanism, report_path, iters_path], t0)

    print("status=Optimal", *(f"{name}={value:.9g}" for name, value in rep.figures().items()))
    return 0


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    core, mh = _manifest_core(
        "evaluate",
        inputs={"model": args.model, "mechanism": args.mechanism},
        options={"k": args.k, "out": args.out},
        seeds={},
    )
    model, req = _load_with_overrides(args)
    mech = mechanism.load_mechanism(args.mechanism)

    metrics = synth.evaluate_mechanism(model, req, mech)
    write_json({**metrics.figures(), "manifest_hash": mh}, args.out)
    if args.out:
        _write_manifest(_strip(args.out, ".json") + ".manifest.json", core, mh,
                        [args.out], t0)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    core, mh = _manifest_core(
        "simulate",
        inputs={"model": args.model, "mechanism": args.mechanism},
        options={"k": args.k, "n_runs": args.n_runs, "out_csv": args.out_csv},
        seeds={"seed": args.seed},
    )
    model, req = _load_with_overrides(args)
    mech = mechanism.load_mechanism(args.mechanism)

    summ = sim.run_experiment(model, req, mech, n_runs=args.n_runs, seed=args.seed)
    doc = summ.to_dict()
    curves = [name for name, value in doc.items() if isinstance(value, list)]
    _write_csv(args.out_csv, mh, ",".join(["k", *curves]),
               ((k, *row) for k, row in enumerate(zip(*(doc[name] for name in curves)), 1)))
    _write_manifest(_strip(args.out_csv, ".csv") + ".manifest.json", core, mh,
                    [args.out_csv], t0)
    print(f"n_runs={summ.n_runs} mse_yu_total={summ.mse_yu_total:.9g} "
          f"mse_zr_total={summ.mse_zr_total:.9g}")
    return 0


def _sweep_row(model, req, eps_y: float, grid_u: list[float]) -> list[tuple]:
    """Every eps_U cell of one eps_Y row, with at most one solve; safe to run
    in a forked child.

    The output design (G, Sigma_V) and its figures mi_bits and distortion_Y
    do not depend on eps_U. The first cell whose budgets pass
    ``with_overrides`` and the input-noise closed form is synthesized; every
    later such cell pairs that report's output figures with its own input
    noise, or gets the status the solve failed with. Returns one (status,
    metrics) pair per eps_U, its metrics None unless the status is Optimal.
    """
    design = None      # the row's synthesize report, or the status its solve failed with
    cells = []
    for eu in grid_u:
        status, solving = "Optimal", False
        try:
            _, r = with_overrides(model, req, eps_y=eps_y, eps_u=eu)
            sigma_h = synth.input_noise(r)
            if design is None:
                solving = True
                design = synth.synthesize(model, r)
            if isinstance(design, str):
                status = design
            else:
                met = synth.MechanismMetrics.of(design.mi_bits, design.distortion_Y, sigma_h, r)
        except synth.InfeasibleProgram:
            status = "Infeasible"
        except synth.SolverFailure as exc:
            status = "SolverFailure" if exc.solution is None else exc.solution.status.value
        except synth.ExtractionFailure:
            status = "ExtractionFailure"
        except FloatingPointError:  # the leakage fails in floating point
            status = "NumericalFailure"
        except ValueError:          # ValidationError is a ValueError
            status = "ValidationError"
        if solving and status != "Optimal":
            design = status
        cells.append((status, met if status == "Optimal" else None))
    return cells


def _run_share(row, share: list[float], pipe: int):
    """In a forked child: send the parent ``share``'s cells, or the exception
    a row raised, through ``pipe``, then end with ``os._exit``, so that no
    atexit handler runs and no buffer inherited from the parent is flushed.

    An exception that would not unpickle in the parent is sent as an OSError
    with its text."""
    status = 1
    try:
        try:
            sent = pickle.dumps((True, list(map(row, share))))
        except Exception as exc:
            try:
                sent = pickle.dumps((False, exc))
                pickle.loads(sent)
            except Exception:
                sent = pickle.dumps((False, OSError(str(exc))))
        with open(pipe, "wb") as fh:
            fh.write(sent)
        status = 0
    finally:
        os._exit(status)


def _fork_rows(row, grid_y: list[float], jobs: int) -> list:
    """``row`` of each eps_Y, in grid order, run in ``jobs`` processes: row i
    runs in process i mod jobs, where process 0 is this one and every other
    is a child forked here that sends its rows back through its own pipe.

    Every child is reaped before this returns or raises. A row's exception
    is raised here as with --jobs 1: this process's own first, after it
    kills the children, then each child's in turn. A child that ended
    without sending its rows is an OSError.
    """
    # Run the code of the modules a row calls (synth loads gauss and lift)
    # before forking, so that no child compiles it again.
    synth.synthesize, sdp.solve
    shares = [grid_y[k::jobs] for k in range(jobs)]
    children = []     # (pid, read end of its pipe) of each child forked
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(row, share, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [None] * len(grid_y)
        results[0::jobs] = list(map(row, shares[0]))
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        import signal
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    for k, (data, status) in enumerate(zip(sent, statuses), 1):
        if not data:
            rows = ", ".join(f"{ey:g}" for ey in shares[k])
            how = f"exit status {status}" if status >= 0 else f"signal {-status}"
            raise OSError(f"the sweep process for eps_Y = {rows} ended by {how} "
                          "without sending its rows")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results[k::jobs] = value
    return results


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    grid_y = _parse_grid(args.eps_y_grid)
    grid_u = _parse_grid(args.eps_u_grid)

    # jobs is an execution knob with no effect on results, so it stays
    # outside the hashed manifest core.
    core, mh = _manifest_core(
        "sweep",
        inputs={"model": args.model},
        options={"k": args.k, "eps_y_grid": [_fmt(v) for v in grid_y],
                 "eps_u_grid": [_fmt(v) for v in grid_u],
                 "out_csv": args.out_csv},
        seeds={},
    )
    # The model is read, validated and set to --k once; every row runs on it.
    row = functools.partial(_sweep_row, *_load_with_overrides(args), grid_u=grid_u)
    # A process beyond the row count would run nothing. Fork only where
    # CPython's multiprocessing forks by default: Windows has no fork, and
    # macOS's Accelerate BLAS is not fork-safe. Elsewhere every row runs here.
    jobs = min(args.jobs, len(grid_y))
    if jobs > 1 and os.name == "posix" and sys.platform != "darwin":
        results = _fork_rows(row, grid_y, jobs)
    else:
        results = list(map(row, grid_y))

    # A cell without metrics has NaN figures.
    names = [f.name for f in dataclasses.fields(synth.MechanismMetrics)]
    _write_csv(args.out_csv, mh, ",".join(["eps_Y", "eps_U", *names, "solver_status"]),
               ((ey, eu, *(getattr(met, name, math.nan) for name in names), status)
                for ey, cells in zip(grid_y, results)
                for eu, (status, met) in zip(grid_u, cells)))
    _write_manifest(_strip(args.out_csv, ".csv") + ".manifest.json", core, mh,
                    [args.out_csv], t0)

    n_ok = sum(1 for cells in results for c in cells if c[0] == "Optimal")
    print(f"grid_points={len(grid_y) * len(grid_u)} optimal={n_ok}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_k_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_int_at_least(2), default=None, help="override horizon length")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, which ``main`` reports in one line
    with exit 1; argparse's own exit 2 would read as infeasible budgets.
    Subparsers are of this class too."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="privsynth",
        description="Synthesize and validate Gaussian privacy mechanisms for "
                    "finite-horizon linear stochastic systems.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against all invariants")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synthesize", help="solve the design program and write the mechanism")
    p.add_argument("model")
    p.add_argument("out_mechanism")
    _add_k_flag(p)
    p.add_argument("--eps-y", type=_parse_eps, default=None,
                   help="override output distortion budget (number or 'inf')")
    p.add_argument("--eps-u", type=_parse_eps, default=None,
                   help="override input distortion budget (number or 'inf')")
    p.add_argument("--seed", type=int, default=42,
                   help="recorded in the manifest; the solve is deterministic and seeds nothing")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("evaluate", help="closed-form metrics of a mechanism against a model")
    p.add_argument("model")
    p.add_argument("mechanism")
    p.add_argument("--out", default=None, help="write metrics JSON here instead of stdout")
    _add_k_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo adversary comparison for a mechanism")
    p.add_argument("model")
    p.add_argument("mechanism")
    p.add_argument("out_csv")
    p.add_argument("--n-runs", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    _add_k_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="solve over a budget grid and tabulate the cost surface")
    p.add_argument("model")
    p.add_argument("out_csv")
    p.add_argument("--eps-y-grid", required=True,
                   help="comma-separated output budgets (numbers or 'inf')")
    p.add_argument("--eps-u-grid", required=True,
                   help="comma-separated input budgets (numbers or 'inf')")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="processes that run rows, this one included")
    _add_k_flag(p)
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command; every error it raises, a usage error included, maps
    to its exit code here."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        line, code = f"violation: {exc}", 1     # every violation, on one line
    except (OSError, ValueError, KeyError) as exc:   # ModelFormatError is a ValueError
        line, code = f"error: {exc}", 1
    # Reached only by an exception none of the clauses above matches, so a
    # command that never loaded synth does not load it here either.
    except synth.InfeasibleProgram as exc:
        line, code = f"error: {exc}", 2
    # FloatingPointError: the leakage's two routes disagree, or a covariance
    # of the disclosed pair does not factor in floating point.
    except (synth.SolverFailure, synth.ExtractionFailure, FloatingPointError) as exc:
        line, code = f"error: {exc}", 3
    print(line, file=sys.stderr)
    return code


def run() -> None:
    """The ``privsynth`` console script: ``main``, then exit with its code.

    ``gc.freeze`` first moves every live object to the permanent generation,
    so the interpreter's final collections have nothing to traverse. Every
    artifact is already closed, and the std streams still flush at exit.
    ``main`` leaves the collector alone for in-process callers."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
