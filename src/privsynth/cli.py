"""Command line surface: validate, synthesize, evaluate, simulate, sweep.

Every command is file-in/file-out and deterministic for fixed inputs and
seed. Each run computes a manifest whose hash covers the command, input
file contents, resolved options and seeds (but not timing); all output
files reference that hash, and a sibling manifest JSON records it together
with artifact hashes and wall-clock data.

Exit codes: 0 success, 1 usage, validation or I/O error, 2 infeasible
budgets, 3 solver or extraction failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .lift import build_lift, output_moments
from .model import (
    ValidationError,
    load_model,
    validate,
    with_overrides,
)
from .sdp import write_iteration_csv
from .synth import (
    ExtractionFailure,
    InfeasibleProgram,
    Mechanism,
    SolverFailure,
    evaluate_mechanism,
    input_noise,
    load_mechanism,
    save_mechanism,
    synthesize,
)
from .sim import run_experiment

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_FLOAT_FMT = "{:.16e}"     # 17 significant digits, lossless for doubles


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return _FLOAT_FMT.format(v)


def _parse_eps(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "+inf"):
        return math.inf
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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_core(command: str, inputs: dict, options: dict, seeds: dict) -> tuple[dict, str]:
    core = {
        "command": command,
        "inputs": {path: _sha256_file(path) for path in inputs.values()},
        "options": options,
        "seeds": seeds,
        "tool_version": __version__,
    }
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), default=str)
    return core, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_manifest(path: str, core: dict, manifest_hash: str,
                    artifacts: list[str], t0: float) -> None:
    doc = dict(core)
    doc["manifest_hash"] = manifest_hash
    doc["artifacts"] = {p: _sha256_file(p) for p in artifacts}
    doc["wall_clock"] = {
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_s": time.time() - t0,
    }
    # Execution setting, kept out of the hashed core like the timing.
    doc["thread_env"] = {name: os.environ.get(name) for name in _THREAD_ENV}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _strip(path: str, ext: str) -> str:
    return path[:-len(ext)] if path.endswith(ext) else path


def _load_with_overrides(args) -> tuple:
    model, req = load_model(args.model)
    k = getattr(args, "k", None)
    eps_y = getattr(args, "eps_y", None)
    eps_u = getattr(args, "eps_u", None)
    if k is not None or eps_y is not None or eps_u is not None:
        model, req = with_overrides(model, req, K=k, eps_y=eps_y, eps_u=eps_u)
    return model, req


def _check_dims(model, req, mech) -> None:
    if mech.K != req.K:
        raise ValueError(f"mechanism horizon {mech.K} does not match request horizon {req.K}")
    if mech.n_y != model.n_y:
        raise ValueError(f"mechanism output size {mech.n_y} does not match model n_y {model.n_y}")
    if mech.Sigma_H.shape[0] != req.K * model.n_u:
        raise ValueError(
            f"mechanism input noise size {mech.Sigma_H.shape[0]} does not match "
            f"K*n_u = {req.K * model.n_u}")


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    load_model(args.model)
    print("ok")
    return 0


def cmd_synthesize(args) -> int:
    t0 = time.time()
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
    rep = synthesize(model, req)

    rep.mechanism.provenance["manifest_hash"] = mh
    save_mechanism(rep.mechanism, args.out_mechanism)
    doc = rep.to_dict()
    doc["manifest_hash"] = mh
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_iteration_csv(rep.solution, iters_path, header_comment=f"manifest_hash={mh}")
    _write_manifest(manifest_path, core, mh,
                    [args.out_mechanism, report_path, iters_path], t0)

    print(f"status=Optimal cost_bits={rep.cost_bits:.9g} mi_bits={rep.mi_bits:.9g} "
          f"entropy_H_bits={rep.entropy_H_bits:.9g} distortion_Y={rep.distortion_Y:.9g} "
          f"distortion_U={rep.distortion_U:.9g}")
    return 0


def cmd_evaluate(args) -> int:
    t0 = time.time()
    core, mh = _manifest_core(
        "evaluate",
        inputs={"model": args.model, "mechanism": args.mechanism},
        options={"k": args.k, "eps_y": args.eps_y, "eps_u": args.eps_u,
                 "out": args.out},
        seeds={},
    )
    model, req = _load_with_overrides(args)
    mech = load_mechanism(args.mechanism)
    _check_dims(model, req, mech)

    metrics = evaluate_mechanism(model, req, mech)
    doc = {
        "mi_bits": metrics.mi_bits,
        "entropy_H_bits": metrics.entropy_H_bits,
        "cost_bits": metrics.cost_bits,
        "distortion_Y": metrics.distortion_Y,
        "distortion_U": metrics.distortion_U,
        "manifest_hash": mh,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(_strip(args.out, ".json") + ".manifest.json", core, mh,
                        [args.out], t0)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    core, mh = _manifest_core(
        "simulate",
        inputs={"model": args.model, "mechanism": args.mechanism},
        options={"k": args.k, "eps_y": args.eps_y, "eps_u": args.eps_u,
                 "n_runs": args.n_runs, "out_csv": args.out_csv},
        seeds={"seed": args.seed},
    )
    model, req = _load_with_overrides(args)
    mech = load_mechanism(args.mechanism)
    _check_dims(model, req, mech)

    summ = run_experiment(model, req, mech, n_runs=args.n_runs, seed=args.seed)
    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_hash={mh}\n")
        fh.write("k,mse_yu,mse_zr,se_mse_zr,s_mean,shat_zr_mean\n")
        for k in range(summ.K):
            fh.write(",".join([
                str(k + 1),
                _fmt(summ.mse_yu[k]),
                _fmt(summ.mse_zr[k]),
                _fmt(summ.se_mse_zr[k]),
                _fmt(summ.s_mean[k]),
                _fmt(summ.shat_zr_mean[k]),
            ]) + "\n")
    _write_manifest(_strip(args.out_csv, ".csv") + ".manifest.json", core, mh,
                    [args.out_csv], t0)
    print(f"n_runs={summ.n_runs} mse_yu_total={summ.mse_yu_total:.9g} "
          f"mse_zr_total={summ.mse_zr_total:.9g}")
    return 0


def _sweep_row(model_path: str, k: int | None, eps_y: float,
               grid_u: list[float]) -> list[tuple]:
    """Every eps_U cell of one eps_Y row, with at most one solve; safe to run
    in a worker process.

    The output design (G, Sigma_V) does not depend on eps_U. The first cell
    that passes validation and the input-noise closed form is synthesized;
    every later such cell pairs that design with its own input noise, or
    gets the status the solve failed with. Returns one (status, cost, mi,
    entropy, distortion_Y, distortion_U) tuple per eps_U.
    """
    nan = math.nan
    model, req = load_model(model_path)
    lift = mom = None  # the row's horizon lift and output moments, built for its first valid cell
    design = None      # the row's solved mechanism, or the status its solve failed with
    cells = []
    for eu in grid_u:
        status, solving = "Optimal", False
        try:
            m, r = with_overrides(model, req, K=k, eps_y=eps_y, eps_u=eu)
            report = validate(m, r)
            if not report.ok:
                raise ValidationError(report)
            sigma_h = input_noise(r)
            if lift is None:
                lift = build_lift(m, r.K)
                mom = output_moments(lift, m)
            if design is None:
                solving = True
                design = synthesize(m, r, lift=lift).mechanism
            if isinstance(design, str):
                status = design
            else:
                met = evaluate_mechanism(m, r, Mechanism(design.G_blocks, design.Sigma_V, sigma_h),
                                         moments=mom)
        except InfeasibleProgram:
            status = "Infeasible"
        except SolverFailure as exc:
            status = "SolverFailure" if exc.solution is None else exc.solution.status.value
        except ExtractionFailure:
            status = "ExtractionFailure"
        except ValueError:          # ValidationError is a ValueError
            status = "ValidationError"
        if solving and status != "Optimal":
            design = status
        cells.append((status, met.cost_bits, met.mi_bits, met.entropy_H_bits,
                      met.distortion_Y, met.distortion_U) if status == "Optimal"
                     else (status, nan, nan, nan, nan, nan))
    return cells


def _sweep_row_star(t: tuple) -> list[tuple]:
    return _sweep_row(*t)


def cmd_sweep(args) -> int:
    t0 = time.time()
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
        seeds={"seed": args.seed},
    )
    load_model(args.model)      # surface validation problems before sweeping

    rows = [(args.model, args.k, ey, grid_u) for ey in grid_y]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_row_star, rows))
    else:
        results = [_sweep_row_star(r) for r in rows]

    with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# manifest_hash={mh}\n")
        fh.write("eps_Y,eps_U,cost_bits,mi_bits,entropy_H_bits,"
                 "distortion_Y,distortion_U,solver_status\n")
        for ey, cells in zip(grid_y, results):
            for eu, (status, cost, mi, ent, dy, du) in zip(grid_u, cells):
                fh.write(",".join([
                    _fmt(ey), _fmt(eu), _fmt(cost), _fmt(mi), _fmt(ent),
                    _fmt(dy), _fmt(du), status,
                ]) + "\n")
    _write_manifest(_strip(args.out_csv, ".csv") + ".manifest.json", core, mh,
                    [args.out_csv], t0)

    n_ok = sum(1 for cells in results for c in cells if c[0] == "Optimal")
    print(f"grid_points={len(grid_y) * len(grid_u)} optimal={n_ok}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="override horizon length")
    p.add_argument("--eps-y", type=_parse_eps, default=None,
                   help="override output distortion budget (number or 'inf')")
    p.add_argument("--eps-u", type=_parse_eps, default=None,
                   help="override input distortion budget (number or 'inf')")


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
    _add_override_flags(p)
    p.add_argument("--seed", type=int, default=42,
                   help="recorded in the manifest; the solve is deterministic and seeds nothing")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("evaluate", help="closed-form metrics of a mechanism against a model")
    p.add_argument("model")
    p.add_argument("mechanism")
    p.add_argument("--out", default=None, help="write metrics JSON here instead of stdout")
    _add_override_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="Monte Carlo adversary comparison for a mechanism")
    p.add_argument("model")
    p.add_argument("mechanism")
    p.add_argument("out_csv")
    p.add_argument("--n-runs", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=_int_at_least(0), default=42)
    _add_override_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="solve over a budget grid and tabulate the cost surface")
    p.add_argument("model")
    p.add_argument("out_csv")
    p.add_argument("--eps-y-grid", required=True,
                   help="comma-separated output budgets (numbers or 'inf')")
    p.add_argument("--eps-u-grid", required=True,
                   help="comma-separated input budgets (numbers or 'inf')")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    p.add_argument("--seed", type=int, default=42,
                   help="recorded in the manifest; the solves are deterministic and seed nothing")
    p.add_argument("--k", type=int, default=None, help="override horizon length")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command; every error it raises, a usage error included, maps
    to its exit code here."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        lines, code = [f"violation: {v}" for v in exc.report.violations], 1
    except (OSError, ValueError, KeyError) as exc:   # ModelFormatError is a ValueError
        lines, code = [f"error: {exc}"], 1
    except InfeasibleProgram as exc:
        lines, code = [f"error: {exc}"], 2
    except (SolverFailure, ExtractionFailure) as exc:
        lines, code = [f"error: {exc}"], 3
    for line in lines:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
