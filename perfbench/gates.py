"""Correctness gates on the files a command wrote.

Each gate returns a list of problems, one string per failed operation
(an empty list means every operation passed). They run after the timed
commands and import privsynth only to recompute closed forms.
"""

from __future__ import annotations

import csv
import json
import math

# Tolerances, fixed before measuring.
REPORT_RTOL = 1e-9        # evaluate(mechanism file) against the written report
BUDGET_RTOL = 1e-6        # distortion <= budget * (1 + BUDGET_RTOL)
REFERENCE_ATOL_BITS = 1e-6
SURFACE_TOL = 1e-6        # monotone and convex cost surface, as acceptance criterion 4
MC_SE_MULTIPLE = 6.0      # |mse_zr - closed form| <= 6 batch-means standard errors


def _load(model_path: str, K: int):
    from privsynth.model import load_model, with_overrides
    model, req = load_model(model_path)
    return with_overrides(model, req, K=K)


def synthesis(rc: int, model_path: str, mech_path: str, K: int,
              reference_cost_bits: float | None) -> list[str]:
    """One ``synthesize`` command: exit 0, report reproducible from the
    mechanism file, both budgets met, cost equal to the stored reference."""
    if rc != 0:
        return [f"synthesize exited {rc}"]
    from privsynth.synth import evaluate_mechanism, load_mechanism
    model, req = _load(model_path, K)
    with open(mech_path[:-len(".json")] + ".report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    metrics = evaluate_mechanism(model, req, load_mechanism(mech_path))
    problems = []
    for key in ("mi_bits", "entropy_H_bits", "cost_bits", "distortion_Y", "distortion_U"):
        got, want = getattr(metrics, key), report[key]
        if not math.isclose(got, want, rel_tol=REPORT_RTOL, abs_tol=REPORT_RTOL):
            problems.append(f"evaluate {key}={got!r} but report says {want!r}")
    for key, budget in (("distortion_Y", req.eps_y), ("distortion_U", req.eps_u)):
        if not report[key] <= budget * (1.0 + BUDGET_RTOL):
            problems.append(f"{key}={report[key]!r} exceeds budget {budget!r}")
    if (reference_cost_bits is not None
            and not abs(report["cost_bits"] - reference_cost_bits) <= REFERENCE_ATOL_BITS):
        problems.append(f"cost_bits={report['cost_bits']!r}, reference {reference_cost_bits!r}")
    return ["; ".join(problems)] if problems else []


def sweep(rc: int, csv_path: str, grid_y: list[float], grid_u: list[float]) -> list[str]:
    """One ``sweep`` command, one operation per cell.

    Cells with a zero input budget must be Infeasible and the rest Optimal;
    the Optimal costs must be nonincreasing and convex along both budget
    axes within SURFACE_TOL. Only statuses are checked, not the blamed
    constraint, whose name depends on last bits that vary with BLAS threads.
    """
    cells = [(ey, eu) for ey in grid_y for eu in grid_u]
    if rc != 0:
        return [f"sweep exited {rc} (cell {c})" for c in cells]
    rows = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            rows[(float(row["eps_Y"]), float(row["eps_U"]))] = row
    bad: dict[tuple, str] = {}
    for c in cells:
        want = "Infeasible" if c[1] == 0.0 else "Optimal"
        got = rows[c]["solver_status"] if c in rows else "missing"
        if got != want:
            bad[c] = f"cell {c}: status {got}, expected {want}"

    ys, us = grid_y, [eu for eu in grid_u if eu != 0.0]
    cost = {(ey, eu): float(rows[(ey, eu)]["cost_bits"]) for ey in ys for eu in us
            if (ey, eu) in rows}
    lines = [[(ey, eu) for eu in us] for ey in ys] + [[(ey, eu) for ey in ys] for eu in us]
    for line in lines:
        for a, b in zip(line, line[1:]):
            if a in cost and b in cost and not cost[b] - cost[a] <= SURFACE_TOL:
                bad.setdefault(b, f"cell {b}: cost rises from {a}")
        for a, b, c in zip(line, line[1:], line[2:]):
            if all(x in cost for x in (a, b, c)) and not cost[a] - 2 * cost[b] + cost[c] >= -SURFACE_TOL:
                bad.setdefault(b, f"cell {b}: cost not convex between {a} and {c}")
    return list(bad.values())


def simulation(rc: int, model_path: str, mech_path: str, csv_path: str, K: int) -> list[str]:
    """One ``simulate`` command: every step's mse_zr within MC_SE_MULTIPLE
    batch-means standard errors of the closed-form adversary error."""
    if rc != 0:
        return [f"simulate exited {rc}"]
    import numpy as np
    from privsynth.sim import adversary_estimate
    from privsynth.synth import load_mechanism
    model, _ = _load(model_path, K)
    mech = load_mechanism(mech_path)
    theory = adversary_estimate(model, None, mech, np.zeros((K, model.n_y)),
                                np.zeros((K, model.n_u))).expected_sq_err_per_step
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != K:
        return [f"simulate wrote {len(rows)} steps, expected {K}"]
    problems = []
    for row, want in zip(rows, theory):
        got, se = float(row["mse_zr"]), float(row["se_mse_zr"])
        if not abs(got - want) <= MC_SE_MULTIPLE * se:
            problems.append(f"step {row['k']}: mse_zr {got:.6g} vs closed form {want:.6g} "
                            f"(se {se:.3g})")
    return ["; ".join(problems)] if problems else []
