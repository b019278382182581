"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

The gate tests run the real CLI at small sizes (K=4, 2e4 Monte Carlo runs)
and then corrupt its outputs one way at a time.
"""

import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# medians and quartiles


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 10.0, 4.0],
                                    [1.5, 1.0], [2.0, 2.0, 2.0, 2.0], list(range(10))])
def test_median_quartiles_match_statistics(values):
    q1, med, q3 = run.median_quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert med == statistics.median(values)
    assert q1 <= med <= q3


@pytest.mark.parametrize("elapsed,n,more", [
    (9.9, 1, True),       # before the run length, always
    (10.6, 2, True),      # a third 5.3 s command ends by 15.9 s <= 20 s
    (10.6, 3, False),
    (85.0, 1, False),     # a second 85 s command would end far past 20 s
])
def test_more_samples(elapsed, n, more):
    assert run.more_samples(elapsed, n, seconds=10.0) is more


def test_median_quartiles_of_one_sample():
    assert run.median_quartiles([4.2]) == (4.2, 4.2, 4.2)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _sp(i, parent, name, start, end, **attrs):
    return {"run": "r", "id": i, "parent": parent, "name": name,
            "start": start, "end": end, "attrs": attrs}


TREE = [
    _sp(0, None, "cli.import", 0.0, 1.0),
    _sp(1, None, "cli.main", 1.0, 11.0),
    _sp(2, 1, "synth.synthesize", 2.0, 9.0),
    _sp(3, 2, "sdp.solve", 3.0, 7.0, newton_steps=8, params=10),
    _sp(4, 3, "sdp.check_solution", 4.0, 5.0),
    _sp(5, 2, "lift.build_lift", 6.5, 8.0),      # overlaps sdp.solve by 0.5
    _sp(6, 1, "sdp.check_solution", 9.5, 10.0),
]


def test_self_time_subtracts_union_of_children():
    own = spans.self_times(TREE)
    assert own[1] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own[2] == pytest.approx(7.0 - (8.0 - 3.0))   # union of [3,7] and [6.5,8]
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0) and own[6] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(11.0 + 0.5)   # the overlap is counted twice


def test_covered_clips_and_merges():
    assert spans._covered(0.0, 10.0, [(-1.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]) \
        == pytest.approx(3.0 + 1.0 + 1.0)
    assert spans._covered(0.0, 1.0, []) == 0.0


def test_layer_metrics_on_synthetic_tree():
    tree = [sp for sp in TREE if sp["id"] != 5]
    m = spans.layer_metrics(tree)
    assert m["sdp.check_solution.calls"] == 2
    assert m["sdp.check_solution.self_s"] == pytest.approx(1.5)
    assert m["sdp.solve.self_s"] == pytest.approx(3.0)
    assert m["sdp.newton_steps"] == 8
    assert m["sdp.s_per_newton_step"] == pytest.approx(3.0 / 8)
    assert m["synth.synthesize.self_s"] == pytest.approx(3.0)
    assert m["cli.import_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 7.0 - 0.5)
    # Layers that never ran are exact zeros, not missing.
    assert m["sim.run_experiment.calls"] == 0 and m["sdp.find_feasible.calls"] == 0
    assert m["sim.runs_per_s"] == 0.0 and m["lift.self_s"] == 0.0
    assert spans.top_level_library_s(tree) == pytest.approx(7.0 + 0.5)


def test_per_layer_metrics_cover_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    sample = run.Sample(rc=0, wall_s=2.0, cpu_s=3.0, peak_rss_mb=10.0)
    m = run.per_layer_metrics(TREE, [], [sample], sample, nproc=2)
    assert {d["name"] for d in declared} <= set(m)
    assert m["trace.accounted_frac"] == pytest.approx(11.5 / 2.0)
    assert m["cli.cpu_per_wall"] == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# wrapping


def test_install_wraps_every_binding_and_reports_absent_functions():
    lib = types.ModuleType("privsynth._bench_lib")
    user = types.ModuleType("privsynth._bench_user")
    lib.work = lambda x: x + 1
    user.work = lib.work
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    try:
        rec = spans.Recorder("t")
        absent = spans.install(rec, {lib.__name__: ("work", "gone"),
                                     "privsynth._bench_missing": ("anything",)})
        assert absent == ["_bench_lib.gone", "_bench_missing.anything"]
        assert user.work(1) == 2 and lib.work(2) == 3
        assert [r["name"] for r in rec.records] == ["_bench_lib.work"] * 2
        assert all(r["end"] >= r["start"] for r in rec.records)
    finally:
        del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_recorder_nests_and_writes_json_lines(tmp_path):
    rec = spans.Recorder("run-1")
    with rec.span("a"):
        with rec.span("b") as attrs:
            attrs["n"] = 3
    path = tmp_path / "s.jsonl"
    rec.write(str(path))
    back = spans.read_spans(str(path))
    assert [(r["name"], r["parent"], r["run"]) for r in back] == [("a", None, "run-1"),
                                                                  ("b", 0, "run-1")]
    assert back[1]["attrs"] == {"n": 3}


# ---------------------------------------------------------------------------
# inputs


def test_inputs_are_seeded():
    a, b = inputs.model_document(5, K=20), inputs.model_document(5, K=20)
    assert a == b and inputs.model_document(6, K=20)["U"] != a["U"]
    assert len(a["U"]) == 39 and {abs(r[0]) for r in a["U"]} == {0.5}


# ---------------------------------------------------------------------------
# gates, each failing on a corrupted output


def _cli(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "privsynth.cli", *args], env=env,
                          capture_output=True, timeout=300).returncode


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("gate")
    model, mech, sim = d / "model.json", d / "mech.json", d / "sim.csv"
    inputs.write_model(str(model), 3, K=4)
    assert _cli("synthesize", str(model), str(mech), "--k", "4") == 0
    assert _cli("simulate", str(model), str(mech), str(sim), "--k", "4",
                "--n-runs", "20000", "--seed", "3") == 0
    return d


def test_synthesis_gate(small_run, tmp_path):
    d = shutil.copytree(small_run, tmp_path / "c")
    args = (str(d / "model.json"), str(d / "mech.json"), 4)
    report = json.loads((d / "mech.report.json").read_text())
    assert gates.synthesis(0, *args, None) == []
    assert gates.synthesis(0, *args, report["cost_bits"]) == []
    assert gates.synthesis(0, *args, report["cost_bits"] + 1e-5)
    assert gates.synthesis(3, *args, None)

    for key, value in (("cost_bits", report["cost_bits"] + 1e-6), ("distortion_U", 1.01)):
        bad = dict(report, **{key: value})
        (d / "mech.report.json").write_text(json.dumps(bad))
        assert len(gates.synthesis(0, *args, None)) == 1, key


def _grid_csv(path, statuses, costs):
    with open(path, "w", newline="") as fh:
        fh.write("# manifest_hash=x\n")
        w = csv.writer(fh)
        w.writerow(["eps_Y", "eps_U", "cost_bits", "mi_bits", "entropy_H_bits",
                    "distortion_Y", "distortion_U", "solver_status"])
        for (ey, eu), st in statuses.items():
            w.writerow([ey, eu, costs.get((ey, eu), "nan"), 0, 0, 0, 0, st])


def test_sweep_gate(tmp_path):
    gy, gu = run.SWEEP_GRID_Y, run.SWEEP_GRID_U
    statuses = {(ey, eu): "Infeasible" if eu == 0 else "Optimal" for ey in gy for eu in gu}
    costs = {(ey, eu): 1.0 / ey - 4.0 * eu ** 0.5 for ey in gy for eu in gu if eu}
    path = tmp_path / "s.csv"
    _grid_csv(path, statuses, costs)
    assert gates.sweep(0, str(path), gy, gu) == []
    assert len(gates.sweep(2, str(path), gy, gu)) == 25

    _grid_csv(path, {**statuses, (1.0, 0.0): "Optimal"}, costs)
    assert len(gates.sweep(0, str(path), gy, gu)) == 1
    _grid_csv(path, {**statuses, (3.0, 2.0): "Infeasible"}, costs)
    assert gates.sweep(0, str(path), gy, gu)
    _grid_csv(path, statuses, {**costs, (5.0, 4.0): costs[(4.0, 4.0)] + 1e-3})
    assert gates.sweep(0, str(path), gy, gu)            # rises along eps_Y
    _grid_csv(path, statuses, {**costs, (2.0, 2.0): costs[(2.0, 2.0)] + 0.5})
    assert gates.sweep(0, str(path), gy, gu)            # not convex along eps_U


def test_simulation_gate(small_run, tmp_path):
    d = shutil.copytree(small_run, tmp_path / "c")
    args = (str(d / "model.json"), str(d / "mech.json"), str(d / "sim.csv"), 4)
    assert gates.simulation(0, *args) == []
    assert gates.simulation(1, *args)

    lines = (d / "sim.csv").read_text().splitlines()
    header, rows = lines[:2], [r.split(",") for r in lines[2:]]
    rows[2][2] = repr(float(rows[2][2]) + 10 * gates.MC_SE_MULTIPLE * float(rows[2][3]))
    (d / "sim.csv").write_text("\n".join(header + [",".join(r) for r in rows]) + "\n")
    assert len(gates.simulation(0, *args)) == 1
    (d / "sim.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert gates.simulation(0, *args)


# ---------------------------------------------------------------------------
# the benchmark without the program


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synth-k20",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
