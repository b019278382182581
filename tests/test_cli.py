"""End-to-end command line behavior via subprocesses: exit codes, artifact
formats, manifests and determinism."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from privsynth import cli as cli_module
from privsynth import sdp
from privsynth import synth as synth_module
from privsynth.model import (ModelFormatError, ValidationError, ValidationReport, load_model,
                             with_overrides)
from privsynth.synth import (ExtractionFailure, InfeasibleProgram, SolverFailure,
                             synthesize)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def cli(*args):
    return subprocess.run([sys.executable, "-m", "privsynth.cli", *map(str, args)],
                          capture_output=True, text=True)


def sha(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scalar_artifacts(tmp_path_factory):
    """One synthesized mechanism on disk, shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "mech.json"
    proc = cli("synthesize", FIXTURES / "scalar.json", out)
    assert proc.returncode == 0, proc.stderr
    return out


def test_validate_ok():
    proc = cli("validate", FIXTURES / "scalar.json")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_validate_missing_file():
    proc = cli("validate", FIXTURES / "no_such_model.json")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_validate_reports_violations(tmp_path):
    data = json.loads((FIXTURES / "scalar.json").read_text())
    data["eps_Y"] = -2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = cli("validate", bad)
    assert proc.returncode == 1
    assert "violation:" in proc.stderr and "eps_Y" in proc.stderr


def test_synthesize_writes_linked_artifacts(scalar_artifacts):
    out = scalar_artifacts
    base = str(out)[:-len(".json")]
    report = pathlib.Path(base + ".report.json")
    iters = pathlib.Path(base + ".iterations.csv")
    manifest = pathlib.Path(base + ".manifest.json")
    assert report.exists() and iters.exists() and manifest.exists()

    mdoc = json.loads(manifest.read_text())
    mh = mdoc["manifest_hash"]
    assert json.loads(out.read_text())["provenance"]["manifest_hash"] == mh
    assert json.loads(report.read_text())["manifest_hash"] == mh
    assert iters.read_text().splitlines()[0] == f"# manifest_hash={mh}"
    # The manifest records each artifact's post-write content hash.
    for p in (out, report, iters):
        assert mdoc["artifacts"][str(p)] == sha(p)
    assert "wall_clock" in mdoc and mdoc["command"] == "synthesize"
    # The BLAS thread setting is recorded, outside the hashed core.
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert mdoc["thread_env"][name] == os.environ.get(name, "1")


def test_synthesize_status_line(tmp_path):
    out = tmp_path / "m.json"
    proc = cli("synthesize", FIXTURES / "scalar.json", out)
    assert proc.returncode == 0
    assert proc.stdout.startswith("status=Optimal ")
    assert "cost_bits=" in proc.stdout and "distortion_U=" in proc.stdout


def test_synthesize_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "m.json"
    args = ("synthesize", FIXTURES / "twostate.json", out, "--seed", "11")
    assert cli(*args).returncode == 0
    base = str(out)[:-len(".json")]
    paths = [out, base + ".report.json", base + ".iterations.csv"]
    first = [pathlib.Path(p).read_bytes() for p in paths]
    hash_first = json.loads(pathlib.Path(base + ".manifest.json").read_text())["manifest_hash"]
    assert cli(*args).returncode == 0
    second = [pathlib.Path(p).read_bytes() for p in paths]
    hash_second = json.loads(pathlib.Path(base + ".manifest.json").read_text())["manifest_hash"]
    assert first == second
    assert hash_first == hash_second


def test_infeasible_budget_exit_code(tmp_path):
    proc = cli("synthesize", FIXTURES / "eps_u_zero.json", tmp_path / "m.json")
    assert proc.returncode == 2
    assert "input distortion budget infeasible" in proc.stderr


def test_infinite_input_budget_is_a_one_line_error(scalar_artifacts, tmp_path):
    """Synthesis needs a finite eps_U; the commands that only read a model accept inf."""
    msg = ("violation: eps_U = inf makes the input-noise entropy unbounded; "
           "synthesis needs a finite input budget")
    proc = cli("synthesize", FIXTURES / "scalar.json", tmp_path / "m.json", "--eps-u", "inf")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [msg]
    assert not (tmp_path / "m.json").exists()

    csv_path = tmp_path / "sweep.csv"
    assert cli("sweep", FIXTURES / "scalar.json", csv_path,
               "--eps-y-grid", "1", "--eps-u-grid", "inf").returncode == 0
    row = csv_path.read_text().splitlines()[2].split(",")
    assert row[7] == "ValidationError" and row[2] == "nan"

    data = json.loads((FIXTURES / "scalar.json").read_text())
    data["eps_U"] = "inf"
    model = tmp_path / "inf.json"
    model.write_text(json.dumps(data))
    assert cli("validate", model).returncode == 0
    assert cli("evaluate", model, scalar_artifacts).returncode == 0
    assert cli("simulate", model, scalar_artifacts, tmp_path / "sim.csv",
               "--n-runs", 10).returncode == 0


@pytest.mark.parametrize("exc,code,prefix", [
    (ValidationError(ValidationReport(["eps_Y must be nonnegative"])), 1, "violation:"),
    (OSError("disk full"), 1, "error:"),
    (ModelFormatError("field A: not a matrix"), 1, "error:"),
    (ValueError("bad value"), 1, "error:"),
    (KeyError("G_blocks"), 1, "error:"),
    (InfeasibleProgram("output distortion budget infeasible"), 2, "error:"),
    (SolverFailure("solver status MaxIterations"), 3, "error:"),
    (ExtractionFailure("extracted output noise covariance is not PD"), 3, "error:"),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
def test_exit_code_map(monkeypatch, capsys, tmp_path, exc, code, prefix):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli_module, "synthesize", fail)
    rc = cli_module.main(["synthesize", str(FIXTURES / "scalar.json"), str(tmp_path / "m.json")])
    assert rc == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines


@pytest.mark.parametrize("argv, words", [
    (["synthesize", "{scalar}", "{out}", "--eps-y", "abc"],
     ["argument --eps-y:", "'abc'"]),
    (["synthesize", "{scalar}"], ["required: out_mechanism"]),
    (["frobnicate", "{scalar}"], ["argument command: invalid choice:", "'frobnicate'"]),
], ids=["bad-flag-value", "missing-positional", "unknown-command"])
def test_usage_error_is_exit_1_with_one_line(capsys, tmp_path, argv, words):
    """A usage error exits 1 with one line that names what is wrong, not
    with argparse's exit 2 (the infeasible-budgets code) and usage block."""
    argv = [a.format(scalar=FIXTURES / "scalar.json", out=tmp_path / "m.json") for a in argv]
    assert cli_module.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for word in words:
        assert word in lines[0], lines
    assert "_parse_eps" not in lines[0]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_simulate_rejects_a_bad_seed_by_flag(capsys, tmp_path, seed):
    """A negative or non-integer simulate seed exits 1 with one line that
    names --seed and the value, before any file is read or written."""
    out = tmp_path / "sim.csv"
    argv = ["simulate", str(FIXTURES / "scalar.json"), str(tmp_path / "m.json"), str(out),
            "--seed", seed]
    assert cli_module.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument --seed: "), lines
    assert repr(seed) in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_sweep_rejects_a_bad_job_count(capsys, tmp_path, jobs):
    """A job count below 1 or not an integer exits 1 with one line that
    names --jobs and the value, and writes no CSV."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", str(FIXTURES / "twostate.json"), str(out),
            "--eps-y-grid", "1", "--eps-u-grid", "1", "--jobs", jobs]
    assert cli_module.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument --jobs: "), lines
    assert repr(jobs) in lines[0], lines
    assert not out.exists()


def test_sweep_solves_once_per_output_budget(monkeypatch, tmp_path):
    """One solve per eps_Y row, and two output-moment computations (the
    solve's and the one every cell of the row is evaluated with); every
    cell equals synthesize's own report."""
    calls = []
    real_solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **kw: calls.append(1) or real_solve(*a, **kw))
    moment_calls = []
    real_moments = cli_module.output_moments
    for module in (cli_module, synth_module):
        monkeypatch.setattr(module, "output_moments",
                            lambda *a, **kw: moment_calls.append(1) or real_moments(*a, **kw))
    csv_path = tmp_path / "sweep.csv"
    assert cli_module.main(["sweep", str(FIXTURES / "twostate.json"), str(csv_path),
                            "--eps-y-grid", "1,2", "--eps-u-grid", "0,0.5,2",
                            "--jobs", "1", "--seed", "42"]) == 0
    assert len(calls) == 2
    assert len(moment_calls) == 4
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
    assert len(rows) == 6

    fmt = cli_module._fmt
    model, req = load_model(str(FIXTURES / "twostate.json"))
    for row in rows:
        m, r = with_overrides(model, req, eps_y=float(row[0]), eps_u=float(row[1]))
        if r.eps_u == 0.0:
            with pytest.raises(InfeasibleProgram):
                synthesize(m, r)
            want = ["nan"] * 5 + ["Infeasible"]
        else:
            rep = synthesize(m, r)
            want = [fmt(rep.cost_bits), fmt(rep.mi_bits), fmt(rep.entropy_H_bits),
                    fmt(rep.distortion_Y), fmt(rep.distortion_U), "Optimal"]
        assert row[2:] == want, row


def test_evaluate_stdout_matches_report(scalar_artifacts):
    out = scalar_artifacts
    report = json.loads(pathlib.Path(str(out)[:-len(".json")] + ".report.json").read_text())
    proc = cli("evaluate", FIXTURES / "scalar.json", out)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    for key in ("mi_bits", "entropy_H_bits", "cost_bits", "distortion_Y", "distortion_U"):
        assert doc[key] == pytest.approx(report[key], abs=1e-12)


def test_evaluate_out_file(scalar_artifacts, tmp_path):
    dest = tmp_path / "metrics.json"
    proc = cli("evaluate", FIXTURES / "scalar.json", scalar_artifacts, "--out", dest)
    assert proc.returncode == 0
    doc = json.loads(dest.read_text())
    assert "cost_bits" in doc and "manifest_hash" in doc
    assert (tmp_path / "metrics.manifest.json").exists()


def test_evaluate_manifest_times_the_whole_command(monkeypatch, scalar_artifacts, tmp_path):
    """The evaluate manifest's elapsed time covers the evaluation, not only
    the file write."""
    real = cli_module.evaluate_mechanism

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_module, "evaluate_mechanism", slow)
    dest = tmp_path / "metrics.json"
    assert cli_module.main(["evaluate", str(FIXTURES / "scalar.json"), str(scalar_artifacts),
                            "--out", str(dest)]) == 0
    manifest = json.loads((tmp_path / "metrics.manifest.json").read_text())
    assert manifest["wall_clock"]["elapsed_s"] >= 0.05


def test_evaluate_dimension_mismatch(scalar_artifacts):
    proc = cli("evaluate", FIXTURES / "twostate.json", scalar_artifacts)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def _negate_sigma_v(doc):
    doc["Sigma_V"] = [[-v for v in row] for row in doc["Sigma_V"]]


def _nan_gains(doc):
    doc["G_blocks"][0][0][0] = float("nan")


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("corrupt", [_negate_sigma_v, _nan_gains])
def test_corrupt_mechanism_is_a_one_line_error(scalar_artifacts, tmp_path, command, corrupt):
    doc = json.loads(pathlib.Path(scalar_artifacts).read_text())
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    extra = [tmp_path / "sim.csv", "--n-runs", 10] if command == "simulate" else []
    proc = cli(command, FIXTURES / "scalar.json", bad, *extra)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_simulate_csv_format(scalar_artifacts, tmp_path):
    csv_path = tmp_path / "sim.csv"
    proc = cli("simulate", FIXTURES / "scalar.json", scalar_artifacts, csv_path,
               "--n-runs", 400, "--seed", 7)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n_runs=400 ")
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    assert lines[1] == "k,mse_yu,mse_zr,se_mse_zr,s_mean,shat_zr_mean"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2"]
    for r in rows:
        for cell in r[1:]:
            assert FLOAT_RE.match(cell), cell


def test_simulate_rerun_is_byte_identical(scalar_artifacts, tmp_path):
    csv_path = tmp_path / "sim.csv"
    args = ("simulate", FIXTURES / "scalar.json", scalar_artifacts, csv_path,
            "--n-runs", 300, "--seed", 9)
    assert cli(*args).returncode == 0
    first = csv_path.read_bytes()
    assert cli(*args).returncode == 0
    assert csv_path.read_bytes() == first


def test_simulate_seed_changes_data(scalar_artifacts, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli("simulate", FIXTURES / "scalar.json", scalar_artifacts, a, "--n-runs", 300,
        "--seed", 1)
    cli("simulate", FIXTURES / "scalar.json", scalar_artifacts, b, "--n-runs", 300,
        "--seed", 2)
    row_a = a.read_text().splitlines()[2]
    row_b = b.read_text().splitlines()[2]
    assert row_a != row_b


def test_simulate_rejects_nonpositive_runs(scalar_artifacts, tmp_path):
    proc = cli("simulate", FIXTURES / "scalar.json", scalar_artifacts,
               tmp_path / "x.csv", "--n-runs", 0)
    assert proc.returncode == 1
    assert "argument --n-runs:" in proc.stderr


def test_sweep_grid_order_and_monotonicity(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    proc = cli("sweep", FIXTURES / "scalar.json", csv_path,
               "--eps-y-grid", "0.5,1,2", "--eps-u-grid", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "grid_points=3 optimal=3"
    lines = csv_path.read_text().splitlines()
    assert lines[1] == ("eps_Y,eps_U,cost_bits,mi_bits,entropy_H_bits,"
                        "distortion_Y,distortion_U,solver_status")
    rows = [line.split(",") for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]
    costs = [float(r[2]) for r in rows]
    assert costs[0] >= costs[1] >= costs[2]
    assert all(r[7] == "Optimal" for r in rows)


def test_sweep_single_point_matches_synthesize(tmp_path):
    csv_path = tmp_path / "one.csv"
    assert cli("sweep", FIXTURES / "scalar.json", csv_path,
               "--eps-y-grid", "1", "--eps-u-grid", "1").returncode == 0
    out = tmp_path / "m.json"
    assert cli("synthesize", FIXTURES / "scalar.json", out).returncode == 0
    report = json.loads((tmp_path / "m.report.json").read_text())
    row = csv_path.read_text().splitlines()[2].split(",")
    assert float(row[2]) == pytest.approx(report["cost_bits"], abs=1e-12)
    assert float(row[3]) == pytest.approx(report["mi_bits"], abs=1e-12)


def test_sweep_parallel_equals_serial(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    args = ("sweep", FIXTURES / "scalar.json", csv_path,
            "--eps-y-grid", "1,2", "--eps-u-grid", "1")
    assert cli(*args).returncode == 0
    serial = csv_path.read_bytes()
    assert cli(*args, "--jobs", 2).returncode == 0
    assert csv_path.read_bytes() == serial


def test_sweep_isolates_infeasible_cells(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    proc = cli("sweep", FIXTURES / "scalar.json", csv_path,
               "--eps-y-grid", "1", "--eps-u-grid", "0,1")
    assert proc.returncode == 0
    assert "optimal=1" in proc.stdout
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[2:]]
    assert rows[0][7] == "Infeasible" and rows[0][2] == "nan"
    assert rows[1][7] == "Optimal" and FLOAT_RE.match(rows[1][2])


def test_sweep_rejects_bad_grid(tmp_path):
    proc = cli("sweep", FIXTURES / "scalar.json", tmp_path / "s.csv",
               "--eps-y-grid", "1,zap", "--eps-u-grid", "1")
    assert proc.returncode == 1
    assert "bad grid" in proc.stderr


def test_horizon_override_round_trip(tmp_path):
    out = tmp_path / "m.json"
    proc = cli("synthesize", FIXTURES / "reactor4.json", out, "--k", "5",
               "--eps-y", "inf")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert len(doc["G_blocks"]) == 5
    assert doc["provenance"]["K"] == 5
    assert doc["provenance"]["eps_Y"] == "inf"


def test_input_files_never_modified(tmp_path):
    model_path = FIXTURES / "scalar.json"
    before = sha(model_path)
    cli("synthesize", model_path, tmp_path / "m.json")
    cli("sweep", model_path, tmp_path / "s.csv", "--eps-y-grid", "1",
        "--eps-u-grid", "1")
    assert sha(model_path) == before


def test_version_flag():
    proc = cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("privsynth ")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_defaults_blas_to_one_thread(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, privsynth; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (preset or "1")


def test_import_leaves_scipy_linalg_unloaded():
    """Every command imports the CLI; scipy.linalg loads only where a
    factorization is run, so `validate` never pays for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, privsynth.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any `import scipy...` now raises ImportError
from privsynth import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name, mod in sys.modules.items()
                if mod is not None and name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy_loaded": loaded}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """The runtime needs numpy only: every command runs to exit 0 in a
    process where scipy cannot be imported, and none loads it."""
    reactor, twostate = str(FIXTURES / "reactor4.json"), str(FIXTURES / "twostate.json")
    mech = str(tmp_path / "mech.json")
    commands = [
        ["validate", reactor],
        ["synthesize", reactor, mech],
        ["evaluate", reactor, mech, "--out", str(tmp_path / "metrics.json")],
        ["simulate", reactor, mech, str(tmp_path / "sim.csv"), "--n-runs", "200"],
        ["sweep", twostate, str(tmp_path / "sweep.csv"),
         "--eps-y-grid", "1,2", "--eps-u-grid", "1", "--jobs", "1"],
    ]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(commands), "scipy_loaded": []}, proc.stderr
