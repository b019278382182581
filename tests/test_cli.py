"""End-to-end command line behavior via subprocesses: exit codes, artifact
formats, manifests and determinism."""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from privsynth import cli as cli_module
from privsynth import lift as lift_module
from privsynth import sdp
from privsynth import synth as synth_module
from privsynth.model import (ModelFormatError, ValidationError, ValidationReport, content_hash,
                             load_model, with_overrides)
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
def mechanism_file(tmp_path_factory):
    """mechanism_file(name): the mechanism synthesized from fixture ``name``,
    on disk, made once and shared by the read-only CLI tests."""
    made = {}

    def get(name):
        if name not in made:
            out = tmp_path_factory.mktemp("cli") / "mech.json"
            proc = cli("synthesize", FIXTURES / f"{name}.json", out)
            assert proc.returncode == 0, proc.stderr
            made[name] = out
        return made[name]
    return get


@pytest.fixture(scope="module")
def scalar_artifacts(mechanism_file):
    return mechanism_file("scalar")


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


def test_iteration_csv_header_and_rows(scalar_artifacts):
    """The synthesize iterations CSV: the manifest-hash line, the header
    ``iter,mu,objective``, then the solution's iteration log, one row per
    Newton step with its floats at %.16e."""
    base = str(scalar_artifacts)[:-len(".json")]
    mh = json.loads(pathlib.Path(base + ".manifest.json").read_text())["manifest_hash"]
    lines = pathlib.Path(base + ".iterations.csv").read_text().splitlines()
    assert lines[0] == f"# manifest_hash={mh}"
    assert lines[1] == "iter,mu,objective"
    log = synthesize(*load_model(str(FIXTURES / "scalar.json"))).solution.iterations
    assert log
    assert lines[2:] == [f"{r.iteration},{r.mu:.16e},{r.objective:.16e}" for r in log]


def test_synthesize_status_line(tmp_path):
    """The whole line: the status, then each figure of the report in the
    order of ``MechanismMetrics``'s fields, at 9 significant digits."""
    names = ["cost_bits", "mi_bits", "entropy_H_bits", "distortion_Y", "distortion_U"]
    assert [f.name for f in dataclasses.fields(synth_module.MechanismMetrics)] == names
    out = tmp_path / "m.json"
    proc = cli("synthesize", FIXTURES / "scalar.json", out)
    assert proc.returncode == 0
    report = json.loads((tmp_path / "m.report.json").read_text())
    assert proc.stdout == " ".join(
        ["status=Optimal", *(f"{name}={report[name]:.9g}" for name in names)]) + "\n"


def test_near_singular_output_noise_is_one_stderr_line(tmp_path):
    """twostate's optimal output noise sits near its floor: synthesize still
    exits 0 and says so in one stderr line."""
    proc = cli("synthesize", FIXTURES / "twostate.json", tmp_path / "m.json")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"extracted output noise covariance is near singular "
                        r"\(min eig \d\.\d{3}e-\d\d\)\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("name", ["twostate", "reactor4", "twostate_weighted"])
def test_synthesize_rerun_is_byte_identical(tmp_path, name):
    """Two processes write the same mechanism, report and iterations CSV,
    byte for byte, under the same manifest hash; twostate_weighted has a
    non-identity, non-symmetric W_Y."""
    out = tmp_path / "m.json"
    args = ("synthesize", FIXTURES / f"{name}.json", out, "--seed", "11")
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
    monkeypatch.setattr(synth_module, "synthesize", fail)
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


@pytest.mark.parametrize("argv", [
    ["evaluate", "{scalar}", "{mech}", "--eps-y", "-5", "--out", "{out}"],
    ["evaluate", "{scalar}", "{mech}", "--eps-u", "1", "--out", "{out}"],
    ["simulate", "{scalar}", "{mech}", "{out}", "--eps-u", "nan"],
    ["simulate", "{scalar}", "{mech}", "{out}", "--eps-y", "1"],
    ["sweep", "{scalar}", "{out}", "--eps-y-grid", "1", "--eps-u-grid", "1", "--seed", "42"],
], ids=["evaluate-eps-y", "evaluate-eps-u", "simulate-eps-u", "simulate-eps-y", "sweep-seed"])
def test_flags_that_set_nothing_are_usage_errors(capsys, scalar_artifacts, tmp_path, argv):
    """Only synthesize takes the budgets, and sweep takes no seed: any other
    use is a usage error with one line, and writes nothing."""
    out = tmp_path / "out.csv"
    argv = [a.format(scalar=FIXTURES / "scalar.json", mech=scalar_artifacts, out=out)
            for a in argv]
    assert cli_module.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unrecognized arguments: "), lines
    assert not out.exists()


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


@pytest.mark.parametrize("k", ["1", "0", "-3"])
@pytest.mark.parametrize("argv", [
    ["synthesize", "{scalar}", "{out}"],
    ["evaluate", "{scalar}", "{mech}", "--out", "{out}"],
    ["simulate", "{scalar}", "{mech}", "{out}"],
    ["sweep", "{scalar}", "{out}", "--eps-y-grid", "1", "--eps-u-grid", "1"],
], ids=["synthesize", "evaluate", "simulate", "sweep"])
def test_horizon_flag_below_2_is_a_usage_error(capsys, scalar_artifacts, tmp_path, argv, k):
    """Every command rejects a --k below 2 with one line that names --k and
    the value, and writes nothing."""
    out = tmp_path / "out.csv"
    argv = [a.format(scalar=FIXTURES / "scalar.json", mech=scalar_artifacts, out=out)
            for a in argv]
    assert cli_module.main([*argv, "--k", k]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: argument --k: "), lines
    assert repr(k) in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "evaluate", "sweep"])
def test_horizon_beyond_the_limit_is_a_one_line_error(capsys, scalar_artifacts, tmp_path,
                                                      command):
    """A horizon whose weights alone would need 8e16 bytes, from the model
    file or from --k, exits 1 with one line naming K before any is built;
    sweep says so once rather than in every cell."""
    huge = 10**8
    twostate, out = str(FIXTURES / "twostate.json"), tmp_path / "out.csv"
    if command == "validate":
        data = json.loads((FIXTURES / "twostate.json").read_text())
        data["K"] = huge
        model = tmp_path / "huge.json"
        model.write_text(json.dumps(data))
        argv = ["validate", str(model)]
    elif command == "evaluate":
        argv = ["evaluate", twostate, str(scalar_artifacts), "--k", str(huge)]
    else:
        argv = ["sweep", twostate, str(out), "--eps-y-grid", "1", "--eps-u-grid", "1",
                "--k", str(huge)]
    assert cli_module.main(argv) == 1
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: horizon K = {huge}: "), lines


def test_sweep_solves_once_per_output_budget(monkeypatch, tmp_path):
    """One solve per eps_Y row and one output-moment computation for it,
    besides validate's check in load_model and in each solve: every cell
    of the row takes its output figures from that report. Every cell
    equals synthesize's own report."""
    calls = []
    real_solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **kw: calls.append(1) or real_solve(*a, **kw))
    moment_calls = []
    real_moments = lift_module.output_moments
    for module in (lift_module, synth_module):
        monkeypatch.setattr(module, "output_moments",
                            lambda *a, **kw: moment_calls.append(1) or real_moments(*a, **kw))
    csv_path = tmp_path / "sweep.csv"
    assert cli_module.main(["sweep", str(FIXTURES / "twostate.json"), str(csv_path),
                            "--eps-y-grid", "1,2", "--eps-u-grid", "0,0.5,2",
                            "--jobs", "1"]) == 0
    assert len(calls) == 2
    assert len(moment_calls) == 1 + 2 * 2
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


def test_sweep_reads_the_model_once_and_evaluates_each_row_once(monkeypatch, tmp_path):
    """The command reads the model file once, and each eps_Y row evaluates
    the leakage of its design once, in its solve: 1 + 2 model reads and
    2 + 4 evaluations before rows reused their report."""
    loads, evaluations = [], []
    real_load, real_mi = cli_module.load_model, synth_module.mutual_information
    monkeypatch.setattr(cli_module, "load_model",
                        lambda *a: loads.append(1) or real_load(*a))
    monkeypatch.setattr(synth_module, "mutual_information",
                        lambda *a: evaluations.append(1) or real_mi(*a))
    assert cli_module.main(["sweep", str(FIXTURES / "twostate.json"), str(tmp_path / "s.csv"),
                            "--eps-y-grid", "1,2", "--eps-u-grid", "0.5,1", "--jobs", "1"]) == 0
    assert (len(loads), len(evaluations)) == (1, 2)


def test_sweep_validates_the_model_once_per_row(monkeypatch, tmp_path):
    """load_model validates the model once; with_overrides checks each
    cell's budgets, so the only other validate call is each row's solve,
    synthesize's entry check: 5 calls on a 5x5 grid, where per-cell
    validation made 30."""
    calls = []
    real = synth_module.validate
    counting = lambda *a: calls.append(1) or real(*a)      # noqa: E731
    monkeypatch.setattr(synth_module, "validate", counting)
    monkeypatch.setattr(cli_module, "validate", counting, raising=False)
    grid = "1,2,3,4,5"
    assert cli_module.main(["sweep", str(FIXTURES / "reactor4.json"), str(tmp_path / "s.csv"),
                            "--eps-y-grid", grid, "--eps-u-grid", grid, "--jobs", "1"]) == 0
    assert len(calls) == 5


def _disagreeing_routes(joint):
    raise FloatingPointError("mutual information routes disagree: Schur 1.0 vs entropy-sum 1.1")


def test_a_route_disagreement_is_exit_3(monkeypatch, capsys, scalar_artifacts):
    """The cross-check of the two mutual-information routes failing ends in
    one error line and exit 3, like the other numerical failures."""
    monkeypatch.setattr(synth_module, "mutual_information", _disagreeing_routes)
    assert cli_module.main(["evaluate", str(FIXTURES / "scalar.json"),
                            str(scalar_artifacts)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: mutual information routes disagree: Schur 1.0 vs entropy-sum 1.1"]


def _budget_with_transposed_g(assemble):
    """assemble_program with the G coefficient of the output budget LMI, and
    only there, taken from W_Y^T W_Y Sigma_Y: the transposed cross term that
    an earlier release certified mechanisms against."""
    def wrapped(lift, model, req):
        prob = assemble(lift, model, req)
        ctx = prob.meta["context"]
        rg, cg = synth_module.g_entries(ctx.K, ctx.n_y)
        budget = next(c for c in prob.lmis if c.name == "output_distortion_budget")
        budget.terms["G"] = budget.terms["G"].copy()
        budget.terms["G"][:, 0] = (ctx.MYq @ ctx.mom.Sigma_Y)[cg, rg]
        return prob
    return wrapped


def test_a_mechanism_over_its_output_budget_is_exit_3(monkeypatch, capsys, tmp_path):
    """With the budget LMI alone transposed, the solve and its certificate
    agree on a mechanism whose output distortion, by its definition, is
    2.0608 against eps_Y = 2 on twostate_weighted. synthesize compares the
    two and ends in exit 3 with one line, writing nothing; a sweep cell gets
    NumericalFailure."""
    monkeypatch.setattr(synth_module, "assemble_program",
                        _budget_with_transposed_g(synth_module.assemble_program))
    weighted = str(FIXTURES / "twostate_weighted.json")
    out = tmp_path / "m.json"
    assert cli_module.main(["synthesize", weighted, str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the output distortion 2.0608"), lines
    assert lines[0].endswith(" exceeds its budget eps_Y = 2"), lines
    assert not out.exists()
    cells = cli_module._sweep_row(*load_model(weighted), 2.0, [1.0])
    assert cells == [("NumericalFailure", None)]


def test_a_leakage_off_the_certified_objective_is_exit_3(monkeypatch, capsys, tmp_path):
    """The evaluated leakage equals the certified objective less its barrier
    offset to rounding (2.7e-14 relative at most measured); 1e-6 bits more
    ends synthesize in exit 3 with one line, writing nothing, and fails a
    sweep cell as NumericalFailure."""
    real = synth_module.mutual_information
    monkeypatch.setattr(synth_module, "mutual_information", lambda joint: real(joint) + 1e-6)
    reactor = str(FIXTURES / "reactor4.json")
    out = tmp_path / "m.json"
    assert cli_module.main(["synthesize", reactor, str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the evaluated leakage "), lines
    assert lines[0].endswith(" from the certified objective's by 1.000e-06 bits"), lines
    assert not out.exists()
    assert cli_module._sweep_row(*load_model(reactor), 1.0, [1.0]) == [("NumericalFailure", None)]


def test_a_route_disagreement_is_a_numerical_failure_cell(monkeypatch, twostate_case):
    """In a sweep the disagreement fails the row's solve, not the command."""
    monkeypatch.setattr(synth_module, "mutual_information", _disagreeing_routes)
    cells = cli_module._sweep_row(*twostate_case, 1.0, [0.0, 0.5, 1.0])
    assert cells == [("Infeasible", None), ("NumericalFailure", None),
                     ("NumericalFailure", None)]


def test_an_uncentered_stop_is_exit_3(monkeypatch, capsys, tmp_path, twostate_case):
    """With one Newton step per centering, twostate at eps_Y = 4 reaches the
    duality tolerance from a point whose last centering did not pass its
    test, at mi_bits 0.19994 against the optimum's 0.09870. synthesize
    ends in exit 3 with one line, writing nothing; a sweep cell gets
    MaxIterations."""
    monkeypatch.setattr(sdp, "MAX_INNER", 1)
    out = tmp_path / "m.json"
    assert cli_module.main(["synthesize", str(FIXTURES / "twostate.json"), str(out),
                            "--eps-y", "4"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: solver status MaxIterations: the last centering ended before its test passed"]
    assert not out.exists()
    assert cli_module._sweep_row(*twostate_case, 4.0, [1.0]) == [("MaxIterations", None)]


def test_max_iterations_is_a_cell_status(monkeypatch, twostate_case):
    """A solve that runs out of centerings gives its row's cells the
    solution's status, MaxIterations."""
    monkeypatch.setattr(sdp, "MAX_OUTER", 1)
    cells = cli_module._sweep_row(*twostate_case, 1.0, [0.0, 0.5, 1.0])
    assert cells == [("Infeasible", None), ("MaxIterations", None), ("MaxIterations", None)]


def test_extraction_failure_is_a_cell_status(monkeypatch, twostate_case):
    """An extraction failure fails the row's solve, not the command."""
    def fail(model, req):
        raise ExtractionFailure("extracted output noise covariance has min eigenvalue -1.000e-09")
    monkeypatch.setattr(synth_module, "synthesize", fail)
    cells = cli_module._sweep_row(*twostate_case, 1.0, [0.0, 0.5, 1.0])
    assert cells == [("Infeasible", None), ("ExtractionFailure", None),
                     ("ExtractionFailure", None)]


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
    real = synth_module.evaluate_mechanism

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(synth_module, "evaluate_mechanism", slow)
    dest = tmp_path / "metrics.json"
    assert cli_module.main(["evaluate", str(FIXTURES / "scalar.json"), str(scalar_artifacts),
                            "--out", str(dest)]) == 0
    manifest = json.loads((tmp_path / "metrics.manifest.json").read_text())
    assert manifest["wall_clock"]["elapsed_s"] >= 0.05


def test_manifest_elapsed_time_ignores_a_clock_step(monkeypatch, scalar_artifacts, tmp_path):
    """The system clock stepping back an hour during the command moves
    neither the elapsed time below zero nor past the command's length."""
    real_evaluate, real_time = synth_module.evaluate_mechanism, time.time

    def step_clock_back(*args, **kwargs):
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(synth_module, "evaluate_mechanism", step_clock_back)
    dest = tmp_path / "metrics.json"
    assert cli_module.main(["evaluate", str(FIXTURES / "scalar.json"), str(scalar_artifacts),
                            "--out", str(dest)]) == 0
    manifest = json.loads((tmp_path / "metrics.manifest.json").read_text())
    assert 0.0 <= manifest["wall_clock"]["elapsed_s"] < 60.0


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


_BAD_MODELS = {
    "mu_x1-object": lambda d: {**d, "mu_x1": {"x": 1}},
    "U-entry-object": lambda d: {**d, "U": [{"u": 1}, *d["U"][1:]]},
}
_BAD_MECHANISMS = {
    "top-level-list": lambda d: [d],
    "G_blocks-number": lambda d: {**d, "G_blocks": 1.0},
    "no-Sigma_H": lambda d: {k: v for k, v in d.items() if k != "Sigma_H"},
    "Sigma_V-7x7": lambda d: {**d, "Sigma_V": _identity(7)},
    "Sigma_H-1x1": lambda d: {**d, "Sigma_H": _identity(1)},
    "G-blocks-2x3": lambda d: {**d, "G_blocks": [_identity(3)[:2]] * 3},
    "G-blocks-3x3": lambda d: {**d, "G_blocks": [_identity(3)] * 3},
}


def _identity(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("command, bad", [
    *((command, bad) for bad in _BAD_MODELS for command in ("validate", "evaluate", "simulate")),
    *((command, bad) for bad in _BAD_MECHANISMS for command in ("evaluate", "simulate"))])
def test_malformed_input_is_a_one_line_error(capsys, tmp_path, twostate_report, command, bad):
    """A model or mechanism file with a field of the wrong kind or size ends
    in exit 1 and one error line naming the field, never a traceback."""
    model = json.loads((FIXTURES / "twostate.json").read_text())
    mech = twostate_report.mechanism.to_dict()
    if bad in _BAD_MODELS:
        model = _BAD_MODELS[bad](model)
    else:
        mech = _BAD_MECHANISMS[bad](mech)
    paths = {"model": tmp_path / "model.json", "mech": tmp_path / "mech.json"}
    paths["model"].write_text(json.dumps(model))
    paths["mech"].write_text(json.dumps(mech))
    argv = {"validate": ["validate", paths["model"]],
            "evaluate": ["evaluate", paths["model"], paths["mech"]],
            "simulate": ["simulate", paths["model"], paths["mech"], tmp_path / "s.csv",
                         "--n-runs", "10"]}[command]
    assert cli_module.main([str(a) for a in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    field = {"top-level-list": "top-level", "no-Sigma_H": "Sigma_H", "G-blocks-2x3": "G_blocks[0]",
             "G-blocks-3x3": "G_blocks[0]"}.get(bad, bad.split("-")[0])
    assert field in lines[0], lines


def _first_entry(value, x):
    """value with its first number replaced by x."""
    return [_first_entry(value[0], x), *value[1:]] if isinstance(value, list) else x


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["A", "B", "C", "D", "mu_x1", "Sigma_x1", "Sigma_T",
                                   "Sigma_W", "U", "W_Y", "W_U"])
def test_validate_rejects_non_finite_entries(capsys, tmp_path, field, value):
    """Python's json reads NaN and Infinity; validate names the field that
    holds one, and synthesize stops there with the same line."""
    data = json.loads((FIXTURES / "twostate.json").read_text())
    data[field] = _first_entry(data[field], value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", str(path)], ["synthesize", str(path), str(tmp_path / "m.json")]):
        assert cli_module.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"violation: {field} must have finite entries"]


def test_several_violations_print_one_line(capsys, tmp_path):
    """A report with several violations is one stderr line, its violations
    joined by '; '."""
    argv = ["synthesize", str(FIXTURES / "twostate.json"), str(tmp_path / "m.json"),
            "--eps-y", "-1", "--eps-u", "nan"]
    assert cli_module.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "violation: eps_Y must be a nonnegative real or inf, got -1.0; "
        "eps_U must be a nonnegative real or inf, got nan"]
    assert not (tmp_path / "m.json").exists()


def _extra_column(matrix):
    return [[*row, 0.0] for row in matrix]


@pytest.mark.parametrize("field, misshape, line", [
    ("A", _extra_column, "A must be square, got shape (2, 3)"),
    ("B", lambda B: [*B, [0.0]], "B must have 2 rows, got 3"),
    ("C", _extra_column, "C must have 2 columns, got 3"),
    ("D", _extra_column, "D must have 2 columns, got 3"),
    ("mu_x1", lambda mu: mu[:1], "mu_x1 must have shape (2,), got (1,)"),
    ("Sigma_W", lambda _: _identity(3), "Sigma_W must be 2x2, got shape (3, 3)"),
    ("Sigma_W", _extra_column, "Sigma_W must be 2x2, got shape (2, 3)"),
], ids=["A-2x3", "B-extra-row", "C-extra-column", "D-extra-column", "mu_x1-short",
        "Sigma_W-3x3", "Sigma_W-2x3"])
def test_a_misshapen_model_is_one_violation(capsys, tmp_path, field, misshape, line):
    """validate states every shape rule of the model, so a field of the wrong
    size is one violation line naming it, a non-square covariance included."""
    data = json.loads((FIXTURES / "twostate.json").read_text())
    data[field] = misshape(data[field])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert cli_module.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"violation: {line}"]


def _scaled(matrix, s):
    return [[s * x for x in row] for row in matrix]


_OVERFLOW = " must have finite entries (the model's magnitudes overflow)"
_SWAMPED = (" must be positive definite in floating point "
            "(the model's magnitudes swamp its measurement noise)")
# Finite entries of extreme magnitude that overflow in the horizon lift or a
# weight's Gram matrix, or leave a finite Sigma_Y that cannot be factored:
# (fixture, field, new value, the violation line).
_OVERFLOWS = {
    "twostate-A-1e109": ("twostate", "A", lambda A: _scaled(A, 1e109),
                         "Sigma_Y at K = 3" + _OVERFLOW),
    "twostate-D-1e300": ("twostate", "D", lambda D: [[1e300, 0.0]],
                         "Sigma_S at K = 3" + _OVERFLOW),
    "twostate-W_U-1e300": ("twostate", "W_U", lambda W: 1e300,
                           "W_U^T W_U at K = 3" + _OVERFLOW),
    "reactor4-C-1e300": ("reactor4", "C", lambda C: [[0.0, 1.0, 1e300, 0.0]],
                         "Sigma_Y at K = 10" + _OVERFLOW),
    "twostate-A-1e50": ("twostate", "A", lambda A: _scaled(A, 1e50),
                        "Sigma_Y at K = 3" + _SWAMPED),
    "twostate-A-1e70": ("twostate", "A", lambda A: _scaled(A, 1e70),
                        "Sigma_Y at K = 3" + _SWAMPED),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["validate", "synthesize", "evaluate", "simulate"])
@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_an_overflowing_model_is_one_violation(capsys, scalar_artifacts, tmp_path, case,
                                               command):
    """validate builds the lifted moments and weight Gram matrices, names
    the first that is not finite and factors Sigma_Y, so no command reaches
    an overflow or a failed factorization: each exits 1 with that one line,
    and no RuntimeWarning is raised."""
    name, field, change, line = _OVERFLOWS[case]
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data[field] = change(data[field])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    out = str(tmp_path / "out")
    argv = {"validate": [], "synthesize": [out], "evaluate": [str(scalar_artifacts)],
            "simulate": [str(scalar_artifacts), out]}[command]
    assert cli_module.main([command, str(path), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"violation: {line}"]
    assert not os.path.exists(out)


def _singular_s(K):
    return (f"violation: Sigma_S at K = {K} must be positive definite in floating point "
            "(no private output may be a linear combination of the others, "
            "nor nearly one at the model's magnitudes)")


def test_a_singular_private_covariance_is_a_violation(capsys, tmp_path, twostate_report):
    """A repeated row of D makes Sigma_S singular, which leaves the leakage
    LMI no interior and the closed-form leakage no factor: synthesize and
    evaluate each exit 1 with one violation line naming it, writing
    nothing, while simulate, which needs neither, exits 0."""
    data = json.loads((FIXTURES / "twostate.json").read_text())
    data["D"] = [[1.0, 0.0], [1.0, 0.0]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert cli_module.main(["validate", str(path)]) == 0
    violation = [_singular_s(3)]
    capsys.readouterr()
    out = tmp_path / "m.json"
    assert cli_module.main(["synthesize", str(path), str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == violation
    assert not out.exists()
    mech = tmp_path / "mech.json"
    mech.write_text(json.dumps(twostate_report.mechanism.to_dict()))
    metrics = tmp_path / "metrics.json"
    assert cli_module.main(["evaluate", str(path), str(mech), "--out", str(metrics)]) == 1
    assert capsys.readouterr().err.splitlines() == violation
    assert not metrics.exists()
    assert cli_module.main(["simulate", str(path), str(mech), str(tmp_path / "s.csv"),
                            "--n-runs", "100"]) == 0


_LEAKAGE_FAILS = ("error: the leakage at K = {} cannot be computed: a covariance of the "
                  "disclosed pair (Z, S) is not positive definite in floating point")
# The corpus cases where a covariance of (Z, S) or Sigma_Z does not factor in
# floating point or the two leakage routes disagree, and the one line each
# ends in: (fixture, Sigma_x1, command) -> (id suffix, exit code, stderr line).
_SCALE_ENDS = {
    ("scalar", 1e16, "evaluate"): ("exit3", 3, _LEAKAGE_FAILS.format(2)),
    ("scalar", 1e17, "evaluate"): ("exit3", 3, _LEAKAGE_FAILS.format(2)),
    ("scalar", 1e17, "simulate"): (
        "exit3", 3, "error: the disclosed covariance Sigma_Z at K = 2 is not positive "
                    "definite in floating point"),
    ("reactor4", 1e15, "evaluate"): ("exit3", 3, _LEAKAGE_FAILS.format(10)),
    ("reactor4", 1e16, "evaluate"): ("sigma-s-line", 1, _singular_s(10)),
    ("reactor4", 1e17, "evaluate"): ("sigma-s-line", 1, _singular_s(10)),
}
_NON_FINITE = re.compile(r"\b(Infinity|NaN|inf|nan)\b")


def _scale_cases():
    for name in ("scalar", "twostate", "twostate_weighted", "reactor4"):
        for scale in (1e10, 1e15, 1e16, 1e17, 1e18):
            for command in ("validate", "evaluate", "simulate"):
                end = _SCALE_ENDS.get((name, scale, command))
                suffix = f"-{end[0]}" if end else ""
                yield pytest.param(name, scale, command, end,
                                   id=f"{name}-{scale:.0e}-{command}{suffix}".replace("e+", "e"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, scale, command, end", _scale_cases())
def test_a_model_at_scale_ends_in_one_line(capsys, mechanism_file, tmp_path, name, scale,
                                           command, end):
    """Sigma_x1 from 1e10 to 1e18, where validate goes from ok to naming
    Sigma_Y, with the fixture's own mechanism: every command exits 0 to 3,
    with one stderr line unless it exits 0, and writes no non-finite
    figure. With Sigma_V positive definite the leakage is finite, so a
    covariance of (Z, S) that does not factor is rounding (exit 3) or a
    Sigma_S that does not factor (exit 1, naming it)."""
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data["Sigma_x1"] = scale
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    mech = str(mechanism_file(name))
    argv = {"validate": [], "evaluate": [mech, "--out", str(out)],
            "simulate": [mech, str(out), "--n-runs", "2000"]}[command]
    code = cli_module.main([command, str(path), *argv])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code in (0, 1, 2, 3)
    if code:
        assert len(lines) == 1, lines
    else:
        written = captured.out + (out.read_text() if out.exists() else "")
        assert not _NON_FINITE.search(written), written
    if end is not None:
        assert (code, lines) == (end[1], [end[2]])


# The synthesize corpus cases that must solve: Sigma_x1 times 1e4 to 1e6 on
# every fixture. Beyond, a centering can stall: twostate at 1e7 and every
# fixture at 1e8 end MaxIterations, and the other fixtures at 1e7 solve.
_SYNTH_SOLVES = (1e4, 1e5, 1e6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e4, 1e5, 1e6, 1e7, 1e8],
                         ids=lambda s: f"{s:.0e}".replace("e+", "e"))
@pytest.mark.parametrize("name", ["scalar", "twostate", "twostate_weighted", "reactor4"])
def test_synthesize_at_scale_ends_in_one_line(capsys, tmp_path, name, scale):
    """Sigma_x1 times 1e4 to 1e8, models validate accepts: synthesize solves
    up to 1e6 on every fixture, and otherwise exits 0, or 3 with one stderr
    line and no mechanism written. No budget here is infeasible (exit 2)."""
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    data["Sigma_x1"] = scale * data["Sigma_x1"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "m.json"
    code = cli_module.main(["synthesize", str(path), str(out)])
    lines = capsys.readouterr().err.splitlines()
    if scale in _SYNTH_SOLVES:
        assert code == 0, lines
    assert code in (0, 3)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()
    else:
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["solver"]["status"] == "Optimal"
        assert math.isfinite(report["mi_bits"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_horizon_flag_that_overflows_is_one_violation(capsys, scalar_artifacts, tmp_path):
    """with_overrides checks the lift at a new --k: reactor4 with A times
    1e30 is finite at K = 3 and overflows at K = 10."""
    data = json.loads((FIXTURES / "reactor4.json").read_text())
    data.update(A=_scaled(data["A"], 1e30), K=3)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert cli_module.main(["validate", str(path)]) == 0
    assert cli_module.main(["evaluate", str(path), str(scalar_artifacts), "--k", "10"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "violation: Sigma_Y at K = 10 must have finite entries (the model's magnitudes overflow)"]


@pytest.mark.parametrize("command", ["evaluate", "simulate", "sweep"])
def test_a_horizon_beyond_the_inputs_is_one_violation(capsys, scalar_artifacts, tmp_path,
                                                      command):
    """with_overrides checks that U covers a new --k, so every command that
    takes one stops there with validate's line; sweep tabulates no cell."""
    scalar = str(FIXTURES / "scalar.json")
    argv = {"evaluate": ["evaluate", scalar, str(scalar_artifacts)],
            "simulate": ["simulate", scalar, str(scalar_artifacts), str(tmp_path / "s.csv")],
            "sweep": ["sweep", scalar, str(tmp_path / "s.csv"), "--eps-y-grid", "1",
                      "--eps-u-grid", "1"]}[command]
    assert cli_module.main([*argv, "--k", "3"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "violation: U must have at least K-1 = 2 entries, got 1"]
    assert not (tmp_path / "s.csv").exists()


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


@pytest.mark.parametrize("name, n_runs", [("scalar", 300), ("reactor4", 1000),
                                           ("reactor4", 1420), ("reactor4", 20000)])
def test_simulate_rerun_is_byte_identical(mechanism_file, tmp_path, name, n_runs):
    """Two processes write the same CSV on every way a batch's sum and Gram
    matrix are drawn. reactor4 at K=10 has W = 70 normals per run: 1000
    runs are batches of 50, drawn directly; 20000 runs are batches of 1000,
    drawn by the Bartlett decomposition; 1420 runs are batches of 71 = W + 1,
    whose Bartlett diagonal draws chi-square variates with 70 down to 1
    degrees of freedom, so the df < 2 branch runs too."""
    csv_path = tmp_path / "sim.csv"
    args = ("simulate", FIXTURES / f"{name}.json", mechanism_file(name), csv_path,
            "--n-runs", n_runs, "--seed", 9)
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


# sweep forks only where CPython's multiprocessing forks by default.
FORKS = os.name == "posix" and sys.platform != "darwin"
forking = pytest.mark.skipif(not FORKS, reason="sweep runs every row in this process here")


@pytest.mark.parametrize("grid_y, jobs, forks", [("1", "4", 0), ("1,2", "8", 1)],
                         ids=["one-row", "two-rows"])
def test_sweep_forks_no_more_processes_than_rows(monkeypatch, tmp_path, grid_y, jobs, forks):
    """sweep runs rows in at most one process per eps_Y row, this one
    included: it forks no child for a single row and one for two rows at
    --jobs 8. The rows equal those of --jobs 1."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    rows = {}
    for n in ("1", jobs):
        out = tmp_path / f"jobs{n}.csv"
        assert cli_module.main(["sweep", str(FIXTURES / "scalar.json"), str(out),
                                "--eps-y-grid", grid_y, "--eps-u-grid", "1",
                                "--jobs", n]) == 0
        rows[n] = out.read_text().splitlines()[1:]
    assert len(calls) == (forks if FORKS else 0)
    assert rows[jobs] == rows["1"]


def test_sweep_rows_are_the_same_in_any_number_of_processes(tmp_path):
    """reactor4's 5x5 grid at K=10 in two processes (3 + 2 rows) and in
    three (2 + 2 + 1) gives the rows of --jobs 1, byte for byte."""
    grid = "1,2,3,4,5"
    rows = {}
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert cli_module.main(["sweep", str(FIXTURES / "reactor4.json"), str(out), "--k", "10",
                                "--eps-y-grid", grid, "--eps-u-grid", "0,1,2,3,4",
                                "--jobs", jobs]) == 0
        rows[jobs] = out.read_bytes().split(b"\n", 1)[1]
    assert rows["2"] == rows["1"] and rows["3"] == rows["1"]


def test_main_leaves_the_collector_unfrozen(tmp_path):
    """Only the console entry point freezes the collector before exit; an
    in-process main, a forking sweep included, leaves no object frozen."""
    assert cli_module.main(["sweep", str(FIXTURES / "scalar.json"), str(tmp_path / "s.csv"),
                            "--eps-y-grid", "1,2", "--eps-u-grid", "1", "--jobs", "2"]) == 0
    assert gc.get_freeze_count() == 0


def _sweep_with_row(monkeypatch, tmp_path, jobs, patch):
    """main's exit code for sweep on scalar over eps_Y = 1, 2 at --jobs
    ``jobs``, where the row of each eps_Y in ``patch`` calls its function
    first. With two processes, row 1 runs here and row 2 in a child."""
    row = cli_module._sweep_row

    def patched(model, req, eps_y, grid_u):
        if eps_y in patch:
            patch[eps_y]()
        return row(model, req, eps_y, grid_u)

    monkeypatch.setattr(cli_module, "_sweep_row", patched)
    return cli_module.main(["sweep", str(FIXTURES / "scalar.json"), str(tmp_path / "s.csv"),
                            "--eps-y-grid", "1,2", "--eps-u-grid", "1", "--jobs", jobs])


def _raise(exc):
    def fail():
        raise exc
    return fail


@forking
@pytest.mark.parametrize("die, how", [
    (lambda: os._exit(9), "exit status 9"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {signal.SIGKILL.value}"),
], ids=["exit", "killed"])
def test_a_sweep_child_that_dies_is_one_line(monkeypatch, capsys, tmp_path, die, how):
    """A child that ends without sending its rows gives exit 1 and one line
    naming its rows and how it ended, and no child is left behind."""
    assert _sweep_with_row(monkeypatch, tmp_path, "2", {2.0: die}) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: the sweep process for eps_Y = 2 ended by {how} without sending its rows"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("exc, code", [
    (OSError("disk full"), 1),
    (KeyError("G_blocks"), 1),
    (InfeasibleProgram("output distortion budget infeasible"), 2),
    (SolverFailure("solver status MaxIterations"), 3),
    (FloatingPointError("the two mutual-information routes disagree"), 3),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
def test_a_sweep_childs_exception_maps_as_in_one_process(monkeypatch, capsys, tmp_path,
                                                         exc, code):
    """An exception raised in a child's row reaches main, which gives the
    exit code and line of --jobs 1."""
    lines = {}
    for jobs in ("1", "2"):
        assert _sweep_with_row(monkeypatch, tmp_path, jobs, {2.0: _raise(exc)}) == code
        lines[jobs] = capsys.readouterr().err.splitlines()
    assert len(lines["1"]) == 1 and lines["2"] == lines["1"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _NoLoads(RuntimeError):
    """Pickles, but does not unpickle: its __init__ takes no message."""

    def __init__(self):
        super().__init__("lost")


@forking
@pytest.mark.parametrize("local", [True, False], ids=["no-dumps", "no-loads"])
def test_a_sweep_childs_unpicklable_exception_is_its_text(monkeypatch, capsys, tmp_path, local):
    """An exception that will not pickle, or will not unpickle, arrives as
    an OSError with its text: exit 1 and one line."""
    class Local(RuntimeError):
        pass

    exc = Local("lost") if local else _NoLoads()
    assert _sweep_with_row(monkeypatch, tmp_path, "2", {2.0: _raise(exc)}) == 1
    assert capsys.readouterr().err.splitlines() == ["error: lost"]


@forking
def test_a_sweep_that_fails_here_kills_its_children(monkeypatch, capsys, tmp_path):
    """When a row run in this process raises, the children are killed and
    reaped at once, not waited for."""
    t0 = time.perf_counter()
    assert _sweep_with_row(monkeypatch, tmp_path, "2", {1.0: _raise(OSError("disk full")),
                                                        2.0: lambda: time.sleep(60)}) == 1
    assert time.perf_counter() - t0 < 30
    assert capsys.readouterr().err.splitlines() == ["error: disk full"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("name", [*sorted(p.name for p in FIXTURES.glob("*.json")), "large"])
def test_file_digest_is_sha256(tmp_path, name):
    """Input and artifact digests are hashlib's SHA-256, also for a file of
    several 64 KiB read chunks and a partial last one."""
    path = FIXTURES / name
    if name == "large":
        path = tmp_path / name
        path.write_bytes(bytes(range(256)) * 1024 + b"tail")
    assert cli_module._sha256_file(str(path)) == sha(path)


_DIGEST_SCRIPT = """
import hashlib, json, sys
if sys.argv[1] == "hide":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None  # no built-in SHA-256 module
from privsynth import cli, model
path = sys.argv[2]
core, manifest_hash = cli._manifest_core("synthesize", {"model": path}, {}, {})
print(json.dumps({"hashlib": model.sha256 is hashlib.sha256,
                  "file": cli._sha256_file(path),
                  "content": model.content_hash(*model.load_model(path)),
                  "manifest": manifest_hash}))
"""


def test_digests_are_the_same_through_the_hashlib_fallback():
    """Where CPython has no built-in SHA-256 module the package takes
    hashlib's, and every digest it writes stays the same."""
    path = str(FIXTURES / "reactor4.json")
    core, manifest_hash = cli_module._manifest_core("synthesize", {"model": path}, {}, {})
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"), default=str)
    assert manifest_hash == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, "hide", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "hashlib": True, "file": sha(path), "manifest": manifest_hash,
        "content": content_hash(*load_model(path))}


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


_RUN_AS_MAIN_SCRIPT = """
import json, runpy, sys, types
sys.argv = ["privsynth", *sys.argv[1:]]
try:
    runpy.run_module("privsynth.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
# A lazily loaded module is of a ModuleType subclass until its code runs.
ran = sorted(name.split(".")[1] for name, mod in sys.modules.items()
             if name.startswith("privsynth.") and name != "privsynth.cli"
             and type(mod) is types.ModuleType)
# _hashlib is the OpenSSL binding.
heavy = [name for name in ("_hashlib", "logging", "numpy.random", "concurrent.futures",
                            "multiprocessing") if name in sys.modules]
print(json.dumps({"code": code, "ran": ran, "heavy": heavy}))
"""


@pytest.mark.parametrize("argv, ran, unloaded", [
    (["validate", "{scalar}"], ["gauss", "lift", "model"],
     ["_hashlib", "logging", "numpy.random"]),
    (["synthesize", "{scalar}", "{tmp}/m.json"],
     ["gauss", "lift", "mechanism", "model", "sdp", "synth"],
     ["_hashlib", "logging", "numpy.random"]),
    (["evaluate", "{scalar}", "{mech}"], ["gauss", "lift", "mechanism", "model", "synth"],
     ["_hashlib", "logging", "numpy.random"]),
    (["simulate", "{scalar}", "{mech}", "{tmp}/s.csv", "--n-runs", "10"],
     ["gauss", "lift", "mechanism", "model", "sim"], ["_hashlib", "logging", "numpy.random"]),
    # Row 2 runs in a forked child; the parent loads the modules rows run before forking.
    (["sweep", "{scalar}", "{tmp}/s.csv", "--eps-y-grid", "1,2", "--eps-u-grid", "1",
      "--jobs", "2"], ["gauss", "lift", "mechanism", "model", "sdp", "synth"],
     ["_hashlib", "logging", "numpy.random", "concurrent.futures", "multiprocessing"]),
], ids=["validate", "synthesize", "evaluate", "simulate", "sweep"])
def test_each_command_runs_only_the_modules_it_calls(scalar_artifacts, tmp_path, argv, ran,
                                                     unloaded):
    """validate runs only the code of the model module and of the lift it
    checks (lift imports gauss); simulate adds the mechanism's and the
    simulator's but never the design's (synth) or the solver's (sdp); no
    design command runs the simulator's. No command loads OpenSSL for its
    digests, logging for its diagnostics or numpy.random for its draws."""
    argv = [a.format(scalar=FIXTURES / "scalar.json", mech=scalar_artifacts, tmp=tmp_path)
            for a in argv]
    proc = subprocess.run([sys.executable, "-c", _RUN_AS_MAIN_SCRIPT, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result.pop("heavy")).isdisjoint(unloaded), proc.stdout
    assert result == {"code": 0, "ran": ran}


_LAYERS_SCRIPT = """
import json, sys
import privsynth, privsynth.cli
layers = json.loads(sys.argv[1])
registered = [name for name in layers if name in sys.modules]
unresolved = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
              if not callable(getattr(sys.modules.get(mod), fn, None))]
unresolved += [name for name in privsynth.__all__ if not hasattr(privsynth, name)]
print(json.dumps({"registered": registered, "unresolved": unresolved}))
"""


def test_traced_layers_are_registered_by_the_cli_import():
    """perfbench's tracer wraps only modules in sys.modules after
    `import privsynth.cli`: each is there, loaded or not, and each wrapped
    function and each public name resolves. Phase 1's find_feasible was
    deleted with phase 1; the tracer reports it absent."""
    path = FIXTURES.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    proc = subprocess.run([sys.executable, "-c", _LAYERS_SCRIPT, json.dumps(spans.LAYERS)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"registered": list(spans.LAYERS),
                                       "unresolved": ["privsynth.sdp.find_feasible"]}


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
