"""Program assembly, synthesis pipeline, extraction and mechanism round trips."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from privsynth import cli as cli_module
from privsynth import gauss as gauss_module
from privsynth import lift as lift_module
from privsynth import mechanism as mechanism_module
from privsynth import sdp
from privsynth import synth as synth_module
from privsynth.lift import build_lift, output_moments
from privsynth.model import (SynthesisRequest, ValidationError, content_hash, load_model,
                             with_overrides)
from privsynth.synth import (
    InfeasibleProgram,
    Mechanism,
    SolverFailure,
    analytic_start,
    assemble_program,
    evaluate_mechanism,
    input_noise,
    load_mechanism,
    reduced_view,
    save_mechanism,
    synthesize,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def assembled(name, **overrides):
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    if overrides:
        model, req = with_overrides(model, req, **overrides)
    lift = build_lift(model, req.K)
    return model, req, lift, assemble_program(lift, model, req)


def test_constraint_set_with_finite_budgets():
    """The input noise is no variable: it enters only as the objective offset.
    Three LMIs, none on Pi or Sigma_Z alone: log det Pi keeps Pi positive
    definite. The private stack is whitened, so the leakage LMI's constant
    is I in Pi's block."""
    _, req, _, prob = assembled("twostate")
    lmi_names = [c.name for c in prob.lmis]
    assert lmi_names == ["leakage", "output_distortion_budget", "noise_floor"]
    assert set(prob.sym_vars) == {"Pi", "Sigma_Z"} and set(prob.affine_vars) == {"G"}
    assert not any(len(c.terms) == 1 for c in prob.lmis)
    NS = prob.sym_vars["Pi"].n
    leak = prob.lmis[0]
    np.testing.assert_array_equal(leak.constant[:NS, :NS], np.eye(NS))
    Sigma_H = input_noise(req)
    np.testing.assert_array_equal(prob.meta["Sigma_H"], Sigma_H)
    assert prob.objective_offset == pytest.approx(-math.log2(np.linalg.det(Sigma_H)), abs=1e-12)


def test_constraint_set_with_infinite_budgets():
    """An infinite output budget drops its distortion LMI; an infinite or zero
    input budget is rejected before any solve."""
    _, _, _, prob = assembled("scalar", eps_y=math.inf)
    assert {c.name for c in prob.lmis} == {"leakage", "noise_floor"}
    with pytest.raises(ValidationError) as exc:
        assembled("scalar", eps_u=math.inf)
    assert exc.value.report.violations == [
        "eps_U = inf makes the input-noise entropy unbounded; "
        "synthesis needs a finite input budget"]
    with pytest.raises(InfeasibleProgram) as exc:
        assembled("scalar", eps_u=0.0)
    assert exc.value.worst_constraint == "input_distortion_budget"
    assert str(exc.value) == "input distortion budget infeasible"


def test_input_noise_matches_generic_maxdet():
    """The closed form equals the generic solver's optimum of
    maximize log det S  s.t.  tr(W_U^T W_U S) <= eps_U."""
    NU, eps_u = 6, 1.7
    rng = np.random.default_rng(11)
    W_U = rng.standard_normal((NU, NU)) + 2.0 * np.eye(NU)
    assert np.linalg.matrix_rank(W_U) == NU
    req = SynthesisRequest(K=NU, eps_y=1.0, eps_u=eps_u, W_Y=np.eye(NU), W_U=W_U)

    prob = sdp.SdpProblem()
    S = prob.add_sym_var("S", NU, logdet_weight=1.0)
    M = W_U.T @ W_U
    # The budget as a 1x1 LMI: eps_U - tr(M S) = eps_U + 2 sum_a s_a v_a.
    budget = prob.add_lmi("budget", 1, constant=np.array([[eps_u]]))
    budget.add_term("S", np.zeros(S.num_params, dtype=int),
                    (-S.alpha * M[S.rows, S.cols])[:, None])
    floor = prob.add_lmi("floor", NU, constant=-1e-8 * np.eye(NU))
    floor.add_term("S", *S.basis_factors(NU))
    sol = sdp.solve(prob, init={"S": (eps_u / (2.0 * np.trace(M))) * np.eye(NU)})
    assert sol.status is sdp.SolverStatus.OPTIMAL
    np.testing.assert_allclose(sol.variables["S"], input_noise(req), atol=1e-6)


def test_program_dimensions():
    model, req, lift, prob = assembled("twostate")
    K, n_y = req.K, model.n_y
    NY, NS, NU = K * n_y, K * model.n_s, K * model.n_u
    assert prob.affine_vars["G"].num_params == K * n_y * n_y
    leak = next(c for c in prob.lmis if c.name == "leakage")
    assert leak.dim == NS + NY
    floor = next(c for c in prob.lmis if c.name == "noise_floor")
    assert floor.dim == 2 * NY
    assert prob.meta["Sigma_H"].shape == (NU, NU)
    assert prob.num_params == (sdp.sym_param_count(NS) + sdp.sym_param_count(NY)
                               + K * n_y * n_y)


def test_reduced_view_drops_the_leakage_bound():
    """The reduced view has no Pi, weights the leakage LMI's log det by 1
    and Sigma_Z's by -1, and shares every other piece of data."""
    _, _, _, prob = assembled("twostate")
    red = reduced_view(prob)
    assert set(red.sym_vars) == {"Sigma_Z"} and set(red.affine_vars) == {"G"}
    assert red.sym_vars["Sigma_Z"].logdet_weight == -1.0
    assert red.num_params == prob.num_params - prob.sym_vars["Pi"].num_params
    assert [(c.name, c.weight) for c in red.lmis] == [
        ("leakage", 1.0), ("output_distortion_budget", 0.0), ("noise_floor", 0.0)]
    for full, view in zip(prob.lmis, red.lmis):
        assert view.constant is full.constant
        assert set(view.terms) == set(full.terms) - {"Pi"}
        for name, vectors in view.terms.items():
            assert vectors is full.terms[name]
    assert red.objective_offset == prob.objective_offset and red.meta is prob.meta


@pytest.mark.parametrize("name", ["scalar", "twostate"])
def test_analytic_start_is_strictly_feasible(name):
    _, _, _, prob = assembled(name)
    red = reduced_view(prob)
    init = analytic_start(red)
    assert init is not None and set(init) == {"Sigma_Z", "G"}
    rep = sdp.check_solution(red, init, tol_psd=0.0, tol_scalar=0.0)
    assert rep.ok
    assert min(c.min_slack for c in rep.checks) > 0.0


def test_packed_leakage_bound_is_the_barrier_center():
    """Pi = Schur / (1 + mu_final): every eigenvalue of Schur^-1 Pi, with
    Schur taken from the full program's leakage LMI at the returned point,
    is 1 / (1 + mu_final); the full program certifies the point, with the
    reported objective, and the reduced solve stays within 30 Newton steps
    (the full program took about 48)."""
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    assert req.K == 10
    lift = build_lift(model, req.K)
    rep = synthesize(model, req)
    sol = rep.solution
    assert sol.newton_steps <= 30
    prob = assemble_program(lift, model, req)
    leak = next(c for c in prob.lmis if c.name == "leakage")
    NS = prob.sym_vars["Pi"].n
    x = sol.x.copy()
    x[prob.var_slice("Pi")] = 0.0
    J = sdp._lmi_matrix(prob, leak, x)
    schur = J[:NS, :NS] - J[:NS, NS:] @ np.linalg.solve(J[NS:, NS:], J[NS:, :NS])
    ratios = np.linalg.eigvals(np.linalg.solve(schur, sol.variables["Pi"]))
    np.testing.assert_allclose(ratios.real, 1.0 / (1.0 + sol.mu_final), rtol=0, atol=1e-10)
    assert np.max(np.abs(ratios.imag)) <= 1e-10
    cert = sdp.check_solution(prob, sol.x)
    assert cert.ok
    assert cert.objective == pytest.approx(sol.objective, abs=1e-12)


def test_certificate_rejects_a_leakage_bound_that_is_not_positive_definite(
        monkeypatch, capsys, tmp_path, twostate_case):
    """No LMI states Pi > 0: it is the domain of the objective -log2 det Pi.
    A packed Pi shrunk by a multiple of I to a matrix with a negative
    eigenvalue still meets the leakage LMI (I - Pi only grows), so the
    certificate passes its checks with objective inf, and synthesize refuses
    the answer by naming Pi: SolverFailure in process, exit 3 with one line
    from the CLI, and no mechanism written."""
    real = synth_module._conditional_cov

    def shrunk(*blocks):
        schur = real(*blocks)
        return schur - (np.linalg.eigvalsh(schur)[0] + 1e-6) * np.eye(schur.shape[0])

    monkeypatch.setattr(synth_module, "_conditional_cov", shrunk)
    model, req = twostate_case
    line = "the packed leakage bound Pi is not positive definite (certified objective inf)"
    with pytest.raises(SolverFailure) as exc:
        synthesize(model, req)
    assert str(exc.value) == line
    sol = exc.value.solution
    assert sol.status is sdp.SolverStatus.NUMERICAL_FAILURE
    assert np.linalg.eigvalsh(sol.variables["Pi"])[0] < 0.0
    cert = sdp.check_solution(assemble_program(build_lift(model, req.K), model, req), sol.x)
    assert cert.ok and cert.objective == sol.objective == math.inf

    out = tmp_path / "m.json"
    assert cli_module.main(["synthesize", str(FIXTURES / "twostate.json"), str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not out.exists()


def scaled(model, req, s):
    """The same system in other units: every covariance times s, the means
    and inputs times sqrt(s), the budgets times s. The information figures
    do not change."""
    model = dataclasses.replace(model, mu_x1=math.sqrt(s) * model.mu_x1,
                                Sigma_x1=s * model.Sigma_x1, Sigma_T=s * model.Sigma_T,
                                Sigma_W=s * model.Sigma_W, U=math.sqrt(s) * model.U)
    return model, dataclasses.replace(req, eps_y=s * req.eps_y, eps_u=s * req.eps_u)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e4])
def test_packed_point_certified_at_scale(scale):
    """With every noise covariance scaled up, the full certificate of the
    reported point stays clean: at eps_Y = inf, the closed-form point with
    no Newton step and no leakage, and at eps_Y = 2 * scale, the packed
    point of the barrier solve."""
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    model, req = with_overrides(model, req, eps_u=2.0)
    model = dataclasses.replace(model, Sigma_x1=scale * model.Sigma_x1,
                                Sigma_T=scale * model.Sigma_T, Sigma_W=scale * model.Sigma_W)
    lift = build_lift(model, req.K)
    for eps_y in (math.inf, 2.0 * scale):
        r = dataclasses.replace(req, eps_y=eps_y)
        rep = synthesize(model, r)
        cert = sdp.check_solution(assemble_program(lift, model, r), rep.solution.x)
        assert cert.ok, eps_y
        assert rep.solver["max_psd_violation"] == cert.max_psd_violation <= sdp.CERT_TOL
        if math.isinf(eps_y):
            assert rep.solver["newton_steps"] == 0 and rep.mi_bits == 0.0


@pytest.mark.parametrize("name", ["twostate", "reactor4", "scalar", "twostate_weighted"])
def test_information_does_not_depend_on_units(name):
    """The program sees the private stack whitened, and the noise floor
    delta = 1e-8 min(eps_Y, pure_noise) / tr(W_Y^T W_Y) scales with the
    budgets and Sigma_Y, so a change of units changes no number the solver
    reads: for covariances scaled by 1e-4 to 1e4 the leakage agrees to
    1e-12 bits, the Newton step count is the same, and every certificate is
    clean."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    mi, steps = [], set()
    for s in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        m, r = scaled(model, req, s)
        lift = build_lift(m, r.K)
        rep = synthesize(m, r)
        assert sdp.check_solution(assemble_program(lift, m, r), rep.solution.x).ok, s
        mi.append(rep.mi_bits)
        steps.add(rep.solver["newton_steps"])
    assert max(mi) - min(mi) <= 1e-12, mi
    assert len(steps) == 1, steps


def _certified(model, req):
    """synthesize's report on req, with its certificate checked again on the
    full program and its output distortion within eps_Y."""
    rep = synthesize(model, req)
    assert rep.solver["status"] == "Optimal"
    assert rep.solver["max_psd_violation"] <= sdp.CERT_TOL
    assert sdp.check_solution(assemble_program(build_lift(model, req.K), model, req),
                              rep.solution.x).ok
    assert rep.distortion_Y <= req.eps_y * (1 + 1e-6)
    return rep


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_output_budget_threshold(name, tmp_path, capsys):
    """The noise floor spends 1e-8 of the output budget, so the program is
    strictly feasible at every eps_Y > 0: at eps_Y = 0 synthesize blames the
    output budget, and the command line exits 2 with one line that names
    it; at eps_Y = 1e-12 the pass-through start solves to a clean
    certificate within the budget."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    with pytest.raises(InfeasibleProgram) as exc:
        synthesize(model, dataclasses.replace(req, eps_y=0.0))
    assert exc.value.worst_constraint == "output_distortion_budget"
    assert "\n" not in str(exc.value)

    rc = cli_module.main(["synthesize", str(FIXTURES / f"{name}.json"),
                          str(tmp_path / "m.json"), "--eps-y", "0"])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: output distortion budget"), lines
    assert not (tmp_path / "m.json").exists()

    _certified(model, dataclasses.replace(req, eps_y=1e-12))


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_feasibility_threshold_is_sharp(name):
    """At the small end of the budgets float64 resolves, eps_Y = 1e-12 and
    1e-9, the solve ends with a clean certificate within the budget, with
    every decrement finite. The noise floor takes 1e-8 of eps_Y, and the
    output noise stays above it."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    for eps_y in (1e-12, 1e-9):
        rep = _certified(model, dataclasses.replace(req, eps_y=eps_y))
        assert all(math.isfinite(r.decrement) for r in rep.solution.iterations)
        assert rep.flags["min_eig_Sigma_V"] > 1e-8 * eps_y / float(np.trace(req.W_Y.T @ req.W_Y))


@pytest.mark.parametrize("eps_y", [1e-15, 1e-300])
@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_a_budget_below_the_rounding_is_one_line(name, eps_y, tmp_path, capsys):
    """A budget that tr(W_Y^T W_Y Sigma_Y)'s rounding swamps leaves the
    pass-through start outside the domain in floating point: the command
    line exits 3 with one line that names eps_Y and that trace, and a sweep
    cell reads NumericalFailure."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    lift = build_lift(model, req.K)
    mom = output_moments(lift, model)
    tr_wy = float(np.sum(mom.Sigma_Y * (req.W_Y.T @ req.W_Y)))
    path, out = str(FIXTURES / f"{name}.json"), tmp_path / "m.json"
    assert cli_module.main(["synthesize", path, str(out), "--eps-y", repr(eps_y)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: eps_Y = {eps_y:.3g} is below the rounding of "
                               f"tr(W_Y^T W_Y Sigma_Y) = {tr_wy:.6g}: "
                               "start point outside domain (lmi "), lines
    assert not out.exists()
    csv = tmp_path / "sweep.csv"
    assert cli_module.main(["sweep", path, str(csv), "--eps-y-grid", repr(eps_y),
                            "--eps-u-grid", "1"]) == 0
    assert csv.read_text().splitlines()[-1].endswith(",NumericalFailure")


def _pure_noise_budget(model, req):
    """eps_zero = pure_noise (1 + 1e-8), pure_noise = tr(W_Y^T W_Y Sigma_Y) +
    |W_Y mu_Y|^2: the output distortion of G = 0 with the noise at its floor,
    which spends 1e-8 of pure_noise there."""
    mom = output_moments(build_lift(model, req.K), model)
    return (1 + 1e-8) * (float(np.trace(req.W_Y.T @ req.W_Y @ mom.Sigma_Y))
                         + float(np.sum((req.W_Y @ mom.mu_Y) ** 2)))


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_budgets_above_eps_zero_take_the_closed_form(name, tmp_path, capsys):
    """Above eps_zero, disclosing pure noise fits the budget and leaks
    nothing: synthesize exits 0 with mi_bits exactly 0 and no Newton step,
    at 1.01 eps_zero and at 1e10, with a clean certificate and the budget
    met; just below eps_zero the solve leaks a little more than nothing."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    eps_zero = _pure_noise_budget(model, req)
    lift = build_lift(model, req.K)
    for i, eps_y in enumerate((1.01 * eps_zero, 1e10)):
        r = dataclasses.replace(req, eps_y=eps_y)
        rep = synthesize(model, r)
        assert rep.mi_bits == 0.0 and rep.solver["newton_steps"] == 0, eps_y
        assert rep.solution.iterations == []
        assert sdp.check_solution(assemble_program(lift, model, r), rep.solution.x).ok
        assert eps_zero < rep.distortion_Y < eps_y
        np.testing.assert_array_equal(rep.mechanism.Gtilde, 0.0)

        assert cli_module.main(["synthesize", str(FIXTURES / f"{name}.json"),
                                str(tmp_path / f"m{i}.json"), "--eps-y", repr(eps_y)]) == 0
        assert json.loads((tmp_path / f"m{i}.report.json").read_text())["mi_bits"] == 0.0
    capsys.readouterr()
    below = synthesize(model, dataclasses.replace(req, eps_y=0.99 * eps_zero))
    assert below.mi_bits > 0.0 and below.solver["newton_steps"] > 0


def test_invalid_request_is_a_validation_error(scalar_case):
    """synthesize validates its request in process: a negative budget
    raises ValidationError with the budget rule's line, before any solve."""
    model, req = scalar_case
    with pytest.raises(ValidationError) as exc:
        synthesize(model, dataclasses.replace(req, eps_y=-1.0))
    assert exc.value.report.violations == ["eps_Y must be a nonnegative real or inf, got -1.0"]


def test_outer_iteration_limit_is_a_solver_failure(monkeypatch, twostate_case):
    """A solve that runs out of centerings is no answer: synthesize raises
    SolverFailure carrying the MaxIterations solution."""
    monkeypatch.setattr(sdp, "MAX_OUTER", 1)
    with pytest.raises(SolverFailure, match="^solver status MaxIterations: ") as exc:
        synthesize(*twostate_case)
    assert exc.value.solution.status is sdp.SolverStatus.MAX_ITERATIONS


def _direct_distortion_Y(req, mom, mech):
    """tr(W_Y^T W_Y [(G - I) Sigma_Y (G - I)^T + Sigma_V]) + |W_Y (G - I) mu_Y|^2:
    E|W_Y (Z - Y)|^2 from Z - Y = (G - I) Y + V, with no Sigma_Z in it."""
    D = mech.Gtilde - np.eye(mech.Gtilde.shape[0])
    mean = req.W_Y @ (D @ mom.mu_Y)
    cov = D @ mom.Sigma_Y @ D.T + mech.Sigma_V
    return float(np.trace(req.W_Y @ cov @ req.W_Y.T) + mean @ mean)


def test_weighted_output_budget_is_the_true_distortion():
    """With a per-step W_Y that is neither symmetric nor the identity, the
    budget bounds E|W_Y (Z - Y)|^2 itself. The report's distortion_Y equals
    the (G - I) route and stays within eps_Y at 1, 2 and 4; evaluate equals
    the route for a random mechanism; and at that mechanism the budget LMI's
    Schur complement is eps_Y less the route. With G's cross term
    transposed, the mechanism certified at eps_Y = 2 distorted by 2.06."""
    model, req = load_model(str(FIXTURES / "twostate_weighted.json"))
    assert not np.allclose(req.W_Y, req.W_Y.T)
    lift = build_lift(model, req.K)
    mom = output_moments(lift, model)
    for eps_y in (1.0, 2.0, 4.0):
        rep = synthesize(model, dataclasses.replace(req, eps_y=eps_y))
        assert rep.distortion_Y == pytest.approx(
            _direct_distortion_Y(req, mom, rep.mechanism), rel=1e-9), eps_y
        assert rep.distortion_Y <= eps_y * (1 + 1e-6)

    rng = np.random.default_rng(3)
    NY, n_y = req.K * model.n_y, model.n_y
    A = rng.standard_normal((NY, NY))
    mech = Mechanism(G_blocks=list(rng.standard_normal((req.K, n_y, n_y))),
                     Sigma_V=A @ A.T + np.eye(NY), Sigma_H=input_noise(req))
    direct = _direct_distortion_Y(req, mom, mech)
    assert evaluate_mechanism(model, req, mech).distortion_Y == pytest.approx(direct, rel=1e-12)

    prob = assemble_program(lift, model, req)
    budget = next(c for c in prob.lmis if c.name == "output_distortion_budget")
    Gt = mech.Gtilde
    x = prob.pack({"Pi": np.eye(prob.sym_vars["Pi"].n),
                   "Sigma_Z": Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V,
                   "G": np.ravel(mech.G_blocks)})
    S = sdp._lmi_matrix(prob, budget, x)
    np.testing.assert_array_equal(S[1:, 1:], np.eye(S.shape[0] - 1))
    assert req.eps_y - (S[0, 0] - S[1:, 0] @ S[1:, 0]) == pytest.approx(direct, rel=1e-12)


def test_rejected_packed_point_is_a_solver_failure(monkeypatch, scalar_case):
    """A packed leakage bound the full program rejects is no Optimal answer:
    with Pi twice its closed form the leakage LMI fails, and ``synthesize``
    raises SolverFailure with a NumericalFailure solution."""
    real = synth_module._conditional_cov
    monkeypatch.setattr(synth_module, "_conditional_cov", lambda *blocks: 2.0 * real(*blocks))
    model, req = scalar_case
    with pytest.raises(SolverFailure, match="rejects the packed leakage bound") as exc:
        synthesize(model, req)
    assert exc.value.solution.status is sdp.SolverStatus.NUMERICAL_FAILURE
    prob = assemble_program(build_lift(model, req.K), model, req)
    assert sdp.check_solution(prob, exc.value.solution.x).max_psd_violation > sdp.CERT_TOL


@pytest.mark.parametrize("eps_y", [None, math.inf], ids=["own-budget", "inf"])
def test_one_certificate_per_answer(monkeypatch, eps_y):
    """synthesize certifies its answer once, on the full program with Pi:
    neither the start nor the reduced solve is certified apart."""
    calls = []
    real = sdp.check_solution

    def counting(problem, x, *args, **kwargs):
        calls.append(set(problem.sym_vars))
        return real(problem, x, *args, **kwargs)

    monkeypatch.setattr(sdp, "check_solution", counting)
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    if eps_y is not None:
        req = dataclasses.replace(req, eps_y=eps_y)
    assert synthesize(model, req).solver["status"] == "Optimal"
    assert calls == [{"Pi", "Sigma_Z"}]


@pytest.mark.parametrize("name, eps_y", [
    ("scalar", None), ("twostate", None), ("reactor4", None), ("reactor4", math.inf),
], ids=["scalar", "twostate", "reactor4", "reactor4-inf"])
def test_reported_objective_is_the_certificates(name, eps_y):
    """The reported objective is the one the certificate computes on the
    full program at the reported point, bit for bit, for the packed point of
    a solve and for the closed form at eps_Y = inf."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    if eps_y is not None:
        req = dataclasses.replace(req, eps_y=eps_y)
    lift = build_lift(model, req.K)
    rep = synthesize(model, req)
    cert = sdp.check_solution(assemble_program(lift, model, req), rep.solution.x)
    assert rep.solution.objective == cert.objective
    assert rep.solver["objective"] == cert.objective


def test_solve_reports_its_last_iterate():
    """sdp.solve reports the objective its loop measured: the last logged
    iterate's plus the constant offset, bit for bit, with no second route."""
    _, _, _, prob = assembled("reactor4")
    red = reduced_view(prob)
    sol = sdp.solve(red, init=analytic_start(red))
    assert sol.status is sdp.SolverStatus.OPTIMAL and sol.iterations
    assert sol.objective == sol.iterations[-1].objective + red.objective_offset
    f = sol.iterations[-1].objective * math.log(2.0)
    assert sol.duality_measure == pytest.approx(
        sol.mu_final * sum(c.dim for c in red.lmis) / max(1.0, abs(f)), rel=1e-12)
    assert sol.duality_measure <= sdp.TOL_GAP


@pytest.mark.parametrize("name", ["reactor4", "twostate"])
def test_default_stop_is_near_the_tight_answer(monkeypatch, name):
    """With S whitened the reduced objective is twice the leakage in nats,
    so the stop mu nu / max(1, |f|) <= TOL_GAP bounds an absolute gap: the
    leakage at the default stop lies within 2e-8 bits of the answer at
    TOL_GAP = 1e-11 (7.2e-9 on reactor4 and 2.9e-9 on twostate; 7.1e-8 and
    2.9e-8 with S in its own units)."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    default = synthesize(model, req).mi_bits
    monkeypatch.setattr(sdp, "TOL_GAP", 1e-11)
    tight = synthesize(model, req).mi_bits
    assert 0.0 <= default - tight <= 2e-8, (default, tight)


def test_output_budget_binds_on_reactor4(reactor_case):
    """reactor4's output budget binds at its optimum, and the report says
    so at the default stop: the distortion is within BUDGET_ACTIVE_RTOL of
    eps_Y (slack 1.1e-5 of it; 1.1e-4 with S in its own units, and the flag
    then read false)."""
    model, req = reactor_case
    rep = synthesize(model, req)
    assert rep.flags["budget_Y_active"]
    assert 0.0 < req.eps_y - rep.distortion_Y <= 0.2 * synth_module.BUDGET_ACTIVE_RTOL * req.eps_y


def test_output_moments_once_per_call(monkeypatch, scalar_case):
    """synthesize computes the output moments once for its program, besides
    the check of validate that it runs first; evaluate_mechanism once."""
    calls = []
    real = lift_module.output_moments

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(lift_module, "output_moments", counting)
    monkeypatch.setattr(synth_module, "output_moments", counting)
    model, req = scalar_case
    rep = synthesize(model, req)
    assert len(calls) == 2
    calls.clear()
    evaluate_mechanism(model, req, rep.mechanism)
    assert len(calls) == 1


def test_evaluate_factors_each_covariance_once(monkeypatch, reactor_case):
    """evaluate_mechanism on reactor4 makes 5 Cholesky factorizations:
    Sigma_H for its entropy, then the four of mutual_information, Sigma_Z,
    Sigma_S, the conditional covariance and the joint, which factors
    Sigma_S once for both its routes."""
    model, req = reactor_case
    rep = synthesize(model, req)
    calls = []
    for module in (gauss_module, mechanism_module, synth_module):
        def counting(M, real=module.cholesky):
            calls.append(1)
            return real(M)
        monkeypatch.setattr(module, "cholesky", counting)
    evaluate_mechanism(model, req, rep.mechanism)
    assert len(calls) == 5


def test_separable_case_closed_form():
    """With eps_Y = inf the input noise decouples: Sigma_H = (eps_U/NU) I."""
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    model, req = with_overrides(model, req, eps_y=math.inf, eps_u=2.0)
    rep = synthesize(model, req)
    NU = req.K * model.n_u
    np.testing.assert_allclose(rep.mechanism.Sigma_H, (2.0 / NU) * np.eye(NU),
                               rtol=1e-6, atol=1e-9)
    assert rep.entropy_H_bits == pytest.approx(
        0.5 * NU * math.log2(2 * math.pi * math.e * 2.0 / NU), abs=1e-6)


def test_extraction_identity(scalar_report, scalar_case):
    """The extracted noise covariance reproduces the disclosed covariance."""
    model, req = scalar_case
    mech = scalar_report.mechanism
    lift = build_lift(model, req.K)
    Sigma_Y = output_moments(lift, model).Sigma_Y
    Gt = mech.Gtilde
    recon = Gt @ Sigma_Y @ Gt.T + mech.Sigma_V
    Sigma_Z = scalar_report.solution.variables["Sigma_Z"]
    assert np.linalg.norm(recon - Sigma_Z) <= 1e-8 * np.linalg.norm(Sigma_Z)
    assert scalar_report.flags["min_eig_Sigma_V"] > 0.0


def test_evaluate_matches_report(scalar_report, scalar_case):
    model, req = scalar_case
    metrics = evaluate_mechanism(model, req, scalar_report.mechanism)
    assert metrics.mi_bits == pytest.approx(scalar_report.mi_bits, abs=1e-9)
    assert metrics.entropy_H_bits == pytest.approx(scalar_report.entropy_H_bits, abs=1e-9)
    assert metrics.cost_bits == pytest.approx(scalar_report.cost_bits, abs=1e-9)
    assert metrics.distortion_Y == pytest.approx(scalar_report.distortion_Y, abs=1e-9)
    assert metrics.distortion_U == pytest.approx(scalar_report.distortion_U, abs=1e-9)


def test_cost_identity(scalar_report):
    """cost = leakage information minus the entropy credit of the input noise."""
    assert scalar_report.cost_bits == pytest.approx(
        scalar_report.mi_bits - scalar_report.entropy_H_bits, abs=1e-6)
    assert scalar_report.solver["cost_reconciliation_bits"] == pytest.approx(0.0, abs=1e-6)


def test_budgets_active_at_optimum(scalar_report, scalar_case):
    _, req = scalar_case
    assert scalar_report.flags["budget_Y_active"]
    assert scalar_report.flags["budget_U_active"]
    assert scalar_report.distortion_Y == pytest.approx(req.eps_y, rel=1e-4)
    assert scalar_report.distortion_U == pytest.approx(req.eps_u, rel=1e-4)
    assert scalar_report.flags["singular_output_blocks"] == []


def test_report_serialization(scalar_report):
    doc = scalar_report.to_dict()
    json.dumps(doc)
    assert "mechanism" not in doc and "solution" not in doc
    assert doc["solver"]["status"] == "Optimal"


def test_provenance_records_inputs(scalar_report, scalar_case):
    model, req = scalar_case
    prov = scalar_report.mechanism.provenance
    assert prov["model_hash"] == content_hash(model, req)
    assert prov["K"] == req.K
    assert prov["eps_Y"] == req.eps_y and prov["eps_U"] == req.eps_u
    assert prov["solver_status"] == "Optimal"


def test_mechanism_round_trip(tmp_path, scalar_report):
    mech = scalar_report.mechanism
    path = tmp_path / "mech.json"
    save_mechanism(mech, str(path))
    back = load_mechanism(str(path))
    assert back.K == mech.K and back.n_y == mech.n_y
    np.testing.assert_array_equal(back.Gtilde, mech.Gtilde)
    np.testing.assert_array_equal(back.Sigma_V, mech.Sigma_V)
    np.testing.assert_array_equal(back.Sigma_H, mech.Sigma_H)
    assert back.provenance == mech.provenance


def test_mechanism_rejects_indefinite_noise():
    from privsynth.synth import ExtractionFailure
    with pytest.raises(ExtractionFailure):
        Mechanism(G_blocks=[np.eye(1), np.eye(1)],
                  Sigma_V=np.diag([1.0, -1.0]), Sigma_H=np.eye(2))


def test_infeasible_budget_is_blamed():
    model, req = load_model(str(FIXTURES / "eps_u_zero.json"))
    with pytest.raises(InfeasibleProgram) as exc:
        synthesize(model, req)
    assert exc.value.worst_constraint == "input_distortion_budget"
    assert "input distortion budget infeasible" in str(exc.value)


def test_tight_budgets_still_solve():
    """Small but positive budgets stay feasible via the pass-through start."""
    model, req = load_model(str(FIXTURES / "scalar.json"))
    model, req = with_overrides(model, req, eps_y=1e-4, eps_u=1e-4)
    rep = synthesize(model, req)
    assert rep.solver["status"] == "Optimal"
    assert rep.distortion_Y <= 1e-4 * (1 + 1e-6)
    # Nearly lossless disclosure: the leakage approaches the no-mechanism MI.
    assert rep.mi_bits > 0.5
