"""Barrier solver on tiny programs with known optima, plus its certificates."""

import copy
import dataclasses
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from privsynth import sdp
from privsynth.lift import build_lift
from privsynth.model import load_model, with_overrides
from privsynth.sdp import (
    SdpProblem,
    SolverStatus,
    check_solution,
    matrix_to_sym_params,
    solve,
    sym_param_count,
    sym_param_indices,
)
from privsynth.synth import analytic_start, assemble_program, reduced_view, synthesize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def add_floor(prob, name, margin=1e-8):
    """The floor X >= margin I on a symmetric variable, as an LMI."""
    v = prob.sym_vars[name]
    floor = prob.add_lmi(f"{name}_floor", v.n, constant=-margin * np.eye(v.n))
    floor.add_term(name, *v.basis_factors(v.n))


def scalar_cap_problem(cap=4.0, margin=1e-8):
    """maximize log2 x  s.t.  x <= cap, x >= margin, both as 1x1 LMIs."""
    prob = SdpProblem()
    x = prob.add_sym_var("x", 1, logdet_weight=1.0)
    prob.add_lmi("cap", 1, constant=np.array([[cap]])).add_term(
        "x", *x.basis_factors(1, sign=-1.0))
    add_floor(prob, "x", margin)
    return prob


def trace_cap_problem(n=2, cap=3.0):
    """maximize log2 det X  s.t.  tr X <= cap; optimum X = (cap/n) I."""
    prob = SdpProblem()
    prob.add_sym_var("X", n, logdet_weight=1.0)
    rows, cols = sym_param_indices(n)
    # A 1x1 LMI adds 2 x_k v_k, so v_k is half the coefficient -[i == j].
    vectors = np.where(rows == cols, -0.5, 0.0)[:, None]
    prob.add_lmi("trace_cap", 1, constant=np.array([[cap]])).add_term(
        "X", np.zeros(rows.size, dtype=int), vectors)
    add_floor(prob, "X")
    return prob


def lmi_cap_problem(n=2):
    """maximize log2 det X  s.t.  X <= I; optimum X = I."""
    prob = SdpProblem()
    prob.add_sym_var("X", n, logdet_weight=1.0)
    rows, cols = sym_param_indices(n)
    # -E_a is the rank-2 placement with hub row i and vector -alpha_a e_j.
    vectors = -np.eye(n)[cols] * np.where(rows == cols, 0.5, 1.0)[:, None]
    con = prob.add_lmi("upper_cap", n, constant=np.eye(n))
    con.add_term("X", rows, vectors)
    add_floor(prob, "X")
    return prob


def test_sym_param_round_trip():
    rng = np.random.default_rng(3)
    X = sdp.SymVariable("X", 5, logdet_weight=1.0, offset=0)
    M = rng.standard_normal((5, 5))
    M = 0.5 * (M + M.T)
    np.testing.assert_allclose(X.matrix(matrix_to_sym_params(M)), M, atol=1e-14)
    params = rng.standard_normal(sym_param_count(5))
    np.testing.assert_allclose(matrix_to_sym_params(X.matrix(params)), params,
                               atol=1e-14)


def test_scalar_cap_optimum():
    sol = solve(scalar_cap_problem(), init={"x": np.array([[1.0]])})
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.variables["x"][0, 0] == pytest.approx(4.0, rel=1e-6)
    assert sol.objective == pytest.approx(-2.0, abs=1e-6)


def test_trace_cap_optimum():
    sol = solve(trace_cap_problem(), init={"X": 0.5 * np.eye(2)})
    assert sol.status is SolverStatus.OPTIMAL
    np.testing.assert_allclose(sol.variables["X"], 1.5 * np.eye(2), atol=1e-5)
    assert sol.objective == pytest.approx(-2.0 * math.log2(1.5), abs=1e-6)


def test_lmi_cap_optimum():
    sol = solve(lmi_cap_problem(), init={"X": 0.5 * np.eye(2)})
    assert sol.status is SolverStatus.OPTIMAL
    np.testing.assert_allclose(sol.variables["X"], np.eye(2), atol=1e-5)
    assert sol.objective == pytest.approx(0.0, abs=1e-6)


def test_iteration_log_deterministic():
    """Identical problems and starts give bit-identical iteration logs."""
    sols = [solve(trace_cap_problem(), init={"X": 0.5 * np.eye(2)}) for _ in range(2)]
    a, b = sols
    assert a.newton_steps == b.newton_steps
    assert len(a.iterations) == len(b.iterations)
    for ra, rb in zip(a.iterations, b.iterations):
        assert ra.mu == rb.mu
        assert ra.objective == rb.objective
        assert ra.decrement == rb.decrement


def test_check_solution_flags_violation():
    prob = scalar_cap_problem()
    bad = check_solution(prob, {"x": np.array([[5.0]])})
    assert not bad.ok
    assert bad.max_psd_violation == pytest.approx(1.0, abs=1e-12)
    cap_check = next(c for c in bad.checks if c.name == "cap")
    assert cap_check.min_slack == pytest.approx(-1.0, abs=1e-12)
    good = check_solution(prob, {"x": np.array([[3.0]])})
    assert good.ok
    assert good.objective == pytest.approx(-math.log2(3.0), abs=1e-9)


def test_check_solution_flags_psd_violation():
    prob = lmi_cap_problem()
    bad = check_solution(prob, {"X": np.array([[2.0, 0.0], [0.0, 0.5]])})
    assert not bad.ok
    assert bad.max_psd_violation == pytest.approx(1.0, abs=1e-9)


def test_an_uncentered_stop_is_not_optimal(monkeypatch):
    """With one Newton step per centering the duality measure falls below
    TOL_GAP at a point whose last centering did not pass its test: X =
    diag(0.83, 2.17) at objective -0.848, where the optimum is 1.5 I at
    -1.170. The run ends MaxIterations, not Optimal."""
    monkeypatch.setattr(sdp, "MAX_INNER", 1)
    sol = solve(trace_cap_problem(), init={"X": np.diag([0.2, 2.7])})
    assert sol.status is SolverStatus.MAX_ITERATIONS
    assert sol.message == "the last centering ended before its test passed"
    assert sol.duality_measure <= sdp.TOL_GAP
    assert sol.objective == pytest.approx(-0.848, abs=1e-3)


def test_step_that_does_not_lower_psi_ends_the_centering(monkeypatch):
    """A line search that accepts a step which does not lower psi ends the
    centering at the x it had, uncentered, and no predictor trial follows.
    ARMIJO below zero accepts the first trial in the domain, and with the
    Newton direction reversed psi rises along it (psi is convex and the
    direction ascends), so the first trial is that step. Under MAX_OUTER = 1
    the run records no move, where the unforced run records its Newton
    steps and one predictor move; under TOL_GAP = inf it ends on the
    uncentered stop, where the unforced run is Optimal."""
    real = sdp._solve_newton

    def ascending(hess, grad):
        L, w = real(hess, grad)
        return L, -w

    def run(forced, **constants):
        with monkeypatch.context() as m:
            for name, value in constants.items():
                m.setattr(sdp, name, value)
            if forced:
                m.setattr(sdp, "ARMIJO", -math.inf)
                m.setattr(sdp, "_solve_newton", ascending)
            return solve(trace_cap_problem(), init={"X": np.diag([0.2, 2.7])})

    free = run(False, MAX_OUTER=1)
    assert free.newton_steps > 0 and len(free.iterations) == free.newton_steps + 1
    sol = run(True, MAX_OUTER=1)
    assert sol.status is SolverStatus.MAX_ITERATIONS
    assert sol.message == "outer iteration limit reached"
    assert sol.newton_steps == 0 and sol.iterations == []
    np.testing.assert_array_equal(sol.variables["X"], np.diag([0.2, 2.7]))

    assert run(False, TOL_GAP=math.inf).status is SolverStatus.OPTIMAL
    sol = run(True, TOL_GAP=math.inf)
    assert sol.status is SolverStatus.MAX_ITERATIONS
    assert sol.message == "the last centering ended before its test passed"
    assert sol.newton_steps == 0 and sol.iterations == []


def test_outer_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_OUTER", 2)
    monkeypatch.setattr(sdp, "TOL_GAP", 1e-30)
    sol = solve(trace_cap_problem(), init={"X": 0.5 * np.eye(2)})
    assert sol.status is SolverStatus.MAX_ITERATIONS
    assert math.isfinite(sol.objective)


def test_strict_init_is_used():
    """The run starts at the given strictly feasible init and reaches the
    optimum from there."""
    prob = trace_cap_problem()
    sol = solve(prob, init=prob.pack({"X": np.diag([0.2, 2.7])}))
    assert sol.status is SolverStatus.OPTIMAL
    assert sol.objective == pytest.approx(-2.0 * math.log2(1.5), abs=1e-6)


@pytest.mark.parametrize("X", [np.diag([2.0, 2.0]), np.diag([1.0, 0.0])],
                         ids=["over-cap", "on-floor"])
def test_start_outside_the_domain_is_a_failure(X):
    """An init that is not strictly feasible ends the run at once: no
    Newton step, status NumericalFailure, and the start is returned."""
    prob = trace_cap_problem()
    sol = solve(prob, init={"X": X})
    assert sol.status is SolverStatus.NUMERICAL_FAILURE
    assert "start point outside domain" in sol.message
    assert sol.newton_steps == 0 and sol.iterations == []
    np.testing.assert_array_equal(sol.variables["X"], X)


def test_newton_system_that_does_not_factor_is_a_failure(monkeypatch):
    """A Newton system that will not factor ends the run at once: status
    NumericalFailure, no Newton step, and the start is returned."""
    monkeypatch.setattr(sdp, "_solve_newton", lambda hess, grad: None)
    X = np.diag([0.2, 2.7])
    sol = solve(trace_cap_problem(), init={"X": X})
    assert sol.status is SolverStatus.NUMERICAL_FAILURE
    assert sol.message == "Newton system factorization failed"
    assert sol.newton_steps == 0
    np.testing.assert_array_equal(sol.variables["X"], X)


def test_line_search_without_a_trial_is_a_failure(monkeypatch):
    """With no backtracking trial allowed the first Newton step cannot be
    taken: status NumericalFailure, and the start is returned."""
    monkeypatch.setattr(sdp, "MAX_BACKTRACKS", 0)
    X = np.diag([0.2, 2.7])
    sol = solve(trace_cap_problem(), init={"X": X})
    assert sol.status is SolverStatus.NUMERICAL_FAILURE
    assert sol.message == "line search failed to make progress"
    assert sol.newton_steps == 0
    np.testing.assert_array_equal(sol.variables["X"], X)


def test_weighted_lmi_objective():
    """maximize log2 det(I - X) + log2 det X: the LMI weight puts the cap's
    slack into the objective, and the optimum is X = I/2."""
    prob = lmi_cap_problem()
    prob.lmis[0].weight = 1.0
    sol = solve(prob, init={"X": 0.25 * np.eye(2)})
    assert sol.status is SolverStatus.OPTIMAL
    np.testing.assert_allclose(sol.variables["X"], 0.5 * np.eye(2), atol=1e-6)
    assert sol.objective == pytest.approx(4.0, abs=1e-6)
    assert check_solution(prob, sol.x).objective == pytest.approx(sol.objective, abs=1e-12)
    with pytest.raises(ValueError, match="weight"):
        SdpProblem().add_lmi("c", 2, weight=-1.0)


def test_add_term_rejects_bad_input():
    con = SdpProblem().add_lmi("c", 3)
    with pytest.raises(ValueError, match="must be"):
        con.add_term("X", [0, 1], np.zeros((2, 4)))      # vectors not (p, dim)
    with pytest.raises(ValueError, match="one hub row"):
        con.add_term("X", [0], np.zeros((2, 3)))         # rows and vectors disagree
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        con.add_term("X", [0, 3], np.zeros((2, 3)))      # hub row out of range
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        con.add_term("X", [-1, 0], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="integers"):
        con.add_term("X", [0.0, 1.0], np.zeros((2, 3)))
    assert con.terms == {} and con.rows == {}


def _dense_logdet_newton(plan, x, mu):
    """Gradient and Hessian of the weighted -log det terms from explicit
    matrices: an LMI with weight w and term matrices T_k gives
    g_k = -(w + mu) tr(S^-1 T_k), H_kl = (w + mu) tr(S^-1 T_k S^-1 T_l); a
    symmetric variable with logdet weight w and basis E_a gives
    g_a = -w tr(X^-1 E_a), H_ab = w tr(X^-1 E_a X^-1 E_b)."""
    grad = np.zeros(plan.n)
    hess = np.zeros((plan.n, plan.n))
    prob = plan.problem

    def add(idx, S, mats, coef):
        W = np.array([np.linalg.solve(S, T) for T in mats])      # S^-1 T_k
        grad[idx] += -coef * np.einsum("kii->k", W)
        hess[np.ix_(idx, idx)] += coef * np.einsum("kij,lji->kl", W, W)

    for v in prob.sym_vars.values():
        if v.logdet_weight == 0.0:
            continue
        mats = []
        for i, j, a in zip(v.rows, v.cols, v.alpha):
            E = np.zeros((v.n, v.n))
            E[i, j] += a
            E[j, i] += a
            mats.append(E)
        add(np.arange(v.offset, v.offset + v.num_params), v.matrix(x), mats,
            v.logdet_weight)
    for con in prob.lmis:
        idx, mats = [], []
        for name, vectors in con.terms.items():
            sl = prob.var_slice(name)
            for k, (r, v) in enumerate(zip(con.rows[name], vectors)):
                T = np.zeros((con.dim, con.dim))
                T[r, :] += v
                T[:, r] += v
                idx.append(sl.start + k)
                mats.append(T)
        S = con.constant + sum(x[i] * T for i, T in zip(idx, mats))
        add(idx, S, mats, mu + con.weight)
    return grad, hess


def _reactor_programs():
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    model, req = with_overrides(model, req, K=5, eps_y=2.0, eps_u=2.0)
    full = assemble_program(build_lift(model, req.K), model, req)
    return full, reduced_view(full)


def _reactor_points():
    """The full reactor program (with Pi) and its reduced view, each at an
    interior point: the analytic start, with Pi halfway to the Schur
    complement of the leakage LMI for the full program."""
    full, red = _reactor_programs()
    values = analytic_start(red)
    leak = next(c for c in red.lmis if c.name == "leakage")
    J = sdp._lmi_matrix(red, leak, red.pack(values))
    ns = full.sym_vars["Pi"].n
    schur = J[:ns, :ns] - J[:ns, ns:] @ np.linalg.solve(J[ns:, ns:], J[ns:, :ns])
    return [(full, full.pack({**values, "Pi": 0.5 * schur})), (red, red.pack(values))]


def test_factor_newton_matches_dense_reference():
    """The rank-2 factor assembly of the weighted logdet and barrier terms
    equals the textbook dense formulas on both synthesis programs: the full
    one with three LMIs (Pi with logdet weight 1 and its negative-sign term
    in the leakage LMI) and its reduced view with the same three (the
    leakage LMI with objective weight 1, so coefficient 1 + mu, and
    Sigma_Z with logdet weight -1)."""
    (full, x_full), (red, x_red) = _reactor_points()
    assert full.sym_vars["Pi"].logdet_weight == 1.0
    assert [c.weight for c in full.lmis] == [0.0, 0.0, 0.0]
    assert [c.weight for c in red.lmis] == [1.0, 0.0, 0.0]
    assert red.sym_vars["Sigma_Z"].logdet_weight == -1.0
    for label, prob, x in (("full", full, x_full), ("reduced", red, x_red)):
        plan = sdp._Plan(prob)
        rest = copy.copy(plan)
        rest.lmis = []
        rest.sym_list = [dataclasses.replace(v, logdet_weight=0.0) for v in plan.sym_list]
        mu = 0.7
        _, _, g_all, h_all = sdp._build(plan, x, True).combine(mu)
        _, _, g_rest, h_rest = sdp._build(rest, x, True).combine(mu)
        g_ref, h_ref = _dense_logdet_newton(plan, x, mu)
        assert np.linalg.norm(g_all - g_rest - g_ref) <= 1e-10 * np.linalg.norm(g_ref), label
        assert np.linalg.norm(h_all - h_rest - h_ref) <= 1e-10 * np.linalg.norm(h_ref), label


def test_reduced_derivatives_match_finite_differences():
    """Near the end of the barrier path (mu = 1e-9) the reduced function is
    almost all -(1 + mu) log det J + log det Sigma_Z, a difference of two
    convex terms; its gradient and Hessian match central differences, and
    the Hessian is positive definite."""
    _, prob = _reactor_programs()
    x = prob.pack(analytic_start(prob))
    plan = sdp._Plan(prob)
    mu, h = 1e-9, 1e-5
    _, _, g, H = sdp._build(plan, x, True).combine(mu)
    rng = np.random.default_rng(7)
    for _ in range(3):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        psi_p, _, g_p, _ = sdp._build(plan, x + h * d, True).combine(mu)
        psi_m, _, g_m, _ = sdp._build(plan, x - h * d, True).combine(mu)
        assert (psi_p - psi_m) / (2 * h) == pytest.approx(g @ d, rel=1e-6, abs=1e-9)
        fd = (g_p - g_m) / (2 * h)
        assert np.linalg.norm(fd - H @ d) <= 1e-6 * np.linalg.norm(H @ d)
    assert np.linalg.eigvalsh(H)[0] > 0.0


@pytest.mark.parametrize("hess", [np.ones((2, 2)), np.diag([1.0, -1e-13])],
                         ids=["singular", "indefinite"])
def test_newton_ridge_retry_gives_descent(hess):
    """A Hessian the factorization rejects is retried with a ridge scaled to
    its diagonal; the back substitution of w = L^-1 grad solves the ridged
    system, and w . w is the squared decrement -grad . d."""
    grad = np.array([1.0, 0.0])
    L, w = sdp._solve_newton(hess, grad)
    d = -sdp.solve_lower(L, w, trans=True)
    ridged = hess + sdp.REGULARIZATION * np.eye(2)
    np.testing.assert_allclose(d, -np.linalg.solve(ridged, grad), rtol=1e-9)
    np.testing.assert_allclose(L @ L.T, ridged, rtol=1e-12)
    assert w @ w > 0.0
    assert w @ w == pytest.approx(-grad @ d, rel=1e-9)
    assert grad @ d < 0.0


@pytest.mark.parametrize("retries", [0, 3])
def test_newton_gives_up_when_ridges_run_out(monkeypatch, retries):
    """diag(1, -1) stays indefinite under ridges up to 1e-6: None."""
    monkeypatch.setattr(sdp, "REG_RETRIES", retries)
    assert sdp._solve_newton(np.diag([1.0, -1.0]), np.ones(2)) is None


@pytest.mark.parametrize("hess, grad", [
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2)),
    (np.diag([np.inf, 1.0]), np.ones(2)),
    (np.eye(2), np.array([np.nan, 1.0])),
], ids=["nan-hessian", "inf-hessian", "nan-gradient"])
def test_newton_rejects_non_finite_system(hess, grad):
    """A non-finite Newton system is an error, not a ridge retry."""
    with pytest.raises(ValueError, match="infs or NaNs"):
        sdp._solve_newton(hess, grad)


def test_non_finite_slack_is_outside_the_domain():
    """The barrier treats a slack it cannot factor, non-finite included, as
    outside the domain, so the line search backtracks instead of carrying
    NaN into the iterate."""
    assert sdp._chol_or_none(np.array([[1.0, np.nan], [np.nan, 1.0]])) is None
    assert sdp._chol_or_none(np.diag([np.inf, 1.0])) is None
    assert sdp._chol_or_none(np.diag([1.0, -1.0])) is None
    np.testing.assert_allclose(sdp._chol_or_none(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))


def test_recombined_parts_match_fresh_evaluate():
    """f and phi built once at x give, recombined at a second barrier
    parameter, the same psi, f, gradient and Hessian as a fresh evaluation
    there, on both synthesis programs; recombining leaves the parts as they
    were."""
    for prob, x in _reactor_points():
        plan = sdp._Plan(prob)
        parts = sdp._build(plan, x, True)
        kept = [parts.grad_f.copy(), parts.grad_phi.copy(),
                parts.hess_f.copy(), parts.hess_phi.copy()]
        parts.combine(0.7)
        got = parts.combine(0.07)
        want = sdp._build(plan, x, True).combine(0.07)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        for a, b in zip(kept, [parts.grad_f, parts.grad_phi, parts.hess_f, parts.hess_phi]):
            np.testing.assert_array_equal(a, b)


def test_build_from_reused_factors_is_bitwise(monkeypatch):
    """A build handed the slack factors of an earlier build at the same x
    factors no slack and equals a fresh build, bit for bit, recombined
    Hessian included."""
    def no_factoring(M):
        raise AssertionError("a reused slack was factored again")

    for prob, x in _reactor_points():
        plan = sdp._Plan(prob)
        fresh = sdp._build(plan, x, True)
        factors = sdp._build(plan, x, False).factors
        with monkeypatch.context() as m:
            m.setattr(sdp, "_chol_or_none", no_factoring)
            reused = sdp._build(plan, x.copy(), True, factors)
        assert (reused.f, reused.phi) == (fresh.f, fresh.phi)
        for name in ("grad_f", "grad_phi", "hess_f", "hess_phi"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))
        np.testing.assert_array_equal(reused.combine(0.07)[3], fresh.combine(0.07)[3])
        assert all(a is b for a, b in zip(reused.factors, factors))


@pytest.mark.parametrize("fixture, steps, moves", [("reactor4", 9, 13), ("twostate", 12, 21)],
                         ids=["reactor4", "twostate"])
def test_one_newton_system_build_per_iterate(monkeypatch, fixture, steps, moves):
    """The Hessian is built once at the start and once per accepted move of
    x, a Newton step or a predictor step: a cut of mu at the same x
    recombines the parts, and each build reuses the slack factors of the
    trial it starts from. The iteration log holds every move, so its rows
    beyond ``newton_steps`` are the predictor steps."""
    builds = []
    real = sdp._build

    def counting(plan, x, derivatives, factors=None):
        builds.append((derivatives, factors is not None))
        return real(plan, x, derivatives, factors)

    monkeypatch.setattr(sdp, "_build", counting)
    model, req = load_model(str(FIXTURES / f"{fixture}.json"))
    sol = synthesize(model, req).solution
    assert (sol.newton_steps, len(sol.iterations)) == (steps, moves)
    hessians = [reused for derivatives, reused in builds if derivatives]
    assert len(hessians) == len(sol.iterations) + 1
    assert all(hessians)


def test_newton_factor_substitutions(monkeypatch):
    """On reactor4 each Newton factorization is followed by one forward
    substitution of the gradient, then by the substitutions of the move it
    leads to: one back substitution for a Newton step, or, at a centered
    point that does not end the run, the tangent's forward and back
    substitutions. The last, centered point that ends the run substitutes
    nothing more. Events: F a factorization, g the gradient's forward
    substitution, f another forward, b a back substitution with the factor."""
    events, newton = [], {}
    real_newton, real_lower = sdp._solve_newton, sdp.solve_lower

    def factoring(hess, grad):
        events.append("F")
        newton["grad"] = grad
        return real_newton(hess, grad)

    def substituting(L, B, trans=False):
        if B is newton.get("grad") and not trans:
            newton["L"] = L
            events.append("g")
        elif L is newton.get("L"):
            events.append("b" if trans else "f")
        return real_lower(L, B, trans)

    monkeypatch.setattr(sdp, "_solve_newton", factoring)
    monkeypatch.setattr(sdp, "solve_lower", substituting)
    model, req = load_model(str(FIXTURES / "reactor4.json"))
    sol = synthesize(model, req).solution
    seq = "".join(events)
    assert re.fullmatch(r"(Fg(?:b|fb))*Fg", seq), seq
    systems = seq.split("F")[1:]
    assert (len(systems), systems.count("gb"), systems.count("gfb")) == (19, 9, 9)
    assert sol.newton_steps == 9
    # 19 forward substitutions, 9 for the steps, 18 for the tangents.
    assert len(seq) - len(systems) == 46


def _central_point(mu, m=1e-8, cap=3.0):
    """x with X = x I on the central path of trace_cap_problem(2, cap): the
    root of d/dx [-2 log x - mu log(cap - 2x) - 2 mu log(x - m)], by
    bisection on the increasing derivative."""
    lo, hi = m, cap / 2.0
    for _ in range(200):
        x = 0.5 * (lo + hi)
        if -2.0 / x + 2.0 * mu / (cap - 2.0 * x) - 2.0 * mu / (x - m) < 0.0:
            lo = x
        else:
            hi = x
    return 0.5 * (lo + hi)


def test_predictor_follows_the_central_path():
    """From a central point at mu, the move (mu - mu') H(mu)^-1 grad phi,
    the tangent L^-T L^-1 grad phi with the factor L of the centering check,
    lands near the central point at mu' = mu / MU_FACTOR: its error is
    second order, at most 2 mu times the distance from x (about 1.35 mu
    here), and it lowers psi at mu'."""
    prob = trace_cap_problem()
    plan = sdp._Plan(prob)
    for mu in (1e-2, 1e-3, 1e-4):
        mu_next = mu / sdp.MU_FACTOR
        x = prob.pack({"X": _central_point(mu) * np.eye(2)})
        parts = sdp._build(plan, x, True)
        _, _, grad, hess = parts.combine(mu)
        L, w = sdp._solve_newton(hess, grad)
        assert 0.5 * (w @ w) <= sdp.INNER_TOL * mu
        tangent = sdp.solve_lower(L, sdp.solve_lower(L, parts.grad_phi), trans=True)
        trial = x + (mu - mu_next) * tangent
        want = prob.pack({"X": _central_point(mu_next) * np.eye(2)})
        assert np.linalg.norm(trial - want) <= 2.0 * mu * np.linalg.norm(x - want)
        assert sdp._build(plan, trial, False).psi(mu_next) < parts.psi(mu_next)


@pytest.mark.parametrize("fixture", ["scalar", "twostate", "reactor4"])
def test_iteration_log_holds_every_move(fixture):
    """Each row is a move of x, numbered from 1, at a barrier parameter that
    never grows, and every figure in it is finite; a predictor row's
    decrement is the move's length in the local norm. The last row is the
    returned point."""
    model, req = load_model(str(FIXTURES / f"{fixture}.json"))
    problem = assemble_program(build_lift(model, req.K), model, req)
    red = reduced_view(problem)
    sol = solve(red, init=analytic_start(red))
    log = sol.iterations
    assert len(log) > sol.newton_steps > 0
    assert [r.iteration for r in log] == list(range(1, len(log) + 1))
    assert all(a.mu >= b.mu for a, b in zip(log, log[1:]))
    assert all(math.isfinite(v) for r in log for v in (r.mu, r.objective, r.decrement))
    assert sol.objective == log[-1].objective + red.objective_offset


def test_one_hub_hessian_matches_the_gather_loop():
    """Every term of the output distortion LMI has hub row 0; its closed-form
    Hessian equals the general gather loop's bit for bit, and the leakage
    LMI, with many hub rows, takes the loop."""
    (_, _), (red, x) = _reactor_points()
    plan = sdp._Plan(red)
    by_name = {con.name: terms for con, terms in plan.lmis}
    assert by_name["leakage"].hub_row is None
    terms = by_name["output_distortion_budget"]
    assert terms.hub_row == 0
    con = next(c for c in red.lmis if c.name == "output_distortion_budget")
    P = sdp._inv_from_chol(np.linalg.cholesky(terms.matrix(con.constant, x)))
    PV = P @ terms.vectors.T
    loop = copy.copy(terms)
    loop.hub_row = None
    np.testing.assert_array_equal(sdp._terms_hess(terms, P, PV), sdp._terms_hess(loop, P, PV))


def test_synthesize_peak_memory():
    """On reactor4 at K=20 the solved program has n = 230 parameters, and
    the traced allocation peak of synthesize stays within 8.6 n x n float
    arrays: keeping f's and phi's Hessians apart adds no n x n array at the
    peak, because each LMI's block is built in row chunks."""
    model, req = with_overrides(*load_model(str(FIXTURES / "reactor4.json")), K=20)
    n = reduced_view(assemble_program(build_lift(model, req.K), model, req)).num_params
    assert n == 230
    synthesize(model, req)      # first-call allocations
    tracemalloc.start()
    try:
        synthesize(model, req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.6 * n * n * 8, peak / (n * n * 8)
