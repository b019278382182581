"""Barrier solver on tiny programs with known optima, plus its certificates."""

import copy
import dataclasses
import math
import pathlib
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
    write_iteration_csv,
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


def test_iteration_log_deterministic(tmp_path):
    """Identical problems and options give bit-identical logs and CSV files."""
    sols = [solve(trace_cap_problem(), init={"X": 0.5 * np.eye(2)}) for _ in range(2)]
    a, b = sols
    assert a.newton_steps == b.newton_steps
    assert len(a.iterations) == len(b.iterations)
    for ra, rb in zip(a.iterations, b.iterations):
        assert ra.mu == rb.mu
        assert ra.objective == rb.objective
        assert ra.decrement == rb.decrement
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_iteration_csv(a, str(pa))
    write_iteration_csv(b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_iteration_csv_header_comment(tmp_path):
    sol = solve(scalar_cap_problem(), init={"x": np.array([[1.0]])})
    path = tmp_path / "iters.csv"
    write_iteration_csv(sol, str(path), header_comment="manifest_hash=deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest_hash=deadbeef"
    assert lines[1] == "iter,mu,objective"
    assert len(lines) >= 3


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
    one with four LMIs (Pi with logdet weight 1, its negative-sign term in
    the leakage LMI and its floor LMI) and its reduced view with three (the
    leakage LMI with objective weight 1, so coefficient 1 + mu, and
    Sigma_Z with logdet weight -1)."""
    (full, x_full), (red, x_red) = _reactor_points()
    assert full.sym_vars["Pi"].logdet_weight == 1.0
    assert [c.weight for c in full.lmis] == [0.0, 0.0, 0.0, 0.0]
    assert [c.weight for c in red.lmis] == [1.0, 0.0, 0.0]
    assert red.sym_vars["Sigma_Z"].logdet_weight == -1.0
    for label, prob, x in (("full", full, x_full), ("reduced", red, x_red)):
        plan = sdp._Plan(prob)
        rest = copy.copy(plan)
        rest.lmis = []
        rest.sym_list = [dataclasses.replace(v, logdet_weight=0.0) for v in plan.sym_list]
        mu = 0.7
        _, _, g_all, h_all = sdp._build(plan, x, 2).combine(mu)
        _, _, g_rest, h_rest = sdp._build(rest, x, 2).combine(mu)
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
    _, _, g, H = sdp._build(plan, x, 2).combine(mu)
    rng = np.random.default_rng(7)
    for _ in range(3):
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        psi_p, _, g_p, _ = sdp._build(plan, x + h * d, 1).combine(mu)
        psi_m, _, g_m, _ = sdp._build(plan, x - h * d, 1).combine(mu)
        assert (psi_p - psi_m) / (2 * h) == pytest.approx(g @ d, rel=1e-6, abs=1e-9)
        fd = (g_p - g_m) / (2 * h)
        assert np.linalg.norm(fd - H @ d) <= 1e-6 * np.linalg.norm(H @ d)
    assert np.linalg.eigvalsh(H)[0] > 0.0


@pytest.mark.parametrize("hess", [np.ones((2, 2)), np.diag([1.0, -1e-13])],
                         ids=["singular", "indefinite"])
def test_newton_ridge_retry_gives_descent(hess):
    """A Hessian the factorization rejects is retried with a ridge scaled to
    its diagonal, and the direction solves the ridged system."""
    grad = np.array([1.0, 0.0])
    d, dec_sq = sdp._solve_newton(hess, grad)
    ridged = hess + sdp.REGULARIZATION * np.eye(2)
    np.testing.assert_allclose(d, -np.linalg.solve(ridged, grad), rtol=1e-9)
    assert dec_sq > 0.0
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
        parts = sdp._build(plan, x, 2)
        kept = [parts.grad_f.copy(), parts.grad_phi.copy(),
                parts.hess_f.copy(), parts.hess_phi.copy()]
        parts.combine(0.7)
        got = parts.combine(0.07)
        want = sdp._build(plan, x, 2).combine(0.07)
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
        fresh = sdp._build(plan, x, 2)
        factors = sdp._build(plan, x, 0).factors
        with monkeypatch.context() as m:
            m.setattr(sdp, "_chol_or_none", no_factoring)
            reused = sdp._build(plan, x.copy(), 2, factors)
        assert (reused.f, reused.phi) == (fresh.f, fresh.phi)
        for name in ("grad_f", "grad_phi", "hess_f", "hess_phi"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))
        np.testing.assert_array_equal(reused.combine(0.07)[3], fresh.combine(0.07)[3])
        assert all(a is b for a, b in zip(reused.factors, factors))


@pytest.mark.parametrize("fixture, steps", [("reactor4", 22), ("twostate", 32)])
def test_one_newton_system_build_per_iterate(monkeypatch, fixture, steps):
    """The Hessian is built once at the start and once per Newton step: a
    cut of mu at the same x recombines the parts, and each build reuses the
    slack factors of the line-search trial it starts from. The step counts
    are those of a rebuild at every mu."""
    builds = []
    real = sdp._build

    def counting(plan, x, order, factors=None):
        builds.append((order, factors is not None))
        return real(plan, x, order, factors)

    monkeypatch.setattr(sdp, "_build", counting)
    model, req = load_model(str(FIXTURES / f"{fixture}.json"))
    sol = synthesize(model, req).solution
    assert sol.newton_steps == steps
    hessians = [reused for order, reused in builds if order == 2]
    assert len(hessians) == sol.newton_steps + 1
    assert all(hessians)


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
