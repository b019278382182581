"""Privacy mechanism synthesis: program assembly, solving, extraction.

The synthesized mechanism discloses Z = G Y + V (per-step output matrices
G_1..G_K on the block diagonal, V a horizon-correlated zero-mean Gaussian)
and R = U + H (H zero-mean Gaussian over the full input stack). The design
minimizes the information the disclosed stack leaks about the private stack
minus the entropy injected into the inputs, subject to output/input
distortion budgets. The input noise decouples and has the closed form
Sigma_H* = (eps_U/NU) (W_U^T W_U)^{-1}; the output part (G, Sigma_V) is one
determinant-maximization problem that does not depend on eps_U.

The leakage does not change under any invertible map of the private stack
S, so the program sees S whitened by the Cholesky factor L_S of Sigma_S:
its covariance is I and its covariance with Y is cov(Y, S) L_S^-T. The
program then has no unit of S in it, and the leakage is half the reduced
objective -log2 det Schur with no constant added.

That program bounds the leakage by a matrix Pi <= Schur := I - C^T
Sigma_Z^{-1} C, C = cov(Z, L_S^-1 S). At every barrier center Pi has the
closed form Schur / (1 + mu), so the solver runs on the reduced view
without Pi (``reduced_view``) and Pi is packed back in. ``synthesize``
certifies each answer once, on the full program of ``assemble_program``.

The output noise floor Sigma_V > delta I, delta = 1e-8 min(eps_Y,
pure_noise) / tr(W_Y^T W_Y), spends at most 1e-8 of the output budget, so
the program is strictly feasible at every eps_Y > 0, from the pass-through
start (G = I) of ``analytic_start``; eps_Y = 0 leaves no interior. The
floor's LMI sees Y through the Cholesky factor L_Y of Sigma_Y, so that
Sigma_Y^-1 is never formed. G = 0 discloses pure noise and leaks nothing, so
the optimum is closed form at eps_Y = inf and above eps_zero, the output
distortion of G = 0 with the noise at its floor. ``_Context`` states these
closed forms of the output budget once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__ as _version
from . import sdp
from .gauss import (NotPositiveDefinite, _chol, _conditional_cov, _sym, cho_solve, cholesky,
                    entropy, mutual_information, solve_lower)
from .lift import LiftedMoments, LiftedSystem, build_lift, output_moments, joint_ZS_moments
# The mechanism and G~'s layout live in their own module, which ``sim`` loads
# without this one; the file functions are re-exported for callers of this one.
from .mechanism import (ExtractionFailure, Mechanism, _gtilde, g_entries, load_mechanism,
                        save_mechanism)
from .model import (SystemModel, SynthesisRequest, ValidationError, ValidationReport,
                    content_hash, validate)

BUDGET_ACTIVE_RTOL = 1e-4


class InfeasibleProgram(RuntimeError):
    """No strictly feasible point exists for the requested budgets."""

    def __init__(self, message: str, worst_constraint: str = ""):
        super().__init__(message)
        self.worst_constraint = worst_constraint


class SolverFailure(RuntimeError):
    """The interior-point solve did not reach the optimality criterion."""

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class MechanismMetrics:
    """Closed-form information and distortion figures for one mechanism.

    The fields name the figures and fix their order wherever they are
    reported: the synthesize report and status line, ``evaluate`` and the
    sweep columns."""

    cost_bits: float
    mi_bits: float
    entropy_H_bits: float
    distortion_Y: float
    distortion_U: float

    @staticmethod
    def of(mi_bits: float, distortion_Y: float, Sigma_H: np.ndarray,
           req: SynthesisRequest) -> "MechanismMetrics":
        """These output figures, with input noise Sigma_H under req."""
        ent_h = entropy(Sigma_H)
        MUq = req.W_U.T @ req.W_U
        return MechanismMetrics(cost_bits=mi_bits - ent_h, mi_bits=mi_bits,
                                entropy_H_bits=ent_h, distortion_Y=distortion_Y,
                                distortion_U=float(np.sum(Sigma_H * MUq.T)))

    def figures(self) -> dict:
        """The figures by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(MechanismMetrics)}


@dataclass(frozen=True)
class SynthesisReport(MechanismMetrics):
    """The synthesized mechanism, its figures and the solve's record."""

    mechanism: Mechanism
    solver: dict
    flags: dict
    solution: "sdp.SdpSolution | None" = None   # full solver record, not serialized

    def to_dict(self) -> dict:
        return {**self.figures(), "solver": self.solver, "flags": self.flags}


@dataclass(frozen=True)
class _Context:
    """Constant data shared by assembly, initialization and extraction, and
    the one statement of the output budget's closed forms (W = W_Y^T W_Y).
    The private stack is whitened (``cov_YS_white``), and the noise floor
    sees Y through its Cholesky factor (``chol_Y``)."""

    K: int
    n_y: int
    NY: int
    NS: int
    mom: LiftedMoments
    chol_Y: np.ndarray          # L_Y, Sigma_Y = L_Y L_Y^T
    MYq: np.ndarray
    eps_y: float
    cov_YS_white: np.ndarray    # cov(Y, S) L_S^-T, Sigma_S = L_S L_S^T

    @property
    def tr_w(self) -> float:
        """tr(W), the output distortion of unit white noise."""
        return float(np.trace(self.MYq))

    @property
    def tr_wy(self) -> float:
        """tr(W Sigma_Y)."""
        return float(np.sum(self.mom.Sigma_Y * self.MYq))

    @property
    def pure_noise(self) -> float:
        """tr(W Sigma_Y) + |W_Y mu_Y|^2, the output distortion of G = 0 less its noise's."""
        return float(self.tr_wy + self.mom.mu_Y @ self.MYq @ self.mom.mu_Y)

    @property
    def delta(self) -> float:
        """The noise floor 1e-8 min(eps_Y, pure_noise) / tr(W): white noise at
        it spends at most 1e-8 of the output budget, so it changes with units
        as the budget does, and it is finite at eps_Y = inf."""
        return 1e-8 * min(self.eps_y, self.pure_noise) / self.tr_w

    @property
    def eps_zero(self) -> float:
        """Output distortion of G = 0 with the noise at its floor."""
        return self.pure_noise + self.delta * self.tr_w

    def halfway(self, base: float) -> float:
        """White noise level halfway between the floor delta and the level that
        spends all eps_Y leaves over base. At the latter the budget's LMI is
        singular, and its rounding (about eps_Y * 1e-16) fails the certificate."""
        return 0.5 * (self.delta + (self.eps_y - base) / self.tr_w)


def _check_private_covariance(Sigma_S: np.ndarray, K: int) -> np.ndarray:
    """The Cholesky factor of Sigma_S, or a ValidationError naming Sigma_S
    at horizon K where it cannot be factored: singular, or so ill-conditioned
    at the model's magnitudes that it fails in rounding. Synthesis and the
    closed-form leakage need it positive definite: the program whitens the
    private stack by this factor, and the leakage conditions on it. Not
    ``validate``'s check, since ``simulate`` needs neither."""
    try:
        return cholesky(Sigma_S)
    except np.linalg.LinAlgError:
        raise ValidationError(ValidationReport([
            f"Sigma_S at K = {K} must be positive definite in floating point "
            "(no private output may be a linear combination of the others, "
            "nor nearly one at the model's magnitudes)"])) from None


def _build_context(lift: LiftedSystem, model: SystemModel, req: SynthesisRequest) -> _Context:
    """The program's constants. A Sigma_S that cannot be factored leaves no
    strictly feasible point: a ValidationError here."""
    mom = output_moments(lift, model)
    chol_S = _check_private_covariance(mom.Sigma_S, req.K)
    return _Context(K=req.K, n_y=model.n_y, NY=req.K * model.n_y, NS=req.K * model.n_s,
                    mom=mom, chol_Y=cholesky(mom.Sigma_Y), MYq=_sym(req.W_Y.T @ req.W_Y),
                    eps_y=req.eps_y, cov_YS_white=solve_lower(chol_S, mom.cov_YS.T).T)


def input_noise(req: SynthesisRequest) -> np.ndarray:
    """Optimal input noise covariance Sigma_H* = (eps_U/NU) (W_U^T W_U)^{-1}.

    Sigma_H enters the design only through its -log det term and the input
    budget tr(W_U^T W_U Sigma_H) <= eps_U, whose optimum is this closed form
    with the budget met exactly. Raises InfeasibleProgram for eps_U <= 0 and
    ValidationError for eps_U = inf, where the injected entropy is unbounded.
    """
    if not req.eps_u > 0.0:
        raise InfeasibleProgram("input distortion budget infeasible",
                                worst_constraint="input_distortion_budget")
    if math.isinf(req.eps_u):
        raise ValidationError(ValidationReport([
            "eps_U = inf makes the input-noise entropy unbounded; "
            "synthesis needs a finite input budget"]))
    NU = req.W_U.shape[1]
    L = cholesky(_sym(req.W_U.T @ req.W_U))
    return _sym((req.eps_u / NU) * cho_solve(L, np.eye(NU)))


def assemble_program(lift: LiftedSystem, model: SystemModel, req: SynthesisRequest) -> sdp.SdpProblem:
    """Exact constraint system of the output design as one SdpProblem.

    Variables: leakage bound Pi (logdet objective) on the whitened private
    stack, disclosed covariance Sigma_Z, per-step output blocks G (affine).
    The closed-form input noise (``meta["Sigma_H"]``) enters only as the
    constant objective offset -log2 det Sigma_H*, so the iterates do not
    depend on eps_U. An infinite output budget drops the output distortion
    constraint entirely. This is the program every solution is certified
    on; ``synthesize`` solves its ``reduced_view``. Raises
    InfeasibleProgram for eps_Y = 0, where no point is strictly feasible.
    """
    Sigma_H = input_noise(req)
    ctx = _build_context(lift, model, req)
    K, n_y, NY, NS = ctx.K, ctx.n_y, ctx.NY, ctx.NS
    if not ctx.eps_y > 0.0:
        raise InfeasibleProgram("output distortion budget infeasible: eps_Y = 0 leaves "
                                "no room for output noise",
                                worst_constraint="output_distortion_budget")

    prob = sdp.SdpProblem()
    prob.objective_offset = -float(np.linalg.slogdet(Sigma_H)[1]) / math.log(2.0)
    pi = prob.add_sym_var("Pi", NS, logdet_weight=1.0)
    sz = prob.add_sym_var("Sigma_Z", NY)
    rg, cg = g_entries(K, n_y)
    prob.add_affine_var("G", rg.size)

    # Leakage LMI: [[I - Pi, cov(S,Z)], [cov(Z,S), Sigma_Z]] >= 0, S whitened.
    dim = NS + NY
    const = np.zeros((dim, dim))
    const[:NS, :NS] = np.eye(NS)
    mi = prob.add_lmi("leakage", dim, constant=const)
    mi.add_term("Pi", *pi.basis_factors(dim, sign=-1.0))
    mi.add_term("Sigma_Z", *sz.basis_factors(dim, NS))
    vg = np.zeros((rg.size, dim))
    vg[:, :NS] = ctx.cov_YS_white[cg, :]
    mi.add_term("G", NS + rg, vg)

    # Output distortion budget as an epigraph LMI (finite budget only); every
    # term has hub row 0. G enters through -2 tr(W_Y^T W_Y G Sigma_Y), whose
    # coefficient of G[rg, cg] is (Sigma_Y W_Y^T W_Y)[cg, rg].
    if math.isfinite(ctx.eps_y):
        m_w = req.W_Y.shape[0]
        dimd = 1 + m_w
        Wmu = req.W_Y @ ctx.mom.mu_Y
        const = np.zeros((dimd, dimd))
        const[0, 0] = ctx.eps_y - ctx.tr_wy
        const[0, 1:] = -Wmu
        const[1:, 0] = -Wmu
        const[1:, 1:] = np.eye(m_w)
        dist = prob.add_lmi("output_distortion_budget", dimd, constant=const)
        vz = np.zeros((sz.num_params, dimd))
        vz[:, 0] = -sz.alpha * ctx.MYq[sz.rows, sz.cols]
        dist.add_term("Sigma_Z", np.zeros(sz.num_params, dtype=int), vz)
        MS = ctx.mom.Sigma_Y @ ctx.MYq
        vg = np.zeros((rg.size, dimd))
        vg[:, 0] = MS[cg, rg]
        vg[:, 1:] = req.W_Y[:, rg].T * ctx.mom.mu_Y[cg, None]
        dist.add_term("G", np.zeros(rg.size, dtype=int), vg)

    # Noise-floor LMI: [[Sigma_Z - delta I, G~ L_Y], [L_Y^T G~^T, I]] >= 0, the
    # congruence by diag(I, L_Y^T) of [[Sigma_Z - delta I, G~], [G~^T, Sigma_Y^-1]].
    # Its Schur complement is Sigma_V - delta I, Sigma_V the extracted output
    # noise covariance, and Sigma_Y^-1 is never formed.
    dimn = 2 * NY
    floor = prob.add_lmi("noise_floor", dimn,
                         constant=np.diag(np.repeat([-ctx.delta, 1.0], NY)))
    floor.add_term("Sigma_Z", *sz.basis_factors(dimn))
    vg = np.zeros((rg.size, dimn))
    vg[:, NY:] = ctx.chol_Y[cg, :]
    floor.add_term("G", rg, vg)

    prob.meta["context"] = ctx
    prob.meta["Sigma_H"] = Sigma_H
    return prob


def reduced_view(problem: sdp.SdpProblem) -> sdp.SdpProblem:
    """The synthesis program with the leakage bound Pi minimized out.

    Pi enters only through -log det Pi and the leakage LMI [[I - Pi, C^T],
    [C, Sigma_Z]] >= 0, i.e. Pi <= Schur := I - C^T Sigma_Z^{-1} C.
    Minimizing -log det Pi - mu log det(Schur - Pi) gives Pi = Schur / (1 +
    mu), and what remains of the barrier function is -(1 + mu) log det J +
    log det Sigma_Z with J = [[I, C^T], [C, Sigma_Z]]: the leakage LMI
    without Pi's term, with objective weight 1, and Sigma_Z with logdet
    weight -1. Its objective is -log2 det Schur, twice the leakage, plus the
    same offset: the full objective at Pi = Schur. The LMIs, the term data
    and ``meta`` are shared with ``problem``.
    """
    red = sdp.SdpProblem()
    red.objective_offset = problem.objective_offset
    red.meta = problem.meta
    sz = problem.sym_vars["Sigma_Z"]
    red.add_sym_var("Sigma_Z", sz.n, logdet_weight=-1.0)
    red.add_affine_var("G", problem.affine_vars["G"].num_params)
    for con in problem.lmis:
        view = red.add_lmi(con.name, con.dim, constant=con.constant,
                           weight=1.0 if con.name == "leakage" else con.weight)
        for name, vectors in con.terms.items():
            if name != "Pi":
                view.add_term(name, con.rows[name], vectors)
    return red


def _pack_leakage_bound(problem: sdp.SdpProblem, sol: sdp.SdpSolution) -> sdp.SdpSolution:
    """A solution of ``reduced_view(problem)`` at barrier parameter mu, with
    its closed-form leakage bound Pi = Schur / (1 + mu) packed in, as an
    uncertified solution of the full ``problem``; the status, mu, step count
    and duality measure stay ``sol``'s, and the objective is left to the
    certificate.

    The iteration log keeps the full program's meaning too: the objective
    of an iterate at barrier parameter mu is that of the full program with
    its packed Pi, less the offset: the reduced -log2 det Schur plus
    NS log2(1 + mu).
    """
    ctx: _Context = problem.meta["context"]
    values = dict(sol.variables)
    Gt = _gtilde(values["G"], ctx.K, ctx.n_y)
    cov_ZS = Gt @ ctx.cov_YS_white
    # Schur is the conditional covariance of the whitened S given Z.
    schur = _conditional_cov(np.eye(ctx.NS), cov_ZS.T, _chol(values["Sigma_Z"], "Sigma_Z"))
    values["Pi"] = schur / (1.0 + sol.mu_final)
    ns = problem.sym_vars["Pi"].n
    log_full = [replace(rec, objective=rec.objective + ns * math.log2(1.0 + rec.mu))
                for rec in sol.iterations]
    x = problem.pack(values)
    return replace(sol, objective=math.nan, x=x, variables=problem.values(x),
                   iterations=log_full)


def _numerical_failure(sol: sdp.SdpSolution, message: str) -> SolverFailure:
    """SolverFailure for an answer a check refuses, with its solution marked
    NumericalFailure."""
    return SolverFailure(message, replace(sol, status=sdp.SolverStatus.NUMERICAL_FAILURE,
                                          message=message))


def analytic_start(problem: sdp.SdpProblem) -> dict:
    """Strictly feasible start for ``reduced_view`` at every eps_Y in (0,
    eps_zero], where ``synthesize`` solves: Y passed through (G = I) with white
    noise at ``halfway(0)``; the solver rejects a start outside its domain."""
    ctx: _Context = problem.meta["context"]
    return {
        "Sigma_Z": ctx.mom.Sigma_Y + ctx.halfway(0.0) * np.eye(ctx.NY),
        "G": np.eye(ctx.NY)[g_entries(ctx.K, ctx.n_y)],
    }


def synthesize(model: SystemModel, req: SynthesisRequest) -> SynthesisReport:
    """Validate, assemble, solve, certify and extract the disclosure mechanism.

    Each answer is certified once, by ``sdp.check_solution`` on the full
    program: the packed point of the reduced solve, or the closed form above
    eps_zero. The reported objective is the certificate's. The evaluated
    output distortion must then meet eps_Y within the certificate's
    tolerance, and the evaluated leakage equal the certified objective's,
    less its barrier offset NS log2(1 + mu_final)/2, to rounding.

    Raises ValidationError, InfeasibleProgram, SolverFailure or
    ExtractionFailure; returns a SynthesisReport on success. A near-singular
    Sigma_V is reported as one line on stderr (the report holds its least
    eigenvalue, ``flags["min_eig_Sigma_V"]``, and the leakage's offset,
    ``solver["cost_reconciliation_bits"]``).
    """
    rep = validate(model, req)
    if not rep.ok:
        raise ValidationError(rep)
    problem = assemble_program(build_lift(model, req.K), model, req)
    ctx: _Context = problem.meta["context"]

    # Disclosing pure noise (G = 0) leaks nothing, so it is optimal with
    # Pi = I wherever some Sigma_V above the floor fits the budget:
    # at every eps_Y above eps_zero, eps_Y = inf included.
    if ctx.eps_y > ctx.eps_zero:
        # Any such Sigma_V is optimal: without an output budget Sigma_Y, so Z
        # has the covariance of Y; with one, white noise at ``halfway``.
        if math.isinf(ctx.eps_y):
            sigma_v, message = ctx.mom.Sigma_Y, "closed form at eps_Y = inf: G = 0"
        else:
            sigma_v = ctx.halfway(ctx.pure_noise) * np.eye(ctx.NY)
            message = "closed form above eps_zero: G = 0"
        x = problem.pack({"Pi": np.eye(ctx.NS), "Sigma_Z": sigma_v,
                          "G": np.zeros(problem.affine_vars["G"].num_params)})
        sol = sdp.SdpSolution(
            status=sdp.SolverStatus.OPTIMAL, objective=math.nan, x=x,
            variables=problem.values(x), duality_measure=0.0, iterations=[],
            message=message, mu_final=0.0, newton_steps=0)
    else:
        reduced = reduced_view(problem)
        sol = sdp.solve(reduced, init=analytic_start(reduced))
        if sol.message.startswith("start point outside domain"):
            # The start is strictly feasible in exact arithmetic at every
            # eps_Y > 0: only a budget below Sigma_Y's rounding leaves it.
            raise SolverFailure(f"eps_Y = {ctx.eps_y:.3g} is below the rounding of "
                                f"tr(W_Y^T W_Y Sigma_Y) = {ctx.tr_wy:.6g}: {sol.message}", sol)
        if sol.status is not sdp.SolverStatus.OPTIMAL:
            raise SolverFailure(f"solver status {sol.status.value}: {sol.message}", sol)
        sol = _pack_leakage_bound(problem, sol)
    cert = sdp.check_solution(problem, sol.x)
    sol = replace(sol, objective=cert.objective)
    if not cert.ok:
        raise _numerical_failure(sol, f"the full program rejects the packed leakage bound "
                                      f"(max PSD violation {cert.max_psd_violation:.3e})")
    if not math.isfinite(cert.objective):
        # No LMI states Pi > 0: it is the domain of the objective -log2 det Pi.
        raise _numerical_failure(sol, "the packed leakage bound Pi is not positive definite "
                                      "(certified objective inf)")

    g = sol.variables["G"]
    Gt = _gtilde(g, ctx.K, ctx.n_y)
    Sigma_V = _sym(sol.variables["Sigma_Z"] - Gt @ ctx.mom.Sigma_Y @ Gt.T)
    lam_min = float(np.linalg.eigvalsh(Sigma_V)[0])
    if lam_min <= 0.0:
        raise ExtractionFailure(
            f"extracted output noise covariance has min eigenvalue {lam_min:.3e}")

    mech = Mechanism(
        G_blocks=list(g.reshape(ctx.K, ctx.n_y, ctx.n_y).copy()), Sigma_V=Sigma_V,
        Sigma_H=problem.meta["Sigma_H"],
        provenance={
            "model_hash": content_hash(model, req),
            "K": req.K,
            "eps_Y": "inf" if math.isinf(req.eps_y) else req.eps_y,
            "eps_U": req.eps_u,
            "solver_status": sol.status.value,
            "package_version": _version,
        })

    metrics = evaluate_mechanism(model, req, mech, moments=ctx.mom)
    # The certificate holds the budget LMI [[a, b^T], [b, I]] to CERT_TOL in
    # its least eigenvalue, where a - |b|^2 is eps_Y less the distortion and
    # |b|^2 = |W_Y (G - I) mu_Y|^2 is at most the distortion: the distortion
    # may pass eps_Y by CERT_TOL (1 + distortion). Within budget, the terms of
    # the LMI and of the definition are of the scale eps_Y + pure_noise, and
    # the two round apart by about 1e-16 of it: 1e-12 of it is allowed.
    if metrics.distortion_Y - ctx.eps_y > (sdp.CERT_TOL * (1.0 + metrics.distortion_Y)
                                           + 1e-12 * (ctx.eps_y + ctx.pure_noise)):
        raise _numerical_failure(sol, f"the output distortion {metrics.distortion_Y:.9g} "
                                      f"exceeds its budget eps_Y = {ctx.eps_y:.9g}")

    # S is whitened, so the Pi part of the solver objective (-log2 det Pi) is
    # twice the reported leakage: mi = (-log2 det Pi)/2. The packed Pi is
    # Schur / (1 + mu_final), which puts the objective's leakage
    # NS log2(1 + mu_final)/2 above the evaluated one. Beyond that the two
    # round apart, by at most 2.7e-14 of max(1, mi_bits) measured on the
    # fixtures and the benchmark model: 1e-9 of it is allowed.
    expected_mi = (sol.objective - problem.objective_offset) / 2.0
    reconciliation = metrics.mi_bits - expected_mi
    residual = reconciliation + ctx.NS * math.log2(1.0 + sol.mu_final) / 2.0
    if abs(residual) > 1e-9 * max(1.0, abs(metrics.mi_bits)):
        raise _numerical_failure(sol, f"the evaluated leakage {metrics.mi_bits:.9g} bits differs "
                                      f"from the certified objective's by {residual:.3e} bits")
    if lam_min < 10.0 * ctx.delta:
        print(f"extracted output noise covariance is near singular (min eig {lam_min:.3e})",
              file=sys.stderr)

    dist_y_active = (math.isfinite(req.eps_y)
                     and abs(metrics.distortion_Y - req.eps_y) <= BUDGET_ACTIVE_RTOL * req.eps_y)
    dist_u_active = abs(metrics.distortion_U - req.eps_u) <= BUDGET_ACTIVE_RTOL * req.eps_u

    return SynthesisReport(
        **metrics.figures(),
        mechanism=mech,
        solver={
            "status": sol.status.value,
            "objective": sol.objective,
            "newton_steps": sol.newton_steps,
            "mu_final": sol.mu_final,
            "duality_measure": sol.duality_measure,
            "max_psd_violation": cert.max_psd_violation,
            "cost_reconciliation_bits": reconciliation,
        },
        flags={
            "singular_output_blocks": mech.singular_block_flags(),
            "min_eig_Sigma_V": lam_min,
            "budget_Y_active": dist_y_active,
            "budget_U_active": dist_u_active,
        },
        solution=sol,
    )


def evaluate_mechanism(model: SystemModel, req: SynthesisRequest, mech: Mechanism,
                       moments: LiftedMoments | None = None) -> MechanismMetrics:
    """Closed-form leakage, injected entropy and distortion for a mechanism.

    The leakage is the mutual information between the private stack and the
    disclosed output stack; the disclosed input stack is independent of the
    private stack once its mean is accounted for and contributes nothing.
    ``moments``, if given, must be ``output_moments`` of ``model`` at the
    request's horizon. ``Mechanism.check_fits`` runs first; the request
    itself is ``validate``'s to check. Sigma_V > 0 makes the leakage finite,
    so a (Z, S) covariance that does not factor raises Sigma_S's
    ValidationError if that is the cause, else FloatingPointError.
    """
    mech.check_fits(model, req.K)
    mom = moments if moments is not None else output_moments(build_lift(model, req.K), model)
    Gt = mech.Gtilde

    try:
        mi = mutual_information(joint_ZS_moments(None, model, Gt, mech.Sigma_V, moments=mom))
    except NotPositiveDefinite:
        _check_private_covariance(mom.Sigma_S, req.K)     # names Sigma_S if it is the cause
        raise FloatingPointError(
            f"the leakage at K = {req.K} cannot be computed: a covariance of the disclosed "
            "pair (Z, S) is not positive definite in floating point") from None

    # E|W_Y (Z - Y)|^2 by its definition, with Z - Y = (G~ - I) Y + V.
    D = Gt - np.eye(Gt.shape[0])
    trace_term = float(np.sum((D @ mom.Sigma_Y @ D.T + mech.Sigma_V) * (req.W_Y.T @ req.W_Y).T))
    mean_vec = req.W_Y @ (D @ mom.mu_Y)
    return MechanismMetrics.of(mi, trace_term + float(mean_vec @ mean_vec), mech.Sigma_H, req)
