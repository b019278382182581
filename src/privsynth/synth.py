"""Privacy mechanism synthesis: program assembly, solving, extraction.

The synthesized mechanism discloses Z = G Y + V (per-step output matrices
G_1..G_K on the block diagonal, V a horizon-correlated zero-mean Gaussian)
and R = U + H (H zero-mean Gaussian over the full input stack). The design
minimizes the information the disclosed stack leaks about the private stack
minus the entropy injected into the inputs, subject to output/input
distortion budgets. The input noise decouples and has the closed form
Sigma_H* = (eps_U/NU) (W_U^T W_U)^{-1}; the output part (G, Sigma_V) is one
determinant-maximization problem that does not depend on eps_U.

That program bounds the leakage by a matrix Pi <= Schur := Sigma_S - C^T
Sigma_Z^{-1} C, C = cov(Z, S). At every barrier center Pi has the closed
form Schur / (1 + mu), so the solver runs on the reduced view without Pi
(``reduced_view``) and Pi is packed back in. ``synthesize`` certifies each
answer once, on the full program of ``assemble_program``.

The output noise floor Sigma_V > delta I makes the output distortion at
least delta tr(W_Y^T W_Y), with equality approached by passing Y through
(G = I) with noise delta I. So the program is strictly feasible exactly when
eps_Y exceeds that threshold, and every feasible budget has the pass-through
start of ``analytic_start``. At eps_Y = inf the optimum is closed form:
G = 0 discloses pure noise and leaks nothing.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__ as _version
from . import sdp
from .gauss import (GaussianJoint, _conditional_cov, _sym, cho_solve, cholesky, entropy,
                    mutual_information)
from .lift import LiftedMoments, LiftedSystem, build_lift, output_moments, joint_ZS_moments
from .model import (SystemModel, SynthesisRequest, ValidationError, ValidationReport,
                    content_hash, validate)

log = logging.getLogger(__name__)

DET_FLAG_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-8
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


class ExtractionFailure(RuntimeError):
    """The correlated output noise covariance recovered from the solution
    is not positive definite."""


def g_blocks_to_matrix(blocks: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Block-diagonal output matrix from the per-step list."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    G = np.zeros((n, n))
    at = 0
    for b in blocks:
        G[at:at + b.shape[0], at:at + b.shape[1]] = b
        at += b.shape[0]
    return G


@dataclass
class Mechanism:
    """Synthesized disclosure mechanism with cached Cholesky factors."""

    G_blocks: list[np.ndarray]
    Sigma_V: np.ndarray
    Sigma_H: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.G_blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in self.G_blocks]
        self.Sigma_V = _sym(np.asarray(self.Sigma_V, dtype=float))
        self.Sigma_H = _sym(np.asarray(self.Sigma_H, dtype=float))
        if not all(np.all(np.isfinite(a)) for a in (*self.G_blocks, self.Sigma_V, self.Sigma_H)):
            raise ValueError("mechanism has non-finite entries")
        try:
            self.chol_V = cholesky(self.Sigma_V)
        except np.linalg.LinAlgError:
            raise ExtractionFailure("output noise covariance is not positive definite") from None
        try:
            self.chol_H = cholesky(self.Sigma_H)
        except np.linalg.LinAlgError:
            raise ExtractionFailure("input noise covariance is not positive definite") from None

    @property
    def K(self) -> int:
        return len(self.G_blocks)

    @property
    def n_y(self) -> int:
        return self.G_blocks[0].shape[0]

    @property
    def Gtilde(self) -> np.ndarray:
        return g_blocks_to_matrix(self.G_blocks)

    def singular_block_flags(self, tol: float = DET_FLAG_TOL) -> list[int]:
        """Steps whose output matrix is numerically singular (information
        at that step is fully suppressed rather than rescaled)."""
        return [k for k, b in enumerate(self.G_blocks) if abs(np.linalg.det(b)) < tol]

    def to_dict(self) -> dict:
        return {
            "G_blocks": [b.tolist() for b in self.G_blocks],
            "Sigma_V": self.Sigma_V.tolist(),
            "Sigma_H": self.Sigma_H.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mechanism":
        return cls(G_blocks=[np.array(b, dtype=float) for b in data["G_blocks"]],
                   Sigma_V=np.array(data["Sigma_V"], dtype=float),
                   Sigma_H=np.array(data["Sigma_H"], dtype=float),
                   provenance=dict(data.get("provenance", {})))


def save_mechanism(mech: Mechanism, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mech.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mechanism(path: str) -> Mechanism:
    """Read a mechanism file; a non-PD covariance in it is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return Mechanism.from_dict(data)
    except ExtractionFailure as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class MechanismMetrics:
    """Closed-form information and distortion figures for one mechanism."""

    mi_bits: float
    entropy_H_bits: float
    cost_bits: float
    distortion_Y: float
    distortion_U: float


@dataclass
class SynthesisReport:
    mechanism: Mechanism
    mi_bits: float
    entropy_H_bits: float
    cost_bits: float
    distortion_Y: float
    distortion_U: float
    solver: dict
    flags: dict
    solution: "sdp.SdpSolution | None" = None   # full solver record, not serialized

    def to_dict(self) -> dict:
        return {
            "mi_bits": self.mi_bits,
            "entropy_H_bits": self.entropy_H_bits,
            "cost_bits": self.cost_bits,
            "distortion_Y": self.distortion_Y,
            "distortion_U": self.distortion_U,
            "solver": self.solver,
            "flags": self.flags,
        }


@dataclass(frozen=True)
class _Context:
    """Constant data shared by assembly, initialization and extraction."""

    K: int
    n_y: int
    n_s: int
    NY: int
    NS: int
    mom: LiftedMoments
    Winv: np.ndarray
    MYq: np.ndarray
    delta: float
    trace_scale: float
    eps_y: float


def _build_context(lift: LiftedSystem, model: SystemModel, req: SynthesisRequest) -> _Context:
    mom = output_moments(lift, model)
    NY = req.K * model.n_y
    NS = req.K * model.n_s
    Winv = _sym(cho_solve(cholesky(mom.Sigma_Y), np.eye(NY)))
    trace_scale = max(1.0, float(np.trace(mom.Sigma_Y)) / NY)
    return _Context(
        K=req.K, n_y=model.n_y, n_s=model.n_s,
        NY=NY, NS=NS,
        mom=mom, Winv=Winv,
        MYq=_sym(req.W_Y.T @ req.W_Y),
        delta=1e-8 * trace_scale, trace_scale=trace_scale,
        eps_y=req.eps_y,
    )


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

    Variables: leakage bound Pi (logdet objective), disclosed covariance
    Sigma_Z, per-step output blocks G (affine). The closed-form input noise
    (``meta["Sigma_H"]``) enters only as the constant objective offset
    -log2 det Sigma_H*, so the iterates do not depend on eps_U. An infinite
    output budget drops the output distortion constraint entirely. This is
    the program every solution is certified on; ``synthesize`` solves its
    ``reduced_view``. Raises InfeasibleProgram for eps_Y at or below the
    noise-floor threshold delta tr(W_Y^T W_Y), where no point is strictly
    feasible.
    """
    Sigma_H = input_noise(req)
    ctx = _build_context(lift, model, req)
    K, n_y, NY, NS = ctx.K, ctx.n_y, ctx.NY, ctx.NS
    d = ctx.delta
    threshold = d * float(np.trace(ctx.MYq))
    if not ctx.eps_y > threshold:
        raise InfeasibleProgram(
            f"output distortion budget infeasible: eps_Y = {ctx.eps_y:.6g} must exceed the "
            f"output noise floor delta*tr(W_Y^T W_Y) = {threshold:.6g}",
            worst_constraint="output_distortion_budget")

    prob = sdp.SdpProblem()
    prob.objective_offset = -float(np.linalg.slogdet(Sigma_H)[1]) / math.log(2.0)
    pi = prob.add_sym_var("Pi", NS, logdet_weight=1.0)
    sz = prob.add_sym_var("Sigma_Z", NY)
    prob.add_affine_var("G", K * n_y * n_y)

    M_zs = ctx.mom.cov_YS               # rows: Y/Z stack, cols: S stack, pre-G
    pg = K * n_y * n_y
    # G parameter p = (k*n_y + r)*n_y + c is entry (rg, cg) of the stacked G.
    k, r, c = np.unravel_index(np.arange(pg), (K, n_y, n_y))
    rg, cg = k * n_y + r, k * n_y + c

    # Leakage LMI: [[Sigma_S - Pi, cov(S,Z)], [cov(Z,S), Sigma_Z]] >= 0.
    dim = NS + NY
    const = np.zeros((dim, dim))
    const[:NS, :NS] = ctx.mom.Sigma_S
    mi = prob.add_lmi("leakage", dim, constant=const)
    mi.add_term("Pi", *pi.basis_factors(dim, sign=-1.0))
    mi.add_term("Sigma_Z", *sz.basis_factors(dim, NS))
    vg = np.zeros((pg, dim))
    vg[:, :NS] = M_zs[cg, :]
    mi.add_term("G", NS + rg, vg)

    # Output distortion budget as an epigraph LMI (finite budget only); every
    # term has hub row 0.
    if math.isfinite(ctx.eps_y):
        m_w = req.W_Y.shape[0]
        dimd = 1 + m_w
        Wmu = req.W_Y @ ctx.mom.mu_Y
        const = np.zeros((dimd, dimd))
        const[0, 0] = ctx.eps_y - float(np.sum(ctx.mom.Sigma_Y * ctx.MYq))
        const[0, 1:] = -Wmu
        const[1:, 0] = -Wmu
        const[1:, 1:] = np.eye(m_w)
        dist = prob.add_lmi("output_distortion_budget", dimd, constant=const)
        vz = np.zeros((sz.num_params, dimd))
        vz[:, 0] = -sz.alpha * ctx.MYq[sz.rows, sz.cols]
        dist.add_term("Sigma_Z", np.zeros(sz.num_params, dtype=int), vz)
        MS = ctx.MYq @ ctx.mom.Sigma_Y
        vg = np.zeros((pg, dimd))
        vg[:, 0] = MS[cg, rg]
        vg[:, 1:] = req.W_Y[:, rg].T * ctx.mom.mu_Y[cg, None]
        dist.add_term("G", np.zeros(pg, dtype=int), vg)

    # Noise-floor LMI: [[Sigma_Z - delta I, G], [G^T, Winv]] >= 0; its Schur
    # complement is Sigma_V - delta I, Sigma_V the extracted output noise
    # covariance, so the floor is on Sigma_V in the program's own units.
    dimn = 2 * NY
    const = np.zeros((dimn, dimn))
    const[:NY, :NY] = -d * np.eye(NY)
    const[NY:, NY:] = ctx.Winv
    floor = prob.add_lmi("noise_floor", dimn, constant=const)
    floor.add_term("Sigma_Z", *sz.basis_factors(dimn))
    vg = np.zeros((pg, dimn))
    vg[np.arange(pg), NY + cg] = 1.0
    floor.add_term("G", rg, vg)

    # Leakage-bound floor Pi - delta I >= 0, last so the LMIs above keep
    # their order. Its only variable is Pi, so ``reduced_view`` drops it.
    pi_floor = prob.add_lmi("pi_floor", NS, constant=-d * np.eye(NS))
    pi_floor.add_term("Pi", *pi.basis_factors(NS))

    prob.meta["context"] = ctx
    prob.meta["Sigma_H"] = Sigma_H
    return prob


def reduced_view(problem: sdp.SdpProblem) -> sdp.SdpProblem:
    """The synthesis program with the leakage bound Pi minimized out.

    Pi enters only through -log det Pi, its floor LMI and the leakage LMI
    [[Sigma_S - Pi, C^T], [C, Sigma_Z]] >= 0, i.e. Pi <= Schur := Sigma_S -
    C^T Sigma_Z^{-1} C. Minimizing -log det Pi - mu log det(Schur - Pi) gives
    Pi = Schur / (1 + mu), and what remains of the barrier function is
    -(1 + mu) log det J + log det Sigma_Z with J = [[Sigma_S, C^T], [C,
    Sigma_Z]]: the leakage LMI without Pi's term, with objective weight 1,
    and Sigma_Z with logdet weight -1. Its objective is -log2 det Schur plus
    the same offset, the full objective at Pi = Schur. Every LMI whose only
    variable is Pi, its floor, is dropped: the certificate checks it on
    ``problem`` once Pi is packed in. The other LMIs, the term data and
    ``meta`` are shared with ``problem``.
    """
    red = sdp.SdpProblem()
    red.objective_offset = problem.objective_offset
    red.meta = problem.meta
    sz = problem.sym_vars["Sigma_Z"]
    red.add_sym_var("Sigma_Z", sz.n, logdet_weight=-1.0)
    red.add_affine_var("G", problem.affine_vars["G"].num_params)
    for con in problem.lmis:
        if set(con.terms) == {"Pi"}:
            continue
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
    and duality measure stay ``sol``'s.

    The iteration log keeps the full program's meaning too: the objective
    of an iterate at barrier parameter mu is that of the full program with
    its packed Pi, the reduced objective -log2 det Schur plus NS log2(1 + mu).
    """
    ctx: _Context = problem.meta["context"]
    values = dict(sol.variables)
    Gt = g_blocks_to_matrix(values["G"].reshape(ctx.K, ctx.n_y, ctx.n_y))
    cov_ZS = Gt @ ctx.mom.cov_YS
    # Schur is the conditional covariance of S given Z; the means do not enter.
    joint = GaussianJoint.from_blocks(ctx.mom.mu_S, ctx.mom.mu_Y, ctx.mom.Sigma_S, cov_ZS.T,
                                      values["Sigma_Z"])
    values["Pi"] = _conditional_cov(joint) / (1.0 + sol.mu_final)
    ns = problem.sym_vars["Pi"].n
    log_full = [replace(rec, objective=rec.objective + ns * math.log2(1.0 + rec.mu))
                for rec in sol.iterations]
    x = problem.pack(values)
    return replace(sol, objective=sdp.objective_bits(problem, x), x=x,
                   variables=problem.values(x), iterations=log_full)


def analytic_start(problem: sdp.SdpProblem) -> dict:
    """Strictly feasible start for ``reduced_view`` of the synthesis program
    at any eps_Y above the noise-floor threshold: pass Y through (G = I)
    with noise eps I, delta < eps < eps_Y / tr(W_Y^T W_Y), so the output
    distortion eps tr(W_Y^T W_Y) stays below eps_Y (eps is the trace scale
    at eps_Y = inf). The solver itself rejects a start outside its domain."""
    ctx: _Context = problem.meta["context"]
    eps_z = ctx.trace_scale
    if math.isfinite(ctx.eps_y):
        tr = float(np.trace(ctx.MYq))
        eps_z = max(min(eps_z, ctx.eps_y / (2.0 * tr + 1.0)), 0.5 * (ctx.delta + ctx.eps_y / tr))
    return {
        "Sigma_Z": ctx.mom.Sigma_Y + eps_z * np.eye(ctx.NY),
        "G": np.tile(np.eye(ctx.n_y).ravel(), ctx.K),
    }


def synthesize(model: SystemModel, req: SynthesisRequest,
               lift: LiftedSystem | None = None) -> SynthesisReport:
    """Validate, assemble, solve, certify and extract the disclosure mechanism.

    Each answer is certified once, by ``sdp.check_solution`` on the full
    program: the packed point of the reduced solve, or the closed form at
    eps_Y = inf.

    Raises ValidationError, InfeasibleProgram, SolverFailure or
    ExtractionFailure; returns a SynthesisReport on success.
    """
    rep = validate(model, req)
    if not rep.ok:
        raise ValidationError(rep)
    if lift is None:
        lift = build_lift(model, req.K)
    problem = assemble_program(lift, model, req)
    ctx: _Context = problem.meta["context"]

    if math.isinf(ctx.eps_y):
        # Without an output budget, disclosing pure noise (G = 0) leaks
        # nothing, so it is optimal with Pi = Sigma_S. Any PD Sigma_V is
        # optimal then; Sigma_V = Sigma_Y gives Z the covariance of Y.
        x = problem.pack({"Pi": ctx.mom.Sigma_S, "Sigma_Z": ctx.mom.Sigma_Y,
                          "G": np.zeros(problem.affine_vars["G"].num_params)})
        sol = sdp.SdpSolution(
            status=sdp.SolverStatus.OPTIMAL, objective=sdp.objective_bits(problem, x), x=x,
            variables=problem.values(x), duality_measure=0.0, iterations=[],
            message="closed form at eps_Y = inf: G = 0", mu_final=0.0, newton_steps=0)
    else:
        reduced = reduced_view(problem)
        sol = sdp.solve(reduced, init=analytic_start(reduced))
        if sol.status is not sdp.SolverStatus.OPTIMAL:
            raise SolverFailure(f"solver status {sol.status.value}: {sol.message}", sol)
        sol = _pack_leakage_bound(problem, sol)
    cert = sdp.check_solution(problem, sol.x)
    if not cert.ok:
        message = (f"the full program rejects the packed leakage bound (max PSD violation "
                   f"{cert.max_psd_violation:.3e})")
        raise SolverFailure(message, replace(sol, status=sdp.SolverStatus.NUMERICAL_FAILURE,
                                             message=message))

    g_blocks = sol.variables["G"].reshape(ctx.K, ctx.n_y, ctx.n_y)
    Gt = g_blocks_to_matrix(g_blocks)
    Sigma_Z = sol.variables["Sigma_Z"]
    Sigma_V = _sym(Sigma_Z - Gt @ ctx.mom.Sigma_Y @ Gt.T)
    lam_min = float(np.linalg.eigvalsh(Sigma_V)[0])
    if lam_min <= 0.0:
        raise ExtractionFailure(
            f"extracted output noise covariance has min eigenvalue {lam_min:.3e}")
    if lam_min < 10.0 * ctx.delta:
        log.warning("extracted output noise covariance is near singular (min eig %.3e)",
                    lam_min)
    recon = Gt @ ctx.mom.Sigma_Y @ Gt.T + Sigma_V
    rel = float(np.linalg.norm(recon - Sigma_Z) / max(np.linalg.norm(Sigma_Z), 1e-300))
    if rel > RECONSTRUCTION_RTOL:
        raise ExtractionFailure(f"disclosed covariance reconstruction error {rel:.3e}")

    mech = Mechanism(
        G_blocks=list(g_blocks.copy()), Sigma_V=Sigma_V, Sigma_H=problem.meta["Sigma_H"],
        provenance={
            "model_hash": content_hash(model, req),
            "K": req.K,
            "eps_Y": "inf" if math.isinf(req.eps_y) else req.eps_y,
            "eps_U": req.eps_u,
            "solver_status": sol.status.value,
            "package_version": _version,
        })

    metrics = evaluate_mechanism(model, req, mech, moments=ctx.mom)

    # The Pi part of the solver objective (-log2 det Pi) and the reported
    # leakage differ by a fixed constant: mi = (-log2 det Pi)/2 + 0.5*log2 det Sigma_S.
    sign, ld = np.linalg.slogdet(ctx.mom.Sigma_S)
    expected_mi = (sol.objective - problem.objective_offset) / 2.0 + 0.5 * ld / math.log(2.0)
    reconciliation = metrics.mi_bits - expected_mi
    if abs(reconciliation) > 1e-3 * max(1.0, abs(metrics.mi_bits)):
        log.warning("cost reconciliation drift %.3e bits", reconciliation)

    dist_y_active = (math.isfinite(req.eps_y)
                     and abs(metrics.distortion_Y - req.eps_y) <= BUDGET_ACTIVE_RTOL * req.eps_y)
    dist_u_active = abs(metrics.distortion_U - req.eps_u) <= BUDGET_ACTIVE_RTOL * req.eps_u

    return SynthesisReport(
        mechanism=mech,
        mi_bits=metrics.mi_bits,
        entropy_H_bits=metrics.entropy_H_bits,
        cost_bits=metrics.cost_bits,
        distortion_Y=metrics.distortion_Y,
        distortion_U=metrics.distortion_U,
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
    request's horizon.
    """
    mom = moments if moments is not None else output_moments(build_lift(model, req.K), model)
    Gt = mech.Gtilde

    joint = joint_ZS_moments(None, model, Gt, mech.Sigma_V, moments=mom)
    mi = mutual_information(joint)
    ent_h = entropy(mech.Sigma_H)

    MYq = req.W_Y.T @ req.W_Y
    Sigma_Z = joint.Sigma_xx
    trace_term = float(np.sum((Sigma_Z + mom.Sigma_Y - 2.0 * mom.Sigma_Y @ Gt) * MYq.T))
    mean_vec = req.W_Y @ ((Gt - np.eye(Gt.shape[0])) @ mom.mu_Y)
    dist_y = trace_term + float(mean_vec @ mean_vec)

    MUq = req.W_U.T @ req.W_U
    dist_u = float(np.sum(mech.Sigma_H * MUq.T))

    return MechanismMetrics(
        mi_bits=mi,
        entropy_H_bits=ent_h,
        cost_bits=mi - ent_h,
        distortion_Y=dist_y,
        distortion_U=dist_u,
    )


def sample_mechanism(mech: Mechanism, y_seq: np.ndarray, u_seq: np.ndarray,
                     rng: np.random.Generator | int) -> tuple[np.ndarray, np.ndarray]:
    """One draw of the disclosed sequences for given clean (y, u) sequences.

    y_seq is (K, n_y), u_seq is (K, n_u); returns (z_seq, r_seq) of the same
    shapes. An integer rng seeds a counter-based generator.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(rng))))
    K, n_y = mech.K, mech.n_y
    y = np.asarray(y_seq, dtype=float).reshape(K * n_y)
    NU = mech.Sigma_H.shape[0]
    n_u = NU // K
    u = np.asarray(u_seq, dtype=float).reshape(K * n_u)

    z = mech.Gtilde @ y + mech.chol_V @ rng.standard_normal(K * n_y)
    r = u + mech.chol_H @ rng.standard_normal(NU)
    return z.reshape(K, n_y), r.reshape(K, n_u)
