"""Interior-point solver for determinant-maximization programs.

Problem class: minimize

    f(x) = sum_b w_b * (-log2 det X_b) + sum_j w_j * (-log2 det S_j(x)) + c_0

over a parameter vector ``x`` holding symmetric matrix blocks ``X_b``
(parameterized by their lower triangles) and generic affine blocks, subject to
linear matrix inequalities ``S_j(x) >= 0`` with ``S_j`` affine.

The LMI is the only constraint kind, so each constraint has one dual block,
``Z_j = mu S_j^-1`` at a barrier center. A scalar affine inequality
``g(x) >= 0`` is a 1x1 LMI, and a floor ``X_b >= m I`` on a symmetric
variable is the LMI ``X_b - m I >= 0``, placed with
``SymVariable.basis_factors``.

The weights ``w_j >= 0`` on LMI slacks and ``w_b`` (of either sign) on
symmetric variables must leave ``f`` convex on the feasible set; a negative
``w_b`` is how a Schur complement ``-log det(S_j / X_b)`` is written, as in a
program whose other variables were minimized out in closed form.

The solver is a log-barrier path-following method: for a decreasing barrier
parameter ``mu`` (schedule ``mu <- mu / MU_FACTOR``) it centers
``psi = f(x) + mu * phi(x)``, ``phi = -sum log det(slacks)``, with damped
Newton steps and a backtracking line search that keeps every slack positive
definite; an LMI with weight ``w_j`` so enters psi with coefficient
``w_j + mu``. The run starts from a strictly feasible point the caller
supplies and needs a program whose objective is bounded below on the
feasible set. All runs are deterministic: the same problem and start
reproduce the iteration log bit for bit.

After a centering passes its test, the next one starts from a predictor
step along the central path (Boyd & Vandenberghe, *Convex Optimization*,
2004, section 11.3): differentiating ``grad f + mu grad phi = 0`` gives
``H(mu) dx/dmu = -grad phi``, so the first-order move to ``mu' = mu /
MU_FACTOR`` is ``(mu - mu') H(mu)^-1 grad phi``. ``H(mu)`` is the Newton
matrix the centering test has just factored, so the move costs one more
substitution and no factorization. It is tried once, kept only if it lies
in the domain and lowers ``psi`` at ``mu'``, and never taken after a
centering that ended uncentered: one that ran out of Newton steps, or one
whose line search accepted a step that does not lower ``psi``. That
happens near a sliver of a feasible set, where the Armijo test's slack
rounds away; the centering then ends at the x it had.

``solve`` only solves: it reports the status, objective and duality
measure its loop measured and certifies nothing. The certificate is
``check_solution``, which recomputes every slack and the objective by
another route; a caller runs it once, on the program whose answer it
reports.

Each iterate is built once. The build evaluates f and phi apart, with their
gradients and Hessians, and the Newton system at any mu is the
recombination ``H_f + mu * H_phi``. When a centering ends and the
predictor is refused, mu is cut at the same x, so the next system costs one
recombination and one factorization. The slacks are factored once per
iterate, by the line-search or predictor trial that reaches it; the build
reuses those factors. The Hessian of an LMI whose terms all share one hub
row, as the output-distortion epigraph's do, has a closed form that needs
no gather (``_terms_hess``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .gauss import cho_solve, cholesky, solve_lower

LN2 = math.log(2.0)

CERT_TOL = 1e-8     # default PSD tolerance of check_solution

# Constants of the barrier method.
TOL_GAP = 1e-7          # duality measure mu*nu / max(1, |f|) that ends the run
MAX_OUTER = 60          # centerings
MAX_INNER = 50          # Newton steps per centering
MU_FACTOR = 10.0        # mu <- mu / MU_FACTOR after each centering
INNER_TOL = 1e-2        # decrement^2/2 <= INNER_TOL * mu ends centering
ARMIJO = 0.01
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
REGULARIZATION = 1e-12  # Hessian ridge, relative to its diagonal scale
REG_RETRIES = 3         # ridged refactorizations of one Newton system


class SolverStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


def sym_param_count(n: int) -> int:
    return n * (n + 1) // 2


def sym_param_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower-triangle parameterization."""
    rows, cols = np.tril_indices(n)
    return rows, cols


def matrix_to_sym_params(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    rows, cols = sym_param_indices(n)
    return np.asarray(M, dtype=float)[rows, cols]


@dataclass
class SymVariable:
    """Symmetric matrix block; n*(n+1)/2 parameters (lower triangle)."""

    name: str
    n: int
    logdet_weight: float
    offset: int

    def __post_init__(self):
        self.num_params = sym_param_count(self.n)
        self.rows, self.cols = sym_param_indices(self.n)
        # E_a = alpha_a (e_i e_j^T + e_j e_i^T); alpha = 1/2 on the diagonal.
        self.alpha = np.where(self.rows == self.cols, 0.5, 1.0)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        params = x[self.offset:self.offset + self.num_params]
        M = np.zeros((self.n, self.n))
        M[self.rows, self.cols] = params
        M[self.cols, self.rows] = params
        return M

    def basis_factors(self, dim: int, offset: int = 0,
                      sign: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Hub rows and vectors placing +/-E_a on the diagonal block at
        ``offset`` of a dim x dim LMI: E_a = alpha_a (e_i e_j^T + e_j e_i^T)
        is the rank-2 placement with hub row i and vector alpha_a e_j."""
        vectors = np.zeros((self.num_params, dim))
        vectors[np.arange(self.num_params), offset + self.cols] = sign * self.alpha
        return offset + self.rows, vectors


@dataclass
class AffineVariable:
    """Generic parameter block entering constraints affinely (no logdet)."""

    name: str
    num_params: int
    offset: int


@dataclass
class LmiConstraint:
    """S(x) = constant + sum_k x_k (e_{r_k} v_k^T + v_k e_{r_k}^T) >= 0.

    Every term is a symmetric rank-2 placement: parameter k of a variable
    puts its vector v_k on hub row and column r_k. ``rows[var]`` holds the
    hub rows r_k, ``terms[var]`` the (p, dim) array whose row k is v_k.
    A nonzero ``weight`` adds ``weight * (-log2 det S(x))`` to the objective.
    """

    name: str
    dim: int
    constant: np.ndarray
    weight: float = 0.0
    terms: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    def add_term(self, var_name: str, rows: np.ndarray, vectors: np.ndarray) -> None:
        """Register a variable's terms; ValueError on a bad shape or hub row."""
        vectors = np.asarray(vectors, dtype=float)
        rows = np.asarray(rows)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"term vectors for {var_name} must be (p, {self.dim})")
        if rows.shape != (vectors.shape[0],):
            raise ValueError(f"term rows for {var_name} must be one hub row per vector")
        if rows.size and not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"term rows for {var_name} must be integers")
        if rows.size and (rows.min() < 0 or rows.max() >= self.dim):
            raise ValueError(f"term rows for {var_name} must lie in [0, {self.dim})")
        self.rows[var_name] = rows.astype(np.intp)
        self.terms[var_name] = vectors


class SdpProblem:
    """Container for variables, objective and constraints.

    Variables are registered in order; their parameters are concatenated into
    one global vector. The objective is a sum of -log2 det terms (weights on
    symmetric variables and on LMI slacks) plus ``objective_offset``, a
    constant that moves the reported objective but not the iterates.
    """

    def __init__(self):
        self.sym_vars: dict[str, SymVariable] = {}
        self.affine_vars: dict[str, AffineVariable] = {}
        self.lmis: list[LmiConstraint] = []
        self.objective_offset = 0.0
        self._num_params = 0
        self.meta: dict = {}

    # ---- construction -------------------------------------------------

    def add_sym_var(self, name: str, n: int, logdet_weight: float = 0.0) -> SymVariable:
        self._check_name(name)
        v = SymVariable(name=name, n=n, logdet_weight=float(logdet_weight),
                        offset=self._num_params)
        self.sym_vars[name] = v
        self._num_params += v.num_params
        return v

    def add_affine_var(self, name: str, num_params: int) -> AffineVariable:
        self._check_name(name)
        v = AffineVariable(name=name, num_params=int(num_params), offset=self._num_params)
        self.affine_vars[name] = v
        self._num_params += v.num_params
        return v

    def add_lmi(self, name: str, dim: int, constant: np.ndarray | None = None,
                weight: float = 0.0) -> LmiConstraint:
        constant = np.zeros((dim, dim)) if constant is None else np.asarray(constant, dtype=float)
        if constant.shape != (dim, dim):
            raise ValueError(f"LMI constant must be {dim}x{dim}")
        if not weight >= 0.0:
            raise ValueError(f"LMI objective weight must be >= 0, got {weight}")
        con = LmiConstraint(name=name, dim=dim, constant=constant, weight=float(weight))
        self.lmis.append(con)
        return con

    def _check_name(self, name: str) -> None:
        if name in self.sym_vars or name in self.affine_vars:
            raise ValueError(f"duplicate variable name {name!r}")

    # ---- queries -------------------------------------------------------

    @property
    def num_params(self) -> int:
        return self._num_params

    def variable(self, name: str):
        if name in self.sym_vars:
            return self.sym_vars[name]
        return self.affine_vars[name]

    def var_slice(self, name: str) -> slice:
        v = self.variable(name)
        return slice(v.offset, v.offset + v.num_params)

    def values(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Split a global parameter vector into named matrices / param blocks."""
        out: dict[str, np.ndarray] = {}
        for name, v in self.sym_vars.items():
            out[name] = v.matrix(x)
        for name, v in self.affine_vars.items():
            out[name] = x[v.offset:v.offset + v.num_params].copy()
        return out

    def pack(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Global parameter vector from named matrices / parameter blocks."""
        x = np.zeros(self.num_params)
        for name, v in self.sym_vars.items():
            x[v.offset:v.offset + v.num_params] = matrix_to_sym_params(np.asarray(values[name]))
        for name, v in self.affine_vars.items():
            x[v.offset:v.offset + v.num_params] = np.asarray(values[name], dtype=float).reshape(-1)
        return x


@dataclass
class IterationRecord:
    """One move of x: a Newton step at ``mu``, or a predictor step to the
    next centering's ``mu``. ``objective`` is f / ln 2 at the new iterate:
    the objective in reported units without the constant
    ``objective_offset``, so the solution's objective equals the last
    record's plus that offset."""

    iteration: int
    mu: float
    objective: float
    # Newton decrement of a Newton step; for a predictor step, the move's
    # length in the local norm of the Newton matrix. Diagnostic only.
    decrement: float


@dataclass
class SdpSolution:
    status: SolverStatus
    objective: float
    x: np.ndarray
    variables: dict[str, np.ndarray]
    duality_measure: float      # mu * nu / max(1, |f|), the barrier's stopping test
    iterations: list[IterationRecord]
    message: str = ""
    mu_final: float = math.nan
    newton_steps: int = 0       # Newton steps taken; ``iterations`` adds the predictor steps


# ---------------------------------------------------------------------------
# assembly plan

# Row chunk of the Hessian builds: the elementwise products of one term
# block are formed at most about this many entries at a time, so a build
# needs no large array beyond the two Hessian accumulators and the block.
# For one K=20 block on a 2-core Xeon, 8192 measured fastest of 4096 to
# 65536.
CHUNK_ENTRIES = 1 << 13


def _row_chunks(width: int) -> list[slice]:
    """Row slices covering range(width), each at most CHUNK_ENTRIES // width
    rows long, so a chunk of a width-wide matrix holds at most about
    CHUNK_ENTRIES entries."""
    step = max(1, CHUNK_ENTRIES // max(width, 1))
    return [slice(a, min(a + step, width)) for a in range(0, width, step)]


@dataclass
class _Terms:
    """Rank-2 terms of an affine matrix function, stacked: term k belongs to
    global parameter idx[k] and adds x[idx[k]] (e_r v^T + v e_r^T) with
    r = rows[k] and v = vectors[k]. ``runs`` pairs each run of consecutive
    global indices in idx, as a local and a global slice: one per variable
    at most, since every variable's terms are stacked whole."""

    idx: np.ndarray
    rows: np.ndarray
    vectors: np.ndarray     # (p, dim)

    def __post_init__(self):
        p = self.rows.size
        self.terms_at = np.arange(p)
        self.chunks = _row_chunks(p)
        # The row every term shares, or None: the closed form of _terms_hess.
        self.hub_row = int(self.rows[0]) if p and (self.rows == self.rows[0]).all() else None
        cuts = [0, *(np.flatnonzero(np.diff(self.idx) != 1) + 1), p]
        self.runs = [(slice(a, b), slice(self.idx[a], self.idx[a] + b - a))
                     for a, b in zip(cuts[:-1], cuts[1:]) if b > a]

    @classmethod
    def basis(cls, v: SymVariable) -> "_Terms":
        """A symmetric variable's own basis: E_a = alpha_a (e_i e_j^T + e_j e_i^T)
        is the term with hub row i and vector alpha_a e_j."""
        rows, vectors = v.basis_factors(v.n)
        return cls(idx=v.offset + np.arange(v.num_params), rows=rows, vectors=vectors)

    @functools.cached_property
    def hub(self) -> np.ndarray:
        """hub[k] = e_{rows[k]}, so sum_k x_k e_{r_k} v_k^T = hub^T diag(x) V."""
        hub = np.zeros_like(self.vectors)
        hub[self.terms_at, self.rows] = 1.0
        return hub

    def matrix(self, constant: np.ndarray, x: np.ndarray) -> np.ndarray:
        M = self.hub.T @ (x[self.idx, None] * self.vectors)
        return constant + M + M.T


class _Plan:
    """Per-solve preprocessed views: index maps and stacked terms."""

    def __init__(self, problem: SdpProblem):
        self.problem = problem
        self.n = problem.num_params
        self.sym_list = list(problem.sym_vars.values())
        self.sym_terms = {v.name: _Terms.basis(v) for v in self.sym_list
                          if v.logdet_weight != 0.0}

        # Each LMI with its terms, stacked variable by variable.
        self.lmis: list[tuple[LmiConstraint, _Terms]] = []
        for con in problem.lmis:
            idx, rows, vectors = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], []
            for name, v in con.terms.items():
                idx.append(problem.variable(name).offset + np.arange(len(v)))
                rows.append(con.rows[name])
                vectors.append(v)
            self.lmis.append((con, _Terms(
                idx=np.concatenate(idx), rows=np.concatenate(rows),
                vectors=np.concatenate([np.zeros((0, con.dim)), *vectors]))))

        # Barrier degree.
        self.nu = sum(con.dim for con in problem.lmis)


def _chol_or_none(M: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of M, or None where M is outside the PD cone (a
    non-finite M included)."""
    try:
        return cholesky(M)
    except (np.linalg.LinAlgError, ValueError):
        return None


def _logdet_from_chol(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _inv_from_chol(L: np.ndarray) -> np.ndarray:
    Linv = solve_lower(L, np.eye(L.shape[0]))
    return Linv.T @ Linv


def _terms_hess(terms: _Terms, P: np.ndarray, PV: np.ndarray) -> np.ndarray:
    """Hessian of -log det S over the terms T_k = e_r v_k^T + v_k e_r^T, with
    P = S^-1 and PV = P V^T:
    tr(P T_k P T_l) = 2 (P[r_k, r_l] (V P V^T)[k, l] + B[k, l] B[l, k]),
    B = PV[r, :]. When every term has the hub row r0 this is
    2 P[r0, r0] V P V^T + 2 u u^T with u = PV[r0], and no gather is needed.
    The elementwise products are formed a row chunk at a time, so their
    temporaries stay small."""
    r = terms.rows
    H = terms.vectors @ PV
    if terms.hub_row is not None:
        u = PV[terms.hub_row]
        H *= 2.0 * P[terms.hub_row, terms.hub_row]
        u2 = 2.0 * u
        for a in terms.chunks:
            H[a] += np.multiply.outer(u[a], u2)
        return H
    P2, B2 = 2.0 * P, 2.0 * PV
    for a in terms.chunks:
        H[a] *= P2[r[a]][:, r]
        Bt = PV[:, a][r].T
        Bt *= B2[r[a]]
        H[a] += Bt
    return H


def _add_hess(dest: np.ndarray, H: np.ndarray, terms: _Terms) -> None:
    """dest[idx_k, idx_l] += H[k, l] over the terms, a block per pair of runs."""
    for loc_a, glob_a in terms.runs:
        for loc_b, glob_b in terms.runs:
            dest[glob_a, glob_b] += H[loc_a, loc_b]


class _Infeasible(Exception):
    pass


@dataclass
class _Parts:
    """The barrier function's two parts at one point x, kept apart:
    psi = f + mu * phi, with f the objective (in nats) and phi the barrier
    -sum log det(slacks). Its derivatives at any mu so follow from one
    build. ``factors`` holds the Cholesky factor of every slack in plan
    order, for a later build at the same x."""

    f: float
    phi: float
    factors: list[np.ndarray]
    grad_f: np.ndarray | None = None
    grad_phi: np.ndarray | None = None
    hess_f: np.ndarray | None = None
    hess_phi: np.ndarray | None = None

    def psi(self, mu: float) -> float:
        return self.f + mu * self.phi

    def combine(self, mu: float):
        """(psi, f, grad, hess) at barrier parameter mu; the derivatives not
        built are None. The parts stay."""
        grad = hess = None
        if self.grad_f is not None:
            grad = self.grad_f + mu * self.grad_phi
        if self.hess_f is not None:
            hess = mu * self.hess_phi
            hess += self.hess_f
        return self.psi(mu), self.f, grad, hess

    def add_logdet(self, terms: _Terms, L: np.ndarray, order: int,
                   weight: float, barrier: bool) -> None:
        """Adds -log det S, S = L L^T affine in x through ``terms``: weight
        times into f and, for a barrier term, once into phi."""
        value = -_logdet_from_chol(L)
        if barrier:
            self.phi += value
        if weight != 0.0:
            self.f += weight * value
        if order < 1:
            return
        P = _inv_from_chol(L)
        PV = P @ terms.vectors.T
        g = -2.0 * PV[terms.rows, terms.terms_at]
        if barrier:
            self.grad_phi[terms.idx] += g
        if weight != 0.0:
            self.grad_f[terms.idx] += weight * g
        if order < 2:
            return
        H = _terms_hess(terms, P, PV)
        if barrier:
            _add_hess(self.hess_phi, H, terms)
        if weight != 0.0:
            if weight != 1.0:
                H *= weight
            _add_hess(self.hess_f, H, terms)


def _build(plan: _Plan, x: np.ndarray, order: int,
           factors: list[np.ndarray] | None = None) -> _Parts:
    """f and phi with their derivatives up to ``order`` (0, 1 or 2) at x;
    raises _Infeasible outside the domain.

    ``factors``, the ``factors`` of an earlier build at the same x, are used
    instead of forming and factoring the slacks again."""
    n = plan.n
    parts = _Parts(f=0.0, phi=0.0, factors=[])
    if order >= 1:
        parts.grad_f = np.zeros(n)
        parts.grad_phi = np.zeros(n)
    if order >= 2:
        parts.hess_f, parts.hess_phi = np.zeros((n, n)), np.zeros((n, n))
    reuse = None if factors is None else iter(factors)

    def factor(slack, label: str) -> np.ndarray:
        L = _chol_or_none(slack()) if reuse is None else next(reuse)
        if L is None:
            raise _Infeasible(label)
        parts.factors.append(L)
        return L

    # Symmetric variables' objective logdet: a negative weight is concave
    # here, convex only together with the LMIs.
    for v in plan.sym_list:
        if v.logdet_weight != 0.0:
            L = factor(lambda: v.matrix(x), f"logdet domain {v.name}")
            parts.add_logdet(plan.sym_terms[v.name], L, order, v.logdet_weight, barrier=False)

    # LMIs: an LMI with objective weight w adds w times its barrier term to
    # f, so psi holds it with coefficient w + mu.
    for con, terms in plan.lmis:
        L = factor(lambda: terms.matrix(con.constant, x), f"lmi {con.name}")
        parts.add_logdet(terms, L, order, con.weight, barrier=True)

    return parts


def _solve_newton(hess: np.ndarray, grad: np.ndarray):
    """Newton direction with ridge retries; returns (d, decrement_sq, L) or
    None, L the Cholesky factor of the (ridged) system."""
    diag_scale = max(1.0, float(np.max(np.diag(hess))))
    ridge = REGULARIZATION * diag_scale
    H = hess
    for attempt in range(REG_RETRIES + 1):
        try:
            L = cholesky(H)
        except np.linalg.LinAlgError:
            H = _ridged(hess, ridge)
            ridge *= 1e3
            continue
        d = -cho_solve(L, grad)
        dec_sq = float(-grad @ d)
        if dec_sq < 0.0:
            # Indefiniteness slipped past the factorization: regularize more.
            H = _ridged(hess, ridge)
            ridge *= 1e3
            continue
        return d, dec_sq, L
    return None


def _ridged(hess: np.ndarray, ridge: float) -> np.ndarray:
    """hess + ridge * I as one new array."""
    H = hess.copy()
    H[np.diag_indices_from(H)] += ridge
    return H


# ---------------------------------------------------------------------------
# public entry points


def solve(problem: SdpProblem, *, init: np.ndarray | dict) -> SdpSolution:
    """Minimize the determinant-maximization objective over the feasible set.

    ``init``, a global parameter vector or a dict of named values, must be
    strictly feasible; a start outside the barrier's domain ends the run at
    once with status NumericalFailure. The iteration log is deterministic
    for the same problem and start.

    The solution reports what the loop measured at its last iterate x: the
    objective ``f / ln 2 + objective_offset`` and the duality measure
    ``mu * nu / max(1, |f|)``, at status Optimal the value that passed the
    stopping test. The point is not certified: ``check_solution`` is the
    certificate, run by the caller on the program whose answer it reports.

    Each iterate is built once: ``at_x`` holds f and phi with their
    derivatives at x, and the Newton system at any mu is recombined from
    them. When the centering test ends an outer iteration, mu is cut and one
    predictor trial is made from the factor that test used; if it is
    refused x stays, so the next system costs one recombination and no
    build. A centering that runs out of Newton steps, or whose line search
    accepts a step that does not lower psi, ends uncentered: mu is cut at
    the x it had, with its build, and no predictor trial is made. A move to
    a new x passes on the slack factors of its accepted trial, so no slack
    is factored twice at one iterate. The log holds every move;
    ``newton_steps`` counts the Newton steps among them.
    """
    plan = _Plan(problem)
    x = problem.pack(init) if isinstance(init, dict) else np.array(init, dtype=float)
    f = mu = math.nan
    log: list[IterationRecord] = []
    newton_steps = 0

    def result(status: SolverStatus, message: str) -> SdpSolution:
        return SdpSolution(
            status=status, objective=f / LN2 + problem.objective_offset, x=x,
            variables=problem.values(x), duality_measure=mu * plan.nu / max(1.0, abs(f)),
            iterations=log, message=message, mu_final=mu, newton_steps=newton_steps)

    try:
        at_x = _build(plan, x, 0)
    except _Infeasible as exc:
        return result(SolverStatus.NUMERICAL_FAILURE, f"start point outside domain ({exc})")

    f = at_x.f
    mu = max(1.0, abs(f) / max(plan.nu, 1))

    for outer in range(MAX_OUTER):
        centered = False
        for inner in range(MAX_INNER):
            if at_x.hess_f is None:
                at_x = _build(plan, x, 2, at_x.factors)
            psi, f, grad, hess = at_x.combine(mu)
            nd = _solve_newton(hess, grad)
            if nd is None:
                return result(SolverStatus.NUMERICAL_FAILURE,
                              "Newton system factorization failed")
            d, dec_sq, L = nd
            centered = 0.5 * dec_sq <= INNER_TOL * mu
            tangent = cho_solve(L, at_x.grad_phi) if centered else None
            del nd, L       # the factor is not held through the next build
            if centered:
                break

            # Backtracking: keep every slack PD, then Armijo decrease.
            accepted = None
            alpha = 1.0
            gd = float(grad @ d)
            for _ in range(MAX_BACKTRACKS):
                trial = x + alpha * d
                try:
                    at_trial = _build(plan, trial, 0)
                except _Infeasible:
                    alpha *= BACKTRACK
                    continue
                if at_trial.psi(mu) <= psi + ARMIJO * alpha * gd:
                    accepted = at_trial
                    break
                alpha *= BACKTRACK
            if accepted is None:
                return result(SolverStatus.NUMERICAL_FAILURE,
                              "line search failed to make progress")
            if accepted.psi(mu) >= psi:
                # The Armijo slack rounded away: the step cannot lower psi,
                # so the centering ends at x, uncentered, as after MAX_INNER.
                break

            x, at_x, f = trial, accepted, accepted.f
            newton_steps += 1
            log.append(IterationRecord(iteration=len(log) + 1, mu=mu, objective=f / LN2,
                                       decrement=math.sqrt(dec_sq)))

        if mu * plan.nu / max(1.0, abs(f)) <= TOL_GAP:
            return result(SolverStatus.OPTIMAL, "duality measure below tolerance")
        mu_next = mu / MU_FACTOR

        # Predictor: one trial along the central path's tangent, from a
        # point that passed the centering test only. dx/dmu = -tangent, so
        # the move to mu_next is (mu - mu_next) * tangent; it is kept if it
        # lowers psi at mu_next, with no backtracking.
        if centered and np.isfinite(tangent).all():
            step = mu - mu_next
            trial = x + step * tangent
            try:
                at_trial = _build(plan, trial, 0)
            except _Infeasible:
                at_trial = None
            if at_trial is not None and at_trial.psi(mu_next) < at_x.psi(mu_next):
                # The move's length in the local norm of H(mu), finite:
                # tangent^T grad_phi = tangent^T H tangent >= 0.
                length = step * math.sqrt(max(float(tangent @ at_x.grad_phi), 0.0))
                x, at_x, f = trial, at_trial, at_trial.f
                log.append(IterationRecord(iteration=len(log) + 1, mu=mu_next,
                                           objective=f / LN2, decrement=length))
        mu = mu_next

    return result(SolverStatus.MAX_ITERATIONS, "outer iteration limit reached")


# ---------------------------------------------------------------------------
# independent certificate checking


@dataclass
class ConstraintCheck:
    name: str
    min_slack: float        # min eigenvalue of the LMI's slack


@dataclass
class CertificateReport:
    ok: bool
    objective: float
    checks: list[ConstraintCheck]
    max_psd_violation: float


def check_solution(problem: SdpProblem, x: np.ndarray | dict,
                   tol_psd: float = CERT_TOL, tol_scalar: float = CERT_TOL) -> CertificateReport:
    """Recompute every residual from scratch (eigenvalue route) and the
    objective in reported units (slogdet route; inf outside the logdet
    domain).

    Deliberately avoids the solver's Cholesky/assembly code paths so it can
    serve as an independent certificate of the returned point; it is the
    only place the objective is recomputed. Every constraint is an LMI held
    to ``tol_psd``; ``tol_scalar`` is accepted and unused, since a scalar
    constraint is a 1x1 LMI.
    """
    xv = problem.pack(x) if isinstance(x, dict) else np.asarray(x, dtype=float)
    checks: list[ConstraintCheck] = []
    max_psd = 0.0
    weighted = [(v.logdet_weight, v.matrix(xv)) for v in problem.sym_vars.values()
                if v.logdet_weight != 0.0]

    for con in problem.lmis:
        slack = _lmi_matrix(problem, con, xv)
        mins = float(np.linalg.eigvalsh(slack)[0])
        checks.append(ConstraintCheck(con.name, mins))
        max_psd = max(max_psd, -mins)
        if con.weight != 0.0:
            weighted.append((con.weight, slack))

    objective = problem.objective_offset
    for weight, M in weighted:
        sign, ld = np.linalg.slogdet(M)
        if sign <= 0:
            objective = math.inf
            break
        objective += weight * (-float(ld) / LN2)
    return CertificateReport(ok=max_psd <= tol_psd, objective=objective, checks=checks,
                             max_psd_violation=max_psd)


# ---------------------------------------------------------------------------
# shared helpers


def _lmi_matrix(problem: SdpProblem, con: LmiConstraint, x: np.ndarray) -> np.ndarray:
    """The slack S(x), placed term by term."""
    M = np.zeros((con.dim, con.dim))
    for var_name, vectors in con.terms.items():
        np.add.at(M, con.rows[var_name], x[problem.var_slice(var_name), None] * vectors)
    return con.constant + M + M.T
