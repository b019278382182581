"""System description, synthesis request, validation and JSON round-trip.

The on-disk format is a single JSON object with fields
``A, B, C, D, mu_x1, Sigma_x1, Sigma_T, Sigma_W, U, K, eps_Y, eps_U, W_Y, W_U``.
Covariance fields accept a scalar shorthand ``s`` meaning ``s * I``; weight
fields additionally accept a single per-step block that is replicated down
the horizon; the budgets accept the string ``"inf"``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Relative tolerances for the validation checks.
TOL_PD = 1e-10
TOL_RANK = 1e-8

_MODEL_FIELDS = ("A", "B", "C", "D", "mu_x1", "Sigma_x1", "Sigma_T", "Sigma_W", "U")
_REQUEST_FIELDS = ("K", "eps_Y", "eps_U", "W_Y", "W_U")


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or is schematically wrong."""


class ValidationError(ValueError):
    """Raised by :func:`load_model` when the parsed model violates an invariant."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


@dataclass(frozen=True)
class SystemModel:
    """Time-invariant stochastic linear system with a private output.

    State recursion ``X(k+1) = A X(k) + B U(k) + T(k)``, measured output
    ``Y(k) = C X(k) + W(k)``, private output ``S(k) = D X(k)``, with
    ``X(1) ~ N(mu_x1, Sigma_x1)`` and i.i.d. zero-mean Gaussian noises of
    covariance ``Sigma_T`` (process) and ``Sigma_W`` (measurement).
    ``U`` is the known deterministic input sequence, one row per step.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mu_x1: np.ndarray
    Sigma_x1: np.ndarray
    Sigma_T: np.ndarray
    Sigma_W: np.ndarray
    U: np.ndarray

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_s(self) -> int:
        return self.D.shape[0]

    def input_sequence(self, K: int) -> np.ndarray:
        """First ``K`` input rows, zero-padding the final row if only K-1 given."""
        if self.U.shape[0] >= K:
            return np.asarray(self.U[:K], dtype=float)
        if self.U.shape[0] == K - 1:
            return np.vstack([self.U, np.zeros((1, self.n_u))])
        raise ValueError(f"input sequence has {self.U.shape[0]} rows, need at least {K - 1}")


@dataclass(frozen=True)
class SynthesisRequest:
    """Horizon, distortion budgets and full-horizon distortion weights.

    ``W_Y`` is ``(K*n_y, K*n_y)`` and ``W_U`` is ``(K*n_u, K*n_u)``; both must
    have full column rank. Budgets are positive reals or ``inf`` (constraint
    dropped); a zero budget is accepted here but makes synthesis infeasible.
    """

    K: int
    eps_y: float
    eps_u: float
    W_Y: np.ndarray
    W_U: np.ndarray


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`: ``ok`` plus human-readable violations."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _is_symmetric(M: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    return bool(np.max(np.abs(M - M.T)) <= 1e-12 * scale) if M.size else True


def _min_max_eig(M: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    return float(w[0]), float(w[-1])


def _check_pd(report: ValidationReport, name: str, M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        report.add(f"{name} must be square, got shape {M.shape}")
        return
    if not _is_symmetric(M):
        report.add(f"{name} must be symmetric")
        return
    lo, hi = _min_max_eig(M)
    if hi <= 0.0 or lo <= TOL_PD * hi:
        report.add(f"{name} must be positive definite (min eig {lo:.3e}, max eig {hi:.3e})")


def _check_full_column_rank(report: ValidationReport, name: str, M: np.ndarray) -> None:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[-1] <= TOL_RANK * s[0]:
        smin = float(s[-1]) if s.size else 0.0
        report.add(f"{name} must have full column rank (min singular value {smin:.3e})")


def validate(model: SystemModel, req: SynthesisRequest) -> ValidationReport:
    """Check all structural invariants; pure, returns a report, never raises."""
    rep = ValidationReport()
    n_x = model.A.shape[0]

    if model.A.ndim != 2 or model.A.shape[0] != model.A.shape[1]:
        rep.add(f"A must be square, got shape {model.A.shape}")
        return rep
    for name, M, rows in (("B", model.B, n_x), ("C", model.C, None), ("D", model.D, None)):
        if M.ndim != 2:
            rep.add(f"{name} must be a matrix, got ndim {M.ndim}")
            return rep
    if model.B.shape[0] != n_x:
        rep.add(f"B must have {n_x} rows, got {model.B.shape[0]}")
    if model.C.shape[1] != n_x:
        rep.add(f"C must have {n_x} columns, got {model.C.shape[1]}")
    if model.D.shape[1] != n_x:
        rep.add(f"D must have {n_x} columns, got {model.D.shape[1]}")
    if model.mu_x1.shape != (n_x,):
        rep.add(f"mu_x1 must have shape ({n_x},), got {model.mu_x1.shape}")

    _check_pd(rep, "Sigma_x1", model.Sigma_x1)
    _check_pd(rep, "Sigma_T", model.Sigma_T)
    _check_pd(rep, "Sigma_W", model.Sigma_W)
    if model.Sigma_x1.shape != (n_x, n_x):
        rep.add(f"Sigma_x1 must be {n_x}x{n_x}")
    if model.Sigma_T.shape != (n_x, n_x):
        rep.add(f"Sigma_T must be {n_x}x{n_x}")
    if model.Sigma_W.shape != (model.n_y, model.n_y):
        rep.add(f"Sigma_W must be {model.n_y}x{model.n_y}")

    if not isinstance(req.K, int) or req.K < 2:
        rep.add(f"K must be an integer >= 2, got {req.K!r}")
        return rep

    if model.U.ndim != 2 or model.U.shape[1] != model.n_u:
        rep.add(f"U must be a sequence of {model.n_u}-vectors, got shape {model.U.shape}")
    elif model.U.shape[0] < req.K - 1:
        rep.add(f"U must have at least K-1 = {req.K - 1} entries, got {model.U.shape[0]}")

    for name, eps in (("eps_Y", req.eps_y), ("eps_U", req.eps_u)):
        if math.isnan(eps) or eps < 0.0:
            rep.add(f"{name} must be a nonnegative real or inf, got {eps!r}")

    ny_full = req.K * model.n_y
    nu_full = req.K * model.n_u
    if req.W_Y.shape != (ny_full, ny_full):
        rep.add(f"W_Y must be {ny_full}x{ny_full}, got {req.W_Y.shape}")
    else:
        _check_full_column_rank(rep, "W_Y", req.W_Y)
    if req.W_U.shape != (nu_full, nu_full):
        rep.add(f"W_U must be {nu_full}x{nu_full}, got {req.W_U.shape}")
    else:
        _check_full_column_rank(rep, "W_U", req.W_U)

    return rep


def _as_matrix(name: str, value, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    try:
        M = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"field {name}: not a numeric array ({exc})") from None
    if M.ndim != 2:
        raise ModelFormatError(f"field {name}: expected a matrix, got ndim {M.ndim}")
    if rows is not None and M.shape[0] != rows:
        raise ModelFormatError(f"field {name}: expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ModelFormatError(f"field {name}: expected {cols} columns, got {M.shape[1]}")
    return M


def _as_cov(name: str, value, n: int) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) * np.eye(n)
    return _as_matrix(name, value, n, n)


def _as_weight(name: str, value, per_step: int, K: int) -> np.ndarray:
    """Full-horizon weight from a scalar, per-step block, or full matrix."""
    full = K * per_step
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value) * np.eye(full)
    M = _as_matrix(name, value)
    if M.shape == (per_step, per_step) and per_step != full:
        return np.kron(np.eye(K), M)
    if M.shape == (full, full):
        return M
    raise ModelFormatError(
        f"field {name}: expected scalar, {per_step}x{per_step} per-step block, "
        f"or {full}x{full} matrix, got shape {M.shape}"
    )


def _as_eps(name: str, value) -> float:
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity", "+inf"):
            return math.inf
        raise ModelFormatError(f"field {name}: unrecognized string {value!r} (use \"inf\")")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ModelFormatError(f"field {name}: expected number or \"inf\", got {type(value).__name__}")


def parse_model(data: dict) -> tuple[SystemModel, SynthesisRequest]:
    """Build (SystemModel, SynthesisRequest) from a decoded JSON object.

    Applies the scalar/per-step shorthands but performs no invariant
    validation beyond shape coherence needed to expand them.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("top-level JSON value must be an object")
    missing = [f for f in _MODEL_FIELDS + _REQUEST_FIELDS if f not in data]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")

    A = _as_matrix("A", data["A"])
    n_x = A.shape[0]
    if A.shape[1] != n_x:
        raise ModelFormatError(f"field A: must be square, got {A.shape}")
    B = _as_matrix("B", data["B"], rows=n_x)
    C = _as_matrix("C", data["C"], cols=n_x)
    D = _as_matrix("D", data["D"], cols=n_x)

    mu = np.array(data["mu_x1"], dtype=float)
    if mu.ndim != 1 or mu.shape[0] != n_x:
        raise ModelFormatError(f"field mu_x1: expected {n_x}-vector, got shape {mu.shape}")

    Sigma_x1 = _as_cov("Sigma_x1", data["Sigma_x1"], n_x)
    Sigma_T = _as_cov("Sigma_T", data["Sigma_T"], n_x)
    Sigma_W = _as_cov("Sigma_W", data["Sigma_W"], C.shape[0])

    U_raw = data["U"]
    if not isinstance(U_raw, list):
        raise ModelFormatError("field U: expected a list of input vectors")
    rows = []
    for i, row in enumerate(U_raw):
        if isinstance(row, (int, float)) and not isinstance(row, bool):
            row = [row]
        r = np.array(row, dtype=float)
        if r.ndim != 1 or r.shape[0] != B.shape[1]:
            raise ModelFormatError(f"field U: entry {i} must be a {B.shape[1]}-vector")
        rows.append(r)
    U = np.array(rows, dtype=float) if rows else np.zeros((0, B.shape[1]))

    K_raw = data["K"]
    if not isinstance(K_raw, int) or isinstance(K_raw, bool):
        raise ModelFormatError(f"field K: expected integer, got {K_raw!r}")
    K = K_raw

    eps_y = _as_eps("eps_Y", data["eps_Y"])
    eps_u = _as_eps("eps_U", data["eps_U"])
    W_Y = _as_weight("W_Y", data["W_Y"], C.shape[0], K)
    W_U = _as_weight("W_U", data["W_U"], B.shape[1], K)

    model = SystemModel(A=A, B=B, C=C, D=D, mu_x1=mu, Sigma_x1=Sigma_x1,
                        Sigma_T=Sigma_T, Sigma_W=Sigma_W, U=U)
    req = SynthesisRequest(K=K, eps_y=eps_y, eps_u=eps_u, W_Y=W_Y, W_U=W_U)
    return model, req


def load_model(path: str) -> tuple[SystemModel, SynthesisRequest]:
    """Parse, expand and validate a model file.

    Raises ModelFormatError on parse or schema problems and ValidationError
    (carrying the full report) on invariant violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from None
    model, req = parse_model(data)
    report = validate(model, req)
    if not report.ok:
        raise ValidationError(report)
    return model, req


def _eps_out(eps: float):
    return "inf" if math.isinf(eps) else eps


def to_dict(model: SystemModel, req: SynthesisRequest) -> dict:
    """JSON-ready dict with fully expanded matrices (no shorthands)."""
    return {
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
        "mu_x1": model.mu_x1.tolist(),
        "Sigma_x1": model.Sigma_x1.tolist(),
        "Sigma_T": model.Sigma_T.tolist(),
        "Sigma_W": model.Sigma_W.tolist(),
        "U": model.U.tolist(),
        "K": req.K,
        "eps_Y": _eps_out(req.eps_y),
        "eps_U": _eps_out(req.eps_u),
        "W_Y": req.W_Y.tolist(),
        "W_U": req.W_U.tolist(),
    }


def save_model(model: SystemModel, req: SynthesisRequest, path: str) -> None:
    """Write the expanded model; load_model(save_model(...)) is bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(model, req), fh, indent=2, sort_keys=True)
        fh.write("\n")


def content_hash(model: SystemModel, req: SynthesisRequest) -> str:
    """SHA-256 over the canonical expanded serialization (provenance key)."""
    blob = json.dumps(to_dict(model, req), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def with_overrides(model: SystemModel, req: SynthesisRequest, *, K: int | None = None,
                   eps_y: float | None = None, eps_u: float | None = None
                   ) -> tuple[SystemModel, SynthesisRequest]:
    """Request with overridden fields; per-step-structured weights are resized.

    Changing K requires the stored weights to be expandable: they must equal
    a Kronecker replication of their first per-step block, otherwise the
    override is rejected.
    """
    if K is None and eps_y is None and eps_u is None:
        return model, req
    K_new = req.K if K is None else K
    W_Y, W_U = req.W_Y, req.W_U
    if K_new != req.K:
        W_Y = _resize_weight("W_Y", req.W_Y, model.n_y, req.K, K_new)
        W_U = _resize_weight("W_U", req.W_U, model.n_u, req.K, K_new)
    new_req = SynthesisRequest(
        K=K_new,
        eps_y=req.eps_y if eps_y is None else float(eps_y),
        eps_u=req.eps_u if eps_u is None else float(eps_u),
        W_Y=W_Y,
        W_U=W_U,
    )
    return model, new_req


def _resize_weight(name: str, W: np.ndarray, per_step: int, K_old: int, K_new: int) -> np.ndarray:
    block = W[:per_step, :per_step]
    replicated = np.kron(np.eye(K_old), block)
    if not np.array_equal(replicated, W):
        raise ValueError(f"cannot override K: {name} is not a per-step replication")
    return np.kron(np.eye(K_new), block)
