"""System description, synthesis request, validation and JSON round-trip.

The on-disk format is a single JSON object with fields
``A, B, C, D, mu_x1, Sigma_x1, Sigma_T, Sigma_W, U, K, eps_Y, eps_U, W_Y, W_U``.
Covariance fields accept a scalar shorthand ``s`` meaning ``s * I``; weight
fields additionally accept a single per-step block that is replicated down
the horizon; the budgets accept the string ``"inf"``.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

# The package's one SHA-256. CPython's built-in module gives the same digest
# as hashlib without loading OpenSSL's libcrypto, which costs every command
# several megabytes and milliseconds; hashlib is the fallback for builds that
# route every hash through OpenSSL.
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

# Relative tolerances for the validation checks.
TOL_PD = 1e-10
TOL_RANK = 1e-8

MAX_DIM = 5000      # rows of any horizon stack: K * n_x, K * n_y and K * n_u

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


def _check_pd(report: ValidationReport, name: str, M: np.ndarray, n: int) -> None:
    if M.shape != (n, n):
        report.add(f"{name} must be {n}x{n}, got shape {M.shape}")
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


def _check_request(report: ValidationReport, U: np.ndarray, K: int, eps_y: float,
                   eps_u: float) -> None:
    """``validate``'s input-length and budget rules, which ``with_overrides``
    also applies to the request it returns."""
    if U.shape[0] < K - 1:
        report.add(f"U must have at least K-1 = {K - 1} entries, got {U.shape[0]}")
    for name, eps in (("eps_Y", eps_y), ("eps_U", eps_u)):
        if math.isnan(eps) or eps < 0.0:
            report.add(f"{name} must be a nonnegative real or inf, got {eps!r}")


def _check_lifted(report: ValidationReport, model: SystemModel, req: SynthesisRequest) -> None:
    """One violation naming the first lifted moment or weight Gram matrix
    that is not finite at horizon K, or Sigma_Y if it cannot be factored:
    finite entries of extreme magnitude can overflow there, or swamp the
    measurement noise that makes Sigma_Y positive definite, in every
    command that builds them."""
    # Imported here: lift imports this module, and a gauss import at the top
    # would load it before the package registers its lazy module.
    from .gauss import cholesky
    from .lift import build_lift, output_moments
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mom = output_moments(build_lift(model, req.K), model)
            grams = (("W_Y^T W_Y", req.W_Y.T @ req.W_Y), ("W_U^T W_U", req.W_U.T @ req.W_U))
    except ValueError as exc:      # a horizon beyond MAX_DIM
        report.add(str(exc))
        return
    for name, M in (("Sigma_Y", mom.Sigma_Y), ("Sigma_S", mom.Sigma_S), ("cov_YS", mom.cov_YS),
                    ("mu_Y", mom.mu_Y), ("mu_S", mom.mu_S), *grams):
        if not np.isfinite(M).all():
            report.add(f"{name} at K = {req.K} must have finite entries "
                       "(the model's magnitudes overflow)")
            return
    try:
        cholesky(mom.Sigma_Y)
    except np.linalg.LinAlgError:
        report.add(f"Sigma_Y at K = {req.K} must be positive definite in floating point "
                   "(the model's magnitudes swamp its measurement noise)")


def validate(model: SystemModel, req: SynthesisRequest) -> ValidationReport:
    """Check all structural invariants, the owner of every shape rule of the
    model and the request; pure, returns a report, never raises. Once every
    shape rule holds, the lifted moments and weight Gram matrices at K must
    be finite."""
    rep = ValidationReport()
    for name, M in (*((f, getattr(model, f)) for f in _MODEL_FIELDS),
                    ("W_Y", req.W_Y), ("W_U", req.W_U)):
        if not np.isfinite(M).all():
            rep.add(f"{name} must have finite entries")
    if not rep.ok:
        return rep      # the checks below factor these matrices

    if model.A.ndim != 2 or model.A.shape[0] != model.A.shape[1]:
        rep.add(f"A must be square, got shape {model.A.shape}")
        return rep
    for name in "BCD":
        if getattr(model, name).ndim != 2:
            rep.add(f"{name} must be a matrix, got ndim {getattr(model, name).ndim}")
            return rep
    n_x = model.n_x
    if model.B.shape[0] != n_x:
        rep.add(f"B must have {n_x} rows, got {model.B.shape[0]}")
    if model.C.shape[1] != n_x:
        rep.add(f"C must have {n_x} columns, got {model.C.shape[1]}")
    if model.D.shape[1] != n_x:
        rep.add(f"D must have {n_x} columns, got {model.D.shape[1]}")
    if model.mu_x1.shape != (n_x,):
        rep.add(f"mu_x1 must have shape ({n_x},), got {model.mu_x1.shape}")

    _check_pd(rep, "Sigma_x1", model.Sigma_x1, n_x)
    _check_pd(rep, "Sigma_T", model.Sigma_T, n_x)
    _check_pd(rep, "Sigma_W", model.Sigma_W, model.n_y)

    if not isinstance(req.K, int) or req.K < 2:
        rep.add(f"K must be an integer >= 2, got {req.K!r}")
        return rep

    if model.U.ndim != 2 or model.U.shape[1] != model.n_u:
        rep.add(f"U must be a sequence of {model.n_u}-vectors, got shape {model.U.shape}")
        return rep
    _check_request(rep, model.U, req.K, req.eps_y, req.eps_u)

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

    if rep.ok:
        _check_lifted(rep, model, req)
    return rep


def _as_array(name: str, value) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"field {name}: not a numeric array ({exc})") from None


def _as_matrix(name: str, value) -> np.ndarray:
    M = _as_array(name, value)
    if M.ndim != 2:
        raise ModelFormatError(f"field {name}: expected a matrix, got ndim {M.ndim}")
    return M


def _as_cov(name: str, value, n: int) -> np.ndarray:
    """A matrix (``validate`` checks its size), or a number s for s I of size
    n; an infinite s keeps the zero off-diagonal (not inf * 0 = NaN), and
    ``validate`` rejects its diagonal."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        s = float(value)
        return s * np.eye(n) if math.isfinite(s) else np.diag(np.full(n, s))
    return _as_matrix(name, value)


def _as_weight(name: str, value, per_step: int, K: int) -> np.ndarray:
    """Full-horizon weight from a scalar, per-step block, or full matrix."""
    full = K * per_step
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _as_cov(name, value, full)
    M = _as_matrix(name, value)
    if M.shape == (per_step, per_step) and per_step != full:
        return np.kron(np.eye(K), M)
    if M.shape == (full, full):
        return M
    raise ModelFormatError(
        f"field {name}: expected scalar, {per_step}x{per_step} per-step block, "
        f"or {full}x{full} matrix, got shape {M.shape}"
    )


def _check_horizon(K: int, n_x: int, n_y: int, n_u: int, error=ValueError) -> None:
    """Raise error unless K >= 2 and every horizon stack has at most MAX_DIM
    rows; called before any K-sized array is built."""
    if K < 2:
        raise error(f"horizon K must be >= 2, got {K}")
    for name, n in (("n_x", n_x), ("n_y", n_y), ("n_u", n_u)):
        if K * n > MAX_DIM:
            raise error(f"horizon K = {K}: stacked dimension K*{name} = {K * n} "
                        f"exceeds limit {MAX_DIM}")


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

    Converts the fields and expands the scalar/per-step shorthands, checking
    only what that needs: field kinds, U entries and the horizon bound. The
    model's shape rules are ``validate``'s.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("top-level JSON value must be an object")
    missing = [f for f in _MODEL_FIELDS + _REQUEST_FIELDS if f not in data]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")

    A, B, C, D = (_as_matrix(name, data[name]) for name in "ABCD")
    n_x = A.shape[0]
    mu = _as_array("mu_x1", data["mu_x1"])
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
        r = _as_array("U", row)
        if r.ndim != 1 or r.shape[0] != B.shape[1]:
            raise ModelFormatError(f"field U: entry {i} must be a {B.shape[1]}-vector")
        rows.append(r)
    U = np.array(rows, dtype=float) if rows else np.zeros((0, B.shape[1]))

    K_raw = data["K"]
    if not isinstance(K_raw, int) or isinstance(K_raw, bool):
        raise ModelFormatError(f"field K: expected integer, got {K_raw!r}")
    K = K_raw
    _check_horizon(K, n_x, C.shape[0], B.shape[1], error=ModelFormatError)

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


def write_json(doc: dict, path: str | None = None) -> None:
    """The package's one JSON artifact format: doc as indented, key-sorted
    JSON ending in a newline, written to path or, without one, to stdout.
    It is streamed: the whole text of a large document is never held."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model: SystemModel, req: SynthesisRequest, path: str) -> None:
    """Write the expanded model; load_model(save_model(...)) is bit-exact."""
    write_json(to_dict(model, req), path)


def check_seed(seed) -> int:
    """seed as a Python int: a non-negative int or numpy integer, not a bool
    or a float; anything else is a ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def content_hash(model: SystemModel, req: SynthesisRequest) -> str:
    """SHA-256 over the canonical expanded serialization (provenance key)."""
    blob = json.dumps(to_dict(model, req), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode("utf-8")).hexdigest()


def with_overrides(model: SystemModel, req: SynthesisRequest, *, K: int | None = None,
                   eps_y: float | None = None, eps_u: float | None = None
                   ) -> tuple[SystemModel, SynthesisRequest]:
    """Request with overridden fields; per-step-structured weights are resized.

    It owns what it sets, so a validated request needs no second
    ``validate``: U must cover K-1 steps and the budgets follow the budget
    rule (else a ValidationError). A K below 2 or beyond MAX_DIM's stacks
    is rejected, as are weights that are not a Kronecker replication of
    their first per-step block, the only ones a new K can resize. Every
    rule is checked before any K-sized weight is built, and a new K gets
    ``validate``'s check of the lifted moments.
    """
    if K is None and eps_y is None and eps_u is None:
        return model, req
    K_new = req.K if K is None else K
    eps_y = req.eps_y if eps_y is None else float(eps_y)
    eps_u = req.eps_u if eps_u is None else float(eps_u)
    _check_horizon(K_new, model.n_x, model.n_y, model.n_u)
    rep = ValidationReport()
    _check_request(rep, model.U, K_new, eps_y, eps_u)
    if not rep.ok:
        raise ValidationError(rep)
    new = replace(req, K=K_new, eps_y=eps_y, eps_u=eps_u)
    if K_new != req.K:
        new = replace(new, W_Y=_resize_weight("W_Y", req.W_Y, model.n_y, req.K, K_new),
                      W_U=_resize_weight("W_U", req.W_U, model.n_u, req.K, K_new))
        _check_lifted(rep, model, new)
        if not rep.ok:
            raise ValidationError(rep)
    return model, new


def _resize_weight(name: str, W: np.ndarray, per_step: int, K_old: int, K_new: int) -> np.ndarray:
    block = W[:per_step, :per_step]
    replicated = np.kron(np.eye(K_old), block)
    if not np.array_equal(replicated, W):
        raise ValueError(f"cannot override K: {name} is not a per-step replication")
    return np.kron(np.eye(K_new), block)
