"""The disclosure mechanism: its matrices, their layout and its file format.

The mechanism discloses Z = G~ Y + V and R = U + H, where G~ is block
diagonal with the per-step output matrices G_1..G_K, V is zero-mean
Gaussian with covariance Sigma_V over the output stack and H zero-mean
Gaussian with covariance Sigma_H over the input stack. ``synth`` designs
it, ``sim`` simulates it; this module is all that the two share, so the
Monte Carlo command loads none of the design code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .gauss import _sym, cholesky
from .model import SystemModel, _as_array, write_json

DET_FLAG_TOL = 1e-10


class ExtractionFailure(RuntimeError):
    """The correlated output noise covariance recovered from the solution
    is not positive definite."""


def g_entries(K: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """G~'s parameter layout: G parameter p = (k*n_y + r)*n_y + c, entry (r, c)
    of the step-k block G_k, is entry (rg[p], cg[p]) of the block-diagonal G~."""
    k, r, c = np.unravel_index(np.arange(K * n_y * n_y), (K, n_y, n_y))
    return k * n_y + r, k * n_y + c


def _gtilde(g: np.ndarray, K: int, n_y: int) -> np.ndarray:
    """G~ of the G parameter vector g."""
    Gt = np.zeros((K * n_y, K * n_y))
    Gt[g_entries(K, n_y)] = g
    return Gt


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

    def check_fits(self, model: SystemModel, K: int) -> None:
        """Raise ValueError unless every array fits model at horizon K; each
        library entry that takes a mechanism calls it before any product."""
        if self.K != K:
            raise ValueError(f"mechanism horizon {self.K} does not match request horizon {K}")
        n_y, NY, NU = model.n_y, K * model.n_y, K * model.n_u
        for name, got, n, size in (
                *((f"G_blocks[{k}]", b.shape, n_y, "n_y") for k, b in enumerate(self.G_blocks)),
                ("Sigma_V", self.Sigma_V.shape, NY, "K*n_y"),
                ("Sigma_H", self.Sigma_H.shape, NU, "K*n_u")):
            if got != (n, n):
                raise ValueError(
                    f"mechanism {name} has shape {got}; the model needs {n}x{n} ({size})")

    @property
    def Gtilde(self) -> np.ndarray:
        return _gtilde(np.ravel(self.G_blocks), self.K, self.n_y)

    def disclose(self, y: np.ndarray, u: np.ndarray, e_out: np.ndarray,
                 e_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Disclosed stacks z = G~ y + L_V e_out and r = u + L_H e_in from
        clean stacks and standard normals, each a row (K n_y or K n_u wide)
        or a matrix of such rows."""
        z = y @ self.Gtilde.T + e_out @ self.chol_V.T
        r = u + e_in @ self.chol_H.T
        return z, r

    def singular_block_flags(self) -> list[int]:
        """Steps whose output matrix is numerically singular, |det| below
        DET_FLAG_TOL (information at that step is fully suppressed rather
        than rescaled)."""
        return [k for k, b in enumerate(self.G_blocks) if abs(np.linalg.det(b)) < DET_FLAG_TOL]

    def to_dict(self) -> dict:
        return {
            "G_blocks": [b.tolist() for b in self.G_blocks],
            "Sigma_V": self.Sigma_V.tolist(),
            "Sigma_H": self.Sigma_H.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data) -> "Mechanism":
        """The mechanism of a decoded JSON object; a missing field, or a G block
        or covariance that is not a square matrix, is a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError("top-level JSON value must be an object")
        missing = [f for f in ("G_blocks", "Sigma_V", "Sigma_H") if f not in data]
        if missing:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        if not isinstance(data["G_blocks"], list):
            raise ValueError("field G_blocks: expected a list of matrices")
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("field provenance: expected an object")

        def square(name, value):
            M = np.atleast_2d(_as_array(name, value))
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"field {name}: expected a square matrix, got shape {M.shape}")
            return M

        return cls(G_blocks=[square(f"G_blocks[{k}]", b) for k, b in enumerate(data["G_blocks"])],
                   Sigma_V=square("Sigma_V", data["Sigma_V"]),
                   Sigma_H=square("Sigma_H", data["Sigma_H"]), provenance=dict(provenance))


def save_mechanism(mech: Mechanism, path: str) -> None:
    write_json(mech.to_dict(), path)


def load_mechanism(path: str) -> Mechanism:
    """Read a mechanism file; invalid JSON, a malformed field or a non-PD
    covariance in it is one ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return Mechanism.from_dict(json.load(fh))
        except (ValueError, ExtractionFailure) as exc:
            raise ValueError(f"{path}: {exc}") from None
