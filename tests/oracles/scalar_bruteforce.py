"""Independent brute-force oracle for the scalar two-step design problem.

Recomputes every quantity from first principles (no imports from the
package) and minimizes the design objective by multistart SLSQP over an
explicit parameterization. Running this file prints the oracle values and
rewrites scalar_oracle.json next to it.

Problem instance: x(k+1) = 0.5 x(k) + u(k) + t(k), y = x + w, s = x,
unit noise variances, x(1) ~ N(0, 1), u = 0, horizon 2, both distortion
budgets equal to 1, identity weights.

Decision variables: per-step output gains (g1, g2), disclosed covariance
Sigma_Z = L L^T (Cholesky parameters), input noise Sigma_H = M M^T.
The leakage bound variable of the convex program is eliminated: at any
optimum it equals the conditional covariance of S given Z, so the
objective reduces to

    f = -log2 det Sigma_H - log2 det (Sigma_S - cov^T Sigma_Z^{-1} cov).

This is the objective with S in its own units. The package's program
whitens S by the Cholesky factor of Sigma_S, which takes log2 det Sigma_S
off the objective; the two objectives are equal here only because det
Sigma_S = 1 * 1.25 - 0.5^2 = 1, so log2 det Sigma_S = 0 at this instance.
That is why criterion 1 compares the solver's objective with this one
directly.

Constraints: output distortion <= 1, input distortion <= 1, and
Sigma_Z - G Sigma_Y G^T positive semidefinite (realizable output noise).
"""

import json
import math
import pathlib

import numpy as np
from scipy.optimize import minimize

# Horizon-stacked second moments, by hand:
#   var x1 = 1; x2 = 0.5 x1 + t1 => var x2 = 0.25 + 1, cov(x1,x2) = 0.5.
SIGMA_X = np.array([[1.0, 0.5], [0.5, 1.25]])
SIGMA_Y = SIGMA_X + np.eye(2)           # y = x + w, unit measurement noise
SIGMA_S = SIGMA_X.copy()                # s = x
COV_YS = SIGMA_X.copy()                 # cov(y, s) = cov(x, x)
EPS_Y = 1.0
EPS_U = 1.0

_BIG = 1e9


def _unpack(p):
    g = np.diag(p[0:2])
    L = np.array([[p[2], 0.0], [p[3], p[4]]])
    M = np.array([[p[5], 0.0], [p[6], p[7]]])
    return g, L @ L.T, M @ M.T


def objective(p):
    G, SZ, SH = _unpack(p)
    cov = G @ COV_YS                    # cov(z, s)
    try:
        SZinv_cov = np.linalg.solve(SZ, cov)
    except np.linalg.LinAlgError:
        return _BIG
    schur = SIGMA_S - cov.T @ SZinv_cov
    det_schur = np.linalg.det(schur)
    det_sh = np.linalg.det(SH)
    if det_schur <= 1e-300 or det_sh <= 1e-300:
        return _BIG
    return -math.log2(det_sh) - math.log2(det_schur)


def con_output_distortion(p):
    G, SZ, _ = _unpack(p)
    return EPS_Y - np.trace(SZ + SIGMA_Y - 2.0 * SIGMA_Y @ G)


def con_input_distortion(p):
    _, _, SH = _unpack(p)
    return EPS_U - np.trace(SH)


def con_noise_psd(p):
    G, SZ, _ = _unpack(p)
    return float(np.linalg.eigvalsh(SZ - G @ SIGMA_Y @ G.T)[0])


CONSTRAINTS = [
    {"type": "ineq", "fun": con_output_distortion},
    {"type": "ineq", "fun": con_input_distortion},
    {"type": "ineq", "fun": con_noise_psd},
]


def solve_from(p0):
    res = minimize(objective, p0, method="SLSQP", constraints=CONSTRAINTS,
                   options={"maxiter": 400, "ftol": 1e-14})
    if not res.success:
        return None
    if (con_output_distortion(res.x) < -1e-9 or con_input_distortion(res.x) < -1e-9
            or con_noise_psd(res.x) < -1e-9):
        return None
    return res


def run(n_starts: int = 300, seed: int = 20260823) -> dict:
    rng = np.random.default_rng(seed)
    best = None
    # Deterministic pass-through start plus randomized multistart.
    starts = [np.array([1.0, 1.0, 1.5, 0.2, 1.5, 0.6, 0.0, 0.6])]
    for _ in range(n_starts):
        p0 = rng.uniform(-1.5, 1.5, size=8)
        p0[[2, 4, 5, 7]] = rng.uniform(0.2, 1.8, size=4)   # keep factors nonsingular
        starts.append(p0)
    for p0 in starts:
        res = solve_from(p0)
        if res is not None and (best is None or res.fun < best.fun):
            best = res
    assert best is not None, "no feasible optimum found"

    G, SZ, SH = _unpack(best.x)
    cov = G @ COV_YS
    schur = SIGMA_S - cov.T @ np.linalg.solve(SZ, cov)
    mi_bits = 0.5 * (math.log2(np.linalg.det(SIGMA_S)) - math.log2(np.linalg.det(schur)))
    return {
        "objective_bits": float(best.fun),
        "mi_bits": float(mi_bits),
        "g": [float(G[0, 0]), float(G[1, 1])],
        "Sigma_Z": SZ.tolist(),
        "Sigma_H": SH.tolist(),
        "output_distortion": float(np.trace(SZ + SIGMA_Y - 2.0 * SIGMA_Y @ G)),
        "input_distortion": float(np.trace(SH)),
        "n_starts": n_starts,
        "seed": seed,
    }


if __name__ == "__main__":
    result = run()
    out = pathlib.Path(__file__).with_name("scalar_oracle.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, indent=2, sort_keys=True))
