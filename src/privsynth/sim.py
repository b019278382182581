"""Monte Carlo validation of a synthesized mechanism.

Simulates the closed system, applies the disclosure mechanism, and runs two
adversaries against each trajectory:

* the curious receiver, who sees only the disclosed pair (Z, R) and forms
  the affine estimate of the private sequence by plugging the noisy input
  record R in place of the unknown true input;
* a baseline observer with the clean measurements Y and the true input U,
  whose estimate is the exact conditional mean.

Random draws use counter-based Philox streams keyed by (salt, seed, tag),
one per draw category. Runs are rows of those streams, drawn in order, so
run i of a batch is identical regardless of the batch size.

``run_experiment`` simulates probe runs only. Every per-run number it sums
(each adversary's error, the first private component and its estimate, the
two distortion vectors) is an affine function c + M^T e of that run's W
normals e, so it builds c and M once per call by running the simulator and
the estimators on probe runs. The sums and sums of squares of every per-run
number then follow exactly from three statistics of the normals of each
batch of m runs: m, the sum and the Gram matrix e^T e.

Those statistics have a known joint law, so each batch's are drawn directly
from one further stream: the mean e_bar ~ N(0, I/m) is independent of the
centred scatter S ~ Wishart(m - 1, I), drawn by the Bartlett decomposition
(Odell & Feiveson, JASA 61, 1966), and Gram = S + m e_bar e_bar^T. A batch
of m <= W runs draws its m x W normals instead. Each batch's Gram matrix is
folded to the quadratic forms of the summed numbers as soon as it is drawn,
so one W x W matrix is held at a time besides the map M and every batch's
sums and quadratic forms. The cost is O(W^3) per batch and the memory
O(W^2) plus O(W) per batch, whatever the number of runs; no run is drawn.
The law of every reported number is that of drawing all the runs, but not
the realization: the per-run streams are left to ``simulate``,
``apply_mechanism`` and ``_simulate_batch``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .gauss import cho_solve, cholesky
from .lift import LiftedMoments, LiftedSystem, build_lift, output_moments
from .model import SystemModel, SynthesisRequest
from .synth import Mechanism

_SALT = 0x70726976

_TAG_INITIAL = 0
_TAG_PROCESS = 1
_TAG_MEASURE = 2
_TAG_MECH_OUT = 3
_TAG_MECH_IN = 4
_TAGS = (_TAG_INITIAL, _TAG_PROCESS, _TAG_MEASURE, _TAG_MECH_OUT, _TAG_MECH_IN)
_TAG_MOMENTS = 5   # run_experiment's per-batch sums and Gram matrices

N_BATCHES = 20     # batches of the batch-means standard error


def stream(seed: int, tag: int) -> np.random.Generator:
    """Independent counter-based generator for one draw category."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((_SALT, int(seed), int(tag)))))


@dataclass(frozen=True)
class Trajectory:
    """One realization of the system, plus disclosed sequences once a
    mechanism has been applied (None before that)."""

    x_seq: np.ndarray           # (K, n_x)
    u_seq: np.ndarray           # (K, n_u), deterministic design input
    y_seq: np.ndarray           # (K, n_y)
    s_seq: np.ndarray           # (K, n_s)
    seed: int
    z_seq: np.ndarray | None = None   # (K, n_y)
    r_seq: np.ndarray | None = None   # (K, n_u)


@dataclass(frozen=True)
class AdversaryResult:
    """Estimate plus its exact error statistics (not the realized error)."""

    shat_seq: np.ndarray            # (K, n_s)
    expected_sq_err_per_step: np.ndarray  # (K,) trace of each diagonal block
    expected_sq_err_total: float          # trace of the stacked error covariance
    err_cov: np.ndarray                   # (NS, NS)


@dataclass
class ExperimentSummary:
    """Per-step Monte Carlo error curves and empirical distortion figures."""

    K: int
    n_runs: int
    seed: int
    mse_yu: np.ndarray          # (K,) baseline adversary mean squared error
    mse_zr: np.ndarray          # (K,) mechanism adversary mean squared error
    se_mse_zr: np.ndarray       # (K,) batch-means standard error of mse_zr
    s_mean: np.ndarray          # (K,) first private component, sample mean
    shat_zr_mean: np.ndarray    # (K,) first component of the (Z,R) estimate
    mse_yu_total: float
    mse_zr_total: float
    mse_yu_theory: float
    mse_zr_theory: float
    distortion_Y_hat: float
    se_distortion_Y: float
    distortion_U_hat: float
    se_distortion_U: float

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "mse_yu": self.mse_yu.tolist(),
            "mse_zr": self.mse_zr.tolist(),
            "se_mse_zr": self.se_mse_zr.tolist(),
            "s_mean": self.s_mean.tolist(),
            "shat_zr_mean": self.shat_zr_mean.tolist(),
            "mse_yu_total": self.mse_yu_total,
            "mse_zr_total": self.mse_zr_total,
            "mse_yu_theory": self.mse_yu_theory,
            "mse_zr_theory": self.mse_zr_theory,
            "distortion_Y_hat": self.distortion_Y_hat,
            "se_distortion_Y": self.se_distortion_Y,
            "distortion_U_hat": self.distortion_U_hat,
            "se_distortion_U": self.se_distortion_U,
        }


def _streams(seed: int) -> list[np.random.Generator]:
    """The five generators of one seed, in tag order."""
    return [stream(seed, tag) for tag in _TAGS]


def _widths(K: int, n_x: int, n_y: int, n_u: int) -> tuple[int, ...]:
    """Normals per run drawn from each generator, in tag order."""
    return (n_x, (K - 1) * n_x, K * n_y, K * n_y, K * n_u)


def _draw(gens: list[np.random.Generator], m: int, K: int, n_x: int, n_y: int,
          n_u: int) -> list[np.ndarray]:
    """Standard normals for the next m runs: one (m, width) block per generator.

    Rows are runs. Each block continues its generator's stream, so draws of
    m1, m2, ... rows equal one draw of m1 + m2 + ... rows: run i gets the
    same noise however the runs are split.
    """
    return [g.standard_normal((m, w)) for g, w in zip(gens, _widths(K, n_x, n_y, n_u))]


def _color(e: np.ndarray, width: int, chol: np.ndarray) -> np.ndarray:
    """Run-major normals (m, steps * width) with every width-block times chol."""
    return (e.reshape(-1, width) @ chol.T).reshape(e.shape)


def _run_major(a: np.ndarray) -> np.ndarray:
    """(K, m, width) -> stacked rows (m, K * width)."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


@dataclass(frozen=True)
class _Plant:
    """The constants of the pre-mechanism simulation at one horizon, so
    that simulating runs only multiplies."""

    model: SystemModel
    AT: np.ndarray          # A^T, contiguous
    drive: np.ndarray       # (K - 1, n_x), row k is B u_k
    chol_x1: np.ndarray     # Cholesky factors of Sigma_x1, Sigma_T, Sigma_W
    chol_T: np.ndarray
    chol_W: np.ndarray

    @classmethod
    def of(cls, model: SystemModel, u_seq: np.ndarray) -> "_Plant":
        K = u_seq.shape[0]
        drive = np.empty((K - 1, model.n_x))
        for k in range(K - 1):
            drive[k] = model.B @ u_seq[k]
        return cls(model=model, AT=np.ascontiguousarray(model.A.T), drive=drive,
                   chol_x1=cholesky(model.Sigma_x1), chol_T=cholesky(model.Sigma_T),
                   chol_W=cholesky(model.Sigma_W))


def _states(plant: _Plant, e_init: np.ndarray, e_proc: np.ndarray,
            e_meas: np.ndarray):
    """Pre-mechanism system from its normals: the states time-major,
    x (K, m, n_x), and the outputs as stacked rows, y (m, K n_y) and
    s (m, K n_s)."""
    model = plant.model
    K, m, n_x = plant.drive.shape[0] + 1, e_init.shape[0], model.n_x
    tnoise = _color(e_proc, n_x, plant.chol_T).reshape(m, K - 1, n_x)

    x = np.empty((K, m, n_x))
    x[0] = model.mu_x1 + _color(e_init, n_x, plant.chol_x1)
    for k in range(K - 1):
        np.matmul(x[k], plant.AT, out=x[k + 1])
        x[k + 1] += plant.drive[k]
        x[k + 1] += tnoise[:, k]

    flat = x.reshape(K * m, n_x)
    w = _color(e_meas, model.n_y, plant.chol_W)
    y = _run_major((flat @ model.C.T).reshape(K, m, -1)) + w
    s = _run_major((flat @ model.D.T).reshape(K, m, -1))
    return x, y, s


def _disclose(mech: Mechanism, y_stack: np.ndarray, u_flat: np.ndarray,
              e_out: np.ndarray, e_in: np.ndarray):
    """Disclosed stacks z (m, K n_y) and r (m, K n_u) from clean stacks and
    the mechanism's normals."""
    z = y_stack @ mech.Gtilde.T + e_out @ mech.chol_V.T
    r = u_flat + e_in @ mech.chol_H.T
    return z, r


def _simulate_runs(plant: _Plant, mech: Mechanism, u_flat: np.ndarray,
                   e: list[np.ndarray]):
    """The runs of the normals e (from ``_draw``): x time-major (K, m, n_x);
    y, s, z and r as stacked rows (m, .)."""
    x, y, s = _states(plant, *e[:3])
    z, r = _disclose(mech, y, u_flat, *e[3:])
    return x, y, s, z, r


def _simulate_batch(model: SystemModel, mech: Mechanism, n_runs: int, seed: int):
    """n_runs runs of one seed as (n_runs, K, .) arrays; run index = row index."""
    K = mech.K
    u_seq = model.input_sequence(K)
    e = _draw(_streams(seed), n_runs, K, model.n_x, model.n_y, model.n_u)
    x, y, s, z, r = _simulate_runs(_Plant.of(model, u_seq), mech, u_seq.reshape(-1), e)
    return (x.transpose(1, 0, 2), u_seq,
            *(a.reshape(n_runs, K, -1) for a in (y, s, z, r)))


def simulate(model: SystemModel, K: int, seed: int) -> Trajectory:
    """One pre-mechanism trajectory; equals row 0 of any batch of the
    same seed regardless of batch size."""
    u_seq = model.input_sequence(K)
    e = _draw(_streams(seed), 1, K, model.n_x, model.n_y, model.n_u)
    x, y, s = _states(_Plant.of(model, u_seq), *e[:3])
    return Trajectory(x_seq=x[:, 0], u_seq=u_seq, y_seq=y.reshape(K, -1),
                      s_seq=s.reshape(K, -1), seed=seed)


def apply_mechanism(traj: Trajectory, mech: Mechanism,
                    seed: int | None = None) -> Trajectory:
    """Trajectory with the disclosed sequences filled in.

    Defaults to the trajectory's own seed so that simulate + apply_mechanism
    reproduces row 0 of the batched experiment exactly.
    """
    if seed is None:
        seed = traj.seed
    K, n_y = mech.K, mech.n_y
    if traj.y_seq.shape[0] != K:
        raise ValueError(f"trajectory horizon {traj.y_seq.shape[0]} does not match mechanism {K}")
    e = _draw(_streams(seed), 1, K, traj.x_seq.shape[1], n_y, traj.u_seq.shape[1])
    z, r = _disclose(mech, traj.y_seq.reshape(1, -1), traj.u_seq.reshape(-1), *e[3:])
    return replace(traj, z_seq=z.reshape(K, n_y), r_seq=r.reshape(K, -1))


class _PlugInEstimator:
    """Affine estimate of the private stack from (Z, R).

    The receiver knows the model and the mechanism but not the realized
    input; it substitutes the first K-1 disclosed input entries for the true
    input when forming the prior means (later entries cannot influence the
    horizon). The extra estimation error caused by that substitution is
    exactly P Sigma_H_used P^T with P mapping input noise through the
    dynamics into the estimate.

    ``moments``, if given, must be ``output_moments`` of ``model`` at the
    mechanism's horizon; the estimators of one experiment share them.
    """

    def __init__(self, model: SystemModel, mech: Mechanism,
                 lift: LiftedSystem | None = None,
                 moments: LiftedMoments | None = None):
        K = mech.K
        self.K, self.n_s = K, model.n_s
        if lift is None:
            lift = build_lift(model, K)
        mom = moments if moments is not None else output_moments(lift, model)
        Gt = mech.Gtilde

        Sigma_Z = Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V
        cov_ZS = Gt @ mom.cov_YS
        self.B_z = cho_solve(cholesky(Sigma_Z), cov_ZS).T  # (NS, NY)
        self.cond_cov = mom.Sigma_S - self.B_z @ cov_ZS

        # The prior state mean F mu_x1 + L r_used enters the estimate
        # mu_S + B_z (z - mu_Z) through Dt - B_z Gt Ct, so the estimate is
        # affine: shat = c + P r_used + B_z z.
        resid = lift.Dt - self.B_z @ (Gt @ lift.Ct)    # (NS, K n_x)
        self.c = resid @ (lift.F @ model.mu_x1)
        self.P = resid @ lift.L                        # (NS, (K-1) n_u)
        used = self.P.shape[1]
        self.plugin_cov = self.P @ mech.Sigma_H[:used, :used] @ self.P.T
        self.err_cov = self.cond_cov + self.plugin_cov

    def estimate(self, z_stack: np.ndarray, r_stack: np.ndarray) -> np.ndarray:
        """Batched: z_stack (n, NY), r_stack (n, K n_u) -> (n, NS)."""
        r_used = r_stack[:, :self.P.shape[1]]
        return self.c + r_used @ self.P.T + z_stack @ self.B_z.T


class _BaselineEstimator:
    """Exact conditional mean of the private stack given clean (Y, U)."""

    def __init__(self, mom: LiftedMoments):
        self.B_y = cho_solve(cholesky(mom.Sigma_Y), mom.cov_YS).T
        self.err_cov = mom.Sigma_S - self.B_y @ mom.cov_YS
        self.c = mom.mu_S - self.B_y @ mom.mu_Y

    def estimate(self, y_stack: np.ndarray) -> np.ndarray:
        return self.c + y_stack @ self.B_y.T


def _offset_free(est):
    """A copy of an estimator with its constant term set to zero."""
    free = copy.copy(est)
    free.c = np.zeros_like(est.c)
    return free


def _per_run(plant: _Plant, mech: Mechanism, req: SynthesisRequest, plug: _PlugInEstimator,
             base: _BaselineEstimator, u_flat: np.ndarray, e: list[np.ndarray]) -> np.ndarray:
    """Every number run_experiment sums, one row per run of the normals e
    (from ``_draw``), in columns: the (Z, R) and the (Y, U) estimation errors
    (K n_s each), the first private component and its (Z, R) estimate per
    step (K each), then W_Y (Z - Y) and W_U (R - U)."""
    K, n_s, m = mech.K, plant.model.n_s, e[0].shape[0]
    _, y, s, z, r = _simulate_runs(plant, mech, u_flat, e)
    shat = plug.estimate(z, r)
    return np.hstack([shat - s, base.estimate(y) - s,
                      s.reshape(m, K, n_s)[:, :, 0], shat.reshape(m, K, n_s)[:, :, 0],
                      (z - y) @ req.W_Y.T, (r - u_flat) @ req.W_U.T])


def adversary_estimate(model: SystemModel, lift: LiftedSystem | None,
                       mech: Mechanism, z_seq: np.ndarray,
                       r_seq: np.ndarray) -> AdversaryResult:
    """Private-sequence estimate from one disclosed pair (z_seq, r_seq).

    The reported error statistics are the exact second moments of the
    estimation error, including the input-substitution term.
    """
    est = _PlugInEstimator(model, mech, lift=lift)
    K, n_s = est.K, est.n_s
    shat = est.estimate(np.asarray(z_seq, dtype=float).reshape(1, -1),
                        np.asarray(r_seq, dtype=float).reshape(1, -1))[0]
    block_traces = np.array([
        np.trace(est.err_cov[k * n_s:(k + 1) * n_s, k * n_s:(k + 1) * n_s])
        for k in range(K)])
    return AdversaryResult(
        shat_seq=shat.reshape(K, n_s),
        expected_sq_err_per_step=block_traces,
        expected_sq_err_total=float(np.trace(est.err_cov)),
        err_cov=est.err_cov,
    )


def _slot_sizes(n_runs: int) -> list[int]:
    """Runs per slot of run_experiment: b = min(N_BATCHES, n_runs) batches of
    n_runs // b runs for the batch-means standard error, then the remainder,
    which counts in the means only (0 runs when b divides n_runs)."""
    b = min(N_BATCHES, n_runs)
    return [n_runs // b] * b + [n_runs % b]


def _slot_moments(gen: np.random.Generator, m: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum (W,) and Gram matrix (W, W) of m runs of W standard normals,
    drawn from their joint law with the next draws of gen.

    For m - 1 >= W: the mean e_bar = N(0, I)/sqrt(m), then S = L L^T with L
    lower triangular, L_ii = sqrt(chi2(m - 1 - i)) for i = 0..W-1 and
    N(0, 1) entries below the diagonal, drawn row by row (Bartlett); the sum
    is m e_bar and the Gram matrix S + m e_bar e_bar^T. For fewer runs S is
    singular and the m x W normals themselves are drawn.
    """
    if m - 1 < W:
        e = gen.standard_normal((m, W))
        return e.sum(axis=0), e.T @ e
    e_bar = gen.standard_normal(W) / np.sqrt(m)
    L = np.diag(np.sqrt(gen.chisquare(m - 1 - np.arange(W))))
    L[np.tril_indices(W, -1)] = gen.standard_normal(W * (W - 1) // 2)
    return m * e_bar, L @ L.T + m * np.outer(e_bar, e_bar)


@dataclass(frozen=True)
class _Experiment:
    """What run_experiment needs besides the normals' moments: the map
    q = c + M^T e from one run's normals e (W,) to every number it sums,
    and the exact error traces of both adversaries.

    The columns of q are those of ``_per_run``. c is the run with all-zero
    normals. M comes from a mean-free probe (zero initial mean, input and
    estimator offsets) on one unit vector per normal, so no entry of M is a
    difference of mean-sized numbers.
    """

    K: int
    n_s: int
    n_dy: int               # rows of W_Y
    c: np.ndarray           # (Q,)
    M: np.ndarray           # (W, Q)
    mse_yu_theory: float
    mse_zr_theory: float

    @classmethod
    def of(cls, model: SystemModel, req: SynthesisRequest, mech: Mechanism) -> "_Experiment":
        K = mech.K
        lift = build_lift(model, K)
        mom = output_moments(lift, model)
        plug = _PlugInEstimator(model, mech, lift=lift, moments=mom)
        base = _BaselineEstimator(mom)
        u_seq = model.input_sequence(K)
        u_flat = u_seq.reshape(-1)
        plant = _Plant.of(model, u_seq)
        bounds = np.cumsum(_widths(K, model.n_x, model.n_y, model.n_u))
        W = int(bounds[-1])

        def split(e):
            return np.split(e, bounds[:-1], axis=1)

        c = _per_run(plant, mech, req, plug, base, u_flat, split(np.zeros((1, W))))[0]
        free = replace(plant, drive=np.zeros_like(plant.drive),
                       model=replace(model, mu_x1=np.zeros_like(model.mu_x1)))
        M = _per_run(free, mech, req, _offset_free(plug), _offset_free(base),
                     np.zeros_like(u_flat), split(np.eye(W)))
        return cls(K=K, n_s=model.n_s, n_dy=req.W_Y.shape[0], c=c, M=M,
                   mse_yu_theory=float(np.trace(base.err_cov)),
                   mse_zr_theory=float(np.trace(plug.err_cov)))

    @property
    def W(self) -> int:
        return self.M.shape[0]

    def quadratic(self, gram: np.ndarray) -> np.ndarray:
        """(M^T Gram M)_kk for every column k of q: one slot's sum of
        (M^T e)_k^2 over its runs, from its Gram matrix (W, W)."""
        return np.einsum("wq,wq->q", gram @ self.M, self.M)

    def summary(self, n_runs: int, first: np.ndarray, quad: np.ndarray,
                seed: int) -> ExperimentSummary:
        """The summary of n_runs runs from the moments of their normals per
        slot of ``_slot_sizes(n_runs)``: sums first (slots, W) and quadratic
        forms quad (slots, Q), each row ``quadratic`` of the slot's Gram
        matrix, so no Gram matrix reaches the summary."""
        K, n_s, c, M = self.K, self.n_s, self.c, self.M
        b = len(first) - 1
        # Per slot, the sum of each q_k is n c_k + (M^T sum e)_k, and the sum
        # of its square n c_k^2 + 2 c_k (M^T sum e)_k + (M^T Gram M)_kk. The
        # terms in c alone are the same for every full batch, so the standard
        # errors are taken from the rest and no mean-sized number enters them.
        cut = np.cumsum([K * n_s, K * n_s, K, K, self.n_dy])

        def fold(squares, sums):
            """One column per reported figure: squared error per step of the
            (Z, R) and the (Y, U) adversary, first private component and its
            (Z, R) estimate per step, then the Y and U distortions."""
            sq_zr, sq_yu, _, _, sq_dy, sq_du = np.split(squares, cut, axis=1)
            _, _, s0, sh0, _, _ = np.split(sums, cut, axis=1)
            return np.hstack([sq_zr.reshape(-1, K, n_s).sum(axis=2),
                              sq_yu.reshape(-1, K, n_s).sum(axis=2), s0, sh0,
                              sq_dy.sum(axis=1, keepdims=True),
                              sq_du.sum(axis=1, keepdims=True)])

        lin = first @ M
        spread = fold(2 * c * lin + quad, lin)
        mean = (spread.sum(axis=0) + fold(n_runs * c[None] ** 2, n_runs * c[None])[0]) / n_runs
        ZR, YU, S0, SH0 = (slice(i * K, (i + 1) * K) for i in range(4))
        DY, DU = 4 * K, 4 * K + 1
        if b < 2:
            se = np.full(4 * K + 2, np.nan)
        else:
            se = np.std(spread[:b] / (n_runs // b), axis=0, ddof=1) / np.sqrt(b)

        return ExperimentSummary(
            K=K, n_runs=n_runs, seed=seed,
            mse_yu=mean[YU], mse_zr=mean[ZR], se_mse_zr=se[ZR],
            s_mean=mean[S0], shat_zr_mean=mean[SH0],
            mse_yu_total=float(mean[YU].sum()),
            mse_zr_total=float(mean[ZR].sum()),
            mse_yu_theory=self.mse_yu_theory,
            mse_zr_theory=self.mse_zr_theory,
            distortion_Y_hat=float(mean[DY]),
            se_distortion_Y=float(se[DY]),
            distortion_U_hat=float(mean[DU]),
            se_distortion_U=float(se[DU]),
        )


def run_experiment(model: SystemModel, req: SynthesisRequest, mech: Mechanism,
                   n_runs: int, seed: int) -> ExperimentSummary:
    """Monte Carlo comparison of the two adversaries over n_runs trajectories.

    Each slot of runs (the batches of the standard error, then the
    remainder) gets the sum and the Gram matrix of its normals from
    ``_slot_moments``, in slot order from one stream of the seed. Each Gram
    matrix is folded to its quadratic forms as soon as it is drawn, so one
    slot's W x W matrix is held at a time, plus every slot's sums (W,) and
    quadratic forms (Q,): time and memory do not grow with n_runs, nor
    memory with the slot count. The call runs on the calling thread only.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    if req.K != mech.K:
        raise ValueError(f"request horizon {req.K} does not match mechanism horizon {mech.K}")
    exp = _Experiment.of(model, req, mech)
    sizes = _slot_sizes(n_runs)
    first, quad = np.empty((len(sizes), exp.W)), np.empty((len(sizes), exp.M.shape[1]))
    gen = stream(seed, _TAG_MOMENTS)
    for slot, m in enumerate(sizes):
        first[slot], gram = _slot_moments(gen, m, exp.W)
        quad[slot] = exp.quadratic(gram)
    return exp.summary(n_runs, first, quad, seed)
