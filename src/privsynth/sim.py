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

``run_experiment`` streams: it simulates at most ``CHUNK`` runs at a time
and keeps only running sums, so its memory is set by ``CHUNK`` and does not
depend on the number of runs. Drawing the next rows of a stream continues
it, so the chunking does not change the noise of any run.

It also overlaps drawing with estimation: while the calling thread
simulates, estimates and accumulates one piece, a single helper thread
draws the normals of the next. numpy fills the arrays with the GIL
released, so on two cores the draws, about 40% of the work, come off the
critical path. The helper is the only code that touches the generators, and
it starts a draw only after the previous one has been handed over, so every
stream is consumed in the same order as by a serial loop and the results do
not depend on the thread. On one core the two simply take turns.

Two pieces are in memory at once, the one being estimated and the next
one's normals, so ``CHUNK`` is half of what one piece in flight would
allow: the peak stays below that of a serial loop over pieces twice as
large, and a piece is still wide enough to keep each matrix product
efficient.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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

CHUNK = 4096       # runs run_experiment simulates at once; sets its memory
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
    r_entries: str
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
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "n_runs": self.n_runs,
            "seed": self.seed,
            "r_entries": self.r_entries,
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
            "extra": self.extra,
        }


def _streams(seed: int) -> list[np.random.Generator]:
    """The five generators of one seed, in tag order."""
    return [stream(seed, tag) for tag in _TAGS]


def _draw(gens: list[np.random.Generator], m: int, K: int, n_x: int, n_y: int,
          n_u: int) -> list[np.ndarray]:
    """Standard normals for the next m runs: one (m, width) block per generator.

    Rows are runs. Each block continues its generator's stream, so draws of
    m1, m2, ... rows equal one draw of m1 + m2 + ... rows: run i gets the
    same noise however the runs are split into chunks.
    """
    widths = (n_x, (K - 1) * n_x, K * n_y, K * n_y, K * n_u)
    return [g.standard_normal((m, w)) for g, w in zip(gens, widths)]


def _color(e: np.ndarray, width: int, chol: np.ndarray) -> np.ndarray:
    """Run-major normals (m, steps * width) with every width-block times chol."""
    return (e.reshape(-1, width) @ chol.T).reshape(e.shape)


def _run_major(a: np.ndarray) -> np.ndarray:
    """(K, m, width) -> stacked rows (m, K * width)."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


@dataclass(frozen=True)
class _Plant:
    """The constants of the pre-mechanism simulation at one horizon, so
    that each piece of runs only multiplies."""

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


def _simulate_chunk(plant: _Plant, mech: Mechanism, u_flat: np.ndarray,
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
    x, y, s, z, r = _simulate_chunk(_Plant.of(model, u_seq), mech, u_seq.reshape(-1), e)
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

    def __init__(self, model: SystemModel, K: int, lift: LiftedSystem | None = None,
                 moments: LiftedMoments | None = None):
        if lift is None:
            lift = build_lift(model, K)
        mom = moments if moments is not None else output_moments(lift, model)
        self.B_y = cho_solve(cholesky(mom.Sigma_Y), mom.cov_YS).T
        self.err_cov = mom.Sigma_S - self.B_y @ mom.cov_YS
        self.c = mom.mu_S - self.B_y @ mom.mu_Y

    def estimate(self, y_stack: np.ndarray) -> np.ndarray:
        return self.c + y_stack @ self.B_y.T


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


def _pieces(n_runs: int):
    """(runs, batch) of consecutive pieces of at most CHUNK runs that cover
    runs 0..n_runs-1 in order.

    The batch-means standard error uses b = min(N_BATCHES, n_runs) batches
    of n_runs // b consecutive runs; no piece straddles two of them. batch
    is the piece's batch index, or None for the remainder after the last
    batch, which counts in the means but not in the standard error.
    """
    b = min(N_BATCHES, n_runs)
    size = n_runs // b
    spans = [(size, i) for i in range(b)]
    if b * size < n_runs:
        spans.append((n_runs - b * size, None))
    for runs, batch in spans:
        for done in range(0, runs, CHUNK):
            yield min(CHUNK, runs - done), batch


def run_experiment(model: SystemModel, req: SynthesisRequest, mech: Mechanism,
                   n_runs: int, seed: int, r_entries: str = "K") -> ExperimentSummary:
    """Monte Carlo comparison of the two adversaries over n_runs trajectories.

    r_entries selects how many disclosed input steps the receiver is given
    ("K" or "K-1"); only the first K-1 influence the horizon, so both
    settings yield the same estimate and the choice is recorded for the
    run manifest.

    Runs are simulated CHUNK at a time and only running sums are kept, so
    memory does not grow with n_runs. One helper thread draws the next
    piece's normals meanwhile and has ended when this returns or raises.
    """
    if r_entries not in ("K", "K-1"):
        raise ValueError(f"r_entries must be 'K' or 'K-1', got {r_entries!r}")
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    K = mech.K
    if req.K != K:
        raise ValueError(f"request horizon {req.K} does not match mechanism horizon {K}")
    n_s = model.n_s

    lift = build_lift(model, K)
    mom = output_moments(lift, model)
    plug = _PlugInEstimator(model, mech, lift=lift, moments=mom)
    base = _BaselineEstimator(model, K, lift=lift, moments=mom)
    u_seq = model.input_sequence(K)
    u_flat = u_seq.reshape(-1)
    plant = _Plant.of(model, u_seq)
    gens = _streams(seed)
    pieces = list(_pieces(n_runs))
    dims = (K, model.n_x, model.n_y, model.n_u)

    # One column per accumulated per-run quantity: squared error per step of
    # the (Z, R) and the (Y, U) adversary, first private component and its
    # (Z, R) estimate per step, then the Y and U distortions.
    ZR, YU, S0, SH0 = (slice(i * K, (i + 1) * K) for i in range(4))
    DY, DU = 4 * K, 4 * K + 1
    total = np.zeros(4 * K + 2)
    batch_total = np.zeros((min(N_BATCHES, n_runs), 4 * K + 2))
    # The helper draws the normals of piece j + 1 while this thread works on
    # piece j. It is the only user of gens, and each draw is submitted after
    # the previous one has been taken, so the streams keep their serial order.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="privsynth-draw") as helper:
        drawn = helper.submit(_draw, gens, pieces[0][0], *dims)
        for j, (m, batch) in enumerate(pieces):
            e = drawn.result()
            if j + 1 < len(pieces):
                drawn = helper.submit(_draw, gens, pieces[j + 1][0], *dims)
            _, y, s, z, r = _simulate_chunk(plant, mech, u_flat, e)
            shat_zr = plug.estimate(z, r)
            err_zr = (shat_zr - s).reshape(m, K, n_s)
            err_yu = (base.estimate(y) - s).reshape(m, K, n_s)
            dy = (z - y) @ req.W_Y.T
            du = (r - u_flat) @ req.W_U.T

            cols = np.empty((m, 4 * K + 2))
            cols[:, ZR] = np.sum(err_zr * err_zr, axis=2)
            cols[:, YU] = np.sum(err_yu * err_yu, axis=2)
            cols[:, S0] = s.reshape(m, K, n_s)[:, :, 0]
            cols[:, SH0] = shat_zr.reshape(m, K, n_s)[:, :, 0]
            cols[:, DY] = np.sum(dy * dy, axis=1)
            cols[:, DU] = np.sum(du * du, axis=1)
            piece = cols.sum(axis=0)
            total += piece
            if batch is not None:
                batch_total[batch] += piece

    mean = total / n_runs
    b = batch_total.shape[0]
    if b < 2:
        se = np.full(4 * K + 2, np.nan)
    else:
        se = np.std(batch_total / (n_runs // b), axis=0, ddof=1) / np.sqrt(b)

    return ExperimentSummary(
        K=K, n_runs=n_runs, seed=seed, r_entries=r_entries,
        mse_yu=mean[YU], mse_zr=mean[ZR], se_mse_zr=se[ZR],
        s_mean=mean[S0], shat_zr_mean=mean[SH0],
        mse_yu_total=float(mean[YU].sum()),
        mse_zr_total=float(mean[ZR].sum()),
        mse_yu_theory=float(np.trace(base.err_cov)),
        mse_zr_theory=float(np.trace(plug.err_cov)),
        distortion_Y_hat=float(mean[DY]),
        se_distortion_Y=float(se[DY]),
        distortion_U_hat=float(mean[DU]),
        se_distortion_U=float(se[DU]),
    )
