"""Monte Carlo validation of a synthesized mechanism.

Simulates the closed system, applies the disclosure mechanism, and runs two
adversaries against each trajectory. Each is one ``_Estimator``: an affine
estimate c + sum_i x_i B_i^T of the private stack from the stacks x_i it
sees, with the exact covariance of its error.

* the curious receiver (``_receiver``), who sees only the disclosed pair
  (Z, R) and forms the affine estimate of the private sequence by plugging
  the noisy input record R in place of the unknown true input;
* a baseline observer (``_baseline``) with the clean measurements Y and the
  true input U, whose estimate is the exact conditional mean.

Random draws come from two noise sources, each a counter-based stream
keyed by (salt, seed, tag) under one seed rule, ``model.check_seed``:

* the per-run streams, tags 0-4, one per draw category, are numpy Philox
  generators. Runs are rows of those streams, drawn in order, so run i of
  a batch is identical regardless of the batch size. ``_simulate_batch``,
  the package's one per-run simulator, draws from them: acceptance
  criterion 2 and the tests' reference runs.
* the moment stream, tag 5, is ``run_experiment``'s own, which the
  ``simulate`` command runs: SplitMix64 on a counter (``SplitMix64``),
  keyed by the first 8 bytes of SHA-256, with normals by Box-Muller and
  chi-square variates by Marsaglia-Tsang. Its draws depend on no
  numpy.random algorithm, and the Monte Carlo command never imports
  numpy.random.

``run_experiment`` simulates probe runs only. Every per-run number it sums
(each adversary's error, the first private component and its estimate, the
two distortion vectors) is an affine function c + M^T e of that run's W
normals e, so it builds c and M once per call by running the simulator and
the estimators on probe runs. The sums and sums of squares of every per-run
number then follow exactly from three statistics of the normals of each
batch of m runs: m, the sum and the Gram matrix e^T e.

Those statistics have a known joint law, so each batch's are drawn directly
from the moment stream: the mean e_bar ~ N(0, I/m) is independent of the
centred scatter S ~ Wishart(m - 1, I), drawn by the Bartlett decomposition
(Odell & Feiveson, JASA 61, 1966), and Gram = S + m e_bar e_bar^T. A batch
of m <= W runs draws its m x W normals instead. Each batch's Gram matrix is
folded to the quadratic forms of the summed numbers as soon as it is drawn,
so one W x W matrix is held at a time besides the map M and every batch's
sums and quadratic forms. The cost is O(W^3) per batch and the memory
O(W^2) plus O(W) per batch, whatever the number of runs; no run is drawn.
The law of every reported number is that of drawing all the runs, but not
the realization: the per-run streams are left to ``_simulate_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .gauss import cho_solve, cholesky
from .lift import LiftedMoments, LiftedSystem, build_lift, output_moments
from .model import SystemModel, SynthesisRequest, check_seed, sha256
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
    """Independent counter-based generator for one per-run draw category."""
    key = np.random.SeedSequence((_SALT, check_seed(seed), int(tag)))
    return np.random.Generator(np.random.Philox(key))


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) on a counter: output i
    = 1, 2, ... is the mix of key + i * 0x9E3779B97F4A7C15, so each draw is
    a function of its counter alone, and n1 draws then n2 equal n1 + n2."""

    _GAMMA = np.uint64(0x9E3779B97F4A7C15)
    _MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))

    def __init__(self, key: int):
        self.key = np.uint64(key)
        self.count = 0      # outputs drawn so far

    def integers(self, n: int) -> np.ndarray:
        """The next n outputs, uint64. Array arithmetic wraps modulo 2^64."""
        z = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        z *= self._GAMMA
        z += self.key
        for shift, mult in zip((30, 27), self._MIX):
            z ^= z >> shift
            z *= mult
        return z ^ (z >> 31)

    def random(self, n: int) -> np.ndarray:
        """n uniforms on (0, 1]: ((z >> 11) + 1) 2^-53 of the next n outputs."""
        z = self.integers(n)
        z >>= 11
        z += 1
        u = z.astype(float)
        u *= 2.0 ** -53
        return u

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normals by Box-Muller from ceil(n / 2) pairs (u1, u2) of
        uniforms, u1 the first half of the draw and u2 the second: radius
        sqrt(-2 ln u1) and angle 2 pi u2 - pi, whose cosine and sine come
        from t = tan(pi (u2 - 1/2)) as (1 - t^2) / (1 + t^2) and
        2 t / (1 + t^2), one tangent costing less than a cosine and a sine.
        The cosines come first, then the sines; an odd n drops the last sine.
        """
        h = (n + 1) // 2
        u = self.random(2 * h)
        r = np.sqrt(-2 * np.log(u[:h]))
        t = np.tan(np.pi * (u[h:] - 0.5))
        r /= 1 + t * t
        return np.concatenate([r * (1 - t * t), 2 * r * t])[:n]

    def chisquare(self, df: np.ndarray) -> np.ndarray:
        """One chi-square variate per entry of df >= 1: 2 Gamma(df / 2) by
        Marsaglia & Tsang (ACM TOMS 26(3), 2000), each round drawing one
        normal and one uniform per variate still rejected. Shapes a < 1 are
        Gamma(a + 1) U^(1/a), the U drawn after all the gamma variates."""
        a = np.asarray(df, dtype=float) / 2
        boost = a < 1
        d = np.where(boost, a + 1, a) - 1 / 3
        c = 1 / np.sqrt(9 * d)
        g = np.empty_like(d)
        todo = np.arange(d.size)
        while todo.size:
            x, u = self.standard_normal(todo.size), self.random(todo.size)
            dt, v = d[todo], (1 + c[todo] * x) ** 3
            ok = v > 0
            v = np.where(ok, v, 1.0)        # keeps the log finite where rejected
            ok &= np.log(u) < x * x / 2 + dt - dt * v + dt * np.log(v)
            g[todo[ok]] = (dt * v)[ok]
            todo = todo[~ok]
        g[boost] *= self.random(int(boost.sum())) ** (1 / a[boost])
        return 2 * g


def _key(seed: int, tag: int) -> int:
    """SplitMix64 key of one (seed, tag): the first 8 bytes, little-endian,
    of the SHA-256 of "salt,seed,tag" in decimal ASCII."""
    text = f"{_SALT},{check_seed(seed)},{int(tag)}"
    return int.from_bytes(sha256(text.encode("ascii")).digest()[:8], "little")


def moment_stream(seed: int) -> SplitMix64:
    """run_experiment's generator of the seed's batch moments."""
    return SplitMix64(_key(seed, _TAG_MOMENTS))


@dataclass(frozen=True)
class AdversaryResult:
    """Estimate plus its exact error statistics (not the realized error)."""

    shat_seq: np.ndarray            # (K, n_s)
    expected_sq_err_per_step: np.ndarray  # (K,) trace of each diagonal block
    expected_sq_err_total: float          # trace of the stacked error covariance
    err_cov: np.ndarray                   # (NS, NS)


@dataclass
class ExperimentSummary:
    """Per-step Monte Carlo error curves and empirical distortion figures.

    The (K,) arrays are the per-step curves; ``simulate`` writes one CSV
    column for each, in field order."""

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
        """Every field by name, in field order, the arrays as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in doc.items()}


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


def _simulate_runs(model: SystemModel, mech: Mechanism, u_seq: np.ndarray,
                   e: list[np.ndarray]):
    """The runs of the normals e (from ``_draw``) under the inputs u_seq
    (K, n_u): x time-major (K, m, n_x); y, s, z and r as stacked rows (m, .)."""
    e_init, e_proc, e_meas, e_out, e_in = e
    K, m, n_x = u_seq.shape[0], e_init.shape[0], model.n_x
    AT = np.ascontiguousarray(model.A.T)
    tnoise = _color(e_proc, n_x, cholesky(model.Sigma_T)).reshape(m, K - 1, n_x)

    x = np.empty((K, m, n_x))
    x[0] = model.mu_x1 + _color(e_init, n_x, cholesky(model.Sigma_x1))
    for k in range(K - 1):
        np.matmul(x[k], AT, out=x[k + 1])
        x[k + 1] += model.B @ u_seq[k]
        x[k + 1] += tnoise[:, k]

    flat = x.reshape(K * m, n_x)
    w = _color(e_meas, model.n_y, cholesky(model.Sigma_W))
    y = _run_major((flat @ model.C.T).reshape(K, m, -1)) + w
    s = _run_major((flat @ model.D.T).reshape(K, m, -1))
    z, r = mech.disclose(y, u_seq.reshape(-1), e_out, e_in)
    return x, y, s, z, r


def _simulate_batch(model: SystemModel, mech: Mechanism, n_runs: int, seed: int):
    """n_runs runs of one seed as (n_runs, K, .) arrays; run index = row index."""
    K = mech.K
    u_seq = model.input_sequence(K)
    e = _draw(_streams(seed), n_runs, K, model.n_x, model.n_y, model.n_u)
    x, y, s, z, r = _simulate_runs(model, mech, u_seq, e)
    return (x.transpose(1, 0, 2), u_seq,
            *(a.reshape(n_runs, K, -1) for a in (y, s, z, r)))


@dataclass(frozen=True)
class _Estimator:
    """An adversary's affine estimate of the private stack, c + sum_i x_i B_i^T
    over the stacks x_i it sees, with the exact covariance of its error."""

    c: np.ndarray                   # (NS,)
    gains: tuple[np.ndarray, ...]   # B_i (NS, width_i), one per stack
    err_cov: np.ndarray             # (NS, NS)

    def estimate(self, *stacks: np.ndarray) -> np.ndarray:
        """Batched: one (n, .) stack per gain, in gain order -> (n, NS). A
        stack wider than its gain contributes its first columns only."""
        shat = self.c
        for x, B in zip(stacks, self.gains):
            shat = shat + x[:, :B.shape[1]] @ B.T
        return shat


def _receiver(model: SystemModel, mech: Mechanism, lift: LiftedSystem,
              mom: LiftedMoments) -> _Estimator:
    """The receiver's estimate from (R, Z), gains (P, B_z); mom is
    ``output_moments(lift, model)``.

    The receiver knows the model and the mechanism but not the realized
    input; it substitutes the first K-1 disclosed input entries for the true
    input when forming the prior means (later entries cannot influence the
    horizon). The extra estimation error caused by that substitution is
    exactly P Sigma_H_used P^T with P mapping input noise through the
    dynamics into the estimate. ``Mechanism.check_fits`` rejects a mechanism
    that does not fit the model at the lift's horizon.
    """
    mech.check_fits(model, lift.K)
    Gt = mech.Gtilde
    Sigma_Z = Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V
    cov_ZS = Gt @ mom.cov_YS
    B_z = cho_solve(cholesky(Sigma_Z), cov_ZS).T  # (NS, NY)
    cond_cov = mom.Sigma_S - B_z @ cov_ZS

    # The prior state mean F mu_x1 + L r_used enters the estimate
    # mu_S + B_z (z - mu_Z) through Dt - B_z Gt Ct, so the estimate is
    # affine: shat = c + P r_used + B_z z.
    resid = lift.Dt - B_z @ (Gt @ lift.Ct)    # (NS, K n_x)
    P = resid @ lift.L                        # (NS, (K-1) n_u)
    used = P.shape[1]
    return _Estimator(c=resid @ (lift.F @ model.mu_x1), gains=(P, B_z),
                      err_cov=cond_cov + P @ mech.Sigma_H[:used, :used] @ P.T)


def _baseline(mom: LiftedMoments) -> _Estimator:
    """Exact conditional mean of the private stack given clean (Y, U), gain B_y."""
    B_y = cho_solve(cholesky(mom.Sigma_Y), mom.cov_YS).T
    return _Estimator(c=mom.mu_S - B_y @ mom.mu_Y, gains=(B_y,),
                      err_cov=mom.Sigma_S - B_y @ mom.cov_YS)


def _per_run(model: SystemModel, mech: Mechanism, req: SynthesisRequest, receiver: _Estimator,
             baseline: _Estimator, u_seq: np.ndarray, e: list[np.ndarray]) -> np.ndarray:
    """Every number run_experiment sums, one row per run of the normals e
    (from ``_draw``) under the inputs u_seq, in columns: the (Z, R) and the
    (Y, U) estimation errors (K n_s each), the first private component and
    its (Z, R) estimate per step (K each), then W_Y (Z - Y) and W_U (R - U)."""
    K, n_s, m = mech.K, model.n_s, e[0].shape[0]
    _, y, s, z, r = _simulate_runs(model, mech, u_seq, e)
    shat = receiver.estimate(r, z)
    return np.hstack([shat - s, baseline.estimate(y) - s,
                      s.reshape(m, K, n_s)[:, :, 0], shat.reshape(m, K, n_s)[:, :, 0],
                      (z - y) @ req.W_Y.T, (r - u_seq.reshape(-1)) @ req.W_U.T])


def adversary_estimate(model: SystemModel, lift: LiftedSystem | None,
                       mech: Mechanism, z_seq: np.ndarray,
                       r_seq: np.ndarray) -> AdversaryResult:
    """Private-sequence estimate from one disclosed pair (z_seq, r_seq).

    A view of ``_receiver`` at the lift's horizon, else the mechanism's.
    The reported error statistics are the exact second moments of the
    estimation error, including the input-substitution term. The estimator
    checks that the mechanism fits the model.
    """
    if lift is None:
        lift = build_lift(model, mech.K)
    est = _receiver(model, mech, lift, output_moments(lift, model))
    K, n_s = lift.K, model.n_s
    shat = est.estimate(np.asarray(r_seq, dtype=float).reshape(1, -1),
                        np.asarray(z_seq, dtype=float).reshape(1, -1))[0]
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


def _slot_moments(gen: SplitMix64, m: int, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum (W,) and Gram matrix (W, W) of m runs of W standard normals,
    drawn from their joint law with the next draws of gen.

    For m - 1 >= W: W + W (W - 1) / 2 normals in one draw, the first W for
    the mean e_bar = N(0, I)/sqrt(m) and the rest for the entries below the
    diagonal of a lower triangular L, row by row; then L_ii =
    sqrt(chi2(m - 1 - i)) for i = 0..W-1 (Bartlett). S = L L^T, the sum is
    m e_bar and the Gram matrix S + m e_bar e_bar^T. For fewer runs S is
    singular and the m x W normals themselves are drawn, row by row.
    """
    if m - 1 < W:
        e = gen.standard_normal(m * W).reshape(m, W)
        return e.sum(axis=0), e.T @ e
    z = gen.standard_normal(W + W * (W - 1) // 2)
    e_bar = z[:W] / np.sqrt(m)
    L = np.diag(np.sqrt(gen.chisquare(m - 1 - np.arange(W))))
    L[np.tril_indices(W, -1)] = z[W:]
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
        K = req.K
        lift = build_lift(model, K)
        mom = output_moments(lift, model)
        receiver, baseline = _receiver(model, mech, lift, mom), _baseline(mom)
        u_seq = model.input_sequence(K)
        bounds = np.cumsum(_widths(K, model.n_x, model.n_y, model.n_u))
        W = int(bounds[-1])

        def split(e):
            return np.split(e, bounds[:-1], axis=1)

        c = _per_run(model, mech, req, receiver, baseline, u_seq, split(np.zeros((1, W))))[0]
        M = _per_run(replace(model, mu_x1=np.zeros_like(model.mu_x1)), mech, req,
                     *(replace(est, c=np.zeros_like(est.c)) for est in (receiver, baseline)),
                     np.zeros_like(u_seq), split(np.eye(W)))
        return cls(K=K, n_s=model.n_s, n_dy=req.W_Y.shape[0], c=c, M=M,
                   mse_yu_theory=float(np.trace(baseline.err_cov)),
                   mse_zr_theory=float(np.trace(receiver.err_cov)))

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
    ``_slot_moments``, in slot order from the seed's ``moment_stream``. Each
    Gram matrix is folded to its quadratic forms as soon as it is drawn, so
    one slot's W x W matrix is held at a time, plus every slot's sums (W,)
    and quadratic forms (Q,): time and memory do not grow with n_runs, nor
    memory with the slot count. The call runs on the calling thread only.
    The receiver's estimator checks that the mechanism fits the model at
    the request's horizon; the request itself is ``validate``'s to check.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    seed = check_seed(seed)  # the summary records the seed as a Python int
    exp = _Experiment.of(model, req, mech)
    sizes = _slot_sizes(n_runs)
    first, quad = np.empty((len(sizes), exp.W)), np.empty((len(sizes), exp.M.shape[1]))
    gen = moment_stream(seed)
    for slot, m in enumerate(sizes):
        first[slot], gram = _slot_moments(gen, m, exp.W)
        quad[slot] = exp.quadratic(gram)
    return exp.summary(n_runs, first, quad, seed)
