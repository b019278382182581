"""Monte Carlo from the normals' moments: the affine map from a run's
normals and the fold of their moments both equal a one-shot computation,
also with means far above the noise; each batch's sum and Gram matrix are
drawn with the moments of m runs and folded from a factor of the Gram
matrix, and the seed-to-seed spread matches the reported standard errors;
the probed disclosure has the closed-form joint moments; flat and bounded
memory; no thread; one horizon lift per sweep row for its solve; no
process-wide float settings."""

import json
import pathlib
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from privsynth import cli, sim, synth, synthesize
from privsynth import lift as lift_module
from privsynth.lift import build_lift, joint_ZS_moments, output_moments
from privsynth.model import load_model, with_overrides
from privsynth.sim import _draw, _receiver, _simulate_batch, _streams, run_experiment

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SHIFT = 1e7     # initial mean and input scale of the mean-shifted model
# Traced peak of run_experiment in stacks of the slots' W x W Gram matrices,
# none of which is formed: one slot's draw, its factor F (W x (W + 1)) and
# F^T M (Q = 120 of W = 140 columns at K=20); 0.19 measured.
PEAK = 0.25
# Traced peak of run_experiment in single W x W matrices, whatever the slot
# count: one slot's draw and its fold; 3.99 at 20 slots and 4.80 at 80
# measured.
SLOT_PEAK = 6


def _batch_se(values, n_batches=20):
    """Batch-means standard error along axis 0, one batch of n // b rows each."""
    n = values.shape[0]
    b = min(n_batches, n)
    if b < 2:
        return float("nan")
    cut = (n // b) * b
    means = values[:cut].reshape(b, cut // b).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(b))


def reference_runs(model, req, mech, n, seed):
    """Runs 0..n-1 of the seed's per-run streams through the simulator and
    both estimators in their unfolded form, one row per run in the columns
    of ``sim._per_run``: the (Z, R) and the (Y, U) estimation errors, the
    first private component and its (Z, R) estimate per step, W_Y (Z - Y)
    and W_U (R - U)."""
    linalg = pytest.importorskip("scipy.linalg")
    K, n_s = mech.K, model.n_s
    _, u_seq, y, s, z, r = _simulate_batch(model, mech, n, seed)
    y, s, z, r = (a.reshape(n, -1) for a in (y, s, z, r))
    lift = build_lift(model, K)
    mom = output_moments(lift, model)
    Gt = mech.Gtilde

    B_y = linalg.cho_solve(linalg.cho_factor(mom.Sigma_Y, lower=True), mom.cov_YS).T
    shat_yu = mom.mu_S + (y - mom.mu_Y) @ B_y.T
    cov_ZS = Gt @ mom.cov_YS
    Sigma_Z = Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V
    B_z = linalg.cho_solve(linalg.cho_factor(Sigma_Z, lower=True), cov_ZS).T
    used = (K - 1) * model.n_u
    mu_base = lift.F @ model.mu_x1 + r[:, :used] @ lift.L.T
    shat_zr = mu_base @ lift.Dt.T + (z - mu_base @ (Gt @ lift.Ct).T) @ B_z.T
    return np.hstack([shat_zr - s, shat_yu - s, s.reshape(n, K, n_s)[:, :, 0],
                      shat_zr.reshape(n, K, n_s)[:, :, 0], (z - y) @ req.W_Y.T,
                      (r - u_seq.reshape(-1)) @ req.W_U.T])


def one_shot(model, req, mech, n, seed):
    """Every run in memory at once, both estimators in their unfolded form."""
    K, n_s = mech.K, model.n_s
    cut = np.cumsum([K * n_s, K * n_s, K, K, len(req.W_Y)])
    runs = reference_runs(model, req, mech, n, seed)
    err_zr, err_yu, s0, sh0, dy, du = np.split(runs, cut, axis=1)
    sq_zr = np.sum((err_zr ** 2).reshape(n, K, n_s), axis=2)
    sq_yu = np.sum((err_yu ** 2).reshape(n, K, n_s), axis=2)
    dist_y, dist_u = np.sum(dy * dy, axis=1), np.sum(du * du, axis=1)
    return {
        "mse_yu": sq_yu.mean(axis=0),
        "mse_zr": sq_zr.mean(axis=0),
        "se_mse_zr": np.array([_batch_se(sq_zr[:, k]) for k in range(K)]),
        "s_mean": s0.mean(axis=0),
        "shat_zr_mean": sh0.mean(axis=0),
        "mse_yu_total": sq_yu.sum(axis=1).mean(),
        "mse_zr_total": sq_zr.sum(axis=1).mean(),
        "distortion_Y_hat": dist_y.mean(),
        "se_distortion_Y": _batch_se(dist_y),
        "distortion_U_hat": dist_u.mean(),
        "se_distortion_U": _batch_se(dist_u),
    }


def _normals(model, K, n, gens):
    """The next n runs of the per-run streams gens, side by side (n, W)."""
    return np.hstack(_draw(gens, n, K, model.n_x, model.n_y, model.n_u))


def streamed_summary(model, req, mech, n, seed, piece=4096):
    """run_experiment's summary of runs 0..n-1 of the seed's per-run
    streams: their sums and quadratic forms per slot, accumulated piece by
    piece (a piece's normals, transposed, are a factor of its Gram matrix)
    and folded by the experiment's own factor-to-quadratic-form and
    moments-to-summary steps."""
    exp = sim._Experiment.of(model, req, mech)
    sizes = sim._slot_sizes(n)
    first, quad = np.zeros((len(sizes), exp.W)), np.zeros((len(sizes), exp.M.shape[1]))
    gens = _streams(seed)
    for slot, m in enumerate(sizes):
        for done in range(0, m, piece):
            e = _normals(model, mech.K, min(piece, m - done), gens)
            first[slot] += e.sum(axis=0)
            quad[slot] += exp.quadratic(e.T)
    return exp.summary(n, first, quad, seed).to_dict()


@pytest.mark.parametrize("shift", [1.0, SHIFT])
def test_affine_map_matches_simulated_runs(twostate_case, twostate_report, shift):
    """c + M^T e equals the simulator and the unfolded estimators run on
    the same normals e, run by run, at 1e-10 of each entry.

    The reference adds terms up to the largest number it holds, so it is
    exact only to about 1e-14 of that number, which with the initial mean
    and the input 1e7 times larger is mean-sized: its noise-sized columns
    are held to that. M itself is then the same to the bit: the probe that
    gives it does not see the means, so no entry of M is a difference of
    two mean-sized numbers."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    shifted = replace(model, mu_x1=shift * model.mu_x1, U=shift * model.U)
    exp = sim._Experiment.of(shifted, req, mech)
    n = 50
    got = exp.c + _normals(shifted, mech.K, n, _streams(7)) @ exp.M
    want = reference_runs(shifted, req, mech, n, seed=7)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14 * np.abs(want).max())
    np.testing.assert_array_equal(exp.M, sim._Experiment.of(model, req, mech).M)


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_affine_map_expectations_match_the_closed_forms(name):
    """Each column q_k = c_k + (M^T e)_k of a run has E[q_k^2] = c_k^2 +
    |M[:, k]|^2 exactly. Summed over each figure's columns this equals its
    closed form at 1e-12: the squared errors of both adversaries, and the
    output and input distortions that ``evaluate_mechanism`` takes from the
    lifted operators while the map comes from time-stepping the dynamics."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    mech = synthesize(model, req).mechanism
    exp = sim._Experiment.of(model, req, mech)
    K, n_s = req.K, model.n_s
    second = exp.c ** 2 + np.sum(exp.M ** 2, axis=0)
    zr, yu, _, _, dy, du = np.split(second, np.cumsum([K * n_s, K * n_s, K, K,
                                                       req.W_Y.shape[0]]))
    met = synth.evaluate_mechanism(model, req, mech)
    for got, want in ((zr, exp.mse_zr_theory), (yu, exp.mse_yu_theory),
                      (dy, met.distortion_Y), (du, met.distortion_U)):
        assert float(np.sum(got)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "twostate_weighted"])
def test_probed_disclosure_has_the_joint_moments(name):
    """The exact counterpart of criterion 2: probed on unit normals as
    ``_Experiment.of`` probes, the simulator gives a run's (Z, S) as
    c + M^T e, and c and M^T M equal the mean and covariance that
    ``joint_ZS_moments`` forms from the lifted operators and G~, at 1e-12 of
    each entry. The simulator discloses through ``Mechanism.disclose``."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    mech = synthesize(model, req).mechanism
    K = req.K
    bounds = np.cumsum(sim._widths(K, model.n_x, model.n_y, model.n_u))
    u_seq = model.input_sequence(K)

    def disclosed(m, u, e):
        _, _, s, z, _ = sim._simulate_runs(m, mech, u, np.split(e, bounds[:-1], axis=1))
        return np.hstack([z, s])

    c = disclosed(model, u_seq, np.zeros((1, bounds[-1])))[0]
    M = disclosed(replace(model, mu_x1=np.zeros_like(model.mu_x1)), np.zeros_like(u_seq),
                  np.eye(bounds[-1]))
    joint = joint_ZS_moments(build_lift(model, K), model, mech.Gtilde, mech.Sigma_V)
    np.testing.assert_allclose(c, joint.mu, rtol=1e-12, atol=0)
    np.testing.assert_allclose(M.T @ M, joint.Sigma, rtol=1e-12, atol=0)


# Run counts 1, 19 and 20 give one-run batches and no remainder, a single
# run with nan standard errors; 163857 = 20 * 8192 + 17 and
# 163943 = 20 * 8197 + 3 give batches of two whole pieces, or two whole
# pieces and a 5-run piece, each with a short remainder.
@pytest.mark.parametrize("n_runs", [1, 19, 20, 163857, 163943])
def test_streamed_experiment_matches_one_shot(twostate_case, twostate_report, n_runs):
    """The moments of given normals, summed piece by piece per batch and
    folded, reproduce one_shot on those normals beyond summation order:
    pieces, batch boundaries and the remainder change no reported number,
    and a single run keeps nan standard errors."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    got = streamed_summary(model, req, mech, n_runs, seed=5)
    want = one_shot(model, req, mech, n_runs, seed=5)
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=0, err_msg=key)
    if n_runs == 1:
        assert np.all(np.isnan(got["se_mse_zr"]))
        assert np.isnan(got["se_distortion_Y"]) and np.isnan(got["se_distortion_U"])


def test_mean_shifted_experiment_matches_one_shot(twostate_case, twostate_report):
    """With the initial mean and the input 1e7 times larger, far above the
    noise, the fold of the normals' moments still matches one_shot.

    The standard errors are compared at 1e-8, not 1e-10: one_shot forms each
    run's figures from mean-sized numbers, so its own standard errors carry
    a relative rounding of about 2e-16 times the mean-to-noise ratio, 1e-9
    here. Every mean is held to 1e-10."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    shifted = replace(model, mu_x1=SHIFT * model.mu_x1, U=SHIFT * model.U)
    n_runs = 81937
    got = streamed_summary(shifted, req, mech, n_runs, seed=5)
    want = one_shot(shifted, req, mech, n_runs, seed=5)
    for key, value in want.items():
        rtol = 1e-8 if key.startswith("se_") else 1e-10
        np.testing.assert_allclose(got[key], value, rtol=rtol, atol=0, err_msg=key)


# W = 3 normals per run: 2 and 3 runs take the direct draw, 4 runs
# (m - 1 = W) and 12 runs the Bartlett draw.
@pytest.mark.parametrize("m", [2, 3, 4, 12])
def test_slot_moments_have_the_law_of_m_runs(m):
    """Over N slot draws the sum has mean 0 and variance m, and the Gram
    matrix mean m I and entry variances m (1 + delta_ij), each within 4.5
    sampling standard errors: sqrt(m / N) and sqrt(2 m^2 / N) for the sum's
    mean and variance; sqrt(m (1 + delta_ij) / N) for a Gram entry's mean
    and sqrt(V / N) for its variance, with V = 8 m^2 + 48 m on the diagonal
    (a chi-square with m degrees of freedom) and V = 2 m^2 + 6 m off it (a
    sum of m products of independent standard normals). The Gram matrix is
    F F^T of the drawn factor F. A direct draw is the moments of the
    stream's next m x W normals."""
    W, N = 3, 4000
    gen = sim.moment_stream(2)
    draws = [sim._slot_moments(gen, m, W) for _ in range(N)]
    sums = np.array([d[0] for d in draws])
    grams = np.array([F @ F.T for _, F in draws])
    assert np.all(grams == grams.transpose(0, 2, 1))

    assert np.all(np.abs(sums.mean(axis=0)) <= 4.5 * np.sqrt(m / N))
    assert np.all(np.abs(sums.var(axis=0, ddof=1) - m) <= 4.5 * np.sqrt(2 * m * m / N))
    eye = np.eye(W)
    mean_sd = np.sqrt(m * (1 + eye) / N)
    var = np.where(eye == 1, 8 * m * m + 48 * m, 2 * m * m + 6 * m)
    assert np.all(np.abs(grams.mean(axis=0) - m * eye) <= 4.5 * mean_sd)
    assert np.all(np.abs(grams.var(axis=0, ddof=1) - m * (1 + eye)) <= 4.5 * np.sqrt(var / N))

    if m - 1 < W:
        first, F = sim._slot_moments(sim.moment_stream(3), m, W)
        e = sim.moment_stream(3).standard_normal(m * W).reshape(m, W)
        np.testing.assert_array_equal(first, e.sum(axis=0))
        np.testing.assert_array_equal(F @ F.T, e.T @ e)


# twostate has W = 21 normals per run: 3 runs take the direct draw, 160
# runs the Bartlett draw.
@pytest.mark.parametrize("m", [3, 160], ids=["direct", "bartlett"])
def test_quadratic_fold_is_the_gram_diagonal(twostate_case, twostate_report, m):
    """quadratic(F) of a slot's factor F, the squared column norms of F^T M,
    equals diag(M^T (F F^T) M) from the Gram matrix F F^T at 1e-12 on both
    branches of ``_slot_moments``: F is the m runs' normals transposed
    (W, m) where m - 1 < W, and the Bartlett factor [L, sqrt(m) e_bar]
    (W, W + 1) otherwise."""
    model, req = twostate_case
    exp = sim._Experiment.of(model, req, twostate_report.mechanism)
    assert exp.W == 21
    _, F = sim._slot_moments(sim.moment_stream(4), m, exp.W)
    assert F.shape == ((exp.W, m) if m - 1 < exp.W else (exp.W, exp.W + 1))
    want = np.diag(exp.M.T @ (F @ F.T) @ exp.M)
    np.testing.assert_allclose(exp.quadratic(F), want, rtol=1e-12, atol=0)


def test_seed_ensemble_matches_closed_forms(twostate_case, twostate_report):
    """Over 100 seeds at 2e4 runs, the mean Y distortion and the mean (Z, R)
    error total lie within 4 standard errors of their closed forms (the
    seeds' sample standard deviation over 10), and the mean reported
    standard error of the Y distortion matches the seeds' standard deviation
    to within 30%: about 4 times the relative sampling error of a standard
    deviation from 100 samples, 1/sqrt(198), and of the mean of 100
    20-batch standard errors, 1/sqrt(38 * 100)."""
    model, req = twostate_case
    rep = twostate_report
    runs = [run_experiment(model, req, rep.mechanism, 20_000, seed=s) for s in range(100)]
    dy = np.array([r.distortion_Y_hat for r in runs])
    zr = np.array([r.mse_zr_total for r in runs])
    assert abs(dy.mean() - rep.distortion_Y) <= 4 * dy.std(ddof=1) / 10
    assert abs(zr.mean() - runs[0].mse_zr_theory) <= 4 * zr.std(ddof=1) / 10
    ratio = np.mean([r.se_distortion_Y for r in runs]) / dy.std(ddof=1)
    assert abs(ratio - 1) <= 0.3, ratio


def _traced_peaks(model, req, mech, run_counts):
    """run_experiment's traced allocation peak at each run count, in bytes."""
    run_experiment(model, req, mech, 100, seed=1)      # first-call allocations
    peaks = []
    tracemalloc.start()
    try:
        for n_runs in run_counts:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(model, req, mech, n_runs, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks


def test_run_experiment_memory_is_flat(scalar_case, scalar_report):
    """The traced allocation peak does not grow with the number of runs."""
    model, req = scalar_case
    n = 81920
    peaks = _traced_peaks(model, req, scalar_report.mechanism, (n, 4 * n))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_run_experiment_peak_is_a_few_gram_stacks(reactor_case):
    """On the four-state model at K=20 (W = 140 normals per run), the traced
    peak at 4e4 and at 4e5 runs stays within PEAK stacks of the b + 1 = 21
    slots' W x W Gram matrices plus the affine map M: no run's normals are
    held."""
    model, req = with_overrides(*reactor_case, K=20)
    mech = synthesize(model, req).mechanism
    M = sim._Experiment.of(model, req, mech).M
    stack = (sim.N_BATCHES + 1) * M.shape[0] ** 2 * 8
    peaks = _traced_peaks(model, req, mech, (40_000, 400_000))
    assert max(peaks) <= PEAK * stack + M.nbytes, [(p - M.nbytes) / stack for p in peaks]


def test_run_experiment_peak_does_not_grow_with_slots(monkeypatch, reactor_case):
    """On the four-state model at K=20 (W = 140 normals per run), the traced
    peak at 4e5 runs stays within SLOT_PEAK W x W matrices plus the affine
    map M with 20 and with 80 batches: each slot's Gram factor is folded as
    soon as it is drawn, so no stack of them is held."""
    model, req = with_overrides(*reactor_case, K=20)
    mech = synthesize(model, req).mechanism
    M = sim._Experiment.of(model, req, mech).M
    gram = M.shape[0] ** 2 * 8
    for n_batches in (20, 80):
        monkeypatch.setattr(sim, "N_BATCHES", n_batches)
        peak, = _traced_peaks(model, req, mech, (400_000,))
        assert peak <= SLOT_PEAK * gram + M.nbytes, (n_batches, (peak - M.nbytes) / gram)


@pytest.mark.parametrize("n_runs", [1, 81937])
def test_prefetch_matches_serial_draws(twostate_case, twostate_report, n_runs):
    """No slot is drawn ahead: the summary equals, to the bit, the one from
    drawing each slot's moments in turn from the seed's moment stream, and
    a repeated call gives the same bits."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    exp = sim._Experiment.of(model, req, mech)
    gen = sim.moment_stream(5)
    drawn = [sim._slot_moments(gen, m, exp.W) for m in sim._slot_sizes(n_runs)]
    first = np.stack([sums for sums, _ in drawn])
    quad = np.stack([exp.quadratic(F) for _, F in drawn])
    serial = exp.summary(n_runs, first, quad, 5).to_dict()
    calls = [run_experiment(model, req, mech, n_runs, seed=5).to_dict() for _ in range(2)]
    # repr round-trips every float, nan included, so equal text is equal bits
    texts = {json.dumps(d, sort_keys=True) for d in [serial, *calls]}
    assert len(texts) == 1


def test_draw_error_leaves_no_helper_thread(monkeypatch, twostate_case, twostate_report):
    """A failing slot draw surfaces from run_experiment, and neither that
    call nor a successful one starts a thread."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    before = set(threading.enumerate())
    run_experiment(model, req, mech, 20_017, seed=5)

    real = sim._slot_moments
    calls = []

    def failing(gen, m, W):
        calls.append(m)
        if len(calls) == 2:
            raise RuntimeError("second draw failed")
        return real(gen, m, W)

    monkeypatch.setattr(sim, "_slot_moments", failing)
    with pytest.raises(RuntimeError, match="second draw failed"):
        run_experiment(model, req, mech, 20_017, seed=5)
    assert len(calls) == 2
    assert started == []
    assert set(threading.enumerate()) == before


def test_run_experiment_setup_once_per_call(monkeypatch, twostate_case, twostate_report):
    """The output moments are computed once per call, and the factorizations
    do not grow with the number of runs."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    moments, factors = [], []
    real_moments, real_cholesky = lift_module.output_moments, sim.cholesky
    counting = lambda *a, **kw: moments.append(1) or real_moments(*a, **kw)     # noqa: E731
    monkeypatch.setattr(lift_module, "output_moments", counting)
    monkeypatch.setattr(sim, "output_moments", counting)
    monkeypatch.setattr(sim, "cholesky",
                        lambda *a: factors.append(1) or real_cholesky(*a))
    per_call = []
    for n_runs in (1, 12289):
        moments.clear()
        factors.clear()
        run_experiment(model, req, mech, n_runs, seed=5)
        assert len(moments) == 1
        per_call.append(len(factors))
    assert per_call[0] == per_call[1], per_call


def test_folded_plugin_estimate_matches_unfolded(twostate_case, twostate_report):
    """c + P r_used + B_z z equals mu_S + (z - mu_Z) B_z^T."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    lift = build_lift(model, req.K)
    est = _receiver(model, mech, lift, output_moments(lift, model))
    _, _, _, _, z, r = _simulate_batch(model, mech, 50, seed=11)
    z, r = z.reshape(50, -1), r.reshape(50, -1)
    mu_base = lift.F @ model.mu_x1 + r[:, :(req.K - 1) * model.n_u] @ lift.L.T
    mu_S = mu_base @ lift.Dt.T
    mu_Z = mu_base @ (mech.Gtilde @ lift.Ct).T
    B_z = est.gains[1]
    np.testing.assert_allclose(est.estimate(r, z), mu_S + (z - mu_Z) @ B_z.T,
                               rtol=0, atol=1e-12)


def test_sweep_row_builds_one_lift(monkeypatch, twostate_case):
    """One horizon lift per eps_Y row for its solve, besides the one that
    synthesize's validate checks; every cell takes its output figures from
    that solve's report."""
    calls = []
    real = build_lift
    counting = lambda *a, **kw: calls.append(1) or real(*a, **kw)     # noqa: E731
    monkeypatch.setattr(lift_module, "build_lift", counting)
    monkeypatch.setattr(synth, "build_lift", counting)
    cells = cli._sweep_row(*twostate_case, 1.0, [0.0, 0.5, 1.0, 2.0])
    assert [c[0] for c in cells] == ["Infeasible", "Optimal", "Optimal", "Optimal"]
    assert len(calls) == 2


def test_main_leaves_floating_point_settings_alone():
    before = np.geterr()
    assert cli.main(["validate", str(FIXTURES / "twostate.json")]) == 0
    assert np.geterr() == before
