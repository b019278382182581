"""Streamed Monte Carlo: equal to a one-shot computation, also with means far
above the noise; flat and bounded memory; folded estimator; draws split
between the calling thread and one helper, each stream on one thread; one
horizon lift per sweep row; no process-wide float settings."""

import json
import pathlib
import threading
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from privsynth import cli, sim, synth, synthesize
from privsynth import lift as lift_module
from privsynth.lift import build_lift, output_moments
from privsynth.model import with_overrides
from privsynth.sim import CHUNK, _PlugInEstimator, _pieces, _simulate_batch, run_experiment

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _batch_se(values, n_batches=20):
    """Batch-means standard error along axis 0, one batch of n // b rows each."""
    n = values.shape[0]
    b = min(n_batches, n)
    if b < 2:
        return float("nan")
    cut = (n // b) * b
    means = values[:cut].reshape(b, cut // b).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(b))


def one_shot(model, req, mech, n, seed):
    """Every run in memory at once, both estimators in their unfolded form."""
    K, n_s = mech.K, model.n_s
    _, u_seq, y, s, z, r = _simulate_batch(model, mech, n, seed)
    y, s, z, r = (a.reshape(n, -1) for a in (y, s, z, r))
    lift = build_lift(model, K)
    mom = output_moments(lift, model)
    Gt = mech.Gtilde

    B_y = cho_solve(cho_factor(mom.Sigma_Y, lower=True), mom.cov_YS).T
    shat_yu = mom.mu_S + (y - mom.mu_Y) @ B_y.T
    cov_ZS = Gt @ mom.cov_YS
    B_z = cho_solve(cho_factor(Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V, lower=True), cov_ZS).T
    used = (K - 1) * model.n_u
    mu_base = lift.F @ model.mu_x1 + r[:, :used] @ lift.L.T
    shat_zr = mu_base @ lift.Dt.T + (z - mu_base @ (Gt @ lift.Ct).T) @ B_z.T

    sq_zr = np.sum(((shat_zr - s) ** 2).reshape(n, K, n_s), axis=2)
    sq_yu = np.sum(((shat_yu - s) ** 2).reshape(n, K, n_s), axis=2)
    dy = (z - y) @ req.W_Y.T
    du = (r - u_seq.reshape(-1)) @ req.W_U.T
    dist_y, dist_u = np.sum(dy * dy, axis=1), np.sum(du * du, axis=1)
    return {
        "mse_yu": sq_yu.mean(axis=0),
        "mse_zr": sq_zr.mean(axis=0),
        "se_mse_zr": np.array([_batch_se(sq_zr[:, k]) for k in range(K)]),
        "s_mean": s.reshape(n, K, n_s)[:, :, 0].mean(axis=0),
        "shat_zr_mean": shat_zr.reshape(n, K, n_s)[:, :, 0].mean(axis=0),
        "mse_yu_total": sq_yu.sum(axis=1).mean(),
        "mse_zr_total": sq_zr.sum(axis=1).mean(),
        "distortion_Y_hat": dist_y.mean(),
        "se_distortion_Y": _batch_se(dist_y),
        "distortion_U_hat": dist_u.mean(),
        "se_distortion_U": _batch_se(dist_u),
    }


# The two large counts give batches of two whole pieces each, and batches of
# two whole pieces and a 5-run piece, each with a short remainder.
@pytest.mark.parametrize("n_runs", [1, 19, 20, 20 * (2 * CHUNK) + 17, 20 * (2 * CHUNK + 5) + 3])
def test_streamed_experiment_matches_one_shot(twostate_case, twostate_report, n_runs):
    """Pieces, batch boundaries and the remainder change no reported number
    beyond summation order; a single run keeps nan standard errors."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    got = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    want = one_shot(model, req, mech, n_runs, seed=5)
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=0, err_msg=key)
    if n_runs == 1:
        assert np.all(np.isnan(got["se_mse_zr"]))
        assert np.isnan(got["se_distortion_Y"]) and np.isnan(got["se_distortion_U"])


def test_mean_shifted_experiment_matches_one_shot(twostate_case, twostate_report):
    """With the initial mean and the input 1e7 times larger, far above the
    noise, the summary still matches one_shot: no entry of the affine map
    from the normals is a difference of two mean-sized numbers.

    The standard errors are compared at 1e-8, not 1e-10: one_shot forms each
    run's figures from mean-sized numbers, so its own standard errors carry
    a relative rounding of about 2e-16 times the mean-to-noise ratio, 1e-9
    here. Every mean is held to 1e-10."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    shifted = replace(model, mu_x1=1e7 * model.mu_x1, U=1e7 * model.U)
    n_runs = 20 * CHUNK + 17
    got = run_experiment(shifted, req, mech, n_runs, seed=5).to_dict()
    want = one_shot(shifted, req, mech, n_runs, seed=5)
    for key, value in want.items():
        rtol = 1e-8 if key.startswith("se_") else 1e-10
        np.testing.assert_allclose(got[key], value, rtol=rtol, atol=0, err_msg=key)


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
    n = 20 * CHUNK
    peaks = _traced_peaks(model, req, scalar_report.mechanism, (n, 4 * n))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_run_experiment_peak_is_four_pieces_at_most(reactor_case):
    """On the four-state model at K=20 (140 normals per run), the traced
    peak stays within four pieces of normals: the two draw buffers, one
    piece's draw temporaries and the per-batch Gram matrices. Simulating
    each piece took about six."""
    model, req = with_overrides(*reactor_case, K=20)
    mech = synthesize(model, req).mechanism
    piece = CHUNK * req.K * (model.n_x + 2 * model.n_y + model.n_u) * 8
    peaks = _traced_peaks(model, req, mech, (20 * CHUNK, 80 * CHUNK))
    assert max(peaks) <= 4 * piece, [p / piece for p in peaks]


class _InlineExecutor:
    """Stands in for the helper thread: runs each submitted call at once, on
    the calling thread, and counts the calls."""

    submitted = 0

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        type(self).submitted += 1
        done = Future()
        try:
            done.set_result(fn(*args, **kwargs))
        except BaseException as exc:       # noqa: BLE001 - handed to the caller
            done.set_exception(exc)
        return done


@pytest.mark.parametrize("n_runs", [1, 20 * CHUNK + 17])
def test_prefetch_matches_serial_draws(monkeypatch, twostate_case, twostate_report, n_runs):
    """Drawing on the helper thread changes no bit of the summary."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    threaded = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    monkeypatch.setattr(sim, "ThreadPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "submitted", 0)
    serial = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    assert _InlineExecutor.submitted == len(list(_pieces(n_runs)))
    # repr round-trips every float, nan included, so equal text is equal bits
    assert json.dumps(threaded, sort_keys=True) == json.dumps(serial, sort_keys=True)


@pytest.mark.parametrize("theirs", [(), (1, 3), (0, 1, 2, 3, 4)])
def test_stream_split_changes_no_bit(monkeypatch, twostate_case, twostate_report, theirs):
    """Which generators the helper draws, and whether it runs on a thread
    at all, changes no bit of the summary."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    n_runs = 20 * CHUNK + 17
    default = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    monkeypatch.setattr(sim, "_helper_streams", lambda widths: theirs)
    split = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    monkeypatch.setattr(sim, "ThreadPoolExecutor", _InlineExecutor)
    inline = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    texts = {json.dumps(d, sort_keys=True) for d in (default, split, inline)}
    assert len(texts) == 1


def test_helper_draws_the_leading_half():
    """The helper draws the leading streams up to half of the normals: the
    initial-state and process noise of the K=20 four-state model."""
    assert sim._helper_streams((4, 76, 20, 20, 20)) == (0, 1)
    assert sim._helper_streams((2, 4, 6, 6, 3)) == (0, 1, 2)
    assert sim._helper_streams((1, 1, 2, 2, 2)) == (0, 1, 2)


def test_draw_error_leaves_no_helper_thread(monkeypatch, twostate_case, twostate_report):
    """A failed draw on either drawing thread surfaces from run_experiment,
    and the helper has ended by the time it does. Each generator is drawn
    by one thread only, and both threads draw."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    before = set(threading.enumerate())
    caller = threading.current_thread()
    real = sim._fill
    for fail_on_caller in (False, True):
        drawn_by = {}
        failing_calls = []

        def failing(gens, which, bounds, out):
            here = threading.current_thread()
            for i in which:
                drawn_by.setdefault(i, set()).add(here)
            if (here is caller) == fail_on_caller:
                failing_calls.append(here)
                if len(failing_calls) == 2:
                    raise RuntimeError("second draw failed")
            return real(gens, which, bounds, out)

        monkeypatch.setattr(sim, "_fill", failing)
        with pytest.raises(RuntimeError, match="second draw failed"):
            run_experiment(model, req, mech, 3 * CHUNK, seed=5)
        assert len(failing_calls) == 2
        assert all(len(threads) == 1 for threads in drawn_by.values()), drawn_by
        assert len(set().union(*drawn_by.values())) == 2
        assert set(threading.enumerate()) == before


def test_run_experiment_setup_once_per_call(monkeypatch, twostate_case, twostate_report):
    """The output moments are computed once per call, and the factorizations
    do not grow with the number of pieces."""
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
    for n_runs in (1, 3 * CHUNK + 1):
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
    est = _PlugInEstimator(model, mech, lift=lift)
    _, _, _, _, z, r = _simulate_batch(model, mech, 50, seed=11)
    z, r = z.reshape(50, -1), r.reshape(50, -1)
    mu_base = lift.F @ model.mu_x1 + r[:, :(req.K - 1) * model.n_u] @ lift.L.T
    mu_S = mu_base @ lift.Dt.T
    mu_Z = mu_base @ (mech.Gtilde @ lift.Ct).T
    np.testing.assert_allclose(est.estimate(z, r), mu_S + (z - mu_Z) @ est.B_z.T,
                               rtol=0, atol=1e-12)


def test_sweep_row_builds_one_lift(monkeypatch):
    """One horizon lift per eps_Y row, shared by its solve and every cell."""
    calls = []
    real = build_lift
    counting = lambda *a, **kw: calls.append(1) or real(*a, **kw)     # noqa: E731
    monkeypatch.setattr(cli, "build_lift", counting)
    monkeypatch.setattr(synth, "build_lift", counting)
    cells = cli._sweep_row(str(FIXTURES / "twostate.json"), None, 1.0, [0.0, 0.5, 1.0, 2.0])
    assert [c[0] for c in cells] == ["Infeasible", "Optimal", "Optimal", "Optimal"]
    assert len(calls) == 1


def test_main_leaves_floating_point_settings_alone():
    before = np.geterr()
    assert cli.main(["validate", str(FIXTURES / "twostate.json")]) == 0
    assert np.geterr() == before
