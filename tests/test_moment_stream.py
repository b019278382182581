"""run_experiment's moment stream: SplitMix64 on a counter, keyed by
SHA-256 of (salt, seed, tag), against the reference algorithm's known
answers; its normals and chi-square variates against scipy.stats; and the
seeds every stream of the simulator accepts.

The Kolmogorov-Smirnov layout (sample sizes, seeds, p-value floor 1e-3) is
fixed in advance, not tuned to the draws."""

import json

import numpy as np
import pytest

from privsynth import sim
from privsynth.sim import SplitMix64, run_experiment

P_FLOOR = 1e-3
MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Scalar transcription of the reference SplitMix64: the state advances
    by the golden gamma, then is mixed, all modulo 2^64."""
    out = []
    for _ in range(n):
        seed = (seed + 0x9E3779B97F4A7C15) & MASK
        z = seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_answers():
    assert SplitMix64(1234567).integers(5).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    assert SplitMix64(0).integers(1).tolist() == [16294208416658607535]


@pytest.mark.parametrize("key", [0, 1234567, MASK, MASK - 0x9E3779B97F4A7C15 + 3])
def test_matches_the_scalar_reference(key):
    """Also across the wrap of the counter's sum past 2^64."""
    assert SplitMix64(key).integers(300).tolist() == reference_splitmix64(key, 300)


@pytest.mark.parametrize("n1, n2", [(0, 7), (1, 1), (5, 6), (1000, 3)])
def test_draws_continue_the_counter(n1, n2):
    """n1 uniforms then n2 equal n1 + n2 at once, and the uniforms are the
    outputs' top 53 bits plus one, times 2^-53, so they lie in (0, 1]."""
    whole = sim.moment_stream(11).random(n1 + n2)
    gen = sim.moment_stream(11)
    np.testing.assert_array_equal(np.concatenate([gen.random(n1), gen.random(n2)]), whole)
    assert gen.count == n1 + n2
    ints = sim.moment_stream(11).integers(n1 + n2)
    np.testing.assert_array_equal(whole, ((ints >> 11) + 1).astype(float) * 2.0 ** -53)
    assert np.all((whole > 0) & (whole <= 1))


def test_odd_normal_count_drops_the_last_sine():
    np.testing.assert_array_equal(sim.moment_stream(3).standard_normal(5),
                                  sim.moment_stream(3).standard_normal(6)[:5])


def test_keys_differ_across_seeds_and_tags():
    keys = {sim._key(seed, tag) for seed in [*range(200), 2**63, 2**80] for tag in range(6)}
    assert len(keys) == 202 * 6


@pytest.mark.parametrize("seed", [1, 7919])
def test_normals_pass_kolmogorov_smirnov(seed):
    stats = pytest.importorskip("scipy.stats")
    x = sim.moment_stream(seed).standard_normal(100_000)
    assert stats.kstest(x, "norm").pvalue > P_FLOOR


@pytest.mark.parametrize("df", [1, 2, 3, 10, 19999])
def test_chisquare_passes_kolmogorov_smirnov(df):
    """Both branches: df < 2 boosts a Gamma(df/2 + 1) variate by U^(2/df)."""
    stats = pytest.importorskip("scipy.stats")
    x = sim.moment_stream(df).chisquare(np.full(20_000, df))
    assert stats.kstest(x, stats.chi2(df).cdf).pvalue > P_FLOOR


def test_mixed_chisquare_call_passes_kolmogorov_smirnov():
    """One call over interleaved degrees of freedom, as the Bartlett
    diagonal makes: each df's entries have their own law."""
    stats = pytest.importorskip("scipy.stats")
    dfs = (1, 2, 19999)
    x = sim.moment_stream(5).chisquare(np.tile(dfs, 20_000))
    for i, df in enumerate(dfs):
        assert stats.kstest(x[i::3], stats.chi2(df).cdf).pvalue > P_FLOOR, df


@pytest.mark.parametrize("seed", [1.9, 1.0, np.float64(2), True, np.bool_(False), -1,
                                  np.int64(-1), "1", None],
                         ids=["1.9", "1.0", "float64", "True", "bool_", "-1", "int64(-1)",
                              "str", "None"])
def test_seed_must_be_a_non_negative_integer(seed, twostate_case, twostate_report):
    """A float seed is not truncated to an integer one, whose numbers the
    summary would then report under the float."""
    model, req = twostate_case
    with pytest.raises(ValueError, match="non-negative integer"):
        sim.stream(seed, 0)
    with pytest.raises(ValueError, match="non-negative integer"):
        sim.moment_stream(seed)
    with pytest.raises(ValueError, match="non-negative integer"):
        run_experiment(model, req, twostate_report.mechanism, 100, seed=seed)


@pytest.mark.parametrize("seed", [np.int32(7), np.uint64(7), np.int64(7)])
def test_numpy_integer_seeds_equal_python_ones(seed):
    assert sim.moment_stream(seed).key == sim.moment_stream(7).key
    np.testing.assert_array_equal(sim.stream(seed, 2).standard_normal(4),
                                  sim.stream(7, 2).standard_normal(4))


def test_summary_records_a_numpy_integer_seed_as_an_int(twostate_case, twostate_report):
    model, req = twostate_case
    got = run_experiment(model, req, twostate_report.mechanism, 100, seed=np.int64(7)).to_dict()
    assert type(got["seed"]) is int
    assert json.dumps(got) == json.dumps(
        run_experiment(model, req, twostate_report.mechanism, 100, seed=7).to_dict())


def test_large_seed_keys_every_stream():
    sim.stream(2**80, 0).standard_normal(1)
    assert sim.moment_stream(2**80).key != sim.moment_stream(2**80 + 1).key
