"""Tests for Gaussian sampling, orthant laws, and cocycle correlation tables."""

import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlab import _orthant, fourier, gaussian, sbh, systems


def test_spec_validation():
    with pytest.raises(ValueError):
        gaussian.GaussianSpec(np.array([0.9, 0.1]))  # r(0) != 1
    with pytest.raises(ValueError):
        gaussian.GaussianSpec(np.array([1.0, 1.2]))  # |r| > 1
    spec = gaussian.exponential_spec(0.5, 4)
    assert spec.r(2) == pytest.approx(0.25, abs=1e-15)
    assert spec.r(-2) == spec.r(2)
    with pytest.raises(ValueError):
        spec.r(5)


def test_spec_fourier_round_trip():
    spec = gaussian.triangular_spec(4, 8)
    t = spec.to_fourier_table()
    back = gaussian.GaussianSpec.from_fourier_table(t)
    assert np.allclose(back.autocov, spec.autocov)


def test_spec_from_table_rejects_non_psd():
    # real, |c| <= 1 and c(0) = 1, but s = (1, -1, 1) gives s^T T s = 3 - 5.4 < 0
    t = fourier.FourierTable.from_nonneg(np.array([1.0, 0.9, -0.9], dtype=complex))
    with pytest.raises(ValueError, match="positive semidefinite"):
        gaussian.GaussianSpec.from_fourier_table(t)


def test_spec_from_table_skips_eigvalsh_when_grid_certifies(monkeypatch):
    # min d_N is about 0.58 here: the grid certificate decides, the O(N^3)
    # eigenvalue fallback never runs
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    t = fourier.sqrt_template(0.3, 1024)
    assert fourier._density_min_lower(t) > 0.5
    spec = gaussian.GaussianSpec.from_fourier_table(t)
    assert np.array_equal(spec.autocov, t.coeffs.real)


@pytest.mark.parametrize("nn", [[1.0, 0.6, 0.9], [1.0] * 9],
                         ids=["psd-minors-negative-density", "dirac"])
def test_spec_from_table_falls_back_to_eigvalsh(monkeypatch, nn):
    # PSD at k = N + 1 although the truncated density dips below 0, so the grid
    # bound is negative and eigvalsh decides
    t = fourier.FourierTable.from_nonneg(np.array(nn, dtype=complex))
    assert fourier._density_min_lower(t) < 0.0
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    gaussian.GaussianSpec.from_fourier_table(t)
    assert calls == [(len(nn), len(nn))]


def test_spec_from_table_rejects_positive_tail():
    t = fourier.FourierTable.from_nonneg(np.array([1.0, 0.072], dtype=complex), tail_bound=0.04)
    with pytest.raises(ValueError, match="tail_bound 0, got 0.04: .* finite-range process"):
        gaussian.GaussianSpec.from_fourier_table(t)


def test_spec_from_table_rejects_complex():
    nn = np.array([1.0, 0.2 + 0.3j], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    with pytest.raises(ValueError):
        gaussian.GaussianSpec.from_fourier_table(t)


def test_sample_path_white_noise():
    spec = gaussian.white_noise_spec(8)
    x = gaussian.sample_path(spec, 4, 10**5, seed=1)
    assert x.shape == (10**5, 4)
    lag1 = float(np.mean(x[:, 0] * x[:, 1]))
    assert abs(lag1) <= 4.0 / math.sqrt(10**5)


def test_sample_path_exponential_lag():
    spec = gaussian.exponential_spec(0.5, 8)
    x = gaussian.sample_path(spec, 5, 10**5, seed=2)
    lag1 = float(np.mean(x[:, 0] * x[:, 1]))
    se = 4.0 / math.sqrt(10**5)
    assert abs(lag1 - 0.5) <= se


def test_sample_path_marginal_normal():
    from scipy.stats import kstest
    spec = gaussian.white_noise_spec(2)
    x = gaussian.sample_path(spec, 1, 10**5, seed=3)[:, 0]
    stat, pvalue = kstest(x, "norm")
    assert pvalue > 1e-4


def test_sample_path_deterministic():
    spec = gaussian.exponential_spec(0.3, 6)
    a = gaussian.sample_path(spec, 4, 100, seed=7)
    b = gaussian.sample_path(spec, 4, 100, seed=7)
    assert np.array_equal(a, b)


def test_sign_orthant_independent():
    spec = gaussian.white_noise_spec(4)
    rep = gaussian.product_orthant_mc(spec, 1, 1, 10**5, seed=11)
    assert abs(rep.z_score) <= 4.0
    assert rep.formula_value == pytest.approx(0.25, abs=1e-15)


def test_sign_orthant_half():
    spec = gaussian.exponential_spec(0.5, 4)
    rep = gaussian.product_orthant_mc(spec, 1, 1, 10**5, seed=12)
    assert rep.formula_value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(rep.estimate - 1.0 / 3.0) <= 4.0 * rep.stderr


def test_sign_orthant_negative_half():
    spec = gaussian.exponential_spec(-0.5, 4)
    rep = gaussian.product_orthant_mc(spec, 1, 1, 10**5, seed=13)
    assert rep.formula_value == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert abs(rep.z_score) <= 4.0


def test_product_orthant_levels():
    spec = gaussian.exponential_spec(0.5, 4)
    rep2 = gaussian.product_orthant_mc(spec, 1, 2, 10**5, seed=14)
    assert rep2.formula_value == pytest.approx(0.25 + 1.0 / 36.0, abs=1e-12)
    assert abs(rep2.z_score) <= 4.0
    rep4 = gaussian.product_orthant_mc(spec, 1, 4, 10**5, seed=15)
    assert rep4.formula_value == pytest.approx(0.25 + 1.0 / 324.0, abs=1e-12)
    assert abs(rep4.z_score) <= 4.0
    with pytest.raises(ValueError):
        gaussian.product_orthant_mc(spec, 1, 3, 100, seed=0)


def test_product_orthant_sign_flip_symmetry():
    # {Y0 < 0, Yn < 0} carries the same probability as {Y0 > 0, Yn > 0}
    spec = gaussian.exponential_spec(0.5, 4)
    rng = np.random.default_rng(np.random.SeedSequence(16))
    samples = 10**5
    y0 = np.ones(samples)
    yn = np.ones(samples)
    for _ in range(2):
        z1 = rng.standard_normal(samples)
        z2 = rng.standard_normal(samples)
        x0, xn = z1, 0.5 * z1 + math.sqrt(0.75) * z2
        y0 *= x0
        yn *= xn
    p_pos = float(np.mean((y0 > 0) & (yn > 0)))
    p_neg = float(np.mean((y0 < 0) & (yn < 0)))
    assert abs(p_pos - p_neg) <= 5.0 / math.sqrt(samples)


_C = _orthant.CHUNK


def orthant_float_product_reference(r, level, samples, seed):
    """The float-product Monte Carlo on the chunk streams: chunk c of
    ``_orthant.CHUNK`` samples (the last one short) draws from
    SeedSequence(seed, spawn_key=(c,)); each level draws its z1, then its z2,
    forms the pair (z1, r z1 + sqrt(1 - r^2) z2) and multiplies it into Y_0, Y_n."""
    hits = 0
    for c, lo in enumerate(range(0, samples, _C)):
        n = min(_C, samples - lo)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        y0 = np.ones(n)
        yn = np.ones(n)
        for _ in range(level):
            z1 = rng.standard_normal(n)
            z2 = rng.standard_normal(n)
            y0 *= z1
            yn *= r * z1 + math.sqrt(1.0 - r * r) * z2
        hits += int(np.count_nonzero((y0 > 0) & (yn > 0)))
    a = math.asin(r)
    formula = {1: 0.25 + a / (2.0 * math.pi),
               2: 0.25 + a * a / math.pi**2,
               4: 0.25 + 4.0 * a**4 / math.pi**4}[level]
    return gaussian._mc_report(hits, formula, samples, seed)


@pytest.mark.parametrize("level", [1, 2, 4])
@pytest.mark.parametrize("r", [-0.6, 0.0, 0.45])
def test_product_orthant_matches_float_products(level, r):
    spec = gaussian.GaussianSpec(np.array([1.0, 0.0, r]))
    got = gaussian.product_orthant_mc(spec, 2, level, 20000, seed=31 + level)
    assert got == orthant_float_product_reference(r, level, 20000, 31 + level)


@pytest.mark.parametrize("samples", [_C - 1, _C, _C + 1, 2 * _C + 3, 1, 3 * _C + 5,
                                     2 * _C - 1, 2 * _C, 2 * _C + 1, 4 * _C + 3, 6 * _C + 5])
@pytest.mark.parametrize("level", [1, 2, 4])
@pytest.mark.parametrize("r", [-0.6, 0.45])
def test_product_orthant_matches_float_products_at_block_edges(level, r, samples):
    # one short chunk, one exact chunk, a one-sample second chunk (the worker's
    # only one), a short third chunk back on the calling thread, a one-sample
    # run and a short fourth chunk on the worker all keep the stream; so do the
    # same edges of a round of the two stripes, one chunk a thread (2C - 1 to
    # 6C + 5)
    spec = gaussian.GaussianSpec(np.array([1.0, 0.0, r]))
    got = gaussian.product_orthant_mc(spec, 2, level, samples, seed=31 + level)
    assert got == orthant_float_product_reference(r, level, samples, 31 + level)


@pytest.mark.parametrize("level", [1, 4])
def test_product_orthant_threads_match_a_serial_chunk_loop(level):
    # chunks share no generator, so one thread folding them in order gives the
    # miss count of the two striped threads; and repeats do not move it
    r, samples, seed = 0.3, 5 * _C + 17, 8
    spec = gaussian.GaussianSpec(np.array([1.0, r]))
    misses = 0
    for c, lo in enumerate(range(0, samples, _C)):
        n = min(_C, samples - lo)
        bufs = [np.empty(n) for _ in range(2)] + [np.empty(n, dtype=bool) for _ in range(4)]
        misses += _orthant._chunk_misses(r, level, seed, c, bufs)
    reps = [gaussian.product_orthant_mc(spec, 1, level, samples, seed) for _ in range(3)]
    assert reps[0] == reps[1] == reps[2]
    assert reps[0].estimate == (samples - misses) / samples


@pytest.mark.parametrize("level", [1, 2])
def test_chunk_counts_a_zero_factor_as_a_miss(monkeypatch, level):
    # a factor of exactly 0, of either sign, makes its product 0, a miss whatever
    # the parity of the negative factors; every level draws these x0, then these
    # z, and at r = 0 x_n is z: level 1 hits sample 2 alone, level 2 also sample 3
    x0 = np.array([0.0, 1.0, 1.0, -1.0, 2.0])
    z = np.array([1.0, 0.0, 1.0, 1.0, -0.0])

    class Draws:
        def __init__(self, seq):
            self.draws = itertools.cycle([x0, z])

        def standard_normal(self, out):
            out[:] = next(self.draws)
            return out

    monkeypatch.setattr(np.random, "default_rng", Draws)
    bufs = [np.empty(5) for _ in range(2)] + [np.empty(5, dtype=bool) for _ in range(4)]
    assert _orthant._chunk_misses(0.0, level, 0, 0, bufs) == 5 - level


def test_product_orthant_peak_memory():
    # each of the two threads holds a chunk's x0 and x_n (2^15 float64 each) and
    # four bool planes of 2^15, about 1.26 MiB in all whatever the run's size; a
    # third float64 block a thread, or one packed bit a sample of the 2^22-sample
    # run (the old state planes held three), fails the bound.  A one-sample run
    # first loads numpy.random, whose import is not the run's memory
    spec = gaussian.exponential_spec(0.5, 2)
    gaussian.product_orthant_mc(spec, 1, 1, 1, seed=0)
    for level, samples in [(4, 2**20), (1, 2**22)]:
        tracemalloc.start()
        try:
            gaussian.product_orthant_mc(spec, 1, level, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, (level, samples, peak)


def test_empirical_sign_correlation_matches_arcsine_transform():
    spec = gaussian.exponential_spec(0.6, 8)
    x = gaussian.sample_path(spec, 9, 10**5, seed=21)
    signs = np.where(x > 0, 1.0, -1.0)
    expected = fourier.arcsine_transform(spec.to_fourier_table())
    for n in range(1, 9):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        tol = 5.0 / math.sqrt(signs[:, n:].size)
        assert abs(emp - expected.at(n).real) <= tol


def test_cocycle_variance_values():
    assert gaussian.cocycle_variances(gaussian.white_noise_spec(8), 7).tolist() == list(range(8))
    spec = gaussian.exponential_spec(0.5, 8)
    assert gaussian.cocycle_variances(spec, 2)[2] == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError, match="n_max"):
        gaussian.cocycle_variances(spec, 10)


def test_cocycle_variance_lower_bound():
    specs = [gaussian.white_noise_spec(64),
             gaussian.exponential_spec(0.5, 64),
             gaussian.triangular_spec(8, 64)]
    for spec in specs:
        var = gaussian.cocycle_variances(spec, 65)
        for n in range(1, 66):
            assert var[n] >= n - 1e-12


def _direct_variance(spec, n):
    """Var(X_0 + ... + X_{n-1}) by the direct sum over |k| < n of (n - |k|) r(k)."""
    ks = np.arange(1, n)
    return float(n + 2.0 * np.sum((n - ks) * spec.autocov[1:n])) if n else 0.0


def cocycle_per_lag_reference(spec, M, n_max):
    """The per-lag loop that ``cocycle_correlation_table`` replaced: each lag's
    variance by the direct sum, then its own sum over m."""
    sw = systems.square_wave_coeffs(M)
    ms = sw.odd_ms.astype(float)
    nn = np.ones(n_max + 1)
    for n in range(1, n_max + 1):
        v = _direct_variance(spec, n)
        nn[n] = float(np.sum(sw.weights * np.exp(-2.0 * math.pi**2 * ms**2 * v)))
    return nn


_COCYCLE_SPECS = st.one_of(
    st.builds(gaussian.exponential_spec, st.floats(0.0, 0.95), st.integers(0, 80)),
    st.builds(gaussian.triangular_spec, st.integers(1, 40), st.integers(0, 80)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(spec=_COCYCLE_SPECS, data=st.data())
def test_cocycle_variances_match_direct_sum(spec, data):
    n_max = data.draw(st.integers(0, spec.half_width + 1))
    var = gaussian.cocycle_variances(spec, n_max)
    assert var.shape == (n_max + 1,)
    for n in range(n_max + 1):
        assert var[n] == pytest.approx(_direct_variance(spec, n), rel=1e-13, abs=0.0)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(spec=_COCYCLE_SPECS, M=st.integers(1, 401), data=st.data())
def test_cocycle_table_matches_per_lag_loop(spec, M, data):
    n_max = data.draw(st.integers(0, spec.half_width + 1))
    got = gaussian.cocycle_correlation_table(spec, M, n_max).coeffs
    ref = cocycle_per_lag_reference(spec, M, n_max)
    assert not np.any(got.imag)
    # relative per entry; a subnormal entry (below 2.3e-308) carries fewer bits
    assert np.all(np.abs(got.real - ref) <= 1e-12 * np.abs(ref) + 1e-300)


@pytest.mark.parametrize("M, n_max", [(1, 0), (1, 5), (21, 300), (201, 1000), (401, 700)])
def test_cocycle_table_white_noise_equals_per_lag_loop(M, n_max):
    # Var_n = n exactly, so the blocked exponentials are the per-lag ones bit for bit
    spec = gaussian.white_noise_spec(n_max)
    got = gaussian.cocycle_correlation_table(spec, M, n_max).coeffs
    assert np.array_equal(got, cocycle_per_lag_reference(spec, M, n_max))


def cocycle_every_lag_reference(spec, M, n_max):
    """The loop of ``cocycle_correlation_table`` before it stopped at the
    underflow: every lag's exponentials, 2^16 at a time."""
    var = gaussian.cocycle_variances(spec, n_max)
    sw = systems.square_wave_coeffs(M)
    w, rate = sw.weights, -2.0 * math.pi**2 * sw.odd_ms.astype(float) ** 2
    step = max(1, 2**16 // rate.size)
    nn = np.empty(n_max + 1, dtype=complex)
    nn[0] = 1.0
    for lo in range(1, n_max + 1, step):
        nn[lo:lo + step] = (w * np.exp(rate * var[lo:lo + step, None])).sum(axis=1)
    return nn


_UNDERFLOW_SPECS = {
    "white": lambda N: gaussian.white_noise_spec(N),
    "exponential": lambda N: gaussian.exponential_spec(0.5, N),
    "sqrt": lambda N: gaussian.GaussianSpec.from_fourier_table(fourier.sqrt_template(0.3, N)),
}


@pytest.mark.parametrize("name", sorted(_UNDERFLOW_SPECS))
@pytest.mark.parametrize("M", [21, 201])
def test_cocycle_table_stops_where_the_exponentials_underflow(name, M):
    # from the first lag whose m = +-1 exponential is 0.0 every lag is +0.0, as the
    # sum of its zero terms was: nmax below, at and past that lag, and past the first
    # block of exponentials (324 lags at M = 201, 2978 at M = 21), each against the
    # loop over every lag
    spec = _UNDERFLOW_SPECS[name](7000)
    var = gaussian.cocycle_variances(spec, 7000)
    first = int(np.flatnonzero(np.exp(-2.0 * math.pi**2 * var) == 0.0)[0])
    assert first == 38 if name == "white" else 2 < first < 38
    for n_max in (first - 1, first, first + 1, 400, 7000):
        got = gaussian.cocycle_correlation_table(spec, M, n_max).coeffs
        want = cocycle_every_lag_reference(spec, M, n_max)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n_max
        assert got[first - 1] != 0.0 and not np.any(got[first:])
        zeros = got[got == 0]
        assert not np.any(np.signbit(zeros.real) | np.signbit(zeros.imag)), n_max


def test_cocycle_table_of_2_20_lags_is_fast():
    # white noise's last nonzero lag is 37; evaluating every lag took about 1.26 s
    t0 = time.perf_counter()
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(2**20), 201, 2**20)
    assert time.perf_counter() - t0 < 0.6
    assert t.half_width == 2**20


def test_cocycle_table_white_noise_65536_under_a_second():
    t0 = time.perf_counter()
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(65536), 201, 65536)
    assert time.perf_counter() - t0 < 1.0
    assert t.half_width == 65536


def test_cocycle_correlation_table_white_noise():
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(8), 201, 8)
    c1 = 2.0 * (4.0 / math.pi**2) * math.exp(-2.0 * math.pi**2)
    assert t.at(1).real == pytest.approx(c1, rel=1e-12)
    vals = t.coeffs.real
    assert np.all(vals[1:] > 0.0)
    assert np.all(np.diff(vals[1:]) < 0.0)  # strictly decreasing in n


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("spec, white", [(gaussian.white_noise_spec(40), True),
                                         (gaussian.exponential_spec(0.5, 40), False)],
                         ids=["white", "exponential"])
def test_cocycle_tail_covers_the_odd_m_past_M(M, spec, white):
    # at n_max = 40 the geometric tail past the table is below the smallest
    # double, so tail_bound is the bound on the odd m > M alone; the stored lags
    # +-1..40 each leave out sum_{odd m > M} 8/(pi^2 m^2) e^{-2 pi^2 m^2 Var_n}
    t = gaussian.cocycle_correlation_table(spec, M, 40)
    var = gaussian.cocycle_variances(spec, 40)[1:, None]
    ms = np.arange(M + 1 + M % 2, 100, 2, dtype=float)
    left = 2.0 * float(np.sum(8.0 / (math.pi**2 * ms**2) * np.exp(-2.0 * math.pi**2 * ms**2 * var)))
    assert 0.0 < left <= t.tail_bound
    if white:
        # Var_n = n: the bound is tight up to the 8/pi^2 it drops
        assert t.tail_bound <= 1.25 * left


def test_cocycle_table_rejects_negative_autocov():
    with pytest.raises(ValueError):
        gaussian.cocycle_correlation_table(
            gaussian.exponential_spec(-0.5, 8), 21, 4)


def test_cocycle_table_rejects_negative_nmax():
    with pytest.raises(ValueError, match="n_max"):
        gaussian.cocycle_correlation_table(gaussian.white_noise_spec(8), 21, -1)


def test_cocycle_table_subsample_certifies():
    t = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    tails = []
    for m in range(1, 5):
        sub = fourier.power_subsample(t, m)
        tails.append(fourier.l1_tail(sub))
        assert sbh.certify(sub).verdict == "CERTIFIED_SBH"
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))


def test_gnoat_constant_chain():
    rep = gaussian.gnoat_constant_check()
    assert rep.chain_ok
    assert rep.margin > 0.0
    assert rep.arcsin_domain_ok
    assert rep.series_value + rep.series_tail_bound <= rep.zeta_bound
    assert rep.zeta_bound <= rep.budget


def test_gnoat_constant_chain_zero():
    rep = gaussian.gnoat_constant_check(c=0.0)
    assert rep.chain_ok
    assert rep.series_value == 0.0


def chain_term(c):
    """The constant chain's terms (32/pi^4) arcsin^4(min(c/sqrt(k), 1))."""
    return lambda ks: (32.0 / math.pi**4) * np.arcsin(np.minimum(c / np.sqrt(ks), 1.0)) ** 4


def chain_series_one_shot(c, n):
    """The series over k = 1..n as one np.sum of a full-length array: the
    reference for the blocked sum."""
    return np.sum(chain_term(c)(np.arange(1, n + 1, dtype=float)))


_DEFAULT_C = math.sqrt(math.pi) * ((1.0 + sbh.epsilon0()) / 86.0) ** 0.25
# c = 30 clamps the first 900 terms at arcsin(1)
_CHAIN_CS = pytest.mark.parametrize("c", [_DEFAULT_C, 0.0, 30.0],
                                    ids=["default", "zero", "clamped"])


@_CHAIN_CS
def test_gnoat_series_value_is_the_one_shot_sum(c):
    got = gaussian.gnoat_constant_check(c).series_value
    assert got.hex() == float(chain_series_one_shot(c, 10**6)).hex()


@_CHAIN_CS
@pytest.mark.parametrize("n", [1, 7, 2**16, 2**16 + 1, 10**6, 10**6 + 3])
def test_pairwise_series_matches_one_shot_sum(c, n):
    got = gaussian._pairwise_series(chain_term(c), 1, n)
    assert float(got).hex() == float(chain_series_one_shot(c, n)).hex()


@pytest.mark.parametrize("n", [2**16 + 1, 3 * 2**16 - 5, 10**6 + 3])
def test_pairwise_series_follows_numpys_summation_order(n):
    # rounding in random normals shows any other order or split, which the
    # smooth series terms might hide
    x = np.random.default_rng(n).standard_normal(n)
    got = gaussian._pairwise_series(lambda ks: x[ks.astype(np.intp) - 1], 1, n)
    assert float(got).hex() == float(np.sum(x)).hex()


def test_gnoat_constant_check_peak_memory():
    # one 2^16-term block and its temporaries, about 1.6 MiB; the full-length
    # expression held about 23 MiB
    tracemalloc.start()
    try:
        gaussian.gnoat_constant_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_mc_report_serialization():
    rep = gaussian.product_orthant_mc(gaussian.white_noise_spec(2), 1, 1, 1000, seed=5)
    obj = dataclasses.asdict(rep)
    for key in ("estimate", "stderr", "formula_value", "z_score",
                "samples", "seed"):
        assert key in obj
