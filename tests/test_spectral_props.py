"""Property tests of the spectral kernels against direct and mpmath references.

Every property runs under one deterministic hypothesis profile, so the suite
draws the same examples on every run.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh, toeplitz

from atlab import fourier, gaussian, sbh

PROPS = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_EPS = float(np.finfo(float).eps)


@st.composite
def tables(draw):
    """Random Hermitian tables with |c(n)| < 1 and c(0) = 1."""
    N = draw(st.integers(0, 40))
    part = st.floats(-0.7, 0.7)
    re = draw(st.lists(part, min_size=N, max_size=N))
    im = draw(st.lists(part, min_size=N, max_size=N))
    nn = np.concatenate([[1.0], np.array(re) + 1j * np.array(im)])
    return fourier.FourierTable.from_nonneg(nn, label="prop")


def _direct(t, thetas):
    """c(0) + 2 Re sum_{n>=1} c(n) e^{2 pi i n theta}, summed directly."""
    ns = np.arange(1, t.half_width + 1)
    ph = np.exp(2j * np.pi * np.outer(thetas, ns))
    return t.coeffs[0].real + 2.0 * np.real(ph @ t.coeffs[1:])


@PROPS
@given(data=st.data())
def test_grid_density_matches_direct_sum(data):
    t = data.draw(tables())
    N = t.half_width
    G = data.draw(st.one_of(st.integers(1, 2 * N + 1), st.integers(2 * N + 1, 4 * N + 8),
                            st.just(8196)))  # 8196 = 4 * 3 * 683
    # the direct sum loses up to about 4 pi N eps |c(n)| per term to phase rounding
    tol = 64 * (N + 1) * _EPS * float(np.sum(np.abs(t.coeffs)))
    assert np.max(np.abs(t.density(G) - _direct(t, np.arange(G) / G))) <= tol


def _geometric(N, r, x0):
    n = np.arange(N + 1)
    return fourier.FourierTable.from_nonneg(r**n * np.exp(2j * np.pi * n * x0),
                                            label="geometric")


FIXED_TABLES = [
    fourier.sqrt_template(0.3, 256),
    fourier.riesz_product([0.9, 0.7, 0.5], [1, 5, 17], 64),
    _geometric(100, 0.97, 0.123456),
    fourier.dirac_table(64),
]


def _mp_density(t, G, points):
    """d(j/G) for j in ``points`` at 40 digits, phases reduced exactly as nj mod G."""
    nn = t.coeffs
    N = t.half_width
    a = [mpmath.mpf(float(x.real)) for x in nn]
    b = [mpmath.mpf(float(x.imag)) for x in nn]
    cos = [mpmath.cospi(mpmath.mpf(2 * k) / G) for k in range(G)]
    sin = [mpmath.sinpi(mpmath.mpf(2 * k) / G) for k in range(G)]
    out = []
    for j in points:
        ks = [(n * j) % G for n in range(1, N + 1)]
        s = mpmath.fdot(a[1:], [cos[k] for k in ks]) - mpmath.fdot(b[1:], [sin[k] for k in ks])
        out.append(a[0] + 2 * s)
    return out


@pytest.mark.parametrize("t", FIXED_TABLES, ids=lambda t: t.label.split("(")[0])
def test_grid_density_error_far_below_stated_bound(t):
    G = 4 * t.half_width + 4
    vals = t.density(G)
    with mpmath.workdps(40):
        ref = _mp_density(t, G, range(G))
        err = max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(vals, ref))
    assert float(err) <= fourier._fft_rounding(t, G) / 100


@pytest.mark.parametrize("t", FIXED_TABLES, ids=lambda t: t.label.split("(")[0])
@pytest.mark.parametrize("coarse", ["1", "7", "N+1", "2N"])
def test_coarse_grid_density_within_stated_bound(t, coarse):
    # a grid G < 2N + 1 reads every m-th point of an FFT of length mG >= 2N + 1
    N = t.half_width
    G = {"1": 1, "7": 7, "N+1": N + 1, "2N": 2 * N}[coarse]
    m = -(-(2 * N + 1) // G)
    vals = t.density(G)
    assert vals.shape == (G,)
    with mpmath.workdps(40):
        ref = _mp_density(t, G, range(G))
        err = max(abs(mpmath.mpf(float(v)) - r) for v, r in zip(vals, ref))
    assert float(err) <= fourier._fft_rounding(t, m * G)


@pytest.mark.parametrize("t", [t for t in FIXED_TABLES if t.half_width <= 100],
                         ids=lambda t: t.label.split("(")[0])
def test_certified_upper_covers_fine_grid_maximum(t):
    G = max(4 * t.half_width + 4, 64)
    rep = fourier.density_sup(t, G)
    with mpmath.workdps(40):
        fine_max = max(_mp_density(t, 8 * G, range(8 * G)))
        assert rep.certified_upper >= fine_max


def _hermitian_lam_min(t, k):
    col = t.coeffs[:k].astype(complex)
    return float(eigvalsh(toeplitz(col, col.conj()))[0])


@PROPS
@given(data=st.data())
def test_real_psd_path_matches_hermitian(data):
    # uniform c(n) shrunk towards 0 by a random scale: PSD and non-PSD alike
    N = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nn = np.concatenate([[1.0], data.draw(st.floats(0.1, 0.5)) * rng.uniform(-0.7, 0.7, N)])
    t = fourier.FourierTable.from_nonneg(nn)
    k = data.draw(st.integers(N // 2 + 1, N + 1))
    ok, lam = fourier.is_positive_definite(t, k)
    ref = _hermitian_lam_min(t, k)
    assert lam == pytest.approx(ref, abs=1e-12)
    assert ok == (ref >= fourier.PSD_TOL)


@st.composite
def real_tables(draw):
    """Random real symmetric tables with |c(n)| < 1 and c(0) = 1."""
    N = draw(st.integers(0, 40))
    re = draw(st.lists(st.floats(-0.7, 0.7), min_size=N, max_size=N))
    return fourier.FourierTable.from_nonneg(np.concatenate([[1.0], re]), label="real")


@PROPS
@given(data=st.data())
def test_gram_matches_pointwise_loop(data):
    t = data.draw(st.one_of(tables(), real_tables()))
    N = t.half_width
    # indices up to 2N + 8 apart reach differences inside and outside the support
    shape = data.draw(st.one_of(st.tuples(st.integers(1, 6)),
                                st.tuples(st.integers(1, 3), st.integers(1, 6))))
    flat = data.draw(st.lists(st.integers(-N - 4, N + 4), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape))))
    idx = np.array(flat, dtype=int).reshape(shape)
    rows = idx.reshape(-1, shape[-1])
    ref = np.array([[[t.at(int(a - b)) for b in row] for a in row] for row in rows])
    G = t.gram(idx)
    assert G.shape == shape + shape[-1:]
    assert np.array_equal(G.reshape(ref.shape), ref)
    assert (G.dtype == np.float64) == (not np.any(t.coeffs.imag))


@PROPS
@given(data=st.data())
def test_witness_forms_below_certificates(data):
    # s^T G s / k = (1/k) int |sum_j s_j e(n_j theta)|^2 d_N <= sup d_N, and <= the l1 bound
    t = data.draw(real_tables())
    k = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(k, 12))
    rep = sbh.certify(t, k=k, window=window, heuristic_budget=data.draw(st.integers(1, 60)),
                      seed=data.draw(st.integers(0, 2**16)))
    bound = min(rep.l1_certificate, rep.density_certificate) + 1e-9
    for val, wit in ((rep.exhaustive_sup, rep.exhaustive_witness),
                     (rep.heuristic_sup, rep.heuristic_witness)):
        assert val <= bound
        assert sbh.sbh_form(t, wit["indices"], wit["signs"]) <= bound


@PROPS
@given(data=st.data())
def test_power_subsample_matches_pointwise_loop(data):
    t = data.draw(tables())
    t = fourier.FourierTable.from_nonneg(t.coeffs, tail_bound=0.25, label="p")
    m = data.draw(st.integers(1, t.half_width + 2))
    sub = fourier.power_subsample(t, m)
    nn = [t.at(m * n) for n in range(t.half_width // m + 1)]
    assert np.array_equal(sub.coeffs, fourier.FourierTable.from_nonneg(nn).coeffs)
    assert sub.tail_bound == t.tail_bound


def _full(t):
    """c(-N..N) of ``t`` as one explicit array: entry [n + N] holds c(n)."""
    nn = t.coeffs
    return np.concatenate([nn[:0:-1].conj(), nn])


def _full_gram(t, idx):
    """[c(n_i - n_j)] gathered from c(-N..N) at n_i - n_j + N."""
    full, N = _full(t), t.half_width
    coeffs = full.real if not np.any(full.imag) else full
    diffs = idx[..., :, None] - idx[..., None, :]
    out = np.zeros(diffs.shape, dtype=coeffs.dtype)
    inside = np.abs(diffs) <= N
    out[inside] = coeffs[diffs[inside] + N]
    return out


def _full_grid_density(t, G):
    """The grid density with all of c(-N..N) folded to n mod G by bincount."""
    full, N = _full(t), t.half_width
    idx = np.arange(-N, N + 1) % G
    a = (np.bincount(idx, weights=full.real, minlength=G)
         + 1j * np.bincount(idx, weights=full.imag, minlength=G))
    return np.real(np.fft.ifft(a, norm="forward"))


def _full_l1_tail(t):
    full = _full(t)
    return float(np.sum(np.abs(full))) - abs(full[t.half_width]) + t.tail_bound


def _full_certified_upper(t, G):
    full, N = _full(t), t.half_width
    sup = float(np.max(_full_grid_density(t, G)))
    margin = 2.0 * np.pi * float(np.sum(np.abs(np.arange(-N, N + 1)) * np.abs(full))) / (2.0 * G)
    rounding = (np.ceil(np.log2(G)) * 8.0 * _EPS * np.sqrt(G)
                * float(np.linalg.norm(full)))
    return sup + t.tail_bound + margin + rounding


@PROPS
@given(data=st.data())
def test_half_table_matches_full_array_formulas(data):
    # the table stores c(0..N); every reader must agree with the same formula
    # written on c(-N..N)
    t = data.draw(st.one_of(tables(), real_tables()))
    t = fourier.FourierTable.from_nonneg(t.coeffs, tail_bound=data.draw(st.floats(0.0, 0.5)))
    N = t.half_width
    k = data.draw(st.integers(1, 6))
    idx = np.array(data.draw(st.lists(st.integers(-N - 4, N + 4), min_size=k, max_size=k)))
    gram, ref = t.gram(idx), _full_gram(t, idx)
    assert gram.dtype == ref.dtype
    assert np.array_equal(gram, ref)
    G = data.draw(st.one_of(st.integers(1, 2 * N + 1), st.integers(2 * N + 1, 4 * N + 8)))
    grid = t.density(G)
    ref = _full_grid_density(t, G)
    if G >= 2 * N + 1:
        assert np.array_equal(grid, ref)
    else:
        # bins that fold several terms add them in another order
        assert np.max(np.abs(grid - ref)) <= 8 * (N + 1) * _EPS * float(np.sum(np.abs(_full(t))))
    # certify's l1 certificate is 1 + l1_tail
    l1_cert, ref = 1.0 + fourier.l1_tail(t), 1.0 + _full_l1_tail(t)
    assert abs(l1_cert - ref) <= 4 * np.spacing(ref)
    G = data.draw(st.integers(4 * N + 4, 8 * N + 64))
    upper, ref = fourier.density_sup(t, G).certified_upper, _full_certified_upper(t, G)
    assert abs(upper - ref) <= 4 * np.spacing(ref)


@st.composite
def psd_certificate_tables(draw):
    """Sqrt templates, Riesz products, random real and complex tables, and tables
    whose truncated density dips below 0 (a Dirac table, a shrunk Dirac)."""
    N = draw(st.integers(0, 48))
    kind = draw(st.sampled_from(["sqrt", "riesz", "real", "complex", "dip"]))
    if kind == "sqrt":
        return fourier.sqrt_template(draw(st.floats(0.0, 1.0)), N)
    if kind == "riesz":
        freqs = [draw(st.integers(1, 3))]
        while freqs[-1] <= N and len(freqs) < 5:
            freqs.append(freqs[-1] * draw(st.integers(3, 5)))
        amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(freqs),
                             max_size=len(freqs)))
        return fourier.riesz_product(amps, freqs, N)
    if kind == "complex":
        return draw(tables())
    if kind == "dip":
        nn = np.full(N + 1, draw(st.floats(0.5, 1.0)), dtype=complex)
        nn[0] = 1.0
        return fourier.FourierTable.from_nonneg(nn)
    re = draw(st.lists(st.floats(-0.7, 0.7), min_size=N, max_size=N))
    return fourier.FourierTable.from_nonneg(np.concatenate([[1.0], re]).astype(complex))


@PROPS
@given(t=psd_certificate_tables())
def test_density_min_lower_bounds_toeplitz_lam_min(t):
    # Grenander-Szego: min d_N <= lam_min(T_k) for every k <= N + 1
    assert fourier._density_min_lower(t) <= _hermitian_lam_min(t, t.half_width + 1) + 1e-12


@PROPS
@given(t=psd_certificate_tables())
def test_spec_accepts_exactly_as_eigvalsh(t):
    # the grid certificate and its eigvalsh fallback accept exactly the real,
    # tail-free tables that the eigvalsh-only rule accepted
    if np.any(t.coeffs.imag):
        return
    old = bool(np.linalg.eigvalsh(t.gram(np.arange(t.half_width + 1)))[0] >= fourier.PSD_TOL)
    try:
        gaussian.GaussianSpec.from_fourier_table(t)
        new = True
    except ValueError as exc:
        assert "positive semidefinite" in str(exc)
        new = False
    assert new == old


def _min_lower_grid(N):
    """G of ``_density_min_lower``: the power of two >= 64N, at least 64."""
    return 1 << max(6, (64 * N - 1).bit_length())


def _one_grid_min_lower(t):
    """The grid bound with all G points read by one inverse FFT: the reference
    for the rotated coarse grids of ``_density_min_lower``."""
    N, G = t.half_width, _min_lower_grid(t.half_width)
    vals = t.density(G)
    rounding = fourier._fft_rounding(t, G)
    sup = (float(np.max(np.abs(vals))) + rounding) / (1.0 - np.pi * N / G)
    return float(np.min(vals)) - rounding - 0.5 * (np.pi * N / G) ** 2 * sup


@PROPS
@given(t=psd_certificate_tables())
@example(t=fourier.lebesgue_table(0))
@example(t=fourier.dirac_table(1))
@example(t=fourier.FourierTable.from_nonneg(np.array([1.0, 0.3 + 0.4j])))
@example(t=fourier.FourierTable.from_nonneg(np.array([1.0, 0.6, 0.9])))
@example(t=fourier.FourierTable.from_nonneg(np.array([1.0, 0.3 - 0.2j, -0.4j])))
def test_rotated_grids_match_one_grid_bound(t):
    # both read d_N on the same G points, each within _fft_rounding of exact
    rounding = fourier._fft_rounding(t, _min_lower_grid(t.half_width))
    assert abs(fourier._density_min_lower(t) - _one_grid_min_lower(t)) <= 2 * rounding


@pytest.mark.parametrize("t", FIXED_TABLES, ids=lambda t: t.label.split("(")[0])
def test_rotated_grid_values_far_below_stated_bound(t, monkeypatch):
    # the r-th density(L) call of _density_min_lower reads d_N((qR + r)/G), q < L
    calls = []
    density = fourier.FourierTable.density
    monkeypatch.setattr(fourier.FourierTable, "density",
                        lambda self, L: calls.append(density(self, L)) or calls[-1])
    fourier._density_min_lower(t)
    N, G, R = t.half_width, _min_lower_grid(t.half_width), len(calls)
    assert R >= 16 and G // R >= 2 * N + 1
    assert all(vals.shape == (G // R,) for vals in calls)
    with mpmath.workdps(40):
        for r in (1, R - 1):
            ref = _mp_density(t, G, range(r, G, R))
            err = max(abs(mpmath.mpf(float(v)) - x) for v, x in zip(calls[r], ref))
            assert float(err) <= fourier._fft_rounding(t, G) / 100


def test_density_min_lower_memory_is_linear_in_n():
    # at N = 2^14 the 2^20 grid points are read as 16 grids of 2^16, about 4 MiB;
    # a single 2^20-point grid holds two complex arrays, 32 MiB
    t = fourier.sqrt_template(0.3, 2**14)
    tracemalloc.start()
    try:
        fourier._density_min_lower(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _riesz_sign_patterns(amplitudes, frequencies, N):
    """The walk over all 3^J sign patterns that riesz_product used before it
    multiplied its factors into the table: c(0..N) of the product, c(0) = 1."""
    a, lam = [float(x) for x in amplitudes], [int(x) for x in frequencies]
    freq, coef = np.zeros(1, dtype=np.int64), np.ones(1)
    for l, x in zip(lam, a):
        if l >= 2 * N:  # a pattern topped by lambda_j has |n| > lambda_j / 2
            break
        freq = np.concatenate([freq, freq + l, freq - l])
        coef = np.concatenate([coef, coef * x / 2.0, coef * x / 2.0])
    keep = (freq > 0) & (freq <= N)
    nn = np.zeros(N + 1, dtype=complex)
    nn[freq[keep]] += coef[keep]  # each n > 0 from at most one pattern
    nn[0] = 1.0
    return nn


@st.composite
def lacunary_products(draw):
    """Up to 9 amplitudes in [-1, 1] (often +-0.0 or +-1), frequencies with
    lambda_{j+1} >= 3 lambda_j, and N from 0 to 3 lambda_J."""
    freqs = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 8))):
        freqs.append(3 * freqs[-1] + draw(st.integers(0, freqs[-1])))
    freqs = freqs[:draw(st.integers(0, len(freqs)))]
    N = draw(st.integers(0, 3 * freqs[-1] if freqs else 400))
    amp = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
    return draw(st.lists(amp, min_size=len(freqs), max_size=len(freqs))), freqs, N


@PROPS
@given(case=lacunary_products())
@example(case=([-0.0, 0.5, 1.0], [1, 3, 9], 13))
@example(case=([0.5, -0.0], [2, 6], 8))
@example(case=([1.0, -1.0, 0.25, -0.75], [1, 3, 9, 27], 40))
@example(case=([], [], 5))
@example(case=([0.5] * 20, [3**j for j in range(20)], 8))  # the CLI's 20-factor table
def test_riesz_product_matches_sign_pattern_walk(case):
    amps, freqs, N = case
    want = _riesz_sign_patterns(amps, freqs, N)
    got = fourier.riesz_product(amps, freqs, N).coeffs
    # bit for bit: a -0.0 product lands as 0.0 in both
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_riesz_product_peak_memory():
    # the table (1x), the FourierTable constructor's copy (1x) and its |c(n)| check
    # (0.5x): about 2.56x; the sign-pattern walk read 4.14x
    N, J = 2**20, 13
    tracemalloc.start()
    try:
        t = fourier.riesz_product([0.5] * J, [3**j for j in range(J)], N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.coeffs.nbytes
