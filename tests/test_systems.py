"""Tests for the concrete systems: substitutions, cocycles, nil-rotations."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atlab import _rotation_tail, cli, fourier, systems
from atlab.bessel import bessel_jv


def rs_oracle(n_max):
    """Independent definition: r_n = (-1)^{number of '11' pairs in binary n}."""
    ns = np.arange(n_max, dtype=np.uint64)
    pairs = np.zeros(n_max, dtype=np.int64)
    v = ns.copy()
    while np.any(v):
        pairs += ((v & 3) == 3).astype(np.int64)
        v >>= np.uint64(1)
    return np.where(pairs % 2 == 0, 1, -1).astype(np.int8)


def test_rudin_shapiro_first_signs():
    assert systems.rudin_shapiro_names(8).tolist() == [1, 1, 1, -1, 1, 1, -1, 1]


def test_rudin_shapiro_r0():
    assert systems.rudin_shapiro_names(1)[0] == 1


def test_rudin_shapiro_prefix_property():
    a = systems.rudin_shapiro_names(2**10)
    b = systems.rudin_shapiro_names(2**11)
    assert np.array_equal(a, b[: 2**10])


def test_rudin_shapiro_matches_binary_oracle():
    for L in [1, 2, 3, 5, 7, 9, 2**12 - 1, 2**12, 2**12 + 1, 2**20 + 3]:
        names = systems.rudin_shapiro_names(L)
        assert names.dtype == np.int8 and np.array_equal(names, rs_oracle(L)), L
        # a prefix cut from a longer doubling owns its buffer
        assert names.base is None, L


# the empirical correlation c(n) = S(n) / (L - n) of the Rudin-Shapiro rows, with
# S the exact lag sums of ``_lag_sums``, which takes at most
# B = max(4096, 2^ceil(log2(n_max + 1))) signs per sequence
def test_empirical_correlation_constant():
    s = np.ones(64)
    c = systems._lag_sums(s, s, 8) / (64 - np.arange(9))
    assert np.allclose(c, 1.0)


def test_empirical_correlation_alternating():
    s = np.tile([1.0, -1.0], 64)
    c = systems._lag_sums(s, s, 8) / (128 - np.arange(9))
    for n in range(9):
        assert c[n] == pytest.approx((-1.0) ** n, abs=1e-12)


def test_empirical_correlation_length_check():
    ok = np.ones(4096)
    assert systems._lag_sums(ok, ok, 8)[0] == 4096
    for x, y in [(np.ones(4097), ok), (ok, np.ones(4097)), (np.ones(8193), np.ones(8193))]:
        with pytest.raises(ValueError, match="at most 4096 signs"):
            systems._lag_sums(x, y, 8)
    with pytest.raises(ValueError, match="at most 8192 signs"):
        systems._lag_sums(np.ones(8193), ok, 4096)


def lag_loop(signs, n_max):
    """Reference: each lag sum as one exact float dot product of +-1 entries."""
    s = np.asarray(signs, dtype=float)
    L = s.size
    return np.array([s[:L - n] @ s[n:] / (L - n) for n in range(n_max + 1)])


def lag_sums_loop(signs, n_max, other=None):
    """Reference: each lag sum sum_j signs[j] other[j + n] (other defaults to signs)
    as one float dot product of +-1 entries, exact below 2^53."""
    x = np.asarray(signs, dtype=float)
    y = x if other is None else np.asarray(other, dtype=float)
    k = [min(x.size, y.size - n) for n in range(n_max + 1)]
    return np.array([x[:k[n]] @ y[n:n + k[n]] if k[n] > 0 else 0.0
                     for n in range(n_max + 1)]).astype(np.int64)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(n_max=st.one_of(st.integers(0, 300), st.integers(0, 8191)),
       lx=st.integers(1, 8192), ly=st.integers(1, 8192), same=st.booleans(),
       dtype=st.sampled_from([np.int8, np.float64]), seed=st.integers(0, 2**32 - 1))
@example(n_max=0, lx=1, ly=1, same=True, dtype=np.int8, seed=0)  # L = 1
@example(n_max=0, lx=4096, ly=4096, same=True, dtype=np.float64, seed=1)
@example(n_max=100, lx=10, ly=10, same=True, dtype=np.int8, seed=2)  # every lag from 10 on is empty
@example(n_max=4095, lx=4096, ly=4096, same=True, dtype=np.float64, seed=3)  # n_max = B - 1
@example(n_max=4096, lx=8192, ly=8192, same=False, dtype=np.int8, seed=5)  # B grows to 8192
@example(n_max=300, lx=4096, ly=17, same=False, dtype=np.int8, seed=6)  # y shorter than x
@example(n_max=300, lx=17, ly=4096, same=False, dtype=np.float64, seed=7)  # x shorter than y
def test_empirical_correlation_matches_lag_loop(n_max, lx, ly, same, dtype, seed):
    B = max(4096, 1 << n_max.bit_length())
    rng = np.random.default_rng(seed)
    x = rng.choice([-1, 1], size=min(lx, B)).astype(dtype)
    y = x if same else rng.choice([-1, 1], size=min(ly, B)).astype(dtype)
    got = systems._lag_sums(x, y, n_max)
    assert got.dtype == np.int64
    assert np.array_equal(got, lag_sums_loop(x, n_max, y))


@pytest.mark.parametrize("bad", [0, 2, 0.5, np.nan])
@pytest.mark.parametrize("where", [0, 9000])
def test_empirical_correlation_rejects_non_signs(bad, where):
    # at n_max = 8192 the kernel takes 16384 signs, so entry 9000 is read too
    s, ok = np.ones(9001), np.ones(9001)
    s[where] = bad
    for x, y in [(s, s), (s, ok), (ok, s)]:
        with pytest.raises(ValueError, match="[+]1 or -1"):
            systems._lag_sums(x, y, 8192)


def test_empirical_correlation_rejects_inexact_lag_range():
    # a broadcast view: 2^30 signs that occupy one byte
    signs = np.broadcast_to(np.int8(1), 2**30)
    with pytest.raises(ValueError, match="too large for exact"):
        systems._lag_sums(signs, signs, 2**28)


def test_cli_rudin_shapiro_csv_matches_lag_loop(tmp_path):
    L, n_max = 65536, 256
    out = tmp_path / "rs.csv"
    assert cli.main(["system", "rudin-shapiro", "--L", str(L), "--nmax", str(n_max),
                     "--out", str(out)]) == 0
    err = repr(5.0 / math.sqrt(L))
    expected = "n,re,im,method,error_bar\n" + "".join(
        f"{n},{float(v)!r},0.0,empirical,{err}\n"
        for n, v in enumerate(lag_loop(systems.rudin_shapiro_names(L), n_max)))
    assert out.read_text() == expected


@pytest.mark.parametrize("L, n_max", [(1, 0), (5, 1), (1000, 16), (3000, 200), (10**5, 64),
                                      (2**20 + 12345, 256), (2**22, 1024)])
def test_rudin_shapiro_lag_sums_match_lag_loop(L, n_max):
    got = systems.rudin_shapiro_lag_sums(L, n_max)
    assert got.dtype == np.int64
    assert np.array_equal(got, lag_sums_loop(systems.rudin_shapiro_names(L), n_max))


# with B = max(4096, 2^ceil(log2(n_max + 1))) and L = J B + R, the lag sums come
# from counts of full blocks and block cuts; J and R take every small value here
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(L=st.one_of(st.integers(1, 3000), st.integers(2**14 - 64, 2**14 + 64),
                   st.integers(2**14, 2**19)),
       n_max=st.one_of(st.integers(0, 8), st.integers(0, 300)))
@example(L=2**14 + 1, n_max=0)
@example(L=2**14 + 3, n_max=1)
@example(L=2**19 - 1, n_max=300)  # every bit of L set
@example(L=3 * 2**15 + 4095, n_max=4095)  # the largest lag of the smallest block
@example(L=5 * 2**15 + 1, n_max=4096)  # the block grows to 8192 signs
@example(L=5, n_max=300)  # every lag from L on is an empty sum
@example(L=2**13 + 100, n_max=300)  # the last part is shorter than n_max
def test_rudin_shapiro_lag_sums_property(L, n_max):
    assert np.array_equal(systems.rudin_shapiro_lag_sums(L, n_max),
                          lag_sums_loop(systems.rudin_shapiro_names(L), n_max))


@pytest.mark.parametrize("L, n_max", [(2**20, 2**18), (2**20 + 12345, 2**18 - 1)] + [
    (J * 8192 + R, 5000) for J in range(4) for R in (0, 3000) if J or R])
def test_rudin_shapiro_lag_sums_match_one_kernel_pass(L, n_max):
    # block B = 8192 at n_max = 5000: no block (J = 0) to three, with a remainder
    # shorter than n_max or none; (2^20, 2^18) is two blocks of 2^19 signs, and
    # (2^20 + 12345, 2^18 - 1) four of 2^18 and a remainder.  The reference is one
    # correlation of the whole prefix, zero-padded to G >= L + n_max so that it does
    # not wrap; by the bound of ``_lag_sums`` with ||s||_1 = L and ||s||_2 = sqrt L,
    # each sum is within (4 g + 2 eps) L^1.5 < 0.2 of its integer
    s = systems.rudin_shapiro_names(L).astype(float)
    G = 1 << (L + n_max).bit_length()
    S = np.fft.rfft(s, G)
    ref = np.rint(np.fft.irfft(np.conj(S) * S, G)[:n_max + 1]).astype(np.int64)
    assert np.array_equal(systems.rudin_shapiro_lag_sums(L, n_max), ref)


# S_2L(2n) = (1 + (-1)^n) S_L(n): the even positions r_2i = r_i and the odd ones
# r_2i+1 = (-1)^i r_i each pair r_i with r_i+n, the odd ones with sign (-1)^n.  This
# checks the lag sums at lengths no prefix can be built for
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(L=st.one_of(st.integers(1, 2**16), st.integers(1, 2**61),
                   st.integers(1, 2**49).map(lambda J: 4096 * J)),  # R = 0 at B = 4096
       n_max=st.integers(0, 700))
@example(L=2**61, n_max=700)
@example(L=2**61 - 1, n_max=700)
@example(L=3 * 4096 + 1, n_max=0)
@example(L=5 * 4096, n_max=333)
def test_rudin_shapiro_lag_sums_doubling_identity(L, n_max):
    short = systems.rudin_shapiro_lag_sums(L, n_max)
    long = systems.rudin_shapiro_lag_sums(2 * L, 2 * n_max)
    assert np.array_equal(long[::2], np.where(np.arange(n_max + 1) % 2, 0, 2 * short))


def test_rudin_shapiro_golay_identity():
    # P_m = r[:2^m] and Q_m = r[2^m:2^(m+1)] are a Golay complementary pair: their
    # lag sums add up to 0 at every n >= 1
    n_max = 64
    for m in range(7, 18):
        q = systems.rudin_shapiro_names(2 ** (m + 1))[2**m:]
        total = systems.rudin_shapiro_lag_sums(2**m, n_max) + lag_sums_loop(q, n_max)
        assert total[0] == 2 ** (m + 1) and not np.any(total[1:]), m
    # so r[:2^(m+1)] = P_m Q_m has only the cross term at n >= 1, which settles up
    # to the sign (-1)^m once 2^m passes n_max: at L = 2^m the lag sums do not
    # depend on m but through that sign, up to L = 2^62
    ref = systems.rudin_shapiro_lag_sums(2**8, n_max)[1:]
    assert np.any(ref)
    for m in range(8, 63):
        sums = systems.rudin_shapiro_lag_sums(2**m, n_max)
        assert sums[0] == 2**m
        assert np.array_equal((-1) ** m * sums[1:], ref), m


def test_rudin_shapiro_lag_sums_huge_prefix_is_fast():
    t0 = time.perf_counter()
    sums = systems.rudin_shapiro_lag_sums(2**62 - 1, 1024)
    assert time.perf_counter() - t0 < 1.0
    assert sums[0] == 2**62 - 1
    assert np.max(np.abs(sums[1:])) < 1000


def test_rudin_shapiro_lag_sums_builds_two_base_blocks_only(monkeypatch):
    # the only signs built are P and Q at the base level, 2B of them whatever L is:
    # at most 2^24 at the largest nmax, 2^22
    built = []

    class Built(Exception):
        pass

    def names(L):
        built.append(L)
        raise Built

    monkeypatch.setattr(systems, "rudin_shapiro_names", names)
    for L, n_max in [(5, 1), (2**22, 1024), (2**27, 2**22), (2**62, 2**22)]:
        with pytest.raises(Built):
            systems.rudin_shapiro_lag_sums(L, n_max)
    assert built == [8192, 8192, 2**24, 2**24]


def test_rudin_shapiro_lag_sums_memory_does_not_grow_with_length():
    def peak(L):
        tracemalloc.start()
        try:
            systems.rudin_shapiro_lag_sums(L, 1024)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)
    assert peak(2**62 - 1) <= 1.25 * peak(2**13)


@pytest.mark.parametrize("L, n_max", [(0, 1), (5, -1), (2**62 + 1, 1), (2**30, 2**22 + 1),
                                      (2**30, 2**24 + 1)])
def test_rudin_shapiro_lag_sums_rejects_bad_sizes(L, n_max):
    with pytest.raises(ValueError):
        systems.rudin_shapiro_lag_sums(L, n_max)


def test_two_point_phi_zero():
    assert systems.two_point_extension_correlations([0, 0], 5).tolist() == [1.0] * 6


def test_two_point_phi_one():
    for n, v in enumerate(systems.two_point_extension_correlations([1, 1], 7)):
        assert v == (1.0 if n % 2 == 0 else -1.0)


def test_two_point_morse_cocycle():
    # phi(x) = first dyadic digit: at n=1 the two depth-1 cylinders give
    # opposite signs, so the correlation vanishes
    assert systems.two_point_extension_correlations([0, 1], 1)[1] == pytest.approx(
        0.0, abs=1e-15)


def test_two_point_brute_force_oracle():
    # average (-1)^{phi^{(n)}} over all residues, directly
    phi = [1, 0, 1, 1]
    table = systems.two_point_extension_correlations(phi, 9)
    for n in range(1, 10):
        acc = 0.0
        for v in range(4):
            s = sum(phi[(v + j) % 4] for j in range(n))
            acc += (-1.0) ** (s % 2)
        assert table[n] == pytest.approx(acc / 4.0, abs=1e-15)


def test_two_point_rejects_bad_length():
    with pytest.raises(ValueError):
        systems.two_point_extension_correlations([0, 1, 0], 1)


def two_point_reference(phi_table, n):
    """The per-lag computation the parity prefix replaced: a doubled cumulative
    sum of phi, rebuilt on every call."""
    phi = np.asarray(phi_table, dtype=np.int64)
    m = phi.size
    if n == 0:
        return 1.0
    total = int(phi.sum())
    cs = np.concatenate([[0], np.cumsum(np.concatenate([phi, phi]))])
    v = np.arange(m)
    full, rem = divmod(n, m)
    S = full * total + (cs[v + rem] - cs[v])
    return float(np.mean(np.where(S % 2 == 0, 1.0, -1.0)))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(phi=st.integers(0, 7).flatmap(
           lambda d: st.lists(st.integers(-5, 5), min_size=2**d, max_size=2**d)),
       lags=st.lists(st.integers(0, 600), min_size=1, max_size=30))
@example(phi=[1, 0, 0, 0], lags=[0, 1, 3, 4, 5, 8, 9, 13])  # odd total, n >= m
@example(phi=[3], lags=[0, 1, 2, 7])  # m = 1: every lag is a whole number of periods
@example(phi=[-1, 2, 0, 5, 1, 1, 0, -4], lags=[8, 16, 17, 23, 600])
def test_two_point_correlations_match_per_lag_reference(phi, lags):
    # the kernel returns the whole table c(0..nmax); every looked-up lag matches
    table = systems.two_point_extension_correlations(phi, max(lags))
    assert table.shape == (max(lags) + 1,)
    assert table[lags].tolist() == [two_point_reference(phi, n) for n in lags]


def test_two_point_correlations_reject_negative_lag():
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        systems.two_point_extension_correlations([0, 1], -1)


def square_wave_coeff(m):
    """f-hat(m) of the square wave f = 2 chi_[0,1/2) - 1."""
    if m == 0 or m % 2 == 0:
        return 0.0 + 0.0j
    return 2.0 / (math.pi * 1j * m)


def l2_mass(sw):
    """The l2 mass sum |f-hat(m)|^2 over the odd |m| <= M of ``sw``."""
    return float(np.sum(sw.weights))


def names_to_signs(bits):
    """Map bits to +-1 with bit 0 (the P0 side) |-> +1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def unpack(steps, count):
    """The (count, length) 0/1 names of packed step rows."""
    return np.unpackbits(steps, axis=1, count=count).T


def sample(src, count, length, seed):
    """The (count, length) 0/1 names of ``src``, unpacked from its step rows."""
    return unpack(src.sample_names(count, length, seed), count)


def packbits_batch(bits):
    """The name-batch bytes of a (count, length) 0/1 array, packed by np.packbits:
    the layout that write_names must produce."""
    count, length = bits.shape
    return (b"ATNB" + count.to_bytes(8, "little") + length.to_bytes(8, "little")
            + np.packbits(np.asarray(bits, dtype=np.uint8), axis=1).tobytes())


def test_square_wave_coeffs():
    sw = systems.square_wave_coeffs(11)
    assert square_wave_coeff(2) == 0.0
    assert square_wave_coeff(1) == pytest.approx(2.0 / (math.pi * 1j), abs=1e-15)
    assert abs(square_wave_coeff(1)) ** 2 == pytest.approx(4.0 / math.pi**2, abs=1e-15)
    ref = [abs(square_wave_coeff(int(m))) ** 2 for m in sw.odd_ms]
    assert np.allclose(sw.weights, ref, rtol=1e-15, atol=0.0)
    assert l2_mass(sw) < 1.0
    big = systems.square_wave_coeffs(10**4)
    assert l2_mass(big) == pytest.approx(1.0, abs=1e-3)
    assert l2_mass(big) > 0.9998


def test_square_wave_truncation_bound():
    # 8/(pi^2 M) dominates the dropped l2 mass
    sw = systems.square_wave_coeffs(21)
    dropped = l2_mass(systems.square_wave_coeffs(10**5)) - l2_mass(sw)
    assert 0.0 < dropped < sw.truncation_error


def test_rotation_cocycle_delta_zero():
    vs = systems.rotation_ac_cocycle_correlations(systems.SQRT2_M1, 0.0, 0.5, 7)
    for n in (1, 2, 7):
        assert abs(vs[n]) < 1e-12


def test_rotation_cocycle_parameter_checks():
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlations(systems.SQRT2_M1, 0.6, 0.5, 1)
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlations(systems.SQRT2_M1, 0.1, 1.5, 1)
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlations(math.nan, 0.1, 0.5, 1)


def rotation_per_lag_reference(alpha, delta, n, M):
    """The per-lag sum that ``rotation_ac_cocycle_correlations`` replaced:
    S = sum_{j<n} e^{2 pi i j alpha} by ``np.sum`` at each lag."""
    if n == 0:
        return 1.0 + 0.0j
    sw = systems.square_wave_coeffs(M)
    ms = sw.odd_ms
    S = np.sum(np.exp(2j * np.pi * alpha * np.arange(n)))
    const = n * (n - 1) * alpha / 2.0
    integrals = (np.exp(2j * np.pi * ms * const) * bessel_jv(-ms * n, ms * delta * abs(S))
                 * np.exp(-1j * ms * n * np.angle(S)))
    return complex(np.sum(sw.weights * integrals))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(alpha=st.floats(1e-4, 1.0 - 1e-4), delta=st.floats(0.0, 0.49),
       M=st.integers(1, 401), nmax=st.integers(0, 64))
@example(alpha=systems.SQRT2_M1, delta=0.1, M=201, nmax=12)
@example(alpha=systems.GOLDEN_M1, delta=0.3, M=401, nmax=8)
def test_rotation_table_matches_per_lag_sum(alpha, delta, M, nmax):
    # the carried S differs from np.sum's pairwise S only in rounding
    vs = systems.rotation_ac_cocycle_correlations(alpha, delta, 0.5, nmax, M)
    assert vs.shape == (nmax + 1,)
    for n in range(nmax + 1):
        assert abs(vs[n] - rotation_per_lag_reference(alpha, delta, n, M)) <= 1e-15, n


def _midpoint_rotation_correlation(alpha, delta, n, M, P=4096):
    """Reference: each m-integral of the cocycle phase by the P-node midpoint
    rule, with g^(n)(x) summed term by term as sum_{j<n} g(x + j alpha)."""
    sw = systems.square_wave_coeffs(M)
    x = (np.arange(P) + 0.5) / P
    g_n = sum(delta / (2.0 * np.pi) * np.sin(2.0 * np.pi * (x + j * alpha))
              for j in range(n))
    phase = n * x + n * (n - 1) * alpha / 2.0 + g_n
    integrals = np.exp(2j * np.pi * np.outer(sw.odd_ms, phase)).mean(axis=1)
    return complex(np.sum(sw.weights * integrals))


def test_rotation_cocycle_midpoint_reference():
    # the Jacobi-Anger sum against a fixed-resolution quadrature for n > 1 too
    for alpha in (systems.SQRT2_M1, systems.GOLDEN_M1):
        for delta in (0.1, 0.3):
            got = systems.rotation_ac_cocycle_correlations(alpha, delta, 0.5, 12, 21)
            for n in range(1, 13):
                ref = _midpoint_rotation_correlation(alpha, delta, n, 21)
                assert abs(got[n] - ref) < 1e-7, (alpha, delta, n)


def test_rotation_cocycle_bessel_oracle():
    # at n=1 the phase is m(x + (delta/2pi) sin(2 pi x)), so each integral is
    # a Bessel coefficient by Jacobi-Anger:
    # integral_0^1 e^{2 pi i m x + i m delta sin(2 pi x)} dx = J_{-m}(m delta)
    from scipy.special import jv
    alpha, delta = systems.SQRT2_M1, 0.1
    M = 21
    sw = systems.square_wave_coeffs(M)
    total = 0.0 + 0.0j
    for m in sw.odd_ms:
        w = abs(square_wave_coeff(int(m))) ** 2
        total += w * jv(-int(m), m * delta)
    got = systems.rotation_ac_cocycle_correlations(alpha, delta, 0.5, 1, M)[1]
    assert abs(got - complex(total)) < 1e-7


def test_ac_cocycle_analytic_constant_positive():
    C = systems.ac_cocycle_analytic_constant(0.1, 0.5)
    assert 0.0 < C < 1.0


@pytest.mark.parametrize("delta, delta0", [(0.1, 0.5), (0.3, 0.2), (0.45, 0.5), (0.0, 0.5)])
def test_ac_cocycle_analytic_constant_closed_form(delta, delta0):
    # 14 zeta(3) delta / (pi^3 (1 - delta0)^2) rounded up, so at least the
    # 10^4-term sum it replaced, which stops short of the series
    import mpmath
    C = systems.ac_cocycle_analytic_constant(delta, delta0)
    with mpmath.workdps(40):
        exact = (14 * mpmath.zeta(3) * delta
                 / (mpmath.pi**3 * (1 - mpmath.mpf(delta0)) ** 2))
    assert exact <= C <= exact * (1 + 1e-14)
    sw = systems.square_wave_coeffs(10**4)
    truncated = np.sum(sw.weights / (2.0 * math.pi * np.abs(sw.odd_ms))) * 4.0 * delta
    assert truncated / (1.0 - delta0) ** 2 <= C


def test_ac_cocycle_table_certifies():
    t = systems.ac_cocycle_table(systems.SQRT2_M1, 0.1, 0.5, 8, M=21)
    assert t.half_width == 8
    assert t.tail_bound < 1e-10  # superexponential Bessel-coefficient decay
    from atlab import sbh
    rep = sbh.certify(t)
    assert rep.verdict == "CERTIFIED_SBH"
    assert rep.density_certificate < 1.0 + sbh.epsilon0()


def _mpmath_rotation_correlation(alpha, delta, n):
    """c(n) by 30-digit mpmath: S_n, psi and c = n (n - 1) alpha / 2 from the
    double alpha, and the odd m, both signs, until J falls below 1e-30."""
    import mpmath
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        S = mpmath.fsum(mpmath.expjpi(2 * a * j) for j in range(n))
        c = n * (n - 1) * a / 2
        total, m = mpmath.mpc(0), 1
        while True:
            # J_{-mn}(+-m delta |S|) = (-1)^(mn) J_{mn}(m delta |S|) for either sign of m
            J = (-1) ** (m * n) * mpmath.besselj(m * n, m * delta * abs(S))
            for sm in (m, -m):
                total += (4 / (mpmath.pi * m) ** 2 * mpmath.expjpi(2 * sm * c) * J
                          * mpmath.expj(-sm * n * mpmath.arg(S)))
            if m > 3 and abs(J) < mpmath.mpf(10) ** -30:
                return complex(total)
            m += 2


@pytest.mark.parametrize("delta", [0.1, 0.3])
@pytest.mark.parametrize("alpha", [systems.SQRT2_M1, systems.GOLDEN_M1, 1e-3],
                         ids=["sqrt2-1", "golden", "1e-3"])
def test_ac_cocycle_tail_covers_mpmath_reference(alpha, delta):
    # the stored lags' error (the |m| > M cut and the rounding) plus the lags
    # N + 1..2N, both signs of n, are within the tail
    N = 8
    t = systems.ac_cocycle_table(alpha, delta, 0.5, N, M=21)
    ref = [_mpmath_rotation_correlation(alpha, delta, n) for n in range(1, 2 * N + 1)]
    stored = sum(2.0 * abs(t.coeffs[n] - ref[n - 1]) for n in range(1, N + 1))
    beyond = sum(2.0 * abs(ref[n - 1]) for n in range(N + 1, 2 * N + 1))
    assert 0.0 < stored + beyond <= t.tail_bound


def test_ac_cocycle_tail_at_small_and_integer_alpha():
    # s_n = |S_n| <= min(n, 1 / |sin pi alpha|), which stays finite at integer alpha
    assert systems.ac_cocycle_table(1e-3, 0.1, 0.5, 8, M=21).tail_bound <= 1e-8
    for alpha in (0.0, 1.0, -2.0, 0.5):
        tail = systems.ac_cocycle_table(alpha, 0.1, 0.5, 8, M=21).tail_bound
        assert 0.0 < tail <= 1e-8, alpha
    # delta = 0: every lag n >= 1 is exactly 0, and so is the tail, with no warning
    assert systems.ac_cocycle_table(systems.SQRT2_M1, 0.0, 0.5, 8, M=21).tail_bound == 0.0


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 40), ratio=st.floats(0.0, 0.95), m0=st.sampled_from([1, 3, 23, 203]))
@example(n=9, ratio=0.1, m0=1)
@example(n=1, ratio=0.3, m0=23)
def test_odd_multiples_bound_covers_the_sum(n, ratio, m0):
    # m0^-2 G bounds sum_{odd m >= m0} |J_{mn}(mz)| / m^2, and G alone the sum
    # without the weights; scipy's partial sums over 500 odd m are lower bounds
    from scipy.special import jv
    z = n * ratio
    m = np.arange(m0, m0 + 1000, 2)
    terms = np.abs(jv(m * n, m * z))
    bound = float(_rotation_tail._odd_multiples_bound(n, z, m0))
    assert np.sum(terms / m**2) <= bound
    assert np.sum(terms) <= bound * m0**2


def test_odd_multiples_bound_is_tight_where_robbins_applies():
    # (x/2)^k / k! with Robbins' factorial bound is within a few per cent of
    # J_k(x) for x^2 << k: here the first lags past N = 8 of the ac-cocycle
    # table at alpha = 1e-3, delta = 0.1, where s_n is about n
    from scipy.special import jv
    for n in (9, 12):
        assert float(_rotation_tail._odd_multiples_bound(n, 0.1 * n)) <= 1.05 * jv(n, 0.1 * n)


@pytest.mark.parametrize("delta, smax", [(0.1, 318.3), (0.3, 1.035), (0.9, 1.2), (0.6, np.inf),
                                         (0.0, 2.0)])
def test_odd_multiples_tail_covers_the_lags(delta, smax):
    # the 64 summed lags, then the closed form (Q^n at r = delta, or the concave
    # Kapteyn sum at z = delta smax); the worst s_n is min(n, smax)
    from scipy.special import jv
    n0 = 9
    n = np.arange(n0, n0 + 400)[:, None]
    m = np.arange(1, 400, 2)[None, :]
    terms = np.abs(jv(m * n, m * delta * np.minimum(n, smax))) / m**2
    assert np.sum(terms) <= _rotation_tail._odd_multiples_tail(n0, delta, smax)



@pytest.mark.parametrize("n, z", [(1, 0.3), (2, 1.5), (9, 0.9), (30, 1.0), (12, 0.0)])
def test_jv_error_follows_what_bessel_jv_keeps(n, z):
    # where bessel_jv keeps m = 1 each value is within 2^-59 plus its rounding;
    # elsewhere it returns 0 for every m, each within Kapteyn's bound at m = 1
    from scipy.special import jv
    m = np.arange(1, 60)
    got, ref = bessel_jv(m * n, m * z), jv(m * n, m * z)
    err = float(_rotation_tail._jv_error(n, z))
    if got[0] != 0.0:
        assert err == 2.0**-59 + 2.0**-48
    else:
        assert not np.any(got) and err < 2.0**-60
    assert np.all(np.abs(got - ref) <= err)

def test_ac_cocycle_tail_costs_little_beyond_the_values(monkeypatch):
    # the tail is numpy over all lags at once: about 2 ms at N = 4096
    values = systems.rotation_ac_cocycle_correlations(systems.SQRT2_M1, 0.3, 0.5, 4096, 21)
    monkeypatch.setattr(systems, "rotation_ac_cocycle_correlations", lambda *args: values)
    t0 = time.perf_counter()
    t = systems.ac_cocycle_table(systems.SQRT2_M1, 0.3, 0.5, 4096, M=21)
    assert time.perf_counter() - t0 < 0.05
    assert 0.0 < t.tail_bound < 1e-12


def test_nil_rejects_rational_beta():
    with pytest.raises(ValueError):
        systems.nil_rotation_correlations(systems.SQRT2_M1, 0.5, 0.0, 1)


def test_nil_vanishing_beta_07():
    # 2 beta > 1 kills every n >= 2
    vs = systems.nil_rotation_correlations(systems.SQRT2_M1, 0.7, 0.0, 11)
    for n in range(2, 12):
        assert vs[n] == 0.0


def test_nil_n1_series_matches_piecewise():
    for beta, gamma in [(0.8, 0.0), (0.7, 0.3), (0.6, 0.1)]:
        exact = systems.nil_rotation_correlations(systems.SQRT2_M1, beta, gamma, 1)[1]
        series = systems.nil_rotation_n1_series(systems.SQRT2_M1, beta, gamma)
        assert abs(exact - series) < 1e-12


def nil_breakpoint_reference(alpha, beta, gamma, n, M=201):
    """The breakpoint loop that ``nil_rotation_correlations`` replaced: every
    breakpoint of y -> ({y + j beta})_j in float, a float membership test at
    each piece's midpoint, and C summed from the fractional parts there."""
    n = abs(n)
    if n == 0:
        return 1.0 + 0.0j
    js = np.arange(n)
    brk = np.concatenate([np.mod(-js * beta, 1.0),
                          np.mod(1.0 - beta - js * beta, 1.0), [0.0, 1.0]])
    brk = np.unique(np.clip(brk, 0.0, 1.0))
    sw = systems.square_wave_coeffs(M)
    ms = sw.odd_ms
    total = np.zeros(ms.size, dtype=complex)
    found = False
    for a, b in zip(brk[:-1], brk[1:]):
        ymid = 0.5 * (a + b)
        fr = np.mod(ymid + js * beta, 1.0)
        if np.any(fr >= 1.0 - beta):
            continue
        found = True
        C = float(np.sum(fr - ymid))
        rate = 2j * np.pi * ms * alpha * n
        total += np.exp(2j * np.pi * ms * (alpha * C + n * gamma)) * (
            np.exp(rate * b) - np.exp(rate * a)) / rate
    if not found:
        return 0.0 + 0.0j
    return complex(np.sum(sw.weights * total))


def nil_lag_survives_exactly(beta, n):
    """Whether some y has {y + j beta} < 1 - beta for every j < n, decided by
    the breakpoint loop in exact integers (beta = P / D, positions in units of
    1/(2D), so every midpoint is an integer)."""
    P, D = beta.as_integer_ratio()
    brk = sorted({2 * ((-j * P) % D) for j in range(n)}
                 | {2 * ((D - P - j * P) % D) for j in range(n)} | {0, 2 * D})
    return any(all((mid + 2 * j * P) % (2 * D) < 2 * (D - P) for j in range(n))
               for mid in ((a + b) // 2 for a, b in zip(brk[:-1], brk[1:])))


def nil_mpmath_value(alpha, beta, gamma, n, M=201):
    """Lag n at 40 digits: the surviving intervals from the exact breakpoints,
    C = #{j : q_j > q_(i)} - sum_j q_j from exact integers, each m-term in mpmath."""
    import mpmath
    P, D = beta.as_integer_ratio()
    q = [(-j * P) % D for j in range(n)]
    ends = sorted(q) + [D]
    with mpmath.workdps(40):
        a, g = mpmath.mpf(alpha), mpmath.mpf(gamma)
        total = mpmath.mpc(0)
        for lo, hi in zip(ends[:-1], ends[1:]):
            if hi - lo <= P:
                continue
            C = mpmath.mpf(sum(x > lo for x in q) * D - sum(q)) / D
            y0, y1 = mpmath.mpf(lo) / D, mpmath.mpf(hi - P) / D
            for m in range(-M, M + 1, 2):
                rate = 2j * mpmath.pi * m * a * n
                total += (4 / (mpmath.pi * m) ** 2 * mpmath.exp(2j * mpmath.pi * m * (a * C + n * g))
                          * (mpmath.exp(rate * y1) - mpmath.exp(rate * y0)) / rate)
        return complex(total)


_NIL_BETAS = st.one_of(st.floats(0.3, 0.99), st.floats(0.02, 0.3), st.floats(0.008, 0.02))


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(beta=_NIL_BETAS, alpha=st.sampled_from([systems.SQRT2_M1, systems.GOLDEN_M1, 0.123457]),
       gamma=st.floats(-1.0, 1.0))
@example(beta=0.7, alpha=systems.SQRT2_M1, gamma=0.0)
@example(beta=0.3, alpha=systems.GOLDEN_M1, gamma=0.25)
@example(beta=0.0618034, alpha=systems.SQRT2_M1, gamma=0.0)  # support 16; the loop's 31
@example(beta=0.0173, alpha=systems.SQRT2_M1, gamma=0.1)  # support 57; the loop's 112
@example(beta=0.0095, alpha=systems.GOLDEN_M1, gamma=0.0)  # support of over 100 lags
@example(beta=0.01459, alpha=0.123457, gamma=-1.0)  # integer n gamma: 2.2e-15 off unreduced
def test_nil_rotation_table_matches_breakpoint_loop(beta, alpha, gamma):
    assume(not any(abs(beta - p / q) < 1e-12 for q in range(1, 5) for p in range(1, q)))
    vs = systems.nil_rotation_correlations(alpha, beta, gamma, 400)
    support = np.flatnonzero(vs)[-1]
    # the lags that survive are 1..support, and exact integers agree on where that ends
    assert np.all(vs[:support + 1] != 0) and not np.any(vs[support + 1:])
    assert nil_lag_survives_exactly(beta, support)
    assert not nil_lag_survives_exactly(beta, support + 1)
    for n in range(support + 1):
        if abs(vs[n] - nil_breakpoint_reference(alpha, beta, gamma, n)) > 1e-15:
            # the loop's C sums n rounded fractional parts: over long supports it
            # drifts past 1e-15, and 40 digits decide
            assert abs(vs[n] - nil_mpmath_value(alpha, beta, gamma, n)) <= 1e-15, n
    for n in range(support + 1, support + 4):
        # past the support the float loop can keep a sliver a few ulp wide, whose
        # value (up to 1.4e-15 seen) is a rounding artifact: in exact integers
        # no piece survives
        assert not nil_lag_survives_exactly(beta, n)
        assert abs(nil_breakpoint_reference(alpha, beta, gamma, n)) <= 1e-14, n
    for n in (1, support, support + 1):  # a shorter table is a prefix of the longer one
        assert systems.nil_rotation_correlations(alpha, beta, gamma, n)[n] == vs[n]


def test_nil_rows_end_in_exact_zeros_quickly():
    t0 = time.perf_counter()
    values, methods, _ = systems.NilRotationSource(beta=0.0618034).table(4096)
    assert time.perf_counter() - t0 < 1.0
    assert [n for n, v in enumerate(values) if v != 0] == list(range(17))
    assert all(method == "exact" for method in methods[17:])


@pytest.mark.parametrize("alpha", [systems.SQRT2_M1, systems.GOLDEN_M1],
                         ids=["sqrt2-1", "golden"])
def test_rotation_cocycle_hermitian_in_n(alpha):
    # the source's table and the FourierTable hold the same values, and the
    # FourierTable extends them to negative lags by c(-n) = conj(c(n))
    values = systems.RotationCocycleSource(alpha=alpha, delta=0.3, delta0=0.5, M=21).table(8)[0]
    table = systems.ac_cocycle_table(alpha, 0.3, 0.5, 8, M=21)
    for n in range(1, 9):
        assert table.at(n) == values[n]
        assert table.at(-n) == values[n].conjugate()


@pytest.mark.parametrize("nmax", [0, 1, 37])
def test_source_table_values_are_the_kernel_arrays(nmax):
    """Each source's table(nmax)[0] is its kernel's array, bit for bit."""
    phi = [1, 0, 1, 1, 0, 0, 1, 0]
    L = 4096
    cases = [
        (systems.RotationCocycleSource(alpha=0.3, delta=0.2, M=41),
         systems.rotation_ac_cocycle_correlations(0.3, 0.2, 0.5, nmax, 41)),
        (systems.NilRotationSource(beta=0.0618034),
         systems.nil_rotation_correlations(systems.SQRT2_M1, 0.0618034, 0.0, nmax, 201)),
        (systems.DistalSource(), np.zeros(nmax + 1)),
        (systems.OdometerExtensionSource(phi),
         systems.two_point_extension_correlations(phi, nmax)),
        (systems.RudinShapiroSource(L=L),
         systems.rudin_shapiro_lag_sums(L, nmax) / (L - np.arange(nmax + 1))),
    ]
    for src, ref in cases:
        values = src.table(nmax)[0]
        assert values.dtype == ref.dtype and values.shape == (nmax + 1,)
        assert values.tobytes() == ref.tobytes(), type(src).__name__


def test_nil_beta_near_one_small():
    small = abs(systems.nil_rotation_correlations(systems.SQRT2_M1, 0.99, 0.0, 1)[1])
    large = abs(systems.nil_rotation_correlations(systems.SQRT2_M1, 0.6, 0.0, 1)[1])
    assert large >= 5.0 * small


def test_distal_integral_zero():
    # against the alternating pieces of length 1/(2K), K = m n, summed as the rows
    # once did at each scale m
    values, method, err = systems.DistalSource().table(100)
    assert len(values) == 101
    for n in range(0, 101):
        for m_scale in (1, 2, 3):
            K = abs(m_scale * n)
            pieces = np.where(np.arange(2 * K) % 2 == 0, -1.0, 1.0) / (2.0 * max(K, 1))
            assert (values[n], method, err) == (complex(np.sum(pieces)), "exact", 0.0)
            assert values[n] == 0.0


def test_name_sources_shapes_and_determinism():
    sources = [
        systems.RotationCocycleSource(delta=0.0),
        systems.RotationCocycleSource(delta=0.1),
        systems.NilRotationSource(),
        systems.DistalSource(),
        systems.OdometerExtensionSource([0, 1, 1, 0]),
        systems.RudinShapiroSource(log2_length=14),
        systems.CoinSource(),
        systems.ConstantSource(),
    ]
    for src in sources:
        assert_packed_layout(src.sample_names(8, 32, seed=5), 8, 32)
        a = sample(src, 8, 32, seed=5)
        b = sample(src, 8, 32, seed=5)
        assert np.array_equal(a, b)
        assert set(np.unique(a)).issubset({0, 1})
        c = sample(src, 8, 32, seed=6)
        if not isinstance(src, systems.ConstantSource):
            assert not np.array_equal(a, c)


def test_sign_symmetry_bit_balance():
    # mu(P0) = 1/2 for every sign-symmetric system here
    for src in [systems.RotationCocycleSource(delta=0.1),
                systems.NilRotationSource(),
                systems.DistalSource(),
                systems.OdometerExtensionSource([0, 1])]:
        bits = sample(src, 400, 64, seed=9)
        mean = np.mean(names_to_signs(bits))
        assert abs(mean) <= 5.0 / math.sqrt(bits.size)


def test_delta_zero_rotation_pairwise_independent():
    src = systems.RotationCocycleSource(delta=0.0)
    bits = sample(src, 20000, 9, seed=17)
    for n in range(1, 9):
        for i in (0, 1):
            for j in (0, 1):
                freq = np.mean((bits[:, 0] == i) & (bits[:, n] == j))
                assert abs(freq - 0.25) <= 5.0 / math.sqrt(bits.shape[0])


@pytest.mark.parametrize("alpha", [0.0, systems.SQRT2_M1], ids=["zero", "sqrt2-1"])
def test_rotation_names_match_direct_iteration(alpha):
    """The closed-form drift equals iterating x <- x + alpha, y <- y + x + g(x),
    also at alpha = 0, where the geometric-series form of g^(j) is 0/0."""
    delta, count, length, seed = 0.3, 200, 32, 4
    src = systems.RotationCocycleSource(alpha=alpha, delta=delta)
    bits = sample(src, count, length, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, y = rng.random(count), rng.random(count)
    ref = np.empty((count, length), dtype=np.uint8)
    for j in range(length):
        ref[:, j] = np.mod(y, 1.0) >= 0.5
        y = y + x + delta / (2.0 * math.pi) * np.sin(2.0 * math.pi * x)
        x = x + alpha
    assert np.array_equal(bits, ref)


@pytest.mark.parametrize("src", [
    systems.RotationCocycleSource(delta=0.0, M=201),
    systems.RotationCocycleSource(delta=0.3, M=201),
    systems.NilRotationSource(beta=0.8),
    systems.DistalSource(),
    systems.OdometerExtensionSource([1, 0, 1, 1]),
    systems.RudinShapiroSource(log2_length=16, L=2**16),
], ids=["rotation-0", "rotation-0.3", "nil", "distal", "odometer", "rudin-shapiro"])
def test_sampled_names_estimate_the_source_rows(src):
    """The names a source samples and the table it prints describe one system:
    each lag's sign correlation is within 5 sigma plus the lag's error bar."""
    count, nmax = 40000, 7
    signs = names_to_signs(sample(src, count, nmax + 1, seed=23))
    values, _method, errs = src.table(nmax)
    for n, value, err in zip(range(1, nmax + 1), values[1:],
                             np.broadcast_to(errs, values.shape)[1:]):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        assert abs(emp - value) <= 5.0 / math.sqrt(count) + err, n


def test_rotation_source_delta_zero_correlations_vanish():
    src = systems.RotationCocycleSource(delta=0.0)
    bits = sample(src, 20000, 10, seed=41)
    signs = names_to_signs(bits)
    for n in range(1, 9):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        assert abs(emp) <= 5.0 / math.sqrt(signs.shape[0])


def test_names_round_trip(tmp_path):
    # counts and lengths off multiples of 8; write_names takes 8 * (2^17 // length)
    # names at a time, so 150 names of 2^14 + 5 steps are blocks of 56, 56 and 38,
    # and 21 names of 2^17 + 3 steps blocks of 8, 8 and 5
    path = tmp_path / "names.bin"
    for count, length in [(13, 37), (1, 1), (8, 16), (150, 2**14 + 5), (21, 2**17 + 3),
                          (0, 5), (3, 0)]:
        steps = systems.CoinSource().sample_names(count, length, seed=2)
        systems.write_names(steps, count, path)
        bits = unpack(steps, count)
        assert path.read_bytes() == packbits_batch(bits)
        assert np.array_equal(systems.read_names(path), bits)


def test_names_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        systems.read_names(path)


# ---------------------------------------------------------------------------
# The per-step samplers that the step-row and row-block samplers replaced, kept
# as references: the rewritten samplers must give the same bits for every input.


def _bit_from_frac(z):
    return (np.mod(z, 1.0) >= 0.5).astype(np.uint8)


def _nil_phi(x, y, alpha, beta, gamma):
    fx = np.mod(x, 1.0)
    fy = np.mod(y, 1.0)
    return alpha * fy - (fx + alpha) * np.floor(fy + beta) + gamma


def nil_names_reference(src, count, length, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.random(count)
    y = rng.random(count)
    z = rng.random(count)
    bits = np.empty((count, length), dtype=np.uint8)
    for j in range(length):
        bits[:, j] = _bit_from_frac(z)
        z = np.mod(z + _nil_phi(x, y, src.alpha, src.beta, src.gamma), 1.0)
        x = np.mod(x + src.alpha, 1.0)
        y = np.mod(y + src.beta, 1.0)
    return bits


def distal_names_reference(src, count, length, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.random(count)
    y = rng.random(count)
    z = rng.random(count)
    bits = np.empty((count, length), dtype=np.uint8)
    for j in range(length):
        bits[:, j] = _bit_from_frac(z)
        z = np.mod(z + y, 1.0)
        y = np.mod(y + x, 1.0)
        x = np.mod(x + src.alpha, 1.0)
    return bits


def rotation_names_reference(src, count, length, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.random(count)[:, None]
    y = rng.random(count)[:, None]
    j = np.arange(length)[None, :]
    drift = j * x + j * (j - 1) / 2.0 * src.alpha
    if src.delta != 0.0:
        S = np.zeros(j.shape, dtype=complex)
        S[:, 1:] = np.cumsum(np.exp(2j * np.pi * src.alpha * j[:, :-1]), axis=1)
        drift = drift + (src.delta / (2.0 * math.pi)) * np.imag(
            np.exp(2j * np.pi * x) * S)
    return _bit_from_frac(y + drift)


def coin_names_reference(src, count, length, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return (rng.random((count, length)) >= src.p0).astype(np.uint8)


def odometer_names_reference(src, count, length, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = src.phi.size
    v0 = rng.integers(0, m, size=count)
    g0 = rng.integers(0, 2, size=count).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(np.concatenate([src.phi, src.phi]))])
    total = int(src.phi.sum())
    full, rem = np.divmod(np.arange(length), m)
    S = full[None, :] * total + (cs[v0[:, None] + rem[None, :]] - cs[v0][:, None])
    return ((g0[:, None] + S) % 2).astype(np.uint8)


def rudin_shapiro_names_reference(src, count, length, seed):
    signs = systems.rudin_shapiro_names(2 ** src.log2_length)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    starts = rng.integers(0, signs.size - length, size=count)
    return (signs[starts[:, None] + np.arange(length)[None, :]] < 0).astype(np.uint8)


_BLOCK = systems._ROW_BLOCK
# count 1, small counts, and counts around one and two row blocks
_COUNTS = st.one_of(st.integers(1, 40), st.integers(_BLOCK - 2, 2 * _BLOCK + 3))
_LENGTHS = st.integers(1, 40)
_ALPHAS = st.one_of(st.floats(-3.0, 3.0),
                    st.sampled_from([0.0, systems.SQRT2_M1, -systems.GOLDEN_M1, 1.25]))
_SEEDS = st.integers(0, 2**32 - 1)
_SAMPLER_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def assert_packed_layout(packed, count, length):
    """Packed step rows: C-contiguous (length, ceil(count / 8)) uint8 with the
    pad bits of the last byte 0."""
    assert packed.shape == (length, -(-count // 8))
    assert packed.dtype == np.uint8
    assert packed.flags.c_contiguous
    if count % 8:
        assert not np.any(packed[:, -1] & (0xFF >> (count % 8)))


def assert_same_names(got, ref):
    assert got.shape == ref.shape and got.dtype == np.uint8
    assert np.array_equal(got, ref)


@_SAMPLER_SETTINGS
@given(alpha=_ALPHAS, delta=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
       count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(alpha=0.0, delta=0.3, count=1, length=1, seed=0)
@example(alpha=-0.4, delta=0.3, count=_BLOCK + 1, length=17, seed=1)
@example(alpha=2.7, delta=-0.6, count=2 * _BLOCK + 3, length=3, seed=2)
@example(alpha=systems.SQRT2_M1, delta=0.0, count=_BLOCK, length=40, seed=3)
def test_rotation_names_match_reference(alpha, delta, count, length, seed):
    src = systems.RotationCocycleSource(alpha=alpha, delta=delta)
    assert_same_names(sample(src, count, length, seed),
                      rotation_names_reference(src, count, length, seed))


@_SAMPLER_SETTINGS
@given(alpha=_ALPHAS, beta=st.floats(-2.5, 2.5), gamma=st.floats(-2.0, 2.0),
       count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(alpha=systems.SQRT2_M1, beta=0.7, gamma=0.0, count=1, length=1, seed=0)
@example(alpha=-1.3, beta=0.3001, gamma=-0.25, count=_BLOCK + 3, length=29, seed=1)
def test_nil_names_match_reference(alpha, beta, gamma, count, length, seed):
    try:
        src = systems.NilRotationSource(alpha=alpha, beta=beta, gamma=gamma)
    except ValueError:  # beta too close to a small-denominator rational
        assume(False)
    assert_same_names(sample(src, count, length, seed),
                      nil_names_reference(src, count, length, seed))


@_SAMPLER_SETTINGS
@given(alpha=_ALPHAS, count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(alpha=systems.SQRT2_M1, count=1, length=1, seed=0)
@example(alpha=-2.2, count=2 * _BLOCK + 1, length=11, seed=1)
def test_distal_names_match_reference(alpha, count, length, seed):
    src = systems.DistalSource(alpha=alpha)
    assert_same_names(sample(src, count, length, seed),
                      distal_names_reference(src, count, length, seed))


@_SAMPLER_SETTINGS
@given(p0=st.floats(0.01, 0.99), count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(p0=0.5, count=1, length=1, seed=0)
@example(p0=0.3, count=_BLOCK + 1, length=7, seed=1)
@example(p0=0.7, count=2 * _BLOCK + 3, length=5, seed=2)
def test_coin_names_match_reference(p0, count, length, seed):
    src = systems.CoinSource(p0=p0)
    assert_same_names(sample(src, count, length, seed),
                      coin_names_reference(src, count, length, seed))


@_SAMPLER_SETTINGS
@given(phi=st.integers(0, 7).flatmap(
           lambda d: st.lists(st.integers(-5, 5), min_size=2**d, max_size=2**d)),
       count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(phi=[3], count=1, length=1, seed=0)  # m = 1: every step is a whole period
@example(phi=[1, 0, 0, 0], count=5, length=40, seed=1)  # odd total, steps past m
@example(phi=[2**62, 2**62, 2**62, 1], count=3, length=40, seed=2)  # sums wrap int64
def test_odometer_names_match_reference(phi, count, length, seed):
    src = systems.OdometerExtensionSource(phi)
    assert_same_names(sample(src, count, length, seed),
                      odometer_names_reference(src, count, length, seed))


@_SAMPLER_SETTINGS
@given(log2_length=st.integers(1, 12), count=_COUNTS, length=_LENGTHS, seed=_SEEDS)
@example(log2_length=1, count=1, length=1, seed=0)  # one possible start
@example(log2_length=6, count=2 * _BLOCK + 3, length=40, seed=1)
def test_rudin_shapiro_names_match_reference(log2_length, count, length, seed):
    assume(length < 2**log2_length)
    src = systems.RudinShapiroSource(log2_length=log2_length)
    assert_same_names(sample(src, count, length, seed),
                      rudin_shapiro_names_reference(src, count, length, seed))


_LAYOUT_SOURCES = {
    "rotation": systems.RotationCocycleSource(delta=0.3),
    "nil": systems.NilRotationSource(),
    "distal": systems.DistalSource(),
    "odometer": systems.OdometerExtensionSource([0, 1, 1, 0]),
    "rudin-shapiro": systems.RudinShapiroSource(log2_length=8),
    "coin": systems.CoinSource(),
    "constant": systems.ConstantSource(),
}


@_SAMPLER_SETTINGS
@given(source=st.sampled_from(sorted(_LAYOUT_SOURCES)),
       count=st.one_of(st.sampled_from([1, 7, 8, 9]), _COUNTS), length=_LENGTHS, seed=_SEEDS)
@example(source="coin", count=_BLOCK - 1, length=5, seed=0)
@example(source="rotation", count=2 * _BLOCK + 3, length=9, seed=1)
@example(source="nil", count=9, length=3, seed=2)
def test_sampled_names_are_packed_step_rows(source, count, length, seed):
    src = _LAYOUT_SOURCES[source]
    assert_packed_layout(src.sample_names(count, length, seed), count, length)


@pytest.mark.parametrize("make, reference", [
    (lambda alpha: systems.NilRotationSource(alpha=alpha), nil_names_reference),
    (lambda alpha: systems.DistalSource(alpha=alpha), distal_names_reference),
], ids=["nil", "distal"])
def test_orbit_names_keep_a_coordinate_that_wraps_to_one(make, reference):
    # x0 + alpha = -2^-54, which np.mod(., 1.0) rounds up to exactly 1.0: the next
    # x is 1.0, not 0.0, and the samplers must carry that double as the reference does
    seed = next(s for s in range(100)
                if 0.25 <= np.random.default_rng(np.random.SeedSequence(s)).random() < 0.5)
    x0 = np.random.default_rng(np.random.SeedSequence(seed)).random(1)[0]
    alpha = -(x0 + 2.0**-54)
    assert np.mod(x0 + alpha, 1.0) == 1.0
    src = make(alpha)
    assert_same_names(sample(src, 1, 64, seed), reference(src, 1, 64, seed))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([-1e-20, -2.0**-54, -2.0**-53, -5e-324, -0.0, 0.0, 3.0, -3.0, 0.5, -2.5,
          1e300, -1e300, 2.0**53 + 2.0, 0.9999999999999999])
def test_frac_is_np_mod_bit_for_bit(values):
    v = np.array(values)
    got = systems._frac(v, np.empty_like(v))
    assert np.array_equal(got.view(np.int64), np.mod(v, 1.0).view(np.int64))


@pytest.mark.parametrize("length", [1, 7, 8, 13, 64])
def test_write_names_of_step_rows_matches_packbits(tmp_path, length):
    for src in (systems.NilRotationSource(), systems.RotationCocycleSource(delta=0.3),
                systems.RudinShapiroSource(log2_length=10)):
        steps = src.sample_names(37, length, seed=3)
        path = tmp_path / "a.bin"
        systems.write_names(steps, 37, path)
        bits = unpack(steps, 37)
        assert path.read_bytes() == packbits_batch(bits)
        assert np.array_equal(systems.read_names(path), bits)


@pytest.mark.parametrize("src", [systems.CoinSource(), systems.RotationCocycleSource(delta=0.3),
                                 systems.NilRotationSource(), systems.DistalSource(),
                                 systems.OdometerExtensionSource([0, 1, 1, 0]),
                                 systems.RudinShapiroSource(), systems.ConstantSource()],
                         ids=["coin", "rotation-0.3", "nil", "distal", "odometer",
                              "rudin-shapiro", "constant"])
def test_sampler_peak_memory_below_unpacked_output(src):
    # no sampler holds a count x length uint8, float, complex or int64 array: the
    # peak stays under the unpacked names' count * length bytes (the packed rows
    # are an eighth of that; rotation's name-block temporaries and the
    # Rudin-Shapiro prefix, 2^21 bytes, built inside the traced call, are the rest)
    count, length = 20000, 1024
    tracemalloc.start()
    try:
        src.sample_names(count, length, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * length
