"""Tests for the concrete systems: substitutions, cocycles, nil-rotations."""

import math

import numpy as np
import pytest

from atlab import fourier, systems


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
    L = 2**12
    assert np.array_equal(systems.rudin_shapiro_names(L), rs_oracle(L))


def test_empirical_correlation_constant():
    c = systems.empirical_correlation(np.ones(64), 8)
    assert np.allclose(c, 1.0)


def test_empirical_correlation_alternating():
    s = np.tile([1.0, -1.0], 64)
    c = systems.empirical_correlation(s, 8)
    for n in range(9):
        assert c[n] == pytest.approx((-1.0) ** n, abs=1e-12)


def test_empirical_correlation_length_check():
    with pytest.raises(ValueError):
        systems.empirical_correlation(np.ones(16), 8)


def test_two_point_phi_zero():
    for n in range(6):
        assert systems.two_point_extension_correlation([0, 0], n) == 1.0


def test_two_point_phi_one():
    for n in range(8):
        v = systems.two_point_extension_correlation([1, 1], n)
        assert v == (1.0 if n % 2 == 0 else -1.0)


def test_two_point_morse_cocycle():
    # phi(x) = first dyadic digit: at n=1 the two depth-1 cylinders give
    # opposite signs, so the correlation vanishes
    assert systems.two_point_extension_correlation([0, 1], 1) == pytest.approx(
        0.0, abs=1e-15)


def test_two_point_brute_force_oracle():
    # average (-1)^{phi^{(n)}} over all residues, directly
    phi = [1, 0, 1, 1]
    for n in range(1, 10):
        acc = 0.0
        for v in range(4):
            s = sum(phi[(v + j) % 4] for j in range(n))
            acc += (-1.0) ** (s % 2)
        assert systems.two_point_extension_correlation(phi, n) == pytest.approx(
            acc / 4.0, abs=1e-15)


def test_two_point_rejects_bad_length():
    with pytest.raises(ValueError):
        systems.two_point_extension_correlation([0, 1, 0], 1)


def test_square_wave_coeffs():
    sw = systems.square_wave_coeffs(11)
    assert sw.coeff(2) == 0.0
    assert sw.coeff(1) == pytest.approx(2.0 / (math.pi * 1j), abs=1e-15)
    assert abs(sw.coeff(1)) ** 2 == pytest.approx(4.0 / math.pi**2, abs=1e-15)
    assert sw.l2_mass < 1.0
    big = systems.square_wave_coeffs(10**4)
    assert big.l2_mass == pytest.approx(1.0, abs=1e-3)
    assert big.l2_mass > 0.9998


def test_square_wave_truncation_bound():
    # 8/(pi^2 M) dominates the dropped l2 mass
    sw = systems.square_wave_coeffs(21)
    dropped = systems.square_wave_coeffs(10**5).l2_mass - sw.l2_mass
    assert 0.0 < dropped < sw.truncation_error


def test_rotation_cocycle_delta_zero():
    for n in (1, 2, 7):
        v = systems.rotation_ac_cocycle_correlation(systems.SQRT2_M1, 0.0, 0.5, n)
        assert abs(v) < 1e-12


def test_rotation_cocycle_parameter_checks():
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlation(systems.SQRT2_M1, 0.6, 0.5, 1)
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlation(systems.SQRT2_M1, 0.1, 1.5, 1)
    with pytest.raises(ValueError):
        systems.rotation_ac_cocycle_correlation(math.nan, 0.1, 0.5, 1)


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
            for n in range(1, 13):
                got = systems.rotation_ac_cocycle_correlation(alpha, delta, 0.5, n, 21)
                ref = _midpoint_rotation_correlation(alpha, delta, n, 21)
                assert abs(got - ref) < 1e-7, (alpha, delta, n)


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
        w = abs(sw.coeff(int(m))) ** 2
        total += w * jv(-int(m), m * delta)
    got = systems.rotation_ac_cocycle_correlation(alpha, delta, 0.5, 1, M)
    assert abs(got - complex(total)) < 1e-7


def test_ac_cocycle_analytic_constant_positive():
    C = systems.ac_cocycle_analytic_constant(0.1, 0.5)
    assert 0.0 < C < 1.0


def test_ac_cocycle_table_certifies():
    t = systems.ac_cocycle_table(systems.SQRT2_M1, 0.1, 0.5, 8, M=21)
    assert t.half_width == 8
    assert t.tail_bound < 1e-10  # superexponential Bessel-coefficient decay
    from atlab import sbh
    rep = sbh.certify(t)
    assert rep.verdict == "CERTIFIED_SBH"
    assert rep.density_certificate < 1.0 + sbh.epsilon0()


def test_nil_rejects_rational_beta():
    with pytest.raises(ValueError):
        systems.nil_rotation_correlation(systems.SQRT2_M1, 0.5, 0.0, 1)


def test_nil_vanishing_beta_07():
    # 2 beta > 1 kills every n >= 2
    for n in range(2, 12):
        assert systems.nil_rotation_correlation(
            systems.SQRT2_M1, 0.7, 0.0, n) == 0.0


def test_nil_n1_series_matches_piecewise():
    for beta, gamma in [(0.8, 0.0), (0.7, 0.3), (0.6, 0.1)]:
        exact = systems.nil_rotation_correlation(systems.SQRT2_M1, beta, gamma, 1)
        series = systems.nil_rotation_n1_series(systems.SQRT2_M1, beta, gamma)
        assert abs(exact - series) < 1e-12


def test_nil_symmetry_in_n():
    v1 = systems.nil_rotation_correlation(systems.SQRT2_M1, 0.8, 0.0, 1)
    v2 = systems.nil_rotation_correlation(systems.SQRT2_M1, 0.8, 0.0, -1)
    assert v1 == v2


@pytest.mark.parametrize("alpha", [systems.SQRT2_M1, systems.GOLDEN_M1],
                         ids=["sqrt2-1", "golden"])
def test_rotation_cocycle_hermitian_in_n(alpha):
    src = systems.RotationCocycleSource(alpha=alpha, delta=0.3, delta0=0.5, M=21)
    for n in range(1, 9):
        c = systems.rotation_ac_cocycle_correlation(alpha, 0.3, 0.5, n, M=21)
        assert systems.rotation_ac_cocycle_correlation(alpha, 0.3, 0.5, -n, M=21) == c.conjugate()
        assert src.exact_correlation(-n) == src.exact_correlation(n)


def test_nil_beta_near_one_small():
    small = abs(systems.nil_rotation_correlation(systems.SQRT2_M1, 0.99, 0.0, 1))
    large = abs(systems.nil_rotation_correlation(systems.SQRT2_M1, 0.6, 0.0, 1))
    assert large >= 5.0 * small


def test_distal_integral_zero():
    for n in range(0, 101):
        for m_scale in (1, 2, 3):
            assert systems.distal_integral(n, m_scale) == 0.0


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
        a = src.sample_names(8, 32, seed=5)
        b = src.sample_names(8, 32, seed=5)
        assert a.shape == (8, 32)
        assert a.dtype == np.uint8
        assert np.array_equal(a, b)
        assert set(np.unique(a)).issubset({0, 1})
        c = src.sample_names(8, 32, seed=6)
        if not isinstance(src, systems.ConstantSource):
            assert not np.array_equal(a, c)


def test_sign_symmetry_bit_balance():
    # mu(P0) = 1/2 for every sign-symmetric system here
    for src in [systems.RotationCocycleSource(delta=0.1),
                systems.NilRotationSource(),
                systems.DistalSource(),
                systems.OdometerExtensionSource([0, 1])]:
        bits = src.sample_names(400, 64, seed=9)
        mean = np.mean(systems.names_to_signs(bits))
        assert abs(mean) <= 5.0 / math.sqrt(bits.size)


def test_delta_zero_rotation_pairwise_independent():
    src = systems.RotationCocycleSource(delta=0.0)
    bits = src.sample_names(20000, 9, seed=17)
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
    bits = src.sample_names(count, length, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, y = rng.random(count), rng.random(count)
    ref = np.empty((count, length), dtype=np.uint8)
    for j in range(length):
        ref[:, j] = np.mod(y, 1.0) >= 0.5
        y = y + x + delta / (2.0 * math.pi) * np.sin(2.0 * math.pi * x)
        x = x + alpha
    assert np.array_equal(bits, ref)


def test_odometer_source_matches_exact_correlation():
    phi = [1, 0, 1, 1]
    src = systems.OdometerExtensionSource(phi)
    bits = src.sample_names(40000, 12, seed=23)
    signs = systems.names_to_signs(bits)
    for n in range(1, 6):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        exact = src.exact_correlation(n)
        assert abs(emp - exact) <= 5.0 / math.sqrt(signs.shape[0])


def test_nil_source_matches_exact_correlation():
    src = systems.NilRotationSource(beta=0.8)
    bits = src.sample_names(20000, 10, seed=31)
    signs = systems.names_to_signs(bits)
    for n in range(1, 5):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        exact = src.exact_correlation(n)
        assert abs(emp - exact) <= 5.0 / math.sqrt(signs.shape[0])


def test_rotation_source_delta_zero_correlations_vanish():
    src = systems.RotationCocycleSource(delta=0.0)
    bits = src.sample_names(20000, 10, seed=41)
    signs = systems.names_to_signs(bits)
    for n in range(1, 9):
        emp = float(np.mean(signs[:, :-n] * signs[:, n:]))
        assert abs(emp) <= 5.0 / math.sqrt(signs.shape[0])


def test_names_round_trip(tmp_path):
    bits = systems.CoinSource().sample_names(13, 37, seed=2)
    path = tmp_path / "names.bin"
    systems.write_names(bits, path)
    back = systems.read_names(path)
    assert np.array_equal(bits, back)


def test_names_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        systems.read_names(path)
