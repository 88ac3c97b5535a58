"""Tests for the circle-measure Fourier tables and their transforms."""

import math
import tracemalloc

import numpy as np
import pytest

from atlab import fourier


def test_lebesgue_basic():
    t = fourier.lebesgue_table(4)
    assert t.half_width == 4
    assert t.at(0) == 1.0
    for n in range(1, 5):
        assert t.at(n) == 0.0
        assert t.at(-n) == 0.0
    assert t.tail_bound == 0.0
    # constant density
    vals = t.density(37)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_lebesgue_degenerate():
    t = fourier.lebesgue_table(0)
    assert t.half_width == 0
    assert t.at(0) == 1.0


def test_invariant_c0():
    nn = np.zeros(3, dtype=complex)
    nn[0] = 0.9
    with pytest.raises(fourier.InvariantViolation, match="c\\(0\\)"):
        fourier.FourierTable.from_nonneg(nn)


def test_invariant_modulus():
    nn = np.array([1.0, 1.5], dtype=complex)
    with pytest.raises(fourier.InvariantViolation, match="<= 1"):
        fourier.FourierTable.from_nonneg(nn)


def test_invariant_hermitian_checks_c0_imaginary_part():
    # within 1e-12 of 1, but c(0) = conj c(0) fails by 2 * 8e-13 > 1e-12
    with pytest.raises(fourier.InvariantViolation, match="c\\(0\\)"):
        fourier.FourierTable.from_nonneg(np.array([1.0 + 8e-13j, 0.2]))
    # 2 * 4e-13 is within 1e-12, so this one stays a probability measure
    assert fourier.FourierTable.from_nonneg(np.array([1.0 + 4e-13j, 0.2])).half_width == 1


def test_from_nonneg_peak_memory():
    # the table's own copy of the coefficients (1x) plus the float64 |c(n)| of
    # the modulus check (0.5x) and its bool masks: about 1.56x
    nn = np.full(2**20 + 1, 0.25, dtype=complex)
    nn[0] = 1.0
    tracemalloc.start()
    try:
        t = fourier.FourierTable.from_nonneg(nn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * t.coeffs.nbytes


def test_from_nonneg_leaves_input_writable_and_unchanged():
    nn = np.array([1.0, 0.2 + 0.3j, -0.1])
    before = nn.copy()
    t = fourier.FourierTable.from_nonneg(nn)
    assert nn.flags.writeable
    assert np.array_equal(nn, before)
    nn[1] = 0.5
    assert t.at(1) == 0.2 + 0.3j


def test_table_stores_nonnegative_half_only():
    for t in (fourier.lebesgue_table(0), fourier.dirac_table(5),
              fourier.riesz_product([0.8, 0.4], [2, 7], 10)):
        assert t.coeffs.size == t.half_width + 1
    with pytest.raises(fourier.InvariantViolation, match="nonempty"):
        fourier.FourierTable(np.zeros(0, dtype=complex))


def test_invariant_tail_bound_sign():
    with pytest.raises(fourier.InvariantViolation, match="tail_bound"):
        fourier.FourierTable.from_nonneg(np.array([1.0 + 0j]), tail_bound=-0.1)


@pytest.mark.parametrize("tail", [math.nan, math.inf])
def test_invariant_tail_bound_finite(tail):
    with pytest.raises(fourier.InvariantViolation, match="tail_bound"):
        fourier.FourierTable.from_nonneg(np.array([1.0 + 0j]), tail_bound=tail)
    obj = {"half_width": 2, "tail_bound": tail, "coeffs": [[0, 1.0, 0.0]]}
    with pytest.raises(fourier.InvariantViolation, match="tail_bound"):
        fourier.table_from_json_obj(obj)


def test_invariant_finite_coeffs():
    with pytest.raises(fourier.InvariantViolation, match="finite"):
        fourier.FourierTable.from_nonneg(np.array([1.0, math.nan]))


def test_from_nonneg_symmetry():
    nn = np.array([1.0, 0.2 + 0.3j, 0.1], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    assert t.at(-1) == np.conj(t.at(1))
    assert t.at(-2) == np.conj(t.at(2))
    assert t.at(5) == 0.0  # outside support


def test_coeffs_immutable():
    t = fourier.lebesgue_table(3)
    with pytest.raises((ValueError, RuntimeError)):
        t.coeffs[0] = 0.5


def test_power_subsample_lebesgue():
    for m in (1, 2, 3, 5):
        sub = fourier.power_subsample(fourier.lebesgue_table(8), m)
        assert np.allclose(sub.coeffs, fourier.lebesgue_table(8 // m).coeffs)


def test_power_subsample_geometric():
    rho = 0.5
    nn = rho ** np.arange(9, dtype=float)
    t = fourier.FourierTable.from_nonneg(nn.astype(complex))
    sub = fourier.power_subsample(t, 2)
    assert sub.half_width == 4
    for n in range(5):
        assert sub.at(n) == pytest.approx(0.25**n, abs=1e-15)


def test_power_subsample_rejects_zero():
    with pytest.raises(ValueError):
        fourier.power_subsample(fourier.lebesgue_table(4), 0)


def test_l1_tail_values():
    assert fourier.l1_tail(fourier.lebesgue_table(16)) == 0.0
    nn = np.zeros(3, dtype=complex)
    nn[0] = 1.0
    nn[1] = 0.025
    t = fourier.FourierTable.from_nonneg(nn)
    assert fourier.l1_tail(t) == pytest.approx(0.05, abs=1e-15)
    t2 = fourier.FourierTable.from_nonneg(nn, tail_bound=0.01)
    assert fourier.l1_tail(t2) == pytest.approx(0.06, abs=1e-15)


def test_density_sup_lebesgue():
    rep = fourier.density_sup(fourier.lebesgue_table(8), 64)
    assert rep.sup_estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.certified_upper == pytest.approx(1.0, abs=1e-12)


def test_density_sup_cosine():
    nn = np.zeros(2, dtype=complex)
    nn[0] = 1.0
    nn[1] = 0.05
    t = fourier.FourierTable.from_nonneg(nn)
    grid = 1024
    rep = fourier.density_sup(t, grid)
    # density 1 + 0.1 cos(2 pi theta), max 1.1 at theta = 0 (a grid point)
    assert rep.sup_estimate == pytest.approx(1.1, abs=1e-12)
    margin = 2.0 * math.pi * 0.1 / (2.0 * grid)
    assert rep.certified_upper == pytest.approx(1.1 + margin, abs=1e-12)


def test_density_sup_rejects_coarse_grid():
    with pytest.raises(ValueError):
        fourier.density_sup(fourier.lebesgue_table(8), 16)


def test_density_sup_lower_anchor():
    # the density has mean 1, so any certified sup must sit near or above 1
    rng = np.random.default_rng(7)
    for _ in range(5):
        nn = np.concatenate([[1.0], 0.3 * rng.random(6)]).astype(complex)
        t = fourier.FourierTable.from_nonneg(nn)
        rep = fourier.density_sup(t, 256)
        assert rep.certified_upper >= 1.0 - 1e-9
        assert rep.certified_upper >= rep.sup_estimate


def test_arcsine_transform_values():
    nn = np.array([1.0, 0.5, 0.0], dtype=complex)
    t = fourier.arcsine_transform(fourier.FourierTable.from_nonneg(nn))
    assert t.at(0) == 1.0
    assert t.at(1).real == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert t.at(2) == 0.0


def test_arcsine_transform_identity_on_zero():
    t0 = fourier.lebesgue_table(6)
    t = fourier.arcsine_transform(t0)
    assert np.allclose(t.coeffs, t0.coeffs)


def test_arcsine_fourth_values():
    nn = np.array([1.0, 0.5], dtype=complex)
    t = fourier.arcsine_fourth_transform(fourier.FourierTable.from_nonneg(nn))
    assert t.at(1).real == pytest.approx(1.0 / 81.0, abs=1e-15)


def test_arcsine_domain_errors():
    t = fourier.dirac_table(1)  # |c(1)| = 1 is out of domain
    with pytest.raises(ValueError):
        fourier.arcsine_transform(t)
    nn = np.array([1.0, 0.2 + 0.2j], dtype=complex)
    with pytest.raises(ValueError):
        fourier.arcsine_transform(fourier.FourierTable.from_nonneg(nn))


def test_arcsine_tail_contraction():
    nn = np.concatenate([[1.0], 0.4 * np.ones(5)]).astype(complex)
    t = fourier.FourierTable.from_nonneg(nn, tail_bound=0.02)
    a = fourier.arcsine_transform(t)
    assert fourier.l1_tail(a) <= (math.pi / 2.0) * fourier.l1_tail(t) + 1e-12


def test_arcsine_preserves_psd():
    t = fourier.riesz_product([0.8, 0.5], [1, 3], 8)
    a = fourier.arcsine_transform(t)
    ok, lam = fourier.is_positive_definite(a, a.half_width + 1)
    assert ok, f"arcsine transform broke PSD (min eig {lam})"


def test_riesz_empty_is_lebesgue():
    t = fourier.riesz_product([], [], 6)
    assert np.allclose(t.coeffs, fourier.lebesgue_table(6).coeffs)


def test_riesz_single_factor():
    t = fourier.riesz_product([1.0], [1], 2)
    assert t.at(1).real == pytest.approx(0.5, abs=1e-15)
    assert t.at(2) == 0.0


def test_riesz_two_factors():
    t = fourier.riesz_product([1.0, 1.0], [1, 3], 4)
    assert t.at(1).real == pytest.approx(0.5, abs=1e-15)
    assert t.at(2).real == pytest.approx(0.25, abs=1e-15)
    assert t.at(3).real == pytest.approx(0.5, abs=1e-15)
    assert t.at(4).real == pytest.approx(0.25, abs=1e-15)


def test_riesz_lacunarity_enforced():
    with pytest.raises(ValueError):
        fourier.riesz_product([0.5, 0.5], [2, 5], 8)


def test_riesz_matches_quadrature():
    # coefficients vs direct integration of the product density on a fine grid
    amps = [0.9, 0.6, 0.3]
    freqs = [1, 3, 9]
    N = 14
    t = fourier.riesz_product(amps, freqs, N)
    G = 4096
    x = (np.arange(G) + 0.5) / G
    dens = np.ones(G)
    for a, lam in zip(amps, freqs):
        dens *= 1.0 + a * np.cos(2.0 * math.pi * lam * x)
    for n in range(N + 1):
        approx = np.mean(dens * np.exp(-2j * math.pi * n * x))
        assert abs(approx - t.at(n)) < 1e-10, f"mismatch at n={n}"


def test_riesz_walk_stops_below_2N():
    # 9 first reaches the table at N = 5, as 9 - 3 - 1, where 2N = 10 > 9; at
    # N = 14 every frequency is walked
    full = fourier.riesz_product([0.9, 0.6, 0.3], [1, 3, 9], 14).coeffs
    for N in range(15):
        t = fourier.riesz_product([0.9, 0.6, 0.3], [1, 3, 9], N)
        assert np.array_equal(t.coeffs, full[:N + 1]), N


def test_riesz_is_psd():
    t = fourier.riesz_product([1.0, 0.7], [1, 3], 6)
    ok, _ = fourier.is_positive_definite(t, 7)
    assert ok


def test_sqrt_template_values():
    t = fourier.sqrt_template(0.3, 4)
    assert t.at(1).real == pytest.approx(0.3, abs=1e-15)
    assert t.at(2).real == pytest.approx(0.3 / math.sqrt(2.0), abs=1e-12)
    assert t.at(3).real == pytest.approx(0.3 / math.sqrt(3.0), abs=1e-12)
    assert t.at(4).real == pytest.approx(0.15, abs=1e-15)
    assert "PSD not certified" in t.label


def test_sqrt_template_zero_is_lebesgue():
    t = fourier.sqrt_template(0.0, 5)
    assert np.allclose(t.coeffs, fourier.lebesgue_table(5).coeffs)


def test_sqrt_template_psd_report():
    t = fourier.sqrt_template(0.3, 64)
    ok, lam = fourier.is_positive_definite(t, 65)
    # the check must return a definite verdict with its minimal eigenvalue
    assert isinstance(ok, bool)
    assert lam == pytest.approx(np.linalg.eigvalsh(
        np.array([[t.at(i - j).real for j in range(65)] for i in range(65)])).min(),
        abs=1e-9)


def test_is_positive_definite_identity():
    ok, lam = fourier.is_positive_definite(fourier.lebesgue_table(16), 10)
    assert ok
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_is_positive_definite_small_table():
    # c(1)=0.6, c(2)=0.9: all three 3x3 Toeplitz eigenvalues are positive
    # (0.1, ~0.4895, ~2.4105), so the truncated table passes at k=3 even
    # though the truncated density dips negative (min -0.9 at cos = -1/6);
    # PSD of small minors does not certify a genuine measure
    nn = np.array([1.0, 0.6, 0.9], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    ok, lam = fourier.is_positive_definite(t, 3)
    assert ok
    assert lam == pytest.approx(0.1, abs=1e-9)
    dens = t.density(1000)
    assert dens.min() < -0.85  # not a probability density


@pytest.mark.parametrize("grid", [0, -3])
def test_density_needs_a_nonempty_grid(grid):
    with pytest.raises(ValueError, match="grid_size"):
        fourier.sqrt_template(0.3, 8).density(grid)


def test_json_round_trip(tmp_path):
    t = fourier.riesz_product([0.8, 0.4], [2, 7], 10)
    path = tmp_path / "m.json"
    fourier.write_measure(t, path)
    back = fourier.read_measure(path)
    assert back.half_width == t.half_width
    assert back.tail_bound == t.tail_bound
    assert np.allclose(back.coeffs, t.coeffs)
    assert back.label == t.label


def test_json_reader_rejects_bad_c0(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "", "half_width": 1, "tail_bound": 0.0,'
                    ' "coeffs": [[0, 0.5, 0.0], [1, 0.1, 0.0]]}')
    with pytest.raises(fourier.InvariantViolation, match="c\\(0\\)"):
        fourier.read_measure(path)


def test_json_reader_rejects_unsorted(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "", "half_width": 2, "tail_bound": 0.0,'
                    ' "coeffs": [[1, 0.1, 0.0], [0, 1.0, 0.0]]}')
    with pytest.raises(fourier.InvariantViolation, match="sorted"):
        fourier.read_measure(path)


def test_json_reader_rejects_negative_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "", "half_width": 1, "tail_bound": 0.0,'
                    ' "coeffs": [[-1, 0.1, 0.0]]}')
    with pytest.raises(fourier.InvariantViolation, match="n >= 0"):
        fourier.read_measure(path)


@pytest.mark.parametrize("N", [1e9, fourier.MAX_HALF_WIDTH + 1, -3, math.inf])
def test_json_reader_rejects_half_width_out_of_range(N):
    # checked before the coefficient array is allocated
    obj = {"half_width": N, "tail_bound": 0.0, "coeffs": [[0, 1.0, 0.0]]}
    with pytest.raises(fourier.InvariantViolation, match="half_width|infinity"):
        fourier.table_from_json_obj(obj)


@pytest.mark.parametrize("tail, row", [
    (True, [1, 0.5, 0.0]), ("0", [1, 0.5, 0.0]),
    (0.0, [1, "0.5", 0.0]), (0.0, [1, 0.5, False]),
], ids=["bool-tail", "string-tail", "string-re", "bool-im"])
def test_json_reader_rejects_non_numbers(tail, row):
    # float() would read "0.5" as 0.5 and true as 1.0
    obj = {"half_width": 1, "tail_bound": tail, "coeffs": [[0, 1, 0], row]}
    with pytest.raises(fourier.InvariantViolation, match="JSON number"):
        fourier.table_from_json_obj(obj)


def test_json_reader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"half_width": 1}')
    with pytest.raises(fourier.InvariantViolation, match="malformed"):
        fourier.read_measure(path)
