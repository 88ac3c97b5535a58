"""Tests for the SBH certificates, epsilon0, and the signed-form searches."""

import dataclasses
import math

import numpy as np
import pytest

from atlab import fourier, sbh


def _table(pairs, N):
    nn = np.zeros(N + 1, dtype=complex)
    nn[0] = 1.0
    for n, v in pairs:
        nn[n] = v
    return fourier.FourierTable.from_nonneg(nn)


def test_epsilon0_bracket_and_residual():
    p = sbh._eps0_poly
    assert p(0.0) > 0.0
    assert p(0.2) < 0.0
    e = sbh.epsilon0()
    assert 0.106 < e < 0.107
    assert abs(p(e)) <= 1e-12


def test_epsilon0_cached():
    assert sbh.epsilon0() is not None
    assert sbh.epsilon0() == sbh.epsilon0()


def test_blum_hanson_lebesgue():
    t = fourier.lebesgue_table(16)
    for idx in [(0,), (0, 3), (1, 4, 9), tuple(range(8))]:
        assert sbh.blum_hanson_average(t, idx) == pytest.approx(
            1.0 / len(idx), abs=1e-15)


def test_blum_hanson_dirac():
    t = fourier.dirac_table(16)
    assert sbh.blum_hanson_average(t, (0, 2, 5, 11)) == pytest.approx(1.0, abs=1e-15)


def test_blum_hanson_geometric():
    t = _table([(1, 0.5), (2, 0.25)], 2)
    v = sbh.blum_hanson_average(t, (0, 1, 2))
    assert v == pytest.approx((3 + 4 * 0.5 + 2 * 0.25) / 9.0, abs=1e-15)


def test_blum_hanson_rejects_non_monotone():
    with pytest.raises(ValueError):
        sbh.blum_hanson_average(fourier.lebesgue_table(4), (3, 1))


def test_sbh_form_lebesgue_and_k1():
    t = fourier.lebesgue_table(8)
    assert sbh.sbh_form(t, (0, 2, 5), (0, 1, 0)) == pytest.approx(1.0, abs=1e-15)
    assert sbh.sbh_form(t, (7,), (1,)) == pytest.approx(1.0, abs=1e-15)


def test_sbh_form_small_table():
    t = _table([(1, 0.4)], 2)
    assert sbh.sbh_form(t, (0, 1), (0, 1)) == pytest.approx(0.6, abs=1e-15)
    assert sbh.sbh_form(t, (0, 1), (0, 0)) == pytest.approx(1.4, abs=1e-15)


def test_sbh_form_global_flip_invariance():
    t = _table([(1, 0.3), (3, -0.2)], 4)
    idx = (0, 1, 3, 4)
    for eta in [(0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0)]:
        flipped = tuple(1 - b for b in eta)
        assert sbh.sbh_form(t, idx, eta) == pytest.approx(
            sbh.sbh_form(t, idx, flipped), abs=1e-15)


def test_sbh_form_zero_signs_identity():
    t = _table([(1, 0.4), (2, 0.1)], 3)
    idx = (0, 1, 3)
    assert sbh.sbh_form(t, idx, (0, 0, 0)) == pytest.approx(
        len(idx) * sbh.blum_hanson_average(t, idx), abs=1e-14)


def test_sbh_form_nonnegative():
    rng = np.random.default_rng(3)
    t = fourier.riesz_product([0.9, 0.5], [1, 4], 10)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        idx = tuple(sorted(rng.choice(11, size=k, replace=False).tolist()))
        eta = tuple(int(b) for b in rng.integers(0, 2, size=k))
        assert sbh.sbh_form(t, idx, eta) >= -1e-9


def test_exhaustive_lebesgue():
    t = fourier.lebesgue_table(24)
    for k, w in [(1, 1), (2, 4), (4, 8), (6, 12)]:
        assert sbh.sbh_sup_exhaustive(t, k, w) == 1.0


def test_exhaustive_dirac():
    t = fourier.dirac_table(24)
    assert sbh.sbh_sup_exhaustive(t, 4, 8) == pytest.approx(4.0, abs=1e-12)


def test_exhaustive_small_table():
    t = _table([(1, 0.4)], 4)
    assert sbh.sbh_sup_exhaustive(t, 2, 4) == pytest.approx(1.4, abs=1e-15)


def test_exhaustive_witness_attains_value():
    t = fourier.riesz_product([1.0, 0.8], [1, 3], 8)
    val, idx, eta = sbh.sbh_sup_exhaustive(t, 3, 8, return_witness=True)
    assert sbh.sbh_form(t, idx, eta) == pytest.approx(val, abs=1e-12)


def test_exhaustive_window_monotonicity():
    t = fourier.riesz_product([0.9, 0.6], [1, 5], 12)
    vals = [sbh.sbh_sup_exhaustive(t, 3, w) for w in range(3, 13)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exhaustive_budget_and_limits():
    t = fourier.lebesgue_table(4)
    with pytest.raises(ValueError):
        sbh.sbh_sup_exhaustive(t, 13, 20)
    with pytest.raises(ValueError):
        sbh.sbh_sup_exhaustive(t, 4, 25)


def test_exhaustive_below_l1_certificate():
    rng = np.random.default_rng(11)
    for _ in range(5):
        nn = np.concatenate([[1.0], 0.25 * rng.random(8)]).astype(complex)
        t = fourier.FourierTable.from_nonneg(nn)
        sup = sbh.sbh_sup_exhaustive(t, 4, 9)
        assert sup <= 1.0 + fourier.l1_tail(t) + 1e-9


def test_heuristic_lebesgue():
    t = fourier.lebesgue_table(16)
    assert sbh.sbh_sup_heuristic(t, 5, 12, budget=200, seed=0) == pytest.approx(
        1.0, abs=1e-12)


def test_heuristic_dirac_alignment():
    t = fourier.dirac_table(24)
    assert sbh.sbh_sup_heuristic(t, 8, 16, budget=200, seed=0) == pytest.approx(
        8.0, abs=1e-12)


def test_heuristic_below_exhaustive():
    t = fourier.riesz_product([0.9, 0.7], [2, 6], 12)
    for seed in range(3):
        h = sbh.sbh_sup_heuristic(t, 4, 10, budget=500, seed=seed)
        e = sbh.sbh_sup_exhaustive(t, 4, 10)
        assert h <= e + 1e-12


def test_heuristic_deterministic():
    t = fourier.riesz_product([0.8, 0.8], [1, 3], 10)
    a = sbh.sbh_sup_heuristic(t, 4, 10, budget=300, seed=42, return_witness=True)
    b = sbh.sbh_sup_heuristic(t, 4, 10, budget=300, seed=42, return_witness=True)
    assert a == b


def test_rajchman_decay():
    assert sbh.rajchman_decay(fourier.lebesgue_table(16), 8) == 0.0
    assert sbh.rajchman_decay(fourier.dirac_table(16), 8) == 1.0
    t = fourier.sqrt_template(0.3, 64)
    assert sbh.rajchman_decay(t, 16) == pytest.approx(0.3 / 7.0, abs=1e-12)


def test_certify_lebesgue():
    rep = sbh.certify(fourier.lebesgue_table(16))
    assert rep.verdict == "CERTIFIED_SBH"
    assert rep.l1_certificate == pytest.approx(1.0, abs=1e-15)
    assert rep.density_certificate == pytest.approx(1.0, abs=1e-12)
    assert rep.note == ""


def test_certify_small_tail():
    nn = np.zeros(4, dtype=complex)
    nn[0] = 1.0
    nn[1] = 0.025  # l1 tail 0.05 < eps0
    rep = sbh.certify(fourier.FourierTable.from_nonneg(nn))
    assert rep.verdict == "CERTIFIED_SBH"
    assert rep.l1_certificate == pytest.approx(1.05, abs=1e-12)


def test_certify_dirac_not_sbh():
    rep = sbh.certify(fourier.dirac_table(16), k=4, window=8)
    assert rep.verdict == "CERTIFIED_NOT_SBH"
    assert rep.exhaustive_sup == pytest.approx(4.0, abs=1e-12)
    assert rep.note == sbh.NOT_SBH_CAVEAT
    assert rep.exhaustive_witness is not None


def test_certify_report_json_fields():
    rep = sbh.certify(fourier.lebesgue_table(8), heuristic_budget=100)
    obj = dataclasses.asdict(rep)
    for key in ("epsilon0", "l1_certificate", "density_certificate",
                "exhaustive_sup", "heuristic_sup", "verdict", "note"):
        assert key in obj
    assert obj["heuristic_sup"] is not None
    assert obj["exhaustive_witness"]["indices"]


def test_certify_undecided_exists():
    # a mid-size coefficient pushes both certificates above 1 + eps0 without
    # producing a witnessed violation
    nn = np.zeros(2, dtype=complex)
    nn[0] = 1.0
    nn[1] = 0.07  # l1 certificate 1.14 > 1 + eps0, best k=4 witness 1.105 < it
    rep = sbh.certify(fourier.FourierTable.from_nonneg(nn), k=4, window=8)
    assert rep.verdict == "UNDECIDED"
