"""Tests for the funny-word machinery and the empirical non-AT probe."""

import json
import math

import numpy as np
import pytest

from atlab import cli, fourier, funny, sbh, systems


def test_hamming_basics():
    assert funny.hamming([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0
    assert funny.hamming([0, 1], [1, 0]) == 1.0
    assert funny.hamming([0, 1, 1, 0], [0, 0, 1, 1]) == 0.5
    with pytest.raises(ValueError):
        funny.hamming([0, 1], [0, 1, 1])


def test_funny_word_validation():
    with pytest.raises(ValueError):
        funny.FunnyWord((3, 1), (0, 0))
    with pytest.raises(ValueError):
        funny.FunnyWord((0, 1), (0, 2))
    with pytest.raises(ValueError):
        funny.FunnyWord((), ())
    w = funny.FunnyWord((0, 2, 5), (1, 0, 1))
    assert w.k == 3


def test_theta_of_name():
    w = funny.FunnyWord((0, 1, 2, 3), (0, 1, 1, 0))
    assert funny.theta_of_name([0, 1, 1, 0], w) == 1.0
    assert funny.theta_of_name([1, 0, 0, 1], w) == -1.0
    assert funny.theta_of_name([0, 1, 0, 1], w) == 0.0


def test_theta_identity_with_hamming():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(1, 10))
        w = funny.FunnyWord(tuple(range(k)),
                            tuple(int(b) for b in rng.integers(0, 2, k)))
        name = rng.integers(0, 2, k)
        assert funny.theta_of_name(name, w) == pytest.approx(
            1.0 - 2.0 * funny.hamming(name, w.bits), abs=1e-15)


def test_theta_l2_exact_lebesgue():
    t = fourier.lebesgue_table(32)
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        idx = tuple(sorted(rng.choice(33, size=k, replace=False).tolist()))
        bits = tuple(int(b) for b in rng.integers(0, 2, k))
        w = funny.FunnyWord(idx, bits)
        assert funny.theta_l2_exact(t, w) == 1.0 / k


def test_theta_l2_exact_is_form_over_k():
    nn = np.array([1.0, 0.4], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    w = funny.FunnyWord((0, 1), (0, 1))
    assert funny.theta_l2_exact(t, w) == pytest.approx(0.3, abs=1e-15)
    assert funny.theta_l2_exact(t, w) == pytest.approx(
        sbh.sbh_form(t, w.indices, w.bits) / w.k, abs=1e-15)


def test_theta_l2_exact_bounds():
    t = fourier.riesz_product([0.8, 0.5], [1, 4], 12)
    rng = np.random.default_rng(3)
    cap = (1.0 + fourier.l1_tail(t))
    for _ in range(30):
        k = int(rng.integers(1, 7))
        idx = tuple(sorted(rng.choice(13, size=k, replace=False).tolist()))
        bits = tuple(int(b) for b in rng.integers(0, 2, k))
        v = funny.theta_l2_exact(t, funny.FunnyWord(idx, bits))
        assert -1e-9 <= v <= cap / k + 1e-9


def test_theta_l2_empirical_coin():
    src = systems.CoinSource()
    w = funny.FunnyWord(tuple(range(8)), (0, 1, 0, 1, 1, 0, 0, 1))
    est, se = funny.theta_l2_empirical(src, w, samples=20000, seed=4)
    assert abs(est - 1.0 / 8.0) <= 4.0 * se


def test_theta_l2_empirical_constant_source():
    src = systems.ConstantSource()
    w = funny.FunnyWord(tuple(range(6)), (0,) * 6)
    est, se = funny.theta_l2_empirical(src, w, samples=5000, seed=5)
    # names are all-0 or all-1, so Theta = +-1 and Theta^2 = 1 exactly
    assert est == 1.0
    assert se == 0.0


def test_theta_l2_empirical_matches_exact_oracle():
    phi = [1, 0, 1, 1]
    src = systems.OdometerExtensionSource(phi)
    idx = (0, 1, 3, 6)
    nn = np.array([src.exact_correlation(n) for n in range(7)], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    w = funny.FunnyWord(idx, (0, 1, 1, 0))
    est, se = funny.theta_l2_empirical(src, w, samples=10**5, seed=6)
    assert abs(est - funny.theta_l2_exact(t, w)) <= 4.0 * se


def test_non_at_bound_values():
    eps0 = sbh.epsilon0()
    assert funny.non_at_bound(0.1) == pytest.approx((1.0 + eps0) / 1.28, abs=1e-12)
    assert funny.non_at_bound(0.1) == pytest.approx(0.8645, abs=5e-4)
    assert funny.non_at_bound(0.25) == pytest.approx((1.0 + eps0) / 0.5, abs=1e-12)
    assert funny.non_at_bound(1e-9) == pytest.approx((1.0 + eps0) / 2.0, rel=1e-6)
    with pytest.raises(ValueError):
        funny.non_at_bound(0.5)
    with pytest.raises(ValueError):
        funny.non_at_bound(0.0)


def test_non_at_bound_eps_numerator_variant():
    assert funny.non_at_bound_eps_numerator(0.1) == pytest.approx(
        1.1 / 1.28, abs=1e-12)
    # the two published numerators are both surfaced; neither is silently fused
    assert funny.non_at_bound(0.1) != funny.non_at_bound_eps_numerator(0.1)


def test_theta_report_histogram():
    src = systems.CoinSource()
    w = funny.FunnyWord(tuple(range(16)), tuple([0, 1] * 8))
    rep = funny.theta_report(src, w, samples=5000, seed=7,
                             table=fourier.lebesgue_table(16))
    assert rep.hist_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.exact_l2 == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert 0.0 <= rep.mass_below(0.5) <= 1.0
    assert rep.mass_below(1.1) == 1.0


def test_theta_symmetry_fair_sources():
    w = funny.FunnyWord(tuple(range(12)), tuple(int(b) for b in
                                                np.random.default_rng(8).integers(0, 2, 12)))
    for src in [systems.CoinSource(), systems.NilRotationSource()]:
        rep = funny.theta_symmetry_check(src, w, samples=20000, seed=9)
        assert rep["symmetric"], rep


def test_theta_symmetry_detects_bias():
    src = systems.CoinSource(p0=0.6)  # P0 mass 0.6: sign symmetry broken
    w = funny.FunnyWord(tuple(range(12)), (0,) * 12)
    rep = funny.theta_symmetry_check(src, w, samples=20000, seed=10)
    assert not rep["symmetric"]


def test_theta_symmetry_point_mass_at_zero():
    # constant names against the word (0, 1) disagree in exactly one place: Theta = 0
    w = funny.FunnyWord((0, 1), (0, 1))
    rep = funny.theta_symmetry_check(systems.ConstantSource(), w, samples=100, seed=1)
    assert rep["statistic"] == 0.0
    assert rep["symmetric"]


def test_lambda_family_candidates():
    fam = funny.LambdaFamily(k=8, horizon=64)
    rng = np.random.default_rng(11)
    cands = fam.candidates(rng)
    assert len(cands) > 5
    for lam in cands:
        assert len(lam) == 8
        assert all(a < b for a, b in zip(lam, lam[1:]))
        assert lam[-1] < 64


def test_funny_word_search_constant_source_violates():
    src = systems.ConstantSource()
    fam = funny.LambdaFamily(k=16, horizon=64, n_random=4)
    rep = funny.funny_word_search(src, fam, epsilon=0.1, samples=2000, seed=12)
    # half of all names sit at Hamming distance 0 from the majority word,
    # so |Lambda| * mass is about k/2, far above the bound
    assert rep.best.k_times_mass > 4.0
    assert len(rep.violations()) > 0
    assert rep.caveat == funny.SEARCH_CAVEAT


def test_funny_word_search_coin_respects_bound():
    src = systems.CoinSource()
    fam = funny.LambdaFamily(k=32, horizon=128, n_random=4)
    rep = funny.funny_word_search(src, fam, epsilon=0.1, samples=4000, seed=13)
    assert rep.violations() == []


def test_funny_word_search_deterministic():
    src = systems.CoinSource()
    fam = funny.LambdaFamily(k=8, horizon=32, n_random=4)
    a = funny.funny_word_search(src, fam, epsilon=0.1, samples=1000, seed=14)
    b = funny.funny_word_search(src, fam, epsilon=0.1, samples=1000, seed=14)
    assert [r.to_json_obj() for r in a.rows] == [r.to_json_obj() for r in b.rows]
    assert a.best.indices == b.best.indices
    assert a.best.word == b.best.word


def test_search_report_json_lines(capsys):
    code = cli.main(["funny", "--system", "coin", "--k", "4", "--horizon", "16",
                     "--n-random", "2", "--eps", "0.1", "--samples", "500", "--seed", "15"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    src = systems.CoinSource()
    fam = funny.LambdaFamily(k=4, horizon=16, n_random=2)
    rep = funny.funny_word_search(src, fam, epsilon=0.1, samples=500, seed=15)
    assert len(lines) == len(rep.rows)
    for line, row in zip(lines, rep.rows):
        obj = json.loads(line)
        for key in ("lambda", "word", "mass_below", "k_times_mass",
                    "bound", "stderr"):
            assert key in obj
        assert obj["lambda"] == list(row.indices)
        assert obj["word"] == list(row.word)
