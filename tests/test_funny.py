"""Tests for the funny-word machinery and the empirical non-AT probe."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlab import cli, fourier, funny, sbh, systems


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
    names = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.uint8)
    steps = np.packbits(names.T, axis=1)
    assert funny._thetas(steps, w, 3).tolist() == [1.0, -1.0, 0.0]
    with pytest.raises(ValueError, match="too short"):
        funny._thetas(steps[:3], w, 3)


def theta_l2_estimate(src, w, samples, seed):
    """Monte Carlo (estimate, stderr) of ||Theta^W||^2 over sampled names."""
    t2 = funny._thetas(src.sample_names(samples, w.indices[-1] + 1, seed), w, samples) ** 2
    return float(np.mean(t2)), float(np.std(t2, ddof=1) / math.sqrt(samples))


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
    est, se = theta_l2_estimate(src, w, samples=20000, seed=4)
    assert abs(est - funny.theta_l2_exact(fourier.lebesgue_table(8), w)) <= 4.0 * se


def test_theta_l2_empirical_constant_source():
    src = systems.ConstantSource()
    w = funny.FunnyWord(tuple(range(6)), (0,) * 6)
    est, se = theta_l2_estimate(src, w, samples=5000, seed=5)
    # names are all-0 or all-1, so Theta = +-1 and Theta^2 = 1 exactly, which
    # is the form of the source's spectrum, the Dirac mass
    assert est == 1.0 == funny.theta_l2_exact(fourier.dirac_table(6), w)
    assert se == 0.0


def test_theta_l2_empirical_matches_exact_oracle():
    phi = [1, 0, 1, 1]
    src = systems.OdometerExtensionSource(phi)
    idx = (0, 1, 3, 6)
    nn = np.array(src.table(6)[0], dtype=complex)
    t = fourier.FourierTable.from_nonneg(nn)
    w = funny.FunnyWord(idx, (0, 1, 1, 0))
    est, se = theta_l2_estimate(src, w, samples=10**5, seed=6)
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


def test_lambda_family_rejects_negative_n_random():
    with pytest.raises(ValueError, match="n_random >= 0"):
        funny.LambdaFamily(k=8, horizon=64, n_random=-1)
    assert funny.LambdaFamily(k=8, horizon=64, n_random=0).n_random == 0


def test_lambda_family_rejects_huge_n_random():
    # n_random * k random indices are drawn and reported: capped at 2^22
    with pytest.raises(ValueError, match="n_random \\* k"):
        funny.LambdaFamily(k=64, horizon=1024, n_random=2**16 + 1)
    assert funny.LambdaFamily(k=64, horizon=1024, n_random=2**16).n_random == 2**16


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


def search_reference(src, family, epsilon, samples, seed):
    """The per-candidate loop that funny_word_search replaced: a column gather,
    np.mean majority and np.mean masses."""
    bound = funny.non_at_bound(epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = family.candidates(rng)
    names = np.unpackbits(src.sample_names(2 * samples, family.horizon, seed), axis=1,
                          count=2 * samples).T
    train, test = names[:samples], names[samples:]
    rows = []
    for lam in candidates:
        idx = np.asarray(lam)
        w_bits = tuple(int(x) for x in (np.mean(train[:, idx], axis=0) > 0.5))
        dbar = np.mean(test[:, idx] != np.asarray(w_bits)[None, :], axis=1)
        mass = float(np.mean(dbar < epsilon))
        se = math.sqrt(max(mass * (1.0 - mass), 1.0 / samples) / samples)
        rows.append(funny.SearchRow(indices=lam, word=w_bits, mass_below=mass,
                                    k_times_mass=family.k * mass, bound=bound, stderr=se))
    best = max(rows, key=lambda r: (r.k_times_mass, tuple(-i for i in r.indices)))
    top = [r for r in rows if r.k_times_mass == best.k_times_mass]
    best = min(top, key=lambda r: (r.indices, r.word))
    return funny.SearchReport(epsilon=epsilon, rows=rows, best=best)


class _TiedSource(systems.NameSource):
    """Name i is all (i mod 2): every index of an even training half is an
    exact majority tie, which goes to 0."""

    def name_blocks(self, count, length, seed):
        yield np.repeat(np.packbits(np.arange(count) % 2)[None, :], length, axis=0)


_SEARCH_SOURCES = {
    "coin": systems.CoinSource(),
    "coin-0.3": systems.CoinSource(p0=0.3),
    "constant": systems.ConstantSource(),
    "tied": _TiedSource(),
    "nil": systems.NilRotationSource(),
    "rotation": systems.RotationCocycleSource(delta=0.3),
    "odometer": systems.OdometerExtensionSource([0, 1, 1, 0]),
}


# eps on a count/k boundary: 0.2 = 1/5 and 2/5 for k = 5, 3/7 for k = 7, 1/3 for k = 3
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(source=st.sampled_from(sorted(_SEARCH_SOURCES)), k=st.sampled_from([1, 3, 5, 7, 12]),
       eps=st.sampled_from([0.2, 0.4, 3 / 7, 1 / 3, 0.1, 0.49]),
       samples=st.integers(1, 80), extra=st.integers(0, 30),
       n_random=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(source="coin", k=5, eps=0.2, samples=40, extra=10, n_random=4, seed=1)
@example(source="tied", k=3, eps=1 / 3, samples=6, extra=5, n_random=2, seed=2)
@example(source="constant", k=7, eps=3 / 7, samples=10, extra=0, n_random=3, seed=3)
@example(source="coin", k=5, eps=0.4, samples=2, extra=3, n_random=6, seed=4)
@example(source="coin", k=3, eps=1 / 3, samples=300, extra=20, n_random=2, seed=5)  # 600 names
def test_funny_word_search_matches_per_candidate_loop(source, k, eps, samples, extra,
                                                      n_random, seed):
    src = _SEARCH_SOURCES[source]
    fam = funny.LambdaFamily(k=k, horizon=k + extra, n_random=n_random)
    got = funny.funny_word_search(src, fam, eps, samples, seed)
    ref = search_reference(src, fam, eps, samples, seed)
    assert [r.to_json_obj() for r in got.rows] == [r.to_json_obj() for r in ref.rows]
    assert got.best.to_json_obj() == ref.best.to_json_obj()


def search_unpack_all_reference(src, family, epsilon, samples, seed):
    """funny_word_search with every candidate's k rows unpacked at once and its
    majority counted on the unpacked bits: the row-chunked search must give the
    same rows, words, masses and best row."""
    bound = funny.non_at_bound(epsilon)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = family.candidates(rng)
    steps = src.sample_names(2 * samples, family.horizon, seed)
    below = np.arange(family.k + 1) / family.k < epsilon
    rows = []
    for lam in candidates:
        sub = np.unpackbits(steps[list(lam)], axis=1, count=2 * samples)
        word = 2 * np.count_nonzero(sub[:, :samples], axis=1) > samples
        mismatches = np.count_nonzero(sub[:, samples:] != word[:, None], axis=0)
        mass = np.count_nonzero(below[mismatches]) / samples
        se = math.sqrt(max(mass * (1.0 - mass), 1.0 / samples) / samples)
        rows.append(funny.SearchRow(indices=lam, word=tuple(int(b) for b in word),
                                    mass_below=mass, k_times_mass=family.k * mass,
                                    bound=bound, stderr=se))
    best = min(rows, key=lambda r: (-r.k_times_mass, r.indices, r.word))
    return funny.SearchReport(epsilon=epsilon, rows=rows, best=best)


# k around multiples of the 8 rows read at a time, and samples around whole bytes,
# so the training half ends inside a byte that the held-out half finishes
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(source=st.sampled_from(sorted(_SEARCH_SOURCES)),
       k=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 23, 33]),
       eps=st.sampled_from([0.1, 0.2, 1 / 3, 0.49]),
       samples=st.one_of(st.integers(1, 40), st.integers(1000, 1010)),
       extra=st.integers(0, 30), n_random=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(source="coin", k=9, eps=0.2, samples=13, extra=5, n_random=3, seed=1)
@example(source="tied", k=17, eps=0.49, samples=6, extra=0, n_random=2, seed=2)
@example(source="coin-0.3", k=23, eps=0.1, samples=1001, extra=30, n_random=6, seed=3)
@example(source="nil", k=15, eps=1 / 3, samples=7, extra=9, n_random=4, seed=4)
@example(source="coin", k=16, eps=0.2, samples=8, extra=1, n_random=1, seed=5)
def test_funny_word_search_matches_unpack_all_search(source, k, eps, samples, extra,
                                                     n_random, seed):
    src = _SEARCH_SOURCES[source]
    fam = funny.LambdaFamily(k=k, horizon=k + extra, n_random=n_random)
    got = funny.funny_word_search(src, fam, eps, samples, seed)
    ref = search_unpack_all_reference(src, fam, eps, samples, seed)
    assert [r.to_json_obj() for r in got.rows] == [r.to_json_obj() for r in ref.rows]
    assert got.best.to_json_obj() == ref.best.to_json_obj()


def test_funny_word_search_ties_go_to_zero():
    fam = funny.LambdaFamily(k=3, horizon=8, n_random=2)
    rep = funny.funny_word_search(_TiedSource(), fam, 1 / 3, samples=6, seed=2)
    assert all(r.word == (0, 0, 0) for r in rep.rows)
    # the test half is alternating names too: half sit at distance 0 from the word
    assert all(r.mass_below == 0.5 for r in rep.rows)


def test_funny_word_search_peak_memory():
    # the search reads one block of 2048 names at a time (256 KiB of step rows,
    # which the coin sampler reuses) and unpacks the held-out bits of 8 of a
    # candidate's 64 rows of that block at a time: about 1.0 MiB, against 3.1 MiB
    # with the whole sample's rows and 22 MiB when the search held the names as uint8
    fam = funny.LambdaFamily(k=64, horizon=1024, n_random=32)
    tracemalloc.start()
    try:
        funny.funny_word_search(systems.CoinSource(), fam, epsilon=0.1, samples=10000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_funny_word_search_peak_memory_does_not_grow_with_samples():
    # 80000 names hold 10 MiB of step rows; the search holds one block of them
    fam = funny.LambdaFamily(k=64, horizon=1024, n_random=32)
    funny.funny_word_search(systems.CoinSource(), fam, epsilon=0.1, samples=16, seed=3)
    peaks = []
    for samples in (10000, 40000):
        tracemalloc.start()
        try:
            funny.funny_word_search(systems.CoinSource(), fam, epsilon=0.1, samples=samples,
                                    seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


_EDGE_SOURCES = {
    "coin": systems.CoinSource(),
    "nil": systems.NilRotationSource(),
    "rudin-shapiro": systems.RudinShapiroSource(log2_length=12),
}


# with 600 steps a block holds 2048 names: the training half ends on a block edge
# or 3 names past one, and the whole sample ends on, just past or short of one
@pytest.mark.parametrize("source", sorted(_EDGE_SOURCES))
@pytest.mark.parametrize("samples", [1024, 1027, 2043, 2048, 2051, 3072, 3075])
def test_funny_word_search_matches_unpack_all_search_at_block_edges(source, samples):
    src = _EDGE_SOURCES[source]
    fam = funny.LambdaFamily(k=9, horizon=600, n_random=4)
    assert next(systems._block_rows(2**40, fam.horizon))[0].stop == 2048
    got = funny.funny_word_search(src, fam, 0.2, samples, seed=samples)
    ref = search_unpack_all_reference(src, fam, 0.2, samples, seed=samples)
    assert [r.to_json_obj() for r in got.rows] == [r.to_json_obj() for r in ref.rows]
    assert got.best.to_json_obj() == ref.best.to_json_obj()


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
