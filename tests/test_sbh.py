"""Tests for the SBH certificates, epsilon0, and the signed-form searches."""

import dataclasses
import math
import time
import tracemalloc
import types
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlab import fourier, sbh


def _table(pairs, N):
    nn = np.zeros(N + 1, dtype=complex)
    nn[0] = 1.0
    for n, v in pairs:
        nn[n] = v
    return fourier.FourierTable.from_nonneg(nn)


def test_epsilon0_bracket_and_residual(exact):
    p = exact.cubic
    assert p(0.0) > 0.0
    assert p(0.2) < 0.0
    e = sbh.epsilon0()
    assert 0.106 < e < 0.107
    assert abs(p(e)) <= 1e-12


def test_threshold_bracket_changes_sign_in_exact_rationals(exact):
    # p'(t) = -2(1 - 2t)^2 - 8(1 - t)(1 - 2t) - 1 < 0 on [0, 1/2), so p has one
    # root in (0, 0.2), and it lies between these adjacent doubles
    p = exact.cubic
    lo, hi = 0.10653972732909289, 0.1065397273290929
    assert math.nextafter(lo, 1.0) == hi
    assert p(Fraction(lo)) > 0 > p(Fraction(hi))
    # the exact comparator puts them on either side of the root
    assert not sbh._above_eps0(*lo.as_integer_ratio())
    assert sbh._above_eps0(*hi.as_integer_ratio())
    # epsilon0() lies above the root by less than 3e-15
    e = Fraction(sbh.epsilon0())
    assert p(e) < 0 < p(e - Fraction(3, 10**15))


def test_epsilon0_cached():
    assert sbh.epsilon0() is not None
    assert sbh.epsilon0() == sbh.epsilon0()


def blum_hanson(t, idx):
    """(1/k^2) sum_{i,j} c(n_i - n_j): the signed form with equal signs, over k."""
    return sbh.sbh_form(t, idx, (0,) * len(idx)) / len(idx)


def test_blum_hanson_lebesgue():
    t = fourier.lebesgue_table(16)
    for idx in [(0,), (0, 3), (1, 4, 9), tuple(range(8))]:
        assert blum_hanson(t, idx) == pytest.approx(1.0 / len(idx), abs=1e-15)


def test_blum_hanson_dirac():
    t = fourier.dirac_table(16)
    assert blum_hanson(t, (0, 2, 5, 11)) == pytest.approx(1.0, abs=1e-15)


def test_blum_hanson_geometric():
    t = _table([(1, 0.5), (2, 0.25)], 2)
    v = blum_hanson(t, (0, 1, 2))
    assert v == pytest.approx((3 + 4 * 0.5 + 2 * 0.25) / 9.0, abs=1e-15)


def test_blum_hanson_rejects_non_monotone():
    # the one case the index check rejects: indices that do not increase
    with pytest.raises(ValueError, match="strictly increasing"):
        sbh.sbh_form(fourier.lebesgue_table(4), (3, 1), (0, 0))


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
    double_sum = sum(t.at(i - j) for i in idx for j in idx)
    assert sbh.sbh_form(t, idx, (0, 0, 0)) == pytest.approx(
        double_sum.real / len(idx), abs=1e-14)


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
        assert sbh.sbh_sup_exhaustive(t, k, w)[0] == 1.0


def test_exhaustive_dirac():
    t = fourier.dirac_table(24)
    assert sbh.sbh_sup_exhaustive(t, 4, 8)[0] == pytest.approx(4.0, abs=1e-12)


def test_exhaustive_small_table():
    t = _table([(1, 0.4)], 4)
    assert sbh.sbh_sup_exhaustive(t, 2, 4)[0] == pytest.approx(1.4, abs=1e-15)


def test_exhaustive_witness_attains_value():
    t = fourier.riesz_product([1.0, 0.8], [1, 3], 8)
    val, idx, eta = sbh.sbh_sup_exhaustive(t, 3, 8)
    assert sbh.sbh_form(t, idx, eta) == pytest.approx(val, abs=1e-12)


def test_exhaustive_window_monotonicity():
    t = fourier.riesz_product([0.9, 0.6], [1, 5], 12)
    vals = [sbh.sbh_sup_exhaustive(t, 3, w)[0] for w in range(3, 13)]
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
        sup = sbh.sbh_sup_exhaustive(t, 4, 9)[0]
        assert sup <= 1.0 + fourier.l1_tail(t) + 1e-9


def full_scan_sup_exhaustive(t, k, window):
    """Reference exhaustive search without pruning: every subset that holds 0,
    in subset order, ranked by the sign-pair sums P @ g of one matrix product
    per chunk of 2^21 sums (lowest sign pattern, then lowest subset, among
    equal maxima); the value is the witness's ``sbh_form``."""
    S = sbh._sign_matrix(k)
    iu, ju = np.triu_indices(k, 1)
    P = S[:, iu] * S[:, ju]
    G = np.real(t.gram(np.arange(window)))
    subsets = np.zeros((math.comb(window - 1, k - 1), k), dtype=int)
    subsets[:, 1:] = list(combinations(range(1, window), k - 1))
    chunk = max(1, 2**21 // len(S))
    best = (-math.inf, 0, 0)
    for lo in range(0, len(subsets), chunk):
        sub = subsets[lo:lo + chunk]
        sums = P @ G[sub[:, iu], sub[:, ju]].T
        a, s = np.unravel_index(np.argmax(sums), sums.shape)
        if sums[a, s] > best[0] or (sums[a, s] == best[0] and a < best[1]):
            best = (sums[a, s], a, lo + s)
    idx = tuple(int(x) for x in subsets[best[2]])
    eta = tuple(0 if x > 0 else 1 for x in S[best[1]])
    return sbh.sbh_form(t, idx, eta), idx, eta


def einsum_sup_exhaustive(t, k, window):
    """Reference exhaustive search: every k-subset of [0, window) gathers its
    Gram matrix and one einsum forms every signed value (lowest sign pattern,
    then lowest subset, among equal maxima)."""
    S = sbh._sign_matrix(k)
    subsets = np.array(list(combinations(range(window), k)), dtype=int)
    vals = np.einsum("ai,sij,aj->as", S, np.real(t.gram(subsets)), S) / k
    a_best, s_best = np.unravel_index(np.argmax(vals), vals.shape)
    idx = tuple(int(x) for x in subsets[s_best])
    eta = tuple(0 if x > 0 else 1 for x in S[a_best])
    return float(vals[a_best, s_best]), idx, eta


@st.composite
def small_tables(draw):
    """Real or complex Hermitian tables with |c(n)| < 1, c(0) = 1 and N <= 14,
    so a window of up to 12 also reaches lags past N (gathered as 0)."""
    N = draw(st.integers(0, 14))
    part = st.floats(-0.7, 0.7)
    nn = np.array([1.0] + draw(st.lists(part, min_size=N, max_size=N)), dtype=complex)
    if draw(st.booleans()):
        nn[1:] += 1j * np.array(draw(st.lists(part, min_size=N, max_size=N)))
    return fourier.FourierTable.from_nonneg(nn)


@pytest.mark.parametrize("k", range(1, 7))
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(t=small_tables(), extra=st.integers(0, 6))
def test_exhaustive_matches_einsum_reference(k, t, extra):
    window = k + extra
    ref = einsum_sup_exhaustive(t, k, window)[0]
    val, idx, eta = sbh.sbh_sup_exhaustive(t, k, window)
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
    assert sbh.sbh_form(t, idx, eta) == val
    assert idx[0] == 0
    assert eta[0] == 0


@st.composite
def wide_tables(draw):
    """Real or complex tables with N <= 24, scaled so that the pair bound
    prunes much, little or nothing."""
    N = draw(st.integers(0, 24))
    part = st.floats(-0.7, 0.7)
    nn = np.array([1.0] + draw(st.lists(part, min_size=N, max_size=N)), dtype=complex)
    if draw(st.booleans()):
        nn[1:] += 1j * np.array(draw(st.lists(part, min_size=N, max_size=N)))
    nn[1:] *= draw(st.sampled_from([1e-3, 0.1, 0.4, 1.0]))
    return fourier.FourierTable.from_nonneg(nn)


@pytest.mark.parametrize("k, window", [(1, 13), (2, 20), (3, 14), (5, 13), (6, 18), (7, 20),
                                       (8, 16), (9, 17), (10, 13), (10, 16)])
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(t=wide_tables())
def test_pruned_search_matches_full_scan(k, window, t):
    assert sbh.sbh_sup_exhaustive(t, k, window) == full_scan_sup_exhaustive(t, k, window)


_K10_TABLES = {
    "sqrt": fourier.sqrt_template(0.3, 256),
    "riesz": fourier.riesz_product([0.9, 0.7, 0.5], [1, 3, 9], 64),
    "mixed-signs": fourier.FourierTable.from_nonneg(
        0.4 * np.cos(2 * np.pi * 0.37 * np.arange(65)) / np.sqrt(np.maximum(np.arange(65), 1))
        + (np.arange(65) == 0) * 0.6),
}


@pytest.mark.parametrize("table", list(_K10_TABLES.values()), ids=list(_K10_TABLES))
def test_pruned_search_matches_full_scan_at_k10_w18(table):
    assert sbh.sbh_sup_exhaustive(table, 10, 18) == full_scan_sup_exhaustive(table, 10, 18)


def test_exhaustive_k12_window24_sqrt():
    # the pair bound stops the search after its first chunk of subsets
    t = fourier.sqrt_template(0.3, 1024)
    t0 = time.perf_counter()
    val, idx, eta = sbh.sbh_sup_exhaustive(t, 12, 24)
    assert time.perf_counter() - t0 < 5.0
    assert val == sbh.sbh_form(t, idx, eta)
    assert len(idx) == 12 and idx[0] == 0 and eta[0] == 0
    assert val >= sbh.sbh_sup_heuristic(t, 12, 24, budget=200)[0]


def test_exhaustive_unprunable_k12_window24_exceeds_budget():
    # every form of a Lebesgue table ties, so no pair bound falls below the best
    with pytest.raises(ValueError, match="budget"):
        sbh.sbh_sup_exhaustive(fourier.lebesgue_table(4), 12, 24)


def test_exhaustive_ties_keep_reference_witness():
    # every signed form of a Lebesgue table is 1: the lowest sign pattern and
    # the lowest subset win, as in the reference, also across chunks (k = 10,
    # w = 16 takes two)
    t = fourier.lebesgue_table(4)
    assert sbh.sbh_sup_exhaustive(t, 4, 10) == einsum_sup_exhaustive(t, 4, 10)
    assert sbh.sbh_sup_exhaustive(t, 10, 16) == (1.0, tuple(range(10)), (0,) * 10)


def _riesz_k10():
    return fourier.riesz_product([0.9, 0.7, 0.5], [1, 3, 9], 64)


def test_exhaustive_k10_time():
    # the pair bound prunes after one chunk of sign-pair sums: about 0.01 s on 2
    # cores, against 0.6-1.2 s for the einsum over all C(16, 10) subsets
    t = _riesz_k10()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        sbh.sbh_sup_exhaustive(t, 10, 16)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.25


def test_exhaustive_k10_memory():
    # one chunk of 2^16 sign-pair sums is 0.5 MiB; 2^19 sums (4 MiB) fail, and
    # the einsum peaked at 38.4 MiB
    t = _riesz_k10()
    tracemalloc.start()
    try:
        sbh.sbh_sup_exhaustive(t, 10, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


_CHUNKS = [2**10, 2**13, 2**16, 2**19]


@pytest.mark.parametrize("t, k, window", [
    *((table, 10, 18) for table in _K10_TABLES.values()),
    (fourier.lebesgue_table(4), 4, 10),
    (fourier.lebesgue_table(4), 10, 16),
], ids=[*_K10_TABLES, "lebesgue-k4", "lebesgue-k10"])
def test_exhaustive_result_does_not_depend_on_chunk_size(monkeypatch, t, k, window):
    # chunks split the ranked subsets, never a subset's sign patterns, and ties
    # keep the lowest sign pattern, then the lowest subset, across chunks
    results = set()
    for chunk in _CHUNKS:
        monkeypatch.setattr(sbh, "_CHUNK_FORMS", chunk)
        results.add(sbh.sbh_sup_exhaustive(t, k, window))
    assert len(results) == 1


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_exhaustive_budget_counts_from_the_first_2_19_forms(monkeypatch, chunk):
    # the count runs once the visited chunks cover the first 2^19 forms, whatever
    # a chunk holds; a Lebesgue table prunes nothing
    monkeypatch.setattr(sbh, "_CHUNK_FORMS", chunk)
    with pytest.raises(ValueError, match="exhaustive search budget exceeded"):
        sbh.sbh_sup_exhaustive(fourier.lebesgue_table(4), 12, 24)


def test_certify_over_the_exhaustive_budget_keeps_the_heuristic():
    # where sbh_sup_exhaustive raises (above), certify reports no exhaustive witness
    # and decides from l1, the density and the heuristic witness
    t = fourier.lebesgue_table(4)
    rep = sbh.certify(t, k=12, window=24, heuristic_budget=100, seed=1)
    assert (rep.exhaustive_sup, rep.exhaustive_params, rep.exhaustive_witness) == (None,) * 3
    assert rep.heuristic_sup == pytest.approx(1.0, abs=1e-12)
    assert len(rep.heuristic_witness["indices"]) == 12
    assert rep.verdict == "CERTIFIED_SBH"


def test_heuristic_lebesgue():
    t = fourier.lebesgue_table(16)
    assert sbh.sbh_sup_heuristic(t, 5, 12, budget=200, seed=0)[0] == pytest.approx(
        1.0, abs=1e-12)


def test_heuristic_dirac_alignment():
    t = fourier.dirac_table(24)
    assert sbh.sbh_sup_heuristic(t, 8, 16, budget=200, seed=0)[0] == pytest.approx(
        8.0, abs=1e-12)


def test_heuristic_below_exhaustive():
    t = fourier.riesz_product([0.9, 0.7], [2, 6], 12)
    for seed in range(3):
        h = sbh.sbh_sup_heuristic(t, 4, 10, budget=500, seed=seed)[0]
        e = sbh.sbh_sup_exhaustive(t, 4, 10)[0]
        assert h <= e + 1e-12


def test_heuristic_deterministic():
    t = fourier.riesz_product([0.8, 0.8], [1, 3], 10)
    a = sbh.sbh_sup_heuristic(t, 4, 10, budget=300, seed=42)
    b = sbh.sbh_sup_heuristic(t, 4, 10, budget=300, seed=42)
    assert a == b


@st.composite
def families(draw, tables):
    """A table, a window and a signed family in it."""
    t = draw(tables)
    window = draw(st.integers(1, 12))
    k = draw(st.integers(1, window))
    idx = sorted(draw(st.lists(st.integers(0, window - 1), min_size=k, max_size=k,
                               unique=True)))
    signs = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    return t, window, tuple(idx), tuple(signs)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(fam=families(small_tables()), data=st.data())
def test_flip_and_move_gains_are_k_times_the_form_change(fam, data):
    # the heuristic's gains in x G x: a flip of member p gains
    # -4 x_p (h_p - G_pp x_p), a move p -> q at sign s gains
    # -2 x_p h_p + G_pp + G_qq + 2 s (h_q - x_p G_pq)
    t, window, idx, signs = fam
    k = len(idx)
    x = np.zeros(window)
    x[list(idx)] = [1.0 - 2.0 * e for e in signs]
    G = np.real(t.gram(np.arange(window)))
    h = G @ x
    form = sbh.sbh_form(t, idx, signs)
    i = data.draw(st.integers(0, k - 1))
    p = idx[i]
    flipped = signs[:i] + (1 - signs[i],) + signs[i + 1:]
    gain = -4 * x[p] * (h[p] - G[p, p] * x[p])
    assert gain == pytest.approx(k * (sbh.sbh_form(t, idx, flipped) - form), abs=1e-12)
    free = [q for q in range(window) if q not in idx]
    if free:
        q, e = data.draw(st.sampled_from(free)), data.draw(st.integers(0, 1))
        moved = sorted(zip(idx[:i] + idx[i + 1:] + (q,), signs[:i] + signs[i + 1:] + (e,)))
        gain = -2 * x[p] * h[p] + G[p, p] + G[q, q] + 2 * (1 - 2 * e) * (h[q] - x[p] * G[p, q])
        new = sbh.sbh_form(t, [a for a, _ in moved], [b for _, b in moved])
        assert gain == pytest.approx(k * (new - form), abs=1e-12)


def _best_neighbour(t, idx, signs, window):
    """Largest sbh_form over all flips of one sign and all moves of one member
    to an unused index at either sign."""
    best = -math.inf
    for i in range(len(idx)):
        rest = list(zip(idx[:i] + idx[i + 1:], signs[:i] + signs[i + 1:]))
        for q, e in [(idx[i], 1 - signs[i])] + [(q, e) for q in range(window)
                                                  if q not in idx for e in (0, 1)]:
            fam = sorted(rest + [(q, e)])
            best = max(best, sbh.sbh_form(t, [a for a, _ in fam], [b for _, b in fam]))
    return best


class _FixedStarts:
    """Stands in for random.Random: every restart is the same signed family."""

    def __init__(self, indices, signs):
        self.indices, self.signs = list(indices), [1.0 - 2.0 * e for e in signs]

    def __call__(self, seed):
        return self

    def sample(self, population, k):
        return self.indices

    def choices(self, population, k):
        return self.signs


def test_a_step_from_a_neighbour_of_the_optimum_reaches_it():
    # where the greedy start is a local optimum below the exact one, a budget of
    # two steps restarts at a family one flip or move from the optimum and takes
    # one step: the best flip or move, back to the optimum
    rng = np.random.default_rng(24)
    checked = 0
    for trial in range(400):
        N, window = rng.integers(0, 15), rng.integers(2, 13)
        k = int(rng.integers(1, min(window - 1, 8) + 1))
        t = fourier.FourierTable.from_nonneg(np.r_[1.0, rng.uniform(-0.7, 0.7, N)])
        start, sidx, ssigns = sbh.sbh_sup_heuristic(t, k, window, budget=0)
        sup, idx, signs = sbh.sbh_sup_exhaustive(t, k, window)
        if _best_neighbour(t, sidx, ssigns, window) > start + 1e-10 or start >= sup - 1e-9:
            continue
        i = int(rng.integers(k))
        if trial % 2:
            q, e = idx[i], 1 - signs[i]
        else:
            q, e = int(rng.choice([q for q in range(window) if q not in idx])), int(rng.integers(2))
        fam = sorted(list(zip(idx[:i] + idx[i + 1:], signs[:i] + signs[i + 1:])) + [(q, e)])
        fidx, fsigns = [a for a, _ in fam], [b for _, b in fam]
        if sbh.sbh_form(t, fidx, fsigns) >= sup - 1.1e-9:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sbh, "random", types.SimpleNamespace(Random=_FixedStarts(fidx, fsigns)))
            val = sbh.sbh_sup_heuristic(t, k, window, budget=2 * k * (window - k + 1))[0]
        assert val == pytest.approx(sup, abs=1e-12), (trial, fidx, fsigns)
        checked += 1
    assert checked >= 20


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(t=small_tables(), window=st.integers(1, 12), data=st.data())
def test_heuristic_value_is_its_witness_form_and_within_bounds(t, window, data):
    # exactly the witness's sbh_form; at least the greedy start's value and at
    # most the exact supremum
    k = data.draw(st.integers(1, min(window, 8)))
    budget, seed = data.draw(st.integers(0, 3000)), data.draw(st.integers(0, 2**32))
    val, idx, signs = sbh.sbh_sup_heuristic(t, k, window, budget=budget, seed=seed)
    assert val == sbh.sbh_form(t, idx, signs)
    assert len(idx) == k and list(idx) == sorted(set(idx)) and 0 <= idx[0] <= idx[-1] < window
    assert set(signs) <= {0, 1}
    assert val >= sbh.sbh_sup_heuristic(t, k, window, budget=0)[0] - 1e-12
    assert val <= sbh.sbh_sup_exhaustive(t, k, window)[0] + 1e-12
    assert sbh.sbh_sup_heuristic(t, k, window, budget=budget, seed=seed) == (val, idx, signs)


def _narrow_peak_table():
    n = np.arange(513)
    c = 0.004 * np.cos(2 * np.pi * (np.sqrt(5) - 1) / 2 * n) * np.exp(-n / 40)
    c[0] = 1.0
    return fourier.FourierTable.from_nonneg(c)


def test_heuristic_k64_window256():
    # the bar: a random-move search of 2000 moves at seed 1 took 1.4 s to reach
    # 1.0897219863039163 here
    t = _narrow_peak_table()
    t0 = time.perf_counter()
    val, idx, signs = sbh.sbh_sup_heuristic(t, 64, 256, budget=10**6, seed=1)
    assert time.perf_counter() - t0 < 1.0
    assert val >= 1.0897219863039163
    assert val == sbh.sbh_form(t, idx, signs) and len(idx) == 64


@pytest.mark.parametrize("c, k, window, budget, seed", [
    ([1.0, -0.5, 0.0, 0.5, 0.25, 0.0, 0.0, -0.25], 4, 15, 288, 36),
    ([1.0, 0.5, -0.5, 0.5, 0.0, -0.5, 0.25, -0.25], 5, 8, 100, 0),
    ([1.0, 0.5, -0.5, 0.25, 0.25], 5, 13, 180, 27),
    (_narrow_peak_table().coeffs.real, 6, 40, 2000, 3),
], ids=["ties-k4", "ties-k5", "ties-k5-wide", "narrow-peak"])
def test_heuristic_result_does_not_depend_on_block_size(monkeypatch, c, k, window, budget, seed):
    # a step scores its rows a block at a time and keeps the first maximum in
    # row-major order across blocks, as one whole-window block does; the tables
    # with ties reach other witnesses when a later block wins a tie
    t = fourier.FourierTable.from_nonneg(c)
    results = set()
    for chunk in (1, 2 * k + 1, 2**16):
        monkeypatch.setattr(sbh, "_CHUNK_FORMS", chunk)
        results.add(sbh.sbh_sup_heuristic(t, k, window, budget=budget, seed=seed))
    assert len(results) == 1


def test_heuristic_rejects_negative_seed():
    with pytest.raises(ValueError, match="need seed >= 0"):
        sbh.sbh_sup_heuristic(fourier.lebesgue_table(4), 2, 4, seed=-1)


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


def test_certify_not_sbh_discounts_the_tail():
    # the k = 4 witness 1.108 clears 1 + eps0 by 0.0015, but a tail of 0.04 may
    # move any k = 4 form by (3/4) 0.04 = 0.03: no NOT_SBH claim
    nn = np.array([1.0, 0.072], dtype=complex)
    rep = sbh.certify(fourier.FourierTable.from_nonneg(nn, tail_bound=0.04), k=4, window=4)
    assert rep.exhaustive_sup == pytest.approx(1.108, abs=1e-12)
    assert rep.verdict == "UNDECIDED"
    assert rep.note == ""
    rep = sbh.certify(fourier.FourierTable.from_nonneg(nn), k=4, window=4)
    assert rep.verdict == "CERTIFIED_NOT_SBH"
    # a witness far above 1 + eps0 survives a tail
    rep = sbh.certify(fourier.FourierTable.from_nonneg(np.ones(17), tail_bound=0.5), k=4)
    assert rep.verdict == "CERTIFIED_NOT_SBH"


def test_certify_sbh_side_is_sound_at_the_root():
    # epsilon0() lies above the exact root, so an l1 sum equal to it certifies
    # nothing, although 1 + l1 <= 1 + epsilon0()
    e = sbh.epsilon0()
    rep = sbh.certify(fourier.FourierTable.from_nonneg(np.array([1.0, e / 2])), k=2, window=2)
    assert rep.l1_certificate <= 1.0 + e
    assert rep.verdict == "UNDECIDED"
    # well below the bracket the l1 certificate still decides
    rep = sbh.certify(fourier.FourierTable.from_nonneg(np.array([1.0, 0.05])), k=2, window=2)
    assert rep.verdict == "CERTIFIED_SBH"


@pytest.mark.parametrize("c1, verdict", [(0.10653972732909289, "UNDECIDED"),
                                         (0.1065397273290929, "CERTIFIED_NOT_SBH")])
def test_certify_not_sbh_side_is_exact_to_one_ulp(c1, verdict):
    # at k = 2 the best form is exactly 1 + c(1), and the two adjacent doubles
    # lie on either side of eps0
    rep = sbh.certify(fourier.FourierTable.from_nonneg(np.array([1.0, c1])), k=2, window=2)
    assert rep.exhaustive_sup == pytest.approx(1.0 + c1, abs=1e-15)
    assert rep.verdict == verdict


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_tail_moves_a_form_by_at_most_k_minus_1_over_k(data):
    # the true coefficients differ from the table's by delta with
    # sum_n |delta(n)| = T over all n; lags past the table read 0 there
    N = data.draw(st.integers(0, 10))
    M = N + data.draw(st.integers(0, 10))
    part = st.floats(-0.5, 0.5)
    nn = np.zeros(M + 1, dtype=complex)
    nn[0] = 1.0
    nn[1:N + 1] = [complex(data.draw(part), data.draw(part)) for _ in range(N)]
    raw = np.array([complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
                    for _ in range(M)])
    T = data.draw(st.floats(0.0, 0.5))
    if np.any(raw):
        nn[1:] += raw * (T / (2.0 * float(np.sum(np.abs(raw)))))
    table = fourier.FourierTable.from_nonneg(nn[:N + 1])
    true = fourier.FourierTable.from_nonneg(nn)
    k = data.draw(st.integers(1, min(8, M + 1)))
    idx = sorted(data.draw(st.lists(st.integers(0, M), min_size=k, max_size=k, unique=True)))
    signs = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    diff = abs(sbh.sbh_form(true, idx, signs) - sbh.sbh_form(table, idx, signs))
    assert diff <= (k - 1) / k * T + 1e-12


def _ulps_away(x: float, j: int) -> float:
    for _ in range(abs(j)):
        x = math.nextafter(x, math.copysign(math.inf, j))
    return x


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_exact_decision_matches_a_fraction_reference(data, exact):
    # random real and complex tables, tails and witnesses, some placed within a
    # few ulps of the threshold: the witness check and the whole verdict agree
    # with the reference in Fraction
    eps, near = exact.eps0, data.draw(st.integers(-4, 4))
    cplx = data.draw(st.booleans())
    part = st.floats(-0.7, 0.7)

    def coeff():
        return complex(data.draw(part), data.draw(part) if cplx else 0.0)

    N = data.draw(st.integers(1, 8))
    nn = np.array([1.0] + [coeff() for _ in range(N)])
    k = data.draw(st.integers(1, 8))
    idx = sorted(data.draw(st.lists(st.integers(0, 12), min_size=k, max_size=k, unique=True)))
    signs = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    T = data.draw(st.floats(0.0, 0.3))
    excess = exact.form(fourier.FourierTable.from_nonneg(nn), idx, signs) - 1
    if k > 1 and excess > eps and data.draw(st.booleans()):
        # the tail that brings this witness within a few ulps of 1 + eps0
        T = _ulps_away(float((excess - eps) * k / (k - 1)), near)
    t = fourier.FourierTable.from_nonneg(nn, tail_bound=T)
    assert sbh._clears_eps0(t, idx, signs) == exact.clears(t, idx, signs)
    # tables whose verdict sits at the threshold: k = 2 decides on 1 + |Re c(1)|
    # less T/2, the l1 side on 2 |c(1)| (1 + 3 2^-52)
    side = data.draw(st.sampled_from(["random", "witness", "l1"]))
    rot = complex(1.0, data.draw(part)) if cplx else 1.0
    if side == "witness":
        c1 = _ulps_away(float(eps + Fraction(T) / 2), near)
        t = fourier.FourierTable.from_nonneg([1.0, complex(c1, rot.imag * c1)], tail_bound=T)
    elif side == "l1":
        r = _ulps_away(float(eps / (2 * (1 + Fraction(3, 2**52)))), near)
        t = fourier.FourierTable.from_nonneg([1.0, rot / abs(rot) * r])
    kk = min(k, 4) if side == "random" else 2
    rep = sbh.certify(t, k=kk, window=data.draw(st.integers(kk, 6)),
                      heuristic_budget=data.draw(st.sampled_from([0, 30])))
    assert rep.verdict == exact.verdict(t, rep)


def _clears_eps0_by_pairs(t, indices, signs) -> tuple[int, bool]:
    """The k^2 reference of `_k_form` and `_clears_eps0`: every signed Gram entry
    +-Re c(n_i - n_j) in units of 2^-1074, then the same comparison."""
    s = [1 - 2 * e for e in signs]
    g = np.real(t.gram(np.asarray(indices))).tolist()
    k_form = sum(a * b * sbh._ulps(x) for a, row in zip(s, g) for b, x in zip(s, row))
    k = len(s)
    return k_form, sbh._above_eps0(k_form - (k - 1) * sbh._ulps(t.tail_bound) - k * sbh._ULP,
                                   k * sbh._ULP)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_k_form_by_lag_matches_the_pair_sum(data, exact):
    # random real and complex tables, witnesses and tails: arithmetic progressions
    # repeat each lag up to k - 1 times, indices past N give lags the table does
    # not hold, and some tails put the witness within a few ulps of 1 + eps0; each
    # witness and its first index alone (k = 1) give the reference's integer
    N = data.draw(st.integers(0, 12))
    cplx = data.draw(st.booleans())
    part = st.floats(-0.7, 0.7)
    nn = [1.0] + [complex(data.draw(part), data.draw(part) if cplx else 0.0) for _ in range(N)]
    k = data.draw(st.integers(1, 24))
    if data.draw(st.booleans()):
        start, step = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        idx = [start + step * i for i in range(k)]
    else:
        idx = sorted(data.draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True)))
    signs = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    T = data.draw(st.floats(0.0, 0.5))
    k_form, _ = _clears_eps0_by_pairs(fourier.FourierTable.from_nonneg(nn), idx, signs)
    excess = Fraction(k_form, sbh._ULP) - k * (1 + exact.eps0)
    if k > 1 and excess > 0 and data.draw(st.booleans()):
        T = _ulps_away(float(excess / (k - 1)), data.draw(st.integers(-4, 4)))
    t = fourier.FourierTable.from_nonneg(nn, tail_bound=T)
    for i, e in ((idx, signs), (idx[:1], signs[:1])):
        want, clears = _clears_eps0_by_pairs(t, i, e)
        assert sbh._k_form(t, i, e) == want
        assert sbh._clears_eps0(t, i, e) == clears
