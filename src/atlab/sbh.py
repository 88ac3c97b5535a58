"""Strongly-Blum-Hanson certificates for circle-measure Fourier tables.

The SBH quantity is a limsup over k of a supremum over all signed index
families, which no finite computation decides.  What we can do honestly:

* certify SBH via two sufficient conditions (small l1 tail, or a certified
  flat density bound),
* certify NOT SBH via an explicit witnessed form value above 1 + eps0 by
  more than the table's tail can move it (a lower bound for the sup at that
  k; the limsup claim stays heuristic),
* otherwise report UNDECIDED.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fourier import FourierTable, density_sup, l1_tail

_EXHAUSTIVE_BUDGET = 10**8
# sign-pair sums held at once by the exhaustive search (16 MiB of float64)
_CHUNK_FORMS = 2**21

NOT_SBH_CAVEAT = (
    "finite witnesses bound the supremum from below at fixed k; "
    "the limsup_k claim is heuristic"
)


def _eps0_poly(t: float) -> float:
    return 2.0 * (1.0 - t) * (1.0 - 2.0 * t) ** 2 - 1.0 - t


@functools.lru_cache(maxsize=1)
def epsilon0() -> float:
    """Unique zero in (0, 0.2) of 2(1-t)(1-2t)^2 - 1 - t, by bisection."""
    lo, hi = 0.0, 0.2
    assert _eps0_poly(lo) > 0.0 and _eps0_poly(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = _eps0_poly(mid)
        if abs(v) <= 1e-13:
            return mid
        if v > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_indices(indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a nonempty 1-d sequence")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("indices must be strictly increasing")
    return idx


def sbh_form(t: FourierTable, indices, signs) -> float:
    """(1/k) sum_{i,j} (-1)^{eta_i + eta_j} c(n_i - n_j)."""
    idx = _check_indices(indices)
    eta = np.asarray(signs, dtype=int)
    if eta.shape != idx.shape:
        raise ValueError("indices and signs must have equal length")
    s = np.where(eta % 2 == 0, 1.0, -1.0)
    return float(s @ np.real(t.gram(idx)) @ s) / idx.size


def _sign_matrix(k: int) -> np.ndarray:
    """All +-1 vectors of length k with first entry fixed to +1."""
    m = 2 ** (k - 1)
    bits = (np.arange(m)[:, None] >> np.arange(k - 1)[None, :]) & 1
    S = np.ones((m, k))
    S[:, 1:] = 1.0 - 2.0 * bits
    return S


def sbh_sup_exhaustive(t: FourierTable, k: int, window: int):
    """Exact max of the signed form over k-subsets of [0, window) and all signs,
    as (value, indices, signs).

    Signs are canonicalized by fixing the first one (global flips leave the
    form invariant).  The form depends only on the differences n_i - n_j, so
    every subset ties with its translate that holds 0, and only those
    C(window - 1, k - 1) subsets are visited.  With G the real window Toeplitz
    and P[a, p] = s_a[i_p] s_a[j_p] over the pairs i_p < j_p, k times the form
    is k c(0) + 2 (P @ g)[a], g[p] = G[n_{i_p}, n_{j_p}]; the search ranks the
    sign-pair sums P @ g, one matrix product per chunk of subsets.  Among equal
    sums the lowest sign pattern wins, then the lowest subset; the value is
    the witness's own ``sbh_form``.
    """
    if not 1 <= k <= 12:
        raise ValueError("need 1 <= k <= 12")
    if not k <= window <= 24:
        raise ValueError("need k <= window <= 24")
    if math.comb(window, k) * 2**k > _EXHAUSTIVE_BUDGET:
        raise ValueError("exhaustive search budget exceeded")
    S = _sign_matrix(k)
    iu, ju = np.triu_indices(k, 1)
    P = S[:, iu] * S[:, ju]
    G = np.real(t.gram(np.arange(window)))
    subsets = np.zeros((math.comb(window - 1, k - 1), k), dtype=int)
    subsets[:, 1:] = list(combinations(range(1, window), k - 1))
    chunk = max(1, _CHUNK_FORMS // len(S))
    best = (-math.inf, 0, 0)
    for lo in range(0, len(subsets), chunk):
        sub = subsets[lo:lo + chunk]
        sums = P @ G[sub[:, iu], sub[:, ju]].T
        a, s = np.unravel_index(np.argmax(sums), sums.shape)
        if sums[a, s] > best[0] or (sums[a, s] == best[0] and a < best[1]):
            best = (sums[a, s], a, lo + s)
    idx = tuple(int(x) for x in subsets[best[2]])
    eta = tuple(0 if x > 0 else 1 for x in S[best[1]])
    return sbh_form(t, idx, eta), idx, eta


def sbh_sup_heuristic(t: FourierTable, k: int, window: int,
                      budget: int = 2000, seed: int = 0):
    """Greedy growth plus local moves; a deterministic lower bound for the sup,
    as (value, indices, signs)."""
    if k < 1 or window < k:
        raise ValueError("need 1 <= k <= window")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def value(idx, s):
        return float(np.asarray(s) @ np.real(t.gram(idx)) @ s) / len(idx)

    # greedy: grow the index set one element at a time, trying both signs
    idx, s = [0], [1.0]
    for _ in range(k - 1):
        best = None
        for cand in range(window):
            if cand in idx:
                continue
            for sign in (1.0, -1.0):
                trial_idx = sorted(idx + [cand])
                pos = trial_idx.index(cand)
                trial_s = s[:pos] + [sign] + s[pos:]
                v = value(trial_idx, trial_s)
                if best is None or v > best[0]:
                    best = (v, trial_idx, trial_s)
        _, idx, s = best
    best_v = value(idx, s)
    best_idx, best_s = list(idx), list(s)
    # local moves: flip one sign, or swap one index for an unused one
    for _ in range(budget):
        idx2, s2 = list(best_idx), list(best_s)
        if rng.random() < 0.5:
            p = int(rng.integers(k))
            s2[p] = -s2[p]
        else:
            unused = [c for c in range(window) if c not in idx2]
            if not unused:
                continue
            p = int(rng.integers(k))
            c = unused[int(rng.integers(len(unused)))]
            sign = s2[p]
            del idx2[p], s2[p]
            q = int(np.searchsorted(idx2, c))
            idx2.insert(q, c)
            s2.insert(q, sign)
        v = value(idx2, s2)
        if v > best_v:
            best_v, best_idx, best_s = v, idx2, s2
    eta = tuple(0 if x > 0 else 1 for x in best_s)
    return best_v, tuple(best_idx), eta


@dataclass
class SbhReport:
    epsilon0: float
    l1_certificate: float
    density_certificate: float
    verdict: str
    exhaustive_sup: float | None = None
    exhaustive_params: tuple[int, int] | None = None
    exhaustive_witness: dict | None = None
    heuristic_sup: float | None = None
    heuristic_witness: dict | None = None
    note: str = ""


def certify(t: FourierTable, k: int = 4, window: int = 8,
            heuristic_budget: int = 0, seed: int = 0) -> SbhReport:
    """Assemble SBH certificates and a verdict for a Fourier table.

    The density certificate reads a grid of max(4N + 4, 64) points.  A witness
    found at the searched k (k clamped to 12) gives NOT_SBH only when its form
    minus ((k - 1)/k) tail_bound exceeds 1 + eps0: the true form differs from
    the table's by (1/k) sum_{i != j} +-(c_true - c_table)(n_i - n_j), and each
    nonzero difference occurs in at most k - 1 ordered pairs.  Raises
    ValueError for k < 1 or heuristic_budget < 0, which no search can honour.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if heuristic_budget < 0:
        raise ValueError(f"need a heuristic budget >= 0, got {heuristic_budget}")
    eps = epsilon0()
    l1_cert = 1.0 + l1_tail(t)
    dens_cert = density_sup(t, max(4 * t.half_width + 4, 64)).certified_upper
    kk = min(k, 12)
    ww = min(max(window, kk), 24)
    exh, idx, eta = sbh_sup_exhaustive(t, kk, ww)
    exh_witness, params = {"indices": list(idx), "signs": list(eta)}, (kk, ww)
    heu = heu_witness = None
    if heuristic_budget > 0:
        heu, hidx, heta = sbh_sup_heuristic(t, kk, max(window, kk), budget=heuristic_budget,
                                            seed=seed)
        heu_witness = {"indices": list(hidx), "signs": list(heta)}
    witness_sup = exh if heu is None else max(exh, heu)
    note = ""
    if min(l1_cert, dens_cert) <= 1.0 + eps:
        verdict = "CERTIFIED_SBH"
    elif witness_sup - (kk - 1) / kk * t.tail_bound > 1.0 + eps:
        verdict = "CERTIFIED_NOT_SBH"
        note = NOT_SBH_CAVEAT
    else:
        verdict = "UNDECIDED"
    return SbhReport(
        epsilon0=eps,
        l1_certificate=l1_cert,
        density_certificate=dens_cert,
        verdict=verdict,
        exhaustive_sup=exh,
        exhaustive_params=params,
        exhaustive_witness=exh_witness,
        heuristic_sup=heu,
        heuristic_witness=heu_witness,
        note=note,
    )
