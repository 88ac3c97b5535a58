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

import numpy as np

from .fourier import FourierTable, density_sup, l1_tail

_EXHAUSTIVE_BUDGET = 10**8
# sign-pair sums held at once by the exhaustive search (4 MiB of float64)
_CHUNK_FORMS = 2**19

NOT_SBH_CAVEAT = (
    "finite witnesses bound the supremum from below at fixed k; "
    "the limsup_k claim is heuristic"
)


# adjacent doubles around the root of _eps0_poly, lo below it and hi above it
# (a test proves the sign change in exact rationals); certify tests SBH against
# 1 + lo and NOT SBH against 1 + hi, while epsilon0() is the reported value
_EPS0_LO = 0.10653972732909289
_EPS0_HI = 0.1065397273290929


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


def _form_rounding(t: FourierTable, indices) -> float:
    """Bound on the rounding of ``sbh_form`` at these indices: k 2^-52 times the
    sum of |entries| of the Gram matrix it sums."""
    return len(indices) * 2.0**-52 * float(np.sum(np.abs(np.real(t.gram(np.asarray(indices))))))


def _sign_matrix(k: int) -> np.ndarray:
    """All +-1 vectors of length k with first entry fixed to +1."""
    m = 2 ** (k - 1)
    bits = (np.arange(m)[:, None] >> np.arange(k - 1)[None, :]) & 1
    S = np.ones((m, k))
    S[:, 1:] = 1.0 - 2.0 * bits
    return S


def _combination_masks(n: int, r: int) -> np.ndarray:
    """Bit masks of the r-subsets of range(n), n <= 32, in the order of
    itertools.combinations."""
    # an l-subset of range(j) is its least element f and an (l - 1)-subset of
    # range(j - f - 1) shifted past f; tabs maps j to the lev-subsets of
    # range(j), for the j that the next level reads
    tabs = {j: np.zeros(1, np.uint32) for j in range(n - r + 1)}
    for lev in range(1, r + 1):
        tabs = {j: np.concatenate([tabs[j - 1 - f] << (f + 1) | 1 << f
                                   for f in range(j - lev + 1)])
                for j in (range(lev, lev + n - r + 1) if lev < r else (n,))}
    return tabs[n]


def _pair_bounds(masks: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_{i<j} a[n_j - n_i] for each subset mask: its pairs at distance d are
    the bits of mask & (mask >> d)."""
    bound = np.zeros(masks.size)
    for lo in range(0, masks.size, _CHUNK_FORMS):
        m, b = masks[lo:lo + _CHUNK_FORMS], bound[lo:lo + _CHUNK_FORMS]
        for d in (np.flatnonzero(a[1:]) + 1).tolist():
            b += a[d] * np.bitwise_count(m & (m >> d))
    return bound


def sbh_sup_exhaustive(t: FourierTable, k: int, window: int):
    """Exact max of the signed form over k-subsets of [0, window) and all signs,
    as (value, indices, signs).

    Signs are canonicalized by fixing the first one (global flips leave the
    form invariant).  The form depends only on the differences n_i - n_j, so
    every subset ties with its translate that holds 0, and only those
    C(window - 1, k - 1) subsets are candidates.  With G the real window
    Toeplitz and P[a, p] = s_a[i_p] s_a[j_p] over the pairs i_p < j_p, k times
    the form is k c(0) + 2 (P @ g)[a], g[p] = G[n_{i_p}, n_{j_p}], and every
    sign-pair sum is at most B = sum_p |g[p]|.  The search ranks the sums P @ g
    one matrix product per chunk of subsets, in decreasing order of B, and
    stops at the first subset whose B plus a rounding slack falls below the
    best sum: no later subset can reach it.  Among equal sums the lowest sign
    pattern wins, then the lowest subset; the value is the witness's own
    ``sbh_form``.  Raises ValueError when, after the first chunk, more than
    ``_EXHAUSTIVE_BUDGET`` forms are left to visit.
    """
    if not 1 <= k <= 12:
        raise ValueError("need 1 <= k <= 12")
    if not k <= window <= 24:
        raise ValueError("need k <= window <= 24")
    S = _sign_matrix(k)
    iu, ju = np.triu_indices(k, 1)
    P = S[:, iu] * S[:, ju]
    G = np.real(t.gram(np.arange(window)))
    masks = _combination_masks(window - 1, k - 1) << 1 | 1
    bound = _pair_bounds(masks, np.abs(G[0]))
    order = np.argsort(-bound, kind="stable")
    # a computed sum lies within m u B of the exact one and the computed B
    # within (m + 1) u B of its own: 4 m 2^-52 max(1, B) covers both, u = 2^-53
    reach = bound[order]
    del bound
    reach += 4 * len(iu) * 2.0**-52 * np.maximum(1.0, reach)
    shifts = np.arange(window, dtype=np.uint32)
    chunk = max(1, _CHUNK_FORMS // len(S))
    best = (-math.inf, 0, 0)
    for lo in range(0, len(order), chunk):
        if reach[lo] < best[0]:
            break
        rank = order[lo:lo + chunk]
        sub = np.nonzero(masks[rank, None] >> shifts & 1)[1].reshape(-1, k)
        sums = P @ G[sub[:, iu], sub[:, ju]].T
        a, s = np.unravel_index(np.argmax(sums), sums.shape)
        v = sums[a, s]
        s = rank[sums[a] == v].min()
        if v > best[0] or (v == best[0] and (a, s) < best[1:]):
            best = (v, a, s)
        if lo == 0 and np.count_nonzero(reach[chunk:] >= v) * len(S) > _EXHAUSTIVE_BUDGET:
            raise ValueError("exhaustive search budget exceeded")
    idx = tuple(int(x) for x in np.flatnonzero(masks[best[2]] >> shifts & 1))
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
    nonzero difference occurs in at most k - 1 ordered pairs.  Both sides of
    the verdict are sound in floating point: SBH needs a certificate at most
    1 + _EPS0_LO after the l1 sum's rounding, (N + 2) 2^-52 times the sum, and
    NOT_SBH needs a witness above 1 + _EPS0_HI after its form's rounding
    (``_form_rounding``).  Raises ValueError for k < 1 or heuristic_budget < 0,
    which no search can honour.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if heuristic_budget < 0:
        raise ValueError(f"need a heuristic budget >= 0, got {heuristic_budget}")
    eps = epsilon0()
    l1 = l1_tail(t)
    l1_cert = 1.0 + l1
    dens_cert = density_sup(t, max(4 * t.half_width + 4, 64)).certified_upper
    kk = min(k, 12)
    ww = min(max(window, kk), 24)
    exh, idx, eta = sbh_sup_exhaustive(t, kk, ww)
    exh_witness, params = {"indices": list(idx), "signs": list(eta)}, (kk, ww)
    witnesses = [(exh, idx)]
    heu = heu_witness = None
    if heuristic_budget > 0:
        heu, hidx, heta = sbh_sup_heuristic(t, kk, max(window, kk), budget=heuristic_budget,
                                            seed=seed)
        heu_witness = {"indices": list(hidx), "signs": list(heta)}
        witnesses.append((heu, hidx))
    # x - 1.0 is exact for the x near 1 + eps0 that could move a verdict
    witness_low = max(v - _form_rounding(t, i) for v, i in witnesses) - 1.0
    note = ""
    if min(l1 * (1.0 + (t.half_width + 2) * 2.0**-52), dens_cert - 1.0) <= _EPS0_LO:
        verdict = "CERTIFIED_SBH"
    elif witness_low - (kk - 1) / kk * t.tail_bound > _EPS0_HI:
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
