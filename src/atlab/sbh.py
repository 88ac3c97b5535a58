"""Strongly-Blum-Hanson certificates for circle-measure Fourier tables.

SBH is a limsup over k of a supremum over signed index families, which no
finite computation decides.  We certify SBH by a sufficient condition (small
l1 tail, or a certified flat density bound), NOT SBH by a witnessed form above
1 + eps0 by more than the table's tail can move it (the limsup claim stays
heuristic), and otherwise report UNDECIDED.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable, density_sup, l1_tail

_EXHAUSTIVE_BUDGET = 10**8
# sign-pair sums held at once by the exhaustive search (0.5 MiB of float64)
_CHUNK_FORMS = 2**16

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


def sbh_form(t: FourierTable, indices, signs) -> float:
    """(1/k) sum_{i,j} (-1)^{eta_i + eta_j} c(n_i - n_j)."""
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a nonempty 1-d sequence")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("indices must be strictly increasing")
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
    ``sbh_form``.  Raises ValueError when, once the first 2^19 forms are
    visited, more than ``_EXHAUSTIVE_BUDGET`` are left.
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
        # the largest sum wins, then the lowest sign pattern, then the lowest subset
        a, s = np.unravel_index(np.argmax(sums), sums.shape)
        best = max(best, (sums[a, s], -a, -rank[sums[a] == sums[a, s]].min()))
        # once the first 2^19 forms are visited, count those left that could win
        if (lo + chunk) * len(S) == 2**19 and (np.count_nonzero(reach[lo + chunk:] >= best[0])
                                               * len(S) > _EXHAUSTIVE_BUDGET):
            raise ValueError("exhaustive search budget exceeded")
    idx = tuple(int(x) for x in np.flatnonzero(masks[-best[2]] >> shifts & 1))
    eta = tuple(0 if x > 0 else 1 for x in S[-best[1]])
    return sbh_form(t, idx, eta), idx, eta


def sbh_sup_heuristic(t: FourierTable, k: int, window: int,
                      budget: int = 2000, seed: int = 0):
    """Best-improvement flip/move search from a greedy start, then from seeded
    random ones once no step raises the form by 1e-9; a lower bound for the sup,
    as (value, indices, signs).  A step charges k (window - k + 1) moves."""
    if k < 1 or window < k:
        raise ValueError("need 1 <= k <= window")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    # G[p] = Re c(|n - p|) on the window, rows viewing one array of lags
    G = np.lib.stride_tricks.sliding_window_view(
        np.pad(t.coeffs.real, (0, window))[abs(np.arange(1 - window, window))], window)[::-1]
    # x is the family's signs on the window, h = G x; the first start grows {0}
    # by the q of largest |h_q| (lowest on ties, sign + when h_q >= 0)
    x, h = np.zeros((2, window))
    for _ in range(k):
        q = np.argmax(np.where(x, -1, abs(h)))
        x[q] = np.copysign(1, h[q])
        h += x[q] * G[q]
    rng, best = random.Random(seed), (-math.inf,)
    for _ in range(0, budget, k * (window - k + 1)):
        # moving member p to q at the better sign adds 2 gain[q, p] to x G x:
        # G_pp - x_p h_p + |h_q - x_p G_pq|, at q = p the flip's gain where
        # positive; rows of other members read 0, which no step takes
        pos = np.flatnonzero(x)
        d = h[:, None] - x[pos] * G[:, pos]
        gain = abs(d) + G[0, 0] - x[pos] * h[pos]
        gain[pos] *= np.eye(k)
        q, s = divmod(np.argmax(gain), k)
        p, sign = pos[s], np.copysign(1, d[q, s])
        if gain[q, s] > 5e-10 * k:
            h += sign * G[q] - x[p] * G[p]
            x[p], x[q] = 0, sign
            continue
        if x @ h > best[0]:
            best = (x @ h, x)
        pos = rng.sample(range(window), k)
        x = np.zeros(window)
        x[pos] = rng.choices((1.0, -1.0), k=k)
        h = x[pos] @ G[pos]
    if x @ h <= best[0]:
        x = best[1]
    idx = tuple(np.flatnonzero(x).tolist())
    eta = tuple(int(x[i] < 0) for i in idx)
    return sbh_form(t, idx, eta), idx, eta


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
    (``_form_rounding``).  Raises ValueError for k < 1, heuristic_budget < 0,
    or seed < 0 with a budget, which no search can honour.
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
    return SbhReport(eps, l1_cert, dens_cert, verdict, exh, params, exh_witness, heu, heu_witness,
                     note)
