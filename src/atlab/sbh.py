"""Strongly-Blum-Hanson certificates for circle-measure Fourier tables.

SBH is a limsup over k of a supremum over signed index families, which no
finite computation decides.  We certify SBH by a sufficient condition (small
l1 tail, or a certified flat density bound), NOT SBH by a witnessed form above
1 + eps0 by more than the table's tail can move it (the limsup claim stays
heuristic), and otherwise report UNDECIDED.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable, density_sup, l1_tail

_EXHAUSTIVE_BUDGET = 10**8
# values held at once by a chunk of either search (0.5 MiB of float64)
_CHUNK_FORMS = 2**16

NOT_SBH_CAVEAT = (
    "finite witnesses bound the supremum from below at fixed k; "
    "the limsup_k claim is heuristic"
)


def epsilon0() -> float:
    """The zero eps0 in (0, 0.2) of 2(1-t)(1-2t)^2 - 1 - t, as reports carry it:
    a double less than 3e-15 above the root, which ``certify`` decides against
    exactly (``_above_eps0``)."""
    return 0.10653972732909553


def _above_eps0(num: int, den: int) -> bool:
    """Whether num/den > eps0, for den > 0, in exact integers: the cubic is
    p(t) = 1 - 11t + 16t^2 - 8t^3, whose p'(t) = -11 + 32t - 24t^2 has negative
    discriminant, so p falls strictly through its one real root eps0; the root
    is irrational (no +-1, +-1/2, +-1/4, +-1/8 is one), so no rational ties it,
    and a rational lies above it exactly when p is negative there."""
    return ((16 * den - 8 * num) * num - 11 * den * den) * num + den**3 < 0


_ULP = 2**1074  # every finite double is an integer multiple of 2^-1074


def _ulps(x: float) -> int:
    """x / 2^-1074, exact for every finite double."""
    n, d = x.as_integer_ratio()
    return n * (_ULP // d)


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


def _k_form(t: FourierTable, indices, signs) -> int:
    """k times the form, in units of 2^-1074, exactly: the signed Gram entries
    s_i s_j Re c(n_i - n_j), s = (-1)^eta, grouped by lag, sum_d m_d Re c(d) with
    m_d the sum of s_i s_j over the ordered pairs at |n_i - n_j| = d <= N."""
    idx = np.asarray(indices, dtype=np.int64)
    s = 1 - 2 * np.asarray(signs, dtype=np.int64)
    lags = np.abs(idx[:, None] - idx[None, :]).ravel()
    inside = lags <= t.half_width
    # each m_d is a sum of at most k^2 terms +-1, so its float64 total is exact
    m = np.bincount(lags[inside], weights=np.outer(s, s).ravel()[inside]).astype(np.int64)
    d = np.flatnonzero(m)
    return sum(md * _ulps(x) for md, x in zip(m[d].tolist(), t.coeffs.real[d].tolist()))


def _clears_eps0(t: FourierTable, indices, signs) -> bool:
    """Whether the form less ((k - 1)/k) tail_bound exceeds 1 + eps0, exactly."""
    k = len(indices)
    return _above_eps0(_k_form(t, indices, signs) - (k - 1) * _ulps(t.tail_bound) - k * _ULP,
                       k * _ULP)


# sbh_sup_exhaustive's error when its pruned scan would still visit more than
# _EXHAUSTIVE_BUDGET forms; certify catches it (a comment, not a docstring: every
# funny job compiles this module, and its peak RSS follows the compiled bytes)
class _BudgetExceeded(ValueError):
    pass


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
            raise _BudgetExceeded("exhaustive search budget exceeded")
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
    # 1 - window..window - 1
    c = t.coeffs.real[:window]
    lags = np.zeros(2 * window - 1)
    lags[window - c.size:window], lags[window - 1:window - 1 + c.size] = c[::-1], c
    G = np.lib.stride_tricks.sliding_window_view(lags, window)[::-1]
    # x is the family's signs on the window, h = G x; the first start grows {0}
    # by the q of largest |h_q| (lowest on ties, sign + when h_q >= 0)
    x, h = np.zeros((2, window))
    for _ in range(k):
        q = np.argmax(np.where(x, -1, abs(h)))
        x[q] = np.copysign(1, h[q])
        h += x[q] * G[q]
    rng, best = random.Random(seed), (-math.inf,)
    rows = max(1, _CHUNK_FORMS // k)
    for _ in range(0, budget, k * (window - k + 1)):
        # moving member p to q at the better sign adds 2 gain[q, p] to x G x:
        # G_pp - x_p h_p + |h_q - x_p G_pq|, at q = p the flip's gain where
        # positive; rows of other members read 0, which no step takes.  The
        # rows are scored a block at a time, and the first maximum is kept
        pos = np.flatnonzero(x)
        xp, top = x[pos], (-math.inf,)
        for lo in range(0, window, rows):
            d = h[lo:lo + rows, None] - xp * G[lo:lo + rows, pos]
            gain = abs(d) + G[0, 0] - xp * h[pos]
            own = (lo <= pos) & (pos < lo + rows)
            gain[pos[own] - lo] *= np.eye(k)[own]
            q, s = divmod(int(np.argmax(gain)), k)
            if gain[q, s] > top[0]:
                top = (gain[q, s], lo + q, s, d[q, s])
        gain, q, s, d = top
        p, sign = pos[s], np.copysign(1, d)
        if gain > 5e-10 * k:
            h += sign * G[q] - x[p] * G[p]
            x[p], x[q] = 0, sign
            continue
        if x @ h > best[0]:
            best = (x @ h, x)
        pos = rng.sample(range(window), k)
        x = np.zeros(window)
        x[pos] = rng.choices((1.0, -1.0), k=k)
        h = np.concatenate([x[pos] @ G[pos, lo:lo + rows] for lo in range(0, window, rows)])
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
    nonzero difference occurs in at most k - 1 ordered pairs.  SBH needs the l1
    sum, raised by its summation rounding of (N + 2) 2^-52 times itself, or the
    density certificate less 1 to lie below eps0.  Each side is an exact
    rational, the form summed from its Gram entries, and is compared with the
    root itself (``_above_eps0``).  Raises ValueError for k < 1,
    heuristic_budget < 0, or seed < 0 with a budget, which no search can honour.
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
    try:
        exh, idx, eta = sbh_sup_exhaustive(t, kk, ww)
    except _BudgetExceeded:  # null exhaustive fields; the other certificates decide
        exh = exh_witness = params = None
        witnesses = []
    else:
        exh_witness, params = {"indices": list(idx), "signs": list(eta)}, (kk, ww)
        witnesses = [(idx, eta)]
    heu = heu_witness = None
    if heuristic_budget > 0:
        heu, hidx, heta = sbh_sup_heuristic(t, kk, max(window, kk), budget=heuristic_budget,
                                            seed=seed)
        heu_witness = {"indices": list(hidx), "signs": list(heta)}
        witnesses.append((hidx, heta))
    note = ""
    if not (_above_eps0(_ulps(l1) * (2**52 + t.half_width + 2), 2**52 * _ULP)
            and _above_eps0(_ulps(dens_cert) - _ULP, _ULP)):
        verdict = "CERTIFIED_SBH"
    elif any(_clears_eps0(t, i, e) for i, e in witnesses):
        verdict = "CERTIFIED_NOT_SBH"
        note = NOT_SBH_CAVEAT
    else:
        verdict = "UNDECIDED"
    return SbhReport(eps, l1_cert, dens_cert, verdict, exh, params, exh_witness, heu, heu_witness,
                     note)
