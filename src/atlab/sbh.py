"""Strongly-Blum-Hanson certificates for circle-measure Fourier tables.

The SBH quantity is a limsup over k of a supremum over all signed index
families, which no finite computation decides.  What we can do honestly:

* certify SBH via two sufficient conditions (small l1 tail, or a certified
  flat density bound),
* certify NOT SBH via an explicit witnessed form value above 1 + eps0
  (a lower bound for the sup at that k; the limsup claim stays heuristic),
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


def blum_hanson_average(t: FourierTable, indices) -> float:
    """(1/k^2) sum_{i,j} c(n_i - n_j): squared norm of the averaged exponentials."""
    idx = _check_indices(indices)
    k = idx.size
    return float(np.real(np.sum(t.gram(idx)))) / (k * k)


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


def sbh_sup_exhaustive(t: FourierTable, k: int, window: int,
                       return_witness: bool = False):
    """Exact max of the signed form over k-subsets of [0, window) and all signs.

    Signs are canonicalized by fixing the first one (global flips leave the
    form invariant).
    """
    if not 1 <= k <= 12:
        raise ValueError("need 1 <= k <= 12")
    if not k <= window <= 24:
        raise ValueError("need k <= window <= 24")
    if math.comb(window, k) * 2**k > _EXHAUSTIVE_BUDGET:
        raise ValueError("exhaustive search budget exceeded")
    S = _sign_matrix(k)
    subsets = np.array(list(combinations(range(window), k)), dtype=int)
    Gr = np.real(t.gram(subsets))
    # vals[a, s] = S[a] . Gr[s] . S[a] / k
    vals = np.einsum("ai,sij,aj->as", S, Gr, S) / k
    a_best, s_best = np.unravel_index(np.argmax(vals), vals.shape)
    best = float(vals[a_best, s_best])
    if not return_witness:
        return best
    idx = tuple(int(x) for x in subsets[s_best])
    eta = tuple(0 if x > 0 else 1 for x in S[a_best])
    return best, idx, eta


def sbh_sup_heuristic(t: FourierTable, k: int, window: int,
                      budget: int = 2000, seed: int = 0,
                      return_witness: bool = False):
    """Greedy growth plus local moves; a deterministic lower bound for the sup."""
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
    if not return_witness:
        return best_v
    eta = tuple(0 if x > 0 else 1 for x in best_s)
    return best_v, tuple(best_idx), eta


def rajchman_decay(t: FourierTable, window: int) -> float:
    """max |c(n)| over the outermost ``window`` indices: a finite decay proxy."""
    N = t.half_width
    if not 1 <= window <= N:
        raise ValueError("need 1 <= window <= half_width")
    nn = np.abs(t.nonneg())
    return float(np.max(nn[N - window + 1: N + 1]))


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

    The density certificate reads a grid of max(4N + 4, 64) points.
    """
    eps = epsilon0()
    l1_cert = 1.0 + l1_tail(t)
    dens_cert = density_sup(t, max(4 * t.half_width + 4, 64)).certified_upper
    exh = exh_witness = None
    params = None
    if k >= 1:
        kk = min(k, 12)
        ww = min(max(window, kk), 24)
        val, idx, eta = sbh_sup_exhaustive(t, kk, ww, return_witness=True)
        exh, exh_witness, params = val, {"indices": list(idx), "signs": list(eta)}, (kk, ww)
    heu = heu_witness = None
    if heuristic_budget > 0:
        hv, hidx, heta = sbh_sup_heuristic(t, min(k, 12), window,
                                           budget=heuristic_budget, seed=seed,
                                           return_witness=True)
        heu, heu_witness = hv, {"indices": list(hidx), "signs": list(heta)}
    witness_sup = max(x for x in (exh, heu, -math.inf) if x is not None)
    note = ""
    if min(l1_cert, dens_cert) <= 1.0 + eps:
        verdict = "CERTIFIED_SBH"
    elif witness_sup > 1.0 + eps:
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
