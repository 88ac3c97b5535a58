"""Funny words, the Theta statistic, and the empirical non-AT probe.

A finite run of this harness can only report that no searched word violates
the quadratic-form bound; it never certifies the failure of approximate
transitivity.  Every search report carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable
from .sbh import epsilon0, sbh_form
from .systems import NameSource, names_to_signs

SEARCH_CAVEAT = (
    "no searched word violates the bound; a finite search cannot certify non-AT"
)


@dataclass(frozen=True)
class FunnyWord:
    indices: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.bits) or len(self.indices) == 0:
            raise ValueError("indices and bits must be nonempty and equal length")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0/1")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.indices)


def hamming(w1, w2) -> float:
    """Normalized disagreement count of two equal-length bit words."""
    a = np.asarray(w1)
    b = np.asarray(w2)
    if a.shape != b.shape:
        raise ValueError("words must have equal length")
    return float(np.mean(a != b))


def theta_of_name(name_bits, w: FunnyWord) -> float:
    """Theta = 1 - 2 * hamming(W, name restricted to the index set)."""
    return 1.0 - 2.0 * hamming(name_bits, w.bits)


def theta_l2_exact(t: FourierTable, w: FunnyWord) -> float:
    """||Theta^W||^2 as a quadratic form in the spectral coefficients."""
    return sbh_form(t, w.indices, w.bits) / w.k


def _restrict(names: np.ndarray, w: FunnyWord) -> np.ndarray:
    idx = np.asarray(w.indices)
    if names.shape[1] <= idx[-1]:
        raise ValueError("names too short for the word's index set")
    return names[:, idx]


def _thetas(names: np.ndarray, w: FunnyWord) -> np.ndarray:
    sub = _restrict(names, w)
    dbar = np.mean(sub != np.asarray(w.bits)[None, :], axis=1)
    return 1.0 - 2.0 * dbar


def theta_l2_empirical(src: NameSource, w: FunnyWord, samples: int,
                       seed: int) -> tuple[float, float]:
    """Monte Carlo (estimate, stderr) of ||Theta^W||^2 over sampled names."""
    names = src.sample_names(samples, w.indices[-1] + 1, seed)
    t2 = _thetas(names, w) ** 2
    est = float(np.mean(t2))
    se = float(np.std(t2, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return est, se


def non_at_bound(epsilon: float) -> float:
    """(1 + eps0) / (2 (1 - 2 eps)^2): the Tchebychev mass bound times k.

    The numerator follows the (1 + eps0) inequality chain.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    return (1.0 + epsilon0()) / (2.0 * (1.0 - 2.0 * epsilon) ** 2)


def non_at_bound_eps_numerator(epsilon: float) -> float:
    """(1 + eps) / (2 (1 - 2 eps)^2), the other published numerator."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    return (1.0 + epsilon) / (2.0 * (1.0 - 2.0 * epsilon) ** 2)


@dataclass
class ThetaReport:
    word: FunnyWord
    exact_l2: float | None
    empirical_l2: tuple[float, float] | None
    hist_edges: np.ndarray
    hist_mass: np.ndarray
    dbar_samples: np.ndarray

    def mass_below(self, eps: float) -> float:
        """Empirical mu{dbar < eps}."""
        return float(np.mean(self.dbar_samples < eps))


def theta_report(src: NameSource, w: FunnyWord, samples: int, seed: int,
                 table: FourierTable | None = None) -> ThetaReport:
    names = src.sample_names(samples, w.indices[-1] + 1, seed)
    th = _thetas(names, w)
    hist, edges = np.histogram(th, bins=41, range=(-1.0, 1.0), density=False)
    exact = theta_l2_exact(table, w) if table is not None else None
    est = float(np.mean(th**2))
    se = float(np.std(th**2, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return ThetaReport(
        word=w, exact_l2=exact, empirical_l2=(est, se),
        hist_edges=edges, hist_mass=hist / samples,
        dbar_samples=(1.0 - th) / 2.0,
    )


def theta_symmetry_check(src: NameSource, w: FunnyWord, samples: int,
                         seed: int) -> dict:
    """Test symmetry of the Theta distribution via its odd moments.

    Statistic: max of the z-scores of mean(Theta) and mean(Theta^3); both
    vanish for a symmetric law.  Threshold 4 (two-sided ~6e-5 per moment).
    """
    names = src.sample_names(samples, w.indices[-1] + 1, seed)
    th = _thetas(names, w)

    def zscore(x):
        # a constant x has se = 0: a point mass at 0 is symmetric, any other is not
        m = abs(float(np.mean(x)))
        se = np.std(x, ddof=1) / math.sqrt(samples)
        return m / se if se > 0 else (math.inf if m else 0.0)

    stat = max(zscore(th), zscore(th**3))
    return {"statistic": float(stat), "threshold": 4.0,
            "symmetric": bool(stat <= 4.0)}


# ---------------------------------------------------------------------------
# Funny-word search: the empirical probe of the necessary AT condition


# progression steps d of LambdaFamily, and the offsets a tried for each
_STEPS = (1, 2, 3, 5, 8)
_OFFSETS_PER_STEP = 3


@dataclass(frozen=True)
class LambdaFamily:
    """Candidate index sets: arithmetic progressions a, a+d, ..., of length k
    inside [0, horizon), plus uniformly random k-subsets."""

    k: int
    horizon: int
    n_random: int = 8

    def __post_init__(self):
        if not 1 <= self.k <= self.horizon:
            raise ValueError("need 1 <= k <= horizon")

    def candidates(self, rng) -> list[tuple[int, ...]]:
        out = []
        seen = set()
        for d in _STEPS:
            span = (self.k - 1) * d
            if span >= self.horizon:
                continue
            max_a = self.horizon - span - 1
            n_off = min(_OFFSETS_PER_STEP, max_a + 1)
            for a in np.linspace(0, max_a, n_off).astype(int):
                lam = tuple(int(a) + j * d for j in range(self.k))
                if lam not in seen:
                    seen.add(lam)
                    out.append(lam)
        for _ in range(self.n_random):
            lam = tuple(sorted(rng.choice(self.horizon, size=self.k, replace=False).tolist()))
            if lam not in seen:
                seen.add(lam)
                out.append(lam)
        return out


@dataclass
class SearchRow:
    indices: tuple[int, ...]
    word: tuple[int, ...]
    mass_below: float
    k_times_mass: float
    bound: float
    stderr: float

    def to_json_obj(self) -> dict:
        return {
            "lambda": list(self.indices), "word": list(self.word),
            "mass_below": self.mass_below, "k_times_mass": self.k_times_mass,
            "bound": self.bound, "stderr": self.stderr,
        }


@dataclass
class SearchReport:
    epsilon: float
    rows: list[SearchRow]
    best: SearchRow
    caveat: str = SEARCH_CAVEAT

    def violations(self, slack_sigmas: float = 4.0) -> list[SearchRow]:
        return [r for r in self.rows
                if r.k_times_mass > r.bound + slack_sigmas * len(r.indices) * r.stderr]


def funny_word_search(src: NameSource, family: LambdaFamily, epsilon: float,
                      samples: int, seed: int) -> SearchReport:
    """Probe the necessary AT condition: for each candidate index set, pick
    the word by coordinatewise majority on a training half and estimate
    mu{dbar < eps} on the held-out half; the score is |Lambda| * mass."""
    bound = non_at_bound(epsilon)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = family.candidates(rng)
    names = src.sample_names(2 * samples, family.horizon, seed)
    train, test = names[:samples], names[samples:]
    rows = []
    for lam in candidates:
        idx = np.asarray(lam)
        sub_tr = train[:, idx]
        # majority vote; ties go to 0 for determinism
        w_bits = tuple(int(x) for x in (np.mean(sub_tr, axis=0) > 0.5))
        sub_te = test[:, idx]
        dbar = np.mean(sub_te != np.asarray(w_bits)[None, :], axis=1)
        mass = float(np.mean(dbar < epsilon))
        se = math.sqrt(max(mass * (1.0 - mass), 1.0 / samples) / samples)
        rows.append(SearchRow(
            indices=lam, word=w_bits, mass_below=mass,
            k_times_mass=family.k * mass, bound=bound, stderr=se,
        ))
    best = max(rows, key=lambda r: (r.k_times_mass, tuple(-i for i in r.indices)))
    # deterministic tie-break: lexicographically smallest Lambda, then word
    top = [r for r in rows if r.k_times_mass == best.k_times_mass]
    best = min(top, key=lambda r: (r.indices, r.word))
    return SearchReport(epsilon=epsilon, rows=rows, best=best)
