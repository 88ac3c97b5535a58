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
from .systems import NameSource

SEARCH_CAVEAT = (
    "no searched word violates the bound; a finite search cannot certify non-AT"
)
# a search row violates the bound only beyond this many standard errors
SLACK_SIGMAS = 4.0


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


def theta_l2_exact(t: FourierTable, w: FunnyWord) -> float:
    """||Theta^W||^2 as a quadratic form in the spectral coefficients."""
    return sbh_form(t, w.indices, w.bits) / w.k


def _thetas(steps: np.ndarray, w: FunnyWord, count: int) -> np.ndarray:
    """Theta = 1 - 2 dbar per name, dbar its disagreement rate with the word,
    for ``count`` names given as packed step rows (``NameSource.sample_names``);
    only the word's k rows are unpacked."""
    idx = np.asarray(w.indices)
    if steps.shape[0] <= idx[-1]:
        raise ValueError("names too short for the word's index set")
    sub = np.unpackbits(steps[idx], axis=1, count=count)
    dbar = np.mean(sub != np.asarray(w.bits)[:, None], axis=0)
    return 1.0 - 2.0 * dbar


def non_at_bound(epsilon: float) -> float:
    """(1 + eps0) / (2 (1 - 2 eps)^2): the Tchebychev mass bound times k.

    The numerator follows the (1 + eps0) inequality chain; the other
    published numerator, 1 + eps, gives (1 + eps) / (2 (1 - 2 eps)^2).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("need 0 < epsilon < 1/2")
    return (1.0 + epsilon0()) / (2.0 * (1.0 - 2.0 * epsilon) ** 2)


def theta_symmetry_check(src: NameSource, w: FunnyWord, samples: int,
                         seed: int) -> dict:
    """Test symmetry of the Theta distribution via its odd moments.

    `non_at_bound` assumes this symmetry: its 1/2 turns the two-sided mass
    mu{|Theta| > 1 - 2 eps} into the one-sided mu{Theta > 1 - 2 eps}.

    Statistic: max of the z-scores of mean(Theta) and mean(Theta^3); both
    vanish for a symmetric law.  Threshold 4 (two-sided ~6e-5 per moment).
    """
    th = _thetas(src.sample_names(samples, w.indices[-1] + 1, seed), w, samples)

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
# largest n_random * k of a LambdaFamily (`funny --n-random`, `--k`)
MAX_RANDOM_INDICES = 2**22


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
        if self.n_random < 0:
            raise ValueError("need n_random >= 0")
        # the random candidates and their report rows grow with n_random * k
        if self.n_random * self.k > MAX_RANDOM_INDICES:
            raise ValueError(f"need n_random * k <= {MAX_RANDOM_INDICES}, "
                             f"got {self.n_random} * {self.k}")

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

    def violations(self) -> list[SearchRow]:
        return [r for r in self.rows
                if r.k_times_mass > r.bound + SLACK_SIGMAS * len(r.indices) * r.stderr]


def funny_word_search(src: NameSource, family: LambdaFamily, epsilon: float,
                      samples: int, seed: int) -> SearchReport:
    """Probe the necessary AT condition: for each candidate index set, pick
    the word by coordinatewise majority on a training half and estimate
    mu{dbar < eps} on the held-out half; the score is |Lambda| * mass.

    The names come as blocks of packed step rows (``NameSource.name_blocks``),
    training names first, and each block is read once: the training bits add
    into one count of ones per step read, which gives every majority word, and the
    held-out bits of a candidate's rows, gathered 8 at a time, are XORed with
    its word and unpacked into one mismatch count per name of the block."""
    bound = non_at_bound(epsilon)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    candidates = family.candidates(rng)
    # dbar = mismatches / k is below eps exactly where this table is True: the
    # same doubles np.mean compares
    below = np.arange(family.k + 1) / family.k < epsilon
    # the steps some candidate reads (np.unique would load numpy.ma), and their
    # training ones
    read = np.zeros(family.horizon, dtype=bool)
    read[np.array(candidates)] = True
    used = np.flatnonzero(read)
    del read
    ones = np.zeros(used.size, dtype=np.intp)
    words = np.empty((len(candidates), family.k), dtype=bool)
    flips = None  # 0xFF where a word's bit is 1, set once the training half is counted
    hits = [0] * len(candidates)
    lo = 0
    for block in src.name_blocks(2 * samples, family.horizon, seed):
        n = min(8 * block.shape[1], 2 * samples - lo)
        # the block's training bits are its first `cut` bytes of a row and the top
        # `rem` bits of the byte after them, where its held-out names start
        cut, rem = divmod(min(max(samples - lo, 0), n), 8)
        step = max(1, 2**16 // max(cut, 1))  # used steps counted at a time, 64 KiB
        for r in range(0, used.size, step):
            train = block[used[r:r + step], :cut]
            ones[r:r + step] += np.bitwise_count(train, out=train).sum(axis=1, dtype=np.intp)
        if rem:
            ones += np.bitwise_count(block[used, cut] >> (8 - rem))
        lo += n
        if lo <= samples:
            continue
        if flips is None:
            for lam, word in zip(candidates, words):
                # majority vote; ties go to 0 for determinism
                np.greater(2 * ones[np.searchsorted(used, lam)], samples, out=word)
            flips = words.view(np.uint8) * np.uint8(0xFF)
        for i, lam in enumerate(candidates):
            mismatches = 0
            for j in range(0, family.k, 8):
                held = block[list(lam[j:j + 8]), cut:]
                held ^= flips[i, j:j + 8, None]
                mismatches += np.unpackbits(held, axis=1, count=n - 8 * cut)[:, rem:].sum(
                    axis=0, dtype=np.intp)
            hits[i] += np.count_nonzero(below[mismatches])
    rows = []
    for lam, word, hit in zip(candidates, words, hits):
        mass = hit / samples
        se = math.sqrt(max(mass * (1.0 - mass), 1.0 / samples) / samples)
        rows.append(SearchRow(
            indices=lam, word=tuple(int(b) for b in word), mass_below=mass,
            k_times_mass=family.k * mass, bound=bound, stderr=se,
        ))
    # deterministic tie-break: lexicographically smallest Lambda, then word
    best = min(rows, key=lambda r: (-r.k_times_mass, r.indices, r.word))
    return SearchReport(epsilon=epsilon, rows=rows, best=best)
