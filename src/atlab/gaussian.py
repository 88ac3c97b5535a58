"""Stationary Gaussian processes: sampling, orthant laws, cocycle correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable, _density_min_lower, is_positive_definite, square_wave_coeffs

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# largest Monte Carlo run the CLI starts; it bounds the time alone, as a run
# holds two threads' chunk buffers, about 1.3 MiB, whatever its size
MAX_MC_SAMPLES = 2**24

# largest half width whose spec check falls back to eigvalsh of T_{N+1}: that
# takes about 1 s and 163 MiB at 2048, and grows as N^3 in time and N^2 in memory
MAX_EIGVALSH_HALF_WIDTH = 2048

# terms per piece of a series summed by _pairwise_series: each piece's float64
# terms and temporaries take a few 512 KiB arrays
_SERIES_BLOCK = 2**16


@dataclass(frozen=True)
class GaussianSpec:
    """Real autocovariance r(0..N) of a unit-variance stationary process."""

    autocov: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.autocov, dtype=float)
        object.__setattr__(self, "autocov", r)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("autocov must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(r)):
            raise ValueError("autocov must be finite")
        if abs(r[0] - 1.0) > 1e-12:
            raise ValueError("need r(0) = 1")
        if np.any(np.abs(r) > 1.0 + 1e-12):
            raise ValueError("need |r(n)| <= 1")
        r.setflags(write=False)

    @property
    def half_width(self) -> int:
        return self.autocov.size - 1

    def r(self, n: int) -> float:
        if abs(n) > self.half_width:
            raise ValueError("lag outside the stored autocovariance range")
        return float(self.autocov[abs(n)])

    def to_fourier_table(self) -> FourierTable:
        return FourierTable.from_nonneg(self.autocov, label="gaussian-spec")

    @classmethod
    def from_fourier_table(cls, t: FourierTable) -> "GaussianSpec":
        """The spec of a real table with no tail whose Toeplitz matrix T_{N+1} is PSD.

        A table with tail_bound > 0 raises ValueError: its spec would be the
        finite-range process of the stored coefficients, not the measure's.
        PSD is certified by the grid bound ``fourier._density_min_lower`` on
        min d_N, which bounds the least eigenvalue of T_{N+1} from below in
        O(N log N) time and O(N) memory; only a negative bound makes the check
        fall back to ``is_positive_definite``, numpy's O(N^3) ``eigvalsh``, and
        only for N <= ``MAX_EIGVALSH_HALF_WIDTH``: a wider table raises ValueError.
        """
        nn = t.coeffs
        if np.any(np.abs(nn.imag) > 1e-12):
            raise ValueError("a Gaussian spec needs real coefficients")
        if t.tail_bound > 0.0:
            raise ValueError(f"a Gaussian spec needs tail_bound 0, got {t.tail_bound!r}: "
                             "the spec would be the finite-range process of the table")
        if _density_min_lower(t) < 0.0:
            if t.half_width > MAX_EIGVALSH_HALF_WIDTH:
                raise ValueError("the grid bound does not certify the table positive "
                                 "semidefinite, and the eigvalsh check needs half_width "
                                 f"<= {MAX_EIGVALSH_HALF_WIDTH}, got {t.half_width}")
            if not is_positive_definite(t, t.half_width + 1)[0]:
                raise ValueError("coefficient table is not positive semidefinite")
        return cls(nn.real.copy())


def white_noise_spec(N: int) -> GaussianSpec:
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    r = np.zeros(N + 1)
    r[0] = 1.0
    return GaussianSpec(r)


def exponential_spec(rho: float, N: int) -> GaussianSpec:
    """r(n) = rho^|n|; PSD for |rho| < 1."""
    if not -1.0 < rho < 1.0:
        raise ValueError("need |rho| < 1")
    return GaussianSpec(rho ** np.arange(N + 1, dtype=float))


def triangular_spec(width: int, N: int) -> GaussianSpec:
    """Fejer-type r(n) = max(0, 1 - |n|/width); PSD, nonnegative."""
    ns = np.arange(N + 1, dtype=float)
    return GaussianSpec(np.maximum(0.0, 1.0 - ns / width))


def sample_path(spec: GaussianSpec, length: int, count: int, seed: int) -> np.ndarray:
    """``count`` independent draws of (X_0 .. X_{length-1}) with the given
    autocovariance, via Toeplitz Cholesky with escalating diagonal jitter."""
    if not 1 <= length <= spec.half_width + 1:
        raise ValueError("need 1 <= length <= autocov range + 1")
    C = spec.to_fourier_table().gram(np.arange(length))
    L = None
    for jit in _JITTERS:
        try:
            L = np.linalg.cholesky(C + jit * np.eye(length))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise ValueError("autocovariance is not positive definite (factorization failed)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal((count, length))
    return z @ L.T


@dataclass(frozen=True)
class McReport:
    estimate: float
    stderr: float
    formula_value: float
    z_score: float
    samples: int
    seed: int


def _mc_report(hits: int, formula: float, samples: int, seed: int) -> McReport:
    p = hits / samples
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    z = (p - formula) / se if se > 0 else 0.0
    return McReport(estimate=p, stderr=se, formula_value=formula,
                    z_score=z, samples=samples, seed=seed)


def _mc_lag(spec: GaussianSpec, n: int, samples: int) -> float:
    """r(n) for a Monte Carlo run of ``samples`` draws: |r(n)| < 1 and samples >= 1."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    r = spec.r(n)
    if abs(r) >= 1.0:
        raise ValueError("need |r(n)| < 1")
    return r


def product_orthant_mc(spec: GaussianSpec, n: int, level: int,
                       samples: int, seed: int) -> McReport:
    """Orthant law mu{Y_0 > 0, Y_n > 0} for products Y of 1, 2 or 4 independent copies.

    level=1: 1/4 + arcsin(r)/(2 pi);
    level=2: 1/4 + arcsin^2(r)/pi^2;
    level=4: 1/4 + 4 arcsin^4(r)/pi^4.

    The samples are drawn in chunks of ``_orthant.CHUNK``, each from its own
    generator keyed by the seed and the chunk's index, and counted on two
    threads; the report does not depend on how the chunks are shared.
    """
    if level not in (1, 2, 4):
        raise ValueError("level must be 1, 2 or 4")
    r = _mc_lag(spec, n, samples)
    from . import _orthant  # loads with the Monte Carlo run alone
    misses = _orthant.misses(r, level, samples, seed)
    a = math.asin(r)
    if level == 1:
        formula = 0.25 + a / (2.0 * math.pi)
    elif level == 2:
        formula = 0.25 + a * a / math.pi**2
    else:
        formula = 0.25 + 4.0 * a**4 / math.pi**4
    return _mc_report(samples - misses, formula, samples, seed)


def cocycle_variances(spec: GaussianSpec, n_max: int) -> np.ndarray:
    """Var(X_0 + ... + X_{n-1}) = sum_{|k|<n} (n - |k|) r(k) for n = 0..n_max, as
    one cumulative sum of Var_n - Var_{n-1} = 1 + 2 sum_{1<=k<n} r(k)."""
    if not 0 <= n_max <= spec.half_width + 1:
        raise ValueError(f"need 0 <= n_max <= autocov range + 1, got {n_max}")
    steps = np.ones(n_max + 1)
    steps[0] = 0.0
    steps[2:] += 2.0 * np.cumsum(spec.autocov[1:n_max])
    return np.cumsum(steps)


def cocycle_correlation_table(spec: GaussianSpec, M: int, n_max: int) -> FourierTable:
    """Exact sign-partition correlations of the circle extension by e^{2 pi i X_0}.

    c(n) = sum_{odd |m| <= M} |f-hat(m)|^2 exp(-2 pi^2 m^2 Var(X_0^{(n)})),
    from the Gaussian characteristic function.  Requires r >= 0, which forces
    Var(X_0^{(n)}) >= n and hence a summable, rapidly decaying table.  The
    tail bound covers the lags past n_max and the odd |m| > M that the stored
    lags leave out.  Var_n rises strictly, so once the largest term, m = +-1,
    underflows to 0.0 at the last lag of a block of exponentials, every term of
    every later lag is 0.0 too: the loop stops there and those lags stay 0.0.
    """
    if np.any(spec.autocov < 0.0):
        raise ValueError("cocycle correlation table requires r(k) >= 0 for all k")
    var = cocycle_variances(spec, n_max)
    sw = square_wave_coeffs(M)
    w, rate = sw.weights, -2.0 * math.pi**2 * sw.odd_ms.astype(float) ** 2
    step = max(1, 2**16 // rate.size)  # lags per block: 2^16 exponentials, or one lag's
    nn = np.zeros(n_max + 1)
    nn[0] = 1.0
    for lo in range(1, n_max + 1, step):
        terms = np.exp(rate * var[lo:lo + step, None])
        nn[lo:lo + step] = (w * terms).sum(axis=1)
        if not terms[-1].any():
            break
    # beyond n_max: Var >= n, so |c(n)| <= e^{-2 pi^2 n}; geometric tail
    q = math.exp(-2.0 * math.pi**2)
    tail = 2.0 * q ** (n_max + 1) / (1.0 - q)
    # the odd m > M left out of each stored lag n != 0: with m1 the first of
    # them, x = e^{-2 pi^2 m1^2} and y = e^{-8 pi^2 m1}, (m1 + 2j)^2 >= m1^2 + 4 m1 j
    # gives sum_{m >= m1} 8/(pi^2 m^2) e^{-2 pi^2 m^2 n} <= x^n / (m1^2 (1 - y)),
    # and over n >= 1 and both signs of n, 2x / (m1^2 (1 - x)(1 - y)); 8/pi^2 < 1
    # absorbs the rounding (it underflows to 0 once m1 >= 7)
    m1 = (M + 1) | 1
    x, y = math.exp(-2.0 * math.pi**2 * m1**2), math.exp(-8.0 * math.pi**2 * m1)
    tail += 2.0 * x / (m1**2 * (1.0 - x) * (1.0 - y))
    return FourierTable.from_nonneg(nn, tail_bound=tail, label="gaussian-cocycle")


def _pairwise_series(term, lo: int, n: int) -> np.float64:
    """np.sum(term(ks)) over ks = lo, ..., lo + n - 1 (as floats), without the
    length-n array.  The range splits where numpy's pairwise summation splits
    it, the first half n // 2 rounded down to a multiple of 8, down to pieces
    of at most _SERIES_BLOCK terms; np.sum of a piece is numpy's sum of that
    subtree, so the result has the bits of the one-shot np.sum."""
    if n <= _SERIES_BLOCK:
        return np.sum(term(np.arange(lo, lo + n, dtype=float)))
    half = n // 2 - n // 2 % 8
    return _pairwise_series(term, lo, half) + _pairwise_series(term, lo + half, n - half)


@dataclass(frozen=True)
class ConstantChainReport:
    c: float
    arcsin_domain_ok: bool
    arcsin_domain_margin: float
    series_value: float
    series_tail_bound: float
    zeta_bound: float
    budget: float
    chain_ok: bool
    margin: float


def gnoat_constant_check(c: float | None = None) -> ConstantChainReport:
    """Verify the constant chain behind the 4-fold Gaussian construction.

    With c = pi^{1/2} ((1+eps0)/86)^{1/4} by default, checks that
    (i) |arcsin x| <= 2|x| on the used range |x| <= c/log 2, and
    (ii) sum_{k>=1} (32/pi^4) arcsin^4(c/sqrt(k))
         <= (512 c^4 / pi^4) zeta(2) <= 1 + eps0.

    The first 10^6 terms are summed in pairwise-ordered blocks
    (``_pairwise_series``): the sum holds O(2^16) floats where one full-length
    expression held about 23 MiB of temporaries, and it has the same bits as
    one np.sum of that expression.
    """
    from .sbh import epsilon0
    eps = epsilon0()
    if c is None:
        c = math.sqrt(math.pi) * ((1.0 + eps) / 86.0) ** 0.25
    xs = np.linspace(0.0, min(c / math.log(2.0), 1.0 - 1e-12), 20001)
    dom = np.arcsin(xs) <= 2.0 * xs + 1e-15
    dom_margin = float(np.min(2.0 * xs[1:] - np.arcsin(xs[1:])))
    k_cut = 10**6
    series = float(_pairwise_series(
        lambda ks: (32.0 / math.pi**4) * np.arcsin(np.minimum(c / np.sqrt(ks), 1.0)) ** 4,
        1, k_cut))
    # integral-test tail: terms <= (512 c^4 / pi^4) / k^2 once arcsin x <= 2x applies
    tail = 512.0 * c**4 / math.pi**4 / k_cut
    zeta2 = math.pi**2 / 6.0
    zeta_bound = 512.0 * c**4 / math.pi**4 * zeta2
    budget = 1.0 + eps
    return ConstantChainReport(
        c=float(c),
        arcsin_domain_ok=bool(np.all(dom)),
        arcsin_domain_margin=dom_margin,
        series_value=series,
        series_tail_bound=tail,
        zeta_bound=zeta_bound,
        budget=budget,
        chain_ok=bool(np.all(dom)) and series + tail <= zeta_bound <= budget,
        margin=budget - zeta_bound,
    )
