"""Stationary Gaussian processes: sampling, orthant laws, cocycle correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable, _density_min_lower, is_positive_definite
from .systems import square_wave_coeffs

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)

# largest Monte Carlo run the CLI starts: three float64 and three bool arrays
# of this length, about 430 MiB at any level
MAX_MC_SAMPLES = 2**24


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
        return FourierTable.from_nonneg(self.autocov.astype(complex), label="gaussian-spec")

    @classmethod
    def from_fourier_table(cls, t: FourierTable) -> "GaussianSpec":
        """The spec of a real table with no tail whose Toeplitz matrix T_{N+1} is PSD.

        A table with tail_bound > 0 raises ValueError: its spec would be the
        finite-range process of the stored coefficients, not the measure's.
        PSD is certified by the grid bound ``fourier._density_min_lower`` on
        min d_N, which bounds the least eigenvalue of T_{N+1} from below in
        O(N log N); only when that bound is negative does the check fall back
        to ``is_positive_definite``, numpy's O(N^3) ``eigvalsh`` of T_{N+1}.
        """
        nn = t.coeffs
        if np.any(np.abs(nn.imag) > 1e-12):
            raise ValueError("a Gaussian spec needs real coefficients")
        if t.tail_bound > 0.0:
            raise ValueError(f"a Gaussian spec needs tail_bound 0, got {t.tail_bound!r}: "
                             "the spec would be the finite-range process of the table")
        if (_density_min_lower(t) < 0.0
                and not is_positive_definite(t, t.half_width + 1)[0]):
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


def _mc_report(hits: np.ndarray, formula: float, samples: int, seed: int) -> McReport:
    p = float(np.mean(hits))
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
    """
    if level not in (1, 2, 4):
        raise ValueError("level must be 1, 2 or 4")
    r = _mc_lag(spec, n, samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = math.sqrt(1.0 - r * r)
    # a product is > 0 exactly when no factor is 0 and an even number are
    # negative: track that parity instead of float products
    neg0 = np.zeros(samples, dtype=bool)
    negn = np.zeros(samples, dtype=bool)
    zero = np.zeros(samples, dtype=bool)
    for _ in range(level):
        x0 = rng.standard_normal(samples)
        xn = rng.standard_normal(samples)
        xn *= scale
        xn += r * x0  # r x0 + sqrt(1 - r^2) z
        neg0 ^= x0 < 0
        negn ^= xn < 0
        zero |= x0 == 0
        zero |= xn == 0
        del x0, xn  # free this level's draw before the next one
    a = math.asin(r)
    if level == 1:
        formula = 0.25 + a / (2.0 * math.pi)
    elif level == 2:
        formula = 0.25 + a * a / math.pi**2
    else:
        formula = 0.25 + 4.0 * a**4 / math.pi**4
    return _mc_report(~(neg0 | negn | zero), formula, samples, seed)


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
    Var(X_0^{(n)}) >= n and hence a summable, rapidly decaying table.
    """
    if np.any(spec.autocov < 0.0):
        raise ValueError("cocycle correlation table requires r(k) >= 0 for all k")
    var = cocycle_variances(spec, n_max)
    sw = square_wave_coeffs(M)
    w, rate = sw.weights, -2.0 * math.pi**2 * sw.odd_ms.astype(float) ** 2
    step = max(1, 2**16 // rate.size)  # lags per block: 2^16 exponentials, or one lag's
    nn = np.empty(n_max + 1, dtype=complex)
    nn[0] = 1.0
    for lo in range(1, n_max + 1, step):
        nn[lo:lo + step] = (w * np.exp(rate * var[lo:lo + step, None])).sum(axis=1)
    # beyond n_max: Var >= n, so |c(n)| <= e^{-2 pi^2 n}; geometric tail
    q = math.exp(-2.0 * math.pi**2)
    tail = 2.0 * q ** (n_max + 1) / (1.0 - q)
    return FourierTable.from_nonneg(nn, tail_bound=tail, label="gaussian-cocycle")


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
    """
    from .sbh import epsilon0
    eps = epsilon0()
    if c is None:
        c = math.sqrt(math.pi) * ((1.0 + eps) / 86.0) ** 0.25
    xs = np.linspace(0.0, min(c / math.log(2.0), 1.0 - 1e-12), 20001)
    dom = np.arcsin(xs) <= 2.0 * xs + 1e-15
    dom_margin = float(np.min(2.0 * xs[1:] - np.arcsin(xs[1:])))
    k_cut = 10**6
    ks = np.arange(1, k_cut + 1, dtype=float)
    series = float(np.sum((32.0 / math.pi**4) * np.arcsin(np.minimum(c / np.sqrt(ks), 1.0)) ** 4))
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
