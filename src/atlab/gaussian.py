"""Stationary Gaussian processes: sampling, orthant laws, cocycle correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierTable, is_positive_definite
from .systems import square_wave_coeffs

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


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
        """The spec of a real table whose Toeplitz matrix T_{N+1} is PSD."""
        nn = t.nonneg()
        if np.any(np.abs(nn.imag) > 1e-12):
            raise ValueError("a Gaussian spec needs real coefficients")
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


def _correlated_pairs(r: float, samples: int, rng) -> tuple[np.ndarray, np.ndarray]:
    z1 = rng.standard_normal(samples)
    z2 = rng.standard_normal(samples)
    return z1, r * z1 + math.sqrt(1.0 - r * r) * z2


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


def sign_orthant_mc(spec: GaussianSpec, n: int, samples: int, seed: int) -> McReport:
    """Monte Carlo for mu{X_0 > 0, X_n > 0}; closed form 1/4 + arcsin(r)/(2 pi)."""
    r = _mc_lag(spec, n, samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x0, xn = _correlated_pairs(r, samples, rng)
    formula = 0.25 + math.asin(r) / (2.0 * math.pi)
    return _mc_report((x0 > 0) & (xn > 0), formula, samples, seed)


def product_orthant_mc(spec: GaussianSpec, n: int, level: int,
                       samples: int, seed: int) -> McReport:
    """Orthant law for products of 2 or 4 independent copies.

    level=2: mu{Y_0>0, Y_n>0} = 1/4 + arcsin^2(r)/pi^2;
    level=4: 1/4 + 4 arcsin^4(r)/pi^4.
    """
    if level not in (2, 4):
        raise ValueError("level must be 2 or 4")
    r = _mc_lag(spec, n, samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y0 = np.ones(samples)
    yn = np.ones(samples)
    for _ in range(level):
        x0, xn = _correlated_pairs(r, samples, rng)
        y0 *= x0
        yn *= xn
    a = math.asin(r)
    if level == 2:
        formula = 0.25 + a * a / math.pi**2
    else:
        formula = 0.25 + 4.0 * a**4 / math.pi**4
    return _mc_report((y0 > 0) & (yn > 0), formula, samples, seed)


def cocycle_variance(spec: GaussianSpec, n: int) -> float:
    """Var(X_0 + ... + X_{n-1}) = sum_{|k|<n} (n - |k|) r(k)."""
    if not 1 <= n <= spec.half_width + 1:
        raise ValueError("need 1 <= n <= autocov range + 1")
    ks = np.arange(1, n)
    return float(n + 2.0 * np.sum((n - ks) * spec.autocov[1:n]))


def cocycle_correlation_table(spec: GaussianSpec, M: int, n_max: int) -> FourierTable:
    """Exact sign-partition correlations of the circle extension by e^{2 pi i X_0}.

    c(n) = sum_{odd |m| <= M} |f-hat(m)|^2 exp(-2 pi^2 m^2 Var(X_0^{(n)})),
    from the Gaussian characteristic function.  Requires r >= 0, which forces
    Var(X_0^{(n)}) >= n and hence a summable, rapidly decaying table.
    """
    if np.any(spec.autocov < 0.0):
        raise ValueError("cocycle correlation table requires r(k) >= 0 for all k")
    if not 0 <= n_max <= spec.half_width + 1:
        raise ValueError(f"need 0 <= n_max <= autocov range + 1, got {n_max}")
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms.astype(float)
    w = sw.weights
    nn = np.empty(n_max + 1, dtype=complex)
    nn[0] = 1.0
    for n in range(1, n_max + 1):
        v = cocycle_variance(spec, n)
        nn[n] = float(np.sum(w * np.exp(-2.0 * math.pi**2 * ms**2 * v)))
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
