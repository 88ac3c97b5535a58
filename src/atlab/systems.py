"""Concrete measure-preserving systems with sign-symmetric two-set partitions.

Each system provides sampled {0,1} itineraries (P-names) for the empirical
harness, and, where the structure allows it, exact or truncated-series
correlation values <F o T^n, F> for F = chi_{P0} - chi_{P1}.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import FourierTable

SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0


def _require_finite(**params: float) -> None:
    for name, x in params.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


# ---------------------------------------------------------------------------
# Rudin-Shapiro substitution


_RS_SUBST = np.array([[0, 1], [0, 2], [3, 1], [3, 2]], dtype=np.int8)
_RS_SIGN = np.array([1, 1, -1, -1], dtype=np.int8)


def rudin_shapiro_names(L: int) -> np.ndarray:
    """First L signs (+-1) of the Rudin-Shapiro sequence via its substitution.

    Letters 0..3 follow 0->01, 1->02, 2->31, 3->32 with 0,1 read as +1 and
    2,3 as -1; the fixed point starting from 0 is generated by repeated
    substitution.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    word = np.array([0], dtype=np.int8)
    while word.size < L:
        word = _RS_SUBST[word].reshape(-1)
    return _RS_SIGN[word[:L]].astype(np.int8)


def empirical_correlation(signs: np.ndarray, n_max: int) -> np.ndarray:
    """Birkhoff-average correlations c(n) = mean_k s_k s_{k+n}, n = 0..n_max (no tail bound)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    s = np.asarray(signs, dtype=float)
    L = s.size
    if L < 4 * n_max:
        raise ValueError("sequence too short: need length >= 4 * n_max")
    c = np.empty(n_max + 1)
    c[0] = 1.0
    for n in range(1, n_max + 1):
        c[n] = s[:L - n] @ s[n:] / (L - n)
    return c


# ---------------------------------------------------------------------------
# Two-point extensions of the dyadic odometer


def two_point_extension_correlation(phi_table, n: int) -> float:
    """<V^n 1, 1> for the Z/2 extension of the dyadic odometer by phi.

    ``phi_table`` lists phi on the 2^d depth-d cylinders, indexed by the
    integer with those dyadic digits.  Since adding j to a dyadic integer
    only pushes carries upward, phi(T^j x) depends on x mod 2^d alone and
    the correlation is an exact average over the 2^d cylinders.
    """
    phi = np.asarray(phi_table, dtype=np.int64)
    m = phi.size
    if m & (m - 1) or m == 0:
        raise ValueError("phi_table length must be a power of two")
    if n < 0:
        raise ValueError("n must be >= 0")
    if m > 2**26:
        raise ValueError("cylinder enumeration budget exceeded")
    if n == 0:
        return 1.0
    total = int(phi.sum())
    cs = np.concatenate([[0], np.cumsum(np.concatenate([phi, phi]))])
    v = np.arange(m)
    full, rem = divmod(n, m)
    S = full * total + (cs[v + rem] - cs[v])
    return float(np.mean(np.where(S % 2 == 0, 1.0, -1.0)))


# ---------------------------------------------------------------------------
# Square-wave Fourier coefficients (the fiber observable 2*chi_[0,1/2) - 1)


@dataclass(frozen=True)
class SquareWaveCoeffs:
    """f-hat(m) for f = 2 chi_[0,1/2) - 1, odd |m| <= M."""

    M: int

    def coeff(self, m: int) -> complex:
        if m == 0 or m % 2 == 0:
            return 0.0 + 0.0j
        return 2.0 / (math.pi * 1j * m)

    @property
    def odd_ms(self) -> np.ndarray:
        pos = np.arange(1, self.M + 1, 2)
        return np.concatenate([-pos[::-1], pos])

    @property
    def weights(self) -> np.ndarray:
        """|f-hat(m)|^2 over odd_ms; sums to 1 as M -> infinity."""
        ms = self.odd_ms
        return 4.0 / (math.pi**2 * ms.astype(float) ** 2)

    @property
    def l2_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def truncation_error(self) -> float:
        """Upper bound on the l2 mass beyond M: 8/(pi^2 M)."""
        return 8.0 / (math.pi**2 * self.M)


def square_wave_coeffs(M: int) -> SquareWaveCoeffs:
    if M < 1:
        raise ValueError("M must be >= 1")
    return SquareWaveCoeffs(M)


# ---------------------------------------------------------------------------
# Absolutely continuous cocycle over an irrational rotation


def rotation_ac_cocycle_correlation(alpha: float, delta: float, delta0: float,
                                    n: int, M: int = 21) -> complex:
    """sigma_F-hat(n) for the circle extension by e^{2 pi i (x + g(x))},
    g(x) = (delta / 2 pi) sin(2 pi x), over the rotation by alpha.

    Sums |f-hat(m)|^2-weighted oscillatory integrals over odd |m| <= M.  With
    S = sum_{j<n} e^{2 pi i j alpha} = |S| e^{i psi}, g^(n)(x) = (delta/2pi)
    |S| sin(2 pi x + psi), so by Jacobi-Anger each integral is the Bessel term
    e^{2 pi i m c} J_{-mn}(m delta |S|) e^{-i m n psi}, c = n(n-1) alpha / 2.
    Negative lags follow the Hermitian convention c(-n) = conj(c(n)).
    """
    # scipy.special takes ~50 ms to import; keep it off the CLI start-up path
    from scipy.special import jv
    _require_finite(alpha=alpha)
    if not 0.0 < delta0 < 1.0:
        raise ValueError("need 0 < delta0 < 1")
    if not 0.0 <= delta < 1.0 - delta0:
        raise ValueError("need 0 <= delta < 1 - delta0")
    if n == 0:
        return 1.0 + 0.0j
    if n < 0:
        return rotation_ac_cocycle_correlation(alpha, delta, delta0, -n, M).conjugate()
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    S = np.sum(np.exp(2j * np.pi * alpha * np.arange(n)))
    const = n * (n - 1) * alpha / 2.0
    integrals = (np.exp(2j * np.pi * ms * const) * jv(-ms * n, ms * delta * abs(S))
                 * np.exp(-1j * ms * n * np.angle(S)))
    return complex(np.sum(sw.weights * integrals))


def ac_cocycle_analytic_constant(delta: float, delta0: float, M: int = 10**4) -> float:
    """C with |sigma_F-hat(n)| <= C/|n|: the variation-bound chain with
    Var(g') = 4 delta and |f-hat(m)|^2 weights."""
    sw = square_wave_coeffs(M)
    ms = np.abs(sw.odd_ms).astype(float)
    var_gp = 4.0 * delta
    return float(np.sum(sw.weights / (2.0 * math.pi * ms))) * var_gp / (1.0 - delta0) ** 2


def ac_cocycle_table(alpha: float, delta: float, delta0: float, N: int,
                     M: int = 21) -> FourierTable:
    """Correlation table of the AC-cocycle extension for |n| <= N.

    Values (``rotation_ac_cocycle_correlation``) and tail bound both come
    from Bessel coefficients: |int e^{i(2 pi m n x + z sin(2 pi x + psi))} dx|
    <= (z/2)^{|mn|} / |mn|!  with z <= m * delta / |sin(pi alpha)| (the
    standard bound on Bessel coefficients), which decays superexponentially.
    """
    nn = np.empty(N + 1, dtype=complex)
    nn[0] = 1.0
    for n in range(1, N + 1):
        nn[n] = rotation_ac_cocycle_correlation(alpha, delta, delta0, n, M)
    amp = abs(delta) / abs(math.sin(math.pi * (alpha % 1.0)))

    def bessel_bound(m: int, n: int) -> float:
        # |int e^{i(2 pi m n x + z sin(...))} dx| <= min(1, (z/2)^{mn}/(mn)!)
        k = m * n
        log_term = k * math.log(max(m * amp, 1e-300) / 2.0) - math.lgamma(k + 1)
        return math.exp(min(log_term, 0.0))

    m_cap = max(M, 401)
    tail = 0.0
    for m in range(1, m_cap + 1, 2):
        w_m = 2.0 * (4.0 / (math.pi * m) ** 2)  # both signs of m
        # out-of-support coefficients |n| > N
        for n in range(N + 1, N + 60):
            t_mn = bessel_bound(m, n)
            if t_mn < 1e-300:
                break
            tail += 2.0 * w_m * t_mn  # both signs of n
        # error of the stored |n| <= N coefficients from dropped |m| > M
        if m > M:
            for n in range(1, N + 1):
                tail += 2.0 * w_m * bessel_bound(m, n)
    # conservative closing term for m > m_cap
    tail += 8.0 / (math.pi**2 * m_cap) * max(
        bessel_bound(m_cap + 2, 1) * (m_cap + 2) ** 2 / 4.0 * math.pi**2, 0.0)
    return FourierTable.from_nonneg(
        nn, tail_bound=tail,
        label=f"ac-cocycle(alpha={alpha}, delta={delta}, delta0={delta0})",
    )


# ---------------------------------------------------------------------------
# Nil-rotation (Heisenberg quotient) as a skew product over the 2-torus


def _reject_rational(x: float, name: str) -> None:
    # small denominators collapse the breakpoint structure; larger rational
    # approximations are harmless for the integral formulas below
    _require_finite(**{name: x})
    fr = Fraction(x).limit_denominator(4)
    if abs(x - float(fr)) < 1e-12:
        raise ValueError(f"{name} is rational to within 1e-12 ({fr})")


def _nil_phi(x, y, alpha, beta, gamma):
    fx = np.mod(x, 1.0)
    fy = np.mod(y, 1.0)
    return alpha * fy - (fx + alpha) * np.floor(fy + beta) + gamma


def nil_rotation_correlation(alpha: float, beta: float, gamma: float,
                             n: int, M: int = 201) -> complex:
    """<F o T^n, F> for the nil-rotation skew product, exactly.

    The x-average kills every m-term unless the integer coefficient
    sum_{j<n} floor({y + j beta} + beta) vanishes; on that set the phase is
    piecewise linear in y, so each piece integrates in closed form.
    """
    _reject_rational(beta, "beta")
    _reject_rational(alpha, "alpha")
    _require_finite(gamma=gamma)
    if not 0.0 < beta < 1.0:
        raise ValueError("need 0 < beta < 1")
    if n < 0:
        n = -n  # correlation is real-symmetric
    if n == 0:
        return 1.0 + 0.0j
    js = np.arange(n)
    # breakpoints of y -> (floor({y+j b}+b))_j and of the frac parts
    brk = np.concatenate([np.mod(-js * beta, 1.0),
                          np.mod(1.0 - beta - js * beta, 1.0), [0.0, 1.0]])
    brk = np.unique(np.clip(brk, 0.0, 1.0))
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    w = sw.weights
    total = np.zeros(ms.size, dtype=complex)
    found = False
    for a, b in zip(brk[:-1], brk[1:]):
        ymid = 0.5 * (a + b)
        fr = np.mod(ymid + js * beta, 1.0)
        if np.any(fr >= 1.0 - beta):
            continue  # an indicator term is 1: the x-integral vanishes
        found = True
        # on this piece sum_j {y + j beta} = n y + C with constant C
        C = float(np.sum(fr - ymid))
        rate = 2j * np.pi * ms * alpha * n
        seg = np.exp(2j * np.pi * ms * (alpha * C + n * gamma)) * (
            np.exp(rate * b) - np.exp(rate * a)) / rate
        total += seg
    if not found:
        return 0.0 + 0.0j
    return complex(np.sum(w * total))


def nil_rotation_n1_series(alpha: float, beta: float, gamma: float,
                           M: int = 201) -> complex:
    """Closed-form n=1 series: sum_m |f-hat(m)|^2 e^{2 pi i m gamma}
    (e^{2 pi i m alpha (1-beta)} - 1) / (2 pi i m alpha)."""
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    w = sw.weights
    num = np.exp(2j * np.pi * ms * gamma) * (
        np.exp(2j * np.pi * ms * alpha * (1.0 - beta)) - 1.0)
    return complex(np.sum(w * num / (2j * np.pi * ms * alpha)))


# ---------------------------------------------------------------------------
# Distal extension: the vanishing fiber integral


def distal_integral(n: int, m_scale: int = 1) -> complex:
    """int_0^1 e^{i pi chi_[0,1/2)(m n y mod 1)} dy by exact piecewise summation.

    For K = m*n != 0 the circle splits into 2|K| intervals on which the
    integrand alternates between -1 and +1; at n = 0 the integrand is the
    mean-zero square wave itself.
    """
    K = abs(m_scale * n)
    if K == 0:
        return complex(0.5 * (-1.0) + 0.5 * (+1.0))
    j = np.arange(2 * K)
    piece = np.where(j % 2 == 0, -1.0, 1.0) / (2.0 * K)
    return complex(np.sum(piece))


# ---------------------------------------------------------------------------
# Name sources: sampled {0,1} P-names along orbits


def _bit_from_frac(z: np.ndarray) -> np.ndarray:
    """0 iff the circle coordinate falls in [0, 1/2)."""
    return (np.mod(z, 1.0) >= 0.5).astype(np.uint8)


class NameSource:
    """Producer of P-name samples; subclasses fill in ``sample_names``."""

    def sample_names(self, count: int, length: int, seed: int) -> np.ndarray:
        raise NotImplementedError

    def exact_correlation(self, n: int):
        """Exact <F o T^n, F>, or None when no closed form is implemented."""
        return None


class RotationCocycleSource(NameSource):
    """Circle extension of the rotation by alpha via x + g(x),
    g = (delta/2pi) sin(2 pi x); P0 = second coordinate in [0, 1/2)."""

    def __init__(self, alpha: float = SQRT2_M1, delta: float = 0.0,
                 delta0: float = 0.5, M: int = 21):
        _require_finite(alpha=alpha, delta=delta)
        self.alpha = alpha
        self.delta = delta
        self.delta0 = delta0
        self.M = M

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = rng.random(count)[:, None]
        y = rng.random(count)[:, None]
        j = np.arange(length)[None, :]
        drift = j * x + j * (j - 1) / 2.0 * self.alpha
        if self.delta != 0.0:
            # g^(j)(x) = (delta/2pi) Im(e^{2 pi i x} S_j), S_j = sum_{i<j} e^{2 pi i alpha i};
            # a cumulative sum, since the geometric-series quotient is 0/0 at alpha = 0
            S = np.zeros(j.shape, dtype=complex)
            S[:, 1:] = np.cumsum(np.exp(2j * np.pi * self.alpha * j[:, :-1]), axis=1)
            drift = drift + (self.delta / (2.0 * math.pi)) * np.imag(
                np.exp(2j * np.pi * x) * S)
        return _bit_from_frac(y + drift)

    def exact_correlation(self, n):
        if n == 0:
            return 1.0
        return complex(rotation_ac_cocycle_correlation(
            self.alpha, self.delta, self.delta0, n, self.M)).real


class NilRotationSource(NameSource):
    """Nil-rotation skew product on T^2 x T; P0 = fiber coordinate in [0, 1/2)."""

    def __init__(self, alpha: float = SQRT2_M1, beta: float = 0.7,
                 gamma: float = 0.0, M: int = 201):
        _reject_rational(beta, "beta")
        _require_finite(alpha=alpha, gamma=gamma)
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.M = M

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = rng.random(count)
        y = rng.random(count)
        z = rng.random(count)
        bits = np.empty((count, length), dtype=np.uint8)
        for j in range(length):
            bits[:, j] = _bit_from_frac(z)
            z = np.mod(z + _nil_phi(x, y, self.alpha, self.beta, self.gamma), 1.0)
            x = np.mod(x + self.alpha, 1.0)
            y = np.mod(y + self.beta, 1.0)
        return bits

    def exact_correlation(self, n):
        if n == 0:
            return 1.0
        return complex(nil_rotation_correlation(
            self.alpha, self.beta, self.gamma, n, self.M)).real


class DistalSource(NameSource):
    """Two-step skew product (x, y, z) -> (x + alpha, y + x, z + y);
    P0 = last coordinate in [0, 1/2).  Lebesgue fiber spectrum."""

    def __init__(self, alpha: float = SQRT2_M1):
        self.alpha = alpha

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x = rng.random(count)
        y = rng.random(count)
        z = rng.random(count)
        bits = np.empty((count, length), dtype=np.uint8)
        for j in range(length):
            bits[:, j] = _bit_from_frac(z)
            z = np.mod(z + y, 1.0)
            y = np.mod(y + x, 1.0)
            x = np.mod(x + self.alpha, 1.0)
        return bits

    def exact_correlation(self, n):
        return 1.0 if n == 0 else 0.0


class OdometerExtensionSource(NameSource):
    """Z/2 extension of the dyadic odometer; bit = group coordinate."""

    def __init__(self, phi_table):
        self.phi = np.asarray(phi_table, dtype=np.int64)
        m = self.phi.size
        if m == 0 or m & (m - 1):
            raise ValueError("phi_table length must be a power of two")

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m = self.phi.size
        v0 = rng.integers(0, m, size=count)
        g0 = rng.integers(0, 2, size=count).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(np.concatenate([self.phi, self.phi]))])
        total = int(self.phi.sum())
        j = np.arange(length)
        full, rem = np.divmod(j, m)
        # partial sums of phi along the orbit of each sampled cylinder
        S = full[None, :] * total + (cs[v0[:, None] + rem[None, :]] - cs[v0][:, None])
        return ((g0[:, None] + S) % 2).astype(np.uint8)

    def exact_correlation(self, n):
        return two_point_extension_correlation(self.phi, abs(int(n)))


class RudinShapiroSource(NameSource):
    """Shift orbit of the Rudin-Shapiro fixed point, sampled at uniform
    offsets into a long prefix (approximating the unique invariant measure)."""

    def __init__(self, log2_length: int = 21):
        self.signs = rudin_shapiro_names(2 ** log2_length)

    def sample_names(self, count, length, seed):
        if length >= self.signs.size:
            raise ValueError(f"names of length {length} need 2^log2_length > {length}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        starts = rng.integers(0, self.signs.size - length, size=count)
        idx = starts[:, None] + np.arange(length)[None, :]
        return (self.signs[idx] < 0).astype(np.uint8)


class CoinSource(NameSource):
    """I.i.d. bits; bit 0 has probability p0 (fair by default)."""

    def __init__(self, p0: float = 0.5):
        if not 0.0 < p0 < 1.0:
            raise ValueError("need 0 < p0 < 1")
        self.p0 = p0

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return (rng.random((count, length)) >= self.p0).astype(np.uint8)

    def exact_correlation(self, n):
        if n == 0:
            return 1.0
        return (1.0 - 2.0 * self.p0) ** 2 if self.p0 != 0.5 else 0.0


class ConstantSource(NameSource):
    """Degenerate fixture: each name is all-zeros or all-ones, equiprobably."""

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b = rng.integers(0, 2, size=count).astype(np.uint8)
        return np.repeat(b[:, None], length, axis=1)

    def exact_correlation(self, n):
        return 1.0


def names_to_signs(bits: np.ndarray) -> np.ndarray:
    """Map bits to +-1 with bit 0 (the P0 side) |-> +1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


# ---------------------------------------------------------------------------
# Packed-bit batch format: magic, count, length (little-endian u32/u64),
# then row-major packed bits.

_NAMES_MAGIC = b"ATNB"


def write_names(bits: np.ndarray, path) -> None:
    bits = np.asarray(bits, dtype=np.uint8)
    count, length = bits.shape
    with open(path, "wb") as fh:
        fh.write(_NAMES_MAGIC)
        fh.write(struct.pack("<QQ", count, length))
        fh.write(np.packbits(bits, axis=1).tobytes())


def read_names(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _NAMES_MAGIC:
            raise ValueError("not a name-batch file (bad magic)")
        count, length = struct.unpack("<QQ", fh.read(16))
        row_bytes = (length + 7) // 8
        raw = np.frombuffer(fh.read(count * row_bytes), dtype=np.uint8)
    packed = raw.reshape(count, row_bytes)
    return np.unpackbits(packed, axis=1)[:, :length]
