"""Probability measures on the circle represented by truncated Fourier tables.

A table stores c(0..N) together with ``tail_bound``, an upper bound on
sum_n |c_true(n) - c_table(n)| over all n (both signs): the l1 mass of the
dropped coefficients plus any error in the stored ones.  c(-n) = conj c(n)
holds for every measure, so the negative side is never stored.  All
transforms propagate that bound so every downstream certificate stays honest
about truncation.

The truncated density d(theta) = sum c(n) e^{2 pi i n theta} is read only on
uniform grids j/G, by one zero-padded inverse FFT of length mG >= 2N + 1
(:meth:`FourierTable.density`).  :func:`density_sup` adds the tail, a
Bernstein derivative margin and a stated FFT rounding term to the grid maximum;
``_density_min_lower`` bounds min d_N, so the least Toeplitz eigenvalue, from
below on a fine grid read as rotated coarse grids.

:meth:`FourierTable.gram` gathers the Gram matrix [c(n_i - n_j)] of any
index family; the SBH forms, the Toeplitz PSD check and Gaussian sampling
all read their matrices from it.

:func:`square_wave_coeffs` gives the Fourier coefficients of the fiber
observable 2 chi_[0,1/2) - 1 that the circle-extension correlation tables of
``systems`` and ``gaussian`` sum over.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

# minimal Toeplitz eigenvalue may dip this far below 0 and still count as PSD
PSD_TOL = -1e-8

_TOL = 1e-12

# largest half_width a measure file may declare, and the widest table a command
# builds (`system` and `gaussian cocycle --nmax`).  The table then holds
# 2^22 + 1 complex coefficients (64 MiB) and density_sup's grid of 4N + 4
# = 2^24 + 4 points needs 256 MiB per complex array.
MAX_HALF_WIDTH = 2**22


class InvariantViolation(ValueError):
    """A coefficient table breaks one of the probability-measure invariants."""


@dataclass(frozen=True)
class FourierTable:
    """Finite table c(n), |n| <= half_width, of a circle probability measure.

    ``coeffs`` has length N+1; entry [n] holds c(n) for n >= 0, and
    c(-n) = conj c(n).  ``tail_bound`` is an upper bound on
    sum_n |c_true(n) - c_table(n)| over all n, both signs, where c_table(n) = 0
    for |n| > N.  Instances are immutable; build them with
    :meth:`from_nonneg` or the module constructors.
    """

    coeffs: np.ndarray
    tail_bound: float = 0.0
    label: str = ""

    def __post_init__(self):
        # a copy, so that freezing it below leaves the caller's array writable
        arr = np.array(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise InvariantViolation("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation("coefficients must be finite")
        # c(0) is real: |c(0) - conj c(0)| = 2 |Im c(0)| stays within _TOL
        if abs(arr[0] - 1.0) > _TOL or abs(arr[0].imag) > _TOL / 2:
            raise InvariantViolation("c(0) = 1 violated (not a probability measure)")
        if np.any(np.abs(arr) > 1.0 + _TOL):
            raise InvariantViolation("|c(n)| <= 1 violated")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise InvariantViolation("tail_bound must be finite and nonnegative")
        arr.setflags(write=False)

    # kept although the constructor does the same: perfbench/traced_cli.py wraps it by name
    @classmethod
    def from_nonneg(cls, nonneg, tail_bound: float = 0.0, label: str = "") -> "FourierTable":
        """Build a table from c(0..N)."""
        return cls(nonneg, tail_bound=tail_bound, label=label)

    @property
    def half_width(self) -> int:
        return self.coeffs.size - 1

    def at(self, n: int) -> complex:
        """c(n), or 0 outside the stored support (covered by tail_bound)."""
        if abs(n) > self.half_width:
            return 0.0 + 0.0j
        c = complex(self.coeffs[abs(n)])
        return c.conjugate() if n < 0 else c

    @functools.cached_property
    def _gram_coeffs(self) -> np.ndarray:
        # real coefficients gather into float64 matrices; decided once per table
        return self.coeffs.real if not np.any(self.coeffs.imag) else self.coeffs

    def gram(self, idx) -> np.ndarray:
        """Gram matrices [c(n_i - n_j)] of the rows of an integer array: (..., k) -> (..., k, k).

        Entries with |n_i - n_j| > N are 0 (covered by tail_bound); float64 for a real table.
        """
        idx = np.asarray(idx)
        diffs = idx[..., :, None] - idx[..., None, :]
        lags = np.abs(diffs)
        inside = lags <= self.half_width
        c = self._gram_coeffs
        out = np.zeros(diffs.shape, dtype=c.dtype)
        out[inside] = c[lags[inside]]
        if c.dtype.kind == "c":
            np.conjugate(out, out=out, where=inside & (diffs < 0))
        return out

    def density(self, grid_size: int) -> np.ndarray:
        """d(j / grid_size) for j < grid_size, where d(theta) = sum c(n) e^{2 pi i n theta}.

        c(0..N) go to a[0..N] and conj c(n) to a[-n] of one zero array of
        length L = m * grid_size >= 2N + 1, m = ceil((2N + 1) / grid_size), so
        nothing folds; every m-th point of the real part of its unnormalised
        inverse FFT L * ifft(a) is the grid density.  O(L log L).
        """
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        c, N = self.coeffs, self.half_width
        m = -(-(2 * N + 1) // grid_size)
        a = np.zeros(m * grid_size, dtype=complex)
        a[:N + 1] = c
        a[a.size - N:] = c[:0:-1].conj()
        return np.real(np.fft.ifft(a, norm="forward"))[::m]


@dataclass(frozen=True)
class DensityBoundReport:
    grid_size: int
    sup_estimate: float
    certified_upper: float


def lebesgue_table(N: int) -> FourierTable:
    """Lebesgue measure: c(0)=1, all other coefficients 0."""
    if N < 0:
        raise ValueError("N must be >= 0")
    nn = np.zeros(N + 1, dtype=complex)
    nn[0] = 1.0
    return FourierTable.from_nonneg(nn, tail_bound=0.0, label="lebesgue")


def dirac_table(N: int) -> FourierTable:
    """Point mass at 0: c(n) = 1 for all n.  Handy non-Rajchman witness."""
    return FourierTable.from_nonneg(np.ones(N + 1, dtype=complex), label="dirac")


def power_subsample(t: FourierTable, m: int) -> FourierTable:
    """Table of c(m n): the spectral picture of the m-th power of the system."""
    if m < 1:
        raise ValueError("m must be >= 1")
    nn = t.coeffs[::m]
    # dropped terms all have |index| > N, so the old tail bound still covers them
    return FourierTable.from_nonneg(
        nn, tail_bound=t.tail_bound, label=f"{t.label}^(sub {m})"
    )


def l1_tail(t: FourierTable) -> float:
    """Sum of |c(n)| over n != 0, including the out-of-support bound."""
    return 2.0 * float(np.sum(np.abs(t.coeffs[1:]))) + t.tail_bound


def _fft_rounding(t: FourierTable, grid_size: int) -> float:
    """Bound on the max-norm rounding error of the grid density of ``t``.

    Higham, Accuracy and Stability of Numerical Algorithms, Thm 24.2: a
    computed length-G FFT of a has 2-norm error at most about
    log2(G) eta sqrt(G) ||a||_2, with eta = mu + gamma_4 (sqrt(2) + mu), i.e.
    about 5.7 u plus the twiddle-factor error mu.  We take eta = 8 eps = 16 u,
    a generous constant, and the max-norm error is at most the 2-norm one.
    ``grid_size`` is the FFT length mG of :meth:`FourierTable.density`.
    Nothing folds on any grid, so ||a||_2 = ||c||_2, the norm of c(-N..N):
    sqrt(|c(0)|^2 + 2 sum_{n>=1} |c(n)|^2).
    """
    norm2 = math.hypot(abs(t.coeffs[0]), math.sqrt(2.0) * float(np.linalg.norm(t.coeffs[1:])))
    log2g = math.ceil(math.log2(grid_size))
    return log2g * 8.0 * float(np.finfo(float).eps) * math.sqrt(grid_size) * norm2


def density_sup(t: FourierTable, grid_size: int) -> DensityBoundReport:
    """Certified upper bound for sup of the (truncated) density.

    On the grid j / grid_size of :meth:`FourierTable.density`,

        certified_upper = grid max + tail_bound + margin + rounding,

    where margin = 2 pi sum |n||c(n)| / (2 grid_size) promotes the grid
    maximum to a sup via the Bernstein-type estimate |d'| <= 2 pi sum |n||c(n)|
    and rounding = ``_fft_rounding(t, grid_size)`` bounds the FFT's error.
    """
    N = t.half_width
    if grid_size < 4 * N + 4:
        raise ValueError(f"grid_size must be >= 4N+4 = {4 * N + 4}")
    vals = t.density(grid_size)
    sup_est = float(np.max(vals))
    deriv_sup = 4.0 * math.pi * float(np.sum(np.arange(N + 1) * np.abs(t.coeffs)))
    margin = deriv_sup / (2.0 * grid_size)
    return DensityBoundReport(
        grid_size=grid_size,
        sup_estimate=sup_est,
        certified_upper=sup_est + t.tail_bound + margin + _fft_rounding(t, grid_size),
    )


def _arcsine_map(t: FourierTable, fn, slope, name: str) -> FourierTable:
    """The table 1, fn(arcsin c(1)), .., fn(arcsin c(N)) of a table real off n=0.

    |fn(arcsin x)| <= |x| on [-1, 1] covers the coefficients past N, and
    ``slope(s)``, the map's largest slope on [-s, s], covers the error of the
    stored ones, which are at most s = rho + T in size, rho = max |c(n >= 1)|
    and T the tail.  So the tail max(1, slope(s)) T, rounded up, is an l1
    bound again; a table with T > 0 needs s < 1.
    """
    c = t.coeffs[1:]
    if np.any(np.abs(c.imag) > _TOL):
        raise ValueError("arcsine transforms need real coefficients off n=0")
    if np.any(np.abs(c.real) >= 1.0):
        raise ValueError("arcsine transforms need |c(n)| < 1 for n != 0")
    tail = 0.0
    if t.tail_bound > 0.0:
        s = math.nextafter(float(np.max(np.abs(c.real), initial=0.0)) + t.tail_bound, math.inf)
        if s >= 1.0:
            raise ValueError("arcsine transforms need max |c(n)| + tail_bound < 1 for n != 0 "
                             f"when tail_bound > 0, got {s!r}")
        # the factor covers the dozen roundings of slope(s) and the product
        tail = max(1.0, slope(s)) * t.tail_bound * (1.0 + 16.0 * math.ulp(1.0))
    out = np.empty(t.half_width + 1, dtype=complex)
    out[0] = 1.0
    out[1:] = fn(np.arcsin(c.real))
    return FourierTable(out, tail_bound=tail, label=f"{name}({t.label})")


def _asin_slope(s: float) -> float:
    """1/sqrt(1 - s^2), the slope of arcsin at s, with 1 - s^2 as (1 - s)(1 + s)."""
    return 1.0 / math.sqrt((1.0 - s) * (1.0 + s))


def arcsine_transform(t: FourierTable) -> FourierTable:
    """(2/pi) arcsin(c(n)) off the origin: correlation table of the sign process."""
    return _arcsine_map(t, lambda a: (2.0 / math.pi) * a,
                        lambda s: (2.0 / math.pi) * _asin_slope(s), "arcsine")


def arcsine_fourth_transform(t: FourierTable) -> FourierTable:
    """(16/pi^4) arcsin^4(c(n)) off the origin: sign correlations of the 4-fold product."""
    return _arcsine_map(t, lambda a: (16.0 / math.pi**4) * a ** 4,
                        lambda s: (64.0 / math.pi**4) * math.asin(s) ** 3 * _asin_slope(s),
                        "arcsine4")


def riesz_product(amplitudes, frequencies, N: int) -> FourierTable:
    """Riesz product prod_j (1 + a_j cos(2 pi lambda_j x)) as a coefficient table.

    Lacunarity lambda_{j+1} >= 3 lambda_j keeps each new factor's shifted copies
    of the product so far apart, so the coefficients below are exact.
    """
    a = [float(x) for x in amplitudes]
    lam = [int(x) for x in frequencies]
    if len(a) != len(lam):
        raise ValueError("amplitudes and frequencies must have equal length")
    if any(abs(x) > 1.0 for x in a):
        raise ValueError("amplitudes must lie in [-1, 1]")
    if any(l <= 0 for l in lam):
        raise ValueError("frequencies must be positive")
    for j in range(len(lam) - 1):
        if lam[j + 1] < 3 * lam[j]:
            raise ValueError("lacunarity violated: need lambda_{j+1} >= 3 lambda_j")
    # multiply the factors in by increasing frequency: the product below lambda lives
    # on |n| <= S < lambda / 2 (lacunarity), so 1 + a cos(2 pi lambda x) adds
    # (a / 2) c(|n - lambda|) on lambda - S <= n <= lambda + S, where c is still 0
    # (so a -0.0 product lands as 0.0); once lambda - S > N no later factor lands
    nn = np.zeros(N + 1, dtype=complex)
    nn[0] = 1.0
    c, S = nn.real, 0  # a view: the table is real
    for l, x in zip(lam, a):
        if l - S > N:
            break
        hi, lo = min(N, l + S), max(1, l - N)
        c[l:hi + 1] += c[:max(0, hi + 1 - l)] * x / 2.0  # n >= l reads c(n - l)
        c[l - S:l - lo + 1] += c[lo:S + 1][::-1] * x / 2.0  # n < l reads c(l - n)
        S += l
    return FourierTable.from_nonneg(
        nn, tail_bound=0.0,
        label=f"riesz(a={a}, freq={lam})",
    )


def sqrt_template(c: float, N: int) -> FourierTable:
    """Coefficient template c(n) = c/sqrt(|n|), not necessarily positive
    semidefinite: ``GaussianSpec.from_fourier_table`` certifies that it is PSD.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("need 0 <= c <= 1")
    ns = np.arange(N + 1, dtype=float)
    nn = np.ones(N + 1, dtype=complex)
    nn[1:] = c / np.sqrt(ns[1:])
    return FourierTable.from_nonneg(
        nn, tail_bound=0.0,
        label=f"sqrt-template(c={c}) [coefficient template; PSD not certified]",
    )


def _density_min_lower(t: FourierTable) -> float:
    """A lower bound on min d_N, so on the least eigenvalue of each Toeplitz matrix
    [c(i - j)] of size k <= N + 1, whose quadratic form integrates
    |sum_j x_j e(j theta)|^2 d_N(theta), e(x) = e^{2 pi i x} (Grenander and Szego).

    d_N is read on j/G, G the power of two >= 64N (>= 64), h = 1/G.  A grid
    point is within h/2 of a minimiser, where d_N' = 0, so min d_N >= grid min
    - h^2/8 ||d_N''||, and ||d_N''|| <= (2 pi N)^2 ||d_N|| (Bernstein) with
    ||d_N|| <= (max |grid value| + rounding) / (1 - pi N / G), sup norms.  The grid
    is R = G/L >= 16 grids, L the power of two >= 2N + 1: c(n) e(nr/G) is d_N
    translated by r/G, so its ``density(L)`` is d_N((qR + r)/G), q < L.  A phase
    e(nr/G) needs no reduction (nr < NR < G/2) and errs by delta <= about 15 eps,
    moving values by delta sum |c(n)| <= delta sqrt(L) ||c||_2; the FFT adds
    log2(L) 8 eps sqrt(L) ||c||_2.  R >= 16 makes ``_fft_rounding(t, G)``
    >= 32 (log2(L) + 4) eps sqrt(L) ||c||_2, covering both.  O(G log L) time,
    O(N) memory.
    """
    N = t.half_width
    G = 1 << max(6, (64 * N - 1).bit_length())
    L, n, lo, hi = 1 << (2 * N).bit_length(), np.arange(N + 1), math.inf, 0.0
    for r in range(G // L):
        vals = FourierTable(t.coeffs * np.exp((2j * math.pi / G) * (n * r))).density(L)
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    rounding = _fft_rounding(t, G)
    sup = (max(hi, -lo) + rounding) / (1.0 - math.pi * N / G)
    return lo - rounding - 0.5 * (math.pi * N / G) ** 2 * sup


def is_positive_definite(t: FourierTable, k: int) -> tuple[bool, float]:
    """PSD check of the k x k Toeplitz matrix [c(i-j)]; returns (pass, min eig).

    A real table gives a real symmetric matrix (see :meth:`FourierTable.gram`),
    whose eigenvalues come several times faster than those of the equal
    complex Hermitian one.
    """
    if k < 1 or k > t.half_width + 1:
        raise ValueError("need 1 <= k <= half_width + 1")
    lam_min = float(np.linalg.eigvalsh(t.gram(np.arange(k)))[0])
    return lam_min >= PSD_TOL, lam_min


# ---------------------------------------------------------------------------
# Square-wave Fourier coefficients (the fiber observable 2*chi_[0,1/2) - 1)


@dataclass(frozen=True)
class SquareWaveCoeffs:
    """f-hat(m) for f = 2 chi_[0,1/2) - 1, odd |m| <= M."""

    M: int

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
    def truncation_error(self) -> float:
        """Upper bound on the l2 mass beyond M: 8/(pi^2 M)."""
        return 8.0 / (math.pi**2 * self.M)


def square_wave_coeffs(M: int) -> SquareWaveCoeffs:
    # every --M is checked here, before any array of odd m is allocated
    if not 1 <= M <= MAX_HALF_WIDTH:
        raise ValueError(f"need 1 <= M <= {MAX_HALF_WIDTH}, got {M}")
    return SquareWaveCoeffs(M)


# ---------------------------------------------------------------------------
# JSON measure format: {"label", "half_width", "tail_bound",
#                       "coeffs": [[n, re, im], ...]}  with n >= 0 only.

def table_json_pieces(t: FourierTable):
    """The text of ``t``'s measure file, 2^16 coefficients a piece (one JSON line)."""
    yield json.dumps({"label": t.label, "half_width": t.half_width, "tail_bound": t.tail_bound,
                      "coeffs": []}, allow_nan=False)[:-2]  # up to the coefficients' "["
    for i in range(0, t.half_width + 1, 2**16):
        c = t.coeffs[i:i + 2**16]  # finite; tolist() gives floats, which json prints by repr
        rows = json.dumps(list(zip(range(i, i + c.size), c.real.tolist(), c.imag.tolist())))
        yield (", " if i else "") + rows[1:-1]
    yield "]}\n"


def _json_number(x) -> float:
    # float() alone would also read the strings "1" and "nan" and the boolean true
    if type(x) not in (int, float):
        raise TypeError(f"expected a JSON number, got {x!r}")
    return float(x)


def _coefficient_rows(rows):
    # one row at a time; the caller's index checks raise outside this try
    try:
        for n, re, im in rows:
            yield n, _json_number(re), _json_number(im)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantViolation(f"malformed coefficient row: {exc}") from exc


def table_from_json_obj(obj: dict) -> FourierTable:
    try:
        N = obj["half_width"]
        tail = _json_number(obj["tail_bound"])
        rows = obj["coeffs"]
        label = str(obj.get("label", ""))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvariantViolation(f"malformed measure object: {exc}") from exc
    # JSON integers only (`type(x) is int`): int() would read 1.9 as 1 and true as 1
    if type(N) is not int or not 0 <= N <= MAX_HALF_WIDTH:
        raise InvariantViolation(
            f"half_width must be an integer in [0, {MAX_HALF_WIDTH}], got {N!r}")
    nn = np.zeros(N + 1, dtype=complex)
    last = -1
    for n, re, im in _coefficient_rows(rows):
        if type(n) is not int:
            raise InvariantViolation(f"coefficient index must be an integer, got {n!r}")
        if n < 0:
            raise InvariantViolation("coefficients must be listed for n >= 0 only")
        if n <= last:
            raise InvariantViolation("coefficients must be sorted by n, no duplicates")
        if n > N:
            raise InvariantViolation("coefficient index exceeds half_width")
        last = n
        nn[n] = complex(re, im)  # re + 1j * im would turn re = -0.0 into 0.0
    # the FourierTable constructor re-checks c(0)=1, |c|<=1, tail_bound >= 0
    return FourierTable.from_nonneg(nn, tail_bound=tail, label=label)


def write_measure(t: FourierTable, path) -> None:
    """Write ``t`` in the bytes that ``atlab measure --out`` writes."""
    with open(path, "w") as fh:
        fh.writelines(table_json_pieces(t))


def read_measure(path) -> FourierTable:
    with open(path) as fh:
        return table_from_json_obj(json.load(fh))
