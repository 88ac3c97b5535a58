"""Concrete measure-preserving systems with sign-symmetric two-set partitions.

Each system provides sampled {0,1} itineraries (P-names) for the empirical
harness, and, where the structure allows it, exact or truncated-series
correlation values <F o T^n, F> for F = chi_{P0} - chi_{P1}.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import os
import struct

import numpy as np

from .fourier import MAX_HALF_WIDTH, FourierTable, square_wave_coeffs

SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0


def _require_finite(**params: float) -> None:
    for name, x in params.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")


# ---------------------------------------------------------------------------
# Rudin-Shapiro sequence


# largest log2 of a Rudin-Shapiro prefix the CLI builds (names only): 2^26 sign
# bits, one uint8 each, 64 MiB
MAX_LOG2_LENGTH = 26
# largest L of the Rudin-Shapiro lag sums, so that L - n stays an int64
MAX_LENGTH = 2**62


def _rudin_shapiro_bits(size: int) -> np.ndarray:
    """The bits r < 0 of the first ``size`` (a power of 2) Rudin-Shapiro signs r, as
    uint8, doubled in place: with r[:n] set, r[n + i] = r[i] and r[n + n/2 + i] =
    -r[n/2 + i] for i < n/2 (n + n/2 + i has one more '11' than n/2 + i)."""
    s = np.zeros(size, dtype=np.uint8)
    n = 2
    while n < size:
        s[n:n + n // 2] = s[:n // 2]
        np.bitwise_xor(s[n // 2:n], 1, out=s[n + n // 2:2 * n])
        n *= 2
    return s


def rudin_shapiro_names(L: int) -> np.ndarray:
    """First L signs (+-1) of the Rudin-Shapiro sequence, as int8: 1 - 2b for the
    first L bits b of ``_rudin_shapiro_bits``."""
    if L < 1:
        raise ValueError("L must be >= 1")
    signs = np.left_shift(_rudin_shapiro_bits(1 << (L - 1).bit_length())[:L], 1, dtype=np.int8)
    return np.subtract(1, signs, out=signs)


def _lag_sums(x: np.ndarray, y: np.ndarray, n_max: int) -> np.ndarray:
    """The exact lag sums sum_j x[j] y[j + n], n = 0..n_max, of two 1-D sequences
    of at most B = max(4096, 2^ceil(log2(n_max + 1))) entries +1 and -1, as int64
    (a longer sequence or any other entry raises ValueError).

    One Wiener-Khinchin correlation: x and y are zero-padded to G = 2B and get
    one rfft each (one in all when y is x).  The irfft of conj(X) Y is the
    circular correlation sum_k x[k] y[(k + n) mod G]; with k < B and n < B it
    does not wrap, so its first n_max + 1 entries are the lag sums.

    Each is an integer.  Following the convention of ``fourier._fft_rounding``
    (Higham, Thm 24.2, eta = 8 eps), a computed length-G transform has 2-norm
    error at most g = ceil(log2 G) 8 eps times the exact one's.  The errors of
    X and Y pass through the product and the inverse as at most
    (1 + sqrt 2) g ||x||_2 ||y||_2, the inverse adds
    g ||X Y||_2 / sqrt G <= g ||x||_1 ||y||_2, and the product rounding adds
    under 2 eps ||x||_2 ||y||_2.  With ||x||_2 <= ||x||_1 <= B and
    ||y||_2 <= sqrt G for signs, every sum is within E = (4 g + 2 eps) B sqrt G
    of its integer (3.4e-8 at B = 4096).  E < 1/2 is checked, so rounding
    recovers each sum exactly.
    """
    B = max(4096, 1 << int(n_max).bit_length())
    G = 2 * B
    eps = float(np.finfo(float).eps)
    if (4 * math.ceil(math.log2(G)) * 8.0 * eps + 2 * eps) * B * math.sqrt(G) >= 0.5:
        raise ValueError(f"n_max = {n_max} is too large for exact FFT lag sums")
    if max(x.size, y.size) > B:
        raise ValueError(f"need at most {B} signs for lags 0..{n_max}, got {max(x.size, y.size)}")

    def spectrum(v):
        v = v.astype(float)
        if not np.all(np.abs(v) == 1.0):
            raise ValueError("signs must be +1 or -1")
        return np.fft.rfft(v, G)  # numpy.fft loads on first use, not at import

    X = spectrum(x)
    Y = X if y is x else spectrum(y)
    return np.rint(np.fft.irfft(np.conj(X) * Y, G)[:n_max + 1]).astype(np.int64)


def _rudin_shapiro_sign(j: int) -> int:
    """r_j = (-1)^(number of '11' pairs in the binary digits of j)."""
    return -1 if bin(j & (j >> 1)).count("1") & 1 else 1


def rudin_shapiro_lag_sums(L: int, nmax: int) -> np.ndarray:
    """The exact lag sums S(n) = sum_{k < L-n} r_k r_{k+n}, n = 0..nmax, of the first L
    Rudin-Shapiro signs r, as int64, for L up to 2^62.

    Only P = r[:B] and Q = r[B:2B] are built, B being the most signs ``_lag_sums``
    takes for lags 0..nmax (a power of 2 above nmax).  By r(2i) = r(i) and
    r(2i+1) = (-1)^i r(i), block j of B signs is r_j P for even j and r_j Q for
    odd j.  With L = J B + R, R < B, a pair at distance n <= nmax lies in one
    block or straddles one cut; C(u, v) below sums the pairs across the cut
    of u v.
    - Within the J full blocks: ceil(J/2) A_P(n) + floor(J/2) A_Q(n), A being a
      block's own lag sums.  P, Q is a Golay pair, A_P + A_Q = 0 for n >= 1, so
      this is J B at n = 0 and (J & 1) A_P(n) after.
    - Across the cut of blocks 2i, 2i+1 (P, then Q), i < floor(J/2):
      r_{2i} r_{2i+1} = (-1)^i, so C(P, Q) counts (J >> 1) & 1 times.
    - Across the cut of blocks 2i+1, 2i+2 (Q, then P), i < I = floor((J-1)/2):
      r_{2i+1} r_{2i+2} = (-1)^i r_i r_{i+1}, so C(Q, P) counts
      T(I) = sum_{i<I} (-1)^i r_i r_{i+1} times.  Split by the parity of i, the
      same two rules give T(I) = (ceil(I/2) mod 2) - T(floor(I/2)).
    - The R signs left, r_J X with X = (P if J is even else Q)[:R]: their own
      lag sums, and r_{J-1} r_J C(X_{J-1}, X) across the cut before them.
    No large multiple of A_P is formed, so nothing can wrap in int64: S(0) = L,
    and past it |T(I)| is at most the bit length of I (below 50), every A at
    most B and every C at most nmax.
    """
    L, nmax = operator.index(L), operator.index(nmax)
    if L < 1 or nmax < 0:
        raise ValueError("need L >= 1 and nmax >= 0")
    if L > MAX_LENGTH or nmax > MAX_HALF_WIDTH:
        raise ValueError(f"need L <= 2**62 and nmax <= 2**22, got L = {L}, nmax = {nmax}")
    B = max(4096, 1 << nmax.bit_length())  # the most signs _lag_sums takes for lags 0..nmax
    signs = rudin_shapiro_names(2 * B)
    P, Q = signs[:B], signs[B:]

    def cross(u, v):  # lag n = 1..nmax pairs u[B - n + j] v[j], j < n, across the cut
        out = np.zeros(nmax + 1, dtype=np.int64)
        out[1:] = _lag_sums(v[:nmax], u[B - nmax:], nmax - 1)[::-1]
        return out

    J, R = divmod(L, B)
    T, sign, I = 0, 1, max(J - 1, 0) >> 1
    while I:  # T(I) = (ceil(I/2) mod 2) - T(floor(I/2)), unrolled
        T, sign, I = T + sign * ((I + 1) >> 1 & 1), -sign, I >> 1
    sums = np.zeros(nmax + 1, dtype=np.int64)
    if J & 1:
        sums += _lag_sums(P, P, nmax)
    if J >> 1 & 1:
        sums += cross(P, Q)
    if T:
        sums += T * cross(Q, P)
    if R:
        X = (Q if J & 1 else P)[:R]
        sums += _lag_sums(X, X, nmax)
        if J:
            sign = _rudin_shapiro_sign(J - 1) * _rudin_shapiro_sign(J)
            sums += sign * cross(P if J & 1 else Q, X)
    sums[0] = L
    return sums


# ---------------------------------------------------------------------------
# Two-point extensions of the dyadic odometer


def _parity_prefix(phi: np.ndarray) -> np.ndarray:
    """par[i] = parity of phi[0] + ... + phi[i - 1] over three periods of phi, as uint8:
    for v < m and n < 2m, S_n(v) = sum_{j<n} phi((v + j) mod m) is odd iff par[v + n] ^ par[v]."""
    par = np.zeros(3 * phi.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(np.tile((phi & 1).astype(np.uint8), 3), out=par[1:])
    return par


def _repeat_period(a: np.ndarray, period: int) -> np.ndarray:
    """a[j] = a[j mod period] for j >= period, in place, doubling the filled prefix; returns a."""
    while period < len(a):
        a[period:2 * period] = a[:min(period, len(a) - period)]
        period *= 2
    return a


def two_point_extension_correlations(phi_table, nmax: int) -> np.ndarray:
    """<V^n 1, 1>, n = 0..nmax, for the Z/2 extension of the dyadic odometer by
    phi, with one set-up for all lags.

    ``phi_table`` lists phi on the 2^d depth-d cylinders, indexed by the
    integer with those dyadic digits.  Since adding j to a dyadic integer
    only pushes carries upward, phi(T^j x) depends on x mod 2^d alone and
    the correlation is an exact average over the 2^d cylinders.

    Only the parity of the cocycle sum S_n(v) = sum_{j<n} phi(v + j) matters, and
    S_{n + 2m}(v) - S_n(v) is twice phi's total, so c(n) has period 2m: each lag n < 2m
    is one xor of two length-m slices of ``_parity_prefix``, ``_repeat_period`` fills
    the rest, and the value (m - 2 odd) / m is exact, since m = 2^d.
    """
    phi = np.asarray(phi_table, dtype=np.int64)
    m = phi.size
    if m & (m - 1) or m == 0:
        raise ValueError("phi_table length must be a power of two")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if m > 2**26:
        raise ValueError("cylinder enumeration budget exceeded")
    par = _parity_prefix(phi)
    flips = np.empty(m, dtype=np.uint8)
    out = np.empty(nmax + 1)
    for n in range(min(nmax + 1, 2 * m)):
        odd = np.count_nonzero(np.bitwise_xor(par[n:n + m], par[:m], out=flips))
        out[n] = (m - 2 * odd) / m
    return _repeat_period(out, 2 * m)


# ---------------------------------------------------------------------------
# Absolutely continuous cocycle over an irrational rotation


def _rotation_sums(alpha: float, nmax: int) -> np.ndarray:
    """S_n = sum_{j<n} e^{2 pi i j alpha}, n = 1..nmax, as a cumulative sum, since
    the geometric-series quotient is 0/0 at alpha = 0."""
    return np.cumsum(np.exp(2j * np.pi * alpha * np.arange(nmax)))


def rotation_ac_cocycle_correlations(alpha: float, delta: float, delta0: float,
                                     nmax: int, M: int = 21) -> np.ndarray:
    """sigma_F-hat(n), n = 0..nmax, for the circle extension by
    e^{2 pi i (x + g(x))}, g(x) = (delta / 2 pi) sin(2 pi x), over the rotation
    by alpha.

    Sums |f-hat(m)|^2-weighted oscillatory integrals over odd |m| <= M.  With
    S = sum_{j<n} e^{2 pi i j alpha} = |S| e^{i psi}, g^(n)(x) = (delta/2pi)
    |S| sin(2 pi x + psi), so by Jacobi-Anger each integral is the Bessel term
    e^{2 pi i m c} J_{-mn}(m delta |S|) e^{-i m n psi}, c = n(n-1) alpha / 2.
    S is carried from lag to lag, one term per lag (``_rotation_sums``), up to
    ``bessel._rotation_zero_lag``; the lags from there on are +0.0.
    """
    from .bessel import _rotation_zero_lag, bessel_jv  # load with this kernel alone
    _require_finite(alpha=alpha)
    if not 0.0 < delta0 < 1.0:
        raise ValueError("need 0 < delta0 < 1")
    if not 0.0 <= delta < 1.0 - delta0:
        raise ValueError("need 0 <= delta < 1 - delta0")
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    out = np.zeros(nmax + 1, dtype=complex)
    out[0] = 1.0
    for n, S in enumerate(_rotation_sums(alpha, _rotation_zero_lag(alpha, delta, nmax) - 1),
                          start=1):
        const = n * (n - 1) * alpha / 2.0
        integrals = (np.exp(2j * np.pi * ms * const) * bessel_jv(-ms * n, ms * delta * abs(S))
                     * np.exp(-1j * ms * n * np.angle(S)))
        out[n] = np.sum(sw.weights * integrals)
    return out


def ac_cocycle_analytic_constant(delta: float, delta0: float) -> float:
    """C with |sigma_F-hat(n)| <= C/|n|: the variation-bound chain with
    Var(g') = 4 delta and |f-hat(m)|^2 weights, whose sum over odd m of
    4 / (pi^2 m^2) / (2 pi |m|) is 7 zeta(3) / (2 pi^3); rounded up."""
    zeta3 = 1.2020569031595942
    return 14.0 * zeta3 * delta / (math.pi**3 * (1.0 - delta0) ** 2) * (1.0 + 8.0 * math.ulp(1.0))


def ac_cocycle_table(alpha: float, delta: float, delta0: float, N: int,
                     M: int = 21) -> FourierTable:
    """Correlation table of the AC-cocycle extension for |n| <= N, with the
    tail bound of ``_rotation_tail.ac_cocycle_tail``."""
    from ._rotation_tail import ac_cocycle_tail  # loads with the table alone
    nn = rotation_ac_cocycle_correlations(alpha, delta, delta0, N, M)
    return FourierTable.from_nonneg(
        nn, tail_bound=ac_cocycle_tail(alpha, delta, M, np.abs(_rotation_sums(alpha, N))),
        label=f"ac-cocycle(alpha={alpha}, delta={delta}, delta0={delta0})",
    )


# ---------------------------------------------------------------------------
# Nil-rotation (Heisenberg quotient) as a skew product over the 2-torus


def _reject_rational(x: float, name: str) -> None:
    # the base rotation must be far from a rational one of small denominator;
    # larger rational approximations are harmless for the integral formulas below.
    # Only the nil systems check this, so only they load `fractions`
    from fractions import Fraction
    _require_finite(**{name: x})
    fr = Fraction(x).limit_denominator(4)
    if abs(x - float(fr)) < 1e-12:
        raise ValueError(f"{name} is rational to within 1e-12 ({fr})")


def _check_nil(alpha: float, beta: float, gamma: float) -> None:
    _reject_rational(beta, "beta")
    _reject_rational(alpha, "alpha")
    _require_finite(gamma=gamma)
    if not 0.0 < beta < 1.0:
        raise ValueError("need 0 < beta < 1")


def _nil_pieces(beta: float):
    """For n = 1, 2, ... in turn, the y-intervals [a, b) on which lag n's
    x-average survives, with the constant C of each, as three float arrays;
    stops at the first lag with none, after which every lag is exactly 0.

    The x-average kills every m-term unless no {y + j beta}, j < n, lies in
    [1 - beta, 1), i.e. unless y avoids every arc [q_j - beta, q_j) with
    q_j = {-j beta}.  Sorting the q, that leaves [q_(i), q_(i+1) - beta) for
    each gap longer than beta (q_(n) = 1), and there
    sum_j {y + j beta} = n y + C with C = #{j : q_j > q_(i)} - sum_j q_j.
    beta is the double P / 2^e, so q_j = ((-jP) mod 2^e) / 2^e and the gaps
    are compared in exact integers: a lag reported empty is 0 for the stored
    beta, not by a float comparison.  Gaps only split as n grows, so the
    first empty lag ends the support; by the three-distance theorem the gaps
    take at most three lengths, and for beta > 1/2 none is left at n = 2.
    """
    P, D = float(beta).as_integer_ratio()
    qs = [0]  # the sorted numerators of q_0, ..., q_{n-1}
    long_gaps = {0: D}  # lo -> hi of the gaps longer than beta
    q_sum = q = 0
    n = 1
    while long_gaps:
        los = sorted(long_gaps)
        yield (np.array([lo / D for lo in los]),
               np.array([(long_gaps[lo] - P) / D for lo in los]),
               np.array([((n - bisect.bisect(qs, lo)) * D - q_sum) / D for lo in los]))
        q = (q - P) % D
        i = bisect.bisect(qs, q)
        lo, hi = qs[i - 1], (qs[i] if i < n else D)
        qs.insert(i, q)
        q_sum += q
        long_gaps.pop(lo, None)
        for a, b in ((lo, q), (q, hi)):
            if b - a > P:
                long_gaps[a] = b
        n += 1


def _nil_value(alpha: float, gamma: float, n: int, M: int, pieces) -> complex:
    """sum_m |f-hat(m)|^2 sum over the pieces [a, b) of lag n of
    int_a^b e^{2 pi i m (alpha (n y + C) + n gamma)} dy, in closed form; m and n
    are integers, so alpha C and n (gamma mod 1) are each taken mod 1 before the sum."""
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    a, b, C = (v[:, None] for v in pieces)
    rate = 2j * np.pi * ms * alpha * n
    phase = np.mod(alpha * C, 1.0) + np.mod(n * (gamma % 1.0), 1.0)
    seg = np.exp(2j * np.pi * ms * phase) * (
        np.exp(rate * b) - np.exp(rate * a)) / rate
    return complex(np.sum(sw.weights * seg.sum(axis=0)))


def nil_rotation_correlations(alpha: float, beta: float, gamma: float,
                              nmax: int, M: int = 201) -> np.ndarray:
    """<F o T^n, F> for n = 0..nmax: lag n from one pass of ``_nil_pieces``
    and ``_nil_value``, and exactly 0 past the first lag with no piece."""
    _check_nil(alpha, beta, gamma)
    out = np.zeros(nmax + 1, dtype=complex)
    out[0] = 1.0
    for n, pieces in zip(range(1, nmax + 1), _nil_pieces(beta)):
        out[n] = _nil_value(alpha, gamma, n, M, pieces)
    return out


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
# Name sources: sampled {0,1} P-names along orbits


# largest count x length of a name batch the CLI samples (`system --names
# --length`, and funny's 2 samples x horizon): it bounds the sampling time and a
# block's step rows, which past 2^9 steps hold 2^11 names (8 MiB at most)
MAX_NAME_BITS = 2**26
# largest count of a name batch the CLI samples (`system --names`, and funny's 2
# samples): it bounds the time and the per-name start values drawn before the
# first block (three float64 a name for nil and distal, 24 MiB)
MAX_NAMES = 2**20

# doubles per draw of CoinSource: whole names, a multiple of 8 of them so that
# each draw packs into whole bytes of the step rows, while 8 names fit; a longer
# name is drawn alone, in pieces of this many steps
_COIN_DOUBLES = 2**16


def _block_rows(count: int, length: int):
    """(slice, step rows) of each block of ``NameSource.name_blocks``: 8 k names
    whose rows take at most 2^17 bytes, but at least 2^11 names, so each per-step
    numpy call covers that many.  The rows view one buffer, reused by every block."""
    step = 8 * max(2**17 // max(length, 1), 2**8)
    buf = np.empty(length * -(-min(count, step) // 8), dtype=np.uint8)
    for lo in range(0, count, step):
        cols = -(-(min(lo + step, count) - lo) // 8)
        yield slice(lo, min(lo + step, count)), buf[:length * cols].reshape(length, cols)


def _frac(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- v - floor(v), the double np.mod(v, 1.0) gives for finite v (also
    1.0 for a tiny negative v); ``out`` must not be ``v``."""
    np.floor(v, out=out)
    return np.subtract(v, out, out=out)


def _pack_columns(bits: np.ndarray) -> np.ndarray:
    """np.packbits(bits, axis=0) of a 2-D array of 0/1 bits (uint8 or bool), by
    eight shifted ORs of every eighth row: packbits across the layout is a few
    times slower."""
    bits = bits.view(np.uint8)
    packed = np.zeros((-(-bits.shape[0] // 8), bits.shape[1]), dtype=np.uint8)
    for b in range(8):
        rows = bits[b::8]
        packed[:rows.shape[0]] |= rows << (7 - b)
    return packed


def _truncation_errors(M: int, nmax: int) -> np.ndarray:
    """The error_bar column of a series table summed over odd |m| <= M: the
    square wave's truncation error at every lag but 0, whose c(0) = 1 is exact."""
    err = np.full(nmax + 1, square_wave_coeffs(M).truncation_error)
    err[0] = 0.0
    return err


class NameSource:
    """Producer of P-name samples; subclasses fill in ``name_blocks``.

    ``name_blocks(count, length, seed)`` yields the packed step rows of
    consecutive blocks of the names (``_block_rows``): for a block of n names,
    a C-contiguous (length, ceil(n / 8)) uint8 array whose row j is
    ``np.packbits`` of step j's bits over those names, big bit order, pad bits
    0.  Each block overwrites the last one's array.  The per-name start values
    (the coin's names themselves) are drawn as for one whole batch, so the
    split does not change a bit.  ``sample_names`` returns the blocks joined,
    the step rows of the whole batch; funny's search and ``write_name_blocks``
    read one block at a time.

    Sources of systems with a correlation table also define ``table(nmax)``:
    the columns (values, method, error_bar) of lags n = 0..nmax that ``atlab
    system`` prints.  values is the kernel's array of c(n) = <F o T^n, F>, each
    to within its error_bar, except the distal c(0), which is the fiber
    integral, 0; method and error_bar are each one str or float for every lag,
    or an array of nmax + 1.  ``table`` checks domains that the constructors
    leave open (0 < beta < 1, 0 <= delta < 1 - delta0), so names can be sampled
    where it raises.
    """

    def name_blocks(self, count: int, length: int, seed: int):
        raise NotImplementedError

    def sample_names(self, count: int, length: int, seed: int) -> np.ndarray:
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        lo = 0
        for rows in self.name_blocks(count, length, seed):
            packed[:, lo:lo + rows.shape[1]] = rows
            lo += rows.shape[1]
        return packed


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

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        xs, ys = rng.random((2, count))
        js = np.arange(length)
        shift = js * (js - 1) / 2.0 * self.alpha
        if self.delta != 0.0:
            # g^(j)(x) = (delta/2pi) Im(e^{2 pi i x} S_j), S_j = sum_{i<j} e^{2 pi i alpha i}
            S = np.zeros(length, dtype=complex)
            S[1:] = _rotation_sums(self.alpha, length - 1)
        for s, packed in _block_rows(count, length):
            x, y = xs[s], ys[s]
            if self.delta != 0.0:
                phase = np.exp(2j * np.pi * x)
                wave = np.empty(x.size, dtype=complex)
            v, t = np.empty(x.size), np.empty(x.size)
            flags = np.empty(x.size, dtype=bool)
            # step j's bits, of y + j x + j (j - 1) alpha / 2 + g^(j)(x), are packed into row j
            for j, row in enumerate(packed):
                np.multiply(j, x, out=v)
                v += shift[j]
                if self.delta != 0.0:
                    w = np.multiply(phase, S[j], out=wave)
                    v += np.multiply(self.delta / (2.0 * math.pi), w.imag, out=w.imag)
                v += y
                row[:] = np.packbits(np.greater_equal(_frac(v, t), 0.5, out=flags))
            yield packed

    def table(self, nmax):
        vs = rotation_ac_cocycle_correlations(self.alpha, self.delta, self.delta0, nmax, self.M)
        lag = np.arange(nmax + 1) != 0
        return (vs, np.array(["exact", "quadrature"], dtype=object)[lag.view(np.uint8)],
                _truncation_errors(self.M, nmax))


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

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        xs, ys, zs = rng.random((3, count))
        for s, packed in _block_rows(count, length):
            x, y, z = xs[s], ys[s], zs[s]  # views, advanced in place
            # step j's bits are packed into row j, one step at a time
            fx, fy, t, u = (np.empty(x.size) for _ in range(4))
            flags = np.empty(x.size, dtype=bool)
            for row in packed:
                row[:] = np.packbits(np.greater_equal(_frac(z, t), 0.5, out=flags))
                # z <- {z + alpha {y} - ({x} + alpha) floor({y} + beta) + gamma}
                _frac(x, fx)
                _frac(y, fy)
                np.add(fy, self.beta, out=t)
                np.floor(t, out=t)
                np.add(fx, self.alpha, out=u)
                np.multiply(u, t, out=u)
                np.multiply(self.alpha, fy, out=t)
                np.subtract(t, u, out=t)
                np.add(t, self.gamma, out=t)
                np.add(z, t, out=t)
                _frac(t, z)
                np.add(x, self.alpha, out=t)
                _frac(t, x)
                np.add(y, self.beta, out=t)
                _frac(t, y)
            yield packed

    def table(self, nmax):
        vs = nil_rotation_correlations(self.alpha, self.beta, self.gamma, nmax, self.M)
        return (vs, np.array(["series", "exact"], dtype=object)[(vs == 0).view(np.uint8)],
                _truncation_errors(self.M, nmax))


class DistalSource(NameSource):
    """Two-step skew product (x, y, z) -> (x + alpha, y + x, z + y);
    P0 = last coordinate in [0, 1/2).  Lebesgue fiber spectrum.

    The table's values are the fiber integrals int_0^1 e^{i pi chi_[0,1/2)(K y mod 1)}
    dy, K = m n for any scale m, and each is exactly 0: for K != 0 the circle
    splits into 2|K| intervals of length 1/(2|K|) on which the integrand is
    -1 and +1 in turn, so they cancel in pairs; at K = 0 the value is the mean
    of the square wave itself, also 0.
    """

    def __init__(self, alpha: float = SQRT2_M1):
        self.alpha = alpha

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        xs, ys, zs = rng.random((3, count))
        for s, packed in _block_rows(count, length):
            x, y, z = xs[s], ys[s], zs[s]
            # step j's bits are packed into row j, as in NilRotationSource
            t = np.empty(x.size)
            flags = np.empty(x.size, dtype=bool)
            for row in packed:
                row[:] = np.packbits(np.greater_equal(_frac(z, t), 0.5, out=flags))
                np.add(z, y, out=t)
                _frac(t, z)
                np.add(y, x, out=t)
                _frac(t, y)
                np.add(x, self.alpha, out=t)
                _frac(t, x)
            yield packed

    def table(self, nmax):
        return np.zeros(nmax + 1), "exact", 0.0


class OdometerExtensionSource(NameSource):
    """Z/2 extension of the dyadic odometer; bit = group coordinate."""

    def __init__(self, phi):
        self.phi = np.asarray(phi, dtype=np.int64)
        m = self.phi.size
        if m == 0 or m & (m - 1):
            raise ValueError("phi_table length must be a power of two")

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m = self.phi.size
        v0s = rng.integers(0, m, size=count)
        g0s = rng.integers(0, 2, size=count)
        par = _parity_prefix(self.phi)
        for s, packed in _block_rows(count, length):
            # bit j = g0 ^ par[v0] ^ par[v0 + j], the parity of g0 + S_j(v0); the rows
            # have period 2m
            v0 = v0s[s]
            start = g0s[s].astype(np.uint8) ^ par[v0]
            bits = np.empty(v0.size, dtype=np.uint8)
            for j, row in zip(range(2 * m), packed):
                np.take(par[j:], v0, out=bits, mode="clip")
                bits ^= start
                row[:] = np.packbits(bits)
            yield _repeat_period(packed, 2 * m)

    def table(self, nmax):
        return two_point_extension_correlations(self.phi, nmax), "exact", 0.0


class RudinShapiroSource(NameSource):
    """Shift orbit of the Rudin-Shapiro fixed point.  Names start at uniform
    offsets into the first 2^log2_length signs (approximating the unique
    invariant measure); the table holds Birkhoff averages over the first L."""

    def __init__(self, log2_length: int = 21, L: int = 2**20):
        self.log2_length = log2_length
        self.L = L

    @functools.cached_property
    def _prefix_bits(self) -> np.ndarray:  # built by the first block, never by table()
        return _rudin_shapiro_bits(2 ** self.log2_length)

    def name_blocks(self, count, length, seed):
        if length >= 2 ** self.log2_length:
            raise ValueError(f"names of length {length} need 2^log2_length > {length}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        prefix = self._prefix_bits
        starts = rng.integers(0, prefix.size - length, size=count)
        for s, packed in _block_rows(count, length):
            start = starts[s]
            # step j's bits, gathered from prefix[start + j], are packed into row j:
            # no (count, length) index array; start + j < prefix.size, so "clip"
            # never clips
            bits = np.empty(start.size, dtype=np.uint8)
            for j, row in enumerate(packed):
                row[:] = np.packbits(np.take(prefix[j:], start, out=bits, mode="clip"))
            yield packed

    def table(self, nmax):
        if self.L < max(1, 4 * nmax):
            raise ValueError(f"need L >= max(1, 4 * nmax), got L = {self.L}, nmax = {nmax}")
        return (rudin_shapiro_lag_sums(self.L, nmax) / (self.L - np.arange(nmax + 1)),
                "empirical", 5.0 / math.sqrt(self.L))


class CoinSource(NameSource):
    """I.i.d. bits; bit 0 has probability p0 (fair by default)."""

    def __init__(self, p0: float = 0.5):
        if not 0.0 < p0 < 1.0:
            raise ValueError("need 0 < p0 < 1")
        self.p0 = p0

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # drawing name after name, whole or piece by piece, gives the stream of
        # one (count, length) draw: a draw of whole names fills its bytes of the
        # step rows, and a piece of a long name is ORed into its bit of them
        draw = 8 * (_COIN_DOUBLES // (8 * max(length, 1)))  # names a draw, while 8 fit
        u = np.empty((min(count, draw), length) if draw else min(length, _COIN_DOUBLES))
        heads = np.empty(u.shape, dtype=bool)
        for s, packed in _block_rows(count, length):
            n = s.stop - s.start
            if draw:  # a draw packs into whole bytes of each row
                for r0 in range(0, n, draw):
                    k = min(draw, n - r0)
                    np.greater_equal(rng.random(out=u[:k]), self.p0, out=heads[:k])
                    packed[:, r0 // 8:(r0 + k + 7) // 8] = _pack_columns(heads[:k]).T
            else:
                packed.fill(0)
                bits = np.empty(u.size, dtype=np.uint8)
                for i in range(n):
                    column = packed[:, i // 8]  # name i is bit 7 - i % 8 of this column
                    for lo in range(0, length, _COIN_DOUBLES):
                        piece = rng.random(out=u[:length - lo])
                        np.greater_equal(piece, self.p0, out=heads[:piece.size])
                        column[lo:lo + piece.size] |= np.left_shift(
                            heads[:piece.size].view(np.uint8), 7 - i % 8, out=bits[:piece.size])
            yield packed


class ConstantSource(NameSource):
    """Degenerate fixture: each name is all-zeros or all-ones, equiprobably."""

    def name_blocks(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b = rng.integers(0, 2, size=count).astype(np.uint8)
        for s, packed in _block_rows(count, length):
            packed[:] = np.packbits(b[s])
            yield packed


# ---------------------------------------------------------------------------
# Packed-bit batch format: magic, count, length (little-endian u64), then one
# row of np.packbits'd steps per name.

_NAMES_MAGIC = b"ATNB"


def write_name_blocks(blocks, count: int, length: int, path) -> None:
    """Write ``count`` names of ``length`` steps, given as consecutive blocks of
    packed step rows (``NameSource.name_blocks``), as a batch: 2^15 // length
    bytes of a block's step rows (256 KiB of bits, or 8 names) are unpacked at a
    time and packed along the steps.  If anything raises once the file is open,
    the partial file is removed."""
    chunk = max(1, 2**15 // max(length, 1))  # bytes of a step row unpacked at a time
    with open(path, "wb") as fh:
        try:
            fh.write(_NAMES_MAGIC)
            fh.write(struct.pack("<QQ", count, length))
            lo = 0
            for rows in blocks:
                n = min(8 * rows.shape[1], count - lo)
                for c0 in range(0, rows.shape[1], chunk):
                    bits = np.unpackbits(rows[:, c0:c0 + chunk], axis=1,
                                         count=min(8 * chunk, n - 8 * c0))
                    fh.write(_pack_columns(bits).T.tobytes())
                lo += n
        except BaseException:
            fh.close()
            os.remove(path)
            raise


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
