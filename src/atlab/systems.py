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


# largest log2 of a Rudin-Shapiro prefix the CLI builds (names only): 2^26 int8
# signs are 64 MiB, and the last doubling holds half of them besides
MAX_LOG2_LENGTH = 26
# largest L of the Rudin-Shapiro lag sums, so that L - n stays an int64
MAX_LENGTH = 2**62


def rudin_shapiro_names(L: int) -> np.ndarray:
    """First L signs (+-1) of the Rudin-Shapiro sequence, as int8, by doubling
    the prefix with r(2i) = r(i), r(2i+1) = (-1)^i r(i) from r(0) = 1."""
    if L < 1:
        raise ValueError("L must be >= 1")
    s = np.ones(1, dtype=np.int8)
    while s.size < L:
        s = np.repeat(s, 2)
        s[3::4] *= -1  # the odd positions 2i + 1 with i odd
    return s if s.size == L else s[:L].copy()


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
    """par[i] = parity of phi[0] + ... + phi[i - 1] over two periods of phi, as uint8."""
    odd = (phi & 1).astype(np.uint8)
    par = np.zeros(2 * phi.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(np.concatenate([odd, odd]), out=par[1:])
    return par


def two_point_extension_correlations(phi_table, nmax: int) -> np.ndarray:
    """<V^n 1, 1>, n = 0..nmax, for the Z/2 extension of the dyadic odometer by
    phi, with one set-up for all lags.

    ``phi_table`` lists phi on the 2^d depth-d cylinders, indexed by the
    integer with those dyadic digits.  Since adding j to a dyadic integer
    only pushes carries upward, phi(T^j x) depends on x mod 2^d alone and
    the correlation is an exact average over the 2^d cylinders.

    Only the parity of the cocycle sum S_n(v) = sum_{j<n} phi(v + j) matters.
    With par the xor-prefix of phi's parities over two periods and
    n = full m + rem, S_n(v) is odd iff par[v + rem] ^ par[v] ^ (full total)
    is 1, so each lag is one xor of two length-m slices.  The value
    (m - 2 odd) / m is exact, since m = 2^d.
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
    for n in range(nmax + 1):
        full, rem = divmod(n, m)
        odd = np.count_nonzero(np.bitwise_xor(par[rem:rem + m], par[:m], out=flips))
        if full & 1 and par[m]:  # full * total is odd; par[m] is the total's parity
            odd = m - odd
        out[n] = (m - 2 * odd) / m
    return out


# ---------------------------------------------------------------------------
# Absolutely continuous cocycle over an irrational rotation


def _rotation_sums(alpha: float, nmax: int) -> np.ndarray:
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
    S is carried from lag to lag, one term per lag (``_rotation_sums``).
    """
    from .bessel import bessel_jv  # loads with this kernel, not with systems
    _require_finite(alpha=alpha)
    if not 0.0 < delta0 < 1.0:
        raise ValueError("need 0 < delta0 < 1")
    if not 0.0 <= delta < 1.0 - delta0:
        raise ValueError("need 0 <= delta < 1 - delta0")
    sw = square_wave_coeffs(M)
    ms = sw.odd_ms
    out = np.empty(nmax + 1, dtype=complex)
    out[0] = 1.0
    for n, S in enumerate(_rotation_sums(alpha, nmax), start=1):
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
# --length`, and funny's 2 samples x horizon): 8 MiB as packed step rows
MAX_NAME_BITS = 2**26
# largest count of a name batch the CLI samples (`system --names`, and funny's 2
# samples): the orbit samplers hold a few float64 entries per name (rotation 8, 64 MiB)
MAX_NAMES = 2**20

# names per block of CoinSource, which draws a block of names at once into
# _ROW_BLOCK x length floats; a multiple of 8, so each block packs into whole bytes
# of the step rows
_ROW_BLOCK = 256


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


class NameSource:
    """Producer of P-name samples; subclasses fill in ``sample_names``.

    ``sample_names(count, length, seed)`` returns packed step rows: a
    C-contiguous (length, ceil(count / 8)) uint8 array whose row j is
    ``np.packbits`` of step j's bits over the names, big bit order, with the
    pad bits of the last byte 0.  Every sampler here writes this layout
    directly, one bit per sampled step; funny's search unpacks only the rows of
    the index set it reads, and ``write_names`` a block of names at a time.

    Sources of systems with a correlation table also define ``table(nmax)``:
    the columns (values, method, error_bar) of lags n = 0..nmax that ``atlab
    system`` prints.  values is the kernel's array of c(n) = <F o T^n, F>, each
    to within its error_bar, except the distal c(0), which is the fiber
    integral, 0; method and error_bar are each one str or float for every lag,
    or an array of nmax + 1.  ``table`` checks domains that the constructors
    leave open (0 < beta < 1, 0 <= delta < 1 - delta0), so names can be sampled
    where it raises.
    """

    def sample_names(self, count: int, length: int, seed: int) -> np.ndarray:
        raise NotImplementedError


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
        x, y = rng.random((2, count))
        js = np.arange(length)
        shift = js * (js - 1) / 2.0 * self.alpha
        if self.delta != 0.0:
            # g^(j)(x) = (delta/2pi) Im(e^{2 pi i x} S_j), S_j = sum_{i<j} e^{2 pi i alpha i};
            # a cumulative sum, since the geometric-series quotient is 0/0 at alpha = 0
            S = np.zeros(length, dtype=complex)
            S[1:] = np.cumsum(np.exp(2j * np.pi * self.alpha * js[:-1]))
            phase = np.exp(2j * np.pi * x)
            wave = np.empty(count, dtype=complex)
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        v, t = np.empty(count), np.empty(count)
        flags = np.empty(count, dtype=bool)
        # step j's bits, of y + j x + j (j - 1) alpha / 2 + g^(j)(x), are packed into row j
        for j, row in enumerate(packed):
            np.multiply(j, x, out=v)
            v += shift[j]
            if self.delta != 0.0:
                w = np.multiply(phase, S[j], out=wave)
                v += np.multiply(self.delta / (2.0 * math.pi), w.imag, out=w.imag)
            v += y
            row[:] = np.packbits(np.greater_equal(_frac(v, t), 0.5, out=flags))
        return packed

    def table(self, nmax):
        vs = rotation_ac_cocycle_correlations(self.alpha, self.delta, self.delta0, nmax, self.M)
        n = np.arange(nmax + 1)
        return (vs, np.where(n, "quadrature", "exact"),
                np.where(n, square_wave_coeffs(self.M).truncation_error, 0.0))


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
        x, y, z = rng.random((3, count))
        # step j's bits are packed into row j, one step at a time
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        fx, fy, t, u = (np.empty(count) for _ in range(4))
        flags = np.empty(count, dtype=bool)
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
        return packed

    def table(self, nmax):
        vs = nil_rotation_correlations(self.alpha, self.beta, self.gamma, nmax, self.M)
        return (vs, np.where(vs == 0, "exact", "series"),
                np.where(np.arange(nmax + 1), square_wave_coeffs(self.M).truncation_error, 0.0))


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

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        x, y, z = rng.random((3, count))
        # step j's bits are packed into row j, as in NilRotationSource
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        t = np.empty(count)
        flags = np.empty(count, dtype=bool)
        for row in packed:
            row[:] = np.packbits(np.greater_equal(_frac(z, t), 0.5, out=flags))
            np.add(z, y, out=t)
            _frac(t, z)
            np.add(y, x, out=t)
            _frac(t, y)
            np.add(x, self.alpha, out=t)
            _frac(t, x)
        return packed

    def table(self, nmax):
        return np.zeros(nmax + 1), "exact", 0.0


class OdometerExtensionSource(NameSource):
    """Z/2 extension of the dyadic odometer; bit = group coordinate."""

    def __init__(self, phi):
        self.phi = np.asarray(phi, dtype=np.int64)
        m = self.phi.size
        if m == 0 or m & (m - 1):
            raise ValueError("phi_table length must be a power of two")

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        m = self.phi.size
        v0 = rng.integers(0, m, size=count)
        g0 = rng.integers(0, 2, size=count)
        # bit j = the parity of g0 + S_j(v0), S_j the sum of phi along the orbit:
        # g0 ^ par[v0] ^ par[v0 + rem] ^ (full total & 1) for j = full m + rem, as
        # in two_point_extension_correlations; step j's bits are packed into row j
        par = _parity_prefix(self.phi)
        start = g0.astype(np.uint8) ^ par[v0]
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        bits = np.empty(count, dtype=np.uint8)
        for j, row in enumerate(packed):
            full, rem = divmod(j, m)
            np.take(par[rem:], v0, out=bits, mode="clip")
            bits ^= start
            if full & 1 and par[m]:
                bits ^= 1
            row[:] = np.packbits(bits)
        return packed

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
    def _prefix_bits(self) -> np.ndarray:
        # built on the first sample_names: table() alone never builds this prefix
        return (rudin_shapiro_names(2 ** self.log2_length) < 0).view(np.uint8)

    def sample_names(self, count, length, seed):
        if length >= 2 ** self.log2_length:
            raise ValueError(f"names of length {length} need 2^log2_length > {length}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        prefix = self._prefix_bits
        starts = rng.integers(0, prefix.size - length, size=count)
        # step j's bits, gathered from prefix[starts + j], are packed into row j:
        # no (count, length) index array; starts + j < prefix.size, so "clip"
        # never clips
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        bits = np.empty(count, dtype=np.uint8)
        for j, row in enumerate(packed):
            row[:] = np.packbits(np.take(prefix[j:], starts, out=bits, mode="clip"))
        return packed

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

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # drawing name block after name block gives the stream of one (count,
        # length) draw; each block is packed into its bytes of the step rows
        packed = np.empty((length, -(-count // 8)), dtype=np.uint8)
        u = np.empty((min(count, _ROW_BLOCK), length))
        heads = np.empty(u.shape, dtype=bool)
        for r0 in range(0, count, _ROW_BLOCK):
            n = min(_ROW_BLOCK, count - r0)
            np.greater_equal(rng.random(out=u[:n]), self.p0, out=heads[:n])
            packed[:, r0 // 8:(r0 + n + 7) // 8] = _pack_columns(heads[:n]).T
        return packed


class ConstantSource(NameSource):
    """Degenerate fixture: each name is all-zeros or all-ones, equiprobably."""

    def sample_names(self, count, length, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        b = rng.integers(0, 2, size=count).astype(np.uint8)
        return np.repeat(np.packbits(b)[None, :], length, axis=0)


# ---------------------------------------------------------------------------
# Packed-bit batch format: magic, count, length (little-endian u64), then one
# row of np.packbits'd steps per name.

_NAMES_MAGIC = b"ATNB"


def write_names(steps: np.ndarray, count: int, path) -> None:
    """Write the ``count`` names of packed step rows (``NameSource.sample_names``)
    as a batch: each block of names is unpacked to its (length, block) bits and
    packed along the steps, so at most 1 MiB (or 8 names) of bits is unpacked."""
    length = steps.shape[0]
    block = max(1, 2**17 // max(length, 1))  # bytes of a step row per block
    with open(path, "wb") as fh:
        fh.write(_NAMES_MAGIC)
        fh.write(struct.pack("<QQ", count, length))
        for b0 in range(0, steps.shape[1], block):
            bits = np.unpackbits(steps[:, b0:b0 + block], axis=1,
                                 count=min(8 * block, count - 8 * b0))
            fh.write(_pack_columns(bits).T.tobytes())


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
