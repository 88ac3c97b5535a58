"""Bessel values J_nu(z) of integer order by the trapezoid rule."""

from __future__ import annotations

import math

import numpy as np


# each Bessel value the trapezoid rule below drops or aliases is below this
_BESSEL_SLACK = 2.0**-60
# entries of one block of trapezoid phases (8 MiB of float64)
_BESSEL_BLOCK = 2**20


def _log_kapteyn(k, z) -> np.ndarray:
    """log of Kapteyn's bound |J_k(z)| <= (r e^w / (1 + w))^k, r = |z|/k and
    w = sqrt(1 - r^2), for integer k > |z| (Watson, Bessel Functions, 8.7);
    0 where k <= |z|, as |J_k| <= 1."""
    k = np.asarray(k, dtype=float)
    z = np.abs(z)
    above = k > z
    r = np.where(above, z / np.where(above, k, 1.0), 1.0)
    w = np.sqrt(1.0 - r * r)
    with np.errstate(divide="ignore"):
        return np.where(above, k * (np.log(r) + w - np.log1p(w)), 0.0)


def _log_kapteyn_tail(k, z) -> np.ndarray:
    """log of a bound on sum_{j >= k} |J_j(z)| for integer k > |z| > 0.  Above |z|
    the log bound F(j) = ``_log_kapteyn(j, z)`` decreases and is concave
    (F'(j) = log(r / (1 + w)) falls as j grows), so the ratios of successive
    bounds fall too and the sum is at most b_k / (1 - b_{k+1} / b_k)."""
    k = np.asarray(k, dtype=float)
    f0, f1 = _log_kapteyn(k, z), _log_kapteyn(k + 1.0, z)
    with np.errstate(divide="ignore"):
        return f0 - np.log(-np.expm1(f1 - f0))


def _alias_margin(z: float) -> int:
    """The least N > |z| with 2 sum_{k >= N} |J_k(z)| < _BESSEL_SLACK by
    ``_log_kapteyn_tail``."""
    if z == 0.0:
        return 1  # J_k(0) = 0 for every k >= 1
    lo, width = int(abs(z)) + 1, 64
    while True:
        tail = _log_kapteyn_tail(np.arange(lo, lo + width), z)
        ok = np.flatnonzero(tail < math.log(_BESSEL_SLACK / 2.0))
        if ok.size:
            return lo + int(ok[0])
        lo, width = lo + width, 2 * width


def _rotation_zero_lag(alpha: float, delta: float, nmax: int) -> int:
    """The first lag n0 <= nmax + 1 of ``systems.rotation_ac_cocycle_correlations``
    from which ``bessel_jv`` drops every Bessel value J_{-mn}(m delta |S_n|).

    It drops an order when Kapteyn's bound F(|m| n, |m| delta |S_n|)
    (``_log_kapteyn``) is below log s, s = _BESSEL_SLACK.  F(k, z) = k f(z / k)
    rises with z, so the bound at order m n and argument m z is the m-th power
    of the m = 1 bound.  With b = 2 pi alpha as rounded, the phase step of
    ``systems._rotation_sums``, the computed |S_n| is at most
    min(n, 1 / |sin(b / 2)|) + D, D = (|b| + 8) nmax^2 eps covering the rounding
    of its phases, exponentials and cumsum.  G(n) = F(n, delta (min(n,
    1 / |sin(b / 2)|) + D)) falls as n grows (F falls with k at a fixed z and at
    a fixed z / k < 1, and rises with z / k), and n0 is the first lag with
    G(n) < log s - 1: the margin 1 covers the rounding of m delta |S_n| and of
    F, so no order of a later lag is kept.
    """
    b = 2.0 * math.pi * alpha
    half_sin = abs(math.sin(b / 2.0))
    cap = 1.0 / half_sin if half_sin else math.inf
    drift = (abs(b) + 8.0) * float(nmax) ** 2 * float(np.finfo(float).eps)
    lo, width = 1, 64
    while lo <= nmax:
        n = np.arange(lo, lo + width, dtype=float)
        bound = _log_kapteyn(n, delta * (np.minimum(n, cap) + drift))
        below = np.flatnonzero(bound < math.log(_BESSEL_SLACK) - 1.0)
        if below.size:
            return min(lo + int(below[0]), nmax + 1)
        lo, width = lo + width, min(2 * width, 2**16)
    return nmax + 1


def _saddle(nu: np.ndarray, z: np.ndarray):
    """For 0 < z < nu: beta > 0 with cosh beta = nu / z, w = tanh beta and
    D = nu (beta - w), which is minus the log of Kapteyn's bound at order nu.
    beta - w = artanh w - w = sum_{k >= 1} w^(2k+1) / (2k+1) is summed as a
    series for w < 1/2, where the difference would cancel."""
    w = np.sqrt((nu - z) * (nu + z)) / nu
    with np.errstate(divide="ignore"):  # w rounds to 1 for z < 1e-8 nu: beta = inf, and
        beta = np.arctanh(w)  # _saddle_points then leaves the rule on the real axis
    w2 = w * w
    series = np.zeros_like(w)
    for k in range(30, 0, -1):  # the terms left out are below 4^-30 of the first
        series = series * w2 + 1.0 / (2 * k + 1)
    return beta, w, nu * np.where(w < 0.5, w * w2 * series, beta - w)


def _saddle_points(nu: np.ndarray, z: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The least P = 8 2^i whose aliasing bound on the contour Im t = beta
    (``bessel_jv``) is below _BESSEL_SLACK; 0 where that P would pass nu + z,
    the size of the rule on the real axis.

    The error sum_{l >= 1} J_{nu - lP}(z) e^{-lP beta} is at most
    1 / (e^{P beta} - 1), as |J| <= 1.  In the error
    sum_{l >= 1} J_{nu + lP}(z) e^{lP beta}, the log of the l-th term's
    Kapteyn bound, G(l) = F(nu + lP) + lP beta with F as in ``_log_kapteyn_tail``,
    is concave in l with G'(0) = F'(nu) P + P beta = 0 at the saddle, so the
    terms fall by ever smaller ratios and the sum is at most
    e^G(1) / (1 - e^(G(2) - G(1)))."""
    P = np.zeros(nu.shape, dtype=np.int64)
    todo = np.arange(nu.size)
    size = 8
    while todo.size:
        n, x, b = nu[todo], z[todo], beta[todo]
        g1 = _log_kapteyn(n + size, x) + size * b
        g2 = _log_kapteyn(n + 2 * size, x) + 2 * size * b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = 1.0 / np.expm1(size * b) + np.exp(g1) / -np.expm1(g2 - g1)
        done = bound < _BESSEL_SLACK
        P[todo[done]] = size
        todo = todo[~done & (2 * size <= n + x)]
        size *= 2
    return P


def _sin_turns(P: int) -> np.ndarray:
    """sin(2 pi j / P) for j = 0..P-1 and P a multiple of 8, each taken by the
    quarter-turn symmetries from a sine or cosine of an argument in [0, pi/4],
    where rounding the argument moves the value least."""
    Q, E = P // 4, P // 8
    t = 2.0 * math.pi * np.arange(E + 1) / P
    quarter = np.concatenate([np.sin(t), np.cos(t)[E - 1::-1]])  # j = 0..Q
    half = np.concatenate([quarter, quarter[Q - 1::-1]])  # j = 0..2Q
    return np.concatenate([half, -half[1:2 * Q]])


def _trapezoid(nu, c, a, D, P: int) -> np.ndarray:
    """mean_j e^(-D - 2 a sin^2(t_j / 2)) cos(nu t_j - c sin t_j), t_j = 2 pi j / P,
    for each row of the 1-D arrays nu (integers), c, a >= 0 and D.

    The terms are even in t_j, so j = P/2 + 1..P-1 are folded onto
    j = P/2 - 1..1.  Rows are taken a block at a time by decreasing a, and
    in a block the terms from the first j (<= P/2) where 2 a sin^2(t_j / 2)
    reaches log(1 / _BESSEL_SLACK) for the block's least a are dropped: they
    are below _BESSEL_SLACK each, and so is the mean of the dropped ones.
    nu t_j is reduced exactly, as 2 pi ((nu j) mod P) / P."""
    half = P // 2
    j = np.arange(half + 1)
    sin_t = _sin_turns(P)[:half + 1]
    sin_half_sq = _sin_turns(2 * P)[:half + 1] ** 2  # nondecreasing
    weight = np.full(half + 1, 2.0 / P)
    weight[0] = weight[half] = 1.0 / P
    order = np.argsort(-a, kind="stable")
    out = np.empty(nu.size)
    rows = max(1, _BESSEL_BLOCK // half)
    for r0 in range(0, nu.size, rows):
        r = order[r0:r0 + rows]
        width = int(np.searchsorted(2.0 * a[r[-1]] * sin_half_sq, -math.log(_BESSEL_SLACK)))
        phase = (2.0 * math.pi / P) * (np.outer(nu[r], j[:width]) % P)
        phase -= np.outer(c[r], sin_t[:width])
        terms = np.cos(phase)
        terms *= np.exp(-D[r, None] - np.outer(2.0 * a[r], sin_half_sq[:width]))
        out[r] = terms @ weight[:width]
    return out


def bessel_jv(nu, z) -> np.ndarray:
    """J_nu(z) for integer orders nu and real z (broadcast together).

    As J_{-nu}(z) = J_nu(-z) = (-1)^nu J_nu(z), take nu, z >= 0.  For integer
    nu, J_nu(z) = (1/2 pi) int_0^{2 pi} f(t) dt with f(t) = e^{i(nu t - z sin t)},
    and the integrand is entire and 2 pi-periodic, so the integral is the same
    along Im t = beta for any real beta.  Its P-point trapezoid rule, the
    mean of f(t_j + i beta), t_j = 2 pi j / P, is
    sum_l J_{nu - lP}(z) e^{-lP beta}, since e^{-iz sin t} = sum_k J_k(z) e^{-ikt}
    (Jacobi-Anger).  With (c, a) = z (cosh beta, sinh beta) the real part of
    f(t_j + i beta) is e^{-(nu beta - a) - 2a sin^2(t_j / 2)} cos(nu t_j - c sin t_j)
    (``_trapezoid``); the imaginary parts cancel in pairs.

    For 0 < z < nu the line runs through the saddle, cosh beta = nu / z, where
    c = nu and nu beta - a = D (``_saddle``): there the integrand is a
    positive bump of height e^{-D} and width about 1 / sqrt(a), with no
    cancellation, and a few hundred points do where the real axis needs
    more than nu + z (``_saddle_points``).  Elsewhere, or where the saddle
    would need as many points, beta = 0 and the aliasing error
    sum_{l != 0} J_{nu + lP}(z) is at most 2 sum_{k >= P - nu} |J_k(z)|,
    below the slack for P >= nu + ``_alias_margin(z)``.

    An order whose Kapteyn bound (``_log_kapteyn``) is below s = 2^-60 is
    set to 0, P is chosen so that the aliasing bound is below s for every
    order kept, and the terms ``_trapezoid`` drops add up to less than s; so
    each value is within 2s of J_nu(z) before rounding.
    sin t_j and sin(t_j / 2) come from arguments in [0, pi/4]
    (``_sin_turns``), and c sin t_j is off by about c eps.  Against 40-digit
    mpmath the rounding of a value was at most 3e-15 for |nu| <= 5000,
    |z| <= 600, and 2e-16 on the saddle line for |nu| <= 20000; on the real
    axis it grows with |z|, to 1.2e-14 at |z| ~ 17500, |nu| - |z| < 0.05.
    Memory is bounded: the phases are built a block of orders at a time.
    """
    nu, z = np.broadcast_arrays(np.asarray(nu, dtype=np.int64), np.asarray(z, dtype=float))
    out = np.zeros(nu.shape)
    keep = np.flatnonzero(_log_kapteyn(np.abs(nu), z).ravel() >= math.log(_BESSEL_SLACK))
    if keep.size == 0:
        return out
    n, x = nu.ravel()[keep], z.ravel()[keep]
    sign = np.where((n < 0) != (x < 0), 1 - 2 * (n & 1), 1)
    n, x = np.abs(n), np.abs(x)
    values = np.empty(keep.size)
    P = np.zeros(keep.size, dtype=np.int64)
    below = np.flatnonzero(x < n)
    beta, w, D = _saddle(n[below].astype(float), x[below])
    P[below] = _saddle_points(n[below], x[below], beta)
    for size in set(P[below].tolist()) - {0}:  # np.unique would import numpy.ma
        k = np.flatnonzero(P[below] == size)
        at = below[k]
        values[at] = _trapezoid(n[at], n[at].astype(float), n[at] * w[k], D[k], size)
    axis = np.flatnonzero(P == 0)
    if axis.size:
        size = 8 * -(-(int(n[axis].max()) + _alias_margin(x[axis].max())) // 8)
        zero = np.zeros(axis.size)
        values[axis] = _trapezoid(n[axis], x[axis], zero, zero, size)
    out.reshape(-1)[keep] = sign * values
    return out
