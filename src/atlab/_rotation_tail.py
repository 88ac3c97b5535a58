"""The tail bound of the rotation cocycle's correlation table.

``systems.ac_cocycle_table`` stores c(n), n = 0..N, as computed by
``systems.rotation_ac_cocycle_correlations``:

    c(n) = sum over odd |m| <= M of w_m e^{2 pi i m c_n} J_{-mn}(m delta s_n) e^{-i m n psi_n},

with w_m = 4 / (pi^2 m^2), S_n = sum_{j<n} e^{2 pi i j alpha} = s_n e^{i psi_n}
and c_n = n (n - 1) alpha / 2.  Its ``tail_bound`` must cover the l1 distance
to the true coefficients over all n, both signs.  Every part of it is a sum
over odd m of w_m times a bound on |J_{mn}(m delta s)|, and Kapteyn's bound
(``bessel._log_kapteyn``) makes each such sum a geometric series in m, summed
here in closed form for all lags at once.

Only the table loads this module: the rows of ``system rotation`` do not
compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import _BESSEL_SLACK, _log_kapteyn, _log_kapteyn_tail

# 64 lags past the table are bounded one by one, the rest in closed form
_LAG_BLOCK = 64


def _odd_multiples_bound(n, z, m0: int = 1) -> np.ndarray:
    """m0^-2 G, G >= sum_{odd m >= m0} |J_{mn}(mz)|, for integers n, m0 >= 1 and
    0 <= z < n (n and z broadcast); so also a bound on the sum of
    |J_{mn}(mz)| / m^2.  G is a geometric series in m summed in closed form:
    |J_{mn}(mz)| <= q^m, log q = ``_log_kapteyn(n, z)``, as r = mz / mn does not
    depend on m; and |J_k(x)| <= (x/2)^k / k! with Robbins' k! >= sqrt(2 pi k)
    (k/e)^k (Amer. Math. Monthly 62, 1955) gives |J_{mn}(mz)| <=
    rho^m / sqrt(2 pi m n), log rho = n log(e z / 2n), summed where rho < 1.
    Both bounds grow with z."""
    n = np.asarray(n, dtype=float)
    lq = _log_kapteyn(n, z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lr = n * np.log(math.e / 2.0 * z / n)
        robbins = np.exp(m0 * lr) / (np.sqrt(2.0 * math.pi * m0 * n) * -np.expm1(2.0 * lr))
        return np.minimum(np.exp(m0 * lq) / -np.expm1(2.0 * lq),
                          np.where(lr < 0.0, robbins, np.inf)) / m0**2


def _odd_multiples_tail(n0: int, delta: float, smax: float) -> float:
    """A bound on sum_{n >= n0} sum_{odd m} |J_{mn}(m delta s_n)| / m^2 for
    0 <= delta < 1 and 0 <= s_n <= min(n, smax): _LAG_BLOCK lags by
    ``_odd_multiples_bound``, then from n1 = n0 + _LAG_BLOCK the sum of
    q_n / (1 - q_n^2) <= Q^n / (1 - Q^(2 n1)), Q Kapteyn's bound at
    r = delta >= delta s_n / n, or, where delta smax < n1, the sum of
    Kapteyn's bounds at z = delta smax by ``bessel._log_kapteyn_tail``."""
    n = np.arange(n0, n0 + float(_LAG_BLOCK))
    n1, lq = n0 + _LAG_BLOCK, float(_log_kapteyn(1.0, delta))
    rest = math.exp(n1 * lq) / -math.expm1(lq)
    if 0.0 < delta * smax < n1:
        rest = min(rest, math.exp(_log_kapteyn_tail(n1, delta * smax)))
    return float(np.sum(_odd_multiples_bound(n, delta * np.minimum(n, smax)))
                 + rest / -math.expm1(2.0 * n1 * lq))


def _jv_error(n, z) -> np.ndarray:
    """A bound on |bessel_jv(mn, mz) - J_{mn}(mz)| for every m >= 1, integer
    n >= 1 and real z.  Where ``bessel_jv`` keeps m = 1 (Kapteyn's bound at
    least 2^-60; 2^-61 here leaves room for the test's rounding), each value
    is within 2 _BESSEL_SLACK before rounding, and its rounding, measured
    against mpmath in ``bessel_jv``'s docstring, is below 3e-15 < 2^-48.
    Elsewhere every m is below 2^-60 and returned as 0, and
    |J_{mn}(mz)| <= q^m <= q, log q = ``_log_kapteyn(n, z)``."""
    lq = _log_kapteyn(n, z)
    return np.where(lq >= math.log(_BESSEL_SLACK / 2.0), 2.0 * _BESSEL_SLACK + 2.0**-48,
                    np.exp(lq))


def ac_cocycle_tail(alpha: float, delta: float, M: int, s: np.ndarray) -> float:
    """The tail bound of the table c(0..N) at odd |m| <= M, given s = |S_n|,
    n = 1..N, as the values computed them (``systems._rotation_sums``).

    Both signs of n count, and both signs of m (8 / pi^2 = 2 w_1):
      * lags n > N, every m: s_n <= min(n, 1 / |sin pi alpha|), which holds
        at integer alpha too (``_odd_multiples_tail``);
      * stored lags, |m| > M: ``_odd_multiples_bound`` from m1, the least odd
        number above M;
      * stored lags, |m| <= M: ``_jv_error`` on each value (the weights sum
        to less than 1), and the rounding of each term, relative to its bound
        and at most 4: 2 for the phases, 1 for the moved Bessel argument (the
        true and the computed J_k are both in [0, bound], as J_k > 0 on
        0 < x < k) and 1 for the rest.
        With u = 2^-53, that is u (log2(M + 1) + 33) for the weights, the
        exponentials, the products and numpy's pairwise m-sum, plus a part
        per |m| n.  The computed phases 2 pi alpha j carry 3 u of relative
        error and their exponentials 2 u, and each step of the cumsum rounds
        by u |S_j|, so with hypot's rounding and that of the argument
        m delta s_n, S_n is off by at most E = u n ((3 pi |alpha| + 1) n + 5);
        s_n + E bounds both the true and the computed |S_n|.  With
        lam = E / (s_n - E) (infinite where s_n <= E), psi_n moves by at most
        lam pi / 2, so the phase m n psi_n by |m| n lam pi / 2, and J_k(x),
        k = |m| n, by k lam |J_k(x)|, as |J_k'| <= k |J_k| / x for
        0 < x < k.  As s_n <= n, lam >= E / n, and the remaining 2.43 |m| n
        lam of 5 |m| n lam covers the phase of c_n, 4 pi |alpha m| n (n - 1) u,
        and the rounding of psi_n and of its product with m n, 3 pi |m| n u.
        Since (a + b |m|) / m^2 <= a + b, the sum over m of w_m times these
        is at most 8 / pi^2 times G(1) (a + b), G as in
        ``_odd_multiples_bound``.
    The result is rounded up by 2^-20, which covers the rounding of the
    bound's own logs and sums, 1 / |sin pi alpha|'s included.
    """
    u, n = 2.0**-53, np.arange(1.0, s.size + 1)
    err = u * n * ((3.0 * math.pi * abs(alpha) + 1.0) * n + 5.0)
    with np.errstate(divide="ignore"):
        lam = np.where(s > err, err / (s - err), np.inf)
        smax = 1.0 / np.sin(math.pi * abs(math.remainder(alpha, 1.0)))
    rel = np.minimum(4.0, 5.0 * n * lam + u * (math.log2(M + 1) + 33))
    z = delta * (s + err)
    tail = (np.sum(_odd_multiples_bound(n, z, M + 1 + M % 2) + _odd_multiples_bound(n, z) * rel)
            + _odd_multiples_tail(s.size + 1, delta, smax))
    tail = 16.0 / math.pi**2 * tail + 2.0 * np.sum(_jv_error(n, delta * s))
    return float(tail) * (1.0 + 2.0**-20)
