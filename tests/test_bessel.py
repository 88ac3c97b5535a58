"""Tests for the Bessel values J_nu(z) of integer order (scipy and mpmath are references)."""

import time

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atlab import bessel


def _mpmath_jv(nu, z):
    import mpmath
    with mpmath.workdps(40):
        return float(mpmath.besselj(int(nu), float(z), maxterms=10**6, maxprec=10**6))


def test_bessel_jv_matches_scipy():
    # where scipy and bessel_jv differ by more than 1e-14, 40-digit mpmath decides:
    # scipy's own error reaches about 1.4e-14 at |z| ~ 550, bessel_jv's must not
    from scipy.special import jv
    rng = np.random.default_rng(12)
    nu = np.concatenate([rng.integers(-5000, 5001, 3000), rng.integers(-700, 701, 3000),
                         rng.integers(-40, 41, 3000)])
    z = np.concatenate([rng.uniform(-600, 600, 6000), rng.uniform(-50, 50, 3000)])
    got = bessel.bessel_jv(nu, z)
    off = np.flatnonzero(np.abs(got - jv(nu, z)) > 1e-14)
    assert off.size < 20
    for i in off:
        assert abs(got[i] - _mpmath_jv(nu[i], z[i])) <= 1e-14, (nu[i], z[i])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(nu=st.one_of(st.integers(-5000, 5000), st.integers(-800, 800)),
       z=st.floats(-600.0, 600.0))
@example(nu=0, z=0.0)
@example(nu=3, z=0.0)
@example(nu=-551, z=-565.559)
@example(nu=600, z=599.3)
@example(nu=5000, z=600.0)
def test_bessel_jv_matches_mpmath(nu, z):
    assert abs(bessel.bessel_jv(nu, z) - _mpmath_jv(nu, z)) <= 1e-14


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(nu=st.integers(1, 20000), ratio=st.floats(0.5, 0.99999))
@example(nu=20000, ratio=0.99)
@example(nu=7, ratio=0.99999)
def test_bessel_jv_below_turning_point_matches_mpmath(nu, ratio):
    # z < nu: the rule runs through the saddle, or on the real axis if that is cheaper
    z = nu * ratio
    assert abs(bessel.bessel_jv(nu, z) - _mpmath_jv(nu, z)) <= 1e-14
    assert abs(bessel.bessel_jv(-nu, z) - (-1) ** nu * _mpmath_jv(nu, z)) <= 1e-14


def test_bessel_jv_far_below_turning_point():
    # z < 1e-8 nu: w = sqrt(1 - (z/nu)^2) rounds to 1, the saddle is at infinity, and
    # the rule stays on the real axis, with no division-by-zero warning
    for nu, z in ((1, 1e-10), (1, -1e-15), (2, 3e-9), (-3, 2e-6)):
        assert abs(bessel.bessel_jv(nu, z) - _mpmath_jv(nu, z)) <= 1e-14, (nu, z)


def test_bessel_jv_near_turning_point_at_large_orders():
    # lag 1 of `system rotation --M 20001 --delta 0.99`: every odd order to 20001 is
    # kept, at z = 0.99 |nu|, where the rule on the real axis needs 4e4 points a value
    from scipy.special import jv
    m = np.arange(-20001, 20002, 2)
    t0 = time.perf_counter()
    got = bessel.bessel_jv(-m, 0.99 * m)
    assert time.perf_counter() - t0 < 2.0
    assert np.max(np.abs(got - jv(-m, 0.99 * m))) <= 1e-14


def test_bessel_jv_broadcasts():
    got = bessel.bessel_jv(np.arange(-3, 4)[:, None], np.array([0.0, 1.5, -7.25]))
    assert got.shape == (7, 3)
    assert got[3, 0] == 1.0 and not np.any(got[np.arange(7) != 3, 0])
    from scipy.special import jv
    assert np.max(np.abs(got - jv(np.arange(-3, 4)[:, None], [0.0, 1.5, -7.25]))) <= 1e-15


def test_saddle_exponent_keeps_its_digits():
    # D = nu (artanh w - w) scales the whole value e^-D; as nu (beta - w) it would
    # lose about log10(beta / (beta - w)) digits for small w
    import mpmath
    nu = np.full(200, 20000.0)
    w = np.geomspace(1e-3, 0.9, 200)
    z = nu * np.sqrt(1.0 - w * w)
    beta, tanh_beta, D = bessel._saddle(nu, z)
    with mpmath.workdps(40):
        for i in range(nu.size):
            t = mpmath.sqrt((mpmath.mpf(nu[i]) - z[i]) * (mpmath.mpf(nu[i]) + z[i])) / nu[i]
            exact = nu[i] * (mpmath.atanh(t) - t)
            assert abs(D[i] - float(exact)) <= 1e-14 * float(exact), (w[i], D[i])


def test_log_kapteyn_tail_covers_the_orders():
    from scipy.special import jv
    for z in (0.5, 7.3, 120.0):
        for k in (int(z) + 1, int(z) + 10, 2 * int(z) + 5):
            j = np.arange(k, k + 2000)
            assert np.sum(np.abs(jv(j, z))) <= np.exp(bessel._log_kapteyn_tail(k, z)), (z, k)
