"""Acceptance suite: eleven end-to-end criteria, one test per criterion.

Each test pins its tolerances explicitly and asserts the stated runtime
budget.  The conftest prints a single PASS/FAIL line per criterion at the
end of the pytest run.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from atlab import cli, fourier, funny, gaussian, sbh, systems


def test_criterion_01_epsilon0():
    """epsilon0: residual <= 1e-12, value in (0.106, 0.107), < 1 ms."""
    e = sbh.epsilon0()  # a first call before timing
    t0 = time.perf_counter()
    e = sbh.epsilon0()
    elapsed = time.perf_counter() - t0
    assert abs(2 * (1 - e) * (1 - 2 * e) ** 2 - 1 - e) <= 1e-12
    assert 0.106 < e < 0.107
    assert elapsed < 1e-3


def test_criterion_02_lebesgue_identities():
    """Exhaustive sup = 1 exactly and theta L2 = 1/k on Lebesgue, < 10 s."""
    t0 = time.perf_counter()
    leb = fourier.lebesgue_table(32)
    for k in range(1, 9):
        for window in range(k, 17):
            assert sbh.sbh_sup_exhaustive(leb, k, window)[0] == 1.0, (k, window)
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 13))
        idx = tuple(sorted(rng.choice(33, size=k, replace=False).tolist()))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        assert funny.theta_l2_exact(leb, funny.FunnyWord(idx, bits)) == 1.0 / k
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_rudin_shapiro():
    """|c(n)| = |S(n)| / (L - n) <= 5/sqrt(L) from the exact lag sums S at L=2^20,
    oracle match below 2^16, < 30 s."""
    t0 = time.perf_counter()
    L = 2**20
    c = systems.rudin_shapiro_lag_sums(L, 64) / (L - np.arange(65))
    tol = 5.0 / math.sqrt(L)
    for n in range(1, 65):
        assert abs(c[n]) <= tol, (n, c[n])
    # independent binary-counting oracle: r_n = (-1)^{count of '11' pairs}
    ns = np.arange(2**16, dtype=np.uint64)
    pairs = np.zeros(2**16, dtype=np.int64)
    v = ns.copy()
    while np.any(v):
        pairs += ((v & 3) == 3).astype(np.int64)
        v >>= np.uint64(1)
    oracle = np.where(pairs % 2 == 0, 1, -1)
    assert np.array_equal(systems.rudin_shapiro_names(2**16), oracle)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_arcsine_laws():
    """Three orthant laws within 4 standard errors at 10^6 samples, < 2 min."""
    t0 = time.perf_counter()
    samples = 10**6
    for i, r in enumerate((-0.9, -0.5, 0.0, 0.5, 0.9)):
        autocov = np.array([1.0, r])
        spec = gaussian.GaussianSpec(autocov)
        rep = gaussian.product_orthant_mc(spec, 1, 1, samples, seed=100 + i)
        assert abs(rep.z_score) <= 4.0, (r, "orthant", rep)
        rep2 = gaussian.product_orthant_mc(spec, 1, 2, samples, seed=200 + i)
        assert abs(rep2.z_score) <= 4.0, (r, "2-fold", rep2)
        rep4 = gaussian.product_orthant_mc(spec, 1, 4, samples, seed=300 + i)
        assert abs(rep4.z_score) <= 4.0, (r, "4-fold", rep4)
        if r == 0.5:
            assert rep.formula_value == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert rep2.formula_value == pytest.approx(0.25 + 1.0 / 36.0, abs=1e-12)
            assert rep4.formula_value == pytest.approx(0.25 + 1.0 / 324.0, abs=1e-12)
    assert time.perf_counter() - t0 < 120.0


def _nil_quadrature_oracle(alpha, beta, gamma, M, Gx, Gy):
    """2D tensor midpoint quadrature of sum_m |f-hat(m)|^2 iint e^{2 pi i m phi}.

    phi(x, y) = alpha y - (x + alpha) b(y) + gamma with b(y) = floor(y + beta).
    The x-average over the midpoint grid is computed in closed form: it is
    exactly 1 where b(y) = 0 and exactly 0 where b(y) = 1 (m below Gx).
    """
    sw = systems.square_wave_coeffs(M)
    ms = sw.odd_ms
    assert int(np.max(np.abs(ms))) < Gx
    y = (np.arange(Gy) + 0.5) / Gy
    keep = np.floor(y + beta) == 0.0
    phase = np.exp(2j * np.pi * np.outer(ms, alpha * y[keep] + gamma))
    vals = phase.sum(axis=1) / Gy
    return complex(np.sum(sw.weights * vals))


def test_criterion_05_nil_rotation():
    """Exact vanishing, closed form vs quadrature oracle, decay in beta, < 1 min."""
    t0 = time.perf_counter()
    a = systems.SQRT2_M1
    vs = systems.nil_rotation_correlations(a, 0.7, 0.0, 32)
    for n in range(2, 33):
        assert vs[n] == 0.0, n
    series = systems.nil_rotation_n1_series(a, 0.8, 0.0)
    oracle = _nil_quadrature_oracle(a, 0.8, 0.0, M=201, Gx=256, Gy=2**16)
    assert abs(series - oracle) <= 1e-4
    small = abs(systems.nil_rotation_correlations(a, 0.99, 0.0, 1)[1])
    large = abs(systems.nil_rotation_correlations(a, 0.6, 0.0, 1)[1])
    assert large >= 5.0 * small
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_distal_integral():
    """Distal rows: exact zero for 1 <= n <= 100, < 1 s."""
    t0 = time.perf_counter()
    values = systems.DistalSource().table(100)[0]
    for n in range(1, 101):
        assert values[n] == 0.0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_07_ac_cocycle_decay():
    """|c(n)| * n <= C_analytic for n = 1..32 at delta=0.1, delta0=0.5, < 2 min."""
    t0 = time.perf_counter()
    alpha, delta, delta0 = systems.SQRT2_M1, 0.1, 0.5
    C = systems.ac_cocycle_analytic_constant(delta, delta0)
    vs = systems.rotation_ac_cocycle_correlations(alpha, delta, delta0, 32)
    for n in range(1, 33):
        v = vs[n]
        assert abs(v) * n <= C, (n, abs(v) * n, C)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_gaussian_cocycle():
    """Variance lower bound on 5 specs; white-noise table certifies, < 10 s."""
    t0 = time.perf_counter()
    specs = [gaussian.white_noise_spec(64),
             gaussian.exponential_spec(0.5, 64),
             gaussian.exponential_spec(0.9, 64),
             gaussian.triangular_spec(8, 64),
             gaussian.triangular_spec(32, 64)]
    for spec in specs:
        var = gaussian.cocycle_variances(spec, 64)
        for n in range(1, 65):
            assert var[n] >= n - 1e-12
    table = gaussian.cocycle_correlation_table(gaussian.white_noise_spec(16), 201, 16)
    sub = fourier.power_subsample(table, 1)
    assert fourier.l1_tail(sub) < 1e-8
    assert sbh.certify(sub).verdict == "CERTIFIED_SBH"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_constant_chain():
    """Fourth-power series below 1 + eps0 with margin; pipeline certifies, < 10 s."""
    t0 = time.perf_counter()
    rep = gaussian.gnoat_constant_check()
    assert rep.chain_ok
    assert rep.margin > 0.0
    assert rep.series_value + rep.series_tail_bound <= 1.0 + sbh.epsilon0()
    c = rep.c
    # the fourth-power transform of the c/sqrt(n) template has an l1 tail
    # below eps0, so the certificate closes
    wide = fourier.arcsine_fourth_transform(fourier.sqrt_template(c, 10**4))
    assert fourier.l1_tail(wide) <= sbh.epsilon0()
    pipeline = fourier.arcsine_fourth_transform(fourier.sqrt_template(c, 2048))
    assert sbh.certify(pipeline).verdict == "CERTIFIED_SBH"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_funny_word_bound():
    """No searched word beats the mass bound on the Lebesgue-like sources;
    the degenerate fixture does, < 5 min."""
    t0 = time.perf_counter()
    eps = 0.1
    bound = funny.non_at_bound(eps)
    assert bound == pytest.approx(0.8645, abs=5e-4)
    fam = funny.LambdaFamily(k=32, horizon=256)
    for src in (systems.RotationCocycleSource(delta=0.0),
                systems.RudinShapiroSource()):
        rep = funny.funny_word_search(src, fam, epsilon=eps,
                                      samples=10**4, seed=1)
        assert rep.violations() == [], type(src).__name__
        for row in rep.rows:
            assert row.k_times_mass <= bound + 4.0 * 32 * row.stderr
    degenerate = funny.funny_word_search(systems.ConstantSource(), fam,
                                         epsilon=eps, samples=10**4, seed=1)
    assert degenerate.best.k_times_mass > 10.0  # about k/2 = 16
    assert len(degenerate.violations()) > 0
    assert time.perf_counter() - t0 < 300.0


def _run_cli(argv, out_path):
    code = cli.main(argv + ["--out", str(out_path)])
    assert code == 0
    return out_path.read_bytes()


def test_criterion_11_determinism(tmp_path, capsys):
    """Identical seeds: byte-identical reports, the second pass run after the first."""
    runs = {
        "rs": ["system", "rudin-shapiro", "--L", str(2**20), "--nmax", "64",
               "--seed", "0"],
        "orthant": ["gaussian", "orthant", "--r", "0.5",
                    "--samples", str(10**6), "--seed", "0"],
        "funny": ["funny", "--system", "rotation", "--delta", "0.0",
                  "--k", "32", "--samples", str(10**4), "--seed", "0"],
    }
    first = {name: _run_cli(argv, tmp_path / f"{name}_1") for name, argv in runs.items()}
    for name, argv in runs.items():
        b = _run_cli(argv, tmp_path / f"{name}_2")
        assert first[name] == b, f"{name}: output differs between identical runs"
        assert len(b) > 0
