"""Output checks for every benchmark job, independent of the atlab code.

Each checker reads the files a job wrote (and, for derived tables, the input
files the job read, which an earlier job wrote and another checker already
verified) and raises ``CheckFailed`` with a one-line reason when the output is
wrong. Reference values come from closed forms, FFTs or brute force written
here, not from calls into the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from itertools import combinations

import numpy as np
from scipy.special import jv

NOT_SBH_CAVEAT = (
    "finite witnesses bound the supremum from below at fixed k; "
    "the limsup_k claim is heuristic"
)
SEARCH_CAVEAT = (
    "no searched word violates the bound; a finite search cannot certify non-AT"
)
VIOLATION_NOTE = "note: bound exceeded by at least one candidate"
SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0
VERDICT_CODE = {"CERTIFIED_SBH": 0, "CERTIFIED_NOT_SBH": 3, "UNDECIDED": 4}
# the program pins epsilon0 by its residual (<= 1e-13), not to the last ulp, so
# values derived from it are compared to this tolerance
EPS0_TOL = 1e-12
# exhaustive SBH suprema are re-derived by brute force up to this many forms
BRUTE_FORCE_FORMS = 200_000


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a: float, b: float, tol: float, what: str) -> None:
    expect(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# reference constants


def epsilon0() -> float:
    """Root in (0, 0.2) of 2(1-t)(1-2t)^2 - 1 - t, by plain bisection to 1 ulp."""
    f = lambda t: 2.0 * (1.0 - t) * (1.0 - 2.0 * t) ** 2 - 1.0 - t
    lo, hi = 0.0, 0.2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)


def non_at_bound(eps: float) -> float:
    return (1.0 + epsilon0()) / (2.0 * (1.0 - 2.0 * eps) ** 2)


def alpha_value(name: str) -> float:
    return {"sqrt2-1": SQRT2_M1, "golden": GOLDEN_M1}.get(name) or float(name)


def square_wave(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd m with |m| <= M and the weights |f-hat(m)|^2 = 4 / (pi m)^2."""
    pos = np.arange(1, M + 1, 2)
    ms = np.concatenate([-pos[::-1], pos])
    return ms, 4.0 / (math.pi * ms.astype(float)) ** 2


# ---------------------------------------------------------------------------
# file readers


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: unreadable JSON ({exc})") from exc


def read_table(path: str) -> tuple[np.ndarray, float]:
    """c(0..N) and tail bound of a measure JSON file, with format checks."""
    obj = read_json(path)
    try:
        N = int(obj["half_width"])
        tail = float(obj["tail_bound"])
        rows = obj["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: malformed measure ({exc})") from exc
    expect(len(rows) == N + 1, f"{os.path.basename(path)}: {len(rows)} rows for N={N}")
    expect([int(r[0]) for r in rows] == list(range(N + 1)),
           f"{os.path.basename(path)}: indices are not 0..N")
    c = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    expect(c[0] == 1.0, f"{os.path.basename(path)}: c(0) != 1")
    expect(bool(np.all(np.abs(c) <= 1.0 + 1e-12)), f"{os.path.basename(path)}: |c(n)| > 1")
    expect(math.isfinite(tail) and tail >= 0.0, f"{os.path.basename(path)}: bad tail bound")
    return c, tail


def read_csv_table(path: str, nmax: int) -> list[tuple[int, complex, str, float]]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckFailed(f"{os.path.basename(path)}: unreadable ({exc})") from exc
    expect(text.endswith("\n"), f"{os.path.basename(path)}: truncated (no final newline)")
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[:1] == [["n", "re", "im", "method", "error_bar"]],
           f"{os.path.basename(path)}: bad header")
    body = rows[1:]
    expect(len(body) == nmax + 1, f"{os.path.basename(path)}: {len(body)} rows, want {nmax + 1}")
    out = []
    for i, row in enumerate(body):
        expect(len(row) == 5, f"{os.path.basename(path)}: row {i} has {len(row)} fields")
        expect(int(row[0]) == i, f"{os.path.basename(path)}: row {i} is labelled n={row[0]}")
        out.append((i, complex(float(row[1]), float(row[2])), row[3], float(row[4])))
    return out


def density_on_grid(c: np.ndarray, grid: int) -> np.ndarray:
    """Re sum_{|n|<=N} c(n) e^{2 pi i n j / grid} for j < grid, by one FFT."""
    N = c.size - 1
    expect(grid >= 2 * N + 1, "density grid too coarse for the table")
    a = np.zeros(grid, dtype=complex)
    a[: N + 1] = c
    a[grid - N:] = np.conj(c[1:][::-1])
    return np.real(np.fft.ifft(a)) * grid


# ---------------------------------------------------------------------------
# measure tables


def check_sqrt_table(d: str, p: dict, rc: int, stderr: str) -> None:
    c, tail = read_table(os.path.join(d, p["out"]))
    expect(c.size == p["N"] + 1, "sqrt table has the wrong half width")
    ref = np.ones(p["N"] + 1)
    ref[1:] = p["c"] / np.sqrt(np.arange(1, p["N"] + 1, dtype=float))
    close(float(np.max(np.abs(c - ref))), 0.0, 1e-15, "sqrt template coefficients")
    close(tail, 0.0, 0.0, "sqrt template tail bound")


def check_arcsine_table(d: str, p: dict, rc: int, stderr: str) -> None:
    c0, tail0 = read_table(os.path.join(d, p["in"]))
    c, tail = read_table(os.path.join(d, p["out"]))
    expect(c.size == c0.size, "arcsine table changed the half width")
    if p["power"] == 1:
        ref = (2.0 / math.pi) * np.arcsin(c0.real)
    else:
        ref = (16.0 / math.pi**4) * np.arcsin(c0.real) ** 4
    ref[0] = 1.0
    close(float(np.max(np.abs(c - ref))), 0.0, 1e-15, "arcsine coefficients")
    close(tail, tail0, 0.0, "arcsine tail bound")


def riesz_reference(amps: list[float], freqs: list[int], N: int) -> np.ndarray:
    """c(0..N) of prod_j (1 + a_j cos(2 pi lambda_j x)) by sampling and one FFT."""
    grid = 1 << max(int(4 * (sum(freqs) + N)).bit_length(), 4)
    x = np.arange(grid) / grid
    f = np.ones(grid)
    for a, lam in zip(amps, freqs):
        f *= 1.0 + a * np.cos(2.0 * math.pi * lam * x)
    return np.fft.fft(f)[: N + 1] / grid


def check_riesz_table(d: str, p: dict, rc: int, stderr: str) -> None:
    c, tail = read_table(os.path.join(d, p["out"]))
    amps = [float(a) for a in p["a"].split(",")]
    freqs = [int(f) for f in p["freq"].split(",")]
    ref = riesz_reference(amps, freqs, p["N"])
    close(float(np.max(np.abs(c - ref))), 0.0, 1e-12, "Riesz coefficients")
    close(tail, 0.0, 0.0, "Riesz tail bound")
    path = os.path.join(d, p["csv"])
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckFailed(f"density CSV unreadable ({exc})") from exc
    expect(text.endswith("\n"), "density CSV truncated (no final newline)")
    lines = text.splitlines()
    expect(lines[0] == "theta,density", "density CSV has a bad header")
    expect(len(lines) == p["grid"] + 1, f"density CSV has {len(lines) - 1} rows, want {p['grid']}")
    vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    close(float(np.max(np.abs(vals[:, 0] - np.arange(p["grid"]) / p["grid"]))), 0.0, 0.0,
          "density CSV theta column")
    ref_d = density_on_grid(ref, p["grid"])
    close(float(np.max(np.abs(vals[:, 1] - ref_d))), 0.0, 1e-9, "density CSV values")


# ---------------------------------------------------------------------------
# SBH certificates


def gram_real(c: np.ndarray, idx: np.ndarray) -> np.ndarray:
    diffs = np.abs(idx[:, None] - idx[None, :])
    out = np.zeros(diffs.shape)
    inside = diffs < c.size
    out[inside] = c.real[diffs[inside]]
    return out


def sbh_form(c: np.ndarray, indices, signs) -> float:
    idx = np.asarray(indices, dtype=int)
    s = np.where(np.asarray(signs) % 2 == 0, 1.0, -1.0)
    return float(s @ gram_real(c, idx) @ s) / idx.size


def brute_force_sup(c: np.ndarray, k: int, window: int) -> float:
    best = -math.inf
    signs = np.array([[1.0] + [1.0 - 2.0 * ((a >> b) & 1) for b in range(k - 1)]
                      for a in range(2 ** (k - 1))])
    for sub in combinations(range(window), k):
        G = gram_real(c, np.array(sub))
        best = max(best, float(np.max(np.einsum("ai,ij,aj->a", signs, G, signs))) / k)
    return best


def _check_witness(c: np.ndarray, rep: dict, key: str, k: int, window: int) -> float:
    w = rep[f"{key}_witness"]
    idx, signs = w["indices"], w["signs"]
    expect(len(idx) == k and len(signs) == k, f"{key} witness has the wrong length")
    expect(all(0 <= a < window for a in idx) and list(idx) == sorted(set(idx)),
           f"{key} witness indices are not increasing in [0, window)")
    expect(set(signs) <= {0, 1}, f"{key} witness signs are not 0/1")
    val = rep[f"{key}_sup"]
    close(val, sbh_form(c, idx, signs), 1e-12, f"{key} witness form")
    return val


def check_certificate(c: np.ndarray, tail: float, rep: dict, k: int, window: int,
                      budget: int) -> str:
    """Check one SBH report against its table; returns the verdict."""
    N = c.size - 1
    eps = epsilon0()
    close(rep["epsilon0"], eps, EPS0_TOL, "epsilon0")
    l1 = 1.0 + 2.0 * float(np.sum(np.abs(c[1:]))) + tail
    close(rep["l1_certificate"], l1, 1e-9 * l1, "l1 certificate")
    grid = max(4 * N + 4, 64)
    fine = density_on_grid(c, 8 * grid)
    scale = 1.0 + 2.0 * float(np.sum(np.abs(c[1:])))
    dens = rep["density_certificate"]
    expect(dens >= float(np.max(fine)) - 1e-9 * scale,
           f"density certificate {dens!r} below the density maximum {float(np.max(fine))!r}")
    margin = 2.0 * math.pi * 2.0 * float(np.sum(np.arange(1, N + 1) * np.abs(c[1:]))) / (2 * grid)
    close(dens, float(np.max(fine[::8])) + tail + margin, 1e-9 * scale, "density certificate")
    kk = min(k, 12)
    ww = min(max(window, kk), 24)
    expect(rep["exhaustive_params"] == [kk, ww], "exhaustive parameters are not the clamped k, window")
    sups = [_check_witness(c, rep, "exhaustive", kk, ww)]
    if math.comb(ww, kk) * 2 ** (kk - 1) <= BRUTE_FORCE_FORMS:
        close(sups[0], brute_force_sup(c, kk, ww), 1e-12, "exhaustive supremum")
    if budget > 0:
        sups.append(_check_witness(c, rep, "heuristic", kk, window))
    else:
        expect(rep["heuristic_sup"] is None, "heuristic ran without a budget")
    if min(rep["l1_certificate"], dens) <= 1.0 + eps:
        want = "CERTIFIED_SBH"
    elif max(sups) > 1.0 + eps:
        want = "CERTIFIED_NOT_SBH"
    else:
        want = "UNDECIDED"
    expect(rep["verdict"] == want, f"verdict {rep['verdict']} but certificates give {want}")
    expect(rep["note"] == (NOT_SBH_CAVEAT if want == "CERTIFIED_NOT_SBH" else ""),
           "NOT_SBH caveat missing or misplaced")
    return want


def check_certify(d: str, p: dict, rc: int, stderr: str) -> None:
    c, tail = read_table(os.path.join(d, p["in"]))
    rep = read_json(os.path.join(d, p["out"]))
    verdict = check_certificate(c, tail, rep, p["k"], p["window"], p["budget"])
    expect(rc == VERDICT_CODE[verdict], f"exit code {rc} does not match verdict {verdict}")


def check_certify_scan(d: str, p: dict, rc: int, stderr: str) -> None:
    c, tail = read_table(os.path.join(d, p["in"]))
    rep = read_json(os.path.join(d, p["out"]))
    scan = rep["scan"]
    ms = list(range(p["lo"], p["hi"] + 1))
    expect([row["m"] for row in scan] == ms, "subsample scan rows are not m = lo..hi")
    first = None
    N = c.size - 1
    for m, row in zip(ms, scan):
        cm = c[: m * (N // m) + 1: m]
        verdict = check_certificate(cm, tail, row["report"], p["k"], p["window"], 0)
        if verdict == "CERTIFIED_SBH" and first is None:
            first = m
    expect(rep["first_certified_m"] == first, "first_certified_m disagrees with the scan")
    expect(rc == (0 if first is not None else 4), f"exit code {rc} does not match the scan")


# ---------------------------------------------------------------------------
# Gaussian tables and constants


def cocycle_reference(r: np.ndarray, nmax: int, M: int) -> np.ndarray:
    """c(n) = sum_m w_m exp(-2 pi^2 m^2 Var_n), Var_n = n + 2 sum_{k<n} (n-k) r(k)."""
    ms, w = square_wave(M)
    rr = np.zeros(nmax + 1)
    rr[1:] = r[1: nmax + 1]
    # Var_n - Var_{n-1} = 1 + 2 sum_{1<=k<n} r(k)
    inc = 1.0 + 2.0 * np.concatenate([[0.0], np.cumsum(rr[1:nmax])])
    var = np.cumsum(inc)
    out = np.ones(nmax + 1)
    out[1:] = np.exp(-2.0 * math.pi**2 * np.outer(var, ms.astype(float) ** 2)) @ w
    return out


def check_gaussian_cocycle(d: str, p: dict, rc: int, stderr: str) -> None:
    nmax = p["nmax"]
    if p["spec"]:
        r, _ = read_table(os.path.join(d, p["spec"]))
        r = r.real
        k = r.size
        T = r[np.abs(np.arange(k)[:, None] - np.arange(k)[None, :])]
        lam = float(np.linalg.eigvalsh(T)[0])
        expect(lam >= -1e-8, f"spec accepted but its Toeplitz matrix has eigenvalue {lam!r}")
    else:
        r = np.zeros(nmax + 1)
        r[0] = 1.0
    c, tail = read_table(os.path.join(d, p["out"]))
    expect(c.size == nmax + 1, "cocycle table has the wrong half width")
    ref = cocycle_reference(r, nmax, p["M"])
    close(float(np.max(np.abs(c - ref))), 0.0, 1e-12, "cocycle correlations")
    q = math.exp(-2.0 * math.pi**2)
    close(tail, 2.0 * q ** (nmax + 1) / (1.0 - q), 1e-300, "cocycle tail bound")


def check_gaussian_constants(d: str, p: dict, rc: int, stderr: str) -> None:
    rep = read_json(os.path.join(d, p["out"]))
    eps = epsilon0()
    c = math.sqrt(math.pi) * ((1.0 + eps) / 86.0) ** 0.25
    close(rep["c"], c, EPS0_TOL, "constant c")
    close(rep["budget"], 1.0 + eps, EPS0_TOL, "budget")
    zeta = 512.0 * c**4 / math.pi**4 * math.pi**2 / 6.0
    close(rep["zeta_bound"], zeta, EPS0_TOL, "zeta bound")
    close(rep["margin"], 1.0 + eps - zeta, EPS0_TOL, "margin")
    ks = np.arange(1, 10**6 + 1, dtype=float)
    series = math.fsum((32.0 / math.pi**4) * np.arcsin(np.minimum(c / np.sqrt(ks), 1.0)) ** 4)
    close(rep["series_value"], series, 1e-10, "series value")
    close(rep["series_tail_bound"], 512.0 * c**4 / math.pi**4 / 10**6, 1e-18, "series tail")
    expect(rep["arcsin_domain_ok"] is True and rep["chain_ok"] is True, "constant chain not ok")
    expect(series + rep["series_tail_bound"] <= zeta <= 1.0 + eps, "constant chain fails")


# ---------------------------------------------------------------------------
# correlation tables of concrete systems


def rotation_reference(alpha: float, delta: float, n: int, M: int) -> complex:
    """Jacobi-Anger closed form of the rotation-cocycle correlation.

    With S = sum_{j<n} e^{2 pi i j alpha} = |S| e^{i psi}, each m-integral is
    e^{2 pi i m const} J_{-mn}(m delta |S|) e^{-i m n psi}.
    """
    ms, w = square_wave(M)
    S = complex(np.sum(np.exp(2j * math.pi * alpha * np.arange(n))))
    const = n * (n - 1) * alpha / 2.0
    K = np.abs(ms) * n
    # J_{-mn}(m delta |S|): J_{-K} = (-1)^K J_K and J_K(-z) = (-1)^K J_K(z), and for
    # odd m exactly one of the order and the argument is negative
    J = np.where(K % 2 == 0, 1.0, -1.0) * jv(K, np.abs(ms) * delta * abs(S))
    terms = np.exp(2j * math.pi * ms * const) * J * np.exp(-1j * ms * n * np.angle(S))
    return complex(np.sum(w * terms))


def check_rotation(d: str, p: dict, rc: int, stderr: str) -> None:
    rows = read_csv_table(os.path.join(d, p["out"]), p["nmax"])
    alpha = alpha_value(p["alpha"])
    err = 8.0 / (math.pi**2 * p["M"])
    expect(rows[0][1:] == (1.0, "exact", 0.0), "rotation n=0 row is not (1, exact, 0)")
    for n, v, method, e in rows[1:]:
        expect(method == "quadrature", f"rotation n={n}: method {method}")
        close(e, err, 1e-15, f"rotation n={n} error bar")
        ref = rotation_reference(alpha, p["delta"], n, p["M"])
        close(abs(v - ref), 0.0, 1e-7, f"rotation n={n} vs Jacobi-Anger")


def nil_n1_reference(alpha: float, beta: float, gamma: float, M: int) -> complex:
    ms, w = square_wave(M)
    num = np.exp(2j * math.pi * ms * gamma) * (np.exp(2j * math.pi * ms * alpha * (1.0 - beta)) - 1.0)
    return complex(np.sum(w * num / (2j * math.pi * ms * alpha)))


def check_nil(d: str, p: dict, rc: int, stderr: str) -> None:
    rows = read_csv_table(os.path.join(d, p["out"]), p["nmax"])
    err = 8.0 / (math.pi**2 * p["M"])
    expect(rows[0][1] == 1.0 and rows[0][3] == 0.0, "nil n=0 row is not (1, error 0)")
    ref = nil_n1_reference(alpha_value(p["alpha"]), p["beta"], p["gamma"], p["M"])
    n, v, method, e = rows[1]
    close(abs(v - ref), 0.0, 1e-12, "nil n=1 vs series")
    expect(method == "series", f"nil n=1: method {method}")
    for n, v, method, e in rows[1:]:
        close(e, err, 1e-15, f"nil n={n} error bar")
        if n >= 2:
            expect(v == 0 and method == "exact", f"nil n={n} is {v!r} ({method}), not exactly 0")


def odometer_reference(phi: list[int], nmax: int) -> np.ndarray:
    """Average of (-1)^{phi(v) + ... + phi(v+n-1)} over all cylinders v, stepping
    every cylinder forward one odometer move at a time."""
    m = len(phi)
    ph = np.asarray(phi, dtype=np.uint8)
    v = np.arange(m)
    parity = np.zeros(m, dtype=np.uint8)
    out = np.empty(nmax + 1)
    for n in range(nmax + 1):
        out[n] = 1.0 - 2.0 * float(np.count_nonzero(parity)) / m
        parity ^= ph[v]
        v = (v + 1) % m
    return out


def check_odometer(d: str, p: dict, rc: int, stderr: str) -> None:
    rows = read_csv_table(os.path.join(d, p["out"]), p["nmax"])
    ref = odometer_reference([int(x) for x in p["phi"].split(",")], p["nmax"])
    for n, v, method, e in rows:
        expect(method == "exact" and e == 0.0, f"odometer n={n}: method {method}, error {e}")
        close(abs(v - ref[n]), 0.0, 1e-12, f"odometer n={n} vs cylinder average")


def rudin_shapiro_signs(L: int) -> np.ndarray:
    """RS(k) = (-1)^(number of adjacent 11 pairs in the binary digits of k)."""
    k = np.arange(L, dtype=np.int64)
    pairs = np.zeros(L, dtype=np.int64)
    for b in range(int(L).bit_length()):
        pairs += ((k >> b) & 1) & ((k >> (b + 1)) & 1)
    return np.where(pairs % 2 == 0, 1.0, -1.0)


def check_rudin_shapiro(d: str, p: dict, rc: int, stderr: str) -> None:
    L, nmax = p["L"], p["nmax"]
    rows = read_csv_table(os.path.join(d, p["out"]), nmax)
    bound = 5.0 / math.sqrt(L)
    expect(rows[0][1] == 1.0, "Rudin-Shapiro c(0) != 1")
    s = rudin_shapiro_signs(L)
    size = 1 << (L + nmax).bit_length()
    f = np.fft.rfft(s, size)
    ac = np.fft.irfft(f * np.conj(f), size)[: nmax + 1]
    for n, v, method, e in rows:
        expect(method == "empirical", f"Rudin-Shapiro n={n}: method {method}")
        close(e, bound, 1e-18, f"Rudin-Shapiro n={n} error bar")
        if n:
            expect(abs(v) <= bound, f"Rudin-Shapiro |c({n})| = {abs(v)!r} > 5/sqrt(L)")
            close(v.real, ac[n] / (L - n), 1e-9, f"Rudin-Shapiro c({n}) vs FFT autocorrelation")


def check_distal(d: str, p: dict, rc: int, stderr: str) -> None:
    for n, v, method, e in read_csv_table(os.path.join(d, p["out"]), p["nmax"]):
        expect(v == 0 and method == "exact" and e == 0.0, f"distal n={n} is {v!r}, not exactly 0")


# ---------------------------------------------------------------------------
# funny-word search, Monte Carlo, name batches


def check_funny(d: str, p: dict, rc: int, stderr: str) -> None:
    path = os.path.join(d, p["out"])
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckFailed(f"funny output unreadable ({exc})") from exc
    expect(text.endswith("\n"), "funny output truncated (no final newline)")
    try:
        rows = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        raise CheckFailed(f"funny output is not JSON lines ({exc})") from exc
    k, horizon, samples = p["k"], p["horizon"], p["samples"]
    n_prog = sum(1 for step in (1, 2, 3, 5, 8) if (k - 1) * step < horizon)
    expect(3 * n_prog <= len(rows) <= 3 * n_prog + p["n_random"],
           f"funny: {len(rows)} candidate rows, want {3 * n_prog}..{3 * n_prog + p['n_random']}")
    bound = non_at_bound(p["eps"])
    exceeded = False
    for row in rows:
        lam, word = row["lambda"], row["word"]
        expect(row["caveat"] == SEARCH_CAVEAT, "funny row lacks the search caveat")
        close(row["bound"], bound, EPS0_TOL, "funny bound vs non_at_bound(eps)")
        expect(len(lam) == k and lam == sorted(set(lam)) and 0 <= lam[0] and lam[-1] < horizon,
               "funny lambda is not an increasing k-subset of [0, horizon)")
        expect(len(word) == k and set(word) <= {0, 1}, "funny word is not a 0/1 word of length k")
        mass = row["mass_below"]
        expect(0.0 <= mass <= 1.0, "funny mass outside [0, 1]")
        close(row["k_times_mass"], k * mass, 1e-12, "funny k * mass")
        close(row["stderr"], math.sqrt(max(mass * (1.0 - mass), 1.0 / samples) / samples),
              1e-15, "funny stderr")
        exceeded |= row["k_times_mass"] > row["bound"] + 4.0 * k * row["stderr"]
    noted = VIOLATION_NOTE in stderr
    expect(noted == exceeded, "violation note disagrees with the reported rows")
    expect(exceeded == p["violates"],
           f"funny {p['system']}: bound {'exceeded' if exceeded else 'respected'}, "
           "expected the opposite")


def check_monte_carlo(d: str, p: dict, rc: int, stderr: str) -> None:
    rep = read_json(os.path.join(d, p["out"]))
    a = math.asin(p["r"])
    formula = 0.25 + (a / (2.0 * math.pi) if p["level"] == 1 else 4.0 * a**4 / math.pi**4)
    close(rep["formula_value"], formula, 1e-15, "Monte Carlo closed form")
    expect(rep["samples"] == p["samples"] and rep["seed"] == p["seed"],
           "Monte Carlo report echoes the wrong samples or seed")
    est = rep["estimate"]
    se = math.sqrt(max(est * (1.0 - est), 1e-300) / p["samples"])
    close(rep["stderr"], se, 1e-15, "Monte Carlo standard error")
    close(rep["z_score"], (est - formula) / se, 1e-9, "Monte Carlo z score")
    expect(abs(rep["z_score"]) <= 4.0, f"Monte Carlo |z| = {abs(rep['z_score']):.2f} > 4")


def check_names(d: str, p: dict, rc: int, stderr: str) -> None:
    table = {"out": p["out"], "nmax": p["nmax"], "alpha": p["alpha"], "beta": 0.7,
             "gamma": 0.0, "M": 201}
    (check_nil if p["system"] == "nil" else check_distal)(d, table, rc, stderr)
    path = os.path.join(d, p["names"])
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckFailed(f"name batch unreadable ({exc})") from exc
    expect(raw[:4] == b"ATNB" and len(raw) >= 20, "name batch has a bad header")
    count, length = struct.unpack("<QQ", raw[4:20])
    expect((count, length) == (p["count"], p["length"]),
           f"name batch shape {(count, length)}, want {(p['count'], p['length'])}")
    row = (length + 7) // 8
    expect(len(raw) == 20 + count * row, "name batch size does not match its shape")
    bits = np.unpackbits(np.frombuffer(raw[20:], dtype=np.uint8).reshape(count, row), axis=1)
    ones = float(np.mean(bits[:, :length]))
    expect(0.4 < ones < 0.6, f"name batch has {ones:.3f} ones, not about half")


CHECKS = {
    "sqrt_table": check_sqrt_table,
    "arcsine_table": check_arcsine_table,
    "riesz_table": check_riesz_table,
    "certify": check_certify,
    "certify_scan": check_certify_scan,
    "gaussian_cocycle": check_gaussian_cocycle,
    "gaussian_constants": check_gaussian_constants,
    "rotation": check_rotation,
    "nil": check_nil,
    "odometer": check_odometer,
    "rudin_shapiro": check_rudin_shapiro,
    "distal": check_distal,
    "funny": check_funny,
    "monte_carlo": check_monte_carlo,
    "names": check_names,
}


def check(name: str, workdir: str, params: dict, rc: int, stderr: str) -> None:
    CHECKS[name](workdir, params, rc, stderr)
