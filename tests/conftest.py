"""Prints one PASS/FAIL line per acceptance criterion after the run, and holds
the exact-rational reference for `certify`'s verdicts that the SBH and CLI
tests replay reports against."""

import types
from fractions import Fraction

import pytest


def _eps0_cubic(t):
    return 2 * (1 - t) * (1 - 2 * t) ** 2 - 1 - t


def _above_eps0(x: Fraction) -> bool:
    # the cubic decreases on [0, 1/2) and changes sign once, at eps0, in (0, 0.2);
    # below 0 it is positive and past 1/2 negative
    return _eps0_cubic(x) < 0


def _exact_form(t, indices, signs) -> Fraction:
    """(1/k) sum_{i,j} (-1)^{eta_i + eta_j} Re c(n_i - n_j), in Fraction."""
    s = [(-1) ** e for e in signs]
    return sum(a * b * Fraction(t.at(n - m).real)
               for n, a in zip(indices, s) for m, b in zip(indices, s)) / len(indices)


def _exact_clears(t, indices, signs) -> bool:
    """The form of a witness less ((k - 1)/k) tail_bound exceeds 1 + eps0, in Fraction."""
    k = len(indices)
    return _above_eps0(_exact_form(t, indices, signs) - Fraction(k - 1, k) * Fraction(t.tail_bound)
                       - 1)


def _exact_verdict(t, rep) -> str:
    """The verdict that a `certify` report's table and witnesses give in Fraction:
    SBH when the l1 sum with its stated rounding, or the density certificate
    less 1, lies below eps0; else NOT_SBH when a witness clears 1 + eps0."""
    from atlab import fourier
    l1 = Fraction(fourier.l1_tail(t)) * (1 + Fraction(t.half_width + 2, 2**52))
    if not (_above_eps0(l1) and _above_eps0(Fraction(rep.density_certificate) - 1)):
        return "CERTIFIED_SBH"
    for w in (rep.exhaustive_witness, rep.heuristic_witness):
        if w is not None and _exact_clears(t, w["indices"], w["signs"]):
            return "CERTIFIED_NOT_SBH"
    return "UNDECIDED"


def _eps0_bisected(bits: int = 80) -> Fraction:
    """A rational within 2^-bits below eps0."""
    lo, hi = Fraction(0), Fraction(1, 5)
    for _ in range(bits):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _above_eps0(mid) else (mid, hi)
    return lo


@pytest.fixture(scope="session")
def exact():
    """The exact-rational reference: ``cubic``, ``form``, ``clears``, ``verdict``,
    ``eps0``."""
    return types.SimpleNamespace(cubic=_eps0_cubic, form=_exact_form, clears=_exact_clears,
                                 verdict=_exact_verdict, eps0=_eps0_bisected())

_CRITERIA = {
    "test_criterion_01_epsilon0": "epsilon0 root: residual <= 1e-12, value in (0.106, 0.107)",
    "test_criterion_02_lebesgue_identities": "Lebesgue identities: exhaustive sup = 1, theta L2 = 1/k",
    "test_criterion_03_rudin_shapiro": "Rudin-Shapiro: |c(n)| <= 5/sqrt(2^20), oracle match below 2^16",
    "test_criterion_04_arcsine_laws": "arcsine orthant laws within 4 standard errors at 10^6 samples",
    "test_criterion_05_nil_rotation": "nil-rotation: exact vanishing, series vs quadrature <= 1e-4",
    "test_criterion_06_distal_integral": "distal rows: exact 0 for n <= 100",
    "test_criterion_07_ac_cocycle_decay": "AC cocycle: |c(n)| n below the analytic constant, n <= 32",
    "test_criterion_08_gaussian_cocycle": "Gaussian cocycle: Var >= n; white-noise table certifies",
    "test_criterion_09_constant_chain": "constant chain margin > 0; fourth-power pipeline certifies",
    "test_criterion_10_funny_word_bound": "funny-word bound respected; degenerate fixture flagged",
    "test_criterion_11_determinism": "byte-identical reports for identical seeds",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = rep.nodeid.split("::")[-1]
            if name in _CRITERIA:
                results[name] = "PASS" if outcome == "passed" else "FAIL"
    if not results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for i, (name, desc) in enumerate(_CRITERIA.items(), start=1):
        status = results.get(name, "NOT RUN")
        tw.write_line(f"criterion {i:2d}: {status} - {desc}")
