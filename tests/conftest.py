"""Prints one PASS/FAIL line per acceptance criterion after the run."""

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
