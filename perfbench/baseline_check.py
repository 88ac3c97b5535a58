"""Cross-check the ROADMAP baseline figures and the known certify gap.

Usage (from the repository root): python3 perfbench/baseline_check.py

Times the four reference measurements ROADMAP.md quotes, at ROADMAP's sizes
(which are larger than the benchmark's), and prints each beside the quoted
figure, marking those more than 25% away. Then runs the two certify calls of
the known gap: ``certify`` clamps k to 12 and the window to 24, where the
exhaustive search exceeds its budget, so a wide ``--k 10`` and any
``--k 32`` (the heuristic's size) exit 2.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
CLI = [sys.executable, "-m", "atlab.cli"]


def cli_seconds(args: list[str], cwd: str, repeat: int = 1) -> tuple[float, int]:
    times, code = [], 0
    for _ in range(repeat):
        t0 = perf_counter()
        code = subprocess.run(CLI + args, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        times.append(perf_counter() - t0)
    return statistics.median(times), code


def in_process(code: str) -> float:
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                         check=True)
    return float(out.stdout.strip())


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "atlab", "cli.py")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".baseline-") as d:
        rows = [
            ("density_sup, N=4096", 4.8, in_process(
                "from time import perf_counter as p; from atlab import fourier as f\n"
                "t = f.sqrt_template(0.3, 4096); s = p(); f.density_sup(t, 4 * 4096 + 4)\n"
                "print(p() - s)")),
            ("system rotation --nmax 32", 4.3,
             cli_seconds(["system", "rotation", "--nmax", "32", "--out", "r.csv"], d)[0]),
            ("is_positive_definite, k=2048", 1.9, in_process(
                "from time import perf_counter as p; from atlab import fourier as f\n"
                "t = f.sqrt_template(0.3, 4096); s = p(); f.is_positive_definite(t, 2048)\n"
                "print(p() - s)")),
            ("trivial CLI call (measure lebesgue --N 8)", 0.5,
             cli_seconds(["measure", "lebesgue", "--N", "8", "--out", "l.json"], d, 5)[0]),
        ]
        print(f"{'measurement':<44} {'ROADMAP s':>9} {'here s':>8}  note")
        for name, quoted, here in rows:
            note = "differs by more than 25%" if abs(here / quoted - 1.0) > 0.25 else ""
            print(f"{name:<44} {quoted:9.2f} {here:8.3f}  {note}")
        cli_seconds(["measure", "sqrt", "--N", "256", "--out", "t.json"], d)
        for args in (["--k", "10", "--window", "24"], ["--k", "32", "--window", "64",
                                                        "--budget", "100"]):
            _, code = cli_seconds(["certify", "--in", "t.json", *args], d)
            print(f"known gap: certify {' '.join(args)} exits {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
