"""Correlation decay for the rotation cocycle, nil-rotation, and distal systems.

Run:  python3 demos/demo_cocycles.py
"""

import numpy as np

from atlab import sbh, systems

alpha = systems.SQRT2_M1
delta, delta0 = 0.1, 0.5

C = systems.ac_cocycle_analytic_constant(delta, delta0)
print(f"rotation cocycle, delta = {delta}: analytic constant C = {C:.4f}")
print("  n   |c(n)|      |c(n)|*n")
cs = systems.rotation_ac_cocycle_correlations(alpha, delta, delta0, 32)
for n in (1, 2, 4, 8, 16, 32):
    v = abs(cs[n])
    print(f"  {n:3d} {v:.6f}   {v * n:.6f}")
print("the product |c(n)|*n stays below C: the promised O(1/n) decay")
print()

t = systems.ac_cocycle_table(alpha, delta, delta0, 8, M=21)
rep = sbh.certify(t)
print(f"certify(ac cocycle table): {rep.verdict} "
      f"(density certificate {rep.density_certificate:.4f})")
print()

print("nil-rotation, beta = 0.7 (2*beta > 1 kills everything past n = 1):")
nil = systems.nil_rotation_correlations(alpha, 0.7, 0.0, 5)
for n in range(1, 6):
    print(f"  n={n}: {nil[n]:.6g}")
series = systems.nil_rotation_n1_series(alpha, 0.7, 0.0)
print(f"  n=1 closed-form series: {series:.6g}  (matches the piecewise value)")
print()

print("distal extension: the fiber integral vanishes identically")
values, _, _ = systems.DistalSource(alpha).table(5)
print("  n = 1..5:", [complex(v) for v in values[1:]])
