"""Stationary Gaussian sampling and the arcsine orthant laws.

Run:  python3 demos/demo_gaussian_arcsine.py
"""

import math

import numpy as np

from atlab import fourier, gaussian

spec = gaussian.exponential_spec(0.5, 8)
samples = 200_000

print("orthant probabilities for r(1) = 0.5, 2e5 samples each")
rep = gaussian.product_orthant_mc(spec, 1, 1, samples, seed=0)
print(f"  P(X0>0, X1>0)  mc {rep.estimate:.5f}  formula {rep.formula_value:.5f}"
      f"  (1/4 + arcsin(r)/2pi, here exactly 1/3)")
rep = gaussian.product_orthant_mc(spec, 1, 2, samples, seed=1)
print(f"  2-fold product mc {rep.estimate:.5f}  formula {rep.formula_value:.5f}")
rep = gaussian.product_orthant_mc(spec, 1, 4, samples, seed=2)
print(f"  4-fold product mc {rep.estimate:.5f}  formula {rep.formula_value:.5f}")
print()

# the sign process of a Gaussian path has correlations (2/pi) arcsin(r(n));
# check the transform against a direct simulation
x = gaussian.sample_path(spec, 9, samples, seed=3)
s = np.where(x > 0, 1.0, -1.0)
expected = fourier.arcsine_transform(spec.to_fourier_table())
print("sign-process correlations vs (2/pi) arcsin(r(n)):")
for n in (1, 2, 3):
    emp = float(np.mean(s[:, :-n] * s[:, n:]))
    print(f"  n={n}: empirical {emp:+.5f}  transform {expected.at(n).real:+.5f}")
print()

# the constant chain behind the fourth-power construction
rep = gaussian.gnoat_constant_check()
print(f"constant c = {rep.c:.6f}")
print(f"fourth-power series {rep.series_value:.6f} "
      f"<= zeta bound {rep.zeta_bound:.6f} <= budget {rep.budget:.6f}")
print(f"chain holds with margin {rep.margin:.6f}")
