"""Rudin-Shapiro correlations and the funny-word probe.

Run:  python3 demos/demo_rudin_shapiro.py
"""

import math

import numpy as np

from atlab import funny, systems

signs = systems.rudin_shapiro_names(16)
print("first 16 signs:", " ".join("+" if s > 0 else "-" for s in signs))

# exact integer lag sums from r(2i) = r(i), r(2i+1) = (-1)^i r(i), without
# building the signs
for L in (2**20, 2**40, 2**62 - 1):
    sums = systems.rudin_shapiro_lag_sums(L, 32)
    c = sums / (L - np.arange(33))
    tol = 5.0 / math.sqrt(L)
    print(f"L = {L}: max |lag sum| over n = 1..32 is {np.max(np.abs(sums[1:]))}, "
          f"max |c(n)| = {np.max(np.abs(c[1:])):.2e}  (tolerance {tol:.2e})")
print("the empirical spectral measure looks exactly like Lebesgue, as the")
print("fiber component of the extension has Lebesgue spectrum")
print()

# the funny-word probe: search index sets and majority words, compare
# |Lambda| * mu{dbar < eps} against the non-AT mass bound
eps = 0.1
bound = funny.non_at_bound(eps)
print(f"non-AT bound at eps = {eps}: {bound:.4f}")
src = systems.RudinShapiroSource()
fam = funny.LambdaFamily(k=32, horizon=256)
rep = funny.funny_word_search(src, fam, epsilon=eps, samples=5000, seed=0)
print(f"searched {len(rep.rows)} candidate index sets, best score "
      f"{rep.best.k_times_mass:.4f}")
print("violations:", len(rep.violations()))
print("caveat:", rep.caveat)
print()

# a degenerate fixture shows the probe has teeth: constant names put half
# the mass at Hamming distance 0, so the score grows like k/2
rep = funny.funny_word_search(systems.ConstantSource(), fam,
                              epsilon=eps, samples=5000, seed=0)
print(f"degenerate constant-name source: best score {rep.best.k_times_mass:.1f}"
      f" (bound {bound:.4f}), flagged rows: {len(rep.violations())}")
