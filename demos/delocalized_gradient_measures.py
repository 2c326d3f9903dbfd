"""
Delocalized gradient measures from periodic boundary laws
=========================================================

Build the 2-periodic boundary law for the SOS interaction at beta = 2 on the
2-regular tree, assemble the induced chain on height classes, and watch the
path increment W_n spread out, the signature of a gradient Gibbs measure
with no localized counterpart at the same height period.
"""

import numpy as np

from treegibbs import (
    fuzzy_Q,
    fuzzy_chain,
    increment_laws,
    periodic_solve,
    sample_path,
    sos,
    wn_ggm_exact,
)

pot = sos(2.0)
d, q = 2, 2

# The periodic solver looks for a non-constant law on Z_q; at beta = 2 the
# two-class quadratic has a real root and the iteration certifies it.
law, report = periodic_solve(pot, d, q)
print(f"lambda over classes: {np.round(law.lam, 6)}, "
      f"residual {report.final_residual:.2e}")

# The two-layer construction: a stationary chain on classes plus an
# increment law per class difference.
fc = fuzzy_chain(law, fuzzy_Q(pot, q))
laws = increment_laws(pot, q)
print(f"stationary class weights alpha = {np.round(fc.alpha, 6)}")
print(f"kernel P = {np.round(fc.P, 4).tolist()}")

# W_n flattens: the sup of its law decays, where the localized measure
# above kept it bounded away from zero.
for n in (1, 8, 64, 256):
    dist = wn_ggm_exact(fc, laws, n)
    print(f"n = {n:3d}: sup_k P(W_n = k) = {dist.sup():.5f}")

# The free state (q = 1) makes increments i.i.d., so the sup halves when n
# quadruples, the local central limit scaling.
fc1 = fuzzy_chain(periodic_solve(pot, d, 1)[0], fuzzy_Q(pot, 1))
laws1 = increment_laws(pot, 1)
s64 = wn_ggm_exact(fc1, laws1, 64).sup()
s256 = wn_ggm_exact(fc1, laws1, 256).sup()
print(f"free state: sup at n=256 over n=64 = {s256 / s64:.4f} (expect ~1/2)")

# Sampled paths reproduce the class statistics.
increments, classes = sample_path((fc, laws), 5000, seed=7)
freq = np.bincount(classes % q, minlength=q) / len(classes)
print(f"sampled class frequencies {np.round(freq, 4)} vs alpha "
      f"{np.round(fc.alpha, 4)}")
