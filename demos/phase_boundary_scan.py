"""
Scanning the existence boundary
===============================

Trace the inverse-temperature threshold beta*(d) above which the
contraction certificate holds, then recover the height period of a
gradient measure from nothing but a sampled increment path.
"""

import numpy as np

from treegibbs import (
    beta_threshold,
    fuzzy_Q,
    fuzzy_chain,
    increment_laws,
    norm_membership,
    norm_pair,
    periodic_solve,
    recover_period,
    sample_path,
    sos,
)

# beta*(d) falls roughly like log(d)/d for the SOS family: deeper trees
# average more neighbours, so weaker coupling already localizes.
print("degree   beta*")
for d in (2, 3, 6, 10, 30, 100):
    print(f"{d:6d}   {beta_threshold('sos', d, tol=1e-7):.6f}")

# Membership is a two-inequality check on the norm pair (gamma, delta);
# norm_membership takes the pair as norm_pair certifies it.
pot = sos(2.2)
for d in (2, 3, 4):
    v = norm_membership(d, *norm_pair(pot, d))
    print(f"d = {d}: gamma = {v.gamma:.4f}, delta = {v.delta:.4f}, "
          f"in good set: {v.in_good_set} ({v.reason})")

# Blind identification: sample a 2-periodic gradient measure and ask which
# height periods are consistent with the path.
pot = sos(2.0)
law, _ = periodic_solve(pot, 2, 2)
fc = fuzzy_chain(law, fuzzy_Q(pot, 2))
laws = increment_laws(pot, 2)
increments, _ = sample_path((fc, laws), 100_000, seed=20260814)
reports = recover_period(increments, [1, 2, 3, 4], 2, pot)
for r in reports:
    print(f"q = {r.q_tested}: verdict {r.verdict}, residual "
          f"{r.residual:.2e}, empirical {np.round(r.empirical, 4)}")
print(f"minimal height period: {reports[0].minimal_period}")
