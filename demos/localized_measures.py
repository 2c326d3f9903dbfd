"""
Localized Gibbs measures at strong coupling
===========================================

Solve the boundary-law fixed point for the SOS interaction at beta = 2.5 on
the 2-regular tree, inspect the certificate, and watch the increment
distribution along a path settle into its limit profile.
"""

import numpy as np

from treegibbs import (
    localization_bounds,
    norm_pair,
    single_site_marginal,
    solve_fixed_point,
    sos,
    wn_localized_exact,
)

pot = sos(2.5)
d = 2

# The solver runs a certified contraction iteration: the returned report
# names the certificate and carries one bound, total_error_bound, on the
# distance of the returned law from the fixed point.
law, report = solve_fixed_point(pot, d)
print(f"converged in {report.iterations} iterations, "
      f"residual {report.final_residual:.3e}")
print(f"contraction observed {report.contraction_estimate:.4f} "
      f"<= L = {report.lipschitz:.4f}")
print(f"certified: {report.certified}")

# The single-site marginal concentrates at the localization center.
mu = single_site_marginal(law)
for i in range(-3, 4):
    k = list(law.indices).index(i)
    print(f"  mu({i:+d}) = {mu[k]:.3e}")

# Off-center mass is sandwiched by the good-set constants alone.
g, dl = norm_pair(pot, d)
lo, hi = localization_bounds(g.value, dl.value, d)
ratio = law.offzero_norm() ** (d + 1)
print(f"off-center mass {ratio:.6e} within [{lo:.3e}, {hi:.3e}]")

# Along a path of n edges the total increment W_n stays tight: its law
# converges to the autocorrelation of the height marginal instead of
# flattening out.
for n in (1, 4, 16, 64):
    dist = wn_localized_exact(law, n)
    gap = np.max(np.abs(dist.law - dist.limit))
    print(f"n = {n:3d}: P(W_n = 0) = {dist.prob_at(0):.6f}, "
          f"distance to limit {gap:.3e}")
