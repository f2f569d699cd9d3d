"""
Cross-checking the closed forms with an independent search
==========================================================

The closed-form factorizer and the feasibility bound come from the same
piece of algebra, so the package also ships an independent route: a
search over all pairs of real symmetric 2x2 positive contractions

    A = R(theta_a) diag(s_a, t_a) R(theta_a)^T,
    B = R(theta_b) diag(s_b, t_b) R(theta_b)^T,

minimizing ||A @ B - [[a, z], [0, b]]||_F.  A full parameter grid picks
32 starts, and one batched Levenberg-Marquardt refinement, with the
eigenvalues kept in [0, 1], polishes them all at once.  Feasible targets,
z equal to the bound included, reach a residual of order 1e-11 or less,
where the refinement stops; infeasible ones bottom out at a clearly
positive floor.  Neither route consults the other, so their agreement is
evidence that the bound is right, and sharp.
"""

import numpy as np

from quadfactor import feasibility_bound, oracle_2x2

a, b = 0.36, 0.64
bound = feasibility_bound(a, b)
print("a = %.2f, b = %.2f, bound = %.6f" % (a, b, bound))
print()

print("%-28s %-14s %s" % ("coupling z", "best residual", "verdict by bound"))
for z in (0.0, 0.5 * bound, 0.09, bound, 0.105, 0.12):
    probe = oracle_2x2(a, b, z, budget=10**6)
    verdict = "feasible" if z <= bound else "infeasible"
    print("%-28s %-14.3e %s"
          % ("z = %.6f" % z, probe.best_residual, verdict))
print()

# reassemble the best pair found for the infeasible coupling: even the
# optimal positive contractions miss the target by a visible margin
probe = oracle_2x2(a, b, 0.12, budget=10**6)
th_a, s_a, t_a, th_b, s_b, t_b = probe.parameters


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


best_a = rotation(th_a) @ np.diag([s_a, t_a]) @ rotation(th_a).T
best_b = rotation(th_b) @ np.diag([s_b, t_b]) @ rotation(th_b).T
product = best_a @ best_b
print("closest product to [[0.36, 0.12], [0, 0.64]]:")
print(np.round(product, 6))
print("off-target entries: (1,2) misses by %+.2e, (2,1) leaks %+.2e"
      % (product[0, 1] - 0.12, product[1, 0]))
print("search evaluations: %d" % probe.evaluations)
