"""
Deforming unitary pairs to shrink the generator sum
===================================================

A pair of unitaries (U, V) has a constraint value ||U + U* + V + V*|| in
[0, 4].  A spectral deformation scales that value by exactly (1 - t) while
each deformed matrix stays unitary and commutes with the original.
"""

import numpy as np

from constrep import (
    constraint_value,
    deform,
    random_constrained,
    retract_to,
    unitarity_defect,
    zero_constrained_from,
    random_unitary,
)

# Start from a pseudorandom unconstrained pair (mu = 4 allows everything).
rep = random_constrained(dim=6, mu=4.0, seed=11)
base = constraint_value(rep)
print("initial constraint value: %.6f" % base)

# Walk the deformation parameter and watch the exact linear scaling.
print("\n   t    constraint   (1-t)*base   |difference|")
for t in np.linspace(0.0, 1.0, 6):
    moved = deform(rep, float(t))
    value = constraint_value(moved)
    print(
        "%5.2f   %10.6f   %10.6f   %.3e"
        % (t, value, (1.0 - t) * base, abs(value - (1.0 - t) * base))
    )

# The deformed matrices remain unitary and commute with the originals.
moved = deform(rep, 0.4)
print("\nunitarity defect of deformed U:", unitarity_defect(moved.u))
print("commutator with original U:    ", np.max(np.abs(moved.u @ rep.u - rep.u @ moved.u)))

# retract_to picks the deformation parameter that lands exactly on a target
# constraint level (and returns the pair unchanged when already feasible).
for mu in (3.0, 1.5, 0.0):
    pulled = retract_to(rep, mu)
    print("retracted to mu=%.1f -> constraint %.12f" % (mu, constraint_value(pulled)))

feasible = retract_to(rep, 4.0)
print("already feasible at mu=4, same object returned:", feasible is rep)

# At the bottom of the range, a direct constructor builds a partner V for
# any unitary U so that U + U* + V + V* vanishes identically: V = fold(U),
# the circle function z -> -Re z + i|Im z| applied to U's eigenvalues.
u = random_unitary(5, seed=2)
zero_rep = zero_constrained_from(u)
total = zero_rep.u + zero_rep.u.conj().T + zero_rep.v + zero_rep.v.conj().T
print("\nzero-constraint constructor residual:", np.max(np.abs(total)))
