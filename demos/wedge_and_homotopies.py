"""
Circle-valued loops, winding numbers, and explicit homotopies
=============================================================

Three constructions around maps on the unit circle:

1. a fold that reflects the circle onto its upper half, giving loops with
   winding number zero;
2. generator images built from folded loops whose combined sum vanishes
   identically (so the averaging element dies in the image);
3. matrix homotopies joining a composed image to a split one through
   unitaries that never increase the constraint.
"""

import math

import numpy as np

from constrep import (
    character_at_i,
    circle_points,
    composed_images,
    constraint_value,
    homotopy_images,
    parse_element,
    random_constrained,
    split_endpoint_images,
    upper_fold,
    winding_number,
)
from constrep.verify import character_path_residuals, rotation_residuals, wedge_residuals

# --- winding numbers -------------------------------------------------------
n = 1024
points = circle_points(n)
print("winding of z:      ", winding_number(points))
print("winding of z^2:    ", winding_number(points**2))
print("winding of fold(z):", winding_number(upper_fold(points)))
print("fold fixes i exactly:", upper_fold(1j) == 1j)

# --- generator images that kill the averaging element ----------------------
basepoint, wedge_sum = wedge_residuals(n)
print("\nbasepoint residual:", basepoint)
print("sum residual of A + A* + B + B*:", wedge_sum)

# Substituting a finite pair for the two circles keeps the cancellation.
rep = random_constrained(dim=3, mu=2.5, seed=5)
comp_u, comp_v = composed_images(rep)
total = comp_u + comp_u.conj().T + comp_v + comp_v.conj().T
print("matrix substitution residual:", np.max(np.abs(total)))

# The scalar character sending both circles to i kills the averaging
# element as well; on arbitrary elements it sums fourth roots of unity.
print("character at i of u + u^-1 + v + v^-1:", character_at_i(parse_element("u + u^-1 + v + v^-1")))
print("character at i of u*v:", character_at_i(parse_element("u*v")))

# --- the rotation homotopy --------------------------------------------------
# homotopy_images(rep, t) joins the composed images (t = 0) to the split
# ones (t = pi/2) through unitaries.
start_u, start_v = homotopy_images(rep, 0.0)
end_u, end_v = homotopy_images(rep, math.pi / 2)
split_u, split_v = split_endpoint_images(rep)
print("\nendpoint residual at t=0:   ", np.max(np.abs(start_u - comp_u)))
print("endpoint residual at t=pi/2:", np.max(np.abs(end_v - split_v)))

# Along the way the generator-plus-adjoint sum obeys an exact sine law:
# ||sum at t|| = sin(t) * ||sum at pi/2||.
print("\n   t      sine-law residual")
for t in np.linspace(0.0, math.pi / 2, 5):
    sine, _ = rotation_residuals([rep], [t])
    print("%6.3f    %.3e" % (t, sine))

# --- character homotopies ---------------------------------------------------
# Three unitary paths connect the distinguished scalar characters without
# ever exceeding the starting constraint level.
paths = character_path_residuals([rep], grid_size=17)
print("\nbase constraint: %.6f" % constraint_value(rep))
for name, (unitarity, excess, endpoints, scaling) in paths.items():
    print(
        "%-10s unitarity %.2e  constraint excess %.2e  endpoints %.2e  scaling %.2e"
        % (name, unitarity, excess, endpoints, scaling)
    )
print("all paths pass at 1e-9:", max(map(max, paths.values())) <= 1e-9)
