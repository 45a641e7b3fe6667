"""
Ball norms on the 4-regular tree and the 2*sqrt(3) benchmark
============================================================

The Cayley graph of the free group on two generators is a 4-regular tree.
Truncating it to a ball of radius R gives a finite adjacency matrix whose
operator norm increases with R and converges to 2*sqrt(3), the norm of the
averaging element in the regular representation.  The same number is the
upper edge of the constrained-norm curve's unconstrained limit.

The top eigenvector of a ball is radial, so its norm is the top eigenvalue
of an (R+1) x (R+1) Jacobi matrix; the full adjacency matrix is built only
for small radii, as a cross-check.
"""

import numpy as np

from constrep import (
    KESTEN_NORM,
    OptimizerConfig,
    averaging_element,
    cayley_ball,
    cayley_ball_norm,
    estimate_norm,
)
from constrep.bundle import ball_vertex_count

# Ball sizes grow geometrically: 2 * 3^R - 1 vertices at radius R.
print("radius  vertices   adjacency norm   gap to 2*sqrt(3)")
for depth in range(1, 11):
    norm = cayley_ball_norm(depth)
    print(
        "%6d  %8d   %.9f      %.6f"
        % (depth, ball_vertex_count(depth), norm, KESTEN_NORM - norm)
    )

# Cross-check on small balls: the dense eigensolver on the full adjacency.
worst = max(
    abs(np.linalg.eigvalsh(cayley_ball(depth).toarray())[-1] - cayley_ball_norm(depth))
    for depth in range(1, 6)
)
print("\nfull adjacency vs radial Jacobi matrix, radius 1..5: max difference %.1e" % worst)

print("\nreference value 2*sqrt(3) = %.9f" % KESTEN_NORM)

# Cross-check from a completely different computation: the constrained
# estimator at level mu = 2*sqrt(3) maximizes over finite unitary pairs and
# lands on the same number, since the averaging element's constrained norm
# equals its own level.
config = OptimizerConfig(dims=(1, 2, 4), restarts=4, max_steps=150, seed=0)
result = estimate_norm(averaging_element(), KESTEN_NORM, config)
print(
    "finite-pair estimate at mu = 2*sqrt(3): %.9f (difference %.2e)"
    % (result.value, abs(result.value - KESTEN_NORM))
)
