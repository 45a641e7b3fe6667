"""
Ball norms on the 4-regular tree and the 2*sqrt(3) benchmark
============================================================

The Cayley graph of the free group on two generators is a 4-regular tree.
Truncating it to a ball of radius R gives a finite adjacency matrix whose
operator norm increases with R and converges to 2*sqrt(3), the norm of the
averaging element in the regular representation.  The same number is the
upper edge of the constrained-norm curve's unconstrained limit.

The top eigenvector of a ball is radial, so its norm is the top eigenvalue
of an (R+1) x (R+1) Jacobi matrix, which is 2*sqrt(3)*cos(theta) for the
root theta of a secular equation: one scalar root per radius, at any radius.
The full adjacency matrix is built only for small radii, as a cross-check.
"""

import numpy as np

from constrep import (
    KESTEN_NORM,
    OptimizerConfig,
    averaging_element,
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


def dense_ball(depth):
    """Full adjacency matrix in breadth-first order: the root's children are
    1..4, and every other vertex p has the three children 3p + 2 .. 3p + 4."""
    n = ball_vertex_count(depth)
    child = np.arange(1, n)
    parent = np.where(child <= 4, 0, (child - 2) // 3)
    adjacency = np.zeros((n, n))
    adjacency[parent, child] = adjacency[child, parent] = 1.0
    return adjacency


# Cross-check on small balls: the dense eigensolver on the full adjacency.
worst = max(
    abs(np.linalg.eigvalsh(dense_ball(depth))[-1] - cayley_ball_norm(depth))
    for depth in range(1, 6)
)
print("\nfull adjacency vs secular equation, radius 1..5: max difference %.1e" % worst)

# Deep balls cost no more than shallow ones; the gap closes like sqrt(3) pi^2 / R^2.
for depth in (10**2, 10**3, 10**4, 10**5):
    gap = KESTEN_NORM - cayley_ball_norm(depth)
    print("radius %6d: gap * R^2 = %.6f" % (depth, gap * depth**2))
print("sqrt(3) * pi^2 = %.6f" % (np.sqrt(3.0) * np.pi**2))

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
