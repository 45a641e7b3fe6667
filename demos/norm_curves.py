"""
Estimating constrained norms and exporting the curve
====================================================

For a group-ring element a and a level mu, the constrained norm is the
largest operator norm ||a(U, V)|| over unitary pairs with
||U + U* + V + V*|| <= mu.  The estimator runs subgradient ascent over
pairs of several sizes and keeps the best certified value.
"""

from constrep import (
    OptimizerConfig,
    averaging_element,
    estimate_norm,
    norm_curve,
    one_dim_oracle,
    parse_element,
    export_csv,
    render_svg,
    upper_bound,
)
from constrep.verify import averaging_curve_residuals

# A compact configuration keeps this demo quick; drop the overrides to run
# the defaults (more restarts, larger matrices, tighter results).
config = OptimizerConfig(dims=(1, 2, 4), restarts=4, max_steps=150, seed=0)

# The generator sum x = u + u^-1 + v + v^-1 saturates its own constraint:
# its norm at level mu equals mu across the whole range.
x = averaging_element()
print("element:", "u + u^-1 + v + v^-1")
# Each estimate is a bracket: a lower bound attained by a witness pair and
# a certified upper bound.  The bound needs no search: upper_bound(x, mu) is
# the estimate's ``upper`` (here max |s| over |s| <= mu, since x is radial).
print("\n  mu    estimate      upper bound   commuting-pair oracle")
for mu in (0.5, 1.5, 2.5, 3.5):
    result = estimate_norm(x, mu, config)
    oracle = one_dim_oracle(x, mu)
    print("%4.1f   %.9f   %.9f   %.9f" % (mu, result.value, upper_bound(x, mu), oracle))

# Each estimate carries its maximizing pair, the size that won, and how
# many ascent steps it took.
result = estimate_norm(x, 2.0, config)
print(
    "\nwitness: dim=%d restart=%d steps=%d converged=%s"
    % (result.dim_used, result.restart_index, result.steps, result.converged)
)

# A full curve sweeps the grid once, reusing each level's witnesses as
# warm starts for the next.  The curve's residuals measure how far it
# falls from the line value = mu and whether it ever decreases.
grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
curve = norm_curve(x, grid, config)
deviation, decrease, increment = averaging_curve_residuals(curve)
print("\ncurve values:", ["%.4f" % v for v in curve.values])
print("monotone:", decrease == 0.0)
print("max increment:", "%.4f" % increment)
print("max deviation from the line:", "%.2e" % deviation)

# Curves serialize to CSV (round-trippable) and to a simple SVG plot.
export_csv(curve, "averaging_curve.csv")
render_svg(curve, "averaging_curve.svg")
print("\nwrote averaging_curve.csv and averaging_curve.svg")

# Any parseable element works; here a short non-symmetric combination.
a = parse_element("2*u - v + u*v")
result = estimate_norm(a, 1.0, config)
print("norm estimate for 2*u - v + u*v at mu=1:", "%.6f" % result.value)
