"""Constrained unitary pairs and norm estimation for the rank-two free group.

The package studies pairs of unitary matrices (U, V) whose generator sum
U + U* + V + V* has operator norm at most a chosen constraint level in
[0, 4], the finite-dimensional models of constrained representations of
the free group on two generators. It provides:

* :mod:`constrep.freegroup` -- reduced words, group-ring elements, parsing
  and canonical printing;
* :mod:`constrep.linalg` -- the unitary eigendecomposition and the one
  functional calculus, circle functions of a unitary, with the operator
  norm and its top singular triple, all on LAPACK except at 1 x 1, which
  is read in scalar arithmetic, for matrices that the package built or
  validated;
* :mod:`constrep.representation` -- constrained pairs, evaluation of ring
  elements, the spectral deformation and exact retraction between
  constraint levels, and JSON persistence;
* :mod:`constrep.optimize` -- certified brackets for constrained norms:
  projected-ascent lower bounds with deterministic seeding and
  one-dimensional oracles, l1 and radial spectral upper bounds;
* :mod:`constrep.homotopy` -- sampled circle loops, winding numbers, the
  wedge construction whose images annihilate the averaging element, and
  the rotation/character homotopies with the closed forms of their
  scaling laws;
* :mod:`constrep.bundle` -- Cayley-tree ball benchmarks against the
  2*sqrt(3) tree norm, and CSV/SVG export of norm curves;
* :mod:`constrep.verify` -- one residual function per exact identity,
  and the named self-check suites behind ``constrep verify``.

Every size is capped where it enters; README's Limits section lists the caps.
"""

from .freegroup import (
    GroupRingElement,
    ParseError,
    Word,
    averaging_element,
    format_element,
    generator,
    parse_element,
    unit,
)
from .linalg import (
    NonUnitaryError,
    apply_circle_function,
    operator_norm,
    random_unitary,
    top_singular_triple,
    unitary_eig,
    unitarity_defect,
)
from .representation import (
    Representation,
    constraint_value,
    deform,
    deformation_function,
    evaluate,
    load_representation,
    random_constrained,
    retract_to,
    save_representation,
    zero_constrained_from,
)
from .optimize import (
    NormCurve,
    NormEstimate,
    OptimizerConfig,
    estimate_norm,
    norm_curve,
    one_dim_oracle,
    upper_bound,
)
from .homotopy import (
    character_at_i,
    character_path,
    circle_points,
    composed_images,
    homotopy_images,
    split_endpoint_images,
    upper_fold,
    upper_fold_matrix,
    wedge_samples,
    winding_number,
    winding_total,
)
from .bundle import (
    KESTEN_NORM,
    cayley_ball_norm,
    export_csv,
    render_svg,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # freegroup
    "GroupRingElement",
    "ParseError",
    "Word",
    "averaging_element",
    "format_element",
    "generator",
    "parse_element",
    "unit",
    # linalg
    "NonUnitaryError",
    "apply_circle_function",
    "operator_norm",
    "random_unitary",
    "top_singular_triple",
    "unitary_eig",
    "unitarity_defect",
    # representation
    "Representation",
    "constraint_value",
    "deform",
    "deformation_function",
    "evaluate",
    "load_representation",
    "random_constrained",
    "retract_to",
    "save_representation",
    "zero_constrained_from",
    # optimize
    "NormCurve",
    "NormEstimate",
    "OptimizerConfig",
    "estimate_norm",
    "norm_curve",
    "one_dim_oracle",
    "upper_bound",
    # homotopy
    "character_at_i",
    "character_path",
    "circle_points",
    "composed_images",
    "homotopy_images",
    "split_endpoint_images",
    "upper_fold",
    "upper_fold_matrix",
    "wedge_samples",
    "winding_number",
    "winding_total",
    # bundle
    "KESTEN_NORM",
    "cayley_ball_norm",
    "export_csv",
    "render_svg",
    # verify
    "CheckResult",
    "run_suite",
]
