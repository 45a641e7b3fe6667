"""Constrained unitary pairs and norm estimation for the rank-two free group.

The package studies pairs of unitary matrices (U, V) whose generator sum
U + U* + V + V* has operator norm at most a chosen constraint level in
[0, 4], the finite-dimensional models of constrained representations of
the free group on two generators. It provides:

* :mod:`constrep.freegroup` -- reduced words, group-ring elements, parsing
  and canonical printing;
* :mod:`constrep.linalg` -- eigendecompositions of unitary and hermitian
  matrices, functional calculus, and the operator norm with its top
  singular triple, all on LAPACK;
* :mod:`constrep.representation` -- constrained pairs, evaluation of ring
  elements, the spectral deformation and exact retraction between
  constraint levels, and JSON persistence;
* :mod:`constrep.optimize` -- projected-ascent estimation of constrained
  norms with deterministic seeding and one-dimensional oracles;
* :mod:`constrep.homotopy` -- sampled circle loops, winding numbers, the
  wedge construction whose images annihilate the averaging element, and
  the rotation/character homotopies with their exact scaling laws;
* :mod:`constrep.bundle` -- Cayley-tree ball benchmarks against the
  2*sqrt(3) tree norm, and CSV/SVG export of norm curves;
* :mod:`constrep.verify` -- named self-check suites behind ``constrep
  verify``.
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
    NonHermitianError,
    NonUnitaryError,
    apply_circle_function,
    apply_hermitian_function,
    hermitian_eig,
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
    is_constrained,
    load_representation,
    one_dim_rep,
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
)
from .homotopy import (
    CircleSamples,
    WedgeMatrix,
    WedgePair,
    character_at_i,
    character_homotopy_check,
    character_path,
    circle_points,
    composed_images,
    homotopy_images,
    sine_law_residual,
    split_endpoint_images,
    upper_fold,
    upper_fold_matrix,
    wedge_generator_images,
    wedge_substitution,
    winding_number,
    winding_total,
)
from .bundle import (
    KESTEN_NORM,
    cayley_ball,
    cayley_ball_norm,
    continuity_report,
    export_csv,
    read_curve_csv,
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
    "NonHermitianError",
    "NonUnitaryError",
    "apply_circle_function",
    "apply_hermitian_function",
    "hermitian_eig",
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
    "is_constrained",
    "load_representation",
    "one_dim_rep",
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
    # homotopy
    "CircleSamples",
    "WedgeMatrix",
    "WedgePair",
    "character_at_i",
    "character_homotopy_check",
    "character_path",
    "circle_points",
    "composed_images",
    "homotopy_images",
    "sine_law_residual",
    "split_endpoint_images",
    "upper_fold",
    "upper_fold_matrix",
    "wedge_generator_images",
    "wedge_substitution",
    "winding_number",
    "winding_total",
    # bundle
    "KESTEN_NORM",
    "cayley_ball",
    "cayley_ball_norm",
    "continuity_report",
    "export_csv",
    "read_curve_csv",
    "render_svg",
    # verify
    "CheckResult",
    "run_suite",
]
