"""Exact-arithmetic toolkit for stratified nilpotent Lie algebras.

Validation of gradings, certification of horizontal subspaces (isotropy
and regularity for the layer-projected bracket form), invariant forms and
their differential, scalable lattices in the 2-step group, left-invariant
sectional curvature, and the growth-exponent predictor built on top of the
certification. All arithmetic is rational and exact.
"""

from .algebra import (
    CheckResult,
    Dilation,
    GradedLieAlgebra,
    InputError,
    Subspace,
    hausdorff_dimension,
    jacobi_check,
    lower_central_series,
    stratification_check,
)
from .catalog import (
    CatalogEntry,
    abelian,
    algebra_from_dict,
    algebra_to_dict,
    build,
    default_entries,
    entry_summary,
    heisenberg_c,
    heisenberg_h,
    heisenberg_o,
    load_algebra,
    save_algebra,
    unipotent,
)
from .curvature import (
    CurvatureReport,
    TrichotomyItem,
    sectional_curvature,
    trichotomy_report,
    two_step_closed_forms,
)
from .forms import (
    InvariantForm,
    PittetReport,
    ScalingWeight,
    check_cube_closed,
    cube_form,
    differential,
    form_from_dict,
    form_to_dict,
    pittet_kernel,
    scaling_weight,
    wedge,
)
from .group import (
    GroupElement,
    LatticeSpec,
    build_scalable_lattice,
    check_group_closure,
    check_scaling_closure,
    group_scaling,
)
from .horizontal import (
    BoundReport,
    IsotropyResult,
    RegularityResult,
    gromov_dimension_bound,
    is_isotropic,
    is_regular,
    regularity_matrix,
)
from .predictor import (
    CoverageRow,
    CoverageTable,
    GrowthBound,
    HypothesisBundle,
    coverage_table,
    predict_divergence,
    predict_filling,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CatalogEntry",
    "CheckResult",
    "CoverageRow",
    "CoverageTable",
    "CurvatureReport",
    "Dilation",
    "GradedLieAlgebra",
    "GroupElement",
    "GrowthBound",
    "HypothesisBundle",
    "InputError",
    "InvariantForm",
    "IsotropyResult",
    "LatticeSpec",
    "PittetReport",
    "RegularityResult",
    "ScalingWeight",
    "Subspace",
    "TrichotomyItem",
    "abelian",
    "algebra_from_dict",
    "algebra_to_dict",
    "build",
    "build_scalable_lattice",
    "check_cube_closed",
    "check_group_closure",
    "check_scaling_closure",
    "coverage_table",
    "cube_form",
    "default_entries",
    "differential",
    "entry_summary",
    "form_from_dict",
    "form_to_dict",
    "gromov_dimension_bound",
    "group_scaling",
    "hausdorff_dimension",
    "heisenberg_c",
    "heisenberg_h",
    "heisenberg_o",
    "is_isotropic",
    "is_regular",
    "jacobi_check",
    "load_algebra",
    "lower_central_series",
    "pittet_kernel",
    "predict_divergence",
    "predict_filling",
    "regularity_matrix",
    "save_algebra",
    "scaling_weight",
    "sectional_curvature",
    "stratification_check",
    "trichotomy_report",
    "two_step_closed_forms",
    "unipotent",
    "wedge",
]
