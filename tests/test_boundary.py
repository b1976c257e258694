"""Library arguments of the wrong object kind.

Each public call that reads an algebra, a subspace, a form, a hypothesis
bundle or a catalog entry reads it through ``linalg.require_kind`` before
any of its attributes, so another kind gives ``InputError`` with the
message "<what> needs a <kind>", never an ``AttributeError``.
"""

import pytest

from carnot import (
    Dilation,
    HypothesisBundle,
    InputError,
    InvariantForm,
    Subspace,
    algebra_to_dict,
    build,
    check_cube_closed,
    coverage_table,
    cube_form,
    differential,
    entry_summary,
    form_to_dict,
    gromov_dimension_bound,
    hausdorff_dimension,
    is_isotropic,
    is_regular,
    jacobi_check,
    lower_central_series,
    predict_divergence,
    predict_filling,
    regularity_matrix,
    save_algebra,
    scaling_weight,
    sectional_curvature,
    stratification_check,
    trichotomy_report,
)

FORM = InvariantForm.dual(build("heisenberg_c:1").algebra, 0)

KINDS = {
    "is_isotropic": (lambda: is_isotropic(None), "an isotropy check needs a Subspace"),
    "is_regular": (lambda: is_regular(5), "a regularity check needs a Subspace"),
    "regularity_matrix": (
        lambda: regularity_matrix(5), "a regularity matrix needs a Subspace"
    ),
    "check_cube_closed": (
        lambda: check_cube_closed(5, 0), "the cube closure needs a Subspace"
    ),
    "cube_form": (lambda: cube_form(5, 0, []), "a cube form needs a GradedLieAlgebra"),
    "differential": (lambda: differential(5), "a differential needs an InvariantForm"),
    "scaling_weight": (
        lambda: scaling_weight(5), "a scaling weight needs an InvariantForm"
    ),
    "form_to_dict": (lambda: form_to_dict(5), "form JSON needs an InvariantForm"),
    "form_add": (lambda: FORM + 5, "a form sum needs an InvariantForm"),
    "form_sub": (lambda: FORM - 5, "a form difference needs an InvariantForm"),
    "form_wedge": (lambda: FORM.wedge(5), "a wedge needs an InvariantForm"),
    "InvariantForm": (lambda: InvariantForm(5, 1), "a form needs a GradedLieAlgebra"),
    "HypothesisBundle": (
        lambda: HypothesisBundle(None), "a hypothesis bundle needs a Subspace"
    ),
    "predict_filling": (
        lambda: predict_filling(5), "a filling prediction needs a HypothesisBundle"
    ),
    "predict_divergence": (
        lambda: predict_divergence(5),
        "a divergence prediction needs a HypothesisBundle",
    ),
    "coverage_table": (
        lambda: coverage_table(5), "a coverage table needs a HypothesisBundle"
    ),
    "trichotomy_report": (
        lambda: trichotomy_report(5), "the curvature trichotomy needs a Subspace"
    ),
    "sectional_curvature": (
        lambda: sectional_curvature(5, 0, 1), "curvature needs a GradedLieAlgebra"
    ),
    "jacobi_check": (
        lambda: jacobi_check(5), "a Jacobi check needs a GradedLieAlgebra"
    ),
    "stratification_check": (
        lambda: stratification_check(5),
        "a stratification check needs a GradedLieAlgebra",
    ),
    "lower_central_series": (
        lambda: lower_central_series(5),
        "the lower central series needs a GradedLieAlgebra",
    ),
    "hausdorff_dimension": (
        lambda: hausdorff_dimension(5), "Hausdorff dimension needs a GradedLieAlgebra"
    ),
    "gromov_dimension_bound": (
        lambda: gromov_dimension_bound(5, 1),
        "a dimension bound needs a GradedLieAlgebra",
    ),
    "Dilation": (lambda: Dilation(5, 2), "a dilation needs a GradedLieAlgebra"),
    "Subspace": (lambda: Subspace(5, []), "a subspace needs a GradedLieAlgebra"),
    "algebra_to_dict": (
        lambda: algebra_to_dict(5), "algebra JSON needs a GradedLieAlgebra"
    ),
    "entry_summary": (
        lambda: entry_summary(5), "an entry summary needs a CatalogEntry"
    ),
}


@pytest.mark.parametrize("call, message", list(KINDS.values()), ids=list(KINDS))
def test_an_object_of_another_kind_is_an_input_error(call, message):
    with pytest.raises(InputError) as raised:
        call()
    assert str(raised.value) == message


def test_saving_another_kind_fails_before_the_file_is_opened(tmp_path):
    path = tmp_path / "algebra.json"
    with pytest.raises(InputError) as raised:
        save_algebra(5, path)
    assert str(raised.value) == "algebra JSON needs a GradedLieAlgebra"
    assert not path.exists()
