"""Curvature form, isotropy, regularity, and the subspace search."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from carnot import (
    GradedLieAlgebra,
    InputError,
    NoSolutionError,
    SearchBudget,
    Subspace,
    build,
    curvature_form,
    default_entries,
    gromov_dimension_bound,
    is_isotropic,
    is_regular,
    regularity_matrix,
    search_certified_subspace,
    solve_regularity,
)
from helpers import naive_bracket, naive_rref, random_layered_table

F = Fraction


def span(key, *labels):
    algebra = build(key).algebra
    return algebra, Subspace.from_labels(algebra, labels)


# -- curvature form -----------------------------------------------------------


def test_component_is_half_the_bracket_coefficient():
    algebra = build("heisenberg_c:1").algebra
    form = curvature_form(algebra)
    j1, k1 = algebra.basis_vector("j1"), algebra.basis_vector("k1")
    k_index = form.targets.index(algebra.index("K"))
    assert form.component(k_index, j1, k1) == F(-1, 2)
    assert form.component(k_index, k1, j1) == F(1, 2)


def test_evaluate_collects_all_targets():
    algebra = build("heisenberg_h:1").algebra
    form = curvature_form(algebra)
    i1, h1 = algebra.basis_vector("i1"), algebra.basis_vector("h1")
    values = form.evaluate(i1, h1)
    # [i1, h1] = I and nothing else
    expected = {algebra.index("I"): F(1, 2)}
    for pos, target in enumerate(form.targets):
        assert values[pos] == expected.get(target, F(0))


def test_rejects_non_horizontal_arguments():
    algebra = build("heisenberg_h:1").algebra
    form = curvature_form(algebra)
    with pytest.raises(InputError):
        form.evaluate(algebra.basis_vector("I"), algebra.basis_vector("h1"))


# -- isotropy ------------------------------------------------------------------


def test_designated_subspaces_are_isotropic():
    for key, labels in [
        ("heisenberg_h:1", ("h1",)),
        ("heisenberg_h:3", ("h1", "h2", "h3")),
        ("heisenberg_o:2", ("d1", "d2")),
        ("unipotent:6", ("E12", "E34", "E56")),
        ("abelian:4", ("x1", "x2", "x3", "x4")),
    ]:
        algebra, s = span(key, *labels)
        assert is_isotropic(algebra, s), key


def test_non_isotropic_pair_reports_witness():
    algebra, s = span("heisenberg_c:1", "j1", "k1")
    result = is_isotropic(algebra, s)
    assert not result
    x, y = result.witness
    assert algebra.bracket(x, y) != algebra.zero()


# -- regularity ----------------------------------------------------------------


@pytest.mark.parametrize(
    "key,labels,required",
    [
        ("heisenberg_h:1", ("h1",), 3),
        ("heisenberg_h:2", ("h1", "h2"), 6),
        ("heisenberg_h:3", ("h1", "h2", "h3"), 9),
        ("heisenberg_o:1", ("d1",), 7),
        ("heisenberg_o:2", ("d1", "d2"), 14),
        ("heisenberg_o:3", ("d1", "d2", "d3"), 21),
    ],
)
def test_designated_subspaces_are_regular_with_full_rank(key, labels, required):
    algebra, s = span(key, *labels)
    result = is_regular(algebra, s)
    assert result.regular
    assert result.rank == result.required_rank == required


def test_regularity_matrix_shape():
    algebra, s = span("heisenberg_h:2", "h1", "h2")
    m = regularity_matrix(algebra, s)
    assert len(m) == 3 * 2
    assert all(len(row) == 8 for row in m)


def component_oracle(algebra, s):
    """The regularity matrix entry by entry, as half the target component
    of ``naive_bracket`` over the algebra's listed structure constants:
    ``CurvatureForm.component`` shares its bilinear sum with
    ``regularity_matrix``, so it would not be an independent oracle."""
    form = curvature_form(algebra)
    basis = algebra.basis
    table = {
        (basis[u], basis[v]): {basis[w]: c for w, c in entry.items()}
        for u, v, entry in algebra.structure_pairs()
    }
    return tuple(
        tuple(
            naive_bracket(table, basis, algebra.basis_vector(u), row)[t] / 2
            for u in form.v1
        )
        for t in form.targets
        for row in s.rows
    )


@pytest.mark.parametrize(
    "entry",
    [e for e in default_entries() if e.designated_subspace is not None],
    ids=lambda e: e.key,
)
def test_regularity_matrix_matches_components_on_designated(entry):
    s = entry.designated_subspace
    assert regularity_matrix(entry.algebra, s) == component_oracle(entry.algebra, s)


def random_horizontal_rows(rng, algebra, count):
    """``count`` dense rational rows supported on the first layer."""
    rows = []
    for _ in range(count):
        row = [F(0)] * algebra.dimension
        for i in algebra.layers[0]:
            row[i] = F(rng.randint(-9, 9), rng.randint(1, 7))
        rows.append(tuple(row))
    return rows


def test_regularity_matrix_matches_components_on_dense_rational_subspace():
    algebra = build("heisenberg_h:2").algebra
    s = Subspace(algebra, random_horizontal_rows(random.Random(7), algebra, 2))
    assert s.dim == 2
    assert regularity_matrix(algebra, s) == component_oracle(algebra, s)


@pytest.mark.parametrize("kind", ["graded", "ungraded"])
def test_certificates_match_components_on_random_tables(kind):
    # ungraded tables give [b_u, X_q] first-layer components, which belong
    # to no curvature component and must be skipped
    outcomes = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        basis, layers, table = random_layered_table(rng, kind)
        algebra = GradedLieAlgebra("random", basis, layers, table)
        form = curvature_form(algebra)
        k = rng.randint(1, len(algebra.layers[0]))
        s = Subspace(algebra, random_horizontal_rows(rng, algebra, k))
        oracle = component_oracle(algebra, s)
        assert regularity_matrix(algebra, s) == oracle
        result = is_regular(algebra, s)
        assert result.rank == len(naive_rref(oracle))
        assert result.required_rank == len(oracle)

        offending = [
            (x, y)
            for a, x in enumerate(s.rows)
            for y in s.rows[a + 1:]
            if any(naive_bracket(table, basis, x, y)[t] for t in form.targets)
        ]
        isotropy = is_isotropic(algebra, s)
        assert isotropy.isotropic == (not offending)
        assert isotropy.witness == (offending[0] if offending else None)

        if rng.random() < 0.5:
            xi = random_horizontal_rows(rng, algebra, 1)[0]
            sigma = [[form.component(i, xi, row) for row in s.rows]
                     for i in range(len(form.targets))]
        else:
            sigma = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in s.rows]
                     for _ in form.targets]
        try:
            solution = solve_regularity(algebra, s, sigma)
        except NoSolutionError as err:
            assert (err.rank, err.required_rank) == (result.rank, result.required_rank)
            assert not result.regular
            outcomes["unsolved"] += 1
            continue
        for i in range(len(form.targets)):
            for q, row in enumerate(s.rows):
                assert form.component(i, solution, row) == sigma[i][q]
        outcomes["solved"] += 1
    assert outcomes["solved"] >= 10 and outcomes["unsolved"] >= 10, outcomes


def test_unipotent_checkerboard_is_isotropic_but_not_regular():
    algebra, s = span("unipotent:4", "E12", "E34")
    assert is_isotropic(algebra, s)
    result = is_regular(algebra, s)
    assert not result.regular
    assert result.required_rank == 2 * 3
    assert result.rank < result.required_rank


def test_regular_without_isotropy_exists():
    # certification needs both properties; neither implies the other
    algebra, s = span("heisenberg_c:1", "j1", "k1")
    assert is_regular(algebra, s).regular
    assert not is_isotropic(algebra, s)


def test_verdicts_do_not_depend_on_spanning_rows():
    algebra = build("heisenberg_h:2").algebra
    h1, h2 = algebra.basis_vector("h1"), algebra.basis_vector("h2")
    recombined = Subspace(
        algebra,
        [[a + b for a, b in zip(h1, h2)], [a - b for a, b in zip(h1, h2)]],
    )
    direct = Subspace.from_labels(algebra, ["h1", "h2"])
    assert recombined == direct
    assert is_regular(algebra, recombined).rank == is_regular(algebra, direct).rank
    assert bool(is_isotropic(algebra, recombined)) == bool(is_isotropic(algebra, direct))


# -- solving for prescribed pairings ------------------------------------------


def test_solve_regularity_quaternionic_unit():
    algebra, s = span("heisenberg_h:1", "h1")
    form = curvature_form(algebra)
    sigma = [[0]] * 3
    sigma[form.targets.index(algebra.index("I"))] = [1]
    xi = solve_regularity(algebra, s, sigma)
    assert xi == algebra.vector({"i1": 2})


def test_solve_regularity_solution_hits_sigma():
    algebra, s = span("heisenberg_o:1", "d1")
    form = curvature_form(algebra)
    sigma = [[F(q, 3)] for q in range(1, 8)]
    xi = solve_regularity(algebra, s, sigma)
    for i in range(7):
        assert form.component(i, xi, s.rows[0]) == sigma[i][0]


def test_solve_regularity_unsolvable_raises_with_rank():
    algebra, s = span("unipotent:4", "E12", "E34")
    targets = curvature_form(algebra).targets
    e13 = algebra.index("E13")
    sigma = [[0, 0]] * len(targets)
    sigma[targets.index(e13)] = [0, 1]
    with pytest.raises(NoSolutionError) as err:
        solve_regularity(algebra, s, sigma)
    assert err.value.rank < err.value.required_rank


def test_solve_regularity_rejects_wrong_shape():
    algebra, s = span("heisenberg_h:1", "h1")
    with pytest.raises(InputError):
        solve_regularity(algebra, s, [[1]])


# -- dimension bound -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bound_equality_at_designated_dimension(n):
    for family in ["heisenberg_h", "heisenberg_o"]:
        algebra = build("%s:%d" % (family, n)).algebra
        report = gromov_dimension_bound(algebra, n)
        assert report.satisfied
        assert report.lhs == report.rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bound_violated_one_dimension_higher(n):
    algebra = build("heisenberg_o:%d" % n).algebra
    assert not gromov_dimension_bound(algebra, n + 1).satisfied


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bound_violated_for_unipotent_pairs(n):
    algebra = build("unipotent:%d" % n).algebra
    assert not gromov_dimension_bound(algebra, 2).satisfied


# -- search --------------------------------------------------------------------


def test_search_finds_coordinate_subspace():
    algebra = build("heisenberg_h:2").algebra
    outcome = search_certified_subspace(algebra, 2)
    assert outcome
    assert outcome.subspace.coordinate_labels() == ("h1", "h2")


def test_search_fast_rejects_on_dimension_bound():
    algebra = build("unipotent:6").algebra
    outcome = search_certified_subspace(algebra, 2)
    assert not outcome
    assert outcome.tested == 0
    assert "bound" in outcome.reason


def test_search_miss_is_not_a_proof():
    algebra = build("heisenberg_c:2").algebra
    outcome = search_certified_subspace(
        algebra, 2, SearchBudget(coordinate=False, random_trials=3, seed=5)
    )
    if not outcome:
        assert "not a proof" in outcome.reason


def test_search_zero_dimension_trivial():
    outcome = search_certified_subspace(build("heisenberg_c:1").algebra, 0)
    assert outcome
    assert outcome.subspace.dim == 0


def test_search_rejects_bad_dimension():
    with pytest.raises(InputError):
        search_certified_subspace(build("heisenberg_c:1").algebra, 3)
