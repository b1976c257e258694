"""Isotropy, regularity and the dimension bound of horizontal subspaces."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from carnot import (
    GradedLieAlgebra,
    HypothesisBundle,
    InputError,
    Subspace,
    build,
    check_cube_closed,
    default_entries,
    gromov_dimension_bound,
    is_isotropic,
    is_regular,
    regularity_matrix,
    trichotomy_report,
)
from carnot import horizontal, linalg
from helpers import (
    label_table,
    naive_bracket,
    naive_rref,
    random_layered_table,
    random_table,
)

F = Fraction


def span(key, *labels):
    algebra = build(key).algebra
    return algebra, Subspace.from_labels(algebra, labels)


# -- horizontality -------------------------------------------------------------


def test_rejects_non_horizontal_arguments():
    algebra, s = span("heisenberg_h:1", "h1", "I")
    for certificate in (is_isotropic, is_regular):
        with pytest.raises(InputError, match="subspace is not horizontal"):
            certificate(s)


# every verdict on a subspace reads the algebra from ``s.algebra`` and the
# horizontal rows from ``Subspace.require_horizontal``
SUBSPACE_VERDICTS = {
    "is_isotropic": is_isotropic,
    "is_regular": is_regular,
    "regularity_matrix": regularity_matrix,
    "check_cube_closed": lambda s: check_cube_closed(s, 0),
    "trichotomy_report": trichotomy_report,
    "HypothesisBundle": HypothesisBundle,
}


@pytest.mark.parametrize(
    "verdict", SUBSPACE_VERDICTS.values(), ids=list(SUBSPACE_VERDICTS)
)
def test_every_subspace_verdict_refuses_the_vertical_span(verdict):
    _, vertical = span("heisenberg_c:1", "K")
    with pytest.raises(InputError, match="^subspace is not horizontal$"):
        verdict(vertical)


def test_require_horizontal_returns_the_integer_rows():
    _, s = span("heisenberg_c:1", "j1", "k1")
    assert s.require_horizontal() == s.integer_rows == (({0: 1}, 1), ({1: 1}, 1))


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
        assert is_isotropic(s), key


def test_non_isotropic_pair_reports_witness():
    algebra, s = span("heisenberg_c:1", "j1", "k1")
    result = is_isotropic(s)
    assert not result
    x, y = result.witness
    assert algebra.bracket(x, y) != linalg.densify({}, 3)


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
    result = is_regular(s)
    assert result.regular
    assert result.rank == result.required_rank == required


def test_regularity_matrix_shape():
    algebra, s = span("heisenberg_h:2", "h1", "h2")
    m = regularity_matrix(s)
    assert len(m) == 3 * 2
    assert all(len(row) == 8 for row in m)


def first_layer_and_targets(algebra):
    first = set(algebra.layers[0])
    return sorted(first), [t for t in range(algebra.dimension) if t not in first]


def dense_rows(s):
    """The integer rows of ``s`` divided out into dense Fraction rows."""
    n = s.algebra.dimension
    return tuple(linalg.densify(w, n, pivot) for w, pivot in s.integer_rows)


def component_oracle(algebra, s):
    """The regularity matrix entry by entry, as half the target component
    of ``naive_bracket`` over the algebra's listed structure constants, with
    columns over the sorted first layer and rows over the other directions."""
    v1, targets = first_layer_and_targets(algebra)
    basis, table = algebra.basis, label_table(algebra)
    return tuple(
        tuple(
            naive_bracket(table, basis, algebra.basis_vector(u), row)[t] / 2
            for u in v1
        )
        for t in targets
        for row in dense_rows(s)
    )


def per_pair_rows(algebra, s):
    """The sparse regularity rows built one (q, u) at a time: for each
    spanning row X_q and each u of the sorted first layer, the nonzero
    target components of ``naive_bracket(b_u, X_q)`` halved, at column u."""
    v1, targets = first_layer_and_targets(algebra)
    basis, table = algebra.basis, label_table(algebra)
    rows = [{} for _ in range(len(targets) * s.dim)]
    for q, x in enumerate(dense_rows(s)):
        for col, u in enumerate(v1):
            image = naive_bracket(table, basis, algebra.basis_vector(u), x)
            for i, t in enumerate(targets):
                if image[t]:
                    rows[i * s.dim + q][col] = image[t] / 2
    return rows


def assert_rows_match_per_pair(algebra, s):
    rows, scale = horizontal._regularity_rows(s)
    assert [{c: F(a, scale) for c, a in row.items()} for row in rows] == (
        per_pair_rows(algebra, s)
    )
    result = is_regular(s)
    assert result.rank == len(naive_rref(component_oracle(algebra, s)))
    return result


@pytest.mark.parametrize(
    "entry",
    [e for e in default_entries() if e.designated_subspace is not None],
    ids=lambda e: e.key,
)
def test_regularity_matrix_matches_components_on_designated(entry):
    s = entry.designated_subspace
    assert regularity_matrix(s) == component_oracle(entry.algebra, s)


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
    assert regularity_matrix(s) == component_oracle(algebra, s)


@pytest.mark.parametrize("kind", ["graded", "ungraded"])
def test_certificates_match_components_on_random_tables(kind):
    # ungraded tables give [b_u, X_q] first-layer components, which belong
    # to no curvature component and must be skipped
    outcomes = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        basis, layers, table = random_layered_table(rng, kind)
        algebra = GradedLieAlgebra("random", basis, layers, table)
        _, targets = first_layer_and_targets(algebra)
        k = rng.randint(1, len(algebra.layers[0]))
        s = Subspace(algebra, random_horizontal_rows(rng, algebra, k))
        oracle = component_oracle(algebra, s)
        assert regularity_matrix(s) == oracle
        result = is_regular(s)
        assert result.rank == len(naive_rref(oracle))
        assert result.required_rank == len(oracle)

        rows = dense_rows(s)
        offending = [
            (x, y)
            for a, x in enumerate(rows)
            for y in rows[a + 1:]
            if any(naive_bracket(table, basis, x, y)[t] for t in targets)
        ]
        isotropy = is_isotropic(s)
        assert isotropy.isotropic == (not offending)
        assert isotropy.witness == (offending[0] if offending else None)

        outcomes[result.regular] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_regularity_rows_match_per_pair_brackets_on_random_tables():
    outcomes = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        basis, table = random_table(rng, rng.randint(3, 7))
        k = rng.randint(1, len(basis) - 1)
        algebra = GradedLieAlgebra("random", basis, [basis[:k], basis[k:]], table)
        s = Subspace(algebra, random_horizontal_rows(rng, algebra, rng.randint(1, k)))
        outcomes[assert_rows_match_per_pair(algebra, s).regular] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes


@pytest.mark.parametrize("key", ["unipotent:5", "unipotent:6", "unipotent:7"])
def test_regularity_rows_match_per_pair_brackets_above_the_second_layer(key):
    # brackets of the first layer with X_q only reach layer 2, so the rows
    # of the targets in layer 3 and above are empty
    algebra = build(key).algebra
    rng = random.Random(key)
    for count in (1, 2):
        s = Subspace(algebra, random_horizontal_rows(rng, algebra, count))
        assert_rows_match_per_pair(algebra, s)


def test_regularity_entries_that_cancel_are_absent():
    # [a, b] = [a, c] = z, so [a, b - c] = 0 and no entry of X = b - c is left
    algebra = GradedLieAlgebra(
        "cancel",
        ["a", "b", "c", "z"],
        [["a", "b", "c"], ["z"]],
        {("a", "b"): {"z": 1}, ("a", "c"): {"z": 1}},
    )
    s = Subspace(algebra, [[0, 1, -1, 0]])
    assert horizontal._regularity_rows(s)[0] == [{}]
    assert assert_rows_match_per_pair(algebra, s).rank == 0
    s = Subspace(algebra, [[0, 1, -1, 0], [0, 2, 3, 0]])
    assert_rows_match_per_pair(algebra, s)


def test_unipotent_checkerboard_is_isotropic_but_not_regular():
    algebra, s = span("unipotent:4", "E12", "E34")
    assert is_isotropic(s)
    result = is_regular(s)
    assert not result.regular
    assert result.required_rank == 2 * 3
    assert result.rank < result.required_rank


def test_regular_without_isotropy_exists():
    # certification needs both properties; neither implies the other
    algebra, s = span("heisenberg_c:1", "j1", "k1")
    assert is_regular(s).regular
    assert not is_isotropic(s)


def test_verdicts_do_not_depend_on_spanning_rows():
    algebra = build("heisenberg_h:2").algebra
    h1, h2 = algebra.basis_vector("h1"), algebra.basis_vector("h2")
    recombined = Subspace(
        algebra,
        [[a + b for a, b in zip(h1, h2)], [a - b for a, b in zip(h1, h2)]],
    )
    direct = Subspace.from_labels(algebra, ["h1", "h2"])
    assert recombined == direct
    assert is_regular(recombined).rank == is_regular(direct).rank
    assert bool(is_isotropic(recombined)) == bool(is_isotropic(direct))


def test_certificates_read_the_integer_rows_once(monkeypatch):
    # the subspace keeps its reduced rows in integers when it is built;
    # isotropy and regularity read those, and neither builds a dense row
    # but the witness pair, nor reads a vector into integers again
    algebra = build("heisenberg_h:2").algebra
    s = Subspace(algebra, random_horizontal_rows(random.Random(3), algebra, 2))
    expected = is_isotropic(s), is_regular(s)
    assert expected[0].witness is not None
    reads, built = [], []
    numerators, densify = linalg.numerators, linalg.densify
    monkeypatch.setattr(
        linalg, "numerators", lambda values: reads.append(values) or numerators(values)
    )
    monkeypatch.setattr(linalg, "densify", lambda *a: built.append(a) or densify(*a))
    assert (is_isotropic(s), is_regular(s)) == expected
    assert reads == [] and len(built) == 2


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


@pytest.mark.parametrize(
    "k", ["1", True, -1, 1.0], ids=["str", "bool", "negative", "float"]
)
def test_the_dimension_bound_reads_k_as_a_dimension(k):
    # a bool is not read as 0 or 1, nor a float as a dimension
    algebra = build("heisenberg_h:1").algebra
    with pytest.raises(InputError) as info:
        gromov_dimension_bound(algebra, k)
    assert str(info.value) == "k must be a dimension, an int of at least 0"
    assert gromov_dimension_bound(algebra, 0).satisfied


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bound_violated_for_unipotent_pairs(n):
    algebra = build("unipotent:%d" % n).algebra
    assert not gromov_dimension_bound(algebra, 2).satisfied
