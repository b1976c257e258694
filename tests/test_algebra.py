"""Structure validation: brackets, Jacobi, gradings, dilations."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnot
from carnot import (
    Dilation,
    GradedLieAlgebra,
    GroupElement,
    InputError,
    InvariantForm,
    LatticeSpec,
    Subspace,
    algebra_from_dict,
    algebra_to_dict,
    build,
    build_scalable_lattice,
    cube_form,
    default_entries,
    hausdorff_dimension,
    jacobi_check,
    lower_central_series,
    sectional_curvature,
    stratification_check,
    two_step_closed_forms,
    unipotent,
)
from carnot import HypothesisBundle, linalg, pittet_kernel, trichotomy_report
from carnot import algebra as algebra_module
from carnot.algebra import MAX_DIMENSION, require_two_step
from helpers import (
    GATE_CASES,
    catalog_label_brackets,
    catalog_labels,
    coprime_table,
    graded_transport,
    matrix_commutator,
    matrix_to_coords,
    naive_bracket,
    naive_coordinate_labels,
    naive_is_horizontal,
    naive_jacobi,
    naive_rref,
    random_layered_table,
    random_table,
    strict_upper_matrix,
)

F = Fraction


# -- construction and input validation --------------------------------------


def test_rejects_duplicate_labels():
    with pytest.raises(InputError):
        GradedLieAlgebra("bad", ["a", "a"], [["a", "a"]], {})


def test_rejects_layers_not_partitioning():
    with pytest.raises(InputError):
        GradedLieAlgebra("bad", ["a", "b"], [["a"]], {})


@pytest.mark.parametrize(
    "layers, message",
    [
        ([["a", "b"], ["b", "c"]], "label 'b' in two layers"),
        ([["a", "a"], ["b", "c"]], "label 'a' in two layers"),
        ([["a", "b", "c"], []], "empty layer"),
        ([["c"], ["a"]], "labels missing from layers: b"),
    ],
)
def test_rejects_layers_that_do_not_partition_the_basis(layers, message):
    with pytest.raises(InputError, match=message):
        GradedLieAlgebra("bad", ["a", "b", "c"], layers, {})


def test_rejects_unknown_bracket_label():
    with pytest.raises(InputError):
        GradedLieAlgebra("bad", ["a", "b"], [["a", "b"]], {("a", "c"): {"b": 1}})


def test_rejects_both_orientations():
    with pytest.raises(InputError):
        GradedLieAlgebra(
            "bad",
            ["a", "b", "c"],
            [["a", "b"], ["c"]],
            {("a", "b"): {"c": 1}, ("b", "a"): {"c": -1}},
        )


def test_rejects_float_coefficients():
    with pytest.raises(InputError):
        GradedLieAlgebra(
            "bad", ["a", "b", "c"], [["a", "b"], ["c"]], {("a", "b"): {"c": 0.5}}
        )


def recast(table, cast):
    """``table`` with ``cast`` applied to every constant."""
    return {pair: {w: cast(c) for w, c in r.items()} for pair, r in table.items()}


def constants(table):
    return [c for result in table.values() for c in result.values()]


def integer_entries(algebra):
    return [a for row in algebra.adjacency for e in row.values() for a in e.values()]


ABC = (["a", "b", "c"], [["a", "b"], ["c"]])


@pytest.mark.parametrize("seed", range(8))
def test_constants_as_int_fraction_or_string_give_one_table(seed):
    rng = random.Random(seed)
    basis, layers, table = coprime_table()
    while seed and len(constants(table)) < 4:
        basis, layers, table = random_layered_table(rng, "graded")
    if seed % 2:
        # integral constants: the first form below is then all ints
        d = math.lcm(*(c.denominator for c in constants(table)))
        table = recast(table, lambda c: c * d)
    forms = [
        recast(table, lambda c: c.numerator if c.denominator == 1 else c),
        recast(table, Fraction),
        recast(table, str),
    ]
    if seed % 2:
        assert all(type(c) is int for c in constants(forms[0]))
    built = [GradedLieAlgebra("three-ways", basis, layers, form) for form in forms]
    for algebra in built[1:]:
        assert algebra.denominator == built[0].denominator
        assert algebra.adjacency == built[0].adjacency
    if seed == 0:
        assert built[0].denominator == 1001
    for algebra in built:
        assert all(type(a) is int for a in integer_entries(algebra))


def test_an_integral_fraction_constant_gives_an_int_entry():
    algebra = GradedLieAlgebra("two", *ABC, {("a", "b"): {"c": F(2, 1)}})
    assert algebra.denominator == 1
    assert algebra.adjacency[0] == {1: {2: 2}}
    assert type(algebra.adjacency[0][1][2]) is int


def test_a_bracket_of_a_label_with_itself_is_an_input_error():
    with pytest.raises(InputError) as info:
        GradedLieAlgebra("self", *ABC, {("a", "a"): {"c": 1}})
    assert str(info.value) == "bracket of 'a' with itself listed"


@pytest.mark.parametrize("zero", [0, F(0), "0", "0/5"])
def test_a_pair_that_cancels_is_absent_but_still_listed(zero):
    algebra = GradedLieAlgebra("zero", *ABC, {("a", "b"): {"c": zero}})
    assert algebra.adjacency == ({}, {}, {})
    twice = {("a", "b"): {"c": zero}, ("b", "a"): {"c": 1}}
    with pytest.raises(InputError, match="listed twice"):
        GradedLieAlgebra("zero", *ABC, twice)


def test_terms_that_cancel_in_a_file_leave_no_entry():
    terms = [{"basis": "c", "coeff": "1/3"}, {"basis": "c", "coeff": "-1/3"}]
    basis, layers = ABC
    doc = {
        "name": "cancel",
        "basis": basis,
        "layers": layers,
        "brackets": [{"left": "a", "right": "b", "result": terms}],
    }
    algebra = algebra_from_dict(doc)
    assert algebra.adjacency == ({}, {}, {})
    assert algebra.denominator == 1


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0])
def test_float_constants_are_rejected_even_when_integral(value):
    with pytest.raises(InputError, match="floating point"):
        GradedLieAlgebra("bad", *ABC, {("a", "b"): {"c": value}})


def bool_table(value):
    """The label constructor on [a, b] = value c."""
    return GradedLieAlgebra(
        "bool", ["a", "b", "c"], [["a", "b"], ["c"]], {("a", "b"): {"c": value}}
    )


# each reader of an exact number, on heisenberg_c:1 or the label constructor
BOOL_CALLS = {
    "label-true": lambda a, f: bool_table(True),
    "label-false": lambda a, f: bool_table(False),
    "vector": lambda a, f: a.vector({"j1": True}),
    "dilation": lambda a, f: Dilation(a, True),
    "form-scalar": lambda a, f: True * f,
    "form-terms": lambda a, f: InvariantForm(a, 1, {(0,): True}),
    "subspace": lambda a, f: Subspace(a, [(True, 0, 0)]),
    "group-element": lambda a, f: GroupElement(a, (0, False, 0)),
    "lattice": lambda a, f: LatticeSpec(a, [(True, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "bracket": lambda a, f: a.bracket((True, 0, 0), (0, 1, 0)),
    "describe": lambda a, f: a.describe((0, 0, True)),
    "coefficient": lambda a, f: linalg.coefficient(False),
    "numerators": lambda a, f: linalg.numerators({0: 1, 1: False}),
}


@pytest.mark.parametrize("call", BOOL_CALLS.values(), ids=list(BOOL_CALLS))
def test_a_bool_is_no_coefficient(call):
    # True used to be read as 1 and False as 0 by every one of these
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError) as info:
        call(algebra, InvariantForm.dual(algebra, "j1"))
    assert str(info.value) == "boolean coefficient rejected"


@pytest.mark.parametrize(
    "text", ["0.5", "1e3", " 1", "1/0", "", "1_0", "3\n", "\u0663"]
)
def test_rejects_coefficient_strings_outside_the_json_format(text):
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError):
        algebra.vector({"K": text})


def test_one_input_error_class_for_every_module():
    assert carnot.InputError is carnot.linalg.InputError is carnot.algebra.InputError


@pytest.mark.parametrize("value", [0.1, "1_0", "1e2", " 3/2 ", "3\n", "\u0663"])
def test_library_entry_points_read_numbers_with_the_one_parser(value):
    # each of these used to go through Fraction(), which takes floats and
    # Python's own string grammar
    algebra = build("heisenberg_c:1").algebra
    row = (value, 0, 1)
    form = InvariantForm(algebra, 1, {(0,): 1})
    lattice = build_scalable_lattice(algebra)
    calls = (
        lambda: Subspace(algebra, [row]),
        lambda: linalg.rref([row]),
        lambda: lattice.membership(row),
        lambda: form.evaluate([row]),
    )
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_falsy_entries_that_are_not_numbers_are_input_errors():
    # None, [] and "" used to be skipped as zeros before any entry was read
    algebra = build("heisenberg_c:1").algebra
    lattice = build_scalable_lattice(algebra)
    calls = (
        lambda: linalg.rref([[None, 1, 0]]),
        lambda: linalg.rref([[[], 1]]),
        lambda: linalg.reduced_rows([{0: None, 1: 1}], 2),
        lambda: Subspace(algebra, [("", 0, 1)]),
        lambda: LatticeSpec(algebra, ((1, 0, 0), (0, None, 1), (0, 0, 1))),
        lambda: lattice.membership((None, 0, 0)),
        lambda: algebra.bracket((0, [], 0), (1, 0, 0)),
    )
    for call in calls:
        with pytest.raises(InputError):
            call()


# every library entry that takes a basis position or a vector from its caller,
# with what its reader calls the vector (None for a position); each is called
# on heisenberg_c:1, basis (j1, k1, K)
READER_ENTRIES = {
    "basis_vector": (None, lambda a, x: a.basis_vector(x)),
    "sectional_curvature": (None, lambda a, x: sectional_curvature(a, x, 0)),
    "two_step_closed_forms": (None, lambda a, x: two_step_closed_forms(a, x, 0)),
    "dual": (None, lambda a, x: InvariantForm.dual(a, x)),
    "cube_form": (None, lambda a, x: cube_form(a, 0, [x, 1, 2])),
    "bracket": ("a vector", lambda a, x: a.bracket(x, (0, 1, 0))),
    "subspace": ("a subspace row", lambda a, x: Subspace(a, [x])),
    "lattice": (
        "a lattice generator",
        lambda a, x: LatticeSpec(a, (x, (0, 1, 0), (0, 0, 1))),
    ),
    "membership": ("a vector", lambda a, x: build_scalable_lattice(a).membership(x)),
    "group_element": ("a vector", lambda a, x: GroupElement(a, x)),
    "dilation": ("a vector", lambda a, x: Dilation(a, 2)(x)),
    "evaluate": (
        "a vector",
        lambda a, x: InvariantForm(a, 1, {(0,): 1}).evaluate([x]),
    ),
    "describe": ("a vector", lambda a, x: a.describe(x)),
}


@pytest.mark.parametrize(
    "what, call", READER_ENTRIES.values(), ids=list(READER_ENTRIES)
)
def test_every_entry_reads_positions_and_vectors_with_the_one_reader(what, call):
    # a position used to be any int, so -1 was the last vector and True the
    # second; a vector used to be read as far as it went, or as a string of
    # digits, or not checked at all
    algebra = build("heisenberg_c:1").algebra
    for x in (-1, 3, True, "100", (1,), (1, 0, 0, 7)):
        if what is not None:
            expected = "%s needs 3 coefficients" % what
        elif type(x) is int:
            expected = "basis position %d out of range(3)" % x
        else:
            expected = "unknown basis label %r" % (x,)
        with pytest.raises(InputError) as raised:
            call(algebra, x)
        assert str(raised.value) == expected


def test_describe_writes_the_nonzero_terms_in_position_order():
    algebra = build("heisenberg_c:1").algebra
    assert algebra.describe((F(-1), 0, F(3, 2))) == "-j1 + 3/2*K"
    assert algebra.describe((2, -1, 1)) == "2*j1 - k1 + K"
    assert algebra.describe(("0", "1", "-1/2")) == "k1 - 1/2*K"
    assert algebra.describe((0, F(0), 0)) == "0"


def test_a_plane_named_by_positions_is_the_plane_named_by_labels():
    algebra = build("heisenberg_c:1").algebra
    assert algebra.basis == ("j1", "k1", "K")
    assert (
        sectional_curvature(algebra, 2, 0)
        == sectional_curvature(algebra, "K", "j1")
        == F(1, 4)
    )


@pytest.mark.parametrize(
    "name, basis, layers",
    [
        ("x", "abc", ["ab", "c"]),
        ("x", ["a", "b", "c"], ["ab", "c"]),
        ("x", ["a", "b", "c"], "abc"),
        (5, ["a", "b", "c"], [["a", "b"], ["c"]]),
    ],
    ids=["str-basis", "str-layers", "str-layer-list", "int-name"],
)
def test_constructor_rejects_strings_for_label_lists_and_a_non_string_name(
    name, basis, layers
):
    with pytest.raises(InputError):
        GradedLieAlgebra(name, basis, layers, {})


def test_unhashable_labels_and_string_rows_are_input_errors():
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError):
        algebra.index(["j1"])
    with pytest.raises(InputError):
        Subspace.from_labels(algebra, [["j1"]])
    # "100" has the length of a row, but a string is not a row
    with pytest.raises(InputError):
        Subspace(algebra, ["100"])


ABC_ALGEBRA = GradedLieAlgebra("abc", *ABC, {("a", "b"): {"c": 1}})
HEISENBERG_C1 = build("heisenberg_c:1").algebra
LABELS_MESSAGE = "subspace labels must be a list of label strings"
ROWS_MESSAGE = "a subspace needs an iterable of rows"


@pytest.mark.parametrize(
    "algebra, call, message",
    [
        # a string was read as one label per character: Subspace<a, b> on
        # ABC_ALGEBRA, and "unknown basis label 'j'" on heisenberg_c:1
        (ABC_ALGEBRA, lambda a: Subspace.from_labels(a, "ab"), LABELS_MESSAGE),
        (HEISENBERG_C1, lambda a: Subspace.from_labels(a, "j1"), LABELS_MESSAGE),
        # a TypeError used to escape from the row reader
        (HEISENBERG_C1, lambda a: Subspace(a, 5), ROWS_MESSAGE),
    ],
    ids=["from_labels_ab", "from_labels_j1", "rows_int"],
)
def test_subspace_refuses_containers_it_would_misread(algebra, call, message):
    with pytest.raises(InputError, match="^%s$" % message):
        call(algebra)


BRACKETS_MESSAGE = "brackets must map label pairs to mappings of labels to coefficients"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda a: LatticeSpec(a, 5), "a lattice needs a list of 3 generators"),
        (
            lambda a: InvariantForm(a, 1, {(0,): 1}).evaluate(5),
            "form of degree 1 needs a list of vectors",
        ),
        (
            lambda a: a.vector(["j1"]),
            "a vector needs a mapping of labels to coefficients",
        ),
        (lambda a: GradedLieAlgebra("abc", *ABC, [("a", "b")]), BRACKETS_MESSAGE),
        (lambda a: GradedLieAlgebra("abc", *ABC, {("a", "b"): ["c"]}), BRACKETS_MESSAGE),
    ],
    ids=["lattice_int", "evaluate_int", "vector_list", "brackets_list", "result_list"],
)
def test_containers_around_vectors_are_input_errors(call, message):
    # each used to escape as a TypeError or an AttributeError
    with pytest.raises(InputError) as info:
        call(HEISENBERG_C1)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key, message",
    [
        ("ab", BRACKETS_MESSAGE),
        (("a", "b", "c"), BRACKETS_MESSAGE),
        (5, BRACKETS_MESSAGE),
        ((5, "b"), "unknown basis label 5"),
    ],
    ids=["string", "three-tuple", "int", "unknown-label"],
)
def test_a_bracket_key_is_a_tuple_of_two_labels(key, message):
    # a string key is not read as the pair of its characters; the labels of
    # a pair are then read one by one
    with pytest.raises(InputError) as info:
        GradedLieAlgebra("abc", *ABC, {key: {"c": 1}})
    assert str(info.value) == message


def test_the_dimension_budget_admits_512_labels_and_no_more():
    labels = ["x%d" % i for i in range(MAX_DIMENSION)]
    assert MAX_DIMENSION == 512
    assert GradedLieAlgebra("budget", labels, [labels], {}).dimension == 512
    over = labels + ["y"]
    with pytest.raises(InputError, match="over the budget of 512"):
        GradedLieAlgebra("over", over, [over], {})


def test_accepts_integer_and_ratio_strings():
    algebra = build("heisenberg_c:1").algebra
    assert algebra.vector({"j1": "-2", "K": "3/2"}) == (F(-2), F(0), F(3, 2))


def test_bracket_antisymmetry_and_linearity():
    algebra = build("heisenberg_c:1").algebra
    j1, k1 = algebra.basis_vector("j1"), algebra.basis_vector("k1")
    assert algebra.bracket(j1, k1) == algebra.vector({"K": -1})
    assert algebra.bracket(k1, j1) == algebra.vector({"K": 1})
    assert algebra.bracket(j1, j1) == linalg.densify({}, 3)


def random_vector(rng, n):
    return tuple(
        F(0) if rng.random() < 0.3 else F(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(n)
    )


def test_bracket_rejects_a_vector_of_another_length():
    algebra = build("heisenberg_c:1").algebra
    assert algebra.dimension == 3
    for x, y in (((1, 0, 0, 5), (0, 1, 0, 7)), ((1, 0, 0), (0, 1)), ((1,), (0, 1, 0))):
        with pytest.raises(InputError, match="a vector needs 3 coefficients"):
            algebra.bracket(x, y)


def random_numerators(rng, n):
    """Sparse integer numerators {position: int} on about half of range(n)."""
    return {k: rng.randint(-9, 9) for k in range(n) if rng.random() < 0.6}


@pytest.mark.parametrize("seed", range(10))
def test_integer_bracket_matches_naive_sum(seed):
    rng = random.Random(seed)
    if seed < 2:
        basis, _, table = coprime_table()
    else:
        basis, table = random_table(rng, rng.randint(2, 7))
    algebra = GradedLieAlgebra("random", basis, [basis], table)
    n, d = algebra.dimension, algebra.denominator
    for trial in range(12):
        xs, r = random_numerators(rng, n), rng.randint(1, 6)
        ys, s = random_numerators(rng, n), rng.randint(1, 6)
        if trial % 3 == 0:
            # a multiple of x: every component cancels
            ys, s = {k: 3 * a for k, a in xs.items()}, 5
        x = tuple(F(xs.get(k, 0), r) for k in range(n))
        y = tuple(F(ys.get(k, 0), s) for k in range(n))
        got = algebra.integer_bracket(xs, ys)
        assert all(type(a) is int for a in got.values())
        want = naive_bracket(table, basis, x, y)
        assert tuple(F(got.get(w, 0), r * s * d) for w in range(n)) == want
        if trial % 3 == 0:
            assert not any(got.values())


@pytest.mark.parametrize("seed", range(12))
def test_bracket_matches_naive_sum_on_random_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    basis, table = random_table(rng, n)
    algebra = GradedLieAlgebra("random", basis, [basis], table)
    for _ in range(10):
        x, y = random_vector(rng, n), random_vector(rng, n)
        assert algebra.bracket(x, y) == naive_bracket(table, basis, x, y)
    for u in range(n):
        for v in range(n):
            bu, bv = algebra.basis_vector(u), algebra.basis_vector(v)
            want = naive_bracket(table, basis, bu, bv)
            assert algebra.bracket_basis(u, v) == {w: c for w, c in enumerate(want) if c}
            assert algebra.bracket_basis(u, v) == {
                w: -c for w, c in algebra.bracket_basis(v, u).items()
            }
            assert all(algebra.bracket_basis(u, v).get(w, 0) == want[w] for w in range(n))
    assert algebra_from_dict(algebra_to_dict(algebra)) == algebra


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_holds_the_constants_over_one_denominator(seed):
    rng = random.Random(seed)
    if seed == 0:
        basis, layers, table = coprime_table()
    else:
        basis, layers, table = random_layered_table(rng, "ungraded")
    algebra = GradedLieAlgebra("random", basis, layers, table)
    d = algebra.denominator
    denominators = [c.denominator for result in table.values() for c in result.values()]
    assert d == math.lcm(*denominators)
    if seed == 0:
        assert d == 1001
    n = algebra.dimension
    unit = [tuple(F(int(j == i)) for j in range(n)) for i in range(n)]
    for u in range(n):
        for v in range(n):
            want = naive_bracket(table, basis, unit[u], unit[v])
            scaled = {w: d * c for w, c in enumerate(want) if c}
            assert algebra.adjacency[u].get(v, {}) == scaled
            assert all(type(a) is int for a in algebra.adjacency[u].get(v, {}).values())


@pytest.mark.parametrize("seed", range(6))
def test_bracket_divides_once_and_returns_fractions(seed):
    # D = 1001: the bracket of int vectors must not fall back to floats
    rng = random.Random(seed)
    basis, layers, table = coprime_table()
    algebra = GradedLieAlgebra("coprime", basis, layers, table)
    n = algebra.dimension
    ints = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(2)]
    fractions = [random_vector(rng, n) for _ in range(2)]
    for x, y in (ints, fractions, (ints[0], fractions[1])):
        got = algebra.bracket(x, y)
        assert all(type(c) is Fraction for c in got)
        assert got == naive_bracket(table, basis, x, y)


def exact_jacobi_table(shift=F(0)):
    """A 3-step table whose only nontrivial cyclic sum, on (a, b, c), is
    (1/7)(1/11) + (2/13)(3/7) + z = 13/1001 + 66/1001 + z for z = -79/1001,
    so it cancels only at the exact values; ``shift`` moves z."""
    basis = ["a", "b", "c", "p", "r", "s", "t"]
    table = {
        ("a", "b"): {"p": F(1, 7)},
        ("b", "c"): {"r": F(2, 13)},
        ("c", "a"): {"s": F(1)},
        ("p", "c"): {"t": F(1, 11)},
        ("r", "a"): {"t": F(3, 7)},
        ("s", "b"): {"t": F(-79, 1001) + shift},
    }
    return basis, [["a", "b", "c"], ["p", "r", "s"], ["t"]], table


def test_jacobi_check_cancels_exactly_over_one_denominator():
    basis, layers, table = exact_jacobi_table()
    algebra = GradedLieAlgebra("exact", basis, layers, table)
    assert algebra.denominator == 1001
    assert naive_jacobi(table, basis) is None
    assert jacobi_check(algebra)

    basis, layers, table = exact_jacobi_table(shift=F(1, 1001))
    algebra = GradedLieAlgebra("shifted", basis, layers, table)
    assert algebra.denominator == 1001
    failing = naive_jacobi(table, basis)
    assert failing == ("a", "b", "c")
    result = jacobi_check(algebra)
    assert not result
    assert result.detail == "jacobi fails on (%s, %s, %s)" % failing


# -- unipotent family against the matrix commutator oracle ------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unipotent_bracket_matches_matrix_commutator(n):
    algebra = unipotent(n).algebra
    dim = algebra.dimension
    assert dim == n * (n - 1) // 2
    for u in range(dim):
        for v in range(u + 1, dim):
            a = strict_upper_matrix(n, algebra.basis_vector(u), algebra)
            b = strict_upper_matrix(n, algebra.basis_vector(v), algebra)
            want = matrix_to_coords(matrix_commutator(a, b), algebra)
            got = algebra.bracket(algebra.basis_vector(u), algebra.basis_vector(v))
            assert got == want


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unipotent_layer_dimensions_descend(n):
    algebra = unipotent(n).algebra
    assert [len(layer) for layer in algebra.layers] == list(range(n - 1, 0, -1))


# -- jacobi and stratification ----------------------------------------------


def test_jacobi_detects_violation():
    # [a,[b,c]] = [a,c] = b is the only nonzero term of the cyclic sum
    algebra = GradedLieAlgebra(
        "broken",
        ["a", "b", "c"],
        [["a", "b", "c"]],
        {("a", "b"): {"c": 1}, ("a", "c"): {"b": 1}, ("b", "c"): {"c": 1}},
    )
    result = jacobi_check(algebra)
    assert not result
    assert "a" in result.detail and "b" in result.detail


def test_stratification_needs_generation_by_first_layer():
    # second layer declared but no bracket reaches it
    algebra = GradedLieAlgebra("flat", ["x", "y", "z"], [["x", "y"], ["z"]], {})
    assert jacobi_check(algebra)
    assert not stratification_check(algebra)


def test_stratification_rejects_weight_violation():
    # bracket of weights 1 and 2 must land in weight 3, not weight 1
    algebra = GradedLieAlgebra(
        "skew",
        ["x", "y", "z"],
        [["x", "y"], ["z"]],
        {("x", "y"): {"z": 1}, ("x", "z"): {"y": 1}},
    )
    assert not stratification_check(algebra)


@pytest.mark.parametrize(
    "basis, layers, table, detail",
    [
        (
            ["a", "b", "y", "z"],
            [["a", "b"], ["y", "z"]],
            {("a", "b"): {"z": 1}},
            "[V_1, V_1] spans a 1-dimensional space but layer 2 has dimension 2",
        ),
        (
            ["a", "b", "c", "d", "e"],
            [["a", "b"], ["c"], ["d", "e"]],
            {("a", "b"): {"c": 1}, ("a", "c"): {"d": 1}, ("b", "c"): {"d": 2}},
            "[V_1, V_2] spans a 1-dimensional space but layer 3 has dimension 2",
        ),
    ],
    ids=["two-step", "three-step"],
)
def test_stratification_generation_failure_reports_the_full_rank(
    basis, layers, table, detail
):
    algebra = GradedLieAlgebra("short", basis, layers, table)
    assert jacobi_check(algebra)
    result = stratification_check(algebra)
    assert not result
    assert result.detail == detail


def test_jacobi_finds_a_triple_with_one_bracketing_pair():
    # [[a, b], d] = [c, d] = e is the only nonzero double bracket, so
    # (a, b, d) is the only failing triple, and of its pairs only (a, b)
    # brackets
    basis = ["a", "b", "c", "d", "e"]
    table = {("a", "b"): {"c": 1}, ("c", "d"): {"e": 1}}
    algebra = GradedLieAlgebra("chain", basis, [basis], table)
    result = jacobi_check(algebra)
    assert not result
    assert result.detail == "jacobi fails on (a, b, d)"
    assert naive_jacobi(table, basis) == ("a", "b", "d")


def test_jacobi_check_matches_naive_cyclic_sum():
    outcomes = Counter()
    for seed in range(120):
        rng = random.Random(seed)
        if seed >= 60:
            kind = ("nearly", "ungraded")[seed % 2]
            basis, layers, table = random_layered_table(rng, kind)
        elif seed % 2:
            basis, layers, table = random_layered_table(rng, "graded")
        else:
            basis, table = random_table(rng, rng.randint(2, 6))
            layers = [basis]
        result = jacobi_check(GradedLieAlgebra("random", basis, layers, table))
        failing = naive_jacobi(table, basis)
        assert result.ok == (failing is None)
        if failing is not None:
            assert result.detail == "jacobi fails on (%s, %s, %s)" % failing
        outcomes[result.ok] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10


def test_stratification_legs_force_the_lower_central_series():
    # grading and generation alone decide stratification: whenever both hold,
    # the series has the declared layers as quotients
    outcomes = Counter()
    for seed in range(150):
        rng = random.Random(seed)
        kind = ("graded", "nearly", "ungraded")[seed % 3]
        algebra = GradedLieAlgebra("random", *random_layered_table(rng, kind))
        result = stratification_check(algebra)
        if result:
            sizes = [len(layer) for layer in algebra.layers]
            want = [sum(sizes[j:]) for j in range(len(sizes) + 1)]
            assert [s.dim for s in lower_central_series(algebra)] == want
            assert len(lower_central_series(algebra)) - 1 == algebra.declared_degree
            outcomes["pass"] += 1
        elif result.detail.startswith("bracket ["):
            assert "grading requires layer" in result.detail
            outcomes["grading"] += 1
        else:
            assert result.detail.startswith("[V_1, V_")
            outcomes["generation"] += 1
    assert min(outcomes[k] for k in ("pass", "grading", "generation")) >= 10


# -- the validity gate --------------------------------------------------------

GATE_ENTRY_POINTS = {
    "lattice": build_scalable_lattice,
    "pittet": pittet_kernel,
    "trichotomy": lambda a: trichotomy_report(Subspace.from_labels(a, ["a"])),
    "bundle": lambda a: HypothesisBundle(Subspace.from_labels(a, ["a"])),
}


@pytest.mark.parametrize(
    "entry_point", GATE_ENTRY_POINTS.values(), ids=list(GATE_ENTRY_POINTS)
)
@pytest.mark.parametrize("case", GATE_CASES.values(), ids=list(GATE_CASES))
def test_every_verdict_raises_the_gate_error(entry_point, case):
    name, basis, layers, table, detail = case
    algebra = GradedLieAlgebra(name, basis, layers, table)
    with pytest.raises(InputError) as raised:
        entry_point(algebra)
    assert str(raised.value) == "not a stratified Lie algebra: " + detail


@pytest.mark.parametrize("case", GATE_CASES.values(), ids=list(GATE_CASES))
def test_the_closed_forms_raise_the_gate_error(case):
    # they used to evaluate the layer formulas on a table that is not a
    # stratified algebra
    name, basis, layers, table, detail = case
    algebra = GradedLieAlgebra(name, basis, layers, table)
    with pytest.raises(InputError) as raised:
        two_step_closed_forms(algebra, 0, 1)
    assert str(raised.value) == "not a stratified Lie algebra: " + detail


def test_validity_is_the_two_checks_computed_once(monkeypatch):
    calls = Counter()

    def counting(check):
        def counted(algebra):
            calls[check.__name__] += 1
            return check(algebra)
        return counted

    monkeypatch.setattr(algebra_module, "jacobi_check", counting(jacobi_check))
    monkeypatch.setattr(
        algebra_module, "stratification_check", counting(stratification_check)
    )
    entry = build("heisenberg_h:1")
    entry.algebra.require_valid()
    pittet_kernel(entry.algebra)
    build_scalable_lattice(entry.algebra)
    assert calls == {"jacobi_check": 1, "stratification_check": 1}
    assert entry.algebra.validity() == (
        jacobi_check(entry.algebra),
        stratification_check(entry.algebra),
    )
    assert calls == {"jacobi_check": 1, "stratification_check": 1}


def test_an_invalid_table_builds_without_running_the_gate(monkeypatch):
    def unused(algebra):
        raise AssertionError("the gate ran at construction")

    monkeypatch.setattr(algebra_module, "jacobi_check", unused)
    monkeypatch.setattr(algebra_module, "stratification_check", unused)
    for name, basis, layers, table, _ in GATE_CASES.values():
        GradedLieAlgebra(name, basis, layers, table)


def test_lower_central_series_dimensions():
    series = lower_central_series(build("heisenberg_h:1").algebra)
    assert [s.dim for s in series] == [7, 3, 0]
    series = lower_central_series(unipotent(4).algebra)
    assert [s.dim for s in series] == [6, 3, 1, 0]


@pytest.mark.parametrize("key", ["unipotent:5", "heisenberg_h:2", "transported"])
def test_lower_central_series_matches_naive_brackets_and_rref(key):
    # g_{j+1} = naive_rref of every [b, x] for b a unit row and x a row of
    # g_j, by ``naive_bracket`` on the label-keyed table
    if key == "transported":
        layers = catalog_labels("unipotent:4")[0]
        base = catalog_label_brackets("unipotent:4")
        table, _ = graded_transport(base, layers, random.Random(11))
        basis = [label for layer in layers for label in layer]
        algebra = GradedLieAlgebra(key, basis, layers, table)
        assert algebra.denominator > 1
    else:
        table, algebra = catalog_label_brackets(key), build(key).algebra
        basis = list(algebra.basis)
    n = len(basis)
    unit = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
    chain = [naive_rref(unit)]
    while chain[-1]:
        images = [naive_bracket(table, basis, b, x) for x in chain[-1] for b in unit]
        chain.append(naive_rref(images))
    assert [s.integer_rows for s in lower_central_series(algebra)] == [
        tuple(map(linalg.numerators, rows)) for rows in chain
    ]


def test_lower_central_series_builds_no_dense_row(monkeypatch):
    algebra = unipotent(5).algebra
    expected = [s.integer_rows for s in lower_central_series(algebra)]
    monkeypatch.setattr(linalg, "densify", dense_row_read)
    assert [s.integer_rows for s in lower_central_series(algebra)] == expected


def test_nilpotency_degree_matches_declared():
    for key in ["heisenberg_c:2", "heisenberg_o:1", "unipotent:5", "abelian:4"]:
        algebra = build(key).algebra
        assert len(lower_central_series(algebra)) - 1 == algebra.declared_degree


def test_non_nilpotent_raises():
    algebra = GradedLieAlgebra(
        "affine", ["a", "b"], [["a", "b"]], {("a", "b"): {"b": 1}}
    )
    with pytest.raises(InputError, match="lower central series stabilises"):
        lower_central_series(algebra)


# -- dimensions and dilations ------------------------------------------------


@pytest.mark.parametrize(
    "key,expected",
    [
        ("heisenberg_c:1", 4),
        ("heisenberg_c:3", 8),
        ("heisenberg_h:1", 10),
        ("heisenberg_h:2", 14),
        ("heisenberg_h:3", 18),
        ("heisenberg_o:1", 22),
        ("heisenberg_o:2", 30),
        ("heisenberg_o:3", 38),
        ("unipotent:4", 10),
        ("abelian:5", 5),
    ],
)
def test_hausdorff_dimension_formula(key, expected):
    assert hausdorff_dimension(build(key).algebra) == expected


def test_dilation_scales_by_layer_weight():
    algebra = build("heisenberg_c:1").algebra
    d = Dilation(algebra, 3)
    v = algebra.vector({"j1": 1, "K": 1})
    assert d(v) == algebra.vector({"j1": 3, "K": 9})


def test_dilation_rejects_zero():
    with pytest.raises(InputError):
        Dilation(build("abelian:2").algebra, F(0))


coords7 = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=7, max_size=7
)
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(
    lambda t: t != 0
)


@settings(max_examples=50, deadline=None)
@given(coords7, coords7, scalars)
def test_dilation_is_a_bracket_homomorphism(x, y, t):
    algebra = build("heisenberg_h:1").algebra
    d = Dilation(algebra, t)
    assert algebra.bracket(d(x), d(y)) == d(algebra.bracket(x, y))


@settings(max_examples=30, deadline=None)
@given(scalars, scalars)
def test_dilation_composition(s, t):
    algebra = build("unipotent:4").algebra
    v = algebra.vector({"E12": 1, "E13": 2, "E14": 3})
    assert Dilation(algebra, s)(Dilation(algebra, t)(v)) == Dilation(algebra, s * t)(v)


@settings(max_examples=50, deadline=None)
@given(coords7, coords7, coords7)
def test_jacobi_identity_on_random_vectors(x, y, z):
    algebra = build("heisenberg_h:1").algebra
    br = algebra.bracket
    total = [
        a + b + c
        for a, b, c in zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))
    ]
    assert all(c == 0 for c in total)


# -- subspaces ----------------------------------------------------------------


def test_subspace_canonical_rows():
    algebra = build("heisenberg_h:2").algebra
    h1, h2 = algebra.basis_vector("h1"), algebra.basis_vector("h2")
    plus = [F(1) * a + F(1) * b for a, b in zip(h1, h2)]
    minus = [F(1) * a - F(1) * b for a, b in zip(h1, h2)]
    assert Subspace(algebra, [plus, minus]) == Subspace.from_labels(algebra, ["h1", "h2"])


def test_subspace_contains_and_horizontal():
    algebra = build("heisenberg_h:1").algebra
    s = Subspace.from_labels(algebra, ["h1"])
    assert s.is_horizontal()
    assert not Subspace.from_labels(algebra, ["I"]).is_horizontal()


def test_subspace_rejects_short_zero_row():
    algebra = build("heisenberg_h:1").algebra
    with pytest.raises(InputError):
        Subspace(algebra, [[0, 0]])
    with pytest.raises(InputError):
        Subspace(algebra, [algebra.basis_vector("h1"), [0] * (algebra.dimension + 1)])


def test_subspace_coordinate_labels():
    algebra = build("heisenberg_h:2").algebra
    assert Subspace.from_labels(algebra, ["h2", "h1"]).coordinate_labels() == (
        "h1",
        "h2",
    )
    h1, i1 = algebra.basis_vector("h1"), algebra.basis_vector("i1")
    mixed = Subspace(algebra, [[a + b for a, b in zip(h1, i1)]])
    assert mixed.coordinate_labels() is None


@pytest.mark.parametrize("seed", range(3))
def test_from_labels_is_the_reduced_span_of_its_unit_vectors(seed):
    rng = random.Random(seed)
    for entry in default_entries():
        algebra = entry.algebra
        basis = list(algebra.basis)
        # shuffled, with repeats
        labels = rng.sample(basis, rng.randint(1, len(basis)))
        labels += rng.choices(labels, k=rng.randint(0, 3))
        rng.shuffle(labels)
        quick = Subspace.from_labels(algebra, labels)
        eliminated = Subspace(algebra, [algebra.basis_vector(l) for l in labels])
        assert quick == eliminated
        assert quick.integer_rows == eliminated.integer_rows
        assert hash(quick) == hash(eliminated)
        distinct = sorted(set(labels), key=algebra.index)
        assert quick.coordinate_labels() == tuple(distinct)


def sample_subspaces(seed):
    """Every default designated subspace, and per default entry a seeded
    ``from_labels`` span and two seeded sets of dense rational rows, one on
    the first layer and one anywhere; a row with one nonzero entry reduces
    to a unit row."""
    rng = random.Random(seed)
    for entry in default_entries():
        algebra = entry.algebra
        n = algebra.dimension
        if entry.designated_subspace is not None:
            yield entry.designated_subspace
        labels = rng.sample(algebra.basis, rng.randint(1, n))
        yield Subspace.from_labels(algebra, labels)
        for support in (list(algebra.layers[0]), list(range(n))):
            rows = []
            for _ in range(rng.randint(1, 4)):
                row = [F(0)] * n
                for i in rng.sample(support, rng.randint(1, min(3, len(support)))):
                    row[i] = F(rng.randint(-3, 3), rng.randint(1, 4))
                rows.append(row)
            yield Subspace(algebra, rows)


def dense_rows(s):
    """The integer rows of ``s`` divided out into dense Fraction rows."""
    n = s.algebra.dimension
    return tuple(linalg.densify(w, n, pivot) for w, pivot in s.integer_rows)


@pytest.mark.parametrize("seed", range(3))
def test_integer_rows_are_the_numerators_of_the_reduced_rows(seed):
    for s in sample_subspaces(seed):
        rows = dense_rows(s)
        assert naive_rref(rows) == rows
        assert s.integer_rows == tuple(map(linalg.numerators, rows))
        for w, pivot in s.integer_rows:
            assert pivot == w[min(w)] > 0 and math.gcd(*w.values()) == 1


@pytest.mark.parametrize("seed", range(6))
def test_integer_rows_from_the_elimination_match_naive_rref(seed):
    # rows with negative entries over the coprime denominators 7, 11 and
    # 13, half of them zero so that the pivots come in any order, plus
    # redundant rows: a combination of two of them and zero
    rng = random.Random(seed)
    algebra = build(rng.choice(["heisenberg_h:1", "unipotent:4", "abelian:5"])).algebra
    n = algebra.dimension
    rows = [
        [
            F(rng.randint(-9, 9), rng.choice((7, 11, 13))) * rng.randint(0, 1)
            for _ in range(n)
        ]
        for _ in range(rng.randint(1, n))
    ]
    rows += [[F(-2, 3) * a + b for a, b in zip(rows[0], rows[-1])], [F(0)] * n]
    rng.shuffle(rows)
    s = Subspace(algebra, rows)
    assert s.integer_rows == tuple(map(linalg.numerators, naive_rref(rows)))


@pytest.mark.parametrize("seed", range(3))
def test_horizontal_and_coordinate_tests_match_a_dense_scan(seed):
    seen = Counter()
    for s in sample_subspaces(seed):
        algebra = s.algebra
        horizontal = naive_is_horizontal(dense_rows(s), algebra.layers[0])
        labels = naive_coordinate_labels(dense_rows(s), algebra.basis)
        assert s.is_horizontal() == horizontal
        assert s.coordinate_labels() == labels
        seen[horizontal, labels is None] += 1
    # each outcome of both tests is reached
    assert len(seen) == 4


def test_horizontal_and_coordinate_tests_read_no_dense_row(monkeypatch):
    algebra = build("heisenberg_h:2").algebra
    h1, i1 = algebra.basis_vector("h1"), algebra.basis_vector("i1")
    for s in (
        Subspace(algebra, [[2 * a for a in h1], [a - b for a, b in zip(h1, i1)]]),
        Subspace(algebra, [[a + b for a, b in zip(h1, algebra.basis_vector("I"))]]),
    ):
        expected = s.is_horizontal(), s.coordinate_labels()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "densify", dense_row_read)
            assert (s.is_horizontal(), s.coordinate_labels()) == expected


def dense_row_read(*args):
    raise AssertionError("a dense row of the subspace was built")


def test_equal_spans_compare_and_hash_equal():
    # the same spans from other spanning rows, each built both ways where a
    # span of basis vectors allows it; distinct spans stay distinct
    algebra = build("heisenberg_h:1").algebra
    h1, i1, j1 = (algebra.basis_vector(l) for l in ("h1", "i1", "j1"))

    def comb(*terms):
        return [sum((F(c) * v[k] for c, v in terms), F(0)) for k in range(len(h1))]

    spans = [
        [
            Subspace.from_labels(algebra, ["i1", "h1"]),
            Subspace(algebra, [comb((3, h1)), comb((-1, i1), (2, h1))]),
            Subspace(algebra, [comb((F(1, 2), h1), (1, i1)), comb((1, h1), (-1, i1))]),
        ],
        [
            Subspace(algebra, [comb((1, h1), (F(2, 3), j1)), comb((1, i1))]),
            Subspace(algebra, [comb((3, h1), (2, j1), (1, i1)), comb((-5, i1))]),
        ],
        [Subspace.from_labels(algebra, []), Subspace(algebra, [comb()])],
    ]
    for group in spans:
        for s in group:
            assert s == group[0] and hash(s) == hash(group[0])
            assert s.integer_rows == group[0].integer_rows
    assert len({s for group in spans for s in group}) == len(spans)
    first, second, zero = (group[0] for group in spans)
    assert first != second != zero != first


def test_require_two_step_returns_the_layers():
    heisenberg = build("heisenberg_h:1").algebra
    assert require_two_step(heisenberg, "x") == heisenberg.layers
    abelian = build("abelian:3").algebra
    assert require_two_step(abelian, "x") == (abelian.layers[0], ())
    with pytest.raises(InputError, match="^x needs a 2-step algebra, got 3 layers$"):
        require_two_step(build("unipotent:4").algebra, "x")


def test_subspace_unknown_label():
    with pytest.raises(InputError):
        Subspace.from_labels(build("abelian:2").algebra, ["nope"])
