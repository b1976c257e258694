"""Invariant forms: wedge, differential, cube forms, closed-pair kernel."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import (
    GradedLieAlgebra,
    InputError,
    InvariantForm,
    Subspace,
    build,
    check_cube_closed,
    cube_form,
    differential,
    form_from_dict,
    form_to_dict,
    hausdorff_dimension,
    pittet_kernel,
    scaling_weight,
    wedge,
)
from carnot import forms, linalg
from carnot.catalog import default_entries
from helpers import (
    basis_tuples,
    coprime_table,
    dense_kernel,
    free_two_step,
    graded_transport,
    label_table,
    naive_differential_value,
    naive_evaluate,
    naive_nullspace,
    random_form,
    random_layered_table,
    random_table,
)

F = Fraction


def dual(algebra, label):
    return InvariantForm.dual(algebra, label)


# -- evaluation and wedge -------------------------------------------------------


def test_dual_pairing():
    algebra = build("heisenberg_c:1").algebra
    k = dual(algebra, "K")
    assert k.evaluate([algebra.basis_vector("K")]) == 1
    assert k.evaluate([algebra.basis_vector("j1")]) == 0


def test_wedge_on_dual_basis_is_determinant():
    algebra = build("heisenberg_h:1").algebra
    omega = wedge(dual(algebra, "h1"), dual(algebra, "i1"))
    h1, i1 = algebra.basis_vector("h1"), algebra.basis_vector("i1")
    assert omega.evaluate([h1, i1]) == 1
    assert omega.evaluate([i1, h1]) == -1
    mixed = [a + b for a, b in zip(h1, i1)]
    assert omega.evaluate([mixed, mixed]) == 0


@pytest.mark.parametrize("which", ["heisenberg_h:2", "coprime"])
def test_evaluate_matches_the_leibniz_sum(which):
    # random rational forms on random rational vectors, zeros included, on
    # a catalog algebra and on the D = 1001 table
    if which == "coprime":
        algebra = GradedLieAlgebra(which, *coprime_table())
    else:
        algebra = build(which).algebra
    rng = random.Random(which)
    n = algebra.dimension
    for degree in range(1, 5):
        for _ in range(25):
            form = random_form(rng, algebra, degree, 4, denominators=(1, 3, 4, 7))
            vectors = [
                [F(rng.randint(-5, 5) * (rng.random() < 0.6), rng.randint(1, 6))
                 for _ in range(n)]
                for _ in range(degree)
            ]
            value = form.evaluate(vectors)
            assert type(value) is Fraction
            assert value == naive_evaluate(form, vectors)


def test_wedge_square_is_zero():
    algebra = build("abelian:3").algebra
    x = dual(algebra, "x1")
    assert x.wedge(x).is_zero()


def test_wedge_beyond_top_degree_is_zero():
    algebra = build("abelian:2").algebra
    top = wedge(dual(algebra, "x1"), dual(algebra, "x2"))
    assert top.wedge(dual(algebra, "x1")).is_zero()


def test_form_arithmetic():
    algebra = build("abelian:3").algebra
    a, b = dual(algebra, "x1"), dual(algebra, "x2")
    assert (a + b) - b == a
    assert (-2 * a).evaluate([algebra.basis_vector("x1")]) == -2


def test_zero_forms_of_every_degree_hash_alike():
    algebra = build("heisenberg_c:1").algebra
    zeros = [InvariantForm(algebra, d, {}) for d in (1, 2, 3)]
    assert zeros[1] == zeros[2]
    assert len(set(zeros)) == 1
    one = dual(algebra, "j1")
    assert len({one, 1 * one, one - one + one}) == 1


@pytest.mark.parametrize(
    "degree, mono",
    [(True, (0,)), (1.0, (0,)), ("1", (0,)), (1, (True,)), (1, (0.0,)), (1, ("0",))],
)
def test_form_rejects_non_integer_degree_and_indices(degree, mono):
    # the checks live in the constructor, so library callers meet them too
    algebra = build("abelian:3").algebra
    with pytest.raises(InputError):
        InvariantForm(algebra, degree, {mono: 1})


def test_form_rejects_float_coefficients():
    algebra = build("abelian:3").algebra
    with pytest.raises(InputError):
        InvariantForm(algebra, 1, {(0,): 0.1})
    with pytest.raises(InputError):
        0.1 * dual(algebra, "x1")


def test_form_sums_keys_that_name_one_monomial():
    algebra = build("abelian:3").algebra
    form = InvariantForm(algebra, 2, {(0, 1): F(1, 2), range(0, 2): "1/3"})
    assert form.terms == {(0, 1): F(5, 6)}
    cancelled = InvariantForm(algebra, 2, {(0, 1): 2, range(0, 2): -2, (1, 2): 1})
    assert cancelled.terms == {(1, 2): 1}
    assert InvariantForm(algebra, 2, {(0, 1): 1, range(0, 2): -1}).is_zero()


small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_wedge_graded_anticommutativity(data):
    algebra = build("heisenberg_h:1").algebra
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = data.draw(st.integers(1, 2))
    q = data.draw(st.integers(1, 2))
    a = random_form(rng, algebra, p)
    b = random_form(rng, algebra, q)
    assert a.wedge(b) == (-1) ** (p * q) * b.wedge(a)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_coeff, min_size=7, max_size=7), st.integers(0, 10**6))
def test_evaluate_is_alternating(coords, seed):
    algebra = build("heisenberg_h:1").algebra
    rng = random.Random(seed)
    form = random_form(rng, algebra, 3)
    basis = [algebra.basis_vector(i) for i in rng.sample(range(7), 2)]
    v = tuple(F(c) for c in coords)
    assert form.evaluate([v, basis[0], basis[1]]) == -form.evaluate(
        [basis[0], v, basis[1]]
    )
    assert form.evaluate([v, v, basis[1]]) == 0


def test_form_arithmetic_refuses_mismatched_operands():
    algebra, other = build("heisenberg_c:1").algebra, build("heisenberg_c:2").algebra
    j, k = dual(algebra, "j1"), dual(algebra, "k1")
    cases = [
        (lambda: j + dual(other, "j1"), "forms live on different algebras"),
        (lambda: j.wedge(dual(other, "j1")), "forms live on different algebras"),
        (lambda: j + j.wedge(k), "cannot add forms of different degree"),
        (
            lambda: j.wedge(k).evaluate([algebra.basis_vector("j1")]),
            "form of degree 2 applied to 1 vectors",
        ),
        (lambda: wedge(), "wedge of nothing"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "factors", [(5,), ("j1", 5), (5, "j1"), ("j1", None, "k1")],
    ids=["lone-int", "int-last", "int-first", "none-between"],
)
def test_every_wedge_factor_is_a_form(factors):
    # wedge(5) used to return 5, and a later non-form raised AttributeError
    algebra = build("heisenberg_c:1").algebra
    factors = [dual(algebra, f) if isinstance(f, str) else f for f in factors]
    with pytest.raises(InputError) as info:
        wedge(*factors)
    assert str(info.value) == "wedge factors must be InvariantForms"


# -- differential against the defining sum ---------------------------------------


DIFFERENTIAL_KEYS = ["heisenberg_c:1", "heisenberg_h:1", "unipotent:4", "unipotent:5"]


@pytest.mark.parametrize("key", DIFFERENTIAL_KEYS)
def test_differential_of_duals_matches_defining_sum(key):
    algebra = build(key).algebra
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    for i in range(algebra.dimension):
        form = InvariantForm.dual(algebra, i)
        d = differential(form)
        for pair in basis_tuples(algebra, 2):
            vectors = [basis[t] for t in pair]
            assert d.evaluate(vectors) == naive_differential_value(form, vectors)


@pytest.mark.parametrize("key", DIFFERENTIAL_KEYS)
@pytest.mark.parametrize("degree", [2, 3])
def test_differential_of_random_forms_matches_defining_sum(key, degree):
    algebra = build(key).algebra
    rng = random.Random(sum(ord(c) for c in key) * 10 + degree)
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    for _ in range(12):
        form = random_form(rng, algebra, degree)
        d = differential(form)
        tuples = list(basis_tuples(algebra, degree + 1))
        sample = tuples if len(tuples) <= 40 else rng.sample(tuples, 40)
        for combo in sample:
            vectors = [basis[t] for t in combo]
            assert d.evaluate(vectors) == naive_differential_value(form, vectors)


@pytest.mark.parametrize("seed", range(6))
def test_differential_with_rational_constants_matches_defining_sum(seed):
    rng = random.Random(seed)
    basis, table = random_table(rng, rng.randint(3, 6))
    tables = [
        coprime_table(),
        random_layered_table(rng, "graded"),
        random_layered_table(rng, "ungraded"),
        (basis, [basis], table),
    ]
    for basis, layers, table in tables:
        algebra = GradedLieAlgebra("rational", basis, layers, table)
        vectors = [algebra.basis_vector(i) for i in range(algebra.dimension)]
        for degree in range(1, min(3, algebra.dimension - 1) + 1):
            form = random_form(rng, algebra, degree, denominators=(2, 3, 5, 9))
            d = differential(form)
            assert all(type(c) is Fraction for c in d.terms.values())
            tuples = list(basis_tuples(algebra, degree + 1))
            sample = tuples if len(tuples) <= 60 else rng.sample(tuples, 60)
            for combo in sample:
                args = [vectors[t] for t in combo]
                assert d.evaluate(args) == naive_differential_value(form, args)


def test_differential_drops_monomials_whose_sum_cancels():
    # d z* = (1/14) a*^b* + (5/26) a*^c* and d y* = (1/11) a*^b*, so
    # (2/11) z* - (1/7) y* cancels on a*^b*: E = 77 and D = 1001
    algebra = GradedLieAlgebra("coprime", *coprime_table())
    idx = algebra.index
    form = InvariantForm(algebra, 1, {(idx("z"),): F(2, 11), (idx("y"),): F(-1, 7)})
    d = differential(form)
    assert d.terms == {(idx("a"), idx("c")): F(5, 143)}
    assert all(type(c) is Fraction for c in d.terms.values())
    assert differential(InvariantForm.dual(algebra, "z")).terms == {
        (idx("a"), idx("b")): F(1, 14),
        (idx("a"), idx("c")): F(5, 26),
    }


def test_differential_mixed_layer_example():
    # d of the second-layer dual covectors, quaternionic case
    algebra = build("heisenberg_h:1").algebra
    idx = algebra.index
    d_i = differential(dual(algebra, "I"))
    assert d_i.terms == {
        (idx("h1"), idx("i1")): F(-1, 2),
        (idx("j1"), idx("k1")): F(-1, 2),
    }
    d_j = differential(dual(algebra, "J"))
    assert d_j.terms == {
        (idx("h1"), idx("j1")): F(-1, 2),
        (idx("i1"), idx("k1")): F(1, 2),
    }


def test_differential_complex_center():
    algebra = build("heisenberg_c:1").algebra
    idx = algebra.index
    assert differential(dual(algebra, "K")).terms == {
        (idx("j1"), idx("k1")): F(-1, 2)
    }


def test_coefficients_are_evaluations_on_basis_tuples():
    algebra = build("unipotent:4").algebra
    rng = random.Random(9)
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    for degree in (1, 2, 3):
        form = random_form(rng, algebra, degree)
        d = differential(form)
        for mono in basis_tuples(algebra, degree + 1):
            coeff = d.terms.get(tuple(mono), F(0))
            assert coeff == d.evaluate([basis[t] for t in mono])


@pytest.mark.parametrize("key", ["heisenberg_h:2", "heisenberg_o:1", "unipotent:5"])
def test_differential_squares_to_zero(key):
    algebra = build(key).algebra
    rng = random.Random(len(key))
    for degree in (1, 2, 3):
        for _ in range(8):
            form = random_form(rng, algebra, degree)
            assert differential(differential(form)).is_zero()


def test_top_degree_differential_is_zero():
    algebra = build("heisenberg_c:1").algebra
    top = wedge(dual(algebra, "j1"), dual(algebra, "k1"), dual(algebra, "K"))
    assert differential(top).is_zero()


# -- scaling weight ---------------------------------------------------------------


def test_scaling_weight_by_layer():
    algebra = build("heisenberg_h:1").algebra
    assert scaling_weight(dual(algebra, "h1")).uniform == 1
    assert scaling_weight(dual(algebra, "I")).uniform == 2
    mixed = dual(algebra, "h1") + dual(algebra, "I")
    weight = scaling_weight(mixed)
    assert weight.uniform is None
    assert dict(weight.by_monomial) == {
        (algebra.index("h1"),): 1,
        (algebra.index("I"),): 2,
    }


def test_scaling_weight_of_zero_form_rejected():
    algebra = build("abelian:2").algebra
    zero = dual(algebra, "x1") - dual(algebra, "x1")
    with pytest.raises(InputError):
        scaling_weight(zero)


@settings(max_examples=30, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(lambda t: t != 0),
    st.integers(0, 10**6),
)
def test_uniform_weight_matches_dilation_action(t, seed):
    from carnot import Dilation

    algebra = build("heisenberg_h:1").algebra
    rng = random.Random(seed)
    form = wedge(dual(algebra, "I"), dual(algebra, rng.choice(["h1", "i1", "j1"])))
    weight = scaling_weight(form).uniform
    d = Dilation(algebra, t)
    vectors = [tuple(F(rng.randint(-2, 2)) for _ in range(7)) for _ in range(2)]
    assert form.evaluate([d(v) for v in vectors]) == t**weight * form.evaluate(vectors)


# -- cube forms --------------------------------------------------------------------


def cube_setup(key, labels):
    algebra = build(key).algebra
    return algebra, Subspace.from_labels(algebra, labels)


def test_cube_form_is_monomial_with_expected_factors():
    algebra, s = cube_setup("heisenberg_h:1", ["h1"])
    form = cube_form(algebra, 1, ["h1", "i1", "j1", "k1", "I", "J", "K"])
    assert form.degree == 6
    assert len(form.terms) == 1
    (mono,) = form.terms
    assert algebra.index("h1") not in mono


def test_cube_form_order_must_be_a_permutation():
    algebra, _ = cube_setup("heisenberg_h:1", ["h1"])
    with pytest.raises(InputError):
        cube_form(algebra, 1, ["h1", "h1", "j1", "k1", "I", "J", "K"])


def test_cube_form_requires_horizontal_prefix():
    algebra, _ = cube_setup("heisenberg_h:1", ["h1"])
    with pytest.raises(InputError):
        cube_form(algebra, 2, ["h1", "I", "i1", "j1", "k1", "J", "K"])


def test_cube_form_signs_the_kept_order_by_its_inversions():
    # the monomial is the sorted kept order, with the sign of the permutation
    # that sorts it: one swap makes it odd
    algebra, _ = cube_setup("heisenberg_c:1", ["j1"])
    assert cube_form(algebra, 0, ["j1", "k1", "K"]).terms == {(0, 1, 2): F(1)}
    assert cube_form(algebra, 0, ["k1", "j1", "K"]).terms == {(0, 1, 2): F(-1)}
    assert cube_form(algebra, 1, ["j1", "K", "k1"]).terms == {(1, 2): F(-1)}
    assert cube_form(algebra, 0, ["K", "k1", "j1"]).terms == {(0, 1, 2): F(-1)}
    assert cube_form(algebra, 0, ["k1", "K", "j1"]).terms == {(0, 1, 2): F(1)}


OMIT_V1 = "omit must be between 0 and dim V1"
CUBE_ARGUMENT_ERRORS = [
    (
        lambda a, s: cube_form(a, 0, ["j1", "k1"]),
        "order must be a permutation of the basis",
    ),
    (
        lambda a, s: cube_form(a, 3, ["j1", "k1", "K"]),
        "omit must be between 0 and dim V1",
    ),
    (
        lambda a, s: cube_form(a, -1, ["j1", "k1", "K"]),
        "omit must be between 0 and dim V1",
    ),
    (
        lambda a, s: cube_form(a, 1, ["K", "j1", "k1"]),
        "omitted prefix contains the non-horizontal K",
    ),
    (
        lambda a, s: check_cube_closed(Subspace(a, [(1, 1, 0)]), 0),
        "cube ordering needs a span of basis vectors",
    ),
    (
        lambda a, s: check_cube_closed(Subspace.from_labels(a, ["K"]), 0),
        "subspace is not horizontal",
    ),
    (lambda a, s: check_cube_closed(s, 2), "omit must be between 0 and dim s"),
    (lambda a, s: check_cube_closed(s, -1), "omit must be between 0 and dim s"),
    (lambda a, s: check_cube_closed(s, True), "omit must be between 0 and dim s"),
    (lambda a, s: check_cube_closed(s, "1"), "omit must be between 0 and dim s"),
    (lambda a, s: check_cube_closed(s, 1.0), "omit must be between 0 and dim s"),
    (lambda a, s: cube_form(a, True, ["j1", "k1", "K"]), OMIT_V1),
    (lambda a, s: cube_form(a, "1", ["j1", "k1", "K"]), OMIT_V1),
    (lambda a, s: cube_form(a, 1.0, ["j1", "k1", "K"]), OMIT_V1),
]


def test_a_cube_form_that_keeps_no_covector_has_no_degree():
    algebra = build("abelian:2").algebra
    s = Subspace.from_labels(algebra, ["x1", "x2"])
    calls = (lambda: cube_form(algebra, 2, ["x1", "x2"]), lambda: check_cube_closed(s, 2))
    for call in calls:
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == "form degree must be an integer from 1 to 2"


@pytest.mark.parametrize("call, message", CUBE_ARGUMENT_ERRORS)
def test_cube_arguments_are_input_errors(call, message):
    algebra, s = cube_setup("heisenberg_c:1", ["j1"])
    with pytest.raises(InputError) as info:
        call(algebra, s)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key,labels",
    [
        ("heisenberg_h:1", ["h1"]),
        ("heisenberg_h:2", ["h1", "h2"]),
        ("heisenberg_h:3", ["h1", "h2", "h3"]),
        ("heisenberg_o:1", ["d1"]),
        ("heisenberg_o:2", ["d1", "d2"]),
    ],
)
def test_cube_forms_closed_up_to_subspace_dimension(key, labels):
    algebra, s = cube_setup(key, labels)
    for j in range(len(labels) + 1):
        assert check_cube_closed(s, j), (key, j)


def test_cube_closedness_needs_enough_omissions_to_fail():
    # complex case, both horizontal covectors in front: omitting one leaves
    # a closed form, omitting both exposes the center's differential
    algebra, s = cube_setup("heisenberg_c:1", ["j1", "k1"])
    assert check_cube_closed(s, 1)
    assert not check_cube_closed(s, 2)


def test_cube_scaling_weight_drops_by_omission_count():
    algebra, s = cube_setup("heisenberg_h:2", ["h1", "h2"])
    total = hausdorff_dimension(algebra)
    order = ["h1", "h2", "i1", "i2", "j1", "j2", "k1", "k2", "I", "J", "K"]
    for j in range(3):
        form = cube_form(algebra, j, order)
        assert scaling_weight(form).uniform == total - j


# -- closed combinations of (second layer, first layer) dual pairs ---------------


def brute_pair_kernel_dimension(algebra):
    """Second route: evaluate d of every generator on all basis triples."""
    basis = [algebra.basis_vector(i) for i in range(algebra.dimension)]
    triples = list(basis_tuples(algebra, 3))
    rows = []
    for y in algebra.layers[1]:
        for x in algebra.layers[0]:
            gen = wedge(
                InvariantForm.dual(algebra, y), InvariantForm.dual(algebra, x)
            )
            d = differential(gen)
            row = [
                naive_differential_value(gen, [basis[t] for t in combo])
                for combo in triples
            ]
            for combo, value in zip(triples, row):
                assert d.evaluate([basis[t] for t in combo]) == value
            rows.append(row)
    return len(rows) - len(linalg.reduced_rows(rows))


@pytest.mark.parametrize(
    "key,expected",
    [("heisenberg_c:1", 2), ("heisenberg_h:1", 8), ("heisenberg_o:1", 0)],
)
def test_pair_kernel_dimensions(key, expected):
    algebra = build(key).algebra
    report = pittet_kernel(algebra)
    assert report.kernel_dimension == brute_pair_kernel_dimension(algebra)
    assert report.kernel_dimension == expected
    assert len(report.pairs) == len(algebra.layers[0]) * len(algebra.layers[1])


def test_pair_kernel_members_are_closed():
    algebra = build("heisenberg_h:1").algebra
    report = pittet_kernel(algebra)
    gens = [
        wedge(dual(algebra, y), dual(algebra, x)) for y, x in report.pairs
    ]
    for coeffs in dense_kernel(report):
        combo = InvariantForm(algebra, 2, {})
        for c, gen in zip(coeffs, gens):
            combo = combo + c * gen
        assert differential(combo).is_zero()
        assert not combo.is_zero()


def test_pair_kernel_invariant_under_basis_permutation():
    from carnot import GradedLieAlgebra

    algebra = build("heisenberg_o:1").algebra
    order = list(range(algebra.dimension))
    rng = random.Random(3)
    first = [algebra.basis[i] for i in algebra.layers[0]]
    second = [algebra.basis[i] for i in algebra.layers[1]]
    rng.shuffle(first)
    rng.shuffle(second)
    table = label_table(algebra)
    shuffled = GradedLieAlgebra("shuffled", first + second, [first, second], table)
    assert pittet_kernel(shuffled).kernel_dimension == 0


def item_six_table():
    """[a, b] = z and [a, c] = z/3: the structure constants have D = 3."""
    basis = ["a", "b", "c", "z"]
    table = {("a", "b"): {"z": F(1)}, ("a", "c"): {"z": F(1, 3)}}
    return basis, [["a", "b", "c"], ["z"]], table


def public_column_kernel(algebra, pairs):
    """``naive_nullspace`` of the columns d(Y* ^ x*) of the public
    differential, one Fraction row per monomial."""
    columns = [
        differential(wedge(dual(algebra, y), dual(algebra, x))).terms
        for y, x in pairs
    ]
    monomials = sorted({m for column in columns for m in column})
    rows = [[column.get(m, F(0)) for column in columns] for m in monomials]
    return naive_nullspace(rows, len(columns)), len(rows)


@pytest.mark.parametrize("make", [item_six_table, coprime_table])
def test_pair_kernel_over_a_common_denominator(make):
    # the kernel read from integer columns equals the nullspace of the
    # columns of the public differential, each a Fraction form
    algebra = GradedLieAlgebra("rational", *make())
    assert algebra.denominator > 1
    report = pittet_kernel(algebra)
    assert dense_kernel(report) == public_column_kernel(algebra, report.pairs)[0]
    assert 0 < report.kernel_dimension < len(report.pairs)


def counted_kernel(algebra, monkeypatch):
    """``pittet_kernel`` and the number of rows it eliminated.  The validity
    gate's stratification leg extends a reduced basis too, so it runs, and
    is kept, before the counter goes in."""
    algebra.require_valid()
    calls = []
    extend = linalg.extend_reduced

    def counted(pivots, row):
        calls.append(row)
        return extend(pivots, row)

    monkeypatch.setattr(linalg, "extend_reduced", counted)
    return pittet_kernel(algebra), len(calls)


@pytest.mark.parametrize(
    "key, unread",
    [("heisenberg_o:1", 0), ("heisenberg_h:2", 20), ("heisenberg_c:2", 0)],
)
def test_pair_kernel_stops_at_full_column_rank(key, unread, monkeypatch):
    # octonionic and complex columns reach full rank on the last row
    algebra = build(key).algebra
    report, used = counted_kernel(algebra, monkeypatch)
    kernel, nrows = public_column_kernel(algebra, report.pairs)
    assert dense_kernel(report) == kernel == ()
    assert nrows - used == unread


@pytest.mark.parametrize("key", ["heisenberg_c:1", "heisenberg_h:1"])
def test_pair_kernel_with_closed_pairs_reads_every_row(key, monkeypatch):
    algebra = build(key).algebra
    report, used = counted_kernel(algebra, monkeypatch)
    kernel, nrows = public_column_kernel(algebra, report.pairs)
    assert dense_kernel(report) == kernel != ()
    assert used == nrows


@pytest.mark.parametrize("key, seed", [("heisenberg_h:1", 0), ("heisenberg_c:2", 1)])
def test_pair_kernel_after_a_graded_transport(key, seed):
    algebra = build(key).algebra
    table, layers = labelled(algebra)
    moved, _ = graded_transport(table, layers, random.Random("pittet/%d" % seed))
    image = GradedLieAlgebra(key, algebra.basis, layers, moved)
    assert image.denominator > 1
    report = pittet_kernel(image)
    assert dense_kernel(report) == public_column_kernel(image, report.pairs)[0]
    assert report.kernel_dimension == pittet_kernel(algebra).kernel_dimension


def labelled(algebra):
    """The label-keyed bracket table and the label layers of ``algebra``."""
    layers = [[algebra.basis[i] for i in layer] for layer in algebra.layers]
    return label_table(algebra), layers


def interleaved(key):
    """``key`` declared again over a basis alternating V1 and V2 labels."""
    table, layers = labelled(build(key).algebra)
    basis = [l for pair in itertools.zip_longest(*layers) for l in pair if l]
    assert basis != [l for layer in layers for l in layer]
    return GradedLieAlgebra(key, basis, layers, table)


def transported(key, seed):
    algebra = build(key).algebra
    table, layers = labelled(algebra)
    moved, _ = graded_transport(table, layers, random.Random("pittet/%d" % seed))
    return GradedLieAlgebra(key, algebra.basis, layers, moved)


def random_two_layer(count):
    """The first ``count`` seeded 2-layer graded tables with dim V1 = 3 that
    are stratified, [V1, V1] spanning V2; seed 51 is the first that is not
    (see ``test_pair_kernel_rejects_a_random_draw_that_is_not_stratified``)."""
    found = []
    for seed in itertools.count():
        basis, layers, table = random_layered_table(random.Random(seed), "graded")
        if len(layers) == 2 and len(layers[0]) == 3:
            algebra = GradedLieAlgebra("random%d" % seed, basis, layers, table)
            if all(algebra.validity()):
                found.append(algebra)
        if len(found) == count:
            return found


def test_pair_kernel_rejects_a_random_draw_that_is_not_stratified():
    # graded, but [V1, V1] spans 2 of the 3 dimensions of V2
    basis, layers, table = random_layered_table(random.Random(51), "graded")
    assert [len(layer) for layer in layers] == [3, 3]
    algebra = GradedLieAlgebra("random51", basis, layers, table)
    detail = "[V_1, V_1] spans a 2-dimensional space but layer 2 has dimension 3"
    with pytest.raises(InputError) as raised:
        pittet_kernel(algebra)
    assert str(raised.value) == "not a stratified Lie algebra: " + detail
    assert "random51" not in [a.name for a in random_two_layer(6)]


SMALL_TWO_STEP = [
    entry.key
    for entry in default_entries()
    if entry.algebra.declared_degree == 2
    and entry.algebra.dimension <= build("heisenberg_o:2").algebra.dimension
]


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda k=key: build(k).algebra, id=key) for key in SMALL_TWO_STEP]
    + [
        pytest.param(lambda: GradedLieAlgebra("six", *item_six_table()), id="six"),
        pytest.param(lambda: GradedLieAlgebra("coprime", *coprime_table()), id="coprime"),
        pytest.param(lambda: transported("heisenberg_h:1", 0), id="moved-h1"),
        pytest.param(lambda: transported("heisenberg_c:2", 1), id="moved-c2"),
        pytest.param(lambda: transported("heisenberg_o:1", 2), id="moved-o1"),
        pytest.param(lambda: interleaved("heisenberg_h:1"), id="interleaved-h1"),
        pytest.param(lambda: interleaved("heisenberg_c:2"), id="interleaved-c2"),
        pytest.param(lambda: GradedLieAlgebra("N5", *free_two_step(5)), id="N5"),
    ]
    + [
        pytest.param(lambda a=a: a, id=a.name) for a in random_two_layer(6)
    ],
)
def test_pair_kernel_matches_the_public_differential(make):
    # rows read off the adjacency span the same space as the columns of the
    # public differential, so the canonical kernel bases are equal; each
    # vector is kept as the (w, s) that ``numerators`` reads from the oracle
    # row, w sorted by column, and the report hashes without them
    algebra = make()
    report = pittet_kernel(algebra)
    kernel = public_column_kernel(algebra, report.pairs)[0]
    assert dense_kernel(report) == kernel
    assert report.kernel_basis == tuple(map(linalg.numerators, kernel))
    assert all(list(w) == sorted(w) for w, _ in report.kernel_basis)
    bare = forms.PittetReport(report.pairs, report.kernel_dimension, ())
    assert hash(report) == hash(bare)


def test_pair_kernel_rows_in_monomial_order(monkeypatch):
    differentials = []
    core = forms._integer_differential

    def spy(*args):
        differentials.append(args)
        return core(*args)

    monkeypatch.setattr(forms, "_integer_differential", spy)
    report, used = counted_kernel(build("heisenberg_o:3").algebra, monkeypatch)
    assert dense_kernel(report) == ()
    assert used == 363
    assert differentials == []


class CountedRows(tuple):
    """An adjacency that counts the rows read from it."""

    reads = 0

    def __getitem__(self, u):
        CountedRows.reads += 1
        return tuple.__getitem__(self, u)


def test_pair_kernel_work_follows_the_brackets(monkeypatch):
    # a real Heisenberg algebra times a 300-dimensional abelian factor: of
    # the C(302, 3) = 4,515,100 first-layer monomials only the 300 holding a
    # and b are nonzero rows, and the work stays linear in dim V1
    basis = ["a", "b"] + ["x%d" % i for i in range(300)] + ["y"]
    layers = [basis[:-1], ["y"]]
    algebra = GradedLieAlgebra("h x abelian", basis, layers, {("a", "b"): {"y": 1}})
    monkeypatch.setattr(algebra, "adjacency", CountedRows(algebra.adjacency))
    monkeypatch.setattr(CountedRows, "reads", 0)
    visited = []
    triples = forms._bracketing_triples

    def spy(*args):
        for triple in triples(*args):
            visited.append(triple)
            yield triple

    monkeypatch.setattr(forms, "_bracketing_triples", spy)
    report, used = counted_kernel(algebra, monkeypatch)
    assert len(visited) == used == 300
    assert CountedRows.reads < 16 * len(basis)
    assert dense_kernel(report) == tuple(
        tuple(F(int(i == k)) for i in range(302)) for k in (0, 1)
    )


UNGRADED = [
    # [a, b] = c brackets into the first layer
    (
        {("a", "b"): {"c": 1}},
        [["a", "b", "c"], ["z"]],
        "bracket [a, b] has a layer-1 component c; grading requires layer 2",
    ),
    # [a, z] = y brackets the second layer
    (
        {("a", "b"): {"z": 1}, ("a", "z"): {"y": 1}},
        [["a", "b", "c"], ["y", "z"]],
        "bracket [a, z] has a layer-2 component y; grading requires layer 3",
    ),
]


@pytest.mark.parametrize(
    "table, layers, detail", UNGRADED, ids=["table0-layers0", "table1-layers1"]
)
def test_pair_kernel_rejects_an_ungraded_table(table, layers, detail):
    basis = [l for layer in layers for l in layer]
    with pytest.raises(InputError) as raised:
        pittet_kernel(GradedLieAlgebra("ungraded", basis, layers, table))
    assert str(raised.value) == "not a stratified Lie algebra: " + detail


def test_pair_kernel_rejects_higher_degree():
    with pytest.raises(InputError):
        pittet_kernel(build("unipotent:4").algebra)


# -- serialization -----------------------------------------------------------------


def test_form_round_trip():
    algebra = build("heisenberg_h:1").algebra
    form = wedge(dual(algebra, "I"), dual(algebra, "h1")) + 3 * wedge(
        dual(algebra, "j1"), dual(algebra, "k1")
    )
    assert form_from_dict(algebra, form_to_dict(form)) == form


def test_form_from_dict_rejects_garbage():
    algebra = build("abelian:2").algebra
    with pytest.raises(InputError):
        form_from_dict(algebra, {"degree": "x", "terms": []})
    with pytest.raises(InputError):
        form_from_dict(
            algebra, {"degree": 2, "terms": [{"indices": [1, 0], "coeff": "1"}]}
        )
    with pytest.raises(InputError):
        form_from_dict(
            algebra, {"degree": 1, "terms": [{"indices": [0], "coeff": "0.5"}]}
        )


@pytest.mark.parametrize("seed", range(30))
def test_differential_terms_are_those_the_constructor_makes(seed):
    # the differential builds its result without the constructor's checks;
    # on a random table, which need not satisfy Jacobi, its terms must still
    # be what InvariantForm would keep: sorted, valid, zero-free Fractions
    rng = random.Random(seed)
    basis, table = random_table(rng, rng.randint(2, 7))
    algebra = GradedLieAlgebra("random", basis, [basis], table)
    degree = rng.randint(1, len(basis))
    f = random_form(rng, algebra, degree, max_terms=5, denominators=(1, 2, 3, 5))
    df = differential(f)
    assert df == InvariantForm(algebra, df.degree, df.terms)
    assert list(df.terms) == sorted(df.terms)
    assert all(type(c) is Fraction and c for c in df.terms.values())
    assert df.degree == min(degree + 1, len(basis))


@pytest.mark.parametrize("key", ["heisenberg_h:1", "heisenberg_o:1", "unipotent:5"])
def test_the_differential_squares_to_zero_on_random_forms(key):
    algebra = build(key).algebra
    rng = random.Random(key)
    for degree in (1, 2, 3):
        f = random_form(rng, algebra, degree, max_terms=6, denominators=(1, 2, 7))
        df = differential(f)
        assert list(df.terms) == sorted(df.terms)
        assert differential(df).is_zero()
