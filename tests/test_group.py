"""Exponential-coordinate group law and scalable integer lattices."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import (
    GradedLieAlgebra,
    GroupElement,
    InputError,
    LatticeSpec,
    build,
    build_scalable_lattice,
    check_group_closure,
    check_scaling_closure,
    default_entries,
    group_scaling,
    pittet_kernel,
    two_step_closed_forms,
)
from carnot import algebra as algebra_module, group as group_module, linalg
from carnot.algebra import jacobi_check

from helpers import (
    GATE_CASES,
    coprime_table,
    dense_generators,
    free_two_step,
    naive_group_closure,
    naive_inverse,
    naive_membership,
    naive_scaling_closure,
)

F = Fraction

coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def element(algebra, coords):
    return GroupElement(algebra, [F(c) for c in coords])


# -- group law ---------------------------------------------------------------------


def test_element_rejects_float_coordinates():
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError):
        GroupElement(algebra, [0.1, 0, 0])


def test_product_picks_up_half_bracket():
    algebra = build("heisenberg_c:1").algebra
    x = element(algebra, (3, 0, 0))
    y = element(algebra, (0, 5, 0))
    assert (x * y).coords == (F(3), F(5), F(-15, 2))
    assert (y * x).coords == (F(3), F(5), F(15, 2))


def test_identity_and_inverse():
    algebra = build("heisenberg_h:2").algebra
    e = GroupElement.identity(algebra)
    rng = random.Random(1)
    g = element(algebra, [rng.randint(-3, 3) for _ in range(algebra.dimension)])
    assert e * g == g
    assert g * e == g
    assert g * g.inverse() == e
    assert g.inverse() * g == e


def test_abelian_product_is_addition():
    algebra = build("abelian:4").algebra
    x = element(algebra, (1, 2, 3, 4))
    y = element(algebra, (5, 6, 7, 8))
    assert (x * y).coords == (F(6), F(8), F(10), F(12))
    assert x * y == y * x


def test_three_step_coordinates_rejected():
    algebra = build("unipotent:4").algebra
    with pytest.raises(InputError):
        GroupElement.identity(algebra)


def test_coordinates_of_the_wrong_length_are_an_input_error():
    algebra = build("heisenberg_c:1").algebra
    for coords in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(InputError) as info:
            GroupElement(algebra, coords)
        assert str(info.value) == "a vector needs 3 coefficients"


def test_lattice_generators_that_do_not_span_are_an_input_error():
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError) as info:
        LatticeSpec(algebra, ((1, 0, 0), (2, 0, 0), (0, 0, 1)))
    assert str(info.value) == "lattice generators must span the algebra"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_scalable_lattice(5), "a scalable lattice needs a GradedLieAlgebra"),
        (lambda: LatticeSpec(5, []), "a lattice needs a GradedLieAlgebra"),
        (lambda: GroupElement(5, [0]), "group coordinates needs a GradedLieAlgebra"),
        (lambda: pittet_kernel(5), "the pittet kernel needs a GradedLieAlgebra"),
        (lambda: two_step_closed_forms(5, 0, 1), "the closed forms needs a GradedLieAlgebra"),
        (lambda: check_group_closure(None), "the group closure needs a LatticeSpec"),
        (lambda: check_scaling_closure(None), "the scaling closure needs a LatticeSpec"),
        (lambda: group_scaling(5, 2), "group scaling needs a GroupElement"),
    ],
    ids=[
        "build_scalable_lattice",
        "LatticeSpec",
        "GroupElement",
        "pittet_kernel",
        "two_step_closed_forms",
        "check_group_closure",
        "check_scaling_closure",
        "group_scaling",
    ],
)
def test_an_object_of_another_kind_is_an_input_error(call, message):
    with pytest.raises(InputError) as raised:
        call()
    assert str(raised.value) == message


def test_multiply_rejects_mixed_groups():
    a = build("heisenberg_c:1").algebra
    b = build("heisenberg_c:2").algebra
    with pytest.raises(InputError):
        GroupElement.identity(a) * GroupElement.identity(b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_on_random_triples(data):
    algebra = build(
        data.draw(st.sampled_from(["heisenberg_c:1", "heisenberg_h:1", "abelian:3"]))
    ).algebra
    n = algebra.dimension
    x, y, z = (
        element(algebra, data.draw(st.lists(coord, min_size=n, max_size=n)))
        for _ in range(3)
    )
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(lambda t: t != 0),
    st.data(),
)
def test_scaling_is_a_group_homomorphism(t, data):
    algebra = build("heisenberg_o:1").algebra
    n = algebra.dimension
    x = element(algebra, data.draw(st.lists(coord, min_size=n, max_size=n)))
    y = element(algebra, data.draw(st.lists(coord, min_size=n, max_size=n)))
    assert group_scaling(t, x * y) == group_scaling(t, x) * group_scaling(t, y)


# -- scalable lattices --------------------------------------------------------------


def test_complex_lattice_generators():
    algebra = build("heisenberg_c:1").algebra
    spec = build_scalable_lattice(algebra)
    assert spec.integer_rows == (({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 2))
    assert dense_generators(spec) == (
        algebra.basis_vector("j1"),
        algebra.basis_vector("k1"),
        tuple(F(1, 2) * c for c in algebra.basis_vector("K")),
    )


def test_membership_integer_gate():
    algebra = build("heisenberg_c:1").algebra
    spec = build_scalable_lattice(algebra)
    assert spec.membership((F(1), F(1), F(-1, 2))) == (F(1), F(1), F(-1))
    assert spec.membership((F(0), F(0), F(1, 4))) is None


@pytest.mark.parametrize(
    "key",
    [
        "heisenberg_c:1",
        "heisenberg_c:2",
        "heisenberg_h:1",
        "heisenberg_o:1",
        "abelian:1",
        "abelian:5",
    ],
)
def test_lattice_closures(key):
    spec = build_scalable_lattice(build(key).algebra)
    group = check_group_closure(spec)
    scaling = check_scaling_closure(spec)
    assert group.ok, group.detail
    assert scaling.ok, scaling.detail


def test_generators_span_requirement():
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError):
        LatticeSpec(algebra, (algebra.basis_vector("j1"), algebra.basis_vector("k1")))


def test_three_step_lattice_rejected():
    with pytest.raises(InputError):
        build_scalable_lattice(build("unipotent:4").algebra)


def test_bracket_off_the_second_layer_is_kept():
    # [a, b] = a + z breaks the grading, which the validity gate reports
    algebra = GradedLieAlgebra(
        "leak",
        ["a", "b", "c", "y", "z"],
        [["a", "b", "c"], ["y", "z"]],
        {("a", "b"): {"z": 1, "a": 1}, ("b", "c"): {"y": 1}},
    )
    with pytest.raises(InputError) as raised:
        build_scalable_lattice(algebra)
    assert str(raised.value) == (
        "not a stratified Lie algebra: bracket [a, b] has a layer-1 "
        "component a; grading requires layer 2"
    )


def test_a_bracket_off_the_second_layer_after_it_is_spanned_is_rejected():
    # [a, b] = z makes the Hermite basis the identity on V2 at the first
    # pair, so the loop stops before [b, c] = b, which leaves V2; the 2-step
    # group law would then give a closure verdict for a law that fails, so
    # the validity gate must reject the table before the loop runs
    algebra = GradedLieAlgebra(
        "late-leak",
        ["a", "b", "c", "z"],
        [["a", "b", "c"], ["z"]],
        {("a", "b"): {"z": 1}, ("b", "c"): {"b": 1}},
    )
    with pytest.raises(InputError) as raised:
        build_scalable_lattice(algebra)
    assert str(raised.value) == "not a stratified Lie algebra: jacobi fails on (a, b, c)"


def test_a_second_layer_that_brackets_is_rejected():
    # [a, z] = y: the first-layer brackets span V2, but V2 is not central,
    # so the 2-step group law that the closures assume does not hold
    algebra = GradedLieAlgebra(
        "noncentral",
        ["a", "b", "c", "y", "z"],
        [["a", "b", "c"], ["y", "z"]],
        {("a", "b"): {"z": 1}, ("b", "c"): {"y": 1}, ("a", "z"): {"y": 1}},
    )
    with pytest.raises(InputError) as raised:
        build_scalable_lattice(algebra)
    assert str(raised.value) == (
        "not a stratified Lie algebra: bracket [a, z] has a layer-2 "
        "component y; grading requires layer 3"
    )


@pytest.mark.parametrize("case", GATE_CASES.values(), ids=list(GATE_CASES))
def test_the_group_law_constructors_raise_the_gate_error(case):
    # on ``late-leak`` the unit-row lattice used to fail its closure with
    # "a + b + 1/2*z", and b * c gave 3/2*b + c, by a law that does not hold
    name, basis, layers, table, detail = case
    algebra = GradedLieAlgebra(name, basis, layers, table)
    n = algebra.dimension
    units = [linalg.densify({i: 1}, n) for i in range(n)]
    constructors = (
        lambda: LatticeSpec(algebra, units),
        lambda: element(algebra, units[1]),
    )
    for construct in constructors:
        with pytest.raises(InputError) as raised:
            construct()
        assert str(raised.value) == "not a stratified Lie algebra: " + detail


def test_the_gate_runs_once_per_algebra_across_the_closures(monkeypatch):
    checked = []

    def counted(algebra):
        checked.append(algebra)
        return jacobi_check(algebra)

    monkeypatch.setattr(algebra_module, "jacobi_check", counted)
    makers = (
        sheared_spec,
        wide_center_spec,
        lambda: build_scalable_lattice(build("heisenberg_h:2").algebra),
    )
    for make in makers:
        spec = make()
        check_group_closure(spec)
        check_scaling_closure(spec)
        g = GroupElement(spec.algebra, dense_generators(spec)[-1])
        assert g * g.inverse() == GroupElement.identity(spec.algebra)
    # the failing closure of the first two multiplies generators as well
    assert len(checked) == len({id(a) for a in checked}) == len(makers)


def wide_center_spec():
    # 3/2 K instead of 1/2 K: dilation by 2 still lands in the span but
    # the product j1 * k1 needs -K/2, a third of the generator
    algebra = build("heisenberg_c:1").algebra
    return LatticeSpec(
        algebra,
        (
            algebra.basis_vector("j1"),
            algebra.basis_vector("k1"),
            tuple(F(3, 2) * c for c in algebra.basis_vector("K")),
        ),
    )


def skewed_spec():
    # j1 + K/3 absorbs products fine but squares to j1-coefficient 2 and
    # K-coefficient 4/3 under the dilation, off the integer span
    algebra = build("heisenberg_c:1").algebra
    skew = tuple(
        a + F(1, 3) * b
        for a, b in zip(algebra.basis_vector("j1"), algebra.basis_vector("K"))
    )
    return LatticeSpec(
        algebra,
        (
            skew,
            algebra.basis_vector("k1"),
            tuple(F(1, 2) * c for c in algebra.basis_vector("K")),
        ),
    )


def sheared_spec():
    # j1, j2, k1, K/2, (k1 + k2)/2: [j1, (k1 + k2)/2]/2 = -K/4 is off the
    # span of K/2, so the first failing pair is (0, 4), with the last generator
    algebra = build("heisenberg_c:2").algebra
    k1, k2 = algebra.basis_vector("k1"), algebra.basis_vector("k2")
    return LatticeSpec(
        algebra,
        (
            algebra.basis_vector("j1"),
            algebra.basis_vector("j2"),
            k1,
            tuple(F(1, 2) * c for c in algebra.basis_vector("K")),
            tuple(F(1, 2) * (a + b) for a, b in zip(k1, k2)),
        ),
    )


def test_group_closure_catches_wrong_center_scale():
    spec = wide_center_spec()
    group = check_group_closure(spec)
    assert not group.ok
    assert "integer span" in group.detail
    assert check_scaling_closure(spec).ok


def test_scaling_closure_catches_skewed_generator():
    spec = skewed_spec()
    assert check_group_closure(spec).ok
    scaling = check_scaling_closure(spec)
    assert not scaling.ok
    assert "dilation" in scaling.detail


def test_sheared_first_layer_fails_at_pair_0_4():
    group = check_group_closure(sheared_spec())
    assert not group.ok
    assert group.detail.startswith("product of generators 0 and 4 ")


def test_redundant_generators_rejected():
    # a spanning set with a spare generator used to be accepted, and its
    # membership fixed the free coordinate at zero: K/6 = K/2 - K/3 came
    # back as not in the span
    algebra = build("heisenberg_c:1").algebra
    K = algebra.basis_vector("K")
    with pytest.raises(InputError, match="exactly 3 generators"):
        LatticeSpec(
            algebra,
            (
                algebra.basis_vector("j1"),
                algebra.basis_vector("k1"),
                tuple(F(1, 2) * c for c in K),
                tuple(F(1, 3) * c for c in K),
            ),
        )


def test_membership_rejects_wrong_length():
    spec = build_scalable_lattice(build("heisenberg_c:1").algebra)
    with pytest.raises(ValueError):
        spec.membership((F(1), F(1)))
    with pytest.raises(ValueError):
        spec.membership((F(1), F(1), F(0), F(0)))


def test_generators_of_the_wrong_length_are_input_errors():
    algebra = build("heisenberg_c:1").algebra
    j1, k1 = algebra.basis_vector("j1"), algebra.basis_vector("k1")
    half_k = tuple(F(1, 2) * c for c in algebra.basis_vector("K"))
    for bad in (half_k[:2], (*half_k, F(0))):
        with pytest.raises(InputError, match="a lattice generator needs 3 coefficients"):
            LatticeSpec(algebra, (j1, k1, bad))
    with pytest.raises(InputError, match="a lattice generator needs 3 coefficients"):
        LatticeSpec(algebra, (j1, "0/1", half_k))


def spy_calls(monkeypatch, owner, name):
    """The positional arguments of every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_the_generators_are_read_once_and_not_re_eliminated(monkeypatch):
    # one numerators call per generator, and the inverse eliminates those
    # integer rows directly rather than a dense [G | I] through _eliminate
    algebra = build("heisenberg_o:2").algebra
    generators = dense_generators(build_scalable_lattice(algebra))
    read = spy_calls(monkeypatch, linalg, "numerators")
    eliminated = spy_calls(monkeypatch, linalg, "_eliminate")
    LatticeSpec(algebra, generators)
    assert (len(read), len(eliminated)) == (algebra.dimension, 0)


def coprime_spec():
    # generators with the coprime denominators 3, 7 and 11 and negative
    # entries, over an algebra whose constants have denominator 1001
    basis, layers, table = coprime_table()
    algebra = GradedLieAlgebra("coprime", basis, layers, table)
    return LatticeSpec(
        algebra,
        (
            (F(1), F(0), F(0), F(-2, 3), F(0)),
            (F(0), F(-1), F(0), F(0), F(3, 7)),
            (F(1, 3), F(0), F(-1), F(0), F(0)),
            (F(0), F(0), F(0), F(5, 11), F(-2, 7)),
            (F(0), F(0), F(0), F(-1, 3), F(1, 11)),
        ),
    )


def item6_spec():
    # [a, b] = z and [a, c] = z/3 (denominator 3): the halved brackets z/2
    # and z/6 span Z z/6 over the integers, though z/2 alone spans the
    # second layer over the rationals
    algebra = GradedLieAlgebra(
        "item6",
        ["a", "b", "c", "z"],
        [["a", "b", "c"], ["z"]],
        {("a", "b"): {"z": 1}, ("a", "c"): {"z": F(1, 3)}},
    )
    return build_scalable_lattice(algebra)


def algebra_of(key):
    if key == "coprime":
        return GradedLieAlgebra("coprime", *coprime_table())
    return build(key).algebra


def random_spec(key, seed):
    # dense invertible rational generators: the integer inverse meets
    # denominators and signs that unit and halved vectors never show
    algebra = algebra_of(key)
    n = algebra.dimension
    rng = random.Random(seed)
    generators = None
    while generators is None or naive_inverse(generators) is None:
        generators = tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
    return LatticeSpec(algebra, generators)


def sparse_spec(key, seed):
    # one nonzero per generator on a random permutation, sometimes one more:
    # most generator supports never bracket, so the closure skips most
    # pairs, and each seed below fails first at a later pair than (0, 1)
    algebra = algebra_of(key)
    n = algebra.dimension
    rng = random.Random(seed)
    generators = None
    while generators is None or naive_inverse(generators) is None:
        rows = [[F(0)] * n for _ in range(n)]
        for row, p in zip(rows, rng.sample(range(n), n)):
            row[p] = F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            if rng.random() < 0.3:
                row[rng.randrange(n)] += F(rng.randint(-1, 1), rng.randint(1, 3))
        generators = tuple(map(tuple, rows))
    return LatticeSpec(algebra, generators)


SPARSE_SEEDS = [
    ("heisenberg_c:2", 5),
    ("heisenberg_c:3", 0),
    ("heisenberg_h:1", 0),
    ("heisenberg_o:1", 2),
    ("coprime", 0),
]


# -- agreement with the full product sweep -------------------------------------------

_O2_DIMENSION = build("heisenberg_o:2").algebra.dimension
ORACLE_KEYS = [
    e.key
    for e in default_entries()
    if e.algebra.declared_degree <= 2 and e.algebra.dimension <= _O2_DIMENSION
]
ORACLE_SPECS = (
    [lambda key=key: build_scalable_lattice(build(key).algebra) for key in ORACLE_KEYS]
    + [wide_center_spec, skewed_spec, sheared_spec, item6_spec, coprime_spec]
    + [lambda key=key, seed=seed: sparse_spec(key, seed) for key, seed in SPARSE_SEEDS]
)
ORACLE_IDS = (
    ORACLE_KEYS
    + ["wide_center", "skewed", "sheared", "item6", "coprime"]
    + ["sparse_%s-%d" % case for case in SPARSE_SEEDS]
)


@pytest.mark.parametrize("make_spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_group_closure_matches_full_sweep(make_spec):
    spec = make_spec()
    group = check_group_closure(spec)
    assert (group.ok, group.detail) == naive_group_closure(spec)


def test_the_sparse_specs_fail_first_past_pair_0_1():
    # the sparse inputs above exercise skipped pairs before a failing one
    details = [check_group_closure(sparse_spec(*case)).detail for case in SPARSE_SEEDS]
    assert [d.split(" leaves")[0] for d in details] == [
        "product of generators 1 and 4",
        "product of generators 2 and 5",
        "product of generators 1 and 4",
        "product of generators 2 and 3",
        "product of generators 2 and 3",
    ]


def test_the_closure_brackets_only_the_pairs_whose_supports_bracket(monkeypatch):
    # heisenberg_c:10: integer_bracket runs once per pair i < j in which
    # some position of g_j brackets with some position of g_i, in order
    spec = build_scalable_lattice(build("heisenberg_c:10").algebra)
    ad = spec.algebra.adjacency
    supports = [set(w) for w, _ in spec.integer_rows]
    expected = [
        (i, j)
        for i, j in itertools.combinations(range(len(supports)), 2)
        if any(v in ad[u] for u in supports[i] for v in supports[j])
    ]
    index = {id(w): i for i, (w, _) in enumerate(spec.integer_rows)}
    calls = []
    bracket = GradedLieAlgebra.integer_bracket

    def counted(algebra, x, y):
        calls.append((index[id(x)], index[id(y)]))
        return bracket(algebra, x, y)

    monkeypatch.setattr(GradedLieAlgebra, "integer_bracket", counted)
    assert check_group_closure(spec).ok
    assert calls == expected and len(expected) == 10


def test_hashing_the_built_lattice_densifies_no_generator(monkeypatch):
    # N(31, 2), dimension 496: the hash reads the integer rows as they are
    spec = build_scalable_lattice(GradedLieAlgebra("N(31, 2)", *free_two_step(31)))
    again = build_scalable_lattice(spec.algebra)
    densified = spy_calls(monkeypatch, linalg, "densify")
    assert hash(spec) == hash(again)
    assert densified == []


def test_a_failing_scaling_closure_describes_the_shifted_numerators(monkeypatch):
    # the image of generator 1 is described from the numerators just
    # tested, with no Dilation and no dense row
    spec = sparse_spec("heisenberg_c:3", 0)
    dilations = spy_calls(monkeypatch, group_module, "Dilation")
    densified = spy_calls(monkeypatch, linalg, "densify")
    scaling = check_scaling_closure(spec)
    assert (scaling.ok, scaling.detail) == (
        False,
        "dilation by 2 of generator 1 leaves the integer span: -2*k1 - 4/3*K",
    )
    assert (scaling.ok, scaling.detail) == naive_scaling_closure(spec)
    assert dilations == densified == []


@pytest.mark.parametrize("make_spec", ORACLE_SPECS, ids=ORACLE_IDS)
def test_scaling_closure_matches_dilation_oracle(make_spec):
    spec = make_spec()
    scaling = check_scaling_closure(spec)
    assert (scaling.ok, scaling.detail) == naive_scaling_closure(spec)


_TWO_STEP_KEYS = [e.key for e in default_entries() if e.algebra.declared_degree <= 2]


@pytest.mark.parametrize(
    "make_algebra",
    [lambda key=key: build(key).algebra for key in _TWO_STEP_KEYS]
    + [lambda: GradedLieAlgebra("coprime", *coprime_table())],
    ids=_TWO_STEP_KEYS + ["coprime"],
)
def test_the_built_lattice_is_the_one_its_generators_give(make_algebra):
    # build_scalable_lattice hands over integer pairs; reading its dense
    # generators back gives the same pairs, inverse and denominator
    algebra = make_algebra()
    spec = build_scalable_lattice(algebra)
    again = LatticeSpec(algebra, dense_generators(spec))
    assert spec == again
    assert spec.integer_rows == again.integer_rows
    assert spec._columns == again._columns
    assert spec._denominator == again._denominator


@pytest.mark.parametrize(
    "make_spec",
    [lambda key=key: build_scalable_lattice(build(key).algebra) for key in _TWO_STEP_KEYS]
    + [wide_center_spec, skewed_spec, sheared_spec, item6_spec, coprime_spec],
    ids=_TWO_STEP_KEYS + ["wide_center", "skewed", "sheared", "item6", "coprime"],
)
def test_integer_columns_match_the_oracle_inverse(make_spec):
    spec = make_spec()
    n = spec.algebra.dimension
    expected = naive_inverse(dense_generators(spec))
    got = tuple(
        tuple(F(spec._columns[k].get(i, 0), spec._denominator) for i in range(n))
        for k in range(n)
    )
    assert got == expected


@pytest.mark.parametrize(
    "make_spec",
    [
        lambda: build_scalable_lattice(build("heisenberg_h:1").algebra),
        lambda: build_scalable_lattice(build("heisenberg_o:1").algebra),
        wide_center_spec,
        skewed_spec,
        sheared_spec,
        lambda: build_scalable_lattice(build("heisenberg_h:4").algebra),
        lambda: build_scalable_lattice(build("heisenberg_c:10").algebra),
        coprime_spec,
        lambda: random_spec("heisenberg_c:1", 0),
        lambda: random_spec("heisenberg_h:1", 1),
        lambda: random_spec("coprime", 2),
    ],
    ids=[
        "heisenberg_h:1",
        "heisenberg_o:1",
        "wide_center",
        "skewed",
        "sheared",
        "heisenberg_h:4",
        "heisenberg_c:10",
        "coprime",
        "random_heisenberg_c:1",
        "random_heisenberg_h:1",
        "random_coprime",
    ],
)
def test_membership_matches_fresh_solve(make_spec):
    spec = make_spec()
    n = spec.algebra.dimension
    generators = dense_generators(spec)
    rng = random.Random(n)
    outcomes = set()
    for _ in range(60):
        combo = [rng.randint(-3, 3) for _ in range(n)]
        v = tuple(
            sum((a * g[r] for a, g in zip(combo, generators)), F(0))
            for r in range(n)
        )
        if rng.random() < 0.5:
            v = tuple(c + F(rng.randint(-2, 2), rng.randint(1, 4)) for c in v)
        got = spec.membership(v)
        assert got == naive_membership(generators, v)
        outcomes.add(got is None)
    assert outcomes == {True, False}

