"""Sectional curvature values and the sign trichotomy around a subspace."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import curvature
from carnot import (
    GradedLieAlgebra,
    InputError,
    InvariantForm,
    Subspace,
    algebra_to_dict,
    build,
    default_entries,
    differential,
    sectional_curvature,
    trichotomy_report,
    two_step_closed_forms,
)
from helpers import (
    coprime_table,
    free_two_step,
    naive_sectional_curvature,
    random_layered_table,
    random_table,
)

F = Fraction


def test_heisenberg_plane_values():
    algebra = build("heisenberg_c:1").algebra
    assert sectional_curvature(algebra, "j1", "k1") == F(-3, 4)
    assert sectional_curvature(algebra, "j1", "K") == F(1, 4)
    assert sectional_curvature(algebra, "k1", "K") == F(1, 4)


def test_same_direction_rejected():
    algebra = build("heisenberg_c:1").algebra
    with pytest.raises(InputError):
        sectional_curvature(algebra, "j1", "j1")
    with pytest.raises(InputError):
        two_step_closed_forms(algebra, 0, 0)


TWO_STEP_KEYS = [
    "heisenberg_c:1",
    "heisenberg_c:2",
    "heisenberg_c:3",
    "heisenberg_h:1",
    "heisenberg_h:2",
    "heisenberg_h:3",
    "heisenberg_o:1",
    "heisenberg_o:2",
    "unipotent:3",
    "abelian:4",
]


@pytest.mark.parametrize("key", TWO_STEP_KEYS)
def test_closed_forms_agree_with_general_formula(key):
    algebra = build(key).algebra
    for u, v in itertools.combinations(range(algebra.dimension), 2):
        assert two_step_closed_forms(algebra, u, v) == sectional_curvature(
            algebra, u, v
        ), (key, algebra.basis[u], algebra.basis[v])


def test_closed_forms_need_two_steps():
    with pytest.raises(InputError):
        two_step_closed_forms(build("unipotent:4").algebra, 0, 1)


def label_table(algebra):
    """The label-keyed bracket table of an algebra, from its JSON form."""
    return {
        (item["left"], item["right"]): {
            term["basis"]: F(term["coeff"]) for term in item["result"]
        }
        for item in algebra_to_dict(algebra)["brackets"]
    }


@pytest.mark.parametrize("key", ["unipotent:5", "heisenberg_c:2"])
def test_curvature_matches_full_sum_on_catalog(key):
    algebra = build(key).algebra
    table = label_table(algebra)
    for u, v in itertools.permutations(range(algebra.dimension), 2):
        assert sectional_curvature(algebra, u, v) == naive_sectional_curvature(
            table, algebra.basis, u, v
        ), (key, algebra.basis[u], algebra.basis[v])


@pytest.mark.parametrize("seed", range(6))
def test_curvature_matches_full_sum_on_random_tables(seed):
    rng = random.Random(seed)
    basis, table = random_table(rng, rng.randint(2, 7))
    algebra = GradedLieAlgebra("random", basis, [basis], table)
    for u, v in itertools.permutations(range(len(basis)), 2):
        value = sectional_curvature(algebra, u, v)
        assert type(value) is Fraction
        assert value == naive_sectional_curvature(table, basis, u, v)


def test_curvature_with_coprime_denominators_matches_full_sum():
    basis, layers, table = coprime_table()
    algebra = GradedLieAlgebra("coprime", basis, layers, table)
    assert algebra.denominator == 1001
    for u, v in itertools.permutations(range(len(basis)), 2):
        value = sectional_curvature(algebra, u, v)
        assert type(value) is Fraction
        assert value == naive_sectional_curvature(table, basis, u, v)
        assert value == two_step_closed_forms(algebra, u, v)


@pytest.mark.parametrize("labels", [["a"], ["b", "c"], ["c", "a"]])
def test_trichotomy_planes_with_coprime_denominators_match_full_sum(labels):
    basis, layers, table = coprime_table()
    algebra = GradedLieAlgebra("coprime", basis, layers, table)
    report = trichotomy_report(Subspace.from_labels(algebra, labels))
    assert len(report.planes) == 10
    for u, v, value in report.planes:
        assert type(value) is Fraction
        assert value == naive_sectional_curvature(
            table, basis, basis.index(u), basis.index(v)
        ), (u, v)


def assert_sweep_matches_full_sum(basis, layers, table):
    algebra = GradedLieAlgebra("sweep", basis, layers, table)
    sums = curvature._plane_sums(algebra)
    scale = 4 * algebra.denominator ** 2
    assert all(type(total) is int and total for total in sums.values())
    for u, v in itertools.combinations(range(len(basis)), 2):
        expected = naive_sectional_curvature(table, basis, u, v)
        assert Fraction(sums.get((u, v), 0), scale) == expected, (u, v)
    assert set(sums) <= set(itertools.combinations(range(len(basis)), 2))


@pytest.mark.parametrize("seed", range(20))
def test_plane_sweep_matches_full_sum_on_random_tables(seed):
    rng = random.Random("sweep/%d" % seed)
    basis, table = random_table(rng, rng.randint(2, 8))
    assert_sweep_matches_full_sum(basis, [basis], table)


@pytest.mark.parametrize("kind", ["graded", "nearly", "ungraded"])
@pytest.mark.parametrize("seed", range(10))
def test_plane_sweep_matches_full_sum_on_layered_tables(kind, seed):
    # ungraded tables have diagonal constants a_kii, the last term's factors
    rng = random.Random("sweep/%s/%d" % (kind, seed))
    assert_sweep_matches_full_sum(*random_layered_table(rng, kind))


def test_plane_sweep_matches_full_sum_with_coprime_denominators():
    assert_sweep_matches_full_sum(*coprime_table())


def test_plane_sweep_reads_diagonal_constants():
    # [c, a] = a and [c, b] = 2b: a_caa a_cbb enters plane (a, b) alone
    basis = ["a", "b", "c"]
    table = {("c", "a"): {"a": 1}, ("c", "b"): {"b": 2}}
    assert_sweep_matches_full_sum(basis, [basis], table)
    algebra = GradedLieAlgebra("diagonal", basis, [basis], table)
    assert sectional_curvature(algebra, "a", "b") == -2


def test_closed_forms_agree_on_rational_two_step_algebra():
    # [a, b] = z and [a, c] = z/3
    basis = ["a", "b", "c", "z"]
    table = {("a", "b"): {"z": 1}, ("a", "c"): {"z": F(1, 3)}}
    algebra = GradedLieAlgebra("rational", basis, [["a", "b", "c"], ["z"]], table)
    for u, v in itertools.combinations(range(4), 2):
        value = sectional_curvature(algebra, u, v)
        assert type(value) is Fraction
        assert value == two_step_closed_forms(algebra, u, v)
        assert value == naive_sectional_curvature(table, basis, u, v)
    assert sectional_curvature(algebra, "a", "c") == F(-1, 12)
    assert sectional_curvature(algebra, "a", "z") == F(5, 18)


def test_abelian_is_flat():
    algebra = build("abelian:4").algebra
    for u, v in itertools.combinations(range(4), 2):
        assert sectional_curvature(algebra, u, v) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_curvature_is_symmetric(data):
    algebra = build(
        data.draw(st.sampled_from(["heisenberg_h:1", "unipotent:5"]))
    ).algebra
    u = data.draw(st.integers(0, algebra.dimension - 1))
    v = data.draw(
        st.integers(0, algebra.dimension - 1).filter(lambda j: j != u)
    )
    assert sectional_curvature(algebra, u, v) == sectional_curvature(algebra, v, u)


# -- trichotomy --------------------------------------------------------------------


def designated(key):
    entry = build(key)
    return entry.algebra, entry.designated_subspace


def test_trichotomy_holds_for_quaternionic_plane():
    algebra, s = designated("heisenberg_h:2")
    report = trichotomy_report(s, maximal_asserted=True)
    assert report.ordered_basis[:2] == ("h1", "h2")
    assert report.flat_inside.holds
    assert report.negative_toward_horizontal.holds
    assert report.positive_toward_vertical.holds
    assert ("h1", "i1", F(-3, 4)) in report.negative_toward_horizontal.witnesses
    assert ("h2", "i2", F(-3, 4)) in report.negative_toward_horizontal.witnesses
    pos = dict(
        ((a, b), v) for a, b, v in report.positive_toward_vertical.witnesses
    )
    assert len(pos) == 3 and all(v == F(1, 4) for v in pos.values())
    assert len(report.planes) == len(
        list(itertools.combinations(range(algebra.dimension), 2))
    )


@pytest.mark.parametrize("key", ["heisenberg_h:2", "heisenberg_o:1"])
def test_trichotomy_computes_each_plane_once(key, monkeypatch):
    # every plane comes from one sweep of the adjacency per report
    algebra, s = designated(key)
    calls = []
    compute = curvature._plane_sums

    def counted(algebra):
        calls.append(algebra)
        return compute(algebra)

    monkeypatch.setattr(curvature, "_plane_sums", counted)
    report = trichotomy_report(s, maximal_asserted=True)
    assert calls == [algebra]
    n = algebra.dimension
    pairs = [frozenset((a, b)) for a, b, _ in report.planes]
    assert all(len(pair) == 2 for pair in pairs)
    assert len(pairs) == len(set(pairs)) == n * (n - 1) // 2


def test_trichotomy_on_a_line():
    algebra = build("heisenberg_c:1").algebra
    s = Subspace.from_labels(algebra, ["j1"])
    report = trichotomy_report(s, maximal_asserted=True)
    assert report.flat_inside.holds
    assert report.negative_toward_horizontal.holds
    assert report.negative_toward_horizontal.witnesses == (
        ("j1", "k1", F(-3, 4)),
    )
    assert report.positive_toward_vertical.witnesses == (("j1", "K", F(1, 4)),)


def test_unasserted_maximality_leaves_item_open():
    algebra = build("heisenberg_c:1").algebra
    s = Subspace.from_labels(algebra, ["j1"])
    report = trichotomy_report(s)
    assert report.negative_toward_horizontal.holds is None
    assert "asserted maximal" in report.negative_toward_horizontal.detail
    assert report.flat_inside.holds
    assert report.positive_toward_vertical.holds


@pytest.mark.parametrize("flag", ["no", 0, None, 1], ids=["no", "zero", "none", "one"])
def test_the_maximality_flag_is_true_or_false(flag):
    # "no" used to be read as an assertion that failed, and 0 as no assertion
    s = Subspace.from_labels(build("heisenberg_h:2").algebra, ["h1"])
    with pytest.raises(InputError) as info:
        trichotomy_report(s, maximal_asserted=flag)
    assert str(info.value) == "maximal_asserted must be True or False"


def test_false_maximality_assertion_is_caught():
    # span(h1) in the n=2 quaternionic algebra: h2 commutes with it, so no
    # negatively curved partner exists and the asserted item must fail
    algebra = build("heisenberg_h:2").algebra
    s = Subspace.from_labels(algebra, ["h1"])
    report = trichotomy_report(s, maximal_asserted=True)
    assert report.flat_inside.holds
    assert report.negative_toward_horizontal.holds is False
    assert "h2" in report.negative_toward_horizontal.detail
    assert report.positive_toward_vertical.holds


# the 2-step default entries, and N(4, 2), where vertical partners go missing
PARTNER_ALGEBRAS = {
    e.key: e.algebra for e in default_entries() if e.algebra.declared_degree <= 2
}
PARTNER_ALGEBRAS["N(4, 2)"] = GradedLieAlgebra("N(4, 2)", *free_two_step(4))


@pytest.mark.parametrize("key", PARTNER_ALGEBRAS)
def test_partner_items_match_a_full_sum_scan(key):
    # on span(x) the only candidate partner of each target is x itself
    algebra = PARTNER_ALGEBRAS[key]
    basis, table = algebra.basis, label_table(algebra)
    second = [j for j in range(algebra.dimension) if j not in algebra.layers[0]]
    for i in algebra.layers[0]:
        horizontal = [j for j in algebra.layers[0] if j != i]
        value = {}
        for j in horizontal + second:
            value[j] = naive_sectional_curvature(table, basis, i, j)

        def scan(targets, sign, word, holds_text):
            found = [j for j in targets if sign * value[j] > 0]
            missing = [basis[j] for j in targets if j not in found]
            if missing:
                holds_text = "no %s curved partner for: %s" % (word, ", ".join(missing))
            witnesses = tuple((basis[i], basis[j], value[j]) for j in found)
            return not missing, holds_text, witnesses

        negative = scan(
            horizontal, -1, "negatively",
            "each horizontal direction outside the subspace pairs negatively",
        )
        positive = scan(
            second, 1, "positively", "each second-layer direction pairs positively"
        )
        s = Subspace.from_labels(algebra, [basis[i]])
        for maximal in (False, True):
            report = trichotomy_report(s, maximal_asserted=maximal)
            item = report.negative_toward_horizontal
            if maximal:
                assert (item.holds, item.detail, item.witnesses) == negative
            else:
                assert item.holds is None and item.witnesses == negative[2]
                assert item.detail.startswith("not evaluated: ")
            item = report.positive_toward_vertical
            assert (item.holds, item.detail, item.witnesses) == positive


def test_full_abelian_span_is_flat_everywhere():
    algebra = build("abelian:3").algebra
    s = Subspace.from_labels(algebra, ["x1", "x2", "x3"])
    report = trichotomy_report(s, maximal_asserted=True)
    assert report.flat_inside.holds
    assert report.negative_toward_horizontal.holds
    assert report.positive_toward_vertical.holds
    assert all(value == 0 for _, _, value in report.planes)


def test_trichotomy_input_requirements():
    algebra = build("unipotent:4").algebra
    s = Subspace.from_labels(algebra, ["E12"])
    with pytest.raises(InputError):
        trichotomy_report(s)

    algebra = build("heisenberg_c:1").algebra
    vertical = Subspace.from_labels(algebra, ["K"])
    with pytest.raises(InputError):
        trichotomy_report(vertical)

    mixed = Subspace(algebra, [(F(1), F(1), F(0))])
    with pytest.raises(InputError):
        trichotomy_report(mixed)


def test_algebras_with_equal_hashes_keep_their_own_constants():
    basis, layers = ["a", "b", "z"], [["a", "b"], ["z"]]
    one = GradedLieAlgebra("twin", basis, layers, {("a", "b"): {"z": 1}})
    two = GradedLieAlgebra("twin", basis, layers, {("a", "b"): {"z": F(2, 3)}})
    assert hash(one) == hash(two) and one != two
    for _ in range(2):
        assert sectional_curvature(one, "a", "b") == F(-3, 4)
        assert sectional_curvature(two, "a", "b") == F(-1, 3)
        assert differential(InvariantForm.dual(one, "z")).terms == {(0, 1): F(1, 2)}
        assert differential(InvariantForm.dual(two, "z")).terms == {(0, 1): F(1, 3)}
