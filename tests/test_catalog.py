"""Built-in algebra families and the JSON interchange format."""

import json
from fractions import Fraction

import pytest

from carnot import catalog, linalg
from carnot import (
    InputError,
    algebra_from_dict,
    algebra_to_dict,
    build,
    default_entries,
    entry_summary,
    hausdorff_dimension,
    jacobi_check,
    load_algebra,
    save_algebra,
    stratification_check,
)
from carnot.algebra import MAX_DIMENSION

F = Fraction


def test_every_entry_is_a_valid_stratified_algebra():
    entries = default_entries()
    assert len(entries) == 21
    for entry in entries:
        assert jacobi_check(entry.algebra), entry.key
        assert stratification_check(entry.algebra), entry.key


@pytest.mark.parametrize(
    "key,dim,layers",
    [
        ("heisenberg_c:1", 3, [2, 1]),
        ("heisenberg_c:3", 7, [6, 1]),
        ("heisenberg_h:2", 11, [8, 3]),
        ("heisenberg_o:1", 15, [8, 7]),
        ("heisenberg_o:3", 31, [24, 7]),
        ("unipotent:3", 3, [2, 1]),
        ("unipotent:6", 15, [5, 4, 3, 2, 1]),
        ("abelian:8", 8, [8]),
    ],
)
def test_dimensions_and_layers(key, dim, layers):
    algebra = build(key).algebra
    assert algebra.dimension == dim
    assert [len(layer) for layer in algebra.layers] == layers


def test_octonion_bracket_spot_checks():
    algebra = build("heisenberg_o:1").algebra
    cases = [
        ("e1", "d1", "E"),
        ("k1", "d1", "K"),
        ("g1", "h1", "I"),
        ("f1", "e1", "I"),
        ("i1", "f1", "E"),
        ("e1", "h1", "K"),
    ]
    for a, b, target in cases:
        got = algebra.bracket(algebra.basis_vector(a), algebra.basis_vector(b))
        assert got == algebra.vector({target: 1}), (a, b)


def test_quaternion_bracket_spot_checks():
    algebra = build("heisenberg_h:2").algebra
    for a, b, target in [
        ("i2", "h2", "I"),
        ("j1", "h1", "J"),
        ("k1", "j1", "I"),
        ("i1", "k1", "J"),
        ("j1", "i1", "K"),
    ]:
        got = algebra.bracket(algebra.basis_vector(a), algebra.basis_vector(b))
        assert got == algebra.vector({target: 1}), (a, b)
    # different indices commute
    got = algebra.bracket(algebra.basis_vector("i1"), algebra.basis_vector("h2"))
    assert got == linalg.zero_vector(algebra.dimension)


def test_designated_subspaces():
    assert build("heisenberg_c:2").designated_subspace is None
    h = build("heisenberg_h:3").designated_subspace
    assert h is not None and h.coordinate_labels() == ("h1", "h2", "h3")
    o = build("heisenberg_o:2").designated_subspace
    assert o is not None and o.coordinate_labels() == ("d1", "d2")
    u = build("unipotent:6").designated_subspace
    assert u is not None and u.coordinate_labels() == ("E12", "E34", "E56")
    a = build("abelian:3").designated_subspace
    assert a is not None and a.dim == 3


def test_hausdorff_notes_flag_dimension_conflation():
    for key in ["heisenberg_h:1", "heisenberg_o:2"]:
        notes = " ".join(build(key).notes)
        assert "topological" in notes


def test_build_errors():
    with pytest.raises(InputError):
        build("nope:3")
    with pytest.raises(InputError):
        build("heisenberg_c")
    with pytest.raises(InputError):
        build("heisenberg_c:x")
    with pytest.raises(InputError):
        build("unipotent:10")
    with pytest.raises(InputError):
        build("unipotent:2")


def test_entry_summary_shape():
    summary = entry_summary(build("heisenberg_h:1"))
    assert summary["dimension"] == 7
    assert summary["layer_dimensions"] == [4, 3]
    assert summary["hausdorff_dimension"] == 10
    assert summary["designated_subspace"] == ["h1"]


# -- JSON round trip ---------------------------------------------------------


@pytest.mark.parametrize("key", ["heisenberg_h:1", "unipotent:5", "abelian:2"])
def test_round_trip_preserves_algebra(tmp_path, key):
    algebra = build(key).algebra
    path = tmp_path / "algebra.json"
    save_algebra(algebra, path)
    assert load_algebra(path) == algebra


def test_dict_round_trip_with_fractions():
    algebra = build("heisenberg_c:1").algebra
    data = algebra_to_dict(algebra)
    item = data["brackets"][0]
    item["result"] = [{"basis": "K", "coeff": "-3/2"}]
    rebuilt = algebra_from_dict(data)
    left = rebuilt.basis_vector(item["left"])
    right = rebuilt.basis_vector(item["right"])
    assert rebuilt.bracket(left, right) == rebuilt.vector({"K": F(-3, 2)})


def test_from_dict_rejects_bad_coefficients():
    base = algebra_to_dict(build("heisenberg_c:1").algebra)

    def corrupt(value):
        data = json.loads(json.dumps(base))
        data["brackets"][0]["result"][0]["coeff"] = value
        return data

    for bad in ["1.5", "3/0", "", "x", 0.5]:
        with pytest.raises(InputError):
            algebra_from_dict(corrupt(bad))


def test_from_dict_rejects_unknown_label_and_duplicates():
    base = algebra_to_dict(build("heisenberg_c:1").algebra)
    data = json.loads(json.dumps(base))
    data["brackets"].append(
        {"left": "j1", "right": "nope", "result": [{"basis": "K", "coeff": "1"}]}
    )
    with pytest.raises(InputError):
        algebra_from_dict(data)
    data = json.loads(json.dumps(base))
    item = data["brackets"][0]
    data["brackets"].append(
        {
            "left": item["right"],
            "right": item["left"],
            "result": [{"basis": "K", "coeff": "1"}],
        }
    )
    with pytest.raises(InputError):
        algebra_from_dict(data)
    data = json.loads(json.dumps(base))
    data["brackets"].append({"left": "j1"})
    with pytest.raises(InputError):
        algebra_from_dict(data)


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(InputError):
        load_algebra(path)


def test_the_listing_summaries_come_from_the_layouts_alone(monkeypatch):
    expected = [entry_summary(e) for e in default_entries()]

    def no_algebra(*args):
        raise AssertionError("the listing built an algebra")

    monkeypatch.setattr(catalog, "GradedLieAlgebra", no_algebra)
    assert catalog.default_summaries() == expected


def refuse_labels_past_the_budget(monkeypatch):
    # every family makes its labels, and its brackets after them, from
    # range(1, n + 1): this spy stops an id that would make labels past the
    # budget before it could fill the memory
    def spy(*args):
        if max(args) > MAX_DIMENSION + 1:
            raise AssertionError("labels made past the budget: range%r" % (args,))
        return range(*args)

    monkeypatch.setattr(catalog, "range", spy, raising=False)


OVER_BUDGET_IDS = [
    ("heisenberg_c:1000000", "dimension 2000001 is over the budget of 512"),
    ("heisenberg_h:1000000", "dimension 4000003 is over the budget of 512"),
    ("heisenberg_o:1000000", "dimension 8000007 is over the budget of 512"),
    ("heisenberg_o:64", "dimension 519 is over the budget of 512"),
    ("abelian:513", "dimension 513 is over the budget of 512"),
    ("abelian:3000000", "dimension 3000000 is over the budget of 512"),
    # 2n + 1 >= 2^64 is not printed, nor a parameter int() may not read
    ("heisenberg_c:9999999999999999999", "dimension is over the budget of 512"),
    ("abelian:18446744073709551615", "dimension is over the budget of 512"),
    ("heisenberg_o:" + "9" * 4300, "dimension is over the budget of 512"),
    ("abelian:" + "1" * 5000, "dimension is over the budget of 512"),
    ("abelian:-" + "1" * 5000, "abelian needs n >= 1"),
    ("unipotent:" + "1" * 5000, "unipotent needs 3 <= n <= 9 (labels are digit pairs)"),
]


@pytest.mark.parametrize(
    "key, message", OVER_BUDGET_IDS, ids=[key[:24] for key, _ in OVER_BUDGET_IDS]
)
def test_an_id_over_the_budget_is_refused_before_any_label(monkeypatch, key, message):
    refuse_labels_past_the_budget(monkeypatch)
    with pytest.raises(InputError) as info:
        build(key)
    assert str(info.value) == message


def test_the_largest_ids_within_the_budget_build(monkeypatch):
    refuse_labels_past_the_budget(monkeypatch)
    assert build("abelian:512").algebra.dimension == 512
    assert build("heisenberg_o:63").algebra.dimension == 511
