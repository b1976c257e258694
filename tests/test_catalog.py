"""Built-in algebra families and the JSON interchange format."""

import contextlib
import importlib.util
import itertools
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

from carnot import GradedLieAlgebra, catalog, linalg
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
from helpers import catalog_label_brackets, catalog_labels

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
    assert got == linalg.densify({}, algebra.dimension)


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


def test_save_algebra_writes_the_exact_bytes_of_a_rational_table(tmp_path):
    # N(4, 2) with [x_a, x_b] = +-(p + 2) / (2p + 3) y_ab for the p-th pair,
    # so D = 45045; listed last pair first, the file still lists pairs in
    # position order
    xs = ["x1", "x2", "x3", "x4"]
    pairs = list(itertools.combinations(xs, 2))
    ys = ["y%s%s" % (a[1], b[1]) for a, b in pairs]
    coeffs = ["%d/%d" % ((-1) ** p * (p + 2), 2 * p + 3) for p in range(len(pairs))]
    table = {pair: {y: Fraction(c)} for pair, y, c in zip(pairs, ys, coeffs)}
    table = dict(reversed(table.items()))
    algebra = GradedLieAlgebra("rational2step:4", xs + ys, [xs, ys], table)
    assert algebra.denominator == 45045
    path = tmp_path / "rational.json"
    save_algebra(algebra, path)
    brackets = [
        {"left": a, "right": b, "result": [{"basis": y, "coeff": c}]}
        for (a, b), y, c in zip(pairs, ys, coeffs)
    ]
    doc = {"name": "rational2step:4", "basis": xs + ys, "layers": [xs, ys]}
    expected = json.dumps({**doc, "brackets": brackets}, indent=2) + "\n"
    assert '"coeff": "-7/13"' in expected
    assert path.read_bytes() == expected.encode()


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


@pytest.mark.parametrize("reader", [load_algebra, catalog.read_json])
def test_a_read_descriptor_is_not_a_path(reader):
    # load_algebra(fd) used to read the pipe and close the caller's fd
    doc = (json.dumps(algebra_to_dict(build("heisenberg_c:1").algebra)) + "\n").encode()
    r, w = os.pipe()
    try:
        os.write(w, doc)
        os.close(w)
        with pytest.raises(InputError) as info:
            reader(r)
        assert str(info.value) == "a file path must be a str, bytes or os.PathLike"
        assert os.read(r, len(doc) + 1) == doc
    finally:
        with contextlib.suppress(OSError):
            os.close(r)


def test_a_write_descriptor_is_not_a_path():
    # save_algebra(algebra, fd) used to write to the fd and close it
    r, w = os.pipe()
    try:
        with pytest.raises(InputError) as info:
            save_algebra(build("heisenberg_c:1"), w)
        assert str(info.value) == "a file path must be a str, bytes or os.PathLike"
        os.fstat(w)
        os.close(w)
        assert os.read(r, 1) == b""
    finally:
        for fd in (r, w):
            with contextlib.suppress(OSError):
                os.close(fd)


@pytest.mark.parametrize("path", [None, 1.5, ["a.json"]], ids=["none", "float", "list"])
def test_a_path_is_a_str_bytes_or_pathlike(tmp_path, path):
    algebra = build("heisenberg_c:1").algebra
    for call in (lambda: load_algebra(path), lambda: save_algebra(algebra, path)):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == "a file path must be a str, bytes or os.PathLike"
    target = tmp_path / "algebra.json"
    save_algebra(algebra, os.fsencode(target))
    assert load_algebra(os.fsencode(target)) == algebra


@pytest.mark.parametrize("key", [5, None, b"heisenberg_c:1"], ids=["int", "none", "bytes"])
def test_a_catalog_id_is_a_string(key):
    with pytest.raises(InputError) as info:
        build(key)
    assert str(info.value) == "a catalog id must be a string, got %r" % (key,)


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


@pytest.mark.parametrize(
    "family, n",
    [(catalog.heisenberg_h, "1"), (catalog.heisenberg_h, True), (catalog.abelian, 2.0)],
    ids=["str", "bool", "float"],
)
def test_a_family_builder_reads_n_as_an_int(family, n):
    # a bool is not read as 0 or 1
    with pytest.raises(InputError) as info:
        family(n)
    assert str(info.value) == "%s needs an int n" % family.__name__
    assert family(1).key == "%s:1" % family.__name__


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


def workload_catalog_ids():
    """Every catalog id that the benchmark workloads build, leaving out the
    ids they use to test refusals."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ids = set()
    for argv in module.STRUCTURE + module.GEOMETRY + module.LATTICE:
        if len(argv) > 1 and re.fullmatch(r"[a-z_]+:\d+", argv[1]):
            try:
                build(argv[1])
            except InputError:
                continue
            ids.add(argv[1])
    return sorted(ids)


BUDGET_IDS = ["heisenberg_h:127", "heisenberg_c:255", "heisenberg_o:31", "abelian:512"]
ORACLE_IDS = sorted(
    set(workload_catalog_ids()) | {e.key for e in default_entries()} | set(BUDGET_IDS)
)


def label_oracle(key):
    """The algebra of ``key`` read by the label constructor from the
    helpers' label-keyed table, and its designated labels."""
    layers, designated = catalog_labels(key)
    basis = [label for layer in layers for label in layer]
    algebra = GradedLieAlgebra(key, basis, layers, catalog_label_brackets(key))
    return algebra, designated


def in_order(adjacency):
    return [[(v, list(e.items())) for v, e in row.items()] for row in adjacency]


def test_the_oracle_covers_the_workloads_and_the_budget_ids():
    assert len(workload_catalog_ids()) >= 30
    assert {"abelian:5", "unipotent:9", "heisenberg_o:4"} <= set(ORACLE_IDS)


@pytest.mark.parametrize("key", ORACLE_IDS)
def test_positional_tables_equal_the_label_constructor(key):
    entry = build(key)
    algebra = entry.algebra
    oracle, designated = label_oracle(key)
    assert algebra.name == oracle.name == key
    assert algebra.basis == oracle.basis
    assert algebra.layers == oracle.layers
    assert algebra.weights == oracle.weights
    assert algebra.denominator == oracle.denominator == 1
    assert algebra.adjacency == oracle.adjacency
    # insertion order too: every sweep over a row reads it in this order
    assert in_order(algebra.adjacency) == in_order(oracle.adjacency)
    if designated is None:
        assert entry.designated_subspace is None
    else:
        rows = tuple(({oracle.index(label): 1}, 1) for label in designated)
        assert entry.designated_subspace.integer_rows == rows


@pytest.mark.parametrize("key", ["heisenberg_o:4", "unipotent:9"])
def test_a_catalog_build_makes_no_label_lookup_per_bracket(monkeypatch, key):
    calls = []
    index = GradedLieAlgebra.index

    def spy(self, label):
        calls.append(label)
        return index(self, label)

    monkeypatch.setattr(GradedLieAlgebra, "index", spy)
    entry = build(key)
    # only the designated labels are looked up, one each
    assert len(calls) == entry.designated_subspace.dim == 4
    # the label constructor on the same table looks up every label it reads
    calls.clear()
    layers, _ = catalog_labels(key)
    basis = [label for layer in layers for label in layer]
    brackets = catalog_label_brackets(key)
    assert GradedLieAlgebra(key, basis, layers, brackets) == entry.algebra
    assert len(calls) == len(basis) + 3 * len(brackets)
