"""The result records: repr, equality, hash, defaults and immutability.

Every record is built by keyword from one row of ``RECORDS``, so each row
pins the field names, the repr of a sample, equality and the hash of an
equal instance, and inequality when one field differs.
"""

from fractions import Fraction

import pytest

from carnot import (
    BoundReport,
    CatalogEntry,
    CheckResult,
    CoverageRow,
    CoverageTable,
    CurvatureReport,
    GrowthBound,
    InputError,
    IsotropyResult,
    LatticeSpec,
    PittetReport,
    RegularityResult,
    ScalingWeight,
    Subspace,
    TrichotomyItem,
    build,
)

F = Fraction
ALGEBRA = build("heisenberg_c:1").algebra
ALGEBRA_REPR = "GradedLieAlgebra('heisenberg_c:1', dim=3, layers=(2, 1))"
BOUND = GrowthBound("F", 2, F(2), "equivalent", "low-euclidean")
BOUND_REPR = (
    "GrowthBound(target='F', m=2, exponent=Fraction(2, 1), relation='equivalent', "
    "source='low-euclidean', note='')"
)
ITEM = TrichotomyItem(True, "flat")
ITEM_REPR = "TrichotomyItem(holds=True, detail='flat', witnesses=())"
ROW = CoverageRow("F", 2, (BOUND,), False)
ROW_REPR = "CoverageRow(target='F', m=2, bounds=(%s,), conflict=False)" % BOUND_REPR

# name: (type, keyword arguments, a field and another value for it, repr)
RECORDS = {
    "CheckResult": (
        CheckResult, {"ok": False, "detail": "jacobi fails"}, ("detail", "other"),
        "CheckResult(ok=False, detail='jacobi fails')",
    ),
    "CatalogEntry": (
        CatalogEntry,
        {"key": "heisenberg_c:1", "algebra": ALGEBRA,
         "designated_subspace": Subspace.from_labels(ALGEBRA, ["j1"]), "notes": ("n",)},
        ("notes", ()),
        "CatalogEntry(key='heisenberg_c:1', algebra=%s, designated_subspace="
        "Subspace<j1>, notes=('n',))" % ALGEBRA_REPR,
    ),
    "TrichotomyItem": (
        TrichotomyItem,
        {"holds": False, "detail": "d", "witnesses": (("j1", "K", F(1, 4)),)},
        ("holds", None),
        "TrichotomyItem(holds=False, detail='d', witnesses=(('j1', 'K', "
        "Fraction(1, 4)),))",
    ),
    "CurvatureReport": (
        CurvatureReport,
        {"ordered_basis": ("j1", "k1"), "planes": (("j1", "k1", F(-3, 4)),),
         "flat_inside": ITEM, "negative_toward_horizontal": ITEM,
         "positive_toward_vertical": ITEM},
        ("ordered_basis", ("k1", "j1")),
        "CurvatureReport(ordered_basis=('j1', 'k1'), planes=(('j1', 'k1', "
        "Fraction(-3, 4)),), flat_inside=%s, negative_toward_horizontal=%s, "
        "positive_toward_vertical=%s)" % (ITEM_REPR, ITEM_REPR, ITEM_REPR),
    ),
    "ScalingWeight": (
        ScalingWeight, {"uniform": 3, "by_monomial": (((0, 2), 3),)},
        ("uniform", None),
        "ScalingWeight(uniform=3, by_monomial=(((0, 2), 3),))",
    ),
    "PittetReport": (
        PittetReport,
        {"pairs": (("K", "j1"), ("K", "k1")), "kernel_dimension": 1,
         "kernel_basis": (({0: 1, 1: -2}, 1),)},
        ("kernel_basis", (({0: 1}, 1),)),
        "PittetReport(pairs=(('K', 'j1'), ('K', 'k1')), kernel_dimension=1, "
        "kernel_basis=(({0: 1, 1: -2}, 1),))",
    ),
    "LatticeSpec": (
        LatticeSpec,
        {"algebra": ALGEBRA, "generators": ((1, 0, 0), (0, 1, 0), (0, 0, F(1, 2)))},
        ("generators", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        "LatticeSpec(algebra=%s, generators=((Fraction(1, 1), Fraction(0, 1), "
        "Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 2))))" % ALGEBRA_REPR,
    ),
    "IsotropyResult": (
        IsotropyResult,
        {"isotropic": False, "witness": ((1, 0, 0), (0, 1, 0))},
        ("witness", None),
        "IsotropyResult(isotropic=False, witness=((1, 0, 0), (0, 1, 0)))",
    ),
    "RegularityResult": (
        RegularityResult, {"regular": True, "rank": 2, "required_rank": 2},
        ("rank", 1),
        "RegularityResult(regular=True, rank=2, required_rank=2)",
    ),
    "BoundReport": (
        BoundReport, {"satisfied": True, "k": 1, "lhs": 1, "rhs": 1}, ("lhs", 2),
        "BoundReport(satisfied=True, k=1, lhs=1, rhs=1)",
    ),
    "GrowthBound": (
        GrowthBound,
        {"target": "F", "m": 2, "exponent": F(2), "relation": "equivalent",
         "source": "low-euclidean", "note": ""},
        ("note", "n"),
        BOUND_REPR,
    ),
    "CoverageRow": (
        CoverageRow, {"target": "F", "m": 2, "bounds": (BOUND,), "conflict": False},
        ("conflict", True),
        ROW_REPR,
    ),
    "CoverageTable": (
        CoverageTable, {"filling": (ROW,), "divergence": (), "notes": ("k = 0",)},
        ("divergence", (ROW,)),
        "CoverageTable(filling=(%s,), divergence=(), notes=('k = 0',))" % ROW_REPR,
    ),
}
ROWS = list(RECORDS.values())
IDS = list(RECORDS)

# the fields each hash reads: PittetReport leaves out its unhashable basis,
# and LatticeSpec hashes its integer rows, which no field names, so equal
# specs are only pinned to hash equal
HASHED = {
    "LatticeSpec": None,
    "PittetReport": ("pairs", "kernel_dimension"),
}


@pytest.mark.parametrize("cls, kwargs, change, text", ROWS, ids=IDS)
def test_the_repr_names_every_field(cls, kwargs, change, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("name", IDS)
def test_equal_records_hash_as_the_tuple_of_their_fields(name):
    cls, kwargs, change, text = RECORDS[name]
    record, again = cls(**kwargs), cls(**kwargs)
    assert record == again and not record != again
    fields = HASHED.get(name, tuple(kwargs))
    assert hash(record) == hash(again)
    if fields is not None:
        assert hash(record) == hash(tuple(getattr(record, f) for f in fields))


@pytest.mark.parametrize("cls, kwargs, change, text", ROWS, ids=IDS)
def test_one_different_field_makes_records_unequal(cls, kwargs, change, text):
    field, value = change
    assert cls(**kwargs) != cls(**{**kwargs, field: value})


@pytest.mark.parametrize(
    "generators",
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]],
        ((1, 0, 0), (0, 1, 0), (0, 0, "1/2")),
        [(F(1), "0", 0), [0, "1", 0], (0, 0, "2/4")],
    ],
    ids=["lists", "string-entry", "mixed"],
)
def test_lattice_generators_are_the_rows_read_not_the_rows_passed(generators):
    # the spec stores the integer rows its reader made, so the container
    # and the coefficient form passed do not reach eq or hash
    sample = LatticeSpec(**RECORDS["LatticeSpec"][1])
    spec = LatticeSpec(ALGEBRA, generators)
    assert spec == sample and hash(spec) == hash(sample)
    assert spec.integer_rows == (({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 2))
    assert all(
        type(e) is int for w, s in spec.integer_rows for e in (*w, *w.values(), s)
    )


@pytest.mark.parametrize(
    "record, field, default",
    [
        (CheckResult(True), "detail", ""),
        (IsotropyResult(True), "witness", None),
        (TrichotomyItem(None, "x"), "witnesses", ()),
        (CatalogEntry("k", ALGEBRA), "designated_subspace", None),
        (CatalogEntry("k", ALGEBRA), "notes", ()),
        (GrowthBound("Div", 1, F(2), "at_least", "div-lower"), "note", ""),
    ],
    ids=["check", "isotropy", "item", "entry-subspace", "entry-notes", "bound"],
)
def test_constructor_defaults(record, field, default):
    value = getattr(record, field)
    assert value == default and type(value) is type(default)


@pytest.mark.parametrize(
    "cls, kwargs, change, text",
    [row for name, row in RECORDS.items() if name != "LatticeSpec"],
    ids=[name for name in IDS if name != "LatticeSpec"],
)
def test_fields_refuse_assignment(cls, kwargs, change, text):
    record = cls(**kwargs)
    field, value = change
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert record == cls(**kwargs)


@pytest.mark.parametrize(
    "args, message",
    [
        (("G", 2, F(2), "equivalent", "s"), "target must be F or Div"),
        (("F", 2, F(2), "above", "s"), "unknown relation 'above'"),
        (("Div", 2, F(0), "at_least", "s"), "growth exponents are positive"),
        (("Div", 2, F(-3), "at_least", "s"), "growth exponents are positive"),
        (("F", 2, F(1), "equivalent", "s"), "filling exponents exceed 1"),
        (("F", 2, F(1, 2), "at_most", "s"), "filling exponents exceed 1"),
    ],
    ids=["target", "relation", "zero", "negative", "linear-filling", "sublinear"],
)
def test_growth_bound_rejections_are_input_errors(args, message):
    with pytest.raises(InputError) as info:
        GrowthBound(*args)
    assert str(info.value) == message


def test_replace_checks_the_new_bound():
    with pytest.raises(InputError) as info:
        BOUND._replace(exponent=F(0))
    assert str(info.value) == "growth exponents are positive"
    assert BOUND._replace(m=3) == GrowthBound("F", 3, F(2), "equivalent", "low-euclidean")
