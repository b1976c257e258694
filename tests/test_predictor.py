"""Growth-exponent prediction tables and their consistency checking."""

import itertools
from fractions import Fraction

import pytest

from carnot import (
    GrowthBound,
    HypothesisBundle,
    InputError,
    Subspace,
    build,
    coverage_table,
    predict_divergence,
    predict_filling,
)
from carnot.predictor import RELATIONS, _detect_conflict
from helpers import naive_conflict

F = Fraction


def bundle_for(key, labels=None, **kw):
    entry = build(key)
    s = (
        Subspace.from_labels(entry.algebra, labels)
        if labels is not None
        else entry.designated_subspace
    )
    return HypothesisBundle(s, **kw)


def as_triples(rows):
    return [(r.target, r.m, r.relation, r.exponent) for r in rows]


# -- bundle construction ------------------------------------------------------------


def test_bundle_recomputes_isotropy():
    entry = build("heisenberg_c:1")
    full = Subspace.from_labels(entry.algebra, ["j1", "k1"])
    with pytest.raises(InputError):
        HypothesisBundle(full)


def test_bundle_rejects_zero_subspace():
    entry = build("heisenberg_c:1")
    with pytest.raises(InputError):
        HypothesisBundle(Subspace(entry.algebra, []))


def test_assertion_below_certified_dimension_rejected():
    with pytest.raises(InputError):
        bundle_for("heisenberg_h:2", k1_max_isotropic=0)


def test_assertion_above_first_layer_rejected():
    # dim V1 = 8 bounds every isotropic subspace of heisenberg_h:2
    with pytest.raises(InputError, match="exceeds dim V1 = 8"):
        bundle_for("heisenberg_h:2", k1_max_isotropic=8)
    assert bundle_for("heisenberg_h:2", k1_max_isotropic=7).k1_max_isotropic == 7


SCALAR_MESSAGES = {
    "lattice_scalable": "lattice_scalable must be True, False or None",
    "k1_max_isotropic": "k1_max_isotropic must be an integer or None",
}


@pytest.mark.parametrize(
    "name, value",
    [
        ("lattice_scalable", "no"),
        ("lattice_scalable", 1),
        ("lattice_scalable", 0),
        ("k1_max_isotropic", True),
        ("k1_max_isotropic", "1"),
        ("k1_max_isotropic", 1.0),
    ],
)
def test_scalar_arguments_are_input_errors(name, value):
    with pytest.raises(InputError) as info:
        bundle_for("heisenberg_h:1", **{name: value})
    assert str(info.value) == SCALAR_MESSAGES[name]


def test_lattice_flag_defaults_by_degree():
    assert bundle_for("heisenberg_h:1").lattice_scalable
    assert not bundle_for("unipotent:4", labels=["E12", "E34"]).lattice_scalable
    assert not bundle_for("heisenberg_h:1", lattice_scalable=False).lattice_scalable


@pytest.mark.parametrize(
    "m, exponent",
    [(2, 2.5), (True, F(2)), (2.0, F(2)), ("2", F(2)), (2, "3"), (2, True)],
    ids=["float-exponent", "bool-m", "float-m", "string-m", "string-exponent",
         "bool-exponent"],
)
def test_growth_bound_reads_m_and_the_exponent_exactly(m, exponent):
    # the float and bool rows used to be accepted, "3" raised TypeError
    with pytest.raises(InputError) as info:
        GrowthBound("Div", m, exponent, "at_least", "div-lower")
    assert str(info.value) == "m must be an int and the exponent an int or a Fraction"
    assert GrowthBound("Div", 2, 3, "at_least", "div-lower").exponent == 3


def test_growth_bound_validation():
    with pytest.raises(InputError):
        GrowthBound("G", 2, F(2), "equivalent", "low-euclidean")
    with pytest.raises(InputError):
        GrowthBound("F", 2, F(2), "above", "low-euclidean")
    with pytest.raises(InputError):
        GrowthBound("F", 2, F(1), "equivalent", "low-euclidean")
    with pytest.raises(InputError):
        GrowthBound("Div", 2, F(-3), "at_least", "div-lower")
    assert GrowthBound("Div", 9, F(39, 4), "at_least", "div-high-lower-only")
    row = GrowthBound("F", 2, F(3, 2), "at_most", "gap-upper")
    assert row.as_dict() == {
        "target": "F",
        "m": 2,
        "exponent": "3/2",
        "relation": "at_most",
        "source": "gap-upper",
    }


# -- frozen tables -------------------------------------------------------------------


def test_quaternionic_n2_table():
    b = bundle_for("heisenberg_h:2")
    assert b.k == 1 and b.regular and b.lattice_scalable
    assert as_triples(predict_filling(b)) == [
        ("F", 2, "equivalent", F(2)),
        ("F", 3, "at_most", F(2)),
        ("F", 10, "at_least", F(13, 12)),
        ("F", 11, "equivalent", F(14, 13)),
    ]
    assert as_triples(predict_divergence(b)) == [
        ("Div", 1, "at_least", F(2)),
        ("Div", 9, "at_least", F(39, 4)),
    ]


def test_quaternionic_n2_with_maximality_assertion():
    rows = predict_filling(bundle_for("heisenberg_h:2", k1_max_isotropic=1))
    assert ("F", 3, "strictly_above", F(3, 2)) in as_triples(rows)


def test_octonionic_n1_table():
    b = bundle_for("heisenberg_o:1")
    assert b.k == 0
    assert as_triples(predict_filling(b)) == [
        ("F", 2, "at_most", F(3)),
        ("F", 15, "at_least", F(22, 21)),
    ]
    assert predict_divergence(b) == []


def test_octonionic_n1_strict_gap_bound():
    rows = predict_filling(bundle_for("heisenberg_o:1", k1_max_isotropic=0))
    triples = as_triples(rows)
    assert ("F", 2, "strictly_above", F(2)) in triples
    assert ("F", 2, "at_most", F(3)) in triples


def test_abelian_table_is_euclidean_everywhere():
    b = bundle_for("abelian:5")
    table = coverage_table(b)
    assert all(row.status == "bounded" for row in table.filling)
    assert all(row.status == "bounded" for row in table.divergence)
    for row in table.filling:
        eq = {r.exponent for r in row.bounds if r.relation == "equivalent"}
        assert eq == {F(row.m, row.m - 1)}
    for row in table.divergence:
        eq = {r.exponent for r in row.bounds if r.relation == "equivalent"}
        assert eq == {F(row.m + 1)}


def test_degraded_mode_without_regularity():
    b = bundle_for("unipotent:4", labels=["E12", "E34"])
    assert not b.regular
    assert as_triples(predict_filling(b)) == [
        ("F", 5, "at_least", F(9, 8)),
        ("F", 6, "at_least", F(10, 9)),
    ]
    assert as_triples(predict_divergence(b)) == [
        ("Div", 4, "at_least", F(9, 2)),
    ]
    notes = coverage_table(b).notes
    assert any("regularity failed" in n for n in notes)
    assert any("cubically" in n for n in notes)


def test_lattice_downgrade_keeps_lower_halves():
    b = bundle_for("heisenberg_h:2", lattice_scalable=False)
    triples = as_triples(predict_filling(b))
    assert ("F", 2, "at_least", F(2)) in triples
    assert ("F", 11, "at_least", F(14, 13)) in triples
    assert not any(rel in ("equivalent", "at_most") for _, _, rel, _ in triples)
    sources = {r.source for r in predict_filling(b)}
    assert sources == {
        "low-euclidean-lower-only",
        "high-subeuclidean-lower-only",
    }


# -- values implied by the high-band rules -------------------------------------------


@pytest.mark.parametrize(
    "key,labels,target,m,exponent",
    [
        # divergence equivalences one step inside the high band
        ("heisenberg_h:3", None, "Div", 13, F(221, 16)),
        ("heisenberg_o:3", None, "Div", 29, F(1073, 36)),
        ("heisenberg_c:3", ["j1", "j2", "j3"], "Div", 5, F(35, 6)),
        # top filling equivalence
        ("heisenberg_o:2", None, "F", 23, F(30, 29)),
        ("heisenberg_c:3", ["j1", "j2", "j3"], "F", 7, F(8, 7)),
    ],
)
def test_high_band_signature_values(key, labels, target, m, exponent):
    b = bundle_for(key, labels=labels)
    rows = predict_filling(b) if target == "F" else predict_divergence(b)
    match = [r for r in rows if r.m == m and r.relation == "equivalent"]
    assert len(match) == 1
    assert match[0].exponent == exponent


def test_divergence_band_respects_dimension_cap():
    # k = 0 leaves every divergence dimension unknown
    table = coverage_table(bundle_for("heisenberg_o:1"))
    assert all(row.status == "unknown" for row in table.divergence)
    assert len(table.divergence) == 13


# -- conflict detection ----------------------------------------------------------------


def gb(relation, exponent, m=4):
    return GrowthBound("F", m, F(exponent), relation, "gap-upper")


def test_conflicts():
    assert not _detect_conflict(())
    assert not _detect_conflict((gb("equivalent", 2), gb("at_least", 2)))
    assert not _detect_conflict((gb("at_least", 2), gb("at_most", 2)))
    assert not _detect_conflict((gb("equivalent", 2), gb("at_most", 2)))
    assert _detect_conflict((gb("equivalent", 2), gb("equivalent", 3)))
    assert _detect_conflict((gb("equivalent", 2), gb("at_least", 3)))
    assert _detect_conflict((gb("equivalent", 2), gb("strictly_above", 2)))
    assert _detect_conflict((gb("equivalent", 2), gb("at_most", "3/2")))
    assert _detect_conflict((gb("at_least", 3), gb("at_most", 2)))
    assert _detect_conflict((gb("strictly_above", 2), gb("at_most", 2)))


def test_conflicts_match_a_feasibility_scan():
    # every multiset of up to 4 bounds from 4 relations x 3 exponents
    kinds = [gb(r, e) for r in RELATIONS for e in ("3/2", 2, 3)]
    count = 0
    for size in range(5):
        for bounds in itertools.combinations_with_replacement(kinds, size):
            assert _detect_conflict(bounds) == naive_conflict(bounds), bounds
            count += 1
    assert count == 1820


def test_coverage_rows_span_full_ranges():
    table = coverage_table(bundle_for("heisenberg_h:2"))
    assert [row.m for row in table.filling] == list(range(2, 12))
    assert [row.m for row in table.divergence] == list(range(1, 10))
    by_m = {row.m: row for row in table.filling}
    assert by_m[7].status == "unknown"
    assert by_m[2].status == "bounded"
    assert not any(row.conflict for row in table.filling + table.divergence)
