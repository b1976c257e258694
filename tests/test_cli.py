"""Command-line interface: exit codes, text output, JSON documents."""

import contextlib
import io
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carnot
from carnot import GradedLieAlgebra, algebra_to_dict, build, save_algebra
from carnot import cli, linalg
from carnot.cli import main
from carnot.curvature import sectional_curvature
from carnot.linalg import InputError, parse_coefficient
from helpers import GATE_CASES, NOT_STRATIFIED_CASES, free_two_step


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- catalog and check -------------------------------------------------------------


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("heisenberg_c:1")
    assert "subspace=h1,h2" in next(l for l in lines if l.startswith("heisenberg_h:2"))


def test_catalog_json(capsys):
    code, doc, _ = run_json(capsys, "catalog")
    assert code == 0
    assert len(doc["entries"]) == 21
    first = doc["entries"][0]
    assert first["key"] == "heisenberg_c:1"
    assert first["layer_dimensions"] == [2, 1]


def test_check_valid_entry(capsys):
    code, out, _ = run(capsys, "check", "heisenberg_h:2")
    assert code == 0
    assert "jacobi: ok" in out
    assert "stratification: ok" in out
    assert "hausdorff dimension: 14" in out


def test_check_file_with_broken_grading(capsys, tmp_path):
    bad = GradedLieAlgebra(
        "bad",
        ["x", "y", "z"],
        [["x", "y"], ["z"]],
        {("x", "z"): {"y": 1}},
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(algebra_to_dict(bad)), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "stratification: FAIL" in out


def test_check_json_document(capsys):
    code, doc, _ = run_json(capsys, "check", "unipotent:4")
    assert code == 0
    assert doc["dimension"] == 6
    assert doc["degree"] == 3
    assert doc["jacobi"]["ok"] and doc["stratification"]["ok"]


# -- certify ------------------------------------------------------------------------


def test_certify_designated_subspace(capsys):
    code, out, _ = run(capsys, "certify", "heisenberg_h:2")
    assert code == 0
    assert "subspace: span(h1, h2) (dim 2)" in out
    assert "isotropic: yes" in out
    assert "regular: yes (rank 6 of 6)" in out
    assert "certified: yes" in out


def test_certify_rejecting_subspace(capsys):
    code, out, _ = run(capsys, "certify", "heisenberg_h:2", "--subspace", "h1,i1")
    assert code == 1
    assert "isotropic: no" in out
    assert "witness pair" in out


def test_certify_json_witness(capsys):
    code, doc, _ = run_json(
        capsys, "certify", "heisenberg_h:2", "--subspace", "h1,i1"
    )
    assert code == 1
    assert doc["isotropic"] is False
    assert doc["regular"] is False
    assert doc["rank"] == 4
    assert len(doc["witness"]) == 2


def test_certify_subspace_file(capsys, tmp_path):
    rows = [["0"] * 11, ["0"] * 11]
    rows[0][0] = "1"
    rows[1][1] = "1/1"
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    code, out, _ = run(
        capsys, "certify", "heisenberg_h:2", "--subspace-file", str(path)
    )
    assert code == 0
    assert "span(h1, h2)" in out


def test_certify_unknown_label(capsys):
    code, _, err = run(capsys, "certify", "heisenberg_h:2", "--subspace", "zz")
    assert code == 2
    assert "error:" in err


def test_certify_needs_some_subspace(capsys):
    code, _, err = run(capsys, "certify", "heisenberg_c:1")
    assert code == 2
    assert "designated" in err


def assert_one_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_certify_rejects_a_non_horizontal_subspace(capsys):
    code, out, err = run(capsys, "certify", "heisenberg_h:1", "--subspace", "h1,I")
    assert_one_error(code, out, err)
    assert err == "error: subspace is not horizontal\n"


def write_rows(tmp_path, rows):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("rows", [[5], ["100"]])
def test_subspace_file_rows_must_be_lists(capsys, tmp_path, rows):
    path = write_rows(tmp_path, rows)
    code, out, err = run(capsys, "certify", "heisenberg_c:1", "--subspace-file", path)
    assert_one_error(code, out, err)
    assert "JSON list" in err


@pytest.mark.parametrize(
    "value, message",
    [
        (1, "coefficient must be a string, got 1"),
        (0.5, "coefficient must be a string, got 0.5"),
        ("1e3", "coefficient must be an integer or p/q string, got '1e3'"),
    ],
)
def test_a_file_coefficient_is_a_grammar_string(capsys, tmp_path, value, message):
    # a JSON number used to get the message of a string outside the grammar
    path = write_rows(tmp_path, [[value, "0", "0"]])
    code, out, err = run(capsys, "certify", "heisenberg_c:1", "--subspace-file", path)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    with pytest.raises(InputError) as info:
        parse_coefficient(value)
    assert str(info.value) == message


@pytest.mark.parametrize("command", ["certify", "predict"])
def test_duplicated_subspace_label_is_rejected(capsys, command):
    code, out, err = run(capsys, command, "heisenberg_c:2", "--subspace", "j1,j1")
    assert_one_error(code, out, err)
    assert "'j1' twice" in err


@pytest.mark.parametrize("command", ["certify", "predict"])
def test_zero_subspace_file_is_rejected(capsys, tmp_path, command):
    path = write_rows(tmp_path, [["0", "0", "0"]])
    code, out, err = run(capsys, command, "heisenberg_c:1", "--subspace-file", path)
    assert_one_error(code, out, err)
    assert "zero subspace" in err


@pytest.mark.parametrize("command", ["certify", "predict", "curvature"])
def test_subspace_and_subspace_file_together_are_rejected(capsys, tmp_path, command):
    # neither may silently win over the other
    rows = [["0"] * 7]
    rows[0][0] = "1"
    path = write_rows(tmp_path, rows)
    code, out, err = run(
        capsys, command, "heisenberg_h:1", "--subspace", "h1", "--subspace-file", path
    )
    assert_one_error(code, out, err)
    assert "not both" in err


@pytest.mark.parametrize("option", ["--subspace", "--subspace-file"])
def test_empty_subspace_option_is_not_the_designated_subspace(capsys, option):
    # heisenberg_h:2 designates span(h1, h2); an empty value must not fall
    # back to it
    code, out, err = run(capsys, "certify", "heisenberg_h:2", option, "")
    assert_one_error(code, out, err)


# -- predict ------------------------------------------------------------------------


def test_predict_quaternionic_table(capsys):
    code, out, _ = run(capsys, "predict", "heisenberg_h:2")
    assert code == 0
    assert "  F^2: ~ l^2 [low-euclidean]" in out
    assert "  F^3: <= l^2 [gap-upper]" in out
    assert "  F^10: >= l^(13/12) [high-subeuclidean-lower-only]" in out
    assert "  F^11: ~ l^(14/13) [high-subeuclidean]" in out
    assert "  F^7: unknown" in out
    assert "  Div^1: >= r^2 [div-lower]" in out
    assert "  Div^9: >= r^(39/4) [div-high-lower-only]" in out
    assert "CONFLICT" not in out


def test_predict_with_maximality_assertion(capsys):
    code, out, _ = run(
        capsys, "predict", "heisenberg_h:2", "--max-isotropic", "2"
    )
    assert code == 0
    assert "> l^(3/2) [gap-strict-lower]" in out
    assert "asserted maximal isotropic dimension: 2 (k1 = 1)" in out


def test_predict_json_shape(capsys):
    code, doc, _ = run_json(capsys, "predict", "heisenberg_h:2")
    assert code == 0
    assert [row["m"] for row in doc["filling"]] == list(range(2, 12))
    assert [row["m"] for row in doc["divergence"]] == list(range(1, 10))
    by_m = {row["m"]: row for row in doc["filling"]}
    assert by_m[11]["status"] == "bounded"
    assert by_m[11]["bounds"][0]["exponent"] == "14/13"
    assert by_m[7] == {"m": 7, "status": "unknown", "bounds": []}


def test_predict_keeps_the_gap_row_at_the_top_dimension(capsys):
    # k = 2 puts the gap at k + 2 = 4 = dim; its upper bound equals the
    # high-band equivalence there, which is no conflict
    code, out, _ = run(capsys, "predict", "abelian:4", "--subspace", "x1,x2,x3")
    assert code == 0
    assert "  F^4: <= l^(4/3) [gap-upper]; ~ l^(4/3) [high-subeuclidean]\n" in out
    assert "CONFLICT" not in out


def test_predict_lattice_off(capsys):
    code, out, _ = run(capsys, "predict", "heisenberg_h:2", "--lattice", "no")
    assert code == 0
    assert "~" not in out.split("notes:")[0]
    assert "F^2: >= l^2 [low-euclidean-lower-only]" in out
    assert "scalable lattice: not assumed" in out


def test_predict_lattice_off_keeps_the_high_divergence_band_as_lower_bounds(capsys):
    # k = 2 puts one row of the two-sided high band at m = n - 2 = 13; without
    # the lattice it keeps the exponent of the equivalence as a lower bound
    rows = {}
    for lattice in ("yes", "no"):
        code, out, _ = run(capsys, "predict", "heisenberg_h:3", "--lattice", lattice)
        assert code == 0
        rows[lattice] = [line for line in out.splitlines() if line.startswith("  Div^")]
    assert "  Div^13: ~ r^(221/16) [div-high-equivalence]" in rows["yes"]
    assert "  Div^13: >= r^(221/16) [div-high-lower-only]" in rows["no"]
    for yes, no in zip(rows["yes"], rows["no"], strict=True):
        if "[div-high-equivalence]" in yes:
            m, exponent = yes.split(": ~ ")[0], yes.split()[2]
            assert no == "%s: >= %s [div-high-lower-only]" % (m, exponent)
        else:
            assert no == yes


def test_predict_degraded_table(capsys):
    code, out, _ = run(
        capsys, "predict", "unipotent:4", "--subspace", "E12,E34"
    )
    assert code == 0
    assert "F^5: >= l^(9/8)" in out
    assert "F^6: >= l^(10/9)" in out
    assert "Div^4: >= r^(9/2)" in out
    assert "regularity failed (rank 1 of 6)" in out


def test_predict_non_isotropic_subspace(capsys):
    code, _, err = run(capsys, "predict", "heisenberg_c:1", "--subspace", "j1,k1")
    assert code == 2
    assert "not isotropic" in err


def test_predict_max_isotropic_validation(capsys):
    code, _, err = run(
        capsys, "predict", "heisenberg_h:2", "--max-isotropic", "0"
    )
    assert code == 2
    assert "positive dimension" in err


@pytest.mark.parametrize("value", ["9", "100"])
def test_predict_max_isotropic_above_first_layer(capsys, value):
    # dim V1 = 8 for heisenberg_h:2, and an isotropic subspace is horizontal
    code, out, err = run(
        capsys, "predict", "heisenberg_h:2", "--max-isotropic", value
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: asserted maximal isotropic dimension %s exceeds dim V1 = 8" % value
    ]


def test_predict_max_isotropic_at_first_layer_dimension(capsys):
    code, out, _ = run(capsys, "predict", "heisenberg_h:2", "--max-isotropic", "8")
    assert code == 0
    assert "asserted maximal isotropic dimension: 8 (k1 = 7)" in out


@pytest.mark.parametrize("value", ["1", "2"])
def test_predict_max_isotropic_below_an_isotropic_first_layer(capsys, value):
    # V2 = 0 makes V1 isotropic, so its dimension 3 refutes the assertion
    code, out, err = run(
        capsys, "predict", "abelian:3", "--subspace", "x1", "--max-isotropic", value
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: asserted maximal isotropic dimension %s is below dim V1 = 3, "
        "and V1 is isotropic since V2 = 0" % value
    ]
    code, out, _ = run(
        capsys, "predict", "abelian:3", "--subspace", "x1", "--max-isotropic", "3"
    )
    assert code == 0
    assert "asserted maximal isotropic dimension: 3 (k1 = 2)" in out


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once per process; nothing parsed may carry over
    run(capsys, "predict", "heisenberg_h:2", "--max-isotropic", "2")
    code, out, _ = run(capsys, "predict", "heisenberg_h:2")
    assert code == 0
    assert "asserted maximal" not in out
    run_json(capsys, "check", "heisenberg_h:2")
    code, out, _ = run(capsys, "check", "heisenberg_h:2")
    assert code == 0
    assert out.startswith("source: heisenberg_h:2\n")


# -- curvature ----------------------------------------------------------------------


def test_curvature_asserted_report(capsys):
    code, out, _ = run(
        capsys, "curvature", "heisenberg_h:2", "--assert-maximal"
    )
    assert code == 0
    assert "flat inside subspace: holds" in out
    assert "negative toward horizontal: holds" in out
    assert "positive toward vertical: holds" in out


def test_curvature_without_assertion(capsys):
    code, out, _ = run(capsys, "curvature", "heisenberg_h:2")
    assert code == 0
    assert "negative toward horizontal: not evaluated" in out


def test_curvature_false_assertion_fails(capsys):
    code, out, _ = run(
        capsys,
        "curvature",
        "heisenberg_h:2",
        "--subspace",
        "h1",
        "--assert-maximal",
    )
    assert code == 1
    assert "negative toward horizontal: FAILS" in out
    assert "h2" in out


def test_curvature_json(capsys):
    code, doc, _ = run_json(
        capsys, "curvature", "heisenberg_c:1", "--subspace", "j1", "--assert-maximal"
    )
    assert code == 0
    assert doc["negative_toward_horizontal"]["witnesses"] == [["j1", "k1", "-3/4"]]
    assert doc["positive_toward_vertical"]["witnesses"] == [["j1", "K", "1/4"]]


def test_curvature_names_the_directions_without_a_partner(capsys, tmp_path):
    _, path = free_two_step_file(tmp_path, 4)
    code, out, _ = run(
        capsys, "curvature", path, "--subspace", "x0", "--assert-maximal"
    )
    assert code == 1
    assert (
        "positive toward vertical: FAILS "
        "(no positively curved partner for: y1_2, y1_3, y2_3)"
    ) in out.splitlines()
    code, out, _ = run(
        capsys, "curvature", "heisenberg_c:2", "--subspace", "j1", "--assert-maximal"
    )
    assert code == 1
    assert (
        "negative toward horizontal: FAILS (no negatively curved partner for: j2, k2)"
    ) in out.splitlines()


# -- pittet, lattice, forms-d --------------------------------------------------------


def test_pittet_octonion_kernel_empty(capsys):
    code, out, _ = run(capsys, "pittet", "heisenberg_o:1")
    assert code == 0
    assert "generating pairs: 56" in out
    assert "kernel dimension: 0" in out


def test_pittet_complex_kernel(capsys):
    code, doc, _ = run_json(capsys, "pittet", "heisenberg_c:1")
    assert code == 0
    assert doc["kernel_dimension"] == 2
    assert doc["pairs"] == [["K", "j1"], ["K", "k1"]]


def test_pittet_three_step_rejected(capsys):
    code, _, err = run(capsys, "pittet", "unipotent:4")
    assert code == 2
    assert "2-step" in err


def free_two_step_file(tmp_path, n):
    """N(n, 2) of ``free_two_step``, saved as an algebra file."""
    algebra = GradedLieAlgebra("N(%d, 2)" % n, *free_two_step(n))
    path = tmp_path / ("free%d.json" % n)
    save_algebra(algebra, path)
    return algebra, str(path)


def test_pittet_output_is_a_rendering_of_the_dense_oracle(capsys, tmp_path):
    # every kernel vector of N(4, 2), in both modes, printed from the dense
    # Fraction rows of the public differential's nullspace
    from test_forms import public_column_kernel

    algebra, path = free_two_step_file(tmp_path, 4)
    label = algebra.basis
    pairs = [(label[y], label[x]) for y in algebra.layers[1] for x in algebra.layers[0]]
    kernel = public_column_kernel(algebra, pairs)[0]
    assert len(pairs) == 24 and len(kernel) == 20
    text = ["source: %s" % path, "generating pairs: 24", "kernel dimension: 20"]
    for v in kernel:
        terms = ("%s*(%s^%s)" % (c, *pair) for c, pair in zip(v, pairs) if c)
        text.append("  closed: " + " + ".join(terms))
    doc = {
        "source": path,
        "pairs": [list(pair) for pair in pairs],
        "kernel_dimension": 20,
        "kernel_basis": [[str(c) for c in v] for v in kernel],
    }
    assert run(capsys, "pittet", path) == (0, "\n".join(text) + "\n", "")
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert run(capsys, "pittet", path, "--json") == (0, json_text, "")


def test_pittet_densifies_kernel_rows_only_for_json(capsys, tmp_path, monkeypatch):
    # N(12, 2): 792 pairs and a kernel of 572; the text lines read each
    # row's support, and --json writes each row exactly once, through the
    # one JSON row printer and never through a dense Fraction row
    _, path = free_two_step_file(tmp_path, 12)
    reports = []
    kernel = cli.pittet_kernel

    def kept(algebra):
        reports.append(kernel(algebra))
        return reports[-1]

    monkeypatch.setattr(cli, "pittet_kernel", kept)
    printed = count_calls(monkeypatch, cli, "_json_row")
    dense = count_calls(monkeypatch, linalg, "densify")
    code, out, _ = run(capsys, "pittet", path)
    assert code == 0 and printed == []
    assert "generating pairs: 792\nkernel dimension: 572\n" in out
    assert out.count("  closed: ") == 572
    code, doc, _ = run_json(capsys, "pittet", path)
    assert code == 0 and len(doc["kernel_basis"]) == 572
    assert [id(w) for w, *_ in printed] == [id(w) for w, _ in reports[-1].kernel_basis]
    assert dense == []


def test_lattice_report(capsys):
    code, out, _ = run(capsys, "lattice", "heisenberg_c:1")
    assert code == 0
    assert "group closure: ok" in out
    assert "scaling closure: ok" in out
    assert "1/2*K" in out
    code, doc, _ = run_json(capsys, "lattice", "heisenberg_c:1")
    assert code == 0
    assert doc["generators"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]]


def write_algebra(tmp_path, name, basis, layers, table):
    path = tmp_path / ("%s.json" % name)
    save_algebra(GradedLieAlgebra(name, basis, layers, table), str(path))
    return path


def write_item6(tmp_path):
    # [a, b] = z and [a, c] = z/3: the halved brackets span Z z/6
    return write_algebra(
        tmp_path,
        "item6",
        ["a", "b", "c", "z"],
        [["a", "b", "c"], ["z"]],
        {("a", "b"): {"z": 1}, ("a", "c"): {"z": "1/3"}},
    )


def test_lattice_takes_the_integer_span_of_the_halved_brackets(capsys, tmp_path):
    code, out, err = run(capsys, "lattice", str(write_item6(tmp_path)))
    assert code == 0, err
    assert out.splitlines()[1:6] == ["generators:", "  a", "  b", "  c", "  1/6*z"]
    assert "group closure: ok" in out
    assert "scaling closure: ok" in out


def test_predict_and_lattice_agree_on_a_rational_algebra(capsys, tmp_path):
    code, out, _ = run(capsys, "predict", str(write_item6(tmp_path)), "--subspace", "a")
    assert code == 0
    assert "scalable lattice: assumed available" in out


# the lattice runs behind the validity gate, which rejects each of these
@pytest.mark.parametrize(
    "name, basis, layers, table, detail",
    [
        # [V1, V1] misses y: a padding y/2 used to stand in for it
        GATE_CASES["rank-deficient"],
        # one layer with [a, b] = a: the bracket leaves the (empty) second layer
        GATE_CASES["ab-equals-a"],
        # [a, b] = z already spans V2, and [b, c] = b leaves it after that
        GATE_CASES["late-leak"],
    ],
    ids=["rank-deficient", "one-layer", "leak-after-span"],
)
def test_lattice_rejects_brackets_that_miss_the_second_layer(
    capsys, tmp_path, name, basis, layers, table, detail
):
    path = write_algebra(tmp_path, name, basis, layers, table)
    code, out, err = run(capsys, "lattice", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: not a stratified Lie algebra: %s\n" % detail


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_lattice_rejects_a_second_layer_that_brackets(capsys, tmp_path, extra):
    # [a, z] = y: the 2-step group law behind the generators does not hold
    name, basis, layers, table, detail = GATE_CASES["noncentral"]
    path = write_algebra(tmp_path, name, basis, layers, table)
    code, out, err = run(capsys, "lattice", str(path), *extra)
    assert_one_error(code, out, err)
    assert err == "error: not a stratified Lie algebra: %s\n" % detail


NOT_STRATIFIED = pytest.mark.parametrize(
    "name, basis, layers, table, detail",
    list(NOT_STRATIFIED_CASES.values()),
    ids=list(NOT_STRATIFIED_CASES),
)


@pytest.mark.parametrize("command", ["certify", "predict"])
@NOT_STRATIFIED
def test_certify_and_predict_reject_an_algebra_that_is_not_stratified(
    capsys, tmp_path, command, name, basis, layers, table, detail
):
    path = str(write_algebra(tmp_path, name, basis, layers, table))
    # the gate runs before the subspace is resolved, so a missing one
    # does not hide the failed check
    for extra in (["--subspace", "a"], []):
        code, out, err = run(capsys, command, path, *extra)
        assert_one_error(code, out, err)
        assert err == "error: not a stratified Lie algebra: %s\n" % detail


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--subspace", "a"],
        ["curvature"],
        ["pittet"],
        ["forms-d", "{}"],
        ["lattice"],
    ],
)
@NOT_STRATIFIED
def test_curvature_and_pittet_reject_an_algebra_that_is_not_stratified(
    capsys, tmp_path, argv, name, basis, layers, table, detail
):
    path = str(write_algebra(tmp_path, name, basis, layers, table))
    form = tmp_path / "form.json"
    term = {"indices": [0], "coeff": "1"}
    form.write_text(json.dumps({"degree": 1, "terms": [term]}), encoding="utf-8")
    code, out, err = run(capsys, argv[0], path, *(a.format(form) for a in argv[1:]))
    assert_one_error(code, out, err)
    assert err == "error: not a stratified Lie algebra: %s\n" % detail


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{algebra}", "--subspace", "zz"],
        ["certify", "{algebra}", "--subspace", "a", "--subspace-file", "{missing}"],
        ["forms-d", "{algebra}", "{missing}"],
    ],
    ids=["bad-label", "both-subspace-options", "missing-form-file"],
)
def test_the_gate_runs_before_the_subspace_and_the_form_are_read(
    capsys, tmp_path, argv
):
    _, basis, layers, table, detail = NOT_STRATIFIED_CASES["ab-equals-a"]
    paths = {
        "algebra": write_algebra(tmp_path, "ab", basis, layers, table),
        "missing": tmp_path / "missing.json",
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert_one_error(code, out, err)
    assert err == "error: not a stratified Lie algebra: %s\n" % detail


def test_check_reports_what_the_gate_would_refuse(capsys, tmp_path):
    _, basis, layers, table, detail = NOT_STRATIFIED_CASES["ab-equals-a"]
    path = str(write_algebra(tmp_path, "ab", basis, layers, table))
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (1, "")
    assert "stratification: FAIL (%s)" % detail in out


def test_both_subspace_options_are_refused_before_either_is_read(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    argv = ["heisenberg_h:2", "--subspace", "zz", "--subspace-file", missing]
    code, out, err = run(capsys, "certify", *argv)
    assert_one_error(code, out, err)
    assert err == "error: give --subspace or --subspace-file, not both\n"


def test_predict_resolves_the_subspace_before_it_reads_max_isotropic(capsys):
    code, out, err = run(
        capsys, "predict", "heisenberg_h:2", "--subspace", "zz", "--max-isotropic", "0"
    )
    assert_one_error(code, out, err)
    assert err == "error: unknown basis label 'zz'\n"


def test_forms_d_reports_differential(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(
        json.dumps({"degree": 1, "terms": [{"indices": [2], "coeff": "1"}]}),
        encoding="utf-8",
    )
    code, doc, _ = run_json(capsys, "forms-d", "heisenberg_c:1", str(path))
    assert code == 0
    assert doc["closed"] is False
    assert doc["scaling_weight"] == 2
    assert doc["differential"]["terms"] == [
        {"indices": [0, 1], "coeff": "-1/2"}
    ]


def test_forms_d_json_renders_no_text_lines(capsys, tmp_path, monkeypatch):
    def unused(form):
        raise AssertionError("text line built under --json")

    monkeypatch.setattr(carnot.InvariantForm, "__repr__", unused)
    path = tmp_path / "form.json"
    path.write_text(
        json.dumps({"degree": 1, "terms": [{"indices": [2], "coeff": "1"}]}),
        encoding="utf-8",
    )
    code, doc, _ = run_json(capsys, "forms-d", "heisenberg_c:1", str(path))
    assert code == 0
    assert doc["closed"] is False


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's
    arguments in the returned list and passes the call on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "heisenberg_c:1"],
        ["pittet", "heisenberg_c:1"],
        ["certify", "heisenberg_h:2", "--subspace", "h1,i1"],
    ],
    ids=["lattice", "pittet", "certify-witness"],
)
def test_only_the_printed_form_is_built(capsys, monkeypatch, argv):
    # the JSON document is written by _render and its rows by _json_row,
    # text vectors by describe_pair, which describe calls
    rendered = count_calls(monkeypatch, carnot.cli, "_render")
    rows = count_calls(monkeypatch, carnot.cli, "_json_row")
    described = count_calls(monkeypatch, GradedLieAlgebra, "describe_pair")
    run(capsys, *argv)
    assert rendered == [] and rows == []
    text_described = len(described)
    run(capsys, *argv, "--json")
    assert rendered != []
    assert len(described) == text_described
    if argv[0] != "certify":
        assert rows != []
    if argv[0] != "pittet":
        assert text_described > 0


def test_forms_d_closed_form(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(
        json.dumps({"degree": 1, "terms": [{"indices": [0], "coeff": "2"}]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "forms-d", "heisenberg_c:1", str(path))
    assert code == 0
    assert "closed: yes" in out
    assert "scaling weight: 1" in out


def test_forms_d_rejects_zero_form(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"degree": 1, "terms": []}), encoding="utf-8")
    code, _, err = run(capsys, "forms-d", "heisenberg_c:1", str(path))
    assert code == 2
    assert "zero" in err


@pytest.mark.parametrize(
    "form",
    [
        {"degree": 2, "terms": [{"indices": "01", "coeff": "1"}]},
        {"degree": 2, "terms": [{"indices": [0.9, 1.7], "coeff": "1"}]},
        {"degree": 2.9, "terms": [{"indices": [0, 1], "coeff": "1"}]},
        {"degree": "2", "terms": [{"indices": [0, 1], "coeff": "1"}]},
        {"degree": True, "terms": [{"indices": [True], "coeff": "1"}]},
        {"degree": 1, "terms": [{"indices": [True], "coeff": "1"}]},
        {"degree": 2, "terms": {"indices": [0, 1], "coeff": "1"}},
        {"degree": 2, "terms": [[0, 1]]},
        [{"degree": 2}],
    ],
)
def test_forms_d_rejects_non_integer_degree_and_indices(capsys, tmp_path, form):
    # each of these used to be read silently as h1*^i1* or i1*
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form), encoding="utf-8")
    code, out, err = run(capsys, "forms-d", "heisenberg_h:1", str(path))
    assert_one_error(code, out, err)


def test_forms_d_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "forms-d", "heisenberg_c:1", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "error:" in err


# -- sources and flags ---------------------------------------------------------------


def test_unknown_source_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "nope")
    assert code == 2
    assert "neither an existing file nor a catalog id" in err


def test_unknown_family(capsys):
    code, _, err = run(capsys, "check", "nope:3")
    assert code == 2
    assert "error:" in err


def test_malformed_catalog_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}', encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("basis", "abc"),
        ("layers", ["ab", "c"]),
        ("layers", "abc"),
        ("layers", 5),
        ("basis", ["a", "b", 3]),
        ("name", ["x"]),
        ("brackets", {"left": "a"}),
        ("brackets", "ab"),
    ],
)
def test_algebra_file_rejects_strings_and_scalars_for_lists(
    capsys, tmp_path, field, value
):
    data = {
        "name": "strings",
        "basis": ["a", "b", "c"],
        "layers": [["a", "b"], ["c"]],
        "brackets": [
            {"left": "a", "right": "b", "result": [{"basis": "c", "coeff": "1"}]}
        ],
    }
    data[field] = value
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "bracket",
    [
        {"left": ["a"], "right": "b", "result": [{"basis": "c", "coeff": "1"}]},
        {"left": "a", "right": ["b"], "result": [{"basis": "c", "coeff": "1"}]},
        {"left": "a", "right": "b", "result": [{"basis": ["c"], "coeff": "1"}]},
        {"left": "a", "right": "b", "result": 5},
    ],
    ids=["left", "right", "result-basis", "result-scalar"],
)
def test_algebra_file_rejects_unhashable_bracket_labels(capsys, tmp_path, bracket):
    data = {
        "name": "lists",
        "basis": ["a", "b", "c"],
        "layers": [["a", "b"], ["c"]],
        "brackets": [bracket],
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert_one_error(*run(capsys, "check", str(path)))


BAD_JSON_FILES = {
    "not-utf8": b"\xff\xfe{",
    "too-deep": b"[" * 200_000 + b"]" * 200_000,
    "too-many-digits": b"[" + b"1" * 5000 + b"]",
}


@pytest.mark.parametrize("content", sorted(BAD_JSON_FILES))
@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{}"),
        ("certify", "heisenberg_h:1", "--subspace-file", "{}"),
        ("forms-d", "heisenberg_h:1", "{}"),
    ],
    ids=["algebra", "subspace-file", "forms-d"],
)
def test_unreadable_json_is_an_input_error(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(BAD_JSON_FILES[content])
    assert_one_error(*run(capsys, *(a.format(path) for a in argv)))


MANY_DIGITS = "1" * 5000


@pytest.mark.parametrize(
    "argv, document",
    [
        (
            ("check", "{}"),
            {
                "name": "digits",
                "basis": ["a", "b", "c"],
                "layers": [["a", "b"], ["c"]],
                "brackets": [
                    {
                        "left": "a",
                        "right": "b",
                        "result": [{"basis": "c", "coeff": MANY_DIGITS}],
                    }
                ],
            },
        ),
        (
            ("certify", "heisenberg_c:1", "--subspace-file", "{}"),
            {"rows": [["1/" + MANY_DIGITS, "0", "0"]]},
        ),
        (
            ("forms-d", "heisenberg_c:1", "{}"),
            {"degree": 1, "terms": [{"indices": [0], "coeff": "-" + MANY_DIGITS}]},
        ),
    ],
    ids=["algebra", "subspace-file", "forms-d"],
)
def test_a_coefficient_past_the_digit_limit_is_an_input_error(
    capsys, tmp_path, argv, document
):
    # the interpreter will not read an int of over 4300 digits from text
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert_one_error(code, out, err)
    assert "too long" in err


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's limit on the digits of an int turned into
    text (Python 3.10.7 on) for the block, and put it back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_results_past_the_digit_limit_print_exactly(capsys, tmp_path):
    # K(a, z) = c^2 / 4 for [a, b] = c z has about 5000 digits
    table = {("a", "b"): {"z": "1" * 2500}}
    path = write_algebra(
        tmp_path, "digits", ["a", "b", "z"], [["a", "b"], ["z"]], table
    )
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "curvature", str(path), "--subspace", "a")
    assert code == 0, err
    assert "positive toward vertical: holds" in out
    code, doc, err = run_json(capsys, "curvature", str(path), "--subspace", "a")
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    algebra = carnot.load_algebra(str(path))
    with no_digit_limit():
        expected = [
            [a, b, str(sectional_curvature(algebra, a, b))] for a, b, _ in doc["planes"]
        ]
    assert doc["planes"] == expected
    assert max(len(value) for _, _, value in doc["planes"]) > 4300
    # input parsing keeps the limit
    with pytest.raises(InputError, match="too long"):
        parse_coefficient("1" * 5000)
    path.write_text("[%s]" % ("1" * 5000), encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        carnot.catalog.read_json(str(path))


# characters json escapes: quotes, backslashes, controls, non-ASCII beyond the
# basic plane, line separators and lone surrogates
ESCAPED = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9",
                           "\u2028", "\U0001f600", "\ud800", "\udfff"])
JSON_STRINGS = st.lists(st.characters() | ESCAPED, max_size=8).map("".join)
JSON_INTS = st.integers() | st.builds(
    lambda sign, low: sign * (10 ** 4300 + low),
    st.sampled_from([1, -1]),
    st.integers(0, 10 ** 6),
)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(JSON_TREES)
def test_render_is_json_dumps_with_indent_and_sorted_keys(doc):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with no_digit_limit():
        assert cli._render(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.parametrize(
    "doc",
    [1.5, {1, 2}, {1: "a"}, {"a": [0.0]}, [{"b": {3: 4}}]],
    ids=["float", "set", "int-key", "nested-float", "nested-int-key"],
)
def test_render_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        cli._render(doc)


def test_render_writes_a_fraction_as_its_string():
    assert cli._render(Fraction(1, 2)) == json.dumps("1/2")
    doc = {"a": [Fraction(-3), (Fraction(1, 2), {"b": Fraction(10**30, 7)})]}
    as_strings = {"a": ["-3", ["1/2", {"b": str(Fraction(10**30, 7))}]]}
    assert cli._render(doc) == json.dumps(as_strings, indent=2, sort_keys=True)


def test_json_output_is_indented_json_with_sorted_keys(capsys):
    from test_acceptance import CLI_CORPUS

    for argv in (a for a in CLI_CORPUS if "--json" in a):
        main(list(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


def test_a_dimension_over_the_budget_is_an_input_error(capsys):
    code, out, err = run(capsys, "check", "abelian:513")
    assert_one_error(code, out, err)
    assert err == "error: dimension 513 is over the budget of 512\n"


@pytest.mark.parametrize(
    "key, message",
    [
        ("heisenberg_o:1000000", "dimension 8000007 is over the budget of 512"),
        ("abelian:3000000", "dimension 3000000 is over the budget of 512"),
        # a parameter past the interpreter's limit on the digits of an int
        ("abelian:" + "1" * 5000, "dimension is over the budget of 512"),
    ],
    ids=["heisenberg_o:1000000", "abelian:3000000", "abelian:5000-ones"],
)
def test_an_id_over_the_budget_is_refused_before_it_is_built(
    capsys, monkeypatch, key, message
):
    from test_catalog import refuse_labels_past_the_budget

    refuse_labels_past_the_budget(monkeypatch)
    code, out, err = run(capsys, "check", key)
    assert_one_error(code, out, err)
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["brackets"][0].update(right="j1"),
            "bracket of 'j1' with itself listed",
        ),
        (
            lambda doc: doc["brackets"].append(doc["brackets"][0]),
            "bracket pair (j1, k1) listed twice",
        ),
    ],
    ids=["with-itself", "twice-in-one-orientation"],
)
def test_check_refuses_a_bracket_table_that_lists_a_pair_wrongly(
    capsys, tmp_path, edit, message
):
    doc = algebra_to_dict(build("heisenberg_c:1").algebra)
    edit(doc)
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert_one_error(code, out, err)
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "key", ["heisenberg_c:0", "heisenberg_h:0", "heisenberg_o:-1", "abelian:0"]
)
def test_check_refuses_a_family_parameter_below_1(capsys, key):
    code, out, err = run(capsys, "check", key)
    assert_one_error(code, out, err)
    assert err == "error: %s needs n >= 1\n" % key.partition(":")[0]


# valid documents of each file kind, with the command that reads them
DOCUMENTS = [
    (("check", "{}"), algebra_to_dict(build("heisenberg_h:1").algebra)),
    (
        ("certify", "{}", "--subspace", "h1,i1"),
        algebra_to_dict(build("heisenberg_c:2").algebra),
    ),
    (
        ("certify", "heisenberg_h:1", "--subspace-file", "{}"),
        {"rows": [["1"] + ["0"] * 6, ["0", "0", "1/2", "3", "0", "0", "0"]]},
    ),
    (
        ("forms-d", "heisenberg_h:1", "{}"),
        {
            "degree": 2,
            "terms": [
                {"indices": [0, 4], "coeff": "-3/2"},
                {"indices": [1, 2], "coeff": "1"},
            ],
        },
    ),
]
DROP = object()
MUTANTS = [DROP, None, True, 2.5, "", [], {}, MANY_DIGITS, 10**40]


def subtree_paths(doc, path=()):
    """The path of every subtree of a JSON document, keys and positions."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from subtree_paths(child, path + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` with the subtree at ``path`` replaced by ``value``,
    or removed when ``value`` is DROP."""
    if not path:
        return None if value is DROP else value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_documents_exit_cleanly(tmp_path_factory, data):
    argv, doc = data.draw(st.sampled_from(DOCUMENTS))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(subtree_paths(doc))))
        doc = mutated(doc, path, data.draw(st.sampled_from(MUTANTS)))
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(path) for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "key", ["heisenberg_h:1_0", "heisenberg_h:+1", "heisenberg_h:\u0662"]
)
def test_catalog_parameter_must_be_plain_decimal(capsys, key):
    code, out, err = run(capsys, "check", key)
    assert_one_error(code, out, err)
    assert "catalog parameter must be an integer" in err


def test_saved_entry_round_trips_through_cli(capsys, tmp_path):
    from carnot import build

    path = tmp_path / "hh1.json"
    save_algebra(build("heisenberg_h:1"), str(path))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "hausdorff dimension: 10" in out


def test_threads_flag_does_not_change_output(capsys):
    _, base, _ = run(capsys, "predict", "heisenberg_h:2", "--json")
    _, threaded, _ = run(
        capsys, "predict", "heisenberg_h:2", "--json", "--threads", "8"
    )
    assert base == threaded


def test_cli_subprocess_determinism():
    cmd = [
        sys.executable,
        "-m",
        "carnot.cli",
        "predict",
        "heisenberg_o:2",
        "--json",
    ]
    # run from the directory holding the package under test, so that
    # ``-m`` finds it without PYTHONPATH
    root = Path(carnot.__file__).parents[1]
    first = subprocess.run(cmd, capture_output=True, check=True, cwd=root)
    second = subprocess.run(cmd, capture_output=True, check=True, cwd=root)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_importing_the_cli_loads_no_typing_module():
    # every annotation is a string under ``from __future__ import
    # annotations``, so a cold start has no use for ``typing``; the records
    # are named tuples, so nothing imports ``dataclasses`` and the modules
    # it pulls in
    src = str(Path(carnot.__file__).parents[1])
    banned = ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = "import sys; sys.path.insert(0, %r); import carnot.cli; " % src
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] in %r))" % (banned,)
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, check=True
    )
    assert child.stdout == b"[]\n"


def test_lattice_output_does_not_depend_on_the_hash_seed(tmp_path):
    path = write_item6(tmp_path)
    cmd = [sys.executable, "-m", "carnot.cli", "lattice", str(path)]
    root = Path(carnot.__file__).parents[1]
    runs = [
        subprocess.run(
            cmd,
            capture_output=True,
            check=True,
            cwd=root,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    assert runs[0].stdout == runs[1].stdout
    assert b"1/6*z" in runs[0].stdout


CORPUS_RUNNER = """
import contextlib, io, json, sys
from carnot.cli import main
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write("$ %s -> %d\\n%s" % (" ".join(argv), code, out.getvalue()))
"""


def test_cli_corpus_does_not_depend_on_the_hash_seed():
    from test_acceptance import CLI_CORPUS

    root = Path(carnot.__file__).parents[1]
    runs = [
        subprocess.run(
            [sys.executable, "-c", CORPUS_RUNNER],
            input=json.dumps(CLI_CORPUS).encode("utf-8"),
            capture_output=True,
            check=True,
            cwd=root,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1")
    ]
    assert runs[0].stdout == runs[1].stdout
    headers = [l for l in runs[0].stdout.splitlines() if l.startswith(b"$ ")]
    assert len(headers) == len(CLI_CORPUS)


# -- package surface -----------------------------------------------------------------


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(carnot).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(carnot.__all__)) == len(carnot.__all__)
    assert all(hasattr(carnot, name) for name in carnot.__all__)
    assert bound == set(carnot.__all__)


def test_every_catalog_check_runs_the_validity_gate_again(capsys, monkeypatch):
    # a catalog algebra comes unchecked, and no call reuses another's verdict
    assert build("heisenberg_h:3").algebra._validity is None
    calls = []
    jacobi_check = carnot.algebra.jacobi_check

    def spy(algebra):
        calls.append(algebra.name)
        return jacobi_check(algebra)

    monkeypatch.setattr(carnot.algebra, "jacobi_check", spy)
    assert run(capsys, "check", "heisenberg_h:3")[0] == 0
    assert calls == ["heisenberg_h:3"]
    assert run(capsys, "check", "heisenberg_h:3")[0] == 0
    assert calls == ["heisenberg_h:3", "heisenberg_h:3"]
