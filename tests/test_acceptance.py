"""Acceptance gate: one test per shipped claim, each printing a verdict line.

Every test here freezes an independently derived value or sweeps a stated
property over the whole catalog.  Run with -v to get one pass/fail line per
criterion; the PASS prints appear with -s.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from carnot import (
    GradedLieAlgebra,
    GroupElement,
    HypothesisBundle,
    Subspace,
    build,
    build_scalable_lattice,
    check_cube_closed,
    check_group_closure,
    check_scaling_closure,
    coverage_table,
    cube_form,
    default_entries,
    differential,
    gromov_dimension_bound,
    hausdorff_dimension,
    is_isotropic,
    is_regular,
    jacobi_check,
    pittet_kernel,
    predict_divergence,
    predict_filling,
    scaling_weight,
    sectional_curvature,
    stratification_check,
    trichotomy_report,
    two_step_closed_forms,
)
from carnot.cli import main as cli_main
from helpers import label_table, random_form

F = Fraction


def verdict(number, text):
    print("criterion %d: PASS - %s" % (number, text))


def seed_of(key, salt=0):
    return sum(ord(c) for c in key) * 100 + salt


TWO_STEP_KEYS = [
    e.key for e in default_entries() if e.algebra.declared_degree <= 2
]


def test_criterion_1_structural_validity():
    entries = default_entries()
    assert len(entries) == 21
    for entry in entries:
        assert jacobi_check(entry.algebra).ok, entry.key
        assert stratification_check(entry.algebra).ok, entry.key
    for n in range(3, 7):
        algebra = build("unipotent:%d" % n).algebra
        assert [len(layer) for layer in algebra.layers] == list(range(n - 1, 0, -1))
    verdict(1, "all 21 catalog entries valid; strict upper-triangular layer "
               "dimensions are (n-1, ..., 1)")


def test_criterion_2_certification_ranks():
    for family, codim in (("heisenberg_h", 3), ("heisenberg_o", 7)):
        for n in (1, 2, 3):
            entry = build("%s:%d" % (family, n))
            s = entry.designated_subspace
            assert s.dim == n
            iso = is_isotropic(s)
            reg = is_regular(s)
            assert iso.isotropic and reg.regular, entry.key
            n1 = len(entry.algebra.layers[0])
            assert entry.algebra.dimension - n1 == codim
            assert reg.rank == reg.required_rank == codim * n
    verdict(2, "designated n-dim subspaces certify with regularity rank "
               "(dim - dim V1) * n in both families, n = 1..3")


def test_criterion_3_dimension_bound():
    for family in ("heisenberg_h", "heisenberg_o"):
        for n in (1, 2, 3):
            algebra = build("%s:%d" % (family, n)).algebra
            report = gromov_dimension_bound(algebra, n)
            assert report.satisfied and report.lhs == report.rhs
            n1 = len(algebra.layers[0])
            assert report.lhs == n1 - n
    for n in (1, 2, 3):
        algebra = build("heisenberg_o:%d" % n).algebra
        assert not gromov_dimension_bound(algebra, n + 1).satisfied
    for n in (4, 5, 6):
        algebra = build("unipotent:%d" % n).algebra
        assert not gromov_dimension_bound(algebra, 2).satisfied
    verdict(3, "dimension count is tight at k = n for both families and "
               "fails at k = n+1 (octonionic) and k = 2 (unipotent, n >= 4)")


def test_criterion_4_pittet_kernel():
    algebra = build("heisenberg_o:1").algebra
    start = time.perf_counter()
    report = pittet_kernel(algebra)
    elapsed = time.perf_counter() - start
    assert len(report.pairs) == 56
    assert report.kernel_dimension == 0
    assert elapsed < 10.0, "kernel computation took %.1fs" % elapsed

    # invariance under reshuffling the basis within its layers
    for seed in (1, 7, 23):
        rng = random.Random(seed)
        first = [algebra.basis[i] for i in algebra.layers[0]]
        second = [algebra.basis[i] for i in algebra.layers[1]]
        rng.shuffle(first)
        rng.shuffle(second)
        shuffled = GradedLieAlgebra(
            "shuffled", first + second, [first, second], label_table(algebra)
        )
        assert pittet_kernel(shuffled).kernel_dimension == 0
    verdict(4, "the 56-pair closed-combination system has trivial kernel, "
               "in %.2fs, independent of basis order" % elapsed)


def test_criterion_5_forms():
    # d on random forms squares to zero, 50 per algebra per degree
    for entry in default_entries():
        algebra = entry.algebra
        for degree in range(1, min(4, algebra.dimension) + 1):
            rng = random.Random(seed_of(entry.key, degree))
            for _ in range(50):
                form = random_form(rng, algebra, degree)
                assert differential(differential(form)).is_zero(), (
                    entry.key,
                    degree,
                )

    # cube forms behind the sub-Euclidean band: closed, with scaling
    # weight D - j, for every omission count the subspace supports
    for family in ("heisenberg_h", "heisenberg_o"):
        for n in (1, 2, 3):
            entry = build("%s:%d" % (family, n))
            algebra, s = entry.algebra, entry.designated_subspace
            big_d = hausdorff_dimension(algebra)
            labels = list(s.coordinate_labels())
            rest = [b for b in algebra.basis if b not in set(labels)]
            for j in range(s.dim):
                assert check_cube_closed(s, j), (entry.key, j)
                weight = scaling_weight(cube_form(algebra, j, labels + rest))
                assert weight.uniform == big_d - j
    verdict(5, "d o d = 0 on 50 random forms per algebra per degree <= 4; "
               "omitted-prefix cube forms are closed with weight D - j")


def test_criterion_6_curvature():
    for key in TWO_STEP_KEYS:
        algebra = build(key).algebra
        for u, v in itertools.combinations(range(algebra.dimension), 2):
            assert two_step_closed_forms(algebra, u, v) == sectional_curvature(
                algebra, u, v
            ), key

    algebra = build("heisenberg_c:1").algebra
    assert sectional_curvature(algebra, "j1", "k1") == F(-3, 4)
    assert sectional_curvature(algebra, "j1", "K") == F(1, 4)

    entry = build("heisenberg_h:2")
    report = trichotomy_report(entry.designated_subspace, maximal_asserted=True)
    assert report.flat_inside.holds
    assert report.negative_toward_horizontal.holds
    assert report.positive_toward_vertical.holds
    assert len(report.negative_toward_horizontal.witnesses) == 6
    assert len(report.positive_toward_vertical.witnesses) == 3
    verdict(6, "layer-case curvature equals the structure-constant sum on "
               "every pair of every 2-step entry; signs verified with "
               "witnesses around span(h1, h2)")


def test_criterion_7_group_and_lattice():
    for key in TWO_STEP_KEYS:
        algebra = build(key).algebra
        rng = random.Random(seed_of(key))
        n = algebra.dimension
        for _ in range(200):
            x, y, z = (
                GroupElement(
                    algebra,
                    [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)],
                )
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z), key

        spec = build_scalable_lattice(algebra)
        group = check_group_closure(spec)
        scaling = check_scaling_closure(spec)
        assert group.ok, (key, group.detail)
        assert scaling.ok, (key, scaling.detail)
    verdict(7, "associativity on 200 random triples and both lattice "
               "closures for each of the %d 2-step entries" % len(TWO_STEP_KEYS))


# -- criterion 8: emitted tables vs the published exponent bands ---------------------
#
# The two documented deviations, both confined to the complex family and
# asserted explicitly below: no rule emits the dimension-n divergence bound
# (its proof imports exact filling computations for the complex groups that
# are not part of the implemented rule set), and at m = n+1 the implemented
# high band gives the lower half only, with the identical exponent.


def complex_divergence_oracle(n):
    rows = {}
    for j in range(1, n):
        rows[j] = ("at_least", F(j + 1))
    for m in range(n + 1, 2 * n):
        rows[m] = ("equivalent", F((m + 2) * m, m + 1))
    return rows


def quaternionic_divergence_oracle(n):
    rows = {}
    for j in range(1, n):
        rows[j] = ("at_least", F(j + 1))
    for m in range(3 * n + 4, 4 * n + 2):
        rows[m] = ("equivalent", F((m + 4) * m, m + 3))
    return rows


def octonionic_divergence_oracle(n):
    rows = {}
    for j in range(1, n):
        rows[j] = ("at_least", F(j + 1))
    for m in range(7 * n + 8, 8 * n + 6):
        rows[m] = ("equivalent", F((m + 8) * m, m + 7))
    return rows


def filling_oracle(n, reach):
    # reach = 4 (quaternionic) or 8 (octonionic)
    rows = {}
    for j in range(1, n):
        rows[j + 1] = ("equivalent", F(j + 1, j))
    rows[n + 1] = ("at_most", F(n + 2, n))
    top = (reach * n + reach - 1) if reach == 4 else (8 * n + 7)
    for m in range((reach - 1) * n + reach, top):
        rows[m + 1] = ("equivalent", F(m + reach, m + reach - 1))
    return rows


def bundle_of(key, labels=None, **kw):
    entry = build(key)
    s = (
        Subspace.from_labels(entry.algebra, labels)
        if labels is not None
        else entry.designated_subspace
    )
    return HypothesisBundle(s, **kw)


def check_table(rows, oracle, weak_at=(), absent_at=()):
    by_m = {}
    for r in rows:
        by_m.setdefault(r.m, []).append(r)
    for m, (relation, exponent) in sorted(oracle.items()):
        got = by_m.get(m, [])
        if m in absent_at:
            assert not got, "expected no rule to fire at dimension %d" % m
            continue
        if m in weak_at:
            assert relation == "equivalent"
            lows = [r for r in got if r.relation == "at_least"]
            assert len(lows) == 1 and lows[0].exponent == exponent
            assert not any(r.relation == "equivalent" for r in got)
            continue
        hits = [r for r in got if r.relation == relation]
        assert hits, "nothing emitted at dimension %d with relation %s" % (
            m,
            relation,
        )
        assert {r.exponent for r in hits} == {exponent}, (m, relation)
    # equivalences may never disagree with the published value anywhere
    for m, group in by_m.items():
        for r in group:
            if r.relation == "equivalent" and m in oracle:
                o_rel, o_expo = oracle[m]
                if o_rel == "equivalent":
                    assert r.exponent == o_expo


def assert_conflict_free(bundle):
    table = coverage_table(bundle)
    for row in table.filling + table.divergence:
        assert not row.conflict, (row.target, row.m)


def test_criterion_8_predictor_vs_published_tables():
    for n in (1, 2, 3):
        b = bundle_of("heisenberg_h:%d" % n)
        check_table(predict_filling(b), filling_oracle(n, 4))
        check_table(predict_divergence(b), quaternionic_divergence_oracle(n))
        assert_conflict_free(b)

        b = bundle_of("heisenberg_o:%d" % n)
        check_table(predict_filling(b), filling_oracle(n, 8))
        check_table(predict_divergence(b), octonionic_divergence_oracle(n))
        assert_conflict_free(b)

        # strict improvement over the Euclidean exponent in dimension n+1,
        # available once the certified dimension is asserted maximal
        asserted = bundle_of("heisenberg_o:%d" % n, k1_max_isotropic=n - 1)
        strict = [
            r
            for r in predict_filling(asserted)
            if r.m == n + 1 and r.relation == "strictly_above"
        ]
        assert len(strict) == 1 and strict[0].exponent == F(n + 1, n)

        labels = ["j%d" % q for q in range(1, n + 1)]
        b = bundle_of("heisenberg_c:%d" % n, labels=labels)
        weak = (n + 1,) if n >= 2 else ()
        check_table(
            predict_divergence(b),
            complex_divergence_oracle(n),
            weak_at=weak,
            absent_at=(n,),
        )
        assert_conflict_free(b)
    verdict(8, "filling and divergence tables match the published bands "
               "exponent-for-exponent; the two complex-family edge "
               "deviations are pinned as documented")


CLI_CORPUS = [
    ("catalog",),
    ("catalog", "--json"),
    ("check", "heisenberg_o:3"),
    ("check", "unipotent:6", "--json"),
    ("certify", "heisenberg_h:3"),
    ("certify", "heisenberg_o:2", "--json"),
    ("certify", "heisenberg_h:2", "--subspace", "h1,i1"),
    ("predict", "heisenberg_h:2"),
    ("predict", "heisenberg_o:1", "--max-isotropic", "1", "--json"),
    ("predict", "unipotent:4", "--subspace", "E12,E34"),
    ("predict", "abelian:5", "--json"),
    ("curvature", "heisenberg_h:2", "--assert-maximal"),
    ("curvature", "heisenberg_c:1", "--subspace", "j1", "--json"),
    ("pittet", "heisenberg_o:1"),
    ("pittet", "heisenberg_c:1", "--json"),
    ("lattice", "heisenberg_h:1"),
    ("lattice", "heisenberg_o:2", "--json"),
]


def test_criterion_9_cli_determinism(capsys):
    def run(argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out.encode("utf-8")

    for argv in CLI_CORPUS:
        code_a, first = run(argv)
        code_b, second = run(argv)
        assert code_a == code_b
        assert first == second, argv
        for threads in ("2", "16"):
            code_c, third = run(argv + ("--threads", threads))
            assert code_c == code_a
            assert third == first, (argv, threads)
        if "--json" in argv:
            json.loads(first.decode("utf-8"))
    verdict(9, "all %d corpus invocations byte-identical across runs and "
               "thread counts" % len(CLI_CORPUS))
