"""Exact linear algebra kernels."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import GradedLieAlgebra, LatticeSpec, build, linalg
from helpers import (
    free_two_step,
    naive_hermite,
    naive_inverse,
    naive_nullspace,
    naive_rref,
    naive_solve,
)

F = Fraction


def test_rref_canonical_form():
    rows = [(1, 2, 3), (2, 4, 6), (1, 1, 1)]
    reduced = linalg.rref(rows)
    assert reduced == ((F(1), F(0), F(-1)), (F(0), F(1), F(2)))


def test_rref_drops_zero_rows():
    assert linalg.rref([(0, 0), (0, 0)]) == ()


def test_rank_examples():
    assert len(linalg.reduced_rows([(1, 0), (0, 1)])) == 2
    assert len(linalg.reduced_rows([(1, 2), (2, 4)])) == 1
    assert len(linalg.reduced_rows([])) == 0


def test_solve_unique():
    rows = [(2, 0), (0, 3)]
    assert linalg.solve(rows, (4, 9)) == (F(2), F(3))


def test_solve_underdetermined_sets_free_to_zero():
    solution = linalg.solve([(1, 1)], (5,))
    assert solution == (F(5), F(0))


def test_solve_inconsistent_returns_none():
    assert linalg.solve([(1, 1), (2, 2)], (1, 3)) is None


def product(rows, v):
    """The matrix-vector product A v, summed directly."""
    return tuple(sum((F(a) * b for a, b in zip(row, v)), F(0)) for row in rows)


def inverse(rows):
    """``integer_inverse`` of the dense square ``rows``, densified: the
    inverse as Fraction rows, or None if singular."""
    found = linalg.integer_inverse([linalg.numerators(row) for row in rows])
    if found is None:
        return None
    columns, q = found
    return tuple(linalg.densify(row, len(rows), q) for row in columns)


def test_inverse_and_product():
    rows = [(2, 1), (1, 1)]
    inv = inverse(rows)
    assert inv == naive_inverse(rows) == ((F(1), F(-1)), (F(-1), F(2)))
    assert product(inv, (3, 2)) == (F(1), F(1))
    assert inverse([(1, 2), (2, 4)]) is None


def test_nullspace_dimension():
    rows = [(1, 1, 0), (0, 0, 1)]
    basis = linalg.nullspace(rows)
    assert len(basis) == 1
    for v in basis:
        assert all(sum(F(r) * x for r, x in zip(row, v)) == 0 for row in rows)


def test_nullspace_no_constraints_gives_identity():
    assert linalg.nullspace([], ncols=3) == (
        linalg.densify({0: 1}, 3),
        linalg.densify({1: 1}, 3),
        linalg.densify({2: 1}, 3),
    )


def test_nullspace_of_zero_rows_is_everything():
    identity = tuple(linalg.densify({i: 1}, 3) for i in range(3))
    assert linalg.nullspace([(0, 0, 0)]) == identity
    assert linalg.nullspace([(0, 0, 0), (0, 0, 0)], ncols=3) == identity


def random_entry(rng, density):
    """Zero with probability 1 - density, else a small rational written as
    an int, a ``p/q`` string or a Fraction."""
    if rng.random() >= density:
        return rng.choice([0, "0", F(0)])
    num, den = rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return num * den
    if kind == 1:
        return "%d/%d" % (num, den)
    return F(num, den)


ORACLE_SHAPES = [(0, 0), (1, 1), (3, 5), (6, 6), (8, 5), (12, 12)]
TALL_SHAPE = (300, 20)  # sparse only: the dense oracle is slow on it when full
# beside the random matrices: a kernel of 0, and one of every column
FIXED_MATRICES = [
    [[F(int(i == j), j + 1) for j in range(4)] for i in range(5)],
    [[0] * 4 for _ in range(3)],
]


def kernel_pairs(rows, ncols):
    """``reduced_kernel`` of the reduced basis of ``rows``."""
    pivots: dict = {}
    for row in rows:
        linalg.extend_reduced(pivots, linalg.numerators(row)[0])
    return linalg.reduced_kernel(pivots, ncols)


@pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_elimination_matches_dense_oracle(seed, density):
    rng = random.Random(seed * 1000 + int(density * 100))
    shapes = ORACLE_SHAPES + ([TALL_SHAPE] if density <= 0.1 else [])
    matrices = [
        ([[random_entry(rng, density) for _ in range(c)] for _ in range(r)], c)
        for r, c in shapes
    ] + [(rows, 4) for rows in FIXED_MATRICES]
    for rows, ncols in matrices:
        reduced = linalg.rref(rows)
        assert reduced == naive_rref(rows)
        assert all(type(e) is Fraction for row in reduced for e in row)
        kernel = linalg.nullspace(rows, ncols=ncols)
        expected = naive_nullspace(rows, ncols)
        assert kernel == expected
        assert all(type(e) is Fraction for row in kernel for e in row)
        pairs = kernel_pairs(rows, ncols)
        assert pairs == tuple(map(linalg.numerators, expected))
        assert all(list(w) == sorted(w) for w, _ in pairs)
        # the same matrix as {column: value} rows, zeros written or not
        sparse = [
            {j: e for j, e in enumerate(row) if e != 0 or (i + j) % 3 == 0}
            for i, row in enumerate(rows)
        ]
        assert linalg.rref(sparse, ncols) == reduced
        # the integer pairs the verdicts eliminate into are the oracle's rows
        pairs = tuple(map(linalg.numerators, naive_rref(rows)))
        assert linalg.reduced_rows(rows) == pairs
        assert linalg.reduced_rows(sparse, ncols) == pairs
        assert linalg.nullspace(sparse, ncols) == kernel
        square = [row[:ncols] for row in rows[:ncols]]
        if len(square) == ncols:
            inv = inverse(square)
            assert inv == naive_inverse(square)
            if inv is not None:
                assert all(type(e) is Fraction for row in inv for e in row)


GROWTH_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


@pytest.mark.parametrize("shape", [(9, 9), (12, 8), (8, 12)])
@pytest.mark.parametrize("seed", range(2))
def test_elimination_with_coefficient_growth_matches_oracles(shape, seed):
    # dense rows with numerators up to 2^40 over distinct primes: every
    # cross-multiplication grows the integers, and only exact content
    # division keeps the reduced rows right
    nrows, ncols = shape
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-(2**40), 2**40), rng.choice(GROWTH_PRIMES))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    # one row a combination of two others, so the rank is not full
    rows[-1] = [2 * a - F(3, 7) * b for a, b in zip(rows[0], rows[1])]
    reduced = linalg.rref(rows)
    assert reduced == naive_rref(rows)
    assert len(linalg.reduced_rows(rows)) == len(reduced) == min(nrows - 1, ncols)
    assert linalg.reduced_rows(rows) == tuple(map(linalg.numerators, naive_rref(rows)))
    kernel = linalg.nullspace(rows)
    expected = naive_nullspace(rows, ncols)
    assert kernel == expected
    assert kernel_pairs(rows, ncols) == tuple(map(linalg.numerators, expected))
    for out in (reduced, kernel):
        assert all(type(e) is Fraction for row in out for e in row)
    x = [entry() for _ in range(ncols)]
    consistent = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    solution = linalg.solve(rows, consistent)
    assert solution == naive_solve(rows, consistent)
    assert all(type(e) is Fraction for e in solution)
    # the last row depends on the first two, so moving its rhs is inconsistent
    inconsistent = consistent[:-1] + [consistent[-1] + 1]
    assert linalg.solve(rows, inconsistent) is None
    assert naive_solve(rows, inconsistent) is None
    n = min(shape)
    fresh = [[entry() for _ in range(n)] for _ in range(n)]
    assert inverse(fresh) is not None
    for square in (fresh, [row[:n] for row in rows[:n]]):
        inv = inverse(square)
        assert inv == naive_inverse(square)
        if inv is not None:
            assert all(type(e) is Fraction for row in inv for e in row)


@pytest.mark.parametrize("seed", range(12))
def test_extend_reduced_matches_prefix_ranks(seed):
    # rows go in one at a time, with int entries as ``_eliminate`` passes
    # them; each flag is a rank step of the growing prefix, and
    # each basis row is a primitive integer row, reduced once divided by
    # its pivot entry
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    rows = [
        {j: rng.randint(-3, 3) for j in range(ncols) if rng.random() < 0.4}
        for _ in range(rng.randint(1, 12))
    ]
    rows = [{j: e for j, e in row.items() if e} for row in rows]
    pivots = {}
    for k, row in enumerate(rows):
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows[: k + 1]]
        grew = len(naive_rref(dense)) > len(naive_rref(dense[:-1]))
        assert linalg.extend_reduced(pivots, dict(row)) == grew
    reduced = tuple(
        tuple(F(pivots[p].get(j, 0), pivots[p][p]) for j in range(ncols))
        for p in sorted(pivots)
    )
    assert reduced == naive_rref([[row.get(j, 0) for j in range(ncols)] for row in rows])


HERMITE_CASES = [
    # 4 then 6 on one pivot: a remainder of 2 swaps in, then the old pivot
    # row reduces to zero on it and leaves a new pivot on column 1
    [(4, 1, 0), (6, 0, 0)],
    # negative leads, a dependent row, and an entry above a pivot to reduce
    [(-3, 5, 1), (0, -2, 7), (-6, 10, 2), (0, 0, -4)],
    # the item-6 halved brackets over 2 D = 6: z/2 and z/6
    [(3,), (1,)],
    [(0, 0), (0, 0)],
]


def random_hermite_case(seed):
    # random rows with negative entries and large leads, plus an integer
    # combination of two of them, which is dependent
    rng = random.Random(seed)
    ncols = rng.randint(1, 6)
    rows = [
        [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(ncols)]
        for _ in range(rng.randint(1, 6))
    ]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows.insert(
        rng.randint(0, len(rows)),
        [rng.randint(-3, 3) * a + rng.randint(-3, 3) * b for a, b in zip(rows[i], rows[j])],
    )
    return rows


def free_two_step_rows(n):
    # the brackets of N(n, 2) as the lattice build reads them: one row over
    # the whole basis per pair of generators, in lexicographic pair order
    basis, _, table = free_two_step(n)
    return [[result.get(label, 0) for label in basis] for result in table.values()]


def rank_deficient_case(seed):
    # more rows than the rank, each a combination of the same few dense
    # rows with entries in [-3, 3]
    rng = random.Random(seed)
    ncols = rng.randint(3, 8)
    base = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(ncols)]
            for _ in range(rng.randint(1, ncols - 1))]
    return [
        [sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)]
        for coeffs in ([rng.randint(-3, 3) for _ in base] for _ in range(ncols + 2))
    ]


@pytest.mark.parametrize(
    "rows",
    HERMITE_CASES
    + [random_hermite_case(seed) for seed in range(40)]
    + [free_two_step_rows(n) for n in (2, 3, 4, 5)]
    + [rank_deficient_case(seed) for seed in range(10)],
)
def test_hermite_extend_matches_xgcd_hermite_form(rows):
    # the HNF of a Z-module is unique, so after every insertion the basis
    # must equal the oracle's form of the prefix, row for row
    ncols = len(rows[0])
    basis = {}
    for k, row in enumerate(rows):
        linalg.hermite_extend(basis, {j: e for j, e in enumerate(row) if e})
        got = tuple(
            tuple(basis[p].get(j, 0) for j in range(ncols)) for p in sorted(basis)
        )
        assert got == naive_hermite(rows[: k + 1], ncols)
        assert all(basis[p][p] > 0 and min(basis[p]) == p for p in basis)


def test_hermite_sweep_visits_each_basis_row_once_per_insertion():
    # on N(12, 2) every bracket is a unit row on a pivot of its own, so no
    # row needs reducing; the sweep still reads each basis row once per
    # insertion, 1 + 2 + ... + 66 reads, where a sweep over every (pivot,
    # row) pair reads the square of the rank on each insertion
    class CountingBasis(dict):
        visits = 0

        def __getitem__(self, key):
            self.visits += 1
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.visits += 1
            return super().get(key, default)

        def values(self):
            for value in super().values():
                self.visits += 1
                yield value

        def items(self):
            for item in super().items():
                self.visits += 1
                yield item

    algebra = GradedLieAlgebra("N(12, 2)", *free_two_step(12))
    v1, v2 = algebra.layers
    basis = CountingBasis()
    for a, b in itertools.combinations(v1, 2):
        linalg.hermite_extend(basis, dict(algebra.adjacency[a][b]))
    assert basis == {i: {i: 1} for i in v2}
    assert basis.visits == len(v2) * (len(v2) + 1) // 2 == 2211


def test_solve_rejects_sparse_rows():
    # a {column: value} row used to be read as the tuple of its keys, so
    # this returned (6,) instead of refusing
    with pytest.raises(ValueError, match="dense row"):
        linalg.solve([{1: 3}], [6])


def test_rref_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.rref([(1, 2), (3,)])
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.rref([(0, 0, 0), (0, 0)])
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.reduced_rows([(1, 2), (3,)])
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.reduced_rows([(0, 0, 0), (0, 0)])


def test_sparse_rows_are_checked_against_ncols():
    with pytest.raises(ValueError, match="range"):
        linalg.rref([{0: 1}, {3: 1}], 3)
    with pytest.raises(ValueError, match="range"):
        linalg.reduced_rows([{-1: 2}], 3)
    with pytest.raises(ValueError, match="needs ncols"):
        linalg.rref([{0: 1}])
    with pytest.raises(ValueError, match="needs ncols"):
        linalg.nullspace([{0: 1}])
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.rref([(1, 0)], 3)
    with pytest.raises(ValueError, match="ragged matrix"):
        linalg.nullspace([{0: 1}, (1, 0)], ncols=3)
    # rows of both kinds mix, and an empty dict is a zero row
    mixed = linalg.rref([{2: 3}, (0, 1, 1), {}], 3)
    assert mixed == ((F(0), F(1), F(0)), (F(0), F(0), F(1)))


@pytest.mark.parametrize("seed", range(8))
def test_integer_inverse_of_numerator_pairs_matches_oracle(seed):
    # dense rational squares; on odd seeds one row is a combination of two
    # others, so the matrix is singular
    rng = random.Random(seed)
    n = 2 + seed % 5
    rows = [
        [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)
    ]
    if seed % 2:
        rows[-1] = [a - F(2, 3) * b for a, b in zip(rows[0], rows[1 % (n - 1)])]
    expected = naive_inverse(rows)
    assert (expected is None) == bool(seed % 2)
    found = linalg.integer_inverse([linalg.numerators(row) for row in rows])
    if expected is None:
        assert found is None
        return
    columns, q = found
    assert all(type(e) is int for row in columns for e in row.values())
    assert tuple(tuple(F(row.get(i, 0), q) for i in range(n)) for row in columns) == expected
    # q is the lcm of the inverse's denominators, not a multiple of it
    assert q == math.lcm(*(e.denominator for row in expected for e in row))


def test_inverse_rejects_a_matrix_that_is_not_square():
    # integer_inverse reads n pairs as an n x n matrix; LatticeSpec, its one
    # caller, rejects generators that do not make a square matrix first
    algebra = build("heisenberg_c:1").algebra
    j, k, z = (algebra.basis_vector(i) for i in range(3))
    with pytest.raises(ValueError, match="exactly 3 generators, got 2"):
        LatticeSpec(algebra, (j, k))
    with pytest.raises(ValueError, match="needs 3 coefficients"):
        LatticeSpec(algebra, (j, k, z[:2]))


def test_numerators_over_the_lcm_of_the_denominators():
    scaled, r = linalg.numerators((F(1, 6), 0, F(-3, 4), 2, F(0)))
    assert (scaled, r) == ({0: 2, 2: -9, 3: 24}, 12)
    assert all(type(w) is int for w in scaled.values())
    assert linalg.numerators({"x": F(5, 7), "y": F(0), "z": 3}) == ({"x": 5, "z": 21}, 7)
    assert linalg.numerators(()) == ({}, 1)
    assert linalg.numerators((F(0), 0)) == ({}, 1)
    rng = random.Random(5)
    for _ in range(20):
        values = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(6)]
        scaled, r = linalg.numerators(values)
        assert [F(scaled.get(k, 0), r) for k in range(6)] == values
        assert all(r % v.denominator == 0 for v in values)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=1, max_size=4
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rref_idempotent_and_rank_stable(rows):
    reduced = linalg.rref(rows)
    assert linalg.rref(reduced) == reduced
    assert len(linalg.reduced_rows(rows)) == len(reduced)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_nullspace_vectors_annihilate(rows):
    ncols = len(rows[0])
    basis = linalg.nullspace(rows, ncols=ncols)
    assert len(basis) == ncols - len(linalg.reduced_rows(rows))
    for v in basis:
        for row in rows:
            assert sum(Fraction(r) * x for r, x in zip(row, v)) == 0


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.lists(small_fraction, min_size=1, max_size=4))
def test_solve_solutions_substitute(rows, coeffs):
    coeffs = coeffs[: len(rows[0])]
    coeffs += [Fraction(0)] * (len(rows[0]) - len(coeffs))
    rhs = [sum(Fraction(r) * c for r, c in zip(row, coeffs)) for row in rows]
    solution = linalg.solve(rows, rhs)
    assert solution is not None
    for row, want in zip(rows, rhs):
        assert sum(Fraction(r) * x for r, x in zip(row, solution)) == want


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_inverse_inverts(rows):
    n = len(rows[0])
    square = rows[:n] + [linalg.densify({i: 1}, n) for i in range(len(rows), n)]
    inv = inverse(square)
    if len(linalg.reduced_rows(square)) < n:
        assert inv is None
        return
    for i in range(n):
        column = product(square, [row[i] for row in inv])
        assert column == linalg.densify({i: 1}, n)
