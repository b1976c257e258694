"""Independent reference implementations used as test oracles.

Nothing here imports the implementation routines it is meant to check:
the bracket oracle sums straight over the label-keyed input table, the
differential oracle works from the defining alternating sum and calls only
bracket and form evaluation, the unipotent oracle multiplies actual
matrices, and the lattice oracles solve a fresh column system for every
query and sweep all n^2 generator products.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from carnot import linalg
from carnot.algebra import GradedLieAlgebra


def naive_bracket(table, basis, x, y) -> tuple:
    """[x, y] from a label-keyed table {(left, right): {label: coeff}}:
    the double sum over listed pairs and their result terms, with each pair
    contributing through both orientations."""
    position = {label: i for i, label in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for (left, right), result in table.items():
        u, v = position[left], position[right]
        for label, c in result.items():
            out[position[label]] += (x[u] * y[v] - x[v] * y[u]) * Fraction(c)
    return tuple(out)


def naive_differential_value(form, vectors) -> Fraction:
    """(p+1)! d(form)(X0..Xp) = sum_{i<j} (-1)^(i+j+1) form([Xi,Xj], rest)."""
    algebra = form.algebra
    p = form.degree
    assert len(vectors) == p + 1
    total = Fraction(0)
    for i, j in itertools.combinations(range(p + 1), 2):
        rest = [vectors[r] for r in range(p + 1) if r not in (i, j)]
        value = form.evaluate([algebra.bracket(vectors[i], vectors[j])] + rest)
        total += (-1) ** (i + j + 1) * value
    denom = 1
    for f in range(2, p + 2):
        denom *= f
    return total / denom


def naive_membership(generators, v):
    """Integer coordinates of v in the generators by a fresh solve, or None."""
    coeffs = linalg.solve_columns(generators, v)
    if coeffs is None or any(c.denominator != 1 for c in coeffs):
        return None
    return coeffs


def naive_group_closure(spec) -> tuple[bool, str]:
    """(ok, detail) of the full sweep over every ordered generator product."""
    algebra = spec.algebra
    half = Fraction(1, 2)
    for i, x in enumerate(spec.generators):
        for j, y in enumerate(spec.generators):
            product = tuple(
                a + b + half * c for a, b, c in zip(x, y, algebra.bracket(x, y))
            )
            if naive_membership(spec.generators, product) is None:
                return False, (
                    "product of generators %d and %d leaves the integer span: %s"
                    % (i, j, algebra.describe(product))
                )
    return True, ""


def strict_upper_matrix(n: int, coords, algebra: GradedLieAlgebra):
    """Dense n x n matrix from coordinates in the Euv basis."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for idx, c in enumerate(coords):
        label = algebra.label(idx)
        u, v = int(label[1]), int(label[2])
        m[u - 1][v - 1] = Fraction(c)
    return m


def matrix_commutator(a, b):
    n = len(a)
    def mul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    ab, ba = mul(a, b), mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def matrix_to_coords(m, algebra: GradedLieAlgebra):
    coords = []
    for idx in range(algebra.dimension):
        label = algebra.label(idx)
        u, v = int(label[1]), int(label[2])
        coords.append(m[u - 1][v - 1])
    return tuple(coords)


def random_form(rng, algebra, degree, max_terms=3, bound=4):
    """Sparse random form with small integer coefficients."""
    from carnot.forms import InvariantForm

    n = algebra.dimension
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(sorted(rng.sample(range(n), degree)))
        terms[mono] = Fraction(rng.randint(-bound, bound))
    return InvariantForm(algebra, degree, terms)


def basis_tuples(algebra, arity):
    return itertools.combinations(range(algebra.dimension), arity)
