"""Group structure of 2-step algebras in exponential coordinates.

For nilpotency degree at most 2 the Baker-Campbell-Hausdorff series stops
after the first bracket, so the product of exp(x) and exp(y) is
exp(x + y + [x, y]/2) exactly and group elements can share the algebra's
coordinates.  The scalable-lattice construction completes the halved
brackets of first-layer basis vectors to a second-layer basis.  Its
integer span is checked for closure under products, on the halved
brackets of generator pairs, and under the dilation by 2.

Both checks run in Python ints.  A vector v = w / r with integer
numerators w lies in the integer span exactly when q r divides every
coordinate sum sum_k w_k column_k, where the columns are those of the
inverse generator matrix times its common denominator q.  With g = w / s,
[g_i, g_j]/2 has the integer numerators ``integer_bracket(w_i, w_j)`` over
2 s_i s_j D, D the algebra's denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import (
    CheckResult,
    Dilation,
    GradedLieAlgebra,
    InputError,
    coefficient,
    require_two_step,
)
from .linalg import HALF, Matrix, Vector


class GroupElement:
    """Element of the simply connected group, in exponential coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: GradedLieAlgebra, coords: Sequence) -> None:
        require_two_step(algebra, "group coordinates")
        self.algebra = algebra
        self.coords: Vector = tuple(coefficient(c) for c in coords)
        if len(self.coords) != algebra.dimension:
            raise InputError("coordinate length does not match the algebra")

    @classmethod
    def identity(cls, algebra: GradedLieAlgebra) -> "GroupElement":
        return cls(algebra, linalg.zero_vector(algebra.dimension))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.algebra is not self.algebra:
            raise InputError("elements live in different groups")
        bracket = self.algebra.bracket(self.coords, other.coords)
        coords = tuple(
            a + b + HALF * c
            for a, b, c in zip(self.coords, other.coords, bracket)
        )
        return GroupElement(self.algebra, coords)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.algebra, tuple(-c for c in self.coords))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return "GroupElement(%s)" % self.algebra.describe(self.coords)


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    return x * y


def group_scaling(t, g: GroupElement) -> GroupElement:
    """Dilation as a group automorphism in exponential coordinates."""
    d = Dilation(g.algebra, t)
    return GroupElement(g.algebra, d(g.coords))


@dataclass(frozen=True)
class LatticeSpec:
    """Basis whose integer span should be a scaled-in lattice.

    There are exactly ``dimension`` generators and they must span the
    algebra, so the matrix G with the generators as rows is invertible and
    v has the coordinates v G^-1.  ``linalg.integer_inverse`` gives G^-1
    once, as sparse integer rows over the lcm q of its denominators,
    ``_columns[k][i] = q G^-1[k][i]``: v = w / r has the coordinates
    sum_k w_k _columns[k] / (q r), integers exactly when q r divides every
    sum.  Each generator is also kept as
    integer numerators over its own denominator, ``_scaled[i] = (w, s)``.
    """

    algebra: GradedLieAlgebra
    generators: Matrix
    _denominator: int = field(init=False, compare=False, repr=False)
    _columns: tuple[dict[int, int], ...] = field(init=False, compare=False, repr=False)
    _scaled: tuple[tuple[dict[int, int], int], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        require_two_step(self.algebra, "a lattice")
        n = self.algebra.dimension
        if len(self.generators) != n:
            raise InputError(
                "a lattice needs exactly %d generators, got %d"
                % (n, len(self.generators))
            )
        found = linalg.integer_inverse(self.generators)
        if found is None:
            raise InputError("lattice generators must span the algebra")
        columns, q = found
        object.__setattr__(self, "_denominator", q)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_scaled", tuple(map(linalg.numerators, self.generators)))

    def membership(self, v: Sequence) -> Vector | None:
        """Integer coordinates of ``v`` in the generators, or None."""
        x = [e if type(e) is Fraction else Fraction(e) for e in v]
        if len(x) != len(self._columns):
            raise ValueError("vector length does not match the algebra")
        coords = self._coordinates(*linalg.numerators(x))
        return None if coords is None else tuple(map(Fraction, coords))

    def _coordinates(self, w: dict[int, int], r: int) -> list[int] | None:
        """Integer generator coordinates of the vector w / r, or None."""
        sums = [0] * len(self._columns)
        for k, a in w.items():
            for i, c in self._columns[k].items():
                sums[i] += a * c
        qr = self._denominator * r
        if any(total % qr for total in sums):
            return None
        return [total // qr for total in sums]


def build_scalable_lattice(algebra: GradedLieAlgebra) -> LatticeSpec:
    """Generators: first-layer basis plus a completion of halved brackets.

    The candidate second-layer generators are, in this order, the nonzero
    vectors [a, b]/2 over first-layer basis pairs in lexicographic order,
    each normalised to a positive leading coefficient, and then half of each
    second-layer basis vector.  A candidate is kept when it is not in the
    span of the candidates kept before it, and the walk stops once the kept
    candidates span the second layer.  The result is deterministic.

    The brackets are read from the integer adjacency, and each candidate is
    added to one running reduced basis, so span and independence come from
    a single incremental elimination.
    """
    require_two_step(algebra, "a scalable lattice")
    v1 = algebra.layers[0]
    v2 = algebra.layers[1] if algebra.declared_degree == 2 else ()

    def candidates():
        # each candidate as integer numerators over a denominator
        for a_pos, a in enumerate(v1):
            row = algebra.adjacency[a]
            for b in v1[a_pos + 1:]:
                entry = row.get(b)
                if entry:
                    sign = 1 if entry[min(entry)] > 0 else -1
                    yield {w: sign * c for w, c in entry.items()}, 2 * algebra.denominator
        for i in v2:
            yield {i: 1}, 2

    layer_two = set(v2)
    graded = True
    pivots: dict[int, dict] = {}
    second: list[Vector] = []
    for numerators, r in candidates():
        if not linalg.extend_reduced(pivots, dict(numerators)):
            continue
        second.append(linalg.densify(numerators, algebra.dimension, r))
        # the kept candidates span the second layer exactly when they all
        # lie in it and are as many as its dimension
        graded = graded and layer_two.issuperset(numerators)
        if graded and len(pivots) == len(v2):
            break
    generators = [algebra.basis_vector(i) for i in v1]
    return LatticeSpec(algebra, tuple(generators + second))


def check_group_closure(spec: LatticeSpec) -> CheckResult:
    """Every product of elements of the integer span stays in the span.

    Generators g_i lie in the span, so g_i g_j = g_i + g_j + [g_i, g_j]/2
    does exactly when [g_i, g_j]/2 does.  The bracket is antisymmetric, so
    the pair (j, i) gives the same answer as (i, j) and (i, i) always
    passes; only the pairs i < j are checked, in lexicographic order, and
    the first failure is the first failing pair of the full sweep.  By
    bilinearity [x, y]/2 = sum over i < j of (a_i b_j - a_j b_i)[g_i, g_j]/2
    for x = sum a_i g_i and y = sum b_j g_j, an integer combination of the
    checked vectors, so the verdict holds for the whole span.  Each halved
    bracket is the algebra's ``integer_bracket`` of the generators'
    numerators (see the module docstring).
    """
    algebra = spec.algebra
    scaled = spec._scaled
    for i, (x, s) in enumerate(scaled):
        if not any(algebra.adjacency[u] for u in x):
            continue
        for j in range(i + 1, len(scaled)):
            y, t = scaled[j]
            half = algebra.integer_bracket(x, y)
            r = 2 * s * t * algebra.denominator
            if not half or spec._coordinates(half, r) is not None:
                continue
            product = GroupElement(algebra, spec.generators[i]) * GroupElement(
                algebra, spec.generators[j]
            )
            return CheckResult(
                False,
                "product of generators %d and %d leaves the integer span: %s"
                % (i, j, algebra.describe(product.coords)),
            )
    return CheckResult(True)


def check_scaling_closure(spec: LatticeSpec) -> CheckResult:
    """The dilation by 2 maps every generator into the integer span.

    The image of g = w / s has the numerators w_u shifted left by the
    weight of b_u, over the same s.
    """
    algebra = spec.algebra
    weights = algebra.weights
    for i, (w, s) in enumerate(spec._scaled):
        if spec._coordinates({u: a << weights[u] for u, a in w.items()}, s) is None:
            image = Dilation(algebra, 2)(spec.generators[i])
            return CheckResult(
                False,
                "dilation by 2 of generator %d leaves the integer span: %s"
                % (i, algebra.describe(image)),
            )
    return CheckResult(True)
