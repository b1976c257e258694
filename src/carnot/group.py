"""Group structure of 2-step algebras in exponential coordinates.

For nilpotency degree at most 2 the Baker-Campbell-Hausdorff series stops
after the first bracket, so the product of exp(x) and exp(y) is
exp(x + y + [x, y]/2) exactly and group elements can share the algebra's
coordinates.  The scalable-lattice construction completes the halved
brackets of first-layer basis vectors to a second-layer basis.  Its
integer span is checked for closure under products, on the halved
brackets of generator pairs, and under the dilation by 2, both against
the generator matrix factored once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    algebra, so the matrix with the generators as columns is invertible;
    its inverse is computed once and gives every membership answer.
    """

    algebra: GradedLieAlgebra
    generators: Matrix
    _inverse: Matrix = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        require_two_step(self.algebra, "a lattice")
        n = self.algebra.dimension
        if len(self.generators) != n:
            raise InputError(
                "a lattice needs exactly %d generators, got %d"
                % (n, len(self.generators))
            )
        inverse = linalg.inverse(tuple(zip(*self.generators, strict=True)))
        if inverse is None:
            raise InputError("lattice generators must span the algebra")
        object.__setattr__(self, "_inverse", inverse)

    def membership(self, v: Sequence) -> Vector | None:
        """Integer coordinates of ``v`` in the generators, or None."""
        coeffs = linalg.mat_vec(self._inverse, v)
        if any(c.denominator != 1 for c in coeffs):
            return None
        return coeffs


def build_scalable_lattice(algebra: GradedLieAlgebra) -> LatticeSpec:
    """Generators: first-layer basis plus a completion of halved brackets.

    The candidate second-layer generators are, in this order, the nonzero
    vectors [a, b]/2 over first-layer basis pairs in lexicographic order,
    each normalised to a positive leading coefficient, and then half of each
    second-layer basis vector.  A candidate is kept when it is not in the
    span of the candidates kept before it, and the walk stops once the kept
    candidates span the second layer.  The result is deterministic.
    """
    require_two_step(algebra, "a scalable lattice")
    v1 = algebra.layers[0]
    v2 = algebra.layers[1] if algebra.declared_degree == 2 else ()

    def candidates():
        for a_pos, a in enumerate(v1):
            for b in v1[a_pos + 1:]:
                half = tuple(
                    HALF * c
                    for c in algebra.bracket(algebra.basis_vector(a), algebra.basis_vector(b))
                )
                if not linalg.is_zero(half):
                    lead = next(c for c in half if c != 0)
                    yield half if lead > 0 else tuple(-c for c in half)
        for i in v2:
            yield tuple(HALF * c for c in algebra.basis_vector(i))

    layer_two = linalg.rref(algebra.basis_vector(i) for i in v2)
    second: list[Vector] = []
    span: Matrix = ()
    for candidate in candidates():
        if not linalg.in_row_span(span, candidate):
            second.append(candidate)
            span = linalg.rref(span + (candidate,))
            if span == layer_two:
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
    checked vectors, so the verdict holds for the whole span.
    """
    algebra = spec.algebra
    generators = spec.generators
    for i, x in enumerate(generators):
        for j in range(i + 1, len(generators)):
            y = generators[j]
            half = tuple(HALF * c for c in algebra.bracket(x, y))
            if linalg.is_zero(half) or spec.membership(half) is not None:
                continue
            product = GroupElement(algebra, x) * GroupElement(algebra, y)
            return CheckResult(
                False,
                "product of generators %d and %d leaves the integer span: %s"
                % (i, j, algebra.describe(product.coords)),
            )
    return CheckResult(True)


def check_scaling_closure(spec: LatticeSpec) -> CheckResult:
    """The dilation by 2 maps every generator into the integer span."""
    algebra = spec.algebra
    double = Dilation(algebra, 2)
    for i, g in enumerate(spec.generators):
        image = double(g)
        if spec.membership(image) is None:
            return CheckResult(
                False,
                "dilation by 2 of generator %d leaves the integer span: %s"
                % (i, algebra.describe(image)),
            )
    return CheckResult(True)
