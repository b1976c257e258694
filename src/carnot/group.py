"""Group structure of 2-step algebras in exponential coordinates.

For nilpotency degree at most 2 the Baker-Campbell-Hausdorff series stops
after the first bracket, so the product of exp(x) and exp(y) is
exp(x + y + [x, y]/2) exactly and group elements can share the algebra's
coordinates.

A scalable lattice is the integer span of the first-layer basis and the
Hermite basis of the Z-module M that the halved brackets [e_a, e_b]/2 of
first-layer pairs generate.  It is closed by construction: V2 is central,
so [x, y]/2 = sum (a_i b_j - a_j b_i) [e_i, e_j]/2 lies in M for x, y in
the span, and the dilation by 2 maps V1 to 2 V1 and V2 to 4 V2.  The two
closure checks confirm it in Python ints, with D the algebra's common
denominator.  The algebra must be valid and 2-step, so [V1, V1] = V2 and
V2 is central, all that the construction uses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from . import linalg
from .algebra import CheckResult, Dilation, GradedLieAlgebra, require_two_step
from .linalg import HALF, InputError, Matrix, Vector, require_kind


class GroupElement:
    """Element of the simply connected group, in exponential coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: GradedLieAlgebra, coords: Sequence) -> None:
        require_two_step(algebra, "group coordinates")
        self.algebra = algebra
        w, r = algebra.numerators(coords)
        self.coords: Vector = linalg.densify(w, algebra.dimension, r)

    @classmethod
    def identity(cls, algebra: GradedLieAlgebra) -> "GroupElement":
        return cls(algebra, linalg.densify({}, algebra.dimension))

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


def group_scaling(t, g: GroupElement) -> GroupElement:
    """Dilation as a group automorphism in exponential coordinates."""
    d = Dilation(require_kind(g, GroupElement, "group scaling").algebra, t)
    return GroupElement(g.algebra, d(g.coords))


class LatticeSpec:
    """Basis whose integer span should be a scaled-in lattice.

    There are exactly ``dimension`` generators of ``dimension`` entries and
    they must span the algebra, so the matrix G with the generators as rows
    is invertible and v has the coordinates v G^-1.  Each generator w / s is
    read once by the algebra's ``numerators`` into ``integer_rows[i] = (w, s)``,
    and ``linalg.integer_inverse`` of those rows gives G^-1 as sparse integer
    rows over the lcm q of its denominators, ``_columns[k][i] = q G^-1[k][i]``:
    v = w / r has the coordinates sum_k w_k _columns[k] / (q r), integers
    exactly when q r divides every sum.  Only these are kept, no dense view;
    the rows are canonical, so equal algebras and rows give equal specs.
    """

    __slots__ = ("algebra", "_denominator", "_columns", "integer_rows")

    def __init__(self, algebra: GradedLieAlgebra, generators: Matrix) -> None:
        require_two_step(algebra, "a lattice")
        n = algebra.dimension
        if not isinstance(generators, (list, tuple)):
            raise InputError("a lattice needs a list of %d generators" % n)
        if len(generators) != n:
            raise InputError(
                "a lattice needs exactly %d generators, got %d" % (n, len(generators))
            )
        read = algebra.numerators
        self._set(algebra, tuple(read(g, "a lattice generator") for g in generators))

    @classmethod
    def _of_rows(cls, algebra: GradedLieAlgebra, integer_rows) -> "LatticeSpec":
        """The spec of the generators given as their ``integer_rows``."""
        spec = cls.__new__(cls)
        spec._set(algebra, integer_rows)
        return spec

    def _set(self, algebra, rows: tuple[tuple[dict[int, int], int], ...]) -> None:
        """Both constructors' core: keep ``rows`` and their inverse."""
        found = linalg.integer_inverse(rows)
        if found is None:
            raise InputError("lattice generators must span the algebra")
        self.algebra, self.integer_rows = algebra, rows
        self._columns, self._denominator = found

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.integer_rows) == (other.algebra, other.integer_rows)

    def __hash__(self):
        rows = self.integer_rows
        return hash((self.algebra, *((frozenset(w.items()), s) for w, s in rows)))

    def __repr__(self) -> str:
        n = self.algebra.dimension
        rows = tuple(linalg.densify(w, n, s) for w, s in self.integer_rows)
        return "LatticeSpec(algebra=%r, generators=%r)" % (self.algebra, rows)

    def membership(self, v: Sequence) -> Vector | None:
        """Integer coordinates of ``v`` in the generators, or None."""
        coords = self._coordinates(*self.algebra.numerators(v))
        return None if coords is None else linalg.densify(coords, len(self._columns))

    def _coordinates(self, w: dict[int, int], r: int) -> dict[int, int] | None:
        """Integer generator coordinates ``{i: c}`` of the vector w / r, or
        None.  Only the coordinates that the support of w reaches through
        ``_columns`` are summed and tested; the others are 0."""
        sums: dict[int, int] = {}
        for k, a in w.items():
            for i, c in self._columns[k].items():
                sums[i] = sums.get(i, 0) + a * c
        qr = self._denominator * r
        if any(total % qr for total in sums.values()):
            return None
        return {i: total // qr for i, total in sums.items()}


def build_scalable_lattice(algebra: GradedLieAlgebra) -> LatticeSpec:
    """Generators: the first-layer basis, then the Hermite basis of M (see
    the module docstring) in ascending pivot order, for a valid algebra of
    at most two layers, whose grading keeps every first-layer bracket on V2
    and whose generation gives them rank dim V2.  Each halved bracket is
    read from the integer adjacency over 2 D and fed in lexicographic pair
    order to one ``linalg.hermite_extend`` basis, until that basis is the
    identity on V2, which no integer row can refine.  A Hermite row h goes
    to ``_of_rows`` as (h / g, 2 D / g), g = gcd(2 D, h)."""
    v1, v2 = require_two_step(algebra, "a scalable lattice")
    ad = algebra.adjacency
    identity = {i: {i: 1} for i in v2}
    basis: dict[int, dict[int, int]] = {}
    for a, b in itertools.combinations(v1, 2):
        if b in ad[a]:
            linalg.hermite_extend(basis, dict(ad[a][b]))
            if basis == identity:
                break
    r = 2 * algebra.denominator
    second = []
    for p, h in sorted(basis.items()):
        g = math.gcd(r, *h.values())
        second.append(({j: e // g for j, e in sorted(h.items())}, r // g))
    return LatticeSpec._of_rows(algebra, (*(({u: 1}, 1) for u in v1), *second))


def check_group_closure(spec: LatticeSpec) -> CheckResult:
    """Every product of elements of the integer span stays in the span.

    Generators g_i lie in the span, so g_i g_j = g_i + g_j + [g_i, g_j]/2
    does exactly when [g_i, g_j]/2 does.  The bracket is antisymmetric and
    (i, i) always passes, so only the pairs i < j are checked, in
    lexicographic order: the first failure is the full sweep's first.  By
    bilinearity, [x, y]/2 for x = sum a_i g_i and y = sum b_j g_j is the
    integer combination sum over i < j of (a_i b_j - a_j b_i)[g_i, g_j]/2,
    so the verdict holds for the whole span.  With g = w / s in the rows,
    [g_i, g_j]/2 is ``integer_bracket(w_i, w_j)`` / (2 s_i s_j D), 0 unless w_j
    meets ``reach``; a failing pair alone is densified, into its product.
    """
    algebra = require_kind(spec, LatticeSpec, "the group closure").algebra
    rows = spec.integer_rows
    for i, (x, s) in enumerate(rows):
        reach = {v for u in x for v in algebra.adjacency[u]}
        for j, (y, t) in enumerate(rows[i + 1 :], i + 1):
            if reach.isdisjoint(y):
                continue
            half = algebra.integer_bracket(x, y)
            r = 2 * s * t * algebra.denominator
            if not half or spec._coordinates(half, r) is not None:
                continue
            left = GroupElement(algebra, linalg.densify(x, len(rows), s))
            product = left * GroupElement(algebra, linalg.densify(y, len(rows), t))
            return CheckResult(
                False,
                "product of generators %d and %d leaves the integer span: %s"
                % (i, j, algebra.describe(product.coords)),
            )
    return CheckResult(True)


def check_scaling_closure(spec: LatticeSpec) -> CheckResult:
    """The dilation by 2 maps every generator into the integer span.

    The image of g = w / s in ``integer_rows`` has the numerators w_u shifted
    left by the weight of b_u, over the same s, and is described from them.
    """
    algebra = require_kind(spec, LatticeSpec, "the scaling closure").algebra
    weights = algebra.weights
    for i, (w, s) in enumerate(spec.integer_rows):
        image = {u: a << weights[u] for u, a in w.items()}
        if spec._coordinates(image, s) is None:
            return CheckResult(
                False,
                "dilation by 2 of generator %d leaves the integer span: %s"
                % (i, algebra.describe_pair(image, s)),
            )
    return CheckResult(True)
