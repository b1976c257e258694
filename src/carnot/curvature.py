"""Sectional curvature of the left-invariant metric making the basis
orthonormal.

Milnor's formula is a sum over directions k of products of structure
constants.  Write a_uvw for D times the coefficient of e_w in [e_u, e_v],
an integer when D is their common denominator.  With A = a_ijk,
B = a_jki and C = a_kij, the term of k is 1/(4 D^2) times
-3A^2 + 2A(B + C) + (B - C)^2 - 4 a_kii a_kjj, as (A - B + C)(A + B - C)
= A^2 - (B - C)^2.  Each monomial has a stored nonzero factor, so one pass
over the oriented entries a = a_ijk of the adjacency sums every plane
exactly: a with i < j is the A of plane (i, j); a with k != i is a B or
(a_kij = -a_ikj) a C of plane {i, k}, and -2BC = 2 a_kji a_ijk is taken
from the entry with i < k; the diagonal entries a_kii, found only in
ungraded tables, pair up within row k.
For 2-step algebras the three layer cases collapse to short closed forms,
kept separately as an independent route to the same values.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .algebra import GradedLieAlgebra, InputError, Subspace, require_two_step
from .linalg import ZERO, require_kind

_EMPTY: dict = {}


def sectional_curvature(algebra: GradedLieAlgebra, u, v) -> Fraction:
    """Curvature of the plane of two distinct basis vectors, each a label
    or a position that ``algebra.position`` checks: the plane's integer
    from the one sweep of ``_plane_sums``, divided once by 4 D^2."""
    i, j = map(require_kind(algebra, GradedLieAlgebra, "curvature").position, (u, v))
    if i == j:
        raise InputError("need two distinct directions")
    return _curvature_of(algebra, _plane_sums(algebra).get((min(i, j), max(i, j)), 0))


def _curvature_of(algebra: GradedLieAlgebra, total: int) -> Fraction:
    """A plane's curvature from its ``_plane_sums`` integer 4 D^2 K."""
    return Fraction(total, 4 * algebra.denominator ** 2)


def _plane_sums(algebra: GradedLieAlgebra) -> dict[tuple[int, int], int]:
    """``{(i, j): 4 D^2 K(e_i, e_j)}`` for i < j, zero planes absent, from
    one pass over the adjacency (see the module docstring)."""
    ad = algebra.adjacency
    sums: dict[tuple[int, int], int] = {}
    for i, row in enumerate(ad):
        for j, entry in row.items():
            ij = (i, j) if i < j else None
            row_j = ad[j]
            for k, a in entry.items():
                row_k = ad[k]
                if ij:
                    b = row_j.get(k, _EMPTY).get(i, 0) + row_k.get(i, _EMPTY).get(j, 0)
                    sums[ij] = sums.get(ij, 0) + a * (2 * b - 3 * a)
                if k != i:
                    ik = (i, k) if i < k else (k, i)
                    c = 2 * row_k.get(j, _EMPTY).get(i, 0) if i < k else 0
                    sums[ik] = sums.get(ik, 0) + a * (a + c)
        diagonal = sorted((j, entry[j]) for j, entry in row.items() if j in entry)
        for (p, x), (q, y) in itertools.combinations(diagonal, 2):
            sums[p, q] = sums.get((p, q), 0) - 4 * x * y
    return {plane: total for plane, total in sums.items() if total}


def two_step_closed_forms(algebra: GradedLieAlgebra, u, v) -> Fraction:
    """Layer-case formulas valid when the algebra is 2-step.

    Both horizontal: -3/4 times the squared bracket length.  One vector per
    layer: +1/4 times the squared column of structure constants.  Both in
    the second layer: zero.  Squares of adjacency entries sum to 4 D^2 K.
    """
    require_two_step(algebra, "the closed forms")
    i, j = algebra.position(u), algebra.position(v)
    if i == j:
        raise InputError("need two distinct directions")
    first = set(algebra.layers[0])
    if i not in first and j not in first:
        return ZERO
    if i not in first:
        i, j = j, i
    # i horizontal
    ad = algebra.adjacency
    if j in first:
        entry = ad[i].get(j, _EMPTY)
        total = -3 * sum(a * a for w, a in entry.items() if w not in first)
    else:
        total = sum(ad[k].get(i, _EMPTY).get(j, 0) ** 2 for k in first)
    return _curvature_of(algebra, total)


# holds is None when not evaluated; witnesses are (label, label, curvature)
TrichotomyItem = namedtuple("TrichotomyItem", "holds detail witnesses", defaults=((),))

CurvatureReport = namedtuple(
    "CurvatureReport",
    "ordered_basis planes flat_inside negative_toward_horizontal "
    "positive_toward_vertical",
)


def trichotomy_report(s: Subspace, maximal_asserted: bool = False) -> CurvatureReport:
    """Three sign statements for planes meeting a certified subspace of
    ``s.algebra``, a valid algebra of at most two layers.

    With the basis reordered so that ``s`` comes first: planes inside ``s``
    are flat; every remaining horizontal direction spans a negatively
    curved plane with some vector of ``s`` (this needs ``s`` maximal, which
    the caller asserts via ``maximal_asserted``; without the assertion the
    item is reported as not evaluated); every second-layer direction spans
    a positively curved plane with some vector of ``s``.
    """
    if type(maximal_asserted) is not bool:
        raise InputError("maximal_asserted must be True or False")
    algebra = require_kind(s, Subspace, "the curvature trichotomy").algebra
    require_two_step(algebra, "the curvature trichotomy")
    if s.coordinate_labels() is None:
        raise InputError("trichotomy needs a span of basis vectors")
    chosen = [i for w, _ in s.require_horizontal() for i in w]
    first = [i for i in algebra.layers[0] if i not in set(chosen)]
    rest = [i for i, w in enumerate(algebra.weights) if w > 1]
    order = chosen + first + rest
    names = tuple(algebra.basis[i] for i in order)

    # ``order`` puts ``s`` first, so every pair looked up below is a key
    sums = _plane_sums(algebra)
    curvature = {}
    for a, b in itertools.combinations(order, 2):
        total = sums.get((a, b) if a < b else (b, a))
        curvature[a, b] = _curvature_of(algebra, total) if total else ZERO
    planes = tuple(
        (algebra.basis[a], algebra.basis[b], value)
        for (a, b), value in curvature.items()
    )

    flat_bad = []
    for a, b in itertools.combinations(chosen, 2):
        value = curvature[a, b]
        if value != 0:
            flat_bad.append((algebra.basis[a], algebra.basis[b], value))
    flat = TrichotomyItem(
        not flat_bad,
        "planes inside the subspace are flat"
        if not flat_bad
        else "nonzero curvature inside the subspace",
        tuple(flat_bad),
    )

    def partners(targets, sign, word, holds_text):
        # the witness for j is the first a of ``s`` with sign * K(a, j) > 0
        witnesses, missing = [], []
        for j in targets:
            a = next((a for a in chosen if sign * curvature[a, j] > 0), None)
            if a is None:
                missing.append(algebra.basis[j])
            else:
                witnesses.append((algebra.basis[a], algebra.basis[j], curvature[a, j]))
        failed = "no %s curved partner for: %s" % (word, ", ".join(missing))
        return TrichotomyItem(
            not missing, failed if missing else holds_text, tuple(witnesses)
        )

    negative = partners(
        first, -1, "negatively",
        "each horizontal direction outside the subspace pairs negatively"
    )
    if not maximal_asserted:
        negative = TrichotomyItem(
            None,
            "not evaluated: needs the subspace asserted maximal among "
            "certified ones",
            negative.witnesses,
        )
    positive = partners(
        rest, 1, "positively", "each second-layer direction pairs positively"
    )

    return CurvatureReport(names, planes, flat, negative, positive)
