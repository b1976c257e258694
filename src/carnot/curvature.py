"""Sectional curvature of the left-invariant metric making the basis
orthonormal.

The general formula takes the structure constants alpha_uvw (coefficient
of e_w in [e_u, e_v]) of an orthonormal basis and returns exact plane
curvatures.  For 2-step algebras the three layer cases collapse to short
closed forms, kept separately as an independent route to the same values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import GradedLieAlgebra, InputError, Subspace, require_two_step
from .linalg import ZERO

_EMPTY: dict = {}
QUARTER = Fraction(1, 4)
THREE_QUARTERS = Fraction(3, 4)


def sectional_curvature(algebra: GradedLieAlgebra, u, v) -> Fraction:
    """Curvature of the plane spanned by two distinct basis vectors.

    Arguments may be labels or indices.  The basis is treated as
    orthonormal; the value is a sum over the basis directions k of
    quadratic expressions in the structure constants.  Every term has a
    factor alpha_ijk, alpha_jki, alpha_kij, alpha_kii or alpha_kjj, and
    each of those vanishes unless k brackets nontrivially with e_i or e_j
    or lies in the support of [e_i, e_j], so only those k are summed.

    The sum runs in integers over the algebra's adjacency: with D its
    common denominator, every A = D * alpha is an integer, and four
    times each term is an integer polynomial of degree 2 in the A's, that
    is 4 D^2 times the term.  So the exact value is the integer total
    divided once by 4 D^2, and only that last step makes a Fraction.
    """
    i = u if isinstance(u, int) else algebra.index(u)
    j = v if isinstance(v, int) else algebra.index(v)
    if i == j:
        raise InputError("need two distinct directions")
    ad = algebra.adjacency
    row_i, row_j = ad[i], ad[j]
    ij = row_i.get(j, _EMPTY)
    total = 0
    for k in row_i.keys() | row_j.keys() | ij.keys():
        row_k = ad[k]
        ki = row_k.get(i, _EMPTY)
        kj = row_k.get(j, _EMPTY)
        a_ijk = ij.get(k, 0)
        a_jki = row_j.get(k, _EMPTY).get(i, 0)
        a_kij = ki.get(j, 0)
        total += (
            2 * a_ijk * (-a_ijk + a_jki + a_kij)
            - (a_ijk - a_jki + a_kij) * (a_ijk + a_jki - a_kij)
            - 4 * ki.get(i, 0) * kj.get(j, 0)
        )
    return Fraction(total, 4 * algebra.denominator ** 2)


def two_step_closed_forms(algebra: GradedLieAlgebra, u, v) -> Fraction:
    """Layer-case formulas valid when the algebra is 2-step.

    Both horizontal: -3/4 times the squared bracket length.  One vector per
    layer: +1/4 times the squared column of structure constants.  Both in
    the second layer: zero.
    """
    require_two_step(algebra, "the closed forms")
    i = u if isinstance(u, int) else algebra.index(u)
    j = v if isinstance(v, int) else algebra.index(v)
    if i == j:
        raise InputError("need two distinct directions")
    first = set(algebra.layers[0])
    in1_i, in1_j = i in first, j in first
    if in1_i and in1_j:
        bracket = algebra.bracket_basis(i, j)
        return -THREE_QUARTERS * sum(
            (c * c for w, c in bracket.items() if w not in first), start=ZERO
        )
    if not in1_i and not in1_j:
        return ZERO
    if not in1_i:
        i, j = j, i
    # i horizontal, j in the second layer
    return QUARTER * sum(
        (algebra.structure_constant(k, i, j) ** 2 for k in first), start=ZERO
    )


@dataclass(frozen=True)
class TrichotomyItem:
    holds: bool | None
    detail: str
    witnesses: tuple[tuple[str, str, Fraction], ...] = ()


@dataclass(frozen=True)
class CurvatureReport:
    ordered_basis: tuple[str, ...]
    planes: tuple[tuple[str, str, Fraction], ...]
    flat_inside: TrichotomyItem
    negative_toward_horizontal: TrichotomyItem
    positive_toward_vertical: TrichotomyItem


def trichotomy_report(
    algebra: GradedLieAlgebra, s: Subspace, maximal_asserted: bool = False
) -> CurvatureReport:
    """Three sign statements for planes meeting a certified subspace.

    With the basis reordered so that ``s`` comes first: planes inside ``s``
    are flat; every remaining horizontal direction spans a negatively
    curved plane with some vector of ``s`` (this needs ``s`` maximal, which
    the caller asserts via ``maximal_asserted``; without the assertion the
    item is reported as not evaluated); every second-layer direction spans
    a positively curved plane with some vector of ``s``.
    """
    require_two_step(algebra, "the curvature trichotomy")
    labels = s.coordinate_labels()
    if labels is None:
        raise InputError("trichotomy needs a span of basis vectors")
    if not s.is_horizontal():
        raise InputError("subspace is not horizontal")
    chosen = [algebra.index(l) for l in labels]
    first = [i for i in algebra.layers[0] if i not in set(chosen)]
    rest = [i for i in range(algebra.dimension) if algebra.layer_of(i) > 1]
    order = chosen + first + rest
    names = tuple(algebra.basis[i] for i in order)

    # ``order`` puts ``s`` first, so every pair looked up below is a key
    curvature = {
        (a, b): sectional_curvature(algebra, a, b)
        for a, b in itertools.combinations(order, 2)
    }
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

    def witness_search(targets, want_negative):
        witnesses = []
        missing = []
        for j in targets:
            found = None
            for a in chosen:
                value = curvature[a, j]
                if (value < 0) if want_negative else (value > 0):
                    found = (algebra.basis[a], algebra.basis[j], value)
                    break
            if found is None:
                missing.append(algebra.basis[j])
            else:
                witnesses.append(found)
        return witnesses, missing

    neg_witnesses, neg_missing = witness_search(first, want_negative=True)
    if not maximal_asserted:
        negative = TrichotomyItem(
            None,
            "not evaluated: needs the subspace asserted maximal among "
            "certified ones",
            tuple(neg_witnesses),
        )
    else:
        negative = TrichotomyItem(
            not neg_missing,
            "each horizontal direction outside the subspace pairs negatively"
            if not neg_missing
            else "no negatively curved partner for: %s" % ", ".join(neg_missing),
            tuple(neg_witnesses),
        )

    pos_witnesses, pos_missing = witness_search(rest, want_negative=False)
    positive = TrichotomyItem(
        not pos_missing,
        "each second-layer direction pairs positively"
        if not pos_missing
        else "no positively curved partner for: %s" % ", ".join(pos_missing),
        tuple(pos_witnesses),
    )

    return CurvatureReport(names, planes, flat, negative, positive)
