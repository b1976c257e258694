"""Horizontal subspaces: the curvature form and its certificates.

The bracket of two first-layer vectors, projected away from the first
layer and halved, is an antisymmetric form with one component per
non-horizontal basis direction.  Isotropy (the form vanishes on a
subspace) and regularity (a family of inhomogeneous systems built from the
form is always solvable) are the two properties this module certifies.
Both certificates are exact: ranks of integer matrices, no tolerances.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import linalg
from .algebra import GradedLieAlgebra, Subspace, _Verdict
from .linalg import InputError, Matrix, require_kind


class IsotropyResult(
    _Verdict, namedtuple("IsotropyResult", "isotropic witness", defaults=(None,))
):
    """The verdict and, when it fails, the first offending pair of rows."""

    __slots__ = ()


class RegularityResult(
    _Verdict, namedtuple("RegularityResult", "regular rank required_rank")
):
    __slots__ = ()


class BoundReport(_Verdict, namedtuple("BoundReport", "satisfied k lhs rhs")):
    """Dimension bound ``n1 - k >= k * (n - n1)`` for a k-dim subspace."""

    __slots__ = ()


def is_isotropic(s: Subspace) -> IsotropyResult:
    """Does the curvature form of ``s.algebra`` vanish on all pairs from ``s``?

    Bilinearity means checking the canonical spanning rows suffices; the
    witness is the first offending pair of rows.  Only zeros matter, so the
    brackets are ``integer_bracket``s of the rows' ``integer_rows``,
    undivided; only the witness is divided out.
    """
    algebra = require_kind(s, Subspace, "an isotropy check").algebra
    rows, first, n = s.require_horizontal(), set(algebra.layers[0]), algebra.dimension
    for (x, r), (y, q) in itertools.combinations(rows, 2):
        bracket = algebra.integer_bracket(x, y)
        if any(c and t not in first for t, c in bracket.items()):
            witness = linalg.densify(x, n, r), linalg.densify(y, n, q)
            return IsotropyResult(False, witness)
    return IsotropyResult(True)


def _regularity_rows(s: Subspace) -> tuple[list[dict[int, int]], int]:
    """The rows of ``regularity_matrix`` as integers ``{column: a}`` over
    one scale, zeros absent.  With X_q = w / r read from ``integer_rows``,
    entry (i, q, u) is the t component of D [b_u, w] = -D [w, b_u], summed
    over the first-layer u in adjacency[v] for v in w, over 2 r D, taken
    over the lcm of the r; first-layer targets t (ungraded) are skipped."""
    algebra, integer_rows = s.algebra, s.require_horizontal()
    column = {u: col for col, u in enumerate(sorted(algebra.layers[0]))}
    targets = (t for t, weight in enumerate(algebra.weights) if weight > 1)
    position = {t: i for i, t in enumerate(targets)}
    lcm = math.lcm(*(r for _, r in integer_rows))
    rows: list[dict[int, int]] = [{} for _ in range(len(position) * s.dim)]
    for q, (w, r) in enumerate(integer_rows):
        for v, b in w.items():
            kb = lcm // r * b
            for u, entry in algebra.adjacency[v].items():
                if u in column:
                    for t, c in entry.items():
                        if t in position:
                            row = rows[position[t] * s.dim + q]
                            row[column[u]] = row.get(column[u], 0) - kb * c
    rows = [{col: a for col, a in row.items() if a} for row in rows]
    return rows, 2 * lcm * algebra.denominator


def regularity_matrix(s: Subspace) -> Matrix:
    """Stacked system matrix: rows (target i, spanning vector q), columns
    over the first-layer basis in basis order; the entry is half the
    coefficient of the i-th basis vector outside V1 in [b_u, X_q]."""
    rows, scale = _regularity_rows(require_kind(s, Subspace, "a regularity matrix"))
    return tuple(linalg.densify(row, len(s.algebra.layers[0]), scale) for row in rows)


def is_regular(s: Subspace) -> RegularityResult:
    """Full row rank of the stacked system decides regularity."""
    pivots: dict[int, dict[int, int]] = {}
    for row in _regularity_rows(require_kind(s, Subspace, "a regularity check"))[0]:
        linalg.extend_reduced(pivots, row)
    required = (s.algebra.dimension - len(s.algebra.layers[0])) * s.dim
    return RegularityResult(len(pivots) == required, len(pivots), required)


def gromov_dimension_bound(algebra: GradedLieAlgebra, k: int) -> BoundReport:
    """Necessary dimension count for a k-dim isotropic regular subspace."""
    if type(k) is not int or k < 0:
        raise InputError("k must be a dimension, an int of at least 0")
    n = require_kind(algebra, GradedLieAlgebra, "a dimension bound").dimension
    n1 = len(algebra.layers[0])
    lhs = n1 - k
    rhs = k * (n - n1)
    return BoundReport(lhs >= rhs, k, lhs, rhs)
