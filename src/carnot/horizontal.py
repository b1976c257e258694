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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import GradedLieAlgebra, InputError, Subspace
from .linalg import HALF, Matrix, Vector, ZERO


class NoSolutionError(ValueError):
    """The requested right-hand side is outside the attainable range."""

    def __init__(self, rank: int, required_rank: int) -> None:
        super().__init__(
            "system rank %d < %d, right-hand side not attained" % (rank, required_rank)
        )
        self.rank = rank
        self.required_rank = required_rank


@dataclass(frozen=True)
class IsotropyResult:
    isotropic: bool
    witness: tuple[Vector, Vector] | None = None

    def __bool__(self) -> bool:
        return self.isotropic


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    rank: int
    required_rank: int

    def __bool__(self) -> bool:
        return self.regular


@dataclass(frozen=True)
class BoundReport:
    """Dimension bound ``n1 - k >= k * (n - n1)`` for a k-dim subspace."""

    satisfied: bool
    k: int
    lhs: int
    rhs: int

    def __bool__(self) -> bool:
        return self.satisfied


class CurvatureForm:
    """Layer-one curvature components of a graded algebra.

    Component i is the antisymmetric form on the first layer whose value on
    (X, Y) is half the coefficient of the i-th non-horizontal basis vector
    in [X, Y].
    """

    def __init__(self, algebra: GradedLieAlgebra) -> None:
        self.algebra = algebra
        first = set(algebra.layers[0])
        self.v1 = tuple(i for i in range(algebra.dimension) if i in first)
        self.targets = tuple(i for i in range(algebra.dimension) if i not in first)

    def _check_horizontal(self, v: Sequence[Fraction]) -> None:
        allowed = set(self.v1)
        for i, c in enumerate(v):
            if c != 0 and i not in allowed:
                raise InputError(
                    "vector has a component outside the first layer (%s)"
                    % self.algebra.basis[i]
                )

    def component(self, i: int, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """Value of component ``i`` (index into non-horizontal directions)."""
        return self.evaluate(x, y)[i]

    def evaluate(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """All components at once, ordered like ``targets``."""
        self._check_horizontal(x)
        self._check_horizontal(y)
        bracket = self.algebra.bracket(x, y)
        return tuple(HALF * bracket[t] for t in self.targets)


def curvature_form(algebra: GradedLieAlgebra) -> CurvatureForm:
    return CurvatureForm(algebra)


def is_isotropic(algebra: GradedLieAlgebra, s: Subspace) -> IsotropyResult:
    """Does the curvature form vanish on all pairs from ``s``?

    Bilinearity means checking the canonical spanning rows suffices; the
    witness is the first offending pair of rows.  Only zeros matter, so the
    brackets are ``integer_bracket``s of the rows' numerators, undivided.
    """
    if not s.is_horizontal():
        raise InputError("subspace is not horizontal")
    first = set(algebra.layers[0])
    rows = [(row, linalg.numerators(row)[0]) for row in s.rows]
    for (x, xs), (y, ys) in itertools.combinations(rows, 2):
        bracket = algebra.integer_bracket(xs, ys)
        if any(c and t not in first for t, c in bracket.items()):
            return IsotropyResult(False, (x, y))
    return IsotropyResult(True)


def _regularity_rows(
    algebra: GradedLieAlgebra, s: Subspace
) -> tuple[list[dict[int, int]], int]:
    """The rows of ``regularity_matrix`` as integers ``{column: a}`` over
    one scale.  With X_q = w / r over integer numerators, entry (i, q, u)
    is the t component of ``integer_bracket({u: 1}, w)`` over 2 r D, taken
    over the lcm of the r.  First-layer targets t, which only ungraded
    tables have, are skipped."""
    if not s.is_horizontal():
        raise InputError("subspace is not horizontal")
    form = CurvatureForm(algebra)
    position = {t: i for i, t in enumerate(form.targets)}
    scaled = [linalg.numerators(xq) for xq in s.rows]
    lcm = math.lcm(*(r for _, r in scaled))
    rows: list[dict[int, int]] = [{} for _ in range(len(form.targets) * s.dim)]
    for q, (w, r) in enumerate(scaled):
        for col, u in enumerate(form.v1):
            for t, a in algebra.integer_bracket({u: 1}, w).items():
                i = position.get(t)
                if i is not None and a:
                    rows[i * s.dim + q][col] = a * (lcm // r)
    return rows, 2 * lcm * algebra.denominator


def regularity_matrix(algebra: GradedLieAlgebra, s: Subspace) -> Matrix:
    """Stacked system matrix: rows (component i, spanning vector q), columns
    over the first-layer basis; entry is component_i(b_u, X_q)."""
    rows, scale = _regularity_rows(algebra, s)
    return tuple(linalg.densify(row, len(algebra.layers[0]), scale) for row in rows)


def is_regular(algebra: GradedLieAlgebra, s: Subspace) -> RegularityResult:
    """Full row rank of the stacked system decides regularity."""
    required = (algebra.dimension - len(algebra.layers[0])) * s.dim
    rank = linalg.rank(_regularity_rows(algebra, s)[0], len(algebra.layers[0]))
    return RegularityResult(rank == required, rank, required)


def solve_regularity(
    algebra: GradedLieAlgebra, s: Subspace, sigma: Sequence[Sequence]
) -> Vector:
    """Find a horizontal vector whose pairings with ``s`` hit ``sigma``.

    ``sigma`` has one row per non-horizontal direction and one column per
    spanning vector of ``s``.  The solution, when one exists, is a vector
    of the ambient algebra supported on the first layer, verified by
    re-evaluation before it is returned.  Unsolvable right-hand sides raise
    NoSolutionError carrying the rank certificate.
    """
    form = CurvatureForm(algebra)
    m = regularity_matrix(algebra, s)
    sig = [[Fraction(e) for e in row] for row in sigma]
    if len(sig) != len(form.targets) or any(len(row) != s.dim for row in sig):
        raise InputError(
            "sigma must be %d x %d" % (len(form.targets), s.dim)
        )
    rhs = [sig[i][q] for i in range(len(form.targets)) for q in range(s.dim)]
    solution = linalg.solve(m, rhs)
    if solution is None:
        raise NoSolutionError(linalg.rank(m), len(rhs))
    xi = [ZERO] * algebra.dimension
    for u, c in zip(form.v1, solution):
        xi[u] = c
    xi_vec = tuple(xi)
    for q, xq in enumerate(s.rows):
        if form.evaluate(xi_vec, xq) != tuple(row[q] for row in sig):
            raise AssertionError("regularity solution failed re-evaluation")
    return xi_vec


def gromov_dimension_bound(algebra: GradedLieAlgebra, k: int) -> BoundReport:
    """Necessary dimension count for a k-dim isotropic regular subspace."""
    n = algebra.dimension
    n1 = len(algebra.layers[0])
    lhs = n1 - k
    rhs = k * (n - n1)
    return BoundReport(lhs >= rhs, k, lhs, rhs)


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic search plan: coordinate sweep, then seeded random trials."""

    coordinate: bool = True
    random_trials: int = 0
    coefficient_bound: int = 1
    seed: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    subspace: Subspace | None
    tested: int
    reason: str

    def __bool__(self) -> bool:
        return self.subspace is not None


def search_certified_subspace(
    algebra: GradedLieAlgebra, k: int, budget: SearchBudget = SearchBudget()
) -> SearchOutcome:
    """Look for a k-dimensional isotropic and regular horizontal subspace.

    The dimension bound is a fast reject.  Candidates are tried in a fixed
    order (coordinate subspaces lexicographically, then random rational
    combinations from a seeded generator), so results are reproducible.  A
    miss is only a budget exhaustion, never a proof of nonexistence.
    """
    n1 = len(algebra.layers[0])
    if not 0 <= k <= n1:
        raise InputError("k must be between 0 and dim V1 = %d" % n1)
    if k == 0:
        return SearchOutcome(Subspace(algebra, []), 0, "zero subspace is trivially certified")
    bound = gromov_dimension_bound(algebra, k)
    if not bound:
        return SearchOutcome(
            None,
            0,
            "dimension bound fails: n1 - k = %d < %d = k(n - n1); no "
            "candidate can be regular and isotropic" % (bound.lhs, bound.rhs),
        )
    tested = 0
    first_layer = algebra.layers[0]

    def certified(s: Subspace) -> bool:
        return s.dim == k and bool(is_isotropic(algebra, s)) and bool(is_regular(algebra, s))

    if budget.coordinate:
        for combo in itertools.combinations(first_layer, k):
            s = Subspace(algebra, [algebra.basis_vector(i) for i in combo])
            tested += 1
            if certified(s):
                return SearchOutcome(s, tested, "coordinate subspace")
    rng = random.Random(budget.seed)
    b = budget.coefficient_bound
    for _ in range(budget.random_trials):
        rows = []
        for _ in range(k):
            row = [ZERO] * algebra.dimension
            for i in first_layer:
                row[i] = Fraction(rng.randint(-b, b))
            rows.append(tuple(row))
        s = Subspace(algebra, rows)
        tested += 1
        if certified(s):
            return SearchOutcome(s, tested, "random combination (seed %d)" % budget.seed)
    return SearchOutcome(
        None,
        tested,
        "budget exhausted after %d candidates; not a proof of nonexistence" % tested,
    )
