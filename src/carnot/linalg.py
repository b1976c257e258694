"""Exact linear algebra over the rationals.

All routines work on tuples of Fraction and never touch floating point.
Matrices are row tuples; canonical form is the reduced row echelon form
with zero rows dropped, which doubles as a canonical basis of a row span.
Elimination is sparse inside: ``rref`` takes rows dense or as
``{column: value}`` dicts, holds each as ``{column: Fraction}`` without its
zeros, so its cost follows the nonzeros rather than the shape, and
densifies only its result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def numerators(values: Mapping | Sequence) -> tuple[dict, int]:
    """``({key: w}, r)``: the ints and Fractions of a ``{key: value}`` dict,
    or of a sequence keyed by position, as integers w over the lcm r of
    their denominators, value = w / r, with the zeros absent."""
    items = values.items() if type(values) is dict else enumerate(values)
    nonzero = [(k, e) for k, e in items if e]
    r = math.lcm(*(e.denominator for _, e in nonzero))
    return {k: e.numerator * (r // e.denominator) for k, e in nonzero}, r


def rref(rows: Iterable[Sequence | dict], ncols: int | None = None) -> Matrix:
    """Reduced row echelon form, zero rows dropped, rows ordered by pivot.

    A row is a dense sequence of ``ncols`` entries (by default the first
    row's length) or a ``{column: value}`` dict, which needs ``ncols``.
    """
    pivots, ncols = _eliminate(rows, ncols)
    return tuple(_dense(pivots[p], ncols) for p in sorted(pivots))


def _eliminate(
    rows: Iterable[Sequence | dict], ncols: int | None
) -> tuple[dict[int, dict[int, Fraction]], int | None]:
    """The reduced rows as ``{pivot column: {column: value}}``, and ncols.

    Rows are added one at a time to a reduced basis keyed by pivot column:
    each is reduced by the pivots in its support, normalised on its leading
    column, and that column is cleared from the earlier pivot rows.  The
    reduced form is unique, so the order of elimination does not show.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        if isinstance(row, dict):
            if ncols is None or (row and (min(row) < 0 or max(row) >= ncols)):
                raise ValueError("sparse row needs ncols and columns in range(ncols)")
            entries = row.items()
        else:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ValueError("ragged matrix")
            entries = enumerate(row)
        new = {}
        for j, e in entries:
            if not isinstance(e, Fraction):
                e = Fraction(e)
            if e:
                new[j] = e
        extend_reduced(pivots, new)
    return pivots, ncols


def extend_reduced(pivots: dict[int, dict], row: dict) -> bool:
    """Add one sparse row to a reduced basis ``{pivot column: row}``.

    ``row`` maps columns to nonzero int or Fraction entries and is consumed:
    it is reduced in place by the pivots in its support, and if anything is
    left it is normalised on its leading column, that column is cleared
    from the earlier pivot rows, and it joins the basis.  True when the row
    was independent of the basis and was added.
    """
    # a pivot row is zero on every other pivot column, so one pass over
    # the pivots in the starting support clears them all
    for p in [j for j in row if j in pivots]:
        _subtract(row, row[p], pivots[p])
    if not row:
        return False
    lead = min(row)
    inv = ONE / row[lead]
    if inv != 1:
        row = {j: inv * e for j, e in row.items()}
    for q in pivots.values():
        if lead in q:
            _subtract(q, q[lead], row)
    pivots[lead] = row
    return True


def _dense(row: dict[int, Fraction], ncols: int) -> Vector:
    out = [ZERO] * ncols
    for j, e in row.items():
        out[j] = e
    return tuple(out)


def _subtract(target: dict, c: Fraction, row: dict) -> None:
    """target -= c * row on sparse rows, dropping the entries that cancel."""
    for j, b in row.items():
        e = target.get(j, ZERO) - c * b
        if e:
            target[j] = e
        else:
            del target[j]


def rank(rows: Iterable[Sequence | dict], ncols: int | None = None) -> int:
    return len(rref(rows, ncols))


def in_row_span(reduced: Matrix, v: Sequence) -> bool:
    """Membership test against a matrix already in reduced form: v adds
    nothing to its rank.  A v of another length is a ragged matrix."""
    return rank((*reduced, v)) == len(reduced)


def inverse(rows: Sequence[Sequence]) -> Matrix | None:
    """Inverse of a square matrix, from one elimination of ``[A | I]``.

    None if the matrix is singular.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    pivots, _ = _eliminate(
        ({**{j: a for j, a in enumerate(row) if a}, n + i: ONE}
         for i, row in enumerate(rows)),
        2 * n,
    )
    if any(p >= n for p in pivots):
        return None
    return tuple(_dense(pivots[p], 2 * n)[n:] for p in range(n))


def solve(rows: Iterable[Sequence], rhs: Sequence) -> Vector | None:
    """One exact solution of ``A x = b``; None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = [list(Fraction(e) for e in row) for row in rows]
    b = [Fraction(e) for e in rhs]
    if len(a) != len(b):
        raise ValueError("rhs length does not match row count")
    if not a:
        return ()
    ncols = len(a[0])
    pivots, _ = _eliminate([row + [bi] for row, bi in zip(a, b)], ncols + 1)
    if ncols in pivots:
        return None
    solution = [ZERO] * ncols
    for p, row in pivots.items():
        solution[p] = row.get(ncols, ZERO)
    return tuple(solution)


def nullspace(rows: Iterable[Sequence | dict], ncols: int | None = None) -> Matrix:
    """Canonical basis of the right kernel, one vector per free column.

    Without ``ncols`` the column count is read from the first row, which
    must then be dense; with no rows and no ``ncols`` the kernel is empty.
    """
    pivots, ncols = _eliminate(rows, ncols)
    if ncols is None:
        return ()
    basis = {free: [ZERO] * ncols for free in range(ncols) if free not in pivots}
    for free, v in basis.items():
        v[free] = ONE
    # a reduced row is zero on the other pivot columns, so each of its
    # off-pivot entries sits in a free column
    for p, row in pivots.items():
        for free, e in row.items():
            if free != p:
                basis[free][p] = -e
    return tuple(tuple(v) for v in basis.values())
