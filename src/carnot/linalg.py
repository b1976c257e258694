"""Exact linear algebra over the rationals, fraction-free inside.

Matrices are row tuples of Fraction, never floats; canonical form is the
reduced row echelon form with zero rows dropped, which doubles as a
canonical basis of a row span.  Each input row, dense or ``{column:
value}``, is read once by ``numerators`` into ``{column: int}`` without its
zeros, so the cost follows the nonzeros.  The reduced basis keeps one
primitive integer row per pivot column: two rows are combined by
cross-multiplying with the cofactors of the gcd of the entries being
cleared, then divided by their content (Bareiss, Math. Comp. 22, 1968).
The reduced form is unique, so a basis row divided by its pivot entry is
a row of ``rref``.  ``reduced_rows`` and ``reduced_kernel`` return integer
pairs (w, s) for the value w / s; Fractions are built only for entries returned.

This module also holds the one reading of an exact number from outside:
``parse_coefficient`` takes an integer or ``p/q`` string, ``coefficient``
an int, a Fraction or such a string, and anything else (floats, bools,
Python's wider string grammar, digit strings past the interpreter's limit)
raises InputError.  Every other module imports them from here.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class InputError(ValueError):
    """Malformed input: a bad coefficient, unknown labels, a bad shape."""


def require_kind(value, kind: type, what: str):
    """``value``, read before any of its attributes; InputError unless a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InputError("%s needs %s %s" % (what, article, kind.__name__))
    return value


# ASCII digits only, and no trailing newline as ``$`` would allow
_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_coefficient(text) -> Fraction:
    """Exact value of an integer or ``p/q`` string, as the JSON formats write
    coefficients; anything else, a JSON number too, raises InputError."""
    if not isinstance(text, str) or not _COEFF_RE.fullmatch(text):
        what = "an integer or p/q string" if isinstance(text, str) else "a string"
        raise InputError("coefficient must be %s, got %r" % (what, text))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError("zero denominator in %r" % text) from None
    except ValueError:
        # past the interpreter's limit on the digits of an int read from text
        raise InputError(
            "coefficient of %d characters is too long" % len(text)
        ) from None


def coefficient(value) -> Fraction:
    """Exact value of an int, a Fraction or a coefficient string.

    Floats and bools are rejected, not converted: a float's binary
    expansion is not the number written.  A Fraction is returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_coefficient(value)
    if isinstance(value, float):
        raise InputError("floating point coefficient rejected: %r" % (value,))
    if isinstance(value, bool):
        raise InputError("boolean coefficient rejected")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError("bad coefficient %r" % (value,)) from exc


def numerators(values: Mapping | Sequence) -> tuple[dict, int]:
    """``({key: w}, r)``: the entries of a ``{key: value}`` dict, or of a
    sequence keyed by position, as integers w over the lcm r of their
    denominators, value = w / r, with the zeros absent.  Every entry is
    read: a bool raises, and if one is not an int or a Fraction, all go
    through ``coefficient``, so ``"p/q"`` strings are read and ``None`` raises."""
    if bool in map(type, values.values() if isinstance(values, dict) else values):
        raise InputError("boolean coefficient rejected")
    items = values.items() if isinstance(values, dict) else enumerate(values)
    try:
        nonzero = [(k, e) for k, e in items if e.numerator]
    except AttributeError:
        items = values.items() if isinstance(values, dict) else enumerate(values)
        return numerators({k: coefficient(e) for k, e in items})
    r = math.lcm(*(e.denominator for _, e in nonzero))
    return {k: e.numerator * (r // e.denominator) for k, e in nonzero}, r


def densify(row: Mapping[int, int], ncols: int, d: int = 1) -> Vector:
    """The dense row of the sparse integer row ``row`` divided by d."""
    out = [ZERO] * ncols
    for j, e in row.items():
        if e:
            out[j] = Fraction(e, d)
    return tuple(out)


def rref(rows: Iterable[Sequence | dict], ncols: int | None = None) -> Matrix:
    """Reduced row echelon form, zero rows dropped, rows ordered by pivot.

    A row is a dense sequence of ``ncols`` entries (by default the first
    row's length) or a ``{column: value}`` dict, which needs ``ncols``.
    """
    pivots, ncols = _eliminate(rows, ncols)
    return tuple(densify(pivots[p], ncols, pivots[p][p]) for p in sorted(pivots))


def reduced_rows(rows: Iterable[Sequence | dict], ncols: int | None = None) -> tuple:
    """The rows of ``rref`` as ``(w, s)`` in pivot order: w the primitive
    integer row ``{column: int}`` and s = w[pivot] > 0, the row being w / s."""
    pivots = _eliminate(rows, ncols)[0]
    return tuple((pivots[p], pivots[p][p]) for p in sorted(pivots))


def _eliminate(
    rows: Iterable[Sequence | dict], ncols: int | None
) -> tuple[dict[int, dict[int, int]], int | None]:
    """The reduced integer rows as ``{pivot column: {column: int}}``, and
    ncols; each row is read by ``numerators``."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if isinstance(row, dict):
            if ncols is None or (row and (min(row) < 0 or max(row) >= ncols)):
                raise ValueError("sparse row needs ncols and columns in range(ncols)")
        elif ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("ragged matrix")
        extend_reduced(pivots, numerators(row)[0])
    return pivots, ncols


def extend_reduced(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Add one sparse integer row to a reduced basis ``{pivot column: row}``.

    Every basis row is primitive, positive on its pivot column and zero on
    every other pivot column.  ``row`` maps columns to nonzero ints and is
    consumed: it is reduced in place by the pivots in its support, and if
    anything is left it is made primitive with a positive leading entry,
    that column is cleared from the earlier pivot rows, and it joins the
    basis.  True when the row was independent of the basis and was added.
    """
    # a pivot row is zero on every other pivot column, so one pass over
    # the pivots in the starting support clears them all
    for p in [j for j in row if j in pivots]:
        _clear(row, pivots[p], p)
    if not row:
        return False
    lead = min(row)
    _make_primitive(row, lead)
    for p, q in pivots.items():
        if lead in q:
            # row is zero on p, so q keeps its positive pivot
            _clear(q, row, lead)
            _make_primitive(q, p)
    pivots[lead] = row
    return True


def hermite_extend(basis: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Add one sparse integer row, consumed, to the Hermite basis ``{pivot
    column: row}`` of a Z-module: rows zero before their positive pivot and
    reduced modulo every later pivot, unique for the module."""
    while row:
        p = min(row)
        if p not in basis:
            basis[p] = {j: -e for j, e in row.items()} if row[p] < 0 else row
            break
        # row-Euclid on column p: a remainder swaps in for the pivot row q,
        # and q goes on to be reduced in its place
        q = basis[p]
        _subtract(row, q, row[p] // q[p])
        if p in row:
            basis[p], row = row, q
    # q - k basis[j] changes q only from column j on, so each row is reduced
    # at the later pivots in its own support, re-read after each step
    for p, q in basis.items():
        j = p
        while later := [c for c in q if c > j and c in basis]:
            j = min(later)
            _subtract(q, basis[j], q[j] // basis[j][j])


def _subtract(target: dict[int, int], row: dict[int, int], k: int) -> None:
    """target -= k row, in place, keeping only nonzero entries."""
    for j, e in row.items():
        v = target.get(j, 0) - k * e
        if v:
            target[j] = v
        else:
            target.pop(j, None)


def _clear(target: dict[int, int], row: dict[int, int], p: int) -> None:
    """target = a target - b row, in place, with a / b = row[p] / target[p]
    in lowest terms, so that column p of target cancels."""
    g = math.gcd(row[p], target[p])
    a, b = row[p] // g, target[p] // g
    if a != 1:
        for j in target:
            target[j] *= a
    _subtract(target, row, b)


def _make_primitive(row: dict[int, int], lead: int) -> None:
    """Divide row by its content, signed to leave row[lead] positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


def integer_inverse(
    scaled: Sequence[tuple[dict[int, int], int]]
) -> tuple[tuple[dict, ...], int] | None:
    """Inverse of the square matrix with rows w_i / s_i, given as the pairs
    ``(w_i, s_i)`` of ``numerators``, as sparse integer rows over one
    denominator q; None if singular.  One elimination of the sparse integer
    rows ``[W | diag(s)]``, which are the rows of ``[A | I]`` each scaled by
    s_i: reduced row i is the primitive row [a_i e_i | a_i inverse[i]], so
    q, the lcm of the a_i, is the lcm of the inverse's denominators."""
    n = len(scaled)
    pivots: dict[int, dict[int, int]] = {}
    for i, (w, s) in enumerate(scaled):
        extend_reduced(pivots, {**w, n + i: s})
    if any(p >= n for p in pivots):
        return None
    q = math.lcm(*(pivots[i][i] for i in range(n)))
    return tuple(
        {k - n: e * (q // pivots[i][i]) for k, e in pivots[i].items() if k >= n}
        for i in range(n)
    ), q


def solve(rows: Iterable[Sequence], rhs: Sequence) -> Vector | None:
    """One exact solution of ``A x = b``; None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a, b = list(rows), list(rhs)
    if len(a) != len(b) or any(isinstance(row, dict) for row in a):
        raise ValueError("solve needs one dense row per rhs entry")
    if not a:
        return ()
    ncols = len(a[0])
    pivots, _ = _eliminate(([*row, bi] for row, bi in zip(a, b)), ncols + 1)
    if ncols in pivots:
        return None
    return tuple(
        Fraction(pivots[j].get(ncols, 0), pivots[j][j]) if j in pivots else ZERO
        for j in range(ncols)
    )


def nullspace(rows: Iterable[Sequence | dict], ncols: int | None = None) -> Matrix:
    """Canonical basis of the right kernel, one vector per free column.

    Without ``ncols`` the column count is read from the first row, which
    must then be dense; with no rows and no ``ncols`` the kernel is empty.
    """
    pivots, ncols = _eliminate(rows, ncols)
    if ncols is None:
        return ()
    return tuple(densify(w, ncols, s) for w, s in reduced_kernel(pivots, ncols))


def reduced_kernel(pivots: dict[int, dict[int, int]], ncols: int) -> tuple:
    """Canonical kernel basis of the reduced integer basis ``{pivot column:
    row}`` of ``extend_reduced`` on ``ncols`` columns, one vector per free
    column f in column order, with a 1 at f and -row[f] / row[p] at each
    pivot p, as the pair (w, s) of ``numerators``, w sorted by column."""
    vectors = {free: {free: (1, 1)} for free in range(ncols) if free not in pivots}
    # a reduced row is zero on the other pivot columns, so each of its
    # off-pivot entries sits in a free column
    for p, row in pivots.items():
        for free, e in row.items():
            if free != p:
                vectors[free][p] = (-e, row[p])
    kernel = []
    for entries in vectors.values():
        s = math.lcm(*(b // math.gcd(a, b) for a, b in entries.values()))
        kernel.append(({j: a * s // b for j, (a, b) in sorted(entries.items())}, s))
    return tuple(kernel)
