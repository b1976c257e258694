"""Left-invariant alternating forms with exact coefficients.

A form of degree p is a Fraction combination of monomials, each monomial a
strictly increasing tuple of basis indices standing for the wedge of the
corresponding dual covectors.  Evaluation is the determinant of the
pairing matrix, with no factorial normalisation, so the monomials are dual
to the increasing basis tuples.

The differential follows the convention

    (p+1)! (dg)(X_0, ..., X_p) =
        sum over i < j of (-1)^(i+j+1) g([X_i, X_j], X_0, ..  omitting X_i
        and X_j .., X_p)

which differs from the common Koszul sign by a global factor; the square
still vanishes and all consumers here only use zero sets and ranks.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from . import linalg
from .algebra import GradedLieAlgebra, Subspace, require_two_step
from .linalg import InputError, ZERO, coefficient, parse_coefficient, require_kind

Monomial = tuple[int, ...]


def _merge_sign(left: Monomial, right: Monomial) -> tuple[Monomial, int]:
    """Sorted concatenation and the parity of the merge; 0 on a repeat."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return (), 0
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the remaining left entries
            if (len(left) - i) % 2 == 1:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


class InvariantForm:
    """Alternating form on the algebra, stored sparsely by monomial."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(
        self,
        algebra: GradedLieAlgebra,
        degree: int,
        terms: Mapping[Monomial, object] | None = None,
    ) -> None:
        n = require_kind(algebra, GradedLieAlgebra, "a form").dimension
        # type(...) is int turns away bools, floats and strings alike
        if type(degree) is not int or not 1 <= degree <= n:
            raise InputError("form degree must be an integer from 1 to %d" % n)
        self.algebra = algebra
        self.degree = degree
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != degree:
                raise InputError("monomial %r has wrong arity" % (mono,))
            if any(type(i) is not int or not 0 <= i < n for i in mono):
                raise InputError("monomial %r needs int indices below %d" % (mono, n))
            if any(a >= b for a, b in zip(mono, mono[1:])):
                raise InputError("monomial %r is not strictly increasing" % (mono,))
            c = coefficient(coeff)
            if c:
                clean[mono] = clean[mono] + c if mono in clean else c
        self.terms = {m: c for m, c in sorted(clean.items()) if c}

    @classmethod
    def _of_terms(cls, algebra, degree: int, terms: dict) -> "InvariantForm":
        """``terms`` as given: sorted, zero-free, valid monomials of ``degree``."""
        form = cls.__new__(cls)
        form.algebra, form.degree, form.terms = algebra, degree, terms
        return form

    @classmethod
    def dual(cls, algebra: GradedLieAlgebra, label_or_index) -> "InvariantForm":
        return cls(algebra, 1, {(algebra.position(label_or_index),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.algebra is not other.algebra:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # a nonzero form's monomials carry its degree; zero forms of every
        # degree compare equal, so they must hash alike
        return hash(tuple(self.terms.items()))

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        if require_kind(other, InvariantForm, "a form sum").algebra is not self.algebra:
            raise InputError("forms live on different algebras")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if other.degree != self.degree:
            raise InputError("cannot add forms of different degree")
        merged = dict(self.terms)
        for mono, c in other.terms.items():
            merged[mono] = merged.get(mono, ZERO) + c
        return InvariantForm(self.algebra, self.degree, merged)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(
            self.algebra, self.degree, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-require_kind(other, InvariantForm, "a form difference"))

    def __rmul__(self, scalar) -> "InvariantForm":
        c = coefficient(scalar)
        return InvariantForm(
            self.algebra, self.degree, {m: c * v for m, v in self.terms.items()}
        )

    def evaluate(self, vectors: Sequence[Sequence[Fraction]]) -> Fraction:
        """Value on a tuple of vectors: each coefficient times its pairing
        determinant, in integers: ``_integer_det`` of the numerators of the
        vectors, each read once, and one division by all the denominators."""
        if not isinstance(vectors, (list, tuple)):
            raise InputError("form of degree %d needs a list of vectors" % self.degree)
        if len(vectors) != self.degree:
            raise InputError(
                "form of degree %d applied to %d vectors" % (self.degree, len(vectors))
            )
        read = [self.algebra.numerators(v) for v in vectors]
        terms, e = linalg.numerators(self.terms)
        total = sum(
            c * _integer_det([[w.get(i, 0) for w, _ in read] for i in mono])
            for mono, c in terms.items()
        )
        return Fraction(total, e * math.prod(r for _, r in read))

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        if require_kind(other, InvariantForm, "a wedge").algebra is not self.algebra:
            raise InputError("forms live on different algebras")
        degree = self.degree + other.degree
        if degree > self.algebra.dimension or self.is_zero() or other.is_zero():
            return InvariantForm(self.algebra, min(degree, self.algebra.dimension), {})
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged, sign = _merge_sign(ma, mb)
                if sign:
                    out[merged] = out.get(merged, ZERO) + sign * ca * cb
        return InvariantForm(self.algebra, degree, out)

    def __repr__(self) -> str:
        if self.is_zero():
            return "InvariantForm(0)"
        labels = self.algebra.basis
        bits = []
        for mono, c in self.terms.items():
            body = "^".join(labels[i] + "*" for i in mono)
            bits.append("%s %s" % (c, body))
        return "InvariantForm(%s)" % " + ".join(bits)


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of square integer rows, consumed, by Bareiss's fraction-free
    elimination: entries stay minors, divided exactly; a swap negates a row."""
    n, previous = len(rows), 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], [-a for a in rows[k]]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // previous
        previous = pivot
    return rows[-1][-1]


def wedge(*factors: InvariantForm) -> InvariantForm:
    if not factors:
        raise InputError("wedge of nothing")
    if not all(isinstance(f, InvariantForm) for f in factors):
        raise InputError("wedge factors must be InvariantForms")
    out = factors[0]
    for f in factors[1:]:
        out = out.wedge(f)
    return out


def differential(form: InvariantForm) -> InvariantForm:
    """Exterior differential under the stated convention.

    Computed monomial-by-monomial: a structure constant [b_u, b_v] -> c b_w
    acts on a monomial containing w by replacing the w covector with the
    pair (u, v), provided neither u nor v already occurs.  The sign is the
    pair-position sign from the defining sum times the parity of moving w
    to the front of its monomial; the whole result carries 1/(p+1)!.

    With E the common denominator of the form's coefficients and D that of
    the structure constants, each product coeff * c is an integer over
    E * D, so every output coefficient is an integer sum divided once by
    E * D * (p+1)!: exact, with one Fraction per output monomial, and a
    monomial whose integer sum cancels is absent.  Output monomials merge a
    valid one with a pair outside it, so they need sorting, not checks.
    """
    algebra = require_kind(form, InvariantForm, "a differential").algebra
    p = form.degree
    if p >= algebra.dimension:
        return InvariantForm(algebra, min(p + 1, algebra.dimension), {})
    terms, e = linalg.numerators(form.terms)
    scale = e * algebra.denominator * math.factorial(p + 1)
    out = sorted(_integer_differential(algebra, terms).items())
    return InvariantForm._of_terms(
        algebra, p + 1, {m: Fraction(n, scale) for m, n in out if n}
    )


def _integer_differential(
    algebra: GradedLieAlgebra, terms: Mapping[Monomial, int]
) -> dict[Monomial, int]:
    """D (p+1)! times the differential of the integer form ``terms``, by
    monomial, with zeros where sums cancel: one walk over the u < v entries
    of the adjacency visits, for each target w, the monomials holding w."""
    by_member: dict[int, list[tuple[Monomial, int]]] = {}
    for mono, coeff in terms.items():
        for pos_w, w in enumerate(mono):
            rest = mono[:pos_w] + mono[pos_w + 1 :]
            by_member.setdefault(w, []).append((rest, -coeff if pos_w % 2 else coeff))
    out: dict[Monomial, int] = {}
    for u, row in enumerate(algebra.adjacency):
        for v in (v for v in row if v > u):
            for w, c in row[v].items():
                for rest, signed in by_member.get(w, ()):
                    # 0 when u or v is in ``rest``; else, as u < v, the merge
                    # parity is the pair-position sign (-1)^(i+j+1) of the sum
                    merged, sign = _merge_sign(rest, (u, v))
                    if sign:
                        out[merged] = out.get(merged, 0) + sign * signed * c
    return out


# weight of a form under the grading dilation, uniform None when mixed,
# and (monomial, weight) per monomial
ScalingWeight = namedtuple("ScalingWeight", "uniform by_monomial")


def scaling_weight(form: InvariantForm) -> ScalingWeight:
    """Dilation by t multiplies each monomial by t to this weight."""
    if require_kind(form, InvariantForm, "a scaling weight").is_zero():
        raise InputError("the zero form has no scaling weight")
    weights = form.algebra.weights
    per = tuple((mono, sum(weights[i] for i in mono)) for mono in form.terms)
    values = {w for _, w in per}
    return ScalingWeight(values.pop() if len(values) == 1 else None, per)


def cube_form(
    algebra: GradedLieAlgebra, omit: int, order: Sequence
) -> InvariantForm:
    """``wedge`` of the dual covectors of ``order`` with the first ``omit``
    dropped, so ``_merge_sign`` signs it by the inversions of the kept order.

    ``order`` must be a permutation of the whole basis and the dropped
    prefix must be horizontal.  Used with an ordering that puts an
    isotropic subspace first, the result is the closed form whose scaling
    weight is the Hausdorff dimension minus ``omit``.
    """
    position = require_kind(algebra, GradedLieAlgebra, "a cube form").position
    indices = list(map(position, order))
    if sorted(indices) != list(range(algebra.dimension)):
        raise InputError("order must be a permutation of the basis")
    if type(omit) is not int or not 0 <= omit <= len(algebra.layers[0]):
        raise InputError("omit must be between 0 and dim V1")
    for i in indices[:omit]:
        if algebra.weights[i] != 1:
            raise InputError(
                "omitted prefix contains the non-horizontal %s" % algebra.basis[i]
            )
    duals = [InvariantForm.dual(algebra, i) for i in indices[omit:]]
    # the constructor refuses degree 0 with the message of every form
    return wedge(*duals) if duals else InvariantForm(algebra, 0)


def check_cube_closed(s: Subspace, omit: int) -> bool:
    """Is the cube form of ``s.algebra`` for ``s``-first ordering closed
    after dropping ``omit`` covectors?

    ``s`` must be a horizontal span of basis vectors; the ordering places
    its vectors first, the rest of the basis after in declared order.
    True is guaranteed when ``s`` is isotropic and ``omit <= dim s - 1``;
    calling with an uncertified ``s`` simply reports what the differential
    says.
    """
    if require_kind(s, Subspace, "the cube closure").coordinate_labels() is None:
        raise InputError("cube ordering needs a span of basis vectors")
    chosen = [i for w, _ in s.require_horizontal() for i in w]
    if type(omit) is not int or not 0 <= omit <= s.dim:
        raise InputError("omit must be between 0 and dim s")
    rest = sorted(set(range(s.algebra.dimension)) - set(chosen))
    return differential(cube_form(s.algebra, omit, chosen + rest)).is_zero()


class PittetReport(namedtuple("PittetReport", "pairs kernel_dimension kernel_basis")):
    """The wedge pairs, the kernel dimension and its basis, (w, s) pairs."""

    __slots__ = ()

    def __hash__(self):
        # the kernel basis holds dicts, which do not hash
        return hash(self[:2])


def pittet_kernel(algebra: GradedLieAlgebra) -> PittetReport:
    """Kernel of the differential on the span of the (second dual, first
    dual) wedge pairs Y* ^ x*, ordered lexicographically; its dimension
    counts independent closed 2-forms of this shape.
    Requires an algebra that passes ``require_two_step``, valid with at
    most two layers, else InputError.  The grading then puts every bracket
    in V2, so dx* = 0 and d(Y* ^ x*) = dY* ^ x*: the row of a first-layer
    monomial a < b < c reads A_ab^Y at (Y, c), -A_ac^Y at (Y, b) and
    A_bc^Y at (Y, a) off the adjacency.  The kernel basis is canonical, so
    the nonzero rows go to ``linalg.extend_reduced`` in monomial order
    until every column has a pivot: the kernel is then {0}.  Each kernel
    vector is kept as the pair (w, s) of ``linalg.reduced_kernel``.
    """
    v1, v2 = require_two_step(algebra, "the pittet kernel")
    ad = algebra.adjacency
    column = {yx: k for k, yx in enumerate(itertools.product(v2, v1))}
    pairs = [(algebra.basis[y], algebra.basis[x]) for y, x in column]
    pivots: dict[int, dict[int, int]] = {}
    for a, b, c in _bracketing_triples(sorted(v1), ad):
        if len(pivots) == len(pairs):
            break
        row = {}
        for u, v, x, sign in ((a, b, c, 1), (a, c, b, -1), (b, c, a, 1)):
            for y, e in ad[u].get(v, {}).items():
                row[column[y, x]] = sign * e
        linalg.extend_reduced(pivots, row)
    kernel = linalg.reduced_kernel(pivots, len(pairs))
    return PittetReport(tuple(pairs), len(kernel), kernel)


def _bracketing_triples(v1: list[int], ad) -> Iterator[tuple[int, int, int]]:
    """The monomials a < b < c of the sorted ``v1`` with a bracketing pair,
    in order, in work bounded by those pairs times dim V1."""
    active = [u for u in v1 if ad[u]]
    for i, a in enumerate(v1):
        # with [a, .] = 0 the pair (b, c) must bracket, so b is active
        later = v1[i + 1 :] if ad[a] else [b for b in active if b > a]
        for j, b in enumerate(later):
            tails = later[j + 1 :] if b in ad[a] else sorted(ad[a].keys() | ad[b])
            yield from ((a, b, c) for c in tails if c > b)


# -- JSON handling for CLI form literals -----------------------------------


def form_to_dict(form: InvariantForm) -> dict:
    return {
        "degree": require_kind(form, InvariantForm, "form JSON").degree,
        "terms": [
            {"indices": list(mono), "coeff": str(c)} for mono, c in form.terms.items()
        ],
    }


def form_from_dict(algebra: GradedLieAlgebra, data: dict) -> InvariantForm:
    """Read ``form_to_dict``'s layout back.  Coefficients must be JSON
    strings; the degree and the monomials are checked by ``InvariantForm``,
    so a string, a float or a boolean is never read as some other one."""
    terms: dict[Monomial, Fraction] = {}
    try:
        for item in data["terms"]:
            mono = tuple(item["indices"])
            terms[mono] = terms.get(mono, ZERO) + parse_coefficient(item["coeff"])
        degree = data["degree"]
    # a string or a number where an object goes cannot be indexed by a key,
    # and a list inside the indices does not hash
    except (KeyError, TypeError) as exc:
        raise InputError(
            "form JSON needs a degree and terms of {indices, coeff}"
        ) from exc
    return InvariantForm(algebra, degree, terms)
