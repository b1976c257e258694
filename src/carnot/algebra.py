"""Stratified nilpotent Lie algebras with exact rational structure constants.

A graded algebra is described by a basis, an ordered partition of that basis
into layers V_1, ..., V_d, and brackets on basis pairs.  The structure
constants are read by ``linalg.coefficient``, the one parser, and held once,
as integers over one common denominator D, the lcm of their denominators:
``adjacency[u][v] = {w: A}`` for [b_u, b_v] = sum of (A / D) b_w, with both
orientations stored and pairs that bracket to zero absent.  Sums of many
products (Jacobi, curvature, the differential) run in integers and divide
once at the end, and so does ``integer_bracket``, the one bilinear sum over
the supports of two vectors; the bracket divides by D where it returns.
Coefficients outside are Fractions throughout, so every decision this module
makes (ranks, spans, equalities) is exact.  One integer-table core builds
every algebra from basis positions: catalog families hand it their entries,
and files and library callers go through the label constructor, which checks
names, labels and MAX_DIMENSION and reads them into it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence, Sized
from fractions import Fraction

from . import linalg
from .linalg import InputError, Vector, ZERO, coefficient, require_kind

# the most basis labels of a catalog id or file.  On N(31, 2), dim 496, 2-vCPU
# x86-64, CLI wall time: lattice 0.4 s, pittet 1.2 s, others < 0.6 s, of which
# about 0.2 s is interpreter start-up; pittet --json would print ~1.6 GB
MAX_DIMENSION = 512


class _Verdict(tuple):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self[0]


class CheckResult(_Verdict, namedtuple("CheckResult", "ok detail", defaults=("",))):
    """Outcome of a structural check; ``detail`` explains a failure."""

    __slots__ = ()


def _is_label_list(value) -> bool:
    """A list or tuple of ``str``; a string is a sequence of characters."""
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


def require_budget(dimension: int) -> None:
    """InputError for a dimension over MAX_DIMENSION, checked by the
    constructor and by each catalog family before it makes a label.  A
    dimension of 2^64 or more is not printed: past the interpreter's limit
    on int digits it has no decimal string."""
    if dimension > MAX_DIMENSION:
        size = "dimension %d" % dimension if dimension < 1 << 64 else "dimension"
        raise InputError("%s is over the budget of %d" % (size, MAX_DIMENSION))


def require_two_step(
    algebra: GradedLieAlgebra, what: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The layers (V1, V2) of ``algebra``, V2 empty for a one-layer algebra;
    InputError for a non-algebra, from ``require_valid``, or on more layers."""
    require_kind(algebra, GradedLieAlgebra, what).require_valid()
    if algebra.declared_degree > 2:
        raise InputError(
            "%s needs a 2-step algebra, got %d layers"
            % (what, algebra.declared_degree)
        )
    return (*algebra.layers, ())[:2]


class GradedLieAlgebra:
    """Finite-dimensional Lie algebra with a declared layer grading.

    The constructor reads labels: ``brackets`` maps label pairs to sparse
    results, e.g. ``{("a", "b"): {"c": 1}}`` for [a, b] = c; listing both
    orientations of one pair is an error even when they agree.  It checks a
    ``str`` name, at most MAX_DIMENSION labels, basis and layers as lists or
    tuples of ``str`` (a string is not a list of labels), ``brackets`` and
    each result as mappings, and known labels, and hands positions and
    integers to the core, ``_shape`` and ``_table``, which ``_from_table``
    runs alone on a catalog family's entries.  Jacobi and stratification
    are left to ``validity``, run once on first use, so that defective
    tables can be built and then diagnosed; ``require_valid`` is the gate
    every verdict goes through.
    ``denominator`` and ``adjacency`` are the integer structure constants
    of the module docstring, shared: callers read, never write.
    """

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        layers: Sequence[Sequence[str]],
        brackets: Mapping[tuple[str, str], Mapping[str, object]],
    ) -> None:
        if isinstance(basis, (list, tuple)):
            require_budget(len(basis))
        if not isinstance(name, str):
            raise InputError("algebra name must be a string")
        if not _is_label_list(basis):
            raise InputError("basis must be a list of label strings")
        if not (isinstance(layers, (list, tuple)) and all(map(_is_label_list, layers))):
            raise InputError("layers must be a list of lists of label strings")
        # the core reads each layer as it checks it, so errors keep their order
        self._shape(name, basis, ([self.index(l) for l in layer] for layer in layers))

        if not (
            isinstance(brackets, Mapping)
            and all(type(key) is tuple and len(key) == 2 for key in brackets)
            and all(isinstance(result, Mapping) for result in brackets.values())
        ):
            raise InputError(
                "brackets must map label pairs to mappings of labels to coefficients"
            )
        listed: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (left, right), result in brackets.items():
            u, v = self.index(left), self.index(right)
            if u == v:
                raise InputError("bracket of %r with itself listed" % left)
            if (u, v) in listed or (v, u) in listed:
                raise InputError(
                    "bracket pair (%s, %s) listed twice" % (left, right)
                )
            listed[u, v] = {
                self.index(label): coefficient(c) for label, c in result.items()
            }

        d = math.lcm(*(c.denominator for e in listed.values() for c in e.values()))
        self._table(d, (
            (u, v, w, c.numerator * (d // c.denominator))
            for (u, v), entry in listed.items() for w, c in entry.items()
        ))

    @classmethod
    def _from_table(cls, name, basis, layers, entries):
        """The integer-table core on ``layers`` as position tuples and one
        (u, v, w, a) per component a b_w of [b_u, b_v], u != v, each pair
        once, denominator 1: it checks the O(dim) shape and trusts the rest."""
        algebra = cls.__new__(cls)
        algebra._shape(name, basis, layers)
        algebra._table(1, entries)
        return algebra

    def _shape(self, name, basis, layers) -> None:
        self.name = name
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise InputError("duplicate basis labels")
        if not self.basis:
            raise InputError("empty basis")
        self._index = {label: i for i, label in enumerate(self.basis)}

        # a weight of 0 marks a position no layer has claimed yet
        weights = [0] * len(self.basis)
        layer_indices = []
        for depth, layer in enumerate(layers, start=1):
            idx = tuple(layer)
            if not idx:
                raise InputError("empty layer")
            layer_indices.append(idx)
            for i in idx:
                if weights[i]:
                    raise InputError("label %r in two layers" % self.basis[i])
                weights[i] = depth
        if 0 in weights:
            missing = sorted(b for b, w in zip(self.basis, weights) if not w)
            raise InputError("labels missing from layers: %s" % ", ".join(missing))
        self.layers: tuple[tuple[int, ...], ...] = tuple(layer_indices)
        self.weights = tuple(weights)

    def _table(self, d: int, entries) -> None:
        adjacency: list[dict[int, dict[int, int]]] = [{} for _ in self.basis]
        for u, v, w, a in entries:
            if a:
                adjacency[u].setdefault(v, {})[w] = a
                adjacency[v].setdefault(u, {})[w] = -a
        self.denominator = d
        self.adjacency = tuple(adjacency)
        self._validity: tuple[CheckResult, CheckResult] | None = None

    def validity(self) -> tuple[CheckResult, CheckResult]:
        """``(jacobi_check(self), stratification_check(self))``, kept."""
        if self._validity is None:
            self._validity = (jacobi_check(self), stratification_check(self))
        return self._validity

    def require_valid(self) -> None:
        """InputError on the first check of ``validity`` that fails."""
        for result in self.validity():
            if not result:
                raise InputError("not a stratified Lie algebra: %s" % result.detail)

    # -- basic accessors -------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def declared_degree(self) -> int:
        return len(self.layers)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        # an unhashable label, such as a list, is no label either
        except (KeyError, TypeError):
            raise InputError("unknown basis label %r" % (label,)) from None

    # -- vectors ---------------------------------------------------------

    def position(self, label_or_index) -> int:
        """A basis position, given as a label or as an int (not a bool) in
        ``range(dimension)``; InputError on anything else."""
        i = label_or_index
        if type(i) is not int:
            return self.index(i)
        if not 0 <= i < self.dimension:
            raise InputError("basis position %d out of range(%d)" % (i, self.dimension))
        return i

    def numerators(self, v: Sequence, what: str = "a vector") -> tuple[dict, int]:
        """``linalg.numerators`` of a vector of ``dimension`` coefficients;
        InputError on a string, a value with no length or another length."""
        if isinstance(v, str) or not isinstance(v, Sized) or len(v) != self.dimension:
            raise InputError("%s needs %d coefficients" % (what, self.dimension))
        return linalg.numerators(v)

    def basis_vector(self, label_or_index) -> Vector:
        return linalg.densify({self.position(label_or_index): 1}, self.dimension)

    def vector(self, coefficients: Mapping[str, object]) -> Vector:
        if not isinstance(coefficients, Mapping):
            raise InputError("a vector needs a mapping of labels to coefficients")
        out = [ZERO] * self.dimension
        for label, coeff in coefficients.items():
            out[self.index(label)] += coefficient(coeff)
        return tuple(out)

    def describe(self, v: Sequence[Fraction]) -> str:
        """``v`` as a signed sum of its nonzero terms in position order."""
        return self.describe_pair(*self.numerators(v))

    def describe_pair(self, w: Mapping[int, int], r: int) -> str:
        """``describe`` of w / r: w nonzero ints by position, r > 0."""
        parts = []
        for i, a in w.items():
            label = self.basis[i]
            if abs(a) == r:
                parts.append(label if a > 0 else "-" + label)
            else:
                parts.append("%s*%s" % (Fraction(a, r), label))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- bracket ---------------------------------------------------------

    def bracket_basis(self, u: int, v: int) -> dict[int, Fraction]:
        """Sparse [b_u, b_v] for basis positions."""
        d = self.denominator
        return {w: Fraction(a, d) for w, a in self.adjacency[u].get(v, {}).items()}

    def integer_bracket(self, x: Mapping[int, int], y: Mapping[int, int]) -> dict:
        """D [x, y] for sparse integer vectors ``{position: int}``: the sum of
        x_u y_v adjacency[u][v] over the supports of x and y, every other
        term having a zero factor.  Components that cancel may stay as 0."""
        adjacency = self.adjacency
        out: dict[int, int] = {}
        for u, a in x.items():
            row = adjacency[u]
            if not row:
                continue
            for v, b in y.items():
                entry = row.get(v)
                if entry is None:
                    continue
                ab = a * b
                for w, c in entry.items():
                    out[w] = out.get(w, 0) + ab * c
        return out

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear extension: with x = w / r and y = w' / r' over integer
        numerators, [x, y] is ``integer_bracket(w, w')`` divided once by
        r r' D, one Fraction per nonzero component."""
        n = self.dimension
        xs, r = self.numerators(x)
        ys, s = self.numerators(y)
        return linalg.densify(self.integer_bracket(xs, ys), n, r * s * self.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedLieAlgebra):
            return NotImplemented
        return (
            self.name == other.name
            and self.basis == other.basis
            and self.layers == other.layers
            and self.denominator == other.denominator
            and self.adjacency == other.adjacency
        )

    def __hash__(self):
        return hash((self.name, self.basis, self.layers))

    def __repr__(self) -> str:
        dims = ", ".join(str(len(layer)) for layer in self.layers)
        return "GradedLieAlgebra(%r, dim=%d, layers=(%s))" % (
            self.name,
            self.dimension,
            dims,
        )


class Subspace:
    """Subspace of the underlying vector space, held as its reduced rows.

    ``integer_rows[k] = (w, s)`` is the k-th row of the reduced row echelon
    form as w / s: w the sparse primitive row ``{position: int}`` and s its
    pivot entry, as ``linalg.reduced_rows`` hands it over.  The form is
    canonical, so subspaces are equal exactly when their integer rows agree.
    """

    def __init__(self, algebra: GradedLieAlgebra, rows: Iterable[Sequence]) -> None:
        if not isinstance(rows, Iterable):
            raise InputError("a subspace needs an iterable of rows")
        self.algebra = require_kind(algebra, GradedLieAlgebra, "a subspace")
        # a row w / r spans the line of its numerators w
        rows = (algebra.numerators(row, "a subspace row")[0] for row in rows)
        self.integer_rows = linalg.reduced_rows(rows, algebra.dimension)

    @classmethod
    def from_labels(cls, algebra: GradedLieAlgebra, labels: Sequence[str]) -> "Subspace":
        """Span of basis vectors: their sorted unit rows are already reduced."""
        if not _is_label_list(labels):
            raise InputError("subspace labels must be a list of label strings")
        positions = sorted({algebra.index(l) for l in labels})
        return cls._of_rows(algebra, tuple(({i: 1}, 1) for i in positions))

    @classmethod
    def _of_rows(cls, algebra: GradedLieAlgebra, integer_rows: tuple) -> "Subspace":
        """The subspace whose ``integer_rows`` are given, already reduced."""
        s = cls.__new__(cls)
        s.algebra, s.integer_rows = algebra, integer_rows
        return s

    @property
    def dim(self) -> int:
        return len(self.integer_rows)

    def is_horizontal(self) -> bool:
        """True when every spanning vector lies in the first layer."""
        weights = self.algebra.weights
        return all(weights[i] == 1 for w, _ in self.integer_rows for i in w)

    def require_horizontal(self) -> tuple[tuple[dict[int, int], int], ...]:
        """``integer_rows``; InputError unless ``is_horizontal``."""
        if not self.is_horizontal():
            raise InputError("subspace is not horizontal")
        return self.integer_rows

    def coordinate_labels(self) -> tuple[str, ...] | None:
        """Labels if this is a span of basis vectors, else None.  A reduced
        row with one nonzero entry is a unit row."""
        if any(len(w) != 1 for w, _ in self.integer_rows):
            return None
        return tuple(self.algebra.basis[i] for w, _ in self.integer_rows for i in w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.algebra is other.algebra and self.integer_rows == other.integer_rows

    def __hash__(self):
        return hash(tuple(frozenset(w.items()) for w, _ in self.integer_rows))

    def __repr__(self) -> str:
        labels = self.coordinate_labels()
        if labels is not None:
            return "Subspace<%s>" % ", ".join(labels)
        return "Subspace(dim=%d)" % self.dim


# -- structural checks ---------------------------------------------------


def jacobi_check(algebra: GradedLieAlgebra) -> CheckResult:
    """Verify the Jacobi identity on all basis triples.

    Trilinearity makes basis triples sufficient.  A term [[b_a, b_b], b_c]
    of a cyclic sum is nonzero only if some b_t in [b_a, b_b] brackets
    nontrivially with b_c, so one sweep over the entries t of
    ``adjacency[a][b]`` for a < b and over ``adjacency[t]`` adds up every
    nonzero term, into the sum of the sorted triple with the sign of the
    permutation (a, b, c), odd exactly when a < c < b, as the cyclic sum is
    alternating.  The first failing triple in lexicographic order is
    reported by label.  The sums run over the integer adjacency, D^2 times
    the exact ones, so they vanish exactly when the exact sums do.
    """
    ad = require_kind(algebra, GradedLieAlgebra, "a Jacobi check").adjacency
    acc: dict[tuple[int, int, int, int], int] = {}
    pairs = ((a, b, e) for a, row in enumerate(ad) for b, e in row.items() if b > a)
    for a, b, pair in pairs:
        for t, coeff in pair.items():
            for c, entry in ad[t].items():
                if c < a:
                    triple, k = (c, a, b), coeff
                elif a < c < b:
                    triple, k = (a, c, b), -coeff
                elif c > b:
                    triple, k = (a, b, c), coeff
                else:
                    continue
                for s, e in entry.items():
                    key = triple + (s,)
                    acc[key] = acc.get(key, 0) + k * e
    failing = [key[:3] for key, total in acc.items() if total]
    if failing:
        triple = tuple(algebra.basis[i] for i in min(failing))
        return CheckResult(False, "jacobi fails on (%s, %s, %s)" % triple)
    return CheckResult(True)


def lower_central_series(algebra: GradedLieAlgebra) -> list[Subspace]:
    """Chain g = g_1 > g_2 > ... ending with the zero subspace.

    g_{j+1} = [g, g_j].  Raises InputError if the chain stabilises before
    reaching zero.
    """
    n = require_kind(algebra, GradedLieAlgebra, "the lower central series").dimension
    chain = [Subspace.from_labels(algebra, algebra.basis)]
    while chain[-1].dim > 0:
        images = (
            algebra.integer_bracket({b: 1}, w)
            for w, _ in chain[-1].integer_rows
            for b in range(n)
        )
        nxt = Subspace._of_rows(algebra, linalg.reduced_rows(images, n))
        if nxt.dim == chain[-1].dim:
            raise InputError(
                "lower central series stabilises at dimension %d" % nxt.dim
            )
        chain.append(nxt)
    return chain


def stratification_check(algebra: GradedLieAlgebra) -> CheckResult:
    """Confirm the declared layers genuinely stratify the algebra.

    Two conditions, read from the adjacency: structure constants respect
    the grading (a bracket of layers s and t lands in layer s+t), and each
    V_{j+1} is exactly spanned by [V_1, V_j].  They force the lower central
    series to be g_j = V_j + ... + V_d, by induction on j: grading gives
    [g, g_j] inside the sum of the V_i with i > j (no basis vector has a
    weight above d, so brackets that would land there vanish), and
    generation gives the reverse inclusion, V_{i+1} = [V_1, V_i] inside
    [g, g_j] for i >= j.  So the series needs no check of its own.  The
    generation leg extends one reduced basis by the nonzero rows
    adjacency[u][v], u in V_1 and v in V_j (D times the exact ones), and
    stops at dim V_{j+1} pivots, since the grading puts every image in
    V_{j+1}; a failure has used every row, so it reports the full rank.
    """
    ad = require_kind(algebra, GradedLieAlgebra, "a stratification check").adjacency
    weights = algebra.weights
    for u, v in sorted((u, v) for u, row in enumerate(ad) for v in row if u < v):
        target = weights[u] + weights[v]
        for w in ad[u][v]:
            if weights[w] != target:
                return CheckResult(
                    False,
                    "bracket [%s, %s] has a layer-%d component %s; grading "
                    "requires layer %d"
                    % (
                        algebra.basis[u],
                        algebra.basis[v],
                        weights[w],
                        algebra.basis[w],
                        target,
                    ),
                )

    first = algebra.layers[0]
    for depth in range(1, algebra.declared_degree):
        size = len(algebra.layers[depth])
        pivots: dict[int, dict[int, int]] = {}
        images = (e for u in first for v, e in ad[u].items() if weights[v] == depth)
        for image in images:
            if linalg.extend_reduced(pivots, dict(image)) and len(pivots) == size:
                break
        else:
            return CheckResult(
                False,
                "[V_1, V_%d] spans a %d-dimensional space but layer %d has "
                "dimension %d" % (depth, len(pivots), depth + 1, size),
            )
    return CheckResult(True)


def hausdorff_dimension(algebra: GradedLieAlgebra) -> int:
    """Sum of layer index times layer dimension, which is the sum of the weights."""
    return sum(require_kind(algebra, GradedLieAlgebra, "Hausdorff dimension").weights)


class Dilation:
    """Grading automorphism: multiplies layer j by t**j."""

    def __init__(self, algebra: GradedLieAlgebra, t: Fraction) -> None:
        t = coefficient(t)
        if t == 0:
            raise InputError("dilation parameter must be nonzero")
        self.algebra = require_kind(algebra, GradedLieAlgebra, "a dilation")
        self.t = t
        self.factors: Vector = tuple(t ** w for w in algebra.weights)

    def __call__(self, v: Sequence[Fraction]) -> Vector:
        w, r = self.algebra.numerators(v)
        return tuple(f * Fraction(w.get(k, 0), r) for k, f in enumerate(self.factors))
