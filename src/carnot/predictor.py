"""Growth-exponent predictions from a certified horizontal subspace.

Everything here is a bookkeeping layer: given an algebra together with a
certified subspace (isotropy and regularity are recomputed, not trusted),
a scalable-lattice flag and an optional assertion about the maximal
isotropic dimension, emit the filling-function and divergence exponents
the certification supports, labelled by the rule that produced them and by
how strong the statement is (equivalence, one-sided bound, strict bound).

Dimensions no rule covers are reported as unknown, and bounds at the same
dimension are cross-checked for consistency but never merged.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import InputError, Subspace, hausdorff_dimension
from .linalg import require_kind
from .horizontal import (
    IsotropyResult,
    RegularityResult,
    is_isotropic,
    is_regular,
)

RELATIONS = ("equivalent", "at_most", "at_least", "strictly_above")

# prediction rule identifiers; names describe what each rule derives
LOW_EUCLIDEAN = "low-euclidean"
LOW_EUCLIDEAN_LOWER = "low-euclidean-lower-only"
GAP_UPPER = "gap-upper"
GAP_STRICT_LOWER = "gap-strict-lower"
HIGH_SUBEUCLIDEAN = "high-subeuclidean"
HIGH_SUBEUCLIDEAN_LOWER = "high-subeuclidean-lower-only"
DIV_LOWER = "div-lower"
DIV_HIGH = "div-high-equivalence"
DIV_HIGH_LOWER = "div-high-lower-only"

_INDEXING_NOTE = (
    "dimension convention: this row sits at m = n-j-1 for the shifted index "
    "j, the placement consistent with the divergence dimension cap n-2 and "
    "with deriving the upper bound from the (m+1)-dimensional filling "
    "function; a variant statement placing it at n-j would violate both"
)

_STRICT_NOTE = (
    "triggered by the asserted maximal isotropic dimension matching the "
    "certified subspace; the alternative trigger (an unfillable compact "
    "cycle in the asymptotic cone) is not machine-checkable here"
)


class GrowthBound(namedtuple("GrowthBound", "target m exponent relation source note")):
    """One predicted bound: target function, dimension, exponent, strength."""

    __slots__ = ()

    def __new__(cls, target, m, exponent, relation, source, note=""):
        if target not in ("F", "Div"):
            raise InputError("target must be F or Div")
        if relation not in RELATIONS:
            raise InputError("unknown relation %r" % relation)
        if type(m) is not int or type(exponent) not in (int, Fraction):
            raise InputError("m must be an int and the exponent an int or a Fraction")
        if exponent <= 0:
            raise InputError("growth exponents are positive")
        # filling slower than linear is impossible for a geodesic space
        if target == "F" and exponent <= 1:
            raise InputError("filling exponents exceed 1")
        return super().__new__(cls, target, m, exponent, relation, source, note)

    # ``_replace`` builds through ``_make``, so it is checked as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    def as_dict(self) -> dict:
        out = {
            "target": self.target,
            "m": self.m,
            "exponent": str(self.exponent),
            "relation": self.relation,
            "source": self.source,
        }
        if self.note:
            out["note"] = self.note
        return out


class HypothesisBundle:
    """Predictor input: a subspace of a valid algebra, certified here.

    ``lattice_scalable`` defaults to automatic: nilpotency degree at most 2
    guarantees a lattice preserved by the dilation by 2, higher degree does
    not, and an explicit value overrides either way.  ``k1_max_isotropic``
    is the caller's assertion (k1+1 = largest isotropic dimension); it is
    never derived here.
    """

    def __init__(
        self,
        subspace: Subspace,
        lattice_scalable: bool | None = None,
        k1_max_isotropic: int | None = None,
    ) -> None:
        self.subspace = require_kind(subspace, Subspace, "a hypothesis bundle")
        algebra = self.algebra = subspace.algebra
        algebra.require_valid()
        if subspace.dim < 1:
            raise InputError("the certified subspace must be nonzero")
        self.isotropy: IsotropyResult = is_isotropic(subspace)
        if not self.isotropy:
            raise InputError(
                "subspace is not isotropic; no prediction rule applies"
            )
        self.regularity: RegularityResult = is_regular(subspace)
        if lattice_scalable is None:
            lattice_scalable = algebra.declared_degree <= 2
        elif type(lattice_scalable) is not bool:
            raise InputError("lattice_scalable must be True, False or None")
        self.lattice_scalable = lattice_scalable
        self.k = subspace.dim - 1
        self.k1_max_isotropic = k1_max_isotropic
        if k1_max_isotropic is None:
            return
        if type(k1_max_isotropic) is not int:
            raise InputError("k1_max_isotropic must be an integer or None")
        # an isotropic subspace is horizontal, so it fits inside V1; and V1
        # itself is isotropic exactly when [V1, V1] = V2 is zero
        asserted, n1 = k1_max_isotropic + 1, len(algebra.layers[0])
        if asserted < subspace.dim:
            raise InputError(
                "asserted maximal isotropic dimension is below the certified one"
            )
        if asserted > n1:
            raise InputError(
                "asserted maximal isotropic dimension %d exceeds dim V1 = %d"
                % (asserted, n1)
            )
        if asserted < n1 == algebra.dimension:
            raise InputError(
                "asserted maximal isotropic dimension %d is below dim V1 = %d, "
                "and V1 is isotropic since V2 = 0" % (asserted, n1)
            )

    @property
    def regular(self) -> bool:
        return self.regularity.regular


def predict_filling(bundle: HypothesisBundle) -> list[GrowthBound]:
    """Filling-function bounds for dimensions 2..n.

    Low band: Euclidean equivalences up to the certified dimension (lower
    halves survive without the lattice).  Gap dimension k+2: upper bound
    (k+1+d)/(k+1) plus the strict lower bound (k+2)/(k+1) under the
    maximal-isotropy assertion.  High band: sub-Euclidean equivalences at
    n-j for j < k; the isotropy-only lower bound extends one dimension
    further, to n-k.
    """
    algebra = require_kind(bundle, HypothesisBundle, "a filling prediction").algebra
    n = algebra.dimension
    d = algebra.declared_degree
    big_d = hausdorff_dimension(algebra)
    k = bundle.k
    lat = bundle.lattice_scalable
    rows: list[GrowthBound] = []

    def add(m, exponent, relation, source, note=""):
        rows.append(GrowthBound("F", m, exponent, relation, source, note))

    def high(j):  # the sub-Euclidean exponent at dimension n - j
        return Fraction(big_d - j, big_d - j - 1)

    if bundle.regular:
        for m in range(2, min(k + 1, n) + 1):
            if lat:
                add(m, Fraction(m, m - 1), "equivalent", LOW_EUCLIDEAN)
            else:
                add(m, Fraction(m, m - 1), "at_least", LOW_EUCLIDEAN_LOWER,
                    "certification alone; a scalable lattice would upgrade "
                    "this to an equivalence")
        gap = k + 2
        if gap <= n:
            if lat:
                add(gap, Fraction(k + 1 + d, k + 1), "at_most", GAP_UPPER)
            if bundle.k1_max_isotropic == k:
                add(gap, Fraction(k + 2, k + 1), "strictly_above", GAP_STRICT_LOWER,
                    _STRICT_NOTE)
        for j in range(0, k):
            if lat:
                add(n - j, high(j), "equivalent", HIGH_SUBEUCLIDEAN)
            else:
                add(n - j, high(j), "at_least", HIGH_SUBEUCLIDEAN_LOWER,
                    "isotropy-only lower bound; the upper half needs a "
                    "scalable lattice")
        if n - k >= 2:
            add(n - k, high(k), "at_least", HIGH_SUBEUCLIDEAN_LOWER,
                "isotropy alone reaches this dimension; the two-sided "
                "statement stops one dimension higher")
    else:
        for j in range(0, k + 1):
            if n - j >= 2:
                add(n - j, high(j), "at_least", HIGH_SUBEUCLIDEAN_LOWER,
                    "regularity unavailable: isotropy-based lower bound only")
    return sorted(rows, key=lambda b: (b.m, b.relation, b.exponent))


def predict_divergence(bundle: HypothesisBundle) -> list[GrowthBound]:
    """Divergence bounds for dimensions 1..n-2.

    Low band: r^(j+1) for j up to the certified dimension.  High band: the
    equivalence at m = n-j-1 whose exponent is m times the filling exponent
    one dimension up; the band is exactly the set of dimensions where both
    the two-sided filling input (j <= k-1) and the divergence dimension cap
    (j >= 1) are available, with the isotropy-only lower bound again
    extending one dimension lower (j = k).
    """
    algebra = require_kind(bundle, HypothesisBundle, "a divergence prediction").algebra
    n = algebra.dimension
    big_d = hausdorff_dimension(algebra)
    k = bundle.k
    divdim = n - 2
    lat = bundle.lattice_scalable
    rows: list[GrowthBound] = []

    def add(m, exponent, relation, source, note=""):
        rows.append(GrowthBound("Div", m, exponent, relation, source, note))

    def high(j):  # the high-band exponent at dimension n - j - 1
        return Fraction((big_d - j) * (n - j - 1), big_d - j - 1)

    if bundle.regular:
        for j in range(1, min(k, divdim) + 1):
            add(j, Fraction(j + 1), "at_least", DIV_LOWER,
                "scales the Euclidean filling lower bound; no lattice needed")
        for j in range(1, k):
            m = n - j - 1
            if lat:
                add(m, high(j), "equivalent", DIV_HIGH, _INDEXING_NOTE)
            else:
                add(m, high(j), "at_least", DIV_HIGH_LOWER,
                    _INDEXING_NOTE + "; upper half needs a scalable lattice")
        if 1 <= n - k - 1 <= divdim and k >= 1:
            add(n - k - 1, high(k), "at_least", DIV_HIGH_LOWER,
                "isotropy-only edge of the high band; " + _INDEXING_NOTE)
    else:
        for j in range(0, k + 1):
            if 1 <= n - j - 1 <= divdim:
                add(n - j - 1, high(j), "at_least", DIV_HIGH_LOWER,
                    "regularity unavailable: isotropy-based lower bound only")
    return sorted(rows, key=lambda b: (b.m, b.relation, b.exponent))


class CoverageRow(namedtuple("CoverageRow", "target m bounds conflict")):
    __slots__ = ()

    @property
    def status(self) -> str:
        if not self.bounds:
            return "unknown"
        if self.conflict:
            return "conflict"
        return "bounded"


CoverageTable = namedtuple("CoverageTable", "filling divergence notes")


def _detect_conflict(bounds: tuple[GrowthBound, ...]) -> bool:
    """True when no exponent meets every bound (an equivalence bounds both ways)."""
    uppers = [b.exponent for b in bounds if b.relation in ("equivalent", "at_most")]
    top = min(uppers, default=None)
    return top is not None and any(
        b.exponent > top or (b.exponent == top and b.relation == "strictly_above")
        for b in bounds
        if b.relation != "at_most"
    )


def coverage_table(bundle: HypothesisBundle) -> CoverageTable:
    """Per-dimension view of the predictions with unknown bands kept visible."""
    algebra = require_kind(bundle, HypothesisBundle, "a coverage table").algebra
    n = algebra.dimension
    filling = predict_filling(bundle)
    divergence = predict_divergence(bundle)

    def rows(target: str, bounds: list[GrowthBound], span) -> tuple[CoverageRow, ...]:
        # every rule emits its bounds inside ``span``
        by_m: dict[int, list[GrowthBound]] = {m: [] for m in span}
        for b in bounds:
            by_m[b.m].append(b)
        return tuple(
            CoverageRow(target, m, tuple(here), _detect_conflict(here))
            for m, here in by_m.items()
        )

    notes = [
        "certified subspace dimension %d (k = %d)" % (bundle.subspace.dim, bundle.k),
        "scalable lattice: %s"
        % ("assumed available" if bundle.lattice_scalable else "not assumed"),
    ]
    if bundle.k1_max_isotropic is not None:
        notes.append(
            "asserted maximal isotropic dimension: %d (k1 = %d)"
            % (bundle.k1_max_isotropic + 1, bundle.k1_max_isotropic)
        )
    if not bundle.regular:
        notes.append(
            "regularity failed (rank %d of %d): only isotropy-based lower "
            "bounds are emitted; low-dimensional filling can then exceed the "
            "Euclidean rate, as for the rank-4 unipotent group whose "
            "2-dimensional filling grows at least cubically"
            % (bundle.regularity.rank, bundle.regularity.required_rank)
        )
    return CoverageTable(
        rows("F", filling, range(2, n + 1)),
        rows("Div", divergence, range(1, max(n - 1, 1))),
        tuple(notes),
    )
