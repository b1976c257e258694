"""Built-in algebra families and JSON serialisation.

Families: Heisenberg groups over the complex, quaternion and octonion
algebras, strictly upper triangular matrices, and abelian space.  Each
entry carries the algebra, an optional designated horizontal subspace used
by the certification examples, and free-form notes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import GradedLieAlgebra, Subspace, hausdorff_dimension
from .linalg import InputError, parse_coefficient


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    algebra: GradedLieAlgebra
    designated_subspace: Subspace | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


_HOROSPHERE_NOTE = (
    "boundary geometry: this group is a horosphere in a negatively curved "
    "rank-one symmetric space, so low-dimensional filling equivalences "
    "transfer to higher Dehn functions of non-uniform lattices acting there"
)


def heisenberg_c(n: int) -> CatalogEntry:
    """Complex Heisenberg algebra: dimension 2n+1, layers (2n, 1)."""
    if n < 1:
        raise InputError("heisenberg_c needs n >= 1")
    js = ["j%d" % q for q in range(1, n + 1)]
    ks = ["k%d" % q for q in range(1, n + 1)]
    basis = js + ks + ["K"]
    brackets = {("k%d" % q, "j%d" % q): {"K": 1} for q in range(1, n + 1)}
    algebra = GradedLieAlgebra("heisenberg_c:%d" % n, basis, [js + ks, ["K"]], brackets)
    notes = (
        "no designated horizontal subspace is shipped; span(j1..jn) is one "
        "valid choice and the certification tools accept any",
        _HOROSPHERE_NOTE,
    )
    return CatalogEntry("heisenberg_c:%d" % n, algebra, None, notes)


def heisenberg_h(n: int) -> CatalogEntry:
    """Quaternionic Heisenberg algebra: dimension 4n+3, layers (4n, 3)."""
    if n < 1:
        raise InputError("heisenberg_h needs n >= 1")
    groups = {a: ["%s%d" % (a, q) for q in range(1, n + 1)] for a in "hijk"}
    basis = groups["h"] + groups["i"] + groups["j"] + groups["k"] + ["I", "J", "K"]
    brackets: dict[tuple[str, str], dict[str, int]] = {}
    for q in range(1, n + 1):
        brackets[("i%d" % q, "h%d" % q)] = {"I": 1}
        brackets[("j%d" % q, "h%d" % q)] = {"J": 1}
        brackets[("k%d" % q, "h%d" % q)] = {"K": 1}
        brackets[("k%d" % q, "j%d" % q)] = {"I": 1}
        brackets[("i%d" % q, "k%d" % q)] = {"J": 1}
        brackets[("j%d" % q, "i%d" % q)] = {"K": 1}
    algebra = GradedLieAlgebra(
        "heisenberg_h:%d" % n,
        basis,
        [basis[: 4 * n], ["I", "J", "K"]],
        brackets,
    )
    designated = Subspace.from_labels(algebra, groups["h"])
    notes = (
        "hausdorff dimension follows the grading formula (4n+6 here); the "
        "topological dimension 4n+3 is a different invariant and the two are "
        "easy to conflate",
        "designated subspace: span(h1..hn)",
        _HOROSPHERE_NOTE,
    )
    return CatalogEntry("heisenberg_h:%d" % n, algebra, designated, notes)


# octonion imaginary units: [a_q, d_q] = A, plus the 21 same-index relations
_OCTONION_RELATIONS = (
    ("i", "f", "E"), ("k", "h", "E"), ("j", "g", "E"),
    ("e", "i", "F"), ("j", "h", "F"), ("g", "k", "F"),
    ("k", "f", "G"), ("e", "j", "G"), ("h", "i", "G"),
    ("i", "g", "H"), ("f", "j", "H"), ("e", "k", "H"),
    ("g", "h", "I"), ("f", "e", "I"), ("k", "j", "I"),
    ("h", "f", "J"), ("g", "e", "J"), ("i", "k", "J"),
    ("f", "g", "K"), ("e", "h", "K"), ("j", "i", "K"),
)


def heisenberg_o(n: int) -> CatalogEntry:
    """Octonionic Heisenberg algebra: dimension 8n+7, layers (8n, 7)."""
    if n < 1:
        raise InputError("heisenberg_o needs n >= 1")
    letters = "defghijk"
    groups = {a: ["%s%d" % (a, q) for q in range(1, n + 1)] for a in letters}
    basis = [label for a in letters for label in groups[a]]
    centre = ["E", "F", "G", "H", "I", "J", "K"]
    brackets: dict[tuple[str, str], dict[str, int]] = {}
    for q in range(1, n + 1):
        for a, cap in zip("efghijk", centre):
            brackets[("%s%d" % (a, q), "d%d" % q)] = {cap: 1}
        for a, b, cap in _OCTONION_RELATIONS:
            brackets[("%s%d" % (a, q), "%s%d" % (b, q))] = {cap: 1}
    algebra = GradedLieAlgebra(
        "heisenberg_o:%d" % n,
        basis + centre,
        [basis, centre],
        brackets,
    )
    designated = Subspace.from_labels(algebra, groups["d"])
    notes = (
        "hausdorff dimension follows the grading formula (8n+14 here); the "
        "topological dimension 8n+7 is a different invariant",
        "designated subspace: span(d1..dn)",
        _HOROSPHERE_NOTE,
    )
    return CatalogEntry("heisenberg_o:%d" % n, algebra, designated, notes)


def unipotent(n: int) -> CatalogEntry:
    """Strictly upper triangular n x n matrices, graded by superdiagonal.

    Labels are Euv for the elementary matrix with a 1 in row u, column v;
    layer s collects the s-th superdiagonal, so the first layer has
    dimension n-1 (not n: the diagonal itself is absent).
    """
    if not 3 <= n <= 9:
        raise InputError("unipotent needs 3 <= n <= 9 (labels are digit pairs)")
    basis = []
    layers = []
    for s in range(1, n):
        layer = ["E%d%d" % (u, u + s) for u in range(1, n - s + 1)]
        basis.extend(layer)
        layers.append(layer)
    brackets: dict[tuple[str, str], dict[str, int]] = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                brackets[("E%d%d" % (a, b), "E%d%d" % (b, c))] = {"E%d%d" % (a, c): 1}
    algebra = GradedLieAlgebra("unipotent:%d" % n, basis, layers, brackets)
    designated = Subspace.from_labels(
        algebra, ["E%d%d" % (2 * q - 1, 2 * q) for q in range(1, n // 2 + 1)]
    )
    notes = (
        "first layer is the first superdiagonal and has dimension n-1",
        "designated subspace: span(E12, E34, ...), pairwise commuting "
        "elementary matrices",
    )
    return CatalogEntry("unipotent:%d" % n, algebra, designated, notes)


def abelian(n: int) -> CatalogEntry:
    """Abelian algebra of dimension n; a single layer and no brackets."""
    if n < 1:
        raise InputError("abelian needs n >= 1")
    basis = ["x%d" % q for q in range(1, n + 1)]
    algebra = GradedLieAlgebra("abelian:%d" % n, basis, [basis], {})
    designated = Subspace.from_labels(algebra, basis)
    notes = ("designated subspace: the whole space",)
    return CatalogEntry("abelian:%d" % n, algebra, designated, notes)


BUILDERS = {
    "heisenberg_c": heisenberg_c,
    "heisenberg_h": heisenberg_h,
    "heisenberg_o": heisenberg_o,
    "unipotent": unipotent,
    "abelian": abelian,
}


def build(key: str) -> CatalogEntry:
    """Build an entry from an id such as ``heisenberg_h:2``."""
    family, sep, param = key.partition(":")
    if not sep or family not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise InputError("unknown catalog id %r (families: %s)" % (key, known))
    if not re.fullmatch(r"-?(0|[1-9][0-9]*)", param):
        raise InputError("catalog parameter must be an integer: %r" % key)
    return BUILDERS[family](int(param))


def default_entries() -> list[CatalogEntry]:
    """The standard verification set: all families at small sizes."""
    entries = []
    for n in (1, 2, 3):
        entries.append(heisenberg_c(n))
        entries.append(heisenberg_h(n))
        entries.append(heisenberg_o(n))
    for n in range(3, 7):
        entries.append(unipotent(n))
    for n in range(1, 9):
        entries.append(abelian(n))
    return entries


# -- JSON schema ----------------------------------------------------------


def algebra_to_dict(algebra: GradedLieAlgebra) -> dict:
    brackets = []
    for u, v, entry in algebra.structure_pairs():
        result = [
            {"basis": algebra.basis[w], "coeff": str(c)}
            for w, c in sorted(entry.items())
        ]
        brackets.append(
            {"left": algebra.basis[u], "right": algebra.basis[v], "result": result}
        )
    return {
        "name": algebra.name,
        "basis": list(algebra.basis),
        "layers": [[algebra.basis[i] for i in layer] for layer in algebra.layers],
        "brackets": brackets,
    }


def algebra_from_dict(data: dict) -> GradedLieAlgebra:
    """Read ``algebra_to_dict``'s layout back.  Coefficients must be JSON
    strings; the name, basis, layers and labels are checked by the
    ``GradedLieAlgebra`` constructor.  A pair listed twice in one
    orientation is rejected here, since the dict of pairs would merge it."""
    pairs: dict[tuple[str, str], dict[str, Fraction]] = {}
    try:
        for item in data["brackets"]:
            pair = (item["left"], item["right"])
            if pair in pairs:
                raise InputError("bracket pair (%s, %s) listed twice" % pair)
            entry = pairs[pair] = {}
            for term in item["result"]:
                label = term["basis"]
                entry[label] = entry.get(label, 0) + parse_coefficient(term["coeff"])
        name, basis, layers = data["name"], data["basis"], data["layers"]
    # a list where a label goes does not hash, and a string or a number
    # where an object goes cannot be indexed by a key
    except (KeyError, TypeError) as exc:
        raise InputError(
            "algebra JSON needs name, basis, layers and brackets of "
            "{left, right, result: [{basis, coeff}]}"
        ) from exc
    return GradedLieAlgebra(name, basis, layers, pairs)


def save_algebra(entry_or_algebra, path) -> None:
    algebra = (
        entry_or_algebra.algebra
        if isinstance(entry_or_algebra, CatalogEntry)
        else entry_or_algebra
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=2)
        fh.write("\n")


def read_json(path):
    """The JSON document in the file at ``path``.  Bytes that are not UTF-8,
    text that is not JSON, an integer past the interpreter's digit limit
    and nesting too deep for the parser raise InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise InputError("not valid JSON: %s" % exc) from exc


def load_algebra(path) -> GradedLieAlgebra:
    return algebra_from_dict(read_json(path))


def entry_summary(entry: CatalogEntry) -> dict:
    algebra = entry.algebra
    designated = None
    if entry.designated_subspace is not None:
        designated = list(entry.designated_subspace.coordinate_labels() or ())
    return {
        "key": entry.key,
        "dimension": algebra.dimension,
        "layer_dimensions": [len(layer) for layer in algebra.layers],
        "hausdorff_dimension": hausdorff_dimension(algebra),
        "designated_subspace": designated,
        "notes": list(entry.notes),
    }
