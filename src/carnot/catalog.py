"""Built-in algebra families and JSON serialisation.

Families: Heisenberg groups over the complex, quaternion and octonion
algebras, strictly upper triangular matrices, and abelian space.  Each
entry carries the algebra, an optional designated horizontal subspace used
by the certification examples, and free-form notes.  A family gives the
labels apart from its brackets, integer entries on basis positions, so it
formats no label for a bracket, and the catalog listing makes no bracket.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import re
from collections.abc import Callable, Iterable
from fractions import Fraction

from .algebra import GradedLieAlgebra, Subspace, require_budget
from .linalg import InputError, parse_coefficient, require_kind

# an entry: its id, the algebra, the designated Subspace or None, the notes
CatalogEntry = collections.namedtuple(
    "CatalogEntry", "key algebra designated_subspace notes", defaults=(None, ())
)

# an entry without its brackets: the layers, whose concatenation is the
# basis, the designated labels in basis order or None, the notes
_Layout = collections.namedtuple("_Layout", "key layers designated notes")


_FAMILIES: dict[str, Callable] = {}


def _family(layout: Callable[[int], tuple[_Layout, Iterable[tuple]]]):
    """Register a family by its function of n, which returns the layout and
    a lazy iterable of its positional entries (u, v, w, a), [b_u, b_v]
    having the component a b_w; return the function that builds its entries."""
    _FAMILIES[layout.__name__] = layout

    def family(n: int) -> CatalogEntry:
        if type(n) is not int:
            raise InputError("%s needs an int n" % layout.__name__)
        return _entry(*layout(n))

    return functools.wraps(layout)(family)


def _entry(layout: _Layout, entries: Iterable[tuple]) -> CatalogEntry:
    basis = [label for layer in layout.layers for label in layer]
    positions = iter(range(len(basis)))
    layers = [tuple(itertools.islice(positions, len(layer))) for layer in layout.layers]
    algebra = GradedLieAlgebra._from_table(layout.key, basis, layers, entries)
    labels = layout.designated
    designated = None if labels is None else Subspace.from_labels(algebra, labels)
    return CatalogEntry(layout.key, algebra, designated, layout.notes)


_HOROSPHERE_NOTE = (
    "boundary geometry: this group is a horosphere in a negatively curved "
    "rank-one symmetric space, so low-dimensional filling equivalences "
    "transfer to higher Dehn functions of non-uniform lattices acting there"
)


def _require(family: str, n: int, dimension: int) -> None:
    """A family's checks of n, made before it makes a label: n >= 1 and
    its dimension within the budget."""
    if n < 1:
        raise InputError("%s needs n >= 1" % family)
    require_budget(dimension)


def _heisenberg(family: str, n: int, letters: str, centre: str, table, notes):
    """The layout of a Heisenberg family, layers a_q (a in ``letters``, q =
    1..n) and ``centre``, designated span(a_1..a_n) for the first letter a,
    and its entries [a_q, b_q] = c for q = 1..n and each row (a, b, c) of
    ``table`` in turn, a_q at position k n + q - 1 for the k-th letter."""
    _require(family, n, len(letters) * n + len(centre))
    first = ["%s%d" % (a, q) for a in letters for q in range(1, n + 1)]
    at = {a: k * n for k, a in enumerate(letters)}
    rows = [(at[a], at[b], len(first) + centre.index(c)) for a, b, c in table]
    notes = (*notes, _HOROSPHERE_NOTE)
    layout = _Layout("%s:%d" % (family, n), (first, list(centre)), first[:n], notes)
    return layout, ((a + q, b + q, c, 1) for q in range(n) for a, b, c in rows)


@_family
def heisenberg_c(n: int):
    """Complex Heisenberg algebra: dimension 2n+1, layers (2n, 1)."""
    notes = (
        "no designated horizontal subspace is shipped; span(j1..jn) is one "
        "valid choice and the certification tools accept any",
    )
    layout, entries = _heisenberg("heisenberg_c", n, "jk", "K", [("k", "j", "K")], notes)
    return layout._replace(designated=None), entries


@_family
def heisenberg_h(n: int):
    """Quaternionic Heisenberg algebra: dimension 4n+3, layers (4n, 3)."""
    notes = (
        "hausdorff dimension follows the grading formula (4n+6 here); the "
        "topological dimension 4n+3 is a different invariant and the two are "
        "easy to conflate",
        "designated subspace: span(h1..hn)",
    )
    return _heisenberg("heisenberg_h", n, "hijk", "IJK", [
        ("i", "h", "I"), ("j", "h", "J"), ("k", "h", "K"),
        ("k", "j", "I"), ("i", "k", "J"), ("j", "i", "K"),
    ], notes)


# octonion imaginary units: [a_q, d_q] = A, then the 21 same-index relations
_OCTONIONS = (
    *((a, "d", cap) for a, cap in zip("efghijk", "EFGHIJK")),
    ("i", "f", "E"), ("k", "h", "E"), ("j", "g", "E"),
    ("e", "i", "F"), ("j", "h", "F"), ("g", "k", "F"),
    ("k", "f", "G"), ("e", "j", "G"), ("h", "i", "G"),
    ("i", "g", "H"), ("f", "j", "H"), ("e", "k", "H"),
    ("g", "h", "I"), ("f", "e", "I"), ("k", "j", "I"),
    ("h", "f", "J"), ("g", "e", "J"), ("i", "k", "J"),
    ("f", "g", "K"), ("e", "h", "K"), ("j", "i", "K"),
)


@_family
def heisenberg_o(n: int):
    """Octonionic Heisenberg algebra: dimension 8n+7, layers (8n, 7)."""
    notes = (
        "hausdorff dimension follows the grading formula (8n+14 here); the "
        "topological dimension 8n+7 is a different invariant",
        "designated subspace: span(d1..dn)",
    )
    return _heisenberg("heisenberg_o", n, "defghijk", "EFGHIJK", _OCTONIONS, notes)


@_family
def unipotent(n: int):
    """Strictly upper triangular n x n matrices, graded by superdiagonal.

    Labels are Euv for the elementary matrix with a 1 in row u, column v;
    layer s collects the s-th superdiagonal, so the first layer has
    dimension n-1 (not n: the diagonal itself is absent).
    """
    if not 3 <= n <= 9:
        raise InputError("unipotent needs 3 <= n <= 9 (labels are digit pairs)")
    layers = tuple(
        ["E%d%d" % (u, u + s) for u in range(1, n - s + 1)] for s in range(1, n)
    )
    # E_ab is at start[b - a] + a: layer s follows n - 1, ..., n - s + 1 labels
    start = [0, *itertools.accumulate(range(n - 1, 0, -1), initial=-1)]
    designated = ["E%d%d" % (2 * q - 1, 2 * q) for q in range(1, n // 2 + 1)]
    notes = (
        "first layer is the first superdiagonal and has dimension n-1",
        "designated subspace: span(E12, E34, ...), pairwise commuting "
        "elementary matrices",
    )
    return _Layout("unipotent:%d" % n, layers, designated, notes), (
        (start[b - a] + a, start[c - b] + b, start[c - a] + a, 1)
        for a, b, c in itertools.combinations(range(1, n + 1), 3)
    )


@_family
def abelian(n: int):
    """Abelian algebra of dimension n; a single layer and no brackets."""
    _require("abelian", n, n)
    basis = ["x%d" % q for q in range(1, n + 1)]
    notes = ("designated subspace: the whole space",)
    return _Layout("abelian:%d" % n, (basis,), basis, notes), ()


def build(key: str) -> CatalogEntry:
    """Build an entry from an id such as ``heisenberg_h:2``."""
    if not isinstance(key, str):
        raise InputError("a catalog id must be a string, got %r" % (key,))
    family, sep, param = key.partition(":")
    if not sep or family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InputError("unknown catalog id %r (families: %s)" % (key, known))
    if not re.fullmatch(r"-?(0|[1-9][0-9]*)", param):
        raise InputError("catalog parameter must be an integer: %r" % key)
    # int() refuses digits past the interpreter's limit, so a parameter of 20
    # or more characters is read as +-2^64; every family's dimension is at
    # least n, so that is below 1 or over the budget, as the number itself is
    n = int(param) if len(param) < 20 else (-1 if param[0] == "-" else 1) << 64
    return _entry(*_FAMILIES[family](n))


_HEISENBERG = ("heisenberg_c", "heisenberg_h", "heisenberg_o")
_DEFAULTS = (
    *((family, n) for n in (1, 2, 3) for family in _HEISENBERG),
    *(("unipotent", n) for n in range(3, 7)),
    *(("abelian", n) for n in range(1, 9)),
)


def default_entries() -> list[CatalogEntry]:
    """The standard verification set: all families at small sizes."""
    return [_entry(*_FAMILIES[f](n)) for f, n in _DEFAULTS]


def default_summaries() -> list[dict]:
    """``entry_summary`` of each of ``default_entries``, from the layouts
    alone: no bracket is made and no algebra built."""
    layouts = (_FAMILIES[f](n)[0] for f, n in _DEFAULTS)
    return [_summary(l.key, l.layers, l.designated, l.notes) for l in layouts]


# -- JSON schema ----------------------------------------------------------


def algebra_to_dict(algebra: GradedLieAlgebra) -> dict:
    d = require_kind(algebra, GradedLieAlgebra, "algebra JSON").denominator
    brackets = []
    for u, row in enumerate(algebra.adjacency):
        for v in sorted(v for v in row if u < v):
            result = [
                {"basis": algebra.basis[w], "coeff": str(Fraction(a, d))}
                for w, a in sorted(row[v].items())
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
    entry = entry_or_algebra
    doc = algebra_to_dict(entry.algebra if isinstance(entry, CatalogEntry) else entry)
    with _open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _open(path, mode: str = "r"):
    """``open`` of a str, bytes or os.PathLike path, never of a descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InputError("a file path must be a str, bytes or os.PathLike")
    return open(path, mode, encoding="utf-8")


def read_json(path):
    """The JSON document in the file at ``path``.  Bytes that are not UTF-8,
    text that is not JSON, an integer past the interpreter's digit limit
    and nesting too deep for the parser raise InputError."""
    with _open(path) as fh:
        try:
            return json.load(fh)
        # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        except (ValueError, RecursionError) as exc:
            raise InputError("not valid JSON: %s" % exc) from exc


def load_algebra(path) -> GradedLieAlgebra:
    return algebra_from_dict(read_json(path))


def entry_summary(entry: CatalogEntry) -> dict:
    subspace = require_kind(entry, CatalogEntry, "an entry summary").designated_subspace
    designated = None if subspace is None else subspace.coordinate_labels() or ()
    return _summary(entry.key, entry.algebra.layers, designated, entry.notes)


def _summary(key: str, layers, designated, notes) -> dict:
    sizes = [len(layer) for layer in layers]
    return {
        "key": key,
        "dimension": sum(sizes),
        "layer_dimensions": sizes,
        "hausdorff_dimension": sum(d * k for d, k in enumerate(sizes, start=1)),
        "designated_subspace": None if designated is None else list(designated),
        "notes": list(notes),
    }
