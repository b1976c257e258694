"""Command-line front end.

``main`` runs one pipeline for every subcommand: it loads the source, gates
it (except under ``check``, which reports validity instead), resolves the
subspace when the subcommand takes one, calls the subcommand and writes its
report, under the source's key, as text or one JSON document.  Each
subcommand only computes: it returns its exit code, a payload builder and
lazy text lines.  Exit codes: 0 success, 1 a computed check or
certification failed (the report is still emitted), 2 malformed input or
usage.  Output is deterministic; --threads is accepted for interface
stability but does not change anything.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import catalog as _catalog
from .algebra import Subspace, hausdorff_dimension
from .catalog import CatalogEntry
from .curvature import trichotomy_report
from .forms import (
    differential,
    form_from_dict,
    form_to_dict,
    pittet_kernel,
    scaling_weight,
)
from .group import build_scalable_lattice, check_group_closure, check_scaling_closure
from .horizontal import is_isotropic, is_regular
from .linalg import InputError, parse_coefficient
from .predictor import HypothesisBundle, coverage_table


def _load_entry(source: str) -> CatalogEntry:
    if os.path.exists(source):
        algebra = _catalog.load_algebra(source)
        return CatalogEntry(source, algebra, None, ())
    if ":" in source:
        return _catalog.build(source)
    raise InputError(
        "source %r is neither an existing file nor a catalog id like "
        "'heisenberg_h:2'" % source
    )


def _resolve_subspace(entry: CatalogEntry, args) -> Subspace:
    if args.subspace is not None and args.subspace_file is not None:
        raise InputError("give --subspace or --subspace-file, not both")
    if args.subspace is not None:
        labels = [part.strip() for part in args.subspace.split(",") if part.strip()]
        if not labels:
            raise InputError("--subspace needs at least one label")
        repeated = next((l for i, l in enumerate(labels) if l in labels[:i]), None)
        if repeated is not None:
            raise InputError("--subspace lists %r twice" % repeated)
        return Subspace.from_labels(entry.algebra, labels)
    if args.subspace_file is not None:
        data = _catalog.read_json(args.subspace_file)
        rows = data.get("rows") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError('subspace file needs {"rows": [...]} of JSON lists')
        s = Subspace(entry.algebra, [list(map(parse_coefficient, r)) for r in rows])
        if s.dim == 0:
            raise InputError("subspace rows span the zero subspace")
        return s
    if entry.designated_subspace is not None:
        return entry.designated_subspace
    raise InputError(
        "no subspace given and the source carries no designated one; "
        "pass --subspace or --subspace-file"
    )


def _exponent_text(base: str, e: Fraction) -> str:
    text = str(e)
    if "/" in text or "-" in text:
        return "%s^(%s)" % (base, text)
    return "%s^%s" % (base, text)


_REL_SYMBOL = {
    "equivalent": "~",
    "at_most": "<=",
    "at_least": ">=",
    "strictly_above": ">",
}


def _render(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for trees of str, int, bool,
    None, list, tuple and str-keyed dict, with a ``Fraction`` written as its
    quoted ``str``, else TypeError; no call per str, int or Fraction."""
    inner = indent + "  "
    if isinstance(doc, dict):
        ends, parts = "{}", [_quote(k) + ": " + (
            _quote(v) if type(v) is str else repr(v) if type(v) is int
            else '"%s"' % v if type(v) is Fraction
            else _render(v, inner)) for k, v in sorted(doc.items())]
    elif isinstance(doc, (list, tuple)):
        ends, parts = "[]", [
            _quote(v) if type(v) is str else repr(v) if type(v) is int
            else '"%s"' % v if type(v) is Fraction
            else _render(v, inner) for v in doc]
    elif doc is None or isinstance(doc, bool):
        return {None: "null", True: "true", False: "false"}[doc]
    elif isinstance(doc, (str, int)):
        return _quote(doc) if isinstance(doc, str) else int.__repr__(doc)
    elif isinstance(doc, Fraction):
        return _quote(str(doc))
    else:
        raise TypeError("%s is not rendered as JSON" % type(doc).__name__)
    body = ("," + inner).join(parts)
    return ends[0] + inner + body + indent + ends[1] if parts else ends


def _json_row(w: dict[int, int], n: int, s: int) -> list[str]:
    """The sparse integer row w / s over n columns as ``_render`` strings."""
    row = ["0"] * n
    for j, e in w.items():
        row[j] = str(Fraction(e, s))
    return row


def _emit(args, payload: Callable[[], dict], lines: Iterable[str]) -> None:
    """Print ``_render(payload())`` under --json, else iterate and print
    ``lines``, so that only the printed form is built.  Every subcommand
    computes its results first; these two builders only format them.
    Results are exact at any size, so the interpreter's limit on the digits
    of an int turned into text (from Python 3.10.7 on) is lifted while either
    prints; input parsing keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(_render(payload()))
        else:
            for line in lines:
                print(line)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _subspace_name(s: Subspace) -> str:
    labels = s.coordinate_labels()
    if labels is not None:
        return "span(%s)" % ", ".join(labels)
    return "%d-dimensional subspace" % s.dim


# -- subcommands -----------------------------------------------------------
# Each cmd_* but cmd_catalog takes (args, entry) or, under --subspace, (args,
# entry, s) and returns (exit code, payload builder, lazy lines) to ``main``.


def cmd_catalog(args) -> int:
    summaries = _catalog.default_summaries()

    def lines():
        for summary in summaries:
            designated = summary["designated_subspace"]
            yield "%-16s dim=%-3d layers=%s hausdorff=%d subspace=%s" % (
                summary["key"],
                summary["dimension"],
                ",".join(str(d) for d in summary["layer_dimensions"]),
                summary["hausdorff_dimension"],
                ",".join(designated) if designated else "-",
            )

    _emit(args, lambda: {"entries": summaries}, lines())
    return 0


def cmd_check(args, entry: CatalogEntry) -> tuple:
    algebra = entry.algebra
    jacobi, strat = algebra.validity()
    hausdorff = hausdorff_dimension(algebra)

    def payload():
        return {
            "dimension": algebra.dimension,
            "degree": algebra.declared_degree,
            "hausdorff_dimension": hausdorff,
            "weights": algebra.weights,
            "jacobi": {"ok": jacobi.ok, "detail": jacobi.detail},
            "stratification": {"ok": strat.ok, "detail": strat.detail},
        }

    def lines():
        yield "dimension: %d (degree %d)" % (algebra.dimension, algebra.declared_degree)
        yield "hausdorff dimension: %d" % hausdorff
        yield "jacobi: %s (%s)" % ("ok" if jacobi.ok else "FAIL", jacobi.detail)
        yield "stratification: %s (%s)" % ("ok" if strat.ok else "FAIL", strat.detail)

    return 0 if jacobi.ok and strat.ok else 1, payload, lines()


def cmd_certify(args, entry: CatalogEntry, s: Subspace) -> tuple:
    iso = is_isotropic(s)
    reg = is_regular(s)

    def payload():
        return {
            "subspace": _subspace_name(s),
            "isotropic": iso.isotropic,
            "regular": reg.regular,
            "rank": reg.rank,
            "required_rank": reg.required_rank,
            "witness": iso.witness,
        }

    def lines():
        yield "subspace: %s (dim %d)" % (_subspace_name(s), s.dim)
        yield "isotropic: %s" % ("yes" if iso.isotropic else "no")
        if iso.witness is not None:
            yield "  witness pair: %s | %s" % tuple(
                map(entry.algebra.describe, iso.witness)
            )
        yield "regular: %s (rank %d of %d)" % (
            "yes" if reg.regular else "no", reg.rank, reg.required_rank
        )
        yield "certified: %s" % ("yes" if iso.isotropic and reg.regular else "no")

    return 0 if iso.isotropic and reg.regular else 1, payload, lines()


def cmd_predict(args, entry: CatalogEntry, s: Subspace) -> tuple:
    lattice = {"auto": None, "yes": True, "no": False}[args.lattice]
    k1 = None
    if args.max_isotropic is not None:
        if args.max_isotropic < 1:
            raise InputError("--max-isotropic must be a positive dimension")
        k1 = args.max_isotropic - 1
    bundle = HypothesisBundle(s, lattice, k1)
    table = coverage_table(bundle)

    def row_dict(row):
        return {
            "m": row.m,
            "status": row.status,
            "bounds": [b.as_dict() for b in row.bounds],
        }

    def payload():
        return {
            "subspace": _subspace_name(s),
            "filling": [row_dict(r) for r in table.filling],
            "divergence": [row_dict(r) for r in table.divergence],
            "notes": table.notes,
        }

    def row_lines(rows, name, base):
        yield "%s:" % name
        for row in rows:
            if not row.bounds:
                yield "  %s^%d: unknown" % (row.target, row.m)
                continue
            parts = [
                "%s %s [%s]"
                % (_REL_SYMBOL[b.relation], _exponent_text(base, b.exponent), b.source)
                for b in row.bounds
            ]
            flag = "  CONFLICT" if row.conflict else ""
            yield "  %s^%d: %s%s" % (row.target, row.m, "; ".join(parts), flag)

    def lines():
        yield "subspace: %s" % _subspace_name(s)
        yield from row_lines(table.filling, "filling functions", "l")
        yield from row_lines(table.divergence, "divergence", "r")
        yield "notes:"
        yield from ("  - %s" % note for note in table.notes)

    conflict = any(r.conflict for r in table.filling + table.divergence)
    return 1 if conflict else 0, payload, lines()


def cmd_curvature(args, entry: CatalogEntry, s: Subspace) -> tuple:
    report = trichotomy_report(s, maximal_asserted=args.assert_maximal)
    items = {
        "flat_inside": "flat inside subspace",
        "negative_toward_horizontal": "negative toward horizontal",
        "positive_toward_vertical": "positive toward vertical",
    }

    def payload():
        return {
            "subspace": _subspace_name(s),
            "ordered_basis": report.ordered_basis,
            "planes": report.planes,
            **{key: getattr(report, key)._asdict() for key in items},
        }

    def lines():
        yield "subspace: %s" % _subspace_name(s)
        yield "ordered basis: %s" % ", ".join(report.ordered_basis)
        for key, name in items.items():
            item = getattr(report, key)
            verdict = {None: "not evaluated", True: "holds", False: "FAILS"}[item.holds]
            yield "%s: %s (%s)" % (name, verdict, item.detail)

    code = 1 if any(getattr(report, key).holds is False for key in items) else 0
    return code, payload, lines()


def cmd_pittet(args, entry: CatalogEntry) -> tuple:
    report = pittet_kernel(entry.algebra)

    def payload():
        return {
            "pairs": report.pairs,
            "kernel_dimension": report.kernel_dimension,
            "kernel_basis": [
                _json_row(w, len(report.pairs), s) for w, s in report.kernel_basis
            ],
        }

    def lines():
        yield "generating pairs: %d" % len(report.pairs)
        yield "kernel dimension: %d" % report.kernel_dimension
        for w, s in report.kernel_basis:
            combo = " + ".join(
                "%s*(%s^%s)" % (Fraction(e, s), *report.pairs[j]) for j, e in w.items()
            )
            yield "  closed: %s" % combo

    return 0, payload, lines()


def cmd_lattice(args, entry: CatalogEntry) -> tuple:
    spec = build_scalable_lattice(entry.algebra)
    rows = spec.integer_rows
    checks = {"group": check_group_closure(spec), "scaling": check_scaling_closure(spec)}

    def payload():
        return {
            "generators": [_json_row(w, len(rows), s) for w, s in rows],
            "detail": {name: check.detail for name, check in checks.items()},
            **{"%s_closed" % name: check.ok for name, check in checks.items()},
        }

    def lines():
        yield "generators:"
        yield from ("  %s" % entry.algebra.describe_pair(w, s) for w, s in rows)
        for name, check in checks.items():
            yield "%s closure: %s (%s)" % (name, "ok" if check else "FAIL", check.detail)

    return 0 if all(checks.values()) else 1, payload, lines()


def cmd_forms_d(args, entry: CatalogEntry) -> tuple:
    form = form_from_dict(entry.algebra, _catalog.read_json(args.form))
    if form.is_zero():
        raise InputError("the input form is zero")
    d = differential(form)
    weight = scaling_weight(form)

    def payload():
        return {
            "input": form_to_dict(form),
            "differential": form_to_dict(d),
            "closed": d.is_zero(),
            "scaling_weight": weight.uniform,
            "scaling_weight_by_monomial": weight.by_monomial,
        }

    def lines():
        yield "input: %r" % form
        yield "differential: %r" % d
        yield "closed: %s" % ("yes" if d.is_zero() else "no")
        yield "scaling weight: %s" % (
            weight.uniform if weight.uniform is not None else "mixed"
        )

    return 0, payload, lines()


# -- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged and every option default is immutable, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact certification and growth predictions for stratified "
        "nilpotent Lie algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability; output never depends on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", parents=[common], help="list built-in algebras")

    def with_source(name: str, func, help_text: str, subspace: bool = False):
        q = sub.add_parser(name, parents=[common], help=help_text)
        q.set_defaults(func=func)
        q.add_argument("source", help="catalog id (family:n) or JSON file path")
        if subspace:
            q.add_argument("--subspace", help="comma-separated basis labels, e.g. h1,h2")
            q.add_argument(
                "--subspace-file",
                help='JSON file {"rows": [["1","0",...], ...]} of rational rows',
            )
        return q

    with_source("check", cmd_check, "validate grading, Jacobi, stratification")
    with_source("certify", cmd_certify, "isotropy and regularity of a subspace", True)

    p = with_source("predict", cmd_predict, "growth-exponent coverage table", True)
    p.add_argument(
        "--lattice",
        choices=("auto", "yes", "no"),
        default="auto",
        help="scalable-lattice hypothesis (auto: yes exactly for degree <= 2)",
    )
    p.add_argument(
        "--max-isotropic",
        type=int,
        default=None,
        help="assert this is the largest dimension of an isotropic horizontal "
        "subspace (enables the strict gap bound)",
    )

    p = with_source("curvature", cmd_curvature, "sectional curvature sign report", True)
    p.add_argument(
        "--assert-maximal",
        action="store_true",
        help="assert the subspace is a maximal isotropic one (enables the "
        "negative-curvature item)",
    )

    with_source("pittet", cmd_pittet, "closed 2-forms from (second, first) layer pairs")
    with_source("lattice", cmd_lattice, "build and check a scaled-in lattice (2-step)")
    p = with_source("forms-d", cmd_forms_d, "differential and scaling weight of a form")
    p.add_argument("form", help="JSON file with degree and terms")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run the subcommand's pipeline (module docstring)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        entry = _load_entry(args.source)
        if args.command != "check":
            entry.algebra.require_valid()
        s = (_resolve_subspace(entry, args),) if "subspace" in args else ()
        code, payload, lines = args.func(args, entry, *s)
        _emit(args, lambda: {"source": entry.key, **payload()},
              itertools.chain(["source: %s" % entry.key], lines))
        return code
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
