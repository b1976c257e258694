"""Outside-in tracing of carnot's public functions.

``Tracer.install`` replaces each function named in ``TARGETS`` with a
wrapper, in every ``carnot`` module namespace that bound it (so names that
``cli`` and ``predictor`` imported with ``from ... import`` are covered) and,
for methods, on the class.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` is changed.

A "span" target records one span per call: name, start, end, parent span
and invocation id, plus its self time (duration minus the time covered by
its child spans).  A "count" target only counts calls, for functions called
too often for a span each; its time stays in the caller's self time.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute path, metric prefix, kind)
TARGETS = (
    ("carnot.cli", "main", "cli.main", "span"),
    ("carnot.catalog", "build", "catalog.build", "span"),
    ("carnot.catalog", "load_algebra", "catalog.load_algebra", "span"),
    ("carnot.algebra", "jacobi_check", "algebra.jacobi_check", "span"),
    ("carnot.algebra", "stratification_check", "algebra.stratification_check", "span"),
    ("carnot.algebra", "lower_central_series", "algebra.lower_central_series", "span"),
    ("carnot.algebra", "GradedLieAlgebra.bracket", "algebra.bracket", "span"),
    ("carnot.algebra", "GradedLieAlgebra.bracket_basis", "algebra.bracket_basis", "count"),
    ("carnot.algebra", "Subspace.__init__", "algebra.subspace", "count"),
    ("carnot.horizontal", "regularity_matrix", "horizontal.regularity_matrix", "span"),
    ("carnot.horizontal", "is_regular", "horizontal.is_regular", "span"),
    ("carnot.horizontal", "is_isotropic", "horizontal.is_isotropic", "span"),
    ("carnot.predictor", "HypothesisBundle.__init__", "predictor.bundle", "span"),
    ("carnot.predictor", "coverage_table", "predictor.coverage_table", "span"),
    ("carnot.linalg", "rref", "linalg.rref", "span"),
    ("carnot.linalg", "solve", "linalg.solve", "count"),
    ("carnot.linalg", "nullspace", "linalg.nullspace", "span"),
    ("carnot.forms", "differential", "forms.differential", "span"),
    ("carnot.forms", "pittet_kernel", "forms.pittet_kernel", "span"),
    ("carnot.curvature", "sectional_curvature", "curvature.sectional_curvature", "span"),
    ("carnot.curvature", "trichotomy_report", "curvature.trichotomy_report", "span"),
    ("carnot.group", "LatticeSpec.membership", "group.membership", "span"),
    ("carnot.group", "check_group_closure", "group.check_group_closure", "span"),
    ("carnot.group", "build_scalable_lattice", "group.build_scalable_lattice", "span"),
)


def _cells(rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


def _max_bits(matrix) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for row in matrix for c in row),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start_ns, end_ns, parent, invocation, self_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self.facts: dict[str, int] = defaultdict(int)  # summed, or max for max_bits
        self.invocation = -1
        self._stack: list[list] = []  # [span index, child_ns]
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def call(args, kwargs):
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = [name, start, end, parent, self.invocation,
                                end - start - frame[1]]

        return call

    def _wrap(self, prefix: str, kind: str, fn):
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[prefix] += 1
                return fn(*args, **kwargs)
            return counted

        call = self._span(prefix, fn)
        facts = self.facts
        if prefix in ("linalg.rref", "linalg.nullspace"):
            def matrix_in(rows, *args, **kwargs):
                rows = list(rows)
                facts[prefix + ".cells"] += _cells(rows)
                out = call((rows,) + args, kwargs)
                if prefix == "linalg.rref":
                    key = prefix + ".max_bits"
                    facts[key] = max(facts[key], _max_bits(out))
                return out
            return matrix_in
        if prefix == "horizontal.regularity_matrix":
            def matrix_out(*args, **kwargs):
                out = call(args, kwargs)
                facts[prefix + ".cells"] += _cells(out)
                return out
            return matrix_out
        if prefix == "group.membership":
            def membership(*args, **kwargs):
                out = call(args, kwargs)
                facts[prefix + ".hits"] += out is not None
                return out
            return membership
        return lambda *args, **kwargs: call(args, kwargs)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "carnot" or n.startswith("carnot.")]
        for module_name, path, prefix, kind in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, kind, original)
            if outer:  # a method: rebind it on its class
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> tuple[int, dict, dict]:
        return len(self.spans), dict(self.counts), dict(self.facts)

    def totals(self, since: tuple[int, dict, dict]) -> dict[str, float]:
        """Per-layer metrics accumulated after the ``since`` snapshot."""
        first, counts0, facts0 = since
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _inv, self_ns in self.spans[first:]:
            out[name + ".calls"] += 1
            out[name + ".s"] += (end - start) / 1e9
            out[name + ".self_s"] += self_ns / 1e9
        for name, n in self.counts.items():
            out[name + ".calls"] += n - counts0.get(name, 0)
        for name, n in self.facts.items():
            if name.endswith(".max_bits"):
                out[name] = n  # a running maximum, not a per-pass sum
            else:
                out[name] += n - facts0.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start_ns", "end_ns", "parent", "invocation", "self_ns"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
