"""Invariance under a graded transport: the same algebra written in a
random rational layer-adapted basis must get the same verdicts."""

import random
from fractions import Fraction

import pytest

from carnot import (
    GradedLieAlgebra,
    HypothesisBundle,
    Subspace,
    build,
    build_scalable_lattice,
    check_group_closure,
    check_scaling_closure,
    coverage_table,
    default_entries,
    hausdorff_dimension,
    is_isotropic,
    is_regular,
    jacobi_check,
    pittet_kernel,
    stratification_check,
)
from helpers import (
    graded_transport,
    label_table,
    naive_group_closure,
    naive_scaling_closure,
)

TRANSPORT_KEYS = [
    "heisenberg_h:1",
    "heisenberg_h:2",
    "heisenberg_h:3",
    "heisenberg_o:1",
    "heisenberg_c:2",
]


def transport(entry, seed):
    """The entry's algebra in a seeded random layer-adapted basis, and the
    map of an old-basis ``{label: coeff}`` vector to new coordinates."""
    algebra = entry.algebra
    label = algebra.basis
    layers = [[label[i] for i in layer] for layer in algebra.layers]
    rng = random.Random("%s/%d" % (entry.key, seed))
    moved, to_new = graded_transport(label_table(algebra), layers, rng)
    return GradedLieAlgebra(entry.key, label, layers, moved), to_new


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("key", TRANSPORT_KEYS)
def test_verdicts_survive_a_graded_transport(key, seed):
    entry = build(key)
    algebra = entry.algebra
    label = algebra.basis
    # heisenberg_c has no designated subspace; span(j1..jn) is a valid one
    subspace = entry.designated_subspace or Subspace.from_labels(
        algebra, [b for b in label if b.startswith("j")]
    )
    iso, reg = is_isotropic(subspace), is_regular(subspace)
    kernel = pittet_kernel(algebra).kernel_dimension
    image, to_new = transport(entry, seed)
    assert image.adjacency != algebra.adjacency
    assert jacobi_check(image).ok and jacobi_check(algebra).ok
    assert stratification_check(image).ok and stratification_check(algebra).ok
    assert pittet_kernel(image).kernel_dimension == kernel
    rows = []
    for w, s in subspace.integer_rows:
        coords = to_new({label[i]: Fraction(a, s) for i, a in w.items()})
        rows.append([coords.get(b, 0) for b in label])
    mapped = Subspace(image, rows)
    assert mapped.dim == subspace.dim
    assert is_isotropic(mapped).isotropic == iso.isotropic
    moved_reg = is_regular(mapped)
    assert (moved_reg.regular, moved_reg.rank) == (reg.regular, reg.rank)
    assert hausdorff_dimension(image) == hausdorff_dimension(algebra)
    # the predict rows: the same coverage table for the mapped subspace
    table = coverage_table(HypothesisBundle(subspace))
    moved_table = coverage_table(HypothesisBundle(mapped))
    assert moved_table.filling == table.filling
    assert moved_table.divergence == table.divergence
    assert moved_table.notes == table.notes


_O2_DIMENSION = build("heisenberg_o:2").algebra.dimension
LATTICE_KEYS = [
    e.key
    for e in default_entries()
    if e.algebra.declared_degree <= 2 and e.algebra.dimension <= _O2_DIMENSION
]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("key", LATTICE_KEYS)
def test_lattice_closures_survive_a_graded_transport(key, seed):
    # the halved brackets of a transport have rational coordinates, so the
    # second-layer generators are their integer span, not a rational basis
    image, _ = transport(build(key), seed)
    spec = build_scalable_lattice(image)
    group, scaling = check_group_closure(spec), check_scaling_closure(spec)
    assert group.ok, group.detail
    assert scaling.ok, scaling.detail
    if image.dimension <= 12:
        assert naive_group_closure(spec) == (True, "")
        assert naive_scaling_closure(spec) == (True, "")
