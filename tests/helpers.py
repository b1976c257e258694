"""Independent reference implementations used as test oracles.

Nothing here imports the implementation routines it is meant to check:
the bracket and curvature oracles sum straight over the label-keyed input
table, the elimination oracle is a dense Gauss-Jordan loop on lists of
Fractions that does not use ``carnot.linalg``, the evaluation oracle is
Leibniz's sum over permutations, the differential oracle works from the
defining alternating sum and calls only the bracket and that sum, the
unipotent oracle multiplies actual matrices, and the lattice oracles
solve a fresh column system for every query, sweep all n^2 generator
products and dilate each generator coordinate by coordinate, on the dense
rows that ``dense_generators`` divides out of a spec's integer rows.
The graded transport rewrites a label-keyed table in a random layer-adapted
basis by the same dense Fraction sums, inverting its blocks with
``naive_inverse``.  The Hermite oracle folds dense integer rows together by
the extended gcd, one column at a time.  ``dense_kernel`` divides out a
pittet report's sparse integer kernel pairs entry by entry.  The catalog
oracle writes each family's layers, designated labels and bracket table out
by label, for the label constructor to read; ``label_table`` writes any
algebra's table out by label, each adjacency entry over the denominator.
The conflict oracle tries candidate exponents one at a time against every
growth bound.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from carnot.algebra import GradedLieAlgebra


def label_table(algebra):
    """The label-keyed table {(left, right): {label: Fraction}} of each
    nonzero bracket once, left before right in the basis, read from the
    integer adjacency over the denominator, in position order."""
    basis, d = algebra.basis, algebra.denominator
    return {
        (basis[u], basis[v]): {basis[w]: Fraction(a, d) for w, a in entry.items()}
        for u, row in enumerate(algebra.adjacency)
        for v, entry in sorted(row.items())
        if u < v
    }


def naive_bracket(table, basis, x, y) -> tuple:
    """[x, y] from a label-keyed table {(left, right): {label: coeff}}:
    the double sum over listed pairs and their result terms, with each pair
    contributing through both orientations."""
    position = {label: i for i, label in enumerate(basis)}
    out = [Fraction(0)] * len(basis)
    for (left, right), result in table.items():
        u, v = position[left], position[right]
        for label, c in result.items():
            out[position[label]] += (x[u] * y[v] - x[v] * y[u]) * Fraction(c)
    return tuple(out)


def naive_jacobi(table, basis):
    """First basis triple u < v < w, as labels, whose cyclic sum
    [[u, v], w] + [[v, w], u] + [[w, u], v] is nonzero, or None; every
    bracket is evaluated by ``naive_bracket``."""
    n = len(basis)

    def unit(i):
        return tuple(Fraction(int(j == i)) for j in range(n))

    def br(x, y):
        return naive_bracket(table, basis, x, y)

    for u, v, w in itertools.combinations(range(n), 3):
        x, y, z = unit(u), unit(v), unit(w)
        terms = (br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
        if any(sum(column) != 0 for column in zip(*terms)):
            return basis[u], basis[v], basis[w]
    return None


def random_table(rng, n):
    """Antisymmetric table on n labels: each listed pair in a random
    orientation, results sharing targets, zero coefficients allowed, no
    Jacobi identity."""
    basis = ["e%d" % i for i in range(n)]
    table = {}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            continue
        key = (basis[u], basis[v]) if rng.random() < 0.5 else (basis[v], basis[u])
        targets = rng.sample(range(n), rng.randint(1, min(3, n)))
        table[key] = {
            basis[w]: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for w in targets
        }
    return basis, table


def random_layered_table(rng, kind):
    """Labels shuffled into 1 to 4 layers of 1 to 3 labels.  ``graded``
    brackets a pair of layers s and t into random terms of layer s + t (a
    pair may be left out); ``nearly`` adds one term off the grading to such
    a table; ``ungraded`` is a ``random_table`` on the same labels."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    basis = ["e%d" % i for i in range(sum(sizes))]
    shuffled = rng.sample(basis, len(basis))
    layers = [shuffled[sum(sizes[:d]):sum(sizes[: d + 1])] for d in range(len(sizes))]
    if kind == "ungraded":
        return basis, layers, random_table(rng, len(basis))[1]
    weight = {label: d for d, layer in enumerate(layers, start=1) for label in layer}
    table = {}
    for left, right in itertools.combinations(basis, 2):
        target = weight[left] + weight[right]
        if target > len(layers) or rng.random() < 0.3:
            continue
        terms = rng.sample(layers[target - 1], rng.randint(1, len(layers[target - 1])))
        table[left, right] = {
            w: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for w in terms
        }
    if kind == "nearly" and len(basis) > 1:
        left, right = rng.sample(basis, 2)
        if (right, left) in table:
            left, right = right, left
        # layer 1 is never the target of a bracket
        table.setdefault((left, right), {})[rng.choice(layers[0])] = Fraction(1)
    return basis, layers, table


def coprime_table():
    """A valid 2-step table whose constants have the coprime denominators 7,
    11 and 13: [a, b] = z/7 + 2y/11 and [a, c] = 5z/13, so their common
    denominator is 1001.  Returns (basis, layers, table)."""
    basis = ["a", "b", "c", "y", "z"]
    table = {
        ("a", "b"): {"z": Fraction(1, 7), "y": Fraction(2, 11)},
        ("a", "c"): {"z": Fraction(5, 13)},
    }
    return basis, [["a", "b", "c"], ["y", "z"]], table


# tables that build but fail the validity gate, keyed by test id: (name,
# basis, layers, table, the detail of the first failing check)
NOT_STRATIFIED_CASES = {
    "ab-equals-a": (
        "ab-equals-a",
        ["a", "b"],
        [["a", "b"]],
        {("a", "b"): {"a": 1}},
        "bracket [a, b] has a layer-1 component a; grading requires layer 2",
    ),
    "rank-deficient": (
        "short",
        ["a", "b", "y", "z"],
        [["a", "b"], ["y", "z"]],
        {("a", "b"): {"z": 1}},
        "[V_1, V_1] spans a 1-dimensional space but layer 2 has dimension 2",
    ),
    "no-jacobi": (
        "no-jacobi",
        ["a", "b", "c"],
        [["a", "b", "c"]],
        {("a", "b"): {"c": 1}, ("a", "c"): {"b": 1}, ("b", "c"): {"c": 1}},
        "jacobi fails on (a, b, c)",
    ),
}

# and two 2-layer tables whose first-layer brackets span V2: [b, c] = b
# leaves V2 after [a, b] = z has spanned it, and [a, z] = y makes V2
# non-central
GATE_CASES = {
    **NOT_STRATIFIED_CASES,
    "late-leak": (
        "late-leak",
        ["a", "b", "c", "z"],
        [["a", "b", "c"], ["z"]],
        {("a", "b"): {"z": 1}, ("b", "c"): {"b": 1}},
        "jacobi fails on (a, b, c)",
    ),
    "noncentral": (
        "noncentral",
        ["a", "b", "c", "y", "z"],
        [["a", "b", "c"], ["y", "z"]],
        {("a", "b"): {"z": 1}, ("b", "c"): {"y": 1}, ("a", "z"): {"y": 1}},
        "bracket [a, z] has a layer-2 component y; grading requires layer 3",
    ),
}


def naive_sectional_curvature(table, basis, i, j) -> Fraction:
    """Milnor's plane curvature of (e_i, e_j) for the orthonormal basis,
    summed over every k, with alpha_uvw read from the label-keyed table."""
    position = {label: p for p, label in enumerate(basis)}
    alpha = {}
    for (left, right), result in table.items():
        u, v = position[left], position[right]
        for label, c in result.items():
            w = position[label]
            alpha[u, v, w] = alpha.get((u, v, w), Fraction(0)) + Fraction(c)
            alpha[v, u, w] = alpha.get((v, u, w), Fraction(0)) - Fraction(c)

    def a(u, v, w):
        return alpha.get((u, v, w), Fraction(0))

    total = Fraction(0)
    for k in range(len(basis)):
        total += (
            Fraction(1, 2) * a(i, j, k) * (-a(i, j, k) + a(j, k, i) + a(k, i, j))
            - Fraction(1, 4)
            * (a(i, j, k) - a(j, k, i) + a(k, i, j))
            * (a(i, j, k) + a(j, k, i) - a(k, i, j))
            - a(k, i, i) * a(k, j, j)
        )
    return total


def naive_rref(rows) -> tuple:
    """Dense Gauss-Jordan elimination on lists of Fractions: reduced row
    echelon form, zero rows dropped, rows ordered by pivot."""
    work = [list(Fraction(e) for e in row) for row in rows]
    if not work:
        return ()
    ncols = len(work[0])
    for row in work:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][col]
        work[r] = [inv * e for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def naive_is_horizontal(rows, first_layer) -> bool:
    """Every nonzero entry of the dense rows sits at a first-layer position."""
    first = set(first_layer)
    return all(c == 0 or i in first for row in rows for i, c in enumerate(row))


def naive_coordinate_labels(rows, basis):
    """The labels of the dense rows if each one is a unit vector, else None."""
    labels = []
    for row in rows:
        support = [i for i, c in enumerate(row) if c != 0]
        if len(support) != 1 or row[support[0]] != 1:
            return None
        labels.append(basis[support[0]])
    return tuple(labels)


def naive_nullspace(rows, ncols) -> tuple:
    """Right-kernel basis read off ``naive_rref``: one vector per free
    column, with a 1 there and minus the free column at the pivots."""
    reduced = naive_rref(rows)
    pivots = [next(j for j, e in enumerate(row) if e != 0) for row in reduced]
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return tuple(basis)


def dense_kernel(report) -> tuple:
    """The kernel basis of a pittet report as dense Fraction rows, one
    entry per pair: each sparse integer pair (w, s) divided out."""
    columns = range(len(report.pairs))
    return tuple(
        tuple(Fraction(w.get(j, 0), s) for j in columns) for w, s in report.kernel_basis
    )


def free_two_step(n: int):
    """The free 2-step algebra N(n, 2) as (basis, layers, table): first
    layer x0 .. x(n-1), and one second-layer label y_a_b with
    [x_a, x_b] = y_a_b, coefficient -1 when a + b is odd, for each a < b."""
    first = ["x%d" % a for a in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    second = ["y%d_%d" % pair for pair in pairs]
    table = {
        (first[a], first[b]): {"y%d_%d" % (a, b): (-1) ** (a + b)} for a, b in pairs
    }
    return first + second, [first, second], table


def naive_inverse(rows):
    """Inverse of a square matrix from ``naive_rref`` of [A | I], or None."""
    n = len(rows)
    augmented = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    reduced = naive_rref(augmented)
    if len(reduced) < n or any(row[i] != 1 for i, row in enumerate(reduced)):
        return None
    return tuple(row[n:] for row in reduced)


def naive_solve(rows, rhs):
    """One solution of A x = b read off ``naive_rref`` of [A | b], free
    variables set to zero, or None when the system is inconsistent."""
    if not rows:
        return ()
    ncols = len(rows[0])
    solution = [Fraction(0)] * ncols
    for row in naive_rref([list(row) + [b] for row, b in zip(rows, rhs)]):
        p = next(j for j, e in enumerate(row) if e != 0)
        if p == ncols:
            return None
        solution[p] = row[ncols]
    return tuple(solution)


def naive_hermite(rows, ncols) -> tuple:
    """Hermite normal form of the Z-module spanned by dense integer rows:
    column by column, each row with a nonzero entry is folded into one
    pivot row by the extended gcd, then the entries above every pivot are
    reduced modulo it.  Rows ordered by pivot, zero rows dropped."""

    def xgcd(a, b):
        # (g, x, y) with x a + y b = g = gcd(a, b) > 0, for a, b != 0
        x0, y0, x1, y1, u, v = 1, 0, 0, 1, abs(a), abs(b)
        while v:
            q = u // v
            u, v, x0, x1, y0, y1 = v, u - q * v, x1, x0 - q * x1, y1, y0 - q * y1
        return u, x0 * (1 if a > 0 else -1), y0 * (1 if b > 0 else -1)

    work = [list(row) for row in rows]
    echelon = []
    for col in range(ncols):
        pivot, rest = None, []
        for row in work:
            if row[col] == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                # [[x, y], [b/g, -a/g]] has determinant -1: unimodular
                a, b = pivot[col], row[col]
                g, x, y = xgcd(a, b)
                pivot, row = (
                    [x * p + y * r for p, r in zip(pivot, row)],
                    [b // g * p - a // g * r for p, r in zip(pivot, row)],
                )
                rest.append(row)
        if pivot is not None:
            if pivot[col] < 0:
                pivot = [-e for e in pivot]
            echelon.append((col, pivot))
        work = rest
    for k, (col, row) in enumerate(echelon):
        for _, above in echelon[:k]:
            q = above[col] // row[col]
            above[:] = [e - q * f for e, f in zip(above, row)]
    return tuple(tuple(row) for _, row in echelon)


def graded_transport(table, layers, rng):
    """The table of the same algebra in a random layer-adapted basis.

    Each layer gets one random invertible block B of entries in
    [-3, 3]/[1, 3], and its new basis vectors keep the old labels:
    f_a = sum_u B[u][a] e_u over the labels u, a of that layer.  Returns
    (table, to_new), where ``to_new`` maps a ``{label: coeff}`` vector in
    the old basis to its coordinates in the new one, through B^-1.
    """
    blocks, inverses = {}, {}
    for layer in layers:
        k = len(layer)
        inverse = None
        while inverse is None:
            block = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
            inverse = naive_inverse(block)
        for i, u in enumerate(layer):
            for j, a in enumerate(layer):
                blocks[u, a] = block[i][j]
                inverses[a, u] = inverse[j][i]
    layer_containing = {label: layer for layer in layers for label in layer}

    def to_new(v):
        out = {}
        for u, c in v.items():
            for a in layer_containing[u]:
                out[a] = out.get(a, Fraction(0)) + inverses[a, u] * c
        return {a: c for a, c in out.items() if c}

    def old_bracket(u, v):
        if (u, v) in table:
            return {w: Fraction(c) for w, c in table[u, v].items()}
        return {w: -Fraction(c) for w, c in table.get((v, u), {}).items()}

    labels = [label for layer in layers for label in layer]
    transported = {}
    for a, b in itertools.combinations(labels, 2):
        total = {}
        for u in layer_containing[a]:
            for v in layer_containing[b]:
                coeff = blocks[u, a] * blocks[v, b]
                if coeff:
                    for w, c in old_bracket(u, v).items():
                        total[w] = total.get(w, Fraction(0)) + coeff * c
        result = to_new(total)
        if result:
            transported[a, b] = result
    return transported, to_new


def naive_evaluate(form, vectors) -> Fraction:
    """The form on ``vectors`` by Leibniz's sum, degree at most 4: for each
    monomial m, its coefficient times the sum over permutations s of
    sign(s) times the product over k of vectors[k][m[s(k)]], the sign
    counted from the inversions of s."""
    p = len(vectors)
    assert p == form.degree <= 4
    total = Fraction(0)
    for mono, coeff in form.terms.items():
        for perm in itertools.permutations(range(p)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            product = Fraction(coeff) * (-1) ** inversions
            for k in range(p):
                product *= Fraction(vectors[k][mono[perm[k]]])
            total += product
    return total


def naive_differential_value(form, vectors) -> Fraction:
    """(p+1)! d(form)(X0..Xp) = sum_{i<j} (-1)^(i+j+1) form([Xi,Xj], rest),
    each value of the form by ``naive_evaluate``."""
    algebra = form.algebra
    p = form.degree
    assert len(vectors) == p + 1
    total = Fraction(0)
    for i, j in itertools.combinations(range(p + 1), 2):
        rest = [vectors[r] for r in range(p + 1) if r not in (i, j)]
        value = naive_evaluate(form, [algebra.bracket(vectors[i], vectors[j])] + rest)
        total += (-1) ** (i + j + 1) * value
    denom = 1
    for f in range(2, p + 2):
        denom *= f
    return total / denom


def naive_membership(generators, v):
    """Integer coordinates of v in the generators by a fresh solve, or None:
    ``naive_rref`` of the column system [generators | v], free variables
    set to zero."""
    k = len(generators)
    augmented = [[g[i] for g in generators] + [v[i]] for i in range(len(v))]
    coeffs = [Fraction(0)] * k
    for row in naive_rref(augmented):
        p = next(j for j, e in enumerate(row) if e != 0)
        if p == k:
            return None
        coeffs[p] = row[k]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return tuple(coeffs)


def dense_generators(spec):
    """The generators of a lattice spec as dense rows of Fractions: entry u
    of the row of the pair (w, s) in ``integer_rows`` is w[u] / s."""
    n = spec.algebra.dimension
    return tuple(
        tuple(Fraction(w.get(u, 0), s) for u in range(n)) for w, s in spec.integer_rows
    )


def naive_group_closure(spec) -> tuple[bool, str]:
    """(ok, detail) of the full sweep over every ordered generator product."""
    algebra = spec.algebra
    half = Fraction(1, 2)
    generators = dense_generators(spec)
    for i, x in enumerate(generators):
        for j, y in enumerate(generators):
            product = tuple(
                a + b + half * c for a, b, c in zip(x, y, algebra.bracket(x, y))
            )
            if naive_membership(generators, product) is None:
                return False, (
                    "product of generators %d and %d leaves the integer span: %s"
                    % (i, j, algebra.describe(product))
                )
    return True, ""


def naive_scaling_closure(spec) -> tuple[bool, str]:
    """(ok, detail) of applying the dilation by 2 (layer j scaled by 2**j,
    read from the layers) to each generator and testing the image with
    ``naive_membership``."""
    algebra = spec.algebra
    weight = {i: d for d, layer in enumerate(algebra.layers, start=1) for i in layer}
    generators = dense_generators(spec)
    for i, g in enumerate(generators):
        image = tuple(Fraction(2) ** weight[u] * c for u, c in enumerate(g))
        if naive_membership(generators, image) is None:
            return False, (
                "dilation by 2 of generator %d leaves the integer span: %s"
                % (i, algebra.describe(image))
            )
    return True, ""


def strict_upper_matrix(n: int, coords, algebra: GradedLieAlgebra):
    """Dense n x n matrix from coordinates in the Euv basis."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for idx, c in enumerate(coords):
        label = algebra.basis[idx]
        u, v = int(label[1]), int(label[2])
        m[u - 1][v - 1] = Fraction(c)
    return m


def matrix_commutator(a, b):
    n = len(a)
    def mul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    ab, ba = mul(a, b), mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def matrix_to_coords(m, algebra: GradedLieAlgebra):
    coords = []
    for idx in range(algebra.dimension):
        label = algebra.basis[idx]
        u, v = int(label[1]), int(label[2])
        coords.append(m[u - 1][v - 1])
    return tuple(coords)


def random_form(rng, algebra, degree, max_terms=3, bound=4, denominators=None):
    """Sparse random form with small integer coefficients, or with
    coefficients k/q for q drawn from ``denominators`` when it is given."""
    from carnot.forms import InvariantForm

    n = algebra.dimension
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(sorted(rng.sample(range(n), degree)))
        k = rng.randint(-bound, bound)
        q = 1 if denominators is None else rng.choice(denominators)
        terms[mono] = Fraction(k, q)
    return InvariantForm(algebra, degree, terms)


def basis_tuples(algebra, arity):
    return itertools.combinations(range(algebra.dimension), arity)


# the Heisenberg relations [a_q, b_q] = c by family: (first-layer letters,
# centre, designated letter or None, rows (a, b, c) in order)
_HEISENBERG_TABLES = {
    "heisenberg_c": ("jk", "K", None, [("k", "j", "K")]),
    "heisenberg_h": ("hijk", "IJK", "h", [
        ("i", "h", "I"), ("j", "h", "J"), ("k", "h", "K"),
        ("k", "j", "I"), ("i", "k", "J"), ("j", "i", "K"),
    ]),
    "heisenberg_o": ("defghijk", "EFGHIJK", "d", [
        ("e", "d", "E"), ("f", "d", "F"), ("g", "d", "G"), ("h", "d", "H"),
        ("i", "d", "I"), ("j", "d", "J"), ("k", "d", "K"),
        ("i", "f", "E"), ("k", "h", "E"), ("j", "g", "E"),
        ("e", "i", "F"), ("j", "h", "F"), ("g", "k", "F"),
        ("k", "f", "G"), ("e", "j", "G"), ("h", "i", "G"),
        ("i", "g", "H"), ("f", "j", "H"), ("e", "k", "H"),
        ("g", "h", "I"), ("f", "e", "I"), ("k", "j", "I"),
        ("h", "f", "J"), ("g", "e", "J"), ("i", "k", "J"),
        ("f", "g", "K"), ("e", "h", "K"), ("j", "i", "K"),
    ]),
}


def catalog_labels(key):
    """(layers, designated labels or None) of a catalog id, by label."""
    family, n = key.split(":")
    n = int(n)
    if family in _HEISENBERG_TABLES:
        letters, centre, designated, _ = _HEISENBERG_TABLES[family]
        first = ["%s%d" % (a, q) for a in letters for q in range(1, n + 1)]
        if designated is None:
            return [first, list(centre)], None
        return [first, list(centre)], ["%s%d" % (designated, q) for q in range(1, n + 1)]
    if family == "unipotent":
        layers = [
            ["E%d%d" % (u, u + s) for u in range(1, n - s + 1)] for s in range(1, n)
        ]
        return layers, ["E%d%d" % (2 * q - 1, 2 * q) for q in range(1, n // 2 + 1)]
    basis = ["x%d" % q for q in range(1, n + 1)]
    return [basis], basis


def catalog_label_brackets(key):
    """The label-keyed bracket table of a catalog id, in the order the
    families list it: [a_q, b_q] = c for q = 1..n and each row of the
    Heisenberg table in turn, [E_ab, E_bc] = E_ac for a < b < c in
    lexicographic order, nothing for an abelian id."""
    family, n = key.split(":")
    n = int(n)
    if family in _HEISENBERG_TABLES:
        rows = _HEISENBERG_TABLES[family][3]
        return {
            ("%s%d" % (a, q), "%s%d" % (b, q)): {c: 1}
            for q in range(1, n + 1)
            for a, b, c in rows
        }
    if family == "unipotent":
        return {
            ("E%d%d" % (a, b), "E%d%d" % (b, c)): {"E%d%d" % (a, c): 1}
            for a, b, c in itertools.combinations(range(1, n + 1), 3)
        }
    return {}


def naive_conflict(bounds) -> bool:
    """Do the growth bounds (objects with ``relation`` and ``exponent``) leave
    no exponent?  Only every exponent, every midpoint between two of them and
    one point past each end need trying, since each bound's verdict is
    constant between consecutive exponents."""
    points = sorted({b.exponent for b in bounds})
    tries = points + [(x + y) / 2 for x, y in zip(points, points[1:])]
    tries += [points[0] - 1, points[-1] + 1] if points else [Fraction(0)]
    meets = {
        "equivalent": lambda x, e: x == e,
        "at_most": lambda x, e: x <= e,
        "at_least": lambda x, e: x >= e,
        "strictly_above": lambda x, e: x > e,
    }
    return not any(
        all(meets[b.relation](x, b.exponent) for b in bounds) for x in tries
    )
