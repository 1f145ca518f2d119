"""The product loops on integer structure constants against plain loops
that multiply and add one field scalar at a time.

The reference loops below are the scalar loops of tensor_mul,
product_coeffs, left_mult_matrix, right_mult_matrix, form_matrix and the
associativity and unit checks of Algebra construction, written without
the integer form.  Exact results must be equal, float results equal bit
for bit (the integer form sends floats through the same operations in the
same order).  Every algebra here has dimension at most 9.
"""

import random

import pytest

import sepidem as sd
from sepidem.algebra import Algebra
from sepidem.errors import AssociativityViolation, NotUnital
from sepidem.scalars import EXACT, FLOAT64


# -- reference loops ------------------------------------------------------------------


def ref_product(a, x, y):
    out = [a.field.zero] * a.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            s = xi * yj
            for k, c in a.mult[i][j]:
                out[k] = out[k] + s * c
    return out


def ref_left(a, x):
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for j, xj in enumerate(x):
        if not xj:
            continue
        for i in range(a.dim):
            for k, c in a.mult[j][i]:
                rows[k][i] = rows[k][i] + xj * c
    return rows


def ref_right(a, x):
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for i in range(a.dim):
        for j, xj in enumerate(x):
            if not xj:
                continue
            for k, c in a.mult[i][j]:
                rows[k][i] = rows[k][i] + xj * c
    return rows


def ref_form(a, cov):
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            acc = a.field.zero
            for k, c in a.mult[i][j]:
                if cov[k]:
                    acc = acc + c * cov[k]
            rows[i][j] = acc
    return rows


def ref_tensor_mul(x, y):
    B, C = x.left, x.right
    zero = x.field.zero
    out = [[zero] * C.dim for _ in range(B.dim)]
    for i2 in range(B.dim):
        frow = y.rows[i2]
        if not any(frow):
            continue
        w = []
        for j in range(C.dim):
            acc = {}
            for j2, v in enumerate(frow):
                if not v:
                    continue
                for l, c in C.mult[j][j2]:
                    acc[l] = acc.get(l, zero) + v * c
            w.append([(l, v) for l, v in acc.items() if v])
        t = [[zero] * C.dim for _ in range(B.dim)]
        for i in range(B.dim):
            for j, e in enumerate(x.rows[i]):
                if not e:
                    continue
                for l, v in w[j]:
                    t[i][l] = t[i][l] + e * v
        for i in range(B.dim):
            if not any(t[i]):
                continue
            for k, c in B.mult[i][i2]:
                for l, v in enumerate(t[i]):
                    if v:
                        out[k][l] = out[k][l] + c * v
    return out


def _sparse_sum(field, pairs):
    acc = {}
    for t, v in pairs:
        acc[t] = acc.get(t, field.zero) + v
    return acc


def _sparse_differ(field, a, b):
    keys = set(a) | set(b)
    return any(not field.eq(a.get(t, field.zero), b.get(t, field.zero)) for t in keys)


def ref_associativity_witness(field, mult):
    """First basis triple (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k)."""
    d = len(mult)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = _sparse_sum(field, ((t, c * c2) for m, c in mult[i][j]
                                          for t, c2 in mult[m][k]))
                rhs = _sparse_sum(field, ((t, c * c2) for m, c in mult[j][k]
                                          for t, c2 in mult[i][m]))
                if _sparse_differ(field, lhs, rhs):
                    return (i, j, k)
    return None


def ref_unit_witness(field, mult, unit):
    """First basis index j with 1 b_j != b_j or b_j 1 != b_j."""
    for j in range(len(mult)):
        left = _sparse_sum(field, ((k, u * c) for i, u in enumerate(unit) if u
                                   for k, c in mult[i][j]))
        right = _sparse_sum(field, ((k, u * c) for i, u in enumerate(unit) if u
                                    for k, c in mult[j][i]))
        if _sparse_differ(field, left, {j: field.one}) or _sparse_differ(field, right, {j: field.one}):
            return j
    return None


# -- algebras and elements ----------------------------------------------------------------


def rebased(a, p):
    """a in the basis b'_i = sum_k p[k][i] b_k, through structure_constant_algebra."""
    d, f = a.dim, a.field
    p_inv = sd.linalg.inverse(p, f)

    def to_new(v):
        return [sum((p_inv[t][k] * v[k] for k in range(d)), f.zero) for t in range(d)]

    cols = [[p[k][i] for k in range(d)] for i in range(d)]
    constants = [[to_new(ref_product(a, cols[i], cols[j])) for j in range(d)] for i in range(d)]
    return sd.structure_constant_algebra(constants, to_new(a.unit), field=f)


def random_basis(d, rng, entry):
    while True:
        p = [[entry(rng) for _ in range(d)] for _ in range(d)]
        try:
            sd.linalg.inverse(p, EXACT)
            return p
        except sd.linalg.RankDeficient:
            pass


def rational_entry(rng):
    return sd.rational(f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}")


def gaussian_entry(rng):
    return sd.gauss(f"{rng.randint(-2, 2)}/{rng.randint(1, 2)}", rng.randint(-1, 1))


def commutative(k):
    constants = [[[1 if i == j == t else 0 for t in range(k)] for j in range(k)] for i in range(k)]
    return sd.structure_constant_algebra(constants, [1] * k)


def algebras():
    rng = random.Random(7)
    return {
        "M3 matrix units": sd.matrix_algebra(3, with_star=True),
        "M2 random rational basis": rebased(sd.matrix_algebra(2), random_basis(4, rng, rational_entry)),
        "C5 random rational basis": rebased(commutative(5), random_basis(5, rng, rational_entry)),
        "M2 random Gaussian basis": rebased(sd.matrix_algebra(2), random_basis(4, rng, gaussian_entry)),
    }


ALGEBRAS = algebras()


def elements(a, rng):
    """Coefficient vectors: two random rational ones, a Gaussian one
    (i e_12 on matrix units, i b_2 otherwise) and zero."""
    d = a.dim
    second = a.unit_index(0, 0, 1) if a.blocks is not None else 1
    return [
        [rational_entry(rng) for _ in range(d)],
        [rational_entry(rng) if rng.random() < 0.5 else 0 for _ in range(d)],
        list((sd.gauss(0, 1) * a.basis_element(second)).coeffs),
        [0] * d,
    ]


def backends(a, vectors):
    """(algebra, coefficient vectors) in exact mode and in float64."""
    yield a, [list(map(a.field.coerce, v)) for v in vectors]
    fa = a.to_field(FLOAT64)
    yield fa, [[FLOAT64.coerce(EXACT.to_complex(EXACT.coerce(x))) for x in v] for v in vectors]


def same(got, want):
    """Literally equal, including the type and the repr (so the sign of a
    float zero) of every entry."""
    assert got == want
    assert [(type(x), repr(x)) for x in _flat(got)] == [(type(x), repr(x)) for x in _flat(want)]


def _flat(v):
    for x in v:
        if isinstance(x, (list, tuple)):
            yield from _flat(x)
        else:
            yield x


# -- products against the reference loops ----------------------------------------------------


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_element_products_match_reference_loops(name):
    rng = random.Random(name)
    base = ALGEBRAS[name]
    for a, vectors in backends(base, elements(base, rng)):
        for x in vectors:
            same(a.left_mult_matrix(x), ref_left(a, x))
            same(a.right_mult_matrix(x), ref_right(a, x))
            same(a.functional(x).form_matrix(), ref_form(a, x))
            for y in vectors:
                same(a.product_coeffs(x, y), ref_product(a, x, y))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_tensor_products_match_reference_loop(name):
    rng = random.Random(name)
    base = ALGEBRAS[name]
    for a, vectors in backends(base, elements(base, rng)):
        # rows from the element vectors, so Gaussian and zero rows occur
        x = sd.TensorElement(a, a, [vectors[i % len(vectors)] for i in range(a.dim)])
        y = sd.TensorElement(a, a, [vectors[(i + 1) % len(vectors)] for i in range(a.dim)])
        zero = sd.zero_tensor(a, a)
        for u, v in ((x, y), (y, x), (x, x), (x, zero), (zero, y)):
            same([list(r) for r in (u * v).rows], ref_tensor_mul(u, v))


def test_tensor_square_of_twist_and_corrupted_dense_element():
    r, s = sd.random_twisted_pair(3, random.Random(5))
    twist = sd.twisted_idempotent(r, s)
    c5 = ALGEBRAS["C5 random rational basis"]
    e = sd.TensorElement(c5, c5, [[c5.unit[i] * (i == j) for j in range(5)] for i in range(5)])
    rows = [list(row) for row in e.rows]
    rows[1][3] = rows[1][3] + sd.rational("2/3")
    corrupted = sd.TensorElement(c5, c5, rows)
    for elem in (twist, corrupted, twist.to_field(FLOAT64), corrupted.to_field(FLOAT64)):
        same([list(r) for r in (elem * elem).rows], ref_tensor_mul(elem, elem))
    assert twist * twist == twist


# -- construction checks through the integer form --------------------------------------------


def _corrupt(mult, i, j, delta):
    """The table with delta added to the first constant of b_i b_j."""
    rows = [[list(cell) for cell in row] for row in mult]
    k, c = rows[i][j][0]
    rows[i][j][0] = (k, c + delta)
    return rows


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_corrupted_table_names_the_first_failing_triple(name, field):
    a = ALGEBRAS[name].to_field(field)
    nonzero = [(i, j) for i in range(a.dim) for j in range(a.dim) if a.mult[i][j]]
    for i, j in random.Random(name).sample(nonzero, 3):
        mult = _corrupt(a.mult, i, j, field.coerce(sd.rational("1/2")))
        want = ref_associativity_witness(field, mult)
        assert want is not None
        with pytest.raises(AssociativityViolation) as info:
            Algebra(field, a.labels, mult, a.unit)
        assert info.value.triple == want


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_wrong_unit_is_not_unital(name, field):
    a = ALGEBRAS[name].to_field(field)
    for delta in (sd.rational("1/3"), sd.gauss(0, 1)):
        unit = list(a.unit)
        unit[a.dim - 1] = unit[a.dim - 1] + field.coerce(delta)
        j = ref_unit_witness(field, a.mult, unit)
        assert j is not None
        with pytest.raises(NotUnital, match=f"basis element {a.labels[j]}$"):
            Algebra(field, a.labels, a.mult, unit)


@pytest.mark.parametrize("k", [4, -1])
def test_table_index_out_of_range_is_refused(k):
    a = sd.matrix_algebra(2)  # basis indices 0 to 3
    mult = [[list(cell) for cell in row] for row in a.mult]
    mult[0][0] = [(k, EXACT.one)]
    with pytest.raises(sd.errors.SepidemError, match="out of range"):
        Algebra(EXACT, a.labels, mult, a.unit)
