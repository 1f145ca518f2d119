import random

import pytest
from hypothesis import given, settings, strategies as st

import sepidem as sd
from sepidem import linalg
from sepidem.scalars import EXACT, FLOAT64, GaussianRational, gauss, rational

F = EXACT


def q(x):
    return rational(x)


def mat(rows):
    return [[F.coerce(x) for x in row] for row in rows]


small = st.integers(min_value=-5, max_value=5)


def matrices(n):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n).map(mat)


def test_rank_and_echelon():
    a = mat([[1, 2], [2, 4], [0, 1]])
    assert linalg.rank(a, F) == 2
    assert linalg.rank(mat([[0, 0], [0, 0]]), F) == 0


def test_solve_unique_square():
    a = mat([[2, 1], [1, 1]])
    b = mat([[1], [1]])
    x = linalg.solve_unique(a, b, F)
    assert x == mat([[0], [1]])


def test_solve_unique_overdetermined_consistent():
    a = mat([[1, 0], [0, 1], [1, 1]])
    b = mat([[2], [3], [5]])
    assert linalg.solve_unique(a, b, F) == mat([[2], [3]])


def test_solve_inconsistent():
    a = mat([[1, 0], [0, 1], [1, 1]])
    b = mat([[2], [3], [6]])
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve_unique(a, b, F)


def test_solve_rank_deficient():
    a = mat([[1, 2], [2, 4]])
    b = mat([[1], [2]])
    with pytest.raises(linalg.RankDeficient):
        linalg.solve_unique(a, b, F)


@settings(max_examples=40)
@given(matrices(3), st.lists(small, min_size=3, max_size=3))
def test_solve_round_trip(a, v):
    if linalg.rank(a, F) < 3:
        return
    x = [F.coerce(c) for c in v]
    b = [[c] for c in linalg.mat_vec(a, x, F)]
    sol = linalg.solve_unique(a, b, F)
    assert [row[0] for row in sol] == x


@settings(max_examples=40)
@given(matrices(3))
def test_inverse(a):
    if linalg.rank(a, F) < 3:
        return
    inv = linalg.inverse(a, F)
    assert linalg.mat_eq(linalg.mat_mul(a, inv, F), linalg.identity(3, F), F)


def triple_loop(a, b):
    """The plain definition of the matrix product, in field arithmetic."""
    rows = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][j] * b[j][l] for j in range(rows)), F.zero) for l in range(cols)]
            for i in range(len(a))]


def random_matrix(rng, m, n, entry):
    return [[entry(rng) if rng.random() < 0.7 else F.zero for _ in range(n)]
            for _ in range(m)]


def random_q(rng):
    return q(rng.randint(-30, 30)) / q(rng.randint(1, 12))


def random_gauss(rng):
    return gauss(random_q(rng), random_q(rng) if rng.random() < 0.6 else 0)


@pytest.mark.parametrize("entry", [random_q, random_gauss])
def test_exact_mat_mul_equals_triple_loop(entry):
    rng = random.Random(11)
    for _ in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, k, entry)
        b = random_matrix(rng, k, n, entry)
        out = linalg.mat_mul(a, b, F)
        assert out == triple_loop(a, b)
        # entries stay normalized: real values are plain rationals
        for x in (x for row in out for x in row):
            assert not isinstance(x, GaussianRational) or x.im


def test_exact_mat_mul_sparse_matrix_units():
    a3 = sd.matrix_algebra(3)
    rng = random.Random(12)
    dense = random_matrix(rng, a3.dim, a3.dim, random_q)
    for t in range(a3.dim):
        unit = a3.basis_element(t).coeffs
        for mult in (a3.left_mult_matrix(unit), a3.right_mult_matrix(unit)):
            assert linalg.mat_mul(mult, dense, F) == triple_loop(mult, dense)
            assert linalg.mat_mul(dense, mult, F) == triple_loop(dense, mult)


def test_exact_mat_mul_empty():
    assert linalg.mat_mul([], mat([[1, 2]]), F) == []
    assert linalg.mat_mul(mat([[1, 2]]), mat([[], []]), F) == [[]]
    zeros = mat([[0, 0], [0, 0]])
    assert linalg.mat_mul(zeros, mat([[1, 2], [3, 4]]), F) == zeros


def test_nullspace():
    a = mat([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(a, F)
    assert len(basis) == 2
    for v in basis:
        assert all(not c for c in linalg.mat_vec(a, v, F))


def test_independent_rows_early_stop():
    a = mat([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1]])
    assert linalg.independent_rows(a, F, target_rank=2) == [1, 3]


def _loop_mat_vec(a, v, field):
    """The entrywise loop, the reference for mat_vec's exact one-column
    product."""
    out = []
    for arow in a:
        acc = field.zero
        for j, x in enumerate(arow):
            if x and v[j]:
                acc = acc + x * v[j]
        out.append(acc)
    return out


def _loop_vec_mat(v, a, field):
    """The entrywise loop vec_mat ran before it became a one-row mat_mul."""
    out = [field.zero] * (len(a[0]) if a else 0)
    for i, x in enumerate(v):
        if x:
            for j, y in enumerate(a[i]):
                if y:
                    out[j] = out[j] + x * y
    return out


def test_vector_products_equal_the_entrywise_loops():
    """Float results agree bit for bit (same terms, same order), exact
    results exactly, on random complex input with zeros and on empty
    shapes."""
    rng = random.Random(18)

    def entry(field):
        if rng.random() < 0.3:
            return field.zero
        if field.is_exact:
            return gauss(rational(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"),
                         rational(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"))
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.randint(-8, 8)

    for field in (EXACT, FLOAT64):
        for m, n in ((1, 1), (3, 5), (6, 2), (7, 7), (3, 0), (0, 3)):
            a = [[entry(field) for _ in range(n)] for _ in range(m)]
            v, w = [entry(field) for _ in range(n)], [entry(field) for _ in range(m)]
            for got, want in ((linalg.mat_vec(a, v, field), _loop_mat_vec(a, v, field)),
                              (linalg.vec_mat(w, a, field), _loop_vec_mat(w, a, field))):
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert x == y and type(x) is type(y)
                    if not field.is_exact:
                        assert repr(x) == repr(y)  # signed zeros too


@settings(max_examples=30)
@given(matrices(3))
def test_gram_psd(a):
    """A^H A is always PSD, with rank equal to rank(A)."""
    g = linalg.mat_mul(linalg.conj_transpose(a), a, F)
    ok, rank = linalg.hermitian_psd(g, F)
    assert ok
    assert rank == linalg.rank(a, F)


def test_psd_rejects_indefinite():
    g = mat([[1, 0], [0, -1]])
    ok, _ = linalg.hermitian_psd(g, F)
    assert not ok
    # zero diagonal with nonzero off-diagonal entries cannot be PSD
    g = mat([[0, 1], [1, 0]])
    ok, _ = linalg.hermitian_psd(g, F)
    assert not ok


def test_psd_complex_entries():
    i = gauss(0, 1)
    g = [[F.coerce(2), i], [-i, F.coerce(2)]]
    ok, rank = linalg.hermitian_psd(g, F)
    assert ok and rank == 2
    g = [[F.coerce(1), 2 * i], [-2 * i, F.coerce(1)]]
    ok, _ = linalg.hermitian_psd(g, F)
    assert not ok


def test_psd_float_mode():
    g = [[2 + 0j, 1j], [-1j, 2 + 0j]]
    ok, rank = linalg.hermitian_psd(g, FLOAT64)
    assert ok and rank == 2
    ok, _ = linalg.hermitian_psd([[1 + 0j, 0j], [0j, -1 + 0j]], FLOAT64)
    assert not ok


def test_hermitian_pd():
    assert linalg.hermitian_pd(mat([[2, 0], [0, 3]]), F)
    assert not linalg.hermitian_pd(mat([[1, 0], [0, 0]]), F)


def test_float_solve_pivoting():
    a = [[1e-12 + 0j, 1 + 0j], [1 + 0j, 1 + 0j]]
    b = [[1 + 0j], [2 + 0j]]
    x = linalg.solve_unique(a, b, FLOAT64)
    assert abs(x[0][0] - 1) < 1e-6 and abs(x[1][0] - 1) < 1e-6
