import random
from fractions import Fraction

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


# -- the dense loops the exact kernels replaced, kept as references ---------------------------
#
# The kernels skip zero entries by testing them against the field's zero by
# identity before truthiness, and divide a pivot row's nonzeros only.  Their
# results must equal these loops, which test and divide every entry, in
# value and type (exact) and bit for bit (float).

ZEROS = (EXACT.zero, Fraction(0), Fraction(0, 7), EXACT.coerce(0))


def _ref_pick_pivot(row, start, field, scale, end=None):
    if end is None:
        end = len(row)
    if field.is_exact:
        return next((j for j in range(start, end) if row[j]), None)
    best, best_size = None, 0.0
    for j in range(start, end):
        m = abs(row[j])
        if m > best_size:
            best, best_size = j, m
    if best is None or field.negligible(row[best], scale):
        return None
    return best


def _ref_mat_mul(a, b, field):
    nb = len(b[0]) if b else 0
    out = [[field.zero] * nb for _ in a]
    for i, arow in enumerate(a):
        for j, x in enumerate(arow):
            if x:
                for l, y in enumerate(b[j]):
                    if y:
                        out[i][l] = out[i][l] + x * y
    return out


def _ref_row_echelon(a, field):
    scale = linalg.matrix_scale(a, field)
    pivots, pivot_cols = [], []
    for row in a:
        row = list(row)
        for prow, pc in zip(pivots, pivot_cols):
            f = row[pc]
            if not f or field.negligible(f, scale):
                row[pc] = field.zero
                continue
            for j, y in enumerate(prow):
                if y:
                    row[j] = row[j] - f * y
            row[pc] = field.zero
        j = _ref_pick_pivot(row, 0, field, scale)
        if j is not None:
            p = row[j]
            pivots.append([x / p for x in row])
            pivot_cols.append(j)
    return pivots, pivot_cols


def _ref_reduced_echelon(a, field):
    pivots, pivot_cols = _ref_row_echelon(a, field)
    for t in range(len(pivots) - 1, -1, -1):
        prow, pc = pivots[t], pivot_cols[t]
        for s in range(t):
            f = pivots[s][pc]
            if f:
                pivots[s] = [x - f * y for x, y in zip(pivots[s], prow)]
                pivots[s][pc] = field.zero
    return pivots, pivot_cols


def _ref_solve_unique(a, b, field):
    m, n = len(a), len(a[0]) if a else 0
    scale = max(linalg.matrix_scale(a, field), linalg.matrix_scale(b, field))
    pivots, pivot_cols = [], []
    for idx in range(m):
        row = list(a[idx]) + list(b[idx])
        for prow, pc in zip(pivots, pivot_cols):
            f = row[pc]
            if not f:
                continue
            for j, y in enumerate(prow):
                if y:
                    row[j] = row[j] - f * y
            row[pc] = field.zero
        j = _ref_pick_pivot(row, 0, field, scale, end=n)
        if j is not None:
            p = row[j]
            row = [x / p for x in row]
            row[j] = field.one
            for prow in pivots:
                f = prow[j]
                if f:
                    for t, y in enumerate(row):
                        if y:
                            prow[t] = prow[t] - f * y
                    prow[j] = field.zero
            pivots.append(row)
            pivot_cols.append(j)
        elif _ref_pick_pivot(row, n, field, scale) is not None:
            raise linalg.InconsistentSystem(idx)
    if len(pivots) < n:
        raise linalg.RankDeficient(len(pivots), n)
    x = [None] * n
    for prow, pc in zip(pivots, pivot_cols):
        x[pc] = prow[n:]
    return x


def _sparse_entry(rng, field, gaussian):
    """Zero in about half the entries, in exact mode as any of the zero
    objects of ZEROS; otherwise a rational, or Gaussian one in three."""
    if rng.random() < 0.5:
        return rng.choice(ZEROS) if field.is_exact else 0j
    if field.is_exact:
        x = random_q(rng)
        return gauss(x, random_q(rng)) if gaussian and rng.random() < 0.35 else x
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2) if gaussian else 0.0)


def _assert_same(got, want, field):
    """Equal shapes and entries, of the same type; float entries by repr."""
    assert len(got) == len(want)
    for grow, wrow in zip(got, want):
        assert len(grow) == len(wrow)
        for x, y in zip(grow, wrow):
            assert x == y and type(x) is type(y)
            if not field.is_exact:
                assert repr(x) == repr(y)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (linalg.InconsistentSystem, linalg.RankDeficient) as exc:
        return None, (type(exc), str(exc))


def _sparse_systems(field, gaussian, rng):
    """Random square and tall systems, some singular or inconsistent, some
    with repeated rows, plus matrix-unit (permuted diagonal) ones."""
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 6)
        a = [[_sparse_entry(rng, field, gaussian) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            a[-1] = list(a[0])
        yield a, [[_sparse_entry(rng, field, gaussian) for _ in range(2)] for _ in range(m)]
    for n in (1, 4, 6):
        perm = rng.sample(range(n), n)
        a = [[_sparse_entry(rng, field, False) if j == perm[i] else
              (rng.choice(ZEROS) if field.is_exact else 0j) for j in range(n)] for i in range(n)]
        for i in range(n):
            if not a[i][perm[i]]:
                a[i][perm[i]] = field.one
        yield a, linalg.identity(n, field)


@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
def test_sparse_kernels_equal_the_dense_loops(field, gaussian):
    rng = random.Random(20)
    assert not linalg.has_nonzero(ZEROS if field.is_exact else [0j, -0j], field)
    for a, b in _sparse_systems(field, gaussian, rng):
        assert [linalg.has_nonzero(row, field) for row in a] == [any(row) for row in a]
        _assert_same(linalg.mat_mul(a, linalg.transpose(a), field),
                     _ref_mat_mul(a, linalg.transpose(a), field), field)
        got, want = linalg.row_echelon(a, field), _ref_row_echelon(a, field)
        _assert_same(got[0], want[0], field)
        assert got[1] == want[1] and linalg.rank(a, field) == len(want[0])
        got, want = linalg.reduced_echelon(a, field), _ref_reduced_echelon(a, field)
        _assert_same(got[0], want[0], field)
        assert got[1] == want[1]
        (got, got_exc), (want, want_exc) = (_outcome(fn, a, b, field)
                                            for fn in (linalg.solve_unique, _ref_solve_unique))
        assert got_exc == want_exc
        if want is not None:
            _assert_same(got, want, field)


def test_solve_unique_divides_only_nonzeros(monkeypatch):
    """A diagonal 16 x 16 system with one right-hand column has 32
    nonzeros; dividing every entry of every pivot row would take 16 x 17
    divisions."""
    n = 16
    a = [[Fraction(i + 2, 3) if i == j else ZEROS[(i + j) % 4] for j in range(n)]
         for i in range(n)]
    b = [[Fraction(i + 1, 5)] for i in range(n)]
    divisions = []
    original = Fraction.__truediv__
    monkeypatch.setattr(Fraction, "__truediv__",
                        lambda x, y: divisions.append(1) or original(x, y))
    x = linalg.solve_unique(a, b, EXACT)
    monkeypatch.undo()
    assert x == [[Fraction(3 * (i + 1), 5 * (i + 2))] for i in range(n)]
    assert len(divisions) <= 2 * n


# -- exact equality compares whole rows --------------------------------------------------------


def _entrywise_eq(a, b, field):
    return all(field.eq(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _equal_copy(rows, field):
    """rows with every entry a distinct but equal object (exact mode)."""
    if not field.is_exact:
        return [list(r) for r in rows]
    return [[Fraction(x) if type(x) is Fraction else gauss(Fraction(x.re), Fraction(x.im))
             for x in r] for r in rows]


def _variants(rows, field, rng):
    """(other, equal?) pairs: an identical copy, an equal copy of distinct
    objects, and a copy with one entry changed."""
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    changed = [list(r) for r in rows]
    changed[i][j] = changed[i][j] + field.one
    return [([list(r) for r in rows], True), (_equal_copy(rows, field), True), (changed, False)]


@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_equality_paths_agree_with_the_entrywise_loop(field):
    """mat_eq, TensorElement.__eq__ and LinearMap.__eq__ give the verdict
    of the entrywise field.eq loop on random pairs, and reject one changed
    entry."""
    rng = random.Random(21)
    a = sd.matrix_algebra(2, field=field)
    for _ in range(30):
        rows = [[_sparse_entry(rng, field, True) for _ in range(a.dim)] for _ in range(a.dim)]
        for other, equal in _variants(rows, field, rng):
            assert _entrywise_eq(rows, other, field) is equal
            assert linalg.mat_eq(rows, other, field) is equal
            assert (sd.TensorElement(a, a, rows) == sd.TensorElement(a, a, other)) is equal
            assert (sd.LinearMap(a, a, rows) == sd.LinearMap(a, a, other)) is equal


@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_mat_eq_rejects_unequal_shapes(field):
    one, zero = field.one, field.zero
    rows = [[one, zero], [zero, one]]
    for other in ([[one, zero]], rows + [[zero, zero]], [[one, zero, zero], [zero, one]],
                  [[one, zero], [zero]]):
        assert not linalg.mat_eq(rows, other, field)
        assert not linalg.mat_eq(other, rows, field)


@pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
def test_homomorphism_check_agrees_with_the_entrywise_loop(field):
    """x -> r x^T r^-1 is a unital anti-homomorphism of M_2 for invertible
    r, and T L_g = R_{T(g)} T holds on the generators entry by entry; one
    changed matrix entry breaks both the entrywise check and the map's."""
    rng = random.Random(22)
    a = sd.matrix_algebra(2, field=field)
    s0 = sd.transpose_anti_map(a)
    for _ in range(12):
        r = sd.random_invertible(a, rng)
        conj = linalg.mat_mul(a.left_mult_matrix(r.coeffs),
                              a.right_mult_matrix(r.inverse().coeffs), field)
        rows = linalg.mat_mul(conj, [list(row) for row in s0.rows], field)
        for other, _ in _variants(rows, field, rng):
            t = sd.LinearMap(a, a, other)
            entrywise = _entrywise_eq(
                [t(a.one()).coeffs], [a.unit], field) and all(
                _entrywise_eq(linalg.mat_mul(other, a.left_mult_matrix(g.coeffs), field),
                              linalg.mat_mul(a.right_mult_matrix(t(g).coeffs), other, field),
                              field)
                for g in a.generating_set())
            assert (t.anti_multiplicative_witness() is None) is entrywise
