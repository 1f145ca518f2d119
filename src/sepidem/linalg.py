"""Dense linear algebra over a scalar field.

Matrices are sequences of rows.  All routines work for both backends: the
exact field eliminates with literal zero tests, the float64 field uses
partial pivoting and a relative threshold (tol * max-entry of the input).
Shapes here are small (a few hundred rows at most), so everything is
straightforward Gaussian elimination with zero-skipping.
"""

from __future__ import annotations

from math import lcm

from .errors import SepidemError
from .scalars import GaussianRational, Rational, conj, gauss


class InconsistentSystem(SepidemError):
    def __init__(self, row_index):
        self.row_index = row_index
        super().__init__(f"linear system is inconsistent at equation {row_index}")


class RankDeficient(SepidemError):
    def __init__(self, rank, needed):
        self.rank = rank
        self.needed = needed
        super().__init__(f"matrix has rank {rank}, needed {needed}")


def identity(n, field):
    zero, one = field.zero, field.one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(m, n, field):
    zero = field.zero
    return [[zero] * n for _ in range(m)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    return [[conj(x) for x in col] for col in zip(*a)]


def mat_mul(a, b, field):
    if field.is_exact:
        return _exact_mat_mul(a, b, field.zero)
    nb = len(b[0]) if b else 0
    zero = field.zero
    out = [[zero] * nb for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for j, x in enumerate(arow):
            if not x:
                continue
            brow = b[j]
            for l, y in enumerate(brow):
                if y:
                    orow[l] = orow[l] + x * y
    return out


def _exact_mat_mul(a, b, zero):
    """Exact product on Python ints.

    Each row of a is written as integer numerators over its own common
    denominator d_i, and the rows of b that a reaches as integer numerators
    over one common denominator D; Gaussian entries split into real and
    imaginary integer parts.  The integer products skip zeros exactly as the
    float loop does, and each nonzero entry of the result becomes one
    rational numerator / (d_i D).
    """
    nb = len(b[0]) if b else 0
    a_items = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    used = {j for items in a_items for j, _ in items}
    b_items = {j: [(l, y) for l, y in enumerate(b[j]) if y] for j in used}
    big_d = _common_denominator(y for j in used for _, y in b_items[j])
    b_parts = {j: _integer_parts(b_items[j], big_d) for j in used}
    b_complex = any(parts[1] for parts in b_parts.values())
    out = []
    for items in a_items:
        row = [zero] * nb
        out.append(row)
        if not items:
            continue
        d = _common_denominator(x for _, x in items)
        a_re, a_im = _integer_parts(items, d)
        re, im = [0] * nb, [0] * nb
        _int_row_product(re, a_re, b_parts, 0)
        _int_row_product(im, a_im, b_parts, 0)
        if b_complex:
            _int_row_product(im, a_re, b_parts, 1)
            _int_row_product(re, [(j, -x) for j, x in a_im], b_parts, 1)
        den = d * big_d
        for l in range(nb):
            x, y = re[l], im[l]
            if y:
                row[l] = gauss(Rational(x, den), Rational(y, den))
            elif x:
                row[l] = Rational(x, den)
    return out


def _common_denominator(values):
    dens = [1]
    for x in values:
        if type(x) is GaussianRational:
            dens.append(x.re.denominator)
            dens.append(x.im.denominator)
        else:
            dens.append(x.denominator)
    return lcm(*dens)


def _integer_parts(items, d):
    """(real, imaginary) sparse integer numerators of items over d."""
    re, im = [], []
    for j, x in items:
        if type(x) is GaussianRational:
            if x.re:
                re.append((j, x.re.numerator * (d // x.re.denominator)))
            im.append((j, x.im.numerator * (d // x.im.denominator)))
        else:
            re.append((j, x.numerator * (d // x.denominator)))
    return re, im


def _int_row_product(acc, a_part, b_parts, which):
    """acc += (sparse integer row a_part) @ (part `which` of the rows of b)."""
    for j, x in a_part:
        for l, y in b_parts[j][which]:
            acc[l] += x * y


def mat_vec(a, v, field):
    if field.is_exact and v:
        return [row[0] for row in _exact_mat_mul(a, [[x] for x in v], field.zero)]
    zero = field.zero
    out = [zero] * len(a)
    for i, arow in enumerate(a):
        acc = zero
        for j, x in enumerate(arow):
            if x and v[j]:
                acc = acc + x * v[j]
        out[i] = acc
    return out


def vec_mat(v, a, field):
    if field.is_exact:
        return _exact_mat_mul([v], a, field.zero)[0]
    zero = field.zero
    n = len(a[0]) if a else 0
    out = [zero] * n
    for i, x in enumerate(v):
        if not x:
            continue
        arow = a[i]
        for j, y in enumerate(arow):
            if y:
                out[j] = out[j] + x * y
    return out


def mat_eq(a, b, field):
    for arow, brow in zip(a, b):
        for x, y in zip(arow, brow):
            if not field.eq(x, y):
                return False
    return True


def matrix_scale(a, field):
    """Pivot threshold scale: the largest entry magnitude (float mode)."""
    if field.is_exact:
        return 1
    s = 0.0
    for row in a:
        for x in row:
            m = abs(x)
            if m > s:
                s = m
    return s


def _pick_pivot(row, start, field, scale, end=None):
    """Index of the pivot entry in row[start:end], or None."""
    if end is None:
        end = len(row)
    if field.is_exact:
        for j in range(start, end):
            if row[j]:
                return j
        return None
    best, best_size = None, 0.0
    for j in range(start, end):
        m = abs(row[j])
        if m > best_size:
            best, best_size = j, m
    if best is None or field.negligible(row[best], scale):
        return None
    return best


def row_echelon(a, field, scale=None):
    """Forward elimination.  Returns (pivot rows, pivot column indices).

    Pivot rows are reduced against all earlier pivots and normalized to a
    unit pivot entry; rows that reduce to zero are dropped.
    """
    if scale is None:
        scale = matrix_scale(a, field)
    pivots = []
    pivot_cols = []
    for row in a:
        row = _reduce_row(list(row), pivots, pivot_cols, field, scale)
        j = _pick_pivot(row, 0, field, scale)
        if j is None:
            continue
        p = row[j]
        row = [x / p for x in row]
        pivots.append(row)
        pivot_cols.append(j)
    return pivots, pivot_cols


def _reduce_row(row, pivots, pivot_cols, field, scale):
    for prow, pc in zip(pivots, pivot_cols):
        f = row[pc]
        if not f or field.negligible(f, scale):
            row[pc] = field.zero
            continue
        for j, y in enumerate(prow):
            if y:
                row[j] = row[j] - f * y
        row[pc] = field.zero
    return row


def rank(a, field):
    if not a or not a[0]:
        return 0
    return len(row_echelon(a, field)[0])


def independent_rows(a, field, target_rank=None, scale=None):
    """Indices of rows forming a basis of the row space.

    Scanning stops as soon as target_rank independent rows are found, so
    callers that know the expected rank avoid touching the remaining rows.
    """
    if scale is None:
        scale = matrix_scale(a, field)
    pivots, pivot_cols, picked = [], [], []
    for idx, row in enumerate(a):
        row = _reduce_row(list(row), pivots, pivot_cols, field, scale)
        j = _pick_pivot(row, 0, field, scale)
        if j is None:
            continue
        p = row[j]
        pivots.append([x / p for x in row])
        pivot_cols.append(j)
        picked.append(idx)
        if target_rank is not None and len(picked) == target_rank:
            break
    return picked


def solve_unique(a, b, field):
    """Solve a @ x = b where b may have several columns; the solution must
    be unique.  Raises InconsistentSystem / RankDeficient otherwise.

    Gauss-Jordan: each accepted pivot row is eliminated from the earlier
    pivot rows immediately, so with full column rank the pivot rows end up
    holding the solution directly (no back-substitution, and no assumption
    about where in a row the pivot was chosen)."""
    m = len(a)
    n = len(a[0]) if a else 0
    scale = max(matrix_scale(a, field), matrix_scale(b, field)) if not field.is_exact else 1
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
        j = _pick_pivot(row, 0, field, scale, end=n)
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
        elif _pick_pivot(row, n, field, scale) is not None:
            raise InconsistentSystem(idx)
    if len(pivots) < n:
        raise RankDeficient(len(pivots), n)
    x = [None] * n
    for prow, pc in zip(pivots, pivot_cols):
        x[pc] = prow[n:]
    return x


def inverse(a, field):
    return solve_unique(a, identity(len(a), field), field)


def reduced_echelon(a, field):
    """Fully reduced row echelon form: (rows, pivot column indices).

    The result is a canonical basis of the row space, so subspaces compare
    by comparing these rows.
    """
    pivots, pivot_cols = row_echelon(a, field)
    for t in range(len(pivots) - 1, -1, -1):
        prow, pc = pivots[t], pivot_cols[t]
        for s in range(t):
            f = pivots[s][pc]
            if f:
                pivots[s] = [x - f * y for x, y in zip(pivots[s], prow)]
                pivots[s][pc] = field.zero
    return pivots, pivot_cols


def nullspace(a, field):
    """Basis vectors of the kernel of a (as column vectors)."""
    n = len(a[0]) if a else 0
    pivots, pivot_cols = reduced_echelon(a, field)
    free_cols = [j for j in range(n) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [field.zero] * n
        v[fc] = field.one
        for prow, pc in zip(pivots, pivot_cols):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def is_hermitian(g, field):
    n = len(g)
    for i in range(n):
        for j in range(i, n):
            if not field.eq(g[i][j], field.conj(g[j][i])):
                return False
    return True


def hermitian_psd(g, field):
    """Positive-semidefiniteness of a Hermitian matrix.

    Exact mode pivots on positive diagonal entries and recurses on the
    Schur complement; this never leaves the Gaussian rationals.  Float mode
    thresholds the spectrum at -tol * max(1, largest entry).

    Returns (is_psd, rank).
    """
    n = len(g)
    if n == 0:
        return True, 0
    if not field.is_exact:
        import numpy as np

        arr = np.array([[field.to_complex(x) for x in row] for row in g])
        eig = np.linalg.eigvalsh(arr)
        scale = max(1.0, float(np.max(np.abs(arr)))) if n else 1.0
        thresh = field.tol * scale
        if eig.min() < -thresh:
            return False, 0
        return True, int((eig > thresh).sum())
    work = {i: {j: g[i][j] for j in range(n)} for i in range(n)}
    active = set(range(n))
    rnk = 0
    while active:
        pivot = None
        for i in active:
            d = work[i][i]
            if not field.is_real(d):
                return False, rnk
            if d:
                if field.real(d) < 0:
                    return False, rnk
                if pivot is None:
                    pivot = i
        if pivot is None:
            # all diagonal entries vanish; PSD forces the rest to vanish too
            for i in active:
                wi = work[i]
                for j in active:
                    if wi[j]:
                        return False, rnk
            return True, rnk
        d = work[pivot][pivot]
        others = [i for i in active if i != pivot]
        col = {i: work[i][pivot] for i in others}
        row = {j: work[pivot][j] for j in others}
        for i in others:
            ci = col[i]
            wi = work[i]
            if ci:
                for j in others:
                    rj = row[j]
                    if rj:
                        wi[j] = wi[j] - ci * rj / d
        active.remove(pivot)
        rnk += 1
    return True, rnk


def hermitian_pd(g, field):
    ok, rnk = hermitian_psd(g, field)
    return ok and rnk == len(g)
