"""Dense linear algebra over a scalar field.

Matrices are sequences of rows.  All routines work for both backends: the
exact field eliminates with literal zero tests, the float64 field uses
partial pivoting and a relative threshold (tol * max-entry of the input).
Shapes here are small (a few hundred rows at most), so everything is
straightforward Gaussian elimination with zero-skipping.

Exact kernels do Python-level work only on nonzero entries.  The standard
matrix-unit elements have dim nonzeros out of dim^2, and every call of a
Fraction method costs far more than the loop step around it.  So a zero
test (nonzero_items, has_nonzero, _pick_pivot, the reductions of
row_echelon and solve_unique) compares an entry with the field's
canonical zero by identity first, which calls nothing, and only then by
truthiness.  Identity alone would be wrong: Fraction(0) objects made by
arithmetic, by documents or by coerce are zero without being field.zero.
A pivot row is normalised by dividing its nonzeros only (zeros become
field.zero, the pivot field.one), rows are updated along a pivot row's
nonzero items (solve_unique's forward pass, whose pivot rows keep
changing, tests each entry instead of listing them), and a product
converts only the entries of a row that came out nonzero.  Exact
equality (mat_eq) compares whole rows as sequences, whose comparison
tests identity before it calls __eq__.  Float branches keep their
arithmetic, so their results are bit for bit what they were.
reduced_echelon and hermitian_psd keep their entrywise loops, and
hermitian_psd runs the same elimination in both fields (its docstring).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from math import lcm
from operator import eq, or_

from .errors import SepidemError
from .scalars import GaussianRational, conj, gauss


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


def transpose(a):
    return [list(col) for col in zip(*a)]


def conj_transpose(a):
    return [[conj(x) for x in col] for col in zip(*a)]


def nonzero_items(row, zero):
    """(j, x) for the nonzero entries x of row; zero is the field's
    canonical zero, tested by identity before truthiness."""
    return [(j, x) for j, x in enumerate(row) if x is not zero and x]


def has_nonzero(row, field):
    """Whether row has a nonzero entry: nonzero_items' zero test in exact
    mode, truthiness at C speed in float mode."""
    if field.is_exact:
        zero = field.zero
        return any(x is not zero and x for x in row)
    return any(row)


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
    rational numerator / (d_i D); the other entries stay zero, found at C
    speed.
    """
    nb = len(b[0]) if b else 0
    a_items = [nonzero_items(row, zero) for row in a]
    used = {j for items in a_items for j, _ in items}
    b_items = {j: nonzero_items(b[j], zero) for j in used}
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
        for l in compress(range(nb), map(or_, re, im) if a_im or b_complex else re):
            x, y = re[l], im[l]
            row[l] = gauss(Fraction(x, den), Fraction(y, den)) if y else Fraction(x, den)
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


# -- multilinear products on integer numerators ---------------------------------
#
# A multilinear loop (a kernel) runs once per combination of the parts of
# its operands.  An operand is (den, parts): exact values are integer
# numerators over one common denominator den, split by power of i into a
# real part (power 0) and, when some value is Gaussian, an imaginary part
# (power 1).  Each combination adds into the accumulator of its total power
# of i mod 4, and each nonzero entry of the result becomes one rational
# numerator / (product of the dens).  A float operand is its own single
# part of power 0 over 1, so float values pass through the same loop in the
# same order of operations.


def split(items, field):
    """Rows of sparse (j, value) items as an operand (den, parts), each
    part a list of rows of (j, numerator) items; floats stay as they are."""
    if not field.is_exact:
        return 1, ((0, items),)
    den = _common_denominator(x for row in items for _, x in row)
    parts = [_integer_parts(row, den) for row in items]
    re, im = [r for r, _ in parts], [i for _, i in parts]
    return den, ((0, re), (1, im)) if any(im) else ((0, re),)


def multilinear(kernel, rows, cols, field, *operands):
    """(den, sums): kernel(acc, *parts) summed over every combination of
    the operands' parts, each into the accumulator (`rows` lists of `cols`
    entries) of its power of i.

    Exact sums are numerators over den, each an int, or a pair (re, im)
    when its imaginary part is nonzero, so equal values have equal
    numerators over the same den; float sums are the values themselves.
    """
    zero = 0 if field.is_exact else field.zero
    den = 1
    for d, _ in operands:
        den *= d
    real = [parts[0][1] for _, parts in operands if len(parts) == 1]
    if len(real) == len(operands):  # a single combination, of power 0
        acc = [[zero] * cols for _ in range(rows)]
        kernel(acc, *real)
        return den, acc
    acc = {}
    for combo in product(*(parts for _, parts in operands)):
        power = sum(p for p, _ in combo) % 4
        if power not in acc:
            acc[power] = [[zero] * cols for _ in range(rows)]
        kernel(acc[power], *(data for _, data in combo))
    zeros = [[0] * cols] * rows
    a0, a1, a2, a3 = (acc.get(p, zeros) for p in range(4))
    return den, [[(x0 - x2, x1 - x3) if x1 != x3 else x0 - x2
                  for x0, x1, x2, x3 in zip(*rs)] for rs in zip(a0, a1, a2, a3)]


def multilinear_values(kernel, rows, cols, field, *operands):
    """The sums of multilinear as field values."""
    den, sums = multilinear(kernel, rows, cols, field, *operands)
    if not field.is_exact:
        return sums
    zero = field.zero
    return [[gauss(Fraction(x[0], den), Fraction(x[1], den)) if type(x) is tuple
             else Fraction(x, den) if x else zero
             for x in row] for row in sums]


def mat_vec(a, v, field):
    """a v: the one-column product in exact mode.  The float loop stays,
    since the one-column product's inner loop over a single entry makes it
    2-3 times slower there."""
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
    """v a, as the one-row product."""
    return mat_mul([v], a, field)[0]


def mat_eq(a, b, field):
    """a = b entry by entry; False when the shapes differ.  Exact rows
    compare as sequences (field.eq is ==), calling no __eq__ on an entry
    identical to its partner."""
    if len(a) != len(b):
        return False
    if field.is_exact:
        return all(map(eq, map(tuple, a), map(tuple, b)))
    for arow, brow in zip(a, b):
        if len(arow) != len(brow):
            return False
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
        zero = field.zero
        for j in range(start, end):
            x = row[j]
            if x is not zero and x:
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


def row_echelon(a, field):
    """Forward elimination.  Returns (pivot rows, pivot column indices).

    Pivot rows are reduced against all earlier pivots and normalized to a
    unit pivot entry; rows that reduce to zero are dropped.
    """
    pivots, pivot_cols, _ = _eliminate(a, field)
    return pivots, pivot_cols


def _eliminate(a, field, target_rank=None):
    """row_echelon's loop: (pivot rows, pivot column indices, indices of
    the rows they came from), stopping at target_rank pivots."""
    scale = matrix_scale(a, field)
    pivots, pivot_cols, picked, reducers = [], [], [], []
    for idx, row in enumerate(a):
        row = _reduce_row(list(row), reducers, field, scale)
        j = _pick_pivot(row, 0, field, scale)
        if j is None:
            continue
        prow, items = _unit_pivot_row(row, j, field, set_one=False)
        pivots.append(prow)
        pivot_cols.append(j)
        reducers.append((j, items))
        picked.append(idx)
        if len(picked) == target_rank:
            break
    return pivots, pivot_cols, picked


def _unit_pivot_row(row, j, field, set_one=True):
    """row / row[j] and its nonzero items.  Exact mode divides the nonzeros
    only: the pivot becomes field.one and the other entries field.zero.
    Float divides every entry, setting the pivot to field.one only when
    set_one (a complex p / p need not be exactly 1)."""
    p, zero = row[j], field.zero
    if not field.is_exact:
        prow = [x / p for x in row]
        if set_one:
            prow[j] = field.one
        return prow, nonzero_items(prow, zero)
    items = [(t, x / p if t != j else field.one) for t, x in nonzero_items(row, zero)]
    prow = [zero] * len(row)
    for t, y in items:
        prow[t] = y
    return prow, items


def _reduce_row(row, reducers, field, scale):
    """row minus row[pc] times each pivot row, given as (pc, its nonzero
    items); a negligible row[pc] is set to zero instead (float mode)."""
    zero = field.zero
    for pc, items in reducers:
        f = row[pc]
        if f is not zero and f and (field.is_exact or not field.negligible(f, scale)):
            for j, y in items:
                row[j] = row[j] - f * y
        row[pc] = zero
    return row


def rank(a, field):
    if not a or not a[0]:
        return 0
    return len(row_echelon(a, field)[0])


def independent_rows(a, field, target_rank=None):
    """Indices of rows forming a basis of the row space.

    Scanning stops as soon as target_rank independent rows are found, so
    callers that know the expected rank avoid touching the remaining rows.
    """
    return _eliminate(a, field, target_rank)[2]


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
    zero = field.zero
    pivots, pivot_cols = [], []
    for idx in range(m):
        row = list(a[idx]) + list(b[idx])
        for prow, pc in zip(pivots, pivot_cols):
            f = row[pc]
            if f is zero or not f:
                continue
            for j, y in enumerate(prow):  # pivot rows change below: no items kept
                if y is not zero and y:
                    row[j] = row[j] - f * y
            row[pc] = zero
        j = _pick_pivot(row, 0, field, scale, end=n)
        if j is not None:
            row, items = _unit_pivot_row(row, j, field)
            for prow in pivots:
                f = prow[j]
                if f is not zero and f:
                    for t, y in items:
                        prow[t] = prow[t] - f * y
                    prow[j] = zero
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
    """Positive-semidefiniteness of a Hermitian matrix: (is_psd, rank).

    One symmetric elimination for both fields, pivoted on the largest
    remaining diagonal entry (pivoted Cholesky of a semidefinite matrix,
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 10).  A non-real diagonal entry refutes PSD, and so does a negative
    one that is not negligible.  Once every remaining diagonal entry is
    negligible, the matrix is PSD exactly when every remaining entry is.
    Negligible is literal zero in exact mode, which never leaves the
    Gaussian rationals, and at most tol * max(1, largest entry) in float
    mode.  The rank is the number of pivots; it is the matrix's rank only
    when is_psd.
    """
    scale = matrix_scale(g, field)
    work = [list(row) for row in g]
    active = list(range(len(g)))
    rnk = 0
    while active:
        pivot, d = None, 0
        for i in active:
            x = work[i][i]
            if not field.is_real(x):
                return False, rnk
            r = field.real(x)
            if r < 0 and not field.negligible(x, scale):
                return False, rnk
            if r > d:
                pivot, d = i, r
        if pivot is None or field.negligible(d, scale):
            return all(field.negligible(work[i][j], scale) for i in active for j in active), rnk
        active.remove(pivot)
        prow = work[pivot]
        for i in active:
            wi = work[i]
            ci = wi[pivot]
            if ci:
                f = ci / d
                for j in active:
                    if prow[j]:
                        wi[j] = wi[j] - f * prow[j]
        rnk += 1
    return True, rnk


def hermitian_pd(g, field):
    ok, rnk = hermitian_psd(g, field)
    return ok and rnk == len(g)
