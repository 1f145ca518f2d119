"""Finite-dimensional associative unital algebras with a distinguished basis.

An Algebra stores its structure constants sparsely: ``mult[i][j]`` is the
tuple of ``(k, coeff)`` pairs of the basis product b_i * b_j.  Construction
eagerly verifies associativity and the unit laws (a block presentation
implies them, see Algebra._validate; a direct sum of algebras is valid by
construction, see direct_sum), since every derivation downstream
assumes them; a two-sided unit makes the product
non-degenerate (x A = 0 gives x = x 1 = 0).  Multi-matrix algebras
additionally carry a block presentation: an ordered list of block sizes,
the basis being the matrix units of each block in row-major order.

An exact algebra also keeps its table as integer numerators over one
common denominator (see "integer form" below), and every product loop
runs on Python ints over it.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import partial

from . import linalg
from .errors import (
    AssociativityViolation,
    BackendMismatch,
    NoBlockPresentation,
    NotAntiMultiplicative,
    NotInvertible,
    NotMultiplicative,
    NotUnital,
    NoStarStructure,
    SepidemError,
)
from .scalars import EXACT, common_field


class Algebra:
    # _table: the integer form of mult (see _integer_table)
    __slots__ = ("field", "dim", "labels", "mult", "unit", "star_matrix", "blocks", "_hash",
                 "_table")

    def __init__(self, field, labels, mult, unit, star_matrix=None, blocks=None):
        self._assign(field, labels, mult, unit, star_matrix, blocks)
        self._validate()

    @classmethod
    def _valid_by_construction(cls, field, labels, mult, unit, star_matrix, blocks):
        """An algebra whose laws its constructor has proved (direct_sum):
        the same presentation as Algebra(...), without _validate."""
        a = cls.__new__(cls)
        a._assign(field, labels, mult, unit, star_matrix, blocks)
        return a

    def _assign(self, field, labels, mult, unit, star_matrix, blocks):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = tuple(
            tuple(tuple((int(k), field.coerce(c)) for k, c in cell) for cell in row)
            for row in mult
        )
        self._table = _integer_table(self.mult, field)
        self.unit = tuple(field.coerce(c) for c in unit)
        self.star_matrix = (
            tuple(tuple(field.coerce(c) for c in row) for row in star_matrix)
            if star_matrix is not None
            else None
        )
        self.blocks = tuple(int(n) for n in blocks) if blocks is not None else None
        self._hash = None

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Proves the laws every derivation assumes: associativity, the unit
        laws and, with a star, an involutive anti-multiplicative star that
        fixes the unit.

        A block presentation is checked first (_validate_blocks): the table
        is the matrix-unit table, e_ij e_kl = e_il when both units lie in
        one block and j = k, and 0 otherwise, and the unit is the sum of
        the diagonal units.  The basis then multiplies as the matrix units
        of the direct sum of full matrix algebras, so the product is
        associative and the unit, the identity matrix of each block, is a
        two-sided unit; neither law is recomputed.  An algebra without
        blocks has both checked on every basis triple and pair.
        """
        d = self.dim
        if len(self.mult) != d or any(len(r) != d for r in self.mult):
            raise SepidemError("structure constant table has the wrong shape")
        # the kernels index rows by k, where a negative k would wrap around
        if any(not 0 <= k < d for row in self.mult for cell in row for k, _ in cell):
            raise SepidemError("structure constant table names a basis index out of range")
        if len(self.unit) != d:
            raise SepidemError("unit coefficient vector has the wrong length")
        if self.blocks is not None:
            self._validate_blocks()
        else:
            self._validate_laws()
        if self.star_matrix is not None:
            self._validate_star()

    def _validate_laws(self):
        d = self.dim
        f = self.field
        # (b_i b_j) b_k against b_i (b_j b_k), row k for every k at once;
        # both sides are numerators over the square of the table's denominator
        for i in range(d):
            for j in range(d):
                _, lhs = linalg.multilinear(partial(_products_then, i, j), d, d, f,
                                            self._table, self._table)
                _, rhs = linalg.multilinear(partial(_then_products, i, j), d, d, f,
                                            self._table, self._table)
                if lhs != rhs:  # literal equality decides exact mode at once
                    for k in range(d):
                        if not linalg.mat_eq([lhs[k]], [rhs[k]], f):
                            raise AssociativityViolation(i, j, k)
        # 1 b_j = b_j = b_j 1: the columns j of L_1 and R_1 are the unit vector e_j
        left, right = self.left_mult_matrix(self.unit), self.right_mult_matrix(self.unit)
        for j in range(d):
            if not all(f.eq(m[k][j], f.one if k == j else f.zero)
                       for m in (left, right) for k in range(d)):
                raise NotUnital(f"unit fails on basis element {self.labels[j]}")

    def _validate_star(self):
        """The star x -> SM conj(x) is involutive, fixes the unit and is
        anti-multiplicative.

        With a block presentation the last is checked in matrix form on the
        generating set G: SM conj(L_g) = R_{g*} SM, which states
        (g x)* = x* g* for every x.  That suffices by the good-element
        argument of LinearMap.assert_anti_multiplicative, which holds for
        an antilinear map too: the good elements are closed under sums,
        scalar multiples (conj(l) (g x)* = x* (l g)*) and products, and
        contain 1 (1* = 1) and G, so they are the whole algebra.  The basis
        pairs are searched only to name the witness of a failure.  An
        algebra without blocks checks every basis pair.
        """
        f = self.field
        sm = [list(r) for r in self.star_matrix]
        d = self.dim
        # star is antilinear, so star(star(b_i)) has matrix SM * conj(SM)
        square = linalg.mat_mul(sm, [[f.conj(c) for c in r] for r in sm], f)
        if not linalg.mat_eq(square, linalg.identity(d, f), f):
            raise SepidemError("star map is not involutive")
        unit_elem = AlgebraElement(self, self.unit)
        if unit_elem.star() != unit_elem:
            raise SepidemError("star does not fix the unit")
        if self.blocks is not None and all(self._star_reverses(g, sm)
                                           for g in self.generating_set()):
            return
        pair = self._star_witness()
        if pair is not None:
            i, j = pair
            raise SepidemError(
                f"star is not anti-multiplicative on ({self.labels[i]}, {self.labels[j]})"
            )

    def _star_reverses(self, g, sm):
        """SM conj(L_g) = R_{g*} SM for g in the generating set, where
        conj(L_g) = L_g: g has coefficients 0 and 1, and so has the
        matrix-unit table."""
        f = self.field
        lhs = linalg.mat_mul(sm, self.left_mult_matrix(g.coeffs), f)
        rhs = linalg.mat_mul(self.right_mult_matrix(g.star().coeffs), sm, f)
        return lhs == rhs if f.is_exact else linalg.mat_eq(lhs, rhs, f)

    def _star_witness(self):
        """The first basis pair (i, j) with (b_i b_j)* != b_j* b_i*, or None."""
        d = self.dim
        stars = [self.basis_element(i).star() for i in range(d)]
        for i in range(d):
            for j in range(d):
                lhs = self.basis_element(i) * self.basis_element(j)
                if lhs.star() != stars[j] * stars[i]:
                    return i, j
        return None

    def _validate_blocks(self):
        if sum(n * n for n in self.blocks) != self.dim:
            raise SepidemError("block sizes do not add up to the dimension")
        f = self.field
        coords = [(o, n, r // n, r % n)
                  for o, n in zip(self.block_offsets(), self.blocks) for r in range(n * n)]
        for t1, (o, n, i1, j1) in enumerate(coords):
            # b_t1 b_t2 = e_{i1 j2} when t2 = e_{j1 j2} of the same block, else 0
            row = o + j1 * n
            for t2, cell in enumerate(self.mult[t1]):
                if row <= t2 < row + n:
                    k = o + i1 * n + t2 - row
                    if cell == ((k, f.one),):
                        continue
                    expect = {k: f.one}
                elif not cell:
                    continue
                else:
                    expect = {}
                if not _sparse_eq(_cell_sums(cell, f), expect, f):
                    raise SepidemError(
                        "structure constants do not match the declared block presentation"
                    )
        expected_unit = [f.zero] * self.dim
        for a, n in enumerate(self.blocks):
            for i in range(n):
                expected_unit[self.unit_index(a, i, i)] = f.one
        if not all(f.eq(x, y) for x, y in zip(self.unit, expected_unit)):
            raise SepidemError("unit does not match the declared block presentation")

    # -- block bookkeeping ----------------------------------------------------

    def block_offsets(self):
        if self.blocks is None:
            raise NoBlockPresentation("algebra has no block presentation")
        offs, o = [], 0
        for n in self.blocks:
            offs.append(o)
            o += n * n
        return offs

    def block_coordinates(self, t):
        """Index t -> (block, row, column) of the matrix unit."""
        offs = self.block_offsets()
        for a in range(len(self.blocks) - 1, -1, -1):
            if t >= offs[a]:
                r = t - offs[a]
                n = self.blocks[a]
                return a, r // n, r % n
        raise IndexError(t)

    def unit_index(self, a, i, j):
        """Basis index of the matrix unit at (row i, column j) of block a."""
        return self.block_offsets()[a] + i * self.blocks[a] + j

    def generating_set(self):
        """Elements that generate the algebra together with its unit.

        Each block of size n >= 2 contributes its two shift sums
        sum_i e_{i,i+1} and sum_i e_{i+1,i}.  No subspace of C^n other than
        0 and C^n is invariant under both, so by Burnside's theorem they
        generate the whole block; products across blocks vanish.  Each 1 x 1
        block contributes its unit.  An algebra without a block presentation
        uses its whole basis.
        """
        if self.blocks is None:
            return [self.basis_element(i) for i in range(self.dim)]
        one = self.field.one
        gens = []
        for a, n in enumerate(self.blocks):
            shifts = [((0, 0),)] if n == 1 else [
                [(i, i + 1) for i in range(n - 1)],
                [(i + 1, i) for i in range(n - 1)],
            ]
            for units in shifts:
                coeffs = [self.field.zero] * self.dim
                for i, j in units:
                    coeffs[self.unit_index(a, i, j)] = one
                gens.append(AlgebraElement(self, coeffs))
        return gens

    # -- elements and maps ----------------------------------------------------

    def element(self, coeffs):
        return AlgebraElement(self, [self.field.coerce(c) for c in coeffs])

    def basis_element(self, i):
        coeffs = [self.field.zero] * self.dim
        coeffs[i] = self.field.one
        return AlgebraElement(self, coeffs)

    def zero(self):
        return AlgebraElement(self, [self.field.zero] * self.dim)

    def one(self):
        return AlgebraElement(self, self.unit)

    def functional(self, covector):
        return LinearFunctional(self, [self.field.coerce(c) for c in covector])

    def product_coeffs(self, x, y):
        f = self.field
        return linalg.multilinear_values(_product_kernel, 1, self.dim, f, _operand([x], f),
                                         _operand([y], f), self._table)[0]

    def left_mult_matrix(self, x):
        """Matrix L with L[k][i] = coefficient of b_k in x * b_i."""
        return linalg.multilinear_values(_left_kernel, self.dim, self.dim, self.field,
                                         _operand([x], self.field), self._table)

    def right_mult_matrix(self, x):
        """Matrix R with R[k][i] = coefficient of b_k in b_i * x."""
        return linalg.multilinear_values(_right_kernel, self.dim, self.dim, self.field,
                                         _operand([x], self.field), self._table)

    def tensor_product_rows(self, other, x, y):
        """Coefficient matrix of x y in self (x) other, for the coefficient
        matrices x and y (entry (i, j) the coefficient of b_i (x) c_j)."""
        f = self.field
        return linalg.multilinear_values(_tensor_kernel, self.dim, other.dim, f,
                                         _operand(x, f), _operand(y, f), self._table,
                                         other._table)

    def star_coeffs(self, coeffs):
        if self.star_matrix is None:
            raise NoStarStructure(f"algebra {self!r} carries no star structure")
        f = self.field
        out = [f.zero] * self.dim
        for i, c in enumerate(coeffs):
            if not c:
                continue
            cc = f.conj(c)
            for k in range(self.dim):
                s = self.star_matrix[k][i]
                if s:
                    out[k] = out[k] + cc * s
        return out

    def to_field(self, field):
        """The same presentation over another scalar backend."""
        if field == self.field:
            return self
        mult = [
            [[(k, _carry(self.field, field, c)) for k, c in cell] for cell in row]
            for row in self.mult
        ]
        unit = [_carry(self.field, field, c) for c in self.unit]
        star = (
            [[_carry(self.field, field, c) for c in row] for row in self.star_matrix]
            if self.star_matrix is not None
            else None
        )
        return Algebra(field, self.labels, mult, unit, star, self.blocks)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.field == other.field
            and self.labels == other.labels
            and self.mult == other.mult
            and self.unit == other.unit
            and self.star_matrix == other.star_matrix
            and self.blocks == other.blocks
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.labels, self.blocks, self.dim))
        return self._hash

    def __repr__(self):
        if self.blocks is not None:
            shape = "+".join(f"M{n}" for n in self.blocks)
        else:
            shape = f"dim {self.dim}"
        star = ", star" if self.star_matrix is not None else ""
        return f"Algebra({shape}{star}, {self.field.name})"


def _carry(src_field, dst_field, c):
    # exact -> float is plain numeric conversion; exact -> exact is identity
    return dst_field.coerce(src_field.to_complex(c)) if not dst_field.is_exact else dst_field.coerce(c)


def _cell_sums(cell, field):
    """A table cell as {k: coefficient}, repeated indices summed, as the
    product kernels sum them."""
    out = {}
    for k, c in cell:
        out[k] = out.get(k, field.zero) + c
    return out


def _sparse_eq(a, b, field):
    for k, v in a.items():
        w = b.get(k, field.zero)
        if not field.eq(v, w):
            return False
    for k, w in b.items():
        if k not in a and not field.eq(w, field.zero):
            return False
    return True


# -- integer form ---------------------------------------------------------------
#
# The product loops below are kernels for linalg.multilinear: they take one
# part of each operand, exact parts holding integer numerators.  The table
# operand keeps mult's shape, cells[i][j] the (k, value) pairs of b_i b_j.


def _integer_table(mult, field):
    d = len(mult)
    den, parts = linalg.split([cell for row in mult for cell in row], field)
    return den, tuple((p, tuple(tuple(map(tuple, cells[r * d:(r + 1) * d])) for r in range(d)))
                      for p, cells in parts)


def _operand(rows, field):
    """Dense rows as a linalg.multilinear operand."""
    return linalg.split([linalg.nonzero_items(row, field.zero) for row in rows], field)


# The kernels.  A vector output is the single row out[0].


def _product_kernel(out, x, y, cells):
    out, y = out[0], y[0]
    for i, xi in x[0]:
        mi = cells[i]
        for j, yj in y:
            s = xi * yj
            for k, c in mi[j]:
                out[k] += s * c


def _left_kernel(out, x, cells):
    d = len(cells)
    for j, xj in x[0]:
        mj = cells[j]
        for i in range(d):
            for k, c in mj[i]:
                out[k][i] += xj * c


def _right_kernel(out, x, cells):
    x = x[0]
    for i, mi in enumerate(cells):
        for j, xj in x:
            for k, c in mi[j]:
                out[k][i] += xj * c


def _form_kernel(out, cov, cells):
    dense = [0] * len(cells)
    for k, v in cov[0]:
        dense[k] = v
    for mi, row in zip(cells, out):
        for j, cell in enumerate(mi):
            acc = row[j]
            for k, c in cell:
                v = dense[k]
                if v:
                    acc += c * v
            row[j] = acc


def _tensor_kernel(out, x, y, b_cells, c_cells):
    bd, cd = len(b_cells), len(c_cells)
    for i2, frow in enumerate(y):
        if not frow:
            continue
        # w[j] = sparse coefficients of c_j * frow
        w = []
        for j in range(cd):
            acc = {}
            mj = c_cells[j]
            for j2, v in frow:
                for l, c in mj[j2]:
                    acc[l] = acc.get(l, 0) + v * c
            w.append([(l, v) for l, v in acc.items() if v])
        # t = x * (1 (x) frow)
        t = [[0] * cd for _ in range(bd)]
        for i, xrow in enumerate(x):
            trow = t[i]
            for j, e in xrow:
                for l, v in w[j]:
                    trow[l] += e * v
        # out += (t with b_i2 acting on the left index from the right)
        for i in range(bd):
            trow = t[i]
            if not any(trow):
                continue
            for k, c in b_cells[i][i2]:
                orow = out[k]
                for l, v in enumerate(trow):
                    if v:
                        orow[l] += c * v


def _products_then(i, j, out, p, q):
    """(b_i b_j) b_k for every k, in row out[k]."""
    for m, c in p[i][j]:
        for cell, orow in zip(q[m], out):
            for t, c2 in cell:
                orow[t] += c * c2


def _then_products(i, j, out, p, q):
    """b_i (b_j b_k) for every k, in row out[k]."""
    qi = q[i]
    for cell, orow in zip(p[j], out):
        for m, c in cell:
            for t, c2 in qi[m]:
                orow[t] += c * c2


class AlgebraElement:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.algebra, self.algebra.product_coeffs(self.coeffs, other.coeffs)
            )
        s = self.algebra.field.coerce(other)
        return AlgebraElement(self.algebra, [s * a for a in self.coeffs])

    def __rmul__(self, other):
        s = self.algebra.field.coerce(other)
        return AlgebraElement(self.algebra, [s * a for a in self.coeffs])

    def _check(self, other):
        if self.algebra != other.algebra:
            raise BackendMismatch("elements belong to different algebras")

    def is_zero(self):
        f = self.algebra.field
        return all(f.is_zero(c) for c in self.coeffs)

    def star(self):
        return AlgebraElement(self.algebra, self.algebra.star_coeffs(self.coeffs))

    def inverse(self):
        """Two-sided inverse; the criterion is invertibility of the
        left-multiplication matrix."""
        a = self.algebra
        try:
            sol = linalg.solve_unique(
                a.left_mult_matrix(self.coeffs), [[c] for c in a.unit], a.field
            )
        except (linalg.RankDeficient, linalg.InconsistentSystem):
            raise NotInvertible(self) from None
        inv = AlgebraElement(a, [row[0] for row in sol])
        if inv * self != a.one():
            raise NotInvertible(self)
        return inv

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        f = self.algebra.field
        return all(f.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __repr__(self):
        f = self.algebra.field
        terms = [
            f"{c}*{lab}" for c, lab in zip(self.coeffs, self.algebra.labels) if not f.is_zero(c)
        ]
        return " + ".join(terms) if terms else "0"


def invert(x: AlgebraElement) -> AlgebraElement:
    return x.inverse()


class LinearFunctional:
    __slots__ = ("algebra", "covector")

    def __init__(self, algebra, covector):
        self.algebra = algebra
        self.covector = tuple(covector)

    def __call__(self, x: AlgebraElement):
        f = self.algebra.field
        acc = f.zero
        for c, v in zip(self.covector, x.coeffs):
            if c and v:
                acc = acc + c * v
        return acc

    def on_basis(self, i):
        return self.covector[i]

    def form_matrix(self):
        """The bilinear form (x, y) -> f(xy) on basis pairs."""
        a = self.algebra
        return linalg.multilinear_values(_form_kernel, a.dim, a.dim, a.field,
                                         _operand([self.covector], a.field), a._table)

    def is_faithful(self):
        """Non-degeneracy of both induced pairings; they share one matrix."""
        return linalg.rank(self.form_matrix(), self.algebra.field) == self.algebra.dim

    def faithfulness_witness(self):
        """A nonzero element killed by the pairing, or None."""
        kern = linalg.nullspace(self.form_matrix(), self.algebra.field)
        if not kern:
            return None
        return AlgebraElement(self.algebra, kern[0])

    def traciality_witness(self):
        """Basis pair (i, j) with f(b_i b_j) != f(b_j b_i), or None."""
        m = self.form_matrix()
        f = self.algebra.field
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                if not f.eq(m[i][j], m[j][i]):
                    return (i, j)
        return None

    def is_tracial(self):
        return self.traciality_witness() is None

    def compose(self, linmap: "LinearMap") -> "LinearFunctional":
        """self after linmap, a functional on linmap.source."""
        if linmap.target != self.algebra:
            raise BackendMismatch("functional domain does not match map target")
        cov = linalg.vec_mat(list(self.covector), [list(r) for r in linmap.rows],
                             self.algebra.field)
        return LinearFunctional(linmap.source, cov)

    def __add__(self, other):
        return LinearFunctional(self.algebra,
                                [a + b for a, b in zip(self.covector, other.covector)])

    def __mul__(self, scalar):
        s = self.algebra.field.coerce(scalar)
        return LinearFunctional(self.algebra, [s * c for c in self.covector])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        f = self.algebra.field
        return all(f.eq(a, b) for a, b in zip(self.covector, other.covector))

    __hash__ = None

    def __repr__(self):
        return f"LinearFunctional({list(map(str, self.covector))})"


class LinearMap:
    """Linear map between algebras, stored as a dim(target) x dim(source)
    matrix relative to the bases."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = tuple(tuple(target.field.coerce(c) for c in row) for row in rows)
        if len(self.rows) != target.dim or any(len(r) != source.dim for r in self.rows):
            raise SepidemError("linear map matrix has the wrong shape")

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.source:
            raise BackendMismatch("element is not in the source algebra")
        return AlgebraElement(
            self.target,
            linalg.mat_vec([list(r) for r in self.rows], list(x.coeffs), self.target.field),
        )

    def on_basis(self, i) -> AlgebraElement:
        return AlgebraElement(self.target, [row[i] for row in self.rows])

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target != self.source:
            raise BackendMismatch("maps do not compose")
        rows = linalg.mat_mul(
            [list(r) for r in self.rows], [list(r) for r in other.rows], self.target.field
        )
        return LinearMap(other.source, self.target, rows)

    def inverse(self) -> "LinearMap":
        try:
            inv = linalg.inverse([list(r) for r in self.rows], self.target.field)
        except (linalg.RankDeficient, linalg.InconsistentSystem):
            raise SepidemError("linear map is not bijective") from None
        return LinearMap(self.target, self.source, inv)

    def is_bijective(self):
        return (
            self.source.dim == self.target.dim
            and linalg.rank([list(r) for r in self.rows], self.target.field) == self.source.dim
        )

    def _comparison_scale(self):
        # products of two map entries set the roundoff scale in float mode
        m = linalg.matrix_scale([list(r) for r in self.rows], self.target.field)
        return max(1, m) * max(1, m)

    def multiplicative_witness(self):
        """None when T is a unital homomorphism (see assert_multiplicative);
        otherwise the first basis pair (i, j) with T(b_i b_j) != T(b_i) T(b_j),
        or "unit" when T(1) != 1 is the only fault."""
        return self._homomorphism_witness(anti=False)

    def anti_multiplicative_witness(self):
        """None when T is a unital anti-homomorphism (see
        assert_anti_multiplicative); otherwise the first basis pair (i, j)
        with T(b_i b_j) != T(b_j) T(b_i), or "unit" when T(1) != 1 is the
        only fault."""
        return self._homomorphism_witness(anti=True)

    def _homomorphism_witness(self, anti):
        # The check runs on the generating set; basis pairs are searched
        # only after it fails, for the witness.  In float mode a failure on
        # the generators that no basis pair reproduces within tolerance is
        # roundoff and passes, as the basis-pair rule would let it.
        src, tgt = self.source, self.target
        f = tgt.field
        same = _comparison(f, self._comparison_scale())
        rows = self.rows
        unital = all(same(x, y) for x, y in zip(self(src.one()).coeffs, tgt.unit))

        def holds_on(g):
            lhs = linalg.mat_mul(rows, src.left_mult_matrix(g.coeffs), f)
            tg = self(g).coeffs
            mult = tgt.right_mult_matrix(tg) if anti else tgt.left_mult_matrix(tg)
            rhs = linalg.mat_mul(mult, rows, f)
            if f.is_exact:  # same is ==: compare whole rows
                return lhs == rhs
            return all(same(x, y) for ra, rb in zip(lhs, rhs) for x, y in zip(ra, rb))

        if unital and all(holds_on(g) for g in src.generating_set()):
            return None
        pair = self._basis_pair_witness(anti, same)
        if pair is not None or unital:
            return pair
        return "unit"

    def _basis_pair_witness(self, anti, same):
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self._image_of_product(i, j)
                rhs = (self.on_basis(j) * self.on_basis(i) if anti
                       else self.on_basis(i) * self.on_basis(j))
                if not all(same(a, b) for a, b in zip(lhs.coeffs, rhs.coeffs)):
                    return (i, j)
        return None

    def _image_of_product(self, i, j):
        f = self.target.field
        out = [f.zero] * self.target.dim
        for k, c in self.source.mult[i][j]:
            col = [row[k] for row in self.rows]
            for t, v in enumerate(col):
                if v:
                    out[t] = out[t] + c * v
        return AlgebraElement(self.target, out)

    def assert_multiplicative(self):
        """Raises NotMultiplicative unless T is multiplicative and unital:
        T(1) = 1 and T L_g = L_{T(g)} T for every g in the generating set of
        the source (proof as in assert_anti_multiplicative)."""
        w = self.multiplicative_witness()
        if w is not None:
            raise NotMultiplicative(f"map is not multiplicative {_describe(w)}", witness=w)

    def assert_anti_multiplicative(self):
        """Raises NotAntiMultiplicative unless T is anti-multiplicative and
        unital, checked in matrix form on the generating set G of the source
        (Algebra.generating_set).

        T is anti-multiplicative with T(1) = 1 if and only if T(1) = 1 and
        T L_g = R_{T(g)} T for every g in G, where L and R are the left and
        right multiplication matrices.  Sufficiency: call g good when
        T(g x) = T(x) T(g) for all x.  If g and h are good, then
        T(g h x) = T(h x) T(g) = T(x) T(h) T(g), and x = 1 gives
        T(g h) = T(h) T(g), so g h is good; 1 is good as T(1) = 1.  The good
        elements form a unital subalgebra containing G, which is everything.
        T(1) = 1 is not implied: the zero map passes every other check.
        """
        w = self.anti_multiplicative_witness()
        if w is not None:
            raise NotAntiMultiplicative(
                f"map is not anti-multiplicative {_describe(w)}", witness=w
            )

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return linalg.mat_eq(self.rows, other.rows, self.target.field)

    __hash__ = None

    def __repr__(self):
        return f"LinearMap({self.source!r} -> {self.target!r})"


def _comparison(field, scale):
    """Equality of two scalars: literal in exact mode, up to
    tol * max(1, scale) in float mode."""
    if field.is_exact:
        return lambda x, y: x == y
    return lambda x, y: field.negligible(x - y, scale)


def _describe(witness):
    if witness == "unit":
        return "on the unit: T(1) != 1"
    return f"at basis pair {witness}"


def identity_map(a: Algebra) -> LinearMap:
    return LinearMap(a, a, linalg.identity(a.dim, a.field))


# -- constructors ---------------------------------------------------------------

_matrix_algebra_cache = {}


def matrix_algebra(n: int, with_star: bool = False, field=EXACT) -> Algebra:
    """The full matrix algebra of size n with matrix-unit basis e_ij.

    The unit is the sum of the diagonal units; the star, when requested,
    is the conjugate transpose e_ij -> e_ji.
    """
    if n < 1:
        raise SepidemError("matrix algebra needs n >= 1")
    key = (n, with_star, field)
    cached = _matrix_algebra_cache.get(key)
    if cached is not None:
        return cached
    sep = "" if n <= 9 else "_"
    labels = [f"e{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]
    one = field.one
    idx = lambda i, j: i * n + j
    mult = [[() for _ in range(n * n)] for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mult[idx(i, j)][idx(k, l)] = ((idx(i, l), one),)
    unit = [field.zero] * (n * n)
    for i in range(n):
        unit[idx(i, i)] = one
    star = None
    if with_star:
        star = [[field.zero] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                star[idx(j, i)][idx(i, j)] = one
    a = Algebra(field, labels, mult, unit, star, blocks=[n])
    _matrix_algebra_cache[key] = a
    return a


def direct_sum(components) -> Algebra:
    """Block-diagonal sum: basis is the disjoint union, cross products vanish.

    The sum is valid by construction, so Algebra._validate is not run on
    it.  Each component is an Algebra, whose laws its own construction
    proved; the sum's table, unit and star are block-diagonal copies of
    theirs, with indices shifted into range.
    * Associativity: a basis triple within one component multiplies as
      in that component; any other triple has a factor pair from two
      components, whose product is 0, and a product within a component
      stays in it, so both bracketings are 0.
    * Unit: 1 = sum of the units 1_a, and 1 b = 1_a b = b = b 1 for b in
      component a, since 1_a' b = 0 = b 1_a' for a' != a.
    * Star (when every component has one): it maps each component into
      itself, so it is involutive and fixes each 1_a, hence 1; and
      (b_i b_j)* = b_j* b_i* holds within a component and reads 0 = 0
      across two.
    * Blocks (when every component has them): the table is the
      matrix-unit table of the concatenated block list, each block at
      its shifted offset, and the unit the sum of its diagonal units.
    Algebra(...) called on the same presentation validates all of this
    and builds an equal algebra.
    """
    components = list(components)
    if not components:
        raise SepidemError("direct sum needs at least one component")
    field = common_field(*[c.field for c in components])
    offsets, labels, unit = [], [], []
    o = 0
    for a, comp in enumerate(components):
        offsets.append(o)
        labels.extend(f"{a + 1}:{lab}" for lab in comp.labels)
        unit.extend(comp.unit)
        o += comp.dim
    dim = o
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for a, comp in enumerate(components):
        off = offsets[a]
        for i in range(comp.dim):
            for j in range(comp.dim):
                mult[off + i][off + j] = tuple((off + k, c) for k, c in comp.mult[i][j])
    star = None
    if all(c.star_matrix is not None for c in components):
        star = [[field.zero] * dim for _ in range(dim)]
        for a, comp in enumerate(components):
            off = offsets[a]
            for k in range(comp.dim):
                for i in range(comp.dim):
                    star[off + k][off + i] = comp.star_matrix[k][i]
    blocks = None
    if all(c.blocks is not None for c in components):
        blocks = [n for c in components for n in c.blocks]
    return Algebra._valid_by_construction(field, labels, mult, unit, star, blocks)


def structure_constant_algebra(constants, unit, labels=None, field=EXACT,
                               star_matrix=None) -> Algebra:
    """Algebra from a dense structure-constant tensor c[i][j][k]
    (b_i b_j = sum_k c[i][j][k] b_k).  Verifies associativity and
    unitality before returning; the unit makes the product non-degenerate
    (see product_degeneracy_witness)."""
    dim = len(constants)
    if labels is None:
        labels = [f"b{i + 1}" for i in range(dim)]
    if any(len(row) != dim for row in constants) or any(
        len(cell) != dim for row in constants for cell in row
    ):
        raise SepidemError("structure constant tensor is not well shaped")
    mult = [
        [
            tuple((k, c) for k, c in enumerate(map(field.coerce, cell)) if not field.is_zero(c))
            for cell in row
        ]
        for row in constants
    ]
    return Algebra(field, labels, mult, unit, star_matrix, blocks=None)


def product_degeneracy_witness(mult, dim, field):
    """Nonzero x with x*A = 0 or A*x = 0, from a raw sparse table.

    Returns (side, coeffs) or None.  Unital tables can never be degenerate
    (left multiplication by x sends the unit to x), so this only fires on
    raw non-unital inputs.
    """
    zero = field.zero
    left = [[zero] * dim for _ in range(dim * dim)]
    right = [[zero] * dim for _ in range(dim * dim)]
    for j in range(dim):
        for i in range(dim):
            for k, c in mult[j][i]:
                left[k * dim + i][j] = left[k * dim + i][j] + c
            for k, c in mult[i][j]:
                right[k * dim + i][j] = right[k * dim + i][j] + c
    kern = linalg.nullspace(left, field)
    if kern:
        return ("left", kern[0])
    kern = linalg.nullspace(right, field)
    if kern:
        return ("right", kern[0])
    return None


def transpose_anti_map(a: Algebra) -> LinearMap:
    """Block-wise transposition of matrix units; an involutive
    anti-isomorphism of any multi-matrix algebra."""
    if a.blocks is None:
        raise NoBlockPresentation("transpose map needs a block presentation")
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for t in range(a.dim):
        al, i, j = a.block_coordinates(t)
        rows[a.unit_index(al, j, i)][t] = a.field.one
    s0 = LinearMap(a, a, rows)
    s0.assert_anti_multiplicative()
    return s0


def trace_functional(a: Algebra) -> LinearFunctional:
    """Block-wise matrix trace; the value on the unit is the sum of the
    block sizes."""
    if a.blocks is None:
        raise NoBlockPresentation("trace needs a block presentation")
    cov = [a.field.zero] * a.dim
    for t in range(a.dim):
        al, i, j = a.block_coordinates(t)
        if i == j:
            cov[t] = a.field.one
    return LinearFunctional(a, cov)


def element_from_matrix(a: Algebra, entries) -> AlgebraElement:
    """Element of a single-block matrix algebra from an n x n entry grid."""
    if a.blocks is None or len(a.blocks) != 1:
        raise NoBlockPresentation("expected a single matrix block")
    n = a.blocks[0]
    if len(entries) != n or any(len(r) != n for r in entries):
        raise SepidemError(f"expected an {n} x {n} matrix")
    coeffs = [a.field.zero] * a.dim
    for i in range(n):
        for j in range(n):
            coeffs[a.unit_index(0, i, j)] = a.field.coerce(entries[i][j])
    return AlgebraElement(a, coeffs)


def element_as_matrix(x: AlgebraElement):
    """Entry grid of an element of a single-block matrix algebra."""
    a = x.algebra
    if a.blocks is None or len(a.blocks) != 1:
        raise NoBlockPresentation("expected a single matrix block")
    n = a.blocks[0]
    return [[x.coeffs[a.unit_index(0, i, j)] for j in range(n)] for i in range(n)]
