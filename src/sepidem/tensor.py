"""Elements of the tensor product of two algebras.

A TensorElement over (B, C) is stored as its coefficient matrix: entry
(i, j) is the coefficient of b_i (x) c_j.  Both algebras are unital and
finite-dimensional here, so the multiplier algebra of B (x) C is B (x) C
itself and the one-sided product conditions are automatic; they are still
exposed (mult_sided) because every derivation is phrased through them.
"""

from __future__ import annotations

from . import linalg
from .algebra import Algebra, AlgebraElement, LinearFunctional, LinearMap
from .errors import BackendMismatch, NoStarStructure, SepidemError
from .scalars import common_field


class TensorElement:
    # _derivation: the per-element memo of engine._derived, made on first use
    __slots__ = ("left", "right", "rows", "_derivation")

    def __init__(self, left: Algebra, right: Algebra, rows):
        common_field(left.field, right.field)
        self.left = left
        self.right = right
        f = left.field
        self.rows = tuple(tuple(f.coerce(c) for c in row) for row in rows)
        self._derivation = None
        if len(self.rows) != left.dim or any(len(r) != right.dim for r in self.rows):
            raise SepidemError("coefficient matrix has the wrong shape")

    @classmethod
    def _raw(cls, left, right, rows):
        # internal fast path: rows already hold field scalars
        t = object.__new__(cls)
        t.left = left
        t.right = right
        t.rows = tuple(tuple(r) for r in rows)
        t._derivation = None
        return t

    @property
    def field(self):
        return self.left.field

    def _check(self, other):
        if self.left != other.left or self.right != other.right:
            raise BackendMismatch("tensor elements live over different algebra pairs")

    def _check_b(self, x):
        if x.algebra != self.left:
            raise BackendMismatch("element is not in the left algebra")

    def _check_c(self, x):
        if x.algebra != self.right:
            raise BackendMismatch("element is not in the right algebra")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return TensorElement._raw(
            self.left,
            self.right,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._check(other)
        return TensorElement._raw(
            self.left,
            self.right,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return TensorElement._raw(self.left, self.right, [[-a for a in r] for r in self.rows])

    def scale(self, scalar):
        s = self.field.coerce(scalar)
        return TensorElement._raw(self.left, self.right, [[s * a for a in r] for r in self.rows])

    __rmul__ = scale

    # -- multiplicative structure --------------------------------------------

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_mul(self, other)
        return self.scale(other)

    def lmul_b(self, x: AlgebraElement) -> "TensorElement":
        """(x (x) 1) * self"""
        self._check_b(x)
        m = linalg.mat_mul(self.left.left_mult_matrix(x.coeffs),
                           [list(r) for r in self.rows], self.field)
        return TensorElement._raw(self.left, self.right, m)

    def rmul_b(self, x: AlgebraElement) -> "TensorElement":
        """self * (x (x) 1)"""
        self._check_b(x)
        m = linalg.mat_mul(self.left.right_mult_matrix(x.coeffs),
                           [list(r) for r in self.rows], self.field)
        return TensorElement._raw(self.left, self.right, m)

    def lmul_c(self, x: AlgebraElement) -> "TensorElement":
        """(1 (x) x) * self"""
        self._check_c(x)
        lt = linalg.transpose(self.right.left_mult_matrix(x.coeffs))
        m = linalg.mat_mul([list(r) for r in self.rows], lt, self.field)
        return TensorElement._raw(self.left, self.right, m)

    def rmul_c(self, x: AlgebraElement) -> "TensorElement":
        """self * (1 (x) x)"""
        self._check_c(x)
        rt = linalg.transpose(self.right.right_mult_matrix(x.coeffs))
        m = linalg.mat_mul([list(r) for r in self.rows], rt, self.field)
        return TensorElement._raw(self.left, self.right, m)

    # -- star -----------------------------------------------------------------

    def star(self) -> "TensorElement":
        """Componentwise star (b (x) c)* = b* (x) c*."""
        f = self.field
        sb = self.left.star_matrix
        sc = self.right.star_matrix
        if sb is None or sc is None:
            raise NoStarStructure("both algebras need a star structure")
        conj_rows = [[f.conj(c) for c in row] for row in self.rows]
        m = linalg.mat_mul([list(r) for r in sb], conj_rows, f)
        m = linalg.mat_mul(m, linalg.transpose([list(r) for r in sc]), f)
        return TensorElement._raw(self.left, self.right, m)

    # -- predicates -------------------------------------------------------------

    def is_zero(self):
        f = self.field
        return all(f.is_zero(c) for r in self.rows for c in r)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.left != other.left or self.right != other.right:
            return False
        return linalg.mat_eq(self.rows, other.rows, self.field)

    __hash__ = None

    def nonzero_items(self):
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c:
                    yield (i, j, c)

    def to_field(self, field) -> "TensorElement":
        src = self.field
        lb = self.left.to_field(field)
        rc = self.right.to_field(field)
        if field.is_exact:
            rows = [[field.coerce(c) for c in row] for row in self.rows]
        else:
            rows = [[field.coerce(src.to_complex(c)) for c in row] for row in self.rows]
        return TensorElement(lb, rc, rows)

    def __repr__(self):
        f = self.field
        terms = []
        for i, j, c in self.nonzero_items():
            if not f.is_zero(c):
                terms.append(f"{c}*{self.left.labels[i]}(x){self.right.labels[j]}")
        body = " + ".join(terms) if terms else "0"
        return f"TensorElement({body})"


def zero_tensor(left: Algebra, right: Algebra) -> TensorElement:
    z = left.field.zero
    return TensorElement(left, right, [[z] * right.dim for _ in range(left.dim)])


def simple_tensor(b: AlgebraElement, c: AlgebraElement) -> TensorElement:
    rows = [[bi * cj if bi and cj else b.algebra.field.zero for cj in c.coeffs] for bi in b.coeffs]
    return TensorElement(b.algebra, c.algebra, rows)


def unit_tensor(left: Algebra, right: Algebra) -> TensorElement:
    return simple_tensor(left.one(), right.one())


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Product in B (x) C via the structure constants of both factors."""
    x._check(y)
    return TensorElement._raw(x.left, x.right,
                              x.left.tensor_product_rows(x.right, x.rows, y.rows))


def mult_sided(e: TensorElement, position: str, x: AlgebraElement) -> TensorElement:
    """One-sided product with a simple multiplier.

    position: "left_b" -> (x (x) 1) E     "right_b" -> E (x (x) 1)
              "left_c" -> (1 (x) x) E     "right_c" -> E (1 (x) x)
    """
    if position in ("left_b", "right_b"):
        return e.lmul_b(x) if position == "left_b" else e.rmul_b(x)
    if position in ("left_c", "right_c"):
        return e.lmul_c(x) if position == "left_c" else e.rmul_c(x)
    raise SepidemError(f"unknown position {position!r}")


class Subspace:
    """Subspace of an algebra, canonically presented.

    The stored basis is the reduced row echelon form of the spanning
    coefficient vectors, so two Subspaces are equal iff they agree setwise.
    """

    __slots__ = ("algebra", "basis")

    def __init__(self, algebra: Algebra, spanning_vectors):
        self.algebra = algebra
        rows = [list(v) for v in spanning_vectors]
        if rows:
            reduced, _ = linalg.reduced_echelon(rows, algebra.field)
        else:
            reduced = []
        self.basis = tuple(tuple(r) for r in reduced)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, x: AlgebraElement) -> bool:
        if x.algebra != self.algebra:
            return False
        rows = [list(b) for b in self.basis]
        return linalg.rank(rows + [list(x.coeffs)], self.algebra.field) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.algebra != other.algebra or self.dim != other.dim:
            return False
        f = self.algebra.field
        return all(
            f.eq(a, b) for ra, rb in zip(self.basis, other.basis) for a, b in zip(ra, rb)
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.algebra!r})"


def left_leg(e: TensorElement) -> Subspace:
    """Smallest subspace V of B with E in V (x) C: the column space of the
    coefficient matrix."""
    cols = [[e.rows[i][j] for i in range(e.left.dim)] for j in range(e.right.dim)]
    return Subspace(e.left, cols)


def right_leg(e: TensorElement) -> Subspace:
    """Smallest subspace W of C with E in B (x) W: the row space."""
    return Subspace(e.right, [list(r) for r in e.rows])


def is_full(e: TensorElement) -> bool:
    """Both legs equal their whole algebra.  Needs dim B = dim C = rank."""
    rank = linalg.rank([list(row) for row in e.rows], e.field)
    return rank == e.left.dim and rank == e.right.dim


def slice_left(omega: LinearFunctional, e: TensorElement) -> AlgebraElement:
    """(omega (x) id) E, an element of C."""
    if omega.algebra != e.left:
        raise BackendMismatch("functional does not live on the left algebra")
    cov = linalg.vec_mat(list(omega.covector), [list(r) for r in e.rows], e.field)
    return AlgebraElement(e.right, cov)


def slice_right(e: TensorElement, omega: LinearFunctional) -> AlgebraElement:
    """(id (x) omega) E, an element of B."""
    if omega.algebra != e.right:
        raise BackendMismatch("functional does not live on the right algebra")
    vec = linalg.mat_vec([list(r) for r in e.rows], list(omega.covector), e.field)
    return AlgebraElement(e.left, vec)


def swap_and_map(e: TensorElement, f: LinearMap, g: LinearMap) -> TensorElement:
    """flip((f (x) g) E) as an element of B (x) C, for f: B -> C, g: C -> B.

    With M the coefficient matrix of E, the result is g.rows @ M^T @ f.rows^T;
    comparing it against E states the swap identity for the pair (f, g).
    """
    if f.source != e.left or f.target != e.right:
        raise BackendMismatch("first map must go from the left to the right algebra")
    if g.source != e.right or g.target != e.left:
        raise BackendMismatch("second map must go from the right to the left algebra")
    fld = e.field
    mt = linalg.transpose([list(r) for r in e.rows])
    m = linalg.mat_mul([list(r) for r in g.rows], mt, fld)
    m = linalg.mat_mul(m, linalg.transpose([list(r) for r in f.rows]), fld)
    return TensorElement._raw(e.left, e.right, m)
