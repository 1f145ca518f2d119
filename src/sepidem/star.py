"""Involutive checks, positivity, GNS data, and block decomposition.

Everything here presumes star structures on both algebras.  The Gram
matrix of a functional is tested for positive semidefiniteness by
Hermitian pivoting (linalg.hermitian_psd), literally over the Gaussian
rationals in exact mode and up to the field's tolerance in float mode;
no eigenvalue is computed in either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg
from .algebra import (
    AlgebraElement,
    LinearFunctional,
    LinearMap,
    element_from_matrix,
    matrix_algebra,
)
from .engine import CheckOutcome, SeparabilityCertificate, _certificate, _pivot, _remember, certify
from .errors import (
    CrossBlockLeakage,
    GramNotPositiveDefinite,
    InequalityViolation,
    NoBlockPresentation,
    ReconstructionMismatch,
    SepidemError,
    TwistError,
)
from .integrals import DerivedData, derive_all
from .tensor import TensorElement


def check_self_adjoint(e: TensorElement) -> bool:
    """E* = E with the componentwise star on the tensor product."""
    return e.star() == e


def check_antipode_star_relations(s: LinearMap, sp: LinearMap) -> CheckOutcome:
    """S'(S(b)*)* = b and S(S'(c)*)* = c on all basis elements; these are
    forced by self-adjointness of E."""
    B, C = s.source, s.target
    failures = []
    for k in range(B.dim):
        b = B.basis_element(k)
        if sp(s(b).star()).star() != b:
            failures.append(("B", B.labels[k]))
    for l in range(C.dim):
        c = C.basis_element(l)
        if s(sp(c).star()).star() != c:
            failures.append(("C", C.labels[l]))
    return CheckOutcome(not failures, failures or None)


def check_integral_self_adjoint(fun: LinearFunctional, modular: LinearMap = None) -> CheckOutcome:
    """f(c*) = conj(f(c)) on all basis elements; with the modular
    automorphism supplied, also sigma(c*) = sigma^-1(c)*."""
    a = fun.algebra
    f = a.field
    failures = []
    for j in range(a.dim):
        c = a.basis_element(j)
        if not f.eq(fun(c.star()), f.conj(fun(c))):
            failures.append(("self-adjoint", a.labels[j]))
    if modular is not None:
        inv = modular.inverse()
        for j in range(a.dim):
            c = a.basis_element(j)
            if modular(c.star()) != inv(c).star():
                failures.append(("modular-star", a.labels[j]))
    return CheckOutcome(not failures, failures or None)


def gram_matrix(fun: LinearFunctional):
    """G[i][j] = f(b_i* b_j) over the functional's algebra."""
    a = fun.algebra
    stars = [a.basis_element(i).star() for i in range(a.dim)]
    return [
        [fun(stars[i] * a.basis_element(j)) for j in range(a.dim)]
        for i in range(a.dim)
    ]


def check_positive(fun: LinearFunctional):
    """Positive semidefiniteness of the Gram matrix.  Returns (ok, gram)."""
    a = fun.algebra
    g = gram_matrix(fun)
    if not linalg.is_hermitian(g, a.field):
        return False, g
    ok, _ = linalg.hermitian_psd(g, a.field)
    return ok, g


def check_positivity_transfer(data: DerivedData) -> CheckOutcome:
    """psi(b* b) = phi(S(b)* S(b)) on all basis elements: the identity that
    carries positivity from one integral to the other."""
    B = data.element.left
    f = B.field
    failures = []
    for k in range(B.dim):
        b = B.basis_element(k)
        lhs = data.right_integral(b.star() * b)
        sb = data.antipode(b)
        rhs = data.left_integral(sb.star() * sb)
        if not f.eq(lhs, rhs):
            failures.append(B.labels[k])
    return CheckOutcome(not failures, failures or None)


def _gram_operand(g, field):
    """The Gram matrix as an operand of linalg.multilinear: in exact mode
    integer numerators over one common denominator."""
    return linalg.split([[(j, v) for j, v in enumerate(row) if v] for row in g], field)


def _quadform(g, x, field):
    """f(x* x) through the Gram matrix operand g: sum conj(x_i) G[i][j] x_j,
    accumulated on integer numerators in exact mode."""
    items = [(i, c) for i, c in enumerate(x) if c]
    xc = linalg.split([[(i, field.conj(c)) for i, c in items]], field)
    return linalg.multilinear_values(_quadform_kernel, 1, 1, field, xc, g,
                                     linalg.split([items], field))[0][0]


def _quadform_kernel(out, xc, g, x):
    dense = dict(x[0])
    acc = out[0][0]
    for i, ci in xc[0]:
        s = 0
        for j, gij in g[i]:
            xj = dense.get(j)
            if xj:
                s += gij * xj
        acc += ci * s
    out[0][0] = acc


def _le(field, lhs, rhs, witness):
    for v in (lhs, rhs):
        if not field.is_real(v):
            raise InequalityViolation((witness, "non-real value"))
    if field.is_exact:
        if field.real(lhs) > field.real(rhs):
            raise InequalityViolation(witness)
    else:
        if lhs.real > rhs.real + field.tol * max(1.0, abs(lhs), abs(rhs)):
            raise InequalityViolation(witness)


def check_cauchy_bound(data: DerivedData, samples, rng=None) -> int:
    """The Cauchy-Schwarz-type bound forced by E <= 1:
    phi(c* c1* c1 c) <= phi(c1 c1*) phi(c* c), and its mirror on the other
    algebra.  samples is a count (with rng) or an explicit list of
    (c, c1, b, b1) element tuples.  Returns the number of tuples checked;
    violations raise InequalityViolation."""
    B, C = data.element.left, data.element.right
    f = B.field
    gc = _gram_operand(gram_matrix(data.left_integral), f)
    gb = _gram_operand(gram_matrix(data.right_integral), f)
    if isinstance(samples, int):
        if rng is None:
            raise SepidemError("a sample count needs an rng")
        from .constructions import random_element

        pairs = [(random_element(C, rng), random_element(C, rng),
                  random_element(B, rng), random_element(B, rng)) for _ in range(samples)]
    else:
        pairs = samples
    for idx, (c, c1, b, b1) in enumerate(pairs):
        w = c1 * c
        lhs = _quadform(gc, w.coeffs, f)
        rhs = _quadform(gc, c1.star().coeffs, f) * _quadform(gc, c.coeffs, f)
        _le(f, lhs, rhs, ("C", idx))
        v = b1 * b
        lhs = _quadform(gb, v.coeffs, f)
        rhs = _quadform(gb, b1.star().coeffs, f) * _quadform(gb, b.coeffs, f)
        _le(f, lhs, rhs, ("B", idx))
    return len(pairs)


@dataclass(frozen=True)
class GnsData:
    gram: tuple
    operators: tuple        # left-multiplication matrices of the basis
    injective: bool
    pairs_checked: int


def gns_data(fun: LinearFunctional, rng=None, extra_samples: int = 0) -> GnsData:
    """Finite GNS data of a positive faithful functional.

    The Gram matrix must be positive definite; the left-multiplication
    operators represent the algebra on itself with inner product
    <x, y> = f(y* x).  Verifies the adjoint law G L_c = L_{c*}^H G on all
    basis elements and the norm bound
    ||pi(c) Lambda(c')||^2 <= f(c c*) ||Lambda(c')||^2 on all basis pairs
    (plus optional random samples)."""
    a = fun.algebra
    f = a.field
    g = gram_matrix(fun)
    if not linalg.is_hermitian(g, f) or not linalg.hermitian_pd(g, f):
        raise GramNotPositiveDefinite("the Gram matrix of the functional is not positive definite")
    ops = [a.left_mult_matrix(a.basis_element(j).coeffs) for j in range(a.dim)]
    for j in range(a.dim):
        star_j = a.basis_element(j).star()
        l_star = a.left_mult_matrix(star_j.coeffs)
        lhs = linalg.mat_mul(g, ops[j], f)
        rhs = linalg.mat_mul(linalg.conj_transpose(l_star), g, f)
        if not linalg.mat_eq(lhs, rhs, f):
            raise SepidemError(f"adjoint law fails for basis element {a.labels[j]}")
    flat = [
        [ops[j][k][i] for j in range(a.dim)]
        for k in range(a.dim)
        for i in range(a.dim)
    ]
    injective = linalg.rank(flat, f) == a.dim
    pairs = [(a.basis_element(i), a.basis_element(j))
             for i in range(a.dim) for j in range(a.dim)]
    if extra_samples and rng is not None:
        from .constructions import random_element

        pairs += [(random_element(a, rng), random_element(a, rng))
                  for _ in range(extra_samples)]
    gram = _gram_operand(g, f)
    for idx, (c, cp) in enumerate(pairs):
        w = c * cp
        lhs = _quadform(gram, w.coeffs, f)
        rhs = _quadform(gram, c.star().coeffs, f) * _quadform(gram, cp.coeffs, f)
        _le(f, lhs, rhs, ("gns-bound", idx))
    return GnsData(
        gram=tuple(tuple(r) for r in g),
        operators=tuple(tuple(tuple(r) for r in op) for op in ops),
        injective=injective,
        pairs_checked=len(pairs),
    )


@dataclass(frozen=True)
class TwistData:
    r: AlgebraElement
    s: AlgebraElement


def recover_twist(e: TensorElement) -> TwistData:
    """Invert the twist construction on a single matrix block.

    The coefficient of e_kl (x) e_ij in E = (r (x) 1) E0 (s (x) 1) is
    r_ki s_jl / n, so r and s are read off E itself.  Pin a position
    (e_kl, e_ij) where E is nonzero (the first one in exact mode, the
    largest in float mode, the pivot rule of verify_idempotent) with value
    v: then r_ab = E(e_al, e_bj) and s_ab = n E(e_kb, e_ia) / v are
    multiples of r and s by l and 1/l for some scalar l.  The gauge
    normalizes the first nonzero entry of r to 1 and scales s so that
    tr(s r) = n; when tr(s r) = 0, the nilpotent variant, s stays as E pins
    it.  Both must be invertible, and E = (r (x) 1) E0 (s (x) 1) is asserted
    exactly, entry by entry.

    That assertion is the proof: whatever E is, the returned pair
    reproduces it.  A twist determines its pair up to (l r, s / l), since
    r_ki s_jl = r'_ki s'_jl for all indices makes r' and s' multiples of r
    and s with reciprocal factors; the gauge fixes l.  So the result is the
    pair of the intertwiner description (S'(c) = r S0(c) r^-1 and
    S(b) = S0(s b s^-1), S0 the transposition) in the same gauge, without
    solving for it.
    """
    B, C = e.left, e.right
    if B.blocks is None or len(B.blocks) != 1 or C.blocks != B.blocks:
        raise NoBlockPresentation(
            "twist recovery needs a single matrix block on both sides; decompose first"
        )
    if B != C:
        raise SepidemError("twist recovery identifies the two tensor legs; presentations must agree")
    f = e.field
    n = B.blocks[0]
    pin = _pivot(e)
    if pin is None:
        raise ReconstructionMismatch("cannot pin the twist scale on a zero element")
    rows = e.rows
    (k, l), (i, j) = divmod(pin[0], n), divmod(pin[1], n)
    scale = f.coerce(n) / rows[pin[0]][pin[1]]
    r = [[rows[a * n + l][b * n + j] for b in range(n)] for a in range(n)]
    s = [[scale * rows[k * n + b][i * n + a] for b in range(n)] for a in range(n)]
    # gauge: first nonzero entry of r becomes 1, then tr(s r) = n unless it is 0
    pivot = next(c for row in r for c in row if c)
    r = [[c / pivot for c in row] for row in r]
    s = [[pivot * c for c in row] for row in s]
    t = sum(s[a][b] * r[b][a] for a in range(n) for b in range(n))
    if not f.is_zero(t):
        s = [[(f.coerce(n) / t) * c for c in row] for row in s]
    for name, m in (("r", r), ("s", s)):
        rank = linalg.rank(m, f)
        if rank < n:
            raise TwistError(f"recovered twist is not invertible: {name} has rank {rank} < {n}")
    inv_n = f.one / f.coerce(n)
    twist = [[inv_n * r[a][b] * s[c][d] for b in range(n) for c in range(n)]
             for a in range(n) for d in range(n)]
    if TensorElement._raw(B, C, twist) != e:
        raise ReconstructionMismatch("(r (x) 1) E0 (s (x) 1) does not reproduce the element")
    return TwistData(element_from_matrix(B, r), element_from_matrix(B, s))


@dataclass(frozen=True)
class BlockData:
    index: int
    size: int
    element: TensorElement
    certificate: SeparabilityCertificate
    twist: TwistData


def decompose_blocks(e: TensorElement) -> list:
    """Split a certified element over aligned multi-matrix algebras into
    its per-block components and recover each block's twist.

    The coefficient matrix M must vanish across blocks
    (CrossBlockLeakage).  e's data come from derive_all(e), which refuses
    an element that does not certify (RefusedForMode), and the four maps
    restricted into the blocks, the global S, S', S^-1 and S'^-1, must
    vanish across blocks too.  Each component E_a then gets in its memo
    the restrictions of those maps, phi and psi, the fullness, the
    idempotency verdict and the certificate; certify(E_a) reads them, and
    recover_twist's reconstruction of E_a is the only check run per block.

    The restrictions are E_a's own data.  With no entry across blocks,
    E = sum of the E_a, and products across blocks vanish, so:

    * E^2 = lambda E (the verdict, unless of kind "other") gives
      E_a^2 = lambda E_a.
    * M = diag(M_a) invertible (fullness) makes every M_a invertible, so
      E_a is full.
    * M phi = 1_B restricts to M_a phi_a = 1_{B_a}, and M^T psi = 1_C
      likewise.  c_j c_l = 0 across blocks, so F_phi and F_psi are
      block-diagonal, and so are S = M^T F_psi, S', S^-1 and S'^-1 (engine
      module docstring), their blocks being the same formulas for E_a.
    * What _verify_map proved restricts block by block.  Absorption: for
      b in B_a, (b (x) 1) and (1 (x) S(b)) annihilate every other E_a'.
      The unit: the S(1_a) lie in the blocks C_a and sum to 1, so
      S(1_a) = 1_a.  Anti-multiplicativity and S^-1 S = id hold on each
      block as on the whole.  S' likewise.
    * z = 1 gives z_a = 1_a, so each block certifies as E does: its
      certificate is E's with S, S' and z restricted to the block.

    In float mode the same holds up to the comparison tolerance, which
    the leakage checks apply.  An element over one matrix block is its own
    component, and its memo already holds all of this, its certificate
    included.
    """
    B, C = e.left, e.right
    if B.blocks is None or C.blocks is None:
        raise NoBlockPresentation("both algebras need block presentations")
    if B.blocks != C.blocks:
        raise SepidemError("block size lists are not aligned")
    f = e.field
    bounds_b = _block_ranges(B)
    bounds_c = _block_ranges(C)
    block_of_b = _block_lookup(bounds_b, B.dim)
    block_of_c = _block_lookup(bounds_c, C.dim)
    for i, j, c in e.nonzero_items():
        if not f.is_zero(c) and block_of_b[i] != block_of_c[j]:
            raise CrossBlockLeakage(block_of_b[i], block_of_c[j], (i, j))
    data = derive_all(e)
    for name, t, rows, cols in [
        ("S", data.antipode, bounds_c, bounds_b),
        ("S'", data.reverse_antipode, bounds_b, bounds_c),
        ("S^-1", data.antipode_inverse, bounds_b, bounds_c),
        ("S'^-1", data.reverse_antipode_inverse, bounds_c, bounds_b),
    ]:
        _assert_block_diagonal(name, t.rows, rows, cols, f)
    with_star = B.star_matrix is not None and C.star_matrix is not None
    out = []
    for a_idx, n in enumerate(B.blocks):
        comp_alg = matrix_algebra(n, with_star=with_star, field=f)
        if B == comp_alg == C:  # a single block: the element itself, with its memo
            comp = e
        else:
            comp = _restriction(e, data, comp_alg, bounds_b[a_idx], bounds_c[a_idx])
        out.append(BlockData(a_idx, n, comp, certify(comp), recover_twist(comp)))
    return out


def _block_ranges(a):
    offs = a.block_offsets()
    return [(o, o + n * n) for o, n in zip(offs, a.blocks)]


def _block_lookup(bounds, dim):
    look = [None] * dim
    for a_idx, (lo, hi) in enumerate(bounds):
        for t in range(lo, hi):
            look[t] = a_idx
    return look


def _assert_block_diagonal(name, rows, row_bounds, col_bounds, f):
    """A global map's matrix vanishes outside its diagonal blocks."""
    for a_idx, (lo, hi) in enumerate(row_bounds):
        for other, (clo, chi) in enumerate(col_bounds):
            if other != a_idx and any(not f.is_zero(v) for row in rows[lo:hi]
                                      for v in row[clo:chi]):
                raise SepidemError(f"global {name} leaks across block {min(a_idx, other)}")


def _restriction(e, data, alg, rb, rc):
    """The component of e on the blocks rb of B and rc of C, over alg, with
    its memo filled by restriction (proof in decompose_blocks)."""
    comp = TensorElement._raw(alg, alg, _block(e.rows, rb, rc))
    maps = {}
    for side, t, t_inv, target, source in (
            ("right", data.antipode, data.antipode_inverse, rc, rb),
            ("left", data.reverse_antipode, data.reverse_antipode_inverse, rb, rc)):
        maps[side] = LinearMap(alg, alg, _block(t.rows, target, source))
        _remember(comp, "map", maps[side], side)
        _remember(comp, "inverse", LinearMap(alg, alg, _block(t_inv.rows, source, target)), side)
    for side, fun, (lo, hi) in (("left", data.left_integral, rc),
                                ("right", data.right_integral, rb)):
        cov = fun.covector[lo:hi]
        _remember(comp, "covector", cov, side)
        _remember(comp, "integral", LinearFunctional(alg, cov), side)
    cert = _certificate(e)
    _remember(comp, "full", cert.full)
    _remember(comp, "verdict", cert.idempotency)
    z, (lo, hi) = cert.central_element, rc
    _remember(comp, "certificate", replace(
        cert, antipode=maps["right"], reverse_antipode=maps["left"],
        central_element=AlgebraElement(alg, z.coeffs[lo:hi])))
    return comp


def _block(rows, row_range, col_range):
    (lo, hi), (clo, chi) = row_range, col_range
    return [row[clo:chi] for row in rows[lo:hi]]
