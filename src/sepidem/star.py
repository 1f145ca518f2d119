"""Involutive checks, positivity, GNS data, and block decomposition.

Everything here presumes star structures on both algebras.  Positivity is
decided exactly: the Gram matrix of a functional is tested for positive
semidefiniteness by Hermitian pivoting over the Gaussian rationals, never
through eigenvalues (those only appear in float mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    AlgebraElement,
    LinearFunctional,
    LinearMap,
    matrix_algebra,
    trace_functional,
    transpose_anti_map,
)
from .engine import (CheckOutcome, SeparabilityCertificate, _derived, _inverse_map, _map,
                     certify, integral_covector)
from .errors import (
    CrossBlockLeakage,
    GramNotPositiveDefinite,
    InequalityViolation,
    NoBlockPresentation,
    NotInvertible,
    ReconstructionMismatch,
    SepidemError,
    SolutionSpaceDimensionNotOne,
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


def check_positivity_transfer(e: TensorElement, data: DerivedData = None) -> CheckOutcome:
    """psi(b* b) = phi(S(b)* S(b)) on all basis elements: the identity that
    carries positivity from one integral to the other."""
    if data is None:
        data = derive_all(e)
    B = e.left
    f = e.field
    failures = []
    for k in range(B.dim):
        b = B.basis_element(k)
        lhs = data.right_integral(b.star() * b)
        sb = data.antipode(b)
        rhs = data.left_integral(sb.star() * sb)
        if not f.eq(lhs, rhs):
            failures.append(B.labels[k])
    return CheckOutcome(not failures, failures or None)


def _quadform(g, x, field):
    """f(x* x) through the Gram matrix: sum conj(x_i) G[i][j] x_j."""
    acc = field.zero
    for i, xi in enumerate(x):
        if not xi:
            continue
        ci = field.conj(xi)
        row = g[i]
        for j, xj in enumerate(x):
            if xj and row[j]:
                acc = acc + ci * row[j] * xj
    return acc


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


def check_cauchy_bound(e: TensorElement, samples, rng=None, data: DerivedData = None) -> int:
    """The Cauchy-Schwarz-type bound forced by E <= 1:
    phi(c* c1* c1 c) <= phi(c1 c1*) phi(c* c), and its mirror on the other
    algebra.  samples is a count (with rng) or an explicit list of
    (c, c1, b, b1) element tuples.  Returns the number of tuples checked;
    violations raise InequalityViolation."""
    if data is None:
        data = derive_all(e)
    B, C = e.left, e.right
    f = e.field
    gc = gram_matrix(data.left_integral)
    gb = gram_matrix(data.right_integral)
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
    for idx, (c, cp) in enumerate(pairs):
        w = c * cp
        lhs = _quadform(g, w.coeffs, f)
        rhs = _quadform(g, c.star().coeffs, f) * _quadform(g, cp.coeffs, f)
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

    With S0 the transposition, S'(c) = r S0(c) r^-1 and S(b) = S0(s b s^-1)
    for unique-up-to-scalar invertible r, s.  Each is found as the
    one-dimensional nullspace of the intertwiner system, the scalar gauge
    is fixed by normalizing the first nonzero entry of r to 1 and scaling
    s so that tr(s r) = n (when tr(s r) = 0, the nilpotent variant, s is
    pinned by the reconstruction equation instead), and the reconstruction
    E = (r (x) 1) E0 (s (x) 1) is asserted exactly.
    """
    B, C = e.left, e.right
    if B.blocks is None or len(B.blocks) != 1 or C.blocks != B.blocks:
        raise NoBlockPresentation(
            "twist recovery needs a single matrix block on both sides; decompose first"
        )
    if B != C:
        raise SepidemError("twist recovery identifies the two tensor legs; presentations must agree")
    s, sp = _map(e, "right"), _map(e, "left")
    f = e.field
    n = B.blocks[0]
    s0_b = transpose_anti_map(B)
    s0_c = transpose_anti_map(C)
    r_elt = _intertwiner(B, lambda k: sp(s0_b.on_basis(k)))
    s_elt = _intertwiner(B, lambda k: s0_c.inverse()(s.on_basis(k)))
    # gauge: first nonzero entry of r becomes 1
    pivot = next(c for c in r_elt.coeffs if c)
    r_elt = (f.one / pivot) * r_elt
    tr = trace_functional(B)
    t = tr(s_elt * r_elt)
    e0 = TensorElement(B, C, _diagonal(B.dim, f.one / f.coerce(n), f))
    if not f.is_zero(t):
        s_elt = (f.coerce(n) / t) * s_elt
    else:
        trial = e0.lmul_b(r_elt).rmul_b(s_elt)
        pin = next(((i, j) for i, j, c in e.nonzero_items() if not f.is_zero(c)), None)
        if pin is None:
            raise ReconstructionMismatch("cannot pin the twist scale on a zero element")
        i, j = pin
        if f.is_zero(trial.rows[i][j]):
            raise ReconstructionMismatch("twist candidate vanishes where the element does not")
        s_elt = (e.rows[i][j] / trial.rows[i][j]) * s_elt
    try:
        r_elt.inverse()
        s_elt.inverse()
    except NotInvertible as exc:
        raise TwistError(f"recovered twist is not invertible: {exc}") from None
    if e0.lmul_b(r_elt).rmul_b(s_elt) != e:
        raise ReconstructionMismatch("(r (x) 1) E0 (s (x) 1) does not reproduce the element")
    return TwistData(r_elt, s_elt)


def _diagonal(dim, value, field):
    rows = [[field.zero] * dim for _ in range(dim)]
    for t in range(dim):
        rows[t][t] = value
    return rows


def _intertwiner(a, image_of_basis):
    """Solve image(b) x = x b for all basis b; the solution space must be a
    line.  Returns its (unnormalized) generator."""
    f = a.field
    rows = []
    for k in range(a.dim):
        lhs = a.left_mult_matrix(image_of_basis(k).coeffs)
        rhs = a.right_mult_matrix(a.basis_element(k).coeffs)
        for t in range(a.dim):
            rows.append([x - y for x, y in zip(lhs[t], rhs[t])])
    kern = linalg.nullspace(rows, f)
    if len(kern) != 1:
        raise SolutionSpaceDimensionNotOne(len(kern))
    return AlgebraElement(a, kern[0])


@dataclass(frozen=True)
class BlockData:
    index: int
    size: int
    element: TensorElement
    certificate: SeparabilityCertificate
    twist: TwistData


def decompose_blocks(e: TensorElement, data: DerivedData = None) -> list:
    """Split a certified element over aligned multi-matrix algebras into
    its per-block components, certify and twist-recover each, and verify
    that all globally derived data restricts block-wise."""
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
    if data is None:
        data = derive_all(e)
    with_star = B.star_matrix is not None and C.star_matrix is not None
    out = []
    for a_idx, n in enumerate(B.blocks):
        lo_b, hi_b = bounds_b[a_idx]
        lo_c, hi_c = bounds_c[a_idx]
        comp_alg = matrix_algebra(n, with_star=with_star, field=f)
        sub = [[e.rows[i][j] for j in range(lo_c, hi_c)] for i in range(lo_b, hi_b)]
        comp = TensorElement(comp_alg, comp_alg, sub)
        cert = certify(comp)
        if not cert.ok and cert.mode != "nilpotent_variant":
            raise SepidemError(f"block {a_idx} does not certify: {cert.reason}")
        twist = recover_twist(comp)
        _check_restriction(data, comp, a_idx, (lo_b, hi_b), (lo_c, hi_c), f)
        out.append(BlockData(a_idx, n, comp, cert, twist))
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


def _check_restriction(data, comp, a_idx, rb, rc, f):
    """Globally derived maps and integrals agree with the per-block ones
    (read from the block's memo), and vanish off the diagonal blocks."""
    lo_b, hi_b = rb
    lo_c, hi_c = rc
    s, sp = _map(comp, "right"), _map(comp, "left")
    local_sigma = s.compose(sp)
    local_sigma_prime = _inverse_map(comp, "right").compose(_inverse_map(comp, "left"))
    for name, glob, local, rrows, rcols in [
        ("S", data.antipode.rows, s.rows, rc, rb),
        ("S'", data.reverse_antipode.rows, sp.rows, rb, rc),
        ("sigma", data.modular.rows, local_sigma.rows, rc, rc),
        ("sigma'", data.reverse_modular.rows, local_sigma_prime.rows, rb, rb),
    ]:
        (glo, ghi), (clo, chi) = rrows, rcols
        for i, grow in enumerate(glob):
            for j, v in enumerate(grow):
                inside_rows = glo <= i < ghi
                inside_cols = clo <= j < chi
                if inside_rows and inside_cols:
                    if not f.eq(v, local[i - glo][j - clo]):
                        raise SepidemError(f"global {name} does not restrict to block {a_idx}")
                elif inside_rows != inside_cols and not f.is_zero(v):
                    raise SepidemError(f"global {name} leaks across block {a_idx}")
    phi_local = _derived(comp, "covector", integral_covector, "left")
    psi_local = _derived(comp, "covector", integral_covector, "right")
    for j in range(lo_c, hi_c):
        if not f.eq(data.left_integral.covector[j], phi_local[j - lo_c]):
            raise SepidemError(f"global left integral does not restrict to block {a_idx}")
    for i in range(lo_b, hi_b):
        if not f.eq(data.right_integral.covector[i], psi_local[i - lo_b]):
            raise SepidemError(f"global right integral does not restrict to block {a_idx}")
