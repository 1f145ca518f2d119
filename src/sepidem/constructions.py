"""Generators for the standard families of (candidate) separability
idempotents over matrix algebras, together with their closed-form derived
data.  The closed forms are deliberately computed by elementary matrix
arithmetic only, so tests can use them as oracles that are independent of
the linear-solve derivations in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    Algebra,
    AlgebraElement,
    LinearFunctional,
    LinearMap,
    direct_sum,
    element_as_matrix,
    matrix_algebra,
    trace_functional,
    transpose_anti_map,
)
from .errors import IncompatibleComponents, NormalizationViolated, NotInvertible, SepidemError
from .scalars import EXACT, common_field, rational
from .tensor import TensorElement


def standard_idempotent_over(a: Algebra) -> TensorElement:
    """(1/n) sum_ij e_ij (x) e_ij over a single matrix block."""
    if a.blocks is None or len(a.blocks) != 1:
        raise SepidemError("expected a single matrix block")
    n = a.blocks[0]
    f = a.field
    inv_n = f.one / f.coerce(n)
    rows = [[f.zero] * a.dim for _ in range(a.dim)]
    for t in range(a.dim):
        rows[t][t] = inv_n
    return TensorElement(a, a, rows)


def standard_idempotent(n: int, field=EXACT, with_star: bool = True) -> TensorElement:
    """The symmetric separability idempotent on M_n; its anti-isomorphisms
    are transposition and its integrals are n times the trace."""
    return standard_idempotent_over(matrix_algebra(n, with_star=with_star, field=field))


def twisted_idempotent(r: AlgebraElement, s: AlgebraElement,
                       normalize: bool = False) -> TensorElement:
    """(r (x) 1) E0 (s (x) 1) for invertible r, s in one matrix algebra.

    The square of the result is (tr(sr)/n) times the result, so it is an
    idempotent iff tr(sr) = n, and squares to zero iff tr(sr) = 0.  With
    normalize=True, s is rescaled by n/tr(sr) whenever tr(sr) != 0.
    Exact invertibility is a rank test on the n x n matrices of r and s,
    as in star.recover_twist, not a solve in the n^2-dimensional algebra;
    float64 keeps AlgebraElement.inverse, whose residual check refuses
    r and s too ill-conditioned to invert within the tolerance.
    """
    a = r.algebra
    if s.algebra != a:
        raise IncompatibleComponents("r and s must live in the same algebra")
    for x in (r, s):
        if not a.field.is_exact:  # the solve's residual check also refuses ill-conditioned r, s
            x.inverse()
            continue
        m = element_as_matrix(x)
        if linalg.rank(m, a.field) < len(m):
            raise NotInvertible(x)
    if normalize:
        t = trace_functional(a)(s * r)
        if t:
            n = a.blocks[0]
            s = (a.field.coerce(n) / t) * s
    e0 = standard_idempotent_over(a)
    return e0.lmul_b(r).rmul_b(s)


def involutive_twisted_idempotent(r: AlgebraElement) -> TensorElement:
    """(r (x) 1) E0 (r* (x) 1), self-adjoint by construction.

    The normalization tr(r* r) = n is checked, never imposed: the scaling
    factor that would fix it is a square root and generally leaves the
    rational field.  Diagonal r with sum |r_ii|^2 = n give rational
    families (see random_involutive_diagonal).
    """
    a = r.algebra
    rs = r.star()
    t = trace_functional(a)(rs * r)
    n = a.blocks[0]
    if not a.field.eq(t, a.field.coerce(n)):
        raise NormalizationViolated(t)
    return twisted_idempotent(r, rs)


def direct_sum_idempotent(components) -> TensorElement:
    """Block-diagonal element over the direct sums of the component
    algebras; all derived data glues block-wise.  When every component has
    the same algebra object on both legs, the two sums are one algebra,
    built once."""
    components = list(components)
    if not components:
        raise IncompatibleComponents("need at least one component")
    if len(components) == 1:
        return components[0]
    try:
        common_field(*[c.field for c in components])
    except SepidemError as exc:
        raise IncompatibleComponents(str(exc)) from None
    b = direct_sum([c.left for c in components])
    same = all(c.left is c.right for c in components)
    c_alg = b if same else direct_sum([c.right for c in components])
    f = b.field
    rows = [[f.zero] * c_alg.dim for _ in range(b.dim)]
    ob = 0
    oc = 0
    for comp in components:
        for i in range(comp.left.dim):
            for j in range(comp.right.dim):
                rows[ob + i][oc + j] = comp.rows[i][j]
        ob += comp.left.dim
        oc += comp.right.dim
    return TensorElement(b, c_alg, rows)


def nonfull_idempotent(n: int, field=EXACT, with_star: bool = True) -> TensorElement:
    """sum_i e_i1 (x) e_i1: an idempotent absorbing one-sided multiplication
    whose legs span only an n-dimensional corner of M_n, so certification
    must reject it for n >= 2."""
    if n < 2:
        raise SepidemError("the non-full example needs n >= 2")
    a = matrix_algebra(n, with_star=with_star, field=field)
    rows = [[a.field.zero] * a.dim for _ in range(a.dim)]
    for i in range(n):
        t = a.unit_index(0, i, 0)
        rows[t][t] = a.field.one
    return TensorElement(a, a, rows)


# -- closed-form derived data (independent oracle) ------------------------------


@dataclass(frozen=True)
class ClosedForms:
    """Derived data of a twist pair (r, s), from matrix arithmetic alone."""

    antipode: LinearMap            # b -> transpose(s b s^-1)
    reverse_antipode: LinearMap    # c -> r transpose(c) r^-1
    left_integral: LinearFunctional    # n tr(q .)
    right_integral: LinearFunctional   # n tr(p .)
    modular: LinearMap             # c -> q c q^-1
    reverse_modular: LinearMap     # b -> p b p^-1
    p: AlgebraElement              # (r s)^-1
    q: AlgebraElement              # transpose(s r)^-1


def conjugation_map(g: AlgebraElement) -> LinearMap:
    """x -> g x g^-1."""
    a = g.algebra
    rows = linalg.mat_mul(
        a.left_mult_matrix(g.coeffs),
        a.right_mult_matrix(g.inverse().coeffs),
        a.field,
    )
    return LinearMap(a, a, rows)


def weighted_trace(a: Algebra, w: AlgebraElement, scale=1) -> LinearFunctional:
    """x -> scale * tr(w x)."""
    tr = trace_functional(a)
    cov = linalg.vec_mat(list(tr.covector), a.left_mult_matrix(w.coeffs), a.field)
    s = a.field.coerce(scale)
    return LinearFunctional(a, [s * c for c in cov])


def twisted_closed_forms(r: AlgebraElement, s: AlgebraElement) -> ClosedForms:
    a = r.algebra
    n = a.blocks[0]
    s0 = transpose_anti_map(a)
    antipode = s0.compose(conjugation_map(s))
    reverse_antipode = conjugation_map(r).compose(s0)
    p = (r * s).inverse()
    q = s0(s * r).inverse()
    return ClosedForms(
        antipode=antipode,
        reverse_antipode=reverse_antipode,
        left_integral=weighted_trace(a, q, n),
        right_integral=weighted_trace(a, p, n),
        modular=conjugation_map(q),
        reverse_modular=conjugation_map(p),
        p=p,
        q=q,
    )


# -- seeded random instances -----------------------------------------------------


def random_rational(rng, bound: int = 9):
    """Uniform small rational: numerator in [-bound, bound], denominator in
    [1, bound]."""
    return rational(rng.randint(-bound, bound)) / rational(rng.randint(1, bound))


def random_element(a: Algebra, rng, bound: int = 9) -> AlgebraElement:
    return AlgebraElement(a, [a.field.coerce(random_rational(rng, bound)) for _ in range(a.dim)])


def random_invertible(a: Algebra, rng, bound: int = 9) -> AlgebraElement:
    while True:
        x = random_element(a, rng, bound)
        try:
            x.inverse()
            return x
        except NotInvertible:
            continue


def random_twisted_pair(n: int, rng, field=EXACT, with_star: bool = True):
    """Invertible (r, s) over M_n with tr(sr) rescaled to n."""
    a = matrix_algebra(n, with_star=with_star, field=field)
    tr = trace_functional(a)
    while True:
        r = random_invertible(a, rng)
        s = random_invertible(a, rng)
        t = tr(s * r)
        if t:
            return r, (a.field.coerce(n) / t) * s


def random_involutive_diagonal(n: int, rng, field=EXACT):
    """Diagonal invertible r over M_n with sum of squared entries equal
    to n, via lines through the all-ones point of the rational sphere."""
    a = matrix_algebra(n, with_star=True, field=field)
    while True:
        d = [random_rational(rng) for _ in range(n)]
        denom = sum(x * x for x in d)
        if not denom:
            continue
        u = -2 * sum(d) / denom
        entries = [1 + u * x for x in d]
        if any(not x for x in entries):
            continue
        coeffs = [a.field.zero] * a.dim
        for i in range(n):
            coeffs[a.unit_index(0, i, i)] = a.field.coerce(entries[i])
        return AlgebraElement(a, coeffs)
