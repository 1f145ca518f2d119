"""Certification engine.

Verifies that a tensor element is a separability idempotent and derives
the attached data: the two anti-isomorphisms, the central element, and
the structural identities (counit, swap, splitting, determinacy).

Terminology for the two absorption conditions, by where the simple
multipliers sit relative to E:

* right condition:  E (B (x) 1) = E (1 (x) C), defining S: B -> C through
  E (b (x) 1) = E (1 (x) S(b));
* left condition:  (B (x) 1) E = (1 (x) C) E, defining S': C -> B through
  (1 (x) c) E = (S'(c) (x) 1) E.

In exact mode the maps are read off the integrals (source paper,
arXiv:1301.4398).  Fullness makes the coefficient matrix M of E square and
invertible, so the covectors of phi on C and psi on B solve M phi = 1_B
and M^T psi = 1_C.  Applying psi (x) id to E (b (x) 1) = E (1 (x) S(b)),
and id (x) phi to its mirror images, gives

    S(b)      = (psi (x) id)(E (b (x) 1))     S      = M^T F_psi
    S'(c)     = (id (x) phi)((1 (x) c) E)     S'     = M F_phi^T
    S^-1(c)   = (id (x) phi)(E (1 (x) c))     S^-1   = M F_phi
    S'^-1(b)  = (psi (x) id)((b (x) 1) E)     S'^-1  = M^T F_psi^T

with F_psi[i][k] = psi(b_i b_k) and F_phi[j][l] = phi(c_j c_l): matrix
products, with no overdetermined solve and no inversion.  The formulas are
not trusted; _verify_map checks each map (see there).  Float mode keeps
the absorption solves, which stay at the conditioning of the input.

Each derived quantity has one value per element and is computed once:
_derived keeps it in the element's memo, and every layer reads it there.
The memo has one layout in both modes.  ("map", side) holds T and
("inverse", side) holds T^-1, for side "right" (T = S) and "left"
(T = S'); exact mode stores the inverse _verify_map proved with T, float
mode solves it on first use (_inverse_map).  ("certificate",) holds what
certify returns without its element field, so that the memo never refers
to the element and the two are freed together.  The certificate is the
only gate for integrals: integrals._require_integrable reads it.

certify reads two fields off work it has already done:

* determinacy: determinacy_check(E, E) has equal maps, so it reduces to
  E E = E, the idempotency verdict.
* splitting: for gamma(c) = E (1 (x) c), the retraction m gamma(c) = c is
  the C half of the counit identities, and the module law follows from
  right absorption, which _verify_map proves on all of B:
  gamma(S(b) x c) = E (1 (x) S(b))(1 (x) x c) = E (b (x) 1)(1 (x) x c)
                  = gamma(x) (b (x) c).

splitting_check and determinacy_check stay public and exhaustive.

In exact mode the verified maps imply four more facts, which are not
checked again there.  Float mode, whose maps come from separate
absorption solves, checks each of them.  A map's matrix has the image of
the k-th basis element as its k-th column.  _verify_map proves S and S'
unital and anti-multiplicative, S^-1 S = id (so S S^-1 = id: the matrices
are square) and S'^-1 S' = id; fullness makes M invertible.

* Faithful integrals (integrals._integral): (M F_phi)(M^T F_psi) =
  S^-1 S = id, so F_phi and F_psi are invertible, which is what
  faithfulness of phi and psi means.
* Weak KMS (integrals._check_kms asserts F^T = F sigma): for
  sigma = S S', F_phi sigma = M^-1 S^-1 S S' = M^-1 S' = F_phi^T; for
  sigma' = S^-1 S'^-1, F_psi sigma' = M^-T S S^-1 S'^-1 = M^-T S'^-1
  = F_psi^T.
* sigma and sigma' multiplicative: each composes two unital
  anti-multiplicative bijections (S^-1 and S'^-1 are inverses of such).
* Swap (certify's swap field, tensor.swap_and_map): the flip of
  (S (x) S') E has the matrix S' M^T S^T = M F_phi^T M^T S^T
  = M (S^-1)^T S^T = M (S S^-1)^T = M, so it is E.

integrals.derive_all and certify therefore skip these checks in exact
mode; modular_automorphisms, _check_kms, swap_and_map and
LinearFunctional.faithfulness_witness stay public and check.

certify computes the leg product z = m_C (S (x) id) E once and decides
each half of the counit identities with one comparison.  By bilinearity
the C half states z c = c for every c, and the B half b z' = b for every b,
with z' = m_B (id (x) S') E.  Each holds exactly when z = 1 (z' = 1): c = 1
gives z = 1, and 1 c = c.  Only a failed half is searched for its basis
witnesses.  When z = 1 the centrality check is skipped, since 1 is central.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from . import linalg
from .algebra import AlgebraElement, LinearFunctional, LinearMap, identity_map
from .errors import (
    CentralityViolation,
    IntertwinerConditionFails,
    MapVerificationError,
    NonUniqueSolution,
    NoSolution,
    NotAntiMultiplicative,
    NotMultiplicative,
    OneSidedConditionFails,
    SepidemError,
    TransportMismatch,
)
from .tensor import TensorElement, is_full, swap_and_map


@dataclass(frozen=True)
class IdempotencyVerdict:
    """Classification of E^2 against E.

    kind is one of "idempotent", "scalar_multiple" (E^2 = lambda E with
    lambda not 0 or 1), "nilpotent_square_zero" (E^2 = 0, E != 0) or
    "other"; scalar carries lambda, witness a mismatch position.
    """

    kind: str
    scalar: object = None
    witness: object = None


def verify_idempotent(e: TensorElement) -> IdempotencyVerdict:
    f = e.field
    e2 = e * e
    if e2 == e:
        return IdempotencyVerdict("idempotent")
    if e2.is_zero():
        return IdempotencyVerdict("nilpotent_square_zero")
    pivot = _pivot(e)
    if pivot is not None:
        i, j = pivot
        lam = e2.rows[i][j] / e.rows[i][j]
        if e2 == e.scale(lam):
            return IdempotencyVerdict("scalar_multiple", scalar=lam)
    for i in range(e.left.dim):
        for j in range(e.right.dim):
            if not f.eq(e2.rows[i][j], e.rows[i][j]):
                return IdempotencyVerdict("other", witness=(i, j))
    return IdempotencyVerdict("other")


def _pivot(e: TensorElement):
    """(i, j) of the first nonzero coefficient of E in exact mode, of the
    first largest in float mode; None when E is zero."""
    if e.field.is_exact:
        return next(((i, j) for i, j, _ in e.nonzero_items()), None)
    best = max(e.nonzero_items(), key=lambda item: abs(item[2]), default=None)
    return None if best is None else best[:2]


def _derived(e: TensorElement, step: str, fn, *args):
    """fn(e, *args), computed on the first call for (step, *args) and kept
    in the element's memo, a dict of key -> (value, error), after that.  A
    step that failed raises an exception of the same type and message on
    every later call.  The memo holds results, never the element, so the
    two form no reference cycle and are freed together; a stored failure
    is a copy without traceback for the same reason."""
    if e._derivation is None:
        e._derivation = {}
    key = (step, *args)
    if key not in e._derivation:
        try:
            e._derivation[key] = (fn(e, *args), None)
        except SepidemError as exc:
            e._derivation[key] = (None, _detached(exc))
            raise
    value, error = e._derivation[key]
    if error is not None:
        raise _detached(error)
    return value


def _remember(e: TensorElement, step: str, value, *args):
    """Keep value in e's memo as the result of step (and *args), for a
    quantity proved by another derivation: the inverse map that
    _derive_map verified with the map, and the block data that
    star.decompose_blocks reads off the direct sum's."""
    if e._derivation is None:
        e._derivation = {}
    e._derivation[(step, *args)] = (value, None)


def _detached(exc: Exception) -> Exception:
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


def _map(e: TensorElement, side: str) -> LinearMap:
    """S (side "right") or S' (side "left"), verified."""
    return _derived(e, "map", _derive_map, side)


def _inverse_map(e: TensorElement, side: str) -> LinearMap:
    """S^-1 (side "right") or S'^-1 (side "left").  Exact mode stores it
    with the map it verified; float mode solves the inverse absorption
    condition on first use (inverting the derived matrix would square its
    condition number)."""
    _map(e, side)  # no inverse of a map that does not derive
    return _derived(e, "inverse", _solve_inverse, side)


def _absorption_solve(e: TensorElement, side: str, inverse: bool = False) -> LinearMap:
    """Solve an absorption condition for the (inverse) anti-isomorphism;
    float mode only (exact mode reads the maps off the integrals).

    side "right":             E (b_k (x) 1) = E (1 (x) S(b_k))        -> S: B -> C
    side "right", inverse:    E (1 (x) c_l) = E (S^-1(c_l) (x) 1)     -> S^-1: C -> B
    side "left":              (1 (x) c_l) E = (S'(c_l) (x) 1) E       -> S': C -> B
    side "left", inverse:     (b_k (x) 1) E = (1 (x) S'^-1(b_k)) E    -> S'^-1: B -> C

    The inverse condition is the map's with the two legs' products and
    algebras exchanged.  Fullness makes the relevant slice map injective,
    so each equation has at most one solution; a non-unique solution space
    signals a fullness bug, not a tie to break.  The solution of a
    full-column-rank subsystem is verified against every equation
    afterwards, which is exactly the absorption condition itself.
    """
    B, C = e.left, e.right
    f = e.field
    # unknown-side product, known-side product, source, target
    if side == "right":
        mul_unknown, mul_known, source, target = e.rmul_c, e.rmul_b, B, C
    else:
        mul_unknown, mul_known, source, target = e.lmul_b, e.lmul_c, C, B
    if inverse:
        mul_unknown, mul_known, source, target = mul_known, mul_unknown, target, source
        side += "_inv"  # the condition's name in the errors below
    a_cols = [mul_unknown(target.basis_element(l)) for l in range(target.dim)]
    a_rows = [
        [a_cols[l].rows[i][j] for l in range(target.dim)]
        for i in range(B.dim)
        for j in range(C.dim)
    ]
    picked = linalg.independent_rows(a_rows, f, target_rank=target.dim)
    if len(picked) < target.dim:
        raise NonUniqueSolution(
            f"slice map on the {side} side has rank {len(picked)} < {target.dim}; "
            "the element is not full"
        )
    rhs_cols = [mul_known(source.basis_element(k)) for k in range(source.dim)]
    flat = lambda t, rowidx: t.rows[rowidx // C.dim][rowidx % C.dim]
    a_sub = [a_rows[t] for t in picked]
    b_sub = [[flat(col, t) for col in rhs_cols] for t in picked]
    sol = linalg.solve_unique(a_sub, b_sub, f)
    m = LinearMap(source, target, sol)
    # the subsystem only used a spanning set of equations; now check them all
    scale = max(1, linalg.matrix_scale([list(r) for r in e.rows], f)) * max(
        1, linalg.matrix_scale([list(r) for r in m.rows], f)
    )
    for k in range(source.dim):
        lhs, rhs = rhs_cols[k], mul_unknown(m.on_basis(k))
        for ra, rb in zip(lhs.rows, rhs.rows):
            for x, y in zip(ra, rb):
                if not f.negligible(x - y, scale):
                    raise NoSolution(side, source.labels[k])
    return m


_solve_inverse = partial(_absorption_solve, inverse=True)


def integral_covector(e: TensorElement, side: str):
    """Coefficients of the left integral phi on C (side "left", M phi = 1_B)
    or of the right integral psi on B (side "right", M^T psi = 1_C).

    No mode gate: the covectors exist whenever M is invertible, nilpotent
    variants included.  A singular M raises NonUniqueSolution.
    """
    f = e.field
    m = [list(r) for r in e.rows]
    if side == "left":
        rhs = e.left.unit
    else:
        m, rhs = linalg.transpose(m), e.right.unit
    try:
        sol = linalg.solve_unique(m, [[c] for c in rhs], f)
    except (linalg.RankDeficient, linalg.InconsistentSystem) as exc:
        raise NonUniqueSolution(
            f"no unique {side} integral covector ({exc}); the element is not full"
        ) from None
    return tuple(row[0] for row in sol)


def _derive_map(e: TensorElement, side: str) -> LinearMap:
    """T for side "right" (T = S) or "left" (T = S'), verified.

    Exact mode takes T and T^-1 from the formulas of the module docstring,
    checks them with _verify_map and keeps T^-1 in the memo for
    _inverse_map.  Float mode keeps the absorption solve for T and checks
    anti-multiplicativity.  Fullness makes T bijective: T(x) = 0 turns
    absorption into E (x (x) 1) = 0 (or (1 (x) x) E = 0), so x = 0; a rank
    test on T would only add roundoff, rejecting T beyond cond 1/tol.
    """
    if not e.field.is_exact:
        t = _absorption_solve(e, side)
        t.assert_anti_multiplicative()
        if not _derived(e, "full", is_full):
            raise MapVerificationError("derived anti-isomorphism is not bijective")
        return t
    f = e.field
    m = [list(r) for r in e.rows]
    mt = linalg.transpose(m)
    f_phi, f_psi = _form(e, "left"), _form(e, "right")
    if side == "right":
        t = LinearMap(e.left, e.right, linalg.mat_mul(mt, f_psi, f))
        t_inv = LinearMap(e.right, e.left, linalg.mat_mul(m, f_phi, f))
    else:
        t = LinearMap(e.right, e.left, linalg.mat_mul(m, linalg.transpose(f_phi), f))
        t_inv = LinearMap(e.left, e.right, linalg.mat_mul(mt, linalg.transpose(f_psi), f))
    _verify_map(e, side, t, t_inv)
    _remember(e, "inverse", t_inv, side)
    return t


def _form(e: TensorElement, side: str):
    """F_phi (side "left") or F_psi (side "right") of the module docstring,
    the form matrix of the integral covector; kept in the element's memo."""
    return _derived(e, "form", _integral_form, side)


def _integral_form(e: TensorElement, side: str):
    cov = _derived(e, "covector", integral_covector, side)
    return LinearFunctional(e.right if side == "left" else e.left, cov).form_matrix()


def _verify_map(e: TensorElement, side: str, t: LinearMap, t_inv: LinearMap):
    """Proves that t is S (side "right") or S' (side "left") of e and t_inv
    its inverse, whatever computed them:

    * T(1) = 1 and T L_g = R_{T(g)} T for g in the generating set G of the
      source (LinearMap.assert_anti_multiplicative);
    * absorption on G, which gives absorption on the whole source.  For S:
      if E (x (x) 1) = E (1 (x) S(x)) and likewise for y, then
      E (xy (x) 1) = E (1 (x) S(x))(y (x) 1) = E (y (x) 1)(1 (x) S(x))
                   = E (1 (x) S(y) S(x)) = E (1 (x) S(xy)),
      so absorption holds on a subalgebra, which contains 1 (S(1) = 1)
      and G, hence is B; S' likewise;
    * T^-1 . T = id, which proves T bijective and T^-1 its inverse.

    A failure of the first two names the first basis element at which
    absorption fails (NoSolution).  One exists: on G by linearity, and
    when the first check fails because absorption everywhere on a full
    element forces T(1) = 1 and T(xy) = T(y) T(x) (c -> E (1 (x) c) is
    injective).  A failed third check raises MapVerificationError.
    """
    if side == "right":
        absorbs = lambda b: e.rmul_b(b) == e.rmul_c(t(b))
    else:
        absorbs = lambda c: e.lmul_c(c) == e.lmul_b(t(c))
    source = t.source
    failure = None
    try:
        t.assert_anti_multiplicative()
    except NotAntiMultiplicative as exc:
        failure = exc
    if failure is not None or not all(absorbs(g) for g in source.generating_set()):
        try:
            for k in range(source.dim):
                if not absorbs(source.basis_element(k)):
                    raise NoSolution(side, source.labels[k])
            raise failure or MapVerificationError("absorption fails on a generator")
        finally:
            failure = None  # its traceback holds this frame: no cycle left behind
    if t_inv.compose(t) != identity_map(source):
        raise MapVerificationError("derived anti-isomorphism is not bijective")


def derive_antipode(e: TensorElement) -> LinearMap:
    """S: B -> C with E (b (x) 1) = E (1 (x) S(b)); requires fullness
    (NonUniqueSolution otherwise).

    Exact mode reads S = M^T F_psi off the right integral, psi solving
    M^T psi = 1_C, and _verify_map proves it, with S^-1 = M F_phi.  A
    failed absorption raises NoSolution naming a basis element, a failed
    bijectivity MapVerificationError.  Float mode solves the absorption
    condition, checks anti-multiplicativity and takes bijectivity from
    fullness (see _derive_map).
    """
    return _map(e, "right")


def derive_reverse_antipode(e: TensorElement) -> LinearMap:
    """S': C -> B with (1 (x) c) E = (S'(c) (x) 1) E; the mirror of
    derive_antipode, with S' = M F_phi^T and S'^-1 = M^T F_psi^T.
    """
    return _map(e, "left")


def derive_one_sided(e: TensorElement, side: str) -> LinearMap:
    """Recover the opposite anti-isomorphism from one absorption condition.

    side = "left": assume only (B (x) 1) E = (1 (x) C) E.  S' is derived
    directly; S is then recovered from slice pairs: for every functional
    omega on B, E (1 (x) c) = E (b (x) 1) holds with c = (omega (x) id) E
    and b = (id (x) omega . S') E, and fullness makes the b's span B.
    side = "right" mirrors this, recovering S' from S via omega . S^-1.

    The recovered map is checked against the two-sided derivation, whose
    absorption, anti-multiplicativity and bijectivity are already verified,
    so agreement proves them for the recovered map too; disagreement raises
    OneSidedConditionFails.
    """
    B, C = e.left, e.right
    f = e.field
    if not _derived(e, "full", is_full):
        raise OneSidedConditionFails("element is not full")
    m_rows = [list(r) for r in e.rows]
    mt = linalg.transpose(m_rows)
    try:
        if side == "left":
            sp = _map(e, "left")
            p = linalg.mat_mul(m_rows, linalg.transpose([list(r) for r in sp.rows]), f)
            rows = linalg.mat_mul(mt, linalg.inverse(p, f), f)
            recovered = LinearMap(B, C, rows)
            reference = _map(e, "right")
        else:
            sinv = _inverse_map(e, "right")
            p = linalg.mat_mul(m_rows, linalg.transpose([list(r) for r in sinv.rows]), f)
            rows = linalg.mat_mul(p, linalg.inverse(mt, f), f)
            recovered = LinearMap(C, B, rows)
            reference = _map(e, "left")
    except (NoSolution, NonUniqueSolution, linalg.RankDeficient,
            linalg.InconsistentSystem) as exc:
        raise OneSidedConditionFails(str(exc)) from None
    if recovered != reference:
        raise OneSidedConditionFails("one-sided recovery disagrees with the direct derivation")
    return recovered


@dataclass(frozen=True)
class CheckOutcome:
    ok: bool
    witness: object = None


def counit_identities(e: TensorElement, s: LinearMap, sp: LinearMap) -> CheckOutcome:
    """Multiplying the two legs back together recovers the identity:
    m_C (S (x) id)(E (1 (x) c)) = c and m_B (id (x) S')((b (x) 1) E) = b for
    every c and b; the witnesses are the basis elements where they fail.
    By bilinearity the left-hand sides are z c and b z' with
    z = m_C (S (x) id) E and z' = m_B (id (x) S') E, so each half holds
    exactly when z = 1 (z' = 1); see the module docstring."""
    return _counit(e, _leg_product(e, s), sp)


def _counit(e: TensorElement, z: AlgebraElement, sp: LinearMap) -> CheckOutcome:
    B, C = e.left, e.right
    z_prime = B.zero()
    for j in range(C.dim):
        col = [e.rows[i][j] for i in range(B.dim)]
        if linalg.has_nonzero(col, e.field):
            z_prime = z_prime + AlgebraElement(B, col) * sp.on_basis(j)
    failures = [("C", label) for label in _unit_failures(z, "left")]
    failures += [("B", label) for label in _unit_failures(z_prime, "right")]
    return CheckOutcome(not failures, failures or None)


def _unit_failures(z: AlgebraElement, side: str) -> list:
    """Labels of the basis elements x with z x != x (side "left") or
    x z != x (side "right"): none exactly when z = 1.  For the leg product
    z these are the C half of the counit identities and the retraction
    half of the splitting."""
    a = z.algebra
    if z == a.one():
        return []
    basis = [a.basis_element(l) for l in range(a.dim)]
    return [a.labels[l] for l, x in enumerate(basis)
            if (z * x if side == "left" else x * z) != x]


def _leg_product(e: TensorElement, s: LinearMap) -> AlgebraElement:
    """z = m_C (S (x) id) E."""
    acc = e.right.zero()
    for i, row in enumerate(e.rows):
        if linalg.has_nonzero(row, e.field):
            acc = acc + s.on_basis(i) * AlgebraElement(e.right, list(row))
    return acc


def central_element(e: TensorElement, s: LinearMap) -> AlgebraElement:
    """m_C (S (x) id) E.  Central in C; equal to 1 exactly when E^2 = E and
    to 0 when E^2 = 0.  Centrality is asserted."""
    return _assert_central(_leg_product(e, s))


def _assert_central(z: AlgebraElement) -> AlgebraElement:
    C = z.algebra
    if z != C.one():  # 1 is central
        for l in range(C.dim):
            cl = C.basis_element(l)
            if z * cl != cl * z:
                raise CentralityViolation(C.labels[l])
    return z


def splitting_check(e: TensorElement, s: LinearMap) -> CheckOutcome:
    """Splitting of the multiplication map m(b (x) c) = S(b) c.

    gamma(c) = E (1 (x) c) must satisfy m . gamma = id and the right-module
    law gamma(S(b) x c) = gamma(x) (b (x) c), checked exhaustively over
    basis triples (b_k, c_m, c_l).  By bilinearity both sides of the law
    are the pair's gamma(S(b_k) c_m) and gamma(c_m) (b_k (x) 1), each times
    (1 (x) c_l), so all c_l pass when the pair agrees, and the c_l are
    searched for witnesses only when it does not.
    """
    B, C = e.left, e.right
    failures = [("retraction", label) for label in _unit_failures(_leg_product(e, s), "left")]
    s_imgs = [s.on_basis(k) for k in range(B.dim)]
    for k in range(B.dim):
        for m in range(C.dim):
            cm = C.basis_element(m)
            lhs, rhs = e.rmul_c(s_imgs[k] * cm), e.rmul_c(cm).rmul_b(B.basis_element(k))
            if lhs != rhs:
                failures += [("module-law", (B.labels[k], C.labels[m], C.labels[l]))
                             for l in range(C.dim)
                             if lhs.rmul_c(C.basis_element(l)) != rhs.rmul_c(C.basis_element(l))]
    return CheckOutcome(not failures, failures or None)


@dataclass(frozen=True)
class DeterminacyReport:
    """Outcome of the determinacy comparison of two candidates.

    When the derived map pairs differ the comparison is vacuous
    (applicable=False, ok=True).  When they agree, the elements must agree,
    and the proof identities EF = E and EF = F are exposed as sub-checks.
    """

    applicable: bool
    ok: bool
    elements_equal: bool = None
    ef_equals_e: bool = None
    ef_equals_f: bool = None


def determinacy_check(e: TensorElement, g: TensorElement) -> DeterminacyReport:
    if _map(e, "right") != _map(g, "right") or _map(e, "left") != _map(g, "left"):
        return DeterminacyReport(applicable=False, ok=True)
    ef = e * g
    same = e == g
    ef_e = ef == e
    ef_f = ef == g
    return DeterminacyReport(
        applicable=True,
        ok=same and ef_e and ef_f,
        elements_equal=same,
        ef_equals_e=ef_e,
        ef_equals_f=ef_f,
    )


def conjugacy_transport(e1: TensorElement, e2: TensorElement, alpha_b: LinearMap) -> LinearMap:
    """Transport between two certified elements over the same algebras.

    Given an automorphism alpha_B intertwining the composites S'S of both
    elements, builds alpha_C by S'_2(alpha_C(c)) = alpha_B(S'_1(c)) and
    verifies E_2 = (alpha_B (x) alpha_C) E_1.  The intertwining condition
    is necessary, so a violating alpha_B is rejected up front.
    """
    B, C = e1.left, e1.right
    f = e1.field
    if alpha_b.source != B or alpha_b.target != B:
        raise IntertwinerConditionFails("alpha_B must be an automorphism of the left algebra")
    alpha_b.assert_multiplicative()
    if not alpha_b.is_bijective():
        raise NotMultiplicative("alpha_B is not bijective")
    s1, sp1 = _map(e1, "right"), _map(e1, "left")
    s2, sp2 = _map(e2, "right"), _map(e2, "left")
    lhs = sp2.compose(s2).compose(alpha_b)
    rhs = alpha_b.compose(sp1.compose(s1))
    if lhs != rhs:
        raise IntertwinerConditionFails(
            "alpha_B does not intertwine the composite automorphisms S'S"
        )
    alpha_c = sp2.inverse().compose(alpha_b).compose(sp1)
    alpha_c.assert_multiplicative()
    transported_rows = linalg.mat_mul(
        linalg.mat_mul([list(r) for r in alpha_b.rows], [list(r) for r in e1.rows], f),
        linalg.transpose([list(r) for r in alpha_c.rows]),
        f,
    )
    if TensorElement(B, C, transported_rows) != e2:
        raise TransportMismatch("(alpha_B (x) alpha_C) E_1 != E_2")
    return alpha_c


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Full verdict bundle for one candidate element.

    mode is "separability_idempotent" when every axiom and identity check
    passes, "nilpotent_variant" when E^2 = 0 but the anti-isomorphisms
    still derive (then the central element is 0 and the counit identities
    necessarily fail; their outcomes are recorded as data), and
    "rejected" otherwise, with the reason.

    regular is always "automatic": at finite dimension with unital
    algebras, E already lives in B (x) C, so the one-sided product
    conditions hold by construction and are recorded rather than tested.
    """

    element: TensorElement
    mode: str
    reason: str = None
    regular: str = "automatic"
    full: bool = None
    idempotency: IdempotencyVerdict = None
    absorption_right: bool = None
    absorption_left: bool = None
    antipode: LinearMap = None
    reverse_antipode: LinearMap = None
    central_element: AlgebraElement = None
    counit: CheckOutcome = None
    swap: CheckOutcome = None
    splitting: CheckOutcome = None
    determinacy: CheckOutcome = None

    @property
    def ok(self):
        return self.mode == "separability_idempotent"


def certify(e: TensorElement) -> SeparabilityCertificate:
    """Run the full verification pipeline on one element.

    Errors from the sub-derivations are aggregated into the certificate
    (mode "rejected" with a reason), never raised.  The certificate is
    kept in the element's memo (without its element field), so a second
    call reads it; every derived step is read from the memo too
    (_derived).  The leg product is computed once for the central element
    and the counit identities; splitting and determinacy are read off the
    counit outcome and the idempotency verdict, and in exact mode swap
    holds because the maps derived (see the module docstring).
    """
    return replace(_certificate(e), element=e)


def _certificate(e: TensorElement) -> SeparabilityCertificate:
    """e's certificate as kept in its memo, with element None."""
    return _derived(e, "certificate", _certify)


def _certify(e: TensorElement) -> SeparabilityCertificate:
    verdict = _derived(e, "verdict", verify_idempotent)
    full = _derived(e, "full", is_full)
    base = dict(element=None, full=full, idempotency=verdict)
    if not full:
        return SeparabilityCertificate(mode="rejected", reason="not full", **base)
    for side, absorbs, name in (("right", "absorption_right", "antipode"),
                                ("left", "absorption_left", "reverse_antipode")):
        try:
            base[name] = _map(e, side)
        except (NoSolution, NonUniqueSolution, MapVerificationError) as exc:
            base[absorbs] = False
            return SeparabilityCertificate(mode="rejected", reason=str(exc), **base)
        base[absorbs] = True
    s, sp = base["antipode"], base["reverse_antipode"]
    z = _leg_product(e, s)
    try:
        base["central_element"] = _assert_central(z)
    except CentralityViolation as exc:
        return SeparabilityCertificate(mode="rejected", reason=str(exc), **base)
    counit = _counit(e, z, sp)
    retraction = [("retraction", label) for half, label in counit.witness or () if half == "C"]
    checks = dict(
        counit=counit,
        swap=CheckOutcome(e.field.is_exact or swap_and_map(e, s, sp) == e),
        splitting=CheckOutcome(not retraction, retraction or None),
        determinacy=CheckOutcome(verdict.kind == "idempotent"),
    )
    base.update(checks)
    if verdict.kind == "idempotent":
        failed = [name for name, chk in checks.items() if not chk.ok]
        if not failed:
            return SeparabilityCertificate(mode="separability_idempotent", **base)
        return SeparabilityCertificate(
            mode="rejected", reason="identity checks failed: " + ", ".join(failed), **base
        )
    if verdict.kind == "nilpotent_square_zero":
        return SeparabilityCertificate(mode="nilpotent_variant", **base)
    lam = f"E^2 = ({verdict.scalar}) E" if verdict.kind == "scalar_multiple" else "E^2 is not proportional to E"
    return SeparabilityCertificate(mode="rejected", reason=f"not idempotent: {lam}", **base)
