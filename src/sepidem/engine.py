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
certify reads two fields off work it has already done:

* determinacy: determinacy_check(E, E) has equal maps, so it reduces to
  E E = E, the idempotency verdict.
* splitting: for gamma(c) = E (1 (x) c), the retraction m gamma(c) = c is
  the C half of the counit identities, and the module law follows from
  right absorption, which _verify_map proves on all of B:
  gamma(S(b) x c) = E (1 (x) S(b))(1 (x) x c) = E (b (x) 1)(1 (x) x c)
                  = gamma(x) (b (x) c).

splitting_check and determinacy_check stay public and exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    pivot = None
    best = 0.0
    for i, j, c in e.nonzero_items():
        if f.is_exact:
            if not f.is_zero(c):
                pivot = (i, j)
                break
        else:
            if abs(c) > best:
                best = abs(c)
                pivot = (i, j)
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


def _detached(exc: Exception) -> Exception:
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


def _map(e: TensorElement, side: str) -> LinearMap:
    """S (side "right") or S' (side "left"), verified."""
    return _derived(e, "map", _derive_map, side)[0]


def _inverse_map(e: TensorElement, side: str) -> LinearMap:
    """S^-1 (side "right") or S'^-1 (side "left"): verified with the map in
    exact mode, solved from the inverse absorption condition in float mode
    (inverting the derived matrix would square its condition number)."""
    if e.field.is_exact:
        return _derived(e, "map", _derive_map, side)[1]
    _map(e, side)  # no inverse of a map that does not derive
    return _derived(e, "inverse", _absorption_solve, side + "_inv")


def _absorption_solve(e: TensorElement, side: str) -> LinearMap:
    """Solve an absorption condition for the (inverse) anti-isomorphism;
    float mode only (exact mode reads the maps off the integrals).

    side = "right":     E (b_k (x) 1) = E (1 (x) S(b_k))        -> S: B -> C
    side = "right_inv": E (1 (x) c_l) = E (S^-1(c_l) (x) 1)     -> S^-1: C -> B
    side = "left":      (1 (x) c_l) E = (S'(c_l) (x) 1) E       -> S': C -> B
    side = "left_inv":  (b_k (x) 1) E = (1 (x) S'^-1(b_k)) E    -> S'^-1: B -> C

    Fullness makes the relevant slice map injective, so each equation has
    at most one solution; a non-unique solution space signals a fullness
    bug, not a tie to break.  The solution of a full-column-rank subsystem
    is verified against every equation afterwards, which is exactly the
    absorption condition itself.
    """
    B, C = e.left, e.right
    f = e.field
    table = {
        # unknown-side product, known-side product, source, target
        "right": (e.rmul_c, e.rmul_b, B, C),
        "right_inv": (e.rmul_b, e.rmul_c, C, B),
        "left": (e.lmul_b, e.lmul_c, C, B),
        "left_inv": (e.lmul_c, e.lmul_b, B, C),
    }
    mul_unknown, mul_known, source, target = table[side]
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


def _derive_map(e: TensorElement, side: str):
    """(T, T^-1) for side "right" (T = S) or "left" (T = S'), verified.

    Exact mode takes T and T^-1 from the formulas of the module docstring
    and checks them with _verify_map.  Float mode keeps the absorption
    solve for T, checks anti-multiplicativity, and returns T^-1 = None
    (see _inverse_map).  Fullness makes T bijective: T(x) = 0 turns
    absorption into E (x (x) 1) = 0 (or (1 (x) x) E = 0), so x = 0; a rank
    test on T would only add roundoff, rejecting T beyond cond 1/tol.
    """
    if not e.field.is_exact:
        t = _absorption_solve(e, side)
        t.assert_anti_multiplicative()
        if not _derived(e, "full", is_full):
            raise MapVerificationError("derived anti-isomorphism is not bijective")
        return t, None
    phi = _derived(e, "covector", integral_covector, "left")
    psi = _derived(e, "covector", integral_covector, "right")
    f = e.field
    m = [list(r) for r in e.rows]
    mt = linalg.transpose(m)
    f_phi = LinearFunctional(e.right, phi).form_matrix()
    f_psi = LinearFunctional(e.left, psi).form_matrix()
    if side == "right":
        t = LinearMap(e.left, e.right, linalg.mat_mul(mt, f_psi, f))
        t_inv = LinearMap(e.right, e.left, linalg.mat_mul(m, f_phi, f))
    else:
        t = LinearMap(e.right, e.left, linalg.mat_mul(m, linalg.transpose(f_phi), f))
        t_inv = LinearMap(e.left, e.right, linalg.mat_mul(mt, linalg.transpose(f_psi), f))
    _verify_map(e, side, t, t_inv)
    return t, t_inv


def _verify_map(e: TensorElement, side: str, t: LinearMap, t_inv: LinearMap):
    """Proves that t is S (side "right") or S' (side "left") of e and t_inv
    its inverse, whatever computed them: T(1) = 1 and T anti-multiplicative
    (on generators), absorption on the generating set G of the source,
    which with the first check gives absorption everywhere (proof in
    derive_antipode), and T^-1 . T = id, which proves T bijective and
    T^-1 its inverse.

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
        for k in range(source.dim):
            if not absorbs(source.basis_element(k)):
                raise NoSolution(side, source.labels[k])
        raise failure or MapVerificationError("absorption fails on a generator")
    if t_inv.compose(t) != identity_map(source):
        raise MapVerificationError("derived anti-isomorphism is not bijective")


def derive_antipode(e: TensorElement) -> LinearMap:
    """S: B -> C with E (b (x) 1) = E (1 (x) S(b)); requires fullness
    (NonUniqueSolution otherwise).

    Exact mode reads S = M^T F_psi off the right integral, psi solving
    M^T psi = 1_C, and verifies it without trusting the formula:

    * S(1) = 1 and S L_g = R_{S(g)} S for g in the generating set G of B:
      the two shift sums of each matrix block of size >= 2, the unit of
      each 1 x 1 block, or the whole basis without a block presentation
      (LinearMap.assert_anti_multiplicative);
    * absorption on G, which gives absorption on all of B.  If
      E (x (x) 1) = E (1 (x) S(x)) and likewise for y, then
      E (xy (x) 1) = E (1 (x) S(x))(y (x) 1) = E (y (x) 1)(1 (x) S(x))
                   = E (1 (x) S(y) S(x)) = E (1 (x) S(xy)),
      so absorption holds on a subalgebra, which contains 1 (S(1) = 1)
      and G, hence is B;
    * S^-1 . S = id with S^-1 = M F_phi, phi solving M phi = 1_B.

    A failed absorption raises NoSolution naming a basis element, a failed
    bijectivity MapVerificationError.  Float mode solves the absorption
    condition and checks anti-multiplicativity (on G) and rank.
    """
    return _map(e, "right")


def derive_reverse_antipode(e: TensorElement) -> LinearMap:
    """S': C -> B with (1 (x) c) E = (S'(c) (x) 1) E; the mirror of
    derive_antipode.

    Exact mode reads S' = M F_phi^T off the left integral, phi solving
    M phi = 1_B, and verifies it as derive_antipode does, on the
    generating set of C: S'(1) = 1 and S' L_g = R_{S'(g)} S', absorption
    (1 (x) g) E = (S'(g) (x) 1) E, and S'^-1 . S' = id with
    S'^-1 = M^T F_psi^T.
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
    m_C (S (x) id)(E (1 (x) c)) = c and m_B (id (x) S')((b (x) 1) E) = b,
    checked on every basis element.  By bilinearity the left-hand sides are
    z c and b z' with z = m_C (S (x) id) E and z' = m_B (id (x) S') E."""
    B, C = e.left, e.right
    z_prime = B.zero()
    for j in range(C.dim):
        col = [e.rows[i][j] for i in range(B.dim)]
        if any(col):
            z_prime = z_prime + AlgebraElement(B, col) * sp.on_basis(j)
    failures = [("C", label) for label in _retraction_failures(e, s)]
    failures += [("B", B.labels[k]) for k in range(B.dim)
                 if B.basis_element(k) * z_prime != B.basis_element(k)]
    return CheckOutcome(not failures, failures or None)


def _retraction_failures(e: TensorElement, s: LinearMap) -> list:
    """Labels of the basis elements c of C with m_C (S (x) id)(E (1 (x) c))
    = z c != c: the C half of the counit identities and the retraction
    half of the splitting."""
    C = e.right
    z = _leg_product(e, s)
    return [C.labels[l] for l in range(C.dim) if z * C.basis_element(l) != C.basis_element(l)]


def _leg_product(e: TensorElement, s: LinearMap) -> AlgebraElement:
    """z = m_C (S (x) id) E."""
    acc = e.right.zero()
    for i, row in enumerate(e.rows):
        if any(row):
            acc = acc + s.on_basis(i) * AlgebraElement(e.right, list(row))
    return acc


def central_element(e: TensorElement, s: LinearMap) -> AlgebraElement:
    """m_C (S (x) id) E.  Central in C; equal to 1 exactly when E^2 = E and
    to 0 when E^2 = 0.  Centrality is asserted."""
    C = e.right
    acc = _leg_product(e, s)
    for l in range(C.dim):
        cl = C.basis_element(l)
        if acc * cl != cl * acc:
            raise CentralityViolation(C.labels[l])
    return acc


def splitting_check(e: TensorElement, s: LinearMap) -> CheckOutcome:
    """Splitting of the multiplication map m(b (x) c) = S(b) c.

    gamma(c) = E (1 (x) c) must satisfy m . gamma = id and the right-module
    law gamma(S(b) x c) = gamma(x) (b (x) c), checked exhaustively over
    basis triples (b, x, c).  Internally the c-loop runs on a sparse
    difference: gamma(S(b) x c) = gamma(S(b) x)(1 (x) c) by bilinearity, so
    all c fail or pass together with the pair (b, x), and witnesses are
    enumerated only when the difference is nonzero.
    """
    B, C = e.left, e.right
    f = e.field
    zero = f.zero
    failures = [("retraction", label) for label in _retraction_failures(e, s)]
    e_items = [(i, j, v) for i, j, v in e.nonzero_items() if not f.is_zero(v)]
    gamma = [_gamma_sparse(e_items, C, m, f) for m in range(C.dim)]
    s_imgs = [s.on_basis(k) for k in range(B.dim)]
    for k in range(B.dim):
        for m in range(C.dim):
            w = s_imgs[k] * C.basis_element(m)
            gw = {}
            for i, j, v in e_items:
                mj = C.mult[j]
                for m2, wv in enumerate(w.coeffs):
                    if not wv:
                        continue
                    for l, cc in mj[m2]:
                        key = (i, l)
                        gw[key] = gw.get(key, zero) + v * wv * cc
            gb = {}
            for (i, l), v in gamma[m].items():
                for k2, cc in B.mult[i][k]:
                    key = (k2, l)
                    gb[key] = gb.get(key, zero) + v * cc
            if not _sparse_matrix_eq(gw, gb, f):
                for l in range(C.dim):
                    if not _sparse_matrix_eq(
                        _rmul_c_sparse(gw, C, l, f), _rmul_c_sparse(gb, C, l, f), f
                    ):
                        failures.append(
                            ("module-law", (B.labels[k], C.labels[m], C.labels[l]))
                        )
    return CheckOutcome(not failures, failures or None)


def _gamma_sparse(e_items, C, m, f):
    """E (1 (x) c_m) as a sparse (i, l) -> coeff dict."""
    acc = {}
    zero = f.zero
    for i, j, v in e_items:
        for l, cc in C.mult[j][m]:
            key = (i, l)
            acc[key] = acc.get(key, zero) + v * cc
    return acc


def _rmul_c_sparse(d, C, l, f):
    acc = {}
    zero = f.zero
    for (i, j), v in d.items():
        if not v:
            continue
        for l2, cc in C.mult[j][l]:
            key = (i, l2)
            acc[key] = acc.get(key, zero) + v * cc
    return acc


def _sparse_matrix_eq(a, b, f):
    zero = f.zero
    for k, v in a.items():
        if not f.eq(v, b.get(k, zero)):
            return False
    for k, v in b.items():
        if k not in a and not f.eq(v, zero):
            return False
    return True


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
    (mode "rejected" with a reason), never raised.  Every derived step is
    read from the element's memo (_derived); splitting and determinacy are
    read off the counit outcome and the idempotency verdict (see the
    module docstring).
    """
    verdict = _derived(e, "verdict", verify_idempotent)
    full = _derived(e, "full", is_full)
    base = dict(element=e, full=full, idempotency=verdict)
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
    try:
        central = central_element(e, s)
    except CentralityViolation as exc:
        return SeparabilityCertificate(mode="rejected", reason=str(exc), **base)
    base["central_element"] = central
    counit = counit_identities(e, s, sp)
    retraction = [("retraction", label) for half, label in counit.witness or () if half == "C"]
    checks = dict(
        counit=counit,
        swap=CheckOutcome(swap_and_map(e, s, sp) == e),
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
