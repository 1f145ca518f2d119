"""Integrals, modular automorphisms, and the trace correspondence.

The left integral is the unique functional phi on C with
(id (x) phi) E = 1 in B; the right integral psi satisfies
(psi (x) id) E = 1 in C.  Both are derived by a linear solve on the
covector (M phi = 1_B and M^T psi = 1_C for the coefficient matrix M)
rather than through any closed form, so the closed forms of the matrix
families stay available as independent oracles.  Existence and
uniqueness are asserted during the solve.  In exact mode the
anti-isomorphisms and their inverses are read off the same covectors,
and their verification proves faithfulness and the modular laws (see the
engine module); float mode checks both.  The integrals are kept in the
element's memo too (engine._derived), so each is derived once.

The element's certificate is the only gate: derive_all, the two integral
derivations and Duality.from_element read the certificate certify keeps
in the memo, and refuse (RefusedForMode, naming the certificate mode and
its reason) unless its mode is "separability_idempotent".  Nilpotent
variants (E^2 = 0), non-full elements, failed absorptions and
non-idempotent elements are all refused there.  Their mode argument is
redundant (the certificate decides) and kept for callers that pass it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import AlgebraElement, LinearFunctional, LinearMap
from .engine import _certificate, _derived, _form, _inverse_map, _map, integral_covector
from .errors import (
    KMSViolation,
    NotATrace,
    NotFaithful,
    NotInvertible,
    RefusedForMode,
    RelativeCommutationFails,
    SepidemError,
)
from .tensor import TensorElement, slice_left, slice_right


def _require_integrable(e: TensorElement):
    """Refuse e unless its certificate (engine._certificate, the record
    certify returns) has mode "separability_idempotent"."""
    cert = _certificate(e)
    if cert.mode != "separability_idempotent":
        reason = f" ({cert.reason})" if cert.reason else ""
        raise RefusedForMode(
            f"integrals need a separability idempotent; certificate mode: {cert.mode}{reason}"
        )


def _integral(e: TensorElement, side: str) -> LinearFunctional:
    """phi on C (side "left") or psi on B (side "right"), faithful."""
    return _derived(e, "integral", _faithful_integral, side)


def _faithful_integral(e: TensorElement, side: str) -> LinearFunctional:
    cov = _derived(e, "covector", integral_covector, side)
    fun = LinearFunctional(e.right if side == "left" else e.left, cov)
    if e.field.is_exact:
        _map(e, "right")  # S^-1 S = id makes both forms invertible (engine docstring)
    elif kern := linalg.nullspace(_form(e, side), e.field):  # faithfulness_witness
        raise NotFaithful(AlgebraElement(fun.algebra, kern[0]))
    return fun


def derive_left_integral(e: TensorElement, mode=None) -> LinearFunctional:
    """The unique phi on C with (id (x) phi) E = 1; faithful (asserted).
    mode is redundant (module docstring)."""
    _require_integrable(e)
    return _integral(e, "left")


def derive_right_integral(e: TensorElement, mode=None) -> LinearFunctional:
    """The unique psi on B with (psi (x) id) E = 1; faithful (asserted).
    mode is redundant (module docstring)."""
    _require_integrable(e)
    return _integral(e, "right")


def modular_automorphisms(s: LinearMap, sp: LinearMap, phi=None, psi=None, element=None):
    """sigma = S . S' on C and sigma' = S^-1 . S'^-1 on B.

    Both are unital multiplicative bijections: multiplicativity is asserted
    on the generating set of each algebra (LinearMap.assert_multiplicative),
    bijectivity is inherited from the factors.  When the integrals are
    supplied, the weak KMS laws phi(c c') = phi(c' sigma(c)) and
    psi(b b') = psi(b' sigma'(b)) are checked on all basis pairs.

    With the element supplied, S^-1 and S'^-1 are its derived inverses
    (engine._inverse_map: no matrix inversion, and in float mode no
    squared condition number); without it they are inverted from s and sp.
    """
    if element is None:
        s_inv, sp_inv = s.inverse(), sp.inverse()
    else:
        s_inv, sp_inv = _inverse_map(element, "right"), _inverse_map(element, "left")
    sigma = s.compose(sp)
    sigma_prime = s_inv.compose(sp_inv)
    for m in (sigma, sigma_prime):
        m.assert_multiplicative()
    if phi is not None:
        _check_kms(phi, sigma)
    if psi is not None:
        _check_kms(psi, sigma_prime)
    return sigma, sigma_prime


def _check_kms(fun: LinearFunctional, auto: LinearMap, form=None):
    """The weak KMS law of fun under auto; form is fun's form matrix, when
    it is already at hand."""
    a = fun.algebra
    f = a.field
    if form is None:
        form = fun.form_matrix()
    rows = [list(r) for r in auto.rows]
    rhs = linalg.mat_mul(form, rows, f)
    scale = max(1, linalg.matrix_scale(form, f)) * max(1, linalg.matrix_scale(rows, f))
    for j in range(a.dim):
        for l in range(a.dim):
            if not f.negligible(form[j][l] - rhs[l][j], scale):
                raise KMSViolation((a.labels[j], a.labels[l]))


@dataclass(frozen=True)
class TransportReport:
    ok: bool
    failures: tuple = ()


def check_integral_transport(phi, psi, s, sp) -> TransportReport:
    """psi . S' = phi and phi . S = psi, plus invariance of each integral
    under its composite automorphism (no scaling constant)."""
    failures = []
    if psi.compose(sp) != phi:
        failures.append("psi.S' != phi")
    if phi.compose(s) != psi:
        failures.append("phi.S != psi")
    if phi.compose(s.compose(sp)) != phi:
        failures.append("phi not invariant under S.S'")
    if psi.compose(sp.compose(s)) != psi:
        failures.append("psi not invariant under S'.S")
    return TransportReport(not failures, tuple(failures))


@dataclass(frozen=True)
class DerivedData:
    """Everything the later layers need, derived once from one element."""

    element: TensorElement
    antipode: LinearMap
    reverse_antipode: LinearMap
    left_integral: LinearFunctional
    right_integral: LinearFunctional
    modular: LinearMap
    reverse_modular: LinearMap


def derive_all(e: TensorElement, mode=None) -> DerivedData:
    """S, S', phi, psi, sigma and sigma' of one element, from the element's
    memo.  Float mode runs every check of modular_automorphisms (with the
    element and the integrals).  Exact mode composes sigma = S . S' and
    sigma' = S^-1 . S'^-1 and checks nothing more: the verified maps imply
    what those checks prove (engine module docstring).  mode is redundant
    (module docstring)."""
    _require_integrable(e)
    phi, psi = _integral(e, "left"), _integral(e, "right")
    s, sp = _map(e, "right"), _map(e, "left")
    if e.field.is_exact:
        sigma = s.compose(sp)
        sigma_prime = _inverse_map(e, "right").compose(_inverse_map(e, "left"))
    else:
        sigma, sigma_prime = modular_automorphisms(s, sp, element=e)
        _check_kms(phi, sigma, _form(e, "left"))
        _check_kms(psi, sigma_prime, _form(e, "right"))
    return DerivedData(e, s, sp, phi, psi, sigma, sigma_prime)


def _trace_side(data: DerivedData, side: str):
    """For a trace on side B or C: the automorphism its implementing
    element q commutes relatively with, and the map and integral that give
    the trace back from q.  Side "C" is side "B" with the two tensor legs
    flipped, which exchanges S with S' and phi with psi."""
    if side == "B":
        return data.modular, data.reverse_antipode, data.right_integral
    if side == "C":
        return data.reverse_modular, data.antipode, data.left_integral
    raise SepidemError(f"unknown side {side!r}")


def implementing_element_from_trace(e: TensorElement, tau: LinearFunctional,
                                    data: DerivedData = None, side: str = "B") -> AlgebraElement:
    """The element of the other algebra implementing a trace.

    side="B": q = (tau (x) id) E for a trace tau on B; q satisfies the
    relative commutation c q = q sigma(c) for all c, and tau is recovered
    as psi(S'(q) . ); both are asserted.

    side="C" is the symmetric extrapolation (obtained by flipping the two
    tensor legs, which exchanges S with S' and phi with psi): for a trace
    tau on C, p = (id (x) tau) E lies in B, satisfies b p = p sigma'(b),
    and tau = phi(S(p) . ).
    """
    w = tau.traciality_witness()
    if w is not None:
        raise NotATrace(w)
    if data is None:
        data = derive_all(e)
    modular = _trace_side(data, side)[0]
    q = slice_left(tau, e) if side == "B" else slice_right(e, tau)
    _assert_relative_commutation(q, modular)
    if trace_functional_of(q, data, side) != tau:
        raise SepidemError("trace round-trip through the implementing element fails")
    return q


def trace_functional_of(q: AlgebraElement, data: DerivedData, side: str = "B") -> LinearFunctional:
    """psi(S'(q) . ) on B for side="B"; phi(S(q) . ) on C for side="C"."""
    _, antipode, integral = _trace_side(data, side)
    t = antipode(q)
    alg = t.algebra
    cov = linalg.vec_mat(list(integral.covector), alg.left_mult_matrix(t.coeffs), alg.field)
    return LinearFunctional(alg, cov)


def _assert_relative_commutation(q: AlgebraElement, auto: LinearMap):
    alg = q.algebra
    for l in range(alg.dim):
        x = alg.basis_element(l)
        if x * q != q * auto(x):
            raise RelativeCommutationFails(alg.labels[l])


def trace_from_implementing_element(e: TensorElement, q: AlgebraElement,
                                    data: DerivedData = None, side: str = "B"):
    """The trace implemented by q (see implementing_element_from_trace for
    the two sides; side="C" is the symmetric extrapolation).

    Returns (tau, faithful).  tau is tracial (asserted), and it is
    faithful exactly when q is invertible; both directions of that
    equivalence are asserted.
    """
    if data is None:
        data = derive_all(e)
    _assert_relative_commutation(q, _trace_side(data, side)[0])
    tau = trace_functional_of(q, data, side)
    w = tau.traciality_witness()
    if w is not None:
        raise NotATrace(w)
    faithful = tau.is_faithful()
    try:
        q.inverse()
        invertible = True
    except NotInvertible:
        invertible = False
    if faithful != invertible:
        raise SepidemError(
            "faithfulness of the trace must match invertibility of the implementing element"
        )
    return tau, faithful
