import pytest

import sepidem as sd
from sepidem.errors import (
    KMSViolation,
    NotATrace,
    NotFaithful,
    NotInvertible,
    RefusedForMode,
    RelativeCommutationFails,
)
from sepidem.scalars import rational


def u(a, i, j, block=0):
    return a.basis_element(a.unit_index(block, i, j))


def test_integrals_of_e0(e0_2, m2):
    phi = sd.derive_left_integral(e0_2)
    psi = sd.derive_right_integral(e0_2)
    assert phi == 2 * sd.trace_functional(m2)
    assert psi == 2 * sd.trace_functional(m2)


def test_integrals_of_e0_n3():
    e = sd.standard_idempotent(3)
    psi = sd.derive_right_integral(e)
    assert psi == 3 * sd.trace_functional(e.left)


def test_integrals_closed_form(involutive_75, m2, r75):
    phi = sd.derive_left_integral(involutive_75)
    psi = sd.derive_right_integral(involutive_75)
    cf = sd.twisted_closed_forms(r75, r75.star())
    assert phi == cf.left_integral
    assert psi == cf.right_integral
    # q = transpose(r* r)^-1 = diag(25/49, 25), p = (r r*)^-1
    assert phi(u(m2, 1, 1)) == 50
    assert psi(u(m2, 0, 0)) == rational("50/49")


def test_integrals_faithful(rng):
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        assert sd.derive_left_integral(e).is_faithful()
        assert sd.derive_right_integral(e).is_faithful()


def test_float_integral_refuses_a_degenerate_covector(m2):
    """Float mode tests faithfulness on the form matrix: phi = the e11
    coefficient, planted as a certified element's left covector, kills
    every c with c e11-coefficient zero against all of C, and the refusal
    names such a c."""
    from sepidem.engine import _remember

    e = sd.standard_idempotent(2, field=sd.FLOAT64)
    assert sd.certify(e).ok
    _remember(e, "covector", (1, 0, 0, 0), "left")
    with pytest.raises(NotFaithful) as info:
        sd.derive_left_integral(e)
    x = info.value.witness
    degenerate = e.right.functional([1, 0, 0, 0])
    assert x.algebra == e.right and not x.is_zero()
    assert all(abs(degenerate(e.right.basis_element(j) * x)) <= 1e-12 for j in range(4))


def test_integrals_refused_in_nilpotent_mode(m2):
    s = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s)
    with pytest.raises(RefusedForMode):
        sd.derive_left_integral(e)
    with pytest.raises(RefusedForMode):
        sd.derive_right_integral(e)
    with pytest.raises(RefusedForMode):
        sd.derive_all(e, mode="nilpotent_variant")


def test_integrals_refused_on_nonfull():
    with pytest.raises(RefusedForMode):
        sd.derive_left_integral(sd.nonfull_idempotent(2))


def test_integrals_refused_on_scalar_multiple(m2):
    s = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    e = sd.twisted_idempotent(m2.one(), s)
    with pytest.raises(RefusedForMode):
        sd.derive_left_integral(e)


def test_modular_automorphisms_e0(e0_2, m2):
    s = sd.derive_antipode(e0_2)
    sp = sd.derive_reverse_antipode(e0_2)
    phi = sd.derive_left_integral(e0_2)
    psi = sd.derive_right_integral(e0_2)
    sigma, sigma_prime = sd.modular_automorphisms(s, sp, phi, psi)
    assert sigma == sd.identity_map(m2)
    assert sigma_prime == sd.identity_map(m2)


def test_modular_closed_form(involutive_75, m2, r75):
    data = sd.derive_all(involutive_75)
    cf = sd.twisted_closed_forms(r75, r75.star())
    assert data.modular == cf.modular
    assert data.reverse_modular == cf.reverse_modular
    # sigma(e12) = (q11/q22) e12 = (1/49) e12
    assert data.modular(u(m2, 0, 1)) == rational("1/49") * u(m2, 0, 1)
    # KMS spot check: phi(e12 e21) = phi(e21 sigma(e12))
    phi = data.left_integral
    assert phi(u(m2, 0, 1) * u(m2, 1, 0)) == rational("50/49")
    assert phi(u(m2, 1, 0) * data.modular(u(m2, 0, 1))) == rational("50/49")


def test_kms_violation_detected(e0_2, m2):
    phi = sd.derive_left_integral(e0_2)
    s = sd.derive_antipode(e0_2)
    sp = sd.derive_reverse_antipode(e0_2)
    skew = sd.conjugation_map(sd.element_from_matrix(m2, [[2, 0], [0, 1]]))
    with pytest.raises(KMSViolation):
        from sepidem.integrals import _check_kms

        _check_kms(phi, skew.compose(s.compose(sp)))


def test_transport_checks(e0_2):
    data = sd.derive_all(e0_2)
    rep = sd.check_integral_transport(
        data.left_integral, data.right_integral, data.antipode, data.reverse_antipode
    )
    assert rep.ok


def test_transport_closed_form_equivalence(involutive_75, r75):
    """psi . S' = phi and phi . S = psi reduce to S(p) = q and S'(q) = p."""
    data = sd.derive_all(involutive_75)
    cf = sd.twisted_closed_forms(r75, r75.star())
    assert data.antipode(cf.p) == cf.q
    assert data.reverse_antipode(cf.q) == cf.p
    rep = sd.check_integral_transport(
        data.left_integral, data.right_integral, data.antipode, data.reverse_antipode
    )
    assert rep.ok


def test_transport_detects_corruption(e0_2, m2):
    data = sd.derive_all(e0_2)
    bad_psi = data.right_integral + m2.functional([1, 0, 0, 0])
    rep = sd.check_integral_transport(
        data.left_integral, bad_psi, data.antipode, data.reverse_antipode
    )
    assert not rep.ok and rep.failures


def test_transport_on_random_instances(rng):
    for _ in range(5):
        r, s = sd.random_twisted_pair(2, rng)
        e = sd.twisted_idempotent(r, s)
        data = sd.derive_all(e)
        assert sd.check_integral_transport(
            data.left_integral, data.right_integral, data.antipode, data.reverse_antipode
        ).ok


# -- trace <-> implementing element --------------------------------------------------


def test_q_from_trace_e0(e0_2, m2):
    data = sd.derive_all(e0_2)
    tau = sd.trace_functional(m2)
    q = sd.implementing_element_from_trace(data, tau)
    assert q == rational("1/2") * m2.one()
    tau2, faithful = sd.trace_from_implementing_element(data, q)
    assert tau2 == tau and faithful


def test_q_from_non_trace_rejected(e0_2, m2):
    data = sd.derive_all(e0_2)
    skew = m2.functional([1, 0, 0, 2])
    with pytest.raises(NotATrace):
        sd.implementing_element_from_trace(data, skew)


def test_trace_from_q_direct_sum_not_faithful():
    e = sd.direct_sum_idempotent([sd.standard_idempotent(2), sd.standard_idempotent(2)])
    data = sd.derive_all(e)
    c_alg = e.right
    # q = identity on block 1, zero on block 2: central, hence commutes with sigma = id
    q = c_alg.zero()
    for i in range(2):
        q = q + c_alg.basis_element(c_alg.unit_index(0, i, i))
    tau, faithful = sd.trace_from_implementing_element(data, q)
    assert tau.is_tracial()
    assert not faithful
    with pytest.raises(NotInvertible):
        q.inverse()
    # tau vanishes on the second block
    assert tau(e.left.basis_element(e.left.unit_index(1, 0, 0))) == 0


def test_trace_from_q_unit_is_faithful(e0_2, m2):
    data = sd.derive_all(e0_2)
    tau, faithful = sd.trace_from_implementing_element(data, m2.one())
    assert faithful
    assert tau == data.right_integral


def test_trace_from_q_rejects_noncentral(e0_2, m2):
    data = sd.derive_all(e0_2)
    with pytest.raises(RelativeCommutationFails):
        sd.trace_from_implementing_element(data, u(m2, 0, 1))


def test_trace_correspondence_mirror_side(involutive_75):
    """The symmetric version on the other algebra: a trace on C is
    implemented by p = (id (x) tau) E in B, commuting against sigma'."""
    data = sd.derive_all(involutive_75)
    tau = sd.trace_functional(involutive_75.right)
    p = sd.implementing_element_from_trace(data, tau, side="C")
    assert p.algebra == involutive_75.left
    tau2, faithful = sd.trace_from_implementing_element(data, p, side="C")
    assert tau2 == tau and faithful


def test_integral_uniqueness_scaling(e0_2, m2):
    """The defining system pins the integral exactly; any scaled functional
    fails the normalization."""
    phi = sd.derive_left_integral(e0_2)
    assert sd.slice_right(e0_2, phi) == m2.one()
    assert sd.slice_right(e0_2, 2 * phi) != m2.one()
