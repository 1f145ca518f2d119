import pytest

import sepidem as sd
from sepidem.errors import (
    CentralityViolation,
    IntertwinerConditionFails,
    NonUniqueSolution,
    NoSolution,
    OneSidedConditionFails,
)
from sepidem.scalars import rational


def u(a, i, j):
    return a.basis_element(a.unit_index(0, i, j))


# -- idempotency classification ---------------------------------------------------


def test_verify_idempotent_e0(e0_2):
    assert sd.verify_idempotent(e0_2).kind == "idempotent"


def test_verify_scalar_multiple(m2):
    s = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    e = sd.twisted_idempotent(m2.one(), s)
    v = sd.verify_idempotent(e)
    assert v.kind == "scalar_multiple"
    assert v.scalar == rational("3/2")
    # cross-check by direct squaring
    assert e * e == e.scale(rational("3/2"))


def test_verify_nilpotent(m2):
    s = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s)
    assert sd.verify_idempotent(e).kind == "nilpotent_square_zero"
    assert (e * e).is_zero()


def test_verify_other(m2):
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 1
    rows[3][3] = "1/2"
    e = sd.TensorElement(m2, m2, rows)
    assert sd.verify_idempotent(e).kind == "other"


# -- antipode derivation ------------------------------------------------------------


def test_derive_antipode_e0_is_transpose(e0_2, m2):
    s = sd.derive_antipode(e0_2)
    sp = sd.derive_reverse_antipode(e0_2)
    s0 = sd.transpose_anti_map(m2)
    assert s == s0 and sp == s0


def test_derive_antipode_twisted_factor(involutive_75, m2):
    s = sd.derive_antipode(involutive_75)
    # closed form S(b) = S0(r* b r*^-1) with diagonal r: S(e12) = (r11/r22) e21
    assert s(u(m2, 0, 1)) == 7 * u(m2, 1, 0)
    sp = sd.derive_reverse_antipode(involutive_75)
    assert sp(u(m2, 1, 0)) == 7 * u(m2, 0, 1)


def test_derive_antipode_matches_closed_form(rng):
    for n in (2, 3):
        r, s_mat = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s_mat)
        cf = sd.twisted_closed_forms(r, s_mat)
        assert sd.derive_antipode(e) == cf.antipode
        assert sd.derive_reverse_antipode(e) == cf.reverse_antipode


def test_derive_antipode_needs_fullness():
    e = sd.nonfull_idempotent(2)
    with pytest.raises(NonUniqueSolution):
        sd.derive_antipode(e)


@pytest.mark.parametrize("n", [2, 3])
def test_corrupted_twist_coefficient_fails_derivation(n, rng):
    """One corrupted coefficient of a twist element must make both map
    derivations fail, although they only check absorption on generators."""
    r, s_mat = sd.random_twisted_pair(n, rng)
    e = sd.twisted_idempotent(r, s_mat)
    dim = e.left.dim
    for i, j in [(0, 0), (1, dim - 1), (dim - 1, 2)]:
        rows = [list(row) for row in e.rows]
        rows[i][j] += rational("1/7")
        bad = sd.TensorElement(e.left, e.right, rows)
        assert sd.is_full(bad)
        with pytest.raises(NoSolution) as info:
            sd.derive_antipode(bad)
        assert info.value.side == "right"
        with pytest.raises(NoSolution) as info:
            sd.derive_reverse_antipode(bad)
        assert info.value.side == "left"
        cert = sd.certify(bad)
        assert cert.mode == "rejected" and cert.absorption_right is False
        assert cert.reason.startswith("absorption condition fails on the right side")


def test_map_check_rejects_a_wrong_anti_automorphism(e0_2, m2):
    """b -> (w b w^-1)^T is a bijective anti-automorphism of M2, but not the
    S of E0; only the absorption check on generators can tell."""
    from sepidem.engine import _verify_map
    from sepidem.errors import MapVerificationError

    w = sd.element_from_matrix(m2, [["3/5", "4/5"], ["-4/5", "3/5"]])
    wrong = sd.transpose_anti_map(m2).compose(sd.conjugation_map(w))
    wrong.assert_anti_multiplicative()
    with pytest.raises(NoSolution):
        _verify_map(e0_2, "right", wrong, wrong.inverse())
    with pytest.raises(NoSolution):
        _verify_map(e0_2, "left", wrong, wrong.inverse())
    s0 = sd.transpose_anti_map(m2)
    _verify_map(e0_2, "right", s0, s0)
    with pytest.raises(MapVerificationError, match="not bijective"):
        _verify_map(e0_2, "right", s0, wrong)


def test_full_element_without_absorption_rejected(m2, rng):
    """A generic full coefficient matrix almost never absorbs one-sided
    multipliers; certification must reject it with the absorption side."""
    while True:
        rows = [[sd.random_element(m2, rng).coeffs[0] for _ in range(4)] for _ in range(4)]
        e = sd.TensorElement(m2, m2, rows)
        if sd.is_full(e):
            break
    cert = sd.certify(e)
    assert cert.mode == "rejected"
    assert cert.absorption_right is False or not cert.ok


# -- one-sided derivation -------------------------------------------------------------


def test_one_sided_recovers_transpose(e0_2, m2):
    s = sd.derive_one_sided(e0_2, "left")
    assert s == sd.transpose_anti_map(m2)
    sp = sd.derive_one_sided(e0_2, "right")
    assert sp == sd.transpose_anti_map(m2)


def test_one_sided_matches_closed_form(rng):
    r, s_mat = sd.random_twisted_pair(2, rng)
    e = sd.twisted_idempotent(r, s_mat)
    cf = sd.twisted_closed_forms(r, s_mat)
    assert sd.derive_one_sided(e, "left") == cf.antipode
    assert sd.derive_one_sided(e, "right") == cf.reverse_antipode


def test_one_sided_rejects_nonfull():
    with pytest.raises(OneSidedConditionFails):
        sd.derive_one_sided(sd.nonfull_idempotent(2), "left")


# -- counit identities ---------------------------------------------------------------


def test_counit_brute_force(e0_2, m2):
    s = sd.derive_antipode(e0_2)
    sp = sd.derive_reverse_antipode(e0_2)
    assert sd.counit_identities(e0_2, s, sp).ok
    # independent brute-force evaluation at c = e12:
    # m(S (x) id)(E (1 (x) c)) = (1/2) sum_ij S(e_ij) e_ij c
    c = u(m2, 0, 1)
    acc = m2.zero()
    for i in range(2):
        for j in range(2):
            t = u(m2, i, j)
            acc = acc + rational("1/2") * (s(t) * (t * c))
    assert acc == c


def test_counit_on_unit_gives_unit(e0_2, m2):
    s = sd.derive_antipode(e0_2)
    acc = m2.zero()
    for i, j, v in e0_2.nonzero_items():
        acc = acc + v * (s(m2.basis_element(i)) * m2.basis_element(j))
    assert acc == m2.one()


def test_counit_fails_in_nilpotent_mode(m2):
    s_mat = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s_mat)
    s = sd.derive_antipode(e)
    sp = sd.derive_reverse_antipode(e)
    out = sd.counit_identities(e, s, sp)
    assert not out.ok and out.witness


# -- central element --------------------------------------------------------------------


def test_central_element_unit(e0_2, m2):
    s = sd.derive_antipode(e0_2)
    assert sd.central_element(e0_2, s) == m2.one()


def test_central_element_zero_nilpotent(m2):
    s_mat = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s_mat)
    assert sd.central_element(e, sd.derive_antipode(e)).is_zero()


def test_central_element_scalar_case(m2):
    s_mat = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    e = sd.twisted_idempotent(m2.one(), s_mat)
    c = sd.central_element(e, sd.derive_antipode(e))
    assert c == rational("3/2") * m2.one()


def test_central_element_not_central_raises(e0_2, m2):
    """t(e11) = e11 and t = 0 on the other units is not E0's antipode:
    m_C (t (x) id) E0 = e11 / 2, which e12 does not commute with."""
    k = m2.unit_index(0, 0, 0)
    t = sd.LinearMap(m2, m2, [[int(i == j == k) for j in range(m2.dim)] for i in range(m2.dim)])
    with pytest.raises(CentralityViolation) as info:
        sd.central_element(e0_2, t)
    assert info.value.witness == m2.labels[m2.unit_index(0, 0, 1)]


def test_central_element_iff_idempotent(rng):
    """e = 1 exactly when E^2 = E, over the random twisted family."""
    for _ in range(10):
        r, s_mat = sd.random_twisted_pair(2, rng)
        e = sd.twisted_idempotent(r, s_mat)
        c = sd.central_element(e, sd.derive_antipode(e))
        assert (c == e.left.one()) == (sd.verify_idempotent(e).kind == "idempotent")


# -- splitting -------------------------------------------------------------------------


def test_splitting_e0(e0_2):
    assert sd.splitting_check(e0_2, sd.derive_antipode(e0_2)).ok


def test_splitting_twisted(involutive_75):
    assert sd.splitting_check(involutive_75, sd.derive_antipode(involutive_75)).ok


def test_splitting_wrong_map_fails(involutive_75, m2):
    out = sd.splitting_check(involutive_75, sd.transpose_anti_map(m2))
    assert not out.ok
    kinds = {w[0] for w in out.witness}
    assert "module-law" in kinds


# -- determinacy --------------------------------------------------------------------------


def test_determinacy_gauge_pair(m2, rng):
    r, s_mat = sd.random_twisted_pair(2, rng)
    e = sd.twisted_idempotent(r, s_mat)
    lam = rational("5/3")
    g = sd.twisted_idempotent(lam * r, (1 / lam) * s_mat)
    assert g == e
    rep = sd.determinacy_check(e, g)
    assert rep.applicable and rep.ok and rep.ef_equals_e and rep.ef_equals_f


def test_determinacy_not_applicable(e0_2, involutive_75):
    rep = sd.determinacy_check(e0_2, involutive_75)
    assert not rep.applicable and rep.ok


def test_determinacy_self(e0_2):
    rep = sd.determinacy_check(e0_2, e0_2)
    assert rep.applicable and rep.ok


# -- conjugacy transport ---------------------------------------------------------------------


def test_transport_identity(e0_2, m2):
    alpha_c = sd.conjugacy_transport(e0_2, e0_2, sd.identity_map(m2))
    assert alpha_c == sd.identity_map(m2)


def test_transport_rational_unitary(e0_2, m2):
    w = sd.element_from_matrix(m2, [["3/5", "4/5"], ["-4/5", "3/5"]])
    assert w * w.star() == m2.one()
    e2 = sd.twisted_idempotent(w, w.star())
    alpha_b = sd.conjugation_map(w)
    alpha_c = sd.conjugacy_transport(e0_2, e2, alpha_b)
    assert alpha_c.multiplicative_witness() is None


def test_transport_rejects_bad_intertwiner(e0_2, m2, involutive_75):
    with pytest.raises(IntertwinerConditionFails):
        sd.conjugacy_transport(e0_2, involutive_75, sd.identity_map(m2))


def test_transport_with_identity_also_works_for_unitary_twist(e0_2, m2):
    # when both composite automorphisms are trivial, any valid alpha_B works
    # and the constructed alpha_C absorbs the whole twist
    w = sd.element_from_matrix(m2, [["3/5", "4/5"], ["-4/5", "3/5"]])
    e2 = sd.twisted_idempotent(w, w.star())
    alpha_c = sd.conjugacy_transport(e0_2, e2, sd.identity_map(m2))
    assert alpha_c != sd.identity_map(m2)


def test_transport_rejects_non_multiplicative_alpha(e0_2, m2):
    from sepidem.errors import NotMultiplicative

    bad = sd.LinearMap(m2, m2, [[1 if (i == j == 0) else 0 for j in range(4)] for i in range(4)])
    with pytest.raises(NotMultiplicative):
        sd.conjugacy_transport(e0_2, e0_2, bad)


# -- certify ------------------------------------------------------------------------------------


def test_certify_e0_all_sizes():
    for n in (1, 2, 3):
        cert = sd.certify(sd.standard_idempotent(n))
        assert cert.mode == "separability_idempotent"
        assert cert.regular == "automatic"
        assert cert.full
        assert cert.counit.ok and cert.swap.ok and cert.splitting.ok and cert.determinacy.ok


def test_certify_twisted(involutive_75):
    cert = sd.certify(involutive_75)
    assert cert.ok
    cf = sd.twisted_closed_forms(
        sd.element_from_matrix(involutive_75.left, [["7/5", 0], [0, "1/5"]]),
        sd.element_from_matrix(involutive_75.left, [["7/5", 0], [0, "1/5"]]),
    )
    assert cert.antipode == cf.antipode


def test_certify_nonfull_rejected():
    cert = sd.certify(sd.nonfull_idempotent(2))
    assert cert.mode == "rejected"
    assert cert.reason == "not full"
    assert cert.antipode is None


def test_certify_nilpotent_mode(m2):
    s_mat = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s_mat)
    cert = sd.certify(e)
    assert cert.mode == "nilpotent_variant"
    assert cert.central_element.is_zero()
    assert not cert.counit.ok
    assert cert.antipode(u(m2, 0, 1)) == -1 * u(m2, 1, 0)


def test_certify_scalar_multiple_rejected(m2):
    s_mat = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    cert = sd.certify(sd.twisted_idempotent(m2.one(), s_mat))
    assert cert.mode == "rejected"
    assert "3/2" in cert.reason
