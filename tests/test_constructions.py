import random

import pytest
from hypothesis import given, settings, strategies as st

import sepidem as sd
from sepidem.errors import IncompatibleComponents, NormalizationViolated, NotInvertible
from sepidem.scalars import rational


def u(a, i, j, block=0):
    return a.basis_element(a.unit_index(block, i, j))


def test_standard_idempotent_n1():
    e = sd.standard_idempotent(1)
    assert e == sd.unit_tensor(e.left, e.right)


def test_standard_idempotent_coefficients(e0_2):
    for i, j, v in e0_2.nonzero_items():
        assert i == j and v == rational("1/2")
    assert sum(1 for _ in e0_2.nonzero_items()) == 4


def test_standard_idempotent_certifies():
    assert sd.certify(sd.standard_idempotent(3)).mode == "separability_idempotent"


def test_twisted_identity_is_e0(m2, e0_2):
    assert sd.twisted_idempotent(m2.one(), m2.one()) == e0_2


def test_twisted_normalization(m2, r75):
    # tr(r* r) = 49/25 + 1/25 = 2 = n, so the twist is idempotent
    tr = sd.trace_functional(m2)
    assert tr(r75.star() * r75) == 2
    e = sd.twisted_idempotent(r75, r75.star())
    assert sd.verify_idempotent(e).kind == "idempotent"
    assert sd.check_self_adjoint(e)


def test_twisted_normalize_flag(m2):
    s = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    e = sd.twisted_idempotent(m2.one(), s, normalize=True)
    assert sd.verify_idempotent(e).kind == "idempotent"


def test_twisted_nilpotent_branch(m2):
    s = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s, normalize=True)  # tr(sr) = 0: no rescaling
    assert sd.verify_idempotent(e).kind == "nilpotent_square_zero"
    assert sd.derive_antipode(e)(u(m2, 0, 1)) == -1 * u(m2, 1, 0)


def test_twisted_rejects_singular(m2):
    sing = sd.element_from_matrix(m2, [[1, 0], [0, 0]])
    with pytest.raises(NotInvertible):
        sd.twisted_idempotent(sing, m2.one())


def test_twisted_invertibility_is_a_rank_test(monkeypatch):
    """Exact r and s are checked on their n x n matrices, with no solve in
    the algebra, and the error names the singular one."""
    from sepidem import linalg

    r, s = sd.random_twisted_pair(3, random.Random(9))
    a = r.algebra
    sing = sd.element_from_matrix(a, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    solves = []
    original = linalg.solve_unique
    monkeypatch.setattr(linalg, "solve_unique", lambda *a: solves.append(1) or original(*a))
    assert sd.twisted_idempotent(r, s) is not None
    for args, bad in (((sing, s), 0), ((r, sing), 1), ((r, a.zero()), 1)):
        with pytest.raises(NotInvertible) as info:
            sd.twisted_idempotent(*args)
        assert info.value.element is args[bad]
    assert not solves


def test_float_twist_refuses_ill_conditioned_r():
    """float64 r and s go through AlgebraElement.inverse, whose residual
    check refuses this r (condition number about 1e9) although its n x n
    matrix has full rank at the comparison tolerance."""
    from sepidem import linalg

    a = sd.matrix_algebra(3, field=sd.FLOAT64)
    r = sd.element_from_matrix(a, [[1, 2, 3], [4, 5, 6], [7, 8, 9 + 1e-7]])
    assert linalg.rank(sd.element_as_matrix(r), a.field) == 3
    for args, bad in (((r, a.one()), 0), ((a.one(), r), 1)):
        with pytest.raises(NotInvertible) as info:
            sd.twisted_idempotent(*args)
        assert info.value.element is args[bad]


def test_involutive_r1_is_e0(m2, e0_2):
    assert sd.involutive_twisted_idempotent(m2.one()) == e0_2


def test_involutive_accepts_normalized(r75):
    e = sd.involutive_twisted_idempotent(r75)
    cf = sd.twisted_closed_forms(r75, r75.star())
    assert cf.q == sd.element_from_matrix(r75.algebra, [["25/49", 0], [0, 25]])
    assert sd.certify(e).ok


def test_involutive_rejects_unnormalized(m2):
    r = sd.element_from_matrix(m2, [[1, 0], [0, 2]])
    with pytest.raises(NormalizationViolated):
        sd.involutive_twisted_idempotent(r)


def test_direct_sum_idempotent_certifies():
    e = sd.direct_sum_idempotent([sd.standard_idempotent(1), sd.standard_idempotent(2)])
    cert = sd.certify(e)
    assert cert.ok
    # the left integral restricts block-wise to n_a times the block trace
    phi = sd.derive_left_integral(e, cert.mode)
    c_alg = e.right
    assert phi(u(c_alg, 0, 0, block=0)) == 1
    assert phi(u(c_alg, 0, 0, block=1)) == 2


def test_direct_sum_single_component(e0_2):
    assert sd.direct_sum_idempotent([e0_2]) is e0_2


def test_direct_sum_mixed_twist(rng):
    r = sd.random_involutive_diagonal(2, rng)
    comps = [sd.standard_idempotent(2), sd.involutive_twisted_idempotent(r)]
    e = sd.direct_sum_idempotent(comps)
    data = sd.derive_all(e, "separability_idempotent")
    cf = sd.twisted_closed_forms(r, r.star())
    # modular automorphism: identity on block 1, q-conjugation on block 2
    for k in range(4):
        c = e.right.basis_element(k)
        assert data.modular(c) == c
    for k in range(4):
        local = cf.modular.on_basis(k)
        glob = data.modular.on_basis(4 + k)
        assert list(glob.coeffs[4:]) == list(local.coeffs)


def test_direct_sum_incompatible_backends(e0_2):
    other = sd.standard_idempotent(2, field=sd.FLOAT64)
    with pytest.raises(IncompatibleComponents):
        sd.direct_sum_idempotent([e0_2, other])


def test_nonfull_counterexample():
    for n in (2, 3):
        e = sd.nonfull_idempotent(n)
        assert e * e == e
        assert sd.left_leg(e).dim == n
        assert sd.certify(e).mode == "rejected"


def test_nonfull_satisfies_one_sided_law():
    """sum_i e_i1 (x) e_i1 absorbs multipliers on the left of E:
    (1 (x) c) E = (transpose(c) (x) 1) E for every c, even though it is
    not full (so no anti-isomorphism can be derived from it)."""
    e = sd.nonfull_idempotent(2)
    a = e.left
    s0 = sd.transpose_anti_map(a)
    for k in range(a.dim):
        c = a.basis_element(k)
        assert e.lmul_c(c) == e.lmul_b(s0(c))
    # while the other side genuinely fails
    e12 = a.basis_element(a.unit_index(0, 0, 1))
    assert all(
        e.rmul_b(e12) != e.rmul_c(a.basis_element(k)) for k in range(a.dim)
    )


def test_closed_forms_oracle_consistency(rng):
    """p = (rs)^-1 and q = transpose(sr)^-1 satisfy the slice normalizations
    independently of the engine."""
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        cf = sd.twisted_closed_forms(r, s)
        assert sd.slice_right(e, cf.left_integral) == e.left.one()
        assert sd.slice_left(cf.right_integral, e) == e.right.one()


def test_random_twisted_pair_determinism():
    r1, s1 = sd.random_twisted_pair(2, random.Random(42))
    r2, s2 = sd.random_twisted_pair(2, random.Random(42))
    assert r1 == r2 and s1 == s2


def test_random_twisted_pair_normalized(rng):
    for n in (2, 3, 4):
        r, s = sd.random_twisted_pair(n, rng)
        tr = sd.trace_functional(r.algebra)
        assert tr(s * r) == n


def test_random_involutive_diagonal_on_sphere(rng):
    for n in (2, 3, 4):
        r = sd.random_involutive_diagonal(n, rng)
        tr = sd.trace_functional(r.algebra)
        assert tr(r.star() * r) == n
        r.inverse()  # invertible by construction


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_gauge_invariance_property(seed):
    rng = random.Random(seed)
    r, s = sd.random_twisted_pair(2, rng)
    lam = sd.rational(rng.randint(1, 9)) / rng.randint(1, 9)
    assert sd.twisted_idempotent(lam * r, (1 / lam) * s) == sd.twisted_idempotent(r, s)
