import pytest
from hypothesis import given, settings, strategies as st

import sepidem as sd
from sepidem.errors import BackendMismatch
from sepidem.scalars import rational


def u(a, i, j):
    return a.basis_element(a.unit_index(0, i, j))


def test_tensor_mul_idempotent_simple_tensor(m2):
    e11 = u(m2, 0, 0)
    t = sd.simple_tensor(e11, e11)
    assert t * t == t


def test_tensor_mul_nilpotent_simple_tensor(m2):
    t = sd.simple_tensor(u(m2, 0, 1), m2.one())
    assert (t * t).is_zero()


def test_e0_squares_to_itself(e0_2):
    assert e0_2 * e0_2 == e0_2


def test_legs_of_e0(e0_2):
    assert sd.left_leg(e0_2).dim == 4
    assert sd.right_leg(e0_2).dim == 4
    assert sd.is_full(e0_2)


def test_legs_of_nonfull():
    e = sd.nonfull_idempotent(2)
    a = e.left
    leg = sd.left_leg(e)
    assert leg.dim == 2
    span = sd.Subspace(a, [u(a, 0, 0).coeffs, u(a, 1, 0).coeffs])
    assert leg == span
    assert not sd.is_full(e)


def test_legs_of_zero(m2):
    z = sd.zero_tensor(m2, m2)
    assert sd.left_leg(z).dim == 0
    assert sd.right_leg(z).dim == 0


def test_fullness_of_twisted(m2, rng):
    r, s = sd.random_twisted_pair(2, rng)
    e = sd.twisted_idempotent(r, s)
    assert sd.is_full(e)


def test_is_full_e0_n3():
    assert sd.is_full(sd.standard_idempotent(3))


def test_slice_left_trace(e0_2, m2):
    # brute force: (1/2) sum_ij Tr(e_ij) e_ij = (1/2) 1
    tr = sd.trace_functional(m2)
    got = sd.slice_left(tr, e0_2)
    acc = m2.zero()
    for i in range(2):
        for j in range(2):
            t = u(m2, i, j)
            acc = acc + tr(t) * t
    assert got == rational("1/2") * acc
    assert got == rational("1/2") * m2.one()


def test_slice_right_integral_normalization(e0_2, m2):
    phi = 2 * sd.trace_functional(m2)
    assert sd.slice_right(e0_2, phi) == m2.one()


def test_slice_zero_functional(e0_2, m2):
    z = m2.functional([0, 0, 0, 0])
    assert sd.slice_left(z, e0_2).is_zero()


def test_mult_sided_diagonal_unit(e0_2, m2):
    e11 = u(m2, 0, 0)
    assert sd.mult_sided(e0_2, "right_b", e11) == sd.mult_sided(e0_2, "right_c", e11)


def test_mult_sided_unit_is_identity(e0_2, m2):
    assert sd.mult_sided(e0_2, "left_b", m2.one()) == e0_2
    assert sd.mult_sided(e0_2, "left_c", m2.one()) == e0_2


def test_mult_sided_transpose_pattern(e0_2, m2):
    # E0 (e12 (x) 1) = E0 (1 (x) e21): the absorption with S = transpose
    assert sd.mult_sided(e0_2, "right_b", u(m2, 0, 1)) == sd.mult_sided(
        e0_2, "right_c", u(m2, 1, 0)
    )


def test_mult_sided_rejects_wrong_algebra(e0_2, m3):
    with pytest.raises(BackendMismatch):
        sd.mult_sided(e0_2, "left_b", m3.one())


def test_swap_and_map_transpose_fixes_e0(e0_2, m2):
    s0 = sd.transpose_anti_map(m2)
    assert sd.swap_and_map(e0_2, s0, s0) == e0_2


def test_swap_and_map_flip_on_simple_tensor(m2):
    b = u(m2, 0, 1)
    c = u(m2, 1, 1)
    t = sd.simple_tensor(b, c)
    flipped = sd.swap_and_map(t, sd.identity_map(m2), sd.identity_map(m2))
    assert flipped == sd.simple_tensor(c, b)


def test_swap_identity_on_twisted(r75):
    e = sd.involutive_twisted_idempotent(r75)
    s = sd.derive_antipode(e)
    sp = sd.derive_reverse_antipode(e)
    assert sd.swap_and_map(e, s, sp) == e


def test_fullness_makes_slices_span(involutive_75, m2):
    """On a full element, slices of E (1 (x) c) against functionals on C
    span all of B (and symmetrically), which is what the derivations need."""
    from sepidem import linalg

    vectors = []
    for l in range(m2.dim):
        x = involutive_75.rmul_c(m2.basis_element(l))
        for k in range(m2.dim):
            vectors.append([x.rows[i][k] for i in range(m2.dim)])
    assert linalg.rank(vectors, m2.field) == m2.dim


def test_leg_ranks_agree(rng):
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        assert sd.left_leg(e).dim == sd.right_leg(e).dim


coeff4 = st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4)
mat44 = st.lists(coeff4, min_size=4, max_size=4)


@settings(max_examples=25, deadline=None)
@given(mat44, mat44)
def test_tensor_mul_is_associative_and_unital(x, y):
    a = sd.matrix_algebra(2)
    tx = sd.TensorElement(a, a, x)
    ty = sd.TensorElement(a, a, y)
    one = sd.unit_tensor(a, a)
    assert tx * one == tx
    assert one * tx == tx
    tz = sd.simple_tensor(u(a, 0, 1), u(a, 1, 0))
    assert (tx * ty) * tz == tx * (ty * tz)


@settings(max_examples=25, deadline=None)
@given(coeff4, mat44)
def test_slice_left_is_module_compatible(w, x):
    """slice(omega, (x (x) 1) E) equals slice(omega(x . ), E) for basis x."""
    a = sd.matrix_algebra(2)
    omega = a.functional(w)
    e = sd.TensorElement(a, a, x)
    from sepidem import linalg

    for k in range(a.dim):
        bk = a.basis_element(k)
        lhs = sd.slice_left(omega, e.lmul_b(bk))
        cov = linalg.vec_mat(list(omega.covector), a.left_mult_matrix(bk.coeffs), a.field)
        rhs = sd.slice_left(a.functional(cov), e)
        assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(mat44)
def test_star_is_involutive_on_tensors(x):
    a = sd.matrix_algebra(2, with_star=True)
    t = sd.TensorElement(a, a, x)
    assert t.star().star() == t


def test_tensor_mul_rejects_mismatched_pairs(e0_2):
    other = sd.standard_idempotent(3)
    with pytest.raises(BackendMismatch):
        e0_2 * other


def test_slice_rejects_wrong_algebra(e0_2, m3):
    with pytest.raises(BackendMismatch):
        sd.slice_left(sd.trace_functional(m3), e0_2)
    with pytest.raises(BackendMismatch):
        sd.slice_right(e0_2, sd.trace_functional(m3))


def test_subspace_contains(m2):
    s = sd.Subspace(m2, [u(m2, 0, 0).coeffs, u(m2, 1, 1).coeffs])
    assert s.contains(u(m2, 0, 0) + 3 * u(m2, 1, 1))
    assert not s.contains(u(m2, 0, 1))


def test_float_element_moves_to_another_tolerance_and_back(rng):
    """to_field between two float64 fields keeps every coefficient bit for
    bit (Float64Field.to_complex), and with it the verdict and S."""
    e = sd.twisted_idempotent(*sd.random_twisted_pair(3, rng)).to_field(sd.FLOAT64)
    loose = e.to_field(sd.Float64Field(1e-6))
    back = loose.to_field(sd.FLOAT64)
    assert loose.field.tol == 1e-6 and back.field == sd.FLOAT64
    assert loose.rows == e.rows and back.rows == e.rows
    certs = [sd.certify(x) for x in (e, loose, back)]
    assert [c.mode for c in certs] == ["separability_idempotent"] * 3
    s, s_loose, s_back = (c.antipode.rows for c in certs)
    assert s_back == s
    assert all(abs(a - b) <= 1e-6 * max(1, abs(b)) for ra, rb in zip(s_loose, s)
               for a, b in zip(ra, rb))
