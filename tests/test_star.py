import dataclasses
import random

import pytest

import sepidem as sd
from sepidem.errors import (
    CrossBlockLeakage,
    GramNotPositiveDefinite,
    NoBlockPresentation,
    NotInvertible,
    ReconstructionMismatch,
    RefusedForMode,
    SepidemError,
)
from sepidem import linalg
from sepidem.scalars import rational


def u(a, i, j, block=0):
    return a.basis_element(a.unit_index(block, i, j))


def test_e0_self_adjoint(e0_2):
    assert sd.check_self_adjoint(e0_2)


def test_involutive_twist_self_adjoint(involutive_75):
    assert sd.check_self_adjoint(involutive_75)


def test_asymmetric_twist_not_self_adjoint(m2):
    s = sd.element_from_matrix(m2, [[2, 0], [0, 1]])
    e = sd.twisted_idempotent(m2.one(), s, normalize=True)
    assert sd.verify_idempotent(e).kind == "idempotent"
    assert not sd.check_self_adjoint(e)


def test_antipode_star_relations(e0_2, involutive_75):
    for e in (e0_2, involutive_75):
        s = sd.derive_antipode(e)
        sp = sd.derive_reverse_antipode(e)
        assert sd.check_antipode_star_relations(s, sp).ok


def test_antipode_star_negative_control(involutive_75, m2):
    s0 = sd.transpose_anti_map(m2)
    sp = sd.derive_reverse_antipode(involutive_75)
    assert not sd.check_antipode_star_relations(s0, sp).ok


def test_integral_self_adjoint(involutive_75):
    data = sd.derive_all(involutive_75, "separability_idempotent")
    assert sd.check_integral_self_adjoint(data.left_integral, data.modular).ok
    assert sd.check_integral_self_adjoint(data.right_integral, data.reverse_modular).ok


def test_integral_self_adjoint_negative_control(e0_2, m2):
    phi = sd.derive_left_integral(e0_2)
    bad = phi + sd.gauss(0, 1) * m2.functional([1, 0, 0, 0])
    assert not sd.check_integral_self_adjoint(bad).ok


def test_positivity_e0(e0_2):
    phi = sd.derive_left_integral(e0_2)
    ok, gram = sd.check_positive(phi)
    assert ok
    # Gram of the matrix units under 2 Tr is 2 I
    for i in range(4):
        for j in range(4):
            assert gram[i][j] == (2 if i == j else 0)


def test_positivity_twisted_gram(involutive_75):
    phi = sd.derive_left_integral(involutive_75)
    ok, gram = sd.check_positive(phi)
    assert ok
    diag = [gram[i][i] for i in range(4)]
    assert diag == [rational("50/49"), 50, rational("50/49"), 50]


def test_positivity_needs_star():
    from sepidem.errors import NoStarStructure

    bare = sd.matrix_algebra(2, with_star=False)
    with pytest.raises(NoStarStructure):
        sd.check_positive(sd.trace_functional(bare))


def test_positivity_fails_off_cone(m2):
    # tr(s . ) with indefinite s is self-adjoint but not positive
    s = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    fun = sd.weighted_trace(m2, s)
    ok, _ = sd.check_positive(fun)
    assert not ok


def test_positivity_transfer(e0_2, involutive_75):
    assert sd.check_positivity_transfer(e0_2).ok
    assert sd.check_positivity_transfer(involutive_75).ok


def test_positivity_transfer_wrong_map(involutive_75, m2):
    data = sd.derive_all(involutive_75, "separability_idempotent")
    from sepidem.integrals import DerivedData

    wrong = DerivedData(
        involutive_75,
        sd.transpose_anti_map(m2),
        data.reverse_antipode,
        data.left_integral,
        data.right_integral,
        data.modular,
        data.reverse_modular,
    )
    assert not sd.check_positivity_transfer(involutive_75, wrong).ok


def test_cauchy_bound_basis_pair(e0_2, m2):
    # c = c1 = e11: phi(e11) = 2 <= phi(e11) phi(e11) = 4
    data = sd.derive_all(e0_2, "separability_idempotent")
    phi = data.left_integral
    e11 = u(m2, 0, 0)
    assert phi(e11.star() * e11.star() * e11 * e11) == 2
    assert phi(e11 * e11.star()) * phi(e11.star() * e11) == 4
    pairs = [(e11, e11, e11, e11)]
    assert sd.check_cauchy_bound(e0_2, pairs, data=data) == 1


def test_cauchy_bound_zero_pair(e0_2, m2):
    z = m2.zero()
    one = m2.one()
    assert sd.check_cauchy_bound(e0_2, [(z, z, one, z)]) == 1


def test_cauchy_bound_samples(involutive_75):
    rng = random.Random(17)
    assert sd.check_cauchy_bound(involutive_75, 200, rng) == 200


def test_gns_data_e0(e0_2):
    phi = sd.derive_left_integral(e0_2)
    g = sd.gns_data(phi)
    assert g.injective
    for i in range(4):
        assert g.gram[i][i] == 2


def test_gns_norm_bound_example(e0_2, m2):
    # pi(e12) Lambda(e21) = Lambda(e11): norm^2 = 2 <= phi(e12 e21) * 2 = 4
    phi = sd.derive_left_integral(e0_2)
    e12, e21, e11 = u(m2, 0, 1), u(m2, 1, 0), u(m2, 0, 0)
    assert e12 * e21 == e11
    assert phi(e11.star() * e11) == 2
    assert phi(e12 * e12.star()) * phi(e21.star() * e21) == 4


def test_gns_rejects_degenerate(m2):
    # a non-faithful positive functional: tr(p . ) with singular psd p
    p = sd.element_from_matrix(m2, [[1, 0], [0, 0]])
    fun = sd.weighted_trace(m2, p)
    with pytest.raises(GramNotPositiveDefinite):
        sd.gns_data(fun)


# -- twist recovery ------------------------------------------------------------------


def test_recover_twist_e0(e0_2, m2):
    tw = sd.recover_twist(e0_2)
    assert tw.r == m2.one()
    assert tw.s == m2.one()


def test_recover_twist_involutive(involutive_75, m2, r75):
    tw = sd.recover_twist(involutive_75)
    # gauge: (lambda r, lambda^-1 s); the product r s is gauge invariant
    assert tw.r * tw.s == r75 * r75.star()
    e0 = sd.standard_idempotent_over(m2)
    assert e0.lmul_b(tw.r).rmul_b(tw.s) == involutive_75


def test_recover_twist_random(rng):
    for n in (2, 3):
        r, s = sd.random_twisted_pair(n, rng)
        e = sd.twisted_idempotent(r, s)
        tw = sd.recover_twist(e)
        assert tw.r * tw.s == r * s
        tr = sd.trace_functional(e.left)
        assert tr(tw.s * tw.r) == n


def test_recover_twist_nilpotent(m2):
    s = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    e = sd.twisted_idempotent(m2.one(), s)
    tw = sd.recover_twist(e)
    e0 = sd.standard_idempotent_over(m2)
    assert e0.lmul_b(tw.r).rmul_b(tw.s) == e
    tr = sd.trace_functional(m2)
    assert tr(tw.s * tw.r) == 0


def test_recover_twist_rejects_sums():
    e = sd.direct_sum_idempotent([sd.standard_idempotent(1), sd.standard_idempotent(2)])
    with pytest.raises(NoBlockPresentation):
        sd.recover_twist(e)


def _intertwiner(a, image_of_basis):
    """The generator of the solution line of image(b) x = x b, all basis b."""
    rows = []
    for k in range(a.dim):
        lhs = a.left_mult_matrix(image_of_basis(k).coeffs)
        rhs = a.right_mult_matrix(a.basis_element(k).coeffs)
        rows.extend([x - y for x, y in zip(lr, rr)] for lr, rr in zip(lhs, rhs))
    kern = linalg.nullspace(rows, a.field)
    assert len(kern) == 1, f"intertwiner solution space has dimension {len(kern)}"
    return sd.AlgebraElement(a, kern[0])


def intertwiner_twist(e):
    """Reference route to the twist pair: with S0 the transposition,
    S'(c) = r S0(c) r^-1 and S(b) = S0(s b s^-1), so r and s span the
    intertwiner lines of S' S0 and S0^-1 S; same gauge as recover_twist."""
    a, f = e.left, e.field
    n = a.blocks[0]
    s, sp = sd.derive_antipode(e), sd.derive_reverse_antipode(e)
    s0 = sd.transpose_anti_map(a)
    s0_inv = s0.inverse()
    r_elt = _intertwiner(a, lambda k: sp(s0.on_basis(k)))
    s_elt = _intertwiner(a, lambda k: s0_inv(s.on_basis(k)))
    r_elt = (f.one / next(c for c in r_elt.coeffs if c)) * r_elt
    t = sd.trace_functional(a)(s_elt * r_elt)
    e0 = sd.standard_idempotent_over(a)
    if not f.is_zero(t):
        s_elt = (f.coerce(n) / t) * s_elt
    else:
        trial = e0.lmul_b(r_elt).rmul_b(s_elt)
        i, j = next((i, j) for i, j, c in e.nonzero_items() if not f.is_zero(c))
        s_elt = (e.rows[i][j] / trial.rows[i][j]) * s_elt
    assert e0.lmul_b(r_elt).rmul_b(s_elt) == e
    return r_elt, s_elt


def _nilpotent_pair(n, rng, field=sd.EXACT):
    """Invertible (r, s) over M_n with tr(s r) = 0."""
    a = sd.matrix_algebra(n, with_star=True, field=field)
    tr = sd.trace_functional(a)
    while True:
        r, s = sd.random_twisted_pair(n, rng, field=field)
        s = s - (tr(s * r) / field.coerce(n)) * r.inverse()
        try:
            s.inverse()
        except NotInvertible:
            continue
        return r, s


def _twist_cases(rng, field=sd.EXACT):
    for n in (2, 3, 4):
        yield sd.twisted_idempotent(*sd.random_twisted_pair(n, rng, field=field))
        yield sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(n, rng, field))
        yield sd.twisted_idempotent(*_nilpotent_pair(n, rng, field))


def test_recover_twist_matches_intertwiner_route(rng, m2):
    cases = list(_twist_cases(rng))
    m2_nilpotent = sd.element_from_matrix(m2, [[1, 0], [0, -1]])
    cases.append(sd.twisted_idempotent(m2.one(), m2_nilpotent))
    assert sum(sd.verify_idempotent(e).kind == "nilpotent_square_zero" for e in cases) == 4
    for e in cases:
        tw = sd.recover_twist(e)
        r, s = intertwiner_twist(e)
        assert (repr(tw.r), repr(tw.s)) == (repr(r), repr(s))


def test_recover_twist_matches_intertwiner_route_float64(rng):
    # the two routes round differently: equal within the field's tolerance
    f = sd.Float64Field(1e-9)
    for e in _twist_cases(rng, f):
        tw = sd.recover_twist(e)
        r, s = intertwiner_twist(e)
        assert tw.r == r and tw.s == s
        e0 = sd.standard_idempotent_over(e.left)
        assert e0.lmul_b(tw.r).rmul_b(tw.s) == e


def test_recover_twist_rejects_a_non_twist(e0_2):
    rows = [list(r) for r in e0_2.rows]
    rows[0][1] = rational("1/3")
    with pytest.raises(ReconstructionMismatch):
        sd.recover_twist(sd.TensorElement(e0_2.left, e0_2.right, rows))


# -- block decomposition -------------------------------------------------------------------


def test_decompose_heterogeneous_sum(rng):
    comps = [
        sd.standard_idempotent(1),
        sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(2, rng)),
        sd.standard_idempotent(3),
    ]
    e = sd.direct_sum_idempotent(comps)
    blocks = sd.decompose_blocks(e)
    assert [b.size for b in blocks] == [1, 2, 3]
    for b, comp in zip(blocks, comps):
        assert b.certificate.ok
        e0 = sd.standard_idempotent_over(b.element.left)
        assert e0.lmul_b(b.twist.r).rmul_b(b.twist.s) == b.element
        # the reconstruction matches the original component up to nothing at all
        assert b.element.rows == comp.rows


def test_decompose_detects_leakage():
    e = sd.direct_sum_idempotent([sd.standard_idempotent(1), sd.standard_idempotent(2)])
    rows = [list(r) for r in e.rows]
    rows[0][1] = rational("1/3")  # cross-block coefficient
    tampered = sd.TensorElement(e.left, e.right, rows)
    with pytest.raises(CrossBlockLeakage):
        sd.decompose_blocks(tampered)


def _with_leak(t, i, j):
    rows = [list(r) for r in t.rows]
    rows[i][j] = rational(1)
    return sd.LinearMap(t.source, t.target, rows)


# One off-block entry in each global map decompose_blocks restricts: rows
# index the target, columns the source.  On M1 + M2, index 0 is the first
# block and 1..4 the second.
@pytest.mark.parametrize("name", ["antipode", "reverse_antipode", "modular", "reverse_modular"])
def test_decompose_detects_leaking_global_maps(name):
    e = sd.direct_sum_idempotent([sd.standard_idempotent(1), sd.standard_idempotent(2)])
    data = sd.derive_all(e)
    sd.decompose_blocks(e, data)
    tampered = dataclasses.replace(data, **{name: _with_leak(getattr(data, name), 2, 0)})
    with pytest.raises(SepidemError, match=r"^global \S+ leaks across block 0$"):
        sd.decompose_blocks(e, tampered)


def test_decompose_refuses_data_that_is_not_the_elements():
    """Supplied data is gated as derive_all gates: a block-diagonal but
    wrong S, or an element whose certificate is rejected, is refused
    rather than passed on to the blocks' certificates."""
    e = sd.direct_sum_idempotent([sd.standard_idempotent(1), sd.standard_idempotent(2)])
    data = sd.derive_all(e)
    for name in ("antipode", "reverse_antipode"):
        rows = [list(r) for r in getattr(data, name).rows]
        rows[0][0] = rational(2)  # inside block 0
        t = getattr(data, name)
        wrong = dataclasses.replace(data, **{name: sd.LinearMap(t.source, t.target, rows)})
        with pytest.raises(SepidemError, match=r"^supplied S or S' is not the element's own$"):
            sd.decompose_blocks(e, wrong)
    rows = [list(r) for r in e.rows]
    rows[1][1] = rational(0)  # M singular: not full
    rejected = sd.TensorElement(e.left, e.right, rows)
    assert sd.certify(rejected).mode == "rejected"
    with pytest.raises(RefusedForMode, match="certificate mode: rejected"):
        sd.decompose_blocks(rejected, data)


def test_decompose_blocks_read_the_sums_data(rng):
    """Each block's S, S', phi, psi, sigma and sigma' (which composes S^-1
    and S'^-1), read off the sum's by restriction, equal what the block
    derives on its own."""
    comps = [sd.standard_idempotent(1),
             sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(2, rng)),
             sd.twisted_idempotent(*sd.random_twisted_pair(3, rng))]
    e = sd.direct_sum_idempotent(comps)
    blocks = sd.decompose_blocks(e)
    for b, comp in zip(blocks, comps):
        fresh = sd.TensorElement(comp.left, comp.right, comp.rows)
        assert b.element == fresh
        assert b.certificate.antipode == sd.derive_antipode(fresh)
        assert b.certificate.reverse_antipode == sd.derive_reverse_antipode(fresh)
        got, want = sd.derive_all(b.element), sd.derive_all(fresh)
        for name in ("left_integral", "right_integral", "modular", "reverse_modular"):
            assert getattr(got, name) == getattr(want, name), name


def test_decompose_single_block(e0_2):
    blocks = sd.decompose_blocks(e0_2)
    assert len(blocks) == 1
    assert blocks[0].twist.r == e0_2.left.one()


def test_positive_integrals_on_involutive_family(rng):
    """Self-adjoint certified instances have positive integrals (both)."""
    for n in (2, 3):
        r = sd.random_involutive_diagonal(n, rng)
        e = sd.involutive_twisted_idempotent(r)
        data = sd.derive_all(e, "separability_idempotent")
        assert sd.check_positive(data.left_integral)[0]
        assert sd.check_positive(data.right_integral)[0]


# -- quadratic forms on integer numerators ----------------------------------------------------


def _ref_quadform(g, x, field):
    acc = field.zero
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            acc = acc + field.conj(xi) * g[i][j] * xj
    return acc


@pytest.mark.parametrize("field", [sd.EXACT, sd.FLOAT64], ids=["exact", "float64"])
def test_quadform_matches_the_scalar_loop(field):
    from sepidem.constructions import random_rational
    from sepidem.star import _gram_operand, _quadform

    rng = random.Random(5)

    def scalar(gaussian):
        re = random_rational(rng) if rng.random() < 0.7 else 0
        im = random_rational(rng) if gaussian and rng.random() < 0.5 else 0
        return field.coerce(sd.gauss(re, im) if field.is_exact else complex(re, im))

    for gaussian in (False, True):
        for dim in (1, 4, 9):
            g = [[scalar(gaussian) for _ in range(dim)] for _ in range(dim)]
            gram = _gram_operand(g, field)
            for _ in range(10):
                x = [scalar(gaussian) for _ in range(dim)]
                got, want = _quadform(gram, x, field), _ref_quadform(g, x, field)
                if field.is_exact:
                    assert got == want and type(got) is type(want)
                else:
                    assert field.eq(got, want)
