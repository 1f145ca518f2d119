import pytest
from hypothesis import given, settings, strategies as st

import sepidem as sd
from sepidem.algebra import product_degeneracy_witness
from sepidem.errors import (
    AssociativityViolation,
    NoBlockPresentation,
    NotAntiMultiplicative,
    NotInvertible,
    NotMultiplicative,
    NotUnital,
    SepidemError,
)
from sepidem.scalars import EXACT, rational


def test_matrix_algebra_scalars():
    a = sd.matrix_algebra(1)
    assert a.dim == 1
    assert a.one() == a.basis_element(0)


def test_matrix_unit_relations(m2):
    e12 = m2.basis_element(m2.unit_index(0, 0, 1))
    e21 = m2.basis_element(m2.unit_index(0, 1, 0))
    e11 = m2.basis_element(m2.unit_index(0, 0, 0))
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()


def test_star_is_conjugate_transpose(m3):
    e12 = m3.basis_element(m3.unit_index(0, 0, 1))
    e21 = m3.basis_element(m3.unit_index(0, 1, 0))
    assert e12.star() == e21
    z = sd.gauss(0, 1) * e12
    assert z.star() == sd.gauss(0, -1) * e21


def test_direct_sum_basics():
    a = sd.direct_sum([sd.matrix_algebra(1), sd.matrix_algebra(2)])
    assert a.dim == 5
    assert a.blocks == (1, 2)
    assert a.one().coeffs.count(EXACT.one) == 3  # unit is (1, 1)


def test_direct_sum_cross_block_products_vanish():
    a = sd.direct_sum([sd.matrix_algebra(2), sd.matrix_algebra(2)])
    e12_b1 = a.basis_element(a.unit_index(0, 0, 1))
    e21_b2 = a.basis_element(a.unit_index(1, 1, 0))
    assert (e12_b1 * e21_b2).is_zero()


def test_direct_sum_trace_values_on_block_units():
    a = sd.direct_sum([sd.matrix_algebra(n) for n in (1, 2, 3)])
    assert a.dim == 14
    tr = sd.trace_functional(a)
    # value of the trace on each block's identity component
    for block, size in enumerate((1, 2, 3)):
        unit_block = a.zero()
        for i in range(size):
            unit_block = unit_block + a.basis_element(a.unit_index(block, i, i))
        assert tr(unit_block) == rational(size)


def _m2_constants():
    a = sd.matrix_algebra(2)
    dense = [
        [[EXACT.zero] * 4 for _ in range(4)]
        for _ in range(4)
    ]
    for i in range(4):
        for j in range(4):
            for k, c in a.mult[i][j]:
                dense[i][j][k] = c
    return dense, list(a.unit)


def test_structure_constant_round_trip():
    dense, unit = _m2_constants()
    a = sd.structure_constant_algebra(dense, unit)
    b = sd.matrix_algebra(2)
    for i in range(4):
        for j in range(4):
            assert a.mult[i][j] == b.mult[i][j]


def test_structure_constant_associativity_violation():
    dense, unit = _m2_constants()
    dense[1][1][1] = EXACT.one  # e12 * e12 must vanish
    with pytest.raises((AssociativityViolation, NotUnital)):
        sd.structure_constant_algebra(dense, unit)


def test_structure_constant_commutative_case():
    # C + C with pointwise product
    dense = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    a = sd.structure_constant_algebra(dense, [1, 1])
    x = a.element([2, 3])
    y = a.element([5, 7])
    assert x * y == a.element([10, 21])


def test_structure_constant_not_unital():
    dense = [[[0]]]  # zero product cannot have a unit
    with pytest.raises(NotUnital):
        sd.structure_constant_algebra(dense, [1])


def test_degeneracy_witness_on_raw_table():
    # 2-dim non-unital table where b2 kills everything
    mult = (
        (((0, EXACT.one),), ()),
        ((), ()),
    )
    w = product_degeneracy_witness(mult, 2, EXACT)
    assert w is not None


def test_direct_sum_rejects_mixed_backends():
    from sepidem.errors import BackendMismatch

    with pytest.raises(BackendMismatch):
        sd.direct_sum([sd.matrix_algebra(2), sd.matrix_algebra(2, field=sd.FLOAT64)])


def test_transpose_anti_map(m2):
    s0 = sd.transpose_anti_map(m2)
    e12 = m2.basis_element(m2.unit_index(0, 0, 1))
    e21 = m2.basis_element(m2.unit_index(0, 1, 0))
    assert s0(e12) == e21
    assert s0(m2.one()) == m2.one()
    assert s0.anti_multiplicative_witness() is None
    assert s0.compose(s0) == sd.identity_map(m2)


def test_transpose_anti_map_blockwise():
    a = sd.direct_sum([sd.matrix_algebra(2), sd.matrix_algebra(3)])
    s0 = sd.transpose_anti_map(a)
    # brute-force anti-homomorphism check over all basis pairs
    for i in range(a.dim):
        for j in range(a.dim):
            x, y = a.basis_element(i), a.basis_element(j)
            assert s0(x * y) == s0(y) * s0(x)
    assert s0.compose(s0) == sd.identity_map(a)


def test_generating_set_of_blocks():
    a = sd.direct_sum([sd.matrix_algebra(1), sd.matrix_algebra(3)])
    gens = a.generating_set()
    assert len(gens) == 3
    assert gens[0] == a.basis_element(a.unit_index(0, 0, 0))
    up = a.basis_element(a.unit_index(1, 0, 1)) + a.basis_element(a.unit_index(1, 1, 2))
    down = a.basis_element(a.unit_index(1, 1, 0)) + a.basis_element(a.unit_index(1, 2, 1))
    assert gens[1:] == [up, down]


def test_generating_set_without_blocks():
    a = sd.structure_constant_algebra([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    assert a.generating_set() == [a.basis_element(0), a.basis_element(1)]


def test_generator_check_sees_non_generator_image(m3):
    """Altering T(e13) of the transpose map on M3 must still be caught,
    although e13 is none of the generators the check runs on."""
    e13 = m3.unit_index(0, 0, 2)
    assert all(not g.coeffs[e13] for g in m3.generating_set())
    rows = [list(r) for r in sd.transpose_anti_map(m3).rows]
    rows[m3.unit_index(0, 1, 1)][e13] = EXACT.one  # T(e13) = e31 + e22
    t = sd.LinearMap(m3, m3, rows)
    assert t(m3.one()) == m3.one()
    with pytest.raises(NotAntiMultiplicative) as info:
        t.assert_anti_multiplicative()
    i, j = info.value.witness
    assert e13 in [k for k, _ in m3.mult[i][j]]


def test_zero_map_fails_only_on_the_unit(m3):
    """The zero map satisfies T(xy) = T(y)T(x) on every basis pair; only
    T(1) = 1 rejects it."""
    zero = sd.LinearMap(m3, m3, [[0] * m3.dim for _ in range(m3.dim)])
    for i in range(m3.dim):
        for j in range(m3.dim):
            x, y = m3.basis_element(i), m3.basis_element(j)
            assert zero(x * y) == zero(y) * zero(x)
    with pytest.raises(NotAntiMultiplicative) as info:
        zero.assert_anti_multiplicative()
    assert info.value.witness == "unit"
    with pytest.raises(NotMultiplicative) as info:
        zero.assert_multiplicative()
    assert info.value.witness == "unit"


def test_transpose_needs_blocks():
    dense = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    a = sd.structure_constant_algebra(dense, [1, 1])
    with pytest.raises(NoBlockPresentation):
        sd.transpose_anti_map(a)


def test_invert_diagonal(m2):
    x = sd.element_from_matrix(m2, [["7/5", 0], [0, "1/5"]])
    assert x.inverse() == sd.element_from_matrix(m2, [["5/7", 0], [0, 5]])


def test_invert_rank_deficient(m2):
    e11 = m2.basis_element(m2.unit_index(0, 0, 0))
    with pytest.raises(NotInvertible):
        e11.inverse()


def test_invert_unit(m2):
    assert m2.one().inverse() == m2.one()


def test_trace_functional(m2):
    tr = sd.trace_functional(m2)
    assert tr(m2.basis_element(m2.unit_index(0, 0, 0))) == 1
    assert tr(m2.basis_element(m2.unit_index(0, 0, 1))) == 0
    assert tr(m2.one()) == 2
    a = sd.direct_sum([sd.matrix_algebra(1), sd.matrix_algebra(2)])
    assert sd.trace_functional(a)(a.one()) == 3


coeff4 = st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4)


@settings(max_examples=40)
@given(coeff4, coeff4)
def test_star_reverses_products(x, y):
    a = sd.matrix_algebra(2, with_star=True)
    u, v = a.element(x), a.element(y)
    assert (u * v).star() == v.star() * u.star()
    assert u.star().star() == u


@settings(max_examples=30)
@given(coeff4)
def test_inverse_is_two_sided(x):
    a = sd.matrix_algebra(2)
    u = a.element(x)
    try:
        v = u.inverse()
    except NotInvertible:
        return
    assert u * v == a.one()
    assert v * u == a.one()


@settings(max_examples=40)
@given(coeff4, coeff4)
def test_transpose_map_is_anti_multiplicative_on_elements(x, y):
    a = sd.matrix_algebra(2)
    s0 = sd.transpose_anti_map(a)
    u, v = a.element(x), a.element(y)
    assert s0(u * v) == s0(v) * s0(u)


def test_associativity_exhaustive_on_construction(m3):
    # construction already verifies; spot-check the triple products directly
    for i in range(m3.dim):
        x = m3.basis_element(i)
        for j in range(0, m3.dim, 4):
            y = m3.basis_element(j)
            for k in range(0, m3.dim, 3):
                z = m3.basis_element(k)
                assert (x * y) * z == x * (y * z)


def test_functional_faithfulness(m2):
    tr = sd.trace_functional(m2)
    assert tr.is_faithful()
    dead = m2.functional([1, 0, 0, 0])
    assert not dead.is_faithful()
    assert dead.faithfulness_witness() is not None


def test_functional_traciality(m2):
    tr = sd.trace_functional(m2)
    assert tr.is_tracial()
    skew = m2.functional([1, 0, 0, 2])  # tau(e11) != tau(e22)
    assert skew.traciality_witness() is not None


# -- validation of block-presented algebras --------------------------------------------------


def _rebuild(a, mult=None, star=None):
    """a's presentation again, with the table or the star matrix replaced."""
    return sd.Algebra(a.field, a.labels, a.mult if mult is None else mult, a.unit,
                      a.star_matrix if star is None else star, a.blocks)


def _block_algebras():
    return [sd.matrix_algebra(2, with_star=True),
            sd.direct_sum([sd.matrix_algebra(1, with_star=True),
                           sd.matrix_algebra(2, with_star=True)])]


def _scaled_star(a, c):
    return [[c * x for x in row] for row in a.star_matrix]


def _first_star_failure(a, star):
    """The exhaustive basis-pair loop: the first (i, j) where the map with
    matrix star, applied to conjugated coefficients, does not reverse the
    product b_i b_j."""
    def apply(x):
        return a.element([sum(star[k][i] * EXACT.conj(c) for i, c in enumerate(x.coeffs))
                          for k in range(a.dim)])

    for i in range(a.dim):
        for j in range(a.dim):
            bi, bj = a.basis_element(i), a.basis_element(j)
            if apply(bi * bj) != apply(bj) * apply(bi):
                return a.labels[i], a.labels[j]
    return None


@pytest.mark.parametrize("a", _block_algebras(), ids=["M2", "M1+M2"])
def test_star_validation_rejects_a_non_involutive_star(a):
    with pytest.raises(SepidemError, match="star map is not involutive"):
        _rebuild(a, star=_scaled_star(a, 2))


@pytest.mark.parametrize("a", _block_algebras(), ids=["M2", "M1+M2"])
def test_star_validation_rejects_a_star_moving_the_unit(a):
    # x -> -x* is involutive and antilinear, and sends 1 to -1
    with pytest.raises(SepidemError, match="star does not fix the unit"):
        _rebuild(a, star=_scaled_star(a, -1))


@pytest.mark.parametrize("a", _block_algebras(), ids=["M2", "M1+M2"])
def test_star_validation_names_the_first_failing_basis_pair(a):
    # the identity is involutive and fixes the unit, but does not reverse products
    identity = [[EXACT.one if i == k else EXACT.zero for i in range(a.dim)]
                for k in range(a.dim)]
    i, j = _first_star_failure(a, identity)
    with pytest.raises(SepidemError,
                       match=rf"star is not anti-multiplicative on \({i}, {j}\)$"):
        _rebuild(a, star=identity)


def test_star_validation_accepts_a_twisted_star(m2):
    # x -> u x* u^-1 with u = diag(1, -1): e12 -> -e21, e21 -> -e12
    star = [list(r) for r in m2.star_matrix]
    star[1][2], star[2][1] = -EXACT.one, -EXACT.one
    a = _rebuild(m2, star=star)
    e12, e21 = a.basis_element(1), a.basis_element(2)
    assert e12.star() == -e21 and (e12 * e21).star() == e21.star() * e12.star()


@pytest.mark.parametrize("a", _block_algebras(), ids=["M2", "M1+M2"])
def test_block_validation_rejects_a_corrupted_cell(a):
    t1 = a.dim - 4  # e11 of the last (2 x 2) block
    for cell in (((t1 + 1, EXACT.one),), (), ((t1, EXACT.one), (t1 + 1, EXACT.one)),
                 ((t1, 5 * EXACT.one), (t1, EXACT.one))):
        mult = [list(row) for row in a.mult]
        mult[t1][t1] = cell  # e11 e11 must be e11
        with pytest.raises(SepidemError, match="do not match the declared block presentation"):
            _rebuild(a, mult=mult)


def test_block_validation_sums_repeated_indices(m2):
    # b_0 b_0 = 3 e11 - 2 e11 = e11: the table the product kernels read
    mult = [list(row) for row in m2.mult]
    mult[0][0] = ((0, 3 * EXACT.one), (0, -2 * EXACT.one))
    a = _rebuild(m2, mult=mult)
    assert a.basis_element(0) * a.basis_element(0) == a.basis_element(0)


# -- direct sums, valid by construction ----------------------------------------------------


def _direct_sums():
    # C^2 on the basis 1, p with p^2 = p: a component without blocks
    c2 = sd.structure_constant_algebra(
        [[[1, 0], [0, 1]], [[0, 1], [0, 1]]], unit=[1, 0], labels=["1", "p"])
    return {
        "M1+M2+M3, star": [sd.matrix_algebra(n, with_star=True) for n in (1, 2, 3)],
        "M1+M2+M3": [sd.matrix_algebra(n) for n in (1, 2, 3)],
        "M2+C2": [sd.matrix_algebra(2, with_star=True), c2],
    }


@pytest.mark.parametrize("name", list(_direct_sums()))
def test_direct_sum_equals_the_validated_presentation(name, monkeypatch):
    """direct_sum does not validate its sum, and the sum is the algebra
    that Algebra(...) builds from the same presentation with every law
    checked."""
    components = _direct_sums()[name]
    monkeypatch.setattr(sd.Algebra, "_validate", lambda self: pytest.fail("validated again"))
    a = sd.direct_sum(components)
    monkeypatch.undo()
    assert a == _rebuild(a)
    assert (a.blocks is None) == (name == "M2+C2")
    assert (a.star_matrix is None) == (name != "M1+M2+M3, star")
