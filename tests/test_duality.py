import dataclasses
import random

import pytest

import sepidem as sd
from sepidem.errors import SepidemError
from sepidem.scalars import rational


def u(a, i, j):
    return a.basis_element(a.unit_index(0, i, j))


@pytest.fixture
def dual_e0(e0_2):
    return sd.Duality(sd.derive_all(e0_2))


@pytest.fixture
def dual_75(involutive_75):
    return sd.Duality(sd.derive_all(involutive_75))


def test_fourier_covector_e0(dual_e0, m2):
    bh = dual_e0.fourier(u(m2, 0, 0), "B")
    # psi(e11 e_kl) = 2 Tr(e11 e_kl) picks out the e11 coefficient
    assert list(bh.covector) == [2, 0, 0, 0]


def test_fourier_of_zero(dual_e0, m2):
    assert all(c == 0 for c in dual_e0.fourier(m2.zero(), "B").covector)


def test_fourier_twisted_weight(dual_75, m2):
    bh = dual_75.fourier(u(m2, 0, 0), "B")
    # psi = 2 Tr(p . ) with p = diag(25/49, 25)
    assert bh.covector[0] == rational("50/49")


def test_fourier_is_bijective(dual_e0, m2):
    mat = [list(dual_e0.fourier(m2.basis_element(k), "B").covector) for k in range(4)]
    from sepidem import linalg

    assert linalg.rank(mat, m2.field) == 4


def test_covector_round_trip(dual_75, m2):
    x = u(m2, 0, 1) + 3 * u(m2, 1, 1)
    for side in ("B", "C"):
        d = dual_75.fourier(x, side)
        back = dual_75.from_covector(side, d.covector)
        assert back.representative == x


def test_pairing_e0(dual_e0, m2):
    val = dual_e0.pairing(dual_e0.fourier(u(m2, 0, 0), "B"),
                          dual_e0.fourier(u(m2, 0, 0), "C"))
    assert val == 2


def test_pairing_zero(dual_e0, m2):
    val = dual_e0.pairing(dual_e0.fourier(m2.zero(), "B"),
                          dual_e0.fourier(u(m2, 0, 0), "C"))
    assert val == 0


def test_pairing_three_way_equality(dual_75, m2, involutive_75):
    """The pairing equals both closed reductions on all basis pairs (the
    Duality.pairing call asserts this internally; evaluate them here too)."""
    data = dual_75.data
    sp_inv = data.reverse_antipode.inverse()
    s_inv = data.antipode.inverse()
    for k in range(4):
        for l in range(4):
            b, c = m2.basis_element(k), m2.basis_element(l)
            val = dual_75.pairing(dual_75.fourier(b, "B"), dual_75.fourier(c, "C"))
            assert val == data.left_integral(sp_inv(b) * c)
            assert val == data.right_integral(b * s_inv(c))


def test_pairing_side_mismatch(dual_e0, m2):
    bh = dual_e0.fourier(u(m2, 0, 0), "B")
    with pytest.raises(SepidemError):
        dual_e0.pairing(bh, bh)


def test_dual_antipode_e0(dual_e0, m2):
    ch = dual_e0.fourier(u(m2, 0, 1), "C")
    out = dual_e0.dual_antipode(ch)
    assert out.side == "B"
    assert out.representative == u(m2, 1, 0)  # S^-1 = transpose


def test_dual_antipode_zero(dual_e0, m2):
    out = dual_e0.dual_antipode(dual_e0.fourier(m2.zero(), "C"))
    assert all(c == 0 for c in out.covector)


def test_dual_antipode_twisted(dual_75, m2):
    s_inv = dual_75.data.antipode.inverse()
    ch = dual_75.fourier(u(m2, 0, 1), "C")
    out = dual_75.dual_antipode(ch)
    assert out.representative == s_inv(u(m2, 0, 1))


def test_dual_antipode_intertwines_fourier(dual_75, m2):
    """S^ . fourier_C = fourier_B . S^-1 and S'^ . fourier_B = fourier_C . S'^-1."""
    s_inv = dual_75.data.antipode.inverse()
    sp_inv = dual_75.data.reverse_antipode.inverse()
    for k in range(4):
        c = m2.basis_element(k)
        assert dual_75.dual_antipode(dual_75.fourier(c, "C")) == dual_75.fourier(s_inv(c), "B")
        b = m2.basis_element(k)
        assert dual_75.dual_antipode(dual_75.fourier(b, "B")) == dual_75.fourier(sp_inv(b), "C")


def test_dual_star_e0(dual_e0, m2):
    bh = dual_e0.fourier(u(m2, 0, 1), "B")
    out = dual_e0.dual_star(bh)
    assert out.side == "C"
    # (b^)* = (S(b*))^ = (S(e21))^ = (e12)^
    assert out.representative == u(m2, 0, 1)
    assert out == dual_e0.fourier(u(m2, 0, 1), "C")


def test_dual_star_fixes_real_diagonal(dual_e0, m2):
    x = u(m2, 0, 0) + 3 * u(m2, 1, 1)
    out = dual_e0.dual_star(dual_e0.fourier(x, "B"))
    # here S = transpose and x* = x, so the covector values agree entrywise
    assert list(out.covector) == list(dual_e0.fourier(x, "C").covector)


def test_dual_star_involutive_twisted(dual_75, m2, rng):
    for k in range(4):
        w = dual_75.fourier(m2.basis_element(k), "B")
        assert dual_75.dual_star(dual_75.dual_star(w)) == w
    x = sd.random_element(m2, rng)
    w = dual_75.fourier(x, "C")
    assert dual_75.dual_star(dual_75.dual_star(w)) == w


def test_plancherel_e0(dual_e0, m2):
    ch = dual_e0.fourier(u(m2, 0, 1), "C")
    # phi(e21 e12) = phi(e22) = 2
    assert dual_e0.plancherel_form(ch, ch) == 2


def test_plancherel_zero(dual_e0, m2):
    z = dual_e0.fourier(m2.zero(), "C")
    ch = dual_e0.fourier(u(m2, 0, 1), "C")
    assert dual_e0.plancherel_form(z, ch) == 0


def test_plancherel_twisted(dual_75, m2):
    ch = dual_75.fourier(u(m2, 0, 0), "C")
    assert dual_75.plancherel_form(ch, ch) == rational("50/49")


def test_duality_in_float_mode():
    e = sd.standard_idempotent(2, field=sd.FLOAT64)
    dual = sd.Duality(sd.derive_all(e))
    a = e.left
    bh = dual.fourier(a.basis_element(0), "B")
    ch = dual.fourier(a.basis_element(0), "C")
    assert abs(dual.pairing(bh, ch) - 2) < 1e-9
    st = dual.dual_star(dual.fourier(a.basis_element(1), "B"))
    assert st.side == "C"
    assert abs(dual.plancherel_form(ch, ch) - 2) < 1e-9


def test_plancherel_is_hermitian_psd(dual_75, m2):
    chats = [dual_75.fourier(m2.basis_element(j), "C") for j in range(4)]
    gram = [[dual_75.plancherel_form(c1, c2) for c1 in chats] for c2 in chats]
    from sepidem import linalg

    assert linalg.is_hermitian(gram, m2.field)
    ok, _ = linalg.hermitian_psd(gram, m2.field)
    assert ok


# -- the CLI's tables ----------------------------------------------------------------


def _hats(dual):
    e = dual.element
    return ([dual.fourier(e.left.basis_element(i), "B") for i in range(e.left.dim)],
            [dual.fourier(e.right.basis_element(j), "C") for j in range(e.right.dim)])


def _table_instances(field):
    rng = random.Random(11)
    twists = [sd.involutive_twisted_idempotent(sd.random_involutive_diagonal(n, rng, field=field))
              for n in (2, 3)]
    e0 = sd.standard_idempotent(2, field=field)
    two_blocks = sd.direct_sum_idempotent([sd.standard_idempotent(1, field=field), twists[0]])
    return [e0, *twists, two_blocks]


@pytest.mark.parametrize("field", [sd.EXACT, sd.FLOAT64], ids=["exact", "float64"])
def test_tables_equal_the_entrywise_forms(field):
    for e in _table_instances(field):
        dual = sd.Duality(sd.derive_all(e))
        bhats, chats = _hats(dual)
        assert dual.pairing_table(bhats, chats) == [
            [dual.pairing(bh, ch) for ch in chats] for bh in bhats]
        assert dual.plancherel_gram(chats) == [
            [dual.plancherel_form(c1, c2) for c1 in chats] for c2 in chats]


def _ref_contract(x, rows, y, field):
    """sum_ij x_i m_ij y_j, the scalar loop, zeros skipped."""
    acc = field.zero
    for i, row in enumerate(rows):
        for j, m in enumerate(row):
            if x[i] and m and y[j]:
                acc = acc + x[i] * m * y[j]
    return acc


def _ref_star_covector(dual, ch):
    """The covector of (c^)*, b -> conj(c^(S(b)*)), as a scalar loop."""
    f = dual.field
    images = [dual.data.antipode.on_basis(k).star().coeffs for k in range(dual.B.dim)]
    out = []
    for img in images:
        acc = f.zero
        for w, v in zip(ch.covector, img):
            if w and v:
                acc = acc + w * v
        out.append(f.conj(acc))
    return out


@pytest.mark.parametrize("field", [sd.EXACT, sd.FLOAT64], ids=["exact", "float64"])
def test_tables_equal_the_scalar_loop(field):
    """The one-pass tables equal the entrywise scalar loop: exactly, with
    the same scalar types, in exact mode; bit for bit in float mode."""
    for e in _table_instances(field):
        dual = sd.Duality(sd.derive_all(e))
        bhats, chats = _hats(dual)
        want = [[_ref_contract(bh.covector, e.rows, ch.covector, field) for ch in chats]
                for bh in bhats]
        stars = [_ref_star_covector(dual, c2) for c2 in chats]
        gram = [[_ref_contract(st, e.rows, c1.covector, field) for c1 in chats] for st in stars]
        for got, ref in ((dual.pairing_table(bhats, chats), want),
                         (dual.plancherel_gram(chats), gram)):
            assert got == ref
            assert [[type(x) for x in row] for row in got] == [[type(x) for x in row]
                                                               for row in ref]


def test_tables_check_sides(dual_e0):
    bhats, chats = _hats(dual_e0)
    with pytest.raises(SepidemError, match="pairing takes"):
        dual_e0.pairing_table(chats, chats)
    with pytest.raises(SepidemError, match="Plancherel form takes"):
        dual_e0.plancherel_gram(bhats)


def _scaled_map(t, k):
    return sd.LinearMap(t.source, t.target, [[k * c for c in row] for row in t.rows])


def _scaled_functional(f, k):
    return sd.LinearFunctional(f.algebra, [k * c for c in f.covector])


# Each corruption of the derived data trips one check of the tables, run in
# the CLI's order: 2 phi scales one reduction of the pairing but not the
# other; 2 S breaks (c^)* = (S'(c*))^; 2 S and 2 S' keep that law on both
# sides but give w** = 4 w; -S and -S' negate the dual star, which stays a
# lawful involution but flips the sign of the Plancherel form.
CORRUPTIONS = {
    "pairing reductions disagree":
        lambda d: {"left_integral": _scaled_functional(d.left_integral, 2)},
    "dual star representative law fails":
        lambda d: {"antipode": _scaled_map(d.antipode, 2)},
    "dual star is not involutive":
        lambda d: {"antipode": _scaled_map(d.antipode, 2),
                   "reverse_antipode": _scaled_map(d.reverse_antipode, 2)},
    "Plancherel identity fails":
        lambda d: {"antipode": _scaled_map(d.antipode, -1),
                   "reverse_antipode": _scaled_map(d.reverse_antipode, -1)},
}


@pytest.mark.parametrize("message", list(CORRUPTIONS))
def test_table_checks_fail_on_corrupted_data(involutive_75, message):
    def tables(data):
        dual = sd.Duality(data)
        bhats, chats = _hats(dual)
        dual.pairing_table(bhats, chats)
        dual.plancherel_gram(chats)

    data = sd.derive_all(involutive_75)
    tables(data)
    with pytest.raises(SepidemError, match=message):
        tables(dataclasses.replace(data, **CORRUPTIONS[message](data)))
