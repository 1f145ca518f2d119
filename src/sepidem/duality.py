"""Fourier transforms, the pairing of the reduced duals, dual antipodes,
dual involutions, and the Plancherel identity.

The reduced duals are the spaces of functionals psi(b . ) on B and
phi( . c) on C.  They carry no algebra structure here, deliberately: only
the linear, pairing and star structure is exposed.  A dual element always
carries its representing element; equality is decided on covectors, which
are canonical, and representatives can be recovered from covectors through
the inverse of the faithfulness form.

pairing_table and plancherel_gram build the CLI's dim x dim tables.  They
compute S'^-1(b), S^-1(c), the dual star (c^)* and c* once per argument,
and every dual star contracts against rows S(b_k)*, S'(c_l)* computed once
per Duality, so the 2 dim dual stars (with their involution checks) cost
O(dim^3) in all, where one pairing or plancherel_form call per entry took
2 dim^2 of them, O(dim^4).  Every entry still asserts its identities (both
closed reductions of the pairing; the Plancherel identity), and every dual
star its representative law and involutivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .algebra import AlgebraElement
from .engine import _inverse_map
from .errors import NoStarStructure, SepidemError
from .integrals import DerivedData, derive_all
from .tensor import TensorElement


@dataclass(frozen=True)
class DualElement:
    side: str                       # "B": psi(b . ) on B;  "C": phi( . c) on C
    representative: AlgebraElement
    covector: tuple

    def __eq__(self, other):
        if not isinstance(other, DualElement):
            return NotImplemented
        if self.side != other.side:
            return False
        f = self.representative.algebra.field
        return all(f.eq(a, b) for a, b in zip(self.covector, other.covector))

    __hash__ = None


class Duality:
    """Duality data attached to one certified element."""

    def __init__(self, data: DerivedData):
        self.data = data
        e = data.element
        self.element = e
        self.B, self.C = e.left, e.right
        self.field = e.field
        self._sides = {
            "B": _Side(self.B, data.right_integral.form_matrix(),
                       data.reverse_antipode, _inverse_map(e, "left"), "C"),
            "C": _Side(self.C, linalg.transpose(data.left_integral.form_matrix()),
                       data.antipode, _inverse_map(e, "right"), "B"),
        }
        self._inverse_fourier = {}
        self._star_rows_memo = {}

    def _side(self, side) -> "_Side":
        if side not in self._sides:
            raise SepidemError(f"unknown side {side!r}")
        return self._sides[side]

    @classmethod
    def from_element(cls, e: TensorElement, mode=None) -> "Duality":
        return cls(derive_all(e, mode))

    # -- Fourier transform -------------------------------------------------

    def fourier(self, x: AlgebraElement, side: str = None) -> DualElement:
        """b -> psi(b . ) on the B side, c -> phi( . c) on the C side.

        side is only needed when the two algebras coincide."""
        if side is None:
            side = self._infer_side(x)
        cov = linalg.vec_mat(list(x.coeffs), self._side(side).fourier, self.field)
        return DualElement(side, x, tuple(cov))

    def _infer_side(self, x):
        hit_b = x.algebra == self.B
        hit_c = x.algebra == self.C
        if hit_b and hit_c:
            raise SepidemError("the algebras coincide; pass side='B' or side='C'")
        if hit_b:
            return "B"
        if hit_c:
            return "C"
        raise SepidemError("element belongs to neither tensor leg")

    def from_covector(self, side: str, covector) -> DualElement:
        """Rebuild the representative from a covector (the forms are
        invertible because the integrals are faithful)."""
        f = self.field
        sd = self._side(side)
        cov = [f.coerce(c) for c in covector]
        if side not in self._inverse_fourier:
            self._inverse_fourier[side] = linalg.inverse(linalg.transpose(sd.fourier), f)
        rep = AlgebraElement(sd.algebra, linalg.mat_vec(self._inverse_fourier[side], cov, f))
        return DualElement(side, rep, tuple(cov))

    # -- pairing ------------------------------------------------------------

    def pairing(self, bhat: DualElement, chat: DualElement):
        """<bhat, chat> = (psi (x) phi)((b (x) 1) E (1 (x) c)).

        Evaluated as the contraction of the two covectors against the
        coefficient matrix; the two closed reductions
        phi(S'^-1(b) c) and psi(b S^-1(c)) are asserted to agree with it.
        """
        return self.pairing_table([bhat], [chat])[0][0]

    def pairing_table(self, bhats, chats):
        """[[<bh, ch> for ch in chats] for bh in bhats], each entry asserted
        as in pairing, with S'^-1(b) and S^-1(c) computed once per element."""
        _require_side(bhats, "B", _PAIRING_SIDES)
        _require_side(chats, "C", _PAIRING_SIDES)
        sp_inv_b = [self._sides["B"].into_inv(bh.representative) for bh in bhats]
        s_inv_c = [self._sides["C"].into_inv(ch.representative) for ch in chats]
        return [[self._pairing_entry(bh, ch, x, y) for ch, y in zip(chats, s_inv_c)]
                for bh, x in zip(bhats, sp_inv_b)]

    def _pairing_entry(self, bhat, chat, sp_inv_b, s_inv_c):
        f = self.field
        acc = _contract(bhat.covector, self.element.rows, chat.covector, f)
        red1 = self.data.left_integral(sp_inv_b * chat.representative)
        red2 = self.data.right_integral(bhat.representative * s_inv_c)
        if not (f.eq(acc, red1) and f.eq(acc, red2)):
            raise SepidemError("pairing reductions disagree; derived maps are inconsistent")
        return acc

    # -- dual antipodes -------------------------------------------------------

    def dual_antipode(self, w: DualElement) -> DualElement:
        """Precomposition with the anti-isomorphisms: a C-side dual maps to
        the B side through S, a B-side dual to the C side through S'.

        The representing-element laws are asserted:
        S^(c^) = (S^-1(c))^ and S'^(b^) = (S'^-1(b))^.
        """
        sd = self._side(w.side)
        cov = linalg.vec_mat(list(w.covector), [list(r) for r in sd.into.rows], self.field)
        rep = sd.into_inv(w.representative)
        out = DualElement(sd.other, rep, tuple(cov))
        if self.fourier(rep, sd.other) != out:
            raise SepidemError("dual antipode representative law fails")
        return out

    # -- dual star --------------------------------------------------------------

    def dual_star(self, w: DualElement, _check_involution: bool = True) -> DualElement:
        """The involution on the duals; it swaps the two sides.

        B side: omega*(c) = conj(omega(S'(c)*)), with representative law
        (b^)* = (S(b*))^.  C side: omega*(b) = conj(omega(S(b)*)), with
        (c^)* = (S'(c*))^.  Involutivity omega** = omega is asserted.
        """
        if self.B.star_matrix is None or self.C.star_matrix is None:
            raise NoStarStructure("dual star needs star structures on both algebras")
        side = self._side(w.side).other
        f = self.field
        cov = [f.conj(_apply_covector(w.covector, t, f)) for t in self._star_rows(w.side)]
        rep = self._sides[side].into(w.representative.star())
        out = DualElement(side, rep, tuple(cov))
        if self.fourier(rep, side) != out:
            raise SepidemError("dual star representative law fails")
        if _check_involution and self.dual_star(out, _check_involution=False) != w:
            raise SepidemError("dual star is not involutive")
        return out

    def _star_rows(self, side):
        """Coefficients of S'(c_l)* (B-side input) or S(b_k)* (C-side input),
        the rows a dual star contracts against; computed once per side."""
        rows = self._star_rows_memo.get(side)
        if rows is None:
            t = self._sides[side].into
            rows = [t.on_basis(k).star().coeffs for k in range(t.source.dim)]
            self._star_rows_memo[side] = rows
        return rows

    # -- Plancherel ----------------------------------------------------------------

    def plancherel_form(self, chat1: DualElement, chat2: DualElement):
        """<c1^, c2^> = <E, (c2^)* (x) c1^>, asserted equal to phi(c2* c1)."""
        _require_side((chat1, chat2), "C", _PLANCHEREL_SIDES)
        return self._plancherel_entry(chat1, self.dual_star(chat2),
                                      chat2.representative.star())

    def plancherel_gram(self, chats):
        """[[<c1^, c2^> for c1 in chats] for c2 in chats], each entry
        asserted as in plancherel_form, with (c2^)* (its laws asserted) and
        c2* computed once per c2."""
        _require_side(chats, "C", _PLANCHEREL_SIDES)
        gram = []
        for c2 in chats:
            star2, c2_star = self.dual_star(c2), c2.representative.star()
            gram.append([self._plancherel_entry(c1, star2, c2_star) for c1 in chats])
        return gram

    def _plancherel_entry(self, chat1, star2, c2_star):
        f = self.field
        acc = _contract(star2.covector, self.element.rows, chat1.covector, f)
        if not f.eq(acc, self.data.left_integral(c2_star * chat1.representative)):
            raise SepidemError("Plancherel identity fails; derived data inconsistent")
        return acc


class _Side(NamedTuple):
    """One side of the duality: its algebra, its Fourier matrix (entry k, j
    is psi(b_k b_j) on B, phi(c_j c_k) on C; a covector is the coefficients
    times it), the anti-isomorphism into it (S' into B, S into C) with its
    inverse, and the other side."""

    algebra: object
    fourier: list
    into: object
    into_inv: object
    other: str


_PAIRING_SIDES = "pairing takes a B-side and a C-side dual element"
_PLANCHEREL_SIDES = "the Plancherel form takes two C-side dual elements"


def _require_side(duals, side, message):
    if any(w.side != side for w in duals):
        raise SepidemError(message)


def _contract(x, rows, y, field):
    """sum_ij x_i m_ij y_j over the coefficient matrix m, zeros skipped."""
    acc = field.zero
    for i, row in enumerate(rows):
        xi = x[i]
        if not xi:
            continue
        for j, m in enumerate(row):
            if m and y[j]:
                acc = acc + xi * m * y[j]
    return acc


def _apply_covector(cov, coeffs, field):
    acc = field.zero
    for a, b in zip(cov, coeffs):
        if a and b:
            acc = acc + a * b
    return acc
