"""Fourier transforms, the pairing of the reduced duals, dual antipodes,
dual involutions, and the Plancherel identity.

The reduced duals are the spaces of functionals psi(b . ) on B and
phi( . c) on C.  They carry no algebra structure here, deliberately: only
the linear, pairing and star structure is exposed.  A dual element always
carries its representing element; equality is decided on covectors, which
are canonical, and representatives can be recovered from covectors through
the inverse of the faithfulness form.

pairing_table and plancherel_gram build the CLI's dim x dim tables.  They
form the dual star (c^)* of every argument, and its star for the
involution check, as matrix products in one batch each: the covectors
contract against rows S(b_k)*, S'(c_l)* computed once per Duality and side
(_star_matrices), so the 2 dim dual stars cost O(dim^3) in all.  Each
table's entries <x, E, y> are contracted in one linalg.multilinear pass
(_contract_kernel), on integer numerators in exact mode; float values run
the same loop, in the order and association of the entrywise sum, so float
tables come out bit for bit as the entrywise forms.  Every entry still
asserts its identities, each table of them as matrix products of the
representatives' coefficient rows: with X and V the rows of the b's and
c's, the closed reductions of the pairing are

    phi(S'^-1(b) c) = (X S'^-1^T) (V F_C)^T    psi(b S^-1(c)) = (X F_B) (V S^-1^T)^T

and the Plancherel identity's right-hand side phi(c2* c1) is Y (V F_C)^T,
Y the rows of the c2*, where F_B and F_C are the Fourier matrices of the
sides (V F_C has the rows phi( . c)).  Every dual star asserts its
representative law and involutivity, the star of each argument before
that argument's row, in the order of the arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .algebra import AlgebraElement, _operand
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
        self._star_memo = {}
        self._coefficients = _operand(e.rows, self.field)

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
        as in pairing, the reductions as matrix products (module docstring)."""
        _require_side(bhats, "B", _PAIRING_SIDES)
        _require_side(chats, "C", _PAIRING_SIDES)
        f = self.field
        sb, sc = self._sides["B"], self._sides["C"]
        xs = [list(bh.representative.coeffs) for bh in bhats]
        vs = [list(ch.representative.coeffs) for ch in chats]
        red1 = linalg.mat_mul(sb.images(xs, f), linalg.transpose(sc.covectors(vs, f)), f)
        red2 = linalg.mat_mul(sb.covectors(xs, f), linalg.transpose(sc.images(vs, f)), f)
        table = self._contract([bh.covector for bh in bhats], [ch.covector for ch in chats])
        if not (linalg.mat_eq(table, red1, f) and linalg.mat_eq(table, red2, f)):
            raise SepidemError("pairing reductions disagree; derived maps are inconsistent")
        return table

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

    def dual_star(self, w: DualElement) -> DualElement:
        """The involution on the duals; it swaps the two sides.

        B side: omega*(c) = conj(omega(S'(c)*)), with representative law
        (b^)* = (S(b*))^.  C side: omega*(b) = conj(omega(S(b)*)), with
        (c^)* = (S'(c*))^.  Involutivity omega** = omega is asserted.
        """
        (star,) = self._stars([w])
        self._assert_star(*star)
        return star[1]

    def _stars(self, ws):
        """(w, w*, law of w*, w**, law of w**) for each of the duals ws, all
        on one side, a law being the Fourier covector of the star's
        representative; each is formed for all ws by one matrix product.
        Nothing is asserted yet (_assert_star)."""
        if not ws:
            return []
        self._require_stars()
        once, once_laws = self._star_batch(ws)
        back, back_laws = self._star_batch(once)
        return list(zip(ws, once, once_laws, back, back_laws))

    def _star_batch(self, ws):
        """The dual stars of ws, all on one side, and the Fourier covectors
        of their representatives."""
        f = self.field
        side = self._side(ws[0].side).other
        star_cols, into_cols = self._star_matrices(ws[0].side)
        covs = linalg.mat_mul([list(w.covector) for w in ws], star_cols, f)
        reps = linalg.mat_mul([list(w.representative.star().coeffs) for w in ws], into_cols, f)
        algebra = self._sides[side].algebra
        stars = [DualElement(side, AlgebraElement(algebra, rep), tuple(f.conj(c) for c in cov))
                 for rep, cov in zip(reps, covs)]
        return stars, self._sides[side].covectors(reps, f)

    def _assert_star(self, w, once, once_law, back, back_law):
        """The representative laws of w* and w**, then w** = w."""
        for out, law in ((once, once_law), (back, back_law)):
            if not linalg.mat_eq([law], [out.covector], self.field):
                raise SepidemError("dual star representative law fails")
        if back != w:
            raise SepidemError("dual star is not involutive")

    def _star_matrices(self, side):
        """For a dual on side, once per side: the columns S'(c_l)* (B side)
        or S(b_k)* (C side) its covector contracts against, and the
        transposed matrix of the anti-isomorphism into the other side."""
        mats = self._star_memo.get(side)
        if mats is None:
            t = self._sides[side].into
            other = self._sides[self._sides[side].other].into
            mats = (linalg.transpose([t.on_basis(k).star().coeffs for k in range(t.source.dim)]),
                    linalg.transpose(other.rows))
            self._star_memo[side] = mats
        return mats

    # -- Plancherel ----------------------------------------------------------------

    def plancherel_form(self, chat1: DualElement, chat2: DualElement):
        """<c1^, c2^> = <E, (c2^)* (x) c1^>, asserted equal to phi(c2* c1)."""
        _require_side((chat1, chat2), "C", _PLANCHEREL_SIDES)
        return self._plancherel_rows([chat2], [chat1])[0][0]

    def plancherel_gram(self, chats):
        """[[<c1^, c2^> for c1 in chats] for c2 in chats], each entry
        asserted as in plancherel_form, phi(c2* c1) as a matrix product
        (module docstring)."""
        _require_side(chats, "C", _PLANCHEREL_SIDES)
        return self._plancherel_rows(chats, chats)

    def _plancherel_rows(self, c2s, c1s):
        """One row per c2 of <c1^, c2^> over c1s; (c2^)* and its laws are
        asserted once per c2, before the entries of its row are."""
        self._require_stars()
        f = self.field
        stars = [list(c2.representative.star().coeffs) for c2 in c2s]
        covs = self._sides["C"].covectors([list(c1.representative.coeffs) for c1 in c1s], f)
        want = linalg.mat_mul(stars, linalg.transpose(covs), f)
        star2s = self._stars(c2s)
        rows = self._contract([s[1].covector for s in star2s], [c1.covector for c1 in c1s])
        for star2, row, want_row in zip(star2s, rows, want):
            self._assert_star(*star2)
            if not linalg.mat_eq([row], [want_row], f):
                raise SepidemError("Plancherel identity fails; derived data inconsistent")
        return rows

    def _contract(self, xs, ys):
        """[[sum_ij x_i m_ij y_j for y in ys] for x in xs] over the
        coefficient matrix m of E, in one linalg.multilinear pass."""
        f = self.field
        return linalg.multilinear_values(_contract_kernel, len(xs), len(ys), f, _operand(xs, f),
                                         self._coefficients, _operand(ys, f))

    def _require_stars(self):
        if self.B.star_matrix is None or self.C.star_matrix is None:
            raise NoStarStructure("dual star needs star structures on both algebras")


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

    def covectors(self, reps, field):
        """The Fourier covectors of the elements with coefficient rows reps."""
        return linalg.mat_mul(reps, self.fourier, field)

    def images(self, reps, field):
        """The coefficient rows of into_inv of those elements, on the other side."""
        return linalg.mat_mul(reps, linalg.transpose(self.into_inv.rows), field)


_PAIRING_SIDES = "pairing takes a B-side and a C-side dual element"
_PLANCHEREL_SIDES = "the Plancherel form takes two C-side dual elements"


def _require_side(duals, side, message):
    if any(w.side != side for w in duals):
        raise SepidemError(message)


def _contract_kernel(out, xs, m, ys):
    """out[p][q] += sum_ij x_pi m_ij y_qj, zeros skipped.  The terms
    (x_i m_ij) y_j are added in the order of i, then j, as the entrywise
    sum adds them."""
    m = [dict(row) for row in m]
    for orow, x in zip(out, xs):
        for q, y in enumerate(ys):
            acc = orow[q]
            for i, xi in x:
                mi = m[i]
                for j, yj in y:
                    mij = mi.get(j)
                    if mij:
                        acc += xi * mij * yj
            orow[q] = acc
