"""Fourier transforms, the pairing of the reduced duals, dual antipodes,
dual involutions, and the Plancherel identity.

The reduced duals are the spaces of functionals psi(b . ) on B and
phi( . c) on C.  They carry no algebra structure here, deliberately: only
the linear, pairing and star structure is exposed.  A dual element always
carries its representing element; equality is decided on covectors, which
are canonical, and representatives can be recovered from covectors through
the inverse of the faithfulness form.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # forms psi(b_i b_k) and phi(c_k c_j); Fourier is contraction with these
        self._form_b = data.right_integral.form_matrix()
        self._form_c = data.left_integral.form_matrix()
        self._form_b_inv = None
        self._form_c_inv = None
        self._s_inv = _inverse_map(e, "right")
        self._sp_inv = _inverse_map(e, "left")

    @classmethod
    def from_element(cls, e: TensorElement, mode=None) -> "Duality":
        return cls(derive_all(e, mode))

    # -- Fourier transform -------------------------------------------------

    def fourier(self, x: AlgebraElement, side: str = None) -> DualElement:
        """b -> psi(b . ) on the B side, c -> phi( . c) on the C side.

        side is only needed when the two algebras coincide."""
        if side is None:
            side = self._infer_side(x)
        f = self.field
        if side == "B":
            cov = linalg.vec_mat(list(x.coeffs), self._form_b, f)
        elif side == "C":
            cov = linalg.mat_vec(self._form_c, list(x.coeffs), f)
        else:
            raise SepidemError(f"unknown side {side!r}")
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
        cov = [f.coerce(c) for c in covector]
        if side == "B":
            if self._form_b_inv is None:
                self._form_b_inv = linalg.inverse(linalg.transpose(self._form_b), f)
            rep = AlgebraElement(self.B, linalg.mat_vec(self._form_b_inv, cov, f))
        elif side == "C":
            if self._form_c_inv is None:
                self._form_c_inv = linalg.inverse(self._form_c, f)
            rep = AlgebraElement(self.C, linalg.mat_vec(self._form_c_inv, cov, f))
        else:
            raise SepidemError(f"unknown side {side!r}")
        return DualElement(side, rep, tuple(cov))

    # -- pairing ------------------------------------------------------------

    def pairing(self, bhat: DualElement, chat: DualElement):
        """<bhat, chat> = (psi (x) phi)((b (x) 1) E (1 (x) c)).

        Evaluated as the contraction of the two covectors against the
        coefficient matrix; the two closed reductions
        phi(S'^-1(b) c) and psi(b S^-1(c)) are asserted to agree with it.
        """
        if bhat.side != "B" or chat.side != "C":
            raise SepidemError("pairing takes a B-side and a C-side dual element")
        f = self.field
        acc = f.zero
        for i, row in enumerate(self.element.rows):
            bi = bhat.covector[i]
            if not bi:
                continue
            for j, m in enumerate(row):
                if m and chat.covector[j]:
                    acc = acc + bi * m * chat.covector[j]
        b, c = bhat.representative, chat.representative
        red1 = self.data.left_integral(self._sp_inv(b) * c)
        red2 = self.data.right_integral(b * self._s_inv(c))
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
        f = self.field
        if w.side == "C":
            cov = linalg.vec_mat(list(w.covector), [list(r) for r in self.data.antipode.rows], f)
            rep = self._s_inv(w.representative)
            out = DualElement("B", rep, tuple(cov))
            if self.fourier(rep, "B") != out:
                raise SepidemError("dual antipode representative law fails")
            return out
        if w.side == "B":
            cov = linalg.vec_mat(
                list(w.covector), [list(r) for r in self.data.reverse_antipode.rows], f
            )
            rep = self._sp_inv(w.representative)
            out = DualElement("C", rep, tuple(cov))
            if self.fourier(rep, "C") != out:
                raise SepidemError("dual antipode representative law fails")
            return out
        raise SepidemError(f"unknown side {w.side!r}")

    # -- dual star --------------------------------------------------------------

    def dual_star(self, w: DualElement, _check_involution: bool = True) -> DualElement:
        """The involution on the duals; it swaps the two sides.

        B side: omega*(c) = conj(omega(S'(c)*)), with representative law
        (b^)* = (S(b*))^.  C side: omega*(b) = conj(omega(S(b)*)), with
        (c^)* = (S'(c*))^.  Involutivity omega** = omega is asserted.
        """
        if self.B.star_matrix is None or self.C.star_matrix is None:
            raise NoStarStructure("dual star needs star structures on both algebras")
        f = self.field
        if w.side == "B":
            cov = []
            for l in range(self.C.dim):
                t = self.data.reverse_antipode.on_basis(l).star()
                cov.append(f.conj(_apply_covector(w.covector, t.coeffs, f)))
            rep = self.data.antipode(w.representative.star())
            out = DualElement("C", rep, tuple(cov))
            if self.fourier(rep, "C") != out:
                raise SepidemError("dual star representative law fails")
        elif w.side == "C":
            cov = []
            for k in range(self.B.dim):
                t = self.data.antipode.on_basis(k).star()
                cov.append(f.conj(_apply_covector(w.covector, t.coeffs, f)))
            rep = self.data.reverse_antipode(w.representative.star())
            out = DualElement("B", rep, tuple(cov))
            if self.fourier(rep, "B") != out:
                raise SepidemError("dual star representative law fails")
        else:
            raise SepidemError(f"unknown side {w.side!r}")
        if _check_involution and self.dual_star(out, _check_involution=False) != w:
            raise SepidemError("dual star is not involutive")
        return out

    # -- Plancherel ----------------------------------------------------------------

    def plancherel_form(self, chat1: DualElement, chat2: DualElement):
        """<c1^, c2^> = <E, (c2^)* (x) c1^>, asserted equal to phi(c2* c1)."""
        if chat1.side != "C" or chat2.side != "C":
            raise SepidemError("the Plancherel form takes two C-side dual elements")
        f = self.field
        star2 = self.dual_star(chat2)
        acc = f.zero
        for i, row in enumerate(self.element.rows):
            si = star2.covector[i]
            if not si:
                continue
            for j, m in enumerate(row):
                if m and chat1.covector[j]:
                    acc = acc + si * m * chat1.covector[j]
        direct = self.data.left_integral(
            chat2.representative.star() * chat1.representative
        )
        if not f.eq(acc, direct):
            raise SepidemError("Plancherel identity fails; derived data inconsistent")
        return acc


def _apply_covector(cov, coeffs, field):
    acc = field.zero
    for a, b in zip(cov, coeffs):
        if a and b:
            acc = acc + a * b
    return acc
