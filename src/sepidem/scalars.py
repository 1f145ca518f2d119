"""Scalar backends.

Two backends are supported:

* exact -- Gaussian rationals.  Real values are plain
  ``fractions.Fraction``; values with a nonzero imaginary part are
  ``GaussianRational`` pairs.  Arithmetic normalizes back to the plain
  rational type whenever the imaginary part cancels, so purely real
  computations never pay for the complex wrapper.  Equality is literal.

* float64 -- Python ``complex``, compared up to a configurable relative
  tolerance (default 1e-9).

Square roots are not available in the exact backend; anything that needs
them (polar decompositions and the like) is float-mode only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch

_REAL_TYPES = (int, Fraction)

_R0 = Fraction(0)
_R1 = Fraction(1)


def rational(x) -> Fraction:
    """Coerce x to the exact rational type.  Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot coerce {x!r} to an exact rational (floats are not exact)")


class GaussianRational:
    """A rational complex number re + im*i with im != 0 after arithmetic.

    Binary operators accept plain rationals and ints on either side; any
    result with zero imaginary part collapses back to the plain rational
    type, keeping the real fast path type-stable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = rational(re)
        self.im = rational(im)

    def conjugate(self):
        return _gauss(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, o):
        if isinstance(o, GaussianRational):
            return _gauss(self.re + o.re, self.im + o.im)
        if isinstance(o, _REAL_TYPES):
            return GaussianRational(self.re + o, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, o):
        if isinstance(o, GaussianRational):
            return _gauss(self.re - o.re, self.im - o.im)
        if isinstance(o, _REAL_TYPES):
            return GaussianRational(self.re - o, self.im)
        return NotImplemented

    def __rsub__(self, o):
        if isinstance(o, _REAL_TYPES):
            return GaussianRational(o - self.re, -self.im)
        return NotImplemented

    def __mul__(self, o):
        if isinstance(o, GaussianRational):
            a, b, c, d = self.re, self.im, o.re, o.im
            return _gauss(a * c - b * d, a * d + b * c)
        if isinstance(o, _REAL_TYPES):
            if not o:
                return _R0
            return GaussianRational(self.re * o, self.im * o)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, GaussianRational):
            a, b, c, d = self.re, self.im, o.re, o.im
            n = c * c + d * d
            return _gauss((a * c + b * d) / n, (b * c - a * d) / n)
        if isinstance(o, _REAL_TYPES):
            return GaussianRational(self.re / o, self.im / o)
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, _REAL_TYPES):
            c, d = self.re, self.im
            n = c * c + d * d
            return _gauss(o * c / n, -o * d / n)
        return NotImplemented

    def __eq__(self, o):
        if isinstance(o, GaussianRational):
            return self.re == o.re and self.im == o.im
        if isinstance(o, _REAL_TYPES):
            return not self.im and self.re == o
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _gauss(re, im):
    if not im:
        return re
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


def gauss(re, im=0):
    """Exact scalar from rational real and imaginary parts."""
    return _gauss(rational(re), rational(im))


def conj(x):
    if isinstance(x, GaussianRational):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x


def real_part(x):
    if isinstance(x, GaussianRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def imag_part(x):
    if isinstance(x, GaussianRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    return 0


def is_real(x) -> bool:
    if isinstance(x, GaussianRational):
        return not x.im
    if isinstance(x, complex):
        return x.imag == 0.0
    return True


def to_complex(x) -> complex:
    if isinstance(x, GaussianRational):
        return complex(float(x.re), float(x.im))
    if isinstance(x, complex):
        return x
    return complex(float(x))


class ExactField:
    """Gaussian rationals with literal equality."""

    name = "exact"
    is_exact = True
    zero = _R0
    one = _R1

    def coerce(self, x):
        if isinstance(x, _REAL_TYPES):
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, GaussianRational):
            return _gauss(x.re, x.im)
        if isinstance(x, str):
            return rational(x)
        if isinstance(x, tuple) and len(x) == 2:
            return _gauss(rational(x[0]), rational(x[1]))
        raise TypeError(f"cannot coerce {x!r} into the exact backend")

    def from_pair(self, re, im):
        return _gauss(rational(re), rational(im))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return not a

    def conj(self, a):
        return conj(a)

    def is_real(self, a) -> bool:
        return is_real(a)

    def real(self, a):
        return real_part(a)

    def imag(self, a):
        return imag_part(a)

    def to_complex(self, a) -> complex:
        return to_complex(a)

    def negligible(self, a, scale=1) -> bool:
        return not a

    def __eq__(self, other):
        return isinstance(other, ExactField)

    def __hash__(self):
        return hash("exact")

    def __repr__(self):
        return "ExactField()"


class Float64Field:
    """Complex float64 with relative-tolerance comparisons."""

    name = "float64"
    is_exact = False
    zero = 0j
    one = 1 + 0j

    def __init__(self, tol: float = 1e-9):
        self.tol = float(tol)

    def coerce(self, x):
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float, Fraction)):
            return complex(x)
        if isinstance(x, GaussianRational):
            return to_complex(x)
        if isinstance(x, str):
            return complex(float(Fraction(x.strip())))
        if isinstance(x, tuple) and len(x) == 2:
            return complex(self.coerce(x[0]).real, self.coerce(x[1]).real)
        raise TypeError(f"cannot coerce {x!r} into the float64 backend")

    def from_pair(self, re, im):
        return complex(self.coerce(re).real, self.coerce(im).real)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tol

    def conj(self, a):
        return a.conjugate()

    def is_real(self, a) -> bool:
        return abs(a.imag) <= self.tol * max(1.0, abs(a))

    def real(self, a):
        return a.real

    def imag(self, a):
        return a.imag

    def to_complex(self, a) -> complex:
        return a

    def negligible(self, a, scale=1) -> bool:
        return abs(a) <= self.tol * max(1.0, scale)

    def __eq__(self, other):
        return isinstance(other, Float64Field) and other.tol == self.tol

    def __hash__(self):
        return hash(("float64", self.tol))

    def __repr__(self):
        return f"Float64Field(tol={self.tol})"


EXACT = ExactField()
FLOAT64 = Float64Field()


def common_field(*fields):
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise BackendMismatch(f"mixed scalar backends: {first!r} vs {f!r}")
    return first
