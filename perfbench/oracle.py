"""Independent oracles and input generators, in plain ``fractions.Fraction``.

Nothing here imports sepidem: the answers the benchmark checks against
must not share code with the program under test.

Conventions match the program's data layout:

* M_n has the matrix-unit basis e_ij at index i*n + j; a block algebra
  (a direct sum of matrix blocks) concatenates its blocks' bases.
* An element of B (x) C is its coefficient matrix m, with
  E = sum m[k][l] b_k (x) c_l.
* A linear map is a dim(target) x dim(source) matrix whose column i holds
  the coordinates of the image of basis element i.
* A functional is its covector of values on the basis.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# -- dense matrices ----------------------------------------------------------------


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt] for row in a]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def inverse(a):
    """Gauss-Jordan inverse; None when a is singular."""
    n = len(a)
    w = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if w[r][c]), None)
        if p is None:
            return None
        w[c], w[p] = w[p], w[c]
        inv_p = 1 / w[c][c]
        w[c] = [x * inv_p for x in w[c]]
        for r in range(n):
            if r != c and w[r][c]:
                f = w[r][c]
                w[r] = [x - f * y for x, y in zip(w[r], w[c])]
    return [row[n:] for row in w]


def block_diagonal(mats):
    dim = sum(len(m) for m in mats)
    out = [[ZERO] * dim for _ in range(dim)]
    o = 0
    for m in mats:
        for i, row in enumerate(m):
            out[o + i][o:o + len(row)] = row
        o += len(m)
    return out


def flatten(m):
    return [x for row in m for x in row]


def unit(n, i, j):
    m = [[ZERO] * n for _ in range(n)]
    m[i][j] = ONE
    return m


def map_matrix(n, fn):
    """Matrix of the linear map x -> fn(x) on M_n in the matrix-unit basis."""
    cols = [flatten(fn(unit(n, i, j))) for i in range(n) for j in range(n)]
    return transpose(cols)


def max_bits(values):
    """Largest numerator or denominator bit length among Fractions."""
    best = 0
    for x in values:
        best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


# -- seeded random data ----------------------------------------------------------


def random_rational(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_invertible(n, rng, bound=9):
    while True:
        m = [[random_rational(rng, bound) for _ in range(n)] for _ in range(n)]
        if inverse(m) is not None:
            return m


def random_twist_pair(n, rng):
    """Invertible (r, s) over M_n with tr(s r) = n."""
    while True:
        r = random_invertible(n, rng)
        s = random_invertible(n, rng)
        t = trace(mat_mul(s, r))
        if t:
            return r, scale(Fraction(n) / t, s)


def random_involutive_diagonal(n, rng):
    """Diagonal r with sum r_ii^2 = n (so tr(r* r) = n), from a rational
    line through the all-ones point of the sphere."""
    while True:
        d = [random_rational(rng) for _ in range(n)]
        denom = sum(x * x for x in d)
        if not denom:
            continue
        u = -2 * sum(d) / denom
        entries = [1 + u * x for x in d]
        if all(entries):
            return [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def nilpotent_twist_pair(n, rng):
    """Invertible (r, s) over M_n, n >= 2, with tr(s r) = 0: s = d r^-1
    for the traceless invertible diagonal d = diag(1, ..., 1, 1 - n)."""
    r = random_invertible(n, rng)
    d = [[(ONE if i < n - 1 else Fraction(1 - n)) if i == j else ZERO for j in range(n)]
         for i in range(n)]
    return r, mat_mul(d, inverse(r))


# -- twist families over block algebras --------------------------------------------


def twist_coefficients(r, s):
    """Coefficient matrix of (r (x) 1) E0 (s (x) 1) = (1/n) sum r e_ij s (x) e_ij."""
    n = len(r)
    inv_n = Fraction(1, n)
    return [
        [r[a][i] * s[j][b] * inv_n for i in range(n) for j in range(n)]
        for a in range(n) for b in range(n)
    ]


def twist_forms(r, s):
    """Closed-form derived data of one twist block (r, s), from matrix
    arithmetic: S(b) = (s b s^-1)^T, S'(c) = r c^T r^-1, phi = n tr(q .),
    psi = n tr(p .), sigma = q . q^-1, sigma' = p . p^-1 with p = (r s)^-1
    and q = ((s r)^T)^-1."""
    n = len(r)
    r_inv, s_inv = inverse(r), inverse(s)
    p = inverse(mat_mul(r, s))
    q = inverse(transpose(mat_mul(s, r)))
    q_inv, p_inv = inverse(q), inverse(p)
    nn = Fraction(n)
    return {
        "E": twist_coefficients(r, s),
        "S": map_matrix(n, lambda b: transpose(mat_mul(mat_mul(s, b), s_inv))),
        "S_prime": map_matrix(n, lambda c: mat_mul(mat_mul(r, transpose(c)), r_inv)),
        "phi": [nn * q[j][i] for i in range(n) for j in range(n)],
        "psi": [nn * p[j][i] for i in range(n) for j in range(n)],
        "sigma": map_matrix(n, lambda c: mat_mul(mat_mul(q, c), q_inv)),
        "sigma_prime": map_matrix(n, lambda b: mat_mul(mat_mul(p, b), p_inv)),
    }


class BlockOracle:
    """Derived data of a direct sum of twist blocks [(r_1, s_1), ...] over
    the matching multi-matrix algebra, glued block-wise."""

    def __init__(self, pairs):
        self.pairs = [(r, s) for r, s in pairs]
        self.sizes = [len(r) for r, _ in self.pairs]
        self.offsets = []
        o = 0
        for n in self.sizes:
            self.offsets.append(o)
            o += n * n
        self.dim = o
        forms = [twist_forms(r, s) for r, s in self.pairs]
        self.E = block_diagonal([f["E"] for f in forms])
        self.data = {
            key: block_diagonal([f[key] for f in forms])
            for key in ("S", "S_prime", "sigma", "sigma_prime")
        }
        for key in ("phi", "psi"):
            self.data[key] = [x for f in forms for x in f[key]]
        self.unit = [
            ONE if i == j else ZERO for n in self.sizes for i in range(n) for j in range(n)
        ]

    def _coords(self, t):
        for a, (o, n) in enumerate(zip(self.offsets, self.sizes)):
            if t < o + n * n:
                return a, (t - o) // n, (t - o) % n
        raise IndexError(t)

    def basis_product(self, t, u):
        """Index of b_t b_u, or None when the product vanishes."""
        a, i, j = self._coords(t)
        b, k, l = self._coords(u)
        if a != b or j != k:
            return None
        return self.offsets[a] + i * self.sizes[a] + l

    def star_index(self, t):
        a, i, j = self._coords(t)
        return self.offsets[a] + j * self.sizes[a] + i

    def dual_pairing(self):
        """<b_i^, c_j^> = sum_kl E[k][l] psi(b_i b_k) phi(c_l c_j)."""
        psi, phi, e, d = self.data["psi"], self.data["phi"], self.E, self.dim
        bhat = [[self._on_product(psi, i, k) for k in range(d)] for i in range(d)]
        chat = [[self._on_product(phi, l, j) for l in range(d)] for j in range(d)]
        return [
            [
                sum((bhat[i][k] * e[k][l] * chat[j][l]
                     for k in range(d) if bhat[i][k]
                     for l in range(d) if e[k][l] and chat[j][l]), ZERO)
                for j in range(d)
            ]
            for i in range(d)
        ]

    def plancherel_gram(self):
        """gram[a][b] = phi(c_a* c_b) (real scalars, so * only transposes)."""
        phi, d = self.data["phi"], self.dim
        return [[self._on_product(phi, self.star_index(a), b) for b in range(d)]
                for a in range(d)]

    def _on_product(self, cov, t, u):
        k = self.basis_product(t, u)
        return ZERO if k is None else cov[k]

    def gauge_blocks(self):
        """Twist pairs in the gauge decompose reports: the first nonzero
        entry of r is 1 (then tr(s r) = n is unchanged)."""
        out = []
        for r, s in self.pairs:
            lam = next(x for x in flatten(r) if x)
            out.append((scale(1 / lam, r), scale(lam, s)))
        return out


# -- the same data in another basis ------------------------------------------------


def matrix_units_table(n):
    """Structure constants of M_n as a sparse dict (i, j) -> [(k, c)]."""
    table = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                table[(a * n + b, b * n + c)] = [(a * n + c, ONE)]
    return table


def idempotents_table(k):
    """Structure constants of the commutative algebra C^k in its basis of
    minimal idempotents p_i p_j = delta_ij p_i."""
    return {(i, i): [(i, ONE)] for i in range(k)}


def random_basis(dim, rng, bound=3):
    """Invertible P with entries p/q, |p|, q <= bound, and its inverse."""
    while True:
        p = [[Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(dim)]
             for _ in range(dim)]
        p_inv = inverse(p)
        if p_inv is not None:
            return p, p_inv


def rebase(table, dim, p, p_inv):
    """Dense structure constants c[i][j][k] of the same algebra in the basis
    b'_i = sum_k p[k][i] b_k."""
    cols = transpose(p)
    nz = [[(k, x) for k, x in enumerate(col) if x] for col in cols]
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            v = [ZERO] * dim
            for k, x in nz[i]:
                for l, y in nz[j]:
                    for m, c in table.get((k, l), ()):
                        v[m] += x * y * c
            row.append([sum((p_inv[a][m] * v[m] for m in range(dim) if v[m]), ZERO)
                        for a in range(dim)])
        out.append(row)
    return out


def is_idempotent(table, e):
    """Whether E = sum e[a][b] b_a (x) b_b satisfies E^2 = E, in the algebra
    with sparse structure constants `table` (as matrix_units_table)."""
    square = [[ZERO] * len(e) for _ in e]
    for (a, c), ac in table.items():
        for (b, d), bd in table.items():
            x = e[a][b] * e[c][d]
            if x:
                for m, y in ac:
                    for n, z in bd:
                        square[m][n] += x * y * z
    return square == [list(row) for row in e]


def transport(known, unit_vec, p, p_inv):
    """Move an instance's element, unit and derived data from the old basis
    to the basis given by p: maps conjugate by p, covectors multiply by p,
    and E becomes p^-1 E p^-T."""
    p_inv_t = transpose(p_inv)
    out = {
        "E": mat_mul(mat_mul(p_inv, known["E"]), p_inv_t),
        "unit": [sum((p_inv[a][m] * unit_vec[m] for m in range(len(unit_vec))), ZERO)
                 for a in range(len(unit_vec))],
    }
    for key in ("S", "S_prime", "sigma", "sigma_prime"):
        out[key] = mat_mul(mat_mul(p_inv, known[key]), p)
    for key in ("phi", "psi"):
        out[key] = mat_mul([known[key]], p)[0]
    return out


def standard_known(n):
    """E0 over M_n: S = S' = transpose, phi = psi = n tr, sigma = sigma' = id."""
    oracle = BlockOracle([(identity(n), identity(n))])
    return dict(oracle.data, E=oracle.E), oracle.unit


def commutative_known(k):
    """E = sum p_i (x) p_i over C^k: S = S' = sigma = sigma' = id and
    phi = psi = 1 on every p_i."""
    ident = identity(k)
    known = {"E": ident, "S": ident, "S_prime": ident, "sigma": ident, "sigma_prime": ident,
             "phi": [ONE] * k, "psi": [ONE] * k}
    return known, [ONE] * k
