"""Exact arithmetic in Z[zeta_m], in integers only: Galois orbits of
characters, norms, inverses and fraction-free rank computation.

Elements are integer vectors of length phi(m) in the power basis, reduced
by one fold from the top: through x^m - 1, which Phi_m divides, and then
the top m - phi(m) entries against the monic cyclotomic polynomial Phi_m.
One subresultant sequence over Z against Phi_m gives inverses, as pairs
(s, c) with s*a = c, and norms, as resultants.  Ranks come from Bareiss
elimination, whose divisions are exact in Z[zeta_m].
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul, sub


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients (low to high) of the m-th cyclotomic polynomial,
    computed by dividing x^m - 1 by the proper-divisor cyclotomics; they
    are monic, so :func:`_prem` gives each exact quotient unscaled."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _prem(poly, cyclotomic_polynomial(d))[1]
    return tuple(poly)


def character_order(primes, exponents):
    """Order of the character sending the i-th generator of the sum of the
    Z/p_i (p_i prime) to rho_i^{e_i}: the lcm of the p_i not dividing e_i."""
    return lcm(*(p for p, e in zip(primes, exponents) if e % p))


def galois_orbits(primes):
    """Galois orbits of the characters of the sum of the Z/p_i (p_i prime),
    each once as (exponents, m, size); the trivial one first, with m = 1.

    A character with exponents e has squarefree order m, and a in (Z/m)^x
    sends it to a*e, scaling the entries of each prime independently.  So
    the orbit has phi(m) members, and its least in product order is the
    one whose first nonzero entry for each prime is 1: built position by
    position, a prime with no nonzero entry yet takes 0 or 1.
    """
    reps = [((), frozenset())]  # (exponents, primes with a nonzero entry)
    for p in primes:
        reps = [(exps + (e,), lead | {p} if e else lead)
                for exps, lead in reps
                for e in (range(p) if p in lead else (0, 1))]
    for exps, lead in reps:
        yield exps, prod(lead), prod(p - 1 for p in lead)


def character_evaluation(primes, exponents, m):
    """The map from a polynomial's terms {t^I: c} to its value at the
    character with these exponents and order m, as the unreduced integer
    list a of length m with value sum a_k zeta_m^k: each t^I goes to
    zeta_m^k, k = sum (m/p_i) e_i I_i mod m."""
    weights = [(m // p) * (e % p) for p, e in zip(primes, exponents)]

    def evaluate(terms):
        a = [0] * m
        for mono, c in terms.items():
            a[sum(map(mul, weights, mono)) % m] += c
        return a
    return evaluate


def _fold(v, m):
    """Reduce the integer list v (low to high) modulo Phi_m in place, to
    length phi(m): first through x^m - 1, which Phi_m divides, adding each
    entry at k >= m into k - m from the top down, then clearing the top
    m - phi(m) entries, highest first, against the monic Phi_m."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    for k in range(len(v) - 1, m - 1, -1):
        v[k - m] += v[k]
    del v[m:]
    for i in range(len(v) - 1, d - 1, -1):
        c = v[i]
        if c:
            v[i - d:i] = map(sub, v[i - d:i], map(c.__mul__, phi))
    del v[d:]
    v += [0] * (d - len(v))
    return v


def _divexact(v, d, what):
    """The integer list v divided entrywise by d, asserted exact."""
    quotients = [divmod(x, d) for x in v]
    if any(rem for _, rem in quotients):
        raise ArithmeticError(what + " left the ring")
    return [quo for quo, _ in quotients]


def _prem(f, g):
    """(r, q) with lc(g)^(delta+1) f = q g + r, delta = deg f - deg g >= 0,
    for integer lists (low to high) and deg g >= 1.  Step k scales only its
    window f[k : k + deg g + 1] by lc(g), after the entering entry catches
    up on the scalings it missed."""
    n, lc, delta = len(g) - 1, g[-1], len(f) - len(g)
    r, q = list(f), [0] * (delta + 1)
    powers = [lc ** e for e in range(delta + 1)]
    for k in range(delta, -1, -1):
        r[k] *= powers[delta - k]
        c = r[k + n]
        q[k] = c * powers[k]
        for j in range(n):
            r[k + j] = lc * r[k + j] - c * g[j]
    return r[:n], q


def _subresultant(f, a, cofactor):
    """Subresultant sequence over Z of the integer lists f and a, deg a <
    deg f, a made primitive (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 3.3.7); an integer f = m stands for Phi_m, monic,
    and a is reduced mod Phi_m.  With ``cofactor``, f irreducible, it
    returns (s, c) in lowest terms, c > 0, s*a = c mod f, s of length deg
    f (ZeroDivisionError for a = 0); otherwise Res(f, a)."""
    if isinstance(f, int):
        f, a = cyclotomic_polynomial(f), _fold(list(a), f)
    n, g = len(f) - 1, list(a)
    while g and not g[-1]:
        g.pop()
    if not g:
        if cofactor:
            raise ZeroDivisionError("inverse of zero")
        return 0
    content = gcd(*g)
    g = [x // content for x in g]
    u0, u1 = [], [1]  # u * (a / content) = the sequence member, mod f
    t, lead, h = content ** (len(f) - 1), 1, 1  # t gathers content, signs
    while len(g) > 1:
        delta = len(f) - len(g)
        t *= (-1) ** ((len(f) - 1) * (len(g) - 1))
        r, q = _prem(f, g)
        divisor = lead * h ** delta
        if cofactor:
            u = [g[-1] ** (delta + 1) * x for x in u0]
            u += [0] * (len(q) + len(u1) - 1 - len(u))
            for i, x in enumerate(q):
                for j, y in enumerate(u1, i):
                    u[j] -= x * y
            u0, u1 = u1, _divexact(u, divisor, "subresultant division")
        f, g = g, _divexact(r, divisor, "subresultant division")
        while g and not g[-1]:  # a nonzero constant remains
            g.pop()
        lead = f[-1]
        h, = _divexact([lead ** delta], h ** (delta - 1),
                       "subresultant division")
    if cofactor:  # deg s <= n - deg f < n, f the last but one member
        s, c = (u1 + [0] * n)[:n], content * g[0]
        common = gcd(c, *s) if c > 0 else -gcd(c, *s)
        return tuple(x // common for x in s), c // common
    if not g:  # a common factor
        return 0
    norm, = _divexact([t * g[0] ** (len(f) - 1)], h ** (len(f) - 2),
                      "resultant")
    return norm


def cyclotomic_norm(a, m):
    """The norm from Q(zeta_m) to Q of sum a_k * zeta_m^k: the integer
    Res(Phi_m, a) for the integer vector a (low to high)."""
    return _subresultant(m, a, cofactor=False)


class CyclotomicField:
    """Q(zeta_m), with elements of Z[zeta_m] kept as integer vectors of
    length phi(m) in the power basis.  It memoizes its reductions, by the
    unreduced vector, its inverses, and the products of matrix entries in
    the first step of :func:`bareiss_rank`, for as long as it lives:
    matrices that share a field, such as the character evaluations of one
    cover, fold each entry value once and invert each pivot once.  A zero
    factor makes a product zero before any convolution or memo lookup."""

    def __init__(self, m):
        self.m = m
        self.degree = len(cyclotomic_polynomial(m)) - 1
        self.zero = (0,) * self.degree
        self.one = (1,) + self.zero[1:]
        self._reduced, self._inverses, self._products = {}, {}, {}

    def reduce(self, coeffs):
        """The element sum c_k * zeta^k of the integer list coeffs."""
        key = tuple(coeffs)
        if key not in self._reduced:
            self._reduced[key] = tuple(_fold(list(key), self.m))
        return self._reduced[key]

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        return tuple(map(add, a, b))

    def sub(self, a, b):
        return tuple(map(sub, a, b))

    def mul(self, a, b):
        if not (any(a) and any(b)):
            return self.zero
        out = [0] * (len(a) + len(b) - 1)
        terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return tuple(_fold(out, self.m))

    def inverse(self, a):
        """The inverse of a nonzero a as an integer pair (s, c) in lowest
        terms with c > 0 and s*a = c."""
        if a not in self._inverses:
            self._inverses[a] = _subresultant(self.m, a, cofactor=True)
        return self._inverses[a]

    def entry_mul(self, a, b):
        """mul(a, b), memoized for the entries of an evaluated matrix."""
        if not (any(a) and any(b)):
            return self.zero
        if (a, b) not in self._products:
            self._products[a, b] = self.mul(a, b)
        return self._products[a, b]

    def times_inverse(self, a, inv):
        """a * s / c for inv = (s, c) = inverse(b): the exact quotient a / b,
        asserted to land back in Z[zeta_m]."""
        if not any(a):
            return self.zero
        s, c = inv
        return tuple(_divexact(self.mul(a, s), c, "Bareiss division"))


def bareiss_rank(rows, field):
    """Exact rank of a matrix over Z[zeta_m] by one-step Bareiss
    elimination with first-nonzero pivoting.  Each step inverts the previous
    pivot once and divides every updated entry by it through that inverse;
    the first step's previous pivot is 1, so it divides by nothing."""
    mat = [list(row) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = 0
    prev = field.one
    for col in range(n):
        if rank == m:
            break
        pivot_row = next((i for i in range(rank, m)
                          if not field.is_zero(mat[i][col])), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        if rank + 1 < m and col + 1 < n:
            inv = field.inverse(prev) if rank else None
            mul = field.mul if rank else field.entry_mul
            for i in range(rank + 1, m):
                row = mat[i]
                for j in range(col + 1, n):
                    num = field.sub(mul(pivot, row[j]),
                                    mul(row[col], mat[rank][j]))
                    row[j] = num if inv is None \
                        else field.times_inverse(num, inv)
                row[col] = field.zero
        prev = pivot
        rank += 1
    return rank
