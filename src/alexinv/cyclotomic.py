"""Exact arithmetic in Z[zeta_m], Galois orbits of characters, and
fraction-free rank computation.

Elements are integer coefficient vectors of length phi(m) against the
power basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th
cyclotomic polynomial.  Inverses and norms come from one Euclidean
algorithm over Q against it.  Ranks are computed by one-step Bareiss
elimination, whose divisions are exact in this domain; no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from math import gcd, lcm


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _divmod(f, g):
    """Quotient and trimmed remainder of Fraction lists (low to high) f by
    the trimmed nonzero g."""
    r = list(f)
    q = [Fraction(0)] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(g) - 1] / g[-1]
        q[i] = c
        if c:
            for j, y in enumerate(g):
                r[i + j] -= c * y
    return q, _trim(r)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients (low to high) of the m-th cyclotomic polynomial,
    computed by dividing x^m - 1 by the proper-divisor cyclotomics; they
    are monic, so each quotient comes from in-place synthetic division."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi = cyclotomic_polynomial(d)
            top = len(phi) - 1
            for i in range(len(poly) - 1, top - 1, -1):
                for j in range(top):
                    poly[i - top + j] -= poly[i] * phi[j]
            poly = poly[top:]
    return tuple(poly)


def character_order(primes, exponents):
    """Order of the character sending the i-th generator of the sum of the
    Z/p_i (p_i prime) to rho_i^{e_i}: the lcm of the p_i not dividing e_i."""
    return lcm(*(p for p, e in zip(primes, exponents) if e % p))


def galois_orbits(primes):
    """Galois orbits of the characters of the sum of the Z/p_i (p_i prime),
    each once as (exponents, m, size); the trivial one first, with m = 1.

    A character with exponents e has squarefree order m, and a in (Z/m)^x
    sends it to the character with exponents a*e.  Its orbit has phi(m)
    members, since a*e = e forces a = 1 mod m.
    """
    seen = set()
    for exps in product(*(range(p) for p in primes)):
        if exps in seen:
            continue
        m = character_order(primes, exps)
        orbit = {tuple(a * e % p for e, p in zip(exps, primes))
                 for a in range(1, m + 1) if gcd(a, m) == 1}
        seen |= orbit
        yield exps, m, len(orbit)


def character_exponent(primes, exponents, m):
    """The map from a monomial t^I to the k with t^I = zeta_m^k at the
    character with these exponents and order m: k = sum (m/p_i) e_i I_i
    mod m."""
    weights = [(m // p) * (e % p) for p, e in zip(primes, exponents)]
    return lambda mono: sum(w * x for w, x in zip(weights, mono)) % m


def _euclid(m, a, cofactor):
    """Euclid over Q of Phi_m against the integer vector a (low to high).

    With ``cofactor`` it returns s with s*a = 1 mod Phi_m, for a nonzero mod
    the irreducible Phi_m.  Otherwise it returns Res(Phi_m, a), built up by
    Res(F, G) = (-1)^(deg F deg G) * lc(G)^(deg F - deg R) * Res(G, R) for
    R = F mod G, down to Res(F, c) = c^deg F, or 0 if some R is 0.  Phi_m is
    monic, so this is the product of a over the primitive m-th roots of 1.
    """
    f = [Fraction(c) for c in cyclotomic_polynomial(m)]
    g = _trim([Fraction(c) for c in a])
    s0, s1 = [], [Fraction(1)]
    res = Fraction(1)
    while len(g) > 1:
        q, r = _divmod(f, g)
        if cofactor:
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs[i + j] += x * y
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
        elif r:
            if (len(f) - 1) * (len(g) - 1) % 2:
                res = -res
            res *= g[-1] ** (len(f) - len(r))
        f, g = g, r
    if cofactor:
        return [x / g[0] for x in s1]
    return res * g[0] ** (len(f) - 1) if g else Fraction(0)


def cyclotomic_norm(a, m):
    """The norm from Q(zeta_m) to Q of sum a_k * zeta_m^k: the integer
    Res(Phi_m, a) for the integer vector a (low to high)."""
    res = _euclid(m, a, cofactor=False)
    if res.denominator != 1:
        raise ArithmeticError("cyclotomic norm is not an integer")
    return int(res)


class CyclotomicField:
    """Q(zeta_m), with elements kept as integer (or Fraction) vectors of
    length phi(m) in the power basis."""

    def __init__(self, m):
        self.m = m
        phi = cyclotomic_polynomial(m)
        self.degree = len(phi) - 1
        # x^k mod Phi_m for all k < max(m, 2*degree - 1), so that both
        # root powers and product reduction are table lookups.
        top = [-c for c in phi[:-1]]  # x^degree == top (Phi_m is monic)
        table = [[int(i == k) for i in range(self.degree)]
                 for k in range(self.degree)]
        limit = max(m, 2 * self.degree - 1)
        for k in range(self.degree, limit):
            prev = table[k - 1]
            shifted = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                shifted = [s + carry * t for s, t in zip(shifted, top)]
            table.append(shifted)
        self._power_table = [tuple(row) for row in table]
        self.zero = (0,) * self.degree
        self.one = self._power_table[0]

    def from_int(self, c):
        return tuple(c * x for x in self.one)

    def root_power(self, k):
        """zeta^k as an element."""
        return self._power_table[k % self.m]

    def is_zero(self, a):
        return not any(a)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, c, a):
        return tuple(c * x for x in a)

    def mul(self, a, b):
        d = self.degree
        out = [0] * d
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                k = i + j
                if k < d:
                    out[k] += x * y
                else:
                    prod = x * y
                    red = self._power_table[k]
                    for idx in range(d):
                        if red[idx]:
                            out[idx] += prod * red[idx]
        return tuple(out)

    def inverse(self, a):
        """Inverse in Q(zeta_m) as a Fraction vector: the Bezout cofactor of
        a against the cyclotomic polynomial."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        coeffs = _euclid(self.m, a, cofactor=True) + [0] * self.degree
        return tuple(coeffs[:self.degree])

    def times_inverse(self, a, inv):
        """a * inv for inv = inverse(b): the exact quotient a / b once b is
        inverted, asserted to land back in Z[zeta_m]."""
        result = []
        for c in self.mul(a, inv):
            if c.denominator != 1:
                raise ArithmeticError("Bareiss division left the ring")
            result.append(int(c))
        return tuple(result)


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
            for i in range(rank + 1, m):
                row = mat[i]
                for j in range(col + 1, n):
                    num = field.sub(field.mul(pivot, row[j]),
                                    field.mul(row[col], mat[rank][j]))
                    row[j] = num if inv is None \
                        else field.times_inverse(num, inv)
                row[col] = field.zero
        prev = pivot
        rank += 1
    return rank
