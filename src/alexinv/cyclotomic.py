"""Exact arithmetic in Z[zeta_m] and fraction-free rank computation.

Elements are integer coefficient vectors of length phi(m) against the
power basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th
cyclotomic polynomial.  Ranks are computed by one-step Bareiss elimination,
whose divisions are exact in this domain; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _poly_divexact(a, b):
    """Exact quotient of integer coefficient lists (monic-leading b is not
    required, but the division must come out exact)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("division not exact")
        c //= b[-1]
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients (low to high) of the m-th cyclotomic polynomial,
    computed by dividing x^m - 1 by the proper-divisor cyclotomics."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


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
        """Inverse in Q(zeta_m) as a Fraction vector, by the extended
        Euclidean algorithm against the cyclotomic polynomial."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        r0, r1 = phi, [Fraction(c) for c in a]
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        r1 = trim(r1)
        while True:
            r0, r1 = trim(r0), trim(r1)
            if len(r1) == 0:
                raise ArithmeticError("element not invertible")
            if len(r1) == 1:
                inv = 1 / r1[0]
                coeffs = [c * inv for c in s1]
                coeffs += [Fraction(0)] * (self.degree - len(coeffs))
                return tuple(coeffs[:self.degree])
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + len(r1) - 1] / r1[-1]
                q[i] = c
                if c:
                    for j, y in enumerate(r1):
                        rem[i + j] -= c * y
            rem = trim(rem)
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs1[i + j] += x * y
            news = [a - b for a, b in
                    zip(s0 + [Fraction(0)] * (len(qs1) - len(s0)), qs1)]
            r0, r1, s0, s1 = r1, rem, s1, news

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
