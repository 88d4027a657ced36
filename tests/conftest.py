"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: integer
determinants come from Bareiss elimination on plain int lists, Smith
invariant factors from gcd-of-minors ratios, ranks over F_p from dense
Gauss-Jordan elimination, Laurent determinants from cofactor expansion,
unit elimination over Z, F_p and the Laurent ring from a full rescan
for each pivot, Galois orbit representatives from every exponent vector,
associates from a shift and a sign, unit symmetry of
one-variable polynomials from a palindrome test on dense coefficient
lists, root-of-unity norms from a product in the group ring,
inverses and norms in Q(zeta_m) from a Euclid over Q in Fractions,
Reidemeister-Schreier rewriting by stepping a coset tuple per letter,
Kronecker packing slot by slot, symmetry classes from the involution and
one shifted copy of the polynomial, presentations from a character-level
parser that tries every generator name at each letter, and Fox
derivatives in the free group ring itself, before abelianization.  The
dense Fox matrix, every zero entry included, feeds the minors of the whole
matrix.  The canonical
mod-p cover is read off the rows of the dense Smith transform U of the
exponent matrix, which is counted letter by letter, with no
abelianization.
"""

from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations, product, zip_longest
from math import gcd as int_gcd
from math import prod

import pytest

import alexinv.laurent
from alexinv.alexander import AlexanderMatrix
from alexinv.covers import CoverMap, DeckGroup, is_prime
from alexinv.cyclotomic import cyclotomic_polynomial
from alexinv.laurent import (MAX_EXPONENT, LaurentPoly, MonomialUnit,
                             ParseError, Symmetry, SymmetryClass, involution)
from alexinv.presentation import (NAME_CHARS, NAME_RE, Presentation,
                                  abelianize, fox_matrix, reduce_word,
                                  smith_normal_form)


def int_det(A):
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(A)
    if n == 0:
        return 1
    mat = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[k][k] * mat[i][j]
                             - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[-1][-1]


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def mat_pow(A, k):
    n = len(A)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, A)
    return out


def minors_gcd(A, k):
    m = len(A)
    n = len(A[0]) if m else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[A[i][j] for j in cols] for i in rows]
            g = int_gcd(g, abs(int_det(sub)))
    return g


def smith_factors_oracle(A):
    """Nonzero invariant factors from gcd-of-minors ratios:
    f_k = gcd(k-minors) / gcd((k-1)-minors)."""
    m = len(A)
    n = len(A[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = minors_gcd(A, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return tuple(out)


def exponent_matrix(P):
    """num_generators x num_relators matrix of exponent sums, counted
    letter by letter: column j is the image of relator j in Z^n."""
    return [[sum(s for h, s in rel if h == g) for rel in P.relators]
            for g in range(P.num_generators)]


def dense_mod_p_cover(P, p):
    """The canonical mod-p cover straight from the dense Smith form
    D = U * E * V of the exponent matrix E: its coordinates are the rows
    of U whose diagonal entry p divides (zero included, as is every row
    past the diagonal), in row order, each mod p."""
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    n = P.num_generators
    snf = smith_normal_form(exponent_matrix(P))
    diag = snf.diagonal
    coords = [i for i in range(n)
              if (i >= len(diag) or diag[i] % p == 0)]
    if not coords:
        raise ValueError("d_%d is 0; no mod-%d cover" % (p, p))
    assignment = tuple(tuple(snf.U[i][j] % p for i in coords)
                       for j in range(n))
    return CoverMap(P, DeckGroup((p,) * len(coords)), assignment)


class OraclePresParser:
    """The letter-by-letter parser of ``<gens | relators>`` text that
    :func:`parse_presentation` replaced: a character-level cursor, each
    generator name and then its uppercase form tried at every letter,
    longest first, powers and products reduced letter by letter, and the
    result checked again by ``Presentation``.  Digit runs are ASCII.
    Comments are cut as :func:`parse_presentation` cuts them."""

    def __init__(self, text):
        self.text = "\n".join(line.split("#", 1)[0]
                              for line in text.splitlines())
        self.pos = 0
        self.names = []
        self.index = {}
        self.tokens = []

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.eat(ch):
            self.error("expected %r" % ch)

    def parse(self):
        self.expect("<")
        if self.peek() != "|":
            self.names.append(self.generator_name())
            while self.eat(","):
                self.names.append(self.generator_name())
        if len(set(self.names)) != len(self.names):
            self.error("duplicate generator name")
        self.index = {name: i for i, name in enumerate(self.names)}
        self.tokens = sorted(self.names, key=len, reverse=True)
        relators = []
        if self.eat("|") and self.peek() != ">":
            relators.append(self.word())
            while self.eat(","):
                relators.append(self.word())
        self.expect(">")
        if self.peek():
            self.error("unexpected trailing input")
        return Presentation(tuple(self.names), tuple(relators))

    def generator_name(self):
        self.skip_ws()
        name = NAME_RE.match(self.text, self.pos)
        if not name:
            self.error("expected a generator name (lowercase letter)")
        self.pos = name.end()
        return name.group()

    def word(self):
        atoms, length = [], 0
        while True:
            atoms.append(self.atom())
            length += len(atoms[-1])
            self.check_length(length)
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not (ch and (ch.isalpha() or ch in "([1")):
                return reduce_word(chain.from_iterable(atoms))

    def check_length(self, length):
        if length > MAX_EXPONENT:
            self.error("word too long (over %d letters)" % MAX_EXPONENT)

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.word()
            self.expect(")")
            return self.maybe_power(inner)
        if ch == "[":
            self.pos += 1
            a = self.word()
            self.expect(",")
            b = self.word()
            self.expect("]")
            inv = [tuple((g, -s) for g, s in reversed(w)) for w in (a, b)]
            return self.maybe_power(reduce_word(a + b + inv[0] + inv[1]))
        if ch == "1":
            self.pos += 1
            return self.maybe_power(())
        if ch.isalpha():
            return self.maybe_power(self.letter())
        self.error("expected a word" if ch else "unexpected end of input")

    def letter(self):
        self.skip_ws()
        for name in self.tokens:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return ((self.index[name], 1),)
            if self.text.startswith(name.upper(), self.pos):
                self.pos += len(name)
                return ((self.index[name], -1),)
        end = self.pos
        while end < len(self.text) and self.text[end].lower() in NAME_CHARS:
            end += 1
        self.error("unknown generator name %r" % self.text[self.pos:end])

    def maybe_power(self, word):
        if self.eat("^"):
            sign = -1 if self.eat("-") else 1
            start = self.pos
            while (self.pos < len(self.text)
                   and "0" <= self.text[self.pos] <= "9"):
                self.pos += 1
            if start == self.pos:
                self.error("expected an integer exponent")
            n = sign * int(self.text[start:self.pos])
            self.check_length(len(word) * abs(n))
            base = word if n >= 0 else tuple((g, -s) for g, s in
                                             reversed(word))
            return reduce_word(base * abs(n))
        return word


def oracle_parse_presentation(text):
    return OraclePresParser(text).parse()


def random_power_presentation(rng):
    """A presentation on 0-4 generators whose 0-4 relators are products of
    one to three powers x^{+-1..6}, so H_1 often has torsion."""
    n = rng.randint(0, 4)
    rels = []
    for _ in range(rng.randint(0, 4) if n else 0):
        word = []
        for _ in range(rng.randint(1, 3)):
            word += [(rng.randrange(n), rng.choice((1, -1)))] \
                * rng.randint(1, 6)
        rels.append(tuple(word))
    return Presentation(tuple("x%d" % i for i in range(n)), tuple(rels))


def dense_mod_p_rank(A, p):
    """Rank over F_p of an integer matrix by dense Gauss-Jordan elimination,
    column by column."""
    rows = [[x % p for x in row] for row in A]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(inv * x) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_unimodular(rng, n, steps=12):
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        elif kind == 1 and i != j:
            A[i], A[j] = A[j], A[i]
        elif kind == 2:
            A[i] = [-a for a in A[i]]
    return A


def dense_coeffs(f):
    """One-variable dense coefficient list from min to max exponent."""
    (lo,), (hi,) = f.exponent_range()
    return [f.terms.get((k,), 0) for k in range(lo, hi + 1)]


def palindrome_unit_symmetric(f):
    """Independent unit-symmetry test: dense list palindromic with even
    span (equivalently the negation-of-exponents image is an even shift)."""
    c = dense_coeffs(f)
    return c == c[::-1] and (len(c) - 1) % 2 == 0


def palindrome_mod_unit_symmetric(f):
    c = dense_coeffs(f)
    return c == c[::-1] or c == [-x for x in c[::-1]]


def classify_symmetry_oracle(f):
    """The symmetry class with its witness, from iota(f) and one shifted
    copy t^J * f of f, compared as whole polynomials."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no symmetry class")
    iot = involution(f)
    if iot == f:
        return SymmetryClass(Symmetry.SYMMETRIC,
                             MonomialUnit(1, (0,) * f.arity))
    lo, hi = f.exponent_range()
    cand = tuple(-(l + h) for l, h in zip(lo, hi))
    shifted = f.shift(cand)
    if iot == shifted:
        if all(j % 2 == 0 for j in cand):
            half = tuple(j // 2 for j in cand)
            return SymmetryClass(Symmetry.UNIT_SYMMETRIC, MonomialUnit(1, half))
        return SymmetryClass(Symmetry.MOD_UNIT_SYMMETRIC, MonomialUnit(1, cand))
    if iot == -shifted:
        return SymmetryClass(Symmetry.MOD_UNIT_SYMMETRIC, MonomialUnit(-1, cand))
    return SymmetryClass(Symmetry.ASYMMETRIC, None)


def cofactor_det(rows, arity):
    """Determinant of a Laurent matrix by cofactor expansion along the row
    with the most zero entries."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(arity)
    if n == 1:
        return rows[0][0]
    best = max(range(n), key=lambda i: sum(e.is_zero() for e in rows[i]))
    total = LaurentPoly.zero(arity)
    rest = [rows[i] for i in range(n) if i != best]
    for j, entry in enumerate(rows[best]):
        if entry.is_zero():
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in rest]
        cofactor = cofactor_det(sub, arity)
        if (best + j) % 2:
            cofactor = -cofactor
        total = total + entry * cofactor
    return total


def rescan_eliminate(rows, is_unit, inverse, modulus=None):
    """Unit elimination by a full rescan at every step, over any ring with
    these ``is_unit`` and ``inverse`` (integers mod ``modulus`` if given):
    the shortest row holding a unit, first in row order, pivots at its unit
    in the column with the fewest rows, first in column order; it clears
    that column with multiples of its row and loses its row; zero rows are
    dropped.
    Returns the pivot columns in order and the rows left, in their order,
    as dicts {column: nonzero entry}."""
    live = []
    for row in rows:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        entries = {j: x if modulus is None else x % modulus for j, x in pairs}
        live.append({j: x for j, x in entries.items() if x})
    live = [row for row in live if row]
    pivots = []
    while True:
        col_counts = Counter(j for row in live for j in row)
        units = [(len(row), i, col_counts[j], j)
                 for i, row in enumerate(live)
                 for j, e in row.items() if is_unit(e)]
        if not units:
            return pivots, live
        _, i, _, j = min(units)
        pivot = live.pop(i)
        inv = inverse(pivot[j])
        for r, row in enumerate(live):
            if j in row:
                f = row[j] * inv
                new = dict(row)
                for c, x in pivot.items():
                    y = row.get(c, 0) - f * x
                    if modulus is not None:
                        y %= modulus
                    new[c] = y
                live[r] = {c: y for c, y in new.items() if y}
        live = [row for row in live if row]
        pivots.append(j)


def rescan_unit_reduce(rows, ncols):
    """Unit reduction of a Laurent matrix by :func:`rescan_eliminate`.
    Returns the rows left, on the other columns in order, and the number
    of units cleared."""
    pivots, rest = rescan_eliminate(rows, LaurentPoly.is_unit,
                                    lambda u: u ** -1)
    live = [j for j in range(ncols) if j not in pivots]

    def dense(row):
        zero = LaurentPoly.zero(next(iter(row.values())).arity)
        return [row.get(j, zero) for j in live]
    return [dense(row) for row in rest], len(pivots)


def dense_fox_matrix(P, ab=None):
    """The Fox matrix of a presentation as a dense :class:`AlexanderMatrix`,
    one entry per (relator, generator) pair, zeros included."""
    ab = abelianize(P) if ab is None else ab
    zero = LaurentPoly.zero(ab.rank)
    return AlexanderMatrix.from_rows(
        [[row.get(j, zero) for j in range(P.num_generators)]
         for row in fox_matrix(P, ab)], ab.rank, P.num_generators)


def product_galois_orbits(primes):
    """Galois orbits of the characters of the sum of the Z/p_i as
    ``cyclotomic.galois_orbits`` yields them, by visiting every exponent
    vector in product order and keeping those whose first nonzero entry
    for each prime is 1."""
    for exps in product(*(range(p) for p in primes)):
        lead = {}
        for e, p in zip(exps, primes):
            if e:
                lead.setdefault(p, e)
        if all(e == 1 for e in lead.values()):
            yield exps, prod(lead), prod(p - 1 for p in lead)


def unit_quotient(f, g):
    """The MonomialUnit u with f == u * g, or None if f, g are not associates."""
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    if f.is_zero() or g.is_zero():
        return None
    if len(f.terms) != len(g.terms):
        return None
    ef, cf = min(f.terms.items())
    eg = min(g.terms)
    shift = tuple(a - b for a, b in zip(ef, eg))
    for sign in (1, -1):
        if f == sign * g.shift(shift):
            return MonomialUnit(sign, shift)
    return None


def group_ring_norm(f, primes):
    """Product of f over all tuples of p_i-th roots of unity (p_i prime),
    from the product of its |G| images in Z[x_1..x_n]/(x_i^{p_i} - 1),
    reduced modulo 1 + x_i + ... + x_i^(p_i - 1), which must leave a
    constant."""
    n = f.arity
    primes = tuple(primes)

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple((x + y) % p for x, y, p in zip(e1, e2, primes))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return out

    result = {(0,) * n: 1}
    for exps in product(*(range(p) for p in primes)):
        image = {}
        for mono, coeff in f.terms.items():
            e = tuple((m * x) % p for m, x, p in zip(mono, exps, primes))
            v = image.get(e, 0) + coeff
            if v:
                image[e] = v
            elif e in image:
                del image[e]
        result = mul(result, image)
        if not result:
            return 0

    # exponent p-1 rewrites to minus the sum of the lower powers
    for i, p in enumerate(primes):
        reduced = {}
        for e, c in result.items():
            if e[i] < p - 1:
                reduced[e] = reduced.get(e, 0) + c
            else:
                for k in range(p - 1):
                    ek = e[:i] + (k,) + e[i + 1:]
                    reduced[ek] = reduced.get(ek, 0) - c
        result = {e: c for e, c in reduced.items() if c}
    if not result:
        return 0
    assert set(result) == {(0,) * n}, "group-ring product is not an integer"
    return result[(0,) * n]


def root_power(fld, k):
    """zeta^k as an element of the CyclotomicField fld."""
    return fld.reduce([0] * (k % fld.m) + [1])


def fraction_euclid(m, a, cofactor):
    """Euclid over Q of Phi_m against the integer vector a (low to high),
    with every quotient computed in Fractions.

    With ``cofactor`` it returns the Fraction list s (low to high, degree
    below phi(m)) with s*a = 1 mod Phi_m, for a nonzero mod Phi_m.
    Otherwise it returns Res(Phi_m, a) as a Fraction, built up by
    Res(F, G) = (-1)^(deg F deg G) * lc(G)^(deg F - deg R) * Res(G, R) for
    R = F mod G, down to Res(F, c) = c^deg F, or 0 if some R is 0.
    """
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def divmod_(f, g):
        r = list(f)
        q = [Fraction(0)] * (len(f) - len(g) + 1)
        for i in range(len(q) - 1, -1, -1):
            c = r[i + len(g) - 1] / g[-1]
            q[i] = c
            if c:
                for j, y in enumerate(g):
                    r[i + j] -= c * y
        return q, trim(r)

    f = [Fraction(c) for c in cyclotomic_polynomial(m)]
    g = trim([Fraction(c) for c in a])
    s0, s1 = [], [Fraction(1)]
    res = Fraction(1)
    while len(g) > 1:
        q, r = divmod_(f, g)
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


def assert_well_formed(f):
    """f holds what the validating constructor makes of its own terms:
    int exponent tuples of length arity and no zero coefficient."""
    assert all(type(e) is tuple and len(e) == f.arity
               and all(type(x) is int for x in e) for e in f.terms)
    assert all(f.terms.values())
    assert f == LaurentPoly(f.arity, dict(f.terms))


def pack_per_term(f, strides, nslots, width):
    """``laurent._pack`` with each slot index summed term by term:
    sum of c * 2^(width * index(e)); width is a multiple of 8."""
    nb = width // 8
    pos, neg = bytearray(nslots * nb), bytearray(nslots * nb)
    for e, c in f.items():
        i = nb * sum(x * s for x, s in zip(e, strides))
        if c > 0:
            pos[i:i + nb] = c.to_bytes(nb, "little")
        else:
            neg[i:i + nb] = (-c).to_bytes(nb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class FreeGroupRingElement:
    """Integer linear combination of freely reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            word = reduce_word(word)
            if coeff:
                clean[word] = clean.get(word, 0) + coeff
                if not clean[word]:
                    del clean[word]
        self.terms = clean

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({tuple(word): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return FreeGroupRingElement(terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) - c
        return FreeGroupRingElement(terms)

    def __neg__(self):
        return FreeGroupRingElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = reduce_word(w1 + w2)
                terms[w] = terms.get(w, 0) + c1 * c2
        return FreeGroupRingElement(terms)

    def __eq__(self, other):
        return isinstance(other, FreeGroupRingElement) and \
            self.terms == other.terms

    def __repr__(self):
        return "FreeGroupRingElement(%r)" % (self.terms,)


def fox_derivative(word, gen):
    """The free derivative of a word with respect to generator ``gen``.

    Characterized by d(x)/dx = 1, d(x^-1)/dx = -x^-1, d(y)/dx = 0 for
    y != x, and the product rule d(uv)/dx = du/dx + u * dv/dx.
    """
    terms = {}
    prefix = ()
    for g, s in word:
        if g == gen:
            if s > 0:
                key = prefix
            else:
                key = reduce_word(prefix + ((g, -1),))
            terms[key] = terms.get(key, 0) + s
        prefix = reduce_word(prefix + ((g, s),))
    return FreeGroupRingElement(terms)


OracleCover = namedtuple("OracleCover", "presentation transversal")


def tuple_step_rs(cm):
    """Kernel presentation of a cover map with cosets as deck-group
    tuples: a breadth-first transversal of whole words in a dict, tree
    edges as a set of (coset, generator) pairs, and a fresh tuple for every
    letter of every relator at every coset.  Returns the presentation and
    the transversal words, in coset order."""
    base = cm.base
    n = base.num_generators
    primes = cm.deck.primes

    def step(coset, g, s):
        img = cm.assignment[g]
        return tuple((c + s * v) % p for c, v, p in zip(coset, img, primes))

    identity = (0,) * len(primes)
    coset_index = {identity: 0}
    coset_order = [identity]
    transversal = {identity: ()}
    tree_edges = set()
    queue = [identity]
    while queue:
        coset = queue.pop(0)
        for g in range(n):
            nxt = step(coset, g, 1)
            if nxt not in coset_index:
                coset_index[nxt] = len(coset_order)
                coset_order.append(nxt)
                transversal[nxt] = transversal[coset] + ((g, 1),)
                tree_edges.add((coset, g))
                queue.append(nxt)

    gen_names = []
    schreier_index = {}
    for coset in coset_order:
        for g in range(n):
            if (coset, g) in tree_edges:
                continue
            schreier_index[(coset, g)] = len(gen_names)
            gen_names.append("%s_%d" % (base.generator_names[g],
                                        coset_index[coset]))

    def rewrite(word, start):
        out = []
        coset = start
        for g, s in word:
            if s > 0:
                edge = (coset, g)
                coset = step(coset, g, 1)
                if edge not in tree_edges:
                    out.append((schreier_index[edge], 1))
            else:
                coset = step(coset, g, -1)
                edge = (coset, g)
                if edge not in tree_edges:
                    out.append((schreier_index[edge], -1))
        return reduce_word(tuple(out))

    relators = tuple(rewrite(rel, coset)
                     for coset in coset_order
                     for rel in base.relators)
    cover = Presentation(tuple(gen_names), relators)
    return OracleCover(cover, tuple(transversal[c] for c in coset_order))


@contextmanager
def prs_fallbacks():
    """Counts, in a one-item list, the calls the heuristic GCD hands to
    the PRS (its own recursive calls not included)."""
    prs = alexinv.laurent._dict_gcd
    count, depth = [0], [0]

    def counting(*args):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return prs(*args)
        finally:
            depth[0] -= 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alexinv.laurent, "_dict_gcd", counting)
        yield count
