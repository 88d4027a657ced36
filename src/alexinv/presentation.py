"""Finitely presented groups and the algebra extracted from them.

A word is a tuple of (generator index, sign) letters, kept freely reduced.
From a presentation this module computes the abelianization via an exact
integer Smith normal form, with each generator's image in H_1 in the
Smith basis, and Fox derivatives of relators as sparse rows {generator:
entry}, which feed the unit reduction of :mod:`alexinv.alexander`.  When
only the invariant factors are needed, sparse elimination of unit pivots
finds them, with a transform only on the block the pivots leave.

The text format is ``<x, y | x*y*X*Y, ...>``: lowercase names declare
generators, an uppercase letter is the inverse of the corresponding
generator, ``*`` between letters is optional, ``[a,b]`` abbreviates the
commutator a b a^-1 b^-1, ``^n`` repeats (n may be negative), ``1`` is the
empty word, and ``#`` starts a line comment.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, groupby, repeat
from operator import add, eq

from .laurent import MAX_EXPONENT, LaurentPoly, _Scanner

NAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789_"
NAME_RE = re.compile("[a-z][a-z0-9_]*")


def reduce_word(word):
    """Freely reduce: cancel adjacent x x^-1 pairs until none remain."""
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word):
    return tuple((g, -s) for g, s in reversed(word))


def cyclic_reduce(word):
    """Cancel first against last letters of a freely reduced word."""
    i, j = 0, len(word) - 1
    while i < j and word[i][0] == word[j][0] and word[i][1] != word[j][1]:
        i, j = i + 1, j - 1
    return word[i:j + 1]


def _join(words):
    """The product of reduced words, reduced where the words meet."""
    out = []
    for word in words:
        i = 0
        while (out and i < len(word) and out[-1][0] == word[i][0]
               and out[-1][1] == -word[i][1]):
            out.pop()
            i += 1
        out += word[i:]
    return tuple(out)


def concat(*words):
    return reduce_word(chain(*words))


def word_power(word, n):
    """word^n reduced: u v^|n| u^-1, where the reduced base is u v u^-1."""
    base = reduce_word(word if n >= 0 else inverse_word(word))
    if not (base and n):
        return ()
    v = cyclic_reduce(base)
    k = (len(base) - len(v)) // 2
    return base[:k] + v * abs(n) + base[len(base) - k:]


@dataclass(frozen=True)
class Presentation:
    """A finitely presented group: generator names plus relator words."""

    generator_names: tuple
    relators: tuple

    def __post_init__(self):
        names = self.generator_names
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name in names:
            if not NAME_RE.fullmatch(name):
                raise ValueError("bad generator name %r" % (name,))
        object.__setattr__(self, "generator_names", tuple(names))
        object.__setattr__(self, "relators",
                           tuple(reduce_word(r) for r in self.relators))
        for rel in self.relators:
            for g, s in rel:
                if not 0 <= g < len(names) or s not in (1, -1):
                    raise ValueError("relator letter (%r, %r) out of range"
                                     % (g, s))

    @classmethod
    def _own(cls, names, relators):
        """Trusted parts, unchecked: valid unique names, reduced relators."""
        self = object.__new__(cls)
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", relators)
        return self

    @property
    def num_generators(self):
        return len(self.generator_names)

    @property
    def num_relators(self):
        return len(self.relators)

    def word_str(self, word):
        if not word:
            return "1"
        return "*".join(self.generator_names[g] if s > 0
                        else self.generator_names[g].upper()
                        for g, s in word)

    def __str__(self):
        gens = ", ".join(self.generator_names)
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return "<%s | %s>" % (gens, rels)

    def exponent_rows(self):
        """The image of each relator in Z^n under abelianization, as
        :func:`_exponent_rows` of the relators."""
        return _exponent_rows(self.relators)


def _exponent_rows(words):
    """The one builder of exponent rows: a dict {generator: exponent sum}
    per word, in word order, keys in order of first letter, zero sums and
    all-zero rows kept; only :func:`_eliminate_units`' intake filters."""
    rows = []
    for word in words:
        row = {}
        for g, s in word:
            row[g] = row.get(g, 0) + s
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Parsing.
# ----------------------------------------------------------------------

class _PresParser(_Scanner):
    def __init__(self, text):
        super().__init__("\n".join(line.split("#", 1)[0]  # cut comments
                                   for line in text.splitlines()))
        self.letters = {}  # names and their inverses: one-letter words
        self.lengths = []  # the lengths of the names, distinct, longest first

    def parse(self):
        self.expect("<")
        names = []
        if self.peek() != "|":
            names.append(self.generator_name())
            while self.eat(","):
                names.append(self.generator_name())
        if len(set(names)) != len(names):
            self.error("duplicate generator name")
        self.letters = {key: ((i, s),) for i, name in enumerate(names)
                        for key, s in ((name, 1), (name.upper(), -1))}
        self.lengths = sorted(set(map(len, names)), reverse=True)
        relators = []
        if self.eat("|") and self.peek() != ">":
            relators.append(self.word())
            while self.eat(","):
                relators.append(self.word())
        self.expect(">")
        if self.peek():
            self.error("unexpected trailing input")
        # trusted: unique NAME_RE names, reduced relators of their letters
        return Presentation._own(tuple(names), tuple(relators))

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
                return atoms[0] if len(atoms) == 1 else _join(atoms)

    def check_length(self, length):
        # a word is stored letter by letter, so its length is capped the
        # way parse_poly caps an exponent; a power is checked before it
        # is built
        if length > MAX_EXPONENT:
            self.error("word too long (over %d letters)" % MAX_EXPONENT)

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.open_bracket()
            inner = self.word()
            self.close_bracket(")")
            return self.maybe_power(inner)
        if ch == "[":
            self.open_bracket()
            a = self.word()
            self.expect(",")
            b = self.word()
            self.close_bracket("]")
            return self.maybe_power(
                _join((a, b, inverse_word(a), inverse_word(b))))
        if ch == "1":
            self.pos += 1
            return self.maybe_power(())
        if ch.isalpha():
            return self.maybe_power(self.letter())
        self.error("expected a word" if ch else "unexpected end of input")

    def letter(self):
        # names are unique and their inverses start uppercase, so at most
        # one key of each length starts here; the longest wins
        for n in self.lengths:
            key = self.text[self.pos:self.pos + n]
            if key in self.letters:
                self.pos += len(key)
                return self.letters[key]
        # isolate the offending identifier for the message
        end = self.pos
        while end < len(self.text) and self.text[end].lower() in NAME_CHARS:
            end += 1
        self.error("unknown generator name %r" % self.text[self.pos:end])

    def maybe_power(self, word):
        if self.eat("^"):
            sign = -1 if self.eat("-") else 1
            digits = self.digits()
            if not digits:
                self.error("expected an integer exponent")
            n = sign * int(digits)
            self.check_length(len(word) * abs(n))
            return word_power(word, n)
        return word


def parse_presentation(text):
    """Parse ``<gens | relators>`` text (with optional # comments)."""
    return _PresParser(text).parse()


# ----------------------------------------------------------------------
# Tietze eliminations.
# ----------------------------------------------------------------------

def _once(word):
    """The lowest generator occurring exactly once in a word, or None."""
    seen, twice = set(), set()
    for g, _ in word:
        (twice if g in seen else seen).add(g)
    return min(seen - twice, default=None)


def tietze_reduce(P):
    """Eliminate generators by Tietze moves; returns the reduced
    presentation and the indices of the generators it keeps, ascending.

    The relators are cyclically reduced.  A move takes the shortest
    relator (lowest index on ties) in which some generator occurs exactly
    once, and the lowest such generator g: rotated to g^s w, the relator
    gives g = w^-s, which replaces g in every other relator.  Those are
    freely and cyclically reduced, empty ones are dropped, and g goes with
    its relator.  Moves stop when no relator qualifies, or before one that
    would take the total relator length above 3/2 of the reduced input's
    (GAP's default ``expandLimit``, a guard against blow-up).  Each move
    keeps the group, and the kept generators stand for the same elements
    (Havas, Kenne, Richardson and Robertson, "A Tietze transformation
    program", 1984).  With no move, P itself comes back.
    """
    rels = [w for w in map(cyclic_reduce, P.relators) if w]
    start = sum(map(len, rels))
    gone = set()
    while True:
        move = min(((len(w), i, g) for i, w in enumerate(rels)
                    if (g := _once(w)) is not None), default=None)
        if move is None:
            break
        _, i, g = move
        rel = rels[i]
        k = next(k for k, (h, _) in enumerate(rel) if h == g)
        rest = rel[k + 1:] + rel[:k]
        image = inverse_word(rest) if rel[k][1] > 0 else rest
        images = {1: image, -1: inverse_word(image)}
        new = []
        for j, w in enumerate(rels):
            if j == i:
                continue
            if any(h == g for h, _ in w):
                w = cyclic_reduce(reduce_word(chain.from_iterable(
                    images[s] if h == g else ((h, s),) for h, s in w)))
            if w:
                new.append(w)
        if 2 * sum(map(len, new)) > 3 * start:
            break
        rels = new
        gone.add(g)
    if not gone:
        return P, tuple(range(P.num_generators))
    kept = tuple(g for g in range(P.num_generators) if g not in gone)
    index = {g: i for i, g in enumerate(kept)}
    # trusted parts: a subset of P's names, and reduced relators
    return (Presentation._own(tuple(P.generator_names[g] for g in kept),
                              tuple(tuple((index[g], s) for g, s in w)
                                    for w in rels)),
            kept)


# ----------------------------------------------------------------------
# Smith normal form over Z.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """The diagonal of the Smith normal form D = U * A * V, entries
    nonnegative and each dividing the next, with the unimodular row
    transform U (the column transform V is not kept)."""

    diagonal: tuple
    U: tuple

    @property
    def invariant_factors(self):
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(A):
    """Exact Smith normal form of an integer matrix (any shape, may be empty).

    Pivots are chosen with minimal nonzero absolute value; purely integer
    row/column reduction, no modular arithmetic.  Each working row is
    [A row | U row], so row operations update U for free and column
    operations touch only the first n entries.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    R = [[int(x) for x in row] + [int(i == k) for k in range(m)]
         for i, row in enumerate(A)]

    def swap_cols(a, b):
        for row in R:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, factor):
        # row_dst += factor * row_src
        R[dst] = [x + factor * y for x, y in zip(R[dst], R[src])]

    def add_col(dst, src, factor):
        for row in R:
            row[dst] += factor * row[src]

    t = 0
    while True:
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        for i in range(t, m):
            row = R[i]
            for j in range(t, n):
                v = row[j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
            if pivot is not None and pivot[0] == 1:
                break  # no later entry is smaller
        if pivot is None:
            break
        R[t], R[pivot[1]] = R[pivot[1]], R[t]
        swap_cols(t, pivot[2])
        while True:
            if R[t][t] < 0:
                R[t] = [-x for x in R[t]]
            # reduce the pivot column and row; a nonzero remainder becomes
            # the new, strictly smaller pivot
            restart = False
            for i in range(t + 1, m):
                if R[i][t]:
                    q = R[i][t] // R[t][t]
                    if q:
                        add_row(i, t, -q)
                    if R[i][t]:
                        R[t], R[i] = R[i], R[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if R[t][j]:
                    q = R[t][j] // R[t][t]
                    if q:
                        add_col(j, t, -q)
                    if R[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # cross is clear; enforce that the pivot divides the rest
            p = R[t][t]
            if p == 1:
                break
            offender = None
            for i in range(t + 1, m):
                row = R[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    return SmithDecomposition(tuple(R[i][i] for i in range(min(m, n))),
                              tuple(tuple(row[n:]) for row in R))


def _eliminate_units(A, is_unit, inverse, modulus=None):
    """Sparse elimination of unit pivots; returns the pivot columns, in
    pivot order, and the rows left over, in their original order, as dicts
    {column: nonzero entry}.  A row of A is a sequence of ring entries or a
    dict {column: entry}; with a modulus, entries are integers mod a prime.

    The intake is the one filter: it copies each row, reduced by the
    modulus if any, without zero entries, and drops a row left empty.  It
    must copy, as elimination rewrites rows in place and its input may be
    dense (A - I of a corpus entry, a cover map's surjectivity matrix, an
    ``AlexanderMatrix``), unreduced mod p, or read again by the caller.
    Row and entry order are kept, so filtering first changes nothing.

    Each step takes the shortest row that holds a unit, the first in row
    order on ties, and its unit in the column with the fewest rows, the
    first column on ties; it clears that column with row operations
    through ``inverse`` and drops the pivot row and column, and any row
    that became zero.

    The heap holds (length, row) items, and an item is current while its
    length is the row's.  Every row with a unit has a current item: a row
    is pushed again when a row operation changes its length, and when one
    touches it after it was popped with no unit, since only row operations
    change entries.  So the first current item popped whose row holds a
    unit is the shortest such row.

    Havas and Majewski ("Integer matrix diagonalization", 1997) pivot by
    least Markowitz cost, (row nonzeros - 1) * (column nonzeros - 1).  On
    the cover matrices served here every pivot costs at most 4, so keeping
    that exact minimum buys no fill.
    """
    rows, cols = {}, {}  # cols: column -> indices of the rows holding it
    for i, row in enumerate(A):
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        if modulus is not None:
            pairs = ((j, x % modulus) for j, x in pairs)
        entries = {j: x for j, x in pairs if x}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)

    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    idle = set()  # rows popped with no unit and not touched since
    pivots = []
    while heap:
        n, i = heappop(heap)
        pivot = rows.get(i)
        if pivot is None or len(pivot) != n:
            continue  # gone, or its length changed since
        b = None  # least (column rows, column) of the row's units
        for c, x in pivot.items():
            if (b is None or (len(cols[c]), c) < b) and is_unit(x):
                b = len(cols[c]), c
        if b is None:
            idle.add(i)
            continue
        j = b[1]
        del rows[i]
        for c in pivot:
            cols[c].discard(i)
        inv = inverse(pivot.pop(j))
        for r in cols.pop(j):
            # row_r -= (a * inv) * pivot clears (r, j)
            row = rows[r]
            size = len(row)
            f = row.pop(j) * inv
            for c, x in pivot.items():
                old = row.get(c, 0)
                y = old - f * x
                if modulus is not None:
                    y %= modulus
                if y:
                    if not old:
                        cols[c].add(r)
                    row[c] = y
                else:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del rows[r]
            elif len(row) != size or r in idle:
                idle.discard(r)
                heappush(heap, (len(row), r))
        pivots.append(j)
    return pivots, list(rows.values())


def smith_invariants(A):
    """Nonzero invariant factors of an integer matrix (any shape, may be
    empty), in divisibility order: ``smith_normal_form(A).invariant_factors``
    with no transform of A built.  A row is a sequence of integers or a dict
    {column: entry}, which may leave out zero entries.

    :func:`_eliminate_units` clears the entries +-1, shortest row first.  A
    unit pivot splits the matrix as 1 (+) A' under unimodular operations,
    so k pivots give k factors 1, and the dense Smith form of what remains
    gives the rest; invariant factors are unique, so the pivot rule cannot
    change them, only the size of what remains (Havas-Majewski, "Integer
    matrix diagonalization", 1997).  Transposing keeps them too, so the
    dense form gets the side with fewer rows.  A 1 x k or 2 x 2 tail gives
    its determinantal divisors instead: g = gcd, and |det| / g if nonzero.
    """
    # a unit +-1 is its own inverse
    pivots, rest = _eliminate_units(A, {1, -1}.__contains__, int)
    live = sorted({c for row in rest for c in row})
    block = [[row.get(c, 0) for c in live] for row in rest]
    if len(rest) > len(live):
        block = list(zip(*block))
    if len(block) == 1:
        tail = (math.gcd(*block[0]),)
    elif len(rest) == len(live) == 2:
        (a, b), (c, d) = block
        g, det = math.gcd(a, b, c, d), abs(a * d - b * c)
        tail = (g, det // g) if det else (g,)
    else:
        tail = smith_normal_form(block).invariant_factors if rest else ()
    return (1,) * len(pivots) + tail


# ----------------------------------------------------------------------
# Abelianization and the map onto the free part of H_1.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianizationData:
    """H_1 = Z^rank (+) Z/d_1 (+) ...: free rank, invariant factors d_i > 1
    in divisibility order, and each generator's image in Z^rank
    (``gen_images``) and in each Z/d_i, mod d_i (``torsion_images``), in the
    Smith basis :func:`abelianize` fixes; every cover of H_1 reads them."""

    rank: int
    torsion: tuple
    gen_images: tuple
    torsion_images: tuple = ()

    @property
    def torsion_order(self):
        return math.prod(self.torsion)


def abelianize(P):
    """Abelianization from the Smith form D = U E V of the exponent sums E
    (generators by relators): row i of U mod D[i][i] is a coordinate of H_1."""
    n = P.num_generators
    rows = P.exponent_rows()
    snf = smith_normal_form([[r.get(g, 0) for r in rows] for g in range(n)])
    diag = snf.diagonal + (0,) * (n - len(snf.diagonal))
    free = [i for i, d in enumerate(diag) if d == 0]
    tors = [i for i, d in enumerate(diag) if d > 1]
    return AbelianizationData(
        len(free), tuple(diag[i] for i in tors),
        tuple(tuple(snf.U[i][j] for i in free) for j in range(n)),
        tuple(tuple(snf.U[i][j] % diag[i] for i in tors) for j in range(n)))


def mod_p_rank(A, p):
    """Rank over F_p of an integer matrix, rows as in
    :func:`smith_invariants`: every nonzero entry mod p is a unit, so
    :func:`_eliminate_units` clears the whole matrix."""
    return len(_eliminate_units(A, bool, lambda s: pow(s, -1, p), p)[0])


# ----------------------------------------------------------------------
# Fox calculus.
# ----------------------------------------------------------------------

# A relator with a run this long is read run by run; short runs cost less
# letter by letter.
LONG_RUN = 8


def fox_matrix(P, ab=None):
    """Abelianized Fox derivatives, one sparse row per relator.

    Row i is a dict {j: d(r_i)/d(x_j)} over the generators j, in ascending
    order, holding only the nonzero entries; each entry is the image of the
    derivative in the Laurent ring on rank-many variables.  Requires free
    rank >= 1.  Each relator is read once, tracking the image e of the
    prefix in Z^rank: a letter x_j adds t^e to entry j, a letter x_j^-1
    adds -t^(e - img x_j).  This is the product rule d(uv)/dx = du/dx +
    u dv/dx of the free derivative pushed through abelianization (Fox,
    1953).  A relator with a long run is read run by run: x_j^k adds t^e +
    ... + t^(e+(k-1)a), a = img x_j, at once, x_j^-k adds -t^(e-a) - ... -
    t^(e-ka), and either adds k t^e or -k t^e when a = 0.
    """
    if ab is None:
        ab = abelianize(P)
    if ab.rank < 1:
        raise ValueError("free rank is 0; no Alexander matrix")
    images = ab.gen_images
    negated = tuple(tuple(-x for x in img) for img in images)
    rows = []
    for rel in P.relators:
        terms = defaultdict(dict)
        e = (0,) * ab.rank
        if not any(map(eq, rel, rel[LONG_RUN - 1:])):  # then no long run
            for g, s in rel:
                if s > 0:
                    key, e = e, tuple(map(add, e, images[g]))
                else:
                    key = e = tuple(map(add, e, negated[g]))
                terms[g][key] = terms[g].get(key, 0) + s
        else:  # run by run
            for (g, s), run in groupby(rel):
                k, entry = len(list(run)), terms[g]
                step = images[g] if s > 0 else negated[g]
                first = e if s > 0 else tuple(map(add, e, step))
                e = tuple(x + k * a for x, a in zip(e, step))
                if not any(step):  # k equal keys
                    entry[first] = entry.get(first, 0) + k * s
                    continue
                added = dict.fromkeys(zip(*(
                    range(x, x + k * a, a) if a else repeat(x, k)
                    for x, a in zip(first, step))), s)
                if entry.keys().isdisjoint(added.keys()):
                    entry.update(added)
                else:
                    for key in added:
                        entry[key] = entry.get(key, 0) + s
        row = {}
        for g in sorted(terms):
            t = terms[g]
            if 0 in t.values():
                t = {k: c for k, c in t.items() if c}
            if t:
                row[g] = LaurentPoly._own(ab.rank, t)
        rows.append(row)
    return tuple(rows)
