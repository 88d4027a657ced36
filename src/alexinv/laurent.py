"""Exact multivariate Laurent polynomials with integer coefficients.

This module implements the group ring Z[H] for H a free abelian group of
rank n, viewed as Laurent polynomials in variables t1, ..., tn (just ``t``
when n == 1).  Everything is exact: coefficients are arbitrary-precision
integers and no operation ever rounds.

The units of this ring are exactly the signed monomials ``+-t^I``, which is
why polynomial invariants computed here are only well defined up to such a
unit; :func:`normalize` picks a canonical representative of each unit orbit.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from operator import add, eq, itemgetter, mul, neg, sub
from types import MappingProxyType

from .cyclotomic import character_evaluation, cyclotomic_norm, galois_orbits


class ParseError(ValueError):
    """Input text failed to parse; ``position`` is a 0-based offset."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else "%s (at position %d)" % (message, position))
        self.position = position


class _Scanner:
    """The cursor both text parsers read with: ``pos`` is the offset into
    ``text``, and errors carry it."""

    SPACE = re.compile(r"\s*")  # \s is exactly str.isspace on str patterns
    DIGITS = re.compile("[0-9]*")  # ASCII only: int() rejects some isdigit()s

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets open at the cursor

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        if self.text[self.pos:self.pos + 1].isspace():
            self.pos = self.SPACE.match(self.text, self.pos).end()

    def peek(self):
        self.skip_ws()
        return self.text[self.pos:self.pos + 1]

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.eat(ch):
            self.error("expected %r" % ch)

    def digits(self):
        """The run of ASCII digits at the cursor, possibly empty, consumed."""
        run = self.DIGITS.match(self.text, self.pos)
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none
        if limit and run.end() - self.pos > limit:
            self.error("integer too long (over %d digits)" % limit)
        self.pos = run.end()
        return run.group()

    def open_bracket(self):
        """Step into the bracket at the cursor, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            self.error("brackets nested too deeply (over %d levels)"
                       % MAX_NESTING)
        self.depth += 1
        self.pos += 1

    def close_bracket(self, ch):
        self.expect(ch)
        self.depth -= 1


MAX_EXPONENT = 10**6
# Each bracket level costs up to four frames of recursive descent.
MAX_NESTING = 100
# Most bits a parsed power base^n may take, bounded by the terms it can
# have (the lesser of its exponent box and C(terms + n - 1, n)) times
# n * bits(|base|_1), the bits of its largest possible coefficient.  A
# product f*g is bounded alike: the lesser of its box and |f| * |g| terms
# times bits(|f|_1 * |g|_1).
# Accepted powers expand in about two seconds at most: (t+1)^723 in 0.2 s,
# the sparse (t^1000 + 1)^723 in 0.13 s, and the largest admitted powers of
# v sparse monomials plus 1, (t1^9 + ... + tv^9 + 1)^n, in 0.3-2.0 s for
# v = 2..11, the slowest (t1^9 + ... + t5^9 + 1)^16 with 20,349 terms
# (2-vCPU Xeon, Python 3.11).
MAX_POWER_BITS = 1 << 20
# Most variables a parsed polynomial may have: every term stores an
# exponent vector of this length, so a huge arity costs memory before the
# first character is read.
MAX_ARITY = 1000


class LaurentPoly:
    """An element of Z[t1^{+-1}, ..., tn^{+-1}].

    Stored as a finite map from exponent vectors (tuples of n ints) to
    nonzero integer coefficients; the zero polynomial is the empty map.
    Instances are immutable, so an operation may return an operand that it
    leaves unchanged (a shift by the zero vector returns the polynomial
    itself).

    >>> t = LaurentPoly.variable(0, 1)
    >>> print((t - 1) * (t + 1))
    t^2 - 1
    >>> print(t**-2 + t**2)
    t^2 + t^-2
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError("exponent vector %r has length %d, expected %d"
                                 % (exps, len(exps), arity))
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _own(cls, arity, terms):
        """Wrap a dict this package built, with no per-term check.

        The caller guarantees what ``__init__`` would establish: every key
        is a tuple of ``arity`` ints, no value is 0, and ``arity >= 1``.  The
        dict is taken over, not copied, so the caller must not keep or
        change it.  Input from anywhere else goes through the validating
        ``LaurentPoly(arity, terms)``."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def constant(cls, value, arity):
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity):
        return cls.constant(1, arity)

    @classmethod
    def variable(cls, index, arity):
        """The variable t_{index} (0-based) as a polynomial."""
        if not 0 <= index < arity:
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: 1})

    @classmethod
    def monomial(cls, coeff, exps):
        return cls(len(tuple(exps)), {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.arity: 1}

    def is_unit(self):
        """True iff this is +-t^I, i.e. a unit of the Laurent ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def exponent_range(self):
        """Per-variable (min, max) exponents over the support; None if zero."""
        if not self.terms:
            return None
        cols = tuple(zip(*self.terms))
        return tuple(map(min, cols)), tuple(map(max, cols))

    def degree_span(self):
        """Sum over variables of (max - min) exponent; 0 for constants."""
        rng = self.exponent_range()
        if rng is None:
            return 0
        lo, hi = rng
        return sum(h - l for l, h in zip(lo, hi))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly.constant(other, self.arity)
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch: %d vs %d"
                                 % (self.arity, other.arity))
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            coeff += terms.get(exps, 0)
            if coeff:
                terms[exps] = coeff
            else:
                del terms[exps]
        return LaurentPoly._own(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._own(self.arity,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._own(self.arity, _dict_sub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly._own(self.arity, _dict_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            (exps, coeff), = self.terms.items()
            return LaurentPoly._own(self.arity,
                                    {tuple(n * e for e in exps):
                                     coeff if n % 2 else 1})
        result = LaurentPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the square past the top bit would go unused
                base = base * base
        return result

    def shift(self, exps):
        """Multiply by the monomial t^exps; the zero shift returns self."""
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise ValueError("shift %r has length %d, expected %d"
                             % (exps, len(exps), self.arity))
        if not any(exps):
            return self
        return LaurentPoly._own(self.arity,
                                {tuple(map(add, e, exps)): c
                                 for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.arity)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        # a constant equals its integer, so it hashes as that integer
        zero = (0,) * self.arity
        if self.terms.keys() <= {zero}:
            return hash(self.terms.get(zero, 0))
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "LaurentPoly(%d, %r)" % (self.arity, dict(self.terms))


def involution(f):
    """The ring automorphism sending each group element to its inverse.

    Negates every exponent vector; an involution, and multiplicative:

    >>> t = LaurentPoly.variable(0, 1)
    >>> print(involution(t**2 - 4*t + 1))
    1 - 4*t^-1 + t^-2
    """
    return LaurentPoly._own(f.arity, {tuple(-x for x in e): c
                                      for e, c in f.terms.items()})


def trace(f):
    """Sum of the coefficients, i.e. the value at (1, ..., 1)."""
    return sum(f.terms.values())


def normalize(f):
    """Canonical representative of the unit orbit {+-t^I * f}.

    The minimal exponent of each variable over the support becomes 0 and the
    coefficient of the lexicographically largest surviving exponent vector
    is made positive (so gcd(t - 1, t^2 - 1) comes out as t - 1, not 1 - t).
    Idempotent, and constant on unit orbits; the zero polynomial is returned
    unchanged.

    >>> t = LaurentPoly.variable(0, 1)
    >>> print(normalize(t**-1 - 4 + t))
    t^2 - 4*t + 1
    """
    if f.is_zero():
        return f
    lo, _ = f.exponent_range()
    g = f.shift(tuple(-x for x in lo))
    if g.terms[max(g.terms)] < 0:
        g = -g
    return g


@dataclass(frozen=True)
class MonomialUnit:
    """A unit +-t^I of the Laurent ring."""

    sign: int
    shift: tuple

    def as_poly(self, arity=None):
        if arity is None:
            arity = len(self.shift)
        return LaurentPoly(arity, {tuple(self.shift): self.sign})

    def __str__(self):
        return format_poly(self.as_poly())


class Symmetry(Enum):
    """Symmetry classes under the exponent-negation automorphism.

    Listed in descending order of strength: symmetric implies unit
    symmetric implies mod unit symmetric.
    """

    SYMMETRIC = "Symmetric"
    UNIT_SYMMETRIC = "UnitSymmetric"
    MOD_UNIT_SYMMETRIC = "ModUnitSymmetric"
    ASYMMETRIC = "Asymmetric"

    @property
    def strength(self):
        order = [Symmetry.ASYMMETRIC, Symmetry.MOD_UNIT_SYMMETRIC,
                 Symmetry.UNIT_SYMMETRIC, Symmetry.SYMMETRIC]
        return order.index(self)

    def at_least(self, other):
        return self.strength >= other.strength


@dataclass(frozen=True)
class SymmetryClass:
    """Strongest applicable symmetry class, with a witnessing unit.

    The witness u satisfies the defining identity of the reported class:
    iota(f) == f for Symmetric (u == 1), iota(u*f) == u*f for UnitSymmetric,
    iota(f) == u*f for ModUnitSymmetric, and is None for Asymmetric.
    """

    kind: Symmetry
    witness: MonomialUnit | None = None


def classify_symmetry(f):
    """Classify a nonzero polynomial as (unit/mod unit) symmetric or not.

    If iota(f) == s * t^J * f at all, comparing the extremes of the support
    forces J_i = -(min_i + max_i), so only that single candidate shift is
    tested, in place: it holds exactly when f[-J - e] == s * f[e] for each
    e in the support, read per sign s = +-1 up to the first mismatch.  Unit
    symmetry also needs s = + and every J_i even (then t^(J/2) symmetrizes f).
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no symmetry class")
    # read once, for the range and the mirror; zip(*f.terms) is slow
    cols = [list(map(itemgetter(i), f.terms)) for i in range(f.arity)]
    mid = tuple(map(add, map(min, cols), map(max, cols)))
    cand, get, coeffs = tuple(-x for x in mid), f.terms.get, f.terms.values()
    for sign, want in (1, coeffs), (-1, map(neg, coeffs)):
        mirror = zip(*[map(m.__sub__, col) for m, col in zip(mid, cols)])
        if all(map(eq, map(get, mirror), want)):  # f[-J - e] == s * f[e]
            break
    else:
        return SymmetryClass(Symmetry.ASYMMETRIC, None)
    if sign > 0 and not any(cand):
        return SymmetryClass(Symmetry.SYMMETRIC, MonomialUnit(1, cand))
    if sign > 0 and not any(j % 2 for j in cand):
        half = tuple(j // 2 for j in cand)
        return SymmetryClass(Symmetry.UNIT_SYMMETRIC, MonomialUnit(1, half))
    return SymmetryClass(Symmetry.MOD_UNIT_SYMMETRIC, MonomialUnit(sign, cand))


# ----------------------------------------------------------------------
# Exact division and GCD.
#
# Internally both work on ordinary (non-negative exponent) polynomials:
# clearing the monomial content of a Laurent polynomial only changes it
# by a unit, and units are irrelevant to divisibility questions.
# ----------------------------------------------------------------------

def _monic_shift(f):
    """Shift f so all exponents are >= 0 with per-variable minimum 0."""
    lo, _ = f.exponent_range()
    return f.shift(tuple(-x for x in lo)).terms


def _dict_mul(f, g):
    out = {}
    get = out.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _dict_sub(f, g):
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _dict_div_exact(f, g):
    """Exact quotient f/g in Z[x1..xn] (dicts, exponents >= 0), else None."""
    if not g:
        return None
    if not f:
        return {}
    q = {}
    rem = dict(f)
    glead = max(g)
    gc = g[glead]
    while rem:
        rlead = max(rem)
        qexp = tuple(a - b for a, b in zip(rlead, glead))
        if any(x < 0 for x in qexp) or rem[rlead] % gc:
            return None
        qc = rem[rlead] // gc
        q[qexp] = qc
        rem = _dict_sub(rem, _dict_mul({qexp: qc}, g))
    return q


# Kronecker packing.  With per-variable bounds dims, exponent vectors in the
# box below dims map one-to-one to slot indices, and _pack evaluates a
# polynomial at x_i = 2^(width * stride_i).  That evaluation is a ring
# homomorphism, so g | f forces pack(g) | pack(f).  When every coefficient
# is below 2^(width-1) in absolute value the slots are a balanced base
# 2^width expansion, which is unique, so equal packed values mean equal
# polynomials.

# Packed size in bits above which _dict_quotient does long division instead.
PACK_MAX_BITS = 1 << 24
# Signed typecodes by native item size, for a typed view of slots.
_SIGNED = dict(zip(map(struct.calcsize, "bhiq"), "bhiq"))
_NONZERO = re.compile(rb"[^\0]+")


def _pack(f, strides, nslots, width):
    """sum of c * 2^(width * index(e)); width is a multiple of 8."""
    nb = width // 8
    pos, neg = bytearray(nslots * nb), bytearray(nslots * nb)
    if len(strides) == 1:
        offsets = [nb * e[0] for e in f]
    else:
        offsets = [nb * sum(map(mul, e, strides)) for e in f]
    for i, c in zip(offsets, f.values()):
        if c > 0:
            pos[i:i + nb] = c.to_bytes(nb, "little")
        else:
            neg[i:i + nb] = (-c).to_bytes(nb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(v, dims, nslots, width):
    """The polynomial whose balanced slots make v, its degree in each
    variable and its height, or None if v needs more than nslots slots.
    Only the nonzero slots are read, a run at a time where a typed view
    can read them (1, 2, 4 or 8 bytes, little-endian), else one by one."""
    nb = width // 8
    # 2^(width-1) in every slot: adding it clears the borrows, and xoring
    # it back leaves each slot the two's complement of its coefficient;
    # flags has one byte per slot, the OR of its bytes, so the runs of
    # nonzero flags are the runs of nonzero slots
    half = int.from_bytes((bytes(nb - 1) + b"\x80") * nslots, "little")
    v += half
    if v < 0 or v.bit_length() > nslots * width:
        return None
    raw = (v ^ half).to_bytes(nslots * nb, "little")
    flags = raw
    if nb > 1:
        flags = 0
        for j in range(nb):
            flags |= int.from_bytes(raw[j::nb], "little")
        flags = flags.to_bytes(nslots, "little")
    runs = list(map(re.Match.span, _NONZERO.finditer(flags)))
    slots = []
    for i, j in runs:
        slots += range(i, j)
    if nb in _SIGNED and sys.byteorder == "little":
        view, coeffs = memoryview(raw).cast(_SIGNED[nb]), []
        for i, j in runs:
            coeffs += view[i:j]
    else:
        coeffs = [int.from_bytes(raw[i * nb:i * nb + nb], "little",
                                 signed=True) for i in slots]
    if not slots:
        return {}, [0] * len(dims), 0
    cols, rest = [], slots  # slot i = sum(e_k * stride_k), mixed radix dims
    for d in dims[:-1]:
        cols.append([i % d for i in rest])
        rest = [i // d for i in rest]
    # the slots ascend, so the last exponent column does too
    return (dict(zip(zip(*cols, rest), coeffs)), [*map(max, cols), rest[-1]],
            max(max(coeffs), -min(coeffs)))


def _degrees(f):
    return [max(col) for col in zip(*f)]


def _dict_quotient(f, g):
    """Exact quotient f/g in Z[x1..xn] (dicts, exponents >= 0), else None.

    The candidate q comes from one division of packed integers, slot
    bases taken from f's degrees; a nonzero remainder disproves g | f.  q is
    accepted only if packed g*q equals packed f at a slot width above
    bits(|g|_1 * |q|_inf), which holds every coefficient of g*q.  When the
    slots are too narrow for that (q outgrew them), or f is too large to
    pack, long division decides.  A one-term g = c x^I divides f when c
    divides each coefficient and each exponent is at least I; q is then f
    shifted by -I, with no packing."""
    if not g:
        return None
    if not f:
        return {}
    if len(g) == 1:
        (gexp, c), = g.items()
        if any(v % c for v in f.values()):
            return None
        q = {tuple(map(sub, e, gexp)): v // c for e, v in f.items()}
        return q if min(map(min, q)) >= 0 else None
    fdeg, gdeg = _degrees(f), _degrees(g)
    if any(b > a for a, b in zip(fdeg, gdeg)):
        return None
    dims = [d + 1 for d in fdeg]
    strides, nslots = [], 1
    for d in dims:
        strides.append(nslots)
        nslots *= d
    g1 = sum(map(abs, g.values()))
    height = max(map(abs, f.values()))
    # whole bytes per slot, room for f's coefficients and a sign bit
    width = 8 * -(-(height.bit_length() + g1.bit_length() + 2) // 8)
    if width * nslots > PACK_MAX_BITS:
        return _dict_div_exact(f, g)
    qp, r = divmod(_pack(f, strides, nslots, width),
                   _pack(g, strides, nslots, width))
    if r:
        return None
    q, qdeg, qheight = _unpack(qp, dims, nslots, width) or (None, (), 0)
    # g*q packs to f at width; that proves g*q == f when g*q stays inside
    # the box and its coefficients, at most |g|_1 * |q|_inf, fit the slots
    if (q and all(a + b <= c for a, b, c in zip(qdeg, gdeg, fdeg))
            and (g1 * qheight).bit_length() < width):
        return q
    return _dict_div_exact(f, g)


def divide_exact(f, g):
    """Exact quotient f/g in the Laurent ring, or None if g does not divide f."""
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    if g.is_zero():
        return None
    if f.is_zero():
        return LaurentPoly.zero(f.arity)
    flo, _ = f.exponent_range()
    glo, _ = g.exponent_range()
    q = _dict_quotient(_monic_shift(f), _monic_shift(g))
    if q is None:
        return None
    shift = tuple(a - b for a, b in zip(flo, glo))
    return LaurentPoly._own(f.arity, q).shift(shift)


def _main_degree(f, n):
    return max(e[n - 1] for e in f)


def _main_coeff(f, n, k):
    """Coefficient of x_n^k, kept at full ambient arity with slot n-1 zeroed."""
    return {e[:n - 1] + (0,) + e[n:]: c for e, c in f.items() if e[n - 1] == k}


def _main_coeffs(f, n):
    """Every x_n-coefficient of f by degree, as _main_coeff gives it, in one
    pass over the terms."""
    out = {}
    for e, c in f.items():
        out.setdefault(e[n - 1], {})[e[:n - 1] + (0,) + e[n:]] = c
    return out


def _attach_main(coeff, n, k):
    return {e[:n - 1] + (k,) + e[n:]: c for e, c in coeff.items()}


def _content_and_primitive(f, n):
    """Content (gcd of x_n-coefficients, a poly in the other variables)
    and primitive part of f viewed in R[x_n], R = Z[x1..x_{n-1}]."""
    one = {(0,) * len(next(iter(f))): 1}
    coeffs = _main_coeffs(f, n)
    cont = {}
    for k in sorted(coeffs):
        cont = _dict_gcd(cont, coeffs[k], n - 1)
        if cont == one:
            return cont, dict(f)
    prim = {}
    for k, coeff in coeffs.items():
        prim.update(_attach_main(_dict_div_exact(coeff, cont), n, k))
    return cont, prim


def _pseudo_rem(f, g, n):
    """Pseudo-remainder of f by g in the main variable x_n.  When g's
    leading coefficient is 1 every product by it is the identity, so it is
    skipped: this is then the plain remainder."""
    df, dg = _main_degree(f, n), _main_degree(g, n)
    lg = _main_coeff(g, n, dg)
    monic = lg == {(0,) * len(next(iter(g))): 1}
    r = dict(f)
    steps = df - dg + 1
    while r and _main_degree(r, n) >= dg:
        dr = _main_degree(r, n)
        lr = _main_coeff(r, n, dr)
        r = _dict_sub(r if monic else _dict_mul(lg, r),
                      _dict_mul(_attach_main(lr, n, dr - dg), g))
        steps -= 1
    if not monic:
        for _ in range(steps):
            r = _dict_mul(lg, r)
    return r


def _dict_gcd(f, g, n):
    """GCD in Z[x1..xn] by primitive pseudo-remainder sequences.

    n counts the variables actually in play; exponent tuples keep the full
    ambient arity, with trailing coordinates 0 once recursion passes them.
    At n == 0 both inputs are integer constants.
    """
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    if n == 0:
        arity = len(next(iter(f)))
        a = abs(next(iter(f.values())))
        b = abs(next(iter(g.values())))
        return {(0,) * arity: math.gcd(a, b)}
    cf, pf = _content_and_primitive(f, n)
    cg, pg = _content_and_primitive(g, n)
    cont = _dict_gcd(cf, cg, n - 1)
    if _main_degree(pf, n) < _main_degree(pg, n):
        pf, pg = pg, pf
    while pg:
        r = _pseudo_rem(pf, pg, n)
        pf = pg
        pg = _content_and_primitive(r, n)[1] if r else {}
    return _dict_mul(cont, _content_and_primitive(pf, n)[1])


# Heuristic GCD (Char, Geddes and Gonnet, J. Symb. Comput. 1989; Geddes,
# Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 7).  Values
# of xi tried before giving up, and the cap on bits(xi) * degree:
HEU_TRIES = 6
HEU_MAX_BITS = 1 << 20


def _evaluate(f, n, xi):
    """f at x_n = xi, by Horner's rule on each x_n-coefficient."""
    groups = {}
    for e, c in f.items():
        groups.setdefault(e[:n - 1] + (0,) + e[n:], []).append((e[n - 1], c))
    out = {}
    for rest, terms in groups.items():
        terms.sort(reverse=True)
        value, top = 0, terms[0][0]
        for k, c in terms:
            gap = top - k
            value = value * (xi if gap == 1 else xi ** gap) + c
            top = k
        value *= xi ** top
        if value:
            out[rest] = value
    return out


def _xi_adic(gamma, n, xi):
    """The polynomial in x_n whose x_n^i-coefficient holds digit i of the
    symmetric base-xi expansion (digits in (-xi/2, xi/2]) of each
    coefficient of gamma."""
    half = xi // 2
    out = {}
    for e, c in gamma.items():
        i = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[e[:n - 1] + (i,) + e[n:]] = d
            i += 1
    return out


def _heu_gcd(f, g, n):
    """GCD in Z[x1..xn] (dicts as for _dict_gcd), integer content included,
    or None when the heuristic gives up."""
    if not f or not g:
        return dict(f or g)
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    content = math.gcd(cf, cg)
    G = _heu_primitive({e: c // cf for e, c in f.items()},
                       {e: c // cg for e, c in g.items()}, n)
    return None if G is None else {e: c * content for e, c in G.items()}


def _heu_primitive(f, g, n):
    """GCD of nonzero f and g with integer content 1, or None.

    Each try evaluates x_n at xi, takes the GCD of the images by
    _heu_gcd, rebuilds a candidate from its xi-adic digits and keeps the
    primitive part G.  With xi > 2 * min(height f, height g) + 1, a G that
    divides f and g is their GCD."""
    zero = (0,) * len(next(iter(f)))
    if n == 0 or len(f) == 1 and zero in f or len(g) == 1 and zero in g:
        return {zero: 1}
    degree = max(_main_degree(f, n), _main_degree(g, n))
    if degree == 0:
        return _heu_primitive(f, g, n - 1)
    xi = 2 * min(max(abs(c) for c in f.values()),
                 max(abs(c) for c in g.values())) + 2
    for _ in range(HEU_TRIES):
        if xi.bit_length() * degree > HEU_MAX_BITS:
            return None
        gamma = _heu_gcd(_evaluate(f, n, xi), _evaluate(g, n, xi), n - 1)
        if gamma is not None:
            G = _xi_adic(gamma, n, xi)
            cG = math.gcd(*G.values())
            G = {e: c // cG for e, c in G.items()}
            if (_dict_quotient(f, G) is not None
                    and _dict_quotient(g, G) is not None):
                return G
        xi = xi * 73794 // 27011
    return None


def gcd(f, g):
    """A greatest common divisor in the Laurent ring, returned normalized.

    gcd(f, 0) == normalize(f) and gcd(0, 0) == 0.  Well defined up to units
    because the ring is a UFD; the normalized representative is returned.
    The heuristic GCD runs first; the primitive PRS takes over when it
    gives up.
    """
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    if f.is_zero():
        return normalize(g)
    if g.is_zero():
        return normalize(f)
    n = f.arity
    a, b = _monic_shift(f), _monic_shift(g)
    d = _heu_gcd(a, b, n)
    if d is None:
        d = _dict_gcd(a, b, n)
    return normalize(LaurentPoly._own(n, d))


def gcd_list(polys, arity):
    """GCD of a finite family; 0 for an empty family (the zero ideal)."""
    acc = LaurentPoly.zero(arity)
    for f in polys:
        acc = gcd(acc, f)
        if acc.is_one():
            break
    return acc


# ----------------------------------------------------------------------
# Exact products over roots of unity.
# ----------------------------------------------------------------------

def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def root_of_unity_norm(f, primes):
    """Exact integer product of f over all tuples of p_i-th roots of unity.

    Returns prod f(rho_1^{e_1}, ..., rho_n^{e_n}) over all 0 <= e_i < p_i,
    with rho_i a primitive p_i-th root of unity.  The tuples fall into
    Galois orbits of characters, and the product over an orbit of order m
    is the norm from Q(zeta_m) to Q of f at its representative, an integer
    computed as a resultant against the cyclotomic polynomial.  A zero
    return value is legitimate (f vanished at some root-of-unity tuple).
    """
    if f.arity != len(primes):
        raise ValueError("need one prime per variable (arity %d, got %d primes)"
                         % (f.arity, len(primes)))
    for p in primes:
        # the characters of Z/p have order 1 or p only for prime p
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
    norm = 1
    for exps, m, _ in galois_orbits(primes):
        norm *= cyclotomic_norm(
            character_evaluation(primes, exps, m)(f.terms), m)
        if not norm:
            return 0
    return norm


# ----------------------------------------------------------------------
# Text format: integer coefficients, variables t or t1..tn, operators
# + - *, exponents ^ with optional negative integers, parentheses.
# ----------------------------------------------------------------------

def _var_names(arity):
    if arity == 1:
        return ["t"]
    return ["t%d" % (i + 1) for i in range(arity)]


def format_poly(f):
    """Render in the canonical text form, terms in lexicographic exponent
    order from largest to smallest.  The zero polynomial prints as "0"."""
    if f.is_zero():
        return "0"
    names = _var_names(f.arity)
    pieces = []
    for exps in sorted(f.terms, reverse=True):
        coeff = f.terms[exps]
        vars_part = "*".join(
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(names, exps) if e != 0)
        mag = abs(coeff)
        if vars_part:
            body = vars_part if mag == 1 else "%d*%s" % (mag, vars_part)
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


class _PolyParser(_Scanner):
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, text, arity):
        super().__init__(text)
        self.arity = arity

    def parse(self):
        result = self.expr()
        if self.peek():
            self.error("unexpected trailing input %r" % self.peek())
        return result

    def expr(self):
        sign = 1
        while True:
            if self.eat("-"):
                sign = -sign
            elif not self.eat("+"):
                break
        result = sign * self.term()
        while True:
            if self.eat("+"):
                result = result + self.term()
            elif self.eat("-"):
                result = result - self.term()
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not ("0" <= ch <= "9" or ch == "t" or ch == "("):
                return result
            # a product, or a juxtaposition such as "2t" or "3(t+1)"
            self.skip_ws()
            at = self.pos
            other = self.factor()
            if result and other:  # bounded as a power is
                spans = zip(*result.exponent_range(), *other.exponent_range())
                box = math.prod(b - a + d - c + 1 for a, b, c, d in spans)
                norm = (sum(map(abs, result.terms.values()))
                        * sum(map(abs, other.terms.values())))
                if (min(box, len(result.terms) * len(other.terms))
                        * norm.bit_length() > MAX_POWER_BITS):
                    raise ParseError("product too large (over %d bits)"
                                     % MAX_POWER_BITS, at)
            result = result * other

    def factor(self):
        base = self.atom()
        if self.eat("^"):
            self.skip_ws()
            at = self.pos
            exp = self.integer()
            if abs(exp) > MAX_EXPONENT:
                self.error("exponent overflow")
            if base.is_unit():
                return base ** exp
            if exp < 0:
                self.error("negative power of a non-monomial")
            if exp and base:
                lo, hi = base.exponent_range()
                box = math.prod(exp * (h - l) + 1 for l, h in zip(lo, hi))
                norm = sum(map(abs, base.terms.values()))
                limit = MAX_POWER_BITS // (exp * norm.bit_length())
                if box > limit and _multisets_exceed(len(base.terms), exp,
                                                     limit):
                    raise ParseError("power too large (over %d bits)"
                                     % MAX_POWER_BITS, at)
            return base ** exp
        return base

    def atom(self):
        negate = False
        while self.eat("-"):  # a run of signs is counted, not recursed on
            negate = not negate
        ch = self.peek()
        if ch == "(":
            self.open_bracket()
            atom = self.expr()
            self.close_bracket(")")
        elif "0" <= ch <= "9":
            atom = LaurentPoly.constant(self.unsigned_integer(), self.arity)
        elif ch == "t":
            atom = self.variable()
        else:
            self.error("expected a term" if ch else "unexpected end of input")
        return -atom if negate else atom

    def variable(self):
        self.pos += 1
        start = self.pos
        digits = self.digits()
        if not digits:
            if self.arity != 1:
                self.error("bare 't' needs arity 1; use t1..t%d" % self.arity)
            index = 0
        else:
            index = int(digits) - 1
            if not 0 <= index < self.arity:
                self.pos = start - 1
                self.error("variable t%s out of range for arity %d"
                           % (digits, self.arity))
        return LaurentPoly.variable(index, self.arity)

    def unsigned_integer(self):
        digits = self.digits()
        if not digits:
            self.error("expected an integer")
        return int(digits)

    def integer(self):
        sign = -1 if self.eat("-") else 1
        if sign > 0:
            self.eat("+")
        self.skip_ws()
        return sign * self.unsigned_integer()


def _multisets_exceed(n, k, limit):
    """Whether C(n + k - 1, k), the number of size-k multisets of n items
    (so the most terms a k-th power of n terms can have), exceeds limit.
    The partial binomials C(n + k - 1 - j + i, i), j = min(n - 1, k), grow
    at least twofold per step, so this stops within bits(limit) + 1 steps
    where computing the binomial itself could take seconds."""
    j = min(n - 1, k)
    c = i = 1
    while c <= limit and i <= j:
        c = c * (n + k - 1 - j + i) // i
        i += 1
    return c > limit


def parse_poly(text, arity):
    """Parse the text format into a polynomial of the given arity.

    >>> dict(parse_poly("t^2 - 4*t + 1", 1).terms)
    {(2,): 1, (1,): -4, (0,): 1}
    """
    return _PolyParser(text, arity).parse()
