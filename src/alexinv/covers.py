"""Finite abelian covers and the verification of the cover theorems.

A cover is described by a surjection of the fundamental group onto a
direct sum of prime cyclic groups; the kernel presentation is produced by
Reidemeister-Schreier rewriting from a coset table over a breadth-first
Schreier transversal.  The cover checks first restrict the map to a
Tietze-reduced base (:func:`tietze_reduced`), so a generator that a
relator solves for is eliminated once on the base rather than once per
coset in the cover, and a :class:`CoverBase` does the base's other work
once for all its covers.  Characters are evaluated in exact cyclotomic
arithmetic (:mod:`alexinv.cyclotomic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, product
from math import comb, inf, prod

from . import presentation as pres
from .alexander import AlexanderMatrix, _relative_first_minors, unit_reduce
from .cyclotomic import (CyclotomicField, bareiss_rank, character_evaluation,
                         character_order, galois_orbits)
from .laurent import is_prime, root_of_unity_norm
from .presentation import (AbelianizationData, Presentation, abelianize,
                           mod_p_rank, smith_invariants)

DEFAULT_MAX_INDEX = 256


class CoverIndexError(RuntimeError):
    """The requested cover exceeds the configured coset limit."""

    def __init__(self, order, limit):
        super().__init__("cover of index %d exceeds the limit %d"
                         % (order, limit))
        self.order = order
        self.limit = limit


@dataclass(frozen=True)
class DeckGroup:
    """Direct sum of F_{p_i} for the listed primes."""

    primes: tuple

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        if not self.primes:
            raise ValueError("deck group needs at least one prime summand")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError("%r is not prime" % (p,))

    @property
    def order(self):
        return prod(self.primes)

    def elements(self):
        return product(*(range(p) for p in self.primes))

    def characters(self, nontrivial_only=False):
        return (Character(exps) for exps in self.elements()
                if any(exps) or not nontrivial_only)

    def character_orbits(self):
        """Galois orbits of the nontrivial characters, each once as
        (representative, size), from :func:`cyclotomic.galois_orbits`."""
        for exps, m, size in galois_orbits(self.primes):
            if m > 1:
                yield Character(exps), size


@dataclass(frozen=True)
class Character:
    """A character of a deck group: the i-th coordinate evaluates to
    rho_i^{e_i} for rho_i a primitive p_i-th root of unity."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))


@dataclass(frozen=True)
class CoverMap:
    """A surjection of the base group onto a deck group; ``assignment``
    lists the image tuple of each base generator."""

    base: Presentation
    deck: DeckGroup
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(self, "assignment",
                           tuple(tuple(a) for a in self.assignment))
        if len(self.assignment) != self.base.num_generators:
            raise ValueError("one image tuple per generator required")
        k = len(self.deck.primes)
        for img in self.assignment:
            if len(img) != k:
                raise ValueError("image tuple has wrong length")
        for rel in self.base.relators:
            if any(self.image_of_word(rel)):
                raise ValueError("relator %s does not map to 0"
                                 % self.base.word_str(rel))
        # surjectivity: for each prime, the coordinates belonging to that
        # prime must be spanned by the generator images mod p
        for p in set(self.deck.primes):
            coords = [i for i, q in enumerate(self.deck.primes) if q == p]
            mat = [[img[i] for img in self.assignment] for i in coords]
            if mod_p_rank(mat, p) != len(coords):
                raise ValueError("assignment is not surjective onto the "
                                 "deck group")

    @classmethod
    def _own(cls, base, deck, assignment):
        """Trusted parts, unchecked: images read off H_1, or restricted to a
        Tietze reduction, kill every relator and span the deck group."""
        self = object.__new__(cls)
        self.__dict__.update(base=base, deck=deck, assignment=assignment)
        return self

    def image_of_word(self, word):
        out = [0] * len(self.deck.primes)
        for g, s in word:
            img = self.assignment[g]
            for i, p in enumerate(self.deck.primes):
                out[i] = (out[i] + s * img[i]) % p
        return tuple(out)


@dataclass(frozen=True)
class CoverPresentation:
    """The kernel of :func:`reidemeister_schreier`, each piece built once,
    when first read.  ``num_generators`` is Schreier's |G|(n - 1) + 1, and
    ``exponent_rows()`` reads the coset tables, so neither builds a name or
    a word, and a relator-free base builds no table.  The rows keep the
    presentation's contract: ``cp.exponent_rows() ==
    cp.presentation.exponent_rows()``, zero sums included.  ``tree[c]`` is
    the (parent coset, base generator) pair of the tree edge into coset c,
    and None at coset 0; stored per coset, the transversal words would take
    memory quadratic in the depth of the tree.  No cover check reads
    ``tree`` or ``transversal``: they fix the Schreier numbering behind the
    names ``<base>_<coset>``, which the RS oracle tests compare them on."""

    cover_map: CoverMap

    @property
    def num_generators(self):
        cm = self.cover_map
        return cm.deck.order * (cm.base.num_generators - 1) + 1

    @cached_property
    def _tables(self):  # act, back, schreier and the tree
        cm = self.cover_map
        order, n = cm.deck.order, cm.base.num_generators
        shifts = []  # each generator as a permutation of mixed-radix elements
        for img in cm.assignment:
            perm = [0]
            for p, v in zip(cm.deck.primes, img):
                perm = [q * p + (d + v) % p for q in perm for d in range(p)]
            shifts.append(perm)
        act = [[0] * order for _ in range(n)]
        back = [[0] * order for _ in range(n)]
        schreier = [[None] * n for _ in range(order)]
        k, tree = count(), [None]
        elements = [0]  # the mixed-radix number of each coset
        coset_of = [0] + [None] * (order - 1)
        for c, x in enumerate(elements):
            for g in range(n):
                y = shifts[g][x]
                if coset_of[y] is None:
                    coset_of[y] = len(elements)
                    elements.append(y)
                    tree.append((c, g))
                else:
                    schreier[c][g] = next(k)
                act[g][c] = coset_of[y]
                back[g][coset_of[y]] = c
        return act, back, schreier, tuple(tree)

    tree = property(lambda self: self._tables[3])

    @cached_property
    def transversal(self):
        """The word in the base generators of each coset's tree path."""
        words = [()]
        for parent, g in self.tree[1:]:
            words.append(words[parent] + ((g, 1),))
        return tuple(words)

    def _letters(self, word, c):
        """The Schreier letters of a base word read from coset c."""
        act, back, schreier, _ = self._tables
        for g, s in word:
            if s > 0:
                k, c = schreier[c][g], act[g][c]
            else:
                c = back[g][c]
                k = schreier[c][g]
            if k is not None:
                yield k, s

    def _words(self):
        """The letters of each cover relator, coset by coset and, within a
        coset, base relator by base relator."""
        cm = self.cover_map
        return (self._letters(rel, c) for c, rel
                in product(range(cm.deck.order), cm.base.relators))

    @cached_property
    def presentation(self):
        cm, schreier = self.cover_map, self._tables[2]
        return Presentation._own(
            tuple("%s_%d" % (cm.base.generator_names[g], c) for c, row
                  in enumerate(schreier) for g, k in enumerate(row)
                  if k is not None),
            tuple(map(tuple, self._words())))

    def exponent_rows(self):
        """``presentation.exponent_rows()``, equal row for row: summed over
        the tables as each relator is walked from each coset."""
        cm, rows = self.cover_map, []
        if cm.base.relators:  # a relator-free base builds no table
            act, back, schreier, _ = self._tables
        for c, rel in product(range(cm.deck.order), cm.base.relators):
            row = {}
            for g, s in rel:
                if s > 0:
                    k, c = schreier[c][g], act[g][c]
                else:
                    c = back[g][c]
                    k = schreier[c][g]
                if k is not None:
                    row[k] = row.get(k, 0) + s
            rows.append(row)
        return rows


def mod_p_betti(P, p):
    """First mod-p Betti number of a presentation or CoverPresentation P:
    its generator count minus the F_p-rank of its exponent-sum rows."""
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    return P.num_generators - mod_p_rank(P.exponent_rows(), p)


def mod_p_cover(P, p, max_index=inf):
    """The canonical cover with deck group (F_p)^{d_p}: abelianization (the
    Z/d_i that p divides, then the free part) reduced mod p, in the Smith
    basis that :func:`abelianize` fixes.  An index p^{d_p} over max_index
    is refused first: trial division of a huge p would not end."""
    base = cover_base(P)
    ab = base.abelianization
    keep = [k for k, d in enumerate(ab.torsion) if p > 1 and d % p == 0]
    if p > 1:
        _check_index(p ** (len(keep) + ab.rank), max_index)
    if not is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    if not keep and not ab.rank:
        raise ValueError("d_%d is 0; no mod-%d cover" % (p, p))
    images = tuple(tuple(t[k] % p for k in keep) + tuple(x % p for x in img)
                   for t, img in zip(ab.torsion_images, ab.gen_images))
    return CoverMap._own(base.presentation,
                         DeckGroup((p,) * (len(keep) + ab.rank)), images)


def _free_abelian_assignment(ab, primes):
    """Generator images of the cover that reduces the i-th free coordinate
    of the abelianization ``ab`` mod primes[i]."""
    if ab.rank != len(primes):
        raise ValueError("need exactly one prime per free coordinate "
                         "(b1 = %d, got %d primes)" % (ab.rank, len(primes)))
    return tuple(tuple(img[i] % p for i, p in enumerate(primes))
                 for img in ab.gen_images)


def free_abelian_cover(P, primes, max_index=inf):
    """The cover below the universal free abelian cover determined by
    reducing the i-th free coordinate of H_1 mod primes[i], of index at
    most max_index, which is checked before the primes are."""
    base = cover_base(P)
    _check_index(prod(primes), max_index)
    return CoverMap._own(base.presentation, DeckGroup(tuple(primes)),
                         _free_abelian_assignment(base.abelianization,
                                                  primes))


class CoverBase:
    """A base P's work for the cover checks, done once: ``abelianization``
    now; the Tietze ``reduction``, the unit-reduced Fox ``block`` (B, live)
    and ``delta`` when read; ``fields``, the {m: field} its covers share."""

    def __init__(self, P):
        self.presentation, self.abelianization, self.fields = \
            P, abelianize(P), {}

    reduction = cached_property(
        lambda self: pres.tietze_reduce(self.presentation))
    delta = cached_property(lambda self: _relative_first_minors(
        self.presentation, self.abelianization))

    @cached_property
    def block(self):
        P, ab = self.presentation, self.abelianization
        B, live = unit_reduce(pres.fox_matrix(P, ab), P.num_generators,
                              ab.rank)
        return AlexanderMatrix.from_rows(B, ab.rank, len(live)), live


def cover_base(P, cm=None):
    """P as a :class:`CoverBase`; a cover map cm must be a map of it."""
    base = P if isinstance(P, CoverBase) else CoverBase(P)
    if cm is not None and cm.base != base.presentation:
        raise ValueError("the cover map is a map of another base")
    return base


def tietze_reduced(cm):
    """The cover map restricted to the Tietze reduction of its base
    (:func:`~alexinv.presentation.tietze_reduce`): the kept generators keep
    their images.  The group and its map onto the deck group do not change,
    so neither does the cover, its H_1 or its d_p; RS just rewrites fewer
    generators and relators.  With nothing eliminated, cm comes back."""
    return _restricted(cm, *pres.tietze_reduce(cm.base))


def _restricted(cm, Q, kept):
    """cm restricted to a Tietze reduction ``(Q, kept)`` of its base."""
    if Q is cm.base:
        return cm
    return CoverMap._own(Q, cm.deck, tuple(cm.assignment[g] for g in kept))


def reidemeister_schreier(cm, max_index=DEFAULT_MAX_INDEX):
    """The kernel of a cover map, from a coset table, as a lazy
    :class:`CoverPresentation`: this call only checks the index.

    Cosets are deck-group elements (the coset of a word is just its image),
    numbered breadth first from the identity, generators in index order;
    ``act[g][c]`` and ``back[g][c]`` are the cosets of c*g and c*g^-1, and
    ``schreier[c][g]`` numbers the Schreier generator of the edge (c, g),
    or is None on a tree edge.  So the transversal is prefix closed and
    deterministic, and |deck|*n - (|deck| - 1) generators and |deck|*m
    rewritten relators remain.  Each coset keeps only the (parent,
    generator) pair of its tree edge, so time and memory are linear in
    |deck|*(n + the relators' length).  The base is rewritten as given:
    the cover checks pass maps restricted to a Tietze-reduced base.

    ``Presentation``'s checks hold by construction and are skipped: names
    ``<base>_<coset>`` are valid and unique, as base names are and the
    suffix is an integer; relators are reduced, as two letters that cancel
    would be one Schreier edge out and back around a closed walk in the
    tree, which backtracks unless empty, so the base relator would cancel.
    """
    _check_index(cm.deck.order, max_index)
    return CoverPresentation(cm)


def _check_index(order, max_index):
    if order > max_index:
        raise CoverIndexError(order, max_index)


def cover_homology(cp):
    """H_1 of the covering space: rank and torsion from
    :func:`~alexinv.presentation.smith_invariants` of the exponent sums
    ``cp.exponent_rows()``, with no cover word built.  No Smith basis is
    fixed: ``gen_images`` and ``torsion_images`` are empty."""
    factors = smith_invariants(cp.exponent_rows())
    return AbelianizationData(cp.num_generators - len(factors),
                              tuple(d for d in factors if d > 1), ())


# ----------------------------------------------------------------------
# Character evaluation and the cover formulas.
# ----------------------------------------------------------------------

def char_rank(A, chi, deck, fields=None):
    """Exact rank of the matrix with t_i evaluated at rho_i^{e_i}.

    Arithmetic happens in Z[zeta_m], m the lcm of the character's orders:
    each entry is summed at the exponents of zeta_m and reduced once.
    Calls that pass one ``fields`` dict (order m -> field) share one
    :class:`CyclotomicField`, and its memos, per order.
    """
    if A.arity != len(deck.primes):
        raise ValueError("matrix arity %d does not match deck dimension %d"
                         % (A.arity, len(deck.primes)))
    if not A.rows:
        return 0
    exps = chi.exponents
    m = character_order(deck.primes, exps)
    fields = {} if fields is None else fields
    fld = fields[m] = fields.get(m) or CyclotomicField(m)
    at_chi = character_evaluation(deck.primes, exps, m)
    return bareiss_rank(A.evaluate(lambda f: fld.reduce(at_chi(f.terms))
                                   if f.terms else fld.zero), fld)


def hironaka_predicted_betti(P, cm):
    """Predicted first Betti number of the cover from character ranks.

    With P(t_1..t_r) the Fox matrix (R generator columns), each nontrivial
    deck character chi contributes the number of indices i in [1, R-1] with
    rank(P(chi)) < R - i; the prediction is b_1 of the base plus the total.
    P has integer entries, so a Galois automorphism of Q(zeta_m) maps P(chi)
    to P(chi^a) and keeps its rank: one rank per Galois orbit of characters,
    weighted by the orbit's size, gives the total.  Requires a cover below
    the universal free abelian cover, with one prime per free coordinate.
    The sparse Fox rows go to :func:`~alexinv.alexander.unit_reduce`, and
    ranks are taken on its block B, with k = R - len(live) units cleared,
    as rank P(chi) = k + rank B(chi): the cleared pivots +-t^I evaluate to
    roots of unity, so the row operations stay invertible and the pivot
    rows unit-triangular at every chi.  Only B is made dense.  The
    characters share one field per order, for every cover of one base.
    """
    base = cover_base(P, cm)
    ab = base.abelianization
    if cm.assignment != _free_abelian_assignment(ab, cm.deck.primes):
        raise ValueError("cover does not lie below the universal free "
                         "abelian cover in the Smith basis")
    B, live = base.block
    n = len(live) - 1
    if not B.rows:  # rank P(chi) = k at every character: no field needed
        return ab.rank + max(0, n) * (cm.deck.order - 1)
    total = sum(size * max(0, n - char_rank(B, chi, cm.deck, base.fields))
                for chi, size in cm.deck.character_orbits())
    return ab.rank + total


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one theorem check in the stable JSON schema."""

    theorem: str
    inputs: dict
    lhs: object
    rhs: object
    status: str

    @property
    def ok(self):
        return self.status in ("equal", "bound_holds", "consistent",
                               "hypothesis_violated", "skipped")

    def as_dict(self):
        return {"theorem": self.theorem, "inputs": dict(self.inputs),
                "lhs": self.lhs, "rhs": self.rhs, "status": self.status}


def verify_torsion_cover_formula(P, primes, max_index=DEFAULT_MAX_INDEX):
    """Compare |Tor H_1| of the cover (Reidemeister-Schreier on the
    Tietze-reduced base, plus Smith form) against the exact product of the
    order polynomial over the corresponding roots of unity -- two
    independent pipelines.

    A vanishing product means the theorem's hypothesis fails (the
    polynomial has a zero at such a root-of-unity tuple); that is reported
    as ``hypothesis_violated`` rather than a mismatch.
    """
    base, primes = cover_base(P), tuple(primes)
    if base.delta.poly.arity != len(primes):
        raise ValueError("need one prime per variable of the polynomial")
    cm = free_abelian_cover(base, primes, max_index)
    hom = cover_homology(reidemeister_schreier(
        _restricted(cm, *base.reduction), max_index))
    lhs = hom.torsion_order
    signed = root_of_unity_norm(base.delta.poly, primes)
    inputs = {"primes": list(primes), "delta": str(base.delta),
              "cover_b1": hom.rank}
    if signed == 0:
        return VerifyReport("torsion-cover", inputs, lhs, 0,
                            "hypothesis_violated")
    rhs = abs(signed)
    return VerifyReport("torsion-cover", inputs, lhs, rhs,
                        "equal" if lhs == rhs else "not_equal")


def shalen_wagreich_check(P, p, max_index=DEFAULT_MAX_INDEX):
    """d_p of the canonical mod-p cover, from RS on the Tietze-reduced
    base, must be at least binom(r, 2) where r = d_p of the base, the
    length of each generator image of that cover."""
    base = cover_base(P)
    ab, cm = base.abelianization, mod_p_cover(base, p, max_index)
    r = len(cm.deck.primes)
    d_cover = mod_p_betti(reidemeister_schreier(
        _restricted(cm, *base.reduction), max_index), p)
    bound = comb(r, 2)
    inputs = {"p": p, "r": r, "cover_index": cm.deck.order,
              # when p divides |Tor H_1|, d_p exceeds b_1 and the Betti
              # bound chain of the rank-4 argument does not apply
              "p_coprime_to_torsion": ab.torsion_order % p != 0,
              "d_p_equals_b1": r == ab.rank}
    status = "bound_holds" if d_cover >= bound else "bound_violated"
    return VerifyReport("shalen-wagreich", inputs, d_cover, bound, status)


def b1_ge_4_consistency(P):
    """No-counterexample check: a presentation with b_1 >= 4 must not have
    order polynomial 1."""
    ab = abelianize(P)
    if ab.rank < 4:
        raise ValueError("b1 = %d < 4" % ab.rank)
    delta = _relative_first_minors(P, ab)
    return VerifyReport("b1-ge-4", {"b1": ab.rank, "delta": str(delta)},
                        str(delta), "1", "counterexample"
                        if delta.poly.is_one() else "consistent")
