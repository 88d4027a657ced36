"""Alexander matrices, order polynomials, and invariant reports.

Two conventions are exposed and never silently identified:

* ``RelativeFirstMinors``: the polynomial of a group presentation, the GCD
  of the (n-1) x (n-1) minors of the Fox matrix (n = generator count).
* ``OrderZeroDirect``: the zeroth order of a module given directly by a
  presentation matrix, the GCD of the n x n minors (n = column count).

Both are returned normalized, since they are only defined up to units.

``RelativeFirstMinors`` takes the minors that delete one column only.  With
a_j the image of generator x_j in Z^b1 and v_j = t^(a_j) - 1, Fox's
fundamental formula sum_j (dr/dx_j)(x_j - 1) = r - 1 makes M v = 0 for the
Fox matrix M.  Row operations keep this, and after :func:`unit_reduce` each
cleared column is zero in the rows left, so the block B (s + 1 columns)
has B v_B = 0.  The pivot rows are unit triangular on the cleared columns,
so they put each cleared v_j in the ideal of the v_B; hence v_B != 0 when
b1 >= 1, and g = gcd_j(v_j) is the same over B's columns as over all.  For
each s-row set S the kernel relation gives D_(S,j) v_k = +-D_(S,k) v_j for
the minors D deleting column j or k, so Delta = gcd_S(D_(S,k)) * g / v_k
(Fox, "Free differential calculus I", Ann. of Math. 1953).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, prod

from . import presentation as pres
from .laurent import (LaurentPoly, Symmetry, _dict_quotient, classify_symmetry,
                      divide_exact, gcd_list, involution, normalize, trace)


@dataclass(frozen=True)
class AlexanderMatrix:
    """A matrix over the Laurent ring; rows index relators, columns
    generators.  May have zero rows (free groups) but ``ncols`` and
    ``arity`` are always meaningful."""

    rows: tuple
    ncols: int
    arity: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.arity != self.arity:
                    raise ValueError("entry arity %d != matrix arity %d"
                                     % (entry.arity, self.arity))

    @classmethod
    def from_rows(cls, rows, arity, ncols=None):
        rows = tuple(tuple(row) for row in rows)
        if ncols is None:
            if not rows:
                raise ValueError("need ncols for an empty matrix")
            ncols = len(rows[0])
        return cls(rows, ncols, arity)

    @classmethod
    def diagonal(cls, entries, arity):
        n = len(entries)
        zero = LaurentPoly.zero(arity)
        rows = tuple(tuple(entries[i] if i == j else zero for j in range(n))
                     for i in range(n))
        return cls(rows, n, arity)

    @property
    def nrows(self):
        return len(self.rows)

    def evaluate(self, value_of_exponent):
        """Map every entry through a function on exponent vectors; used by
        the character-evaluation code in :mod:`alexinv.covers`."""
        return [[value_of_exponent(entry) for entry in row]
                for row in self.rows]


def det(rows, arity):
    """Exact determinant by fraction-free Bareiss elimination over the
    Laurent ring; the empty 0 x 0 determinant is 1.

    Step k replaces each entry below and right of the pivot p_k by the 2 x 2
    minor with the pivot, divided exactly by p_(k-1) (Sylvester's identity).
    The pivot is the entry of column k with fewest terms, a row swap away;
    with none, the determinant is 0.  A row whose column-k entry is 0 would
    only be rescaled by p_k / p_(k-1), and these factors telescope (Bareiss,
    Math. Comp. 22, 1968): a row is brought up from its step s to step k, by
    p_(k-1) / p_(s-1) with p_(-1) = 1, only when read as a pivot candidate.
    A zero row or column gives 0 before any row is copied.  Unit entries
    get no special case: the order polynomials take their minors of the
    block left after :func:`unit_reduce` has cleared them."""
    if not all(map(any, rows)) or not all(map(any, zip(*rows))):
        return LaurentPoly.zero(arity)
    M = [list(row) for row in rows]
    n = len(M)
    prev = [LaurentPoly.one(arity)]  # prev[k] = p_(k-1)
    at = [0] * n  # the step whose entries row i holds
    negate = False
    for k in range(n):
        candidates = [i for i in range(k, n) if M[i][k]]
        if not candidates:
            return LaurentPoly.zero(arity)
        for i in candidates:  # bring row i up from step at[i] to k
            row, s = M[i], at[i]
            for j in range(k, n) if s < k else ():
                if row[j] and s:
                    row[j] = divide_exact(prev[k] * row[j], prev[s])
                elif row[j]:
                    row[j] = prev[k] * row[j]
            at[i] = k
        p = min(candidates, key=lambda i: len(M[i][k].terms))
        if p != k:
            M[k], M[p], at[k], at[p] = M[p], M[k], at[p], at[k]
            negate = not negate
        pivot = M[k][k]
        for i in range(k + 1, n):
            row, lead = M[i], M[i][k]
            if not lead:
                continue
            for j in range(k + 1, n):
                if M[k][j]:
                    entry = pivot * row[j] - lead * M[k][j]
                elif row[j]:
                    entry = pivot * row[j]
                else:
                    continue
                row[j] = divide_exact(entry, prev[k]) if k else entry
            at[i] = k + 1
        prev.append(pivot)
    return -prev[-1] if negate else prev[-1]


# Most minors elementary_minors enumerates.  With unit entries cleared
# first, no corpus, test or benchmark matrix comes within a factor of five
# of it.
MAX_MINORS = 10**5


class MinorBudgetError(RuntimeError):
    """Enumerating the minors would exceed ``MAX_MINORS``."""

    def __init__(self, count, size):
        super().__init__("%d minors of size %d exceed the limit %d"
                         % (count, size, MAX_MINORS))


def elementary_minors(A, size):
    """All size x size minors of A.  The 0 x 0 minor is 1; if size exceeds
    the row or column count the list is empty (generating the zero ideal).
    Raises MinorBudgetError, before computing any, when there are more than
    MAX_MINORS of them."""
    if size < 0:
        raise ValueError("minor size must be >= 0")
    if size == 0:
        return [LaurentPoly.one(A.arity)]
    if size > A.nrows or size > A.ncols:
        return []
    count = comb(A.nrows, size) * comb(A.ncols, size)
    if count > MAX_MINORS:
        raise MinorBudgetError(count, size)
    out = []
    for rws in combinations(range(A.nrows), size):
        picked = [A.rows[i] for i in rws]
        for cls_ in combinations(range(A.ncols), size):
            out.append(det([[row[j] for j in cls_] for row in picked], A.arity))
    return out


@dataclass(frozen=True)
class AlexanderPolynomial:
    """An order polynomial, normalized by its maker (:func:`_order`),
    together with the convention that produced it."""

    poly: LaurentPoly
    convention: str

    def __str__(self):
        return str(self.poly)


def unit_reduce(rows, ncols, arity):
    """Clear the unit entries +-t^I of a matrix with ``ncols`` columns over
    the Laurent ring in ``arity`` variables; returns the block B left, as
    dense rows over the columns it keeps, and those live columns in order.

    A row is a sequence of entries or a dict {column: entry}, as the Fox
    rows of :func:`~alexinv.presentation.fox_matrix` are.
    :func:`~alexinv.presentation._eliminate_units` clears the column of each
    unit u with multiples of its row scaled by u^-1 and drops its row and
    column; B keeps no zero row.  Row operations keep every ideal of minors,
    and the s-minors of diag(u, B) generate the ideal of the (s-1)-minors of
    B, so with k = ncols - len(live) units cleared, for s >= k the s-minors
    of the matrix and the (s-k)-minors of B generate the same ideal (Fitting
    ideals under a change of presentation).
    """
    pivots, rest = pres._eliminate_units(rows, LaurentPoly.is_unit,
                                         lambda u: u ** -1)
    live = sorted(set(range(ncols)).difference(pivots))
    zero = LaurentPoly.zero(arity)
    return [[row.get(j, zero) for j in live] for row in rest], live


def _binomial_gcd(vectors):
    """w with gcd_j(t^(a_j) - 1) = t^w - 1 up to a unit, over the nonzero
    vectors a_j, or None when that GCD is 1.  For primitive u, t^(m u) - 1
    is the product of the primes Phi_d(t^u), d | m, and primes of distinct
    directions +-u differ: so w = c u when every a_j is m_j u, c = gcd(m_j)."""
    nonzero = [a for a in vectors if any(a)]
    u = [x // gcd(*nonzero[0]) for x in nonzero[0]]
    i = next(i for i, x in enumerate(u) if x)
    m = [a[i] // u[i] for a in nonzero]
    if any([c * x for x in u] != list(a) for c, a in zip(m, nonzero)):
        return None
    return tuple(gcd(*m) * x for x in u)


def _order(rows, ncols, arity, images=None):
    """Normalized GCD of the ncols-minors (``OrderZeroDirect``) or, given
    the generator images of Fox rows, of the (ncols-1)-minors
    (``RelativeFirstMinors``) of a matrix with rows as for
    :func:`unit_reduce`, taken of its block B; zero when none exist.

    Given the images, only the minors deleting the column k of B with
    a_k != 0 and the most terms are taken, and their GCD is divided by
    v_k / g (see the module docstring; with one live column, Delta is 1).
    B becomes an :class:`AlexanderMatrix` once, without column k.  The GCD
    is divided by q normalized; both quotient and divisor come normalized,
    since minimum exponents add and lex-leading terms multiply."""
    B, live = unit_reduce(rows, ncols, arity)
    fox = images is not None
    if fox:
        k = max((j for j, c in enumerate(live) if any(images[c])),
                key=lambda j: (sum(len(row[j].terms) for row in B), -j))
        B = [row[:k] + row[k + 1:] for row in B]
    size = len(live) - fox
    delta = gcd_list(elementary_minors(
        AlexanderMatrix.from_rows(B, arity, size), size), arity)
    if fox and delta:
        a, w = images[live[k]], _binomial_gcd(images)
        if w is None:  # q = v_k
            q = {a: 1, (0,) * arity: -1}
        else:  # q = v_k / (t^w - 1) up to a unit, |m| terms for a_k = m w
            i = next(i for i, x in enumerate(w) if x)
            q = {tuple(e * x for x in w): 1 for e in range(abs(a[i] // w[i]))}
        if len(q) > 1:
            quot = _dict_quotient(delta.terms,
                                  normalize(LaurentPoly._own(arity, q)).terms)
            if quot is None:
                raise ArithmeticError("v_k / g does not divide the GCD")
            delta = LaurentPoly._own(arity, quot)
    return AlexanderPolynomial(delta, "RelativeFirstMinors" if fox
                               else "OrderZeroDirect")


def alexander_polynomial(P):
    """GCD of the (n-1) x (n-1) minors of the Fox matrix, normalized.  Zero
    when no minors of that size exist (e.g. free groups on >= 2
    generators); requires b_1 >= 1."""
    return _relative_first_minors(P, pres.abelianize(P))


def _relative_first_minors(P, ab):
    return _order(pres.fox_matrix(P, ab), P.num_generators, ab.rank,
                  ab.gen_images)


def order_zero_direct(A):
    """Zeroth order of a module presented directly by the matrix A: the GCD
    of its n x n minors, n = column count.  Rows are implicitly padded with
    zeros when there are fewer rows than columns, which makes every minor
    vanish; the empty 0 x 0 matrix yields 1."""
    return _order(A.rows, A.ncols, A.arity)


# ----------------------------------------------------------------------
# The multiplication construction: diag(P, lambda) multiplies the order
# polynomial by lambda, provided lambda is symmetric with nonzero trace.
# ----------------------------------------------------------------------

class LevineHypothesisError(ValueError):
    """The multiplier polynomial fails a hypothesis; ``failed`` lists which."""

    def __init__(self, failed):
        super().__init__("multiplier rejected: %s" % ", ".join(failed))
        self.failed = tuple(failed)


@dataclass(frozen=True)
class LevineHypotheses:
    is_symmetric: bool
    trace_nonzero: bool
    trace: int

    @property
    def ok(self):
        return self.is_symmetric and self.trace_nonzero


def check_levine_hypotheses(lam):
    """Check the two hypotheses on a multiplier: symmetric (not merely unit
    symmetric) and nonzero trace."""
    tr = trace(lam)
    symmetric = (not lam.is_zero()) and involution(lam) == lam
    return LevineHypotheses(symmetric, tr != 0, tr)


def levine_extend(A, lam):
    """Block-diagonal extension diag(A, lam) of a presentation matrix.

    Requires lam symmetric with nonzero trace; the zeroth order of the
    result is normalize(lam * order) exactly.
    """
    if lam.arity != A.arity:
        raise ValueError("arity mismatch")
    hyp = check_levine_hypotheses(lam)
    if not hyp.ok:
        failed = []
        if not hyp.is_symmetric:
            failed.append("not symmetric")
        if not hyp.trace_nonzero:
            failed.append("trace is zero")
        raise LevineHypothesisError(failed)
    zero = LaurentPoly.zero(A.arity)
    rows = [tuple(row) + (zero,) for row in A.rows]
    rows.append((zero,) * A.ncols + (lam,))
    return AlexanderMatrix(tuple(rows), A.ncols + 1, A.arity)


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of the one-variable realizability test, with a constructive
    witness matrix when the answer is yes."""

    realizable: bool
    unit_symmetric: bool
    trace_nonzero: bool
    trace: int
    witness: AlexanderMatrix | None = None
    witness_delta: AlexanderPolynomial | None = None


def characterize_b1_one(lam):
    """Decide whether a one-variable polynomial arises as the order
    polynomial of some closed orientable 3-manifold with first Betti
    number 1: it must be unit symmetric with nonzero trace.

    On success the verdict carries diag(1, u*lam) with u the symmetrizing
    unit; its zeroth order equals normalize(lam), a checkable certificate.
    """
    if lam.arity != 1:
        raise ValueError("expected a one-variable polynomial")
    tr = trace(lam)
    if lam.is_zero():
        return RealizabilityVerdict(False, False, False, 0)
    cls = classify_symmetry(lam)
    unit_sym = cls.kind in (Symmetry.SYMMETRIC, Symmetry.UNIT_SYMMETRIC)
    if not (unit_sym and tr != 0):
        return RealizabilityVerdict(False, unit_sym, tr != 0, tr)
    symmetrized = cls.witness.as_poly(lam.arity) * lam
    seed = AlexanderMatrix.diagonal([LaurentPoly.one(1)], 1)
    witness = levine_extend(seed, symmetrized)
    return RealizabilityVerdict(True, True, True, tr,
                                witness, order_zero_direct(witness))


def check_blanchfield(delta):
    """True iff the polynomial is at least mod unit symmetric, the symmetry
    every order polynomial of a closed orientable 3-manifold satisfies."""
    cls = classify_symmetry(delta.poly)  # a ValueError on the zero polynomial
    return cls.kind.at_least(Symmetry.MOD_UNIT_SYMMETRIC)


def torsion_order_b1_one(delta):
    """|value at 1|: for one-variable order polynomials this is the order
    of the torsion subgroup of H_1 (0 would mean infinite, i.e. the trace
    hypothesis fails)."""
    if delta.poly.arity != 1:
        raise ValueError("expected a one-variable polynomial")
    return abs(trace(delta.poly))


# ----------------------------------------------------------------------
# Bundled report.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    b1: int
    torsion: tuple
    delta: AlexanderPolynomial
    symmetry: object  # SymmetryClass, or None when delta == 0
    trace: int | None
    checks: dict

    @property
    def torsion_order(self):
        return prod(self.torsion)

    def as_dict(self):
        return {
            "b1": self.b1,
            "torsion": list(self.torsion),
            "delta": str(self.delta),
            "convention": self.delta.convention,
            "symmetry": None if self.symmetry is None
                        else self.symmetry.kind.value,
            "trace": self.trace,
            "checks": dict(self.checks),
        }


def full_report(P):
    """Compute b_1, torsion, the order polynomial and its symmetry class,
    plus coherence checks (for b_1 = 1, |delta(1)| must equal the torsion
    order of H_1; the symmetry must be at least mod unit symmetric)."""
    ab = pres.abelianize(P)
    if ab.rank < 1:
        raise ValueError("free rank is 0; no Alexander invariants")
    delta = _relative_first_minors(P, ab)
    checks = {}
    if delta.poly.is_zero():
        symmetry = None
        tr = None
        checks["delta_is_zero"] = True
    else:
        symmetry = classify_symmetry(delta.poly)
        tr = trace(delta.poly)
        checks["mod_unit_symmetric"] = \
            symmetry.kind.at_least(Symmetry.MOD_UNIT_SYMMETRIC)
        if ab.rank == 1:
            checks["trace_matches_torsion_order"] = \
                abs(tr) == ab.torsion_order
    return InvariantReport(ab.rank, ab.torsion, delta, symmetry, tr, checks)
