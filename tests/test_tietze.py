"""Property test: the order polynomial is an invariant of the group, so
Tietze moves on a presentation leave it unchanged.

A move may change the Smith basis of the free part of H_1, so the two
polynomials are compared after rewriting the first in the second's
coordinates, read off from the images of the shared generators.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alexinv.alexander import alexander_polynomial
from alexinv.laurent import LaurentPoly, normalize
from alexinv.presentation import Presentation, abelianize, inverse_word


def basis_change(ab1, ab2, n):
    """Column k is the image, in the coordinates of ab2, of basis vector k
    of ab1; found by Gauss-Jordan on rows [img1(g) | img2(g)] over the
    shared generators g < n, which generate both groups."""
    r = ab1.rank
    rows = [[Fraction(x) for x in ab1.gen_images[g] + ab2.gen_images[g]]
            for g in range(n)]
    for c in range(r):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    assert not any(x for row in rows[r:] for x in row)
    columns = [row[r:] for row in rows[:r]]
    assert all(x.denominator == 1 for col in columns for x in col)
    return [[int(x) for x in col] for col in columns]


def rewrite(f, columns):
    """f with each exponent vector e replaced by sum_k e_k * column k."""
    terms = {}
    for e, coeff in f.terms.items():
        image = tuple(sum(ek * col[i] for ek, col in zip(e, columns))
                      for i in range(len(columns)))
        terms[image] = terms.get(image, 0) + coeff
    return LaurentPoly(f.arity, terms)


@st.composite
def presentations(draw):
    # n - 1 or n relators: with fewer, every (n-1)-minor vanishes
    n = draw(st.integers(2, 3))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=8).map(tuple),
                             min_size=n - 1, max_size=n))
    return Presentation(tuple("g%d" % i for i in range(n)), relators)


def words(n):
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=5).map(tuple)


@st.composite
def tietze_moves(draw):
    """A presentation and one Tietze move applied to it."""
    P = draw(presentations())
    n = P.num_generators
    rels = list(P.relators)
    kind = draw(st.sampled_from(
        ("new generator", "conjugate", "invert") if rels
        else ("new generator",)))
    if kind == "new generator":
        # y = w: generator n with relator y * w^-1
        w = draw(words(n))
        Q = Presentation(P.generator_names + ("y",),
                         rels + [((n, 1),) + inverse_word(w)])
    else:
        i = draw(st.integers(0, len(rels) - 1))
        if kind == "conjugate":
            c = draw(words(n))
            rels[i] = c + rels[i] + inverse_word(c)
        else:
            rels[i] = inverse_word(rels[i])
        Q = Presentation(P.generator_names, rels)
    return P, Q


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tietze_moves())
def test_order_polynomial_invariant_under_tietze_moves(pair):
    P, Q = pair
    ab1, ab2 = abelianize(P), abelianize(Q)
    assume(ab1.rank >= 1)
    assert ab2.rank == ab1.rank and ab2.torsion == ab1.torsion
    columns = basis_change(ab1, ab2, P.num_generators)
    before = rewrite(alexander_polynomial(P).poly, columns)
    assert normalize(before) == alexander_polynomial(Q).poly
