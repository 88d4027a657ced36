"""Property test: the Smith form against the minors-gcd characterization.

For an integer matrix with invariant factors d_1 | d_2 | ... (zeros last),
the product d_1 ... d_j equals the gcd of the j x j minors.  The
determinant is written out here by the Leibniz formula, so the oracle
shares no code with the eliminations it checks.
"""

from itertools import combinations, permutations
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.presentation import smith_invariants, smith_normal_form


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def minors_gcd(A, j):
    g = 0
    for rows in combinations(range(len(A)), j):
        for cols in combinations(range(len(A[0])), j):
            g = gcd(g, leibniz_det([[A[r][c] for c in cols] for r in rows]))
    return g


@st.composite
def matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_factor_products_are_minors_gcds(A):
    size = min(len(A), len(A[0]) if A else 0)
    sparse = smith_invariants(A)
    assert len(sparse) <= size
    for diagonal in (smith_normal_form(A).diagonal,
                     sparse + (0,) * (size - len(sparse))):
        assert len(diagonal) == size
        for j in range(1, size + 1):
            assert prod(diagonal[:j]) == minors_gcd(A, j)
