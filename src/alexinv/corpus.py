"""Built-in presentations used by every verification suite.

Each entry is a presentation of the fundamental group of a closed
orientable 3-manifold together with the invariant values expected for it.
Expected values carry a provenance tag: "classical" for values stated in
the literature, "derived" for values computed here by an independent route
(characteristic polynomial, Smith invariants) that does not touch Fox calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .laurent import LaurentPoly, normalize
from .presentation import Presentation, parse_presentation, smith_invariants


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    presentation: Presentation
    expected: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def describe(self):
        return {"name": self.name,
                "presentation": str(self.presentation),
                "expected": dict(self.expected),
                "provenance": dict(self.provenance)}


def s1_x_s2():
    """S^1 x S^2: the free group on one generator; order polynomial 1."""
    return CorpusEntry(
        "s1xs2", parse_presentation("<x | >"),
        expected={"b1": 1, "torsion": (), "delta": "1"},
        provenance={"b1": "classical", "torsion": "classical",
                    "delta": "classical"})


def heisenberg():
    """The Heisenberg manifold: integral Heisenberg group, b1 = 2."""
    return CorpusEntry(
        "heisenberg", parse_presentation("<x, y, z | Z*[x,y], [x,z], [y,z]>"),
        expected={"b1": 2, "torsion": (), "delta": "1"},
        provenance={"b1": "classical", "torsion": "derived",
                    "delta": "classical"})


def three_torus():
    """The 3-torus: Z^3, b1 = 3."""
    return CorpusEntry(
        "t3", parse_presentation("<x, y, z | [x,y], [x,z], [y,z]>"),
        expected={"b1": 3, "torsion": (), "delta": "1"},
        provenance={"b1": "classical", "torsion": "classical",
                    "delta": "classical"})


def _poly_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def char_poly_coeffs(A):
    """Coefficients (low to high) of det(A - t*I), by Leibniz expansion;
    an independent determinant route kept clear of the Fox pipeline."""
    n = len(A)
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = [1]
        for i in range(n):
            entry = [A[i][perm[i]]]
            if perm[i] == i:
                entry.append(-1)
            prod = _poly_convolve(prod, entry)
        sign = -1 if inversions % 2 else 1
        for k, c in enumerate(prod):
            total[k] += sign * c
    return total


def mapping_torus(A, name=None):
    """Mapping torus of the n-torus with monodromy the unimodular matrix A.

    Generators x1..xn (the fiber) and h (the circle direction); relators
    make the fiber abelian and conjugation by h act as A (generator xi maps
    to the word of column i).  Expected invariants come from A - I (Smith
    invariants) and det(A - t*I), both computed without Fox calculus.
    """
    n = len(A)
    for row in A:
        if len(row) != n:
            raise ValueError("monodromy matrix must be square")
    coeffs = char_poly_coeffs(A)
    if abs(coeffs[0]) != 1:  # det(A - t*I) at t = 0 is det(A)
        raise ValueError("monodromy must be unimodular (|det A| = 1)")

    fiber = ["x%d" % (i + 1) for i in range(n)]
    gens = fiber + ["h"]
    parts = []
    for i in range(n):
        for j in range(i + 1, n):
            parts.append("[%s,%s]" % (fiber[i], fiber[j]))
    for i in range(n):
        image = "*".join("%s^%d" % (fiber[j], A[j][i]) for j in range(n)
                         if A[j][i]) or "1"
        parts.append("h*%s*H*(%s)^-1" % (fiber[i], image))
    P = parse_presentation("<%s | %s>" % (", ".join(gens), ", ".join(parts)))

    AminusI = [[A[i][j] - (i == j) for j in range(n)] for i in range(n)]
    factors = smith_invariants(AminusI)
    b1 = 1 + n - len(factors)
    expected = {"b1": b1, "torsion": tuple(d for d in factors if d > 1)}
    provenance = {"b1": "derived", "torsion": "derived"}
    if b1 == 1:
        expected["delta"] = str(normalize(
            LaurentPoly(1, {(k,): c for k, c in enumerate(coeffs)})))
        provenance["delta"] = "derived"
    return CorpusEntry(name or "mapping-torus", P, expected, provenance)


def connected_sum_s1s2(k, name=None):
    """Connected sum of k copies of S^1 x S^2: the free group of rank k.

    For k >= 2 there are no (k-1) x (k-1) minors at all, so the order
    polynomial is 0 (in particular never 1, the b1 >= 4 consistency case).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gens = ", ".join("x%d" % (i + 1) for i in range(k))
    return CorpusEntry(
        name or "connected-sum-%d" % k,
        parse_presentation("<%s | >" % gens),
        expected={"b1": k, "torsion": (), "delta": "1" if k == 1 else "0"},
        provenance={"b1": "classical", "torsion": "classical",
                    "delta": "derived"})


_BUILDERS = {
    "s1xs2": s1_x_s2,
    "heisenberg": heisenberg,
    "t3": three_torus,
    "mapping-torus-A": lambda: mapping_torus([[3, 2], [1, 1]],
                                             name="mapping-torus-A"),
    "mapping-torus-fib": lambda: mapping_torus([[2, 1], [1, 1]],
                                               name="mapping-torus-fib"),
    "connected-sum-2": lambda: connected_sum_s1s2(2),
    "connected-sum-4": lambda: connected_sum_s1s2(4),
    "connected-sum-5": lambda: connected_sum_s1s2(5),
}


def names():
    return list(_BUILDERS)


def get(name):
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError("unknown corpus entry %r (try: %s)"
                       % (name, ", ".join(names()))) from None


def entries():
    return [get(n) for n in names()]
