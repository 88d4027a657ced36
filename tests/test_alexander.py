import random
import time
from collections import Counter
from itertools import combinations

import pytest

import alexinv.alexander
import alexinv.laurent
import alexinv.presentation
from alexinv import corpus
from alexinv.alexander import (AlexanderMatrix, LevineHypothesisError,
                               MinorBudgetError, alexander_polynomial,
                               characterize_b1_one, check_blanchfield,
                               check_levine_hypotheses, det,
                               elementary_minors, full_report,
                               levine_extend, order_zero_direct,
                               torsion_order_b1_one, unit_reduce)
from alexinv.laurent import LaurentPoly, gcd_list, normalize, parse_poly
from alexinv.presentation import (Presentation, abelianize, fox_matrix,
                                  inverse_word, parse_presentation)
from alexinv.verify import (random_matrix, random_poly,
                            random_symmetric_nonzero_trace,
                            random_unit_symmetric_nonzero_trace)
from conftest import (cofactor_det, dense_fox_matrix,
                      palindrome_unit_symmetric, rescan_unit_reduce)

t = LaurentPoly.variable(0, 1)


def poly2(text):
    return parse_poly(text, 2)


class TestMinors:
    def test_1x1(self):
        A = AlexanderMatrix.from_rows([[poly2("1 - t2"), poly2("t1 - 1")]], 2)
        assert set(elementary_minors(A, 1)) == \
            {poly2("1 - t2"), poly2("t1 - 1")}

    def test_0x0_convention(self):
        A = AlexanderMatrix.from_rows([[poly2("t1")]], 2)
        assert elementary_minors(A, 0) == [LaurentPoly.one(2)]

    def test_oversized_is_empty(self):
        A = AlexanderMatrix.from_rows([[poly2("1"), poly2("t1")]], 2)
        assert elementary_minors(A, 3) == []

    def test_det_block(self):
        zero = LaurentPoly.zero(1)
        rows = [[t - 1, zero], [zero, t + 1]]
        assert det(rows, 1) == t ** 2 - 1

    def test_det_matches_cofactor_expansion(self):
        rng = random.Random(41)
        zero_pivots = singular = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            arity = rng.randint(1, 2)
            rows = [list(r) for r in random_matrix(rng, n, n, arity).rows]
            i, j = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.3:
                rows[0][0] = LaurentPoly.zero(arity)
            elif rng.random() < 0.3 and i != j:
                unit = LaurentPoly.variable(0, arity) ** rng.choice((-1, 1))
                rows[i] = [unit * e for e in rows[j]]
            want = cofactor_det(rows, arity)
            zero_pivots += rows[0][0].is_zero()
            singular += want.is_zero()
            assert det(rows, arity) == want
        assert zero_pivots >= 20 and singular >= 10
        # rows with one nonzero entry, and block-diagonal matrices with
        # their rows and columns shuffled
        singleton = block = 0
        for _ in range(100):
            n = rng.randint(2, 5)
            arity = rng.randint(1, 2)
            zero = LaurentPoly.zero(arity)
            if rng.random() < 0.5:
                rows = [list(r) for r in random_matrix(rng, n, n, arity).rows]
                for i in rng.sample(range(n), rng.randint(1, n - 1)):
                    j = rng.randrange(n)
                    entry = LaurentPoly.monomial(
                        rng.choice((1, -1)),
                        [rng.randint(-2, 2) for _ in range(arity)]) \
                        if rng.random() < 0.5 \
                        else random_poly(rng, arity, nonzero=True)
                    rows[i] = [entry if c == j else zero for c in range(n)]
                singleton += 1
                want = cofactor_det(rows, arity)
            else:
                a = rng.randint(1, n - 1)
                top = random_matrix(rng, a, a, arity).rows
                bottom = random_matrix(rng, n - a, n - a, arity).rows
                rows = [list(r) + [zero] * (n - a) for r in top] \
                    + [[zero] * a + list(r) for r in bottom]
                want = cofactor_det(top, arity) * cofactor_det(bottom, arity)
                rperm, cperm = rng.sample(range(n), n), rng.sample(range(n), n)
                rows = [[rows[i][j] for j in cperm] for i in rperm]
                if permutation_sign(rperm) != permutation_sign(cperm):
                    want = -want
                assert cofactor_det(rows, arity) == want
                block += 1
            assert det(rows, arity) == want
        assert singleton >= 40 and block >= 40

    def test_det_with_rows_left_stale(self):
        """Rows whose pivot-column entry stays 0 for several steps, which
        det brings up to date only when it reads them: block-triangular
        matrices with a nonzero off-diagonal block, and Levine chains
        diag(P, lambda_1, ..., lambda_k), with and without shuffled rows
        and columns."""
        rng = random.Random(47)
        seen = Counter()
        for case in range(160):
            arity = rng.randint(1, 3)
            zero = LaurentPoly.zero(arity)
            if case % 2:
                a, b = rng.randint(2, 3), rng.randint(1, 3)
                A, B, X = (random_matrix(rng, r, c, arity).rows
                           for r, c in ((a, a), (b, b), (a, b)))
                if case % 4 == 1:  # [[A, X], [0, B]]
                    rows = [list(r) + list(x) for r, x in zip(A, X)] \
                        + [[zero] * a + list(r) for r in B]
                else:  # [[A, 0], [X^T, B]]
                    rows = [list(r) + [zero] * b for r in A] \
                        + [list(x) + list(r) for x, r in zip(zip(*X), B)]
                want = cofactor_det(A, arity) * cofactor_det(B, arity)
                seen["upper" if case % 4 == 1 else "lower"] += 1
            else:
                m, k = rng.randint(1, 3), rng.randint(3, 6)
                P = random_matrix(rng, m, m, arity)
                lams = [random_symmetric_nonzero_trace(rng, arity, 2)
                        for _ in range(k)]
                rows = [list(r) for r in P.rows]
                want = cofactor_det(rows, arity)
                for lam in lams:
                    P = levine_extend(P, lam)
                    want = want * lam
                rows = [list(r) for r in P.rows]
                seen["chain"] += 1
            n = len(rows)
            if rng.random() < 0.5:
                rperm, cperm = rng.sample(range(n), n), rng.sample(range(n), n)
                rows = [[rows[i][j] for j in cperm] for i in rperm]
                if permutation_sign(rperm) != permutation_sign(cperm):
                    want = -want
                seen["shuffled"] += 1
            seen["singular"] += want.is_zero()
            assert det(rows, arity) == want
        assert seen["singular"] >= 3 and seen["shuffled"] >= 40, seen
        assert min(seen[kind] for kind in ("upper", "lower", "chain")) >= 40

    def test_det_reads_each_extension_once(self, monkeypatch):
        """On diag(P, lambda_1, ..., lambda_k) a lambda row is read once,
        as a pivot candidate, and brought up to date by one product with
        no division: the Laurent products and exact divisions det makes
        grow by exactly 1 and 0 per extension, where rescaling every row
        at every step made them grow quadratically."""
        calls = Counter()
        real_mul = LaurentPoly.__mul__
        real_divide = alexinv.alexander.divide_exact

        def counting_mul(f, g):
            calls["mul"] += 1
            return real_mul(f, g)

        def counting_divide(f, g):
            calls["divide"] += 1
            return real_divide(f, g)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        monkeypatch.setattr(alexinv.alexander, "divide_exact", counting_divide)
        for arity in (1, 2, 3):
            rng = random.Random(arity)
            P = random_matrix(rng, 3, 3, arity)
            lams = [random_symmetric_nonzero_trace(rng, arity)
                    for _ in range(8)]
            counts = []
            for k in range(1, 9):
                A = P
                for lam in lams[:k]:
                    A = levine_extend(A, lam)
                calls.clear()
                det([list(r) for r in A.rows], arity)
                counts.append((calls["mul"], calls["divide"]))
            assert [(b[0] - a[0], b[1] - a[1])
                    for a, b in zip(counts, counts[1:])] == [(1, 0)] * 7

    def test_det_zero_row_or_column_skips_elimination(self, monkeypatch):
        def refuse(f, g):
            raise AssertionError("divide_exact called on a singular matrix")

        monkeypatch.setattr(alexinv.alexander, "divide_exact", refuse)
        monkeypatch.setattr(alexinv.laurent, "divide_exact", refuse)
        rng = random.Random(43)
        for case in range(60):
            n = rng.randint(2, 5)
            arity = rng.randint(1, 2)
            rows = [list(r) for r in random_matrix(rng, n, n, arity).rows]
            zero = LaurentPoly.zero(arity)
            k = rng.randrange(n)
            if case % 2:
                rows[k] = [zero] * n
            else:
                for row in rows:
                    row[k] = zero
            assert det(rows, arity).is_zero()
            assert cofactor_det(rows, arity).is_zero()

    def test_det_swaps_rows_on_zero_pivot(self):
        zero, one = LaurentPoly.zero(1), LaurentPoly.one(1)
        assert det([[zero, one], [t, zero]], 1) == -t
        assert det([[zero, t], [zero, one]], 1).is_zero()

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(alexinv.alexander, "MAX_MINORS", 4)
        one = LaurentPoly.one(1)
        assert len(elementary_minors(
            AlexanderMatrix.from_rows([[one, one]] * 2, 1), 1)) == 4
        with pytest.raises(MinorBudgetError, match="6 minors of size 1"):
            elementary_minors(AlexanderMatrix.from_rows([[one, one]] * 3, 1),
                              1)
        # the empty minor and oversized sizes enumerate nothing
        big = AlexanderMatrix.from_rows([[one] * 9] * 9, 1)
        assert elementary_minors(big, 0) == [one]
        assert elementary_minors(big, 10) == []

    def test_budget_checked_before_enumerating(self):
        # C(40, 20)^2 minors: any enumeration would never finish
        one = LaurentPoly.one(1)
        A = AlexanderMatrix.from_rows([[one] * 40] * 40, 1)
        with pytest.raises(MinorBudgetError):
            elementary_minors(A, 20)


def permutation_sign(perm):
    """+1 or -1 by counting inversions."""
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def unreduced_delta(P):
    """The defining GCD of all (n-1)-minors of the whole Fox matrix."""
    A = dense_fox_matrix(P)
    return normalize(gcd_list(elementary_minors(A, A.ncols - 1), A.arity))


def companion(n):
    """Companion matrix of x^n - x - 1."""
    C = [[0] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = 1
    C[0][n - 1] = C[1][n - 1] = 1
    return C


def random_presentation(rng):
    """A random presentation on 1-4 generators; some relators are
    commutators, whose Fox rows hold no unit entry."""
    n = rng.randint(1, 4)
    gens = tuple("g%d" % i for i in range(n))

    def word(length):
        return tuple((rng.randrange(n), rng.choice((1, -1)))
                     for _ in range(length))

    relators = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            u, v = word(rng.randint(1, 3)), word(rng.randint(1, 3))
            relators.append(u + v + inverse_word(u) + inverse_word(v))
        else:
            relators.append(word(rng.randint(1, 8)))
    return Presentation(gens, relators)


class TestUnitReduce:
    @pytest.mark.parametrize("name", corpus.names())
    def test_corpus_matches_unreduced_minors(self, name):
        P = corpus.get(name).presentation
        assert alexander_polynomial(P).poly == unreduced_delta(P)

    def test_same_pivots_as_full_rescan(self):
        """The heap takes the pivots a rescan at every step would take, so
        it leaves the same block, entry for entry; the matrices are dense
        in units +-t^I, so row lengths tie often."""
        rng = random.Random(43)
        several = 0
        for _ in range(300):
            arity = rng.randint(1, 2)
            m, n = rng.randint(0, 8), rng.randint(1, 8)
            zero = LaurentPoly.zero(arity)

            def entry():
                roll = rng.random()
                if roll < 0.4:
                    return zero
                if roll < 0.8:
                    exps = [rng.randint(-1, 1) for _ in range(arity)]
                    return LaurentPoly.monomial(rng.choice((1, -1)), exps)
                return random_symmetric_nonzero_trace(rng, arity, 2)
            A = AlexanderMatrix.from_rows(
                [[entry() for _ in range(n)] for _ in range(m)], arity, n)
            B, live = unit_reduce(A.rows, n, arity)
            k = n - len(live)
            assert (B, k) == rescan_unit_reduce(A.rows, n)
            several += k >= 2 and len(B) > 0
        assert several >= 50

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_companion_mapping_tori(self, n):
        P = corpus.mapping_torus(companion(n)).presentation
        B, live = unit_reduce(fox_matrix(P), P.num_generators, 1)
        assert P.num_generators - len(live) == n - 1 and len(live) == 2
        tn = LaurentPoly.variable(0, 1)
        assert alexander_polynomial(P).poly == unreduced_delta(P) \
            == tn ** n - tn - 1

    def test_random_matches_unreduced_minors(self):
        rng = random.Random(41)
        checked = no_units = no_rows = empty_minor = 0
        while checked < 250:
            P = random_presentation(rng)
            if abelianize(P).rank < 1:
                continue
            A = dense_fox_matrix(P)
            B, live = unit_reduce(fox_matrix(P), A.ncols, A.arity)
            k = A.ncols - len(live)
            assert all(len(row) == len(live) for row in B)
            assert len(B) <= A.nrows - k
            assert not any(e.is_unit() for row in B for e in row)
            no_units += k == 0 and any(e for row in A.rows for e in row)
            no_rows += k > 0 and not B
            empty_minor += k == A.ncols - 1
            assert alexander_polynomial(P).poly == unreduced_delta(P)
            checked += 1
        assert min(no_units, no_rows, empty_minor) >= 20

    def test_dict_rows_match_dense_rows(self):
        """The sparse Fox rows and their dense form, zeros included, give
        the same block and live columns: on the corpus, the order-poly
        ladder of the benchmark and seeded random presentations."""
        cases = [entry.presentation for entry in corpus.entries()]
        cases += [corpus.mapping_torus(companion(n)).presentation
                  for n in (3, 4, 5, 6)]
        cases += [parse_presentation("<x, y | x^%d*y^2>" % k)
                  for k in (251, 501, 1001)]
        rng = random.Random(47)
        while len(cases) < 200:
            P = random_presentation(rng)
            if abelianize(P).rank >= 1:
                cases.append(P)
        cleared = kept = 0
        for P in cases:
            ab = abelianize(P)
            dense = dense_fox_matrix(P, ab)
            B, live = unit_reduce(fox_matrix(P, ab), dense.ncols, ab.rank)
            assert (B, live) == unit_reduce(dense.rows, dense.ncols, ab.rank)
            cleared += len(live) < dense.ncols
            kept += len(B) > 0
        assert cleared >= 80 and kept >= 60

    def test_reduction_keeps_the_ideal(self):
        # u + B, u a unit: clearing u leaves B, one size smaller
        t1, t2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        zero = LaurentPoly.zero(2)
        A = AlexanderMatrix.from_rows(
            [[-t1 ** -1, zero, zero],
             [t2 - 1, 1 - t1, zero],
             [t1 + 1, t2 - 1, t1 * t2 - 1]], 2)
        B, live = unit_reduce(A.rows, 3, 2)
        assert live == [1, 2] and B == [[1 - t1, zero], [t2 - 1, t1 * t2 - 1]]
        B = AlexanderMatrix.from_rows(B, 2, 2)
        for s in (1, 2):
            assert gcd_list(elementary_minors(A, s + 1), 2) \
                == gcd_list(elementary_minors(B, s), 2)

    def test_over_budget_block(self):
        # T^8: 28 commutator rows with no unit entry, 7-minors over budget
        gens = ["x%d" % i for i in range(8)]
        P = parse_presentation("<%s | %s>" % (", ".join(gens), ", ".join(
            "[%s,%s]" % (a, b) for i, a in enumerate(gens)
            for b in gens[i + 1:])))
        assert unit_reduce(fox_matrix(P), 8, 8)[1] == list(range(8))
        with pytest.raises(MinorBudgetError):
            alexander_polynomial(P)


def random_presentation_b1(rng):
    """A random presentation on 1-5 generators with at most as many
    relators, half of them commutators; b1 ranges over 0-5."""
    n = rng.randint(1, 5)

    def word(length):
        return tuple((rng.randrange(n), rng.choice((1, -1)))
                     for _ in range(length))

    relators = []
    for _ in range(rng.randint(0, n)):
        if rng.random() < 0.5:
            u, v = word(rng.randint(1, 3)), word(rng.randint(1, 3))
            relators.append(u + v + inverse_word(u) + inverse_word(v))
        else:
            relators.append(word(rng.randint(1, 9)))
    return Presentation(tuple("g%d" % i for i in range(n)), relators)


def rank_deficient_presentation(n, k):
    """n generators; k relators, each the product of all n squares
    x_i^{+-2} with seeded signs, then n - 1 - k products of two consecutive
    earlier relators: a Fox block with no unit and Delta = 0."""
    rng = random.Random(0)
    relators = [tuple(letter for i in range(n)
                      for letter in [(i, rng.choice((1, -1)))] * 2)
                for _ in range(k)]
    for j in range(n - 1 - k):
        relators.append(relators[j] + relators[j + 1])
    return Presentation(tuple("x%d" % i for i in range(n)), relators)


def record_minors(monkeypatch):
    """Record the minors each elementary_minors call returns."""
    calls = []
    original = alexinv.alexander.elementary_minors

    def recording(A, size):
        calls.append(original(A, size))
        return calls[-1]

    monkeypatch.setattr(alexinv.alexander, "elementary_minors", recording)
    return calls


class TestOneDeletedColumn:
    """Delta from the minors that delete one column, divided by v_k / g,
    against the GCD of every (n-1)-minor of the whole Fox matrix."""

    def test_random_matches_unreduced_minors(self):
        rng = random.Random(53)
        cases, nonzero = Counter(), Counter()
        while min(cases[b1] for b1 in (1, 2, 3)) < 200:
            P = random_presentation_b1(rng)
            b1 = abelianize(P).rank
            if b1 not in (1, 2, 3):
                continue
            delta = alexander_polynomial(P).poly
            assert delta == unreduced_delta(P), P
            cases[b1] += 1
            nonzero[b1] += not delta.is_zero()
        assert min(nonzero[b1] for b1 in (1, 2, 3)) >= 30, nonzero

    def test_minor_counts(self, monkeypatch):
        calls = record_minors(monkeypatch)
        P = parse_presentation("<x, y | x^1001*y^2>")
        assert alexander_polynomial(P).poly == unreduced_delta(P)
        # the x column, of 1001 terms, is the one deleted
        assert [[len(m.terms) for m in minors] for minors in calls] == [[2]]
        P = corpus.get("t3").presentation
        B, live = unit_reduce(fox_matrix(P), 3, 3)
        B = AlexanderMatrix.from_rows(B, 3, 3)
        assert live == [0, 1, 2] and len(elementary_minors(B, 2)) == 9
        calls.clear()
        assert full_report(P).delta.poly.is_one()
        assert [len(minors) for minors in calls] == [3]

    def test_rank_deficient_block_from_one_minor(self, monkeypatch):
        P = rank_deficient_presentation(8, 5)
        assert abelianize(P).rank == 3
        assert unit_reduce(fox_matrix(P), 8, 3)[1] == list(range(8))
        calls = record_minors(monkeypatch)
        assert alexander_polynomial(P).poly.is_zero()
        assert [len(minors) for minors in calls] == [1]

    def test_binomial_gcd_matches_laurent_gcd(self):
        rng = random.Random(59)
        seen = Counter()
        for case in range(300):
            arity = rng.randint(1, 3)
            kind = ("parallel", "antiparallel", "skew")[case % 3]
            u = [rng.randint(-3, 3) for _ in range(arity)]
            if not any(u):
                u[0] = 1
            vectors = []
            for _ in range(rng.randint(1, 4)):
                if kind == "skew":
                    a = [rng.randint(-6, 6) for _ in range(arity)]
                else:
                    m = rng.randint(1, 6)
                    if kind == "antiparallel":
                        m *= rng.choice((1, -1))
                    a = [m * x for x in u]
                vectors.append(tuple(a))
            vectors.insert(rng.randint(0, len(vectors)), (0,) * arity)
            if not any(map(any, vectors)):
                continue
            binomials = [LaurentPoly.monomial(1, a) - 1 for a in vectors]
            w = alexinv.alexander._binomial_gcd(vectors)
            want = LaurentPoly.one(arity) if w is None \
                else normalize(LaurentPoly.monomial(1, w) - 1)
            assert gcd_list(binomials, arity) == want, vectors
            seen[kind] += 1
            seen["gcd 1"] += w is None
            seen["gcd t^w - 1, w not in the input"] += \
                w is not None and w not in vectors
        assert min(seen.values()) >= 30, seen


class TestAlexanderPolynomial:
    def test_mapping_torus(self):
        from alexinv.corpus import get
        delta = alexander_polynomial(get("mapping-torus-A").presentation)
        assert delta.poly == parse_poly("t^2 - 4*t + 1", 1)
        assert delta.convention == "RelativeFirstMinors"

    def test_delta_one_family(self):
        for text, rank in [("<x | >", 1),
                           ("<x, y, z | Z*[x,y], [x,z], [y,z]>", 2),
                           ("<x,y,z | [x,y], [x,z], [y,z]>", 3)]:
            P = parse_presentation(text)
            assert alexander_polynomial(P).poly.is_one()

    def test_trefoil(self):
        P = parse_presentation("<x,y | x*y*x*Y*X*Y>")
        assert alexander_polynomial(P).poly == parse_poly("t^2 - t + 1", 1)

    def test_free_groups(self):
        assert alexander_polynomial(
            parse_presentation("<x1, x2, x3, x4 | >")).poly.is_zero()
        assert alexander_polynomial(
            parse_presentation("<x1, x2 | >")).poly.is_zero()

    def test_b1_zero_rejected(self):
        with pytest.raises(ValueError):
            alexander_polynomial(parse_presentation("<x | x^2>"))

    def test_surface_times_circle(self):
        # genus-2 surface times the circle: classically (h - 1)^(2g - 2)
        # in the circle variable h, here the fifth generator
        P = parse_presentation(
            "<a1, b1, a2, b2, h | [a1,b1]*[a2,b2], [a1,h], [b1,h], "
            "[a2,h], [b2,h]>")
        delta = alexander_polynomial(P)
        h = LaurentPoly.variable(4, 5)
        assert delta.poly == (h - 1) ** 2

    def test_zero_surgery_on_trefoil_as_bundle(self):
        # the order-6 torus bundle is the 0-surgery on the trefoil; its
        # polynomial matches the knot-group computation exactly
        from alexinv.corpus import mapping_torus
        bundle = mapping_torus([[1, 1], [-1, 0]])
        knot = parse_presentation("<x,y | x*y*x*Y*X*Y>")
        assert alexander_polynomial(bundle.presentation).poly == \
            alexander_polynomial(knot).poly == parse_poly("t^2 - t + 1", 1)

    def test_periodic_bundle_torsion(self):
        from alexinv.corpus import mapping_torus
        bundle = mapping_torus([[0, 1], [-1, 0]])
        rep = full_report(bundle.presentation)
        assert str(rep.delta) == "t^2 + 1"
        assert rep.torsion == (2,) and rep.checks["trace_matches_torsion_order"]


class TestOrderZeroDirect:
    def test_diagonal(self):
        lam = t + 1 + t ** -1
        A = AlexanderMatrix.diagonal([lam], 1)
        assert order_zero_direct(A).poly == t ** 2 + t + 1

    def test_diag_with_constant(self):
        two = LaurentPoly.constant(2, 1)
        A = AlexanderMatrix.diagonal([two, t - 1], 1)
        assert order_zero_direct(A).poly == 2 * t - 2

    def test_empty_matrix(self):
        A = AlexanderMatrix((), 0, 1)
        assert order_zero_direct(A).poly.is_one()

    def test_fewer_rows_than_columns(self):
        A = AlexanderMatrix.from_rows([[t, t + 1]], 1)
        assert order_zero_direct(A).poly.is_zero()

    def test_matches_unreduced_minors(self):
        """The zeroth order against its definition: the GCD of the cofactor
        expansions of every n x n minor of A itself, with no unit cleared.
        Inputs: block extensions, matrices with planted units +-t^I, b1 = 1
        witnesses, and matrices with fewer rows than columns."""
        rng = random.Random(47)
        cleared = fewer = fewer_cleared = nonzero = 0
        for case in range(200):
            kind = case % 4
            arity = rng.randint(1, 3)
            n = rng.randint(1, 2 if arity == 3 else 3)
            if kind == 0:
                P = random_matrix(rng, n + rng.choice((0, 1)), n, arity)
                A = levine_extend(P, random_symmetric_nonzero_trace(rng,
                                                                    arity))
            elif kind == 2:
                lam = random_unit_symmetric_nonzero_trace(rng)
                A = characterize_b1_one(lam).witness
            else:
                m = rng.randint(0, n - 1) if kind == 3 \
                    else n + rng.choice((0, 1))
                rows = [list(r) for r in random_matrix(rng, m, n, arity).rows]
                for _ in range(rng.randint(0, n) if m else 0):
                    rows[rng.randrange(m)][rng.randrange(n)] = \
                        LaurentPoly.monomial(
                            rng.choice((1, -1)),
                            [rng.randint(-2, 2) for _ in range(arity)])
                A = AlexanderMatrix.from_rows(rows, arity, n)
            dets = [cofactor_det([A.rows[i] for i in rws], A.arity)
                    for rws in combinations(range(A.nrows), A.ncols)]
            want = normalize(gcd_list(dets, A.arity))
            assert order_zero_direct(A).poly == want
            k = A.ncols - len(unit_reduce(A.rows, A.ncols, A.arity)[1])
            cleared += k >= 1
            fewer += A.nrows < A.ncols
            fewer_cleared += A.nrows < A.ncols and k >= 1
            nonzero += not want.is_zero()
        assert cleared >= 40 and fewer >= 40 and fewer_cleared >= 10
        assert nonzero >= 100


class TestLevine:
    def test_hypotheses_reports(self):
        hyp = check_levine_hypotheses(t + 1 + t ** -1)
        assert (hyp.is_symmetric, hyp.trace_nonzero, hyp.trace) == \
            (True, True, 3)
        hyp = check_levine_hypotheses(t ** 2 + t + 1)
        assert (hyp.is_symmetric, hyp.trace_nonzero) == (False, True)
        hyp = check_levine_hypotheses(t - t ** -1)
        assert (hyp.is_symmetric, hyp.trace_nonzero) == (False, False)

    def test_extend_from_trivial_module(self):
        seed = AlexanderMatrix.diagonal([LaurentPoly.one(1)], 1)
        ext = levine_extend(seed, t + 1 + t ** -1)
        assert order_zero_direct(ext).poly == t ** 2 + t + 1

    def test_extend_multiplies(self):
        A = AlexanderMatrix.diagonal([t ** 2 - 4 * t + 1], 1)
        lam = t + 3 + t ** -1
        ext = levine_extend(A, lam)
        assert order_zero_direct(ext).poly == \
            normalize((t ** 2 - 4 * t + 1) * lam)

    def test_rejects_trace_zero(self):
        seed = AlexanderMatrix.diagonal([LaurentPoly.one(1)], 1)
        with pytest.raises(LevineHypothesisError) as err:
            levine_extend(seed, t - 1)
        assert "trace" in str(err.value) or "symmetric" in str(err.value)

    def test_random_multiplicativity(self):
        rng = random.Random(12)
        for _ in range(30):
            arity = rng.randint(1, 3)
            n = rng.randint(1, 2)
            P = random_matrix(rng, n + rng.choice((0, 1)), n, arity)
            lam = random_symmetric_nonzero_trace(rng, arity)
            lhs = order_zero_direct(levine_extend(P, lam)).poly
            assert lhs == normalize(lam * order_zero_direct(P).poly)


class TestCharacterizeB1One:
    def test_mapping_torus_polynomial(self):
        verdict = characterize_b1_one(t ** 2 - 4 * t + 1)
        assert verdict.realizable
        assert verdict.witness_delta.poly == t ** 2 - 4 * t + 1

    def test_rejects_t_minus_1(self):
        verdict = characterize_b1_one(t - 1)
        assert not verdict.realizable
        assert not verdict.unit_symmetric and not verdict.trace_nonzero

    def test_rejects_2t_minus_1(self):
        # dense coefficients (-1, 2) are not palindromic, so not unit
        # symmetric: the single candidate shift fails
        assert not palindrome_unit_symmetric(2 * t - 1)
        verdict = characterize_b1_one(2 * t - 1)
        assert not verdict.realizable and verdict.trace_nonzero

    def test_witness_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(30):
            lam = random_unit_symmetric_nonzero_trace(rng)
            verdict = characterize_b1_one(lam)
            assert verdict.realizable
            assert verdict.witness_delta.poly == normalize(lam)

    def test_arity_guard(self):
        with pytest.raises(ValueError):
            characterize_b1_one(poly2("t1 + t2"))


class TestBlanchfieldAndTorsion:
    def test_check_blanchfield(self):
        assert check_blanchfield(alexander_polynomial(
            parse_presentation("<x,y | x*y*x*Y*X*Y>")))
        from alexinv.alexander import AlexanderPolynomial
        assert check_blanchfield(
            AlexanderPolynomial(t ** 2 - 4 * t + 1, "OrderZeroDirect"))
        assert not check_blanchfield(
            AlexanderPolynomial(t ** 2 - t + 2, "OrderZeroDirect"))
        with pytest.raises(ValueError, match="zero polynomial has no symmetry"):
            check_blanchfield(
                AlexanderPolynomial(LaurentPoly.zero(1), "OrderZeroDirect"))

    def test_torsion_order(self):
        from alexinv.alexander import AlexanderPolynomial
        assert torsion_order_b1_one(
            AlexanderPolynomial(t ** 2 - 4 * t + 1, "OrderZeroDirect")) == 2
        assert torsion_order_b1_one(
            AlexanderPolynomial(LaurentPoly.one(1), "OrderZeroDirect")) == 1
        assert torsion_order_b1_one(
            AlexanderPolynomial(t ** 2 - t + 1, "OrderZeroDirect")) == 1


class TestFullReport:
    def test_mapping_torus_report(self):
        from alexinv.corpus import get
        rep = full_report(get("mapping-torus-A").presentation)
        data = rep.as_dict()
        assert data["b1"] == 1
        assert data["torsion"] == [2]
        assert data["delta"] == "t^2 - 4*t + 1"
        assert data["symmetry"] == "UnitSymmetric"
        assert data["trace"] == -2
        assert data["checks"]["trace_matches_torsion_order"]
        assert rep.torsion_order == 2

    def test_torus_and_heisenberg(self):
        rep = full_report(parse_presentation("<x,y,z | [x,y],[x,z],[y,z]>"))
        assert (rep.b1, rep.torsion, str(rep.delta)) == (3, (), "1")
        rep = full_report(parse_presentation(
            "<x, y, z | Z*[x,y], [x,z], [y,z]>"))
        assert (rep.b1, rep.torsion, str(rep.delta)) == (2, (), "1")

    def test_zero_delta_flagged(self):
        rep = full_report(parse_presentation("<x1, x2 | >"))
        assert rep.symmetry is None and rep.trace is None
        assert rep.checks == {"delta_is_zero": True}

    def test_internal_results_skip_validation(self, monkeypatch):
        # 9,017 terms went through the validating constructor when every
        # internal result did; the few left are constants like det's 1
        validate = LaurentPoly.__init__
        validated = []

        def counting(self, arity, terms=None):
            validated.append(len(terms or {}))
            validate(self, arity, terms)

        monkeypatch.setattr(LaurentPoly, "__init__", counting)
        report = full_report(parse_presentation("<x, y | x^1001*y^2>"))
        assert len(report.delta.poly.terms) == 1001
        assert sum(validated) <= 50

    def test_delta_terms_built_once(self, monkeypatch):
        # Delta's 1,001 terms come from the exact division already
        # normalized, and its symmetry class is read in place: no nonzero
        # shift and no involution copies a long polynomial
        shift, involution = LaurentPoly.shift, alexinv.laurent.involution
        copied = []

        def spy_shift(self, exps):
            if any(exps):
                copied.append(("shift", len(self.terms)))
            return shift(self, exps)

        def spy_involution(f):
            copied.append(("involution", len(f.terms)))
            return involution(f)

        monkeypatch.setattr(LaurentPoly, "shift", spy_shift)
        monkeypatch.setattr(alexinv.laurent, "involution", spy_involution)
        monkeypatch.setattr(alexinv.alexander, "involution", spy_involution)
        report = full_report(parse_presentation("<x, y | x^1001*y^2>"))
        assert len(report.delta.poly.terms) == 1001
        assert report.symmetry.kind.value == "UnitSymmetric"
        assert [c for c in copied if c[1] >= 100] == []

    def test_one_smith_form(self, monkeypatch):
        # the Fox matrix reuses the report's abelianization
        snf = alexinv.presentation.smith_normal_form
        calls = []

        def counting(A):
            calls.append(A)
            return snf(A)

        monkeypatch.setattr(alexinv.presentation, "smith_normal_form",
                            counting)
        for name in corpus.names():
            # a corpus builder takes Smith invariant factors of its own
            P = corpus.get(name).presentation
            calls.clear()
            full_report(P)
            assert len(calls) == 1, name

    def test_fox_matrix_shapes(self):
        A = dense_fox_matrix(parse_presentation("<x | >"))
        assert (A.nrows, A.ncols, A.arity) == (0, 1, 1)


def no_unit_presentation(n, seed=0):
    """n generators and n - 1 relators, each a product of all n squares
    x_i^{+-2} in a seeded order: no Fox entry is a unit, so unit_reduce
    clears nothing and the minors are n of size n - 1."""
    rng = random.Random(seed)
    relators = []
    for _ in range(n - 1):
        order = list(range(n))
        rng.shuffle(order)
        relators.append(tuple(
            letter for i in order
            for letter in [(i, rng.choice((1, -1)))] * 2))
    return Presentation(tuple("x%d" % i for i in range(n)), relators)


class TestNoUnitPresentations:
    @pytest.mark.parametrize("n", [6, 7])
    def test_bareiss_matches_cofactor_path(self, monkeypatch, n):
        P = no_unit_presentation(n)
        A = dense_fox_matrix(P)
        assert unit_reduce(A.rows, A.ncols, A.arity)[1] == list(range(n))
        fast = alexander_polynomial(P).poly
        monkeypatch.setattr(alexinv.alexander, "det", cofactor_det)
        assert alexander_polynomial(P).poly == fast
        assert not fast.is_zero()

    def test_ten_generators(self):
        # cofactor expansion takes minutes on this presentation
        P = no_unit_presentation(10)
        start = time.perf_counter()
        delta = alexander_polynomial(P).poly
        assert time.perf_counter() - start < 5
        assert delta.arity == 1 and len(delta.terms) > 1
