import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest

import alexinv.covers
import alexinv.cyclotomic
import alexinv.verify
from alexinv import presentation
from alexinv.alexander import AlexanderMatrix, unit_reduce
from alexinv.corpus import entries, get, mapping_torus
from alexinv.covers import (Character, CoverBase, CoverIndexError, CoverMap,
                            DeckGroup, b1_ge_4_consistency, char_rank,
                            cover_base, cover_homology, free_abelian_cover,
                            hironaka_predicted_betti, is_prime, mod_p_betti,
                            mod_p_cover, reidemeister_schreier,
                            shalen_wagreich_check, tietze_reduced,
                            verify_torsion_cover_formula)
from alexinv.cyclotomic import (CyclotomicField, bareiss_rank,
                                cyclotomic_norm, cyclotomic_polynomial,
                                galois_orbits)
from alexinv.laurent import LaurentPoly, parse_poly
from alexinv.presentation import (Presentation, abelianize, fox_matrix,
                                  inverse_word, parse_presentation)
from alexinv.verify import (_cover_prime_tuples, random_matrix, run_hironaka,
                            run_shalen_wagreich, run_torsion_cover)
from conftest import (dense_fox_matrix, dense_mod_p_cover, fraction_euclid,
                      int_det, mat_pow, product_galois_orbits,
                      random_power_presentation, root_power, tuple_step_rs)

T3 = parse_presentation("<x,y,z | [x,y], [x,z], [y,z]>")
HEIS = parse_presentation("<x, y, z | Z*[x,y], [x,z], [y,z]>")
FREE1 = parse_presentation("<x | >")
T4 = parse_presentation("<x,y,z,w | [x,y], [x,z], [x,w], [y,z], [y,w], [z,w]>")


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        # checked against sympy.cyclotomic_poly
        assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
        assert cyclotomic_polynomial(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)

    def test_root_powers_cycle(self):
        for m in (1, 2, 3, 5, 6, 30):
            fld = CyclotomicField(m)
            assert root_power(fld, m) == fld.one
            acc = fld.one
            for k in range(1, m + 1):
                acc = fld.mul(acc, root_power(fld, 1))
                assert acc == root_power(fld, k)

    def test_primitive_sum_is_minus_one(self):
        # 1 + zeta + ... + zeta^(p-1) == 0 for prime p
        for p in (2, 3, 5):
            fld = CyclotomicField(p)
            acc = fld.zero
            for k in range(p):
                acc = fld.add(acc, root_power(fld, k))
            assert fld.is_zero(acc)

    def test_divexact(self):
        fld = CyclotomicField(5)
        a = fld.add(root_power(fld, 1), fld.reduce([2]))
        b = fld.sub(root_power(fld, 3), fld.reduce([4]))
        assert fld.times_inverse(fld.mul(a, b), fld.inverse(b)) == a

    def test_inverse(self):
        # zeta is a unit of Z[zeta_3]: its inverse has denominator 1
        fld = CyclotomicField(3)
        s, c = fld.inverse(root_power(fld, 1))
        assert c == 1
        assert fld.mul(root_power(fld, 1), s) == fld.one

    def test_bareiss_rank_rationals(self):
        fld = CyclotomicField(1)
        rng = random.Random(20)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            rows = [[fld.reduce([x]) for x in row] for row in A]
            # oracle: rank = largest k with a nonzero k x k minor
            oracle = 0
            for k in range(1, min(m, n) + 1):
                found = any(
                    int_det([[A[i][j] for j in cols] for i in rows_])
                    for rows_ in combinations(range(m), k)
                    for cols in combinations(range(n), k))
                if found:
                    oracle = k
            assert bareiss_rank(rows, fld) == oracle


class TestCyclotomicEuclid:
    """Inverse and norm share one Euclid against Phi_m; each is checked
    here against the field's own multiplication."""

    MODULI = (1, 2, 3, 5, 6, 7, 15, 30)

    def test_inverse_and_norm(self):
        rng = random.Random(21)
        for m in self.MODULI:
            fld = CyclotomicField(m)
            for _ in range(12):
                # a = sum c_k * zeta^k over all k < m, unreduced
                coeffs = [0] * m
                for _ in range(rng.randint(1, 4)):
                    coeffs[rng.randrange(m)] = rng.randint(-5, 5)
                a = fld.zero
                for k, c in enumerate(coeffs):
                    a = fld.add(a, fld.mul(fld.reduce([c]),
                                           root_power(fld, k)))
                # columns a * zeta^j in the power basis
                columns = [fld.mul(a, root_power(fld, j))
                           for j in range(fld.degree)]
                norm = int_det([list(row) for row in zip(*columns)])
                assert cyclotomic_norm(coeffs, m) == norm
                if not fld.is_zero(a):
                    s, c = fld.inverse(a)
                    assert c > 0 and gcd(c, *s) == 1
                    assert fld.mul(a, s) == fld.reduce([c])

    def test_memoized_inverse(self):
        """inverse memoizes by argument; every answer, a repeat or not, is
        the cofactor subresultant's and inverts a."""
        rng = random.Random(22)
        for m in (1, 2, 3, 5, 6, 7, 10, 15, 30, 31):
            fld = CyclotomicField(m)
            seen, repeats = [], 0
            for _ in range(24):
                if seen and rng.random() < 0.4:
                    a = rng.choice(seen)
                    repeats += 1
                else:
                    coeffs = [0] * m
                    for _ in range(rng.randint(1, 4)):
                        coeffs[rng.randrange(m)] = rng.randint(-5, 5)
                    a = fld.reduce(coeffs)
                    if fld.is_zero(a):
                        continue
                    seen.append(a)
                s, c = fld.inverse(a)
                assert (s, c) == alexinv.cyclotomic._subresultant(
                    m, a, cofactor=True)
                assert fld.mul(a, s) == fld.reduce([c])
            assert repeats > 0 and len(fld._inverses) == len(set(seen)), m

    def test_norm_of_zero(self):
        for m in self.MODULI:
            assert cyclotomic_norm([], m) == 0
            assert cyclotomic_norm([0] * m, m) == 0
            with pytest.raises(ZeroDivisionError):
                CyclotomicField(m).inverse(CyclotomicField(m).zero)

    def test_inexact_division_raises(self, monkeypatch):
        """A pseudo-remainder off by one makes a later exact division
        inexact, which must raise rather than floor."""
        prem = alexinv.cyclotomic._prem

        def off_by_one(f, g):
            r, q = prem(f, g)
            return [r[0] + 1] + r[1:], q

        monkeypatch.setattr(alexinv.cyclotomic, "_prem", off_by_one)
        fld = CyclotomicField(7)
        # Phi_7 by 3x^2 + 2x + 1: the second remainder is divided by 3^5
        with pytest.raises(ArithmeticError, match="subresultant division"):
            cyclotomic_norm([1, 2, 3], 7)
        with pytest.raises(ArithmeticError, match="subresultant division"):
            fld.inverse(fld.reduce([1, 2, 3]))

    def test_inexact_resultant_raises(self, monkeypatch):
        """A sequence Phi_5, 2x^2 + 1, 1 ends in Res = +-1 / h with h = 4,
        which must raise rather than floor."""
        monkeypatch.setattr(alexinv.cyclotomic, "_prem",
                            lambda f, g: ([1, 0], [0, 0, 1]))
        with pytest.raises(ArithmeticError, match="resultant left the ring"):
            cyclotomic_norm([1, 0, 2], 5)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


class TestEuclidDifferential:
    """The integer subresultant inverse and norm against the Fraction
    Euclid oracle, on seeded inputs of each kind the sequence treats
    differently."""

    # cases per modulus; the oracle's Fractions grow fast at large phi(m)
    MODULI = {1: 60, 2: 60, 3: 60, 4: 60, 5: 60, 6: 60, 7: 60, 12: 60,
              15: 60, 30: 60, 31: 40, 127: 20, 1009: 10}
    KINDS = ("non_monic", "content", "unreduced", "degree_jump", "zero")

    @staticmethod
    def sparse(rng, deg, lead=None):
        """An integer list of degree deg with a few nonzero terms."""
        a = [0] * (deg + 1)
        for _ in range(rng.randint(0, 3)):
            a[rng.randint(0, deg)] = rng.randint(-5, 5)
        a[deg] = lead or rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
        return a

    def make(self, rng, m, kind):
        phi = cyclotomic_polynomial(m)
        d = len(phi) - 1
        top = min(d - 1, 12)  # low degrees keep the oracle fast
        if kind == "non_monic":
            return self.sparse(rng, rng.randint(0, top),
                               rng.choice((-7, -4, -2, 2, 3, 6)))
        if kind == "content":
            c = rng.choice((2, 3, 4, 6, 10))
            return [c * x for x in self.sparse(rng, rng.randint(0, top))]
        if kind == "degree_jump":
            # deg a <= phi(m) - 2: the first division drops two degrees
            return self.sparse(rng, rng.randint(1, min(d - 2, top))
                               if d >= 3 else 0)
        multiple = _poly_mul(phi, self.sparse(rng, rng.randint(0, 2)))
        if kind == "zero":
            return multiple
        # unreduced: a reduced part plus a multiple of Phi_m, and for small
        # m terms at exponents k + m*j, which Phi_m | x^m - 1 sends to k
        a = self.sparse(rng, rng.randint(0, top))
        a += [0] * (len(multiple) - len(a))
        a = [x + y for x, y in zip(a, multiple)]
        if m <= 31:
            a += [0] * (2 * m)
            for _ in range(rng.randint(1, 3)):
                a[rng.randrange(len(a))] += rng.randint(-4, 4)
        return a

    def test_matches_fraction_oracle(self):
        rng = random.Random(90)
        seen = dict.fromkeys(self.KINDS, 0)
        cases = 0
        for m, count in self.MODULI.items():
            fld = CyclotomicField(m)
            d = fld.degree
            for i in range(count):
                a = self.make(rng, m, self.KINDS[i % len(self.KINDS)])
                b = fld.reduce(a)
                deg = max((k for k, x in enumerate(b) if x), default=-1)
                seen["non_monic"] += deg >= 0 and abs(b[deg]) > 1
                seen["content"] += deg >= 0 and gcd(*b) > 1
                seen["unreduced"] += len(a) > d and a[-1] != 0
                seen["degree_jump"] += 1 <= deg <= d - 2
                seen["zero"] += deg < 0
                norm = fraction_euclid(m, a, cofactor=False)
                assert norm.denominator == 1
                assert cyclotomic_norm(a, m) == norm, (m, a)
                if deg < 0:
                    assert norm == 0
                    with pytest.raises(ZeroDivisionError):
                        fld.inverse(b)
                else:
                    s, c = fld.inverse(b)
                    assert c > 0 and gcd(c, *s) == 1
                    assert fld.mul(b, s) == fld.reduce([c]), (m, a)
                    want = fraction_euclid(m, a, cofactor=True)
                    while want and not want[-1]:
                        want.pop()
                    assert len(want) <= d
                    want += [0] * (d - len(want))
                    assert [Fraction(x, c) for x in s] == want, (m, a)
                cases += 1
        assert cases >= 600
        assert min(seen.values()) >= 100, seen


class TestFoldDifferential:
    """Field products and reductions, which fold through x^m - 1 before
    Phi_m, against schoolbook convolution and the pseudo-remainder by the
    monic Phi_m, on seeded sparse inputs with zero factors and unreduced
    lists longer than 2m."""

    MODULI = (1, 2, 3, 4, 6, 9, 12, 15, 30, 31, 105)

    @staticmethod
    def remainder(v, m):
        phi = list(cyclotomic_polynomial(m))
        v = list(v) + [0] * (len(phi) - len(v))
        return tuple(alexinv.cyclotomic._prem(v, phi)[0])

    def test_matches_schoolbook_and_prem(self):
        rng = random.Random(71)
        zero_products = long_inputs = 0
        for m in self.MODULI:
            fld = CyclotomicField(m)
            d = fld.degree
            for case in range(30):
                n = 3 * m + 2 if case < 3 else rng.randint(0, 3 * m + 2)
                v = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                assert fld.reduce(v) == self.remainder(v, m), (m, v)
                assert fld.reduce(v) == fld.reduce(tuple(v))
                long_inputs += n > 2 * m
                a, b = ([0] * d if case % 6 == k else
                        [rng.choice((0, 0, rng.randint(-50, 50)))
                         for _ in range(d)] for k in (0, 1))
                a, b = tuple(a), tuple(b)
                want = self.remainder(_poly_mul(a, b), m)
                assert fld.mul(a, b) == fld.entry_mul(a, b) == want, (m, a, b)
                assert fld.add(a, b) == tuple(x + y for x, y in zip(a, b))
                assert fld.sub(a, b) == tuple(x - y for x, y in zip(a, b))
                zero_products += not any(want)
        assert long_inputs >= 3 * len(self.MODULI)
        assert zero_products >= 2 * len(self.MODULI)


def field_det(rows, fld):
    """Determinant over Z[zeta_m] by cofactor expansion along the first
    row, with the field's ring operations only (no inverse)."""
    if not rows:
        return fld.one
    total = fld.zero
    for j, x in enumerate(rows[0]):
        if fld.is_zero(x):
            continue
        term = fld.mul(x, field_det([r[:j] + r[j + 1:] for r in rows[1:]],
                                    fld))
        total = fld.sub(total, term) if j % 2 else fld.add(total, term)
    return total


class TestBareissRankCyclotomic:
    def test_planted_rank_drop(self):
        # rows beyond the first k are Z[zeta]-combinations of those k, as in
        # the Fox matrices at nontrivial characters, whose rank is R - 1
        rng = random.Random(32)
        cases = divided = 0
        for m in (3, 4, 5, 7, 12, 15, 30):
            fld = CyclotomicField(m)

            def element():
                coeffs = [0] * m
                for _ in range(rng.randint(0, 4)):
                    coeffs[rng.randrange(m)] = rng.randint(-3, 3)
                return fld.reduce(coeffs)

            for _ in range(15):
                nrows, ncols = (rng.choice((2, 3, 3, 4, 4)) for _ in "rc")
                k = max(1, min(nrows, ncols) - rng.choice((1, 1, 1, 2)))
                rows = [[element() for _ in range(ncols)] for _ in range(k)]
                while len(rows) < nrows:
                    lam = [element() for _ in range(k)]
                    row = []
                    for j in range(ncols):
                        acc = fld.zero
                        for c, basis in zip(lam, rows[:k]):
                            acc = fld.add(acc, fld.mul(c, basis[j]))
                        row.append(acc)
                    rows.append(row)
                rng.shuffle(rows)
                oracle = max((size for size in range(1, min(nrows, ncols) + 1)
                              for sub in combinations(range(nrows), size)
                              for cols in combinations(range(ncols), size)
                              if not fld.is_zero(field_det(
                                  [[rows[i][j] for j in cols] for i in sub],
                                  fld))), default=0)
                assert oracle <= k
                assert bareiss_rank(rows, fld) == oracle, (m, rows)
                cases += 1
                divided += oracle >= 2
        assert cases >= 100 and divided >= 50


class TestDeckAndCoverMap:
    def test_deck_group(self):
        deck = DeckGroup((2, 3))
        assert deck.order == 6
        assert len(list(deck.elements())) == 6
        assert len(list(deck.characters(nontrivial_only=True))) == 5
        with pytest.raises(ValueError):
            DeckGroup((4,))

    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_relator_check(self):
        P = parse_presentation("<x, y | x*x>")
        with pytest.raises(ValueError):
            CoverMap(P, DeckGroup((3,)), ((1,), (0,)))  # x^2 -> 2 != 0
        CoverMap(P, DeckGroup((2,)), ((1,), (1,)))  # x^2 -> 0 mod 2
        # commutator relators map to 0 under any assignment
        CoverMap(T3, DeckGroup((2,)), ((1,), (0,), (0,)))

    def test_surjectivity_check(self):
        with pytest.raises(ValueError):
            CoverMap(FREE1, DeckGroup((3,)), ((0,),))


def character_order(exps, primes):
    return lcm(*(p for p, e in zip(primes, exps) if e % p))


def same_cyclic_group(exps, primes):
    """Characters that generate the same cyclic group as exps: its
    multiples of the same order."""
    multiples = {tuple(k * e % p for e, p in zip(exps, primes))
                 for k in range(1, prod(primes) + 1)}
    return {v for v in multiples
            if character_order(v, primes) == character_order(exps, primes)}


class TestCharacterOrbits:
    @pytest.mark.parametrize("primes", [
        (), (3,), (2, 3, 2), (5, 5), (11, 11, 11), (2, 3, 5, 7),
        (3, 2, 3, 2), (2, 2, 3, 3), (5, 2, 5, 3, 2)])
    def test_galois_orbits_match_product_scan(self, primes):
        """Representatives built position by position against the scan of
        every exponent vector: same (exponents, m, size), same order."""
        assert list(galois_orbits(primes)) == \
            list(product_galois_orbits(primes))

    @pytest.mark.parametrize("primes", [(2, 3), (5, 5), (3, 3, 3),
                                        (2, 3, 5), (3, 2, 3), (2, 2, 3, 3)])
    def test_orbits_partition_with_constant_rank(self, primes):
        deck = DeckGroup(primes)
        orbits = list(deck.character_orbits())
        members = [same_cyclic_group(chi.exponents, primes)
                   for chi, _ in orbits]
        for (chi, _), orbit in zip(orbits, members):
            assert chi.exponents == min(orbit)
        flat = [v for orbit in members for v in orbit]
        assert len(flat) == len(set(flat))
        assert set(flat) == {chi.exponents for chi
                             in deck.characters(nontrivial_only=True)}
        for (chi, size), orbit in zip(orbits, members):
            m = character_order(chi.exponents, primes)
            assert size == len(orbit) == sum(
                1 for a in range(1, m) if gcd(a, m) == 1)

        # a random matrix whose first row is scaled by Phi_p(t_0), which
        # vanishes exactly at the characters with e_0 != 0
        arity = len(primes)
        t0 = LaurentPoly.variable(0, arity)
        phi = sum((t0 ** k for k in range(1, primes[0])),
                  LaurentPoly.one(arity))
        rows = random_matrix(random.Random(3), 3, 3, arity).rows
        matrices = [AlexanderMatrix.from_rows(
            [[phi * x for x in rows[0]]] + list(rows[1:]), arity)]
        matrices += [dense_fox_matrix(P) for P in (T3, HEIS, T4)
                     if abelianize(P).rank == arity]
        assert len(matrices) == 2
        random_ranks = set()
        for k, A in enumerate(matrices):
            for orbit in members:
                ranks = {char_rank(A, Character(v), deck) for v in orbit}
                assert len(ranks) == 1
                if k == 0:
                    random_ranks |= ranks
        assert len(random_ranks) > 1


class TestModP:
    def test_t3(self):
        assert mod_p_betti(T3, 5) == 3

    def test_mapping_torus(self):
        P = get("mapping-torus-A").presentation
        assert mod_p_betti(P, 2) == 2
        assert mod_p_betti(P, 3) == 1

    def test_not_prime(self):
        with pytest.raises(ValueError):
            mod_p_betti(T3, 6)

    def test_mod_p_cover_free(self):
        cm = mod_p_cover(FREE1, 3)
        assert cm.deck.primes == (3,)
        assert cm.assignment in (((1,),), ((2,),))

    def test_mod_p_cover_t3(self):
        cm = mod_p_cover(T3, 2)
        assert cm.deck.primes == (2, 2, 2)
        images = sorted(cm.assignment)
        assert images == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_mod_p_cover_mapping_torus(self):
        cm = mod_p_cover(get("mapping-torus-A").presentation, 3)
        assert cm.deck.primes == (3,)
        assert cm.assignment[0] == (0,) and cm.assignment[1] == (0,)
        assert cm.assignment[2] != (0,)

    def test_mod_p_cover_requires_dp(self):
        with pytest.raises(ValueError):
            mod_p_cover(parse_presentation("<x | x^3>"), 2)


class TestModPCoverOracle:
    """mod_p_cover reads abelianize's Smith basis and builds the cover the
    dense oracle reads off the rows of U: the same assignment and deck
    group, or the same error when d_p = 0."""

    @staticmethod
    def assert_same(P, p):
        try:
            want = dense_mod_p_cover(P, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                mod_p_cover(P, p)
            assert str(got.value) == str(exc)
            return False
        cm = mod_p_cover(P, p)
        assert (cm.deck, cm.assignment) == (want.deck, want.assignment)
        return True

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_corpus(self, p):
        built = sum(self.assert_same(entry.presentation, p)
                    for entry in entries())
        assert built >= 6

    def test_random_presentations(self):
        """Counted: covers built, and those with a torsion coordinate."""
        rng = random.Random(11)
        built, torsion = 0, Counter()
        for _ in range(600):
            P = random_power_presentation(rng)
            ab = abelianize(P)
            for p in (2, 3, 5):
                if self.assert_same(P, p):
                    built += 1
                    torsion[p] += any(d % p == 0 for d in ab.torsion)
        assert built >= 600
        assert sum(torsion.values()) >= 100 and min(torsion.values()) >= 10


class TestOneAbelianization:
    """Each cover check reads one abelianization of its base."""

    @pytest.mark.parametrize("check, args", [
        (verify_torsion_cover_formula, ("mapping-torus-A", (3,))),
        (shalen_wagreich_check, ("mapping-torus-A", 2)),
        (shalen_wagreich_check, ("t3", 2)),
        (b1_ge_4_consistency, ("connected-sum-4",)),
    ])
    def test_one_call(self, monkeypatch, check, args):
        calls = []

        def counting(P):
            calls.append(P)
            return abelianize(P)

        P = get(args[0]).presentation
        monkeypatch.setattr(alexinv.covers, "abelianize", counting)
        check(P, *args[1:])
        assert calls == [P]

    def test_hironaka_suite(self, monkeypatch):
        """The default hironaka suite abelianizes each base once, in the
        :class:`CoverBase` its 54 reports share: 8 calls, where one more
        in ``hironaka_predicted_betti`` per report made 8 + 54, and a
        ``free_abelian_cover`` per report 8 + 54 + 54."""
        calls = Counter()

        def counting(where):
            def spy(P):
                calls[where] += 1
                return abelianize(P)
            return spy
        monkeypatch.setattr(alexinv.verify, "abelianize", counting("suite"))
        monkeypatch.setattr(alexinv.covers, "abelianize", counting("covers"))
        reports = run_hironaka()
        assert all(r.ok for r in reports)
        assert calls == {"covers": len(entries())}
        assert (len(entries()), len(reports)) == (8, 54)

    def test_hironaka_suite_reduces_each_base_once(self, monkeypatch):
        """One Tietze reduction per corpus entry, where reducing the base
        of each cover made 54, and the same reports."""
        want = [r.as_dict() for r in run_hironaka()]
        bases, real = [], presentation.tietze_reduce

        def counting(P):
            bases.append(P)
            return real(P)
        monkeypatch.setattr(presentation, "tietze_reduce", counting)
        assert [r.as_dict() for r in run_hironaka()] == want
        assert bases == [entry.presentation for entry in entries()]


def default_tuples(rank):
    """Every default prime tuple of the three cover suites at max index
    256, for a base of first Betti number rank: the hironaka tuples, and
    the torsion-cover and shalen-wagreich (p,)-powers for p = 2, 3."""
    return {"hironaka": _cover_prime_tuples(rank, 256),
            "torsion": [(p,) * rank for p in (2, 3) if p ** rank <= 256],
            "shalen": [2, 3]}


class TestCoverBase:
    """The cover checks on one shared :class:`CoverBase` per base give
    what they give on the presentation, and build its work once."""

    @staticmethod
    def reports(base, tuples):
        out = [hironaka_predicted_betti(base, free_abelian_cover(
            cover_base(base).presentation, tup))
            for tup in tuples["hironaka"]]
        out += [verify_torsion_cover_formula(base, tup).as_dict()
                for tup in tuples["torsion"]]
        out += [shalen_wagreich_check(base, p).as_dict()
                for p in tuples["shalen"]]
        return out

    def test_same_reports_as_the_presentation(self):
        count = 0
        for entry in entries():
            P = entry.presentation
            tuples = default_tuples(abelianize(P).rank)
            base = CoverBase(P)
            assert cover_base(base) is base and cover_base(P) is not base
            want = self.reports(P, tuples)
            assert self.reports(base, tuples) == want
            count += len(want)
            if entry.name == "t3":  # every cover's orbits filled one dict
                assert set(base.fields) == {2, 3, 5, 6, 10, 15, 30}
        assert count == 54 + 16 + 16

    def test_hironaka_tuples_reversed(self, monkeypatch):
        """The field memos one base's covers share change no prediction:
        each base's tuples run in reverse give the same reports."""
        want = run_hironaka()
        real = alexinv.verify._cover_prime_tuples
        monkeypatch.setattr(alexinv.verify, "_cover_prime_tuples",
                            lambda *args: real(*args)[::-1])
        got = run_hironaka()
        assert got != want

        def row(r):
            return r.inputs["name"], r.inputs["primes"], r.lhs, r.rhs, r.status
        assert sorted(map(row, got)) == sorted(map(row, want))

    def test_base_work_once_per_entry(self, monkeypatch):
        """run_hironaka builds each entry's Fox matrix, unit reduction and
        Tietze reduction once, and each of the three cover suites its
        abelianization once: where a check built them per cover, the
        default hironaka suite made 54 Fox matrices and unit reductions
        and 62 abelianizations."""
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, spy)
        for module, name in ((presentation, "fox_matrix"),
                             (alexinv.covers, "unit_reduce"),
                             (presentation, "tietze_reduce"),
                             (alexinv.covers, "abelianize"),
                             (alexinv.verify, "abelianize")):
            counting(module, name)
        n = len(entries())
        assert len(run_hironaka()) == 54
        assert calls == {"fox_matrix": n, "unit_reduce": n,
                         "tietze_reduce": n, "abelianize": n}
        for suite in (run_torsion_cover, run_shalen_wagreich):
            calls.clear()
            assert all(r.ok for r in suite())
            assert calls["abelianize"] == n

    def test_cover_map_of_another_base(self):
        """A cover map is checked against its own base: the fibred
        mapping torus's map at p = 5 has the same generator images as
        mapping-torus-A's, and was answered from A's Fox matrix."""
        A = get("mapping-torus-A").presentation
        fib = get("mapping-torus-fib").presentation
        cm = free_abelian_cover(fib, (5,))
        assert cm.assignment == free_abelian_cover(A, (5,)).assignment
        for P in (A, CoverBase(A)):
            with pytest.raises(ValueError, match="another base"):
                hironaka_predicted_betti(P, cm)
        # an equal presentation that is another object is the same base
        same = parse_presentation(str(fib))
        assert same is not fib
        assert hironaka_predicted_betti(same, cm) == \
            hironaka_predicted_betti(CoverBase(fib), cm) == 1


class TestReidemeisterSchreier:
    def test_free_group_cyclic_cover(self):
        cp = reidemeister_schreier(free_abelian_cover(FREE1, [3]))
        assert cp.presentation.num_generators == 1  # 3*1 - 2
        assert cp.presentation.num_relators == 0
        assert cover_homology(cp).rank == 1

    def test_counts(self):
        for P, primes in [(T3, (2, 2, 2)), (HEIS, (2, 3)),
                          (get("mapping-torus-A").presentation, (5,))]:
            cm = free_abelian_cover(P, primes[:abelianize(P).rank])
            cp = reidemeister_schreier(cm)
            q = cm.deck.order
            n, m = P.num_generators, P.num_relators
            assert cp.presentation.num_generators == q * n - (q - 1)
            assert cp.presentation.num_relators == q * m
            assert len(cp.transversal) == q
            # transversal words land in distinct cosets, identity first
            images = [cm.image_of_word(w) for w in cp.transversal]
            assert images[0] == (0,) * len(cm.deck.primes)
            assert len(set(images)) == q

    def test_t3_cover_betti(self):
        cp = reidemeister_schreier(free_abelian_cover(T3, [2, 2, 2]))
        assert cover_homology(cp).rank == 3

    def test_mapping_torus_f3_cover(self):
        # the cover is the mapping torus of A^3: b1 = 1 and
        # |Tor H1| = |det(A^3 - I)| = 50
        A = [[3, 2], [1, 1]]
        A3 = mat_pow(A, 3)
        expected = abs(int_det([[A3[0][0] - 1, A3[0][1]],
                                [A3[1][0], A3[1][1] - 1]]))
        assert expected == 50
        cm = free_abelian_cover(get("mapping-torus-A").presentation, [3])
        hom = cover_homology(reidemeister_schreier(cm))
        assert hom.rank == 1
        assert hom.torsion_order == expected

    def test_nielsen_schreier(self):
        rng = random.Random(21)
        for n in (2, 3):
            for primes in ([2] * n, [3] * n):
                P = parse_presentation(
                    "<%s | >" % ", ".join("x%d" % i for i in range(n)))
                cm = free_abelian_cover(P, primes)
                q = cm.deck.order
                hom = cover_homology(reidemeister_schreier(cm))
                assert hom.rank == 1 + q * (n - 1)
                assert hom.torsion == ()

    def test_index_limit(self):
        with pytest.raises(CoverIndexError):
            reidemeister_schreier(free_abelian_cover(T3, [5, 5, 5]),
                                  max_index=100)

    def test_mod_p_consistency(self):
        # abelianizing the cover then reducing mod p agrees with the
        # mod-p betti number computed directly on the cover presentation
        for P, p in [(T3, 2), (HEIS, 2), (HEIS, 3)]:
            cp = reidemeister_schreier(mod_p_cover(P, p))
            hom = cover_homology(cp)
            dp_direct = mod_p_betti(cp.presentation, p)
            dp_from_h1 = hom.rank + sum(1 for d in hom.torsion if d % p == 0)
            assert dp_direct == dp_from_h1


def zero_sum_relator(rng, n):
    """One or two commutators of random words with inverse letters: the
    exponent sum of every generator is 0, so any assignment kills it."""
    def word():
        return tuple((rng.randrange(n), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 4)))
    rel = ()
    for _ in range(rng.randint(1, 2)):
        u, v = word(), word()
        rel += u + v + inverse_word(u) + inverse_word(v)
    return rel


def random_cover_map(rng, names=None):
    """A surjection of a random 2- or 3-generator group onto a sum of
    primes from {2, 3, 5, 7}; one generator maps to 0, a self-loop at
    every coset.  Generators are x0, x1, ... or drawn from ``names``."""
    n = rng.choice((2, 3))
    P = Presentation(tuple("x%d" % i for i in range(n)) if names is None
                     else tuple(rng.sample(names, n)),
                     tuple(zero_sum_relator(rng, n)
                           for _ in range(rng.randint(1, 3))))
    zero = rng.randrange(n)
    while True:
        primes = tuple(rng.choice((2, 3, 5, 7))
                       for _ in range(rng.randint(1, 3)))
        assignment = [tuple(0 if g == zero else rng.randrange(p)
                            for p in primes) for g in range(n)]
        try:
            return CoverMap(P, DeckGroup(primes), assignment)
        except ValueError:
            continue


class TestRSAgainstTupleStepping:
    """The coset-table rewriting gives exactly the presentation and
    transversal of the tuple-stepping oracle."""

    def assert_same(self, cm):
        new = reidemeister_schreier(cm, max_index=1331)
        old = tuple_step_rs(cm)
        assert (new.presentation.generator_names
                == old.presentation.generator_names)
        assert new.presentation.relators == old.presentation.relators
        assert new.transversal == old.transversal

    def test_corpus_free_abelian_covers(self):
        count = 0
        for entry in entries():
            rank = abelianize(entry.presentation).rank
            for tup in _cover_prime_tuples(rank, 1331):
                self.assert_same(free_abelian_cover(entry.presentation, tup))
                count += 1
        assert count >= 40

    @pytest.mark.parametrize("p", [2, 3])
    def test_corpus_mod_p_covers(self, p):
        count = 0
        for entry in entries():
            if mod_p_betti(entry.presentation, p) == 0:
                continue
            cm = mod_p_cover(entry.presentation, p)
            if cm.deck.order <= 1331:
                self.assert_same(cm)
                count += 1
        assert count >= 8

    def test_random_cover_maps(self):
        rng = random.Random(10)
        mixed = 0
        for _ in range(60):
            cm = random_cover_map(rng)
            assert any(not any(img) for img in cm.assignment)
            mixed += len(set(cm.deck.primes)) > 1
            self.assert_same(cm)
        assert mixed >= 10


class TestRSTrustedPresentation:
    """``reidemeister_schreier`` builds its presentation without the checks
    of ``Presentation``; the checking constructor gives the same one back,
    so every name is valid and unique and no relator reduces further."""

    def assert_checked(self, cm):
        P = reidemeister_schreier(cm, max_index=625).presentation
        assert Presentation(P.generator_names, P.relators) == P
        return P

    def test_corpus_free_abelian_covers(self):
        count = 0
        for entry in entries():
            rank = abelianize(entry.presentation).rank
            for tup in _cover_prime_tuples(rank, 256):
                self.assert_checked(free_abelian_cover(entry.presentation,
                                                       tup))
                count += 1
        assert count >= 40

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_corpus_mod_p_covers(self, p):
        count = 0
        for entry in entries():
            if mod_p_betti(entry.presentation, p) == 0:
                continue
            cm = mod_p_cover(entry.presentation, p)
            if cm.deck.order <= 625:
                self.assert_checked(cm)
                count += 1
        assert count >= 7

    def test_random_covers_with_suffixed_names(self):
        """Base names that look like cover names: x_1 at coset 0 gives
        x_1_0, which is also a base name here, and x at coset 10 gives
        x_10."""
        rng = random.Random(15)
        names = ("x", "x1", "x_1", "x_1_0")
        seen = set()
        for _ in range(80):
            seen.update(self.assert_checked(
                random_cover_map(rng, names)).generator_names)
        assert {"x_1_0", "x_10", "x1_0", "x_1_0_0"} <= seen


def expanded_cover_map(rng):
    """A random_cover_map with one or two generators y_k = w_k added by
    Tietze moves: the relator y_k * w_k^-1 is appended, and a conjugate of
    it multiplied into an old relator, so the group, its map and its
    covers stay the same while generators now occur once in relators."""
    def word(n):
        return tuple((rng.randrange(n), rng.choice((1, -1)))
                     for _ in range(rng.randint(1, 4)))

    cm = random_cover_map(rng)
    names = list(cm.base.generator_names)
    rels = list(cm.base.relators)
    assignment = list(cm.assignment)
    primes = cm.deck.primes
    for k in range(rng.randint(1, 2)):
        n = len(names)
        w, c = word(n), word(n)
        names.append("y%d" % k)
        assignment.append(tuple(sum(s * assignment[g][i] for g, s in w) % p
                                for i, p in enumerate(primes)))
        d = ((n, 1),) + inverse_word(w)
        i = rng.randrange(len(rels))
        rels[i] += c + d + inverse_word(c)
        rels.append(d)
    return CoverMap(Presentation(tuple(names), rels), cm.deck, assignment)


class TestTietzeReducedCovers:
    """The cover of a Tietze-reduced base is the same cover: its H_1 and
    its mod-p Betti numbers match those of the original cover map."""

    @staticmethod
    def assert_same_cover(cm):
        red = tietze_reduced(cm)
        # the reduction's own guarantees: same group, bounded length, and
        # the kept generators keep their images
        a, b = abelianize(cm.base), abelianize(red.base)
        assert (a.rank, a.torsion) == (b.rank, b.torsion)
        assert 2 * sum(map(len, red.base.relators)) \
            <= 3 * sum(map(len, cm.base.relators))
        images = dict(zip(cm.base.generator_names, cm.assignment))
        assert red.deck == cm.deck
        assert red.assignment == tuple(images[name] for name
                                       in red.base.generator_names)
        old = reidemeister_schreier(cm, max_index=625)
        new = reidemeister_schreier(red, max_index=625)
        h_old, h_new = cover_homology(old), cover_homology(new)
        assert (h_new.rank, h_new.torsion) == (h_old.rank, h_old.torsion)
        for p in set(cm.deck.primes) | {2, 3}:
            assert mod_p_betti(new.presentation, p) \
                == mod_p_betti(old.presentation, p)
        return red is not cm

    def test_corpus_covers(self):
        count = reduced = 0
        for entry in entries():
            P = entry.presentation
            rank = abelianize(P).rank
            maps = [free_abelian_cover(P, tup)
                    for tup in _cover_prime_tuples(rank, 256)]
            maps += [mod_p_cover(P, p) for p in (2, 3)
                     if mod_p_betti(P, p) and p ** mod_p_betti(P, p) <= 625]
            for cm in maps:
                reduced += self.assert_same_cover(cm)
                count += 1
        assert count >= 60 and reduced >= 18

    def test_random_cover_maps(self):
        rng = random.Random(22)
        reduced = 0
        for _ in range(60):
            reduced += self.assert_same_cover(expanded_cover_map(rng))
        assert reduced >= 55

    def test_nothing_to_eliminate(self):
        for P in (T3, FREE1):
            cm = free_abelian_cover(P, (2,) * abelianize(P).rank)
            assert tietze_reduced(cm) is cm

    def test_torsion_formula_cover_size(self, monkeypatch):
        """A count, no timing: at p = 127 the mapping-torus-A cover that
        the torsion check passes to cover_homology has 128 generators and
        254 relators, where RS on the unreduced base gives 255 and 381."""
        sizes = []
        real = alexinv.covers.cover_homology

        def recording(cp):
            sizes.append((cp.presentation.num_generators,
                          cp.presentation.num_relators))
            return real(cp)

        monkeypatch.setattr(alexinv.covers, "cover_homology", recording)
        P = get("mapping-torus-A").presentation
        report = verify_torsion_cover_formula(P, (127,))
        assert report.status == "equal"
        assert sizes == [(128, 254)]


class TestTrustedCoverMaps:
    """The maps that free_abelian_cover, mod_p_cover and _restricted build
    unchecked, through ``CoverMap._own``, are the maps the validating
    constructor builds from the same parts."""

    @staticmethod
    def assert_valid(cm):
        checked = CoverMap(cm.base, cm.deck, cm.assignment)
        assert checked.base is cm.base and checked.deck == cm.deck
        assert checked.assignment == cm.assignment
        assert type(cm.assignment) is tuple
        assert all(type(img) is tuple for img in cm.assignment)
        assert checked == cm
        return 1

    def test_corpus_default_tuples(self):
        """Every corpus entry with the default tuples of hironaka,
        torsion-cover and shalen-wagreich, each map also restricted to the
        Tietze-reduced base."""
        count = restricted = 0
        for entry in entries():
            base = CoverBase(entry.presentation)
            tuples = default_tuples(base.abelianization.rank)
            maps = [free_abelian_cover(base, tup)
                    for tup in tuples["hironaka"] + tuples["torsion"]]
            maps += [mod_p_cover(base, p) for p in tuples["shalen"]]
            for cm in maps:
                red = alexinv.covers._restricted(cm, *base.reduction)
                assert tietze_reduced(cm) == red
                count += self.assert_valid(cm) + self.assert_valid(red)
                restricted += red is not cm
        assert (count, restricted) == (2 * (54 + 16 + 16), 24)

    def test_seeded_restrictions(self):
        """The seeded expanded maps, whose restrictions eliminate the
        generators the Tietze moves added."""
        rng = random.Random(22)
        count = 0
        for _ in range(60):
            red = tietze_reduced(expanded_cover_map(rng))
            count += self.assert_valid(red)
        assert count == 60

    def test_no_validation_where_built(self, monkeypatch):
        """The cover maps a default suite run builds are not validated:
        __post_init__, with a mod_p_rank per prime, ran for 98 maps of one
        verify-suites pass."""
        calls = Counter()
        real = CoverMap.__post_init__

        def counting(self):
            calls["validated"] += 1
            real(self)
        monkeypatch.setattr(CoverMap, "__post_init__", counting)
        for suite in (run_hironaka, run_torsion_cover, run_shalen_wagreich):
            assert all(r.ok for r in suite())
        assert calls["validated"] == 0
        CoverMap(T3, DeckGroup((2,)), ((1,), (0,), (0,)))
        assert calls["validated"] == 1

    def test_index_checked_before_primality(self):
        """A huge prime over the index limit fails at once: trial division
        up to its square root would not end."""
        huge = 10 ** 30 + 57
        A = get("mapping-torus-A").presentation
        with pytest.raises(CoverIndexError) as exc:
            free_abelian_cover(A, (huge,), max_index=256)
        assert exc.value.order == huge
        with pytest.raises(CoverIndexError) as exc:
            mod_p_cover(T3, huge, max_index=256)
        assert exc.value.order == huge ** 3
        with pytest.raises(CoverIndexError):
            verify_torsion_cover_formula(A, (huge,))
        with pytest.raises(CoverIndexError):
            shalen_wagreich_check(T3, huge)
        with pytest.raises(CoverIndexError):
            run_hironaka(["mapping-torus-A"], [huge])


class TestLazyCover:
    """``reidemeister_schreier`` returns a view that builds each piece on
    first read: the generator count and the exponent rows agree with the
    presentation, which neither builds, and the coset tables are built
    only when a relator has to be rewritten."""

    @staticmethod
    def assert_lazy(cm):
        cp = reidemeister_schreier(cm, max_index=625)
        n = cp.num_generators
        rows = cp.exponent_rows()
        assert "presentation" not in vars(cp)
        assert ("_tables" in vars(cp)) == bool(cm.base.relators)
        assert n == cp.presentation.num_generators
        full = cp.presentation.exponent_rows()
        assert rows == full
        assert [list(row) for row in rows] == [list(row) for row in full]
        return full

    def test_hironaka_covers(self):
        """Every cover the default hironaka suite builds, at index <= 256."""
        count = relator_free = 0
        for entry in entries():
            P = entry.presentation
            for tup in _cover_prime_tuples(abelianize(P).rank, 256):
                cm = tietze_reduced(free_abelian_cover(P, tup))
                self.assert_lazy(cm)
                count += 1
                relator_free += not cm.base.relators
        assert (count, relator_free) == (54, 32)

    def test_random_cover_maps(self):
        """The seeded maps of TestTietzeReducedCovers, reduced or not."""
        rng = random.Random(22)
        zero_rows = zero_sums = 0
        for _ in range(60):
            cm = expanded_cover_map(rng)
            for full in self.assert_lazy(cm), \
                    self.assert_lazy(tietze_reduced(cm)):
                zero_rows += sum(not any(row.values()) for row in full)
                zero_sums += sum(0 in row.values() for row in full)
        # both stay in the lazy rows, as in the presentation's: 43 and
        # 2,682 of 6,588 here; only the kernel's intake drops them
        assert zero_rows >= 20 and zero_sums >= 1000

    def test_relator_free_base_builds_no_table(self):
        cm = free_abelian_cover(get("connected-sum-4").presentation, (7,) * 4)
        cp = reidemeister_schreier(cm, max_index=2401)
        hom = cover_homology(cp)
        assert (hom.rank, hom.torsion) == (2401 * 3 + 1, ())
        assert mod_p_betti(cp, 7) == hom.rank
        assert not vars(cp).keys() & {"_tables", "presentation"}

    def test_default_suites(self, monkeypatch):
        """Counts over the seven default suites, whose cover checks are
        cover_homology, shalen_wagreich_check and the torsion formula: 76
        RS calls, of which the 42 on relator-free bases build no coset
        table and the other 34 build one; none builds a cover word."""
        cps = []
        real = alexinv.covers.reidemeister_schreier

        def spy(cm, max_index):
            cps.append(real(cm, max_index))
            return cps[-1]
        monkeypatch.setattr(alexinv.covers, "reidemeister_schreier", spy)
        monkeypatch.setattr(alexinv.verify, "reidemeister_schreier", spy)
        for theorem in alexinv.verify.THEOREMS:
            assert all(r.ok for r in alexinv.verify.run_suite(theorem))
        tables = Counter((bool(cp.cover_map.base.relators),
                          "_tables" in vars(cp)) for cp in cps)
        assert tables == {(False, False): 42, (True, True): 34}
        assert not any("presentation" in vars(cp) for cp in cps)


class TestCoverHomology:
    """cover_homology's sparse Smith invariants against abelianize, the
    dense Smith form with its row transform."""

    @staticmethod
    def check(P, primes):
        cp = reidemeister_schreier(free_abelian_cover(P, primes))
        hom, ab = cover_homology(cp), abelianize(cp.presentation)
        assert (hom.rank, hom.torsion) == (ab.rank, ab.torsion)
        assert hom.gen_images == ()

    def test_hironaka_covers(self):
        count = 0
        for entry in entries():
            rank = abelianize(entry.presentation).rank
            for primes in _cover_prime_tuples(rank, 256):
                self.check(entry.presentation, primes)
                count += 1
        assert count >= 50

    @pytest.mark.parametrize("name, primes", [
        ("mapping-torus-A", (31,)), ("mapping-torus-A", (61,)),
        ("mapping-torus-fib", (31,)), ("mapping-torus-fib", (61,)),
        ("t3", (3, 3, 3)), ("t3", (5, 5, 5)),
        ("heisenberg", (7, 7)), ("heisenberg", (11, 11))])
    def test_large_covers(self, name, primes):
        self.check(get(name).presentation, primes)

    def test_heap_work_guard(self, monkeypatch):
        """Heap pops of the unit kernel on the heisenberg (31, 31) cover, a
        count rather than a time: requeueing every entry of every column
        the pivot row touched took 128,413 pops here, one lower-bound item
        per unit 32,830, one Markowitz item per row 3,725, and one
        (length, row) item per row, pushed again when its length changes,
        3,787."""
        pops = 0
        real = presentation.heappop

        def counting(heap):
            nonlocal pops
            pops += 1
            return real(heap)
        monkeypatch.setattr(presentation, "heappop", counting)
        cp = reidemeister_schreier(
            free_abelian_cover(get("heisenberg").presentation, (31, 31)),
            max_index=961)
        hom = cover_homology(cp)
        assert (hom.rank, hom.torsion) == (2, (961,))
        assert 0 < pops < 6_000, pops

    def test_is_unit_work_guard(self):
        """is_unit calls of the unit kernel on the heisenberg (31, 31)
        cover, a count rather than a time: rescanning a row's units at
        every re-key and pop took 75,695 here, rescanning an updated row
        whenever its cached best unit was in the pivot row 11,253, keeping
        the pivot column's pair as a bound 7,004, and scanning each popped
        row once, shortest row first, 1,955."""
        calls = 0

        def counting_is_unit(x):
            nonlocal calls
            calls += 1
            return x in (1, -1)
        cp = reidemeister_schreier(
            free_abelian_cover(get("heisenberg").presentation, (31, 31)),
            max_index=961)
        rows = cp.presentation.exponent_rows()
        got = presentation._eliminate_units(rows, counting_is_unit, int)
        assert got == presentation._eliminate_units(rows, {1, -1}.__contains__,
                                                    int)
        assert 0 < calls < 10_000, calls

    @staticmethod
    def leftover(rows):
        """(rows, columns, nonzeros) of the block the unit kernel leaves."""
        _, rest = presentation._eliminate_units(rows, {1, -1}.__contains__,
                                                int)
        return (len(rest), len({c for row in rest for c in row}),
                sum(map(len, rest)))

    @pytest.mark.parametrize("P, primes, reduce, block", [
        (get("mapping-torus-A").presentation, (127,), True, (2, 2, 4)),
        (get("heisenberg").presentation, (31, 31), False, (1, 1, 1)),
        # a non-fibred b1 = 1 group: mapping-torus-A with a generator u and
        # one relator, Delta = (t^2 - 4t + 1)(2t^2 - 3t + 2)
        (parse_presentation("<x1, x2, h, u | x1*x2*X1*X2, h*x1*H*X2*X1*X1*X1,"
                            " h*x2*H*X2*X1*X1, H*u*u*h*U*U*U*h*u*u*H>"),
         (127,), True, (129, 129, 385)),
    ])
    def test_fill_guard(self, P, primes, reduce, block):
        """The block left for the dense Smith tail, counts rather than
        times: the pivot rule decides the fill, and these are the blocks
        the least-Markowitz-cost rule left too."""
        cm = free_abelian_cover(P, primes)
        cp = reidemeister_schreier(tietze_reduced(cm) if reduce else cm,
                                   max_index=prod(primes))
        assert self.leftover(cp.presentation.exponent_rows()) == block

    def test_fox_fill_guard(self):
        """The Laurent block that unit_reduce leaves on the Fox rows of the
        index-127 cyclic cover of mapping-torus-A: 2 rows on 3 columns."""
        cm = free_abelian_cover(get("mapping-torus-A").presentation, (127,))
        Q = reidemeister_schreier(cm, max_index=127).presentation
        ab = abelianize(Q)
        B, live = unit_reduce(fox_matrix(Q, ab), Q.num_generators, ab.rank)
        assert (len(B), len(live)) == (2, 3)
        assert Q.num_generators - len(live) == 252

    def test_character_rank_work_guard(self, monkeypatch):
        """Cofactor subresultants and field products of the Hironaka
        prediction on the t3 (11, 11, 11) cover, counts rather than times:
        a fresh field per orbit took 121 and 1,423 here, one field per
        order with its memos 10 and 496."""
        counts = Counter()
        subresultant = alexinv.cyclotomic._subresultant
        mul = CyclotomicField.mul

        def counting_subresultant(m, a, cofactor):
            counts["cofactor"] += cofactor
            return subresultant(m, a, cofactor)

        def counting_mul(fld, a, b):
            counts["mul"] += 1
            return mul(fld, a, b)
        monkeypatch.setattr(alexinv.cyclotomic, "_subresultant",
                            counting_subresultant)
        monkeypatch.setattr(CyclotomicField, "mul", counting_mul)
        P = get("t3").presentation
        cm = free_abelian_cover(P, (11, 11, 11))
        assert hironaka_predicted_betti(P, cm) == 3
        assert 0 < counts["cofactor"] <= 12 and 0 < counts["mul"] <= 600, \
            counts

    def test_fold_guard(self, monkeypatch):
        """Folds of the same prediction: 1,713 when every evaluated entry
        and every product was folded afresh against Phi_m; zero entries
        and products skip the fold, and the field folds each distinct
        evaluation once."""
        calls = 0
        fold = alexinv.cyclotomic._fold

        def counting_fold(v, m):
            nonlocal calls
            calls += 1
            return fold(v, m)
        monkeypatch.setattr(alexinv.cyclotomic, "_fold", counting_fold)
        P = get("t3").presentation
        cm = free_abelian_cover(P, (11, 11, 11))
        assert hironaka_predicted_betti(P, cm) == 3
        assert 0 < calls <= 400, calls


class TestTorsionCoverFormula:
    def test_mapping_torus_3(self):
        r = verify_torsion_cover_formula(
            get("mapping-torus-A").presentation, [3])
        assert (r.lhs, r.rhs, r.status) == (50, 50, "equal")

    def test_mapping_torus_2(self):
        A = [[3, 2], [1, 1]]
        A2 = mat_pow(A, 2)
        assert A2 == [[11, 8], [4, 3]]
        expected = abs(int_det([[10, 8], [4, 2]]))
        r = verify_torsion_cover_formula(
            get("mapping-torus-A").presentation, [2])
        assert (r.lhs, r.rhs, r.status) == (expected, 12, "equal")

    def test_t3_all_twos(self):
        r = verify_torsion_cover_formula(T3, [2, 2, 2])
        assert (r.lhs, r.rhs, r.status) == (1, 1, "equal")

    def test_hypothesis_violated(self):
        # delta of the rank-2 free group is 0, which vanishes everywhere
        P = parse_presentation("<x1, x2 | >")
        r = verify_torsion_cover_formula(P, [2, 2])
        assert r.status == "hypothesis_violated" and r.rhs == 0

    def test_primes_mismatch(self):
        with pytest.raises(ValueError):
            verify_torsion_cover_formula(T3, [2])


class TestCharRank:
    def test_trivial_character_is_rational_rank(self):
        A = dense_fox_matrix(get("mapping-torus-A").presentation)
        assert char_rank(A, Character((0,)), DeckGroup((3,))) == 2

    def test_nontrivial_characters(self):
        # delta(rho) = rho^2 - 4 rho + 1 = -5 rho != 0 using
        # rho^2 + rho + 1 = 0, so the rank stays 2
        A = dense_fox_matrix(get("mapping-torus-A").presentation)
        deck = DeckGroup((3,))
        for e in (1, 2):
            assert char_rank(A, Character((e,)), deck) == 2

    def test_zero_row(self):
        zero = LaurentPoly.zero(1)
        one = LaurentPoly.one(1)
        A = AlexanderMatrix.from_rows([[one, one], [zero, zero]], 1)
        for e in (0, 1):
            assert char_rank(A, Character((e,)), DeckGroup((2,))) < A.nrows

    def test_root_identity_matters(self):
        # (t - 1) evaluated at a nontrivial p-th root drops the rank only
        # at the trivial character
        A = AlexanderMatrix.from_rows(
            [[parse_poly("t - 1", 1)]], 1)
        deck = DeckGroup((5,))
        assert char_rank(A, Character((0,)), deck) == 0
        for e in range(1, 5):
            assert char_rank(A, Character((e,)), deck) == 1


class TestHironaka:
    def test_delta_one_members_keep_betti(self):
        for P, primes in [(T3, (2, 2, 2)), (T3, (2, 3, 5)),
                          (HEIS, (2, 2)), (HEIS, (3, 3)), (FREE1, (3,))]:
            cm = free_abelian_cover(P, primes)
            predicted = hironaka_predicted_betti(P, cm)
            assert predicted == abelianize(P).rank
            actual = cover_homology(reidemeister_schreier(cm)).rank
            assert predicted == actual

    def test_mapping_torus(self):
        P = get("mapping-torus-A").presentation
        cm = free_abelian_cover(P, [3])
        assert hironaka_predicted_betti(P, cm) == 1

    def test_order_three_monodromy(self):
        # A = ((0, -1), (1, -1)) has order 3 and Delta = t^2 + t + 1: the
        # p-fold cyclic cover is the mapping torus of A^p, with b1 = 3 when
        # 3 | p and 1 otherwise, so the rank drops only at cube roots of 1
        entry = mapping_torus([[0, -1], [1, -1]])
        assert entry.expected["delta"] == "t^2 + t + 1"
        P = entry.presentation
        for p, b1 in ((2, 1), (3, 3), (5, 1), (7, 1), (31, 1)):
            cm = free_abelian_cover(P, (p,))
            predicted = hironaka_predicted_betti(P, cm)
            actual = cover_homology(reidemeister_schreier(cm)).rank
            assert predicted == actual == b1, p

    def test_free_groups_nielsen_schreier(self):
        # rank-0 matrices put every nontrivial character in every V_i, and
        # the sum collapses to the Nielsen-Schreier count
        for n, primes in [(2, (2, 2)), (3, (2, 2, 2)), (2, (3, 5))]:
            P = parse_presentation(
                "<%s | >" % ", ".join("x%d" % i for i in range(n)))
            cm = free_abelian_cover(P, primes)
            predicted = hironaka_predicted_betti(P, cm)
            actual = cover_homology(reidemeister_schreier(cm)).rank
            assert predicted == actual == 1 + cm.deck.order * (n - 1)

    def test_orbit_sum_matches_per_character_sum(self):
        # every corpus cover with primes from {2, 3, 5, 7} and index <= 50
        covers = mixed = 0
        for entry in entries():
            P = entry.presentation
            ab = abelianize(P)
            A = dense_fox_matrix(P, ab)
            for primes in product((2, 3, 5, 7), repeat=ab.rank):
                if prod(primes) > 50:
                    continue
                cm = free_abelian_cover(P, primes)
                oracle = ab.rank + sum(
                    max(0, A.ncols - 1 - char_rank(A, chi, cm.deck))
                    for chi in cm.deck.characters(nontrivial_only=True))
                assert hironaka_predicted_betti(P, cm) == oracle, \
                    (entry.name, primes)
                covers += 1
                mixed += len(set(primes)) > 1
        assert covers == 97
        assert mixed > 0

    @staticmethod
    def shared_work_covers():
        """t3, heisenberg and mapping-torus-A covers of equal primes, and
        the mixed-prime covers of every corpus entry with 2 <= b1 <= 4."""
        out = [(T3, (5, 5, 5)), (T3, (7, 7, 7)), (HEIS, (7, 7)),
               (HEIS, (13, 13)), (get("mapping-torus-A").presentation, (31,))]
        for entry in entries():
            b1 = abelianize(entry.presentation).rank
            for primes in ((2, 3, 5, 7)[:b1], (3, 5, 7, 11)[:b1]):
                if 2 <= b1 <= 4 and prod(primes) <= 400:
                    out.append((entry.presentation, primes))
        return out

    def test_shared_fields_match_fresh_fields(self, monkeypatch):
        """The prediction, one field per order on the unit-reduced block,
        against the sum over every nontrivial character of char_rank on
        the full Fox matrix, each in a fresh field."""
        made, calls = [], Counter()
        init = CyclotomicField.__init__
        inverse = CyclotomicField.inverse
        entry_mul = CyclotomicField.entry_mul

        def recording_init(fld, m):
            init(fld, m)
            made.append(fld)

        def counting_inverse(fld, a):
            calls["inverse"] += 1
            return inverse(fld, a)

        def counting_entry_mul(fld, a, b):
            calls["entry_mul"] += 1
            return entry_mul(fld, a, b)
        hits = mixed = 0
        for P, primes in self.shared_work_covers():
            ab = abelianize(P)
            A = dense_fox_matrix(P, ab)
            cm = free_abelian_cover(P, primes)
            oracle = ab.rank + sum(
                max(0, A.ncols - 1 - char_rank(A, chi, cm.deck))
                for chi in cm.deck.characters(nontrivial_only=True))
            made.clear()
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(CyclotomicField, "__init__", recording_init)
                patch.setattr(CyclotomicField, "inverse", counting_inverse)
                patch.setattr(CyclotomicField, "entry_mul",
                              counting_entry_mul)
                assert hironaka_predicted_betti(P, cm) == oracle, \
                    (str(P), primes)
            # an empty unit-reduced block needs no character rank
            orders = [m for _, m, _ in galois_orbits(primes)
                      if m > 1 and unit_reduce(A.rows, A.ncols, A.arity)[0]]
            assert sorted(fld.m for fld in made) == sorted(set(orders))
            hits += (calls["inverse"] + calls["entry_mul"]
                     - sum(len(fld._inverses) + len(fld._products)
                           for fld in made))
            mixed += len(set(primes)) > 1
        assert hits > 0 and mixed >= 4

    def test_rank_on_unit_reduced_block(self):
        """rank A(chi) = k + rank B(chi) for the block B that unit_reduce
        leaves of A after clearing k units: at every orbit representative
        of the covers above, and at every character of seeded random
        matrices with and without planted units."""
        for P, primes in self.shared_work_covers():
            A = dense_fox_matrix(P, abelianize(P))
            B, live = unit_reduce(A.rows, A.ncols, A.arity)
            k, B = A.ncols - len(live), AlexanderMatrix.from_rows(
                B, A.arity, len(live))
            deck = DeckGroup(primes)
            for chi, _ in deck.character_orbits():
                assert char_rank(A, chi, deck) == \
                    k + char_rank(B, chi, deck), (str(P), chi)
        rng = random.Random(33)
        reduced = plain = 0
        for case in range(100):
            arity = rng.randint(1, 2)
            deck = DeckGroup(tuple(rng.choice((2, 3, 5))
                                   for _ in range(arity)))
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [list(row) for row in
                    random_matrix(rng, nrows, ncols, arity).rows]
            spread = LaurentPoly.one(arity) + LaurentPoly.variable(0, arity)
            for row in rows:  # no unit by chance: +-t^I (1 + t_1) is none
                row[:] = [f * spread if f.is_unit() else f for f in row]
            if case % 2:
                for _ in range(rng.randint(1, min(nrows, ncols))):
                    rows[rng.randrange(nrows)][rng.randrange(ncols)] = \
                        LaurentPoly.monomial(rng.choice((1, -1)), tuple(
                            rng.randint(-2, 2) for _ in range(arity)))
            A = AlexanderMatrix.from_rows(rows, arity, ncols)
            B, live = unit_reduce(rows, ncols, arity)
            k, B = ncols - len(live), AlexanderMatrix.from_rows(
                B, arity, len(live))
            assert (k > 0) == bool(case % 2)
            for chi in deck.characters():
                assert char_rank(A, chi, deck) == \
                    k + char_rank(B, chi, deck), (rows, chi)
            reduced += k > 0
            plain += k == 0
        assert reduced == plain == 50

    def test_empty_block_needs_no_character_rank(self, monkeypatch):
        """connected-sum-4 unit-reduces to no rows, so every nontrivial
        character has rank k and b1 = 4 + 3 (|G| - 1), as RS gives."""
        def no_char_rank(*args):
            raise AssertionError("char_rank called on an empty block")
        P = get("connected-sum-4").presentation
        cm = free_abelian_cover(P, (2, 3, 5, 7))
        assert not unit_reduce(fox_matrix(P), 4, 4)[0]
        with monkeypatch.context() as patch:
            patch.setattr(alexinv.covers, "char_rank", no_char_rank)
            predicted = hironaka_predicted_betti(P, cm)
        actual = cover_homology(reidemeister_schreier(cm)).rank
        assert predicted == actual == 4 + 3 * 209

    def test_rejects_non_free_cover(self):
        P = get("mapping-torus-A").presentation
        cm = mod_p_cover(P, 2)  # touches the torsion summand
        with pytest.raises(ValueError):
            hironaka_predicted_betti(P, cm)

    def test_surface_product_cover(self):
        # Sigma_2 x S^1 with the (F_2)^5 cover: the cover is Sigma' x S^1
        # where chi(Sigma') = 16 * (-2) = -32, so genus 17 and b1 = 35.
        # The polynomial (h-1)^2 is nontrivial here, so nontrivial
        # characters genuinely enter the V_i counts.
        P = parse_presentation(
            "<a1, b1, a2, b2, h | [a1,b1]*[a2,b2], [a1,h], [b1,h], "
            "[a2,h], [b2,h]>")
        cm = free_abelian_cover(P, [2, 2, 2, 2, 2])
        predicted = hironaka_predicted_betti(P, cm)
        actual = cover_homology(reidemeister_schreier(cm)).rank
        assert predicted == actual == 35


class TestShalenWagreich:
    def test_t3(self):
        r = shalen_wagreich_check(T3, 2)
        assert (r.inputs["r"], r.rhs, r.lhs, r.status) == \
            (3, 3, 3, "bound_holds")

    def test_heisenberg(self):
        r = shalen_wagreich_check(HEIS, 2)
        assert r.inputs["r"] == 2 and r.rhs == 1
        assert r.lhs >= 1 and r.status == "bound_holds"

    def test_free1(self):
        r = shalen_wagreich_check(FREE1, 5)
        assert (r.inputs["r"], r.rhs, r.status) == (1, 0, "bound_holds")

    def test_torsion_prime_labelled(self):
        r = shalen_wagreich_check(get("mapping-torus-A").presentation, 2)
        assert r.inputs["p_coprime_to_torsion"] is False
        assert r.inputs["d_p_equals_b1"] is False
        assert r.status == "bound_holds"

    def test_resource_limit(self):
        with pytest.raises(CoverIndexError):
            shalen_wagreich_check(T3, 2, max_index=4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_r_is_the_base_d_p(self, p):
        """r, the length of each generator image of the canonical mod-p
        cover, is the base's d_p from the F_p rank of its exponent rows."""
        checked = 0
        for entry in entries():
            P = entry.presentation
            r = mod_p_betti(P, p)
            assert r >= 1
            images = mod_p_cover(P, p).assignment
            assert {len(img) for img in images} == {r}
            if p ** r <= 256:
                assert shalen_wagreich_check(P, p).inputs["r"] == r
                checked += 1
        assert checked >= 5

    def test_d_p_zero(self):
        with pytest.raises(ValueError, match="d_2 is 0"):
            shalen_wagreich_check(parse_presentation("<x | x^3>"), 2)

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_not_prime(self, p):
        with pytest.raises(ValueError, match="%d is not prime" % p):
            shalen_wagreich_check(T3, p)

    def test_t3_index_1331(self):
        # 3993 relators on 2663 cover generators; the time bound fails a
        # dense F_p elimination, which takes about 15 s on this cover
        start = time.perf_counter()
        r = shalen_wagreich_check(T3, 11, max_index=1331)
        assert time.perf_counter() - start < 3
        assert (r.lhs, r.rhs, r.status) == (3, 3, "bound_holds")


class TestB1Ge4:
    def test_free_groups(self):
        for k in (4, 5):
            r = b1_ge_4_consistency(get("connected-sum-%d" % k).presentation)
            assert r.status == "consistent"
            assert r.inputs == {"b1": k, "delta": "0"}

    def test_rejects_low_rank(self):
        with pytest.raises(ValueError):
            b1_ge_4_consistency(T3)
