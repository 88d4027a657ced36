import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv import corpus, presentation
from alexinv.covers import (free_abelian_cover, reidemeister_schreier,
                            tietze_reduced)
from alexinv.laurent import LaurentPoly, ParseError, parse_poly
from alexinv.presentation import (Presentation, abelianize, concat,
                                  fox_matrix, inverse_word, mod_p_rank,
                                  parse_presentation, reduce_word,
                                  smith_invariants, smith_normal_form,
                                  word_power)
from conftest import (FreeGroupRingElement, assert_well_formed,
                      dense_fox_matrix, dense_mod_p_rank, exponent_matrix,
                      fox_derivative, int_det, random_power_presentation,
                      rescan_eliminate, smith_factors_oracle)


def random_word(rng, n, max_len):
    return tuple((rng.randrange(n), rng.choice((1, -1)))
                 for _ in range(rng.randrange(max_len)))


class TestParsing:
    def test_free_group(self):
        P = parse_presentation("<x | >")
        assert P.num_generators == 1 and P.num_relators == 0

    def test_torus(self):
        P = parse_presentation("<x,y,z | [x,y], [x,z], [y,z]>")
        assert P.num_generators == 3 and P.num_relators == 3
        assert P.relators[0] == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_trefoil_word(self):
        P = parse_presentation("<x,y | x*y*x*Y*X*Y>")
        assert len(P.relators[0]) == 6

    def test_powers_and_sugar(self):
        P = parse_presentation("<x, y | x^3, (x*y)^-2, 1>")
        assert P.relators[0] == ((0, 1),) * 3
        assert P.relators[1] == inverse_word(((0, 1), (1, 1)) * 2)
        assert P.relators[2] == ()

    def test_comments_and_roundtrip(self):
        text = "# the 3-torus\n<x, y, z |\n  [x,y],  # commutators\n  [x,z], [y,z]>"
        P = parse_presentation(text)
        assert parse_presentation(str(P)) == P

    def test_multichar_names(self):
        P = parse_presentation("<x1, x2, h | h*x1*H*(x1^3*x2)^-1>")
        assert P.generator_names == ("x1", "x2", "h")
        assert parse_presentation(str(P)) == P

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("<x, y | x*w*y>")
        assert "w" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("<x, y  x*y>")
        assert err.value.position is not None

    def test_duplicate_names(self):
        with pytest.raises(ParseError):
            parse_presentation("<x, x | >")

    @pytest.mark.parametrize("name", ["", "1x", "X", "xY", "a-b", "\u00e9",
                                      "x\u00e9", "x\n", "x "])
    def test_bad_generator_names(self, name):
        with pytest.raises(ValueError):
            Presentation(("a", name), ())

    def test_generated_cover_names(self):
        P = Presentation(("x", "x_0", "b12_345", "z9"), ())
        assert P.generator_names == ("x", "x_0", "b12_345", "z9")

    @pytest.mark.parametrize("text", ["<x | x^2000000>",
                                      "<x | x^600000*x^600000>"])
    def test_word_too_long(self, text):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert "too long" in str(err.value)


class TestWords:
    def test_cancellation(self):
        assert reduce_word(((0, 1), (0, -1))) == ()
        assert reduce_word(((0, 1), (1, 1), (1, -1), (0, 1))) == \
            ((0, 1), (0, 1))

    def test_idempotent(self):
        rng = random.Random(0)
        for _ in range(50):
            w = tuple((rng.randrange(3), rng.choice((1, -1)))
                      for _ in range(rng.randrange(12)))
            r = reduce_word(w)
            assert reduce_word(r) == r
            assert reduce_word(r + inverse_word(r)) == ()

    def test_power_and_concat_match_letterwise(self):
        def letterwise(letters):
            out = []
            for g, s in letters:
                if out and out[-1] == (g, -s):
                    out.pop()
                else:
                    out.append((g, s))
            return tuple(out)

        rng = random.Random(7)
        for _ in range(200):
            words = [random_word(rng, 3, 8) for _ in range(rng.randint(0, 4))]
            assert concat(*words) == letterwise(sum(words, ()))
            w, n = words[0] if words else (), rng.randint(-5, 5)
            base = w if n >= 0 else tuple((g, -s) for g, s in reversed(w))
            assert word_power(w, n) == letterwise(base * abs(n))


class TestSmith:
    def test_diag_2_3(self):
        # gcd-of-minors oracle: d1 = gcd(2,3) = 1, d1*d2 = |det| = 6
        A = [[2, 0], [0, 3]]
        assert smith_factors_oracle(A) == (1, 6)
        assert smith_normal_form(A).invariant_factors == (1, 6)

    def test_identity(self):
        snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert snf.invariant_factors == (1, 1, 1)
        assert snf.diagonal == (1, 1, 1)

    def test_2x2_example(self):
        A = [[2, 4], [6, 8]]
        assert smith_factors_oracle(A) == (2, 4)
        assert smith_normal_form(A).invariant_factors == (2, 4)

    def test_empty_and_zero(self):
        assert smith_normal_form([]).diagonal == ()
        assert smith_normal_form([[0, 0], [0, 0]]).invariant_factors == ()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_against_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(A)
            assert snf.invariant_factors == smith_factors_oracle(A)
            # U is unimodular and row i of U A lies in d_i Z^n (zero where
            # d_i = 0 or past the diagonal): the property abelianize and
            # mod_p_cover read U for
            assert abs(int_det(snf.U)) == 1
            diag = snf.diagonal
            for i in range(m):
                row = [sum(snf.U[i][k] * A[k][j] for k in range(m))
                       for j in range(n)]
                d = diag[i] if i < len(diag) else 0
                assert all(x % d == 0 if d else x == 0 for x in row)
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and (b % a == 0 if a else b == 0)


class TestSmithInvariants:
    def test_small_cases(self):
        assert smith_invariants([]) == ()
        assert smith_invariants([[], []]) == ()
        assert smith_invariants([[0, 0], [0, 0]]) == ()
        assert smith_invariants([[2, 0], [0, 3]]) == (1, 6)
        assert smith_invariants([[1, 2], [3, 4]]) == (1, 2)
        # dict rows: columns by key, zero entries allowed
        assert smith_invariants([{5: 2, 9: 0}, {9: 3}, {}]) == (1, 6)

    def test_random_matches_dense_smith(self, monkeypatch):
        """Sparse unit elimination against the dense Smith form, which
        stays the reference; the remainder handed to the dense form is
        recorded to count the cases that pivot and leave something."""
        remainders = []

        def spy(A):
            # the tail is handed over with no more rows than columns
            assert len(A) <= len(A[0])
            snf = smith_normal_form(A)
            remainders.append(snf.invariant_factors)
            return snf
        monkeypatch.setattr(presentation, "smith_normal_form", spy)
        rng = random.Random(5)
        seen = {"pivots and remainder": 0, "factor > 1": 0,
                "nonzero, no unit entry": 0, "zero row or column": 0}
        for _ in range(1200):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            density = rng.random()
            pool = rng.choice(((1, -1, 2, -2, 3, -5, 7), (2, -2, 3, -5, 7)))
            A = [[rng.choice(pool) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(m)]
            remainders.clear()
            got = smith_invariants(A)
            assert got == smith_normal_form(A).invariant_factors
            assert smith_invariants([{j: x for j, x in enumerate(row) if x}
                                     for row in A]) == got
            entries = [x for row in A for x in row]
            if remainders and len(got) > len(remainders[0]):
                seen["pivots and remainder"] += 1
            if any(d > 1 for d in got):
                seen["factor > 1"] += 1
            if any(entries) and not any(abs(x) == 1 for x in entries):
                seen["nonzero, no unit entry"] += 1
            if any(not any(row) for row in A) or \
                    any(not any(col) for col in zip(*A)):
                seen["zero row or column"] += 1
        assert min(seen.values()) >= 50, seen


class TestSmithTail:
    """A leftover block of one row, or 2 x 2, gets its invariant factors
    from the gcd of its entries and its determinant, with no dense Smith
    form; the dense form of the same block stays the oracle."""

    @staticmethod
    def tail_of(A, monkeypatch):
        """smith_invariants(A), the unit pivots and the leftover block,
        failing if the dense form was called."""
        def refuse(block):
            raise AssertionError("dense Smith form on %r" % (block,))
        monkeypatch.setattr(presentation, "smith_normal_form", refuse)
        got = smith_invariants(A)
        monkeypatch.undo()
        pivots, rest = presentation._eliminate_units(A, {1, -1}.__contains__,
                                                     int)
        live = sorted({c for row in rest for c in row})
        return got, pivots, [[row.get(c, 0) for c in live] for row in rest]

    @staticmethod
    def entry(rng, bits):
        """A nonzero entry other than +-1, of up to ``bits`` bits."""
        return rng.choice((1, -1)) * (2 + rng.getrandbits(bits))

    def test_random_blocks(self, monkeypatch):
        rng = random.Random(25)
        seen = {"1 x k": 0, "k x 1": 0, "2 x 2": 0, "det 0": 0,
                "zero entry": 0, "over 10,000 bits": 0}
        for case in range(400):
            bits = 10_050 if case % 20 == 0 else rng.choice((2, 4, 8, 40))

            def draw():
                return 0 if rng.random() < 0.2 else self.entry(rng, bits)
            shape = rng.choice(("1 x k", "k x 1", "2 x 2", "det 0"))
            if shape == "1 x k":
                A = [[draw() for _ in range(rng.randint(1, 6))]]
            elif shape == "k x 1":
                A = [[draw()] for _ in range(rng.randint(2, 6))]
            elif shape == "2 x 2":
                A = [[draw(), draw()], [draw(), draw()]]
            else:  # both rows multiples of one vector
                v, a, b = [draw(), draw()], draw(), draw()
                A = [[a * x for x in v], [b * x for x in v]]
            got, pivots, block = self.tail_of(A, monkeypatch)
            assert not pivots
            assert got == smith_normal_form(A).invariant_factors
            seen[shape] += 1
            seen["zero entry"] += any(0 in row for row in A)
            seen["over 10,000 bits"] += max(
                abs(x) for row in A for x in row).bit_length() > 10_000
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("name, primes, shape", [
        ("mapping-torus-A", (31,), (2, 2)), ("mapping-torus-A", (61,), (2, 2)),
        ("mapping-torus-A", (127,), (2, 2)),
        ("mapping-torus-fib", (31,), (2, 2)),
        ("mapping-torus-fib", (61,), (2, 2)),
        ("mapping-torus-fib", (127,), (2, 2)),
        ("heisenberg", (7, 7), (1, 1)), ("heisenberg", (11, 11), (1, 1))])
    def test_cover_torsion_tails(self, monkeypatch, name, primes, shape):
        """The tails of the covers whose H1 the torsion benchmark takes:
        the torsion check's Tietze-reduced cyclic covers of the mapping
        tori, and the heisenberg covers as given."""
        cm = free_abelian_cover(corpus.get(name).presentation, primes)
        if len(primes) == 1:
            cm = tietze_reduced(cm)
        rows = reidemeister_schreier(cm, max_index=127).exponent_rows()
        got, pivots, block = self.tail_of(rows, monkeypatch)
        assert (len(block), len(block[0])) == shape
        assert got == ((1,) * len(pivots)
                       + smith_normal_form(block).invariant_factors)


class TestEliminateUnits:
    """The heap kernel against the full rescan of every unit at every
    step: the same pivots in the same order and the same rows left, over
    Z and over F_7 and F_11, as its callers use it."""

    RINGS = [({1, -1}.__contains__, int, None)] + [
        (bool, lambda s, p=p: pow(s, -1, p), p) for p in (7, 11)]

    @staticmethod
    def random_rows(rng, values=(1, -1, 2, -2), size=10):
        """A sparse matrix with entries drawn from ``values``, at most
        ``size`` square; some rows copy an earlier row with an entry or two
        redrawn, so that eliminating one against the other cancels, and the
        rest fill in."""
        m, n = rng.randint(2, size), rng.randint(2, size)
        density = rng.uniform(0.2, 0.6)

        def draw():
            return rng.choice(values) if rng.random() < density else 0
        rows = []
        for _ in range(m):
            if rows and rng.random() < 0.3:
                row = list(rng.choice(rows))
                for _ in range(rng.randint(1, 2)):
                    row[rng.randrange(n)] = draw()
            else:
                row = [draw() for _ in range(n)]
            rows.append(row)
        return rows

    def cases(self):
        for name, primes in [("heisenberg", (7, 7)), ("heisenberg", (11, 11)),
                             ("heisenberg", (13, 13)), ("t3", (5, 5, 5)),
                             ("t3", (7, 7, 7)), ("mapping-torus-A", (31,)),
                             ("mapping-torus-A", (127,))]:
            cp = reidemeister_schreier(
                free_abelian_cover(corpus.get(name).presentation, primes),
                max_index=343)
            rows = cp.presentation.exponent_rows()
            for ring in self.RINGS:
                yield rows, ring
        rng = random.Random(11)
        for _ in range(240):
            yield self.random_rows(rng), self.RINGS[0]
        # mostly non-units: a row can gain its first unit in the same step
        # that fills it in, in a column that does not end shorter
        rng = random.Random(15)
        for _ in range(400):
            yield self.random_rows(rng, (1, -1) + (2, -2, 3, -3) * 2,
                                   12), self.RINGS[0]
        # Row 4's units are in columns 0 (4 rows) and 2 (3 rows).  The
        # first pivot, row 2 at column 4, fills column 2 into rows 0, 1 and
        # 3: it grows to 5 rows.  The second, row 5 at column 3, takes row
        # 5 out of it, down to 4.  Row 4 pivots third, at column 0: the
        # counts tie at 4 and the first column wins.  A row that kept the
        # column count of its units from the start would take column 2.
        yield [[3, 0, 0, 1, -1],
               [3, 0, 0, 1, -1],
               [0, 0, -3, 0, 1],
               [-3, 0, 0, 1, 1],
               [1, 3, 1, 0, 0],
               [0, 0, 1, -1, -3]], self.RINGS[0]
        # larger matrices, where row lengths change at most steps
        rng = random.Random(16)
        for _ in range(600):
            rows = self.random_rows(rng, (1, -1, 2, -2, 3, -3), 16)
            for ring in self.RINGS:
                yield rows, ring

    def test_same_pivots_and_rows_as_rescan(self):
        several = 0
        for rows, (is_unit, inverse, modulus) in self.cases():
            got = presentation._eliminate_units(rows, is_unit, inverse,
                                                modulus)
            assert got == rescan_eliminate(rows, is_unit, inverse, modulus)
            several += len(got[0]) >= 3
        assert several >= 50


class TestAbelianize:
    def test_torus(self):
        ab = abelianize(parse_presentation("<x,y,z | [x,y], [x,z], [y,z]>"))
        assert (ab.rank, ab.torsion) == (3, ())

    def test_heisenberg(self):
        ab = abelianize(parse_presentation(
            "<x, y, z | Z*[x,y], [x,z], [y,z]>"))
        assert (ab.rank, ab.torsion) == (2, ())

    def test_torsion(self):
        ab = abelianize(parse_presentation("<x, y | x^2, y^6>"))
        assert (ab.rank, ab.torsion) == (0, (2, 6))
        assert ab.torsion_images == ((1, 0), (0, 1))

    def test_torsion_images_kill_relators(self):
        """Under the images in the Z/d_i, reduced mod d_i, the exponent
        sums of every relator vanish in each Z/d_i."""
        rng = random.Random(7)
        cases = 0
        for _ in range(400):
            P = random_power_presentation(rng)
            ab = abelianize(P)
            assert len(ab.torsion_images) == P.num_generators
            for img in ab.torsion_images:
                assert len(img) == len(ab.torsion)
                assert all(0 <= x < d for x, d in zip(img, ab.torsion))
            for rel in P.relators:
                for k, d in enumerate(ab.torsion):
                    assert sum(s * ab.torsion_images[g][k]
                               for g, s in rel) % d == 0
            cases += bool(ab.torsion)
        assert cases >= 100

    def test_images_kill_relators(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            gens = ", ".join("g%d" % i for i in range(n))
            words = []
            for _ in range(rng.randint(0, 3)):
                w = "*".join(
                    rng.choice(["g%d" % rng.randrange(n),
                                "G%d" % rng.randrange(n)])
                    for _ in range(rng.randint(1, 6)))
                words.append(w)
            P = parse_presentation("<%s | %s>" % (gens, ", ".join(words)))
            ab = abelianize(P)
            mat = exponent_matrix(P)
            for j in range(P.num_relators):
                image = [sum(mat[g][j] * ab.gen_images[g][i]
                             for g in range(n)) for i in range(ab.rank)]
                assert all(v == 0 for v in image)

    def test_tietze_invariance(self):
        base = parse_presentation("<x, y, h | [x,y], h*x*H*(x*x*y)^-1>")
        ab = abelianize(base)
        # add a consequence relator: a conjugate of r0 times r1
        r0, r1 = base.relators
        w = ((2, 1), (0, -1))
        conseq = reduce_word(w + r0 + inverse_word(w) + r1)
        bigger = Presentation(base.generator_names, base.relators + (conseq,))
        ab2 = abelianize(bigger)
        assert (ab2.rank, ab2.torsion) == (ab.rank, ab.torsion)
        # add a generator with a defining relator g = x*y
        extended = Presentation(
            base.generator_names + ("g",),
            base.relators + (((3, 1), (0, -1), (1, -1)),))
        ab3 = abelianize(extended)
        assert (ab3.rank, ab3.torsion) == (ab.rank, ab.torsion)


class TestModPRank:
    def test_simple(self):
        assert mod_p_rank([[2, 2, 0], [1, 0, 0]], 2) == 1
        assert mod_p_rank([[2, 2, 0], [1, 0, 0]], 3) == 2
        assert mod_p_rank([], 5) == 0

    def test_random_matches_dense_oracle(self):
        """The sparse unit elimination against dense Gauss-Jordan, on
        list and dict rows; entries include nonzero multiples of p."""
        rng = random.Random(11)
        seen = {"rank-deficient": 0, "full rank": 0,
                "zero row or column": 0, "nonzero entry 0 mod p": 0}
        for _ in range(1200):
            m, n = rng.randint(0, 12), rng.randint(0, 12)
            p = rng.choice((2, 3, 5, 7, 251))
            density = rng.random()
            pool = (1, -1, 2, 3, -4, 5, 6, p, -p, 2 * p, p + 1, 1 - p)
            A = [[rng.choice(pool) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(m)]
            rank = dense_mod_p_rank(A, p)
            assert mod_p_rank(A, p) == rank
            assert mod_p_rank([{j: x for j, x in enumerate(row) if x}
                               for row in A], p) == rank
            seen["rank-deficient" if rank < min(m, n) else "full rank"] += 1
            if any(not any(row) for row in A) or \
                    any(not any(col) for col in zip(*A)):
                seen["zero row or column"] += 1
            if any(x and x % p == 0 for row in A for x in row):
                seen["nonzero entry 0 mod p"] += 1
        assert min(seen.values()) >= 50, seen


class TestFoxCalculus:
    def test_commutator(self):
        P = parse_presentation("<x, y | [x,y]>")
        d = fox_derivative(P.relators[0], 0)
        # 1 - x y x^-1, by hand from the product rule
        assert d.terms == {(): 1, ((0, 1), (1, 1), (0, -1)): -1}

    def test_cube(self):
        d = fox_derivative(((0, 1),) * 3, 0)
        assert d.terms == {(): 1, ((0, 1),): 1, ((0, 1), (0, 1)): 1}

    def test_other_generator(self):
        assert fox_derivative(((1, 1),), 0).is_zero()

    def test_inverse_rule(self):
        d = fox_derivative(((0, -1),), 0)
        assert d.terms == {((0, -1),): -1}

    def test_fundamental_identity(self):
        # sum_j d(w)/d(x_j) * (x_j - 1) == w - 1 in the free group ring
        rng = random.Random(6)
        one = FreeGroupRingElement.from_word(())
        for _ in range(60):
            n = rng.randint(1, 4)
            w = reduce_word(tuple((rng.randrange(n), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(13))))
            total = FreeGroupRingElement()
            for j in range(n):
                xj = FreeGroupRingElement.from_word(((j, 1),))
                total = total + fox_derivative(w, j) * (xj - one)
            assert total == FreeGroupRingElement.from_word(w) - one


class TestFoxMatrix:
    def test_z2(self):
        rows = fox_matrix(parse_presentation("<x,y | [x,y]>"))
        assert {j: str(e) for j, e in rows[0].items()} == \
            {0: "-t2 + 1", 1: "t1 - 1"}

    def test_trefoil_entry(self):
        rows = fox_matrix(parse_presentation("<x,y | x*y*x*Y*X*Y>"))
        assert rows[0][0] == parse_poly("1 - t + t^2", 1)

    def test_free_group_empty(self):
        rows = fox_matrix(parse_presentation("<x | >"))
        assert rows == ()

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            fox_matrix(parse_presentation("<x | x>"))

    @staticmethod
    def reference(P, ab):
        """Fox derivatives in Z[F], abelianized one word at a time."""
        rows = []
        for rel in P.relators:
            row = []
            for j in range(P.num_generators):
                terms = {}
                for word, coeff in fox_derivative(rel, j).terms.items():
                    exps = tuple(sum(s * ab.gen_images[g][i] for g, s in word)
                                 for i in range(ab.rank))
                    terms[exps] = terms.get(exps, 0) + coeff
                row.append(LaurentPoly(ab.rank, terms))
            rows.append(tuple(row))
        return tuple(rows)

    @staticmethod
    def densified(P, ab):
        """The sparse rows with their zero entries filled in, after checking
        that each row holds only nonzero entries, in ascending order."""
        rows = fox_matrix(P, ab)
        for row in rows:
            assert list(row) == sorted(row) and all(row.values())
        return dense_fox_matrix(P, ab).rows

    @pytest.mark.parametrize("name", corpus.names())
    def test_corpus_matches_free_calculus(self, name):
        P = corpus.get(name).presentation
        ab = abelianize(P)
        assert self.densified(P, ab) == self.reference(P, ab)

    def test_random_matches_free_calculus(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 4)
            relators = [random_word(rng, n, 16)
                        for _ in range(rng.randint(1, n - 1))]
            P = Presentation(tuple("g%d" % i for i in range(n)), relators)
            ab = abelianize(P)
            assert self.densified(P, ab) == self.reference(P, ab)
            # entries skip the validating constructor, so terms that
            # cancel after abelianization must be gone already
            for row in fox_matrix(P, ab):
                for entry in row.values():
                    assert_well_formed(entry)

    def test_cover_rows_hold_only_nonzeros(self):
        # the index-127 cyclic cover of mapping-torus-A: 381 relators on
        # 255 generators, 97,155 dense entries of which 762 are nonzero
        cm = free_abelian_cover(corpus.get("mapping-torus-A").presentation,
                                (127,))
        P = reidemeister_schreier(cm).presentation
        rows = fox_matrix(P)
        assert (P.num_relators, P.num_generators) == (381, 255)
        assert sum(map(len, rows)) == 762


class TestTietzeReduce:
    """Tietze eliminations by the fixed rule: shortest relator holding a
    generator once, lowest such generator, no move past 3/2 the length."""

    @staticmethod
    def length(P):
        return sum(map(len, P.relators))

    def test_corpus(self):
        reduced = {
            "heisenberg": ("<x, y | x*y*X*Y*X*y*x*Y, y*x*y*X*Y*x*Y*X>",
                           (0, 1)),
            "mapping-torus-A": ("<x1, h | h*x1*H*X1*h*X1*H*x1, "
                                "h*X1*X1*X1*h*x1*H*X1*H*x1>", (0, 2)),
            "mapping-torus-fib": ("<x2, h | h*x2*H*x2*h*X2*H*X2, "
                                  "h*x2*H*X2*X2*H*x2*h*X2>", (1, 2))}
        lengths = {"heisenberg": (13, 16), "mapping-torus-A": (17, 18),
                   "mapping-torus-fib": (15, 17)}
        for entry in corpus.entries():
            P = entry.presentation
            Q, kept = presentation.tietze_reduce(P)
            if entry.name in reduced:
                assert (str(Q), kept) == reduced[entry.name]
                assert (self.length(P), self.length(Q)) == \
                    lengths[entry.name]
            else:  # t3 and the free groups: no generator occurs once
                assert Q is P and kept == tuple(range(P.num_generators))

    @pytest.mark.parametrize("text, want, kept", [
        # y = 1 empties [x, y], which is dropped
        ("<x, y | y, [x,y]>", "<x | >", (0,)),
        # the shorter relator c*a*B*a holds b and c once: b = a*c*a goes
        ("<a, b, c | a*b*c*a*b, c*a*B*a>", "<a, c | a*a*c*a*c*a*a*c*a>",
         (0, 2)),
        # X*y*x*x reduces cyclically to y*x, which holds x once
        ("<x, y | X*y*x*x>", "<y | >", (1,)),
    ])
    def test_rule(self, text, want, kept):
        Q, got = presentation.tietze_reduce(parse_presentation(text))
        assert (str(Q), got) == (want, kept)

    def test_expand_limit(self):
        # y = x^5 would turn y^4*x^3 into x^23: 23 letters against 3/2 of
        # the input's 13
        P = parse_presentation("<x, y | y*X^5, y^4*x^3>")
        assert presentation.tietze_reduce(P) == (P, (0, 1))

    def test_random_presentations(self):
        rng = random.Random(20)
        moved = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            P = Presentation(tuple("g%d" % i for i in range(n)),
                             [random_word(rng, n, 9)
                              for _ in range(rng.randint(0, 4))])
            Q, kept = presentation.tietze_reduce(P)
            moved += Q is not P
            a, b = abelianize(P), abelianize(Q)
            assert (a.rank, a.torsion) == (b.rank, b.torsion)
            assert Q.generator_names == tuple(P.generator_names[g]
                                              for g in kept)
            start = sum(len(presentation.cyclic_reduce(r))
                        for r in P.relators)
            assert 2 * self.length(Q) <= 3 * start
            assert all(presentation.cyclic_reduce(r) == r
                       for r in Q.relators) or Q is P
        assert moved >= 150


@st.composite
def presentations(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
                          min_size=1, max_size=4, unique=True))
    letter = st.tuples(st.integers(0, len(names) - 1), st.sampled_from((1, -1)))
    return Presentation(tuple(names), draw(st.lists(
        st.lists(letter, max_size=6).map(tuple), max_size=4)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_print_parse_roundtrip_property(P):
    assert parse_presentation(str(P)) == P
