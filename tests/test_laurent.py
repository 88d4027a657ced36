import doctest
import math
import random
import sys
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alexinv.cyclotomic
import alexinv.laurent
from alexinv import alexander_polynomial, parse_presentation
from alexinv.laurent import (LaurentPoly, MonomialUnit, ParseError, Symmetry,
                             classify_symmetry, divide_exact, format_poly,
                             gcd, gcd_list, involution, normalize, parse_poly,
                             root_of_unity_norm, trace)
from alexinv.cyclotomic import cyclotomic_norm, galois_orbits
from conftest import (assert_well_formed, classify_symmetry_oracle,
                      format_poly_oracle, group_ring_norm, int_det, mat_pow,
                      pack_per_term, prs_fallbacks, unit_quotient)

t = LaurentPoly.variable(0, 1)


def two_vars():
    return LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)


def random_poly(rng, arity=1, span=3, terms=4):
    return LaurentPoly(arity, {
        tuple(rng.randint(-span, span) for _ in range(arity)):
            rng.randint(-4, 4)
        for _ in range(rng.randint(1, terms))})


def prs_gcd(f, g):
    """The primitive PRS alone, normalized as gcd returns it."""
    L = alexinv.laurent
    n = f.arity
    return normalize(LaurentPoly(n, L._dict_gcd(L._monic_shift(f),
                                                L._monic_shift(g), n)))


@st.composite
def laurent_polys(draw, arity=None, min_terms=0):
    """Polynomials in 1-3 variables with negative exponents and
    coefficients."""
    if arity is None:
        arity = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * arity)
    return LaurentPoly(arity, draw(st.dictionaries(
        exps, st.integers(-30, 30), min_size=min_terms, max_size=6)))


def test_doctests():
    failures, _ = doctest.testmod(alexinv.laurent)
    assert failures == 0


class TestConstruction:
    def test_public_constructor_validates(self):
        with pytest.raises(ValueError, match="length 1, expected 2"):
            LaurentPoly(2, {(1,): 1})
        with pytest.raises(ValueError, match="length 2, expected 1"):
            LaurentPoly(1, {(0,): 1, (1, 0): 1})
        with pytest.raises(ValueError):
            LaurentPoly(0, {})
        f = LaurentPoly(2, {(1, 0): 0, (0, 1): 3, (2, 2): 0})
        assert dict(f.terms) == {(0, 1): 3}
        assert LaurentPoly(1, {(4,): 0}).is_zero()

    def test_zero_shift_is_free(self):
        t1, t2 = two_vars()
        f = t1 ** 3 - 2 * t2 ** -1
        assert f.shift((0, 0)) is f
        g = normalize(t ** -2 + 1)
        assert normalize(g) is g
        assert f.shift((1, -1)) == t1 * f * t2 ** -1
        with pytest.raises(ValueError, match="length 1, expected 2"):
            f.shift((1,))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    laurent_polys(n), laurent_polys(n),
    st.tuples(*[st.integers(-3, 3)] * n), st.integers(1, 3))))
def test_results_are_well_formed(case):
    # every operation builds its result without the validating
    # constructor, so check that result against what it would have made
    f, g, v, k = case
    unit = LaurentPoly.monomial(-1, v)
    results = [f + g, f - g, f - f, f + 2, 3 - f, f * g, f * 0, -f,
               f ** k, f ** 0, unit ** -k, f.shift(v), involution(f),
               normalize(f), normalize(f * unit), gcd(f, g), gcd(f * g, g),
               gcd(f, LaurentPoly.zero(f.arity))]
    if not g.is_zero():
        results.append(divide_exact(f * g, g))
        results.append(divide_exact(f * g * unit, g * g))
    for r in results:
        if r is not None:
            assert_well_formed(r)
    # equal values hash alike; f ** 0 and f * 0 are constants equal to ints
    values = [r for r in results if r is not None] + [0, 1, -1, 2, k]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


class TestMultiply:
    def test_difference_of_squares(self):
        assert (t - 1) * (t + 1) == t ** 2 - 1

    def test_identity(self):
        rng = random.Random(1)
        one = LaurentPoly.one(1)
        for _ in range(10):
            f = random_poly(rng)
            assert f * one == f

    def test_two_variable(self):
        t1, t2 = two_vars()
        assert (t1 + t2) * (t1 - t2) == t1 ** 2 - t2 ** 2

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            t * LaurentPoly.one(2)

    def test_zero_prunes(self):
        f = t + 1
        g = t - 1
        assert (f + g).terms == {(1,): 2}
        assert (f - f).is_zero()


class TestInvolution:
    def test_variable(self):
        assert involution(t) == t ** -1

    def test_example(self):
        assert involution(t ** 2 - 4 * t + 1) == t ** -2 - 4 * t ** -1 + 1

    def test_involutive_and_multiplicative(self):
        rng = random.Random(2)
        for _ in range(25):
            f = random_poly(rng, arity=rng.randint(1, 3))
            g = random_poly(rng, arity=f.arity)
            assert involution(involution(f)) == f
            assert involution(f * g) == involution(f) * involution(g)


class TestTrace:
    def test_values(self):
        assert trace(t ** 2 + t + 1) == 3
        assert trace(t - 1) == 0
        assert trace(t ** 2 - 4 * t + 1) == -2

    def test_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_poly(rng, arity=rng.randint(1, 2))
            g = random_poly(rng, arity=f.arity)
            assert trace(f * g) == trace(f) * trace(g)
            assert trace(f + g) == trace(f) + trace(g)


class TestNormalize:
    def test_shift(self):
        assert normalize(t ** -1 - 4 + t) == t ** 2 - 4 * t + 1

    def test_unit_orbit_of_unit(self):
        t1, t2 = two_vars()
        assert normalize(-t1 * t2) == LaurentPoly.one(2)

    def test_orbit_constancy(self):
        rng = random.Random(4)
        for _ in range(30):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity=arity)
            if f.is_zero():
                continue
            shift = tuple(rng.randint(-3, 3) for _ in range(arity))
            sign = rng.choice((1, -1))
            assert normalize(sign * f.shift(shift)) == normalize(f)
            # idempotent, and the result is certified to be in the orbit
            assert normalize(normalize(f)) == normalize(f)
            assert unit_quotient(f, normalize(f)) is not None

    def test_zero_unchanged(self):
        assert normalize(LaurentPoly.zero(2)).is_zero()


class TestClassifySymmetry:
    def test_unit_symmetric_not_symmetric(self):
        cls = classify_symmetry(t ** 2 + t + 1)
        assert cls.kind == Symmetry.UNIT_SYMMETRIC
        assert cls.witness == MonomialUnit(1, (-1,))

    def test_mod_unit_symmetric_not_unit(self):
        cls = classify_symmetry(t - 1)
        assert cls.kind == Symmetry.MOD_UNIT_SYMMETRIC
        # iota(f) == -t^-1 * f
        assert cls.witness.sign == -1
        assert involution(t - 1) == cls.witness.as_poly() * (t - 1)

    def test_symmetric(self):
        assert classify_symmetry(t + t ** -1).kind == Symmetry.SYMMETRIC

    def test_asymmetric(self):
        assert classify_symmetry(t ** 2 - t + 2).kind == Symmetry.ASYMMETRIC

    def test_witness_identities(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng, arity=rng.randint(1, 2))
            if f.is_zero():
                continue
            cls = classify_symmetry(f)
            u = cls.witness.as_poly(f.arity) if cls.witness else None
            if cls.kind == Symmetry.SYMMETRIC:
                assert involution(f) == f
            elif cls.kind == Symmetry.UNIT_SYMMETRIC:
                assert involution(u * f) == u * f
            elif cls.kind == Symmetry.MOD_UNIT_SYMMETRIC:
                assert involution(f) == u * f

    def test_product_with_involution_is_symmetric(self):
        rng = random.Random(6)
        for _ in range(20):
            f = random_poly(rng, arity=rng.randint(1, 3))
            if f.is_zero():
                continue
            cls = classify_symmetry(f * involution(f))
            assert cls.kind.at_least(Symmetry.UNIT_SYMMETRIC)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_symmetry(LaurentPoly.zero(1))

    def test_matches_oracle(self):
        # f itself is mostly asymmetric; f + iota(f) is symmetric, and its
        # shifts by t^(2k) and t are unit and mod unit symmetric; f - iota(f)
        # shifted gives the sign -1 witness
        rng = random.Random(22)
        kinds, negative = Counter(), 0
        for _ in range(600):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity, span=rng.randint(1, 4),
                            terms=rng.randint(1, 8))
            if f.is_zero():
                continue
            k = tuple(rng.randint(-3, 3) for _ in range(arity))
            sym, anti = f + involution(f), f - involution(f)
            for g in (f, sym, sym.shift(tuple(2 * x for x in k)),
                      sym.shift((1,) * arity), anti.shift(k)):
                if g.is_zero():
                    continue
                got, want = classify_symmetry(g), classify_symmetry_oracle(g)
                assert got == want, g
                kinds[got.kind] += 1
                negative += got.witness is not None and got.witness.sign < 0
        assert sum(kinds.values()) >= 2000
        assert min(kinds[kind] for kind in Symmetry) >= 100, kinds
        assert negative >= 50


class TestGcd:
    def test_common_factor(self):
        assert gcd(t - 1, t ** 2 - 1) == t - 1

    def test_two_variables(self):
        f = parse_poly("(t1 - 1)*(t2 + 1)", 2)
        g = parse_poly("(t1 - 1)*t2", 2)
        d = gcd(f, g)
        assert d == parse_poly("t1 - 1", 2)
        # certify by exact division of both arguments
        assert divide_exact(f, d) is not None
        assert divide_exact(g, d) is not None

    def test_zero_cases(self):
        zero = LaurentPoly.zero(1)
        assert gcd(t ** -1 - 4 + t, zero) == t ** 2 - 4 * t + 1
        assert gcd(zero, zero).is_zero()

    def test_constructed_instances(self):
        rng = random.Random(7)
        for _ in range(60):
            arity = rng.randint(1, 2)
            f = random_poly(rng, arity=arity, span=2, terms=3)
            g = random_poly(rng, arity=arity, span=2, terms=3)
            h = random_poly(rng, arity=arity, span=2, terms=3)
            if h.is_zero():
                continue
            d = gcd(f * h, g * h)
            if d.is_zero():
                assert (f * h).is_zero() and (g * h).is_zero()
                continue
            assert divide_exact(d, normalize(h)) is not None
            assert divide_exact(f * h, d) is not None
            assert divide_exact(g * h, d) is not None

    def test_gcd_list_shortcut(self):
        assert gcd_list([], 1).is_zero()
        assert gcd_list([t - 1, t + 1, LaurentPoly.zero(1)], 1).is_one()

    @staticmethod
    def general_pseudo_rem(f, g, n):
        """The pseudo-remainder loop that multiplies by the leading
        coefficient on every step, whatever it is."""
        L = alexinv.laurent
        dg = L._main_degree(g, n)
        lg = L._main_coeff(g, n, dg)
        r = dict(f)
        steps = L._main_degree(f, n) - dg + 1
        while r and L._main_degree(r, n) >= dg:
            dr = L._main_degree(r, n)
            lr = L._main_coeff(r, n, dr)
            r = L._dict_sub(L._dict_mul(lg, r),
                            L._dict_mul(L._attach_main(lr, n, dr - dg), g))
            steps -= 1
        for _ in range(steps):
            r = L._dict_mul(lg, r)
        return r

    def test_monic_pseudo_rem_matches_general_path(self):
        rng = random.Random(23)

        def dict_poly(arity, n, main_degree, terms):
            # exponents >= 0, zero past variable n, main degree below bound
            out = {}
            for _ in range(terms):
                e = [rng.randint(0, 3) if i < n - 1 else 0
                     for i in range(arity)]
                e[n - 1] = rng.randint(0, main_degree)
                out[tuple(e)] = out.get(tuple(e), 0) + rng.randint(-5, 5)
            return {e: c for e, c in out.items() if c}

        checked = 0
        for _ in range(200):
            arity = rng.randint(1, 3)
            n = rng.randint(1, arity)
            dg = rng.randint(1, 3)
            g = dict_poly(arity, n, dg - 1, rng.randint(0, 4))
            lead = (0,) * (n - 1) + (dg,) + (0,) * (arity - n)
            g[lead] = 1
            f = dict_poly(arity, n, rng.randint(0, 6), rng.randint(1, 6))
            if not f:
                continue
            r = alexinv.laurent._pseudo_rem(f, g, n)
            assert r == self.general_pseudo_rem(f, g, n)
            # monic: the plain remainder, of lower degree, f - r a multiple
            assert not r or alexinv.laurent._main_degree(r, n) < dg
            diff = LaurentPoly(arity, f) - LaurentPoly(arity, r)
            assert divide_exact(diff, LaurentPoly(arity, g)) is not None
            checked += 1
        assert checked > 150


class TestHeuristicGcd:
    def test_matches_prs_on_planted_factors(self):
        rng = random.Random(31)
        cases, groups = [], Counter()
        for i in range(480):
            arity = 1 + i % 3
            h, f, g = (random_poly(rng, arity=arity, span=2, terms=3)
                       for _ in range(3))
            kind = i // 3 % 4
            if kind == 1:
                f, g = 6 * f, -4 * g
            elif kind == 2:
                g = LaurentPoly.constant(rng.choice((-6, 2, 5, 12)), arity)
            elif kind == 3:
                h = LaurentPoly.one(arity)
            F, G = f * h, g * h
            if F.is_zero() or G.is_zero():
                continue
            want = prs_gcd(F, G)
            cases.append((F, G, want))
            groups["planted"] += want.degree_span() > 0
            groups["coprime"] += want.is_one()
            groups["contents"] += (math.gcd(*F.terms.values()) > 1
                                   and math.gcd(*G.terms.values()) > 1)
            groups["constant"] += len(F.terms) == 1 or len(G.terms) == 1
            groups["negative lead"] += (F.terms[max(F.terms)] < 0
                                        or G.terms[max(G.terms)] < 0)
        with prs_fallbacks() as fallbacks:
            for F, G, want in cases:
                assert gcd(F, G) == want
        assert fallbacks == [0]
        assert len(cases) >= 400
        assert min(groups[k] for k in ("planted", "coprime", "contents",
                                       "constant", "negative lead")) >= 30

    @pytest.mark.parametrize("cap", ["HEU_TRIES", "HEU_MAX_BITS"])
    def test_forced_fallback_gives_the_prs_answer(self, monkeypatch, cap):
        rng = random.Random(32)
        cases = []
        while len(cases) < 30:
            arity = rng.randint(1, 3)
            h, f, g = (random_poly(rng, arity=arity, span=2, terms=3)
                       for _ in range(3))
            F, G = f * h, g * h
            if len(F.terms) > 1 and len(G.terms) > 1:
                cases.append((F, G, prs_gcd(F, G)))
        monkeypatch.setattr(alexinv.laurent, cap, 0)
        with prs_fallbacks() as fallbacks:
            for F, G, want in cases:
                assert gcd(F, G) == want
        assert fallbacks == [len(cases)]

    def test_large_univariate_without_fallback(self):
        # Delta of <x, y | x^16001 * y^2>: the two Fox minors have degrees
        # near 32000, where the PRS takes over a minute
        k = 16001
        u = LaurentPoly.variable(0, 1)
        f = LaurentPoly(1, {(2 * i,): 1 for i in range(k)})
        with prs_fallbacks() as fallbacks:
            d = gcd(f, 1 + u ** k)
        assert d.terms == {(i,): (-1) ** i for i in range(k)}
        assert fallbacks == [0]


class TestPackedQuotient:
    def test_pack_matches_per_term_oracle(self):
        rng = random.Random(12)
        seen = Counter()
        for case in range(240):
            arity = rng.randint(1, 3)
            dims = [rng.randint(1, 6) for _ in range(arity)]
            strides, nslots = [], 1
            for d in dims:
                strides.append(nslots)
                nslots *= d
            box = list(product(*map(range, dims)))
            support = box if case % 2 else rng.sample(
                box, rng.randint(1, min(3, len(box))))
            bits = rng.choice((3, 12, 40))
            f = {e: rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
                 for e in support}
            height = max(abs(c) for c in f.values())
            width = 8 * (-(-(height.bit_length() + 1) // 8)
                         + rng.randint(0, 2))
            assert (alexinv.laurent._pack(f, strides, nslots, width)
                    == pack_per_term(f, strides, nslots, width))
            seen["arity %d" % arity] += 1
            seen["dense" if case % 2 else "sparse"] += 1
            seen["negative"] += min(f.values()) < 0
            seen["wide slots"] += width > 8
        assert min(seen.values()) >= 40, seen

    def test_unpack_reads_only_nonzero_slots(self):
        """_unpack inverts pack_per_term on sparse and dense boxes, with
        coefficients at both ends of the balanced slot range, at slot
        widths read through a typed view (1, 2, 4, 8 bytes) and slot by
        slot (3 and 9-16 bytes); it returns the degrees and height of
        what it unpacks, and refuses a value that needs more slots."""
        rng = random.Random(14)
        seen = Counter()
        for case in range(600):
            arity = rng.randint(1, 3)
            dims = [rng.randint(1, 6) for _ in range(arity)]
            strides, nslots = [], 1
            for d in dims:
                strides.append(nslots)
                nslots *= d
            nb = rng.choice((1, 2, 3, 4, 8, rng.randint(9, 16)))
            width = 8 * nb
            top = 1 << (width - 1)
            box = list(product(*map(range, dims)))
            support = box if case % 2 else rng.sample(
                box, rng.randint(0, min(3, len(box))))
            f = {e: rng.choice((-top, top - 1, -1, 1, rng.randint(-top, top)))
                 for e in support}
            f = {e: c for e, c in f.items() if c and -top <= c < top}
            v = pack_per_term(f, strides, nslots, width)
            q, degrees, height = alexinv.laurent._unpack(
                v, dims, nslots, width)
            assert q == f
            assert degrees == (alexinv.laurent._degrees(f) if f
                               else [0] * arity)
            assert height == max(map(abs, f.values()), default=0)
            assert alexinv.laurent._unpack(
                v + (1 << (width * nslots)), dims, nslots, width) is None
            seen["arity %d" % arity] += 1
            seen["dense" if case % 2 else "sparse"] += 1
            seen["%s bytes" % (nb if nb <= 8 else "9-16")] += 1
            seen["slot minimum"] += -top in f.values()
        assert min(seen.values()) >= 40, seen

    def test_long_division_agrees(self, monkeypatch):
        rng = random.Random(33)
        pairs = []
        for _ in range(60):
            arity = rng.randint(1, 3)
            f, g = (random_poly(rng, arity=arity, span=2) for _ in range(2))
            if not g.is_zero() and not g.is_unit():
                pairs.append((f * g, g))
                pairs.append((f * g + 1, g))
        packed = [divide_exact(a, b) for a, b in pairs]
        monkeypatch.setattr(alexinv.laurent, "PACK_MAX_BITS", 0)
        assert [divide_exact(a, b) for a, b in pairs] == packed
        assert all(q is not None for q in packed[::2])
        assert packed[1::2] == [None] * (len(pairs) // 2)

    def test_quotient_outgrowing_its_slots(self, monkeypatch):
        # (1 - t^10)^6 has height 20 and (1 - t)^6 has |g|_1 = 64, so the
        # slots hold 16 bits; the quotient (1 + t + ... + t^9)^6 has a
        # coefficient above 2^15, and long division has to give it
        g = (1 - t) ** 6
        q = sum((t ** i for i in range(10)), LaurentPoly.zero(1)) ** 6
        assert max(q.terms.values()) >= 2 ** 15
        long_division = alexinv.laurent._dict_div_exact
        calls = []

        def counting(a, b):
            calls.append(1)
            return long_division(a, b)

        monkeypatch.setattr(alexinv.laurent, "_dict_div_exact", counting)
        assert divide_exact(g * q, g) == q
        assert calls == [1]
        assert divide_exact(g * q + 1, g) is None
        assert calls == [1]

    def test_one_term_divisor_is_a_shift(self):
        """A one-term divisor c x^I against long division: exact
        quotients, a coefficient c does not divide, and a term below x^I."""
        L = alexinv.laurent
        rng = random.Random(29)
        seen = Counter()
        for case in range(300):
            arity = rng.randint(1, 3)
            c = rng.choice((1, -1)) * rng.randint(1, 4)
            exps = tuple(rng.randint(0, 2) for _ in range(arity))
            g = {exps: c}
            q = L._monic_shift(random_poly(rng, arity=arity, span=2)
                               or LaurentPoly.one(arity))
            f = L._dict_mul(q, g)
            kind = ("exact", "coefficient", "offset")[case % 3]
            if kind == "coefficient" and abs(c) > 1:
                e = rng.choice(list(f))
                f[e] += rng.choice((1, -1))
            elif kind == "offset" and any(exps):
                i = rng.choice([i for i, x in enumerate(exps) if x])
                e = tuple(x - (j == i) for j, x in enumerate(exps))
                f = L._dict_sub(f, {e: c})
            else:
                kind = "exact"
            got = L._dict_quotient(f, g)
            assert got == L._dict_div_exact(f, g)
            assert (got == q) if kind == "exact" else (got is None)
            seen[kind] += 1
            seen["c < 0"] += c < 0
        assert min(seen.values()) >= 50, seen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(laurent_polys(n), laurent_polys(n, min_terms=1))))
def test_divide_exact_properties(pair):
    f, g = pair
    assume(not g.is_zero())
    assert divide_exact(f * g, g) == f
    if not g.is_unit():
        assert divide_exact(f * g + 1, g) is None


class TestDivideExact:
    def test_non_divisible(self):
        assert divide_exact(t + 1, t - 1) is None
        assert divide_exact(2 * t, 3 * LaurentPoly.one(1)) is None

    def test_roundtrip(self):
        rng = random.Random(8)
        for _ in range(40):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity=arity, span=2)
            g = random_poly(rng, arity=arity, span=2)
            if g.is_zero():
                continue
            q = divide_exact(f * g, g)
            assert q == f

    def test_one_term_laurent_divisor(self):
        """divide_exact by c x^I in the Laurent ring is a shift, with
        exponents of either sign; c must divide every coefficient."""
        x, y = two_vars()
        f = 6 * x ** 3 * y ** -1 - 3 * y ** 2 + 9 * x ** -2
        assert divide_exact(f, 3 * x ** -1 * y) == \
            2 * x ** 4 * y ** -2 - x * y + 3 * x ** -1 * y ** -1
        for g in (-3 * y ** 2, -x ** 4, x ** -2 * y ** -3, -y ** 5):
            assert divide_exact(f, g) * g == f
        assert divide_exact(f + 1, -y ** 5) * -y ** 5 == f + 1
        assert divide_exact(f + 1, 3 * x) is None
        assert divide_exact(f, -2 * y) is None


class TestRootOfUnityNorm:
    def test_mapping_torus_value(self):
        # oracle: |det(A^3 - I)| for A = [[3, 2], [1, 1]]; the sign comes
        # from the factor at the trivial tuple, delta(1) = -2 < 0
        A = [[3, 2], [1, 1]]
        A3 = mat_pow(A, 3)
        oracle = int_det([[A3[0][0] - 1, A3[0][1]], [A3[1][0], A3[1][1] - 1]])
        assert abs(oracle) == 50
        assert root_of_unity_norm(t ** 2 - 4 * t + 1, [3]) == -50

    def test_one(self):
        assert root_of_unity_norm(LaurentPoly.one(2), [2, 3]) == 1

    def test_zero_at_one(self):
        assert root_of_unity_norm(t - 1, [2]) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            root_of_unity_norm(t, [2, 3])

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            root_of_unity_norm(t + 1, [4])

    def _brute_force(self, f, p):
        """Independent expansion in Z[x]/(x^p - 1) on dense lists; the
        integer value is read off from the constant coefficient after
        using 1 + x + ... + x^(p-1) == 0."""
        (lo,), _ = f.exponent_range()
        shifted = f.shift((-lo,))

        def img(e):
            out = [0] * p
            for (k,), c in shifted.terms.items():
                out[(k * e) % p] += c
            return out

        def mul(a, b):
            out = [0] * p
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[(i + j) % p] += x * y
            return out

        acc = [1] + [0] * (p - 1)
        for e in range(p):
            acc = mul(acc, img(e))
        assert len(set(acc[1:])) <= 1, "not a rational integer"
        value = acc[0] - (acc[1] if p > 1 else 0)
        # undo the unit shift: each variable shift multiplies the product
        # by the product of all p-th roots of unity raised to that shift
        sign = -1 if lo * (p + 1) % 2 else 1  # an int for negative lo
        return sign * value

    def test_against_brute_force(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_poly(rng, span=3)
            if f.is_zero():
                continue
            for p in (2, 3, 5):
                assert root_of_unity_norm(f, [p]) == self._brute_force(f, p)

    def test_against_resultant(self):
        # Res(x^p - 1, f~) over the polynomial part f~ of f, computed from
        # the Sylvester matrix; norm(f) = (-1)^(lo*(p+1)) * Res
        rng = random.Random(10)
        for _ in range(20):
            f = random_poly(rng, span=3)
            if f.is_zero():
                continue
            for p in (2, 3, 5):
                (lo,), (hi,) = f.exponent_range()
                coeffs = [f.terms.get((k,), 0) for k in range(lo, hi + 1)]
                d = len(coeffs) - 1
                if d == 0:
                    continue
                g = [-1] + [0] * (p - 1) + [1]  # x^p - 1, low to high
                size = p + d
                sylvester = []
                for i in range(d):
                    row = [0] * size
                    for k, c in enumerate(reversed(g)):
                        row[i + k] = c
                    sylvester.append(row)
                for i in range(p):
                    row = [0] * size
                    for k, c in enumerate(reversed(coeffs)):
                        row[i + k] = c
                    sylvester.append(row)
                res = int_det(sylvester)
                assert root_of_unity_norm(f, [p]) == \
                    (-1) ** (lo * (p + 1)) * res


def orbit_norm(f, p):
    """The Galois-orbit product in one variable, the path that arity >= 2
    keeps: one cyclotomic norm per orbit of characters of Z/p."""
    norm = 1
    for exps, m, _ in galois_orbits((p,)):
        a = [0] * m
        for (k,), c in f.terms.items():
            a[k * exps[0] * (m // p) % m] += c
        norm *= cyclotomic_norm(a, m)
    return norm


def sylvester_resultant(f, g):
    """Res(f, g) of integer lists (low to high) from the Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return int_det(rows)


class TestNormByPowering:
    """The one-variable norm by powering (t^p mod Delta, then one
    resultant) against the orbit product and the brute-force expansion."""

    PRIMES = (2, 3, 5, 7, 31, 127, 1009)

    @staticmethod
    def seeded_polys(rng, count):
        """Negative exponents, odd shifts, non-monic leading coefficients,
        contents, constants and 0; degree spans up to 10, so a few take
        the orbit path in root_of_unity_norm."""
        out = [LaurentPoly.zero(1), LaurentPoly.constant(-3, 1),
               LaurentPoly.constant(2, 1), t ** -3 * 5, t ** 7]
        while len(out) < count:
            f = random_poly(rng, span=rng.choice((2, 3, 4, 5)), terms=5)
            if rng.random() < 0.2:
                f = f * rng.choice((2, -3, 4))
            out.append(f.shift((rng.randint(-5, 5),)) if f.terms else f)
        return out

    @staticmethod
    def powered(f, p):
        """root_of_unity_norm, checked against _norm_by_powering itself
        where it is defined, past the degree that the public path powers."""
        norm = root_of_unity_norm(f, [p])
        if f.degree_span():
            assert alexinv.laurent._norm_by_powering(f, p) == norm, (f, p)
        return norm

    def test_against_orbit_product(self):
        """Every input at p <= 127, and every third at p = 1009, where the
        orbit product takes milliseconds."""
        rng = random.Random(31)
        polys = self.seeded_polys(rng, 600)
        kinds = Counter()
        for i, f in enumerate(polys):
            if f.terms:
                (lo,), (hi,) = f.exponent_range()
                kinds["negative"] += lo < 0
                kinds["odd shift"] += lo % 2
                kinds["non-monic"] += abs(f.terms[(hi,)]) != 1
                kinds["content"] += math.gcd(*f.terms.values()) > 1
                kinds["constant"] += lo == hi
                kinds["powered"] += 0 < hi - lo <= \
                    alexinv.laurent.POWER_MAX_DEGREE
                kinds["orbit path"] += hi - lo > \
                    alexinv.laurent.POWER_MAX_DEGREE
            for p in self.PRIMES[:6 if i % 3 else 7]:
                norm = self.powered(f, p)
                assert norm == orbit_norm(f, p), (f, p)
                kinds["nonzero"] += norm != 0
        assert len(polys) >= 600 and min(kinds.values()) >= 10, kinds
        assert kinds["powered"] >= 400, kinds

    def test_against_brute_force(self):
        rng = random.Random(32)
        brute = TestRootOfUnityNorm()._brute_force
        count = 0
        for f in self.seeded_polys(rng, 120):
            if f.terms:
                for p in (2, 3, 5, 7, 31):
                    assert self.powered(f, p) == brute(f, p), (f, p)
                    count += 1
        assert count >= 550

    def test_vanishing_factors(self):
        """A factor t - 1 or Phi_p vanishes at a p-th root of unity.  Past
        p = 7, f Phi_p is too long to power and reaches the orbit path."""
        rng = random.Random(33)
        count = 0
        phis = {p: LaurentPoly(1, {(k,): 1 for k in range(p)})
                for p in self.PRIMES}
        for f in self.seeded_polys(rng, 40)[1:]:
            for p, phi in phis.items():
                factors = (t - 1, phi, (t - 1) * phi) if p <= 7 else (t - 1,)
                for factor in factors:
                    assert self.powered(f * factor, p) == 0
                    count += 1
                if p <= 127:
                    assert root_of_unity_norm(f * phi, [p]) == 0
        assert count == 39 * (4 * 3 + 3)

    def test_resultant_of_any_first_argument(self):
        """The cyclotomic subresultant on a general first argument is the
        Sylvester resultant, 0 on a common factor, content included."""
        rng = random.Random(34)
        zeros = 0
        for _ in range(200):
            f = [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))]
            f[-1] = f[-1] or 3
            a = [rng.randint(-5, 5) for _ in range(rng.randint(1, len(f) - 1))]
            if rng.random() < 0.25:  # a common factor t - 2
                f = [x - 2 * y for x, y in zip([0] + f, f + [0])]
                a = [x - 2 * y for x, y in zip([0] + a, a + [0])]
            while len(a) > 1 and not a[-1]:
                a.pop()
            want = sylvester_resultant(f, a) if len(a) > 1 or a[0] else 0
            assert alexinv.cyclotomic._subresultant(f, a, False) == want
            zeros += want == 0
        assert zeros >= 40

    def test_time_at_16007(self):
        """2t^2 - 3t + 2 at p = 16007: the orbit product's _prem against
        Phi_p of degree 16006 took about 0.8 s."""
        f = parse_poly("2*t^2 - 3*t + 2", 1)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            norm = root_of_unity_norm(f, [16007])
            best = min(best, time.perf_counter() - start)
        assert norm == root_of_unity_norm(f * t ** 2, [16007]) != 0
        assert best < 0.02, best


NORM_PRIME_TUPLES = [(2,), (3,), (5,), (7,), (11,), (13,), (2, 2), (2, 3),
                     (3, 5), (5, 5), (7, 7), (2, 2, 2), (2, 3, 5), (3, 3, 3),
                     (5, 5, 5)]


class TestRootOfUnityNormDifferential:
    """The Galois-orbit norm against the product of all |G| images in the
    group ring (``conftest.group_ring_norm``)."""

    def test_against_group_ring_product(self):
        rng = random.Random(8)
        pairs = vanishing = nonzero = 0
        for primes in NORM_PRIME_TUPLES:
            n = len(primes)
            for i in range(45):
                if i % 9 == 0:
                    f = LaurentPoly.constant(rng.randint(-4, 4), n)
                else:
                    f = random_poly(rng, n, span=2)
                if i % 9 in (1, 2):
                    j = rng.randrange(n)
                    tj = LaurentPoly.variable(j, n)
                    if i % 9 == 1:
                        f = f * sum((tj ** k for k in range(1, primes[j])),
                                    LaurentPoly.one(n))
                    else:
                        f = f * (tj - 1)
                norm = root_of_unity_norm(f, primes)
                assert norm == group_ring_norm(f, primes), (f, primes)
                if i % 9 in (1, 2):
                    assert norm == 0
                    vanishing += 1
                pairs += 1
                nonzero += norm != 0
        assert pairs >= 600 and vanishing >= 50 and nonzero >= 300


class TestParsePrint:
    def test_spec_strings(self):
        assert parse_poly("t^2 - 4*t + 1", 1).terms == \
            {(2,): 1, (1,): -4, (0,): 1}
        assert parse_poly("t1*t2^-1 + 1", 2).terms == \
            {(1, -1): 1, (0, 0): 1}
        assert parse_poly("0", 1).is_zero()

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity=arity)
            assert parse_poly(format_poly(f), arity) == f

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(laurent_polys())
    def test_roundtrip_property(self, f):
        assert parse_poly(format_poly(f), f.arity) == f

    def test_format_matches_oracle(self):
        """Seeded polynomials in one to three variables, with exponents 0,
        +-1 and larger, coefficients +-1 and larger, and a lone constant."""
        rng = random.Random(30)
        count = Counter()
        for _ in range(600):
            arity = rng.randint(1, 3)
            f = random_poly(rng, arity=arity, span=rng.choice((1, 3, 40)),
                            terms=rng.randint(1, 8))
            assert format_poly(f) == format_poly_oracle(f)
            count[arity] += 1
        assert min(count.values()) >= 150
        for f in (LaurentPoly.zero(2), LaurentPoly.constant(-7, 1),
                  -t, t ** -1 - 1, LaurentPoly.constant(1, 3)):
            assert format_poly(f) == format_poly_oracle(f)

    def test_format_long_delta(self):
        """The 64,001-term Delta of <x, y | x^64001*y^2>, whose printing
        took longer than its computation with a join per term."""
        delta = alexander_polynomial(
            parse_presentation("<x, y | x^64001*y^2>")).poly
        assert len(delta.terms) == 64001
        assert format_poly(delta) == format_poly_oracle(delta)

    def test_parens_and_powers(self):
        assert parse_poly("(t - 1)^2", 1) == t ** 2 - 2 * t + 1
        assert parse_poly("-t^-2", 1) == -(t ** -2)
        assert parse_poly("3(t+1)", 1) == 3 * t + 3

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("t^2 + )", 1)
        assert err.value.position is not None
        with pytest.raises(ParseError):
            parse_poly("t3 + 1", 2)
        with pytest.raises(ParseError):
            parse_poly("q + 1", 1)

    @pytest.mark.parametrize("text,arity,message,position", [
        ("t^\u00b2", 1, "expected an integer", 2),
        ("\u00b2", 1, "expected a term", 0),
        ("t^-\u0661", 1, "expected an integer", 3),
        ("t\u0661", 2, "bare 't' needs arity 1; use t1..t2", 1),
        ("t\u0661 + 1", 1, "unexpected trailing input '\u0661'", 1)])
    def test_digits_are_ascii(self, text, arity, message, position):
        # int() rejects some of what str.isdigit accepts, and reads
        # others, such as U+0661, as digits; neither is a digit here
        with pytest.raises(ParseError) as err:
            parse_poly(text, arity)
        assert str(err.value) == "%s (at position %d)" % (message, position)

    def test_nesting_depth(self):
        limit = alexinv.laurent.MAX_NESTING
        assert parse_poly("(" * limit + "t" + ")" * limit, 1) == t
        with pytest.raises(ParseError) as err:
            parse_poly("(" * 1000 + "t" + ")" * 1000, 1)
        assert str(err.value) == (
            "brackets nested too deeply (over %d levels) (at position %d)"
            % (limit, limit))
        # closed brackets no longer count
        assert parse_poly("+".join(["(t)"] * 1000), 1) == 1000 * t
        assert parse_poly("2*--(-t)", 1) == -2 * t

    def test_long_runs_of_unary_minus(self):
        # a run of signs is counted, not recursed on, spaces or not; after
        # an operator it binds tighter than ^, while a leading run belongs
        # to the expression and binds looser
        assert parse_poly("2*" + "-" * 3000 + "t", 1) == 2 * t
        assert parse_poly("2*" + "- " * 3001 + "t", 1) == -2 * t
        assert parse_poly("-" * 5001 + "(t + 1)^2", 1) == -(t + 1) ** 2
        assert parse_poly("2*-t^2", 1) == 2 * t ** 2
        assert parse_poly("2 * - - -t^3 - -t", 1) == -2 * t ** 3 + t
        with pytest.raises(ParseError) as err:
            parse_poly("2*" + "-" * 3000, 1)
        assert str(err.value) == "unexpected end of input (at position 3002)"
        with pytest.raises(ParseError) as err:
            parse_poly("2*- -)", 1)
        assert str(err.value) == "expected a term (at position 5)"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit")
    @pytest.mark.parametrize("prefix,arity", [
        ("", 1), ("t^", 1), ("t^-", 1), ("1 + 2*", 1), ("t", 2)])
    def test_digit_run_longer_than_int_converts(self, prefix, arity):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as err:
            parse_poly(prefix + "9" * (limit + 1), arity)
        assert str(err.value) == (
            "integer too long (over %d digits) (at position %d)"
            % (limit, len(prefix)))
        if not prefix:
            assert parse_poly("9" * limit, 1) == \
                LaurentPoly.constant(int("9" * limit), 1)

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            parse_poly("t^99999999", 1)

    def test_negative_power_of_nonunit(self):
        with pytest.raises(ParseError):
            parse_poly("(t + 1)^-1", 1)

    def test_oversized_power_fails_fast(self):
        # (t+1)^n is bounded by (n + 1) * n * 2 bits: n = 723 is the last
        # accepted; (t1+t2+t3+1)^n by C(n + 3, 3) * n * 3 bits, the lesser
        # of its terms and its box (n + 1)^3, so n = 36 is the last
        assert len(parse_poly("(t+1)^723", 1).terms) == 724
        assert len(parse_poly("(t1+t2+t3+1)^5", 3).terms) == 56
        for text, arity, at in [("(t+1)^724", 1, 6),
                                ("(t+1)^ 1000000", 1, 7),
                                ("(t1+t2+t3+1)^37", 3, 13),
                                ("((t1+1)^9 (t2+1)^9)^1000000", 2, 20),
                                ("2^1000000", 1, 2),
                                ("(t^1000 + 1)^1000", 1, 13)]:
            start = time.perf_counter()
            with pytest.raises(ParseError, match="power too large") as err:
                parse_poly(text, arity)
            assert time.perf_counter() - start < 0.1
            assert err.value.position == at
        # units, zero and small powers are not bounded
        assert parse_poly("t^1000000", 1) == t ** 1000000
        assert parse_poly("(-t)^999999", 1) == -(t ** 999999)
        assert parse_poly("0^5", 1).is_zero()
        assert parse_poly("(t - 1)^2", 1) == t ** 2 - 2 * t + 1

    def test_sparse_power_bounded_by_its_terms(self):
        # (t^1000 + 1)^n has n + 1 terms, not the 1000 n + 1 of its box
        for n in (100, 723):
            assert parse_poly("(t^1000 + 1)^%d" % n, 1) == LaurentPoly(
                1, {(1000 * k,): math.comb(n, k) for k in range(n + 1)})
        with pytest.raises(ParseError, match="power too large"):
            parse_poly("(t^1000 + 1)^724", 1)
        f = parse_poly("(t1^100 + t2^100 + t3^100 + 1)^5", 3)
        assert len(f.terms) == math.comb(8, 3) and sum(f.terms.values()) \
            == 4 ** 5

    def test_oversized_product_fails_fast(self):
        # (t1+1)^700 * (t2+1)^700 has 701^2 terms of bits(2^1400) = 1401
        # bits, far over the bound; it is refused before it is multiplied
        for text, arity, at in [("(t1+1)^700*(t2+1)^700", 2, 11),
                                ("((t1+1)^700 (t2+1)^700)^1000000", 2, 12),
                                ("(t+1)^700 * (t+1)^700", 1, 12)]:
            start = time.perf_counter()
            with pytest.raises(ParseError, match="product too large") as err:
                parse_poly(text, arity)
            assert time.perf_counter() - start < 1
            assert err.value.position == at
        # bounded like the power it equals: (t+1)^723 is the last accepted
        assert parse_poly("(t+1)^400*(t+1)^323", 1) == parse_poly(
            "(t+1)^723", 1)
        assert parse_poly("2t(t+1)^700", 1) == 2 * t * (t + 1) ** 700

    def test_corpus_and_suite_polynomials_parse(self):
        from alexinv import corpus
        from alexinv.presentation import abelianize
        from alexinv.verify import (run_b1_one_characterization,
                                    run_blanchfield, run_levine)
        texts = []
        for entry in corpus.entries():
            arity = abelianize(entry.presentation).rank
            if "delta" in entry.expected and arity:
                texts.append((entry.expected["delta"], arity))
        for rep in run_levine(cases=50, max_degree=12):
            texts += [(x, rep.inputs["arity"])
                      for x in (rep.inputs["lambda"], rep.lhs, rep.rhs)]
        for rep in run_b1_one_characterization(cases=50, max_degree=12):
            texts += [(x, 1) for x in (rep.inputs["poly"], rep.lhs, rep.rhs)
                      if x not in (None, "accepted", "rejected")]
        for rep in run_blanchfield():
            name = rep.inputs["name"]
            texts.append((rep.inputs["delta"], abelianize(
                corpus.get(name).presentation).rank))
        assert len(texts) >= 350
        for text, arity in texts:
            assert format_poly(parse_poly(text, arity)) == text

    def test_power_squares_only_to_its_top_bit(self, monkeypatch):
        """Parsing (t1+t2+t3+1)^20 multiplies 64,288 term pairs; the unused
        square of base^16 past the top bit would add 938,961."""
        pairs = 0
        dict_mul = alexinv.laurent._dict_mul

        def counting_dict_mul(f, g):
            nonlocal pairs
            pairs += len(f) * len(g)
            return dict_mul(f, g)
        monkeypatch.setattr(alexinv.laurent, "_dict_mul", counting_dict_mul)
        assert len(parse_poly("(t1+t2+t3+1)^20", 3).terms) == math.comb(23, 3)
        assert 0 < pairs < 100_000, pairs

    def test_multisets_exceed_matches_comb(self):
        exceed = alexinv.laurent._multisets_exceed
        for n, k, limit in product(range(1, 9), range(1, 9), (0, 1, 7, 120)):
            assert exceed(n, k, limit) == (math.comb(n + k - 1, k) > limit)
        # a binomial of some 10^6 digits, decided within a few steps
        start = time.perf_counter()
        assert exceed(10**6, 10**6, 1 << 20)
        assert time.perf_counter() - start < 0.01
