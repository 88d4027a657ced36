import random

import pytest

from alexinv import verify
from alexinv.alexander import full_report
from alexinv.covers import verify_torsion_cover_formula
from alexinv.corpus import get, names
from alexinv.laurent import involution, trace
from conftest import palindrome_unit_symmetric, prs_fallbacks


class TestGenerators:
    def test_symmetric_generator(self):
        rng = random.Random(1)
        for _ in range(30):
            lam = verify.random_symmetric_nonzero_trace(rng, rng.randint(1, 3))
            assert involution(lam) == lam and trace(lam) != 0

    def test_unit_symmetric_generator(self):
        rng = random.Random(2)
        for _ in range(30):
            lam = verify.random_unit_symmetric_nonzero_trace(rng)
            assert palindrome_unit_symmetric(lam) and trace(lam) != 0

    def test_rejectable_generator(self):
        rng = random.Random(3)
        for i in range(30):
            lam = verify.random_rejectable(rng, i)
            assert trace(lam) == 0 or not palindrome_unit_symmetric(lam)


class TestSuites:
    @pytest.mark.parametrize("theorem", verify.THEOREMS)
    def test_suite_passes(self, theorem):
        reports = verify.run_suite(theorem, seed=0, cases=10)
        assert reports and all(r.ok for r in reports)

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify.run_suite("torres")

    def test_determinism(self):
        a = verify.run_levine(seed=5, cases=8)
        b = verify.run_levine(seed=5, cases=8)
        assert [r.as_dict() for r in a] == [r.as_dict() for r in b]
        c = verify.run_levine(seed=6, cases=8)
        assert [r.as_dict() for r in a] != [r.as_dict() for r in c]

    def test_torsion_cover_default_suite_is_rank_one(self):
        for r in verify.run_torsion_cover():
            assert len(r.inputs["primes"]) == 1

    def test_torsion_cover_honest_on_higher_rank(self):
        # the product formula genuinely fails on the (Z/2)^2 cover of the
        # Heisenberg manifold: the cover is the Euler-number-4 nilmanifold
        # with torsion Z/4, while the polynomial is 1
        r = verify_torsion_cover_formula(get("heisenberg").presentation,
                                         [2, 2])
        assert (r.lhs, r.rhs, r.status) == (4, 1, "not_equal")
        assert not r.ok

    def test_selected_names(self):
        reports = verify.run_blanchfield(["t3"])
        assert all(r.inputs["name"] == "t3" for r in reports)


class TestHeuristicGcdCoverage:
    """The heuristic GCD settles every GCD of the corpus and the suites
    without handing one to the PRS."""

    @pytest.mark.parametrize("seed", [2, 5, 6, 8, 10])
    def test_levine_seeds(self, seed):
        # the PRS alone took 10 to 181 s on each of these seeds
        with prs_fallbacks() as fallbacks:
            reports = verify.run_suite("levine", seed=seed, cases=50,
                                       max_degree=4)
        assert [r.status for r in reports] == ["equal"] * 50
        assert fallbacks == [0]

    def test_corpus_and_default_suites(self):
        with prs_fallbacks() as fallbacks:
            for name in names():
                full_report(get(name).presentation)
            for theorem in verify.THEOREMS:
                # the suites at the command line's defaults
                reports = verify.run_suite(theorem, max_degree=12)
                assert reports and all(r.ok for r in reports)
        assert fallbacks == [0]
