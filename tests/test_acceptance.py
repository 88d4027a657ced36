"""Acceptance criteria, one test per criterion.

Every check is exact (integer or polynomial equality); the stated time
budgets are asserted as generous upper bounds.  Run with ``pytest -s``
to see the one-line PASS/FAIL report per criterion.
"""

import random
import time

from alexinv import corpus
from alexinv.alexander import full_report
from alexinv.covers import shalen_wagreich_check, verify_torsion_cover_formula
from alexinv.laurent import (LaurentPoly, Symmetry, classify_symmetry,
                             divide_exact, gcd, normalize, parse_poly, trace)
from alexinv.presentation import reduce_word, smith_normal_form
from alexinv.verify import (random_poly, run_b1_one_characterization,
                            run_blanchfield, run_b1_ge_4, run_hironaka,
                            run_levine)
from conftest import (FreeGroupRingElement, fox_derivative,
                      smith_factors_oracle)

t = LaurentPoly.variable(0, 1)


def report(number, description, ok, started, budget):
    elapsed = time.time() - started
    print("criterion %2d [%s] %-58s (%.2fs)"
          % (number, "PASS" if ok else "FAIL", description, elapsed))
    assert ok, "criterion %d failed: %s" % (number, description)
    assert elapsed < budget, "criterion %d exceeded %ss" % (number, budget)


def test_criterion_01_mapping_torus_example():
    started = time.time()
    rep = full_report(corpus.get("mapping-torus-A").presentation)
    ok = (rep.delta.poly == parse_poly("t^2 - 4*t + 1", 1)
          and abs(trace(rep.delta.poly)) == 2
          and rep.torsion == (2,)
          and rep.checks["trace_matches_torsion_order"])
    report(1, "mapping torus A=[[3,2],[1,1]]: delta and torsion order",
           ok, started, 1.0)


def test_criterion_02_delta_one_witnesses():
    started = time.time()
    expectations = [("s1xs2", 1), ("heisenberg", 2), ("t3", 3)]
    ok = True
    for name, b1 in expectations:
        rep = full_report(corpus.get(name).presentation)
        ok = ok and rep.b1 == b1 and rep.delta.poly.is_one()
    report(2, "delta = 1 witnesses at b1 = 1, 2, 3", ok, started, 1.0)


def test_criterion_03_symmetry_trichotomy():
    started = time.time()
    first = classify_symmetry(t ** 2 + t + 1)
    second = classify_symmetry(t - 1)
    ok = (first.kind == Symmetry.UNIT_SYMMETRIC
          and second.kind == Symmetry.MOD_UNIT_SYMMETRIC)
    report(3, "t^2+t+1 unit-not-symmetric; t-1 mod-unit-not-unit",
           ok, started, 1.0)


def test_criterion_04_levine_multiplicativity():
    started = time.time()
    reports = run_levine(seed=0, cases=50, max_degree=4)
    ok = len(reports) == 50 and all(r.status == "equal" for r in reports)
    report(4, "block extension multiplies the order polynomial (50 cases)",
           ok, started, 5.0)


def test_criterion_05_b1_one_round_trip():
    started = time.time()
    reports = run_b1_one_characterization(seed=0, cases=50, max_degree=4)
    accepts = [r for r in reports if r.inputs["kind"] == "accept"]
    rejects = [r for r in reports if r.inputs["kind"] == "reject"]
    ok = (len(accepts) == 50 and len(rejects) == 50
          and all(r.status == "equal" for r in accepts)
          and all(r.status == "consistent" for r in rejects))
    report(5, "b1=1 characterization round trip (50 accept + 50 reject)",
           ok, started, 5.0)


def test_criterion_06_torsion_cover_formula():
    started = time.time()
    P = corpus.get("mapping-torus-A").presentation
    two = verify_torsion_cover_formula(P, [2])
    three = verify_torsion_cover_formula(P, [3])
    ok = ((two.lhs, two.rhs, two.status) == (12, 12, "equal")
          and (three.lhs, three.rhs, three.status) == (50, 50, "equal"))
    report(6, "cover torsion 12 and 50 via two independent pipelines",
           ok, started, 5.0)


def test_criterion_07_hironaka_formula():
    started = time.time()
    reports = run_hironaka(max_index=256)
    ok = bool(reports) and all(r.status == "equal" for r in reports)
    report(7, "character-rank betti prediction on %d corpus covers"
           % len(reports), ok, started, 30.0)


def test_criterion_08_shalen_wagreich_bound():
    started = time.time()
    t3 = shalen_wagreich_check(corpus.get("t3").presentation, 2)
    heis = shalen_wagreich_check(corpus.get("heisenberg").presentation, 2)
    free1 = shalen_wagreich_check(corpus.get("s1xs2").presentation, 5)
    ok = ((t3.inputs["r"], t3.rhs, t3.lhs, t3.status)
          == (3, 3, 3, "bound_holds")
          and heis.inputs["r"] == 2 and heis.rhs == 1 and heis.lhs >= 1
          and heis.status == "bound_holds"
          and (free1.rhs, free1.status) == (0, "bound_holds"))
    report(8, "mod-p growth bound: T^3 (3>=3), Heisenberg (>=1), trivial",
           ok, started, 5.0)


def test_criterion_09_b1_ge_4_consistency():
    started = time.time()
    reports = run_b1_ge_4()
    ok = bool(reports) and all(r.status == "consistent" for r in reports)
    report(9, "no b1 >= 4 corpus member has order polynomial 1",
           ok, started, 5.0)


def test_criterion_10_blanchfield_symmetry():
    started = time.time()
    reports = run_blanchfield()
    strong = [r for r in reports
              if r.theorem == "unit-symmetric-even-degree"]
    ok = (all(r.ok for r in reports)
          and all(r.inputs["degree_span"] % 2 == 0 for r in strong)
          and len(strong) >= 3)  # s1xs2 and both mapping tori
    report(10, "corpus symmetry: mod-unit always; unit + even span at b1=1",
           ok, started, 5.0)


def test_criterion_11_kernel_oracles():
    started = time.time()
    rng = random.Random(0)
    ok = True

    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        ok = ok and (smith_normal_form(A).invariant_factors
                     == smith_factors_oracle(A))

    one = FreeGroupRingElement.from_word(())
    for _ in range(100):
        n = rng.randint(1, 4)
        w = reduce_word(tuple((rng.randrange(n), rng.choice((1, -1)))
                              for _ in range(rng.randrange(13))))
        total = FreeGroupRingElement()
        for j in range(n):
            xj = FreeGroupRingElement.from_word(((j, 1),))
            total = total + fox_derivative(w, j) * (xj - one)
        ok = ok and total == FreeGroupRingElement.from_word(w) - one

    for _ in range(100):
        arity = rng.randint(1, 2)
        f = random_poly(rng, arity, nonzero=True)
        g = random_poly(rng, arity, nonzero=True)
        h = random_poly(rng, arity, nonzero=True)
        d = gcd(f * h, g * h)
        ok = ok and divide_exact(d, normalize(h)) is not None
        ok = ok and divide_exact(f * h, d) is not None
        ok = ok and divide_exact(g * h, d) is not None

    report(11, "kernel oracles: smith minors, fox identity, gcd division",
           ok, started, 10.0)
