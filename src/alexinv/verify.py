"""Theorem verification suites over the corpus and seeded random instances.

Each suite returns a list of :class:`alexinv.covers.VerifyReport`; a suite
passes when every report's ``ok`` flag is set.  Randomized suites take an
explicit seed and are fully deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import prod

from . import corpus
from .alexander import (AlexanderMatrix, characterize_b1_one, full_report,
                        levine_extend, order_zero_direct)
from .covers import (DEFAULT_MAX_INDEX, CoverBase, VerifyReport, _restricted,
                     b1_ge_4_consistency, cover_homology, free_abelian_cover,
                     hironaka_predicted_betti, reidemeister_schreier,
                     shalen_wagreich_check, verify_torsion_cover_formula)
from .laurent import LaurentPoly, Symmetry, involution, normalize, trace
from .presentation import abelianize


# ----------------------------------------------------------------------
# Random instance generators.
# ----------------------------------------------------------------------

def random_poly(rng, arity, max_degree=2, max_terms=3, nonzero=False):
    half = max(1, max_degree // 2)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(-half, half) for _ in range(arity))
            terms[exps] = terms.get(exps, 0) + rng.randint(-3, 3)
        f = LaurentPoly(arity, terms)
        if not (nonzero and f.is_zero()):
            return f


def random_symmetric_nonzero_trace(rng, arity, max_degree=4):
    """A symmetric polynomial (exactly invariant under exponent negation)
    with nonzero trace."""
    half = max(1, max_degree // 2)
    while True:
        terms = {(0,) * arity: rng.randint(-3, 3)}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-half, half) for _ in range(arity))
            if not any(exps):
                continue
            c = rng.randint(-3, 3)
            for e in (exps, tuple(-x for x in exps)):
                terms[e] = terms.get(e, 0) + c
        f = LaurentPoly(arity, terms)
        if not f.is_zero() and trace(f) != 0 and involution(f) == f:
            return f


def random_unit_symmetric_nonzero_trace(rng, max_degree=4):
    core = random_symmetric_nonzero_trace(rng, 1, max_degree)
    shift = rng.randint(-3, 3)
    sign = rng.choice((1, -1))
    return (sign * core).shift((shift,))


def _dense_coeffs(f):
    (lo,), (hi,) = f.exponent_range()
    return [f.terms.get((k,), 0) for k in range(lo, hi + 1)]


def random_rejectable(rng, case_index, max_degree=4):
    """A one-variable polynomial guaranteed to fail the realizability test,
    by construction (trace zero) or by an independent palindrome check of
    the dense coefficient list (not unit symmetric)."""
    if case_index % 2 == 0:
        g = random_poly(rng, 1, max_degree - 1, nonzero=True)
        t = LaurentPoly.variable(0, 1)
        return (t - 1) * g  # trace is identically zero on such products
    while True:
        f = random_poly(rng, 1, max_degree, nonzero=True)
        c = _dense_coeffs(f)
        unit_symmetric = c == c[::-1] and (len(c) - 1) % 2 == 0
        if not unit_symmetric:
            return f


def random_matrix(rng, nrows, ncols, arity, max_degree=2):
    rows = [[random_poly(rng, arity, max_degree) for _ in range(ncols)]
            for _ in range(nrows)]
    return AlexanderMatrix.from_rows(rows, arity, ncols)


# ----------------------------------------------------------------------
# Suites.
# ----------------------------------------------------------------------

def run_levine(seed=0, cases=50, max_degree=4):
    """Multiplicativity of the block extension: the zeroth order of
    diag(P, lambda) equals normalize(lambda * order(P)), checked against
    direct multiplication."""
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        arity = rng.randint(1, 3)
        n = rng.randint(1, 2 if arity == 3 else 3)
        m = n + rng.choice((0, 0, 1))
        P = random_matrix(rng, m, n, arity)
        lam = random_symmetric_nonzero_trace(rng, arity, max_degree)
        lhs = order_zero_direct(levine_extend(P, lam)).poly
        rhs = normalize(lam * order_zero_direct(P).poly)
        reports.append(VerifyReport(
            "levine",
            {"case": i, "arity": arity, "rows": m, "cols": n,
             "lambda": str(lam)},
            str(lhs), str(rhs), "equal" if lhs == rhs else "not_equal"))
    return reports


def run_b1_one_characterization(seed=0, cases=50, max_degree=4):
    """Round trip of the one-variable characterization: realizable inputs
    produce a witness matrix whose zeroth order reproduces them; inputs
    failing unit symmetry or nonzero trace are rejected."""
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        lam = random_unit_symmetric_nonzero_trace(rng, max_degree)
        verdict = characterize_b1_one(lam)
        want = normalize(lam)
        ok = verdict.realizable and verdict.witness_delta.poly == want
        reports.append(VerifyReport(
            "b1-one-characterization",
            {"case": i, "kind": "accept", "poly": str(lam)},
            str(verdict.witness_delta) if verdict.witness_delta else None,
            str(want), "equal" if ok else "not_equal"))
    for i in range(cases):
        lam = random_rejectable(rng, i, max_degree)
        verdict = characterize_b1_one(lam)
        reports.append(VerifyReport(
            "b1-one-characterization",
            {"case": cases + i, "kind": "reject", "poly": str(lam),
             "trace": verdict.trace},
            "rejected" if not verdict.realizable else "accepted",
            "rejected",
            "consistent" if not verdict.realizable else "counterexample"))
    return reports


def run_blanchfield(names=None):
    """Every nonzero corpus polynomial is at least mod unit symmetric; for
    b1 = 1 with nonzero trace it is unit symmetric of even degree span."""
    reports = []
    for entry in _selected(names):
        rep = full_report(entry.presentation)
        if rep.symmetry is None:
            reports.append(VerifyReport(
                "blanchfield", {"name": entry.name, "delta": "0"},
                None, None, "skipped"))
            continue
        ok = rep.symmetry.kind.at_least(Symmetry.MOD_UNIT_SYMMETRIC)
        reports.append(VerifyReport(
            "blanchfield",
            {"name": entry.name, "delta": str(rep.delta)},
            rep.symmetry.kind.value, Symmetry.MOD_UNIT_SYMMETRIC.value,
            "consistent" if ok else "counterexample"))
        if rep.b1 == 1 and rep.trace != 0:
            span = rep.delta.poly.degree_span()
            strong = rep.symmetry.kind.at_least(Symmetry.UNIT_SYMMETRIC) \
                and span % 2 == 0
            reports.append(VerifyReport(
                "unit-symmetric-even-degree",
                {"name": entry.name, "delta": str(rep.delta),
                 "degree_span": span},
                rep.symmetry.kind.value, Symmetry.UNIT_SYMMETRIC.value,
                "consistent" if strong else "counterexample"))
    return reports


def _selected(names):
    if names is None or names == ["all"] or names == "all":
        return corpus.entries()
    return [corpus.get(n) for n in
            ([names] if isinstance(names, str) else names)]


def _prime_tuples(entry, b1, names, primes, defaults):
    """A cover suite's default prime tuples for an entry with first Betti
    number b1, or the requested tuple: without names it selects the entries
    whose b1 is its length, and a named entry with another b1 is an error."""
    if primes is None or len(primes) == b1:
        return defaults if primes is None else [tuple(primes)]
    if names is not None:
        raise ValueError("need %d primes for %s" % (b1, entry.name))
    return []


def run_torsion_cover(names=None, primes=None, max_index=DEFAULT_MAX_INDEX):
    """Torsion order of finite abelian covers against root-of-unity norms,
    through two independent pipelines.

    The default suite asserts the formula on the b1 = 1 corpus members
    only: for higher rank the product formula needs corrections coming
    from H_2 of the covering lattice (the index-4 Heisenberg cover has
    torsion Z/4 while every value of its order polynomial 1 is 1), so
    wider claims are left to explicit --corpus/--primes requests, which
    are answered honestly; a requested cover over max_index is an error.
    """
    reports = []
    for entry in _selected(names):
        base = CoverBase(entry.presentation)
        b1 = base.abelianization.rank
        defaults = [(p,) * b1 for p in (2, 3) if p ** b1 <= max_index
                    and (names is not None or b1 == 1)]
        for tup in _prime_tuples(entry, b1, names, primes, defaults):
            report = verify_torsion_cover_formula(base, tup, max_index)
            report.inputs["name"] = entry.name
            reports.append(report)
    return reports


def run_shalen_wagreich(names=None, primes=(2, 3),
                        max_index=DEFAULT_MAX_INDEX):
    reports = []
    for entry in _selected(names):
        base = CoverBase(entry.presentation)
        for p in primes:
            rep = shalen_wagreich_check(base, p, max_index)
            rep.inputs["name"] = entry.name
            reports.append(rep)
    return reports


def _cover_prime_tuples(rank, max_index, primes=(2, 3, 5)):
    return [tup for tup in combinations_with_replacement(primes, rank)
            if prod(tup) <= max_index]


def run_hironaka(names=None, primes=None, max_index=DEFAULT_MAX_INDEX):
    """The character-rank prediction of the cover's first Betti number must
    match the rank computed from the Reidemeister-Schreier presentation
    over the Tietze-reduced base, for every corpus cover within the index
    limit, or the requested one, with one base per entry."""
    reports = []
    for entry in _selected(names):
        base = CoverBase(entry.presentation)
        ab = base.abelianization
        for tup in _prime_tuples(entry, ab.rank, names, primes,
                                 _cover_prime_tuples(ab.rank, max_index)):
            cm = free_abelian_cover(base, tup, max_index)
            actual = cover_homology(reidemeister_schreier(
                _restricted(cm, *base.reduction), max_index)).rank
            predicted = hironaka_predicted_betti(base, cm)
            reports.append(VerifyReport(
                "hironaka",
                {"name": entry.name, "primes": list(tup)},
                predicted, actual,
                "equal" if predicted == actual else "not_equal"))
    return reports


def run_b1_ge_4(names=None):
    reports = []
    for entry in _selected(names):
        if abelianize(entry.presentation).rank < 4:
            continue
        rep = b1_ge_4_consistency(entry.presentation)
        rep.inputs["name"] = entry.name
        reports.append(rep)
    return reports


# each suite's runner and the run_suite keywords it reads
SUITES = {
    "levine": (run_levine, ("seed", "cases", "max_degree")),
    "blanchfield": (run_blanchfield, ("names",)),
    "b1-one-characterization": (run_b1_one_characterization,
                                ("seed", "cases", "max_degree")),
    "torsion-cover": (run_torsion_cover, ("names", "primes", "max_index")),
    "shalen-wagreich": (run_shalen_wagreich,
                        ("names", "primes", "max_index")),
    "hironaka": (run_hironaka, ("names", "primes", "max_index")),
    "b1-ge-4": (run_b1_ge_4, ("names",)),
}
THEOREMS = tuple(SUITES)


def run_suite(theorem, **options):
    """Run one suite on the keyword options it reads (see ``SUITES``): it
    ignores the others, and an option set to None keeps its default."""
    if theorem not in SUITES:
        raise ValueError("unknown theorem %r (one of %s)"
                         % (theorem, ", ".join(THEOREMS)))
    run, reads = SUITES[theorem]
    return run(**{k: v for k, v in options.items()
                  if k in reads and v is not None})
