"""Fast checks of the benchmark itself: ``python -m pytest perfbench``."""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracer
import workloads

SMALLEST_RUNGS = {
    "order-poly": ("mapping-torus-n3", "torus-knot-k251"),
    "cover-torsion": ("torsion-formula-A-p31", "torsion-formula-fib-p31",
                      "cover-h1-t3-p3", "cover-h1-heisenberg-p7"),
    "cover-betti": ("betti-t3-p7", "betti-heisenberg-p13",
                    "betti-mapping-torus-A-p31",
                    "betti-mapping-torus-fib-p31"),
    "verify-suites": ("levine", "blanchfield", "b1-one-characterization",
                      "torsion-cover", "shalen-wagreich", "b1-ge-4"),
}


@pytest.fixture
def mods():
    # a fresh import per test: run.main re-imports alexinv, and the tracer
    # patches whatever modules are current
    return workloads.import_alexinv()


def pick(cases, names):
    chosen = [c for c in cases if c.name in names]
    assert len(chosen) == len(names)
    return chosen


@pytest.mark.parametrize("workload", sorted(SMALLEST_RUNGS))
@pytest.mark.parametrize("seed", [0, 7])
def test_oracles_agree_with_alexinv_on_smallest_rungs(mods, workload, seed):
    cases = pick(workloads.build_cases(workload, seed, mods),
                 SMALLEST_RUNGS[workload])
    result = workloads.run_pass(cases)
    assert result.failures == []
    assert len(result.case_seconds) == len(cases)


def test_closed_forms_match_the_corpus_values():
    # by hand: tr(fib) = 3, tr(A^2) = 14, and (t^3 + 1)/(t + 1)
    assert workloads.cyclic_cover_torsion(((2, 1), (1, 1)), 1) == 1
    assert workloads.cyclic_cover_torsion(((3, 2), (1, 1)), 2) == 12
    assert workloads.delta_torus_knot(3) == {(0,): 1, (1,): -1, (2,): 1}
    with pytest.raises(ValueError):
        workloads.cyclic_cover_torsion(((2, 0), (0, 1)), 3)


def test_wrong_expected_value_fails_the_run(mods, monkeypatch, capsys):
    good = pick(workloads.build_cases("order-poly", 0, mods),
                ("mapping-torus-n3",))[0]
    wrong = workloads.Case(good.name, good.sizes, good.run,
                           workloads._report_check(
                               workloads.delta_companion(4)))
    monkeypatch.setattr(workloads, "build_cases", lambda *a: [wrong])
    code = run.main(["--workload", "order-poly", "--seconds", "0"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert "mapping-torus-n3" in captured.err


def test_raising_case_counts_as_failed():
    def boom():
        raise ArithmeticError("bad pivot")
    case = workloads.Case("boom", {}, boom, lambda _: None)
    result = workloads.run_pass([case, case])
    assert [name for name, _ in result.failures] == ["boom", "boom"]
    assert "ArithmeticError" in result.failures[0][1]


def test_each_case_is_timed_after_a_reference_loop():
    case = workloads.Case("noop", {}, lambda: None, lambda _: None)
    result = workloads.run_pass([case, case, case])
    assert len(result.ref_seconds) == len(result.case_seconds) == 3
    assert all(ref > 0 for ref in result.ref_seconds)


def test_odd_status_tally_fails_a_suite(mods):
    # one "equal" turned "skipped": still ok to alexinv, not to the benchmark
    case = pick(workloads.build_cases("verify-suites", 0, mods),
                ("torsion-cover",))[0]
    reports = case.run()
    assert case.check(reports) is None
    skipped = dataclasses.replace(reports[0], status="skipped")
    assert skipped.ok
    problem = case.check([skipped] + reports[1:])
    assert "status tally" in problem and "skipped" in problem


def test_seed_changes_verify_suite_inputs(mods):
    def inputs(seed):
        case = pick(workloads.build_cases("verify-suites", seed, mods),
                    ("b1-one-characterization",))[0]
        return [r.inputs for r in case.run()]
    assert inputs(0) == inputs(0)
    assert inputs(0) != inputs(1)


def test_seed_renames_generators_only(mods):
    texts = {seed: [c.run.__defaults__[0] for c in
                    workloads.build_cases("order-poly", seed, mods)]
             for seed in (0, 1)}
    assert texts[0] != texts[1]
    for a, b in zip(texts[0], texts[1]):
        pa = mods["ax"].parse_presentation(a)
        pb = mods["ax"].parse_presentation(b)
        assert len(a) == len(b)
        assert pa.relators == pb.relators


def test_tracer_wraps_every_binding_and_restores_them(mods):
    from alexinv import covers, cyclotomic, presentation
    originals = (presentation.abelianize, cyclotomic.CyclotomicField.inverse)
    t = tracer.Tracer()
    cases = pick(workloads.build_cases("cover-betti", 0, mods),
                 ("betti-mapping-torus-A-p31",))
    with t.installed():
        assert covers.abelianize is presentation.abelianize
        assert covers.abelianize.__wrapped__ is originals[0]
        assert cyclotomic.CyclotomicField.inverse.__wrapped__ is originals[1]
        result = workloads.run_pass(cases, t.begin_case)
    assert result.failures == []
    assert (presentation.abelianize, cyclotomic.CyclotomicField.inverse) \
        == originals
    assert covers.abelianize is originals[0]
    assert t.missing_layers("cover-betti") == []
    assert "covers.rs" in t.missing_layers("cover-torsion")
    metrics = t.pass_metrics()
    assert metrics["covers.char_rank.calls"] == 30
    assert metrics["covers.char_rank.per_cover"] == 30
    assert metrics["cyclotomic.max_degree"] == 30
    assert t.case_notes[0]["phi_m"] == 30
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= result.seconds


def test_benchmark_json_lists_every_workload():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
