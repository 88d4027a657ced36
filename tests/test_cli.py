import json
import sys
import time

import pytest

from alexinv.cli import _emit, main
from alexinv.corpus import names
from alexinv.laurent import MAX_ARITY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unknown_entry_error(name):
    """The whole stderr of a command given an unknown corpus name: the
    message itself, not the quoted str() of its KeyError."""
    return "error: unknown corpus entry %r (try: %s)\n" % (
        name, ", ".join(names()))


class TestCompute:
    def test_corpus_mapping_torus(self, capsys):
        code, out, _ = run(capsys, "compute", "--corpus", "mapping-torus-A")
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == "t^2 - 4*t + 1"
        assert data["b1"] == 1 and data["torsion"] == [2]

    def test_corpus_t3(self, capsys):
        code, out, _ = run(capsys, "compute", "--corpus", "t3")
        assert code == 0
        assert json.loads(out)["delta"] == "1"

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "pres.txt"
        path.write_text("# a torus\n<x, y | [x,y]>\n")
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert json.loads(out)["b1"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "nonsense.txt")
        assert code == 2 and err

    def test_bad_syntax(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("<x, y | x*w>")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2 and "w" in err

    def test_unknown_corpus(self, capsys):
        code, _, err = run(capsys, "compute", "--corpus", "nope")
        assert code == 2

    def test_unknown_corpus_message(self, capsys):
        code, out, err = run(capsys, "compute", "--corpus", "nosuch")
        assert (code, out, err) == (2, "", unknown_entry_error("nosuch"))

    def test_b1_zero_fails(self, tmp_path, capsys):
        path = tmp_path / "finite.txt"
        path.write_text("<x | x^2>")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 1 and "rank" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2

    def test_oversized_word(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("<x | x^2000000>")
        code, out, err = run(capsys, "compute", str(path))
        assert code == 2 and "too long" in err and not out

    @pytest.mark.parametrize("exponent", ["\u00b2", "\u0661"])
    def test_exponent_digits_are_ascii(self, tmp_path, capsys, exponent):
        path = tmp_path / "digits.txt"
        path.write_text("<x | x^%s>" % exponent, encoding="utf-8")
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out, err) == (
            2, "", "error: expected an integer exponent (at position 7)\n")

    def test_deep_brackets(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("<x, y | %sx%s>" % ("(" * 1000, ")" * 1000))
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out, err) == (
            2, "", "error: brackets nested too deeply (over 100 levels) "
                   "(at position 108)\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit")
    def test_overlong_exponent(self, tmp_path, capsys):
        path = tmp_path / "digits.txt"
        path.write_text("<x | x^%s>" % ("9" * 5000))
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out, err) == (
            2, "", "error: integer too long (over %d digits) "
                   "(at position 7)\n" % sys.get_int_max_str_digits())

    def test_minor_budget(self, tmp_path, capsys):
        # T^9: 36 commutator rows, no unit entry, 8-minors far over budget
        gens = ["x%d" % i for i in range(9)]
        path = tmp_path / "t9.txt"
        path.write_text("<%s | %s>" % (", ".join(gens), ", ".join(
            "[%s,%s]" % (a, b) for i, a in enumerate(gens)
            for b in gens[i + 1:])))
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 3 and not out
        assert err.startswith("error: ") and "exceed the limit" in err
        assert len(err.splitlines()) == 1


class TestClassify:
    def test_unit_symmetric(self, capsys):
        code, out, _ = run(capsys, "classify", "t^2 - 4*t + 1")
        assert code == 0
        data = json.loads(out)
        assert data["symmetry"] == "UnitSymmetric"
        assert data["trace"] == -2
        assert data["realizable"] is True

    def test_mod_unit_symmetric(self, capsys):
        code, out, _ = run(capsys, "classify", "t - 1")
        data = json.loads(out)
        assert code == 0
        assert data["symmetry"] == "ModUnitSymmetric"
        assert data["trace"] == 0
        assert data["realizable"] is False

    def test_symmetric(self, capsys):
        code, out, _ = run(capsys, "classify", "t + t^-1")
        data = json.loads(out)
        assert data["symmetry"] == "Symmetric"
        assert data["trace"] == 2
        assert data["realizable"] is True

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "classify", "t +")
        assert code == 2 and err

    def test_non_ascii_digit(self, capsys):
        code, out, err = run(capsys, "classify", "t^\u00b2")
        assert (code, out, err) == (
            2, "", "error: expected an integer (at position 2)\n")

    def test_deep_brackets(self, capsys):
        code, out, err = run(capsys, "classify",
                             "(" * 1000 + "t" + ")" * 1000)
        assert (code, out, err) == (
            2, "", "error: brackets nested too deeply (over 100 levels) "
                   "(at position 100)\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit")
    @pytest.mark.parametrize("prefix", ["", "t^"])
    def test_overlong_integer(self, capsys, prefix):
        code, out, err = run(capsys, "classify", prefix + "9" * 5000)
        assert (code, out, err) == (
            2, "", "error: integer too long (over %d digits) "
                   "(at position %d)\n"
            % (sys.get_int_max_str_digits(), len(prefix)))

    def test_long_run_of_unary_minus(self, capsys):
        # an even run of signs in front of t, parsed without recursion
        code, out, err = run(capsys, "classify", "2*" + "-" * 3000 + "t")
        assert (code, err) == (0, "")
        assert (out, json.loads(out)["poly"]) == (
            run(capsys, "classify", "2*t")[1], "2*t")

    def test_zero_poly(self, capsys):
        code, _, err = run(capsys, "classify", "0")
        assert code == 1

    def test_oversized_power(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "(t+1)^1000000")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == ("error: power too large (over 1048576 bits) "
                       "(at position 6)\n")

    def test_oversized_product(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "(t1+1)^700*(t2+1)^700",
                             "--arity", "2")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        assert err == ("error: product too large (over 1048576 bits) "
                       "(at position 11)\n")

    def test_sparse_power_accepted(self, capsys):
        # 101 terms, though its exponent box has 100,001 slots
        code, out, _ = run(capsys, "classify", "(t^1000 + 1)^100")
        assert code == 0
        assert json.loads(out)["symmetry"] == "UnitSymmetric"

    @pytest.mark.parametrize("arity", ["0", "-2"])
    def test_bad_arity(self, capsys, arity):
        # exit 2 with one error line, not a ValueError from LaurentPoly
        code, out, err = run(capsys, "classify", "1", "--arity", arity)
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_arity_over_cap(self, capsys):
        code, out, err = run(capsys, "classify", "1",
                             "--arity", str(MAX_ARITY + 1))
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_multivariate(self, capsys):
        code, out, _ = run(capsys, "classify", "t1*t2 + 1", "--arity", "2")
        assert code == 0
        assert json.loads(out)["realizable"] is None


class TestVerify:
    def test_torsion_cover_example(self, capsys):
        code, out, _ = run(capsys, "verify", "torsion-cover",
                           "--corpus", "mapping-torus-A", "--primes", "3")
        assert code == 0
        data = json.loads(out)
        result = data["results"][0]
        assert (result["lhs"], result["rhs"]) == (50, 50)

    def test_torsion_cover_primes_select_by_b1(self, capsys):
        # without --corpus, --primes runs the entries whose b1 is its length
        code, out, err = run(capsys, "verify", "torsion-cover",
                             "--primes", "3")
        assert code == 0 and not err
        results = json.loads(out)["results"]
        assert [r["inputs"]["name"] for r in results] == \
            ["s1xs2", "mapping-torus-A", "mapping-torus-fib"]
        assert {tuple(r["inputs"]["primes"]) for r in results} == {(3,)}

    def test_torsion_cover_named_b1_mismatch(self, capsys):
        code, out, err = run(capsys, "verify", "torsion-cover",
                             "--corpus", "mapping-torus-A,heisenberg",
                             "--primes", "3")
        assert code == 2 and not out
        assert "heisenberg" in err and "mapping-torus-A" not in err

    @pytest.mark.parametrize("theorem", ["torsion-cover", "hironaka"])
    def test_requested_cover_over_max_index(self, capsys, theorem):
        # an explicit tuple is never skipped: its cover is over the
        # default limit 256, which is a resource error
        code, out, err = run(capsys, "verify", theorem,
                             "--corpus", "mapping-torus-A", "--primes", "1009")
        assert code == 3 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1009" in err and "256" in err

    def test_hironaka_primes_select_by_b1(self, capsys):
        code, out, err = run(capsys, "verify", "hironaka", "--primes", "127")
        assert code == 0 and not err
        data = json.loads(out)
        assert [r["inputs"]["name"] for r in data["results"]] == \
            ["s1xs2", "mapping-torus-A", "mapping-torus-fib"]
        assert {tuple(r["inputs"]["primes"]) for r in data["results"]} \
            == {(127,)}
        assert data["failed"] == 0
        code, out, _ = run(capsys, "verify", "hironaka",
                           "--corpus", "t3", "--primes", "3,5,7",
                           "--max-index", "105")
        assert code == 0
        assert [r["inputs"]["primes"] for r in json.loads(out)["results"]] \
            == [[3, 5, 7]]

    def test_hironaka_named_b1_mismatch(self, capsys):
        code, out, err = run(capsys, "verify", "hironaka",
                             "--corpus", "heisenberg,t3", "--primes", "3,3")
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "t3" in err and "heisenberg" not in err

    def test_levine_seeded(self, capsys):
        code, out, _ = run(capsys, "verify", "levine",
                           "--seed", "7", "--cases", "10")
        assert code == 0
        assert json.loads(out)["failed"] == 0

    def test_blanchfield_all(self, capsys):
        code, out, _ = run(capsys, "verify", "blanchfield", "--corpus", "all")
        assert code == 0

    def test_unknown_corpus_message(self, capsys):
        code, out, err = run(capsys, "verify", "hironaka",
                             "--corpus", "nosuch")
        assert (code, out, err) == (2, "", unknown_entry_error("nosuch"))

    def test_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "torres"])
        assert exc.value.code == 2

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "verify", "shalen-wagreich",
                           "--corpus", "t3", "--max-index", "4")
        assert code == 3 and "exceeds" in err

    def test_failure_serializes_counterexample(self, capsys):
        # the cover-torsion product formula genuinely fails on this
        # rank-2 cover; the CLI must exit 1 and name the counterexample
        code, out, _ = run(capsys, "verify", "torsion-cover",
                           "--corpus", "heisenberg", "--primes", "2,2")
        assert code == 1
        data = json.loads(out)
        assert data["failed"] == 1
        assert data["first_counterexample"]["status"] == "not_equal"

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "verify", "b1-one-characterization",
                         "--seed", "3", "--cases", "5")
        _, out2, _ = run(capsys, "verify", "b1-one-characterization",
                         "--seed", "3", "--cases", "5")
        assert out1 == out2

    def test_bad_primes(self, capsys):
        code, out, err = run(capsys, "verify", "torsion-cover",
                             "--corpus", "mapping-torus-A", "--primes", "x")
        assert code == 2 and "'x'" in err and not out

    @pytest.mark.parametrize("theorem", ["torsion-cover", "hironaka",
                                         "shalen-wagreich"])
    @pytest.mark.parametrize("prime", ["0", "1", "4"])
    def test_nonprime_primes(self, capsys, theorem, prime):
        code, out, err = run(capsys, "verify", theorem, "--corpus",
                             "mapping-torus-A", "--primes", prime)
        assert code == 2 and not out
        assert err == "error: %s is not prime\n" % prime

    @pytest.mark.parametrize("argv", [("levine", "--cases", "-3"),
                                      ("hironaka", "--max-index", "0")])
    def test_zero_cases_fail(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and "no cases" in err and not out

    def test_shalen_wagreich_reads_primes(self, capsys):
        code, out, _ = run(capsys, "verify", "shalen-wagreich",
                           "--corpus", "t3", "--primes", "5")
        assert code == 0
        assert [r["inputs"]["p"] for r in json.loads(out)["results"]] == [5]
        code, out, _ = run(capsys, "verify", "shalen-wagreich",
                           "--corpus", "t3")
        assert code == 0
        assert [r["inputs"]["p"] for r in json.loads(out)["results"]] \
            == [2, 3]

    @pytest.mark.parametrize("argv", [
        ("shalen-wagreich", "--seed", "1"),
        ("hironaka", "--seed", "1"),
        ("levine", "--primes", "2"),
        ("levine", "--corpus", "t3"),
        ("blanchfield", "--primes", "2"),
        ("blanchfield", "--max-index", "64"),
        ("b1-one-characterization", "--corpus", "t3"),
        ("b1-one-characterization", "--primes", "2"),
        ("b1-ge-4", "--primes", "2"),
        ("torsion-cover", "--cases", "3")])
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert argv[1] in err and "Traceback" not in err

    def test_hironaka_single_entry(self, capsys):
        code, out, _ = run(capsys, "verify", "hironaka",
                           "--corpus", "mapping-torus-A")
        assert code == 0
        data = json.loads(out)
        assert data["cases"] >= 1 and data["failed"] == 0


class TestCorpusCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == 0
        names = [e["name"] for e in json.loads(out)["entries"]]
        assert "t3" in names and "mapping-torus-A" in names

    def test_show_roundtrips(self, capsys):
        from alexinv.presentation import parse_presentation
        code, out, _ = run(capsys, "corpus", "show", "t3")
        assert code == 0
        P = parse_presentation(out)
        assert P.num_generators == 3

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "corpus", "show", "nope")
        assert code == 2

    def test_show_unknown_message(self, capsys):
        code, out, err = run(capsys, "corpus", "show", "nosuch")
        assert (code, out, err) == (2, "", unknown_entry_error("nosuch"))

    def test_show_without_name(self, capsys):
        code, _, err = run(capsys, "corpus", "show")
        assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "alexinv.cli", "classify", "t + t^-1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["symmetry"] == "Symmetric"


@pytest.mark.parametrize("argv", [
    ("torsion-cover", "--corpus", "mapping-torus-A"),
    ("shalen-wagreich", "--corpus", "t3"),
    ("hironaka", "--corpus", "mapping-torus-A")])
def test_huge_prime_over_the_index_limit_exits_3(argv):
    """The cover index is compared with --max-index before the prime is
    tested: trial division up to the square root of this one would not
    end, and these commands ran until killed."""
    import subprocess
    import sys
    huge = "1000000000000000000000000000057"
    proc = subprocess.run(
        [sys.executable, "-m", "alexinv", "verify", *argv, "--primes", huge],
        capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (3, "")
    index = int(huge) ** (3 if "t3" in argv else 1)
    assert proc.stderr == ("error: cover of index %d exceeds the limit 256\n"
                           % index)


@pytest.mark.parametrize("argv", [("corpus", "list"),
                                  ("corpus", "show", "t3")])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # (or, for the short output, the flush) meets a broken pipe
    import os
    import subprocess
    import sys
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "alexinv", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""  # no traceback, no "Exception ignored"


def test_emits_integers_past_the_str_digit_cap(capsys):
    """A torsion order of 5,000 digits prints whole, past Python's default
    cap of 4,300 digits on int-to-str conversion, and the cap is restored
    after the output."""
    import sys
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = cap()
    _emit({"lhs": 10 ** 4999 + 1})
    out = capsys.readouterr().out
    assert json.loads(out, parse_int=str) == {"lhs": "1" + "0" * 4998 + "1"}
    assert cap() == before
