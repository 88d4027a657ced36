"""Command-line front end with stable machine-readable JSON output.

Exit codes: 0 success, 1 computation or verification failure, 2 usage or
parse error, 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus, verify
from .alexander import MinorBudgetError, full_report
from .covers import CoverIndexError
from .laurent import (MAX_ARITY, ParseError, classify_symmetry, parse_poly,
                      trace)
from .presentation import parse_presentation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(payload):
    # a torsion order can pass Python's cap on int-to-str conversion
    # (4300 digits): |Tor H_1| of the p-fold cyclic cover of
    # mapping-torus-A has about 0.57 p digits.  The cap is lifted for the
    # output only, where the function exists.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _fail(message, code):
    if isinstance(message, KeyError):  # its str() quotes the message
        message = message.args[0]
    print("error: %s" % message, file=sys.stderr)
    return code


def _load_presentation(args):
    if args.corpus:
        return corpus.get(args.corpus).presentation
    if not args.path:
        raise ValueError("give a presentation file or --corpus NAME")
    with open(args.path, encoding="utf-8") as handle:
        return parse_presentation(handle.read())


def cmd_compute(args):
    try:
        P = _load_presentation(args)
    except (OSError, ParseError, KeyError, ValueError) as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        report = full_report(P)
    except MinorBudgetError as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_FAIL)
    _emit(report.as_dict())
    return EXIT_OK


def cmd_classify(args):
    if not 1 <= args.arity <= MAX_ARITY:
        return _fail("--arity must be between 1 and %d" % MAX_ARITY,
                     EXIT_USAGE)
    try:
        poly = parse_poly(args.poly, args.arity)
    except ParseError as exc:
        return _fail(str(exc), EXIT_USAGE)
    if poly.is_zero():
        return _fail("the zero polynomial has no symmetry class", EXIT_FAIL)
    cls = classify_symmetry(poly)
    payload = {
        "poly": str(poly),
        "symmetry": cls.kind.value,
        "witness": str(cls.witness) if cls.witness else None,
        "trace": trace(poly),
    }
    if args.arity == 1:
        from .alexander import characterize_b1_one
        verdict = characterize_b1_one(poly)
        payload["realizable"] = verdict.realizable
        if verdict.witness_delta is not None:
            payload["witness_delta"] = str(verdict.witness_delta)
    else:
        payload["realizable"] = None
    _emit(payload)
    return EXIT_OK


def cmd_verify(args):
    try:
        options = {
            "names": args.corpus.split(",") if args.corpus else None,
            "primes": [int(p) for p in args.primes.split(",")]
            if args.primes else None,
            "seed": args.seed, "cases": args.cases,
            "max_index": args.max_index, "max_degree": args.max_degree}
        unread = ["--corpus" if k == "names" else "--" + k.replace("_", "-")
                  for k, v in options.items() if v is not None
                  and k not in verify.SUITES[args.theorem][1]]
        if unread:
            raise ValueError("verify %s does not read %s"
                             % (args.theorem, ", ".join(unread)))
        if args.max_degree is None:
            options["max_degree"] = 12  # the suites' own default is 4
        reports = verify.run_suite(args.theorem, **options)
    except (CoverIndexError, MinorBudgetError) as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except (KeyError, ValueError) as exc:
        return _fail(exc, EXIT_USAGE)
    if not reports:
        return _fail("%s: no cases to check" % args.theorem, EXIT_FAIL)
    failures = [r for r in reports if not r.ok]
    payload = {
        "theorem": args.theorem,
        "cases": len(reports),
        "failed": len(failures),
        "results": [r.as_dict() for r in reports],
    }
    if failures:
        payload["first_counterexample"] = failures[0].as_dict()
    _emit(payload)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_corpus(args):
    if args.action == "list":
        _emit({"entries": [corpus.get(n).describe() for n in corpus.names()]})
        return EXIT_OK
    if not args.name:
        return _fail("corpus show needs a name", EXIT_USAGE)
    try:
        entry = corpus.get(args.name)
    except KeyError as exc:
        return _fail(exc, EXIT_USAGE)
    print("# %s" % entry.name)
    print(str(entry.presentation))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alexinv",
        description="Exact Alexander invariants of finitely presented "
                    "groups, with theorem verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="invariant report for a presentation")
    p_compute.add_argument("path", nargs="?",
                           help="presentation file (<gens | relators>)")
    p_compute.add_argument("--corpus", help="built-in presentation name")
    p_compute.set_defaults(func=cmd_compute)

    p_classify = sub.add_parser(
        "classify", help="symmetry class and realizability of a polynomial")
    p_classify.add_argument("poly", help='e.g. "t^2 - 4*t + 1"')
    p_classify.add_argument("--arity", type=int, default=1)
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run a theorem check suite")
    p_verify.add_argument("theorem", choices=verify.THEOREMS)
    p_verify.add_argument("--corpus",
                          help="comma-separated entry names, or 'all'")
    p_verify.add_argument("--primes", help="comma-separated primes")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--cases", type=int)
    p_verify.add_argument("--max-index", type=int,
                          help="largest cover index to build")
    p_verify.add_argument("--max-degree", type=int,
                          help="degree cap for random polynomials")
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="list or show built-in entries")
    p_corpus.add_argument("action", choices=["list", "show"])
    p_corpus.add_argument("name", nargs="?")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the exit-time flush goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
