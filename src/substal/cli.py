"""Command-line front end.

Verdict-first output protocol: the first stdout line is the verdict
(SAT/UNSAT, VALID/INVALID, EQUIVALENT/DISTINCT, PASS/FAIL); structured
detail follows as JSON when requested.  Exit codes: 0 for the affirmative
verdict, 1 for the negative one, 2 for usage or input errors.
"""

import argparse
import json
import random
import sys

from .monoid import (DIM_LIMIT, enumerate_monoid, normalize_mode, parse_word,
                     word_equiv)
from .terms import ParseError, format_equation, parse, parse_equation, sigma_axioms
from .setalg import algebra_from_json
from .frames import ComplexAlgebra, frame_check, frame_from_json
from .logic import equation_valid, satisfiable, valid
from .represent import SubMonoidCtx, check_quasi, complete_representation
from . import gallery


def _build_parser():
    top = argparse.ArgumentParser(
        prog="substal",
        description="decision procedures and representation checks for "
                    "finite substitution algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_n=True):
        if needs_n:
            p.add_argument("-n", type=int, default=2, metavar="N",
                           help="dimension (number of coordinates), 2 to %d"
                            % DIM_LIMIT)
        p.add_argument("--mode", default="full",
                       choices=["pinter", "replacements", "transpositions",
                                "full", "diag", "full_diagonal"],
                       help="signature: which substitution operators exist")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a JSON report after the verdict line")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for any sampled verification")
        p.add_argument("--budget", type=int, default=None,
                       help="work bound override for exhaustive checks")

    p = sub.add_parser("sat", help="decide satisfiability of a formula")
    common(p)
    p.add_argument("formula")

    p = sub.add_parser("valid", help="decide validity of a formula "
                                     "(or the whole axiom set)")
    common(p)
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--axioms", action="store_true",
                   help="check every axiom instance instead of a formula")

    p = sub.add_parser("eq", help="decide an equation lhs = rhs")
    common(p)
    p.add_argument("equation")

    p = sub.add_parser("word", help="compare two substitution words")
    common(p)
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("frame-check", help="verify a frame file's coherence")
    common(p, needs_n=False)
    p.add_argument("file")

    p = sub.add_parser("represent",
                       help="build and verify the complete representation "
                            "of an algebra or frame file")
    common(p, needs_n=False)
    p.add_argument("file")

    p = sub.add_parser("axioms", help="list the axiom instances")
    common(p)

    p = sub.add_parser("quasi",
                       help="check the quasi-equations (T = all permutations) "
                            "on an algebra or frame file")
    common(p, needs_n=False)
    p.add_argument("file")

    p = sub.add_parser("gallery", help="run a counterexample exhibit")
    common(p)
    p.add_argument("exhibit",
                   choices=["not-a-variety", "rectangles", "truncation"])
    p.add_argument("-k", type=int, default=2, help="base size for rectangles")
    p.add_argument("--bound", type=int, default=8,
                   help="entry bound for the truncation exhibit")

    return top


def _load_structure(path):
    with open(path) as fh:
        data = json.load(fh)
    fields = data if isinstance(data, dict) else {}
    if "action" in fields:
        frame = frame_from_json(data)
        report = frame_check(frame)
        if not report.ok:
            raise ValueError("frame fails coherence: %r" % (report.failures[:3],))
        return ComplexAlgebra(frame)
    if "unit" in fields:
        return algebra_from_json(data)
    raise ValueError("unrecognized file format (need a frame or algebra)")


def _emit(verdict, payload, as_json):
    print(verdict)
    if payload is not None and as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0 if verdict in ("SAT", "VALID", "EQUIVALENT", "PASS") else 1


def run(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        return _dispatch(args)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _dispatch(args):
    mode = normalize_mode(getattr(args, "mode", "full"))
    n = getattr(args, "n", None)
    if n is not None and not 2 <= n <= DIM_LIMIT:
        raise ValueError("need -n at least 2 and at most %d" % DIM_LIMIT)

    if args.command == "sat":
        term = parse(args.formula, n, mode)
        sat, witness = satisfiable(term, n, mode)
        if sat:
            print("SAT")
            print(json.dumps(witness, indent=2, sort_keys=True))
            return 0
        print("UNSAT")
        return 1

    if args.command == "valid":
        if args.axioms:
            results = []
            all_ok = True
            for eq in sigma_axioms(n, mode):
                ok, _ = equation_valid(eq, n, mode)
                all_ok = all_ok and ok
                results.append({"tag": eq.tag, "equation": format_equation(eq),
                                "valid": ok})
            verdict = "VALID" if all_ok else "INVALID"
            return _emit(verdict, results, args.as_json)
        if args.formula is None:
            raise ValueError("give a formula or --axioms")
        term = parse(args.formula, n, mode)
        ok, witness = valid(term, n, mode)
        if ok:
            print("VALID")
            return 0
        print("INVALID")
        if witness is not None:
            print(json.dumps(witness, indent=2, sort_keys=True))
        return 1

    if args.command == "eq":
        eq = parse_equation(args.equation, n, mode)
        ok, witness = equation_valid(eq, n, mode)
        if ok:
            print("VALID")
            return 0
        print("INVALID")
        if witness is not None:
            print(json.dumps(witness, indent=2, sort_keys=True))
        return 1

    if args.command == "word":
        w1 = parse_word(args.word1, n, mode)
        w2 = parse_word(args.word2, n, mode)
        same = word_equiv(w1, w2, n)
        return _emit("EQUIVALENT" if same else "DISTINCT", None, False)

    if args.command == "frame-check":
        with open(args.file) as fh:
            frame = frame_from_json(json.load(fh))
        kwargs = {}
        if args.budget:
            kwargs["budget"] = args.budget
        report = frame_check(frame, **kwargs)
        payload = {"ok": report.ok, "pairs_checked": report.pairs_checked,
                   "failures": report.failures[:10]}
        return _emit("PASS" if report.ok else "FAIL", payload, args.as_json)

    if args.command == "represent":
        algebra = _load_structure(args.file)
        rep = complete_representation(algebra, rng=random.Random(args.seed))
        ok = (rep.report["homomorphism"] and rep.report["injective"]
              and rep.report["atom_cover"])
        payload = rep.to_json() if args.as_json else None
        return _emit("PASS" if ok else "FAIL", payload, args.as_json)

    if args.command == "axioms":
        eqs = sigma_axioms(n, mode)
        print("%d axioms" % len(eqs))
        if args.as_json:
            print(json.dumps([{"tag": e.tag, "equation": format_equation(e)}
                              for e in eqs], indent=2))
        else:
            for eq in eqs:
                print("%-28s %s" % (eq.tag, format_equation(eq)))
        return 0

    if args.command == "quasi":
        algebra = _load_structure(args.file)
        perms = [t for t in enumerate_monoid(algebra.n, "transpositions")]
        ctx = SubMonoidCtx(algebra.n, perms)
        kwargs = {}
        if args.budget:
            kwargs["budget"] = args.budget
        ok = check_quasi(algebra, ctx, **kwargs)
        return _emit("PASS" if ok else "FAIL",
                     {"holds": ok, "T": "all permutations"}, args.as_json)

    if args.command == "gallery":
        if args.exhibit == "not-a-variety":
            report = gallery.not_a_variety_witness(n)
        elif args.exhibit == "rectangles":
            report = gallery.product_identities(args.k, n=n)
        else:
            report = gallery.counter2_truncation(
                gallery.TruncationSpec(n, args.bound))
        return _emit("PASS" if report["pass"] else "FAIL", report, args.as_json)

    raise ValueError("unknown command %r" % (args.command,))


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
