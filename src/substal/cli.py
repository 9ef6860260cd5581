"""Command-line front end.

Verdict-first output protocol: the first stdout line is the verdict
(SAT/UNSAT, VALID/INVALID, EQUIVALENT/DISTINCT, PASS/FAIL); structured
detail follows as JSON when requested.  Exit codes: 0 for the affirmative
verdict, 1 for the negative one, 2 for usage or input errors.

Each command's arguments are one table, ``Command.arguments``.  A
well-formed call is read straight from that table; argparse is imported
and built only for what the table reader leaves to it: help, errors and
the rarer spellings (``--flag=value``, abbreviations, ``--``, values that
begin with ``-``), so its output there is the one full parser's.

Each handler imports the modules its command needs, so a call loads only
those: ``word`` needs monoid alone, the formula commands never load
frames, represent or gallery, and the file commands never load logic or
terms.  The package's exports can still be read here by name
(``cli.satisfiable``); each is loaded with its module on first use.
"""

import json
import sys
from collections import namedtuple
from types import SimpleNamespace

from .monoid import DIM_LIMIT, normalize_mode, parse_word, word_equiv


# The formula commands decide at points and never build the monoid, so
# they are not held to DIM_LIMIT, which the Cayley graph sets.  Their cap
# is measured: at n = 8 a cold full_diagonal axiom sweep takes about 1.5 s
# and the all-distinct witness, which needs k = n, 0.1 s (CHANGES.md).
FORMULA_LIMIT = 8
FORMULA_COMMANDS = ("sat", "valid", "eq", "word")

# Arguments shared by several commands, as (flags, add_argument keywords).
_N = (("-n",), dict(type=int, default=2, metavar="N",
                    help="dimension (number of coordinates): 2 to %d for "
                         "sat, valid, eq and word, 2 to %d for the other "
                         "commands" % (FORMULA_LIMIT, DIM_LIMIT)))
_MODE = (("--mode",), dict(default="full",
                           choices=["pinter", "replacements", "transpositions",
                                    "full", "diag", "full_diagonal"],
                           help="signature: which substitution operators exist"))
_JSON = (("--json",), dict(action="store_true", dest="as_json",
                           help="emit a JSON report after the verdict line"))
_SEED = (("--seed",), dict(type=int, default=0,
                           help="accepted and ignored: every check is exact, "
                                "so nothing is sampled"))
_FILE = (("file",), {})


def _read_json(path):
    """The JSON document of a file; one nested deeper than the parser's
    recursion reaches is an input error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _load_structure(path):
    from . import frames, setalg
    data = _read_json(path)
    fields = data if isinstance(data, dict) else {}
    if "action" in fields:
        frame = frames.frame_from_json(data)
        report = frames.frame_check(frame)
        if not report.ok:
            raise ValueError("frame fails coherence: %r" % (report.failures[:3],))
        return setalg.ComplexAlgebra(frame)
    if "unit" in fields:
        return setalg.algebra_from_json(data)
    raise ValueError("unrecognized file format (need a frame or algebra)")


def _emit(verdict, payload, as_json):
    print(verdict)
    if payload is not None and as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0 if verdict in ("SAT", "VALID", "EQUIVALENT", "PASS") else 1


def _sat(args):
    from . import logic, terms
    mode = normalize_mode(args.mode)
    term = terms.parse(args.formula, args.n, mode)
    sat, witness = logic.satisfiable(term, args.n, mode)
    return _emit("SAT" if sat else "UNSAT", witness, True)


def _valid(args):
    from . import logic, terms
    n, mode = args.n, normalize_mode(args.mode)
    if args.axioms and args.formula is not None:
        raise ValueError("give a formula or --axioms, not both")
    if args.axioms:
        eqs = terms.sigma_axioms(n, mode)
        verdicts = logic.equations_valid(eqs, n, mode)
        results = None
        if args.as_json:       # only --json prints the equations
            results = [{"tag": eq.tag, "equation": terms.format_equation(eq),
                        "valid": ok} for eq, ok in zip(eqs, verdicts)]
        return _emit("VALID" if all(verdicts) else "INVALID", results,
                     args.as_json)
    if args.formula is None:
        raise ValueError("give a formula or --axioms")
    ok, witness = logic.valid(terms.parse(args.formula, n, mode), n, mode)
    return _emit("VALID" if ok else "INVALID", witness, True)


def _eq(args):
    from . import logic, terms
    mode = normalize_mode(args.mode)
    eq = terms.parse_equation(args.equation, args.n, mode)
    ok, witness = logic.equation_valid(eq, args.n, mode)
    return _emit("VALID" if ok else "INVALID", witness, True)


def _word(args):
    mode = normalize_mode(args.mode)
    w1 = parse_word(args.word1, args.n, mode)
    w2 = parse_word(args.word2, args.n, mode)
    same = word_equiv(w1, w2, args.n)
    return _emit("EQUIVALENT" if same else "DISTINCT", None, False)


def _frame_check(args):
    from . import frames
    # without --json only the verdict is printed, so no failure is listed
    report = frames.frame_check(frames.frame_from_json(_read_json(args.file)),
                                listing=args.as_json)
    payload = {"ok": report.ok, "pairs_checked": report.pairs_checked,
               "failures": report.failures}
    return _emit("PASS" if report.ok else "FAIL", payload, args.as_json)


def _represent(args):
    from . import represent
    algebra = _load_structure(args.file)
    rep = represent.complete_representation(algebra)
    ok = (rep.report["homomorphism"] and rep.report["injective"]
          and rep.report["atom_cover"])
    payload = rep.to_json() if args.as_json else None
    return _emit("PASS" if ok else "FAIL", payload, args.as_json)


def _axioms(args):
    from . import terms
    eqs = terms.sigma_axioms(args.n, normalize_mode(args.mode))
    print("%d axioms" % len(eqs))
    if args.as_json:
        print(json.dumps([{"tag": e.tag, "equation": terms.format_equation(e)}
                          for e in eqs], indent=2))
    else:
        for eq in eqs:
            print("%-28s %s" % (eq.tag, terms.format_equation(eq)))
    return 0


def _quasi(args):
    from . import represent
    algebra = _load_structure(args.file)
    ok = represent.check_quasi(algebra)
    return _emit("PASS" if ok else "FAIL",
                 {"holds": ok, "T": "all permutations"}, args.as_json)


def _gallery(args):
    from . import gallery
    if args.exhibit == "not-a-variety":
        report = gallery.not_a_variety_witness(args.n)
    elif args.exhibit == "rectangles":
        report = gallery.product_identities(args.k, n=args.n)
    else:
        report = gallery.counter2_truncation(
            gallery.TruncationSpec(args.n, args.bound))
    return _emit("PASS" if report["pass"] else "FAIL", report, args.as_json)


# arguments: (flags, add_argument keywords), in usage order;
# handler: parsed arguments -> exit code
Command = namedtuple("Command", "name help arguments handler")


COMMANDS = {c.name: c for c in (
    Command("sat", "decide satisfiability of a formula",
            (_N, _MODE, (("formula",), {})), _sat),
    Command("valid", "decide validity of a formula (or the whole axiom set)",
            (_N, _MODE, _JSON, (("formula",), dict(nargs="?", default=None)),
             (("--axioms",), dict(
                 action="store_true",
                 help="check every axiom instance instead of a formula"))),
            _valid),
    Command("eq", "decide an equation lhs = rhs",
            (_N, _MODE, (("equation",), {})), _eq),
    Command("word", "compare two substitution words",
            (_N, _MODE, (("word1",), {}), (("word2",), {})), _word),
    Command("frame-check", "verify a frame file's coherence",
            (_JSON, _FILE), _frame_check),
    Command("represent", "build and verify the complete representation of "
                         "an algebra or frame file",
            (_JSON, _SEED, _FILE), _represent),
    Command("axioms", "list the axiom instances", (_N, _MODE, _JSON), _axioms),
    Command("quasi", "check the quasi-equations (T = all permutations) on an "
                     "algebra or frame file",
            (_JSON, _FILE), _quasi),
    Command("gallery", "run a counterexample exhibit",
            (_N, _JSON,
             (("exhibit",), dict(choices=["not-a-variety", "rectangles",
                                          "truncation"])),
             (("-k",), dict(type=int, default=2, help="base size for rectangles")),
             (("--bound",), dict(type=int, default=8,
                                 help="entry bound for the truncation exhibit"))),
            _gallery),
)}


def _parser():
    """The substal parser, with a subparser for every command."""
    import argparse
    top = argparse.ArgumentParser(
        prog="substal",
        description="decision procedures and representation checks for "
                    "finite substitution algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for flags, keywords in command.arguments:
            p.add_argument(*flags, **keywords)
    return top


def _value(keywords, token):
    """`token` converted by the table's type and checked against its
    choices; ValueError where argparse would refuse it or read it as an
    option."""
    if token.startswith("-"):
        raise ValueError(token)
    value = keywords.get("type", str)(token)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(token)
    return value


def _read(command, argv):
    """The arguments of a well-formed call of `command` (argv after its
    name), read from its table with the fields argparse gives them; None
    for anything else, which argparse then decides: help, any error,
    ``--flag=value``, abbreviations, ``--``, and values or positionals that
    begin with ``-``."""
    args, options, positionals = {"command": command.name}, {}, []
    for flags, keywords in command.arguments:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], keywords))
            continue
        dest = keywords.get("dest", flags[0].lstrip("-").replace("-", "_"))
        options[flags[0]] = dest, keywords
        flag = keywords.get("action") == "store_true"
        args[dest] = keywords.get("default", False if flag else None)
    words = []
    tokens = iter(argv)
    try:
        for token in tokens:
            if not token.startswith("-"):
                words.append(token)
            elif token not in options:
                return None
            else:
                dest, keywords = options[token]
                if keywords.get("action") == "store_true":
                    args[dest] = True
                else:   # a flag at the end has no value: "-" is refused
                    args[dest] = _value(keywords, next(tokens, "-"))
        for dest, keywords in positionals:
            if words:
                args[dest] = _value(keywords, words.pop(0))
            elif keywords.get("nargs") == "?":
                args[dest] = keywords.get("default")
            else:
                return None
    except ValueError:
        return None
    return None if words else SimpleNamespace(**args)


def run(argv):
    # A well-formed call is read from the table; anything else is left to
    # the full parser, built afresh, so help and errors list every command.
    command = COMMANDS.get(argv[0]) if argv else None
    args = _read(command, argv[1:]) if command else None
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    try:
        n = getattr(args, "n", None)
        cap = FORMULA_LIMIT if args.command in FORMULA_COMMANDS else DIM_LIMIT
        if n is not None and not 2 <= n <= cap:
            raise ValueError("need -n at least 2 and at most %d for %s"
                             % (cap, args.command))
        return COMMANDS[args.command].handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def __getattr__(name):
    # PEP 562: an export of the package read through this module
    return getattr(sys.modules[__package__], name)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
