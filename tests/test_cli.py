"""Command-line protocol: verdict-first lines, JSON payloads, exit codes."""

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from substal import cli
from substal.cli import run
from substal.frames import Frame, frame_to_json, point_frame
from substal.gallery import not_a_variety_witness
from substal.monoid import generators
from substal.setalg import algebra_to_json, make_relativized, small_algebra


def _lines(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err


# ------------------------------------------------------------------ sat/valid

def test_sat_prints_verdict_then_witness(capsys):
    code = run(["sat", "-n", "2", "p0 & s[0|1] ~p0"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[0] == "SAT"
    witness = json.loads("\n".join(out[1:]))
    assert set(witness) == {"k", "point", "world", "valuation",
                            "partition", "touched"}
    assert witness["partition"] == [0, 1]
    assert witness["valuation"] == {"p0": [witness["world"]]}


def test_sat_unsat_exit_code(capsys):
    code = run(["sat", "-n", "2", "p0 & ~p0"])
    out, _ = _lines(capsys)
    assert code == 1
    assert out == ["UNSAT"]


def test_valid_formula(capsys):
    assert run(["valid", "-n", "2", "p0 | ~p0"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "VALID"

    assert run(["valid", "-n", "2", "p0"]) == 1
    out, _ = _lines(capsys)
    assert out[0] == "INVALID"
    json.loads("\n".join(out[1:]))   # counterexample witness


def test_valid_axiom_sweep(capsys):
    code = run(["valid", "-n", "2", "--axioms", "--json"])
    out, _ = _lines(capsys)
    assert code == 0
    assert out[0] == "VALID"
    results = json.loads("\n".join(out[1:]))
    assert len(results) == 36
    assert all(entry["valid"] for entry in results)
    assert {"tag", "equation", "valid"} == set(results[0])


def test_valid_axiom_sweep_without_json_prints_the_verdict_only(capsys):
    assert run(["valid", "-n", "3", "--mode", "diag", "--axioms"]) == 0
    out, err = _lines(capsys)
    assert out == ["VALID"] and err == ""


def test_equation_errors_give_positions_in_the_whole_text(capsys):
    """A parse error on the right of '=' is placed in the full equation
    text, not in its right half."""
    for argv, position in ((["eq", "-n", "2", "p0 = p1 &"], 9),
                           (["eq", "-n", "3", "s[0,1] p0 = s[0,7] p0"], 12),
                           (["eq", "-n", "2", "p0 & = p1"], 5),
                           (["eq", "-n", "2", "p0"], 2)):
        assert run(argv) == 2
        out, err = _lines(capsys)
        assert out == []
        assert err.rstrip().endswith("(at position %d)" % position), err


def test_diagonal_sat_is_not_decided_at_the_discrete_point(capsys):
    # d(0,1) fails at the point (0, 1) and holds at (0, 0)
    assert run(["sat", "-n", "2", "--mode", "diag", "d(0,1)"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "SAT"
    assert json.loads("\n".join(out[1:]))["partition"] == [0, 0]


def test_deep_formulas_get_a_verdict(capsys):
    assert run(["sat", "-n", "2", "s[0,1] " * 1200 + "p0"]) == 0
    out, err = _lines(capsys)
    assert out[0] == "SAT" and err == ""

    wide = " & ".join("p%d" % v for v in range(1500))
    assert run(["sat", "-n", "2", wide]) == 0
    out, err = _lines(capsys)
    assert out[0] == "SAT" and err == ""
    assert len(json.loads("\n".join(out[1:]))["valuation"]) == 1500

    assert run(["valid", "-n", "2", "~" * 1501 + "p0 | p0"]) == 0
    out, _ = _lines(capsys)
    assert out == ["VALID"]


def test_deep_parentheses_are_an_input_error(capsys):
    assert run(["sat", "-n", "2", "(" * 500 + "p0" + ")" * 500]) == 2
    _, err = _lines(capsys)
    assert err.startswith("error:") and len(err.splitlines()) == 1


def _xor(a, b):
    return "((%s & ~%s) | (~%s & %s))" % (a, b, a, b)


def _balanced_xor(items):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return _xor(_balanced_xor(items[:mid]), _balanced_xor(items[mid:]))


def _iff(a, b):
    return "((%s -> %s) & (%s -> %s))" % (a, b, b, a)


def test_parity_pair_at_sixteen_literals(capsys):
    """x0 ^ ... ^ x15, each literal behind a substitution word, against the
    reversed and so re-bracketed chain (VALID), and against that chain with
    its middle literal dropped (INVALID)."""
    words = ["", "s[0,1] ", "s[1|2] s[0,1] "]
    lits = ["%sp%d" % (words[v % 3], v) for v in range(16)]
    left = _balanced_xor(lits)
    reverse = lits[::-1]
    same = _iff(left, _balanced_xor(reverse))
    del reverse[8]
    dropped = _iff(left, _balanced_xor(reverse))
    for formula, code, verdict in ((same, 0, "VALID"), (dropped, 1, "INVALID")):
        t0 = time.monotonic()
        assert run(["valid", "-n", "3", formula]) == code
        elapsed = time.monotonic() - t0
        out, _ = _lines(capsys)
        assert out[0] == verdict
        assert elapsed < 0.25, "%s took %.2fs" % (verdict, elapsed)


def test_valid_needs_formula_or_axioms(capsys):
    code = run(["valid", "-n", "2"])
    _, err = _lines(capsys)
    assert code == 2
    assert "error:" in err

    # both: the formula is not dropped in silence
    for argv in (["valid", "--axioms", "p0"], ["valid", "p0", "--axioms"]):
        assert run(argv) == 2
        out, err = _lines(capsys)
        assert out == []
        assert err == "error: give a formula or --axioms, not both\n"


def test_eq_command(capsys):
    assert run(["eq", "-n", "2", "s[0|1] p0 = s[0|1] s[0|1] p0"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "VALID"

    assert run(["eq", "-n", "2", "p0 = s[0,1] p0"]) == 1
    out, _ = _lines(capsys)
    assert out[0] == "INVALID"


def test_diagonal_modes_parse(capsys):
    assert run(["sat", "-n", "2", "--mode", "diag", "~d(0,1)"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "SAT"

    # diagonals are not part of the plain full signature
    assert run(["sat", "-n", "2", "~d(0,1)"]) == 2
    _, err = _lines(capsys)
    assert "error:" in err


def test_word_command(capsys):
    assert run(["word", "-n", "2", "s[0|1] s[0|1]", "s[0|1]"]) == 0
    out, _ = _lines(capsys)
    assert out == ["EQUIVALENT"]

    assert run(["word", "-n", "2", "s[0,1] s[0,1]", "s[0|1]"]) == 1
    out, _ = _lines(capsys)
    assert out == ["DISTINCT"]

    assert run(["word", "-n", "2", "--mode", "pinter", "s[0,1]", "s[0,1]"]) == 2
    _, err = _lines(capsys)
    assert "error:" in err


def test_dimension_floor(capsys):
    assert run(["sat", "-n", "1", "p0"]) == 2
    _, err = _lines(capsys)
    assert "at least 2" in err


def test_dimension_ceiling(capsys):
    """The formula commands take n up to 8, every other command up to 6
    (the monoid's cap); one past its cap, a command exits 2 with one line
    naming it.  The -n help states both caps."""
    for argv, cap in ((["sat", "-n", "9", "p0"], 8),
                      (["valid", "-n", "9", "p0"], 8),
                      (["eq", "-n", "9", "p0 = p0"], 8),
                      (["word", "-n", "9", "s[0,1]", "s[0,1]"], 8),
                      (["axioms", "-n", "7"], 6),
                      (["gallery", "not-a-variety", "-n", "7"], 6)):
        assert run(argv) == 2, argv
        out, err = _lines(capsys)
        assert out == []
        assert err == "error: need -n at least 2 and at most %d for %s\n" % (
            cap, argv[0])
    for argv, verdict in ((["sat", "-n", "8", "p0"], "SAT"),
                          (["valid", "-n", "8", "p0 | ~p0"], "VALID"),
                          (["eq", "-n", "8", "s[0,7] s[0,7] p0 = p0"], "VALID"),
                          (["word", "-n", "8", "s[6|7]", "s[7,6] s[7|6]"],
                           "EQUIVALENT")):
        assert run(argv) == 0, argv
        out, _ = _lines(capsys)
        assert out[0] == verdict, argv
    assert run(["sat", "-h"]) == 0
    out, _ = _lines(capsys)
    assert ("2 to 8 for sat, valid, eq and word, 2 to 6 for the other "
            "commands") in " ".join(" ".join(out).split())


def test_all_distinct_witness_at_n8_is_fast():
    """A cold `sat` at n = 8 whose every model puts eight distinct values at
    its point: SAT with k = 8 within 1 s.  The witness is re-checked at
    its point, not over the 8⁸ points of its square."""
    pairs = itertools.combinations(range(8), 2)
    formula = (" & ".join("~d(%d,%d)" % pair for pair in pairs)
               + " & p0 & ~ s[0,1] p0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "substal.cli", "sat", "-n", "8", "--mode",
         "full_diagonal", formula], capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split("\n")
    assert out[0] == "SAT"
    assert json.loads("\n".join(out[1:]))["k"] == 8
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_malformed_formula(capsys):
    assert run(["sat", "-n", "2", "p0 &"]) == 2
    _, err = _lines(capsys)
    assert "error:" in err


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["gallery", "no-such-exhibit"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ parser parity

# one valid argv per command, using every option the command takes
VALID_ARGV = {
    "sat": ["sat", "-n", "3", "--mode", "diag", "p0"],
    "valid": ["valid", "-n", "2", "--mode", "pinter", "--json", "--axioms"],
    "eq": ["eq", "-n", "2", "--mode", "replacements", "p0 = p0"],
    "word": ["word", "-n", "4", "--mode", "full", "s[0|1]", "s[0,1]"],
    "frame-check": ["frame-check", "--json", "f.json"],
    "represent": ["represent", "--json", "--seed", "3", "f.json"],
    "axioms": ["axioms", "-n", "5", "--mode", "transpositions", "--json"],
    "quasi": ["quasi", "--json", "f.json"],
    "gallery": ["gallery", "truncation", "-n", "3", "--json", "-k", "4",
                "--bound", "5"],
}

# options each command accepted and ignored before it declared only what
# its handler reads
DROPPED = {
    "sat": ["--json", "--seed", "--budget"],
    "valid": ["--seed", "--budget"],
    "eq": ["--json", "--seed", "--budget"],
    "word": ["--json", "--seed", "--budget"],
    "frame-check": ["--mode", "--seed", "--budget"],
    "represent": ["--mode", "--budget"],
    "axioms": ["--seed", "--budget"],
    "quasi": ["--mode", "--seed", "--budget"],
    "gallery": ["--mode", "--seed", "--budget"],
}


def _full(argv):
    """vars() of the full parser's namespace for argv."""
    return vars(cli._parser().parse_args(list(argv)))


def _table(argv):
    """vars() of the table reader's namespace for argv, or None where it
    leaves the call to argparse."""
    args = cli._read(cli.COMMANDS[argv[0]], argv[1:])
    return None if args is None else vars(args)


def _outcome(parse, argv, capsys):
    """(exit code or "parsed", stdout, stderr) of one parse."""
    try:
        parse(list(argv))
        code = "parsed"
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_the_table_parsers_agree_on_valid_argv():
    assert set(VALID_ARGV) == set(cli.COMMANDS)
    for name, argv in VALID_ARGV.items():
        table = _table(argv)
        assert table is not None, argv     # read by the table
        assert table == _full(argv)
        assert table["command"] == name


def test_the_table_parsers_agree_on_help_and_errors(capsys):
    for name, argv in VALID_ARGV.items():
        cases = [[name, "-h"], argv + ["--mode", "bogus"], argv + ["-n", "x"],
                 argv + ["--no-such-option"], [name], argv[:-1]]
        for case in cases:
            full = _outcome(cli._parser().parse_args, case, capsys)
            if full[0] != "parsed":
                assert _table(case) is None, case
                assert full[0] in (0, 2) and (full[1] or full[2])
                assert _outcome(run, case, capsys)[1:] == full[1:], case
                assert run(list(case)) == full[0]
                capsys.readouterr()
            else:
                assert _table(case) in (None, _full(case)), case


def test_top_level_calls_list_every_command(capsys):
    for argv, code in (([], 2), (["-h"], 0), (["bogus"], 2)):
        assert run(argv) == code
        out, err = capsys.readouterr()
        for name in cli.COMMANDS:
            assert name in out + err, (argv, name)
    assert len(cli.COMMANDS) == 9


def test_commands_reject_the_options_they_ignored(capsys):
    values = {"--json": [], "--seed": ["1"], "--budget": ["5"],
              "--mode": ["full"]}
    for name, options in DROPPED.items():
        assert set(options).isdisjoint(
            flag for flags, _ in cli.COMMANDS[name].arguments for flag in flags)
        for option in options:
            assert run(VALID_ARGV[name] + [option] + values[option]) == 2
            _, err = capsys.readouterr()
            assert "unrecognized arguments: " + option in err


# argv tokens: every command's flags and values, and the spellings the table
# leaves to argparse
FLAGS = sorted({flag for c in cli.COMMANDS.values()
                for flags, _ in c.arguments for flag in flags
                if flag.startswith("-")})
VALUES = ["2", "3", "6", "0", "-1", "-2", "-1_0", "", "-", " 4", "\u0663",
          "x", "p0", "p0 = p0", "s[0|1]", "f.json", "full", "diag", "pinter",
          "full_diagonal", "not-a-variety", "rectangles", "truncation"]
ODD = ["--js", "--ax", "--mo", "--json=1", "--mode=full", "-n3", "-k2",
       "--bound=5", "--", "-h", "--help", "--seed=1", "--stats"]


@st.composite
def table_argvs(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    tokens = st.one_of(st.sampled_from(FLAGS), st.sampled_from(VALUES),
                       st.sampled_from(ODD))
    return [name] + draw(st.lists(tokens, max_size=8))


@settings(derandomize=True, max_examples=600, deadline=None)
@example(["eq", "-n", "3", "s[0,1] s[0,1] p0 = p0"])
@example(["gallery", "rectangles", "-k", " 4", "-n", "\u0663"])
@example(["valid", "--axioms", "--json", "-n", "2"])
@example(["sat", "-n", "-1_0", "p0"])
@given(table_argvs())
def test_the_table_reads_what_the_full_parser_reads(argv):
    table = _table(argv)
    if table is not None:
        assert table == _full(argv), argv


def test_a_well_formed_call_builds_no_parser(monkeypatch, capsys):
    built = []
    parser = cli._parser

    def counting():
        built.append(1)
        return parser()

    monkeypatch.setattr(cli, "_parser", counting)
    assert run(["valid", "-n", "2", "p0 -> p0"]) == 0
    assert built == []
    # an = form is left to the full parser, built afresh for the call
    assert run(["valid", "--mode=full", "-n", "2", "p0"]) == 1
    assert built == [1]
    # no parser is kept between calls, nor built at import
    assert not any(isinstance(v, argparse.ArgumentParser)
                   for v in vars(cli).values())
    capsys.readouterr()


_COLD = """
import json, sys
import substal.cli
argv = json.loads(sys.argv[1])
code = substal.cli.run(argv) if argv else 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("substal")
                        or m in ("argparse", "dataclasses"))), file=sys.stderr)
sys.exit(code)
"""


def _cold(argv=None):
    """(exit code, stdout lines, modules loaded) of a fresh interpreter
    that imports substal.cli and, given argv, runs it; the modules are
    substal's and argparse or dataclasses if either was loaded."""
    proc = subprocess.run([sys.executable, "-c", _COLD, json.dumps(argv)],
                          capture_output=True, text=True)
    *errors, modules = proc.stderr.splitlines()
    assert not errors, errors
    return proc.returncode, proc.stdout.splitlines(), set(json.loads(modules))


def test_a_cold_well_formed_call_imports_no_argparse():
    code, out, loaded = _cold(["eq", "-n", "3", "s[0,1] s[0,1] p0 = p0"])
    assert (code, out) == (0, ["VALID"])
    assert "argparse" not in loaded


def test_a_cold_call_loads_only_the_modules_its_command_needs(tmp_path):
    base = {"substal", "substal.cli", "substal.monoid"}
    assert _cold()[2] == base               # import alone: no dataclasses
    assert _cold(["word", "-n", "3", "s[0,1]", "s[0,1]"]) == (
        0, ["EQUIVALENT"], base)
    for argv in (["eq", "-n", "3", "s[0,1] s[0,1] p0 = p0"],
                 ["valid", "-n", "2", "--mode", "diag", "d(0,1) -> d(1,0)"],
                 ["sat", "-n", "2", "--mode", "diag", "~d(0,1) & s[0|1] p0"]):
        code, _, loaded = _cold(argv)
        assert code == 0, argv
        assert not loaded & {"argparse", "dataclasses", "substal.setalg",
                             "substal.frames", "substal.represent",
                             "substal.gallery"}, argv
    frame = _write(tmp_path, "frame.json",
                   frame_to_json(point_frame(2, 2, "full")))
    for argv in (["frame-check", frame], ["represent", frame]):
        code, out, loaded = _cold(argv)
        assert (code, out) == (0, ["PASS"]), argv
        assert not loaded & {"argparse", "dataclasses", "substal.logic",
                             "substal.terms", "substal.gallery"}, argv


# ------------------------------------------------------------- file commands

def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_frame_check_files(tmp_path, capsys):
    good = _write(tmp_path, "good.json",
                  frame_to_json(point_frame(2, 2, "full")))
    assert run(["frame-check", good]) == 0
    out, _ = _lines(capsys)
    assert out == ["PASS"]

    constant = Frame(2, "full", 2, {
        g: (0, 0) for g in point_frame(2, 2, "full").action
    })
    bad = _write(tmp_path, "bad.json", frame_to_json(constant))
    assert run(["frame-check", "--json", bad]) == 1
    out, _ = _lines(capsys)
    assert out[0] == "FAIL"
    payload = json.loads("\n".join(out[1:]))
    assert payload["ok"] is False
    assert payload["failures"]


def test_frame_check_json_lists_the_failures_of_one_corrupted_entry(
        tmp_path, capsys):
    """One table entry of a point frame sent elsewhere: the Cayley-edge
    failures, in walk order and capped at ten, then a diagonal marking no
    longer preserved."""
    cases = [
        ((3, 2, "full"), "s[0|1]", 5, 0,
         [["coherence", [1, 0, 2], "s[0|1]", 6],
          ["coherence", [1, 0, 2], "s[1|0]", 5],
          ["coherence", [1, 1, 2], "s[0,2]", 5],
          ["coherence", [1, 1, 2], "s[1,2]", 5],
          ["coherence", [1, 1, 2], "s[0|2]", 5],
          ["coherence", [1, 1, 2], "s[1|2]", 5],
          ["coherence", [2, 1, 2], "s[1,2]", 3],
          ["coherence", [2, 1, 2], "s[0|1]", 4],
          ["coherence", [0, 1, 0], "s[0|1]", 1],
          ["coherence", [0, 1, 1], "s[0,2]", 5]], 83),
        ((2, 3, "full_diagonal"), "s[0,1]", 4, 1,
         [["coherence", [1, 0], "s[0,1]", 4],
          ["coherence", [1, 0], "s[0|1]", 4],
          ["coherence", [1, 1], "s[0,1]", 3],
          ["coherence", [0, 0], "s[0,1]", 1],
          ["diag-subst", "s[0,1]", 0, 1]], 12),
    ]
    for shape, token, world, to, failures, pairs in cases:
        data = frame_to_json(point_frame(*shape))
        data["action"][token][world] = to
        path = _write(tmp_path, "corrupt.json", data)
        assert run(["frame-check", "--json", path]) == 1
        out, _ = _lines(capsys)
        assert out[0] == "FAIL"
        assert json.loads("\n".join(out[1:])) == {
            "failures": failures, "ok": False, "pairs_checked": pairs}


def test_frame_check_refuses_an_over_budget_monoid_quickly(tmp_path, capsys):
    # |M| = 6^6 for the full monoid, so the work bound is exceeded; the
    # size comes from its closed form, not from enumerating the monoid
    one = Frame(6, "full", 1, {g: (0,) for g in generators(6, "full")})
    path = _write(tmp_path, "one.json", frame_to_json(one))
    t0 = time.monotonic()
    assert run(["frame-check", path]) == 2
    elapsed = time.monotonic() - t0
    _, err = _lines(capsys)
    assert "budget" in err
    assert elapsed < 0.5, "took %.2fs" % elapsed


def test_frame_check_without_json_prints_the_verdict_of_a_failing_pair(
        tmp_path, capsys):
    """A frame whose s[0,1] table is constant fails the word pair
    s[0,1] s[0,1] = 1: without --json `frame-check` prints FAIL alone and
    lists nothing, so it walks no Cayley edge, even at n = 6, where the
    row walk is over the budget.  With --json the failures are listed
    from the row walk: the ⁵2 frame's first ten, up to edge 331, and at
    n = 6 the budget refusal."""
    for n, listed in ((5, 331), (6, None)):
        gens = generators(n, "full")
        action = {g: (0, 1) for g in gens}
        action[gens[0]] = (0, 0)            # s[0,1]
        path = _write(tmp_path, "broken%d.json" % n,
                      frame_to_json(Frame(n, "full", 2, action)))
        assert run(["frame-check", path]) == 1
        out, err = _lines(capsys)
        assert out == ["FAIL"] and err == ""
        if listed is None:
            assert run(["frame-check", "--json", path]) == 2
            _, err = _lines(capsys)
            assert "budget" in err
            continue
        assert run(["frame-check", "--json", path]) == 1
        out, _ = _lines(capsys)
        payload = json.loads("\n".join(out[1:]))
        assert len(payload["failures"]) == 10
        assert payload["pairs_checked"] == listed


def test_frame_check_missing_file(capsys):
    assert run(["frame-check", "/no/such/file.json"]) == 2
    _, err = _lines(capsys)
    assert "error:" in err


def test_represent_accepts_algebra_and_frame_files(tmp_path, capsys):
    alg = _write(tmp_path, "alg.json", algebra_to_json(small_algebra(2, 2)))
    assert run(["represent", alg]) == 0
    out, _ = _lines(capsys)
    assert out == ["PASS"]

    frm = _write(tmp_path, "frame.json",
                 frame_to_json(point_frame(2, 2, "full")))
    assert run(["represent", "--json", frm]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "PASS"
    payload = json.loads("\n".join(out[1:]))
    assert payload["report"]["homomorphism"]
    assert payload["report"]["injective"]


def test_represent_rejects_incoherent_frame(tmp_path, capsys):
    constant = Frame(2, "full", 2, {
        g: (0, 0) for g in point_frame(2, 2, "full").action
    })
    bad = _write(tmp_path, "bad.json", frame_to_json(constant))
    assert run(["represent", bad]) == 2
    _, err = _lines(capsys)
    assert "coherence" in err


def test_represent_diagonal_files(tmp_path, capsys):
    """In diagonal mode represent stacks the quotient blocks: the whole ³2
    square and the ²2 point frame PASS.  A coherent frame whose quotient
    is not well defined (both worlds on d(0,1), s[0|1] moving world 1 to
    world 0) gives FAIL with the reason under --json."""
    for name, data in (("square.json", algebra_to_json(
            small_algebra(3, 2, "full_diagonal"))), ("frame.json",
            frame_to_json(point_frame(2, 2, "full_diagonal")))):
        assert run(["represent", _write(tmp_path, name, data)]) == 0
        assert _lines(capsys)[0] == ["PASS"]

    swap, r01, r10 = generators(2, "full_diagonal")
    frame = Frame(2, "full_diagonal", 2, {swap: (0, 1), r01: (0, 0),
                                          r10: (0, 0)}, {(0, 1): 0b11})
    path = _write(tmp_path, "ill.json", frame_to_json(frame))
    assert run(["represent", "--json", path]) == 1
    out, _ = _lines(capsys)
    assert out[0] == "FAIL"
    report = json.loads("\n".join(out[1:]))["report"]
    assert report["homomorphism"] is False
    assert report["failures"][0] == ["well-defined", [0, 1], [1, 1]]


def test_represent_json_on_the_transpositions_100_square_is_fast(
        tmp_path, capsys):
    """`represent --json` lists the points of each of the 10⁴ one-point
    atoms of the whole ²100 transpositions square: a ceiling of 1 s, so
    the listing stays linear in the atoms."""
    path = _write(tmp_path, "transpositions100.json",
                  {"n": 2, "k": 100, "mode": "transpositions",
                   "unit": list(range(100**2))})
    t0 = time.monotonic()
    assert run(["represent", "--json", path]) == 0
    elapsed = time.monotonic() - t0
    out, _ = _lines(capsys)
    assert out[0] == "PASS"
    payload = json.loads("\n".join(out[1:]))
    assert payload["atoms"] == [[p] for p in range(100**2)]
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_represent_rejects_unknown_format(tmp_path, capsys):
    path = _write(tmp_path, "odd.json", {"foo": 1})
    assert run(["represent", path]) == 2
    _, err = _lines(capsys)
    assert "error:" in err


def test_deep_json_files_are_an_input_error(tmp_path, capsys):
    """A document nested deeper than the JSON parser recurses exits 2,
    closed or not, on every command that reads a file."""
    for name, text in (("open.json", "[" * 100_000),
                       ("closed.json", "[" * 100_000 + "]" * 100_000)):
        path = tmp_path / name
        path.write_text(text)
        for command in ("represent", "quasi", "frame-check"):
            assert run([command, str(path)]) == 2, (command, name)
            out, err = _lines(capsys)
            assert out == [] and "nested too deeply" in err, (command, name)


def test_represent_is_deterministic_for_a_seed(tmp_path, capsys):
    frm = _write(tmp_path, "frame.json",
                 frame_to_json(point_frame(3, 2, "full")))
    assert run(["represent", "--json", "--seed", "7", frm]) == 0
    first = capsys.readouterr().out
    assert run(["represent", "--json", "--seed", "7", frm]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_quasi_command(tmp_path, capsys):
    alg = _write(tmp_path, "alg.json", algebra_to_json(small_algebra(2, 2)))
    assert run(["quasi", alg]) == 0
    out, _ = _lines(capsys)
    assert out == ["PASS"]

    bij = make_relativized(2, 2, [1, 2], "transpositions")
    rel = _write(tmp_path, "rel.json", algebra_to_json(bij))
    assert run(["quasi", "--json", rel]) == 1
    out, _ = _lines(capsys)
    assert out[0] == "FAIL"
    payload = json.loads("\n".join(out[1:]))
    assert payload["holds"] is False


def test_quasi_on_the_full_5_5_algebra_is_fast(tmp_path, capsys):
    """The 120 permutations of the stabilizer each color the 3125 points
    of ⁵5 along their world table: a ceiling of half a second."""
    path = _write(tmp_path, "full55.json",
                  {"n": 5, "k": 5, "mode": "full", "unit": list(range(5**5))})
    t0 = time.monotonic()
    assert run(["quasi", path]) == 0
    elapsed = time.monotonic() - t0
    out, _ = _lines(capsys)
    assert out == ["PASS"]
    assert elapsed < 0.5, "took %.2fs" % elapsed


def test_quasi_on_the_n6_not_a_variety_unit_is_fast(tmp_path, capsys):
    """The n = 6 not-a-variety unit has an alternating set, so `quasi`
    prints FAIL at the first permutation that colors it; T = S_6 is fixed,
    so no stabilizer is computed and no closure is proved: a ceiling of
    0.3 s."""
    witness = not_a_variety_witness(6)
    path = _write(tmp_path, "not_a_variety6.json",
                  {"n": 6, "k": witness["base"], "mode": "transpositions",
                   "unit": witness["unit"]})
    t0 = time.monotonic()
    assert run(["quasi", path]) == 1
    elapsed = time.monotonic() - t0
    out, _ = _lines(capsys)
    assert out == ["FAIL"]
    assert elapsed < 0.3, "took %.2fs" % elapsed


def test_algebra_file_over_the_closure_budget_exits_quickly(tmp_path, capsys):
    """²1000 has 10⁶ points, within the point budget, but its closure check
    would shift a 10⁶-bit mask k² = 10⁶ times: refused with one line."""
    path = _write(tmp_path, "big.json",
                  {"n": 2, "k": 1000, "mode": "full",
                   "unit": list(range(1000**2))})
    t0 = time.monotonic()
    assert run(["quasi", path]) == 2
    elapsed = time.monotonic() - t0
    out, err = _lines(capsys)
    assert out == []
    assert err.startswith("error:") and "budget" in err
    assert len(err.splitlines()) == 1
    assert elapsed < 1.0, "took %.2fs" % elapsed


def test_quasi_rejects_a_frame_without_transpositions(tmp_path, capsys):
    """T = all permutations needs s_tau for every permutation tau, which a
    replacements-mode signature lacks: an input error, not a traceback."""
    frm = _write(tmp_path, "repl.json",
                 frame_to_json(point_frame(3, 2, "replacements")))
    assert run(["quasi", frm]) == 2
    out, err = _lines(capsys)
    assert out == []
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "[0, 2, 1] is not generated" in err


def test_algebra_file_rejects_unit_points_outside_the_square(tmp_path, capsys):
    path = _write(tmp_path, "alg.json", {"n": 2, "k": 2, "unit": [0, 99]})
    assert run(["represent", path]) == 2
    out, err = _lines(capsys)
    assert out == []
    assert "unit" in err


def test_frame_file_without_action_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "frame.json", {"n": 2, "mode": "full", "worlds": 2})
    assert run(["frame-check", path]) == 2
    _, err = _lines(capsys)
    assert "action" in err


def test_frame_file_rejects_unknown_generator_tokens(tmp_path, capsys):
    data = frame_to_json(point_frame(3, 2, "full"))
    data["action"]["s[7|8]"] = list(range(data["worlds"]))
    path = _write(tmp_path, "frame.json", data)
    assert run(["frame-check", path]) == 2
    _, err = _lines(capsys)
    assert "s[7|8]" in err


# ---------------------------------------------------------------- the rest

def test_axioms_listing(capsys):
    assert run(["axioms", "-n", "2"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "36 axioms"
    assert len(out) == 37

    assert run(["axioms", "-n", "2", "--mode", "diag", "--json"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "42 axioms"
    entries = json.loads("\n".join(out[1:]))
    assert len(entries) == 42


def test_gallery_exhibits(capsys):
    assert run(["gallery", "not-a-variety", "-n", "4"]) == 0
    out, _ = _lines(capsys)
    assert out == ["PASS"]

    assert run(["gallery", "rectangles", "-k", "3"]) == 0
    capsys.readouterr()

    assert run(["gallery", "truncation", "-n", "2", "--bound", "4",
                "--json"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "PASS"
    payload = json.loads("\n".join(out[1:]))
    assert payload["check"] == "counter2-truncation"
    assert payload["pass"] is True


# sha256 of the stdout of `gallery --json not-a-variety -n N`, recorded
# while each square's points were still listed before the search
NOT_A_VARIETY_JSON = {
    2: "07347b0c862dc03bb0d5bb538cd1fefbf1f43cfa779c7b19a98665df188dd07f",
    3: "b1dc3b13ad548e887db93c4e17b02a137ad88c9821a621c4cf0939611f44fd24",
    4: "95643b62c1d286a2569e2a8ef4164cc7c95d60413f2834bda58da06e87cc3f0e",
    5: "b8709255796f66423f773ac659b890a7414c325e063a870b1d4e5e712a2b8295",
    6: "5b30306fe471fc9d2d263cf2da3da79c8513f323af5262e59925f38a8e552b07",
}


def test_not_a_variety_json_is_unchanged(capsys):
    for n, digest in NOT_A_VARIETY_JSON.items():
        assert run(["gallery", "--json", "not-a-variety", "-n", str(n)]) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


# sha256 of the stdout of `axioms -n N --mode M`, then with --json, for
# N = 2..6 in turn, recorded while sigma_axioms still built its perm:* and
# subst:* equations from generator symbols rather than monoid.relations
AXIOMS_LISTING = {
    "replacements": "e35e6cd16b083f7e1244defdc8ce80d45f2a9ed85a3e7f78c9341078f6c6e2a1",
    "transpositions": "4566f329c3867d850b93198dcd769c3c95f636e2d3d0c17594afbc372557908f",
    "full": "142edf78ff8c7891b3bfbe64a4402a9ba5c7fd42eb9643479778f1b475240d30",
    "full_diagonal": "7540e2a1d048d87d7289358263232926cd27c5de66e973713edf189b7e8f1680",
}


def test_axioms_listing_is_unchanged(capsys):
    for mode, digest in AXIOMS_LISTING.items():
        listing = hashlib.sha256()
        for n in range(2, 7):
            for flags in ([], ["--json"]):
                assert run(["axioms", "-n", str(n), "--mode", mode,
                            *flags]) == 0
                listing.update(capsys.readouterr()[0].encode())
        assert listing.hexdigest() == digest, mode


def test_gallery_sizes_over_budget_exit_quickly(capsys):
    """Sizes whose exhibit would run for minutes are refused where they
    enter, before any work."""
    for argv in (["gallery", "rectangles", "-n", "6", "-k", "4"],
                 ["gallery", "rectangles", "-k", "8"],
                 ["gallery", "truncation", "-n", "2", "--bound", "400"],
                 ["gallery", "truncation", "-n", "4", "--bound", "30"]):
        t0 = time.monotonic()
        assert run(argv) == 2, argv
        elapsed = time.monotonic() - t0
        _, err = _lines(capsys)
        assert err.startswith("error:") and "budget" in err, argv
        assert elapsed < 1.0, (argv, elapsed)


def test_gallery_rectangles_refuse_a_negative_base_size(capsys):
    assert run(["gallery", "rectangles", "-k", "-1"]) == 2
    out, err = _lines(capsys)
    assert out == []
    assert err == "error: base size must be >= 0\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "substal.cli"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
