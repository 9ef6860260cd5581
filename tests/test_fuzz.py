"""Fuzz of the command line: whatever the argv and the input file, cli.run
exits 0, 1 or 2, raises nothing and answers within a deadline.

The argv are drawn over the command table: a command name (or a stray
word), then options and values, bad ones included, and formula token
soup.  The input file is random JSON, a valid frame or algebra file with
one field replaced, or a text nested too deeply to parse.  The valid
files reach the 81 points of the whole ⁴3 square and the 27 worlds of
the ³3 point frame, where a represent call takes about a tenth of a
second; inputs past the representation budget exit 2 at once.
"""

import io
import json
import os
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from substal import cli
from substal.frames import frame_to_json, point_frame, random_coherent_frame
from substal.setalg import algebra_to_json, make_relativized, small_algebra

FILE = "FILE"        # stands for the path of the generated input file
DEADLINE_S = 5.0
DEEP = "[" * 100_000

MODES = ["full", "diag", "pinter", "replacements", "transpositions",
         "full_diagonal", "nope", ""]
TOKENS = ["p0", "p1", "p7", "~", "&", "|", "->", "<->", "(", ")", "0", "1",
          "=", "s[0|1]", "s[1,0]", "s[0,2]", "s[0|0]", "s[5|9]", "d(0,1)",
          "d(1,1)", "d(0,9)", "s[", "]", "x", " "]
SMALL_INTS = st.integers(-2, 9).map(str)


def _values(option):
    if option == "--mode":
        return st.sampled_from(MODES)
    if option in ("-n", "-k"):
        return st.one_of(st.integers(2, 6).map(str), SMALL_INTS,
                         st.sampled_from(["x", "1e9", "99"]))
    if option == "--bound":
        return st.one_of(st.integers(-2, 14).map(str),
                         st.sampled_from(["400", "10**9", "-"]))
    return st.one_of(SMALL_INTS, st.text(max_size=3))


OPTIONS = ["-n", "--mode", "-k", "--bound", "--seed", "--budget"]
FLAGS = ["--json", "--axioms", "--stats"]
WORDS = ["not-a-variety", "rectangles", "truncation", "bogus", FILE]


def _formula(draw):
    return " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=8)))


def _well_formed(draw, name):
    """An argv with the arguments the command takes, values drawn."""
    if name in ("frame-check", "represent", "quasi"):
        return [name] + draw(st.sampled_from([[], ["--json"]])) + [FILE]
    if name == "gallery":
        argv = [name, draw(st.sampled_from(WORDS[:3]))]
        for option in ("-n", "-k", "--bound"):
            if draw(st.booleans()):
                argv += [option, draw(_values(option))]
        return argv
    argv = [name, "-n", draw(_values("-n")), "--mode", draw(_values("--mode"))]
    if name == "valid" and draw(st.booleans()):
        return argv + ["--axioms"]
    if name == "word":
        return argv + [draw(st.sampled_from(TOKENS[13:18])) for _ in "12"]
    return argv if name == "axioms" else argv + [_formula(draw)]


@st.composite
def argvs(draw):
    """A well-formed argv of a command, or a command name (or a stray
    word) followed by options, flags, words and token soup; either may
    get one more item."""
    name = draw(st.sampled_from(list(cli.COMMANDS) + ["bogus"]))
    if name in cli.COMMANDS and draw(st.booleans()):
        argv = _well_formed(draw, name)
        extra = draw(st.integers(0, 4)) == 0
    else:
        argv = [name]
        extra = draw(st.integers(0, 4))
    for _ in range(extra):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            option = draw(st.sampled_from(OPTIONS))
            argv += [option, draw(_values(option))]
        elif kind == 1:
            argv.append(draw(st.sampled_from(FLAGS)))
        elif kind == 2:
            argv.append(draw(st.sampled_from(WORDS)))
        else:
            argv.append(_formula(draw))
    return argv


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**7) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _valid_files():
    frames = [point_frame(2, 2, "full"), point_frame(2, 2, "full_diagonal"),
              point_frame(3, 2, "transpositions"), point_frame(3, 3, "full"),
              random_coherent_frame(2, "replacements", max_worlds=4,
                                    rng=random.Random(3))]
    algebras = [small_algebra(2, 3), small_algebra(3, 2, "diag"),
                small_algebra(4, 3),
                make_relativized(2, 2, [1, 2], "transpositions")]
    return ([frame_to_json(f) for f in frames]
            + [algebra_to_json(a) for a in algebras])


VALID_FILES = _valid_files()


@st.composite
def near_valid(draw):
    """A valid file with one field replaced, dropped, or one of its list
    entries changed."""
    data = json.loads(json.dumps(draw(st.sampled_from(VALID_FILES))))
    key = draw(st.sampled_from(sorted(data)))
    how = draw(st.integers(0, 2))
    if how == 0:
        data[key] = draw(JSON)
    elif how == 1:
        del data[key]
    else:
        value = data[key]
        if isinstance(value, dict) and value:
            value = value[draw(st.sampled_from(sorted(value)))]
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(JSON)
    return json.dumps(data)


FILES = st.one_of(st.sampled_from(VALID_FILES).map(json.dumps),
                  near_valid(), JSON.map(json.dumps),
                  st.sampled_from([DEEP, "{", "", "\xff", "[]" * 3]))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(["represent", FILE], DEEP)
@example(["quasi", FILE], DEEP)
@example(["frame-check", FILE], DEEP)
@example(["gallery", "rectangles", "-n", "6", "-k", "4"], "")
@given(argvs(), FILES)
def test_cli_run_exits_0_1_or_2(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [path if word == FILE else word for word in argv]
        t0 = time.monotonic()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        elapsed = time.monotonic() - t0
    assert code in (0, 1, 2), (argv, code)
    assert elapsed < DEADLINE_S, (argv, elapsed)
