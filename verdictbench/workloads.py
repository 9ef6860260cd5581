"""Seeded request lists for the three workloads.

Each request is one argv for ``substal.cli.run`` plus the answer the
benchmark expects, worked out in ``known`` (never by substal).  What sets
a request's cost is fixed: the requests in every cost class, word lengths,
formula shapes and pinned kernels.  The seed picks only the generators in
the words, quotient merges and world labels, so the work of one pass
barely moves between seeds.
"""

import json
import os
import random
from dataclasses import dataclass

import known

AFFIRMATIVE = ("SAT", "VALID", "EQUIVALENT", "PASS")


@dataclass
class Request:
    family: str
    n: int
    argv: list
    expect: str
    # formula whose satisfying witness the CLI prints after the verdict
    witness_of: tuple = None
    # kernel (as a restricted growth string) the witness point must have
    kernel: tuple = None

    @property
    def expect_exit(self):
        return 0 if self.expect in AFFIRMATIVE else 1


def build(workload, seed, index, workdir):
    """The request list of pass `index` of a workload; frame and algebra
    files go to `workdir`.  Every pass has the same families and sizes in
    the same places; only the seeded choices differ."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    if workload == "decide":
        return decide(rng)
    if workload == "witness":
        return witness(rng)
    if workload == "certify":
        return certify(rng, workdir)
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------- decide
# Every kernel partition gets refuted and no large model is built, so the
# time sits in unfolding and the propositional search.  No request takes
# much over a tenth of a second, so that each is timed in many passes:
# the axioms stop at n = 5 in the two smaller modes, parity chains at 11.

AXIOM_SWEEP = [(n, mode) for n in range(2, 5) for mode in known.MODES] + [
    (5, "replacements"), (5, "transpositions")]
PARITY_SIZES = range(8, 12)
PARITY_N = 3
WORDEQ_PER_N = 50


def decide(rng):
    reqs = [Request("axioms", n, ["valid", "--axioms", "-n", str(n), "--mode", mode],
                    "VALID")
            for n, mode in AXIOM_SWEEP]
    for m in PARITY_SIZES:
        reqs.extend(_parity_pair(rng, m))
    modes = ("replacements", "transpositions", "full")
    for n in (3, 4, 5):
        for i in range(WORDEQ_PER_N):
            reqs.append(_word_equation(rng, n, modes[i % 3], same=i % 2 == 0,
                                       length=2 + i % 4))
    return reqs


def _random_word(rng, n, mode, length):
    gens = known.mode_gens(n, mode)
    return [rng.choice(gens) for _ in range(length)]


def _balanced_xor(items):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return known.xor(_balanced_xor(items[:mid]), _balanced_xor(items[mid:]))


def _parity_pair(rng, m):
    """x0 ^ ... ^ x(m-1) against the same literals reversed and so
    re-bracketed (VALID: xor is associative and commutative over distinct
    variables), and against that chain with its middle literal dropped
    (INVALID: the two differ wherever that literal holds).  The seed picks
    the substitution words in front of the variables; shapes stay fixed."""
    lits = [known.lit(_random_word(rng, PARITY_N, "full", v % 3), v)
            for v in range(m)]
    left = _balanced_xor(lits)
    reverse = lits[::-1]
    same = known.iff(left, _balanced_xor(reverse))
    del reverse[m // 2]
    dropped = known.iff(left, _balanced_xor(reverse))
    argv = ["valid", "-n", str(PARITY_N)]
    return [Request("parity", PARITY_N, argv + [known.text(same)], "VALID"),
            Request("parity", PARITY_N, argv + [known.text(dropped)], "INVALID",
                    witness_of=("not", dropped))]


def _rewrite_same(rng, word, n, mode):
    """A word with the same composite: twice, insert a swap twice over
    (an involution), or in replacement mode repeat a letter (idempotent)."""
    out = list(word)
    for _ in range(2):
        if mode == "replacements":
            at = rng.randrange(len(out))
            out.insert(at, out[at])
        else:
            g = rng.choice(known.mode_gens(n, "transpositions"))
            at = rng.randrange(len(out) + 1)
            out[at:at] = [g, g]
    return out


def _word_equation(rng, n, mode, same, length):
    """w1 p0 = w2 p0, VALID exactly when the words compose to the same
    transformation.  A DISTINCT pair is drawn so that the two-block point
    (0, ..., 0, 1) already tells the words apart: the first refutable
    kernel, and so the witness model over ⁿ2, is the same for every seed."""
    while True:
        w1 = _random_word(rng, n, mode, length)
        if same:
            w2 = _rewrite_same(rng, w1, n, mode)
        else:
            w2 = _random_word(rng, n, mode, length)
        t1, t2 = known.word_tuple(w1, n), known.word_tuple(w2, n)
        if same:
            if t1 == t2:
                break
        elif any((t1[i] == n - 1) != (t2[i] == n - 1) for i in range(n)):
            break
    lhs, rhs = known.lit(w1, 0), known.lit(w2, 0)
    eq = "%s = %s" % (known.text(lhs), known.text(rhs))
    argv = ["eq", "-n", str(n), "--mode", mode, eq]
    if same:
        return Request("wordeq", n, argv, "VALID")
    return Request("wordeq", n, argv, "INVALID",
                   witness_of=("not", known.iff(lhs, rhs)))


# ---------------------------------------------------------------- witness
# (n, blocks) -> requests per pass.  The witness model spans all of
# ⁿblocks, so the cell fixes the cost; the seed only picks bodies.  The
# (6, 3) and (5, 4) requests cost about the same and fill the 85th to 96th
# percentile of a pass, so verdict_p90_ms sits in the middle of them, not
# on the edge between two costs.

WITNESS_CELLS = {
    (3, 1): 8, (3, 2): 8, (3, 3): 8,
    (4, 1): 8, (4, 2): 8, (4, 3): 8, (4, 4): 8,
    (5, 1): 8, (5, 2): 8, (5, 3): 8, (5, 4): 10, (5, 5): 2,
    (6, 1): 4, (6, 2): 4, (6, 3): 2, (6, 4): 2,
}
WITNESS_LITERALS = 6
WITNESS_VARS = 4


def witness(rng):
    reqs = []
    for (n, blocks), count in sorted(WITNESS_CELLS.items()):
        kernels = _kernels(n, blocks)
        for i in range(count):
            reqs.append(_kernel_request(rng, kernels[i * len(kernels) // count]))
    return reqs


def _kernels(n, blocks):
    """Restricted growth strings of length n with exactly `blocks` values,
    in lexicographic order."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [rgs + (v,) for rgs in out for v in range(max(rgs) + 2)]
    return [rgs for rgs in out if max(rgs) + 1 == blocks]


def _kernel_request(rng, point):
    """d(i,j)/~d(i,j) pin the kernel of `point`; every substituted literal
    takes its polarity from one valuation at the point it reaches, so the
    whole conjunction holds at `point`.  The seed picks the literals; the
    kernel is fixed by the request's place in its cell."""
    n = len(point)
    pins = [("diag", i, j) if point[i] == point[j] else ("not", ("diag", i, j))
            for i in range(n) for j in range(i + 1, n)]
    valuation = {}
    lits = []
    for i in range(WITNESS_LITERALS):
        word = _random_word(rng, n, "full", 1 + i % 3)
        v = rng.randrange(WITNESS_VARS)
        reached = known.move(point, known.word_tuple(word, n))
        positive = valuation.setdefault((v, reached), rng.random() < 0.5)
        lits.append(known.lit(word, v, positive))
    formula = known.conj(pins + lits)
    return Request("kernel", n, ["sat", "-n", str(n), "--mode", "diag",
                                 known.text(formula)],
                   "SAT", witness_of=formula, kernel=point)


# ---------------------------------------------------------------- certify
# Frame and algebra files through frame-check, represent and quasi.
# Frames of at most 8 worlds take represent's exhaustive path, larger ones
# its sampled path.  Exhaustive work grows about fourfold per world, so
# represent stops at 6 worlds there.  Only n = 2 takes the sampled path:
# n = 3 takes half a second there, and n = 4 has no vectorized form and
# runs for minutes.  quasi on algebra files stops at n = 4 for the same
# reason as the decide axioms.

QUOTIENT_WORLDS = {2: (2, 4, 6, 10), 3: (3, 5, 6, 11), 4: (3, 12)}
QUOTIENT_MODES = ("full", "transpositions", "replacements")
POINT_FRAMES = [(2, 2, "full"), (2, 3, "full"), (2, 2, "full_diagonal"),
                (3, 2, "full"), (3, 2, "full_diagonal"), (4, 2, "transpositions"),
                (2, 3, "replacements"), (3, 3, "transpositions")]
SQUARES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]
NOT_A_VARIETY = (2, 3, 4)
GALLERY = ([["not-a-variety", "-n", str(n)] for n in range(2, 7)]
           + [["rectangles", "-k", str(k)] for k in (2, 3, 4)]
           + [["truncation", "-n", str(n), "--bound", str(b)]
              for n, b in ((2, 4), (2, 8), (2, 12), (3, 4), (3, 8))])


def certify(rng, workdir):
    files = _FileWriter(workdir)
    reqs = []
    frames = []
    for n, worlds_list in sorted(QUOTIENT_WORLDS.items()):
        for mode in QUOTIENT_MODES:
            for worlds in worlds_list:
                frames.append(known.coherent_frame(n, mode, worlds, rng))
    for n, k, mode in POINT_FRAMES:
        frames.append(known.relabel(known.point_frame(n, k, mode), rng))
    for frame in frames:
        n, mode, worlds = frame["n"], frame["mode"], frame["worlds"]
        path = files.write(frame)
        reqs.append(Request("frame-check", n, ["frame-check", path], "PASS"))
        if mode != "full_diagonal" and _represent_cheap(n, worlds):
            reqs.append(Request("represent", n, ["represent", "--seed", "0", path],
                                "PASS"))
        if mode != "replacements":
            expect = "PASS" if known.quasi_holds_on_frame(frame) else "FAIL"
            reqs.append(Request("quasi", n, ["quasi", path], expect))
            if worlds >= 2:
                bad = files.write(known.break_involution(frame))
                reqs.append(Request("frame-check", n, ["frame-check", bad], "FAIL"))
    algebras = [known.square_algebra(n, k, "full") for n, k in SQUARES]
    algebras += [known.not_a_variety_unit(n) for n in NOT_A_VARIETY]
    for algebra in algebras:
        expect = "PASS" if known.quasi_holds_on_algebra(algebra) else "FAIL"
        reqs.append(Request("quasi", algebra["n"], ["quasi", files.write(algebra)],
                            expect))
    for args in GALLERY:
        n = int(args[2]) if args[1] == "-n" else 2
        reqs.append(Request("gallery", n, ["gallery"] + args, "PASS"))
    return reqs


def _represent_cheap(n, worlds):
    return worlds <= 6 or (worlds > 8 and n == 2)


class _FileWriter:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, data):
        path = os.path.join(self.workdir, "input%03d.json" % self.count)
        self.count += 1
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path
