"""The benchmark's own known answers agree with the reference oracles.

Run from the repository root:

    python3 -m pytest verdictbench

``tests/oracles.py`` is imported as it stands; the benchmark never edits it.
"""

import itertools
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import known  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from substal.terms import parse  # noqa: E402

ORACLE_KIND = {"swap": "transposition", "repl": "replacement"}
SEEDS = range(5)


def _random_formula(rng, n, depth):
    if depth == 0 or rng.random() < 0.2:
        choice = rng.random()
        if choice < 0.15:
            i, j = rng.sample(range(n), 2)
            return ("diag", i, j)
        return ("var", rng.randrange(3))
    kind = rng.choice(("not", "and", "or", "imp", "sub", "sub"))
    if kind == "not":
        return ("not", _random_formula(rng, n, depth - 1))
    if kind == "sub":
        gen = rng.choice(known.mode_gens(n, "full"))
        return ("sub", gen, _random_formula(rng, n, depth - 1))
    return (kind, _random_formula(rng, n, depth - 1),
            _random_formula(rng, n, depth - 1))


def test_word_composition_matches_ref_hat():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                word = [rng.choice(known.mode_gens(n, "full"))
                        for _ in range(rng.randint(0, 7))]
                triples = [(ORACLE_KIND[kind], i, j) for kind, i, j in word]
                assert known.word_tuple(word, n) == oracles.ref_hat(triples, n)


def test_monoid_elements_match_ref_closure():
    for n in (2, 3, 4):
        for mode in ("replacements", "transpositions", "full"):
            gens = [oracles.ref_gen_tuple(ORACLE_KIND[kind], i, j, n)
                    for kind, i, j in known.mode_gens(n, mode)]
            assert set(known.shortest_words(n, mode)) == \
                oracles.ref_monoid_closure(n, gens)


def test_point_evaluator_matches_ref_eval():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
            points = [tuple(reversed(p))
                      for p in itertools.product(range(k), repeat=n)]
            for _ in range(20):
                formula = _random_formula(rng, n, 5)
                term = parse(known.text(formula), n, "full_diagonal")
                chosen = {v: [q for q in points if rng.random() < 0.5]
                          for v in range(3)}
                ref = oracles.ref_eval(term, n, k, {v: frozenset(qs)
                                                     for v, qs in chosen.items()})
                ours = {v: {known.world_index(q, k) for q in qs}
                        for v, qs in chosen.items()}
                for q in points:
                    assert known.holds(formula, q, k, ours) == (q in ref)


def _act(frame, tau, words):
    table = list(range(frame["worlds"]))
    for g in words[tau]:
        gt = frame["action"][known.token(g)]
        table = [gt[w] for w in table]
    return table


def _coherent(frame):
    """act(sigma*tau) sends w to act(tau)[act(sigma)[w]], composed by the
    oracle, and every generator table is the act of its own transformation."""
    n, mode = frame["n"], frame["mode"]
    words = known.shortest_words(n, mode)
    acts = {tau: _act(frame, tau, words) for tau in words}
    for g in known.mode_gens(n, mode):
        tau = oracles.ref_gen_tuple(ORACLE_KIND[g[0]], g[1], g[2], n)
        if frame["action"][known.token(g)] != acts[tau]:
            return False
    for sigma in words:
        for tau in words:
            both = acts[oracles.ref_compose(sigma, tau)]
            if any(both[w] != acts[tau][acts[sigma][w]]
                   for w in range(frame["worlds"])):
                return False
    return True


def test_quotients_are_coherent_and_mutants_are_not():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, worlds in ((2, 3), (2, 6), (3, 5), (3, 11)):
            for mode in ("full", "transpositions", "replacements"):
                frame = known.coherent_frame(n, mode, worlds, rng)
                assert frame["worlds"] == worlds
                assert _coherent(frame)
                if mode != "replacements":
                    assert not _coherent(known.break_involution(frame))
    for n, k in ((2, 2), (2, 3), (3, 2)):
        assert _coherent(known.point_frame(n, k, "full"))


def test_alternating_sets_match_ref_search():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, worlds in ((2, 4), (2, 6), (3, 6), (3, 12)):
            frame = known.coherent_frame(n, "transpositions", worlds, rng)
            words = known.shortest_words(n, "transpositions")
            exists = any(
                oracles.ref_alternating_set(
                    range(worlds), lambda w, t=_act(frame, perm, words): t[w])
                is not None
                for perm in itertools.permutations(range(n)))
            assert known.quasi_holds_on_frame(frame) == (not exists)
    for n in (2, 3, 4):
        unit = known.not_a_variety_unit(n)
        assert not known.quasi_holds_on_algebra(unit)
        assert known.quasi_holds_on_algebra(known.square_algebra(n, 2, "full"))


def test_kernel_requests_hold_at_their_point():
    for seed in SEEDS:
        reqs = workloads.witness(random.Random(seed))
        assert len(reqs) >= 100
        for req in reqs:
            assert req.kernel == _rgs(req.kernel)
            assert _some_valuation_holds(req.witness_of, req.kernel,
                                         max(req.kernel) + 1)


def _rgs(q):
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in q)


def _some_valuation_holds(formula, point, k):
    """The literals fix one valuation at the points they reach."""
    valuation = {}
    _collect(formula, point, valuation)
    return known.holds(formula, point, k, {
        v: {known.world_index(q, k) for (var, q), on in valuation.items()
            if var == v and on}
        for v in range(workloads.WITNESS_VARS)})


def _collect(f, q, valuation):
    if f[0] == "and":
        _collect(f[1], q, valuation)
        _collect(f[2], q, valuation)
        return
    positive = f[0] != "not"
    body = f if positive else f[1]
    while body[0] == "sub":
        q = known.move(q, known.gen_tuple(body[1], len(q)))
        body = body[2]
    if body[0] == "var":
        valuation[(body[1], q)] = positive
