"""Satisfiability and validity over the point semantics."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from substal.frames import ComplexAlgebra, point_frame
from substal.logic import (BDD, FALSE, TRUE, check_at, equation_valid,
                           equations_valid, satisfiable, unfold, valid)
from substal.monoid import apply_point, generators, partitions
from substal.setalg import point_coords, point_index, small_algebra
from substal.terms import (Compl, Diag, Equation, Join, Meet, One, Sub, Var,
                           Zero, equation_holds_exhaustive, iff, modality_count,
                           parse, parse_equation, sigma_axioms, variables)

from oracles import (brute_formula_satisfiable, ref_eval, ref_holds,
                     ref_kernel_satisfiable, ref_square_witness)


def _truth(bdd, node, asg):
    """The value of a BDD node under a total {atom: bool} assignment."""
    while node > TRUE:
        atom = bdd.atoms[bdd.level[node]]
        node = bdd.high[node] if asg[atom] else bdd.low[node]
    return node == TRUE


# ---------------------------------------------------------------- unfolding

def test_unfold_follows_the_point_action():
    t = parse("p0 & s[0|1] ~p0", 2)
    bdd = BDD()
    assert unfold(t, (0, 1), 2, bdd) == bdd.conj(
        bdd.atom((0, (0, 1))), bdd.neg(bdd.atom((0, (1, 1)))))
    # on the diagonal the replacement is invisible, so both conjuncts
    # land on the same atom and contradict each other
    assert unfold(t, (0, 0), 2, bdd) == FALSE
    assert bdd.atoms == [(0, (0, 1)), (0, (1, 1)), (0, (0, 0))]


def test_unfold_constants_and_diagonals():
    bdd = BDD()
    assert unfold(One(), (0, 1), 2, bdd) == TRUE
    assert unfold(Zero(), (0, 1), 2, bdd) == FALSE
    assert unfold(Diag(0, 1), (0, 1), 2, bdd) == FALSE
    assert unfold(Diag(0, 1), (0, 0), 2, bdd) == TRUE
    assert unfold(Diag(1, 1), (0, 1), 2, bdd) == TRUE
    # a false conjunct settles its chain before the sibling is read
    assert unfold(parse("0 & p0", 2), (0, 1), 2, bdd) == FALSE
    assert unfold(parse("1 | p0", 2), (0, 1), 2, bdd) == TRUE
    assert bdd.atoms == []


@given(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from(generators(3, "full")),
    st.sampled_from(generators(3, "full")),
)
def test_unfold_words_move_the_point_left_to_right(q, g1, g2):
    t = Sub(g1, Sub(g2, Var(0)))
    moved = apply_point(apply_point(q, g1.tr(3)), g2.tr(3))
    bdd = BDD()
    assert unfold(t, q, 3, bdd) == bdd.atom((0, moved))
    assert bdd.atoms == [(0, moved)]


# ------------------------------------------------------- propositional core

def test_bdd_path_examples():
    bdd = BDD()
    a = bdd.atom((0, (0, 0)))
    b = bdd.atom((1, (0, 0)))
    assert bdd.path(bdd.conj(a, bdd.neg(a))) is None
    asg = bdd.path(bdd.conj(a, bdd.neg(b)))
    assert asg[(0, (0, 0))] is True
    assert asg[(1, (0, 0))] is False
    assert bdd.path(FALSE) is None
    assert bdd.path(TRUE) == {}


def _eval_prop(f, asg):
    kind = f[0]
    if kind == "true":
        return True
    if kind == "false":
        return False
    if kind == "atom":
        return asg[f[1]]
    if kind == "not":
        return not _eval_prop(f[1], asg)
    if kind == "and":
        return _eval_prop(f[1], asg) and _eval_prop(f[2], asg)
    return _eval_prop(f[1], asg) or _eval_prop(f[2], asg)


def _random_prop(rng, budget):
    if budget <= 1 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return ("atom", rng.randrange(4))
        return ("true",) if roll < 0.9 else ("false",)
    if rng.random() < 0.3:
        return ("not", _random_prop(rng, budget - 1))
    cut = rng.randint(1, budget - 1)
    op = "and" if rng.random() < 0.5 else "or"
    return (op, _random_prop(rng, cut), _random_prop(rng, budget - cut))


def _build(bdd, f):
    kind = f[0]
    if kind in ("true", "false"):
        return TRUE if kind == "true" else FALSE
    if kind == "atom":
        return bdd.atom(f[1])
    if kind == "not":
        return bdd.neg(_build(bdd, f[1]))
    op = bdd.conj if kind == "and" else bdd.disj
    return op(_build(bdd, f[1]), _build(bdd, f[2]))


def test_bdd_matches_truth_tables():
    rng = random.Random(2718)
    for _ in range(300):
        f = _random_prop(rng, 6)
        bdd = BDD()
        node = _build(bdd, f)
        atoms = list(range(4))
        tables = [dict(zip(atoms, bits))
                  for bits in itertools.product((False, True), repeat=4)]
        for total in tables:
            assert _truth(bdd, node, total) == _eval_prop(f, total)
        brute = any(_eval_prop(f, total) for total in tables)
        asg = bdd.path(node)
        assert (asg is not None) == brute
        # reduced and canonical: the constants are the only (un)satisfiable nodes
        assert (node == FALSE) == (not brute)
        assert (node == TRUE) == all(_eval_prop(f, t) for t in tables)
        if asg is not None:
            # the partial assignment must satisfy f however it is extended
            for fill in (False, True):
                total = {a: fill for a in atoms}
                total.update(asg)
                assert _eval_prop(f, total)


# ---------------------------------------------------------------- truth lemma

def _random_term(rng, n, mode, budget, gens):
    if budget <= 1 or rng.random() < 0.25:
        roll = rng.random()
        if mode == "full_diagonal" and n >= 2 and roll < 0.15:
            return Diag(rng.randrange(n), rng.randrange(n))
        if roll < 0.8:
            return Var(rng.randrange(3))
        return One() if roll < 0.9 else Zero()
    roll = rng.random()
    if budget == 2 or roll < 0.55:
        if roll < 0.38 and gens:
            return Sub(rng.choice(gens), _random_term(rng, n, mode, budget - 1, gens))
        return Compl(_random_term(rng, n, mode, budget - 1, gens))
    cut = rng.randint(1, budget - 2)
    op = Meet if roll < 0.8 else Join
    return op(
        _random_term(rng, n, mode, cut, gens),
        _random_term(rng, n, mode, budget - 1 - cut, gens),
    )


def test_truth_lemma_on_point_frames():
    """The term evaluated over the whole point frame agrees with the
    propositional truth of the unfolding.

    The atom (v, p) of the unfolded formula is read as "p lies in V(v)".
    """
    rng = random.Random(31337)
    frames = {}
    gens = {}
    for _ in range(10_000):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        mode = rng.choice(("full", "full_diagonal"))
        key = (n, k, mode)
        if key not in frames:
            frames[key] = point_frame(n, k, mode)
            gens[key] = generators(n, mode)
        term = _random_term(rng, n, mode, rng.randint(1, 8), gens[key])
        worlds = k ** n
        valuation = {v: rng.randrange(1 << worlds) for v in variables(term)}
        member = {
            v: {p for p in range(worlds) if mask >> p & 1}
            for v, mask in valuation.items()
        }
        q = tuple(rng.randrange(k) for _ in range(n))
        bdd = BDD()
        node = unfold(term, q, n, bdd)
        asg = {
            atom: point_index(atom[1], k) in member.get(atom[0], set())
            for atom in bdd.atoms
        }
        expected = _truth(bdd, node, asg)
        got = ref_holds(ComplexAlgebra(frames[key]), term, valuation,
                        point_index(q, k))
        assert got == expected


# -------------------------------------------------------------- satisfiable

def test_satisfiable_needs_a_split_point():
    ok, wit = satisfiable(parse("p0 & s[0|1] ~p0", 2), 2)
    assert ok
    assert wit["partition"] == [0, 1]
    assert wit["k"] == 2
    assert wit["point"] == [0, 1]
    assert wit["world"] == point_index((0, 1), 2)
    assert wit["valuation"] == {"p0": [point_index((0, 1), 2)]}
    assert len(wit["touched"]) == 2
    # over a collapsed point the same formula is contradictory
    assert unfold(parse("p0 & s[0|1] ~p0", 2), (0, 0), 2, BDD()) == FALSE


def test_satisfiable_examples():
    ok, wit = satisfiable(parse("p0 & ~(s[0,1] s[0,1] p0)", 2), 2)
    assert not ok and wit is None

    ok, wit = satisfiable(parse("~d(0,1)", 2, "full_diagonal"), 2,
                          "full_diagonal")
    assert ok
    assert wit["partition"] == [0, 1]

    ok, wit = satisfiable(Zero(), 3)
    assert not ok and wit is None


def test_satisfiable_witnesses_check_out():
    rng = random.Random(777)
    seen_sat = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        mode = rng.choice(("full", "full_diagonal"))
        gens = generators(n, mode)
        term = _random_term(rng, n, mode, rng.randint(1, 9), gens)
        ok, wit = satisfiable(term, n, mode)
        if not ok:
            assert wit is None
            continue
        seen_sat += 1
        assert len(wit["touched"]) <= modality_count(term) + 1
        valuation = {
            int(name[1:]): sum(1 << p for p in points)
            for name, points in wit["valuation"].items()
        }
        assert ref_holds(ComplexAlgebra(point_frame(n, wit["k"], mode)),
                         term, valuation, wit["world"])
    assert seen_sat > 100


def test_point_local_recheck_agrees_with_the_square_reference():
    """Seeded terms in every mode, n = 2..5: each witness holds when it is
    rebuilt over the whole square ℘(ⁿk).  With one touched point of one
    variable flipped, `check_at` and that reference give one verdict, and
    both refuse the flipped witness in many cases."""
    rng = random.Random(2020)
    witnesses = refused = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        mode = rng.choice(MODES)
        term = _random_term(rng, n, mode, rng.randint(1, 10),
                            generators(n, mode))
        ok, wit = satisfiable(term, n, mode)
        if not ok:
            continue
        witnesses += 1
        assert ref_square_witness(term, n, mode, wit), term
        if not wit["valuation"] or not wit["touched"]:
            continue
        k = wit["k"]
        name = rng.choice(sorted(wit["valuation"]))
        flip = point_index(rng.choice(wit["touched"]), k)
        flipped = dict(wit["valuation"])
        flipped[name] = sorted(set(flipped[name]) ^ {flip})
        assignment = {(int(v[1:]), point_coords(p, n, k)): True
                      for v, points in flipped.items() for p in points}
        local, _ = check_at(term, tuple(wit["point"]), assignment)
        assert local == ref_square_witness(term, n, mode,
                                           dict(wit, valuation=flipped)), term
        refused += not local
    assert witnesses >= 300
    assert refused >= 200


def test_a_wrong_assignment_is_refused(monkeypatch):
    """The re-check does not trust the BDD: when its path gives every atom
    the wrong value, satisfiable raises its internal error."""
    path = BDD.path

    def flipped_path(bdd, f):
        found = path(bdd, f)
        return found and {atom: not value for atom, value in found.items()}

    monkeypatch.setattr(BDD, "path", flipped_path)
    with pytest.raises(AssertionError, match="internal: witness failed"):
        satisfiable(parse("p0 & s[0|1] ~p0", 2), 2)


def test_verdicts_and_witness_bound_at_n7():
    """At n = 7, past the monoid's cap: seeded terms in every mode get the
    verdict of the kernel-by-kernel oracle, and every witness touches at
    most (modalities + 1) points, the bound of criterion 5."""
    rng = random.Random(7007)
    counts = {True: 0, False: 0}
    for _ in range(80):
        mode = rng.choice(MODES)
        term = _random_term(rng, 7, mode, rng.randint(2, 10),
                            generators(7, mode))
        ok, wit = satisfiable(term, 7, mode)
        assert ok == ref_kernel_satisfiable(term, 7), term
        counts[ok] += 1
        if ok:
            assert len(wit["touched"]) <= modality_count(term) + 1, term
    assert min(counts.values()) >= 10


# ------------------------------------------------------------------ validity

def test_valid_examples():
    ok, wit = valid(parse("p0 | ~p0", 2), 2)
    assert ok and wit is None

    ok, wit = valid(parse("s[0,1] s[0,1] p0 -> p0", 2), 2)
    assert ok and wit is None

    ok, wit = valid(parse("p0", 2), 2)
    assert not ok and wit is not None


def test_equation_valid_examples():
    ok, wit = equation_valid(parse_equation("1 = 1", 2), 2)
    assert ok and wit is None

    ok, wit = equation_valid(parse_equation("p0 = s[0,1] p0", 2), 2)
    assert not ok
    assert wit["partition"] == [0, 1]

    ok, wit = equation_valid(
        parse_equation("s[0|1] p0 = s[0|1] s[0|1] p0", 2), 2)
    assert ok and wit is None


def test_equation_validity_agrees_with_exhaustive_checks():
    """Validity matches brute-force evaluation over the square algebras."""
    corpus = list(sigma_axioms(2, "full"))
    corpus.extend([
        parse_equation("p0 = s[0,1] p0", 2),
        parse_equation("p0 & p1 = p1 & p0", 2),
        parse_equation("p0 = ~p0", 2),
        parse_equation("s[1|0] p0 = s[0,1] s[0|1] s[0,1] p0", 2),
    ])
    algebras = [small_algebra(2, 1), small_algebra(2, 2)]
    for eq in corpus:
        ok, _ = equation_valid(eq, 2)
        brute = all(equation_holds_exhaustive(alg, eq) for alg in algebras)
        assert ok == brute


# ------------------------------------------------------------- generic point

def _witness_holds_independently(term, n, wit):
    """The witness model, read by the reference evaluator of the oracles."""
    k = wit["k"]

    def coords(idx):
        return tuple(idx // k**i % k for i in range(n))

    valuation = {int(name[1:]): frozenset(coords(w) for w in worlds)
                 for name, worlds in wit["valuation"].items()}
    return tuple(wit["point"]) in ref_eval(term, n, k, valuation)


def test_diagonal_free_verdicts_agree_with_brute_force():
    """Seeded diagonal-free terms at n = 3, 4: the verdict matches an exact
    kernel-by-kernel search, and every witness holds under the reference
    evaluator.  At n = 3 a term over one variable is also searched over
    all valuations of the width-1 and width-2 algebras, which finds a model
    only when one exists."""
    rng = random.Random(4242)
    counts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.choice((3, 4))
        mode = rng.choice(("replacements", "transpositions", "full"))
        gens = generators(n, mode)
        term = _random_term(rng, n, mode, rng.randint(2, 9), gens)
        if rng.random() < 0.5:
            # a conjunction is more often unsatisfiable
            term = Meet(term, _random_term(rng, n, mode, rng.randint(2, 6), gens))
        ok, wit = satisfiable(term, n, mode)
        assert ok == ref_kernel_satisfiable(term, n), term
        counts[ok] += 1
        if ok:
            assert _witness_holds_independently(term, n, wit)
        if n == 3 and len(variables(term)) <= 1:
            if brute_formula_satisfiable(term, n, (1, 2)):
                assert ok, term
    assert min(counts.values()) > 60


def test_generic_point_is_not_applied_to_diagonals():
    """d(0,1) is false at the discrete point but holds on the diagonal, so
    the relaxed unfolding there keeps it open as the atom e(0, 1)."""
    bdd = BDD()
    assert unfold(Diag(0, 1), (0, 1), 2, bdd) == FALSE
    e01 = unfold(Diag(0, 1), (0, 1), 2, bdd, relaxed=True)
    assert e01 == bdd.atom(("=", 0, 1)) and bdd.pairs == {0: (0, 1)}
    assert unfold(Diag(1, 0), (0, 1), 2, bdd, relaxed=True) == e01
    assert bdd.agrees(e01, (0, 0)) and not bdd.agrees(e01, (0, 1))
    ok, wit = satisfiable(Diag(0, 1), 2, "full_diagonal")
    assert ok and wit["partition"] == [0, 0]
    ok, _ = satisfiable(Meet(Diag(0, 1), Compl(Diag(1, 2))), 3, "full_diagonal")
    assert ok


def test_sweep_reports_the_first_kernel_with_a_model():
    """A diagonal-free term satisfiable at the discrete point is swept in
    restricted-growth order: p0 & s[0,1] ~p0 needs coordinates 0 and 1
    apart, and (0, 1, 0) is the first such kernel at n = 3."""
    ok, wit = satisfiable(parse("p0 & s[0,1] ~p0", 3), 3)
    assert ok
    assert wit["partition"] == [0, 1, 0]
    assert wit["k"] == 2


# ---------------------------------------------------------- relaxed unfolding

def _relaxed(term, n):
    bdd = BDD()
    return bdd, unfold(term, tuple(range(n)), n, bdd, relaxed=True)


def test_relaxed_unfolding_needs_the_sweep_for_these():
    """Both terms are UNSAT at n = 3, but their relaxed unfoldings are not
    FALSE: the first needs transitivity of the equality atoms, the second
    needs the atoms p0@(0,1,2) and p0@(1,1,2) to merge where 0 and 1 meet.
    The filter skips every kernel of the first and the kernels of the
    second that keep 0 and 1 apart; the sweep refutes the rest."""
    for text in ("d(0,1) & d(1,2) & ~d(0,2)", "d(0,1) & p0 & ~s[0|1] p0"):
        term = parse(text, 3, "full_diagonal")
        bdd, relaxed = _relaxed(term, 3)
        assert relaxed != FALSE, text
        assert bdd.pairs
        assert satisfiable(term, 3, "full_diagonal") == (False, None), text
        assert not ref_kernel_satisfiable(term, 3)
        kept = [q for q in partitions(3) if bdd.agrees(relaxed, q)]
        assert kept == ([] if "p0" not in text else [(0, 0, 0), (0, 0, 1)])
        for q in partitions(3):
            assert unfold(term, q, 3, bdd) == FALSE


def _mutate(rng, t, n, gens):
    """`t` with one subterm, picked at random along a path from the root,
    rewritten: a diagonal moved, a substitution or complement put in front,
    or a diagonal or variable literal conjoined."""
    cls = type(t)
    if cls in (Meet, Join) and rng.random() < 0.7:
        if rng.random() < 0.5:
            return cls(_mutate(rng, t.left, n, gens), t.right)
        return cls(t.left, _mutate(rng, t.right, n, gens))
    if cls is Compl and rng.random() < 0.7:
        return Compl(_mutate(rng, t.arg, n, gens))
    if cls is Sub and rng.random() < 0.7:
        return Sub(t.sym, _mutate(rng, t.arg, n, gens))
    roll = rng.random()
    if cls is Diag and roll < 0.3:
        return Diag(rng.randrange(n), rng.randrange(n))
    if roll < 0.5:
        return Sub(rng.choice(gens), t)
    if roll < 0.6:
        return Compl(t)
    if roll < 0.8:
        return Meet(t, Diag(rng.randrange(n), rng.randrange(n)))
    lit = Var(0) if rng.random() < 0.5 else Compl(Var(0))
    return Meet(t, Sub(rng.choice(gens), lit) if rng.random() < 0.5 else lit)


def _diagonal_corpus(rng):
    """Formulas over the diagonal axioms at n = 2..4: every axiom negated,
    sides of two axioms crossed in one negated equivalence, and both of
    these mutated once or twice."""
    for n in (2, 3, 4):
        gens = generators(n, "full_diagonal")
        eqs = [eq for eq in sigma_axioms(n, "full_diagonal")
               if eq.tag.startswith("diag:")]
        sides = [side for eq in eqs for side in (eq.lhs, eq.rhs)]
        for eq in eqs:
            yield n, "negated", Compl(iff(eq.lhs, eq.rhs))
        for _ in range(120 * (n - 1)):
            crossed = Compl(iff(rng.choice(sides), rng.choice(sides)))
            yield n, "crossed", crossed
            eq = rng.choice(eqs)
            term = Compl(iff(eq.lhs, eq.rhs)) if rng.random() < 0.5 else crossed
            for _ in range(rng.randint(1, 2)):
                term = _mutate(rng, term, n, gens)
            yield n, "mutated", term


def test_diagonal_verdicts_agree_with_the_kernel_oracle():
    """Seeded diagonal formulas at n = 2..4: the verdict matches an exact
    kernel-by-kernel search, a witness holds under the reference
    evaluator, and every kernel the filter skips has a FALSE unfolding of
    its own.  The corpus reaches all three ways a decision ends: SAT,
    UNSAT refuted by the relaxed unfolding, and UNSAT refuted only by the
    sweep."""
    rng = random.Random(1601)
    cases = {"sat": 0, "relaxed": 0, "sweep": 0}
    open_negations = {2: 0, 3: 0, 4: 0}
    total = 0
    for n, kind, term in _diagonal_corpus(rng):
        total += 1
        bdd, relaxed = _relaxed(term, n)
        ok, wit = satisfiable(term, n, "full_diagonal")
        assert ok == ref_kernel_satisfiable(term, n), term
        if kind == "negated" and relaxed != FALSE:
            open_negations[n] += 1
        if ok:
            cases["sat"] += 1
            assert _witness_holds_independently(term, n, wit)
        else:
            cases["relaxed" if relaxed == FALSE else "sweep"] += 1
        if relaxed == FALSE or not bdd.pairs:
            continue
        for q in partitions(n):
            if not bdd.agrees(relaxed, q):
                assert unfold(term, q, n, bdd) == FALSE, (term, q)
    assert total >= 1000
    # the transitivity axioms diag:chain are the negations left open
    assert open_negations == {2: 0, 3: 3, 4: 12}
    assert cases["sat"] >= 500
    assert cases["relaxed"] >= 300
    assert cases["sweep"] >= 30


# --------------------------------------------------------- shared axiom sweep

MODES = ("replacements", "transpositions", "full", "full_diagonal")


def _node_equal(eqs, n):
    """For each equation, whether its two sides unfold, relaxed at the
    discrete point in one BDD for all of them, to one node."""
    bdd = BDD()
    point = tuple(range(n))
    return [unfold(eq.lhs, point, n, bdd, relaxed=True)
            == unfold(eq.rhs, point, n, bdd, relaxed=True) for eq in eqs]


def _crossed_corpus(rng, n, mode):
    """The mode's axioms and, for each, its lhs with the next axiom's rhs,
    in a seeded shuffle: diagonal and diagonal-free equations interleave,
    valid ones and invalid ones."""
    eqs = sigma_axioms(n, mode)
    corpus = eqs + [Equation(eq.lhs, nxt.rhs, "%s/%s" % (eq.tag, nxt.tag))
                    for eq, nxt in zip(eqs, eqs[1:] + eqs[:1])]
    rng.shuffle(corpus)
    return corpus


def test_equations_valid_agrees_on_every_axiom():
    """For n = 2..5 and every mode, the shared sweep gives each axiom
    instance equation_valid's verdict, VALID; only the transitivity axioms
    diag:chain, 3·C(n, 3) of them, miss the node test."""
    for n in range(2, 6):
        for mode in MODES:
            eqs = sigma_axioms(n, mode)
            got = equations_valid(eqs, n, mode)
            assert got == [equation_valid(eq, n, mode)[0] for eq in eqs]
            assert all(v is True for v in got), (n, mode)
            missed = [eq.tag for eq, same in zip(eqs, _node_equal(eqs, n))
                      if not same]
            assert all(tag.startswith("diag:chain:") for tag in missed)
            chains = 3 * math.comb(n, 3) if mode == "full_diagonal" else 0
            assert len(missed) == chains


def test_equations_valid_agrees_on_crossed_axioms():
    """Axioms with their sides crossed, shuffled among the axioms, n = 2..4:
    one shared sweep gives equation_valid's verdict, each decided on its
    own, for every equation.  The corpus holds node-equal equations,
    misses that are valid and misses that are not, and diagonal misses
    after diagonal-free equations, whose relaxed unfoldings open no
    equality atom."""
    rng = random.Random(1602)
    seen = {"equal": 0, "valid miss": 0, "invalid": 0, "diagonal miss": 0}
    for n in (2, 3, 4):
        for mode in ("full", "full_diagonal"):
            corpus = _crossed_corpus(rng, n, mode)
            got = equations_valid(corpus, n, mode)
            want = [equation_valid(eq, n, mode)[0] for eq in corpus]
            assert got == want, (n, mode)
            for eq, same, ok in zip(corpus, _node_equal(corpus, n), want):
                if same:
                    seen["equal"] += 1
                else:
                    seen["valid miss" if ok else "invalid"] += 1
                    seen["diagonal miss"] += "diag" in eq.tag
    assert seen["equal"] >= 1000
    assert seen["valid miss"] >= 15         # the diag:chain axioms
    assert seen["invalid"] >= 900
    assert seen["diagonal miss"] >= 150


def test_node_equal_sides_are_equal_at_every_kernel():
    """Every equation of the axioms and the crossed corpus at n ≤ 3 whose
    sides are one node: the exact kernel-by-kernel search finds no model
    of ~(lhs <-> rhs)."""
    rng = random.Random(1603)
    checked = 0
    for n in (2, 3):
        for mode in MODES:
            corpus = _crossed_corpus(rng, n, mode)
            for eq, same in zip(corpus, _node_equal(corpus, n)):
                if same:
                    assert not ref_kernel_satisfiable(
                        Compl(iff(eq.lhs, eq.rhs)), n), eq
                    checked += 1
    assert checked >= 500
