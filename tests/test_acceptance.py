"""Acceptance suite: fourteen end-to-end criteria, one test each.

Every criterion finishes by printing a single ``criterion N: PASS`` line
(run pytest with -s to see them; a failed assert makes the criterion's
FAIL visible through pytest itself).  Criteria with a runtime budget enforce
it with an assert on wall-clock time, so a pathological slowdown is a
test failure and not just an annoyance.  A test without a criterion
number is a time ceiling on one command.  All randomness is seeded.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from substal.cli import run
from substal.monoid import (
    canonical_word,
    generators,
    hat,
    identity,
)
from substal.terms import (
    Compl,
    Join,
    Meet,
    One,
    Sub,
    Var,
    Zero,
    format_equation,
    modality_count,
    sigma_axioms,
    word_pair,
)
from substal.setalg import (
    Subalgebra,
    boolean_closure,
    generate_subalgebra,
    make_relativized,
    small_algebra,
    subalgebra_size_bound,
    substitution_orbit,
)
from substal.frames import (
    ComplexAlgebra,
    Frame,
    disjoint_union,
    frame_to_json,
    point_frame,
    random_coherent_frame,
    superamalgam,
)
from substal.logic import equation_valid, satisfiable
from substal.represent import (
    canonical_extension,
    check_psi,
    check_quasi,
    complete_representation,
    diag_represent,
    represent_at,
)
from substal.gallery import (
    TruncationSpec,
    counter2_truncation,
    not_a_variety_witness,
    product_identities,
)

from oracles import brute_formula_satisfiable

_CORPUS = None


def representation_corpus():
    """Six point-frame algebras (k <= n <= 3) plus 50 seeded random
    coherent frames with at most 8 worlds, n in {2,3}, full mode."""
    global _CORPUS
    if _CORPUS is None:
        algebras = []
        for n in range(1, 4):
            for k in range(1, n + 1):
                algebras.append(ComplexAlgebra(point_frame(n, k, "full")))
        rng = random.Random(99)
        for _ in range(50):
            frame = random_coherent_frame(
                rng.choice([2, 3]), "full", max_worlds=8, rng=rng)
            algebras.append(ComplexAlgebra(frame))
        _CORPUS = algebras
    return _CORPUS


def test_c01_axiom_validity():
    """Every emitted axiom instance is a valid equation, full mode for
    n in {2,3,4} and diagonal mode for n in {2,3}."""
    t0 = time.monotonic()
    checked = 0
    for n, mode in [(2, "full"), (3, "full"), (4, "full"),
                    (2, "full_diagonal"), (3, "full_diagonal")]:
        for eq in sigma_axioms(n, mode):
            ok, witness = equation_valid(eq, n, mode)
            assert ok, "axiom fails at n=%d %s: %s (witness %r)" % (
                n, mode, format_equation(eq), witness)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 1: PASS — %d axiom instances valid (%.1fs)"
          % (checked, elapsed))


def test_diagonal_axiom_sweep_ceiling(capsys):
    """`valid --axioms` in diagonal mode at n = 5 and n = 6 and in full mode
    at n = 6 is VALID, within one time ceiling for the three: one shared
    BDD proves the two sides of nearly every axiom one node, and the
    relaxed unfolding filters every kernel of the rest."""
    t0 = time.monotonic()
    for n, mode in (("5", "diag"), ("6", "diag"), ("6", "full")):
        assert run(["valid", "--axioms", "-n", n, "--mode", mode]) == 0
        assert capsys.readouterr().out.splitlines() == ["VALID"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, "budget exceeded: %.1fs" % elapsed


def test_c02_presentation_word_pairs():
    """Axiom instances that equate two substitution words applied to the
    same variable are exactly the hat-equal word pairs, n <= 5."""
    t0 = time.monotonic()
    pairs = 0
    for n in range(2, 6):
        for eq in sigma_axioms(n, "full"):
            if not (eq.tag.startswith("subst:") or eq.tag.startswith("perm:")):
                continue
            wp = word_pair(eq)
            assert wp is not None, "not a word pair: %s" % eq.tag
            w1, w2 = wp
            assert hat(w1, n) == hat(w2, n), "%s at n=%d" % (eq.tag, n)
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 2: PASS — %d word pairs hat-equal for n <= 5 (%.1fs)"
          % (pairs, elapsed))


def test_c03_canonical_words():
    """hat(canonical_word(tau)) = tau over the whole monoid: all
    transformations for n <= 4, all permutations for n <= 6."""
    t0 = time.monotonic()
    count = 0
    for n in range(1, 5):
        for tmap in itertools.product(range(n), repeat=n):
            assert hat(canonical_word(tmap, "full"), n) == tmap, tmap
            count += 1
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            assert hat(canonical_word(perm, "transpositions"), n) == perm, perm
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 3: PASS — %d canonical words verified (%.1fs)"
          % (count, elapsed))


def _formulas_over_p0(max_ops):
    """All formulas over variable p0 with at most max_ops operator nodes,
    n = 2, full mode."""
    gens = generators(2, "full")
    by_size = {0: [Var(0), Zero(), One()]}
    for size in range(1, max_ops + 1):
        acc = []
        for sub in by_size[size - 1]:
            acc.append(Compl(sub))
            for g in gens:
                acc.append(Sub(g, sub))
        for left in range(size):
            right = size - 1 - left
            for a in by_size[left]:
                for b in by_size[right]:
                    acc.append(Meet(a, b))
                    acc.append(Join(a, b))
        by_size[size] = acc
    return [f for fs in by_size.values() for f in fs]


def test_c04_sat_matches_brute_force():
    """The satisfiability engine agrees with independent brute-force
    valuation search over the width-0/1/2 square algebras for every
    formula over p0 with at most 3 operators (n = 2)."""
    t0 = time.monotonic()
    formulas = _formulas_over_p0(3)
    assert len(formulas) == 9993
    mismatches = []
    for f in formulas:
        got, _ = satisfiable(f, 2, "full")
        want = brute_formula_satisfiable(f, 2, (0, 1, 2))
        if got != want:
            mismatches.append(f)
    assert not mismatches, "disagreements: %r" % mismatches[:5]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 4: PASS — %d formulas agree with brute-force search "
          "(%.1fs)" % (len(formulas), elapsed))


def _random_term(rng, n, mode, budget):
    """A random term with at most `budget` nodes, biased toward the
    shapes the solver actually meets (meets of substituted literals)."""
    gens = generators(n, mode)

    def go(b):
        if b <= 1 or rng.random() < 0.2:
            r = rng.random()
            if r < 0.75:
                return Var(rng.randrange(2))
            if r < 0.88:
                return Zero()
            return One()
        pick = rng.random()
        if b == 2 or pick < 0.55:
            sub = go(b - 1)
            if pick < 0.38:
                return Sub(rng.choice(gens), sub)
            return Compl(sub)
        split = rng.randint(1, b - 2)
        cls = Meet if pick < 0.8 else Join
        return cls(go(split), go(b - 1 - split))

    return go(budget)


def test_c05_polysize_witnesses():
    """1000 seeded satisfiable formulas at n = 3, size <= 12: every
    witness model touches at most (number of modalities + 1) points."""
    t0 = time.monotonic()
    rng = random.Random(20260818)
    found = tried = 0
    worst = 0
    while found < 1000:
        tried += 1
        term = _random_term(rng, 3, "full", 12)
        sat, witness = satisfiable(term, 3, "full")
        if not sat:
            continue
        found += 1
        touched = len(witness["touched"])
        worst = max(worst, touched)
        bound = modality_count(term) + 1
        assert touched <= bound, (term, touched, bound)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 5: PASS — 1000/%d sat witnesses within the modality "
          "bound, max touched %d (%.1fs)" % (tried, worst, elapsed))


def test_c06_representation_engine():
    """Across the frame corpus: represent_at at every atom is a verified
    homomorphism whose image contains the identity point, and the
    atom-indexed product representation is injective with atom images
    partitioning every copy (exhaustive pair checks up to 2^8 elements)."""
    t0 = time.monotonic()
    algebras = 0
    for alg in representation_corpus():
        for x in alg.atoms():
            rep = represent_at(alg, x)
            assert rep.report["homomorphism"], (alg.n, x, rep.report)
            assert rep.report["identity_in_image"], (alg.n, x)
        full = complete_representation(alg)
        assert full.report["homomorphism"], full.report
        assert full.report["injective"], full.report
        assert full.report["complete"], full.report
        algebras += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 6: PASS — %d corpus algebras fully represented "
          "(%.1fs)" % (algebras, elapsed))


def test_represent_full_square_ceilings(tmp_path):
    """A cold `represent` (a fresh interpreter) of the whole ⁴4 and ⁵2
    square algebras is PASS within 3 s each, and of the whole ⁵3 square
    within 1.5 s, or 3 s with --json.  The whole 5⁵ and ⁶2 squares are
    over the representation budget and exit 2 within 1 s."""
    for (n, k), flags, code, first, ceiling in (
            ((4, 4), [], 0, "PASS", 3.0),
            ((5, 2), [], 0, "PASS", 3.0),
            ((5, 3), [], 0, "PASS", 1.5),
            ((5, 3), ["--json"], 0, "PASS", 3.0),
            ((5, 5), [], 2, "", 1.0),
            ((6, 2), [], 2, "", 1.0)):
        path = tmp_path / ("full%d%d.json" % (k, n))
        path.write_text(json.dumps({"n": n, "k": k, "mode": "full",
                                    "unit": list(range(k**n))}))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "substal.cli", "represent", *flags,
             str(path)],
            capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        assert proc.returncode == code, (n, k, proc.stderr)
        assert proc.stdout.split("\n")[0] == first, (n, k)
        assert elapsed < ceiling, "%d^%d %s took %.2fs" % (k, n, flags,
                                                          elapsed)
        assert ("budget" in proc.stderr) == (code == 2), (n, k)


def test_frame_check_point_frame_ceilings(tmp_path):
    """A cold `frame-check` of the full ⁵2 point frame, 32 worlds under a
    monoid of 3,125 elements, is PASS within 1 s, with and without
    --json: its word pairs hold on the generator tables, and they present
    the monoid at n = 5, so no Cayley edge is walked and all 93,750 are
    certified.  The ⁶2 point frame's pairs hold too, but they are not
    proved to present the n = 6 monoid, and its row walk is over the
    budget: exit 2 within 1 s."""
    for n, flags, code, first in ((5, [], 0, "PASS"),
                                  (5, ["--json"], 0, "PASS"),
                                  (6, [], 2, "")):
        path = tmp_path / ("point%d.json" % n)
        path.write_text(json.dumps(frame_to_json(point_frame(n, 2, "full"))))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "substal.cli", "frame-check", *flags,
             str(path)],
            capture_output=True, text=True)
        elapsed = time.monotonic() - t0
        assert proc.returncode == code, (n, proc.stderr)
        lines = proc.stdout.split("\n")
        assert lines[0] == first, n
        if flags:
            assert json.loads("\n".join(lines[1:])) == {
                "failures": [], "ok": True, "pairs_checked": 3125 * 30}
        assert ("budget" in proc.stderr) == (code == 2), n
        assert elapsed < 1.0, "the %d-dimensional point frame %s took " \
            "%.2fs" % (n, flags, elapsed)


def test_represent_transpositions_square_ceiling(tmp_path):
    """A cold `represent` of the whole ²100 square in transpositions mode,
    10⁴ atoms of two-point orbits, is PASS within 3 s: the cost of a
    block does not grow with the unit."""
    path = tmp_path / "transpositions100.json"
    path.write_text(json.dumps({"n": 2, "k": 100, "mode": "transpositions",
                                "unit": list(range(100**2))}))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "substal.cli", "represent", str(path)],
        capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "PASS"
    assert elapsed < 3.0, "²100 took %.2fs" % elapsed


def test_c07_psi_check():
    """On every corpus algebra the substituted atoms of each unary
    operation jointly cover the unit."""
    t0 = time.monotonic()
    for alg in representation_corpus():
        assert check_psi(alg), "cover fails on a %d-atom algebra" % len(
            alg.atoms())
    elapsed = time.monotonic() - t0
    print("criterion 7: PASS — substituted-atom cover holds on all %d "
          "corpus algebras (%.1fs)" % (len(representation_corpus()), elapsed))


def test_c08_canonical_extension():
    """canonical_extension is a verified isomorphism on the corpus, and
    the extension is completely representable."""
    t0 = time.monotonic()
    for alg in representation_corpus():
        ext, iso = canonical_extension(alg)
        assert iso.report["homomorphism"], iso.report
        assert iso.report["bijective"], iso.report
        comp = complete_representation(ext)
        assert comp.report["homomorphism"] and comp.report["injective"]
        assert comp.report["complete"]
    elapsed = time.monotonic() - t0
    print("criterion 8: PASS — canonical extension isomorphic + completely "
          "representable on all corpus algebras (%.1fs)" % elapsed)


def _preimage_hom(label, num_worlds):
    def f(z):
        out = 0
        for w in range(num_worlds):
            if z >> label[w] & 1:
                out |= 1 << w
        return out
    return f


def _relabeled(frame, rng):
    perm = list(range(frame.num_worlds))
    rng.shuffle(perm)
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    action = {g: tuple(perm[frame.act(g)[inv[v]]] for v in range(frame.num_worlds))
              for g in frame.action}
    return Frame(frame.n, frame.mode, frame.num_worlds, action), perm


def test_c09_superamalgamation():
    """200 seeded amalgamation bases: two extensions of a common
    subalgebra always amalgamate with order across the amalgam witnessed
    through the base (checked on every element pair)."""
    t0 = time.monotonic()
    rng = random.Random(424242)
    for trial in range(200):
        n = rng.choice([2, 3])
        base = random_coherent_frame(n, "full", max_worlds=2, rng=rng)
        full = ComplexAlgebra(base)
        seeds = [rng.getrandbits(base.num_worlds)
                 for _ in range(rng.randint(0, 2))]
        sub = Subalgebra(full, generate_subalgebra(full, seeds))

        sides = []
        for _ in range(2):
            copies = rng.randint(1, 4 // base.num_worlds)
            big, offsets = disjoint_union([base] * copies)
            label = []
            for _off in offsets:
                label.extend(range(base.num_worlds))
            shuffled, perm = _relabeled(big, rng)
            label2 = [0] * big.num_worlds
            for w in range(big.num_worlds):
                label2[perm[w]] = label[w]
            sides.append((ComplexAlgebra(shuffled),
                          _preimage_hom(label2, big.num_worlds)))
        (B, f), (C, h) = sides
        D, m, k, report = superamalgam(sub, B, C, f, h)
        assert report["square_commutes"], (trial, report)
        assert report["pass"], (trial, report)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 9: PASS — 200 seeded superamalgamations verified "
          "(%.1fs)" % elapsed)


def test_c10_local_finiteness():
    """Subalgebra generation terminates at the Boolean closure of the
    substitution orbit and respects the doubly exponential size bound
    (n = 2, up to 2 generators, inside the width-3 square)."""
    t0 = time.monotonic()
    alg = small_algebra(2, 3, "full")
    rng = random.Random(5)
    for _ in range(40):
        m = rng.randint(1, 2)
        gens = [rng.getrandbits(9) for _ in range(m)]
        closure = generate_subalgebra(alg, gens)
        orbit = substitution_orbit(alg, gens)
        assert set(closure) == set(boolean_closure(alg, orbit)), gens
        assert len(closure) <= subalgebra_size_bound(2, m)
    elapsed = time.monotonic() - t0
    print("criterion 10: PASS — 40 generated subalgebras equal the Boolean "
          "closure of the orbit, within the size bound (%.1fs)" % elapsed)


def test_c11_not_a_variety():
    """For n in {2..6} the relativized unit satisfies s_f(X) = -X while
    alternating-coloring certifies that no square unit of width <= n
    admits any solution."""
    t0 = time.monotonic()
    for n in range(2, 7):
        report = not_a_variety_witness(n)
        assert report["relativized_equation_holds"], (n, report)
        assert report["closed_under_transpositions"], (n, report)
        assert report["squares_unsolvable"], (n, report)
        assert report["pass"], (n, report)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 11: PASS — witness verified for n = 2..6 (%.1fs)"
          % elapsed)


def test_c12_rectangle_and_truncation_identities():
    """Rectangle identities pass exhaustively (k <= 5 at n = 2, k <= 3 at
    n = 3) and the truncated filter construction passes for n in {2,3}
    with bound 8 under the default finite/cofinite oracle."""
    t0 = time.monotonic()
    for k in range(1, 6):
        assert product_identities(k, n=2)["pass"], k
    for k in range(1, 4):
        assert product_identities(k, n=3)["pass"], k
    for n in (2, 3):
        report = counter2_truncation(TruncationSpec(n, 8))
        assert report["pass"], (n, report)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    print("criterion 12: PASS — rectangle + truncation identities verified "
          "(%.1fs)" % elapsed)


def test_c13_diagonal_representation():
    """diag_represent at every atom of every diagonal point frame
    (k <= n <= 3) is well defined, a verified homomorphism, and maps each
    diagonal element onto the target's diagonal."""
    t0 = time.monotonic()
    atoms = 0
    for n in range(1, 4):
        for k in range(1, n + 1):
            alg = ComplexAlgebra(point_frame(n, k, "full_diagonal"))
            for x in alg.atoms():
                rep = diag_represent(alg, x)
                assert rep.report["well_defined"], (n, k, x)
                assert rep.report["homomorphism"], (n, k, x, rep.report)
                assert rep.report["diag_onto"], (n, k, x)
                atoms += 1
    elapsed = time.monotonic() - t0
    print("criterion 13: PASS — diagonal representation verified at %d "
          "atoms (%.1fs)" % (atoms, elapsed))


def test_c14_quasi_equation_checker():
    """check_quasi accepts every square algebra (k <= n <= 4, T = all
    permutations) and rejects the relativized units of criterion 11,
    whose published witness set is re-verified directly."""
    t0 = time.monotonic()
    for n in range(2, 5):
        for k in range(1, n + 1):
            assert check_quasi(small_algebra(n, k, "full")), (n, k)

    for n in (2, 3):
        report = not_a_variety_witness(n)
        alg = make_relativized(n, report["base"], report["unit"],
                               "transpositions")
        assert check_quasi(alg) is False, n
        x = 0
        for idx in report["witness_points"]:
            x |= 1 << idx
        f = tuple(report["f"])
        assert alg.subst(f, x) == alg.compl(x), n
    elapsed = time.monotonic() - t0
    print("criterion 14: PASS — quasi-equations hold on squares, fail on "
          "the relativized units (%.1fs)" % elapsed)
