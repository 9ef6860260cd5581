"""Action frames, complex algebras, duality, and amalgamation."""

import itertools
import random

import pytest

from substal.frames import (
    COHERENCE_BUDGET,
    ComplexAlgebra,
    Frame,
    FrameReport,
    action_tables,
    atom_frame,
    disjoint_union,
    frame_check,
    frame_from_json,
    frame_to_json,
    insep_zigzag,
    point_frame,
    random_coherent_frame,
    relations_hold,
    superamalgam,
)
from substal.setalg import (FAILURES_KEPT, Square, Subalgebra,
                            algebra_from_json, fold_tables,
                            generate_subalgebra, morphism_report,
                            small_algebra)
from substal.monoid import (MODES, generators, monoid_table, presented,
                           relations, repl, swap)
from substal.terms import equation_holds_exhaustive, sigma_axioms, word_pair

from oracles import (hom_report, ref_action_walk, ref_frame_coherent,
                     ref_gen_tuple, ref_hat, ref_word_table)
from test_acceptance import _preimage_hom, _relabeled


def test_point_frames_pass_frame_check():
    for n, k, mode in [(2, 2, "full"), (2, 3, "full"), (3, 2, "full"),
                       (2, 2, "transpositions"), (2, 2, "replacements"),
                       (2, 2, "full_diagonal"), (3, 2, "full_diagonal")]:
        report = frame_check(point_frame(n, k, mode))
        assert report.ok, (n, k, mode, report.failures)
        assert report.pairs_checked > 0


def test_point_frame_matches_reference_tables():
    """Action tables and diagonals against points moved one by one: world
    index sum q[i] * k^i, and g sends q to (q[g(0)], ..., q[g(n-1)])."""
    for n in range(1, 5):
        for k in range(1, 4):
            points = list(itertools.product(range(k), repeat=n))

            def index(q):
                return sum(v * k**i for i, v in enumerate(q))

            for mode in ("replacements", "transpositions", "full",
                         "full_diagonal"):
                frame = point_frame(n, k, mode)
                assert frame.num_worlds == k**n
                for g in generators(n, mode):
                    gt = ref_gen_tuple(g.kind, g.i, g.j, n)
                    want = [None] * len(points)
                    for q in points:
                        want[index(q)] = index(tuple(q[gt[i]] for i in range(n)))
                    assert list(frame.act(g)) == want, (n, k, mode, g)
                if mode != "full_diagonal":
                    assert frame.diag is None
                    continue
                for i in range(n):
                    for j in range(n):
                        want = sum(1 << index(q) for q in points if q[i] == q[j])
                        assert frame.diag_mask(i, j) == want, (n, k, i, j)


def test_trivial_one_world_frame_passes():
    syms = generators(2, "full")
    frame = Frame(2, "full", 1, {g: (0,) for g in syms})
    assert frame_check(frame).ok


def test_two_world_constant_replacements_frame_fails():
    # swap exchanges the worlds, each replacement is constant; composing a
    # replacement with the swap then disagrees with the collapsed composite
    action = {swap(0, 1): (1, 0), repl(0, 1): (0, 0), repl(1, 0): (1, 1)}
    report = frame_check(Frame(2, "full", 2, action))
    assert not report.ok
    assert any(kind == "coherence" for kind, *_ in report.failures)


def test_frame_constructor_validation():
    syms = generators(2, "full")
    with pytest.raises(ValueError):
        Frame(2, "full", 2, {syms[0]: (1, 0)})  # missing generators
    with pytest.raises(ValueError):
        Frame(2, "full", 2, {g: (0, 5) for g in syms})  # world out of range
    with pytest.raises(ValueError):
        # full_diagonal frames must mark every diagonal
        Frame(2, "full_diagonal", 1, {g: (0,) for g in syms})


def _act_of_word(frame, word):
    tab = tuple(range(frame.num_worlds))
    for g in word:
        gt = frame.act(g)
        tab = tuple(gt[w] for w in tab)
    return tab


def _word_equations():
    out = []
    for eq in sigma_axioms(2, "full"):
        if eq.tag.startswith(("subst:", "perm:")):
            out.append(word_pair(eq))
    assert all(wp is not None for wp in out)
    return out


def test_frame_check_matches_axiom_satisfaction_exhaustively():
    """Cross-validation on every frame with at most 3 worlds (n = 2): the
    coherence verdict and the row certificate coincide with all
    substitution axioms holding in the complex algebra (the Boolean and
    endomorphism groups hold in any preimage algebra, so the word-pair
    groups decide the rest)."""
    syms = generators(2, "full")
    word_eqs = _word_equations()
    accepted = rejected = 0
    for m in (1, 2, 3):
        tables = list(itertools.product(range(m), repeat=m))
        for combo in itertools.product(tables, repeat=len(syms)):
            frame = Frame(2, "full", m, dict(zip(syms, combo)))
            ok = frame_check(frame).ok
            axioms_ok = all(
                _act_of_word(frame, w1) == _act_of_word(frame, w2)
                for w1, w2 in word_eqs
            )
            assert ok == axioms_ok == (not frame.certificate[0]), (m, combo)
            accepted += ok
            rejected += not ok
    assert accepted and rejected  # both verdicts actually occur


def test_word_pair_criterion_grounded_in_equation_checking():
    """On every 2-world frame, equality of the word-pair action tables is
    the same thing as the axioms holding element-by-element in Cm."""
    syms = generators(2, "full")
    word_eqs = _word_equations()
    axioms = sigma_axioms(2, "full")
    for combo in itertools.product([(0, 0), (0, 1), (1, 0), (1, 1)],
                                   repeat=len(syms)):
        frame = Frame(2, "full", 2, dict(zip(syms, combo)))
        alg = ComplexAlgebra(frame)
        by_tables = all(
            _act_of_word(frame, w1) == _act_of_word(frame, w2)
            for w1, w2 in word_eqs
        )
        by_elements = all(equation_holds_exhaustive(alg, eq) for eq in axioms)
        assert by_tables == by_elements, combo


def test_complex_algebra_matches_small_algebra():
    frame = point_frame(2, 2, "full")
    cm = ComplexAlgebra(frame)
    direct = small_algebra(2, 2, "full")
    assert cm.one == direct.one
    rng = random.Random(4)
    for _ in range(50):
        x, y = rng.getrandbits(4), rng.getrandbits(4)
        assert cm.meet(x, y) == direct.meet(x, y)
        assert cm.compl(x) == direct.compl(x)
        for g in generators(2, "full"):
            assert cm.subst(g, x) == direct.subst(g, x)


def test_complex_algebra_preimage_laws():
    cm = ComplexAlgebra(point_frame(2, 2, "full"))
    for g in generators(2, "full"):
        assert cm.subst(g, cm.zero) == cm.zero
        assert cm.subst(g, cm.one) == cm.one
    singleton = ComplexAlgebra(
        Frame(2, "full", 1, {g: (0,) for g in generators(2, "full")}))
    assert singleton.size() == 2
    for g in generators(2, "full"):
        for x in (0, 1):
            assert singleton.subst(g, x) == x

    dm = ComplexAlgebra(point_frame(2, 2, "full_diagonal"))
    assert dm.diag(0, 0) == dm.one
    assert dm.diag(0, 1) == small_algebra(2, 2, "full_diagonal").diag(0, 1)


def test_atom_frame_recovers_point_frame():
    frame = point_frame(2, 2, "full")
    dual, atoms = atom_frame(ComplexAlgebra(frame))
    assert atoms == [1 << w for w in range(4)]
    for g in generators(2, "full"):
        assert dual.act(g) == frame.act(g)

    dframe = point_frame(2, 2, "full_diagonal")
    ddual, _ = atom_frame(ComplexAlgebra(dframe))
    assert ddual.diag_mask(0, 1) == dframe.diag_mask(0, 1)


def test_atom_frame_of_two_element_algebra():
    full = ComplexAlgebra(point_frame(2, 2, "full"))
    two = Subalgebra(full, generate_subalgebra(full, []))
    dual, atoms = atom_frame(two)
    assert dual.num_worlds == 1
    assert atoms == [two.one]
    assert ComplexAlgebra(dual).size() == 2


def _equivariant(domain, codomain, mapping):
    """The certificate of the inverse image Cm(codomain) → Cm(domain) of
    the world map domain → codomain: a homomorphism exactly when the map
    is equivariant and keeps the diagonals."""
    return morphism_report(ComplexAlgebra(codomain), ComplexAlgebra(domain),
                           dict(enumerate(mapping)))


def test_equivariant_maps():
    frame = point_frame(2, 2, "full")
    ident = _equivariant(frame, frame, tuple(range(4)))
    assert ident["homomorphism"] and ident["injective"]
    collapse = _equivariant(frame, point_frame(2, 1, "full"), (0, 0, 0, 0))
    assert collapse["homomorphism"] and collapse["injective"]
    bad = _equivariant(frame, frame, (1, 0, 2, 3))
    assert not bad["homomorphism"]
    assert bad["failures"][0][0] == "subst"
    diagonal = point_frame(2, 2, "full_diagonal")
    assert _equivariant(diagonal, diagonal, range(4))["homomorphism"]
    assert not _equivariant(diagonal, point_frame(2, 1, "full_diagonal"),
                            (0, 0, 0, 0))["homomorphism"]


def test_equivariant_preimage_commutes_with_subst():
    base = point_frame(2, 2, "full")
    union, offsets = disjoint_union([base, base])
    label = tuple(w % base.num_worlds for w in range(union.num_worlds))
    report = _equivariant(union, base, label)
    assert report["homomorphism"] and report["failures"] == []

    big, small = ComplexAlgebra(union), ComplexAlgebra(base)

    def pre(x):
        out = 0
        for w, lw in enumerate(label):
            if x >> lw & 1:
                out |= 1 << w
        return out

    rng = random.Random(12)
    for _ in range(40):
        x = rng.getrandbits(4)
        for g in generators(2, "full"):
            assert pre(small.subst(g, x)) == big.subst(g, pre(x))


def test_disjoint_union():
    one = point_frame(2, 1, "full")
    four = point_frame(2, 2, "full")
    union, offsets = disjoint_union([one, four])
    assert union.num_worlds == 5
    assert offsets == [0, 1]
    assert frame_check(union).ok
    assert len(ComplexAlgebra(union).atoms()) == 5

    alone, offs = disjoint_union([four])
    assert alone.num_worlds == 4 and offs == [0]
    assert alone.action == four.action
    with pytest.raises(ValueError):
        disjoint_union([])
    with pytest.raises(ValueError):
        disjoint_union([one, point_frame(3, 1, "full")])


def test_insep_zigzag_identity_labels():
    frame = point_frame(2, 2, "full")
    labels = list(range(4))
    prod, worlds = insep_zigzag(frame, frame, labels, labels)
    assert worlds == [(w, w) for w in range(4)]
    assert frame_check(prod).ok
    for g in generators(2, "full"):
        # the diagonal copies the base action
        assert prod.act(g) == frame.act(g)


def test_insep_zigzag_constant_labels_give_full_product():
    frame = point_frame(2, 2, "full")
    labels = [0, 0, 0, 0]
    prod, worlds = insep_zigzag(frame, frame, labels, labels)
    assert len(worlds) == 16
    assert frame_check(prod).ok


def test_insep_zigzag_rejects_non_dual_labels():
    frame = point_frame(2, 2, "full")
    # label worlds inconsistently with the action: (0,0) and (1,1) share a
    # label but their swap images do not pair up with anything
    with pytest.raises(ValueError):
        insep_zigzag(frame, frame, [0, 1, 2, 0], [0, 1, 1, 2])


def test_superamalgam_identity_degenerates_to_base():
    alg = ComplexAlgebra(point_frame(2, 2, "full"))
    ident = lambda a: a
    D, m, k, report = superamalgam(alg, alg, alg, ident, ident)
    assert report["pass"], report
    assert report["worlds"] == 4
    for b in alg.elements():
        assert m(b) == k(b)


def test_superamalgam_over_proper_subalgebra():
    full = ComplexAlgebra(point_frame(2, 2, "full"))
    two = Subalgebra(full, generate_subalgebra(full, []))
    ident = lambda a: a
    D, m, k, report = superamalgam(two, full, full, ident, ident)
    assert report["pass"], report
    assert report["square_commutes"]


def test_superamalgam_rejects_non_embeddings():
    alg = ComplexAlgebra(point_frame(2, 2, "full"))
    squash = lambda a: alg.zero
    with pytest.raises(ValueError):
        superamalgam(alg, alg, alg, squash, lambda a: a)


def _amalgamation_trials(rng, trials):
    """Bases in the style of c09: a generated subalgebra A of the complex
    algebra of a random frame or of a ²2 point frame, and two shuffled
    unions of copies of that frame, up to four worlds each, with the
    label of each world in the frame; then the two maps, each also bent
    at one element and with one world relabelled."""
    for _ in range(trials):
        if rng.random() < 0.5:
            base = random_coherent_frame(rng.choice([2, 3]), "full",
                                         max_worlds=2, rng=rng)
        else:
            base = point_frame(2, 2, rng.choice(
                ["full", "transpositions", "replacements"]))
        full = ComplexAlgebra(base)
        seeds = [rng.getrandbits(base.num_worlds)
                 for _ in range(rng.randint(0, 2))]
        A = Subalgebra(full, generate_subalgebra(full, seeds))
        sides = []
        for _ in range(2):
            big, offsets = disjoint_union(
                [base] * rng.randint(1, 4 // base.num_worlds))
            shuffled, perm = _relabeled(big, rng)
            label = [0] * big.num_worlds
            for w in range(big.num_worlds):
                label[perm[w]] = w % base.num_worlds
            sides.append((ComplexAlgebra(shuffled), label))
        variants = []
        for B, label in sides:
            embed = _preimage_hom(label, len(label))
            z0 = rng.choice(A.elements())
            flip = 1 << rng.randrange(len(label))
            moved = list(label)
            moved[rng.randrange(len(moved))] = rng.randrange(base.num_worlds)
            variants.append((B, [
                embed,
                lambda z, e=embed, z0=z0, flip=flip: e(z) ^ flip if z == z0
                else e(z),
                _preimage_hom(moved, len(moved))]))
        (B, fs), (C, hs) = variants
        yield A, B, C, [(f, hs[0]) for f in fs] + [(fs[0], h) for h in hs[1:]]


def test_superamalgam_refuses_where_the_atom_certificate_refuses():
    """On seeded c09 bases, with f or h bent at one element or with one
    world relabelled, superamalgam refuses a pair of maps exactly when
    hom_report finds one of them no injective homomorphism; otherwise its
    m and k certificates agree with hom_report's and the amalgam
    passes."""
    rng = random.Random(2013)
    maps = refused = 0
    for A, B, C, pairs in _amalgamation_trials(rng, 60):
        for f, h in pairs:
            maps += 1
            embeds = (hom_report(A, B, f)["injective"]
                      and hom_report(A, C, h)["injective"])
            if not embeds:
                refused += 1
                with pytest.raises(ValueError, match="not an embedding"):
                    superamalgam(A, B, C, f, h)
                continue
            D, m, k, report = superamalgam(A, B, C, f, h)
            for name, side, fn in (("m", B, m), ("k", C, k)):
                want = hom_report(side, D, fn)
                assert report[name + "_homomorphism"] == want["homomorphism"]
                assert report[name + "_injective"] == want["injective"]
            assert report["pass"], report
    assert maps == 300 and 0 < refused < maps


def test_random_coherent_frames():
    rng = random.Random(31)
    for mode in ("full", "transpositions", "replacements"):
        for _ in range(8):
            frame = random_coherent_frame(rng.choice([2, 3]), mode,
                                          max_worlds=8, rng=rng)
            assert frame.num_worlds <= 8
            assert frame.mode == mode
            assert frame_check(frame).ok
            assert not frame.certificate[0]
    with pytest.raises(ValueError):
        random_coherent_frame(2, "full_diagonal", rng=rng)
    # drawn as c09 draws them, most frames have two worlds on which the
    # generators do not all act alike
    rng = random.Random(1)
    several = distinct = 0
    for _ in range(200):
        frame = random_coherent_frame(rng.choice([2, 3]), "full",
                                      max_worlds=2, rng=rng)
        several += frame.num_worlds == 2
        distinct += len(set(frame.action.values())) > 1
    assert several >= 170 and distinct >= 150, (several, distinct)


def _broken_involution(frame):
    """A copy whose first generator table is constant, as the certify
    benchmark breaks s[0,1]: on two worlds or more a constant table is no
    involution."""
    action = dict(frame.action)
    action[generators(frame.n, frame.mode)[0]] = (0,) * frame.num_worlds
    return Frame(frame.n, frame.mode, frame.num_worlds, action, frame.diag)


def _diagonal(frame):
    """A full-mode frame's action in full_diagonal mode, with no world on
    any diagonal."""
    diag = {(i, j): 0 for i in range(frame.n) for j in range(i + 1, frame.n)}
    return Frame(frame.n, "full_diagonal", frame.num_worlds, frame.action,
                 diag)


def test_relation_verdict_agrees_with_the_row_certificate():
    """The word pairs' verdict is the row certificate's in every mode where
    they are proved a presentation, and in replacement mode a failing
    pair is a failing row, on random coherent frames, their broken-
    involution and one-entry mutants, random tables and wide frames."""
    rng = random.Random(2601)
    frames = []
    for n in (1, 2, 3, 4):
        for mode in ("full", "transpositions", "replacements"):
            for _ in range(12 if n < 4 else 4):
                frames.append(random_coherent_frame(n, mode, 6, rng))
    frames += [_diagonal(f) for f in frames if f.mode == "full"]
    frames += [point_frame(n, k, mode) for n in (2, 3) for k in (2, 3)
               for mode in MODES]
    frames.append(point_frame(2, 17, "full"))      # 289 worlds: tuples
    mutants = []
    for frame in frames:
        if frame.num_worlds > 1 and frame.action:
            mutants.append(_broken_involution(frame))
            mutants += [_perturbed(frame, rng) for _ in range(2)]
    for n, mode in itertools.product((2, 3), MODES):
        gens = generators(n, mode)
        for m in (2, 3, 4):
            action = {g: [rng.randrange(m) for _ in range(m)] for g in gens}
            diag = {(i, j): rng.getrandbits(m)
                    for i in range(n) for j in range(i + 1, n)}
            mutants.append(Frame(n, mode, m, action, diag))
    counts = {True: 0, False: 0, None: 0}
    for frame in frames + mutants:
        rows = not frame.certificate[0]
        verdict = frame.relation_verdict
        counts[verdict] += 1
        if presented(frame.n, frame.mode):
            assert verdict == rows, frame
        else:
            assert verdict is not True and (verdict is None or not rows)
        assert frame.coherent() == rows
        if frame.n <= 3 and frame.num_worlds <= 9:
            assert rows == ref_frame_coherent(frame), frame
    assert counts[True] > 150 and counts[False] > 350 and counts[None] > 20


def test_relations_hold_reads_words_of_any_length():
    """relations_hold agrees with stepping the generator tables along
    each word (oracles.ref_word_table) on synthetic word pairs of 0 to 6
    letters a word, pair by pair and over whole lists, for n ≤ 4 in every
    non-diagonal mode: on random coherent frames, their broken-involution
    mutants and point frames, with tables as bytes and as tuples.  Many
    pairs share three letters and differ only after them."""
    rng = random.Random(2902)
    frames = []
    for n in (1, 2, 3, 4):
        for mode in ("full", "transpositions", "replacements"):
            for _ in range(4):
                frames.append(random_coherent_frame(n, mode, 6, rng))
            frames += [point_frame(n, k, mode) for k in (2, 3)]
    frames.append(point_frame(2, 17, "full"))      # 289 worlds: tuples
    frames += [_broken_involution(f) for f in frames if f.num_worlds > 1
               and f.action]
    # "past three": pairs whose verdict changes after their third letters
    counts = {True: 0, False: 0, "past three": 0}
    for frame in frames:
        n, gens = frame.n, generators(frame.n, frame.mode)
        index = {g: i for i, g in enumerate(gens)}
        shortest = {tau: tuple(map(index.__getitem__, w))
                    for tau, w in monoid_table(n, frame.mode).items()}

        def word(length):
            return tuple(rng.randrange(len(gens)) for _ in range(
                length if gens else 0))
        pairs = []
        for _ in range(30):
            head = word(3)
            pairs.append((word(rng.randint(0, 6)), word(rng.randint(0, 6))))
            pairs.append((head + word(rng.randint(0, 3)),
                          head + word(rng.randint(0, 3))))
            # a word and the shortest word of its element: the pair holds
            # on a coherent frame
            left = head + word(rng.randint(0, 3))
            pairs.append((left, shortest[ref_hat(
                [(gens[g].kind, gens[g].i, gens[g].j) for g in left], n)]))
        rels = [("pair", (), left, right) for left, right in pairs]
        want = []
        for rel in rels:
            _, _, left, right = rel
            holds = ref_word_table(frame, left) == ref_word_table(frame, right)
            assert relations_hold(frame, [rel]) == holds, (frame, left, right)
            counts[holds] += 1
            counts["past three"] += holds != (
                ref_word_table(frame, left[:3])
                == ref_word_table(frame, right[:3]))
            want.append(holds)
        assert relations_hold(frame, rels) == all(want)
        assert relations_hold(frame, [r for r, ok in zip(rels, want) if ok])
    assert counts[True] > 5000 and counts[False] > 2000, counts
    assert counts["past three"] > 1000, counts


def test_frame_check_lists_failures_only_when_asked():
    frame = _broken_involution(point_frame(3, 2, "full"))
    assert frame_check(frame, listing=False) == FrameReport(False, [], 0)
    report = frame_check(frame)
    assert not report.ok
    assert report.failures == frame.certificate[0][:FAILURES_KEPT]
    coherent = point_frame(3, 2, "full")
    assert frame_check(coherent, listing=False) == frame_check(coherent) \
        == FrameReport(True, [], 27 * 9)
    # a pass by the word pairs walks no Cayley edge
    assert "certificate" not in vars(coherent)


def test_coherence_budget_counts_letters_and_worlds():
    """The word pairs are checked only within COHERENCE_BUDGET letters
    times worlds.  Past it the row certificate decides, where it fits the
    budget, so every frame it admits is still admitted; where neither
    fits, frame_check refuses."""
    gens = generators(2, "full")
    letters = sum(len(left) + len(right)
                  for _, _, left, right in relations(2, "full"))
    assert letters == 28 > 4 * len(gens)
    worlds = COHERENCE_BUDGET // letters + 1      # 71,429 worlds
    still = Frame(2, "full", worlds, {g: range(worlds) for g in gens})
    assert still.relation_verdict is None
    assert frame_check(still) == FrameReport(True, [], 12)
    worlds = 300_000
    huge = Frame(2, "full", worlds, {g: range(worlds) for g in gens})
    with pytest.raises(ValueError, match="exceeds budget"):
        frame_check(huge)
    assert huge.relation_verdict is None
    assert "certificate" not in vars(huge)


def test_orbits_along_the_tree_match_the_word_fold():
    """On point frames and seeded coherent frames, n ≤ 4, for every monoid
    element: each world's orbit along the breadth-first tree is the fold of
    the generator tables along the canonical word, and on a point frame it
    is the point moved by the reference transformation of the element's
    shortest word in monoid_table, read off the tree."""
    rng = random.Random(41)
    frames = [(point_frame(n, k, mode), k) for n in range(1, 5)
              for k in (1, 2, 3) for mode in MODES]
    frames += [(random_coherent_frame(n, mode, max_worlds=8, rng=rng), None)
               for n in (2, 3, 4) for mode in MODES[:3] for _ in range(3)]
    for frame, k in frames:
        n, m = frame.n, frame.num_worlds
        walk = action_tables(frame)
        assert frame.coherent()
        orbits = [walk.orbit(w) for w in range(m)]
        for t, (tau, word) in enumerate(monoid_table(n, frame.mode).items()):
            folded = fold_tables(frame, tau, range(m))
            assert [orbits[w][t] for w in range(m)] == folded, (frame, tau)
            if k is None:
                continue
            ref = ref_hat([(g.kind, g.i, g.j) for g in word], n)
            for w in range(m):
                q = [w // k**i % k for i in range(n)]
                moved = sum(q[ref[i]] * k**i for i in range(n))
                assert orbits[w][t] == moved, (frame, tau, w)


def _closed_unit(n, k, mode, rng):
    """A random set of points of ⁿk closed under the mode's generators."""
    square = Square(n, k, mode)
    unit = {rng.randrange(k**n) for _ in range(rng.randint(1, 3))}
    frontier = list(unit)
    while frontier:
        p = frontier.pop()
        for g in generators(n, square.mode):
            q = square.act(g)[p]
            if q not in unit:
                unit.add(q)
                frontier.append(q)
    return sorted(unit)


def test_row_walk_matches_the_edge_walk():
    """The walk along the tree gives the edge-by-edge reference's tables
    and their numbering on every coherent space, and each element's table
    on a broken frame; the row certificate of every frame, broken ones
    included, gives the reference's failures and edge count, and leaves
    a broken frame's walk (tables, numbers and index) as it was, bytes
    and tuple tables alike."""
    rng = random.Random(2024)
    coherent, broken = [], []
    for n in (1, 2, 3, 4):
        for mode in MODES[:3]:
            for _ in range(3):
                frame = random_coherent_frame(n, mode, max_worlds=6, rng=rng)
                coherent.append((frame, None))
                if frame.num_worlds > 1 and frame.action:
                    g = rng.choice(sorted(frame.action,
                                          key=lambda s: s.token()))
                    action = dict(frame.action)
                    action[g] = [rng.randrange(frame.num_worlds)] \
                        * frame.num_worlds
                    broken.append(Frame(n, mode, frame.num_worlds, action))
    coherent += [(point_frame(n, k, "full_diagonal"), None)
                 for n in (1, 2, 3) for k in (1, 2, 3)]
    # past 256 worlds a table is no longer one byte per world
    wide = point_frame(2, 17, "full")
    coherent.append((wide, None))
    broken.append(Frame(2, "full", wide.num_worlds,
                        {**wide.action, swap(0, 1): [5] * 289}))
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 17)):
        for mode in MODES:
            algebra = algebra_from_json({
                "n": n, "k": k, "mode": mode,
                "unit": _closed_unit(n, k, mode, rng)})
            coherent.append((algebra.space, algebra.unit))
    for space, unit in coherent:
        unit = (1 << space.num_worlds) - 1 if unit is None else unit
        *want, failures, edges = ref_action_walk(space, unit)
        assert failures == []
        walk = action_tables(space, unit)
        assert [walk.worlds, list(map(tuple, walk.tables)),
                walk.number] == want, space
        if isinstance(space, Frame):
            assert space.certificate == (failures, edges), space
    assert sum(1 for f in broken if not ref_frame_coherent(f)) > 10
    for frame in broken:
        unit = (1 << frame.num_worlds) - 1
        got = action_tables(frame)
        before = list(got.tables), list(got.number), dict(got.index)
        _, tables, number, failures, edges = ref_action_walk(frame, unit)
        assert [tuple(got.tables[a]) for a in got.number] == [
            tables[a] for a in number], frame
        assert frame.certificate == (failures, edges), frame
        assert frame.coherent() == ref_frame_coherent(frame)
        assert action_tables(frame) is got
        assert (got.tables, got.number, got.index) == before, frame


def test_walk_stops_at_the_last_kept_failure():
    """A frame with more than FAILURES_KEPT incoherent edges is walked up
    to the edge of its last kept failure, as the reference walks it."""
    gens = generators(3, "full")
    action = {g: (0, 1) for g in gens}
    action[swap(0, 1)] = (0, 0)
    frame = Frame(3, "full", 2, action)
    report = frame_check(frame)
    want = ref_action_walk(frame, 3)
    assert len(report.failures) == FAILURES_KEPT == len(want[3])
    assert report.failures == want[3]
    assert report.pairs_checked == want[4] < 27 * len(gens)


def test_frame_file_tokens_in_any_spelling():
    """A table's token is parsed as any spelling of a generator, so
    s[1,0] and " s[0,1] " name s[0,1], and every refusal keeps its
    message."""
    data = frame_to_json(point_frame(2, 2, "full"))
    plain = frame_from_json(data)
    for spelling in ("s[1,0]", " s[0,1] "):
        action = dict(data["action"])
        action[spelling] = action.pop("s[0,1]")
        back = frame_from_json(dict(data, action=action))
        assert back.action == plain.action
        assert all(g in generators(2, "full") for g in back.action)
    for extra, message in (
            ("s[1,0]", r"^generator s\[0,1\] is given twice$"),
            ("s[0|2]", r"^s\[0\|2\] is not a generator of mode full at n=2$"),
            ("s[0;1]", r"^bad generator token: 's\[0;1\]'$"),
            ("s[1|1]", r"^generator indices must differ$")):
        action = dict(data["action"], **{extra: [0, 1, 2, 3]})
        with pytest.raises(ValueError, match=message):
            frame_from_json(dict(data, action=action))
    with pytest.raises(ValueError, match=r"^s\[0\|1\] is not a generator "
                       r"of mode transpositions at n=2$"):
        frame_from_json(dict(data, mode="transpositions"))


def _perturbed(frame, rng):
    """A copy with one world of one generator table sent elsewhere."""
    g = rng.choice(sorted(frame.action, key=lambda s: s.token()))
    tab = list(frame.act(g))
    w = rng.randrange(frame.num_worlds)
    tab[w] = rng.choice([v for v in range(frame.num_worlds) if v != tab[w]])
    action = dict(frame.action)
    action[g] = tab
    return Frame(frame.n, frame.mode, frame.num_worlds, action, frame.diag)


def test_frame_check_agrees_with_pair_sweep():
    """The Cayley-edge certificate and the pairwise coherence sweep agree
    on point frames, random coherent frames and perturbed copies."""
    rng = random.Random(77)
    frames = [point_frame(n, k, mode) for n, k, mode in
              [(2, 2, "full"), (2, 3, "full"), (3, 2, "full"),
               (3, 2, "transpositions"), (3, 2, "replacements")]]
    for mode in ("full", "transpositions", "replacements"):
        frames += [random_coherent_frame(rng.choice([2, 3]), mode,
                                         max_worlds=6, rng=rng)
                   for _ in range(6)]
    verdicts = set()
    for frame in frames:
        candidates = [frame]
        if frame.num_worlds > 1:
            candidates += [_perturbed(frame, rng) for _ in range(3)]
        for candidate in candidates:
            ok = frame_check(candidate).ok
            assert ok == ref_frame_coherent(candidate), candidate
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_frame_json_round_trip():
    for frame in (point_frame(2, 2, "full"),
                  point_frame(2, 2, "full_diagonal"),
                  random_coherent_frame(2, "full", rng=random.Random(8))):
        data = frame_to_json(frame)
        assert set(data) >= {"n", "mode", "worlds", "action"}
        back = frame_from_json(data)
        assert back.action == frame.action
        assert back.num_worlds == frame.num_worlds
        assert back.diag == frame.diag
