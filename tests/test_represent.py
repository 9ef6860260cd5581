"""Ultrafilter representations, quotients, and quasi-equation checks."""

import io
import itertools
import json
import os
import random
import re
import tempfile
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from substal import cli
from substal.frames import (ComplexAlgebra, Frame, atom_frame, frame_to_json,
                            point_frame, random_coherent_frame)
from substal.gallery import not_a_variety_witness
from substal.monoid import (MODES, cayley_graph,
                            enumerate_monoid, generators, has_diagonals,
                            identity)
from substal.represent import (SubMonoidCtx, atom_below, canonical_extension,
                               check_psi, check_psi_witnesses, check_quasi,
                               complete_representation, cycle_types, diag_represent,
                               full_representation, represent_at,
                               special_quasi_witness)
from substal.setalg import (ConcreteAlgebra, Subalgebra, algebra_to_json,
                            generate_subalgebra, make_relativized,
                            morphism_report, point_coords, point_index,
                            small_algebra)

from oracles import (hom_report, ref_check_quasi, ref_hom_sweep,
                     ref_product_hom, ref_quasi_sweep)
from test_acceptance import _relabeled, representation_corpus

SWAP = (1, 0)


def test_atom_below():
    alg = small_algebra(2, 2)
    assert atom_below(alg, alg.one) == 1
    assert atom_below(alg, 4) == 4
    assert atom_below(alg, 6) in (2, 4)
    with pytest.raises(ValueError):
        atom_below(alg, alg.zero)


# ------------------------------------------------------------- represent_at

def test_represent_at_identity_point_is_the_identity_map():
    """At the atom of the identity point the representation is z ↦ z.

    The target's unit enumerates the monoid's own maps as points of the
    square, and q·τ = τ when q is the identity arrangement (0, 1).
    """
    alg = small_algebra(2, 2)
    atom = 1 << point_index((0, 1), 2)
    rep = represent_at(alg, atom)
    assert rep.report["homomorphism"]
    assert rep.report["identity_in_image"]
    assert rep.report["atom_cover"]
    assert rep.report["injective"]
    assert rep.target.one == alg.one
    for z in alg.elements():
        assert rep.image(z) == z


def test_represent_at_collapsed_point_is_not_injective():
    """At the constant point every map looks alike, so h only sees whether
    (0,0) is a member; injectivity must come from the product over atoms."""
    alg = small_algebra(2, 2)
    atom = 1 << point_index((0, 0), 2)
    rep = represent_at(alg, atom)
    assert rep.report["homomorphism"]
    assert rep.report["identity_in_image"]
    assert rep.report["atom_cover"]
    assert not rep.report["injective"]
    assert rep.image(atom) == rep.target.one
    assert rep.image(alg.compl(atom)) == rep.target.zero


def test_represent_at_one_element_monoid():
    alg = small_algebra(1, 1)
    rep = represent_at(alg, alg.one)
    assert rep.report["homomorphism"]
    assert rep.report["identity_in_image"]
    assert rep.image(alg.one) == rep.target.one
    assert rep.image(alg.zero) == rep.target.zero


# ------------------------------------------------------- full representation

def test_full_representation_exact():
    alg = small_algebra(2, 2)
    rep = full_representation(alg)
    report = rep.report
    assert report["homomorphism"]
    assert report["injective"]
    assert report["injective_method"] == "atom-blocks"
    assert report["identity_in_image"]
    assert report["atom_cover"]
    assert len(rep.blocks) == 4
    # four blocks, one per atom, each the monoid's 4 points of ²2
    assert rep.target.one == (1 << 16) - 1
    assert len(rep.target.atoms()) == 16
    assert rep.to_json()["target"]["blocks"] == 4
    assert rep.image(alg.one) == rep.target.one
    assert rep.image(alg.zero) == rep.target.zero
    images = [rep.image(z) for z in alg.elements()]
    assert len(set(images)) == alg.size()


def test_full_representation_large_source_uses_atom_blocks():
    rep = complete_representation(small_algebra(2, 3))
    report = rep.report
    assert report["homomorphism"]
    assert report["injective"]
    assert report["injective_method"] == "atom-blocks"
    assert report["atom_cover"]
    assert report["complete"]
    assert report["completely_additive"]


def test_full_representation_rejects_trivial_algebra():
    with pytest.raises(ValueError):
        full_representation(small_algebra(2, 0))


def test_complete_representation_flags():
    rep = complete_representation(small_algebra(2, 2))
    assert rep.report["complete"]
    assert rep.report["complete"] == rep.report["atom_cover"]
    assert rep.report["completely_additive"]


def test_rep_map_to_json():
    rep = full_representation(small_algebra(2, 2))
    data = rep.to_json()
    assert set(data["report"]) == {"homomorphism", "injective", "atom_cover"}
    assert data["target"]["blocks"] == 4
    assert data["atoms"] == [[0], [1], [2], [3]]
    assert len(data["atom_images"]) == 4
    assert "images" not in data and "elements" not in data


def test_rep_map_to_json_memory_is_linear_in_the_atoms():
    """to_json lists each atom as its one point and collects the images in
    one pass over the gather, with no bitmask per atom: on the full ²150
    square (22,500 atoms) its tracemalloc peak stays under 16 MB, where
    one bitmask per atom peaks above 40 MB."""
    rep = full_representation(small_algebra(2, 150))
    tracemalloc.start()
    try:
        data = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 10**6, peak
    assert len(data["atoms"]) == len(data["atom_images"]) == 150**2
    for p in (0, 151, 150**2 - 1):
        assert data["atoms"][p] == [p]
        assert data["atom_images"][p] == sorted(_bits(rep.image(1 << p)))


def test_full_representation_holds_its_gather_once():
    """The representation's image reads the gather in place, and no copy
    of it is made as pairs: on the full ⁴4 square (256 atoms, 65,536
    gather entries) the tracemalloc peak of full_representation stays
    under 5 MB, where a list of (src, dst) pairs beside the two lists
    peaks above 7 MB.  The image still agrees with to_json."""
    alg = small_algebra(4, 4)
    tracemalloc.start()
    try:
        rep = full_representation(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 10**6, peak
    data = rep.to_json()
    for p in (0, 17, 255):
        assert data["atoms"][p] == [p]
        assert data["atom_images"][p] == sorted(_bits(rep.image(1 << p)))


def _bits(mask):
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


def test_rep_map_json_atom_images_rebuild_every_image():
    """Each image is the union of the emitted images of the atoms whose
    points lie inside the element, on a square, a point frame and the
    canonical extension of a subalgebra."""
    alg = small_algebra(2, 2)
    diagonal = (1 << point_index((0, 0), 2)) | (1 << point_index((1, 1), 2))
    sub = Subalgebra(alg, generate_subalgebra(alg, [diagonal]))
    sources = [alg, ComplexAlgebra(point_frame(2, 2, "full")),
               canonical_extension(sub)[0]]
    for source in sources:
        rep = full_representation(source)
        data = rep.to_json()
        assert len(data["atoms"]) == len(data["atom_images"]) == len(source.atoms())
        ats = source.atoms()
        for z in (ats[0] | ats[-1], source.one):
            assert z not in ats
            rebuilt = set()
            for pts, image in zip(data["atoms"], data["atom_images"]):
                if set(pts) <= _bits(z):
                    rebuilt |= set(image)
            assert rebuilt == _bits(rep.image(z))


# ------------------------------------------------------------- psi and friends

def test_check_psi_holds_on_point_algebras():
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        assert check_psi(small_algebra(n, k))
        assert check_psi_witnesses(small_algebra(n, k)) == []


class _BrokenSubst:
    """Two-element handle whose substitution kills everything."""

    n = 2
    mode = "transpositions"
    zero = 0
    one = 1

    def atoms(self):
        return [1]

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def compl(self, a):
        return 1 ^ a

    def subst(self, g, x):
        return 0


def test_check_psi_witnesses_flag_starved_substitutions():
    bad = _BrokenSubst()
    assert not check_psi(bad)
    assert check_psi_witnesses(bad) == [("s[0,1]", 0)]


# -------------------------------------------------------- canonical extension

def test_canonical_extension_is_an_isomorphism():
    alg = small_algebra(2, 2)
    ext, rep = canonical_extension(alg)
    assert rep.report["homomorphism"]
    assert rep.report["bijective"]
    assert ext.size() == alg.size()
    assert rep.image(alg.one) == ext.one


def test_canonical_extension_of_a_subalgebra():
    alg = small_algebra(2, 2)
    diagonal = (1 << point_index((0, 0), 2)) | (1 << point_index((1, 1), 2))
    sub = Subalgebra(alg, generate_subalgebra(alg, [diagonal]))
    ext, rep = canonical_extension(sub)
    assert rep.report["homomorphism"]
    assert rep.report["bijective"]
    assert ext.size() == sub.size() == 4


# ------------------------------------------------------------ diag quotients

def test_diag_represent_merges_the_diagonal_atom():
    alg = small_algebra(2, 2, "full_diagonal")
    rep = diag_represent(alg, 1 << point_index((0, 0), 2))
    assert rep.report["well_defined"]
    assert rep.report["blocks"] == [[0, 1]]
    assert rep.report["homomorphism"]
    assert rep.report["diag_onto"]
    assert rep.target.n == 2
    assert rep.target.one == rep.image(alg.one)


def test_diag_represent_keeps_split_indices_apart():
    alg = small_algebra(2, 2, "full_diagonal")
    rep = diag_represent(alg, 1 << point_index((0, 1), 2))
    assert rep.report["blocks"] == [[0], [1]]
    assert rep.report["homomorphism"]
    assert rep.report["diag_onto"]
    assert rep.image(alg.diag(0, 1)) == rep.target.diag(0, 1)


def test_diag_represent_needs_diagonals():
    alg = small_algebra(2, 2)
    with pytest.raises(ValueError):
        diag_represent(alg, 1)


def _ill_defined_quotient_frame():
    """Two worlds, both on the diagonal d(0,1), where s[0|1] and s[1|0]
    send world 1 to world 0: a coherent frame whose quotient at world 1
    is not well defined, as the identity and s[0|1] merge there."""
    swap, r01, r10 = generators(2, "full_diagonal")
    return Frame(2, "full_diagonal", 2,
                 {swap: (0, 1), r01: (0, 0), r10: (0, 0)}, {(0, 1): 0b11})


def test_diag_represent_reports_a_quotient_that_is_not_well_defined():
    alg = ComplexAlgebra(_ill_defined_quotient_frame())
    rep = diag_represent(alg, 0b10)
    assert not rep.report["well_defined"]
    assert not rep.report["homomorphism"]
    assert rep.report["failures"][0] == ("well-defined", (0, 1), (1, 1))
    full = full_representation(alg)
    assert not full.report["homomorphism"]
    assert full.report["failures"][0][0] == "well-defined"


def test_diag_represent_reports_a_filter_that_is_not_an_equivalence():
    """d(0,1) and d(1,2) hold at the one world but d(0,2) does not, so the
    merging is not transitive."""
    gens = generators(3, "full_diagonal")
    frame = Frame(3, "full_diagonal", 1, {g: (0,) for g in gens},
                  {(0, 1): 1, (1, 2): 1, (0, 2): 0})
    rep = diag_represent(ComplexAlgebra(frame), 1)
    assert not rep.report["homomorphism"]
    assert rep.report["failures"][0][0] == "equivalence"


def test_full_representation_of_a_diagonal_algebra_stacks_quotients():
    """In a diagonal signature the block at world w is the quotient into
    the full-diagonal square over as many points as w has distinct
    coordinates; the stacked product is itself certified by the atom
    certificate."""
    alg = small_algebra(3, 2, "full_diagonal")
    rep = complete_representation(alg)
    assert rep.report["homomorphism"] and rep.report["injective"]
    assert rep.report["complete"] and rep.report["identity_in_image"]
    bases = [len(set(point_coords(p, 3, 2))) for p in range(8)]
    assert [block.k for block in rep.blocks] == bases
    data = rep.to_json()
    assert data["target"]["blocks"] == 8
    assert [f["k"] for f in data["target"]["block_files"]] == bases
    direct = hom_report(alg, rep.target, rep.image, gather=rep.gather)
    assert direct["homomorphism"] and direct["injective"]


# ------------------------------------------------------------ quasi-equations

def test_sub_monoid_ctx_validation():
    ctx = SubMonoidCtx(2, enumerate_monoid(2, "full"))
    assert len(ctx.T) == 4
    assert sorted(ctx.G) == sorted([identity(2), SWAP])

    with pytest.raises(ValueError, match="identity"):
        SubMonoidCtx(2, [(0, 0)])
    with pytest.raises(ValueError, match="closed"):
        SubMonoidCtx(2, [identity(2), SWAP, (1, 1)])


def test_special_quasi_witness():
    alg = small_algebra(2, 2)
    # the constant point (0,0) is a swap fixed point: no alternating set
    assert special_quasi_witness(alg, SWAP) is None

    bij = make_relativized(2, 2, [1, 2], "transpositions")
    w = special_quasi_witness(bij, SWAP)
    assert w in (2, 4)
    assert bij.subst(SWAP, w) == bij.compl(w)


def test_check_quasi_concrete_paths():
    assert check_quasi(small_algebra(2, 1))
    assert check_quasi(small_algebra(2, 2))
    assert check_quasi(small_algebra(2, 0))   # trivial algebra

    bij = make_relativized(2, 2, [1, 2], "transpositions")
    assert not check_quasi(bij)


def test_check_quasi_generic_path():
    """Handles without a world action are checked through their canonical
    extension; on seeded subalgebras the verdict is the exhaustive
    reference's on the subalgebra itself, the bijective unit's FAIL
    included."""
    T = sorted(enumerate_monoid(2, "transpositions"))
    alg = small_algebra(2, 2)
    bij = make_relativized(2, 2, [1, 2], "transpositions")
    subs = [Subalgebra(alg, alg.elements()), Subalgebra(bij, bij.elements())]
    rng = random.Random(6)
    for parent in (alg, small_algebra(2, 2, "transpositions"),
                   small_algebra(2, 3, "transpositions"), bij):
        for _ in range(4):
            gens = [rng.getrandbits(parent.num_points) & parent.unit
                    for _ in range(rng.randint(0, 2))]
            els = generate_subalgebra(parent, gens)
            if len(els) <= 64:
                subs.append(Subalgebra(parent, els))
    verdicts = []
    for sub in subs:
        want = ref_check_quasi(sub, T)
        assert check_quasi(canonical_extension(sub)[0]) == want, sub
        verdicts.append(want)
    assert verdicts[:2] == [True, False]
    assert len(verdicts) > 10


def test_cycle_types_are_one_permutation_per_conjugacy_class():
    for n in range(1, 7):
        reps = list(cycle_types(n))
        shapes = [tuple(sorted(_cycle_lengths(p))) for p in reps]
        every = {tuple(sorted(_cycle_lengths(p)))
                 for p in itertools.permutations(range(n))}
        assert len(set(shapes)) == len(shapes) == len(every)
        assert set(shapes) == every
    assert [len(list(cycle_types(n))) for n in range(1, 7)] == \
        [1, 2, 3, 5, 7, 11]


def _cycle_lengths(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def test_check_quasi_by_cycle_type_matches_every_permutation():
    """One coloring per cycle type gives the verdict of a coloring per
    permutation, with coherence read off the row certificate, on
    certify-style frames (quotients of the regular action as the
    benchmark sizes them, relabelled point frames and their broken
    involutions), square algebras and the not-a-variety units."""
    rng = random.Random(7919)
    frames = []
    for n, sizes in ((2, (2, 4, 6, 10)), (3, (3, 5, 6, 11)), (4, (3, 12))):
        for mode in ("full", "transpositions"):
            frames += [random_coherent_frame(n, mode, m, rng) for m in sizes]
    frames += [_relabeled(point_frame(n, k, mode), rng)[0]
               for n, k, mode in ((2, 2, "full"), (2, 3, "full"),
                                  (3, 2, "full"), (4, 2, "transpositions"),
                                  (3, 3, "transpositions"))]
    frames += [point_frame(n, 2, "full_diagonal") for n in (2, 3)]
    for frame in list(frames):
        if frame.num_worlds > 1:
            action = dict(frame.action)
            action[generators(frame.n, frame.mode)[0]] = \
                (0,) * frame.num_worlds
            frames.append(Frame(frame.n, frame.mode, frame.num_worlds,
                                action, frame.diag))
    algebras = [ComplexAlgebra(frame) for frame in frames]
    algebras += [small_algebra(n, k, "full")
                 for n, k in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))]
    for n in range(2, 7):
        report = not_a_variety_witness(n)
        algebras.append(make_relativized(n, report["base"], report["unit"],
                                         "transpositions"))
    verdicts = []
    for algebra in algebras:
        space = algebra.space
        coherent = not space.certificate[0] if isinstance(space, Frame) \
            else True
        want = coherent and (algebra.one == algebra.zero or all(
            special_quasi_witness(algebra, f) is None
            for f in itertools.permutations(range(algebra.n))))
        assert check_quasi(algebra) == want, algebra
        verdicts.append((coherent, want))
    assert verdicts.count((True, True)) > 20
    assert verdicts.count((True, False)) >= 10
    assert verdicts.count((False, False)) > 20


def _quasi_outcome(check, algebra):
    """The verdict of a quasi check, or the text of its ValueError."""
    try:
        return check(algebra)
    except ValueError as exc:
        return str(exc)


def _quasi_cases():
    """Square algebras, not-a-variety units, seeded transposition-closed
    units, canonical extensions of seeded subalgebras, and seeded random
    frames mixed with relabelled point frames, which have no diagonals."""
    rng = random.Random(2323)
    for n in range(1, 5):
        for k in range(1, n + 2):
            for mode in ("full", "transpositions", "full_diagonal"):
                yield small_algebra(n, k, mode)
    for n in range(2, 7):
        report = not_a_variety_witness(n)
        yield make_relativized(n, report["base"], report["unit"],
                               "transpositions")
    for _ in range(60):
        n, k = rng.randint(2, 4), rng.randint(1, 3)
        seeds = [[rng.randrange(k) for _ in range(n)]
                 for _ in range(rng.randint(1, 3))]
        unit = {point_index(q, k) for seed in seeds
                for q in itertools.permutations(seed)}
        yield make_relativized(n, k, unit, "transpositions")
    for _ in range(40):
        n, k = rng.randint(2, 3), rng.randint(1, 2)
        parent = small_algebra(n, k, rng.choice(MODES))
        gens = [rng.getrandbits(parent.num_points) & parent.unit
                for _ in range(rng.randint(0, 2))]
        els = generate_subalgebra(parent, gens)
        if len(els) <= 64:
            yield canonical_extension(Subalgebra(parent, els))[0]
    for _ in range(60):
        n = rng.randint(1, 3)
        modes = ["full", "transpositions", "replacements"]  # no diagonals
        frame = random_coherent_frame(n, rng.choice(modes), 8, rng)
        yield ComplexAlgebra(frame)
        frame = point_frame(n, rng.randint(1, 3), rng.choice(modes))
        yield ComplexAlgebra(_relabeled(frame, rng)[0])


def test_check_quasi_agrees_with_the_sweep_over_a_given_t():
    """check_quasi with T = S_n fixed gives the verdict, or the error
    text, of the sweep that reads T off the transposition monoid."""
    outcomes = []
    for algebra in _quasi_cases():
        got = _quasi_outcome(check_quasi, algebra)
        assert got == _quasi_outcome(ref_quasi_sweep, algebra), algebra
        outcomes.append(got)
    assert outcomes.count(True) > 50
    assert outcomes.count(False) > 20
    assert sum(isinstance(o, str) for o in outcomes) > 5


def test_check_quasi_refuses_an_incoherent_frame():
    """Given straight to check_quasi, with no frame check before it: a
    transposition acting as a 3-cycle leaves no alternating set, so only
    the stabilizer schemas can refuse, and they do."""
    alg = ComplexAlgebra(_broken_involution_frame())
    assert special_quasi_witness(alg, SWAP) is None
    assert check_quasi(alg) is False
    assert ref_quasi_sweep(alg) is False


def test_check_quasi_names_the_last_swap_outside_the_signature():
    """T = S_1 is the identity alone, which every mode has; past n = 1 a
    replacements signature lacks the swap of the last two coordinates."""
    assert check_quasi(ComplexAlgebra(point_frame(1, 2, "replacements")))
    for n in range(2, 5):
        alg = ComplexAlgebra(point_frame(n, 2, "replacements"))
        swapped = list(range(n - 2)) + [n - 1, n - 2]
        with pytest.raises(ValueError, match=re.escape(
                "%s is not generated in mode replacements" % swapped)):
            check_quasi(alg)


# ------------------------------------------------------------- hom reporting

def test_hom_report_exhaustive_identity():
    alg = small_algebra(2, 2)
    report = hom_report(alg, alg, lambda z: z)
    assert report["homomorphism"]
    assert report["injective"]
    assert report["method"] == "atom-certificate"
    assert report["failures"] == []


def test_hom_report_certifies_a_large_source_from_its_atoms():
    alg = small_algebra(2, 4)   # 65536 elements: certified from atoms alone
    pts = list(range(16))
    report = hom_report(alg, alg, lambda z: z, gather=(pts, pts))
    assert report["homomorphism"]
    assert report["method"] == "atom-certificate"
    assert report["injective"]
    assert report["injective_method"] == "atom-images-nonzero"


def test_hom_report_catches_a_broken_map():
    alg = small_algebra(2, 2)
    report = hom_report(alg, alg, lambda z: z & 7)   # clips the top point
    assert not report["homomorphism"]
    assert report["failures"]


def _gather(src, dst):
    def h(z):
        out = 0
        for s, d in zip(src, dst):
            if z >> s & 1:
                out |= 1 << d
        return out
    return h


def _mutations(src, dst, rng):
    """The gather itself, then copies with one pair dropped, two
    destination bits swapped, one pair redirected onto another's
    destination bit, one destination bit duplicated from a second source
    bit, and every source bit sent to every destination bit."""
    yield src, dst
    i = rng.randrange(len(dst))
    yield src[:i] + src[i + 1:], dst[:i] + dst[i + 1:]
    if len(dst) > 1:
        j = rng.choice([j for j in range(len(dst)) if j != i])
        swapped = list(dst)
        swapped[i], swapped[j] = dst[j], dst[i]
        yield src, swapped
        redirected = list(dst)
        redirected[i] = dst[j]
        yield src, redirected
        yield src + [src[i]], dst + [dst[j]]
    pairs = [(s, d) for s in set(src) for d in set(dst)]
    yield [s for s, _ in pairs], [d for _, d in pairs]


def _seeded_subalgebras(rng, count):
    """Subalgebras of squares and random frames, from 0 to 2 random
    generators each."""
    parents = [small_algebra(2, 2), small_algebra(2, 2, "transpositions")]
    parents += [ComplexAlgebra(random_coherent_frame(
        2, rng.choice(["full", "transpositions"]), max_worlds=5, rng=rng))
        for _ in range(2)]
    for idx in range(count):
        parent = parents[idx % len(parents)]
        gens = [rng.getrandbits(parent.num_points) & parent.unit
                for _ in range(rng.randint(0, 2))]
        yield Subalgebra(parent, generate_subalgebra(parent, gens))


def _certificate_sources(rng):
    """Small point-frame and random-frame set algebras, the ²2 diagonal
    point frame last."""
    sources = [ComplexAlgebra(point_frame(2, 2, mode))
               for mode in ("full", "transpositions", "replacements")]
    sources += [ComplexAlgebra(random_coherent_frame(
        rng.choice([2, 3]), rng.choice(["full", "transpositions"]),
        max_worlds=5, rng=rng)) for _ in range(6)]
    return sources + [ComplexAlgebra(point_frame(2, 2, "full_diagonal"))]


def _certificate_cases(rng):
    """(source, target, map, gather) for represent_at at every atom of
    the _certificate_sources and diag_represent at every atom of the
    diagonal one (in diagonal mode represent_at's blocks are equivariant
    but move the diagonals, so they are no homomorphisms), and for the
    canonical extensions of seeded subalgebras, each gather also
    mutated."""
    *sources, diagonal = _certificate_sources(rng)
    reps = [represent_at(source, x) for source in sources
            for x in source.atoms()]
    reps += [block(diagonal, x) for x in diagonal.atoms()
             for block in (diag_represent, represent_at)]
    reps += [canonical_extension(sub)[1]
             for sub in _seeded_subalgebras(rng, 8)]
    for rep in reps:
        for src, dst in _mutations(list(rep.gather[0]), list(rep.gather[1]),
                                   rng):
            yield rep.source, rep.target, _gather(src, dst), (src, dst)


def test_hom_certificate_agrees_with_pair_sweep():
    """The atom certificate and the exhaustive pair sweep give the same
    verdict on correct maps, mutated gathers, and maps bent at one element
    (which are no longer additive)."""
    rng = random.Random(2024)
    verdicts = set()
    for source, target, h, gather in _certificate_cases(rng):
        gens = generators(source.n, source.mode)
        z0 = rng.choice(source.elements())
        flip = 1 << rng.choice([p for p in range(target.one.bit_length())
                                if target.one >> p & 1])
        bent = lambda z, h=h: h(z) ^ flip if z == z0 else h(z)
        for fn, given in ((h, gather), (bent, None)):
            report = hom_report(source, target, fn, gather=given)
            hom, distinct = ref_hom_sweep(source, target, fn, gens)
            assert report["homomorphism"] == hom, (source, report)
            assert report["injective"] == (hom and distinct), (source, report)
            verdicts.add((hom, hom and distinct))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_block_certificates_decide_the_product():
    """A product of gathers into stacked copies of one square is a
    homomorphism exactly when every block is one.  On the corpus and on
    seeded frames full_representation's verdict is the conjunction of the
    represent_at verdicts, and the direct certificate of the stacked
    product agrees with the conjunction of the block certificates, for
    the correct blocks and with one block's gather mutated."""
    rng = random.Random(31)
    algebras = list(representation_corpus())
    algebras += [ComplexAlgebra(random_coherent_frame(
        rng.choice([2, 3]), mode, max_worlds=6, rng=rng))
        for mode in ("full", "transpositions", "replacements")
        for _ in range(4)]
    verdicts = set()
    for alg in algebras:
        reps = [represent_at(alg, x) for x in alg.atoms()]
        blocks = [(r.target, list(r.gather[0]), list(r.gather[1]))
                  for r in reps]
        certified = full_representation(alg).report["homomorphism"]
        assert certified == all(r.report["homomorphism"] for r in reps)
        assert ref_product_hom(alg, blocks) == certified, alg
        i = rng.randrange(len(blocks))
        target, src, dst = blocks[i]
        for msrc, mdst in _mutations(src, dst, rng):
            block_ok = hom_report(alg, target, _gather(msrc, mdst),
                                  gather=(msrc, mdst))["homomorphism"]
            mutated = blocks[:i] + [(target, msrc, mdst)] + blocks[i + 1:]
            assert ref_product_hom(alg, mutated) == (certified and block_ok)
            verdicts.add(certified and block_ok)
    assert verdicts == {True, False}


def _flipped_diagonal_frames(rng):
    """Diagonal point frames of ⁿk, 2 ≤ n ≤ 3 and k ≤ 3, each with one
    seeded bit of d(0,1) flipped: coherent actions whose diagonals no
    longer correspond."""
    for n in (2, 3):
        for k in (1, 2, 3):
            frame = point_frame(n, k, "full_diagonal")
            diag = dict(frame.diag)
            diag[(0, 1)] ^= 1 << rng.randrange(frame.num_worlds)
            yield Frame(n, frame.mode, frame.num_worlds, frame.action, diag)


def test_walk_certificate_agrees_with_the_atom_certificate():
    """Every represent_at and diag_represent block and every
    full_representation, certified from the unit's Cayley walk, gets the
    (homomorphism, injective, atom_cover) verdict of hom_report on the
    same gather: over the _certificate_cases sources, diagonal point
    frames with a diagonal bit flipped, and a trusted unit that is not
    closed under the action."""
    rng = random.Random(2024)
    sources = _certificate_sources(rng)
    sources += [ComplexAlgebra(f) for f in _flipped_diagonal_frames(rng)]
    sources.append(ConcreteAlgebra(2, 3, "replacements", unit=0b000010010))
    verdicts = set()
    for source in sources:
        reps = [represent_at(source, x) for x in source.atoms()]
        if has_diagonals(source.mode):
            reps += [diag_represent(source, x) for x in source.atoms()]
        reps.append(full_representation(source))
        for rep in reps:
            atom = hom_report(source, rep.target, rep.image, gather=rep.gather)
            verdict = tuple(rep.report[key] for key in
                            ("homomorphism", "injective", "atom_cover"))
            assert verdict == (atom["homomorphism"], atom["injective"],
                               atom["atom_cover"]), (source, rep.report)
            verdicts.add(verdict)
    assert verdicts >= {(True, True, True), (True, False, True),
                        (False, False, True), (False, False, False)}


def _world_map(source, src, dst):
    """A gather (src, dst) from any handle read as a world map into the
    source's atom frame: each destination goes to the atom that holds its
    source bit, or nowhere (None) when two pairs send it to two atoms or
    its source bit lies in no atom."""
    frame, ats = atom_frame(source)
    world_of = {}
    for s, d in zip(src, dst):
        holder = next((w for w, x in enumerate(ats) if x >> s & 1), None)
        world_of[d] = holder if world_of.get(d, holder) == holder else None
    return ComplexAlgebra(frame), world_of


def test_morphism_report_agrees_with_the_atom_certificate():
    """On every _certificate_cases gather, correct or mutated, the world
    map certificate of its atom-frame reading gives hom_report's
    (homomorphism, injective, atom_cover) verdict."""
    rng = random.Random(2024)
    verdicts, cases = set(), 0
    for source, target, _, (src, dst) in _certificate_cases(rng):
        cm, world_of = _world_map(source, src, dst)
        report = morphism_report(cm, target, world_of)
        want = hom_report(source, target, _gather(src, dst), gather=(src, dst))
        verdict = tuple(report[key] for key in
                        ("homomorphism", "injective", "atom_cover"))
        assert verdict == tuple(want[key] for key in (
            "homomorphism", "injective", "atom_cover")), (source, report)
        assert len(report["failures"]) <= 10
        verdicts.add(verdict[:2])
        cases += 1
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert cases > 200


def _canonical_verdicts(sub):
    """(homomorphism, injective, bijective) of canonical_extension's
    report on sub, and of hom_report on the same gather."""
    ext, rep = canonical_extension(sub)
    want = hom_report(sub, ext, rep.image, gather=rep.gather)
    return ((rep.report["homomorphism"], rep.report["injective"],
             rep.report["bijective"]),
            (want["homomorphism"], want["injective"],
             want["injective"] and sub.size() == ext.size()))


def test_canonical_extension_agrees_with_the_atom_certificate():
    """On seeded subalgebras of squares in every mode and of random
    frames, canonical_extension's report gives hom_report's verdict, the
    two-element subalgebra of the ²2 diagonal algebra, whose one atom
    straddles d(0,1), included."""
    diagonal = small_algebra(2, 2, "full_diagonal")
    two = Subalgebra(diagonal, [diagonal.zero, diagonal.one])
    ext, rep = canonical_extension(two)
    assert not rep.report["homomorphism"]
    assert ("diag", 0, 1) in rep.report["failures"]
    assert ("diag", 0, 1) in hom_report(two, ext, rep.image,
                                        gather=rep.gather)["failures"]
    subs = [two]
    rng = random.Random(19)
    parents = [small_algebra(n, 2, mode) for mode in MODES for n in (2, 3)]
    parents += [ComplexAlgebra(random_coherent_frame(
        2, mode, max_worlds=5, rng=rng)) for mode in ("full", "replacements")]
    for parent in parents:
        for _ in range(4):
            gens = [rng.getrandbits(parent.num_points) & parent.unit
                    for _ in range(rng.randint(0, 2))]
            els = generate_subalgebra(parent, gens)
            if len(els) <= 256:
                subs.append(Subalgebra(parent, els))
    verdicts = set()
    for sub in subs:
        got, want = _canonical_verdicts(sub)
        assert got == want, sub
        verdicts.add(got)
    assert verdicts == {(True, True, True), (False, False, False)}


def test_canonical_extension_is_strict_on_universes_that_are_no_algebras():
    """On seeded universes that are not Boolean algebras (atoms that
    overlap or miss the unit), canonical_extension may refuse a map that
    hom_report passes, but never passes one that hom_report refuses; and
    it refuses every universe whose atoms do not partition the unit."""
    rng = random.Random(23)
    parents = [small_algebra(2, 2, mode) for mode in MODES]
    refused = 0
    for parent in parents * 40:
        universe = {parent.zero, parent.one}
        universe.update(rng.getrandbits(parent.num_points)
                        for _ in range(rng.randint(1, 4)))
        sub = Subalgebra(parent, universe)
        try:
            got, want = _canonical_verdicts(sub)
        except ValueError:          # atom_frame: no functional atom action
            continue
        assert all(w or not g for g, w in zip(got, want)), sub
        ats = sub.atoms()
        overlap = any(x & y for i, x in enumerate(ats) for y in ats[:i])
        if overlap or sum(ats) != parent.one:
            assert not got[0], sub
            refused += not want[0]
    assert refused > 0


def _broken_involution_frame():
    """Three worlds on which the transposition acts as a 3-cycle, so
    s[0,1] s[0,1] is not the identity."""
    swap, = generators(2, "transpositions")
    return Frame(2, "transpositions", 3, {swap: (1, 2, 0)})


def test_represent_refuses_an_incoherent_action(tmp_path):
    alg = ComplexAlgebra(_broken_involution_frame())
    with pytest.raises(ValueError, match="coherence"):
        represent_at(alg, 1)
    with pytest.raises(ValueError, match="coherence"):
        full_representation(alg)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame_to_json(_broken_involution_frame())))
    with redirect_stdout(io.StringIO()):
        assert cli.run(["represent", str(path)]) == 2


@st.composite
def closed_unit_files(draw):
    """An algebra file whose unit is the orbit closure of one to three
    seeded points of ⁿk, n ≤ 4 and k ≤ 3, in any mode."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(MODES))
    seeds = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n,
                                   max_size=n), min_size=1, max_size=3))
    unit = {point_index([q[i] for i in tau], k)
            for q in seeds for tau in cayley_graph(n, mode).maps}
    return {"n": n, "k": k, "mode": mode, "unit": sorted(unit)}


@settings(derandomize=True, max_examples=100, deadline=None)
@example(algebra_to_json(small_algebra(3, 2, "full_diagonal")))
@example(frame_to_json(point_frame(2, 2, "full_diagonal")))
@given(closed_unit_files())
def test_represent_passes_every_closed_unit_in_every_mode(data):
    """A unit closed under the action gives a set algebra, which is
    representable: represent must PASS it, in every mode.  The examples
    are the whole ³2 square and the ²2 point frame in diagonal mode."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(["represent", "--json", path])
    verdict, payload = out.getvalue().split("\n", 1)
    assert (code, verdict) == (0, "PASS"), (data, payload)
    assert json.loads(payload)["report"] == {
        "homomorphism": True, "injective": True, "atom_cover": True}
