"""Concrete set algebras: points, relativization, subalgebra generation."""

import itertools
import random

import json

import pytest
from hypothesis import given, strategies as st

from substal import setalg
from substal.cli import run
from substal.gallery import not_a_variety_witness
from substal.monoid import (NotGenerated, apply_point, generators, repl,
                            swap)
from substal.setalg import (
    ConcreteAlgebra,
    NotLocallySquare,
    Subalgebra,
    algebra_from_json,
    algebra_to_json,
    boolean_closure,
    coordinate_masks,
    generate_subalgebra,
    is_locally_square,
    json_int,
    json_ints,
    make_relativized,
    mask_points,
    point_coords,
    point_index,
    points_mask,
    morphism_report,
    relativization_hom,
    small_algebra,
    subalgebra_size_bound,
    substitution_orbit,
)
from substal.terms import Diag, Sub, Var, parse

from oracles import (hom_report, ref_closure_witness, ref_eval,
                     ref_gen_tuple, ref_hat, ref_monoid_closure, ref_preimage)

MODES = ("replacements", "transpositions", "full", "full_diagonal")


def test_point_encoding_round_trip():
    assert point_index((1, 0), 2) == 1
    assert point_index((0, 1), 2) == 2
    for n, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for idx in range(k ** n):
            q = point_coords(idx, n, k)
            assert len(q) == n and all(v < k for v in q)
            assert point_index(q, k) == idx


def test_small_algebra_shapes():
    a22 = small_algebra(2, 2)
    assert a22.size() == 16
    assert len(a22.atoms()) == 4
    a20 = small_algebra(2, 0)
    assert a20.size() == 1
    assert a20.one == a20.zero
    assert len(small_algebra(3, 3).atoms()) == 27
    with pytest.raises(ValueError, match="point space 1048576 exceeds"):
        small_algebra(4, 32)            # 32⁴ > POINT_LIMIT


def test_subst_examples():
    alg = small_algebra(2, 2)
    pt = lambda q: 1 << point_index(q, 2)
    # q∘[0|1] = (q1,q1), so the preimage of {(1,1)} is the q1=1 half
    assert alg.subst(repl(0, 1), pt((1, 1))) == pt((0, 1)) | pt((1, 1))
    assert alg.subst(swap(0, 1), pt((0, 1))) == pt((1, 0))
    for g in (swap(0, 1), repl(0, 1), repl(1, 0)):
        assert alg.subst(g, alg.one) == alg.one
        assert alg.subst(g, alg.zero) == alg.zero


def test_subst_accepts_monoid_transformations():
    alg = small_algebra(2, 2)
    assert alg.subst((1, 1), alg.one) == alg.one
    assert alg.subst((0, 1), 5) == 5
    pinter = small_algebra(2, 2, "replacements")
    with pytest.raises(NotGenerated):
        pinter.subst((1, 0), 5)


@given(st.integers(0, 511), st.integers(0, 511))
def test_subst_is_boolean_endomorphism(x, y):
    alg = small_algebra(2, 3)
    for g in (swap(0, 1), repl(0, 1), repl(1, 0)):
        assert alg.subst(g, x & y) == alg.subst(g, x) & alg.subst(g, y)
        assert alg.subst(g, x | y) == alg.subst(g, x) | alg.subst(g, y)
        assert alg.subst(g, alg.compl(x)) == alg.compl(alg.subst(g, x))


def test_subst_word_composes():
    alg = small_algebra(2, 3)
    tau = (1, 1)
    sigma = (1, 0)
    rng = random.Random(3)
    for _ in range(25):
        x = rng.getrandbits(9)
        # s_sigma(s_tau(x)) = s_{sigma∘tau}(x)
        composed = tuple(sigma[v] for v in tau)
        assert alg.subst(sigma, alg.subst(tau, x)) == alg.subst(composed, x)


def test_diag_examples():
    alg = small_algebra(2, 2, "full_diagonal")
    pt = lambda q: 1 << point_index(q, 2)
    assert alg.diag(0, 1) == pt((0, 0)) | pt((1, 1))
    assert alg.diag(1, 0) == alg.diag(0, 1)
    assert alg.diag(0, 0) == alg.one
    assert small_algebra(2, 1, "full_diagonal").diag(0, 1) == \
        small_algebra(2, 1, "full_diagonal").one
    with pytest.raises(ValueError):
        small_algebra(2, 2, "full").diag(0, 1)


def test_rectangle_identities():
    # how the operators act on product sets X x Y inside the width-3 square
    alg = small_algebra(2, 3)
    U = (1, 1, 1)

    def rect(xs, ys):
        mask = 0
        for q0 in range(3):
            for q1 in range(3):
                if xs[q0] and ys[q1]:
                    mask |= 1 << point_index((q0, q1), 3)
        return mask

    subsets = list(itertools.product((0, 1), repeat=3))
    for xs in subsets:
        for ys in subsets:
            meet = tuple(a & b for a, b in zip(xs, ys))
            box = rect(xs, ys)
            assert alg.subst(repl(1, 0), box) == rect(meet, U)
            assert alg.subst(repl(0, 1), box) == rect(U, meet)
            assert alg.subst(swap(0, 1), box) == rect(ys, xs)
            neg_x = tuple(1 - v for v in xs)
            neg_y = tuple(1 - v for v in ys)
            assert alg.compl(box) == rect(neg_x, U) | rect(U, neg_y)


def test_make_relativized():
    V = [point_index((0, 1), 2), point_index((1, 0), 2)]
    alg = make_relativized(2, 2, V, "transpositions")
    assert alg.size() == 4
    assert alg.compl(0) == alg.one
    with pytest.raises(NotLocallySquare) as exc:
        make_relativized(2, 2, V, "full")
    # the recorded witness really escapes the unit
    q, g = exc.value.point, exc.value.sym
    moved = point_index(apply_point(q, g.tr(2)), 2)
    assert point_index(q, 2) in V and moved not in V

    full = make_relativized(2, 2, [0, 1, 2, 3], "full")
    assert full.unit == small_algebra(2, 2).unit


def test_is_locally_square():
    diag_unit = (1 << point_index((0, 0), 2)) | (1 << point_index((1, 1), 2))
    assert is_locally_square(2, 2, diag_unit, "full") is None
    off = 1 << point_index((0, 1), 2)
    witness = is_locally_square(2, 2, off, "full")
    assert witness is not None


def test_relativization_hom():
    alg = small_algebra(2, 2)
    diag_unit = (1 << point_index((0, 0), 2)) | (1 << point_index((1, 1), 2))
    B, report = relativization_hom(alg, diag_unit)
    assert report["homomorphism"], report
    assert B.size() == 4

    same, report_same = relativization_hom(alg, alg.unit)
    assert report_same["homomorphism"]
    assert same.unit == alg.unit

    empty, report_empty = relativization_hom(alg, 0)
    assert report_empty["homomorphism"]
    assert empty.size() == 1

    with pytest.raises(NotLocallySquare):
        relativization_hom(alg, 1 << point_index((0, 1), 2))


def test_relativization_hom_agrees_with_the_atom_certificate():
    """On every closed unit of ²2 in each mode, relativization_hom's
    world-map certificate gives hom_report's verdict on the gather x ↦
    x ∩ V: a homomorphism, injective only on the whole square."""
    keys = ("homomorphism", "injective", "atom_cover")
    verdicts = set()
    for mode in MODES:
        alg = small_algebra(2, 2, mode)
        for unit in range(16):
            if is_locally_square(2, 2, unit, mode) is not None:
                continue
            B, report = relativization_hom(alg, unit)
            pts = B.unit_points
            want = hom_report(alg, B, lambda x: x & B.unit, gather=(pts, pts))
            verdict = tuple(report[key] for key in keys)
            assert verdict == tuple(want[key] for key in keys), (mode, unit)
            verdicts.add((verdict, unit == alg.unit))
    assert verdicts == {((True, True, True), True),
                        ((True, False, True), False)}


def test_morphism_report_refuses_a_map_out_of_the_source_unit():
    """The identity of the ²2 square read as a world map into the closed
    unit of its two constant points leaves that unit at the other two
    points: no homomorphism, as the atom certificate of the same gather
    says, though the map commutes with every generator."""
    diag_unit = (1 << point_index((0, 0), 2)) | (1 << point_index((1, 1), 2))
    source = make_relativized(2, 2, diag_unit)
    target = small_algebra(2, 2)
    report = morphism_report(source, target, {p: p for p in range(4)})
    assert not report["homomorphism"] and not report["atom_cover"]
    assert report["failures"] == [("cover", 1), ("cover", 2)]
    pts = list(range(4))
    want = hom_report(source, target, lambda x: x, gather=(pts, pts))
    assert not want["homomorphism"] and not want["atom_cover"]


def test_generate_subalgebra_trivial():
    alg = small_algebra(2, 2)
    assert set(generate_subalgebra(alg, [])) == {alg.zero, alg.one}


def test_generate_subalgebra_matches_boolean_closure_of_orbit():
    alg = small_algebra(2, 2)
    rng = random.Random(1)
    for _ in range(20):
        gens = [rng.getrandbits(4) for _ in range(rng.randint(1, 2))]
        closure = generate_subalgebra(alg, gens)
        orbit = substitution_orbit(alg, gens)
        assert set(closure) == set(boolean_closure(alg, orbit))
        for x in closure:
            assert alg.compl(x) in set(closure)
        assert len(closure) <= subalgebra_size_bound(2, len(gens))


def test_generate_subalgebra_budget(monkeypatch):
    alg = small_algebra(2, 3)
    monkeypatch.setattr(setalg, "SUBALGEBRA_BUDGET", 4)
    with pytest.raises(ValueError, match="closure exceeds budget"):
        generate_subalgebra(alg, [5, 17, 129])


def test_subalgebra_handle():
    alg = small_algebra(2, 2)
    sub = Subalgebra(alg, generate_subalgebra(alg, [9]))
    assert sub.size() == len(sub.elements())
    universe = set(sub.universe)
    for x in sub.elements():
        assert sub.compl(x) in universe
        for y in sub.elements():
            assert sub.meet(x, y) in universe
    assert sub.zero == alg.zero and sub.one == alg.one
    # atoms are the minimal nonzero members of the subuniverse
    for a in sub.atoms():
        assert a != sub.zero
        strictly_below = [y for y in universe
                          if y not in (sub.zero, a) and sub.meet(a, y) == y]
        assert strictly_below == []
    with pytest.raises(ValueError):
        Subalgebra(alg, [3, 5])  # missing 0 and 1


def test_json_round_trip():
    alg = make_relativized(
        2, 2, [point_index((0, 1), 2), point_index((1, 0), 2)],
        "transpositions")
    data = algebra_to_json(alg)
    assert data["mode"] == "transpositions"
    back = algebra_from_json(data)
    assert (back.n, back.k, back.mode, back.unit) == \
        (alg.n, alg.k, alg.mode, alg.unit)
    full = algebra_from_json({"n": 2, "k": 2, "mode": "full",
                              "unit": [0, 1, 2, 3]})
    assert full.unit == 15


def test_json_ints_refuse_every_entry_that_is_no_int_in_range():
    """Bools, floats, strings, None, nested lists and out-of-range ints
    are each refused with the one message; the empty list reads as ()."""
    message = r"^unit must be a list of integers in \[0, 7\]$"
    assert json_ints([], 0, 7, "unit") == ()
    assert json_ints([], 0, -1, "unit") == ()
    assert json_ints([3, 0, 7, 3], 0, 7, "unit") == (3, 0, 7, 3)
    for bad in ([True], [0, False], [1.0], [2, 0.5], ["1"], [None],
                [[1]], [1, [2]], [-1], [8], [0, 10**30], [float("nan")],
                (1, 2), {"0": 1}, "01", None, 3):
        with pytest.raises(ValueError, match=message):
            json_ints(bad, 0, 7, "unit")
    with pytest.raises(ValueError, match=r"must be a list of integers"):
        json_ints([0], 0, -1, "unit")
    for good in (0, 6):
        assert json_int({"n": good}, "n", 0, 6) == good
    for bad in (True, 1.0, "2", None, [2], -1, 7):
        with pytest.raises(ValueError, match=r"^field 'n' must be an "
                           r"integer in \[0, 6\], got "):
            json_int({"n": bad}, "n", 0, 6)
    with pytest.raises(ValueError, match="^expected a JSON object$"):
        json_int([], "n", 0, 6)


def test_algebra_file_with_an_unhashable_mode_is_refused():
    for mode in (["full"], {"full": 1}):
        with pytest.raises(ValueError, match="unknown mode"):
            algebra_from_json({"n": 2, "k": 2, "mode": mode, "unit": [0]})


# ----------------------------------------------- word-parallel substitution

def _index(q, k):
    return sum(v * k**i for i, v in enumerate(q))


def _square(n, k):
    return frozenset(itertools.product(range(k), repeat=n))


def _points(mask, n, k):
    return frozenset(q for q in _square(n, k) if mask >> _index(q, k) & 1)


def _mask(points, k):
    return sum(1 << _index(q, k) for q in points)


def _triples(n, mode):
    return [(g.kind, g.i, g.j) for g in generators(n, mode)]


def _monoid(n, mode):
    return ref_monoid_closure(
        n, [ref_gen_tuple(kind, i, j, n) for kind, i, j in _triples(n, mode)])


def _check_algebra(n, k, mode, unit, rng):
    """subst on every generator and monoid element, and diag on every
    pair, against preimages of points moved one by one."""
    alg = ConcreteAlgebra(n, k, mode, unit=_mask(unit, k))
    full = unit == _square(n, k)
    monoid = _monoid(n, mode)
    for _ in range(2):
        x = rng.getrandbits(k**n)       # bits outside the unit included
        xs = _points(x, n, k)
        for g in generators(n, mode):
            gt = ref_gen_tuple(g.kind, g.i, g.j, n)
            got = alg.subst(g, x)
            assert got == _mask(ref_preimage(unit, xs, gt), k), (n, k, mode, g)
            if full:
                assert _points(got, n, k) == ref_eval(Sub(g, Var(0)), n, k,
                                                      {0: xs})
        for t in monoid:
            assert alg.subst(t, x) == \
                _mask(ref_preimage(unit, xs, t), k), (n, k, mode, t)
    if mode == "full_diagonal":
        for i in range(n):
            for j in range(n):
                want = frozenset(q for q in unit if q[i] == q[j])
                assert alg.diag(i, j) == _mask(want, k), (n, k, i, j)
                if full:
                    assert _points(alg.diag(i, j), n, k) == \
                        ref_eval(Diag(i, j), n, k, {})


def test_subst_and_diag_match_the_reference_on_squares_and_orbits():
    """n <= 4, k <= 3, every mode; the full square, the orbit of two seeded
    points under the mode's monoid, and the empty unit."""
    rng = random.Random(2024)
    for n in range(1, 5):
        for k in range(1, 4):
            for mode in MODES:
                seeds = [tuple(rng.randrange(k) for _ in range(n))
                         for _ in range(2)]
                orbit = frozenset(tuple(q[t[i]] for i in range(n))
                                  for q in seeds for t in _monoid(n, mode))
                for unit in (_square(n, k), orbit, frozenset()):
                    _check_algebra(n, k, mode, unit, rng)


def test_subst_matches_the_reference_on_the_not_a_variety_units():
    rng = random.Random(5)
    for n in (2, 3, 4):
        report = not_a_variety_witness(n)
        k = report["base"]
        unit = frozenset(tuple(p // k**i % k for i in range(n))
                         for p in report["unit"])
        assert unit != _square(n, k)
        _check_algebra(n, k, report["mode"], unit, rng)


def test_subst_folds_a_word_right_to_left():
    """S_{g1...gm}(x) = S_g1(...S_gm(x)...) for hat(g1...gm) = g1*...*gm."""
    rng = random.Random(11)
    for n, k, mode in [(3, 3, "full"), (4, 2, "full"), (3, 2, "replacements"),
                       (4, 3, "transpositions")]:
        alg = small_algebra(n, k, mode)
        gens = generators(n, mode)
        for _ in range(30):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 5))]
            x = rng.getrandbits(k**n)
            nested = x
            for g in reversed(word):
                nested = alg.subst(g, nested)
            tau = ref_hat([(g.kind, g.i, g.j) for g in word], n)
            want = _mask(ref_preimage(_square(n, k), _points(x, n, k), tau), k)
            assert nested == want
            assert alg.subst(tau, x) == want


def test_subst_edge_cases_k1_empty_unit_and_k0():
    one = small_algebra(3, 1, "full_diagonal")
    for g in generators(3, "full_diagonal"):
        assert one.subst(g, 1) == 1 and one.subst(g, 0) == 0
    assert one.diag(0, 2) == 1
    empty = ConcreteAlgebra(3, 2, "full_diagonal", unit=0)
    for g in generators(3, "full_diagonal"):
        assert empty.subst(g, 0b10110) == 0
    assert empty.diag(0, 1) == 0 and empty.unit_points == []
    for mode in MODES:
        alg = algebra_from_json({"n": 3, "k": 0, "mode": mode, "unit": []})
        assert alg.num_points == 0 and alg.size() == 1
        for g in generators(3, mode):
            assert alg.subst(g, 0) == 0 and alg.subst(g, 7) == 0
        assert alg.subst((0, 1, 2), 5) == 0
        if mode == "full_diagonal":
            assert alg.diag(1, 2) == 0
    assert coordinate_masks(3, 0) == [[], [], []]


def _orbit(seeds, n, mode):
    return frozenset(tuple(q[t[i]] for i in range(n))
                     for q in seeds for t in _monoid(n, mode))


def test_stacked_copies_match_each_block():
    """A unit over c stacked copies of ⁿk (c read off its length): subst on
    every generator and on seeded monoid elements, diag on every pair, the
    world tables and the Boolean shape are those of each copy on its own.
    n <= 4, k <= 3, c <= 5, every mode; each copy holds the whole square
    or an orbit."""
    rng = random.Random(17)
    for n in range(1, 5):
        for k in range(1, 4):
            span = k**n
            for mode in MODES:
                monoid = sorted(_monoid(n, mode))
                for c in (1, 2, 3, 5):
                    units = [_mask(_square(n, k), k) if rng.random() < 0.5
                             else _mask(_orbit([tuple(rng.randrange(k)
                                                      for _ in range(n))],
                                               n, mode), k)
                             for _ in range(c)]
                    blocks = [ConcreteAlgebra(n, k, mode, unit=u)
                              for u in units]
                    stacked = ConcreteAlgebra(
                        n, k, mode, unit=sum(u << b * span
                                             for b, u in enumerate(units)))
                    assert stacked.space.copies == c
                    assert stacked.size() == \
                        2 ** sum(len(b.atoms()) for b in blocks)
                    assert len(stacked.atoms()) == \
                        sum(len(b.atoms()) for b in blocks)
                    assert stacked.compl(stacked.zero) == stacked.one

                    def per_block(fn, x=0):
                        return sum(fn(b, x >> idx * span & (1 << span) - 1)
                                   << idx * span
                                   for idx, b in enumerate(blocks))

                    x = rng.getrandbits(c * span)
                    taus = rng.sample(monoid, min(4, len(monoid)))
                    for g in list(generators(n, mode)) + taus:
                        assert stacked.subst(g, x) == per_block(
                            lambda b, part: b.subst(g, part), x), (n, k, c, g)
                    for t in taus:
                        tab = stacked.moves(t)
                        for idx, b in enumerate(blocks):
                            own = b.moves(t)
                            for p in b.unit_points:
                                assert tab[p + idx * span] == \
                                    own[p] + idx * span, (n, k, c, t, p)
                    if mode == "full_diagonal":
                        for i in range(n):
                            for j in range(n):
                                assert stacked.diag(i, j) == per_block(
                                    lambda b, _: b.diag(i, j))


def test_moves_match_points_moved_one_by_one():
    """moves(tau) sends each point of the unit to q∘tau, for every monoid
    element, on the full square and on orbit units."""
    rng = random.Random(23)
    for n in range(1, 5):
        for k in range(1, 4):
            for mode in MODES:
                seeds = [tuple(rng.randrange(k) for _ in range(n))]
                for unit in (_square(n, k), _orbit(seeds, n, mode)):
                    alg = ConcreteAlgebra(n, k, mode, unit=_mask(unit, k))
                    for t in _monoid(n, mode):
                        tab = alg.moves(t)
                        for q in unit:
                            moved = tuple(q[t[i]] for i in range(n))
                            assert tab[_index(q, k)] == _index(moved, k), \
                                (n, k, mode, t, q)


def test_coordinate_masks_match_the_reference():
    for n in range(1, 5):
        for k in range(1, 4):
            masks = coordinate_masks(n, k)
            for i in range(n):
                for a in range(k):
                    want = frozenset(q for q in _square(n, k) if q[i] == a)
                    assert masks[i][a] == _mask(want, k)


def test_mask_points_round_trip():
    rng = random.Random(8)
    assert mask_points(0) == [] and points_mask([]) == 0
    assert mask_points(0b1011) == [0, 1, 3]
    assert points_mask([3, 0, 3, 1]) == 0b1011
    assert points_mask(p for p in (5, 2, 5)) == 0b100100
    for _ in range(50):
        mask = rng.getrandbits(rng.randint(1, 5000))
        pts = mask_points(mask)
        assert pts == [p for p in range(mask.bit_length()) if mask >> p & 1]
        assert points_mask(pts) == mask
    for bad in ([2, -1], [-1, 2, 3], iter([-3, 0])):
        with pytest.raises(ValueError):
            points_mask(bad)


def test_closure_witness_matches_the_reference_loop():
    rng = random.Random(99)
    for n in range(1, 4):
        for k in range(1, 4):
            square = sorted(_square(n, k))
            for mode in MODES:
                gens = generators(n, mode)
                for _ in range(6):
                    unit = frozenset(q for q in square if rng.random() < 0.7)
                    want = ref_closure_witness(unit, _triples(n, mode), n, k)
                    got = is_locally_square(n, k, _mask(unit, k), mode)
                    if want is None:
                        assert got is None
                    else:
                        assert got == (want[0], gens[want[1]])
                orbit = frozenset(tuple(q[t[i]] for i in range(n))
                                  for q in square[:1] for t in _monoid(n, mode))
                assert is_locally_square(n, k, _mask(orbit, k), mode) is None


def test_cli_sat_witness_on_a_4096_point_square_rereads_under_ref_eval(capsys):
    """sat -n 6 --mode diag on the pinned 4-block kernel (0,1,2,3,0,1): the
    witness lives in ℘(⁶4), and ref_eval puts its point in the term."""
    point = (0, 1, 2, 3, 0, 1)
    pins = ["d(%d,%d)" % (i, j) if point[i] == point[j] else
            "~d(%d,%d)" % (i, j) for i in range(6) for j in range(i + 1, 6)]
    lits = ["s[0|4] p0", "~s[1,2] p1", "s[5|3] s[0,1] p2", "~s[2|0] p0",
            "s[3,5] ~p3"]
    text = " & ".join(pins + lits)
    assert run(["sat", "-n", "6", "--mode", "diag", text]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT"
    witness = json.loads("\n".join(out[1:]))
    assert witness["k"] == 4 and witness["partition"] == list(point)
    assert witness["point"] == list(point)
    assert witness["world"] == _index(point, 4)
    valuation = {
        int(name[1:]): frozenset(tuple(p // 4**i % 4 for i in range(6))
                                 for p in pts)
        for name, pts in witness["valuation"].items()}
    assert point in ref_eval(parse(text, 6, "diag"), 6, 4, valuation)
