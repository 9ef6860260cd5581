"""Worked counterexamples and identity sweeps."""

import itertools
import random
import tracemalloc

import pytest

from oracles import ref_alternating_set
from substal.gallery import (RECTANGLE_BUDGET, TruncationSpec, _rect,
                             _subset_layers, alternating_coloring,
                             cofinite_set, counter2_truncation,
                             default_filter_oracle, finite_set,
                             not_a_variety_witness, product_identities)


# ------------------------------------------------------ alternating coloring

def test_alternating_coloring_two_cycle():
    chosen, obstruction = alternating_coloring([0, 1], lambda w: 1 - w)
    assert obstruction is None
    assert chosen in ([0], [1])


def test_alternating_coloring_fixed_point():
    chosen, obstruction = alternating_coloring([0], lambda w: w)
    assert chosen is None
    assert obstruction == [0]


def test_alternating_coloring_odd_cycle():
    chosen, obstruction = alternating_coloring(
        [0, 1, 2], lambda w: (w + 1) % 3)
    assert chosen is None
    assert len(obstruction) == 3


def test_alternating_coloring_chain_into_cycle():
    step = {3: 2, 2: 0, 0: 1, 1: 0}
    chosen, obstruction = alternating_coloring([0, 1, 2, 3], step.get)
    assert obstruction is None
    picked = set(chosen)
    for w in (0, 1, 2, 3):
        assert (w in picked) == (step[w] not in picked)


def test_alternating_coloring_matches_reference():
    rng = random.Random(606)
    for _ in range(150):
        size = rng.randint(1, 10)
        table = [rng.randrange(size) for _ in range(size)]
        worlds = list(range(size))
        chosen, obstruction = alternating_coloring(worlds, lambda w: table[w])
        brute = ref_alternating_set(worlds, lambda w: table[w])
        assert (chosen is not None) == (brute is not None)
        if chosen is not None:
            picked = set(chosen)
            for w in worlds:
                assert (w in picked) == (table[w] not in picked)
        else:
            # the obstruction is a genuine odd cycle of the map
            assert len(obstruction) % 2 == 1
            for a, b in zip(obstruction, obstruction[1:] + obstruction[:1]):
                assert table[a] == b


def test_alternating_coloring_stops_at_a_leading_fixed_point():
    """The worlds are read only up to the first odd cycle: an iterator that
    fails if read past its first world, a fixed point, is never read
    further, and that point is the obstruction."""
    def worlds():
        yield (0, 0, 0)
        raise AssertionError("read past the obstruction")

    chosen, obstruction = alternating_coloring(
        worlds(), lambda q: (q[1], q[0], q[2]))
    assert chosen is None
    assert obstruction == [(0, 0, 0)]


# --------------------------------------------------------- variety obstacle

def test_not_a_variety_witness_lists_no_square():
    """The squares ᵏ6, k ≤ 6, hold 67,171 points, and each is refuted at its
    first point (0,…,0), which f fixes: the exhibit reads no further and
    peaks under 1 MB of allocations."""
    tracemalloc.start()
    try:
        report = not_a_variety_witness(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert report["square_obstructions"] == {
        str(base): [[0] * 6] for base in range(1, 7)}
    assert peak < 1 << 20, "peak %.2f MB" % (peak / 2**20)


def test_not_a_variety_witness_n2():
    report = not_a_variety_witness(2)
    assert report["pass"]
    assert report["check"] == "not-a-variety"
    assert report["base"] == 2
    assert report["mode"] == "transpositions"
    assert report["unit"] == [1, 2]
    assert report["unit_size"] == 2
    assert report["f"] == [1, 0]
    assert report["witness_points"] == [1]
    assert report["witness_size"] == 1
    assert report["relativized_equation_holds"]
    assert report["closed_under_transpositions"]
    assert report["squares_unsolvable"]
    assert set(report["square_obstructions"]) == {"1", "2"}
    # every square keeps an f-fixed constant point, the smallest obstruction
    assert report["square_obstructions"]["1"] == [[0, 0]]
    assert report["failures"] == []


def test_not_a_variety_witness_even_pairing():
    report = not_a_variety_witness(4)
    assert report["pass"]
    assert report["base"] == 2
    assert report["f"] == [1, 0, 3, 2]
    assert report["unit_size"] == 4
    assert report["witness_size"] == 2


def test_not_a_variety_witness_odd_uses_bijective_points():
    report = not_a_variety_witness(3)
    assert report["pass"]
    assert report["base"] == 3
    assert report["f"] == [1, 0, 2]
    assert report["unit_size"] == 6
    assert report["witness_size"] == 3
    assert report["witness_points"] == [7, 15, 21]
    assert report["squares_unsolvable"]


def test_not_a_variety_witness_rejects_small_n():
    with pytest.raises(ValueError):
        not_a_variety_witness(1)


# --------------------------------------------------------- rectangle sweeps

def test_product_identities_small_bases():
    for k in (1, 2, 3):
        report = product_identities(k)
        assert report["pass"], report["failures"]
        assert report["k"] == k
        assert report["n"] == 2
        assert report["instances"] > 0
        assert report["failures"] == []


def test_product_identities_three_dimensional():
    report = product_identities(2, n=3)
    assert report["pass"], report["failures"]


def test_rectangles_read_from_subset_layers():
    """Each rectangle, an AND of one subset layer per coordinate, is the
    set of points whose every coordinate lies in its subset."""
    for n, k in ((1, 3), (2, 2), (2, 3), (3, 2)):
        layers = _subset_layers(n, k)
        full = (1 << k**n) - 1
        for combo in itertools.product(range(1 << k), repeat=n):
            want = sum(1 << p for p in range(k**n)
                       if all(combo[m] >> p // k**m % k & 1
                              for m in range(n)))
            assert _rect(layers, combo, full) == want, (n, k, combo)


def test_product_identities_at_every_admitted_size():
    """Every (n, k) within the budget passes with its full count of
    instances: n(n−1) replacements, n(n−1)/2 transpositions and one
    complement per rectangle, then 2^k + 1 corollaries."""
    admitted = 0
    for n in range(2, 7):
        for k in itertools.count(0):
            if k * n > 16 or 2 ** (k * n) * n * n > RECTANGLE_BUDGET:
                with pytest.raises(ValueError, match="exceed budget"):
                    product_identities(k, n)
                break
            report = product_identities(k, n)
            admitted += 1
            per_rect = n * (n - 1) + n * (n - 1) // 2 + 1
            assert report["instances"] == \
                2 ** (k * n) * per_rect + 2**k + 1, (n, k)
            assert report["pass"], (n, k, report["failures"])
    assert admitted == 22


# ------------------------------------------------------- truncated chain

def test_counter2_truncation_layers_and_collapse():
    report = counter2_truncation(TruncationSpec(2, 8))
    assert report["pass"], report["failures"]
    assert report["check"] == "counter2-truncation"
    assert report["bound"] == 8
    # injective sums over {0..8}² run from 1 to 15, one layer each
    assert report["layers"] == 15
    assert report["failures"] == []


def test_counter2_truncation_other_shapes():
    assert counter2_truncation(TruncationSpec(2, 1))["pass"]
    assert counter2_truncation(TruncationSpec(3, 3))["pass"]


def test_truncation_spec_validates_bound():
    with pytest.raises(ValueError):
        TruncationSpec(2, 0)


def test_default_filter_oracle():
    assert default_filter_oracle(cofinite_set({1})) is True
    assert default_filter_oracle(finite_set({1, 2})) is False
    with pytest.raises(ValueError):
        default_filter_oracle(("interval", frozenset()))
