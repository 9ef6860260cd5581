"""Finite, machine-checkable versions of the headline counterexamples.

Three exhibits: the alternating-set construction that separates the
quasi-equational class from the smallest variety containing it, the
rectangle identities that drive the product computations, and bounded
truncations of the infinite chain construction (with an explicit
ultrafilter oracle standing in for a non-principal ultrafilter).
"""

import itertools

from .monoid import Record, generators, repl, swap
from .setalg import (alternating_coloring, coordinate_masks, coordinate_runs,
                     diagonal_mask, make_relativized, point_coords,
                     point_index, points_mask, small_algebra)


def _e_point(i, n):
    """All-ones tuple with a single 0 in slot i."""
    return tuple(0 if j == i else 1 for j in range(n))


def _pairing_map(n):
    """0↔1, 2↔3, ...; fixes a trailing odd index."""
    out = list(range(n))
    for a in range(0, n - 1, 2):
        out[a], out[a + 1] = out[a + 1], out[a]
    return tuple(out)


def not_a_variety_witness(n):
    """A unit G closed under transpositions, a permutation f, and a set
    X ⊆ G with S_f(X) = G∖X — impossible in any square unit, where the
    constant points are f-fixed.  Together these witness that the
    quasi-equation s_f(x) = −x → 0 = 1 holds in every square algebra but
    fails in a relativized one.

    Even n uses the one-zero points e_i with the disjoint-transposition
    pairing; odd n has no alternating set over those points (any
    permutation of an odd index set keeps an odd cycle), so the bijective
    points with f = [0,1] stand in.  The two agree at n = 2.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    failures = []
    instances = 0

    if n % 2 == 0:
        k = 2
        points = [_e_point(i, n) for i in range(n)]
        f = _pairing_map(n)
        chosen = [_e_point(i, n) for i in range(1, n, 2)]
        # the shift law behind the construction: e_i∘f = e_{i−1} for odd i
        for i in range(1, n, 2):
            instances += 1
            moved = tuple(_e_point(i, n)[f[j]] for j in range(n))
            if moved != _e_point(i - 1, n):
                failures.append(("shift", i))
    else:
        k = n
        points = [tuple(p) for p in itertools.permutations(range(n))]
        f = swap(0, 1).tr(n)
        chosen = [q for q in points if q[0] < q[1]]

    unit = [point_index(q, k) for q in points]
    # raises NotLocallySquare unless the unit is closed under transpositions
    algebra = make_relativized(n, k, unit, "transpositions")
    x_mask = points_mask(point_index(q, k) for q in chosen)
    instances += 1
    holds = algebra.subst(f, x_mask) == algebra.compl(x_mask)
    if not holds:
        failures.append(("relativized", "s_f(X) != -X"))

    obstructions = {}
    squares_unsolvable = True
    for base in range(1, n + 1):
        instances += 1
        step = lambda q: tuple(q[f[j]] for j in range(n))
        found, obstruction = alternating_coloring(
            itertools.product(range(base), repeat=n), step)
        if found is not None:
            squares_unsolvable = False
            failures.append(("square-solvable", base))
        else:
            obstructions[base] = obstruction

    return {
        "check": "not-a-variety",
        "n": n,
        "base": k,
        "mode": "transpositions",
        "unit_size": len(points),
        "unit": sorted(unit),
        "f": list(f),
        "witness_size": len(chosen),
        "witness_points": sorted(point_index(q, k) for q in chosen),
        "relativized_equation_holds": holds,
        "closed_under_transpositions": True,
        "squares_unsolvable": squares_unsolvable,
        "square_obstructions": {str(b): [list(q) for q in c]
                                for b, c in obstructions.items()},
        "instances": instances,
        "failures": failures,
        "pass": holds and squares_unsolvable and not failures,
    }


def _subset_layers(n, k):
    """layers[m][s]: the points of ⁿk whose coordinate m lies in the
    subset s of k (a mask over k), every s built from s without its
    lowest value by one join."""
    layers = []
    for masks in coordinate_masks(n, k):
        layer = [0] * (1 << k)
        for s in range(1, 1 << k):
            low = s & -s
            layer[s] = layer[s ^ low] | masks[low.bit_length() - 1]
        layers.append(layer)
    return layers


def _rect(layers, subsets, full):
    """The product set ∏ X_m as a point mask, one layer lookup per
    coordinate; subsets are masks over k, full is the whole square."""
    out = full
    for layer, s in zip(layers, subsets):
        out &= layer[s]
    return out


# Each of the (2^k)^n rectangles costs about n² substitutions and compares
# over kⁿ points: ²7, ³4, ⁴3 and ⁶1 fit, ²8, ³5 and ⁶2 do not.
RECTANGLE_BUDGET = 2**16


def product_identities(k, n=2):
    """Exhaustively verify the rectangle identities in the full algebra
    over ⁿk: how replacements, transpositions, and complement act on
    product sets, plus the empty-overlap and diagonal-cover corollaries.
    ValueError when (2^k)^n · n² exceeds RECTANGLE_BUDGET."""
    if k < 0:
        raise ValueError("base size must be >= 0")
    if k * n > 16 or 2 ** (k * n) * n * n > RECTANGLE_BUDGET:
        raise ValueError("rectangles over %d^%d exceed budget %d"
                         % (k, n, RECTANGLE_BUDGET))
    algebra = small_algebra(n, k, "full")
    layers = _subset_layers(n, k)
    full = (1 << k) - 1
    unit = algebra.one
    failures = []
    instances = 0

    subsets = list(range(1 << k))
    for combo in itertools.product(subsets, repeat=n):
        rect = _rect(layers, combo, unit)
        # replacement: coordinate i is freed, j picks up the intersection
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                instances += 1
                expected = list(combo)
                expected[j] = combo[i] & combo[j]
                expected[i] = full
                got = algebra.subst(repl(i, j), rect)
                if got != _rect(layers, expected, unit):
                    failures.append(("replacement", i, j, combo))
        # transposition: coordinates swap
        for i in range(n):
            for j in range(i + 1, n):
                instances += 1
                expected = list(combo)
                expected[i], expected[j] = expected[j], expected[i]
                got = algebra.subst(swap(i, j), rect)
                if got != _rect(layers, expected, unit):
                    failures.append(("transposition", i, j, combo))
        # complement: union of one-coordinate complements
        instances += 1
        expected_mask = 0
        for m in range(n):
            box = [full] * n
            box[m] = full ^ combo[m]
            expected_mask |= _rect(layers, box, unit)
        if algebra.compl(rect) != expected_mask:
            failures.append(("complement", combo))

    # the two corollaries used downstream: X × ∼X (× U …) never meets the
    # diagonal, and together such rectangles tile its complement
    tau10 = repl(1, 0)
    diag01 = diagonal_mask(coordinate_runs(n, k), k, 0, 1)
    union = 0
    for x in subsets:
        box = [full] * n
        box[0], box[1] = x, full ^ x
        rect = _rect(layers, box, unit)
        union |= rect
        instances += 1
        if algebra.subst(tau10, rect) != 0:
            failures.append(("empty-overlap", x))
    instances += 1
    if union != unit ^ diag01:
        failures.append(("diagonal-cover",))

    return {
        "check": "product-identities",
        "n": n,
        "k": k,
        "instances": instances,
        "failures": failures,
        "pass": not failures,
    }


class TruncationSpec(Record):
    __slots__ = _fields = ("n", "bound")

    def __init__(self, n, bound):
        self.n = n
        self.bound = bound
        if bound < 1:
            raise ValueError("bound must be >= 1")


def finite_set(members):
    return ("finite", frozenset(members))


def cofinite_set(excluded):
    return ("cofinite", frozenset(excluded))


def default_filter_oracle(setspec):
    """Membership in the standing ultrafilter: cofinite sets in, finite
    sets out, anything else undecided."""
    kind = setspec[0]
    if kind == "finite":
        return False
    if kind == "cofinite":
        return True
    raise ValueError("oracle cannot decide %r" % (setspec,))


# The point loop visits each of the (B+1)^n points once, and the layer
# checks meet every pair of the layers, each over every point.
TRUNCATION_POINTS = 2 * 10**5
TRUNCATION_BUDGET = 5 * 10**8


def counter2_truncation(spec, F_oracle=default_filter_oracle):
    """Bounded truncation of the chain construction.

    Points are ⁿ{0..B}.  Q₀ collects the non-injective points; Q_m for
    m ≥ 1 collects the injective points of total sum (min injective sum)
    + m − 1 — at n = 2 these are exactly the classical s₀ ≠ s₁,
    Σ s_i = m layers, and for larger n this indexing keeps every layer
    invariant under all transpositions.  R_X stacks the layers in X and
    includes Q₀ exactly when the oracle puts X in the ultrafilter; the
    copy-first-coordinate substitution then collapses R_X to 0 or 1
    according to that single oracle bit.
    """
    n, bound = spec.n, spec.bound
    base = bound + 1
    # the injective sums run from 0+…+(n−1) to B+…+(B−n+1)
    layer_count = n * (bound - n + 1) + 1 if base >= n else 0
    if (base ** n > TRUNCATION_POINTS
            or base ** n * (layer_count + 1) ** 2 > TRUNCATION_BUDGET):
        raise ValueError("truncation of %d^%d with %d layers exceeds budget"
                         % (base, n, layer_count))
    algebra = small_algebra(n, base, "full")
    failures = []
    instances = 0

    min_sum = sum(range(n))
    q0 = 0
    layers = {}
    for idx in range(base ** n):
        q = point_coords(idx, n, base)
        if len(set(q)) < n:
            q0 |= 1 << idx
        else:
            m = sum(q) - min_sum + 1
            layers[m] = layers.get(m, 0) | (1 << idx)

    # partition structure: Q₀ and the layers tile the truncated unit
    total = q0
    masks = [q0] + [layers[m] for m in sorted(layers)]
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            instances += 1
            if masks[a] & masks[b]:
                failures.append(("overlap", a, b))
        total |= masks[a]
    instances += 1
    if total != algebra.one:
        failures.append(("cover",))

    # every layer is symmetric
    for g in generators(n, "transpositions"):
        for label, mask in [("Q0", q0)] + [("Q%d" % m, layers[m])
                                           for m in sorted(layers)]:
            instances += 1
            if algebra.subst(g, mask) != mask:
                failures.append(("symmetry", g.token(), label))

    def r_of(setspec):
        in_filter = F_oracle(setspec)
        kind, data = setspec
        mask = q0 if in_filter else 0
        for m, layer in layers.items():
            member = (m in data) if kind == "finite" else (m not in data)
            if member:
                mask |= layer
        return mask, in_filter

    tau10 = repl(1, 0)
    top = max(layers) if layers else 1
    cases = [
        finite_set({1, 2}),
        finite_set({2}),
        finite_set(set()),
        finite_set(set(range(1, min(4, top + 1)))),
        cofinite_set({1}),
        cofinite_set(set()),
        cofinite_set({2, 3}),
    ]
    for setspec in cases:
        mask, in_filter = r_of(setspec)
        got = algebra.subst(tau10, mask)
        expected = algebra.one if in_filter else algebra.zero
        instances += 1
        if got != expected:
            failures.append(("collapse", setspec, in_filter))

    return {
        "check": "counter2-truncation",
        "n": n,
        "bound": bound,
        "layers": len(layers),
        "instances": instances,
        "failures": failures,
        "pass": not failures,
    }
