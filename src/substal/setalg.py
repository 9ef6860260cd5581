"""Finite set algebras: the subsets of a unit V of worlds, as bitmasks.

One class, `ComplexAlgebra(space, unit)`, is ℘(V) for a unit V of the
worlds of a *space* that is closed under the space's action, with
substitution by preimage: S_τ(x) = V ∧ Ŝ_τ(x), Ŝ_τ(x) = {w : w·τ ∈ x}.
In the duality of Jónsson and Tarski it is Cm of the space restricted to
V.  A space gives `act(g)`, the world table of a generator g, and
`preimage(g, x)`, `diag_mask(i, j)`, `coherent()` and `walks`.  There
are two kinds:

- a `frames.Frame`, with explicit generator tables;
- `Square(n, k, mode, copies)`: c stacked copies of ⁿk, world
  copy·kⁿ + p for the point p whose coordinate i is the base-k digit i of
  p (coordinate 0 is the least significant).  Its action is the right
  point action q ↦ q∘τ, which is coherent by definition.

`ConcreteAlgebra(n, k, mode, unit)` is ℘(V) over the square, with the
number of copies read off the unit; the full representation stacks one
copy per atom.  The constructors trust their unit: `make_relativized` and
`algebra_from_json`, where a unit comes from outside, check its closure.

Every algebra handle keeps one contract: its elements are bitmasks, meet
is & and join is |.  `ComplexAlgebra` and `Subalgebra` keep it, as must
any other object with the operations.  So an element contains an atom
exactly when it contains the atom's lowest bit, and every map that reads
atoms is a bit gather z ↦ {dst : src ∈ z} (`gather_map`, which reads its
two position lists in place, so each gather is held once).  Only a set
algebra has a world action; represent reads any other handle through its
canonical extension.  A map between set algebras is the inverse image of
a world map from the target's unit to the source's worlds, and
`morphism_report` is its one certificate (Jónsson-Tarski duality): the
map is equivariant and keeps the diagonals.

Substitution on the square is word-parallel.  The coordinate mask C(i,a),
the worlds whose coordinate i is a, is a run of k^i ones at a·k^i repeated
with period k^(i+1).  The preimage Ŝ_g(x) of a generator is a few
whole-mask operations:

- s[i|j]: ⋁_b ((x ∧ C(i,b) ∧ C(j,b)) · Σ_a 2^(a·k^i)) >> b·k^i, which
  copies each point with q_i = q_j = b to every value of coordinate i.
  The blocks are shifted to q_i = 0 and joined first, then spread by k
  shifts, which is the product with Σ_a 2^(a·k^i) without its
  multiplication cost on a long mask;
- s[i,j], i < j: each block x ∧ C(i,b) ∧ C(j,a) shifted left by
  (b−a)(k^j−k^i), right when that is negative, which swaps the digits;
- d(i,j) = ⋁_a C(i,a) ∧ C(j,a).

Every shift stays inside its copy, so the kernel runs unchanged on c
copies.  Any other transformation τ of the monoid folds the generator
kernels right to left along canonical_word(τ), since S_{σ∘τ} = S_σ∘S_τ.

World tables come from the generator tables alone, on either space.  The
table of τ folds them left to right along canonical_word(τ)
(`fold_tables`).  The orbit of a world, its images under every element,
is read off one walk of the right Cayley graph's breadth-first tree per
unit, `frames.action_tables`, which the space keeps in `walks`.  That
the fold does not depend on the word is a frame's `coherent()`, which
checks the monoid's defining word pairs on the generator tables or reads
the frame's row certificate, while the square's point action is a right
action by definition.
"""

from functools import cached_property

from .monoid import (
    DIM_LIMIT,
    GenSym,
    canonical_word,
    enumerate_monoid,
    generators,
    has_diagonals,
    normalize_mode,
    point_index,
)

# Limits: points of ⁿk, atoms or regions whose 2^m joins are listed, and
# elements of a generated subalgebra; and the failures a report keeps.
POINT_LIMIT = 10**6
ENUMERATION_LIMIT = 20
SUBALGEBRA_BUDGET = 1 << 16
FAILURES_KEPT = 10


def point_coords(idx, n, k):
    out = []
    for _ in range(n):
        out.append(idx % k)
        idx //= k
    return tuple(out)


def mask_points(mask):
    """The positions of the set bits of a non-negative mask, ascending."""
    if not mask & mask - 1:             # no bit or one: an atom's mask
        return [mask.bit_length() - 1] if mask else []
    return [p for p, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def points_mask(points):
    """The mask with a bit at each given position (repeats allowed)."""
    points = list(points)
    if not points:
        return 0
    if min(points) < 0:
        raise ValueError("negative point index")
    digits = bytearray(b"0") * (max(points) + 1)
    for p in points:
        digits[p] = 49                  # ord("1")
    return int(digits[::-1], 2)


def lowest_bit(mask):
    """The position of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def gather_map(src_bits, dst_bits):
    """The bit gather z ↦ {dst : src ∈ z} over paired bit positions, read
    in place from the two sequences on each call: change neither after."""

    def h(z):
        out = 0
        for s, d in zip(src_bits, dst_bits):
            if z >> s & 1:
                out |= 1 << d
        return out

    return h


def alternating_coloring(worlds, g):
    """Find X with q ∈ X ⇔ g(q) ∉ X, or report why none exists.

    Returns (X, None) on success — X as a sorted list — or (None, cycle)
    where cycle is an odd cycle of g (a fixed point in the shortest case).
    The worlds are read once, in order, and only up to the first odd
    cycle, so they may come from an iterator that is never listed.
    """
    read = []
    color = {}
    for start in worlds:
        read.append(start)
        if start in color:
            continue
        path = []
        seen = {}
        w = start
        while w not in color and w not in seen:
            seen[w] = len(path)
            path.append(w)
            w = g(w)
        if w in color:
            c = color[w]
            for node in reversed(path):
                c = 1 - c
                color[node] = c
        else:
            cycle = path[seen[w]:]
            if len(cycle) % 2 == 1:
                return None, cycle
            for pos, node in enumerate(cycle):
                color[node] = pos % 2
            c = color[cycle[0]]
            for node in reversed(path[:seen[w]]):
                c = 1 - c
                color[node] = c
    chosen = sorted(w for w in read if color[w] == 1)
    return chosen, None


def coordinate_runs(n, k, copies=1):
    """runs[i] = C(i,0), the points of c stacked copies of ⁿk whose
    coordinate i is 0: a run of k^i ones repeated with period k^(i+1).
    C(i,a) is runs[i] << a·k^i."""
    num = copies * k**n
    if not num:
        return [0] * n
    full = (1 << num) - 1
    return [((1 << k**i) - 1) * (full // ((1 << k**(i + 1)) - 1))
            for i in range(n)]


def coordinate_masks(n, k):
    """masks[i][a] = C(i,a), the points of ⁿk whose coordinate i is a."""
    return [[run << a * k**i for a in range(k)]
            for i, run in enumerate(coordinate_runs(n, k))]


def diagonal_mask(runs, k, i, j):
    """d(i,j) over the whole square: ⋁_a C(i,a) ∧ C(j,a)."""
    out = 0
    for a in range(k):
        out |= (runs[i] << a * k**i) & (runs[j] << a * k**j)
    return out


class Square:
    """The space of c stacked copies of ⁿk under the right point action,
    with the word-parallel kernel of the module docstring."""

    def __init__(self, n, k, mode="full", copies=1):
        self.n = n
        self.k = k
        self.mode = normalize_mode(mode)
        self.copies = copies
        self.num_worlds = copies * k**n
        self.walks = {}       # unit -> its frames.ActionWalk
        self._tables = {}
        self._diag = {}

    @cached_property
    def runs(self):
        return coordinate_runs(self.n, self.k, self.copies)

    def _kernel(self, g, x):
        """Ŝ_g(x) for a generator g, over every world."""
        g.tr(self.n)                    # range check
        k = self.k
        ri, rj = k**g.i, k**g.j
        ci, cj = self.runs[g.i], self.runs[g.j]
        out = 0
        if g.kind == "replacement":
            # the points with q_i = q_j = b, moved to q_i = 0, then copied
            # to every value of coordinate i
            y = 0
            for b in range(k):
                y |= (x & ci << b * ri & cj << b * rj) >> b * ri
            for a in range(k):
                out |= y << a * ri
            return out
        stride = rj - ri
        for b in range(k):
            xb = x & ci << b * ri
            if not xb:
                continue
            cja = cj
            for a in range(k):
                block = xb & cja
                cja <<= rj
                shift = (b - a) * stride
                out |= block << shift if shift >= 0 else block >> -shift
        return out

    def preimage(self, g, x):
        """Ŝ_g(x) = {q : q∘g ∈ x}; g a generator symbol or any
        transformation of the mode's monoid, folded along its canonical
        word (canonical_word raises NotGenerated outside the monoid)."""
        word = (g,) if isinstance(g, GenSym) else canonical_word(g, self.mode)
        for sym in reversed(word):
            x = self._kernel(sym, x)
        return x

    def act(self, g):
        """The world table of a generator, cached per generator.  It
        rewrites only the digits g moves: s[i|j] sends p to
        p + (digit j − digit i)·k^i, and s[i,j], which swaps the two
        digits, to p + (digit j − digit i)·(k^i − k^j)."""
        tab = self._tables.get(g)
        if tab is None:
            g.tr(self.n)                # range check
            k, ri, rj = self.k, self.k**g.i, self.k**g.j
            weight = ri - rj if g.kind == "transposition" else ri
            tab = self._tables[g] = tuple(
                p + (p // rj % k - p // ri % k) * weight
                for p in range(self.num_worlds))
        return tab

    def diag_mask(self, i, j):
        if not has_diagonals(self.mode):
            raise ValueError("diagonal elements need full_diagonal mode")
        key = (min(i, j), max(i, j))
        mask = self._diag.get(key)
        if mask is None:
            mask = self._diag[key] = diagonal_mask(self.runs, self.k, *key)
        return mask

    def coherent(self):
        return True

    def __repr__(self):
        return "Square(n=%d, k=%d, mode=%s, copies=%d)" % (
            self.n, self.k, self.mode, self.copies)


def fold_tables(space, tau, worlds):
    """Where each of `worlds` goes under tau, a generator symbol or any
    transformation of the mode's monoid: the space's generator tables
    applied left to right along canonical_word(tau)."""
    word = (tau,) if isinstance(tau, GenSym) else canonical_word(tau, space.mode)
    out = list(worlds)
    for g in word:
        out = list(map(space.act(g).__getitem__, out))
    return out


class NotLocallySquare(ValueError):
    """The would-be unit is not closed under some generator's action."""

    def __init__(self, point, sym):
        self.point = point
        self.sym = sym
        super().__init__(
            "unit is not closed: point %r leaves under %s" % (point, sym.token())
        )


def is_locally_square(n, k, unit_mask, mode="full"):
    """None if the unit V is closed under the mode's generator actions,
    else the first (point, generator), generators in order and points
    ascending, whose move leaves it: the lowest point of V ∧ ¬Ŝ_g(V)."""
    square = Square(n, k, mode)
    for g in generators(n, square.mode):
        escaped = unit_mask & ~square.preimage(g, unit_mask)
        if escaped:
            return point_coords(lowest_bit(escaped), n, k), g
    return None


class ComplexAlgebra:
    """℘(V) = Cm of a space restricted to a unit V of its worlds (all of
    them by default), which is trusted to be closed under the action."""

    def __init__(self, space, unit=None):
        self.space = space
        self.n = space.n
        self.mode = space.mode
        self.k = getattr(space, "k", None)    # the base of a square
        self.num_points = space.num_worlds
        if unit is None:
            unit = (1 << space.num_worlds) - 1
        self.zero = 0
        self.one = self.unit = unit

    @cached_property
    def unit_points(self):
        return mask_points(self.unit)

    # ---- Boolean structure ----

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def compl(self, a):
        return self.unit ^ a

    # ---- substitution ----

    def moves(self, tau):
        """Where each world of the unit goes under tau (`fold_tables`): a
        list indexed by world when the unit is every world, else a dict
        over the unit's worlds."""
        if self.unit == (1 << self.num_points) - 1:
            return fold_tables(self.space, tau, range(self.num_points))
        pts = self.unit_points
        return dict(zip(pts, fold_tables(self.space, tau, pts)))

    def subst(self, g, x):
        """S_g(x) = {w in V : w·g in x}, g a generator symbol or any
        transformation of the mode's monoid."""
        return self.space.preimage(g, x) & self.unit

    def diag(self, i, j):
        return self.space.diag_mask(i, j) & self.unit

    # ---- enumeration ----

    def size(self):
        return 1 << len(self.unit_points)

    def atoms(self):
        return [1 << p for p in self.unit_points]

    def elements(self):
        pts = self.unit_points
        if len(pts) > ENUMERATION_LIMIT:
            raise ValueError("too many elements to enumerate (2^%d)" % len(pts))
        if self.unit == (1 << len(pts)) - 1:
            return list(range(1 << len(pts)))
        return [points_mask(p for i, p in enumerate(pts) if bits >> i & 1)
                for bits in range(1 << len(pts))]

    def __repr__(self):
        return "ComplexAlgebra(%r, |V|=%d)" % (self.space, len(self.unit_points))


def ConcreteAlgebra(n, k, mode="full", unit=None):
    """℘(V) for V in c stacked copies of ⁿk, c the fewest copies that hold
    the unit (one copy and the whole square by default)."""
    span = k**n
    copies = -(-unit.bit_length() // span) if unit and span else 1
    return ComplexAlgebra(Square(n, k, mode, copies), unit)


def _check_point_space(n, k):
    if k**n > POINT_LIMIT:
        raise ValueError("point space %d exceeds budget" % (k**n,))


def small_algebra(n, k, mode="full"):
    """A_nk: the full set algebra over every point of ⁿk."""
    _check_point_space(n, k)
    return ConcreteAlgebra(n, k, mode)


def make_relativized(n, k, unit, mode="full"):
    """℘(V) over one copy of ⁿk for V given as a bitmask or an iterable of
    point indices, once V is checked to lie in the square and to be closed
    under the mode's generators."""
    _check_point_space(n, k)
    if not isinstance(unit, int):
        unit = points_mask(unit)
    if unit >> k**n:
        raise ValueError("unit has points outside the square %d^%d" % (k, n))
    witness = is_locally_square(n, k, unit, mode)
    if witness is not None:
        raise NotLocallySquare(*witness)
    return ComplexAlgebra(Square(n, k, mode), unit)


def morphism_report(source, target, world_of):
    """Certify h(z) = {p : world_of[p] ∈ z}, the inverse image of a map
    from the target's unit to the source's worlds, two set algebras, as a
    homomorphism.  By Jónsson-Tarski duality it is one exactly when the
    map lands in the source unit ("cover"), world_of[p·g] = world_of[p]·g
    for every generator g ("subst"), and p ∈ d(i,j) ⇔ world_of[p] ∈ d(i,j)
    ("diag"); it is injective when the map is also onto the source unit,
    so that no atom image is zero.  FAILURES_KEPT failures are kept."""
    unit = set(source.unit_points)
    landed = [p for p in target.unit_points if world_of.get(p) in unit]
    failures = [("cover", p) for p in target.unit_points
                if world_of.get(p) not in unit]
    for g in generators(target.n, target.mode):
        step, move = target.space.act(g), source.space.act(g)
        failures += [("subst", g.token(), p) for p in landed
                     if world_of.get(step[p]) != move[world_of[p]]]
    if has_diagonals(target.mode):
        for i in range(target.n):
            for j in range(i + 1, target.n):
                ds, dt = source.diag(i, j), target.diag(i, j)
                if any(ds >> world_of[p] & 1 != dt >> p & 1 for p in landed):
                    failures.append(("diag", i, j))
    homomorphism = not failures
    missed = unit.difference(map(world_of.get, landed))
    failures += [("atom-image-zero", w) for w in sorted(missed)]
    return {"homomorphism": homomorphism,
            "injective": homomorphism and not missed,
            "atom_cover": len(landed) == len(target.unit_points),
            "failures": failures[:FAILURES_KEPT]}


def relativization_hom(algebra, unit):
    """The map x ↦ x ∩ V from a square algebra onto its relativization,
    the inverse image of the inclusion of V.  Returns (B, report), the
    report being `morphism_report`'s."""
    B = make_relativized(algebra.n, algebra.k, unit, algebra.mode)
    return B, morphism_report(algebra, B, {p: p for p in B.unit_points})


def generate_subalgebra(algebra, gens):
    """Closure of gens ∪ {0,1} under meet, complement, and substitution."""
    els = {algebra.zero, algebra.one}
    els.update(gens)
    gsyms = generators(algebra.n, algebra.mode)
    if has_diagonals(algebra.mode):
        for i in range(algebra.n):
            for j in range(i + 1, algebra.n):
                els.add(algebra.diag(i, j))
    frontier = list(els)
    while frontier:
        fresh = []
        for x in frontier:
            cands = [algebra.compl(x)]
            cands.extend(algebra.subst(g, x) for g in gsyms)
            cands.extend(algebra.meet(x, y) for y in list(els))
            for c in cands:
                if c not in els:
                    els.add(c)
                    fresh.append(c)
                    if len(els) > SUBALGEBRA_BUDGET:
                        raise ValueError("subalgebra closure exceeds budget")
        frontier = fresh
    return sorted(els)


def substitution_orbit(algebra, xs):
    """All s_τ(x) for τ in the mode's monoid and x among xs."""
    out = set()
    for tau in enumerate_monoid(algebra.n, algebra.mode):
        for x in xs:
            out.add(algebra.subst(tau, x))
    return sorted(out)


def boolean_closure(algebra, seeds):
    """All Boolean combinations of the seed elements (with 0 and 1)."""
    atoms = algebra.atoms()
    regions = {}
    for a in atoms:
        key = tuple(1 if algebra.meet(a, s) == a else 0 for s in seeds)
        regions[key] = regions.get(key, algebra.zero) | a
    parts = sorted(regions.values())
    if len(parts) > ENUMERATION_LIMIT:
        raise ValueError("too many regions to enumerate (2^%d)" % len(parts))
    out = [algebra.zero]
    for r in parts:
        out += [m | r for m in out]
    return sorted(set(out))


def subalgebra_size_bound(n, m):
    """Upper bound 2^(2^(m·n^n)) on an m-generated subalgebra's size."""
    return 2 ** (2 ** (m * n**n))


class Subalgebra:
    """A subuniverse of another algebra handle, sharing its operations."""

    def __init__(self, parent, elements):
        self.parent = parent
        self.universe = sorted(set(elements))
        self.n = parent.n
        self.mode = parent.mode
        self.zero = parent.zero
        self.one = parent.one
        if self.zero not in self.universe or self.one not in self.universe:
            raise ValueError("subuniverse must contain 0 and 1")

    def meet(self, a, b):
        return self.parent.meet(a, b)

    def join(self, a, b):
        return self.parent.join(a, b)

    def compl(self, a):
        return self.parent.compl(a)

    def subst(self, g, x):
        return self.parent.subst(g, x)

    def diag(self, i, j):
        return self.parent.diag(i, j)

    def size(self):
        return len(self.universe)

    def elements(self):
        return list(self.universe)

    def atoms(self):
        nonzero = [x for x in self.universe if x != self.zero]
        return [x for x in nonzero
                if not any(y != x and self.meet(x, y) == y for y in nonzero)]

    def __repr__(self):
        return "Subalgebra(%d elements of %r)" % (len(self.universe), self.parent)


def algebra_to_json(algebra):
    return {
        "n": algebra.n,
        "k": algebra.k,
        "mode": algebra.mode,
        "unit": list(algebra.unit_points),
    }


def json_int(data, key, lo, hi):
    """data[key] as an int in [lo, hi]; ValueError for anything else."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    value = data.get(key)
    if not (type(value) is int and lo <= value <= hi):
        raise ValueError("field %r must be an integer in [%d, %d], got %r"
                         % (key, lo, hi, value))
    return value


def json_ints(values, lo, hi, what):
    """A JSON list of ints in [lo, hi], as a tuple; ValueError otherwise.
    The checks are whole-list builtins: bool is a subclass of int, not
    int itself, so True and False are refused with every other type."""
    if not isinstance(values, list) or values and not (
            set(map(type, values)) == {int}
            and lo <= min(values) and max(values) <= hi):
        raise ValueError("%s must be a list of integers in [%d, %d]"
                         % (what, lo, hi))
    return tuple(values)


# The closure check makes k² whole-mask steps per transposition and 2k per
# replacement, each over kⁿ bits: ⁶10, ⁴31 and ³100 fit, ²1000 does not.
CLOSURE_BUDGET = 4 * 10**10


def algebra_from_json(data):
    """A square algebra from algebra_to_json's format, rejecting any
    malformed field, any unit point outside ⁿk, a closure check over
    CLOSURE_BUDGET and a unit that is not closed under the mode's
    generators."""
    n = json_int(data, "n", 1, DIM_LIMIT)
    k = json_int(data, "k", 0, POINT_LIMIT)
    _check_point_space(n, k)
    mode = normalize_mode(data.get("mode", "full"))
    work = k**n * sum(k * k if g.kind == "transposition" else 2 * k
                      for g in generators(n, mode))
    if work > CLOSURE_BUDGET:
        raise ValueError("closure check of %d^%d (about %.1e steps) exceeds "
                         "budget %.0e" % (k, n, work, CLOSURE_BUDGET))
    return make_relativized(
        n, k, json_ints(data.get("unit"), 0, k**n - 1, "unit"), mode)
