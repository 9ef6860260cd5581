"""Ultrafilter representations of finite substitution algebras.

Every ultrafilter of a finite algebra is principal, so representations are
driven by atoms: at an atom u, the map h(z) = {tau : s_tau(z) in F_u} lands
in the set algebra over the monoid's own points, and the per-atom maps
combine into an injective complete representation on stacked copies of
that square unit; in a diagonal signature the block at u is the quotient
into the full-diagonal square ⁿm_u (diag_represent).

The engine acts on set algebras (setalg.ComplexAlgebra) only.  There the
atom of a world w lies below s_tau(z) exactly when w·tau lies in z, so
every block is a bit gather h(z) = {p : f(p) ∈ z} read off the orbit of w,
from the world tables that the space keeps per unit (frames.action_tables).
Its target points are numbered once, in the base of the product square
(the monoid's points as monoid.cayley_graph keys them), and each block is
placed in its copy by an offset; the product's gather is one pair of
lists, which its image reads in place.
By Jónsson-Tarski duality such a map is a homomorphism exactly when its
world map f is equivariant and keeps the diagonals.  A coherent action
(`coherent()` of the space: by definition on a square, by the word pairs
of monoid.relations or the row certificate on a frame) makes every orbit
map equivariant, so one builder (`_represent`) checks per block only
what coherence cannot know and writes one report for the whole product.
Any other handle reaches the engine through `canonical_extension`, Cm of
its atom frame, whose world map is equivariant by the construction of
the atom frame; its report checks that the atoms partition the unit and
that the diagonals are kept.  Maps between two set algebras that are no
representations are certified by their world maps
(setalg.morphism_report).
"""

from operator import getitem

from .monoid import (
    NotGenerated,
    Record,
    bijective_stabilizer,
    cayley_graph,
    check_submonoid,
    generators,
    has_diagonals,
    mode_allows,
    monoid_size,
    swap,
)
from .setalg import (FAILURES_KEPT, ComplexAlgebra, ConcreteAlgebra, Square,
                     algebra_to_json, alternating_coloring, gather_map,
                     lowest_bit, mask_points, points_mask, small_algebra)
from .frames import action_tables, atom_frame


def atom_below(algebra, a):
    """The atom of the lowest world of a non-zero element a."""
    if a == algebra.zero:
        raise ValueError("zero element has no atom below it")
    return a & -a


class RepMap(Record):
    """A map z ↦ {dst : src ∈ z} given by its gather (src_bits, dst_bits),
    the one copy of it that `image` reads, with its certificate and, for
    a representation, the target of each of its blocks."""

    _fields = ("source", "target", "gather", "report", "blocks")
    __slots__ = _fields + ("image",)

    def __init__(self, source, target, gather, report, blocks=()):
        self.source = source
        self.target = target
        self.gather = gather
        self.report = report
        self.blocks = blocks
        self.image = gather_map(*gather)

    def to_json(self):
        """A representation's report (with its failures, if any), its
        target one block at a time, the points of each source atom and
        the points of its image.  The source is a set algebra, whose atoms
        are the points of its unit, and the atoms determine every other
        image: a homomorphism sends z to the union of the images of the
        atoms below z.  Blocks that are all one algebra are given as their
        number and that algebra's file."""
        data = {"report": {
            k: self.report.get(k)
            for k in ("homomorphism", "injective", "atom_cover")}}
        if self.report.get("failures"):
            data["report"]["failures"] = self.report["failures"]
        files = dict.fromkeys(self.blocks)    # the targets are shared
        for b in files:
            files[b] = algebra_to_json(b)
        if files:
            data["target"] = {"blocks": len(self.blocks)}
            if len(files) == 1:
                data["target"]["block"] = files[self.blocks[0]]
            else:
                data["target"]["block_files"] = [files[b] for b in self.blocks]
        # a gather sends each target point from one source point
        images = {p: [] for p in self.source.unit_points}
        for s, d in zip(*self.gather):
            if s in images:
                images[s].append(d)
        for ds in images.values():
            ds.sort()                   # the lists are this call's own
        data["atoms"] = [[p] for p in images]
        data["atom_images"] = list(images.values())
        return data


# full_representation refuses, before any walk, a unit whose
# atoms·(|M| + 20) exceeds REPRESENT_BUDGET: each atom's block reads an
# orbit of |M| worlds and gathers |M| points, and its own fixed cost (the
# cover check, the placement, its atom under --json) counts as 20 such
# entries; the walk over the unit is |M| tables of one entry per atom.
# The full ⁵3 square (about 0.3 s cold, 0.9 s with --json) is within the
# budget, while ⁶2, 5⁵ and ²400 are not.
REPRESENT_BUDGET = 10**6


def _quotient(n, related):
    """The classes of a relation on the n indices, each named by its
    first index, each index's class, and the first pair on which the
    relation is not the equivalence those classes make, or None."""
    classes, block_of = [], []
    for i in range(n):
        b = next((b for b, members in enumerate(classes)
                  if related(members[0], i)), len(classes))
        if b == len(classes):
            classes.append([])
        classes[b].append(i)
        block_of.append(b)
    split = next(((i, j) for i in range(n) for j in range(n)
                  if (block_of[i] == block_of[j]) != related(i, j)), None)
    return classes, block_of, split


def _represent(algebra, worlds, quotient):
    """The product of one block per world of the unit (per atom), block b
    in copy b of one square ⁿK, K the largest base of a block, as one
    gather with one report.

    The block at a world w sends a target point to w·tau: the point of
    tau in the monoid-point square (represent_at), or with `quotient` the
    point block∘tau of ⁿm, the indices merged where w lies on the
    diagonal (diag_represent).  A quotient block over ⁿm sits in its copy
    as the points whose coordinates are all below m, a closed unit of ⁿK
    on which the action and the diagonals are those of ⁿm.  Every world's
    quotient classes are found first, so that K is known before any point
    is numbered: each block numbers its points in base K (for K = n the
    point of tau is its key in monoid.cayley_graph), and block b is placed
    at offset b·Kⁿ.

    The product is h(z) = {p : f(p) ∈ z}, f the blocks' world maps side
    by side, and it is a homomorphism exactly when f is a function from
    the target unit into the source unit (the atom images partition the
    target), f(p·g) = f(p)·g for every target point p and generator g,
    and p ∈ d(i,j) ⇔ f(p) ∈ d(i,j).  The point of tau moves under g to
    the point of tau∘g, so the coherence of the space's action,
    w·(tau∘g) = (w·tau)·g, is the equivariance of every block at once; an
    incoherent space (`coherent()`) raises ValueError.  Each block checks
    the rest: its orbit stays in the unit ("cover"); a
    quotient block is an equivalence and is well defined (every tau that
    gives a point gives it one world); and the diagonals.  A quotient
    block covers ⁿm without a check: the diagonal monoid holds every map,
    and q is block∘tau for tau(i) the first index of class q(i).
    It is injective exactly when the blocks' worlds cover the unit, so
    that no atom image is zero.
    """
    if not algebra.space.coherent():
        raise ValueError("the action fails coherence, so this is no "
                         "substitution algebra")
    walk = action_tables(algebra.space, algebra.unit)
    n, mode = algebra.n, algebra.mode
    graph = cayley_graph(n, mode)
    unit = set(walk.worlds)
    diagonals = {(i, j): set(mask_points(algebra.diag(i, j)))
                 for i in range(n) for j in range(i + 1, n)
                 if has_diagonals(mode)}
    failures, targets, src, dst = [], [], [], []
    cover = well_defined = diag_onto = True
    # Each target is built once per call, and the blocks over it share
    # it: RepMap.to_json knows a target by its identity.  With `quotient`
    # it is the full-diagonal square ⁿm for each m, else the set algebra
    # over the points of ⁿn that are maps of the monoid, listed in the
    # order of the walk.
    if quotient:
        splits = [_quotient(n, lambda i, j: (
            i == j or w in diagonals[min(i, j), max(i, j)])) for w in worlds]
        base = max(len(classes) for classes, _, _ in splits)
        squares = {}
    else:
        base = n
        points = graph.keys
        square = ConcreteAlgebra(n, n, mode, unit=points_mask(points))
    span, product = base**n, Square(n, base, mode)

    def record(*failure):
        if len(failures) < FAILURES_KEPT:
            failures.append(failure)

    for b, w in enumerate(worlds):
        orbit = walk.orbit(w)
        if quotient:
            classes, block_of, split = splits[b]
            m = len(classes)
            if split:
                record("equivalence", *split)
            # the point block∘tau of ⁿm, numbered in base K
            digits = [[block_of[x] * base**i for x in range(n)]
                      for i in range(n)]
            image, clash = {}, None
            for tau, v in zip(graph.maps, orbit):
                u, sigma = image.setdefault(sum(map(getitem, digits, tau)),
                                            (v, tau))
                if u != v and clash is None:
                    clash = ("well-defined", sigma, tau)
                    record(*clash)
            well_defined &= clash is None
            target = squares.get(m)
            if target is None:
                target = squares[m] = small_algebra(n, m, "full_diagonal")
            d = sorted(image)
            s = [image[p][0] for p in d]
        else:
            target, d, s = square, points, orbit
        if not unit.issuperset(s):
            cover = False
            record("cover")
        for (i, j), on in diagonals.items():
            dt = product.diag_mask(i, j)
            if any(dt >> p & 1 != (v in on) for p, v in zip(d, s)):
                diag_onto = False
                record("diag", i, j)
        targets.append(target)
        src += s
        dst += [p + b * span for p in d]
    homomorphism = not failures
    missed = unit.difference(src)
    if missed:
        record("atom-image-zero", min(missed))
    report = {
        "method": "cayley-walk",
        "homomorphism": homomorphism,
        "injective": homomorphism and not missed,
        "injective_method": "atom-blocks",
        "atom_cover": cover,
        # the walk's first table is the identity's, so every block sends
        # its identity point to its own world
        "identity_in_image": True,
        "failures": failures,
    }
    if quotient:
        report["well_defined"] = well_defined
        report["diag_onto"] = diag_onto
    # every block's points are its target's unit: the monoid's points, or
    # all of ⁿm
    target = ConcreteAlgebra(n, base, mode, unit=points_mask(dst))
    return RepMap(algebra, target, (src, dst), report, targets)


def represent_at(algebra, a):
    """The representation h(z) = {tau : s_tau(z) in F} at the principal
    ultrafilter of an atom below a, into the set algebra over the monoid's
    own points (the full ⁿn square in full mode): the point of tau goes to
    w·tau, w the atom's world.  The one-atom case of `_represent`."""
    return _represent(algebra, [lowest_bit(atom_below(algebra, a))], False)


def full_representation(algebra):
    """Product of one block per atom, represent_at or, in a diagonal
    signature, diag_represent: an injective homomorphism into stacked
    copies of one square, certified as a whole (`_represent`)."""
    if algebra.one == algebra.zero:
        raise ValueError("trivial algebra has no atoms to represent at")
    worlds = algebra.unit_points        # the worlds of the atoms
    n, mode = algebra.n, algebra.mode
    work = len(worlds) * (monoid_size(n, mode) + 20)
    if work > REPRESENT_BUDGET:
        raise ValueError("representing %d atoms (about %d steps) exceeds "
                         "budget %d" % (len(worlds), work, REPRESENT_BUDGET))
    return _represent(algebra, worlds, has_diagonals(mode))


def complete_representation(algebra):
    """full_representation plus the completeness facts: atom images
    partition every copy, and each substitution is completely additive,
    which holds by construction, for the source is a set algebra whose
    substitutions are preimages."""
    rep = full_representation(algebra)
    rep.report["complete"] = rep.report["atom_cover"]
    rep.report["completely_additive"] = True
    return rep


def check_psi(algebra):
    """Σ over atoms of s_g(atom) must equal 1 for every unary substitution
    (so every nonzero element meets some substituted atom)."""
    return not check_psi_witnesses(algebra)


def check_psi_witnesses(algebra):
    out = []
    ats = algebra.atoms()
    for g in generators(algebra.n, algebra.mode):
        total = algebra.zero
        for x in ats:
            total = algebra.join(total, algebra.subst(g, x))
        if total != algebra.one:
            out.append((g.token(), total))
    return out


def canonical_extension(algebra):
    """Cm(atom frame) with the natural isomorphism z ↦ {atoms below z},
    the gather of each atom's lowest bit to its world; for finite
    algebras this is a (complete) isomorphic copy.  The source may be any
    handle, and the report checks what atom_frame leaves open: the atoms
    partition the unit ("overlap", "cover"), and the gather keeps every
    diagonal ("diag").  Each atom has a world of its own, so a
    homomorphism is injective and its atom images cover ext."""
    frame, ats = atom_frame(algebra)
    ext = ComplexAlgebra(frame)
    gather = ([lowest_bit(x) for x in ats], list(range(len(ats))))
    image = gather_map(*gather)
    failures, union = [], algebra.zero
    for x in ats:
        if union & x:
            failures.append(("overlap", x))
        union |= x
    if union != algebra.one:
        failures.append(("cover",))
    # atom_frame found one atom y with x ≤ s_g(y) for each atom x and
    # generator g.  With the atoms a partition, each s_g(y) is the join of
    # the atoms it holds, so the gather sends s_g(y) to S_g of y's world:
    # the atom map is equivariant, and "subst" needs no check.
    if has_diagonals(algebra.mode):
        failures += [("diag", i, j) for i in range(algebra.n)
                     for j in range(i + 1, algebra.n)
                     if image(algebra.diag(i, j)) != ext.diag(i, j)]
    homomorphism = not failures
    report = {"homomorphism": homomorphism, "injective": homomorphism,
              "atom_cover": True, "failures": failures[:FAILURES_KEPT],
              "bijective": homomorphism and algebra.size() == ext.size()}
    return ext, RepMap(algebra, ext, gather, report)


def diag_represent(algebra, a):
    """Quotient representation of a diagonal algebra at an atom: indices i,j
    are merged when d(i,j) lies in the ultrafilter; the target is the full
    diagonal set algebra over ⁿm for m the number of merged classes, which
    the report gives as its "blocks".  The point block∘tau of ⁿm goes to
    w·tau, w the atom's world, which must not depend on the choice of tau.
    When the merging is not an equivalence or the quotient is not well
    defined, the report says so in its failures and the map is no
    homomorphism.  The one-atom case of `_represent`."""
    if not has_diagonals(algebra.mode):
        raise ValueError("diag_represent needs full_diagonal mode")
    w = lowest_bit(atom_below(algebra, a))
    rep = _represent(algebra, [w], True)
    rep.report["blocks"] = _quotient(
        algebra.n, lambda i, j: bool(algebra.diag(i, j) >> w & 1))[0]
    return rep


class SubMonoidCtx:
    """A hand-given composition-closed set T of transformations and its
    bijective stabilizer G = {xi in S_n : xi∘sigma in T for all sigma in
    T}, which is T ∩ S_n since T holds the identity.  No verdict path
    builds one: `check_quasi` fixes T = S_n."""

    def __init__(self, n, T):
        self.n = n
        self.T = check_submonoid(n, T)
        self.G = bijective_stabilizer(n, self.T)


def special_quasi_witness(algebra, f):
    """An element X with s_f(X) = −X in a set algebra, or None.

    Found by alternating 2-coloring along the cycles of the world map
    w ↦ w·f over the unit (f must act bijectively); exact, no search."""
    step = algebra.moves(f)
    chosen, obstruction = alternating_coloring(algebra.unit_points,
                                               step.__getitem__)
    if chosen is None:
        return None
    mask = points_mask(chosen)
    assert algebra.subst(f, mask) == algebra.compl(mask)
    return mask


def cycle_types(n):
    """One permutation of {0..n-1} per cycle type, so one per conjugacy
    class of Sₙ: the cycles, longest first, on runs of consecutive
    indices."""
    def lengths(left, top):
        if not left:
            yield ()
        for size in range(min(left, top), 0, -1):
            for rest in lengths(left - size, size):
                yield (size,) + rest
    for sizes in lengths(n, n):
        perm, start = [], 0
        for size in sizes:
            perm += range(start + 1, start + size)
            perm.append(start)
            start += size
        yield tuple(perm)


def check_quasi(algebra):
    """Do the quasi-equations for T = S_n hold in the algebra?

    T is fixed, since the quasi-equations for all permutations separate
    the quasi-variety of square algebras from the variety it generates;
    S_n is a group, so it is closed and its bijective stabilizer G is S_n
    itself.  Three steps decide them (any other handle is given through
    its canonical extension):

    - signature: every s_tau exists exactly when the mode has every
      transposition; ValueError otherwise, naming the swap of the last
      two coordinates;
    - stabilizer schemas (a zero meet of substituted variables stays zero
      under any xi in G) hold exactly when the action is coherent:
      pulling a world back along act_xi turns a conclusion witness into a
      premise witness;
    - alternating forms s_f(x) = −x → 0 = 1, one per cycle type of f
      (`cycle_types`), by coloring the cycles of w ↦ w·f
      (`special_quasi_witness`).  On a coherent unit w ↦ w·xi is a
      bijection that conjugates the world maps of f and xi⁻¹∘f∘xi, so
      conjugate permutations have cycles of the same lengths, and one
      coloring per class decides them all.
    """
    n = algebra.n
    if not all(mode_allows(algebra.mode, g)
               for g in generators(n, "transpositions")):
        raise ValueError("the quasi-equations need s_tau for every tau in "
                         "T: %s" % NotGenerated(swap(n - 2, n - 1).tr(n),
                                                algebra.mode))
    # a square's point action is a right action by definition; a frame
    # asks its word pairs, or its row certificate where they cannot decide
    # (frames.Frame.coherent)
    if not algebra.space.coherent():
        return False
    return algebra.one == algebra.zero or all(
        special_quasi_witness(algebra, f) is None for f in cycle_types(n))
