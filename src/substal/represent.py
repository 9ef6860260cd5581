"""Ultrafilter representations of finite substitution algebras.

Every ultrafilter of a finite algebra is principal, so representations are
driven by atoms: at an atom u, the map h(z) = {tau : s_tau(z) in F_u} lands
in the set algebra over the monoid's own points, and the per-atom maps
combine into an injective complete representation on stacked copies of
that square unit; in a diagonal signature the block at u is the quotient
into the full-diagonal square ⁿm_u (diag_represent).

The engine acts on set algebras (setalg.ComplexAlgebra) only.  There the
atom of a world w lies below s_tau(z) exactly when w·tau lies in z, so
every map here is a bit gather read off the orbit of w, from the one
Cayley walk that the space keeps per unit (frames.action_tables, which
frame-check and quasi read too).  `edge_report` certifies each gather
exactly on the edges of its target's action: by Jónsson-Tarski duality a
complete homomorphism between complex algebras is the inverse image of a
bounded morphism, here an equivariant map that keeps the diagonals.  Any
other handle reaches the engine through `canonical_extension`, Cm of its
atom frame, whose isomorphism is itself a gather certified by
`hom_report` from the atom images.
"""

from dataclasses import dataclass
from functools import lru_cache

from .monoid import (
    NotGenerated,
    canonical_word,
    cayley_graph,
    generators,
    has_diagonals,
    identity,
)
from .setalg import (ComplexAlgebra, ConcreteAlgebra, algebra_to_json,
                     gather_map, lowest_bit, mask_points, point_coords,
                     point_index, points_mask, small_algebra)
from .frames import action_tables, atom_frame, walk_steps
from .terms import bijective_stabilizer, check_submonoid
from .gallery import alternating_coloring


def atom_below(algebra, a):
    """The atom of the lowest world of a non-zero element a."""
    if a == algebra.zero:
        raise ValueError("zero element has no atom below it")
    return a & -a


def hom_report(source, target, h, gather=None):
    """Certify h: source -> target as a homomorphism of the full signature,
    for a source that may be any algebra handle (canonical_extension,
    frames.superamalgam, setalg.relativization_hom).  A gather between
    set algebras is certified on the action's edges by `edge_report`.

    The certificate is exact and reads only the atom images.  A map that
    preserves finite joins is fixed by its values on the atoms, and
    substitutions here are preimage operators, hence additive; so h is a
    homomorphism exactly when

    - h is additive: a bit gather (`gather` = (src_bits, dst_bits)) is by
      construction, and any other map is checked once against
      h(z) = h(z - a) v h(a) for an atom a below each element z;
    - h(0) = 0, the atom images are pairwise disjoint and their union is
      the target's unit (so h keeps meets, complements and 1);
    - h(d(i,j)) = d(i,j) for every diagonal of a diagonal signature;
    - h(S_g a) = S_g h(a) for every atom a and generator g (Jonsson-Tarski:
      an additive operator on an atomic algebra is fixed by its atoms).

    A homomorphism is injective exactly when no atom image is zero.
    """
    gens = generators(source.n, source.mode)
    atoms = source.atoms()
    images = [h(a) for a in atoms]
    failures = []

    def record(kind, *args):
        if len(failures) < 10:
            failures.append((kind,) + args)

    if gather is None:
        imgs = {z: h(z) for z in source.elements()}
        for z, hz in imgs.items():
            below = next((a for a in atoms if source.meet(a, z) == a), None)
            if below is None:
                continue
            rest = imgs[source.meet(z, source.compl(below))]
            if hz != target.join(rest, imgs[below]):
                record("additive", z)
    if h(source.zero) != target.zero:
        record("zero")
    cover = atom_cover_report(target, images)
    if not cover["cover_disjoint"]:
        record("overlap")
    if not cover["cover_union_ok"]:
        record("cover")
    if has_diagonals(source.mode):
        for i in range(source.n):
            for j in range(source.n):
                if h(source.diag(i, j)) != target.diag(i, j):
                    record("diag", i, j)
    for a, ha in zip(atoms, images):
        for g in gens:
            if h(source.subst(g, a)) != target.subst(g, ha):
                record("subst", g.token(), a)
    homomorphism = not failures
    dead = [a for a, ha in zip(atoms, images) if ha == target.zero]
    for a in dead:
        record("atom-image-zero", a)
    report = {
        "method": "atom-certificate",
        "atoms_checked": len(atoms),
        "homomorphism": homomorphism,
        "injective": homomorphism and not dead,
        "injective_method": "atom-images-nonzero",
        "failures": failures,
    }
    report.update(cover)
    return report


def atom_cover_report(target, images):
    """Do the atom images partition the target unit?"""
    total = target.zero
    disjoint = True
    for hx in images:
        if target.meet(total, hx) != target.zero:
            disjoint = False
        total = target.join(total, hx)
    return {"atom_cover": total == target.one and disjoint,
            "cover_union_ok": total == target.one,
            "cover_disjoint": disjoint}


def edge_report(source, target, src_bits, dst_bits):
    """Certify the gather z ↦ {d : s ∈ z} of paired bits between two set
    algebras as a homomorphism, on the edges of the target's action.

    The gather is h(z) = {p : f(p) ∈ z} for the world map f that pairs
    each target point with a source world (only worlds of the source unit
    lie in an element).  It is a homomorphism exactly when f is a
    function on the whole target unit (the atom images partition it:
    atom_cover), f(p·g) = f(p)·g for every target point p and generator g
    (then h(S_g z) = {p : f(p·g) ∈ z} = S_g h(z)), and, in a diagonal
    signature, p ∈ d(i,j) ⇔ f(p) ∈ d(i,j).  It is injective exactly when
    f is onto the source unit, so that no atom image is zero.
    """
    f, failures = {}, []
    for s, d in zip(src_bits, dst_bits):
        if source.unit >> s & 1 and f.setdefault(d, s) != s:
            failures.append(("overlap", d))
    if points_mask(f) != target.unit:
        failures.append(("cover",))
    cover = not failures
    # a point outside the target unit has failed the cover already
    points = [p for p in f if target.unit >> p & 1]
    worlds = list(map(f.get, points))
    for g in cayley_graph(source.n, source.mode).gens:    # a cached tuple
        tact, sact = target.space.act(g), source.space.act(g)
        moved = [f.get(tact[p]) for p in points]
        if moved != [sact[w] for w in worlds]:
            failures.append(("action", g.token(), next(
                p for p, w, v in zip(points, worlds, moved) if sact[w] != v)))
    if has_diagonals(source.mode):
        for i in range(source.n):
            for j in range(i + 1, source.n):
                ds, dt = source.diag(i, j), target.diag(i, j)
                if any(dt >> p & 1 != ds >> w & 1
                       for p, w in zip(points, worlds)):
                    failures.append(("diag", i, j))
    missed = set(source.unit_points).difference(f.values())
    report = {"method": "edge-certificate", "atom_cover": cover,
              "homomorphism": not failures,
              "injective": not failures and not missed}
    if missed:
        failures.append(("atom-image-zero", min(missed)))
    report["failures"] = failures[:10]
    return report


@dataclass
class RepMap:
    """A map z ↦ {dst : src ∈ z} given by its gather (src_bits, dst_bits),
    with its certificate (`edge_report` unless given) and the target of
    each of its blocks (the target itself when it is over one square)."""
    source: object
    target: object
    gather: tuple                 # (src_bits, dst_bits)
    report: dict = None
    blocks: list = None

    def __post_init__(self):
        self.image = gather_map(*self.gather)
        if self.report is None:
            self.report = edge_report(self.source, self.target, *self.gather)
        if self.blocks is None:
            self.blocks = [self.target] if self.target.k is not None else []

    def to_json(self):
        """The report (with its failures, if any), the target one block
        at a time, the points of each source atom and the points of its
        image.  The atoms determine every other image: a homomorphism
        sends z to the union of the images of the atoms below z.  Blocks
        that are all one algebra are given as their number and that
        algebra's file."""
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
        images = {}
        for s, d in zip(*self.gather):
            images.setdefault(s, set()).add(d)
        data["atoms"] = [mask_points(x) for x in self.source.atoms()]
        data["atom_images"] = [
            sorted({d for p in pts for d in images.get(p, ())})
            for pts in data["atoms"]]
        return data


# A representation walks the unit and certifies one block per atom, each
# about |M|·|G| steps (frames.walk_steps) plus BLOCK_STEPS; the monoid's
# graph and the target's generator tables, built once, cost about one more
# |M|·|G|.  The total is at most REPRESENT_BUDGET: the full ⁵2 square
# (about 1 s) is within it, while ⁵3, 5⁵ and any n = 6 file are not.
BLOCK_STEPS = 200
REPRESENT_BUDGET = 35 * 10**5


@lru_cache(maxsize=None)
def monoid_points(n, mode):
    """The set algebra over the points of ⁿn that are maps of the mode's
    monoid, and those points in the order of monoid.cayley_graph: the
    target of every represent_at block, built once, tables and all."""
    pts = tuple(point_index(tau, n) for tau in cayley_graph(n, mode).maps)
    return ConcreteAlgebra(n, n, mode, unit=points_mask(pts)), pts


@lru_cache(maxsize=None)
def quotient_square(n, m):
    """The full-diagonal set algebra over ⁿm, the target of every
    diag_represent block with m classes, built once."""
    return small_algebra(n, m, "full_diagonal")


def represent_at(algebra, a):
    """The representation h(z) = {tau : s_tau(z) in F} at the principal
    ultrafilter of an atom below a, into the set algebra over the monoid's
    own points (the full ⁿn square in full mode): the point of tau goes to
    w·tau, w the atom's world."""
    w = lowest_bit(atom_below(algebra, a))
    orbit = action_tables(algebra.space, algebra.unit).orbit(w)
    target, pts = monoid_points(algebra.n, algebra.mode)
    rep = RepMap(algebra, target, (orbit, pts))
    id_pt = point_index(identity(algebra.n).map, algebra.n)
    rep.report["identity_in_image"] = bool(rep.image(a) >> id_pt & 1)
    return rep


def full_representation(algebra):
    """Product of one block per atom, represent_at or, in a diagonal
    signature, diag_represent: an injective homomorphism into stacked
    copies of one square ⁿK, K the largest base of a block, copy b holding
    block b's target.  A quotient block over ⁿm sits in its copy as the
    points whose coordinates are all below m, a closed unit of ⁿK on
    which the action and the diagonals are those of ⁿm.  A product of
    certified homomorphisms into stacked copies is a homomorphism, so the
    blocks' certificates are the product's."""
    if algebra.one == algebra.zero:
        raise ValueError("trivial algebra has no atoms to represent at")
    ats = algebra.atoms()
    n, mode = algebra.n, algebra.mode
    work = walk_steps(n, mode, len(ats) + 1) + BLOCK_STEPS * len(ats)
    if work > REPRESENT_BUDGET:
        raise ValueError("representing %d atoms (about %d steps) exceeds "
                         "budget %d" % (len(ats), work, REPRESENT_BUDGET))
    block = diag_represent if has_diagonals(mode) else represent_at
    reps = [block(algebra, x) for x in ats]
    base = max(r.target.k for r in reps)
    span = base**n
    unit = 0
    src, dst = [], []
    for idx, r in enumerate(reps):
        k, offset = r.target.k, idx * span
        if k == base:
            unit |= r.target.unit << offset
            dst.extend(d + offset for d in r.gather[1])
        else:
            place = {p: point_index(point_coords(p, n, k), base) + offset
                     for p in r.target.unit_points}
            unit |= points_mask(place.values())
            dst.extend(map(place.__getitem__, r.gather[1]))
        src.extend(r.gather[0])
    target = ConcreteAlgebra(n, base, mode, unit=unit)

    blocks = [r.report for r in reps]
    report = {
        "blocks": blocks,
        "homomorphism": all(b["homomorphism"] for b in blocks),
        "identity_in_image": all(b["identity_in_image"] for b in blocks),
        "atom_cover": all(b["atom_cover"] for b in blocks),
        "injective_method": "atom-blocks",
        "failures": [f for b in blocks if not b["homomorphism"]
                     for f in b["failures"]][:10],
    }
    # each atom lies in the image of its own block, so no atom image is zero
    report["injective"] = report["homomorphism"] and all(
        r.image(x) != 0 for r, x in zip(reps, ats))
    return RepMap(algebra, target, (src, dst), report=report,
                  blocks=[r.target for r in reps])


def complete_representation(algebra):
    """full_representation plus the completeness facts: atom images
    partition every copy, and each substitution is completely additive."""
    rep = full_representation(algebra)
    rep.report["complete"] = rep.report["atom_cover"]
    rep.report["completely_additive"] = check_complete_additivity(algebra)
    return rep


def check_complete_additivity(algebra):
    """s_g of a join of atoms equals the join of the s_g-images, for every
    generator and every element.  A set algebra has it by construction,
    each substitution being a preimage; any other handle is checked on
    every join of its atoms, which is every element of a finite algebra."""
    if isinstance(algebra, ComplexAlgebra):
        return True
    ats = algebra.atoms()
    if len(ats) > 20:
        raise ValueError("too many elements to check (2^%d)" % len(ats))
    for g in generators(algebra.n, algebra.mode):
        images = [algebra.subst(g, x) for x in ats]
        for bits in range(1 << len(ats)):
            z = total = algebra.zero
            for idx, (x, sx) in enumerate(zip(ats, images)):
                if bits >> idx & 1:
                    z = algebra.join(z, x)
                    total = algebra.join(total, sx)
            if total != algebra.subst(g, z):
                return False
    return True


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
    the gather of each atom's lowest bit to its world, certified by
    hom_report from the atom images, as the source may be any handle; for
    finite algebras this is a (complete) isomorphic copy."""
    frame, ats = atom_frame(algebra)
    ext = ComplexAlgebra(frame)
    gather = ([lowest_bit(x) for x in ats], list(range(len(ats))))
    report = hom_report(algebra, ext, gather_map(*gather), gather=gather)
    report["bijective"] = report["injective"] and algebra.size() == ext.size()
    return ext, RepMap(algebra, ext, gather, report)


def diag_represent(algebra, a):
    """Quotient representation of a diagonal algebra at an atom: indices i,j
    are merged when d(i,j) lies in the ultrafilter; the target is the full
    diagonal set algebra over ⁿm for m the number of merged blocks.  The
    point block∘tau of ⁿm goes to w·tau, w the atom's world, which must
    not depend on the choice of tau.  When the merging is not an
    equivalence or the quotient is not well defined, the report says so
    in its failures and the map is no homomorphism."""
    if not has_diagonals(algebra.mode):
        raise ValueError("diag_represent needs full_diagonal mode")
    atom = atom_below(algebra, a)
    n = algebra.n

    related = lambda i, j: algebra.meet(atom, algebra.diag(i, j)) == atom
    block_of = [-1] * n
    blocks = []
    for i in range(n):
        for b, members in enumerate(blocks):
            if related(members[0], i):
                block_of[i] = b
                members.append(i)
                break
        else:
            block_of[i] = len(blocks)
            blocks.append([i])
    # ∼ must be an equivalence for the quotient to exist
    failures = [("equivalence", i, j) for i in range(n) for j in range(n)
                if (block_of[i] == block_of[j]) != related(i, j)][:1]
    m = len(blocks)

    # well-definedness: all representatives of a quotient point must agree
    image, clashes = {}, []
    walk = action_tables(algebra.space, algebra.unit)
    orbit = walk.orbit(lowest_bit(atom))
    for tau, v in zip(cayley_graph(n, algebra.mode).maps, orbit):
        u, sigma = image.setdefault(
            point_index([block_of[x] for x in tau], m), (v, tau))
        if u != v:
            clashes.append(("well-defined", sigma, tau))
    failures += clashes[:1]

    target = quotient_square(n, m)
    dst_bits = sorted(image)
    rep = RepMap(algebra, target, ([image[p][0] for p in dst_bits], dst_bits))
    report = rep.report
    report["well_defined"] = not clashes
    if failures:
        report["failures"] = (failures + report["failures"])[:10]
        report["homomorphism"] = report["injective"] = False
    report["blocks"] = blocks
    report["identity_in_image"] = bool(
        rep.image(a) >> point_index(block_of, m) & 1)
    report["diag_onto"] = all(
        rep.image(algebra.diag(i, j)) == target.diag(i, j)
        for i in range(n) for j in range(n)
    )
    return rep


class SubMonoidCtx:
    """A composition-closed set of transformations and its bijective
    stabilizer G = {xi in S_n : xi∘sigma in T for all sigma in T}."""

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


def check_quasi(algebra, ctx):
    """Do the quasi-equations attached to ctx hold in the algebra?

    Two families: the stabilizer schemas (a zero meet of substituted
    variables stays zero under any xi in G), and the alternating forms
    s_f(x) = −x → 0 = 1 for f in G.  Both are decided exactly on the set
    algebra (any other handle is given through its canonical extension):
    coloring for the alternating forms, the coherence of the action for
    the schemas.  Every s_tau, tau in T, must exist in the algebra's
    signature; ValueError otherwise.
    """
    for tau in ctx.T:
        try:
            canonical_word(tau, algebra.mode)
        except NotGenerated as exc:
            raise ValueError("the quasi-equations need s_tau for every tau "
                             "in T: %s" % exc) from None
    if algebra.one != algebra.zero:
        for f in ctx.G:
            if special_quasi_witness(algebra, f) is not None:
                return False
    # a coherent action makes every stabilizer schema hold: pulling a world
    # back along act_xi turns a conclusion witness into a premise witness.
    # The point action of the square is a right action by definition; a
    # frame's is certified by its Cayley walk (frames.action_tables), which
    # the frame keeps, so a frame file checked on loading is not walked
    # again.
    return algebra.space.coherent()
