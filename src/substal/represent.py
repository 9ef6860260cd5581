"""Ultrafilter representations of finite substitution algebras.

Every ultrafilter of a finite algebra is principal, so representations are
driven by atoms: at an atom u, the map h(z) = {tau : s_tau(z) in F_u} lands
in the set algebra over the monoid's own points, and the per-atom maps
combine into an injective complete representation on stacked copies of
that square unit.

The engine acts on set algebras (setalg.ComplexAlgebra, over a frame or
the square) only.  There the atom of a world w lies below s_tau(z) exactly
when w·tau lies in z, so every map here is a bit gather read off the orbit
of w, its images under every tau along the breadth-first tree of
monoid.cayley_graph (setalg.orbit), and `hom_report` certifies it once,
exactly, from the images of the atoms alone.  Any other handle reaches the
engine through `canonical_extension`, Cm of its atom frame, whose
isomorphism is itself a gather: an element contains an atom exactly when
it contains the atom's lowest bit (Jónsson and Tarski: every finite
algebra is isomorphic to Cm of its atom frame).
"""

from dataclasses import dataclass, field

from .monoid import (
    NotGenerated,
    canonical_word,
    cayley_graph,
    generators,
    has_diagonals,
    identity,
)
from .setalg import (ComplexAlgebra, ConcreteAlgebra, algebra_to_json,
                     gather_map, lowest_bit, mask_points, orbit,
                     point_index, points_mask, small_algebra)
from .frames import atom_frame
from .terms import bijective_stabilizer, check_submonoid
from .gallery import alternating_coloring


def atom_below(algebra, a):
    """The atom of the lowest world of a non-zero element a."""
    if a == algebra.zero:
        raise ValueError("zero element has no atom below it")
    return a & -a


def hom_report(source, target, h, gather=None):
    """Certify h: source -> target as a homomorphism of the full signature.

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


@dataclass
class RepMap:
    """A map z ↦ {dst : src ∈ z} given by its gather (src_bits, dst_bits),
    with its certificate."""
    source: object
    target: object
    gather: tuple                 # (src_bits, dst_bits)
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        self.image = gather_map(*self.gather)

    def to_json(self):
        """The report, the target, the points of each source atom and the
        points of its image.  The atoms determine every other image: a
        homomorphism sends z to the union of the images of the atoms
        below z.  A target over c stacked squares is given as c blocks and
        the algebra file of the first."""
        data = {"report": {
            k: self.report.get(k)
            for k in ("homomorphism", "injective", "atom_cover")}}
        square = self.target.space
        if self.target.k is not None:       # a target over the square
            first = self.target.unit & (1 << square.k**square.n) - 1
            data["target"] = {"blocks": square.copies, "block": algebra_to_json(
                ConcreteAlgebra(square.n, square.k, square.mode, unit=first))}
        atoms = self.source.atoms()
        data["atoms"] = [mask_points(x) for x in atoms]
        data["atom_images"] = [mask_points(self.image(x)) for x in atoms]
        return data


def _certified(source, target, src_bits, dst_bits):
    """The gather src_bits → dst_bits as a RepMap, with its hom_report."""
    rep = RepMap(source, target, (list(src_bits), list(dst_bits)))
    rep.report = hom_report(source, target, rep.image, gather=rep.gather)
    return rep


def represent_at(algebra, a):
    """The representation h(z) = {tau : s_tau(z) in F} at the principal
    ultrafilter of an atom below a, into the set algebra over the monoid's
    own points (the full ⁿn square in full mode)."""
    atom = atom_below(algebra, a)
    n, mode = algebra.n, algebra.mode
    unit_pts = [point_index(tau, n) for tau in cayley_graph(n, mode).maps]
    target = ConcreteAlgebra(n, n, mode, unit=points_mask(unit_pts))
    rep = _certified(algebra, target, orbit(algebra.space, lowest_bit(atom)),
                     unit_pts)
    id_pt = point_index(identity(n).map, n)
    rep.report["identity_in_image"] = bool(rep.image(a) >> id_pt & 1)
    return rep


def full_representation(algebra):
    """Product of represent_at over every atom: an injective homomorphism
    into the set algebra over one copy of the monoid-point square per
    atom, the gather of every block side by side.  A product of certified
    homomorphisms into stacked copies is a homomorphism, so the blocks'
    certificates are the product's."""
    if algebra.one == algebra.zero:
        raise ValueError("trivial algebra has no atoms to represent at")
    ats = algebra.atoms()
    reps = [represent_at(algebra, x) for x in ats]
    block = reps[0].target
    span = block.num_points
    unit = 0
    src, dst = [], []
    for idx, r in enumerate(reps):
        unit |= block.unit << (idx * span)
        src.extend(r.gather[0])
        dst.extend(d + idx * span for d in r.gather[1])
    target = ConcreteAlgebra(block.n, block.k, block.mode, unit=unit)

    blocks = [r.report for r in reps]
    report = {
        "blocks": blocks,
        "homomorphism": all(b["homomorphism"] for b in blocks),
        "identity_in_image": all(b["identity_in_image"] for b in blocks),
        "atom_cover": all(b["atom_cover"] for b in blocks),
        "injective_method": "atom-blocks",
    }
    # each atom lies in the image of its own block, so no atom image is zero
    report["injective"] = report["homomorphism"] and all(
        r.image(x) != 0 for r, x in zip(reps, ats))
    return RepMap(algebra, target, (src, dst), report=report)


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
    the gather of each atom's lowest bit to its world; for finite algebras
    this is a (complete) isomorphic copy."""
    frame, ats = atom_frame(algebra)
    ext = ComplexAlgebra(frame)
    rep = _certified(algebra, ext, map(lowest_bit, ats), range(len(ats)))
    rep.report["bijective"] = (rep.report["injective"]
                               and algebra.size() == ext.size())
    return ext, rep


def diag_represent(algebra, a):
    """Quotient representation of a diagonal algebra at an atom: indices i,j
    are merged when d(i,j) lies in the ultrafilter; the target is the full
    diagonal set algebra over ⁿm for m the number of merged blocks."""
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
    for i in range(n):  # ∼ must be an equivalence for the quotient to exist
        for j in range(n):
            if (block_of[i] == block_of[j]) != related(i, j):
                raise ValueError(
                    "diagonal filter is not an equivalence at (%d,%d)" % (i, j))
    m = len(blocks)

    taus = cayley_graph(n, algebra.mode).maps
    acts = orbit(algebra.space, lowest_bit(atom))
    groups = {}
    for idx, tau in enumerate(taus):
        bar = point_index(tuple(block_of[v] for v in tau), m)
        groups.setdefault(bar, []).append(idx)

    # well-definedness: all representatives of a quotient point must agree
    witnesses = []
    for pt, idxs in groups.items():
        base = acts[idxs[0]]
        for idx in idxs[1:]:
            if acts[idx] != base:
                witnesses.append((taus[idxs[0]], taus[idx]))
    if witnesses:
        raise ValueError("quotient map not well defined; witness %r" % (witnesses[0],))

    target = small_algebra(n, m, "full_diagonal")
    dst_bits = sorted(groups)
    rep = _certified(algebra, target, [acts[groups[pt][0]] for pt in dst_bits],
                     dst_bits)
    rep.report["well_defined"] = True
    rep.report["blocks"] = blocks
    rep.report["diag_onto"] = all(
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
    # frame's action is certified on the edges of its Cayley graph.
    return algebra.space.coherent()
