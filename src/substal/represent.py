"""Ultrafilter representations of finite substitution algebras.

Every ultrafilter of a finite algebra is principal, so representations are
driven by atoms: at an atom u, the map h(z) = {tau : s_tau(z) in F_u} lands
in the set algebra over the monoid's own points, and the per-atom maps
combine into an injective complete representation on a disjoint union of
square units.  Every map is verified exactly by `hom_report`, from the
images of the atoms alone, at every size.
"""

import itertools
import random
from dataclasses import dataclass, field

from .monoid import (
    NotGenerated,
    canonical_word,
    compose,
    enumerate_monoid,
    generators,
    has_diagonals,
    identity,
)
from .setalg import (ConcreteAlgebra, mask_points, point_index, points_mask,
                     small_algebra)
from .frames import ComplexAlgebra, action_tables, atom_frame
from .terms import bijective_stabilizer, check_submonoid, quasi_axioms, eval_term
from .gallery import alternating_coloring


def atom_below(algebra, a):
    if a == algebra.zero:
        raise ValueError("zero element has no atom below it")
    if isinstance(algebra, (ConcreteAlgebra, ComplexAlgebra)):
        return a & -a
    for x in algebra.atoms():
        if algebra.meet(x, a) == x:
            return x
    raise ValueError("no atom below element %r" % (a,))


def _atom_world(algebra, atom):
    """Bit position of an atom in a frame- or point-backed algebra."""
    return atom.bit_length() - 1


def _source_acts(algebra, world, taus):
    """For frame/point-backed algebras: where the world moves under each tau."""
    if isinstance(algebra, ComplexAlgebra):
        return [algebra.frame.act_tau(tau)[world] for tau in taus]
    if isinstance(algebra, ConcreteAlgebra):
        return [algebra._table_for(tau)[world] for tau in taus]
    return None


def _gather_fn(src_bits, dst_bits):
    pairs = list(zip(src_bits, dst_bits))

    def h(z):
        out = 0
        for s, d in pairs:
            if z >> s & 1:
                out |= 1 << d
        return out

    return h


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
    source: object
    target: object
    image: object                 # callable element -> target element
    atom: object = None
    report: dict = field(default_factory=dict)
    gather: tuple = None          # (src_bits, dst_bits) when image is a gather

    def images_of_atoms(self):
        return [self.image(x) for x in self.source.atoms()]

    def to_json(self):
        """The report, the target, the points of each source atom and the
        points of its image.  The atoms determine every other image: a
        homomorphism sends z to the union of the images of the atoms
        below z."""
        data = {"report": {
            k: self.report.get(k)
            for k in ("homomorphism", "injective", "atom_cover")}}
        if hasattr(self.target, "to_json"):
            data["target"] = self.target.to_json()
        atoms = self.source.atoms()
        data["atoms"] = [mask_points(x) for x in atoms]
        data["atom_images"] = [mask_points(self.image(x)) for x in atoms]
        return data


def represent_at(algebra, a, rng=None):
    """The representation h(z) = {tau : s_tau(z) in F} at the principal
    ultrafilter of an atom below a, into the set algebra over the monoid's
    own points (the full ⁿn square in full mode).  rng is accepted and
    unused: the certificate is exact."""
    atom = atom_below(algebra, a)
    n, mode = algebra.n, algebra.mode
    taus = enumerate_monoid(n, mode)
    unit_pts = [point_index(tau.map, n) for tau in taus]
    target = ConcreteAlgebra(n, n, mode,
                             unit=points_mask(unit_pts), validate=False)

    world = None
    acts = None
    if isinstance(algebra, (ConcreteAlgebra, ComplexAlgebra)):
        world = _atom_world(algebra, atom)
        acts = _source_acts(algebra, world, taus)

    if acts is not None:
        gather = (acts, unit_pts)
        h = _gather_fn(*gather)
    else:
        gather = None

        def h(z):
            out = 0
            for tau, pt in zip(taus, unit_pts):
                if algebra.meet(atom, algebra.subst(tau, z)) == atom:
                    out |= 1 << pt
            return out

    report = hom_report(algebra, target, h, gather=gather)
    id_pt = point_index(identity(n).map, n)
    report["identity_in_image"] = bool(h(a) >> id_pt & 1)
    return RepMap(algebra, target, h, atom=atom, report=report, gather=gather)


class ProductAlgebra:
    """A finite product of equal-shaped concrete algebras, laid out as
    consecutive bit blocks (the set algebra over the disjoint union of
    the factors' units)."""

    def __init__(self, blocks):
        if not blocks:
            raise ValueError("need at least one block")
        b0 = blocks[0]
        if any((b.n, b.k, b.mode, b.unit) != (b0.n, b0.k, b0.mode, b0.unit)
               for b in blocks):
            raise ValueError("blocks must be identical copies")
        self.blocks = list(blocks)
        self.n = b0.n
        self.mode = b0.mode
        self.span = b0.num_points
        self.zero = 0
        self.one = 0
        for idx, b in enumerate(self.blocks):
            self.one |= b.unit << (idx * self.span)
        self.unit = self.one

    def _map_blocks(self, fn, *masks):
        out = 0
        span = self.span
        window = (1 << span) - 1
        for idx, b in enumerate(self.blocks):
            parts = [(m >> (idx * span)) & window for m in masks]
            out |= fn(b, *parts) << (idx * span)
        return out

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def compl(self, a):
        return self.one ^ a

    def subst(self, g, x):
        return self._map_blocks(lambda b, part: b.subst(g, part), x)

    def diag(self, i, j):
        return self._map_blocks(lambda b: b.diag(i, j))

    def size(self):
        per = len(self.blocks[0].unit_points)
        return 1 << (per * len(self.blocks))

    def atoms(self):
        out = []
        for idx, b in enumerate(self.blocks):
            out.extend(a << (idx * self.span) for a in b.atoms())
        return out

    def elements(self, limit=20):
        per = len(self.blocks[0].unit_points)
        if per * len(self.blocks) > limit:
            raise ValueError("too many elements to enumerate")
        parts = [b.elements() for b in self.blocks]
        out = []
        for combo in itertools.product(*parts):
            m = 0
            for idx, part in enumerate(combo):
                m |= part << (idx * self.span)
            out.append(m)
        return out

    def to_json(self):
        from .setalg import algebra_to_json

        return {"blocks": len(self.blocks), "block": algebra_to_json(self.blocks[0])}

    def __repr__(self):
        return "ProductAlgebra(%d copies of %r)" % (len(self.blocks), self.blocks[0])


def full_representation(algebra):
    """Product of represent_at over every atom: an injective homomorphism
    into one algebra over a disjoint union of monoid-point squares.  The
    product map is certified directly as well; it is a gather whenever
    every block is one."""
    if algebra.one == algebra.zero:
        raise ValueError("trivial algebra has no atoms to represent at")
    ats = algebra.atoms()
    reps = [represent_at(algebra, x) for x in ats]
    target = ProductAlgebra([r.target for r in reps])
    span = target.span

    if all(r.gather is not None for r in reps):
        src, dst = [], []
        for idx, r in enumerate(reps):
            src.extend(r.gather[0])
            dst.extend(d + idx * span for d in r.gather[1])
        gather = (src, dst)
        h = _gather_fn(src, dst)
    else:
        gather = None

        def h(z):
            out = 0
            for idx, r in enumerate(reps):
                out |= r.image(z) << (idx * span)
            return out

    direct = hom_report(algebra, target, h, gather=gather)
    id_pt = point_index(identity(algebra.n).map, algebra.n)
    report = {
        "blocks": [r.report for r in reps],
        "homomorphism": (all(r.report["homomorphism"] for r in reps)
                         and direct["homomorphism"]),
        "identity_in_image": all(r.image(x) >> id_pt & 1
                                 for r, x in zip(reps, ats)),
        "direct_check": direct["method"],
    }
    # each atom lies in the image of its own block, so no atom image is zero
    report["injective"] = report["homomorphism"] and all(
        r.image(x) != 0 for r, x in zip(reps, ats))
    report["injective_method"] = "atom-blocks"
    covers = [{key: r.report[key] for key in
               ("atom_cover", "cover_union_ok", "cover_disjoint")}
              for r in reps]
    report["atom_cover"] = all(c["atom_cover"] for c in covers)
    report["covers"] = covers
    return RepMap(algebra, target, h, atom=None, report=report, gather=gather)


def complete_representation(algebra, rng=None):
    """full_representation plus the completeness facts: atom images
    partition every copy, and each substitution is completely additive
    (spot-checked on elements drawn from rng)."""
    rep = full_representation(algebra)
    rep.report["complete"] = rep.report["atom_cover"]
    rep.report["completely_additive"] = check_complete_additivity(algebra,
                                                                  rng=rng)
    return rep


def check_complete_additivity(algebra, sample=32, rng=None):
    """s_g of a join of atoms equals the join of the s_g-images (finite
    complete additivity, checked on the unit and sampled elements)."""
    rng = rng or random.Random(0)
    ats = algebra.atoms()
    gens = generators(algebra.n, algebra.mode)
    tests = [algebra.one]
    for _ in range(sample):
        tests.append(algebra.random_element(rng))
    for z in tests:
        parts = [x for x in ats if algebra.meet(x, z) == x]
        for g in gens:
            total = algebra.zero
            for x in parts:
                total = algebra.join(total, algebra.subst(g, x))
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


def canonical_extension(algebra, rng=None):
    """Cm(atom frame) with the natural isomorphism z ↦ {atoms below z};
    for finite algebras this is a (complete) isomorphic copy.  rng is
    accepted and unused."""
    frame, ats = atom_frame(algebra)
    ext = ComplexAlgebra(frame)
    positions = None
    if isinstance(algebra, (ConcreteAlgebra, ComplexAlgebra)):
        positions = [a.bit_length() - 1 for a in ats]

    if positions is not None:
        gather = (positions, list(range(len(ats))))
        iso = _gather_fn(*gather)
    else:
        gather = None

        def iso(z):
            out = 0
            for w, x in enumerate(ats):
                if algebra.meet(x, z) == x:
                    out |= 1 << w
            return out

    report = hom_report(algebra, ext, iso, gather=gather)
    report["bijective"] = report["injective"] and algebra.size() == ext.size()
    rep = RepMap(algebra, ext, iso, atom=None, report=report, gather=gather)
    return ext, rep


def diag_represent(algebra, a, rng=None):
    """Quotient representation of a diagonal algebra at an atom: indices i,j
    are merged when d(i,j) lies in the ultrafilter; the target is the full
    diagonal set algebra over ⁿm for m the number of merged blocks.  rng is
    accepted and unused."""
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

    taus = enumerate_monoid(n, algebra.mode)
    world = None
    if isinstance(algebra, (ConcreteAlgebra, ComplexAlgebra)):
        world = _atom_world(algebra, atom)
        acts = _source_acts(algebra, world, taus)
    else:
        acts = None

    def bar(tau):
        return point_index(tuple(block_of[v] for v in tau.map), m)

    groups = {}
    for idx, tau in enumerate(taus):
        groups.setdefault(bar(tau), []).append(idx)

    # well-definedness: all representatives of a quotient point must agree
    witnesses = []
    if acts is not None:
        for pt, idxs in groups.items():
            base = acts[idxs[0]]
            for idx in idxs[1:]:
                if acts[idx] != base:
                    witnesses.append((taus[idxs[0]], taus[idx]))
    else:
        els = algebra.elements()
        for pt, idxs in groups.items():
            t0 = taus[idxs[0]]
            for idx in idxs[1:]:
                t1 = taus[idx]
                for z in els:
                    in0 = algebra.meet(atom, algebra.subst(t0, z)) == atom
                    in1 = algebra.meet(atom, algebra.subst(t1, z)) == atom
                    if in0 != in1:
                        witnesses.append((t0, t1))
                        break
    if witnesses:
        raise ValueError("quotient map not well defined; witness %r" % (witnesses[0],))

    target = small_algebra(n, m, "full_diagonal")
    dst_bits = sorted(groups)
    if acts is not None:
        src_bits = [acts[groups[pt][0]] for pt in dst_bits]
        gather = (src_bits, dst_bits)
        f = _gather_fn(*gather)
    else:
        gather = None
        reps = {pt: taus[groups[pt][0]] for pt in dst_bits}

        def f(z):
            out = 0
            for pt in dst_bits:
                if algebra.meet(atom, algebra.subst(reps[pt], z)) == atom:
                    out |= 1 << pt
            return out

    report = hom_report(algebra, target, f, gather=gather)
    report["well_defined"] = True
    report["blocks"] = blocks
    diag_ok = all(
        f(algebra.diag(i, j)) == target.diag(i, j)
        for i in range(n) for j in range(n)
    )
    report["diag_onto"] = diag_ok
    return RepMap(algebra, target, f, atom=atom, report=report, gather=gather)


class SubMonoidCtx:
    """A composition-closed set of transformations and its bijective
    stabilizer G = {xi in S_n : xi∘sigma in T for all sigma in T}."""

    def __init__(self, n, T):
        self.n = n
        self.T = check_submonoid(n, T)
        self.G = bijective_stabilizer(n, self.T)


def _step_table(algebra, f):
    """Point/world map of s_f on a frame- or point-backed algebra."""
    if isinstance(algebra, ConcreteAlgebra):
        tab = algebra._table_for(f)
        return algebra.unit_points, {p: tab[p] for p in algebra.unit_points}
    if isinstance(algebra, ComplexAlgebra):
        tab = algebra.frame.act_tau(f)
        worlds = list(range(algebra.num_worlds))
        return worlds, {w: tab[w] for w in worlds}
    return None


def special_quasi_witness(algebra, f):
    """An element X with s_f(X) = −X in a concrete algebra, or None.

    Found by alternating 2-coloring along the cycles of the point map
    q ↦ q∘f (f must act bijectively); exact, no search."""
    stepped = _step_table(algebra, f)
    if stepped is None:
        raise ValueError("needs a frame- or point-backed algebra")
    worlds, step = stepped
    chosen, obstruction = alternating_coloring(worlds, lambda w: step[w])
    if chosen is None:
        return None
    mask = points_mask(chosen)
    assert algebra.subst(f, mask) == algebra.compl(mask)
    return mask


def check_quasi(algebra, ctx, budget=10**6):
    """Do the quasi-equations attached to ctx hold in the algebra?

    Two families: the stabilizer schemas (a zero meet of substituted
    variables stays zero under any xi in G), and the alternating forms
    s_f(x) = −x → 0 = 1 for f in G.  On frame/point-backed algebras both
    are decided exactly without exhaustive search (coloring for the
    alternating form; the coherence of the action for the schemas).  Other
    handles are checked by exhaustive assignment within budget.  Every
    s_tau, tau in T, must exist in the algebra's signature; ValueError
    otherwise.
    """
    n = algebra.n
    for tau in ctx.T:
        try:
            canonical_word(tau, algebra.mode)
        except NotGenerated as exc:
            raise ValueError("the quasi-equations need s_tau for every tau "
                             "in T: %s" % exc) from None
    trivial = algebra.one == algebra.zero
    concrete = isinstance(algebra, (ConcreteAlgebra, ComplexAlgebra))

    for f in ctx.G:
        if trivial:
            continue
        if concrete:
            if special_quasi_witness(algebra, f) is not None:
                return False
        else:
            els = algebra.elements()
            if len(els) > budget:
                raise ValueError("budget exceeded")
            for x in els:
                if algebra.subst(f, x) == algebra.compl(x):
                    return False

    if concrete:
        # a coherent action makes every stabilizer schema hold: pulling a
        # world back along act_xi turns a conclusion witness into a premise
        # witness.  The point action q.tau of a set algebra is a right
        # action by definition; a frame's action is certified on the edges
        # of its Cayley graph.
        if isinstance(algebra, ConcreteAlgebra):
            return True
        _, failures, _ = action_tables(algebra.frame, max_failures=1)
        return not failures

    els = algebra.elements()
    for quasi in quasi_axioms(n, ctx.T):
        nvars = len(ctx.T)
        if len(els) ** nvars > budget:
            raise ValueError("budget exceeded")
        for choice in itertools.product(els, repeat=nvars):
            asg = dict(enumerate(choice))
            premise = all(
                eval_term(algebra, p.lhs, asg) == eval_term(algebra, p.rhs, asg)
                for p in quasi.premises
            )
            if premise and eval_term(algebra, quasi.conclusion.lhs, asg) != \
                    eval_term(algebra, quasi.conclusion.rhs, asg):
                return False
    return True


@dataclass
class XiFilter:
    kind: str
    members: frozenset
    min_element: object
    proper: bool
    contained_in_base: object = None


def f_xi_filter(algebra, atom, xi, ctx, element_limit=16):
    """The shifted filter F_xi at a principal ultrafilter (experimental).

    xi outside G: the preimage {a : s_xi(a) in F} (always an ultrafilter).
    xi in G: the filter generated by products over sigma in T of
    s_{xi∘sigma}(a_sigma) with every factor in F; improper output signals a
    quasi-schema failure."""
    els = algebra.elements(limit=element_limit)
    in_F = lambda z: algebra.meet(atom, z) == atom

    if xi in set(ctx.G):
        mins = []
        for sigma in ctx.T:
            shifted = compose(xi, sigma)
            acc = algebra.one
            for z in els:
                sz = algebra.subst(shifted, z)
                if in_F(sz):
                    acc = algebra.meet(acc, sz)
            mins.append(acc)
        m = algebra.one
        for v in mins:
            m = algebra.meet(m, v)
        members = frozenset(z for z in els if algebra.meet(m, z) == m)
        proper = m != algebra.zero
        contained = None
        if xi == identity(algebra.n):
            contained = all(in_F(z) for z in members)
        return XiFilter("generated", members, m, proper, contained)

    members = frozenset(z for z in els if in_F(algebra.subst(xi, z)))
    proper = algebra.zero not in members
    # preimage of an ultrafilter under a homomorphism: verify filter laws
    ok = algebra.one in members and proper
    for x in members:
        for y in members:
            if algebra.meet(x, y) not in members:
                ok = False
    for x in members:
        for z in els:
            if algebra.meet(x, z) == x and z not in members:
                ok = False
    return XiFilter("preimage", members, None, proper and ok, None)
