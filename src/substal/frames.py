"""Action frames: finite world sets carrying a right action of the
substitution monoid, plus the complex-algebra / atom-frame duality.

The action of a composite runs factors left to right over worlds (the
anti-homomorphism dual to the right point action): the table of sigma∘tau
sends w to table_tau[table_sigma[w]].  A Frame is one of the two spaces of
setalg.ComplexAlgebra (the square ⁿk is the other): Cm(F) = ComplexAlgebra(F)
is every subset of its worlds, with substitution by action preimage,
S_g(X) = {w : act_g(w) in X}.  A frame holds one table per generator; the
table of any other element is folded from them (setalg.fold_tables).
Whether that fold depends on the word is a frame's question (a square's
point action is a right action by definition).  The generator tables
extend to a right action exactly when they satisfy a set of defining
relations of the monoid, so `relations_hold` checks the word pairs of
monoid.relations on them, one table step per letter.  A failing pair is
an exact FAIL in every mode; a PASS is exact where monoid.presented
proves those pairs a presentation.  Elsewhere, and to list where an
action fails, row_certificate steps each distinct table by each
generator once and checks each generator's whole row of Cayley edges in
one comparison of table numbers.  The frame keeps both results
(frame_check, Frame.coherent).  action_tables walks monoid.cayley_graph
once per space and unit, on either kind of space, and the space keeps
the walk: every element's world table, numbered along the graph's
breadth-first tree, which gives the orbit of every world, with the
table index and the generator moves that made it.  One stepper
(`_stepper`: a bytes translate while every world fits a byte, else a
tuple gather) serves the relation check, the walk and the row
certificate, which looks its stepped tables up in the walk's index and
never adds to the walk.  A coherent action makes every orbit map of
represent equivariant.  point_frame is the square's generator tables
written out.
"""

import random
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import islice

from .monoid import (
    DIM_LIMIT,
    RELATION_WORD_LIMIT,
    Record,
    cayley_graph,
    generators,
    gensym_from_token,
    has_diagonals,
    monoid_size,
    normalize_mode,
    presented,
    relations,
)
from .setalg import (FAILURES_KEPT, ComplexAlgebra, Square, fold_tables,
                     gather_map, json_int, json_ints, lowest_bit, mask_points,
                     morphism_report, points_mask)


class Frame:
    """A space of worlds 0..num_worlds-1 with a table per generator and,
    in a diagonal mode, the worlds of each diagonal d(i,j)."""

    def __init__(self, n, mode, num_worlds, action, diag=None):
        self.n = n
        self.mode = normalize_mode(mode)
        self.num_worlds = num_worlds
        self.action = {}
        needed = generators(n, self.mode)
        for g in needed:
            if g not in action:
                raise ValueError("frame action is missing %s" % g.token())
            tab = tuple(action[g])
            if len(tab) != num_worlds or tab and not (
                    0 <= min(tab) and max(tab) < num_worlds):
                raise ValueError("bad action table for %s" % g.token())
            self.action[g] = tab
        self.walks = {}       # unit -> its ActionWalk (action_tables)
        self.diag = None
        if has_diagonals(self.mode):
            self.diag = {}
            diag = diag or {}
            norm = {}
            for (i, j), mask in diag.items():
                if i == j:
                    continue
                key = (min(i, j), max(i, j))
                if key in norm and norm[key] != mask:
                    raise ValueError("conflicting diagonal markings for %r" % (key,))
                norm[key] = mask
            for i in range(n):
                for j in range(i + 1, n):
                    if (i, j) not in norm:
                        raise ValueError("missing diagonal marking d(%d,%d)" % (i, j))
                    self.diag[(i, j)] = norm[(i, j)]

    def act(self, g):
        return self.action[g]

    def preimage(self, g, x):
        """{w : act_g(w) in x}, g a generator symbol or a monoid element."""
        tab = fold_tables(self, g, range(self.num_worlds))
        return points_mask(w for w, v in enumerate(tab) if x >> v & 1)

    @cached_property
    def certificate(self):
        """The frame's `row_certificate`, computed once: (failures,
        edges checked)."""
        return row_certificate(self)

    @cached_property
    def relation_verdict(self):
        """What the word pairs of monoid.relations decide, computed once:
        True when every pair holds on the generator tables and the pairs
        present the monoid (monoid.presented), False when a pair fails,
        which is exact in every mode, for both words of a pair name one
        element, and None when they decide nothing: every pair holds in
        a mode or dimension they are not proved to present, or the check,
        one table step per letter and world, would exceed
        COHERENCE_BUDGET."""
        rels = relations(self.n, self.mode)
        worlds = max(self.num_worlds, 1)
        # a pair has at most twice RELATION_WORD_LIMIT letters, so they are
        # counted only when that bound passes the budget
        letters = 2 * RELATION_WORD_LIMIT * len(rels)
        if letters * worlds > COHERENCE_BUDGET:
            letters = sum(len(left) + len(right) for _, _, left, right in rels)
            if letters * worlds > COHERENCE_BUDGET:
                return None
        if not relations_hold(self, rels):
            return False
        return True if presented(self.n, self.mode) else None

    def coherent(self):
        """Is the generated action a right action?  The word pairs decide
        where they can (`relation_verdict`), the row certificate
        elsewhere."""
        verdict = self.relation_verdict
        return not self.certificate[0] if verdict is None else verdict

    def diag_mask(self, i, j):
        if self.diag is None:
            raise ValueError("frame has no diagonal markings")
        if i == j:
            return (1 << self.num_worlds) - 1
        return self.diag[(min(i, j), max(i, j))]

    def __repr__(self):
        return "Frame(n=%d, mode=%s, worlds=%d)" % (self.n, self.mode, self.num_worlds)


# The row certificate moves each world along each Cayley edge at most
# once, the relation check along each letter of each word pair once; each
# runs only within this many world moves.
COHERENCE_BUDGET = 2 * 10**6


def _stepper(space, gens):
    """(pack, moves, step) for the world tables of a space: pack makes a
    table of a sequence of worlds, and step(table, moves[g]) is that table
    followed by the g-th of `gens`.  While every world fits a byte a table
    is bytes and a step one translate, else a tuple and a step one
    gather."""
    gtabs = [space.act(g) for g in gens]
    if space.num_worlds <= 256:
        return (bytes, [bytes(tab).ljust(256, b"\0") for tab in gtabs],
                bytes.translate)
    return tuple, gtabs, lambda tab, gtab: tuple(map(gtab.__getitem__, tab))


def relations_hold(frame, rels):
    """Does every word pair of `rels` (monoid.relations) give one world
    table on the frame?  A word's table is the identity table stepped by
    each of its letters in turn, whatever its length."""
    pack, moves, step = _stepper(frame, generators(frame.n, frame.mode))
    identity = pack(range(frame.num_worlds))
    for _, _, left, right in rels:
        a = b = identity
        for g in left:
            a = step(a, moves[g])
        for g in right:
            b = step(b, moves[g])
        if a != b:
            return False
    return True


class ActionWalk(namedtuple("ActionWalk",
                            "worlds tables number index moves step")):
    """The unit's worlds in order, each distinct world table over them
    (`_stepper`'s tables), the number of every element's table (in the
    order of monoid.cayley_graph), the number of each table (index), and
    the generator moves and step that made them."""

    def orbit(self, w):
        """w·tau for every element tau, w a world of the unit."""
        i = bisect_left(self.worlds, w)
        column = [tab[i] for tab in self.tables]
        return list(map(column.__getitem__, self.number))


def action_tables(space, unit=None):
    """The world tables of every element of the monoid on a space, a
    `Frame` or a `setalg.Square`, restricted to a unit of its worlds (all
    of them by default).  It runs once per space and unit; the space
    keeps the result, and nothing changes it after.

    Every element's table is numbered along the breadth-first tree of
    monoid.cayley_graph: element t gets the table of parent[t] followed
    by generator via[t], each distinct table interned and each (table,
    generator) step on the tree built once.  That is |M| − 1 steps at
    most.  The tables are the fold of the generator tables along one
    word per element; they are the action of the element when the action
    is coherent (a square, or a frame whose `row_certificate` finds no
    failure), and then the orbit of every world is read off them."""
    if unit is None:
        unit = (1 << space.num_worlds) - 1
    walk = space.walks.get(unit)
    if walk is not None:
        return walk
    worlds = tuple(mask_points(unit))
    graph = cayley_graph(space.n, space.mode)
    pack, moves, step = _stepper(space, graph.gens)
    tables = [pack(worlds)]
    index = {tables[0]: 0}
    # a parent precedes its children in the walk order, so its table is
    # numbered first
    number, on_tree, width = [0], {}, len(moves)
    for parent, g in islice(zip(graph.parent, graph.via), 1, None):
        a = number[parent]
        b = on_tree.get(a * width + g)
        if b is None:
            derived = step(tables[a], moves[g])
            b = on_tree[a * width + g] = index.setdefault(derived, len(tables))
            if b == len(tables):
                tables.append(derived)
        number.append(b)
    walk = space.walks[unit] = ActionWalk(worlds, tables, number, index,
                                          moves, step)
    return walk


def row_certificate(frame):
    """The first FAILURES_KEPT coherence failures of a frame's action in
    the (tau, g) order of the Cayley graph's edges, and the edges checked
    up to the last of them, or all edges.

    Each table of the frame's walk (`action_tables`) is stepped by each
    generator once and looked up in the walk's index; a table the index
    lacks is no element's table, so every edge it stands for fails.  The
    edge tau -> tau∘g is coherent when the number of tau∘g's table is the
    number of tau's table stepped by g, so a generator's whole row of
    edges is certified by one comparison of two lists of table numbers.
    Only a row that disagrees makes it look at single edges, stepping a
    table again to name the world of a failure, and it stops at the
    FAILURES_KEPT-th failure.  The walk is only read.  When no edge
    disagrees, act(sigma∘tau) = act(sigma) followed by act(tau) for every
    pair, by induction on the length of tau's word."""
    walk = action_tables(frame)
    graph = cayley_graph(frame.n, frame.mode)
    number, tables, width = walk.number, walk.tables, len(graph.gens)
    step, missing = walk.step, len(tables)
    rows = [(sym, row, move, [walk.index.get(step(tab, move), missing)
                              for tab in tables])
            for sym, row, move in zip(graph.gens, graph.edges, walk.moves)]
    edges = len(number) * width
    if all(list(map(number.__getitem__, row)) == list(
            map(by_g.__getitem__, number)) for _, row, _, by_g in rows):
        return [], edges
    failures = []
    for t, a in enumerate(number):
        for g, (sym, row, move, by_g) in enumerate(rows):
            u = number[row[t]]
            if u == by_g[a]:
                continue
            i = next(i for i, (x, y) in enumerate(
                zip(tables[u], step(tables[a], move))) if x != y)
            failures.append(("coherence", graph.maps[t], sym.token(),
                             walk.worlds[i]))
            if len(failures) == FAILURES_KEPT:
                return failures, t * width + g + 1
    return failures, edges


class FrameReport(Record):
    __slots__ = _fields = ("ok", "failures", "pairs_checked")

    def __init__(self, ok, failures, pairs_checked):
        self.ok = ok
        self.failures = failures
        self.pairs_checked = pairs_checked    # Cayley edges (tau, g) certified


def frame_check(frame, listing=True):
    """Semantic coherence: the generated action must be a genuine right
    action (`Frame.relation_verdict`, else `row_certificate`), and
    diagonal markings must satisfy their correspondents.  A frame the word
    pairs pass certifies all |M|·|G| Cayley edges without a walk.  A
    failing frame lists its first FAILURES_KEPT failures from the row
    certificate, which walks at most COHERENCE_BUDGET world moves; with
    `listing` False it lists none (failures empty, no edge checked) when
    a word pair already fails."""
    n, mode = frame.n, frame.mode
    verdict = frame.relation_verdict
    if verdict is False and not listing:
        return FrameReport(False, [], 0)
    if verdict:
        failures, edges = [], monoid_size(n, mode) * len(generators(n, mode))
    else:
        work = monoid_size(n, mode) * len(generators(n, mode)) * max(
            frame.num_worlds, 1)
        if work > COHERENCE_BUDGET:
            raise ValueError("the action walk (%d steps) exceeds budget %d"
                             % (work, COHERENCE_BUDGET))
        failures, edges = frame.certificate
    failures = list(failures)
    if frame.diag is not None and len(failures) < FAILURES_KEPT:
        for i in range(n):
            for j in range(n):
                dij = frame.diag_mask(i, j)
                for k in range(n):
                    both = frame.diag_mask(i, k) & frame.diag_mask(k, j)
                    if both & ~dij:
                        failures.append(("diag-chain", i, k, j))
        for g in generators(n, mode):
            gt = g.tr(n)
            for i in range(n):
                for j in range(i, n):
                    pre = frame.preimage(g, frame.diag_mask(i, j))
                    if pre != frame.diag_mask(gt[i], gt[j]):
                        failures.append(("diag-subst", g.token(), i, j))
        failures = failures[:FAILURES_KEPT]
    return FrameReport(not failures, failures, edges)


def point_frame(n, k, mode="full"):
    """The frame of all points of ⁿk under the right generator action:
    the tables and diagonals of the square space (setalg.Square), world p
    being the point whose coordinate i is the base-k digit i of p."""
    square = Square(n, k, mode)
    action = {g: square.act(g) for g in generators(n, square.mode)}
    diag = None
    if has_diagonals(square.mode):
        diag = {(i, j): square.diag_mask(i, j)
                for i in range(n) for j in range(i + 1, n)}
    return Frame(n, square.mode, square.num_worlds, action, diag)


def atom_frame(algebra):
    """The dual frame on the atoms: act_g(x) is the unique atom y with
    x ≤ s_g(y).  Returns (frame, atoms in world order)."""
    ats = algebra.atoms()
    idx = {a: i for i, a in enumerate(ats)}
    action = {}
    for g in generators(algebra.n, algebra.mode):
        tab = []
        for x in ats:
            hits = [y for y in ats if algebra.meet(x, algebra.subst(g, y)) == x]
            if len(hits) != 1:
                raise ValueError(
                    "atom action not functional under %s (%d candidates)"
                    % (g.token(), len(hits))
                )
            tab.append(idx[hits[0]])
        action[g] = tuple(tab)
    diag = None
    if has_diagonals(algebra.mode):
        diag = {}
        for i in range(algebra.n):
            for j in range(i + 1, algebra.n):
                dij = algebra.diag(i, j)
                mask = 0
                for w, x in enumerate(ats):
                    if algebra.meet(x, dij) == x:
                        mask |= 1 << w
                diag[(i, j)] = mask
    return Frame(algebra.n, algebra.mode, len(ats), action, diag), ats


def disjoint_union(frames):
    """One frame on the tagged union of worlds; returns (frame, offsets)."""
    if not frames:
        raise ValueError("need at least one frame")
    n, mode = frames[0].n, frames[0].mode
    if any(f.n != n or f.mode != mode for f in frames):
        raise ValueError("frames must share dimension and mode")
    offsets = []
    total = 0
    for f in frames:
        offsets.append(total)
        total += f.num_worlds
    action = {}
    for g in generators(n, mode):
        tab = []
        for f, off in zip(frames, offsets):
            tab.extend(off + w for w in f.act(g))
        action[g] = tuple(tab)
    diag = None
    if has_diagonals(mode):
        diag = {}
        for i in range(n):
            for j in range(i + 1, n):
                mask = 0
                for f, off in zip(frames, offsets):
                    mask |= f.diag_mask(i, j) << off
                diag[(i, j)] = mask
    return Frame(n, mode, total, action, diag), offsets


def insep_zigzag(frame_b, frame_c, label_b, label_c):
    """The pullback frame: worlds are pairs (u, v) with matching labels,
    action coordinatewise.  Returns (frame, world pairs).  Raises if the
    pair set is not closed under the action (the labels were not dual maps
    over a common base)."""
    n, mode = frame_b.n, frame_b.mode
    if frame_c.n != n or frame_c.mode != mode:
        raise ValueError("frames must share dimension and mode")
    worlds = [
        (u, v)
        for u in range(frame_b.num_worlds)
        for v in range(frame_c.num_worlds)
        if label_b[u] == label_c[v]
    ]
    index = {uv: w for w, uv in enumerate(worlds)}
    action = {}
    for g in generators(n, mode):
        tb, tc = frame_b.act(g), frame_c.act(g)
        tab = []
        for u, v in worlds:
            img = (tb[u], tc[v])
            if img not in index:
                raise ValueError(
                    "pair set not closed under %s at %r" % (g.token(), (u, v))
                )
            tab.append(index[img])
        action[g] = tuple(tab)
    return Frame(n, mode, len(worlds), action), worlds


def _dual_atom_map(sub_atoms, big, embed):
    """For each atom u of `big`, the index of the unique atom a among
    `sub_atoms` with u ≤ embed(a)."""
    images = [embed(a) for a in sub_atoms]
    out = []
    for u in big.atoms():
        hits = [idx for idx, image in enumerate(images)
                if big.meet(u, image) == u]
        if len(hits) != 1:
            raise ValueError("not an embedding: atom %r lies under %d images"
                             % (u, len(hits)))
        out.append(hits[0])
    return out


def superamalgam(A, B, C, f, h):
    """Amalgamate B and C over their common subalgebra A.

    f: A→B and h: A→C must be injective homomorphisms.  Each is verified
    as its dual world map At B → At A (setalg.morphism_report on the atom
    frames), and f(z) must be the join of the atoms of B sent below z for
    every z in A.  The amalgam D is the complex algebra of the pullback
    of the dual atom maps At B → At A ← At C, with m(b) = {(u,v) : u ≤ b}
    and k(c) symmetric, whose world maps (u,v) ↦ u and (u,v) ↦ v are
    certified the same way.  Returns (D, m, k, report); the report
    carries the commuting square, injectivity, and the
    order-interpolation biconditional m(b) ≤ k(c) ⇔ ∃a: b ≤ f(a) and
    h(a) ≤ c over every pair.
    """
    frame_a, atoms_a = atom_frame(A)
    cm_a = ComplexAlgebra(frame_a)
    a_els = A.elements()
    sides = []
    for name, side, embed in (("f", B, f), ("h", C, h)):
        frame, atoms = atom_frame(side)
        label = _dual_atom_map(atoms_a, side, embed)
        cm = ComplexAlgebra(frame)
        failures = morphism_report(cm_a, cm, dict(enumerate(label)))["failures"]
        images = [side.zero] * len(atoms_a)
        for u, a in zip(atoms, label):
            images[a] |= u
        for z in a_els:
            joined = side.zero
            for x, image in zip(atoms_a, images):
                if A.meet(x, z) == x:
                    joined |= image
            if embed(z) != joined:
                failures.append(("additive", z))
        if failures:
            raise ValueError("%s is not an embedding: %r"
                             % (name, failures[:3]))
        sides.append((cm, atoms, label))

    (cm_b, atoms_b, label_b), (cm_c, atoms_c, label_c) = sides
    frame_d, pairs = insep_zigzag(cm_b.space, cm_c.space, label_b, label_c)
    D = ComplexAlgebra(frame_d)

    # b contains the atom u exactly when it contains u's lowest bit
    worlds = range(len(pairs))
    m = gather_map([lowest_bit(atoms_b[u]) for u, _ in pairs], worlds)
    k = gather_map([lowest_bit(atoms_c[v]) for _, v in pairs], worlds)

    report = {"worlds": len(pairs), "failures": []}
    report["square_commutes"] = all(m(f(z)) == k(h(z)) for z in a_els)

    m_check = morphism_report(cm_b, D, dict(enumerate(u for u, _ in pairs)))
    k_check = morphism_report(cm_c, D, dict(enumerate(v for _, v in pairs)))
    report["m_homomorphism"] = m_check["homomorphism"]
    report["k_homomorphism"] = k_check["homomorphism"]
    report["m_injective"] = m_check["injective"]
    report["k_injective"] = k_check["injective"]
    report["failures"].extend(m_check["failures"][:3] + k_check["failures"][:3])

    f_imgs = [(f(z), h(z)) for z in a_els]
    supap = True
    pairs_checked = 0
    for b in B.elements():
        mb = m(b)
        for c in C.elements():
            kc = k(c)
            pairs_checked += 1
            below = (mb & ~kc) == 0
            witnessed = any(
                B.meet(b, fa) == b and C.meet(ha, c) == ha
                for fa, ha in f_imgs
            )
            if below != witnessed:
                supap = False
                if len(report["failures"]) < 10:
                    report["failures"].append(("interpolation", b, c))
    report["supap"] = supap
    report["pairs_checked"] = pairs_checked
    report["pass"] = (report["square_commutes"] and supap
                      and report["m_injective"] and report["k_injective"])
    return D, m, k, report


def random_coherent_frame(n, mode="full", max_worlds=8, rng=None):
    """A random quotient of (a disjoint union of copies of) the monoid's
    regular right action — coherent by construction.  The pieces share
    max_worlds worlds, and each is merged down to its drawn size without
    falling below two worlds where it can, so that most frames have
    several worlds on which the generators act apart."""
    mode = normalize_mode(mode)
    if has_diagonals(mode):
        raise ValueError("random diagonal frames are not supported")
    rng = rng or random.Random()
    graph = cayley_graph(n, mode)
    pieces = []
    worlds_left = max_worlds
    while worlds_left > 0:
        target = rng.randint(min(2, worlds_left), worlds_left)
        pieces.append(_quotient_of_regular(graph, n, mode, target, rng))
        worlds_left -= pieces[-1].num_worlds
        if rng.random() < 0.5:
            break
    frame, _ = disjoint_union(pieces)
    perm = list(range(frame.num_worlds))
    rng.shuffle(perm)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    action = {g: tuple(perm[frame.act(g)[w]] for w in inverse)
              for g in generators(n, mode)}
    return Frame(n, mode, frame.num_worlds, action)


def _quotient_of_regular(graph, n, mode, target_classes, rng):
    """A random quotient of the right regular action with at most
    target_classes classes, whose generator tables are the Cayley graph's
    edge rows.  Each step merges a random pair and closes the merge under
    the action.  The pair is drawn from two classes, and where the
    target allows two classes, a step that would leave fewer is drawn
    again, at most max(|M|, 32) times in a row."""
    gtabs = graph.edges
    size = len(graph.maps)

    def merged(parent, a, b):
        """Each element's class root once a and b are merged."""
        parent = parent[:]

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            parent[ry] = rx
            for tab in gtabs:
                queue.append((tab[rx], tab[ry]))
        return [find(x) for x in range(size)]

    parent, roots, redraws = list(range(size)), list(range(size)), 0
    while len(roots) > target_classes:
        trial = merged(parent, *rng.sample(roots, 2))
        kept = sorted(set(trial))
        if len(kept) >= min(2, target_classes) or redraws == max(size, 32):
            parent, roots, redraws = trial, kept, 0
        else:
            redraws += 1
    world = {r: i for i, r in enumerate(roots)}
    action = {}
    for g, tab in zip(graph.gens, gtabs):
        action[g] = tuple(world[parent[tab[r]]] for r in roots)
    return Frame(n, mode, len(roots), action)


def frame_to_json(frame):
    data = {
        "n": frame.n,
        "mode": frame.mode,
        "worlds": frame.num_worlds,
        "action": {g.token(): list(frame.act(g)) for g in sorted(
            frame.action, key=lambda s: s.token())},
    }
    if frame.diag is not None:
        data["diag"] = {
            "%d,%d" % key: mask_points(mask & (1 << frame.num_worlds) - 1)
            for key, mask in sorted(frame.diag.items())
        }
    return data


def frame_from_json(data):
    """A Frame from frame_to_json's format, rejecting any malformed field."""
    n = json_int(data, "n", 1, DIM_LIMIT)
    mode = normalize_mode(data.get("mode", "full"))
    m = json_int(data, "worlds", 0, 1 << 20)
    tables = data.get("action")
    if not isinstance(tables, dict):
        raise ValueError("frame file needs an \"action\" object")
    by_token = {g.token(): g for g in generators(n, mode)}
    action = {}
    for tok, tab in tables.items():
        # another spelling of a generator, such as s[1,0], is parsed
        g = by_token.get(tok) or by_token.get(gensym_from_token(tok).token())
        if g is None:
            raise ValueError("%s is not a generator of mode %s at n=%d"
                             % (tok, mode, n))
        if g in action:
            raise ValueError("generator %s is given twice" % g.token())
        action[g] = json_ints(tab, 0, m - 1, "action table %s" % tok)
    diag = None
    if "diag" in data:
        if not isinstance(data["diag"], dict):
            raise ValueError("\"diag\" must be an object")
        diag = {}
        for key, worlds in data["diag"].items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise ValueError("bad diagonal key %r; want \"i,j\"" % key) from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("diagonal d(%s) is out of range for n=%d"
                                 % (key, n))
            diag[(i, j)] = points_mask(
                json_ints(worlds, 0, m - 1, "diagonal %s" % key))
    return Frame(n, mode, m, action, diag)
