"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written against plain tuples / frozensets
with its own recursion, sharing no code paths with substal internals beyond
the public AST node types.  These exceptions read the library's own
code.  `hom_report`, the atom certificate of a map between any two algebra
handles, reads the handles' own operations: it is the reference of the
library's world-map certificates.  `ref_holds` evaluates a term over
every world of the library's set algebra, and `ref_square_witness` so
evaluates a witness over the whole square: it is the reference of the
point-local re-check in `logic.satisfiable`.
`ref_word_table` steps a frame's generator tables along a word: the
reference of `frames.relations_hold`.
`ref_action_walk` is the edge-by-edge walk of the library's Cayley graph
over a space's world tables: the reference of the tree walk of
`frames.action_tables` and of the row-at-a-time
`frames.row_certificate`.  `ref_presented_size` enumerates cosets over
the tree of coset definitions it is given, which the tests take from the
library's Cayley graph; any tree serves for its proof.
`ref_quasi_sweep` is the T-generic quasi-equation check that
`represent.check_quasi` replaced, built on the library's `SubMonoidCtx`:
the reference of its fixed T, and with its sweep over every permutation
the reference of `check_quasi`'s one permutation per cycle type.
"""

import itertools
import re
from collections import defaultdict

from substal.monoid import cayley_graph, generators, has_diagonals
from substal.setalg import FAILURES_KEPT, ConcreteAlgebra, mask_points

BELL = [1, 1, 2, 5, 15, 52, 203]


def ref_compose(s, t):
    # dict-based on purpose; (s*t)(i) = s(t(i))
    table = {i: s[t[i]] for i in range(len(t))}
    return tuple(table[i] for i in range(len(t)))


def ref_gen_tuple(kind, i, j, n):
    out = list(range(n))
    if kind == "transposition":
        out[i], out[j] = out[j], out[i]
    else:
        out[i] = j
    return tuple(out)


def ref_hat(triples, n):
    acc = tuple(range(n))
    for kind, i, j in triples:
        acc = ref_compose(acc, ref_gen_tuple(kind, i, j, n))
    return acc


def ref_monoid_closure(n, gen_tuples):
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for g in gen_tuples:
                c = ref_compose(t, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def ref_bfs_words(n, gen_tuples):
    """Breadth-first enumeration from the identity, generators tried in the
    given order: the elements in order of discovery, each with the indices
    of the generators along its first-found (so shortest) word."""
    order = [tuple(range(n))]
    words = {order[0]: ()}
    for t in order:                     # grows as new elements appear
        for idx, g in enumerate(gen_tuples):
            c = ref_compose(t, g)
            if c not in words:
                words[c] = words[t] + (idx,)
                order.append(c)
    return [(t, words[t]) for t in order]


def ref_set_partitions(n):
    """All set partitions of {0..n-1} as frozensets of frozensets."""
    if n == 0:
        return [frozenset()]
    out = []
    for part in ref_set_partitions(n - 1):
        blocks = sorted(part, key=min)
        for k in range(len(blocks)):
            grown = blocks[:k] + [blocks[k] | {n - 1}] + blocks[k + 1 :]
            out.append(frozenset(frozenset(b) for b in grown))
        out.append(part | {frozenset({n - 1})})
    return out


def rgs_of_point(q):
    # restricted growth string of the kernel of a coordinate tuple
    labels = {}
    out = []
    for v in q:
        if v not in labels:
            labels[v] = len(labels)
        out.append(labels[v])
    return tuple(out)


def ref_eval(term, n, k, valuation):
    """Evaluate a term over the full point set of width-k tuples of length n.

    valuation maps variable index -> frozenset of tuples.  Returns a
    frozenset of tuples.  Independent of substal's bitmask evaluation.
    """
    from substal import terms as T

    points = frozenset(itertools.product(range(k), repeat=n))

    def ev(t):
        if isinstance(t, T.Var):
            return valuation.get(t.index, frozenset()) & points
        if isinstance(t, T.Zero):
            return frozenset()
        if isinstance(t, T.One):
            return points
        if isinstance(t, T.Meet):
            return ev(t.left) & ev(t.right)
        if isinstance(t, T.Join):
            return ev(t.left) | ev(t.right)
        if isinstance(t, T.Compl):
            return points - ev(t.arg)
        if isinstance(t, T.Diag):
            return frozenset(q for q in points if q[t.i] == q[t.j])
        if isinstance(t, T.Sub):
            inner = ev(t.arg)
            g = t.sym
            gt = ref_gen_tuple(g.kind, g.i, g.j, n)
            return frozenset(
                q for q in points if tuple(q[gt[i]] for i in range(n)) in inner
            )
        raise TypeError(t)

    return ev(term)


def ref_preimage(unit, xs, t):
    """{q in unit : q.t in xs}, points as tuples and t as a tuple."""
    return frozenset(q for q in unit
                     if tuple(q[t[i]] for i in range(len(t))) in xs)


def ref_closure_witness(unit, gens, n, k):
    """The first (point, generator position) whose move leaves the unit,
    generators in the given order and points by ascending little-endian
    index; None when the unit is closed.  gens are (kind, i, j) triples."""
    def index(q):
        return sum(v * k**i for i, v in enumerate(q))

    for pos, (kind, i, j) in enumerate(gens):
        gt = ref_gen_tuple(kind, i, j, n)
        for q in sorted(unit, key=index):
            if tuple(q[gt[m]] for m in range(n)) not in unit:
                return q, pos
    return None


def brute_formula_satisfiable(term, n, bases):
    """Valuation search: does term take a nonempty value in some width-k
    full point algebra, k in bases?"""
    from substal import terms as T

    vs = sorted(T.variables(term))
    for k in bases:
        points = list(itertools.product(range(k), repeat=n))
        subsets = [frozenset(c) for r in range(len(points) + 1)
                   for c in itertools.combinations(points, r)]
        for choice in itertools.product(subsets, repeat=len(vs)):
            val = dict(zip(vs, choice))
            if ref_eval(term, n, k, val):
                return True
    return False


def ref_alternating_set(worlds, step):
    """Exhaustive search for X with step-preimage(X) = complement(X)."""
    ws = list(worlds)
    assert len(ws) <= 16
    for bits in range(1 << len(ws)):
        chosen = {w for idx, w in enumerate(ws) if bits >> idx & 1}
        pre = {w for w in ws if step(w) in chosen}
        if pre == set(ws) - chosen:
            return chosen
    return None


def ref_hom_sweep(source, target, h, gens):
    """Exhaustive reference for a homomorphism check: every element and
    every pair of an enumerable source, under the full signature given by
    the generator symbols `gens`.  Returns (homomorphism, injective), with
    injective meaning all images distinct."""
    els = source.elements()
    imgs = {z: h(z) for z in els}

    def laws():
        yield imgs[source.zero] == target.zero
        yield imgs[source.one] == target.one
        if source.mode == "full_diagonal":
            for i in range(source.n):
                for j in range(source.n):
                    yield h(source.diag(i, j)) == target.diag(i, j)
        for x in els:
            hx = imgs[x]
            yield h(source.compl(x)) == target.compl(hx)
            for g in gens:
                yield h(source.subst(g, x)) == target.subst(g, hx)
            for y in els:
                yield imgs[source.meet(x, y)] == target.meet(hx, imgs[y])
                yield imgs[source.join(x, y)] == target.join(hx, imgs[y])

    return all(laws()), len(set(imgs.values())) == len(els)


def ref_frame_coherent(frame):
    """Pairwise reference for action coherence: with act(tau) folded along a
    shortest word, act(sigma*tau) must be act(sigma) followed by act(tau)
    for every pair of monoid elements, and each generator's own table must
    be the fold of its word.  Diagonal markings are not examined."""
    n, m = frame.n, frame.num_worlds
    gens = [(ref_gen_tuple(g.kind, g.i, g.j, n), frame.action[g])
            for g in frame.action]
    words = {tuple(range(n)): ()}
    frontier = [tuple(range(n))]
    while frontier:
        nxt = []
        for t in frontier:
            for idx, (gt, _) in enumerate(gens):
                c = ref_compose(t, gt)
                if c not in words:
                    words[c] = words[t] + (idx,)
                    nxt.append(c)
        frontier = nxt

    def fold(word):
        tab = list(range(m))
        for idx in word:
            table = gens[idx][1]
            tab = [table[w] for w in tab]
        return tab

    acts = {t: fold(w) for t, w in words.items()}
    if any(acts[gt] != list(table) for gt, table in gens):
        return False
    for s, a_s in acts.items():
        for t, a_t in acts.items():
            if acts[ref_compose(s, t)] != [a_t[a_s[w]] for w in range(m)]:
                return False
    return True


def ref_word_table(frame, word):
    """The world table of a word of generator indices (a word of
    monoid.relations) on a frame: every world stepped through frame.act
    of each letter in turn, as a list."""
    gens = generators(frame.n, frame.mode)
    tab = list(range(frame.num_worlds))
    for idx in word:
        act = frame.act(gens[idx])
        tab = [act[w] for w in tab]
    return tab


def ref_action_walk(space, unit):
    """The Cayley walk that frames.action_tables and
    frames.row_certificate replaced: every edge tau -> tau∘g, in (tau, g)
    order, steps tau's table by g and compares it with the table already
    set for tau∘g, which its breadth-first tree edge set first.  Returns
    (worlds, tables, number), in the shape of frames.ActionWalk, and
    (failures, edges), in the shape of the row certificate: the first
    FAILURES_KEPT failures, and the edges up to the last of them, or all
    edges."""
    worlds = tuple(mask_points(unit))
    graph = cayley_graph(space.n, space.mode)
    steps = [(g.token(), space.act(g), row)
             for g, row in zip(graph.gens, graph.edges)]
    tables, index, after = [worlds], {worlds: 0}, [[None] * len(steps)]
    number = [0] + [None] * (len(graph.maps) - 1)
    failures, edges = [], len(graph.maps) * len(steps)
    for t in range(len(graph.maps)):
        a = number[t]
        for g, (token, gtab, row) in enumerate(steps):
            b = after[a][g]
            if b is None:
                derived = tuple(map(gtab.__getitem__, tables[a]))
                b = after[a][g] = index.setdefault(derived, len(tables))
                if b == len(tables):
                    tables.append(derived)
                    after.append([None] * len(steps))
            u = row[t]
            if number[u] is None:
                number[u] = b
            elif number[u] != b and len(failures) < FAILURES_KEPT:
                i = next(i for i, (x, y) in enumerate(
                    zip(tables[number[u]], tables[b])) if x != y)
                failures.append(("coherence", graph.maps[t], token, worlds[i]))
                if len(failures) == FAILURES_KEPT:
                    edges = t * len(steps) + g + 1
    return worlds, tables, number, failures, edges


def ref_presented_size(num_gens, pairs, parent, via):
    """Coset enumeration of the monoid presented by `num_gens` generators
    and the word pairs `pairs` (tuples of generator indices, read left to
    right), over a given tree of coset definitions: coset t > 0 is coset
    parent[t] times generator via[t].  Returns the number of cosets when
    every entry of the coset table follows from the pairs, else None.

    Each pass scans every pair (u, v) at every coset c at once: where c·u
    is known and c·v is known up to its last letter g, reached at coset e,
    the entry e·g is c·u (and with u and v exchanged).  Every entry so
    set holds in the presented monoid P, so when the table is complete
    the cosets are closed under every generator and hold the identity:
    they are all of P, and |P| is at most their number.  Any prefix-closed
    tree serves; with one word per element of a monoid M in which every
    pair holds, P maps onto M, so a complete table proves that the pairs
    present M.  A pass that sets no entry ends the enumeration."""
    size = len(parent)
    unknown = size               # a coset past the table: entries not set
    cols = [[unknown] * (size + 1) for _ in range(num_gens)]
    for t in range(1, size):
        cols[via[t]][parent[t]] = t
    todo = [{c for c in range(size) if col[c] == unknown} for col in cols]
    scans = [(u, v[:-1], v[-1]) for pair in pairs
             for u, v in (pair, pair[::-1]) if v]
    start = list(range(size))

    def trace(word):
        cosets = start
        for g in word:
            cosets = list(map(cols[g].__getitem__, cosets))
        return cosets

    while any(todo):
        missing = sum(map(len, todo))
        for u, head, g in scans:
            if not todo[g]:
                continue
            ends = trace(u)
            kept = list(map(unknown.__ne__, ends))
            known = dict(zip(itertools.compress(trace(head), kept),
                             itertools.compress(ends, kept)))
            for e in todo[g].intersection(known):
                cols[g][e] = known[e]
            todo[g].difference_update(known)
        if sum(map(len, todo)) == missing:
            return None
    return size


def ref_kernel_satisfiable(term, n):
    """Exact satisfiability over the square point algebras of dimension n,
    kernel by kernel.  The truth of a term at a point depends only on the
    valuation at the points its substitutions reach from there, so one
    representative point per set partition of the coordinates is tried
    under every valuation of those points.  No kernel is skipped."""
    from substal import terms as T

    def move(t, q):
        g = ref_gen_tuple(t.sym.kind, t.sym.i, t.sym.j, n)
        return tuple(q[g[i]] for i in range(n))

    def reach(t, q, acc):
        if isinstance(t, T.Var):
            acc.add((t.index, q))
        elif isinstance(t, (T.Meet, T.Join)):
            reach(t.left, q, acc)
            reach(t.right, q, acc)
        elif isinstance(t, T.Compl):
            reach(t.arg, q, acc)
        elif isinstance(t, T.Sub):
            reach(t.arg, move(t, q), acc)

    def truth(t, q, true_atoms):
        if isinstance(t, T.Var):
            return (t.index, q) in true_atoms
        if isinstance(t, T.Zero):
            return False
        if isinstance(t, T.One):
            return True
        if isinstance(t, T.Diag):
            return q[t.i] == q[t.j]
        if isinstance(t, T.Meet):
            return truth(t.left, q, true_atoms) and truth(t.right, q, true_atoms)
        if isinstance(t, T.Join):
            return truth(t.left, q, true_atoms) or truth(t.right, q, true_atoms)
        if isinstance(t, T.Compl):
            return not truth(t.arg, q, true_atoms)
        if isinstance(t, T.Sub):
            return truth(t.arg, move(t, q), true_atoms)
        raise TypeError(t)

    for part in ref_set_partitions(n):
        q = [0] * n
        for label, block in enumerate(sorted(part, key=min)):
            for i in block:
                q[i] = label
        q = tuple(q)
        atoms = set()
        reach(term, q, atoms)
        atoms = sorted(atoms)
        for bits in itertools.product((False, True), repeat=len(atoms)):
            if truth(term, q, {a for a, b in zip(atoms, bits) if b}):
                return True
    return False


def ref_holds(algebra, term, valuation, world):
    """Whether `term` holds at `world` of a set algebra when variable v
    denotes the bitmask valuation[v], or the empty set if v is not
    listed: the whole term evaluated over every world, one operation of
    the algebra per subterm (terms.eval_term)."""
    from substal.terms import eval_term

    value = eval_term(algebra, term, defaultdict(int, valuation))
    return bool(value >> world & 1)


def ref_square_witness(term, n, mode, witness):
    """Whether a witness of `logic.satisfiable` holds when it is rebuilt as
    a valuation in the full set algebra ℘(ⁿk) of its base k and the whole
    term is evaluated there over every point: one word-parallel preimage
    per substitution on bitmasks of kⁿ bits.  Variables the witness does
    not list denote the empty set."""
    valuation = {int(name[1:]): sum(1 << p for p in points)
                 for name, points in witness["valuation"].items()}
    return ref_holds(ConcreteAlgebra(n, witness["k"], mode), term, valuation,
                     witness["world"])


_REF_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<sub>s\[\d+[,|]\d+\])"
    r"|(?P<diag>d\(\s*\d+\s*,\s*\d+\s*\))"
    r"|(?P<var>p\d+)"
    r"|(?P<zero>0)|(?P<one>1)"
    r"|(?P<imp>->)|(?P<and>&)|(?P<or>\|)|(?P<neg>~)"
    r"|(?P<lpar>\()|(?P<rpar>\))"
)


class _RefParser:
    """Recursive descent over a token list lexed in full up front: one
    method per binding level, a recursive call per parenthesis, plain
    (unshared) nodes."""

    def __init__(self, n, mode):
        self.n = n
        self.mode = mode               # one of the four mode names

    def parse(self, text, start, end):
        from substal.terms import ParseError

        self.tokens = []
        pos = start
        while pos < end:
            m = _REF_TOKEN.match(text, pos, end)
            if m is None:
                raise ParseError("unexpected character %r" % text[pos], pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", end))
        self.k = 0
        self.depth = 0
        t = self.implication()
        if self.tokens[self.k][0] != "end":
            _, tok, at = self.tokens[self.k]
            raise ParseError("trailing input %r" % tok, at)
        return t

    def take(self, *kinds):
        if self.tokens[self.k][0] in kinds:
            self.k += 1
            return self.tokens[self.k - 1]
        return None

    def implication(self):
        from substal.terms import Compl, Join

        parts = [self.disjunction()]
        while self.take("imp"):
            parts.append(self.disjunction())
        out = parts.pop()
        while parts:
            out = Join(Compl(parts.pop()), out)
        return out

    def disjunction(self):
        from substal.terms import Join

        out = self.conjunction()
        while self.take("or"):
            out = Join(out, self.conjunction())
        return out

    def conjunction(self):
        from substal.terms import Meet

        out = self.unary()
        while self.take("and"):
            out = Meet(out, self.unary())
        return out

    def unary(self):
        from substal.monoid import GenSym
        from substal.terms import Compl, ParseError, Sub

        prefix = []
        while True:
            tok = self.take("neg", "sub")
            if tok is None:
                break
            kind, text, pos = tok
            if kind == "neg":
                prefix.append(None)
                continue
            kind = "transposition" if "," in text else "replacement"
            g = GenSym(kind, *(int(x) for x in re.findall(r"\d+", text)))
            one_kind = self.mode in ("replacements", "transpositions")
            if one_kind and not self.mode.startswith(kind):
                raise ParseError("%s is not allowed in mode %s"
                                 % (g.token(), self.mode), pos)
            if g.j >= self.n or g.i >= self.n:
                raise ParseError("%s is out of range for n=%d"
                                 % (g.token(), self.n), pos)
            prefix.append(g)
        out = self.atom()
        for g in reversed(prefix):
            out = Compl(out) if g is None else Sub(g, out)
        return out

    def atom(self):
        from substal.terms import Diag, One, ParseError, Var, Zero

        kind, text, pos = self.tokens[self.k]
        self.k += 1
        if kind == "zero":
            return Zero()
        if kind == "one":
            return One()
        if kind == "var":
            return Var(int(text[1:]))
        if kind == "diag":
            if self.mode != "full_diagonal":
                raise ParseError("diagonals are not allowed in mode %s"
                                 % self.mode, pos)
            i, j = (int(x) for x in text[2:-1].split(","))
            if i >= self.n or j >= self.n:
                raise ParseError("%s is out of range for n=%d" % (text, self.n), pos)
            return Diag(i, j)
        if kind == "lpar":
            if self.depth >= 100:
                raise ParseError("parentheses nest deeper than 100", pos)
            self.depth += 1
            t = self.implication()
            kind, text, pos = self.tokens[self.k]
            if kind != "rpar":
                raise ParseError("expected rpar, found %r" % text, pos)
            self.k += 1
            self.depth -= 1
            return t
        raise ParseError("unexpected token %r" % text, pos)


def ref_parse(text, n, mode="full"):
    """The formula `text` as a plain term, read by recursive descent."""
    return _RefParser(n, mode).parse(text, 0, len(text))


def ref_parse_equation(text, n, mode="full"):
    """The equation `text` as a pair of plain terms (lhs, rhs)."""
    from substal.terms import ParseError

    if text.count("=") != 1:
        raise ParseError("an equation needs exactly one '='",
                         text.find("=") if "=" in text else len(text))
    cut = text.index("=")
    parser = _RefParser(n, mode)
    return parser.parse(text, 0, cut), parser.parse(text, cut + 1, len(text))


def ref_bijective_stabilizer(n, T):
    """The permutations xi of {0..n-1} with xi∘sigma in T for every sigma
    in T, in lexicographic order: a sweep over all n! of them."""
    T = set(T)
    return [xi for xi in itertools.permutations(range(n))
            if all(ref_compose(xi, s) in T for s in T)]


def ref_check_quasi(algebra, T):
    """Exhaustive reference for the quasi-equations of represent.check_quasi
    on an enumerable handle; T is a composition-closed set of maps, as
    tuples.  G is the set of permutations xi with xi∘sigma in T for every
    sigma in T.  The quasi-equations hold when no element x has
    s_f(x) = −x for f in G (unless 0 = 1), and when, for every xi in G and
    every choice of elements x_sigma, a zero meet of the s_sigma(x_sigma)
    keeps a zero meet of the s_{xi∘sigma}(x_sigma)."""
    T = sorted(set(tuple(t) for t in T))
    G = ref_bijective_stabilizer(len(T[0]), T)
    els = algebra.elements()
    s = algebra.subst

    def meet_of(values):
        out = algebra.one
        for v in values:
            out = algebra.meet(out, v)
        return out

    if algebra.one != algebra.zero:
        for f in G:
            if any(s(f, x) == algebra.compl(x) for x in els):
                return False
    for xi in G:
        shifted = [ref_compose(xi, sigma) for sigma in T]
        for choice in itertools.product(els, repeat=len(T)):
            if meet_of(s(t, x) for t, x in zip(T, choice)) != algebra.zero:
                continue
            if meet_of(s(t, x) for t, x in zip(shifted, choice)) != algebra.zero:
                return False
    return True


def ref_quasi_sweep(algebra):
    """`represent.check_quasi` for T = S_n as the sweep over a hand-given
    T: T read off the transposition monoid and proved closed with its
    stabilizer G (`SubMonoidCtx`), every tau in T given a word in the
    algebra's mode, the alternating forms decided for each f in G, and the
    stabilizer schemas by the coherence of the action."""
    from substal.monoid import NotGenerated, canonical_word, enumerate_monoid
    from substal.represent import SubMonoidCtx, special_quasi_witness

    ctx = SubMonoidCtx(algebra.n,
                       enumerate_monoid(algebra.n, "transpositions"))
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
    return algebra.space.coherent()


def hom_report(source, target, h, gather=None):
    """Certify h: source -> target as a homomorphism of the full signature,
    for a source that may be any algebra handle: the reference of the
    library's certificates, which read world maps instead
    (setalg.morphism_report, represent._represent and
    represent.canonical_extension).

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


def ref_product_hom(source, blocks):
    """The atom certificate of a product representation, which
    represent.full_representation reads off the Cayley walk instead: the
    gathers of the blocks side by side, block b into copy b of one square
    target, certified as one map by hom_report.  blocks are
    (target, src_bits, dst_bits), every target the same square algebra.
    Returns the certificate's homomorphism verdict."""
    block = blocks[0][0]
    span = block.num_points
    unit, pairs = 0, []
    for idx, (target, src, dst) in enumerate(blocks):
        unit |= target.unit << idx * span
        pairs += [(s, d + idx * span) for s, d in zip(src, dst)]
    stacked = ConcreteAlgebra(block.n, block.k, block.mode, unit=unit)

    def h(z):
        return sum({1 << d for s, d in pairs if z >> s & 1})

    gather = ([s for s, _ in pairs], [d for _, d in pairs])
    return hom_report(source, stacked, h, gather=gather)["homomorphism"]
