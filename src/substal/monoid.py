"""Transformations of {0..n-1}, substitution generators, words, kernels.

A transformation tau is the tuple of its values, tau[i] = tau(i).

Generator tokens use one bracket convention everywhere: ``s[i,j]`` is the
transposition exchanging i and j, ``s[i|j]`` is the replacement sending i to
j and fixing everything else.  Composition is ``(sigma*tau)(i) =
sigma(tau(i))``, and points act on the right: ``(q.tau)(i) = q(tau(i))``,
so applying a composite equals applying its factors left to right.

`cayley_graph` walks a mode's monoid breadth first and records its right
Cayley graph and tree; every world table of the monoid, and every word
of `monoid_table`, is read along that tree.  `relations` lists a mode's
defining word pairs by generator index, and `PRESENTED` the dimensions
at which a coset enumeration proves them a presentation of the monoid.

`Record` and `FrozenRecord` are the plain ``__slots__`` base of the
package's record classes (terms, models, reports), with the == and repr
that dataclasses would give them.
"""

import itertools
import math
import re
from array import array
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

DIM_LIMIT = 6

MODES = ("replacements", "transpositions", "full", "full_diagonal")

_MODE_ALIASES = {
    "pinter": "replacements",
    "diag": "full_diagonal",
    "diagonal": "full_diagonal",
}


def normalize_mode(mode):
    if isinstance(mode, str):
        mode = _MODE_ALIASES.get(mode, mode)
    if mode not in MODES:
        raise ValueError("unknown mode: %r" % (mode,))
    return mode


def has_diagonals(mode):
    return normalize_mode(mode) == "full_diagonal"


class NotGenerated(ValueError):
    """Raised when a transformation lies outside the mode's monoid."""

    def __init__(self, tau, mode):
        self.tau = tau
        self.mode = mode
        super().__init__("%r is not generated in mode %s" % (list(tau), mode))


def identity(n):
    return tuple(range(n))


def compose(sigma, tau):
    """compose(sigma, tau)(i) = sigma(tau(i))."""
    return tuple(sigma[x] for x in tau)


def apply_point(q, tau):
    """Right action of tau on a coordinate tuple: (q.tau)(i) = q(tau(i))."""
    return tuple(q[x] for x in tau)


def point_index(q, k):
    """The number of the point q of ⁿk: its coordinates read as base-k
    digits, coordinate 0 the least significant."""
    idx = 0
    for pos in range(len(q) - 1, -1, -1):
        idx = idx * k + q[pos]
    return idx


class GenSym:
    """A single substitution generator symbol.

    kind is "transposition" (token s[i,j], i<j after normalization) or
    "replacement" (token s[i|j]: i is the moved index, j the value it takes).
    """

    __slots__ = ("kind", "i", "j", "_hash")

    def __init__(self, kind, i, j):
        if i == j:
            raise ValueError("generator indices must differ")
        if kind == "transposition" and i > j:
            i, j = j, i
        if kind not in ("transposition", "replacement"):
            raise ValueError("bad generator kind: %r" % (kind,))
        self.kind = kind
        self.i = i
        self.j = j
        self._hash = hash((kind, i, j))

    def token(self):
        sep = "," if self.kind == "transposition" else "|"
        return "s[%d%s%d]" % (self.i, sep, self.j)

    def tr(self, n):
        """The transformation this symbol names, at dimension n."""
        if not (0 <= self.i < n and 0 <= self.j < n):
            raise ValueError("%s is out of range for n=%d" % (self.token(), n))
        values = list(range(n))
        if self.kind == "transposition":
            values[self.i], values[self.j] = self.j, self.i
        else:
            values[self.i] = self.j
        return tuple(values)

    def __eq__(self, other):
        return (
            isinstance(other, GenSym)
            and (self.kind, self.i, self.j) == (other.kind, other.i, other.j)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.token()


def swap(i, j):
    return GenSym("transposition", i, j)


def repl(i, j):
    return GenSym("replacement", i, j)


_TOKEN_RE = re.compile(r"s\[(\d+)([,|])(\d+)\]")


def gensym_from_token(text):
    m = _TOKEN_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError("bad generator token: %r" % (text,))
    i, sep, j = int(m.group(1)), m.group(2), int(m.group(3))
    return swap(i, j) if sep == "," else repl(i, j)


def mode_allows(mode, sym):
    mode = normalize_mode(mode)
    if mode == "replacements":
        return sym.kind == "replacement"
    if mode == "transpositions":
        return sym.kind == "transposition"
    return True


@lru_cache(maxsize=None)
def generators(n, mode):
    """All generator symbols of the given mode at dimension n, as a tuple
    in a fixed order, built once per (n, mode)."""
    mode = normalize_mode(mode)
    gens = []
    if mode in ("transpositions", "full", "full_diagonal"):
        gens.extend(swap(i, j) for i in range(n) for j in range(i + 1, n))
    if mode in ("replacements", "full", "full_diagonal"):
        gens.extend(repl(i, j) for i in range(n) for j in range(n) if i != j)
    return tuple(gens)


# No word of `relations` is longer, at any n or mode; a longer schema
# raises it.  frames.Frame.relation_verdict bounds its work by it.
RELATION_WORD_LIMIT = 3


@lru_cache(maxsize=None)
def relations(n, mode):
    """The word pairs of the mode's perm:* and subst:* axioms, in the
    order of terms.sigma_axioms, as (tag format, tag arguments, left
    word, right word).  A word is a tuple of indices into
    generators(n, mode), read as `hat` reads it, of at most
    RELATION_WORD_LIMIT letters; both words of a pair name one element
    of the monoid.  Each generator's index is read once from
    generators(n, mode): no generator symbol, term or tag is made per
    pair."""
    mode = normalize_mode(mode)
    pairs = list(itertools.combinations(range(n), 2))
    # sw[i][j] = sw[j][i] is the index of s[i,j], rp[i][j] that of s[i|j]
    sw = [[0] * n for _ in range(n)]
    rp = [[0] * n for _ in range(n)]
    for idx, g in enumerate(generators(n, mode)):
        if g.kind == "transposition":
            sw[g.i][g.j] = sw[g.j][g.i] = idx
        else:
            rp[g.i][g.j] = idx
    out = []
    add = out.append
    if mode != "replacements":
        for i, j in pairs:
            add(("perm:involution:%d,%d", (i, j), (sw[i][j],) * 2, ()))
        for i, k in pairs:
            for j in range(n):
                if j != i and j != k:
                    add(("perm:conjugation:%d,%d,%d", (i, j, k),
                         (sw[i][j], sw[j][k], sw[i][j]), (sw[i][k],)))
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            if i != k and i != l and j != k and j != l:
                add(("perm:commute:%d,%d;%d,%d", (i, j, k, l),
                     (sw[i][j], sw[k][l]), (sw[k][l], sw[i][j])))
    if mode == "transpositions":
        return tuple(out)
    moved = [(j, i) for j in range(n) for i in range(n) if i != j]
    for j, i in moved:
        r = rp[j][i]
        add(("subst:repl-idempotent:%d,%d", (j, i), (r, r), (r,)))
        add(("subst:repl-return:%d,%d", (j, i), (r, rp[i][j]), (r,)))
    for (j, i), (k, l) in itertools.combinations(moved, 2):
        if j != k and j != l and i != k and i != l:
            add(("subst:repl-commute-disjoint:%d,%d;%d,%d", (j, i, k, l),
                 (rp[j][i], rp[k][l]), (rp[k][l], rp[j][i])))
    for i in range(n):
        for j, k in pairs:
            if i != j and i != k:
                add(("subst:repl-shared-target-commute:%d;%d,%d", (i, j, k),
                     (rp[j][i], rp[k][i]), (rp[k][i], rp[j][i])))
    for i, j, k in itertools.permutations(range(n), 3):
        add(("subst:repl-shared-target-chain:%d;%d,%d", (i, j, k),
             (rp[j][i], rp[k][i]), (rp[j][i], rp[k][j])))
        add(("subst:repl-overwrite:%d,%d,%d", (j, i, k),
             (rp[j][i], rp[j][k]), (rp[j][k],)))
    if mode == "replacements":
        return tuple(out)
    for j, i in moved:
        r, s = rp[j][i], sw[i][j]
        add(("subst:repl-collapse-swap:%d,%d", (j, i), (r, s), (r,)))
        add(("subst:swap-conj-pair:%d,%d", (j, i), (s, r, s), (rp[i][j],)))
        for k, l in pairs:
            if k != i and k != j and l != i and l != j:
                add(("subst:swap-conj-disjoint:%d,%d;%d,%d", (j, i, k, l),
                     (sw[k][l], r, sw[k][l]), (r,)))
        for k in range(n):
            if k != i and k != j:
                add(("subst:swap-conj-source:%d,%d,%d", (j, i, k),
                     (sw[j][k], r, sw[j][k]), (rp[k][i],)))
                add(("subst:swap-conj-target:%d,%d,%d", (j, i, k),
                     (sw[k][i], r, sw[k][i]), (rp[j][k],)))
                add(("subst:repl-chain-swap:%d,%d,%d", (j, i, k),
                     (r, rp[i][k]), (rp[j][k], s)))
    return tuple(out)


# The largest n at which the pairs of `relations` present the mode's
# monoid, proved by coset enumeration in tests/test_monoid.py.  They do
# not present it in replacement mode from n = 3 on; full mode at n = 6 is
# unproved.
PRESENTED = {"replacements": 2, "transpositions": 6, "full": 5,
             "full_diagonal": 5}


def presented(n, mode):
    """Is every map of generator tables that satisfies `relations` a
    right action of the monoid, by a proof that covers (n, mode)?"""
    return n <= PRESENTED.get(normalize_mode(mode), 0)


def hat(syms, n):
    """Fold a word of generator symbols into one transformation.

    hat(g1 g2 ... gm) = g1 * g2 * ... * gm, so a point traverses the word
    left to right: apply_point(q, hat(w)) applies g1 first.
    """
    acc = identity(n)
    for g in syms:
        acc = compose(acc, g.tr(n))
    return acc


def word_equiv(w1, w2, n):
    return hat(w1, n) == hat(w2, n)


def parse_word(text, n, mode):
    """Parse a whitespace-separated word of generator tokens."""
    syms = []
    for piece in text.split():
        g = gensym_from_token(piece)
        if not mode_allows(mode, g):
            raise ValueError("%s is not allowed in mode %s" % (g.token(), mode))
        g.tr(n)  # range check
        syms.append(g)
    return tuple(syms)


def format_word(syms):
    return " ".join(g.token() for g in syms)


CayleyGraph = namedtuple("CayleyGraph", "gens maps edges parent via keys")


@lru_cache(maxsize=None)
def cayley_graph(n, mode):
    """Enumerate the monoid and record its right Cayley graph in one
    breadth-first walk over map tuples (Froidure and Pin 1997).

    Elements are numbered in walk order, the identity first.  gens are the
    mode's generator symbols; maps[t] is element t as a tuple;
    edges[g][t] is the number of t∘gens[g]; each element t > 0 is
    parent[t]∘gens[via[t]], its breadth-first tree edge, so a shortest
    word for t is parent[t]'s followed by gens[via[t]]; keys[t] is the
    sum of maps[t][i]·n^i, the number of element t's point in ⁿn
    (point_index).  ValueError past DIM_LIMIT."""
    gens = generators(n, mode)
    if n > DIM_LIMIT:
        raise ValueError("dimension %d exceeds limit %d" % (n, DIM_LIMIT))
    size = monoid_size(n, mode)
    # element numbers fit two bytes for every n up to DIM_LIMIT
    rows = [array("H" if size <= 1 << 16 else "I", [0]) * size
            for _ in range(len(gens) + 2)]
    edges, parent, via = rows[:-2], rows[-2], rows[-1]
    # An element is looked up by its key, the sum of tau(i)·n^i.  A
    # generator moves one or two coordinates, so the key of tau∘g, whose
    # coordinate i is tau(j), is tau's key plus (tau(j) − tau(i))·weight.
    steps = [(g.i, g.j, n**g.i - n**g.j if g.kind == "transposition"
              else n**g.i, itemgetter(*g.tr(n)), row)
             for g, row in zip(gens, edges)]
    keys = array("q", [0]) * size
    keys[0] = sum(i * n**i for i in range(n))
    number = array("l", [-1]) * n**n
    number[keys[0]] = 0
    maps = [tuple(range(n))]
    for t, tau in enumerate(maps):          # grows as new elements appear
        key = keys[t]
        for g, (i, j, weight, pick, row) in enumerate(steps):
            nxt = key + (tau[j] - tau[i]) * weight
            idx = number[nxt]
            if idx < 0:
                idx = number[nxt] = len(maps)
                maps.append(pick(tau))
                keys[idx] = nxt
                parent[idx] = t
                via[idx] = g
            row[t] = idx
    return CayleyGraph(gens, maps, edges, parent, via, keys)


@lru_cache(maxsize=None)
def monoid_table(n, mode):
    """BFS word table: each of cayley_graph(n, mode).maps, in walk order
    -> a shortest word, its tree parent's (a parent precedes its
    children) followed by its tree edge's generator."""
    graph = cayley_graph(n, normalize_mode(mode))
    words = [()]
    for up, g in itertools.islice(zip(graph.parent, graph.via), 1, None):
        words.append(words[up] + (graph.gens[g],))
    return dict(zip(graph.maps, words))


def enumerate_monoid(n, mode):
    """All transformations generated by the mode's symbols, BFS order."""
    return list(cayley_graph(n, normalize_mode(mode)).maps)


def monoid_size(n, mode):
    """The number of transformations the mode generates: all n^n maps in
    the full modes, the n! permutations from transpositions, and from
    replacements every non-injective map plus the identity."""
    mode = normalize_mode(mode)
    if mode == "transpositions":
        return math.factorial(n)
    if mode == "replacements":
        return n**n - math.factorial(n) + 1
    return n**n


def _perm_cycles_word(pi):
    # each cycle (c0 c1 ... ck), c0 minimal, becomes s[c0,c1] s[c1,c2] ...
    syms = []
    seen = set()
    for start in range(len(pi)):
        if start in seen or pi[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        x = pi[start]
        while x != start:
            cycle.append(x)
            x = pi[x]
        seen.update(cycle)
        for a, b in zip(cycle, cycle[1:]):
            syms.append(swap(a, b))
    return syms


def canonical_word(tau, mode):
    """A canonical word over the mode's generators evaluating to tau.

    Transposition mode uses the cycle decomposition.  Full mode peels off
    one replacement per colliding coordinate pair (always choosing the
    least colliding pair and the least value missing from the image) until
    a permutation remains.  Replacement mode looks the word up in the BFS
    table of the generated monoid.  Raises NotGenerated when tau is not in
    the mode's monoid.
    """
    mode = normalize_mode(mode)
    n = len(tau)
    if mode == "transpositions":
        if len(set(tau)) < n:
            raise NotGenerated(tau, mode)
        return tuple(_perm_cycles_word(tau))
    if mode == "replacements":
        try:
            return monoid_table(n, mode)[tau]
        except KeyError:
            raise NotGenerated(tau, mode) from None
    values = list(tau)
    peeled = []
    while len(set(values)) < len(values):
        pair = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if values[i] == values[j]
        )
        missing = min(set(range(n)) - set(values))
        peeled.append(repl(pair[0], pair[1]))
        values[pair[0]] = missing
    head = _perm_cycles_word(values)
    return tuple(head) + tuple(reversed(peeled))


def _right_factors(maps):
    """For each sigma among the map tuples, xi ↦ xi∘sigma on map tuples."""
    picks = [itemgetter(*sigma) for sigma in maps]
    if len(next(iter(maps), ())) == 1:   # one index picks a bare value
        return [lambda xi, pick=pick: (pick(xi),) for pick in picks]
    return picks


def bijective_stabilizer(n, allowed):
    """The permutations xi with xi∘sigma in `allowed` for every sigma
    there, in lexicographic order.  `allowed` must hold the identity and
    be closed under composition (check_submonoid); these are then exactly
    its permutations, since each such xi is xi∘id, and closure keeps every
    permutation of `allowed`."""
    return sorted(xi for xi in allowed if len(set(xi)) == n)


def check_submonoid(n, allowed):
    """`allowed` as a sorted list, once it is known to contain the identity
    and to be closed under composition; ValueError otherwise."""
    maps = set(allowed)
    if tuple(range(n)) not in maps:
        raise ValueError("T must contain the identity")
    factors = _right_factors(maps)
    if not all(right(s) in maps for s in maps for right in factors):
        raise ValueError("T is not closed under composition")
    return sorted(maps)


def restricted_growth(n):
    """Kernel partitions of {0..n-1} as restricted growth strings, one at a
    time, in restricted-growth (lexicographic) order.

    The string itself doubles as a representative point: coordinate i
    carries its block index, and the base is the number of blocks.
    """
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    top = [1] * n      # top[i]: the largest value rgs[i] may take, for i > 0
    while True:
        yield tuple(rgs)
        i = n - 1
        while i > 0 and rgs[i] == top[i]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        bound = max(top[i], rgs[i] + 1)
        for j in range(i + 1, n):
            rgs[j] = 0
            top[j] = bound


def partitions(n):
    """Every kernel partition of {0..n-1}, in `restricted_growth` order, as
    a tuple."""
    return tuple(restricted_growth(n))


def num_blocks(rgs):
    return max(rgs) + 1 if rgs else 0


class Record:
    """A plain record whose fields are the names in `_fields`, with the
    == and repr of a dataclass: two records are equal when they are of one
    class and their fields are equal.  A mutable record is unhashable;
    `FrozenRecord` is immutable and hashes its fields.  Each subclass
    sets its fields in its own __init__."""

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class FrozenRecord(Record):
    """A `Record` that cannot be changed once its __init__ has set its
    fields, which it does through `set_field`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


set_field = object.__setattr__
