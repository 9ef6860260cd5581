"""Known answers, computed without importing substal.

Everything here works on plain tuples and its own formula trees, so a
verdict the benchmark checks never comes from the code under test.

Conventions shared with the CLI's text and JSON formats (and nothing
else): generator tokens ``s[i,j]`` (swap i and j) and ``s[i|j]`` (send i
to j); composition ``(s*t)(i) = s(t(i))``; a point q moves under tau to
``q.tau = (q[tau[0]], ..., q[tau[n-1]])``, so ``s[g1] s[g2] p`` holds at q
when p holds at ``q.(g1*g2)``; world indices of ⁿk are little-endian in
base k (coordinate 0 is the least significant digit).
"""

import functools
import itertools

MODES = ("replacements", "transpositions", "full", "full_diagonal")


# ---------------------------------------------------------------- monoids

def compose(s, t):
    return tuple(s[x] for x in t)


def gen_tuple(gen, n):
    kind, i, j = gen
    out = list(range(n))
    if kind == "swap":
        out[i], out[j] = out[j], out[i]
    else:
        out[i] = j
    return tuple(out)


def token(gen):
    kind, i, j = gen
    return "s[%d%s%d]" % (i, "," if kind == "swap" else "|", j)


def mode_gens(n, mode):
    gens = []
    if mode != "replacements":
        gens += [("swap", i, j) for i in range(n) for j in range(i + 1, n)]
    if mode != "transpositions":
        gens += [("repl", i, j) for i in range(n) for j in range(n) if i != j]
    return gens


def word_tuple(word, n):
    acc = tuple(range(n))
    for g in word:
        acc = compose(acc, gen_tuple(g, n))
    return acc


def shortest_words(n, mode):
    """A shortest generator word for every element of the mode's monoid,
    in breadth-first order."""
    words = {tuple(range(n)): ()}
    order = [tuple(range(n))]
    gens = mode_gens(n, mode)
    for tau in order:
        for g in gens:
            nxt = compose(tau, gen_tuple(g, n))
            if nxt not in words:
                words[nxt] = words[tau] + (g,)
                order.append(nxt)
    return words


# ---------------------------------------------------------------- points

def move(q, tau):
    return tuple(q[x] for x in tau)


def world_index(q, k):
    idx = 0
    for v in reversed(q):
        idx = idx * k + v
    return idx


# ---------------------------------------------------------------- formulas
# Trees of tuples: ("var", v), ("one",), ("zero",), ("diag", i, j),
# ("not", a), ("and", a, b), ("or", a, b), ("imp", a, b), ("sub", gen, a).

def lit(word, v, positive=True):
    out = ("var", v)
    for g in reversed(word):
        out = ("sub", g, out)
    return out if positive else ("not", out)


def conj(items):
    items = list(items)
    out = items[0]
    for t in items[1:]:
        out = ("and", out, t)
    return out


def xor(a, b):
    return ("or", ("and", a, ("not", b)), ("and", ("not", a), b))


def iff(a, b):
    return ("and", ("imp", a, b), ("imp", b, a))


def text(f):
    """The CLI's formula syntax, every binary node parenthesized."""
    kind = f[0]
    if kind == "var":
        return "p%d" % f[1]
    if kind == "one":
        return "1"
    if kind == "zero":
        return "0"
    if kind == "diag":
        return "d(%d,%d)" % (f[1], f[2])
    if kind == "not":
        return "~" + text(f[1])
    if kind == "sub":
        return token(f[1]) + " " + text(f[2])
    op = {"and": "&", "or": "|", "imp": "->"}[kind]
    return "(%s %s %s)" % (text(f[1]), op, text(f[2]))


def modalities(f):
    kind = f[0]
    if kind == "sub":
        return 1 + modalities(f[2])
    if kind == "not":
        return modalities(f[1])
    if kind in ("and", "or", "imp"):
        return modalities(f[1]) + modalities(f[2])
    return 0


def holds(f, q, k, valuation):
    """Truth of f at the single point q of ⁿk; valuation maps a variable
    index to the set of world indices where it is true."""
    kind = f[0]
    if kind == "var":
        return world_index(q, k) in valuation.get(f[1], ())
    if kind == "one":
        return True
    if kind == "zero":
        return False
    if kind == "diag":
        return q[f[1]] == q[f[2]]
    if kind == "not":
        return not holds(f[1], q, k, valuation)
    if kind == "and":
        return holds(f[1], q, k, valuation) and holds(f[2], q, k, valuation)
    if kind == "or":
        return holds(f[1], q, k, valuation) or holds(f[2], q, k, valuation)
    if kind == "imp":
        return (not holds(f[1], q, k, valuation)) or holds(f[2], q, k, valuation)
    if kind == "sub":
        return holds(f[2], move(q, gen_tuple(f[1], len(q))), k, valuation)
    raise TypeError(f)


def witness_problem(formula, witness):
    """None when the CLI's satisfying witness checks out for `formula`,
    else a one-line reason: the formula must hold at the witness point
    under the witness valuation, and the decision may have touched at most
    modalities + 1 points."""
    q = tuple(witness["point"])
    k = witness["k"]
    if any(not 0 <= v < k for v in q):
        return "point %r outside base %d" % (q, k)
    if witness["world"] != world_index(q, k):
        return "world %r is not the index of point %r" % (witness["world"], q)
    valuation = {int(name[1:]): set(ws) for name, ws in witness["valuation"].items()}
    if not holds(formula, q, k, valuation):
        return "formula fails at the witness point"
    if len(witness["touched"]) > modalities(formula) + 1:
        return "touched %d points, more than modalities + 1" % len(witness["touched"])
    return None


# ---------------------------------------------------------------- frames

def point_frame(n, k, mode):
    """Frame JSON of every point of ⁿk under the right generator action."""
    points = [tuple(reversed(p)) for p in itertools.product(range(k), repeat=n)]
    action = {
        token(g): [world_index(move(q, gen_tuple(g, n)), k) for q in points]
        for g in mode_gens(n, mode)
    }
    data = {"n": n, "mode": mode, "worlds": len(points), "action": action}
    if mode == "full_diagonal":
        data["diag"] = {
            "%d,%d" % (i, j): [w for w, q in enumerate(points) if q[i] == q[j]]
            for i in range(n) for j in range(i + 1, n)
        }
    return data


@functools.lru_cache(maxsize=None)
def regular_action(n, mode):
    """Right multiplication by each generator on the monoid's elements, in
    breadth-first order: tabs[g][i] is the index of element i times g."""
    elements = list(shortest_words(n, mode))
    pos = {tau: i for i, tau in enumerate(elements)}
    return tuple(tuple(pos[compose(tau, gen_tuple(g, n))] for tau in elements)
                 for g in mode_gens(n, mode))


def regular_quotient(n, mode, max_classes, rng):
    """Action tables of a random quotient of the monoid's regular right
    action (world tau, generator g: tau -> tau*g) with at most
    `max_classes` worlds.  Merging two worlds merges their images under
    every generator too, so the quotient stays a right action."""
    gens = mode_gens(n, mode)
    tabs = regular_action(n, mode)
    elements = range(len(tabs[0]))
    parent = list(elements)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = len(elements)
    while classes > max_classes:
        pending = [(rng.randrange(len(elements)), rng.randrange(len(elements)))]
        while pending:
            a, b = (find(x) for x in pending.pop())
            if a != b:
                parent[b] = a
                classes -= 1
                pending.extend((tab[a], tab[b]) for tab in tabs)
    roots = sorted({find(x) for x in range(len(elements))})
    world = {r: i for i, r in enumerate(roots)}
    return {token(g): [world[find(tab[r])] for r in roots]
            for g, tab in zip(gens, tabs)}


def coherent_frame(n, mode, worlds, rng):
    """Frame JSON with exactly `worlds` worlds: a disjoint union of regular
    quotients, world labels shuffled."""
    tables = {token(g): [] for g in mode_gens(n, mode)}
    total = 0
    while total < worlds:
        piece = regular_quotient(n, mode, worlds - total, rng)
        size = len(next(iter(piece.values())))
        for tok, tab in piece.items():
            tables[tok].extend(total + w for w in tab)
        total += size
    return relabel({"n": n, "mode": mode, "worlds": worlds, "action": tables}, rng)


def relabel(frame, rng):
    """The same frame with its worlds renamed by a seeded permutation."""
    worlds = frame["worlds"]
    label = list(range(worlds))
    rng.shuffle(label)
    out = dict(frame, action={})
    for tok, tab in frame["action"].items():
        new = [0] * worlds
        for w, img in enumerate(tab):
            new[label[w]] = label[img]
        out["action"][tok] = new
    if "diag" in frame:
        out["diag"] = {key: sorted(label[w] for w in ws)
                       for key, ws in frame["diag"].items()}
    return out


def break_involution(frame):
    """Copy of a frame whose s[0,1] table is constant: on two or more
    worlds it is then no involution, so the action is incoherent."""
    out = dict(frame, action=dict(frame["action"]))
    out["action"]["s[0,1]"] = [0] * frame["worlds"]
    return out


def alternating_perm_exists(n, step_of):
    """Is there a permutation f of the coordinates and a set X of worlds
    with step_of(f)[w] in X exactly when w is not?  Each step table is a
    bijection here, so X exists exactly when all its cycles are even."""
    for perm in itertools.permutations(range(n)):
        table = step_of(perm)
        seen = set()
        even = True
        for start in range(len(table)):
            length = 0
            w = start
            while w not in seen:
                seen.add(w)
                w = table[w]
                length += 1
            if length % 2:
                even = False
                break
        if even:
            return True
    return False


def quasi_holds_on_frame(frame):
    """Expected `quasi` verdict (T = S_n) for a coherent frame whose mode
    has the transpositions.  The stabilizer schemas hold on any coherent
    action; the alternating form s_f(x) = -x -> 0 = 1 fails exactly when
    some permutation f admits an alternating set of worlds."""
    n = frame["n"]
    words = shortest_words(n, "transpositions")

    def step_of(perm):
        table = list(range(frame["worlds"]))
        for g in words[perm]:
            gt = frame["action"][token(g)]
            table = [gt[w] for w in table]
        return table

    return not alternating_perm_exists(n, step_of)


def quasi_holds_on_algebra(algebra):
    """Expected `quasi` verdict (T = S_n) for a set algebra file: the same
    criterion on the point action q -> q.f inside the unit."""
    n, k = algebra["n"], algebra["k"]
    unit = algebra["unit"]
    slot = {w: i for i, w in enumerate(unit)}
    points = [tuple(w // k ** i % k for i in range(n)) for w in unit]

    def step_of(perm):
        return [slot[world_index(move(q, perm), k)] for q in points]

    return not alternating_perm_exists(n, step_of)


def square_algebra(n, k, mode):
    return {"n": n, "k": k, "mode": mode, "unit": list(range(k ** n))}


def not_a_variety_unit(n):
    """The paper's relativized unit that is closed under transpositions yet
    carries an alternating set for a permutation f, so the quasi-equation
    s_f(x) = -x -> 0 = 1 fails there.  Even n: the points e_i (all ones, a
    zero at i) over base 2, with f pairing 0-1, 2-3, ...  Odd n: the
    bijective points over base n, with f = (0 1)."""
    if n % 2 == 0:
        k = 2
        points = [tuple(0 if j == i else 1 for j in range(n)) for i in range(n)]
    else:
        k = n
        points = list(itertools.permutations(range(n)))
    return {"n": n, "k": k, "mode": "transpositions",
            "unit": sorted(world_index(q, k) for q in points)}
