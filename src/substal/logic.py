"""Satisfiability and validity for the point-algebra semantics.

A formula is evaluated at a point q of a square unit; each substitution
modality moves the point by the right action, so the truth of a formula at
q unfolds into a propositional formula over (variable, reached point)
atoms.  Which points are reached — and which diagonal tests hold — depends
only on the coincidence pattern of q's coordinates, so satisfiability
reduces to one propositional check per partition of the coordinate set.

Relaxed unfolding.  Every term is first unfolded once at the discrete
point d = (0, 1, ..., n-1), where a word whose composite is tau moves d to
tau.  There a diagonal d(i,j) at a reached point tau is TRUE when
tau(i) = tau(j) and otherwise an equality atom e(a, b) on the coordinate
pair {a, b} = {tau(i), tau(j)}, a < b (the e-atoms of Bryant, German and
Velev, 2001, used here only as a filter).  The same word moves any point q
to q∘tau, so the unfolding at a kernel q is a substitution instance of the
relaxed one: put e(a, b) := "a and b lie in one block of q" and rename
each atom (v, tau) to (v, q∘tau).  Hence a relaxed unfolding that is
FALSE refutes the term at every kernel; for a term without diagonals this
is the exact check at the generic point.  Otherwise the partitions are
swept in restricted-growth order, so the witness reported is the first
kernel that has one, and a kernel is skipped when no path of the relaxed
unfolding to TRUE agrees with its equality pattern: its own unfolding is
then FALSE.  No transitivity or congruence constraints are added; the
sweep stays the exact decision.

Propositional core.  The unfoldings of one decision are built into one
reduced ordered BDD (Bryant, 1986), with one exception: an axiom sweep
(equations_valid) unfolds both sides of every equation, relaxed, into one
shared BDD.  The BDD is canonical and each kernel's unfolding is a
substitution instance of the relaxed one, so sides that are one node
there are equal at every kernel.  Of the paper's axioms only the
transitivity axioms diag:chain miss that test; they, and any other
equation it misses, are decided one by one.  Nodes are hash-consed in a
unique table; conjunction, disjunction and negation are memoised; the
unfolding is memoised on (subterm, point), the relaxed one in a memo of
its own so that no kernel's unfolding reads an equality atom; a constant
conjunct or disjunct that decides its chain skips the siblings still to
come; variables are ordered by first appearance.  Unfolding and every BDD
operation run on explicit stacks, so neither the depth of a term nor the
height of a BDD meets the recursion limit.  A satisfying assignment is one
path to the TRUE terminal that takes the true branch wherever that does
not lead to FALSE, and the points of its atoms are the points the decision
touched.

Re-check.  A witness is checked again at its point alone, apart from the
BDD: one walk of the term from the witness point moves the point by each
substitution's transformation, reads atom (v, q) as the satisfying
assignment gives it (false where the assignment leaves it free) and
d(i,j) as q[i] = q[j].  The truth of a term at q depends only on the
points its substitutions reach from q, so the walk decides the term
there exactly, at a cost that grows with the term and not with the kⁿ
points of the witness's square ⁿk.  It reads neither the BDD nor its
point moves, so a faulty BDD cannot vouch for itself.
"""

from operator import itemgetter

from .monoid import normalize_mode, num_blocks, point_index, restricted_growth
from .terms import Compl, Diag, Join, Meet, One, Sub, Var, Zero, iff

FALSE, TRUE = 0, 1
_LEAF = 1 << 62           # the level of both terminals, below every variable


class BDD:
    """A hash-consed reduced ordered BDD over (variable, point) atoms and
    equality atoms ("=", a, b).

    Node 0 is FALSE and node 1 is TRUE.  Any other node u tests the atom
    `atoms[level[u]]` and continues at `low[u]` when it is false and at
    `high[u]` when it is true.  Levels are handed out in the order atoms
    are first asked for; `pairs` maps the level of each equality atom to
    its coordinate pair.  A BDD serves one dimension n: `moves` keeps the
    point move of each generator symbol at that n, as an itemgetter keyed
    by the symbol's identity; the kept terms hold every such symbol."""

    def __init__(self):
        self.level = [_LEAF, _LEAF]
        self.low = [FALSE, TRUE]
        self.high = [FALSE, TRUE]
        self.atoms = []
        self.pairs = {}
        self._atom_node = {}
        self._unique = {}
        self._apply_memo = ({}, {})     # by absorbing terminal: and, or
        self._neg_memo = {}
        self.unfolded = {}              # (id(subterm), point) -> node
        self.relaxed = {}               # the same, for relaxed unfoldings
        self._terms = []                # keeps those ids from being reused
        self.moves = {}                 # id of a generator symbol -> its point move

    def _node(self, level, low, high):
        if low == high:
            return low
        key = (level, low, high)
        u = self._unique.get(key)
        if u is None:
            u = len(self.level)
            self.level.append(level)
            self.low.append(low)
            self.high.append(high)
            self._unique[key] = u
        return u

    def atom(self, atom):
        u = self._atom_node.get(atom)
        if u is None:
            self.atoms.append(atom)
            u = self._atom_node[atom] = self._node(len(self.atoms) - 1, FALSE, TRUE)
        return u

    def equality(self, a, b):
        """The atom e(a, b): coordinates a < b lie in one kernel block."""
        u = self.atom(("=", a, b))
        self.pairs[self.level[u]] = (a, b)
        return u

    def conj(self, f, g):
        return self.apply(f, g, FALSE)

    def disj(self, f, g):
        return self.apply(f, g, TRUE)

    def apply(self, f, g, absorb):
        """f AND g when `absorb` is FALSE, f OR g when it is TRUE, by Shannon
        expansion on the top level of the two operands."""
        unit = TRUE - absorb
        memo = self._apply_memo[absorb]
        level, low, high, node = self.level, self.low, self.high, self._node
        todo = [(f, g)]
        done = []
        while todo:
            item = todo.pop()
            if len(item) == 3:             # both cofactors are on `done`
                top, f, g = item
                hi = done.pop()
                r = memo[f, g] = node(top, done.pop(), hi)
                done.append(r)
                continue
            f, g = item
            if f == absorb or g == absorb:
                r = absorb
            elif f == unit or f == g:
                r = g
            elif g == unit:
                r = f
            else:
                if f > g:
                    f, g = g, f
                r = memo.get((f, g))
                if r is None:
                    lf, lg = level[f], level[g]
                    top = min(lf, lg)
                    f0, f1 = (low[f], high[f]) if lf == top else (f, f)
                    g0, g1 = (low[g], high[g]) if lg == top else (g, g)
                    todo.append((top, f, g))
                    todo.append((f1, g1))
                    todo.append((f0, g0))
                    continue
            done.append(r)
        return done[0]

    def neg(self, f):
        memo = self._neg_memo
        level, low, high, node = self.level, self.low, self.high, self._node
        todo = [f]
        done = []
        while todo:
            u = todo.pop()
            if u < 0:                      # ~u: both branches are on `done`
                u = ~u
                hi = done.pop()
                r = node(level[u], done.pop(), hi)
                memo[u] = r
                memo[r] = u
            elif u <= TRUE:
                r = TRUE - u
            else:
                r = memo.get(u)
                if r is None:
                    todo.append(~u)
                    todo.append(high[u])
                    todo.append(low[u])
                    continue
            done.append(r)
        return done[0]

    def path(self, f):
        """{atom: value} along one path from f to TRUE that takes the true
        branch wherever that does not lead to FALSE; None when f is FALSE.
        Atoms off the path are free."""
        if f == FALSE:
            return None
        out = {}
        while f > TRUE:
            atom = self.atoms[self.level[f]]
            if self.high[f] != FALSE:
                out[atom] = True
                f = self.high[f]
            else:
                out[atom] = False
                f = self.low[f]
        return out

    def agrees(self, f, kernel):
        """Whether some path from f to TRUE gives every equality atom
        e(a, b) the value kernel[a] == kernel[b]: f with those atoms fixed
        is not FALSE.  Each node is visited at most once."""
        pairs, level, low, high = self.pairs, self.level, self.low, self.high
        seen = set()
        todo = [f]
        while todo:
            u = todo.pop()
            if u == TRUE:
                return True
            if u == FALSE or u in seen:
                continue
            seen.add(u)
            pair = pairs.get(level[u])
            if pair is None:
                todo.append(low[u])
                todo.append(high[u])
            else:
                a, b = pair
                todo.append(high[u] if kernel[a] == kernel[b] else low[u])
        return False


_NEG = object()           # marks a complement whose argument's node is on `done`


def unfold(term, point, n, bdd, relaxed=False):
    """The node of `bdd` that is the truth of `term` at the tuple `point`.

    When `relaxed`, a diagonal that fails at its point is the equality atom
    of the two coordinates it compares instead of FALSE (module docstring).

    A chain of meets (or of joins) is unfolded as one list of its distinct
    operands, left to right, and folded from the right.  Levels are handed
    out left to right, so a chain over fresh variables grows one level per
    fold instead of being rebuilt under each new variable.  An operand
    equal to the chain's absorbing constant ends the chain at once.

    Each stack frame is (subterm, point, what to do): None evaluates the
    subterm there, _NEG complements the node on `done`, and a chain's
    state [operands, next index, nodes so far, absorbing constant] takes
    the node of its current operand."""
    memo = bdd.relaxed if relaxed else bdd.unfolded
    bdd._terms.append(term)
    moves = bdd.moves
    get = memo.get
    todo = [(term, point, None)]
    push, pop = todo.append, todo.pop
    done = []
    keep, last = done.append, done.pop
    while todo:
        frame = pop()
        t, p, then = frame
        if then is None:
            cls = type(t)
            while cls is Sub:
                move = moves.get(id(t.sym))
                if move is None:
                    # tr refuses every symbol below n = 2, so a move reads
                    # two or more coordinates and returns a tuple
                    move = moves[id(t.sym)] = itemgetter(*t.sym.tr(n))
                p = move(p)
                t = t.arg
                cls = type(t)
            r = get((id(t), p))
            if r is None:
                if cls is Var:
                    r = bdd.atom((t.index, p))
                elif cls is Meet or cls is Join:
                    operands = _chain(t)
                    push((t, p, [operands, 0, [], FALSE if cls is Meet else TRUE]))
                    push((operands[0], p, None))
                    continue
                elif cls is Compl:
                    push((t, p, _NEG))
                    push((t.arg, p, None))
                    continue
                elif cls is Zero:
                    r = FALSE
                elif cls is One:
                    r = TRUE
                elif cls is Diag:
                    a, b = p[t.i], p[t.j]
                    if a == b:
                        r = TRUE
                    elif relaxed:
                        r = bdd.equality(a, b) if a < b else bdd.equality(b, a)
                    else:
                        r = FALSE
                else:
                    raise TypeError("not a term: %r" % (t,))
        elif then is _NEG:
            r = memo[id(t), p] = bdd.neg(last())
        else:                              # the current operand's node is on `done`
            operands, i, nodes, absorb = then
            r = last()
            if r != absorb:
                if r != TRUE - absorb:
                    nodes.append(r)
                i += 1
                if i < len(operands):
                    then[1] = i
                    push(frame)
                    push((operands[i], p, None))
                    continue
                r = TRUE - absorb
                for u in reversed(nodes):
                    r = bdd.apply(u, r, absorb)
            memo[id(t), p] = r
        keep(r)
    return done[0]


def _chain(term):
    """The distinct operands of the chain of meets (or joins) at `term`,
    left to right."""
    kind = type(term)
    out = []
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if type(t) is kind:
            stack.append(t.right)
            stack.append(t.left)
        elif id(t) not in seen:
            seen.add(id(t))
            out.append(t)
    return out


def check_at(term, point, assignment):
    """The truth of `term` at the tuple `point` when atom (v, q) is true
    exactly where `assignment` ({(v, q): bool}) says so, and for every
    variable v of the term the set of points q where it says (v, q) is
    true among those the term reaches from `point`.

    Each distinct (subterm, point) pair is read once, on an explicit stack,
    and no subterm is skipped, so every variable of the term is met.  A
    substitution moves the point by its symbol's transformation; nothing
    is read from a BDD (module docstring, "Re-check")."""
    n = len(point)
    moves = {}                         # id of a generator symbol -> its move
    truth = {}                         # (id(subterm), point) -> bool
    true_at = {}
    todo = [(term, point)]
    while todo:
        t, p = todo[-1]
        if (id(t), p) in truth:
            todo.pop()
            continue
        cls = type(t)
        if cls is Var:
            r = assignment.get((t.index, p), False)
            points = true_at.setdefault(t.index, set())
            if r:
                points.add(p)
        elif cls is Sub:
            move = moves.get(id(t.sym))
            if move is None:
                move = moves[id(t.sym)] = itemgetter(*t.sym.tr(n))
            q = move(p)
            r = truth.get((id(t.arg), q))
            if r is None:
                todo.append((t.arg, q))
                continue
        elif cls is Meet or cls is Join:
            a = truth.get((id(t.left), p))
            b = truth.get((id(t.right), p))
            if a is None or b is None:
                if a is None:
                    todo.append((t.left, p))
                if b is None:
                    todo.append((t.right, p))
                continue
            r = (a and b) if cls is Meet else (a or b)
        elif cls is Compl:
            a = truth.get((id(t.arg), p))
            if a is None:
                todo.append((t.arg, p))
                continue
            r = not a
        elif cls is Diag:
            r = p[t.i] == p[t.j]
        elif cls is Zero or cls is One:
            r = cls is One
        else:
            raise TypeError("not a term: %r" % (t,))
        truth[id(t), p] = r
        todo.pop()
    return truth[id(term), point], true_at


def satisfiable(term, n, mode="full"):
    """Decide satisfiability over the square point algebras of this mode.

    Returns (verdict, witness).  The witness carries the base k, the
    satisfying point and its number among the points of ⁿk ("world"), the
    valuation (each variable of the term with the numbers of the points
    where it is true, ascending), the kernel, and the points the decision
    touched.  Before it is returned it is re-checked at its point by
    `check_at`, apart from the BDD; a witness that fails there raises
    AssertionError.
    """
    normalize_mode(mode)
    bdd = BDD()
    relaxed = unfold(term, tuple(range(n)), n, bdd, relaxed=True)
    if relaxed == FALSE:
        return False, None
    if not bdd.pairs:
        # every diagonal was decided, so the relaxed unfolding is the
        # concrete one at the discrete point
        bdd.unfolded = bdd.relaxed
    for part in restricted_growth(n):
        if bdd.pairs and not bdd.agrees(relaxed, part):
            continue
        base = max(1, num_blocks(part))
        point = tuple(part)
        assignment = bdd.path(unfold(term, point, n, bdd))
        if assignment is None:
            continue
        holds, true_at = check_at(term, point, assignment)
        if not holds:
            raise AssertionError(
                "internal: witness failed re-verification at %r" % (point,))
        witness = {
            "k": base,
            "point": list(point),
            "world": point_index(point, base),
            "valuation": {"p%d" % v: sorted(point_index(q, base) for q in qs)
                          for v, qs in sorted(true_at.items())},
            "partition": list(part),
            "touched": sorted({q for _, q in assignment}),
        }
        return True, witness
    return False, None


def valid(term, n, mode="full"):
    """Validity over the mode's square point algebras.

    Returns (verdict, counterexample-witness or None): the witness, when
    present, is a satisfying model of the negation.
    """
    sat, witness = satisfiable(Compl(term), n, mode)
    return (not sat), witness


def equation_valid(eq, n, mode="full"):
    """An equation holds identically iff lhs ↔ rhs is valid."""
    return valid(iff(eq.lhs, eq.rhs), n, mode)


def equations_valid(eqs, n, mode="full"):
    """equation_valid's verdict for each equation, in order.

    Both sides of every equation are unfolded, relaxed, at the discrete
    point in one BDD.  The unfolding at any kernel is a substitution
    instance of the relaxed one, and the BDD is canonical, so two sides
    that are one node are equal at every point: VALID.  Any other
    equation is decided by equation_valid in a BDD of its own; the shared
    one never reaches `satisfiable`, whose kernel unfoldings it would
    confuse with relaxed ones."""
    bdd = BDD()
    point = tuple(range(n))
    return [unfold(eq.lhs, point, n, bdd, relaxed=True)
            == unfold(eq.rhs, point, n, bdd, relaxed=True)
            or equation_valid(eq, n, mode)[0] for eq in eqs]
