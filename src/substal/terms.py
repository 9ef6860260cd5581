"""Terms over the substitution signature, read two ways.

The same AST serves as Boolean-algebra terms (for equations) and as modal
formulas (variables = propositional letters, substitution operators =
modalities, diagonal constants = equality tests between coordinates).
"""

import itertools
import re

from .monoid import (
    FrozenRecord,
    GenSym,
    generators,
    gensym_from_token,
    has_diagonals,
    mode_allows,
    normalize_mode,
    relations,
    set_field,
)


class Term(FrozenRecord):
    """A node of the AST; immutable, equal and hashed by its fields."""

    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("index",)

    def __init__(self, index):
        set_field(self, "index", index)


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Meet(Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Join(Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Compl(Term):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg):
        set_field(self, "arg", arg)


class Sub(Term):
    __slots__ = _fields = ("sym", "arg")

    def __init__(self, sym, arg):
        set_field(self, "sym", sym)
        set_field(self, "arg", arg)


class Diag(Term):
    __slots__ = _fields = ("i", "j")

    def __init__(self, i, j):
        set_field(self, "i", i)
        set_field(self, "j", j)


def implies(a, b):
    return Join(Compl(a), b)


def iff(a, b):
    return Meet(implies(a, b), implies(b, a))


def word_term(syms, arg):
    """s_{g1}(s_{g2}(... s_{gm}(arg))) for the word g1 g2 ... gm."""
    out = arg
    for g in reversed(tuple(syms)):
        out = Sub(g, out)
    return out


def subterms(term):
    """The distinct subterm objects of `term`, children before parents.

    The walk keeps its own stack, so a term of any depth is read without
    recursion, and a subterm shared by several parents is listed once."""
    order = []
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t is _LISTED:
            order.append(stack.pop())
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append(t)
        stack.append(_LISTED)
        cls = type(t)
        if cls is Meet or cls is Join:
            stack.append(t.right)
            stack.append(t.left)
        elif cls is Compl or cls is Sub:
            stack.append(t.arg)
    return order


_LISTED = object()     # marks a subterm whose children are all listed


def variables(term):
    return {t.index for t in subterms(term) if isinstance(t, Var)}


def _count(term, own):
    """Sum of own(t) over the term read as a tree (a shared subterm counts
    once per occurrence)."""
    total = {}
    for t in subterms(term):
        if isinstance(t, (Meet, Join)):
            inner = total[id(t.left)] + total[id(t.right)]
        elif isinstance(t, (Compl, Sub)):
            inner = total[id(t.arg)]
        else:
            inner = 0
        total[id(t)] = own(t) + inner
    return total[id(term)]


def term_size(term):
    return _count(term, lambda t: 1)


def modality_count(term):
    return _count(term, lambda t: isinstance(t, Sub))


class ParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


# One token after any whitespace; the group that matched is the token's
# kind.  `\Z` matches at the end of the span being read.
_TOKEN_RE = re.compile(
    r"\s*(?:(s\[\d+[,|]\d+\])"
    r"|(d\(\s*\d+\s*,\s*\d+\s*\))"
    r"|(p\d+)"
    r"|(0)|(1)"
    r"|(->)|(\|)|(&)|(~)"
    r"|(\()|(\))|(\Z))"
)
_SUB, _DIAG, _VAR, _ZERO, _ONE, _IMP, _OR, _AND, _NEG, _LPAR, _RPAR, _END = \
    range(1, 13)
_SPACE = re.compile(r"\s*")


def _bad_character(text, pos, end):
    """The error for the first character of text[pos:end] that starts no
    token, read token by token from `pos`; None when there is none."""
    match = _TOKEN_RE.match
    while True:
        m = match(text, pos, end)
        if m is None:
            pos = _SPACE.match(text, pos, end).end()
            return ParseError("unexpected character %r" % text[pos], pos)
        if m.lastindex == _END:
            return None
        pos = m.end()


# Parentheses may nest this deep.  The parser keeps its own stack, so the
# cap is not for recursion but for the group memo: it keeps the text of
# every remembered group (text[at:pos]), and a character lies in as many
# groups as nest around it, so the memo holds up to depth × length
# characters.  The cap bounds that at about MAX_NESTING times the input.
MAX_NESTING = 100

# A parenthesized group this long or longer is remembered under its first
# _KEY characters: a shorter one is cheap to read again, and 16 characters
# set most distinct groups apart.
_KEY = 16

_LEAVES = frozenset((Var, Zero, One, Diag))


class _Parser:
    """Reads formulas of one dimension and mode.  Every subformula is built
    once (hash-consing): `node` keeps one table, keyed by class, field
    values and child identities, for all the text this parser reads, so
    equal subformulas are one object and the walks keyed by id visit each
    once.

    The text is read left to right in one loop with its own stack, so no
    depth of nesting meets the recursion limit.  Each distinct
    parenthesized group of text is parsed once per parser: a group is
    remembered with its node and its own nesting depth, and a later copy
    of the same text, found by its first characters and one
    `str.startswith`, takes that node without being read again.  A copy
    is taken only where its depth still fits under MAX_NESTING; elsewhere
    it is read, and refused, as any other group."""

    def __init__(self, n, mode):
        self.n = n
        self.mode = normalize_mode(mode)
        self.table = {}
        self.syms = {}         # token text -> its checked generator symbol
        self.groups = {}       # first _KEY characters -> [(text, node, depth)]

    def node(self, cls, *fields):
        # the fields of an inner node are children and generator symbols
        # that are this parser's own, so their identities key them
        key = (cls, *(fields if cls in _LEAVES else map(id, fields)))
        t = self.table.get(key)
        if t is None:
            t = self.table[key] = cls(*fields)
        return t

    def sym(self, text, pos):
        g = self.syms.get(text)
        if g is None:
            g = gensym_from_token(text)
            if not mode_allows(self.mode, g):
                raise ParseError(
                    "%s is not allowed in mode %s" % (g.token(), self.mode), pos
                )
            if g.j >= self.n or g.i >= self.n:
                raise ParseError("%s is out of range for n=%d" % (g.token(), self.n), pos)
            # s[0,1] and s[1,0] are one symbol
            g = self.syms[text] = self.table.setdefault(
                (GenSym, g.kind, g.i, g.j), g)
        return g

    def parse(self, text, start=0, end=None):
        """The formula in text[start:end]; error positions are in `text`.

        Binding, tightest first: the prefixes ~ and s[..], then & and |
        (each associating left), then -> (associating right).  Tokens are
        read as the loop needs them, but the errors are those of reading
        the whole span first: a character that starts no token is
        reported before any error of the grammar."""
        if end is None:
            end = len(text)
        match = _TOKEN_RE.match
        node, groups = self.node, self.groups
        ops = [0]        # binding strengths of pending operators; 0 opens a group
        left = []        # their left operands
        frames = []      # per open parenthesis: [position, prefixes, depth inside]
        pos = start      # the end of the text read so far
        try:
            while True:
                # an operand: prefixes, then an atom or a group
                prefix = []            # None for ~, else the generator symbol
                m = match(text, pos, end)
                while m is not None and m.lastindex in (_NEG, _SUB):
                    pos = m.end()
                    if m.lastindex == _NEG:
                        prefix.append(None)
                    else:
                        prefix.append(self.sym(m.group(_SUB), m.start(_SUB)))
                    m = match(text, pos, end)
                if m is None:
                    raise _bad_character(text, pos, end)
                kind = m.lastindex
                pos = m.end()
                if kind == _VAR:
                    t = node(Var, int(m.group(kind)[1:]))
                elif kind == _LPAR:
                    at = pos - 1
                    for g, t, depth in groups.get(text[at:at + _KEY], ()):
                        if (len(frames) + depth <= MAX_NESTING
                                and text.startswith(g, at, end)):
                            pos = at + len(g)
                            if frames and frames[-1][2] < depth:
                                frames[-1][2] = depth
                            break
                    else:
                        if len(frames) >= MAX_NESTING:
                            raise ParseError("parentheses nest deeper than %d"
                                             % MAX_NESTING, at)
                        frames.append([at, prefix, 0])
                        ops.append(0)
                        continue
                elif kind == _ZERO:
                    t = node(Zero)
                elif kind == _ONE:
                    t = node(One)
                elif kind == _DIAG:
                    tok, at = m.group(kind), m.start(kind)
                    if not has_diagonals(self.mode):
                        raise ParseError(
                            "diagonals are not allowed in mode %s" % self.mode, at)
                    i, j = (int(x) for x in tok[2:-1].split(","))
                    if i >= self.n or j >= self.n:
                        raise ParseError("%s is out of range for n=%d"
                                         % (tok, self.n), at)
                    t = node(Diag, i, j)
                else:
                    raise ParseError("unexpected token %r" % m.group(kind),
                                     m.start(kind))
                # the operand `t` is read: apply its prefixes, then take the
                # operator after it, or close the groups it ends
                while True:
                    for g in reversed(prefix):
                        t = node(Compl, t) if g is None else node(Sub, g, t)
                    m = match(text, pos, end)
                    if m is None:
                        raise _bad_character(text, pos, end)
                    kind = m.lastindex
                    pos = m.end()
                    if _IMP <= kind <= _AND:
                        bind = kind - _IMP + 1
                        # -> associates right, & and | left
                        while ops[-1] >= bind + (kind == _IMP):
                            t = _reduce(ops.pop(), left.pop(), t, node)
                        ops.append(bind)
                        left.append(t)
                        break
                    if not ((kind == _RPAR and frames)
                            or (kind == _END and not frames)):
                        raise ParseError(
                            ("expected rpar, found %r" if frames
                             else "trailing input %r") % m.group(kind),
                            m.start(kind))
                    while ops[-1]:
                        t = _reduce(ops.pop(), left.pop(), t, node)
                    if kind == _END:
                        return t
                    ops.pop()
                    at, prefix, depth = frames.pop()
                    depth += 1
                    if pos - at >= _KEY:
                        groups.setdefault(text[at:at + _KEY], []).append(
                            (text[at:pos], t, depth))
                    if frames and frames[-1][2] < depth:
                        frames[-1][2] = depth
        except ValueError:             # a ParseError, or a bad number or symbol
            # the text before `pos` is read; report a bad character after
            # it first, as a reader that lexes the whole span would
            bad = _bad_character(text, pos, end)
            if bad is not None:
                raise bad from None
            raise


def _reduce(bind, a, b, node):
    """The node of a pending operator of binding strength `bind`."""
    if bind == 3:
        return node(Meet, a, b)
    if bind == 2:
        return node(Join, a, b)
    return node(Join, node(Compl, a), b)


def parse(text, n, mode="full"):
    return _Parser(n, mode).parse(text)


class Equation(FrozenRecord):
    __slots__ = _fields = ("lhs", "rhs", "tag")

    def __init__(self, lhs, rhs, tag=""):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "tag", tag)


def parse_equation(text, n, mode="full"):
    if text.count("=") != 1:    # placed at the first '=', or past the end
        raise ParseError("an equation needs exactly one '='",
                         text.find("=") if "=" in text else len(text))
    cut = text.index("=")
    parser = _Parser(n, mode)
    return Equation(parser.parse(text, 0, cut), parser.parse(text, cut + 1))


_PREC = {"join": 2, "meet": 3, "unary": 4}


def format_term(term):
    # each subterm's text with its binding strength; a parent parenthesizes
    # a child that binds more loosely than the place it sits in
    out = {}
    for t in subterms(term):
        if isinstance(t, Var):
            out[id(t)] = ("p%d" % t.index, _PREC["unary"])
        elif isinstance(t, Zero):
            out[id(t)] = ("0", _PREC["unary"])
        elif isinstance(t, One):
            out[id(t)] = ("1", _PREC["unary"])
        elif isinstance(t, Diag):
            out[id(t)] = ("d(%d,%d)" % (t.i, t.j), _PREC["unary"])
        elif isinstance(t, Compl):
            out[id(t)] = ("~" + _placed(out[id(t.arg)], _PREC["unary"]),
                          _PREC["unary"])
        elif isinstance(t, Sub):
            out[id(t)] = (t.sym.token() + " " + _placed(out[id(t.arg)], _PREC["unary"]),
                          _PREC["unary"])
        elif isinstance(t, (Meet, Join)):
            # the parser associates left, so a right-nested child needs parens
            prec = _PREC["meet" if isinstance(t, Meet) else "join"]
            sep = " & " if isinstance(t, Meet) else " | "
            out[id(t)] = (_placed(out[id(t.left)], prec) + sep
                          + _placed(out[id(t.right)], prec + 1), prec)
        else:
            raise TypeError(t)
    return out[id(term)][0]


def _placed(text_prec, prec):
    text, own = text_prec
    return "(" + text + ")" if prec > own else text


def format_equation(eq):
    return "%s = %s" % (format_term(eq.lhs), format_term(eq.rhs))


def eval_term(algebra, term, assignment):
    """Evaluate a term in any algebra handle under a variable assignment."""
    value = {}
    for t in subterms(term):
        if isinstance(t, Var):
            v = assignment[t.index]
        elif isinstance(t, Meet):
            v = algebra.meet(value[id(t.left)], value[id(t.right)])
        elif isinstance(t, Join):
            v = algebra.join(value[id(t.left)], value[id(t.right)])
        elif isinstance(t, Compl):
            v = algebra.compl(value[id(t.arg)])
        elif isinstance(t, Sub):
            v = algebra.subst(t.sym, value[id(t.arg)])
        elif isinstance(t, Zero):
            v = algebra.zero
        elif isinstance(t, One):
            v = algebra.one
        elif isinstance(t, Diag):
            v = algebra.diag(t.i, t.j)
        else:
            raise TypeError(t)
        value[id(t)] = v
    return value[id(term)]


ASSIGNMENT_BUDGET = 10**6     # the most assignments tried exhaustively


def equation_holds_exhaustive(algebra, eq):
    """Check an equation over every assignment of algebra elements."""
    vs = sorted(variables(eq.lhs) | variables(eq.rhs))
    els = list(algebra.elements())
    if len(els) ** len(vs) > ASSIGNMENT_BUDGET:
        raise ValueError("assignment space exceeds budget")
    for choice in itertools.product(els, repeat=len(vs)):
        asg = dict(zip(vs, choice))
        if eval_term(algebra, eq.lhs, asg) != eval_term(algebra, eq.rhs, asg):
            return False
    return True


def word_of_term(term):
    """Peel leading substitution operators: returns (word, core term)."""
    syms = []
    while isinstance(term, Sub):
        syms.append(term.sym)
        term = term.arg
    return tuple(syms), term


def word_pair(eq):
    """For equations of the form (word applied to x) = (word applied to x),
    return the two words; None otherwise."""
    w1, b1 = word_of_term(eq.lhs)
    w2, b2 = word_of_term(eq.rhs)
    if b1 == b2 == Var(0):
        return w1, w2
    return None


def _bool_axioms():
    x, y, z = Var(0), Var(1), Var(2)
    eqs = [
        ("bool:meet-comm", Meet(x, y), Meet(y, x)),
        ("bool:meet-assoc", Meet(x, Meet(y, z)), Meet(Meet(x, y), z)),
        ("bool:meet-idem", Meet(x, x), x),
        ("bool:meet-one", Meet(x, One()), x),
        ("bool:meet-compl", Meet(x, Compl(x)), Zero()),
        ("bool:join-comm", Join(x, y), Join(y, x)),
        ("bool:join-assoc", Join(x, Join(y, z)), Join(Join(x, y), z)),
        ("bool:join-idem", Join(x, x), x),
        ("bool:join-zero", Join(x, Zero()), x),
        ("bool:join-compl", Join(x, Compl(x)), One()),
        ("bool:double-compl", Compl(Compl(x)), x),
        ("bool:meet-distrib", Meet(x, Join(y, z)), Join(Meet(x, y), Meet(x, z))),
        ("bool:join-distrib", Join(x, Meet(y, z)), Meet(Join(x, y), Join(x, z))),
        ("bool:de-morgan", Compl(Meet(x, y)), Join(Compl(x), Compl(y))),
        ("bool:zero-is-compl-one", Zero(), Compl(One())),
    ]
    return [Equation(l, r, tag) for tag, l, r in eqs]


def sigma_axioms(n, mode="full"):
    """The finite axiom list for dimension n in the given mode, tagged.

    Groups: bool:* (Boolean algebra), endo:* (each substitution operator is
    a bounded lattice endomorphism), perm:* (transposition group relations),
    subst:* (interaction laws between replacements and transpositions, all
    of which are word-pair equations), diag:* (diagonal constants).  The
    perm:* and subst:* pairs are monoid.relations, the pairs that certify
    a frame's coherence (frames.Frame.coherent).
    """
    mode = normalize_mode(mode)
    gens = generators(n, mode)
    x, y = Var(0), Var(1)
    eqs = list(_bool_axioms())

    for g in gens:
        t = g.token()
        eqs.append(Equation(Sub(g, Meet(x, y)), Meet(Sub(g, x), Sub(g, y)),
                            "endo:meet:%s" % t))
        eqs.append(Equation(Sub(g, Join(x, y)), Join(Sub(g, x), Sub(g, y)),
                            "endo:join:%s" % t))
        eqs.append(Equation(Sub(g, Zero()), Zero(), "endo:zero:%s" % t))
        eqs.append(Equation(Sub(g, One()), One(), "endo:one:%s" % t))

    for tag, args, left, right in relations(n, mode):
        eqs.append(Equation(word_term(map(gens.__getitem__, left), x),
                            word_term(map(gens.__getitem__, right), x),
                            tag % args))

    if mode == "full_diagonal":
        for i in range(n):
            eqs.append(Equation(Diag(i, i), One(), "diag:refl:%d" % i))
        for i, j in itertools.combinations(range(n), 2):
            eqs.append(Equation(Diag(i, j), Diag(j, i), "diag:sym:%d,%d" % (i, j)))
        for i, j in itertools.combinations(range(n), 2):
            for k in range(n):
                if k in (i, j):
                    continue
                both = Meet(Diag(i, k), Diag(k, j))
                eqs.append(Equation(Meet(both, Diag(i, j)), both,
                                    "diag:chain:%d,%d,%d" % (i, k, j)))
        for g in gens:
            gt = g.tr(n)
            for i, j in itertools.combinations(range(n), 2):
                eqs.append(Equation(
                    Sub(g, Diag(i, j)), Diag(gt[i], gt[j]),
                    "diag:subst:%s:%d,%d" % (g.token(), i, j)))

    return eqs
