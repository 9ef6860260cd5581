"""Terms over the substitution signature, read two ways.

The same AST serves as Boolean-algebra terms (for equations) and as modal
formulas (variables = propositional letters, substitution operators =
modalities, diagonal constants = equality tests between coordinates).
"""

import itertools
import re
from dataclasses import dataclass

from .monoid import (
    GenSym,
    Transformation,
    canonical_word,
    generators,
    gensym_from_token,
    has_diagonals,
    mode_allows,
    normalize_mode,
    repl,
    swap,
)


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Compl(Term):
    arg: Term


@dataclass(frozen=True)
class Sub(Term):
    sym: GenSym
    arg: Term


@dataclass(frozen=True)
class Diag(Term):
    i: int
    j: int


def implies(a, b):
    return Join(Compl(a), b)


def iff(a, b):
    return Meet(implies(a, b), implies(b, a))


def meet_all(items):
    items = list(items)
    if not items:
        return One()
    out = items[0]
    for t in items[1:]:
        out = Meet(out, t)
    return out


def join_all(items):
    items = list(items)
    if not items:
        return Zero()
    out = items[0]
    for t in items[1:]:
        out = Join(out, t)
    return out


def word_term(syms, arg):
    """s_{g1}(s_{g2}(... s_{gm}(arg))) for the word g1 g2 ... gm."""
    out = arg
    for g in reversed(tuple(syms)):
        out = Sub(g, out)
    return out


def sub_tau(tau, arg, mode="full"):
    """Substitution by an arbitrary transformation, spelled as its
    canonical word over the mode's generators."""
    return word_term(canonical_word(tau, mode), arg)


def variables(term):
    if isinstance(term, Var):
        return {term.index}
    if isinstance(term, (Meet, Join)):
        return variables(term.left) | variables(term.right)
    if isinstance(term, Compl):
        return variables(term.arg)
    if isinstance(term, Sub):
        return variables(term.arg)
    return set()


def term_size(term):
    if isinstance(term, (Meet, Join)):
        return 1 + term_size(term.left) + term_size(term.right)
    if isinstance(term, Compl):
        return 1 + term_size(term.arg)
    if isinstance(term, Sub):
        return 1 + term_size(term.arg)
    return 1


def modality_count(term):
    if isinstance(term, (Meet, Join)):
        return modality_count(term.left) + modality_count(term.right)
    if isinstance(term, Compl):
        return modality_count(term.arg)
    if isinstance(term, Sub):
        return 1 + modality_count(term.arg)
    return 0


class ParseError(ValueError):
    def __init__(self, message, position):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<sub>s\[\d+[,|]\d+\])"
    r"|(?P<diag>d\(\s*\d+\s*,\s*\d+\s*\))"
    r"|(?P<var>p\d+)"
    r"|(?P<zero>0)|(?P<one>1)"
    r"|(?P<imp>->)|(?P<and>&)|(?P<or>\|)|(?P<neg>~)"
    r"|(?P<lpar>\()|(?P<rpar>\))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n, mode):
        self.tokens = _tokenize(text)
        self.k = 0
        self.n = n
        self.mode = normalize_mode(mode)

    def peek(self):
        return self.tokens[self.k][0]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            tok = self.tokens[self.k]
            raise ParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        return self.take()

    def parse(self):
        t = self.implication()
        if self.peek() != "end":
            tok = self.tokens[self.k]
            raise ParseError("trailing input %r" % tok[1], tok[2])
        return t

    def implication(self):
        left = self.disjunction()
        if self.peek() == "imp":
            self.take()
            return implies(left, self.implication())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek() == "or":
            self.take()
            out = Join(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek() == "and":
            self.take()
            out = Meet(out, self.unary())
        return out

    def unary(self):
        kind = self.peek()
        if kind == "neg":
            self.take()
            return Compl(self.unary())
        if kind == "sub":
            _, text, pos = self.take()
            g = gensym_from_token(text)
            if not mode_allows(self.mode, g):
                raise ParseError(
                    "%s is not allowed in mode %s" % (g.token(), self.mode), pos
                )
            if g.j >= self.n or g.i >= self.n:
                raise ParseError("%s is out of range for n=%d" % (g.token(), self.n), pos)
            return Sub(g, self.unary())
        return self.atom()

    def atom(self):
        kind, text, pos = self.take()
        if kind == "zero":
            return Zero()
        if kind == "one":
            return One()
        if kind == "var":
            return Var(int(text[1:]))
        if kind == "diag":
            if not has_diagonals(self.mode):
                raise ParseError("diagonals are not allowed in mode %s" % self.mode, pos)
            i, j = (int(x) for x in text[2:-1].split(","))
            if i >= self.n or j >= self.n:
                raise ParseError("%s is out of range for n=%d" % (text, self.n), pos)
            return Diag(i, j)
        if kind == "lpar":
            t = self.implication()
            self.expect("rpar")
            return t
        raise ParseError("unexpected token %r" % text, pos)


def parse(text, n, mode="full"):
    return _Parser(text, n, mode).parse()


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    tag: str = ""


def parse_equation(text, n, mode="full"):
    if text.count("=") != 1:
        raise ParseError("an equation needs exactly one '='", text.find("="))
    left, right = text.split("=")
    return Equation(parse(left, n, mode), parse(right, n, mode))


_PREC = {"join": 2, "meet": 3, "unary": 4}


def format_term(term):
    def fmt(t, prec):
        if isinstance(t, Var):
            return "p%d" % t.index
        if isinstance(t, Zero):
            return "0"
        if isinstance(t, One):
            return "1"
        if isinstance(t, Diag):
            return "d(%d,%d)" % (t.i, t.j)
        if isinstance(t, Compl):
            return "~" + fmt(t.arg, _PREC["unary"])
        if isinstance(t, Sub):
            return t.sym.token() + " " + fmt(t.arg, _PREC["unary"])
        if isinstance(t, Meet):
            # the parser associates left, so a right-nested child needs parens
            body = fmt(t.left, _PREC["meet"]) + " & " + fmt(t.right, _PREC["meet"] + 1)
            return "(" + body + ")" if prec > _PREC["meet"] else body
        if isinstance(t, Join):
            body = fmt(t.left, _PREC["join"]) + " | " + fmt(t.right, _PREC["join"] + 1)
            return "(" + body + ")" if prec > _PREC["join"] else body
        raise TypeError(t)

    return fmt(term, 0)


def format_equation(eq):
    return "%s = %s" % (format_term(eq.lhs), format_term(eq.rhs))


def eval_term(algebra, term, assignment):
    """Evaluate a term in any algebra handle under a variable assignment."""
    if isinstance(term, Var):
        return assignment[term.index]
    if isinstance(term, Zero):
        return algebra.zero
    if isinstance(term, One):
        return algebra.one
    if isinstance(term, Meet):
        return algebra.meet(
            eval_term(algebra, term.left, assignment),
            eval_term(algebra, term.right, assignment),
        )
    if isinstance(term, Join):
        return algebra.join(
            eval_term(algebra, term.left, assignment),
            eval_term(algebra, term.right, assignment),
        )
    if isinstance(term, Compl):
        return algebra.compl(eval_term(algebra, term.arg, assignment))
    if isinstance(term, Sub):
        return algebra.subst(term.sym, eval_term(algebra, term.arg, assignment))
    if isinstance(term, Diag):
        return algebra.diag(term.i, term.j)
    raise TypeError(term)


def equation_holds_exhaustive(algebra, eq, budget=10**6):
    """Check an equation over every assignment of algebra elements."""
    vs = sorted(variables(eq.lhs) | variables(eq.rhs))
    els = list(algebra.elements())
    if len(els) ** len(vs) > budget:
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
    of which are word-pair equations), diag:* (diagonal constants).
    """
    mode = normalize_mode(mode)
    x, y = Var(0), Var(1)
    eqs = list(_bool_axioms())

    for g in generators(n, mode):
        t = g.token()
        eqs.append(Equation(Sub(g, Meet(x, y)), Meet(Sub(g, x), Sub(g, y)),
                            "endo:meet:%s" % t))
        eqs.append(Equation(Sub(g, Join(x, y)), Join(Sub(g, x), Sub(g, y)),
                            "endo:join:%s" % t))
        eqs.append(Equation(Sub(g, Zero()), Zero(), "endo:zero:%s" % t))
        eqs.append(Equation(Sub(g, One()), One(), "endo:one:%s" % t))

    def wt(*syms):
        return word_term(syms, x)

    if mode in ("transpositions", "full", "full_diagonal"):
        for i, j in itertools.combinations(range(n), 2):
            eqs.append(Equation(wt(swap(i, j), swap(i, j)), x,
                                "perm:involution:%d,%d" % (i, j)))
        for i, k in itertools.combinations(range(n), 2):
            for j in range(n):
                if j in (i, k):
                    continue
                eqs.append(Equation(
                    wt(swap(i, j), swap(j, k), swap(i, j)), wt(swap(i, k)),
                    "perm:conjugation:%d,%d,%d" % (i, j, k)))
        for (i, j), (k, l) in itertools.combinations(
                itertools.combinations(range(n), 2), 2):
            if {i, j} & {k, l}:
                continue
            eqs.append(Equation(
                wt(swap(i, j), swap(k, l)), wt(swap(k, l), swap(i, j)),
                "perm:commute:%d,%d;%d,%d" % (i, j, k, l)))

    if mode in ("replacements", "full", "full_diagonal"):
        pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
        for j, i in pairs:
            eqs.append(Equation(wt(repl(j, i), repl(j, i)), wt(repl(j, i)),
                                "subst:repl-idempotent:%d,%d" % (j, i)))
            eqs.append(Equation(wt(repl(j, i), repl(i, j)), wt(repl(j, i)),
                                "subst:repl-return:%d,%d" % (j, i)))
        for (j, i), (k, l) in itertools.combinations(pairs, 2):
            if {j, i} & {k, l}:
                continue
            eqs.append(Equation(
                wt(repl(j, i), repl(k, l)), wt(repl(k, l), repl(j, i)),
                "subst:repl-commute-disjoint:%d,%d;%d,%d" % (j, i, k, l)))
        for i in range(n):
            for j, k in itertools.combinations(range(n), 2):
                if i in (j, k):
                    continue
                eqs.append(Equation(
                    wt(repl(j, i), repl(k, i)), wt(repl(k, i), repl(j, i)),
                    "subst:repl-shared-target-commute:%d;%d,%d" % (i, j, k)))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) < 3:
                        continue
                    eqs.append(Equation(
                        wt(repl(j, i), repl(k, i)), wt(repl(j, i), repl(k, j)),
                        "subst:repl-shared-target-chain:%d;%d,%d" % (i, j, k)))
                    eqs.append(Equation(
                        wt(repl(j, i), repl(j, k)), wt(repl(j, k)),
                        "subst:repl-overwrite:%d,%d,%d" % (j, i, k)))

    if mode in ("full", "full_diagonal"):
        pairs = [(j, i) for j in range(n) for i in range(n) if i != j]
        for j, i in pairs:
            eqs.append(Equation(
                wt(repl(j, i), swap(i, j)), wt(repl(j, i)),
                "subst:repl-collapse-swap:%d,%d" % (j, i)))
            eqs.append(Equation(
                wt(swap(i, j), repl(j, i), swap(i, j)), wt(repl(i, j)),
                "subst:swap-conj-pair:%d,%d" % (j, i)))
            for k, l in itertools.combinations(range(n), 2):
                if {k, l} & {i, j}:
                    continue
                eqs.append(Equation(
                    wt(swap(k, l), repl(j, i), swap(k, l)), wt(repl(j, i)),
                    "subst:swap-conj-disjoint:%d,%d;%d,%d" % (j, i, k, l)))
            for k in range(n):
                if k in (i, j):
                    continue
                eqs.append(Equation(
                    wt(swap(j, k), repl(j, i), swap(j, k)), wt(repl(k, i)),
                    "subst:swap-conj-source:%d,%d,%d" % (j, i, k)))
                eqs.append(Equation(
                    wt(swap(k, i), repl(j, i), swap(k, i)), wt(repl(j, k)),
                    "subst:swap-conj-target:%d,%d,%d" % (j, i, k)))
                eqs.append(Equation(
                    wt(repl(j, i), repl(i, k)), wt(repl(j, k), swap(i, j)),
                    "subst:repl-chain-swap:%d,%d,%d" % (j, i, k)))

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
        for g in generators(n, mode):
            gt = g.tr(n)
            for i, j in itertools.combinations(range(n), 2):
                eqs.append(Equation(
                    Sub(g, Diag(i, j)), Diag(gt(i), gt(j)),
                    "diag:subst:%s:%d,%d" % (g.token(), i, j)))

    return eqs


@dataclass(frozen=True)
class QuasiEquation:
    premises: tuple
    conclusion: Equation
    tag: str = ""


def bijective_stabilizer(n, allowed):
    """Permutations xi with xi∘sigma in `allowed` for every sigma there."""
    allowed = set(allowed)
    from .monoid import compose, enumerate_monoid

    perms = [t for t in enumerate_monoid(n, "transpositions")]
    return sorted(
        (xi for xi in perms if all(compose(xi, s) in allowed for s in allowed)),
    )


def check_submonoid(n, allowed):
    """`allowed` as a sorted list, once it is known to contain the identity
    and to be closed under composition; ValueError otherwise."""
    from .monoid import compose, identity

    aset = set(allowed)
    if identity(n) not in aset:
        raise ValueError("T must contain the identity")
    for s in aset:
        for t in aset:
            if compose(s, t) not in aset:
                raise ValueError("T is not closed under composition")
    return sorted(aset)


def quasi_axioms(n, allowed):
    """Quasi-equations: a zero meet of substituted variables stays zero when
    every subscript is shifted by a bijective stabilizer element."""
    allowed = check_submonoid(n, allowed)
    from .monoid import compose

    out = []
    xs = {sigma: Var(idx) for idx, sigma in enumerate(allowed)}
    for xi in bijective_stabilizer(n, allowed):
        premise = Equation(
            meet_all(sub_tau(sigma, xs[sigma]) for sigma in allowed), Zero())
        conclusion = Equation(
            meet_all(sub_tau(compose(xi, sigma), xs[sigma]) for sigma in allowed),
            Zero())
        out.append(QuasiEquation((premise,), conclusion,
                                 "quasi:xi=%s" % (list(xi.map),)))
    return out
