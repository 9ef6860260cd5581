"""AST, parser, axiom schemas, and evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from substal.monoid import repl, swap
from substal.setalg import small_algebra
from substal.terms import (
    Compl,
    Diag,
    Equation,
    Join,
    Meet,
    One,
    ParseError,
    Sub,
    Var,
    Zero,
    equation_holds_exhaustive,
    eval_term,
    format_equation,
    format_term,
    iff,
    modality_count,
    parse,
    parse_equation,
    sigma_axioms,
    subterms,
    term_size,
    variables,
    word_pair,
)

from oracles import ref_parse, ref_parse_equation


def test_terms_are_immutable_values():
    """Equal fields make equal terms of one class, with equal hashes; a
    term or equation cannot be changed; repr names the fields."""
    a = Meet(Var(0), Sub(swap(0, 1), One()))
    b = Meet(Var(0), Sub(swap(0, 1), One()))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Join(Var(0), Sub(swap(0, 1), One()))
    assert Zero() == Zero() != One()
    assert repr(a) == ("Meet(left=Var(index=0), "
                       "right=Sub(sym=s[0,1], arg=One()))")
    eq = Equation(a, Zero())
    assert eq == Equation(b, Zero()) != Equation(b, Zero(), "tag")
    assert repr(eq) == "Equation(lhs=%r, rhs=Zero(), tag='')" % (a,)
    for record, field in ((a, "left"), (Var(1), "index"), (eq, "tag")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_parse_examples():
    t = parse("p0 & s[0|1] ~p0", 2)
    assert t == Meet(Var(0), Sub(repl(0, 1), Compl(Var(0))))
    assert parse("d(0,1)", 2, "full_diagonal") == Diag(0, 1)
    assert parse("0 | 1", 2) == Join(Zero(), One())


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("s[0,2] p1", 2)  # index out of range
    with pytest.raises(ParseError):
        parse("p0 &", 2)
    with pytest.raises(ParseError):
        parse("d(0,1)", 2, "full")  # diagonals need the diagonal mode
    with pytest.raises(ParseError):
        parse("s[0,1] p0", 2, "replacements")
    with pytest.raises(ParseError):
        parse("p0 p1", 2)


def test_parse_precedence():
    # prefixes bind tightest, then &, then |, then ->
    t = parse("~p0 & p1 | s[0,1] p0", 2)
    assert t == Join(Meet(Compl(Var(0)), Var(1)), Sub(swap(0, 1), Var(0)))
    imp = parse("p0 -> p1", 2)
    assert imp == parse("~p0 | p1", 2)
    assert parse("s[0,1] (p0 & p1)", 2) == Sub(swap(0, 1), Meet(Var(0), Var(1)))


_leaves = st.sampled_from([Var(0), Var(1), Var(7), Zero(), One(), Diag(0, 1)])


def _grow(children):
    return st.one_of(
        st.builds(Compl, children),
        st.builds(Meet, children, children),
        st.builds(Join, children, children),
        st.builds(lambda t: Sub(swap(0, 1), t), children),
        st.builds(lambda t: Sub(repl(1, 0), t), children),
    )


@given(st.recursive(_leaves, _grow, max_leaves=12))
def test_format_parse_round_trip(t):
    assert parse(format_term(t), 8, "full_diagonal") == t


def test_parse_equation_round_trip():
    eq = parse_equation("s[0|1] p0 = p0 & ~p1", 2)
    assert (eq.lhs, eq.rhs) == (Sub(repl(0, 1), Var(0)),
                                Meet(Var(0), Compl(Var(1))))
    assert parse_equation(format_equation(eq), 2) == eq
    with pytest.raises(ParseError):
        parse_equation("p0 & p1", 2)  # no equals sign


def test_parse_equation_error_positions_are_in_the_whole_text():
    for text, n, position in (("p0 = p1 &", 2, 9),
                              ("s[0,1] p0 = s[0,7] p0", 3, 12),
                              ("p0 = p1 $", 2, 8)):
        with pytest.raises(ParseError) as info:
            parse_equation(text, n)
        assert info.value.position == position, text


def test_parse_builds_each_distinct_subformula_once():
    t = parse("(p0 & s[0,1] p1) | (p0 & s[0,1] p1)", 2)
    assert t.left is t.right
    assert len(subterms(t)) == 5
    # the two sides of an equation come from one table; s[1,0] is s[0,1]
    eq = parse_equation("s[0,1] ~p0 = s[1,0] ~p0", 2)
    assert eq.lhs is eq.rhs
    imp = parse("p0 -> p0 & ~p0", 2)
    assert imp.left.arg is imp.right.left
    assert imp.left is imp.right.right


def _xor(a, b):
    return "((%s & ~%s) | (~%s & %s))" % (a, b, a, b)


def test_parity_chain_has_one_object_per_distinct_subformula():
    """Each xor repeats both operands, so the parsed tree has thousands of
    nodes but only a few dozen distinct subformulas, each one object."""
    words = ["", "s[0,1] ", "s[1|2] s[0,1] "]
    text = "%sp0" % words[0]
    for v in range(1, 9):
        text = _xor(text, "%sp%d" % (words[v % 3], v))
    t = parse(text, 3)
    distinct = {format_term(s) for s in subterms(t)}
    assert len(subterms(t)) == len(distinct)
    assert term_size(t) > 10 * len(distinct)


def test_parse_repeated_groups_keep_the_nesting_cap():
    """A group seen before is not read again, but where its copy would
    pass the nesting cap the copy is refused as its first reading would
    be: the 41st parenthesis of the inner g sits at depth 101."""
    g = "(" * 50 + "p0 & p1" + ")" * 50
    with pytest.raises(ParseError) as info:
        parse(g + " & " + "(" * 60 + g + ")" * 60, 2)
    assert str(info.value) == ("parentheses nest deeper than 100 "
                               "(at position 210)")
    t = parse(g + " & " + "(" * 50 + g + ")" * 50, 2)
    assert t.left is t.right


_ATOMS = ["p0", "p1", "p12", "0", "1", "d(0,1)", "d( 1 ,0 )", "d(0,4)"]
_SOUP = _ATOMS + ["~", "&", "|", "->", "(", ")", "=", "s[0,1]", "s[1,0]",
                  "s[1|0]", "s[0|2]", "s[3,0]", "s[1,1]", "$", "-", " ", "\t"]
_JOINS = [" & ", " | ", " -> ", "&", "|~", " & s[0,1] ", " | s[0|1] ~"]

_terms = st.recursive(st.sampled_from([Var(0), Var(1), One(), Zero(),
                                       Diag(0, 1)]),
                      lambda children: st.one_of(
                          st.builds(Compl, children),
                          st.builds(Meet, children, children),
                          st.builds(Join, children, children),
                          st.builds(lambda t: Sub(swap(0, 1), t), children),
                          st.builds(lambda t: Sub(repl(1, 0), t), children)),
                      max_leaves=5)


@st.composite
def _formula_texts(draw):
    """Token soup, or operands joined by operators.  An operand may be a
    parenthesized group written more than once, some groups nested near
    the cap of 100 and some copies deeper than the first; the whole text
    may sit inside more parentheses."""
    def soup(size):
        sep = draw(st.sampled_from(["", " "]))
        return sep.join(draw(st.lists(st.sampled_from(_SOUP), max_size=size)))

    shape = draw(st.integers(0, 3))
    if shape == 0:
        return soup(12)
    groups = []
    for _ in range(draw(st.integers(0, 3))):
        depth = draw(st.sampled_from([1, 2, 3, 49, 50, 51, 98, 99, 100, 101]))
        inner = draw(st.builds(format_term, _terms)) if draw(
            st.integers(0, 4)) else soup(6)
        groups.append("(" * depth + inner + ")" * depth)
    operand = st.one_of(st.sampled_from(_ATOMS), st.builds(format_term, _terms))
    if groups:
        operand = st.one_of(operand, st.builds(
            lambda g, k: "(" * k + g + ")" * k,
            st.sampled_from(groups), st.sampled_from([0, 0, 1, 2, 50, 51])))
    if shape == 1 and groups:
        g = draw(st.sampled_from(groups))
        k = draw(st.sampled_from([1, 2, 49, 50, 51]))
        parts = [g, "(" * k + g + ")" * k]
    else:
        parts = draw(st.lists(operand, min_size=1, max_size=6))
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from(_JOINS)) + part
    wrap = draw(st.sampled_from([0, 0, 0, 1, 2, 50, 99, 100]))
    return "(" * wrap + text + ")" * wrap


def _outcome(read, *args):
    """The term(s) read, or the error's class, message and position."""
    try:
        return read(*args)
    except ValueError as exc:      # a ParseError is a ValueError
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def _one_object_per_distinct_subterm(t):
    return len(subterms(t)) == len({format_term(s) for s in subterms(t)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_formula_texts(), _formula_texts(), st.sampled_from([1, 2, 2, 3]),
       st.sampled_from(["full", "full_diagonal", "full_diagonal",
                        "replacements", "transpositions"]))
def test_parse_agrees_with_the_recursive_descent_reader(text, other, n, mode):
    """The same term, one object per distinct subterm, or the same error
    at the same position, for formulas and for both sides of equations."""
    got = _outcome(parse, text, n, mode)
    assert got == _outcome(ref_parse, text, n, mode)
    if not isinstance(got, tuple):
        assert _one_object_per_distinct_subterm(got)
    for equation in (text + " = " + other, text + "=" + text):
        got = _outcome(parse_equation, equation, n, mode)
        if isinstance(got, Equation):
            assert (got.lhs, got.rhs) == ref_parse_equation(equation, n, mode)
            assert _one_object_per_distinct_subterm(Meet(got.lhs, got.rhs))
        else:
            assert got == _outcome(ref_parse_equation, equation, n, mode)


def test_term_measures():
    t = parse("s[0,1] (p0 & s[0|1] ~p2)", 3)
    assert variables(t) == {0, 2}
    assert modality_count(t) == 2
    assert term_size(t) == 6
    assert variables(iff(Var(0), Var(3))) == {0, 3}


def test_eval_term_examples():
    alg = small_algebra(2, 2, "full")
    pt01 = 1 << 2  # the point (0,1) sits at index 0 + 1*2
    assert eval_term(alg, One(), {}) == alg.one
    assert eval_term(alg, Sub(repl(0, 1), Var(0)), {0: pt01}) == 0
    assert eval_term(alg, Sub(swap(0, 1), Var(0)), {0: pt01}) == 1 << 1
    with pytest.raises(KeyError):
        eval_term(alg, Var(3), {0: pt01})


def test_equation_holds_exhaustive():
    alg = small_algebra(2, 2, "full")
    assert equation_holds_exhaustive(alg, parse_equation("p0 = p0", 2))
    moved = parse_equation("p0 = s[0,1] p0", 2)
    assert not equation_holds_exhaustive(alg, moved)
    # two variables over the 2¹⁶ elements of ²4: 2³² assignments
    with pytest.raises(ValueError, match="assignment space exceeds budget"):
        equation_holds_exhaustive(small_algebra(2, 4),
                                  parse_equation("p0 & p1 = p1 & p0", 2))


def test_sigma_axiom_counts_and_tags():
    assert len(sigma_axioms(2, "full")) == 36
    assert len(sigma_axioms(3, "full")) == 114
    assert len(sigma_axioms(4, "full")) == 312
    assert len(sigma_axioms(2, "full_diagonal")) == 42
    assert len(sigma_axioms(3, "full_diagonal")) == 150

    tags = {eq.tag for eq in sigma_axioms(2, "full")}
    assert "subst:repl-idempotent:0,1" in tags
    assert sum(t.startswith("bool:") for t in tags) == 15
    # nothing at n=2 needs four distinct indices
    assert not any("disjoint" in t or t.startswith("perm:commute") for t in tags)
    tags4 = {eq.tag for eq in sigma_axioms(4, "full")}
    assert any(t.startswith("perm:commute") for t in tags4)
    assert any(t.startswith("subst:swap-conj-disjoint") for t in tags4)

    dtags = {eq.tag for eq in sigma_axioms(3, "full_diagonal")}
    assert "diag:refl:0" in dtags
    assert any(t.startswith("diag:chain") for t in dtags)


def test_sigma_axioms_mode_filtering():
    repl_tags = {eq.tag for eq in sigma_axioms(3, "replacements")}
    assert not any(t.startswith("perm:") for t in repl_tags)
    assert not any("swap" in t for t in repl_tags)
    swap_tags = {eq.tag for eq in sigma_axioms(3, "transpositions")}
    assert not any(t.startswith("subst:repl") for t in swap_tags)
    assert any(t.startswith("perm:involution") for t in swap_tags)


def test_sigma_axioms_hold_exhaustively_in_squares():
    for k in (1, 2):
        alg = small_algebra(2, k, "full")
        for eq in sigma_axioms(2, "full"):
            assert equation_holds_exhaustive(alg, eq), (k, eq.tag)
        dalg = small_algebra(2, k, "full_diagonal")
        for eq in sigma_axioms(2, "full_diagonal"):
            assert equation_holds_exhaustive(dalg, eq), (k, eq.tag)


def test_substitution_respects_complement():
    alg = small_algebra(2, 2, "full")
    eq = parse_equation("s[0|1] ~p0 = ~s[0|1] p0", 2)
    assert equation_holds_exhaustive(alg, eq)
    eq2 = parse_equation("s[0,1] ~p0 = ~s[0,1] p0", 2)
    assert equation_holds_exhaustive(alg, eq2)


def test_word_pair():
    eq = parse_equation("s[0|1] s[0|1] p0 = s[0|1] p0", 2)
    w1, w2 = word_pair(eq)
    assert [g.token() for g in w1] == ["s[0|1]", "s[0|1]"]
    assert [g.token() for g in w2] == ["s[0|1]"]
    assert word_pair(parse_equation("s[0|1] p0 = p1", 2)) is None
    assert word_pair(parse_equation("s[0|1] ~p0 = p0", 2)) is None
