"""Formula core: terms, parsing, rendering, free-group interpretation."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lambekstar import (And, Atom, Derivation, FragmentError, GroupWord,
                        Or, Over,
                        ParseError, Plus, Prod, Sequent, Star, Under, Unit,
                        VarSupply, atoms_of, curried_division, division_pure,
                        fg_interp, naive_prove, parse_formula, parse_sequent,
                        prove, render_formula, render_sequent, sentinel,
                        sequence_image, split_curried, type_raise,
                        zero_balanced)
from lambekstar import formula, prover
from lambekstar.formula import (AND, ATOM, OR, OVER, PLUS, PROD, STAR, UNDER,
                                UNIT, _NO_VALUE, _REPR_MAX_SIZE, _comp,
                                _truth)

from helpers import random_division_pure

p, q, r = Atom("p"), Atom("q"), Atom("r")
a, b, c = Atom("a"), Atom("b"), Atom("c")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


# --------------------------------------------------------------------------
# hash-consed terms

class TestTerms:
    def test_hash_consing_identity(self):
        assert Under(p, q) is Under(Atom("p"), Atom("q"))
        assert Prod(p, Star(q)) is Prod(p, Star(Atom("q")))
        assert Atom("p") is p

    def test_size_counts_nodes(self):
        assert p.size == 1
        assert Under(p, q).size == 3
        assert sentinel("p", "q", "r").size == 11

    def test_repr_of_a_shared_tower_returns(self):
        # 60 levels over p^+: 62 distinct nodes, a tree of 3 * 2**60 - 1
        # nodes that no renderer could print; repr names size and top
        f = Plus(p)
        for _ in range(60):
            f = Under(f, f)
        assert repr(f) == ("<formula of size 3458764513820540927, "
                           "top connective \\>")
        assert repr(Sequent((f,), p)).endswith("succedent=<p>)")
        # up to the bound a formula is rendered in full
        g = p
        while 2 * g.size + 1 <= _REPR_MAX_SIZE:
            g = Over(g, g)
        assert repr(g) == f"<{g}>"
        assert repr(Over(g, g)) == (f"<formula of size {2 * g.size + 1}, "
                                    "top connective />")

    def test_kinds_are_distinct(self):
        kinds = {f.kind for f in (p, Unit(), Under(p, q), Over(p, q),
                                  Prod(p, q), Star(p), Plus(p), Or(p, q),
                                  And(p, q))}
        assert len(kinds) == 9


# --------------------------------------------------------------------------
# parse/render

FORMULA_PINS = [
    ("p", p),
    ("1", Unit()),
    ("p \\ q", Under(p, q)),
    ("q / p", Over(q, p)),
    ("p . q", Prod(p, q)),
    ("p^*", Star(p)),
    ("p^+", Plus(p)),
    ("p | q", Or(p, q)),
    ("p & q", And(p, q)),
    ("p\\q\\r", Under(p, Under(q, r))),       # right-assoc under
    ("r/q/p", Over(Over(r, q), p)),           # left-assoc over
    ("p.q.r", Prod(Prod(p, q), r)),
    ("q/(p\\q)", type_raise("p", "q")),
    # mixed operators, loosest to tightest: \ / | & . and the postfixes
    ("a/b\\c", Under(Over(a, b), c)),
    ("a\\b/c", Under(a, Over(b, c))),
    ("p|q/r", Over(Or(p, q), r)),
    ("p&q|r", Or(And(p, q), r)),
    ("p|q&r", Or(p, And(q, r))),
    ("p.q^*", Prod(p, Star(q))),
    ("(p)^*^+", Plus(Star(p))),
    ("p^*.q", Prod(Star(p), q)),
]


@pytest.mark.parametrize("text,expected", FORMULA_PINS)
def test_parse_pins(text, expected):
    assert parse_formula(text) is expected


def test_render_parse_round_trip_pins():
    for text, expected in FORMULA_PINS:
        assert parse_formula(render_formula(expected)) is expected


@st.composite
def formulas(draw, max_depth=4):
    if max_depth == 0:
        return draw(st.sampled_from([p, q, r, Unit()]))
    kind = draw(st.integers(0, 8))
    if kind <= 1:
        return draw(st.sampled_from([p, q, r, Unit()]))
    sub = formulas(max_depth=max_depth - 1)
    a = draw(sub)
    if kind == 2:
        return Star(a)
    if kind == 3:
        return Plus(a)
    b = draw(sub)
    return {4: Under, 5: Over, 6: Prod, 7: Or, 8: And}[kind](a, b)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_render_parse_round_trip_random(f):
    assert parse_formula(render_formula(f)) is f


@given(st.lists(formulas(), max_size=3), formulas())
@settings(max_examples=100, deadline=None)
def test_sequent_round_trip(ante, succ):
    s = Sequent(tuple(ante), succ)
    assert parse_sequent(render_sequent(s)) == s


def test_parse_sequent_empty_antecedent():
    assert parse_sequent("-> p/p") == Sequent((), Over(p, p))
    assert parse_sequent("p, q -> p.q") == Sequent((p, q), Prod(p, q))


@pytest.mark.parametrize("bad", [
    "", "p ->", "-> ", "p -> q -> r", "(p", "p \\", "p ^ q", "p*",
    "p -> q, r", "2", "p p",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_sequent(bad) if "->" in bad else parse_formula(bad)


@pytest.mark.parametrize("parse,text,message", [
    (parse_formula, "p#", "unexpected input at: '#'"),
    (parse_formula, "\u00e9", "unexpected input at: '\u00e9'"),
    (parse_formula, "2", "unexpected input at: '2'"),
    (parse_formula, "p & 12", "unexpected input at: '2'"),
    (parse_formula, "/p", "unexpected token '/'"),
    (parse_formula, "p\\)", "unexpected token ')'"),
    (parse_formula, "p \\", "unexpected end of input"),
    (parse_formula, "(p", "unexpected end of input"),
    (parse_sequent, "p, -> q", "unexpected end of input"),
    (parse_sequent, "(p, q) -> r", "expected ')', got ','"),
    (parse_formula, "(p q)", "expected ')', got 'q'"),
    (parse_sequent, "p -> q, r", "trailing input from ','"),
    (parse_formula, "p p", "trailing input from 'p'"),
    (parse_formula, "p)", "trailing input from ')'"),
    (parse_formula, "p -> q", "trailing input from '->'"),
    (parse_sequent, "p, q", "sequent needs an '->'"),
    (parse_sequent, "p -> q -> r", "sequent has more than one '->'"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,grow", [
    ("p\\" * 2000 + "p", lambda f: Under(p, f)),
    ("p" + "/p" * 2000, lambda f: Over(f, p)),
    ("p" + ".p" * 2000, lambda f: Prod(f, p)),
], ids=["under", "over", "product"])
def test_long_chains_parse(text, grow):
    # the parser keeps explicit stacks: no recursion limit on length or depth
    f = p
    for _ in range(2000):
        f = grow(f)
    assert parse_formula(text) is f


def test_deep_parentheses_parse():
    assert parse_formula("(" * 3000 + "p" + ")" * 3000) is p


def test_long_antecedent_parses():
    text = "p, " + ", ".join(["p\\p"] * 600) + " -> p"
    assert parse_sequent(text) == Sequent((p,) + (Under(p, p),) * 600, p)


# the recursive renderer that the stack-based one replaced, kept as the
# reference for its output
LEVEL = {UNDER: 0, OVER: 1, OR: 2, AND: 3, PROD: 4, STAR: 5, PLUS: 5,
         ATOM: 6, UNIT: 6}


def old_render(f, lvl: int = 0) -> str:
    k = f.kind
    if LEVEL[k] < lvl:
        return "(" + old_render(f, 0) + ")"
    if k == ATOM:
        return f.name
    if k == UNIT:
        return "1"
    if k == UNDER:
        return old_render(f.left, 1) + "\\" + old_render(f.right, 0)
    if k == OVER:
        return old_render(f.left, 1) + "/" + old_render(f.right, 2)
    if k == OR:
        return old_render(f.left, 3) + "|" + old_render(f.right, 2)
    if k == AND:
        return old_render(f.left, 4) + "&" + old_render(f.right, 3)
    if k == PROD:
        return old_render(f.left, 4) + "." + old_render(f.right, 5)
    if k == STAR:
        return old_render(f.left, 5) + "^*"
    return old_render(f.left, 5) + "^+"


def test_render_matches_the_old_renderer_on_the_pins():
    for _, f in FORMULA_PINS:
        assert render_formula(f) == old_render(f)


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_render_matches_the_old_renderer_random(f):
    assert render_formula(f) == old_render(f)


def test_render_matches_the_old_renderer_on_the_stream():
    sys.path.insert(0, str(SRC.parent / "perfbench"))
    try:
        from inputs import STREAM_ITEMS, sequent_stream
    finally:
        sys.path.pop(0)
    for seed in (1, 2, 3):
        for _, text in sequent_stream(seed, STREAM_ITEMS):
            s = parse_sequent(text)
            assert render_sequent(s) == text
            for f in s.antecedent + (s.succedent,):
                assert render_formula(f) == old_render(f)


def test_deep_formula_renders():
    # the renderer keeps an explicit stack: no recursion limit on depth
    text = "p\\" * 2000 + "p"
    f = parse_formula(text)
    assert render_formula(f) == text
    assert render_sequent(Sequent((p,), f)) == "p -> " + text
    assert render_formula(parse_formula("(" * 2000 + "p" + ".p)" * 2000)) \
        == "p" + ".p" * 2000


def test_deep_chain_costs_linear_memory():
    # a node is built with its structure only, and an image is one walk
    # over the chain: when every node kept its free-group image as a
    # fresh tuple, parsing and imaging this chain traced about 150 MB
    text = "p\\" * 6000 + "p"
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        f = parse_formula(text)
        assert render_formula(f) == text
        assert fg_interp(f).letters == (("p", -1),) * 5999
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 20 * 2 ** 20


# --------------------------------------------------------------------------
# sequent and derivation records

def test_sequent_value_semantics():
    s1 = Sequent((p, Under(p, q)), q)
    s2 = parse_sequent("p, p\\q -> q")
    assert s1 == s2 and s1 is not s2
    assert hash(s1) == hash(s2)
    assert len({s1, s2}) == 1
    assert s1 != Sequent((p,), q)
    assert s1 != (s1.antecedent, s1.succedent)
    assert s1.__eq__("p, p\\q -> q") is NotImplemented
    assert repr(s1) == \
        "Sequent(antecedent=(<p>, <p\\q>), succedent=<q>)"
    assert str(s1) == "p, p\\q -> q"


def test_derivation_value_semantics():
    ax = Derivation("Ax", Sequent((p,), p))
    d1 = Derivation("->/", Sequent((), Over(p, p)), (ax,))
    d2 = Derivation("->/", parse_sequent("-> p/p"),
                    premises=(Derivation("Ax", parse_sequent("p -> p")),))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert len({d1, d2, ax}) == 2
    assert ax.premises == ()
    assert d1 != Derivation("->\\", d1.conclusion, d1.premises)
    assert ax.__eq__(ax.conclusion) is NotImplemented
    assert repr(ax) == ("Derivation(rule='Ax', conclusion=Sequent("
                        "antecedent=(<p>,), succedent=<p>), premises=())")


# --------------------------------------------------------------------------
# free group interpretation

class TestFreeGroup:
    def test_pinned_images(self):
        assert str(fg_interp(parse_formula("p\\q"))) == "p^-1 q"
        assert str(fg_interp(parse_formula("q/p"))) == "q p^-1"
        assert str(fg_interp(Unit())) == "e"
        assert str(fg_interp(Prod(p, q))) == "p q"

    def test_group_laws(self, rng):
        for _ in range(50):
            a = fg_interp(random_division_pure(rng, rng.randint(1, 8)))
            b = fg_interp(random_division_pure(rng, rng.randint(1, 8)))
            c = fg_interp(random_division_pure(rng, rng.randint(1, 8)))
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == GroupWord()
            assert a.inverse().inverse() == a

    def test_sequence_image_concatenates(self):
        assert sequence_image((p, Under(p, q))) == fg_interp(q)

    def test_inverse_of_a_letter_never_interned(self):
        name = "never_interned_letter"
        w = GroupWord(((name, 1), ("p", -1)))
        assert w.inverse() == GroupWord((("p", 1), (name, -1)))
        assert w * w.inverse() == GroupWord()
        assert str(w.inverse()) == f"p {name}^-1"

    def test_images_match_a_recursive_reference(self, rng):
        def image(f):
            """The image by structural recursion and group product."""
            if f.kind == ATOM:
                return GroupWord(((f.name, 1),))
            if f.kind == UNIT:
                return GroupWord()
            left, right = image(f.left), image(f.right)
            if f.kind == UNDER:
                return left.inverse() * right
            if f.kind == OVER:
                return left * right.inverse()
            return left * right

        def random_formula(depth):
            if depth == 0 or rng.random() < 0.25:
                return Unit() if rng.random() < 0.1 else \
                    rng.choice((p, q, r))
            make = rng.choice((Under, Over, Prod))
            return make(random_formula(depth - 1), random_formula(depth - 1))

        for _ in range(2000):
            seq = [random_formula(rng.randint(0, 5))
                   for _ in range(rng.randint(0, 4))]
            expected = GroupWord()
            for f in seq:
                ref = image(f)
                assert fg_interp(f) == ref
                assert zero_balanced(f) == ref.is_identity
                expected = expected * ref
            assert sequence_image(seq) == expected

    def test_zero_balanced(self):
        assert zero_balanced(Over(p, p))
        assert zero_balanced(sentinel("p", "q", "r"))
        assert not zero_balanced(p)
        assert not zero_balanced(Under(p, q))

    def test_no_image_for_additives(self):
        for f in (Or(p, q), And(p, q), Star(p), Plus(p)):
            with pytest.raises(FragmentError):
                fg_interp(f)

    @given(formulas())
    @settings(max_examples=120, deadline=None)
    def test_image_is_group_homomorphism_on_products(self, f):
        g = Prod(f, f)
        try:
            img = fg_interp(f)
        except FragmentError:
            return
        assert fg_interp(g) == img * img


# --------------------------------------------------------------------------
# structure-only nodes: values and images on first use

def nodes_of(*roots):
    """Every distinct node of ``roots``."""
    seen, todo = set(), list(roots)
    while todo:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            todo += [c for c in (g.left, g.right) if c is not None]
    return seen


class TestStructureOnlyNodes:
    def test_a_new_node_holds_no_value_and_no_image(self):
        # atom names no other test uses, so every compound node is new
        x, y = Atom("lazy_x"), Atom("lazy_y")
        assert x.rv is not None
        for make in (Under, Over, Prod):
            f = make(x, make(y, x))
            assert f.rv is None and f.right.rv is None
            assert f.name is None and x.name == "lazy_x"
            value = f.tv                # filled all the way down
            assert value == f.rv and f.right.rv is not None

    def test_prove_leaves_a_value_on_every_node_it_searched(self,
                                                            monkeypatch):
        for text in ("lazy_p, lazy_p\\(lazy_q/lazy_r), lazy_r -> lazy_q",
                     "lazy_p, lazy_q -> lazy_p.(lazy_r\\lazy_r)^*.lazy_q"):
            s = parse_sequent(text)
            assert any(n.rv is None
                       for n in nodes_of(*s.antecedent, s.succedent))
            prove(s)
            for n in nodes_of(*s.antecedent, s.succedent):
                assert n.rv is not None
                assert (n.rv is _NO_VALUE) == (n.kinds & 1 << STAR != 0)
        # a second call walks nothing: every node is filled or marked
        walked = []
        monkeypatch.setattr(prover, "_values", walked.append)
        assert prove(s).proved and walked == []

    def test_a_parsed_atom_is_the_factory_atom(self):
        f = parse_formula("parsed_first")
        assert f is Atom("parsed_first")
        g = Atom("built_first")
        assert parse_formula("built_first\\parsed_first").left is g

    def test_bad_atom_names_fail_as_before(self):
        with pytest.raises(ValueError, match=r"^bad atom name: 'Bad'$"):
            Atom("Bad")
        # the intern table also holds tuple keys: none of them is an atom
        for bad in (3, None, (UNIT, None, None), ["p"]):
            with pytest.raises(TypeError, match="expected string"):
                Atom(bad)
        assert Atom("p") is formula._table["p"]


# --------------------------------------------------------------------------
# relational values: 64 valuations in the relations on {0, 1}, packed as
# four 64-bit lanes, one per entry (0,0), (0,1), (1,0), (1,1)

ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def relation(tv, k):
    """The relation that valuation ``k`` gives a packed value."""
    return {e for lane, e in enumerate(ENTRIES) if tv >> (64 * lane + k) & 1}


def covers(g, c):
    """``g`` is contained in ``c`` under every valuation."""
    return g & ~c == 0


class TestTruthMask:
    def test_connectives_follow_their_definitions(self, rng):
        # composition and both residuals, against the relations they pack
        pts = (0, 1)
        for _ in range(20):
            a = random_division_pure(rng, rng.randint(1, 7))
            b = random_division_pure(rng, rng.randint(1, 7))
            for k in rng.sample(range(64), 8):
                ra, rb = relation(a.tv, k), relation(b.tv, k)
                assert relation(Prod(a, b).tv, k) == {
                    (i, j) for i in pts for j in pts
                    if any((i, m) in ra and (m, j) in rb for m in pts)}
                assert relation(Under(a, b).tv, k) == {
                    (i, j) for i in pts for j in pts
                    if all((m, j) in rb for m in pts if (m, i) in ra)}
                assert relation(Over(b, a).tv, k) == {
                    (i, j) for i in pts for j in pts
                    if all((i, m) in rb for m in pts if (j, m) in ra)}
        assert all(relation(Unit().tv, k) == {(0, 0), (1, 1)}
                   for k in range(64))
        assert p.tv != q.tv and 0 <= p.tv < 1 << 256

    def test_residuation(self, rng):
        # A;X <= B exactly when X <= A\B, and X;A <= B exactly when
        # X <= B/A: the residuals are the largest such X
        for _ in range(100):
            a, b, x = (random_division_pure(rng, rng.randint(1, 7))
                       for _ in range(3))
            assert covers(_comp(a.tv, Under(a, b).tv), b.tv)
            assert covers(_comp(Over(b, a).tv, a.tv), b.tv)
            assert covers(_comp(a.tv, x.tv), b.tv) \
                == covers(x.tv, Under(a, b).tv)
            assert covers(_comp(x.tv, a.tv), b.tv) \
                == covers(x.tv, Over(b, a).tv)

    def test_composition_is_a_monoid(self, rng):
        one = Unit().tv
        for _ in range(100):
            a, b, c = (rng.getrandbits(256) for _ in range(3))
            assert _comp(_comp(a, b), c) == _comp(a, _comp(b, c))
            assert _comp(one, a) == a == _comp(a, one)

    def test_currying(self):
        assert Under(Prod(p, q), r).tv == Under(q, Under(p, r)).tv
        assert Over(r, Prod(p, q)).tv == Over(Over(r, q), p).tv
        assert _truth((p, q, r)) == Prod(Prod(p, q), r).tv
        assert _truth(()) == Unit().tv

    def test_refutes_what_order_decides(self):
        # p\p, p -> p has a balanced image and holds under every Boolean
        # valuation (p -> p and p give p), but is underivable: relations
        # see that p must stand first
        s = parse_sequent("p\\p, p -> p")
        assert sequence_image(s.antecedent) == fg_interp(s.succedent)
        assert not naive_prove(s)
        assert _truth(s.antecedent) & ~s.succedent.tv
        assert not _truth(parse_sequent("p, p\\p -> p").antecedent) \
            & ~p.tv

    def test_none_outside_the_image_fragment(self):
        for f in (Or(p, q), And(p, q), Star(p), Plus(p), Under(p, Star(q))):
            assert f.tv is None

    def test_atom_pattern_is_fixed_by_name(self):
        # another interpreter, with another string-hash seed, gives every
        # atom the same four lanes
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c",
             "from lambekstar import Atom; "
             "print(*(Atom(n).tv for n in ('p', 'q', 'x#1')))"],
            capture_output=True, text=True, env=env, check=True, timeout=60)
        assert out.stdout.split() == [str(Atom(n).tv)
                                      for n in ("p", "q", "x#1")]


# --------------------------------------------------------------------------
# structural helpers

class TestHelpers:
    def test_division_pure(self):
        assert division_pure(Under(p, Over(q, r)))
        for f in (Unit(), Prod(p, q), Star(p), Plus(p), Or(p, q), And(p, q)):
            assert not division_pure(f)

    def test_top_of_follows_numerators(self):
        assert p.top == "p"
        assert Under(p, q).top == "q"
        assert Over(q, p).top == "q"
        assert sentinel("p", "q", "r").top == "r"
        assert Prod(p, q).top is None

    def test_atoms_of(self):
        assert atoms_of(sentinel("p", "q", "r")) == {"p", "q", "r"}
        # 61 distinct nodes that unfold to a tree of 2**61 - 1 nodes, so
        # only a walk that visits each shared node once returns
        f = p
        for _ in range(60):
            f = Under(f, f)
        assert f.size == 2 ** 61 - 1
        assert atoms_of(f) == {"p"}
        assert atoms_of(f, Under(q, f)) == {"p", "q"}

    def test_curried_division_inverts(self, rng):
        for _ in range(30):
            gamma = [random_division_pure(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))]
            delta = [random_division_pure(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))]
            core = Atom("z")
            f = curried_division(gamma, core, delta)
            gs, c, ds = split_curried(f)
            assert (list(gs), c, list(ds)) == (gamma, core, delta)

    def test_spine_counts(self, rng):
        # nl and nr count the \ and / denominators down to the head atom
        assert (p.nl, p.nr) == (0, 0)
        assert (Prod(p, q).nl, Prod(p, q).nr) == (0, 0)
        s = sentinel("p", "q", "r")
        assert (s.nl, s.nr) == (0, 2)
        for _ in range(30):
            gamma = [random_division_pure(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))]
            delta = [random_division_pure(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 3))]
            f = curried_division(gamma, Atom("z"), delta)
            assert (f.nl, f.nr) == (len(gamma), len(delta))

    def test_curried_division_orientation(self):
        f = curried_division([p], r, [q])
        assert f is Under(p, Over(r, q))
        assert sequence_image((p, f, q)) == fg_interp(r)

    def test_type_raise_shape(self):
        assert type_raise("p", "q") is Over(q, Under(p, q))

    def test_sentinel_shape_and_guard(self):
        s = sentinel("p", "q", "r")
        assert s is Over(type_raise("p", "r"), type_raise("p", "q"))
        with pytest.raises(ValueError):
            sentinel("p", "p", "r")


class TestVarSupply:
    def test_fresh_avoids_used(self):
        vs = VarSupply()
        assert vs.fresh("d") == "d"
        assert vs.fresh("d") != "d"

    def test_for_formulas_reserves_atoms(self):
        vs = VarSupply.for_formulas([sentinel("p", "q", "r")])
        assert vs.fresh("p") != "p"
        assert {"p", "q", "r"} <= set(vs.used)
