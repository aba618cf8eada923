"""Formula core: terms, parsing, rendering, free-group interpretation."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lambekstar import (And, Atom, FragmentError, GroupWord, Or, Over,
                        ParseError, Plus, Prod, Sequent, Star, Under, Unit,
                        VarSupply, atoms_of, curried_division, division_pure,
                        fg_interp, naive_prove, parse_formula, parse_sequent,
                        render_formula, render_sequent, sentinel,
                        sequence_image, split_curried, top_of, type_raise,
                        zero_balanced)
from lambekstar.formula import _comp, _truth

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
        assert top_of(p) == "p"
        assert top_of(Under(p, q)) == "q"
        assert top_of(Over(q, p)) == "q"
        assert top_of(sentinel("p", "q", "r")) == "r"
        with pytest.raises(FragmentError):
            top_of(Prod(p, q))

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
