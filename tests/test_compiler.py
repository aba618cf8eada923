"""Tests for the two grammar compilers and the shared acceptance check."""
from __future__ import annotations

import warnings

import pytest

from lambekstar import (
    Atom,
    CompiledGrammar,
    GrammarError,
    LambekGrammar,
    Over,
    Prod,
    ProverSession,
    Sequent,
    UnusedTerminalError,
    VarSupply,
    accepts,
    compile_gaifman,
    compile_unique,
    curried_division,
    division_pure,
    parse_cfg,
    prove,
    render_derivation,
    render_formula,
    sentinel,
    to_gnf2,
    total_plus_to_alt2,
    zero_balanced,
)
from lambekstar.checker import assert_valid_derivation, check_derivation
from lambekstar.compiler import _build_is_parts
from lambekstar.formula import _CHOSEN_TV, atoms_of


@pytest.fixture(scope="module")
def g1():
    return compile_unique(to_gnf2(parse_cfg("N0 -> a")))


@pytest.fixture(scope="module")
def g2():
    return compile_unique(to_gnf2(parse_cfg("S -> a S\nS -> a")))


@pytest.fixture(scope="module")
def g3_gnf():
    # a^n b^n, already in binary Greibach form so the conversion is a no-op
    return to_gnf2(parse_cfg("S -> a S B\nS -> a B\nB -> b"))


class TestIsConstruction:
    def test_single_member_display_row(self, g1):
        parts = g1.parts["a"]
        shared = sentinel("t", "v", "w")
        assert len(parts.members) == 1
        a = parts.members[0]
        assert parts.e == (shared, a, shared)
        assert parts.b == parts.e + parts.b[-1:]
        assert parts.c == parts.c[:1] + parts.e

    def test_display_row_length_grows_with_the_family(self, g2):
        parts = g2.parts["a"]
        assert len(parts.members) == 2
        assert len(parts.e) == 2 * len(parts.members) + 1

    def test_heads_of_the_generated_formulas(self, g1):
        assert g1.lexicon["a"].top == "z"
        assert g1.h["N0"].top == "z"
        assert g1.parts["a"].members[0].top == "x"
        assert g1.sentinels["N0"] == sentinel("p0", "q0", "r0")
        assert g1.sentinels["N0"].top == "r0"
        assert g1.parts["a"].formula.top == "s"

    def test_everything_in_the_lexicon_is_zero_balanced(self, g2):
        for f in g2.lexicon.values():
            assert zero_balanced(f)
        for f in g2.h.values():
            assert zero_balanced(f)
        for fs in g2.u_sets.values():
            for f in fs:
                assert zero_balanced(f)
        assert zero_balanced(g2.goal)

    def test_join_certificates_are_replayable(self, g2):
        parts = g2.parts["a"]
        n = len(parts.members)
        suffixes = tuple(tuple(parts.e[2 * i:]) for i in range(n))
        prefixes = tuple(tuple(parts.e[:2 * i + 3]) for i in range(n))
        for cert, rows in ((parts.f, suffixes), (parts.g, prefixes)):
            assert division_pure(cert.join)
            assert cert.problem.inputs == rows
            assert len(cert.witnesses) == len(rows)
            for row, w in zip(rows, cert.witnesses):
                assert w.conclusion == Sequent(row, cert.join)
                assert_valid_derivation(w)

    def test_members_derive_is_but_nothing_shorter_does(self, g1):
        parts = g1.parts["a"]
        k = g1.lexicon["a"]
        session = ProverSession()
        hit = prove(Sequent((parts.members[0],), parts.formula),
                    session=session)
        assert hit.proved
        assert check_derivation(hit.derivation)
        for row in ((), (k,), (k, k)):
            assert not prove(Sequent(row, parts.formula),
                             session=session).proved

    def test_is_suffix_rows_never_reach_the_core(self, g1):
        # chopping the front off the B display row must kill derivability,
        # no matter how many lexicon types are glued on the left
        s = Atom("s")
        k = g1.lexicon["a"]
        session = ProverSession()
        for m in range(3):
            for j in range(1, len(g1.parts["a"].b)):
                row = (k,) * m + g1.parts["a"].b[j:]
                assert not prove(Sequent(row, s), session=session).proved

    def test_family_preconditions(self):
        with pytest.raises(ValueError):
            _build_is_parts([], VarSupply())
        with pytest.raises(ValueError):
            _build_is_parts([Atom("p")], VarSupply())


class TestCompileUnique:
    def test_exactly_one_formula_per_terminal(self, g2):
        assert isinstance(g2, CompiledGrammar)
        assert set(g2.lexicon) == {"a"}
        assert g2.goal == g2.h["S"]

    def test_empty_rule_set_is_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            empty = to_gnf2(parse_cfg("S -> S a"))
        assert empty.rules == ()
        with pytest.raises(GrammarError):
            compile_unique(empty)
        with pytest.raises(GrammarError):
            compile_gaifman(empty)

    def test_pruned_terminals_are_reported(self):
        gnf = to_gnf2(parse_cfg("@start S\nS -> a\nB -> c"))
        with pytest.raises(UnusedTerminalError) as exc:
            compile_unique(gnf)
        assert "c" in str(exc.value)
        # the classical compiler simply drops the letter
        lex = compile_gaifman(gnf).lexicon
        assert set(lex) == {"a"}

    def test_a_session_does_not_change_the_lexicon(self, g3_gnf):
        def rendered(cg):
            return [(render_formula(cg.lexicon[a]),
                     [(render_formula(c.join),
                       [render_derivation(w) for w in c.witnesses])
                      for c in (cg.parts[a].f, cg.parts[a].g)])
                    for a in sorted(cg.lexicon)]

        plain = rendered(compile_unique(g3_gnf))
        # a session that has already answered product queries (general
        # engine) and division queries (kernel) over the compiler's atoms
        sess = ProverSession()
        sh = sentinel("t", "v", "w")
        assert prove(Sequent((Prod(sh, sh),), Prod(sh, sh)),
                     session=sess).proved
        assert prove(Sequent((sh,), sh), session=sess).proved
        assert not prove(Sequent((sh, sh), sh), session=sess).proved
        used = sess.steps_used
        assert rendered(compile_unique(g3_gnf, session=sess)) == plain
        assert sess.steps_used > used
        with pytest.raises(ValueError):
            compile_unique(g3_gnf, session=ProverSession(restricted=True))

    def test_repeat_compile_in_a_session_expands_no_state(self, g3_gnf):
        # the session's memo answers every proof of a repeat compile, which
        # returns an equal lexicon with equal join certificates; a fresh
        # session compiles cold, whatever the process compiled before
        def joins(cg):
            return [(c.join, [render_derivation(w) for w in c.witnesses])
                    for a in sorted(cg.parts)
                    for c in (cg.parts[a].f, cg.parts[a].g)]

        first = ProverSession()
        cg = compile_unique(g3_gnf, session=first)
        used = first.steps_used
        assert used > 0
        again = compile_unique(g3_gnf, session=first)
        assert first.steps_used == used
        assert again.lexicon == cg.lexicon and again.goal == cg.goal
        assert joins(again) == joins(cg)
        fresh = ProverSession()
        compile_unique(g3_gnf, session=fresh)
        assert fresh.steps_used == used

    def test_accepts_g1(self, g1):
        session = ProverSession()
        assert accepts(g1, "a", session=session)
        assert not accepts(g1, "aa", session=session)
        assert not accepts(g1, ())
        with pytest.raises(GrammarError):
            accepts(g1, "b")

    def test_accepts_g2(self, g2):
        session = ProverSession()
        got = [accepts(g2, "a" * n, session=session) for n in range(4)]
        assert got == [False, True, True, True]


    def test_kernel_compositions_are_pinned(self, monkeypatch):
        # every kernel state folds its antecedent's prefix and suffix
        # values at most once, so a peel's fixed context costs no
        # composition per candidate segment.  A warm-up compile interns
        # every formula first, so the count is the provers' alone.
        from lambekstar import _search, formula
        g = to_gnf2(parse_cfg("@start S\nS -> A S b | b\nA -> a A | "))
        compile_unique(g)
        calls = []
        comp = formula._comp

        def counted(r, s):
            calls.append(None)
            return comp(r, s)
        monkeypatch.setattr(formula, "_comp", counted)
        monkeypatch.setattr(_search, "_comp", counted)
        session = ProverSession()
        compile_unique(g, session=session)
        assert session.steps_used == 8_655
        assert len(calls) == 109_949

    def test_every_join_raises_over_its_reserved_core(self):
        # two terminals with one rule each: all four joins are one-row
        # families, and each raises over the core the compiler reserves
        # for it, so the four cores are distinct
        cg = compile_unique(to_gnf2(parse_cfg("S -> a B\nB -> b")))
        atoms = atoms_of(*cg.lexicon.values())
        assert {"d", "d#1", "d#2", "d#3"} <= atoms

    def test_chosen_valuations_name_every_compiled_atom(self):
        # formula._CHOSEN_TV holds the lifted universal lexicon's atoms; a
        # renamed compiler atom falls back to the pseudo-random draw and
        # fails here until tools/choose_valuations.py is re-run
        universal = parse_cfg("S -> a S\nS -> b S\nS -> a\nS -> b")
        cg = compile_unique(to_gnf2(total_plus_to_alt2(universal)))
        assert set(_CHOSEN_TV) == atoms_of(cg.goal, *cg.lexicon.values())
        assert len(_CHOSEN_TV) == 32
        assert Atom("x").rv == _CHOSEN_TV["x"]


class TestGaifman:
    def test_g3_lexicon_shape(self, g3_gnf):
        lg = compile_gaifman(g3_gnf)
        assert isinstance(lg, LambekGrammar)
        s_hat, b_hat = Atom("n_s"), Atom("n_b")
        assert lg.goal == s_hat
        assert set(lg.lexicon["a"]) == {Over(Over(s_hat, b_hat), s_hat),
                                        Over(s_hat, b_hat)}
        assert lg.lexicon["b"] == (b_hat,)

    def test_duplicate_rule_types_are_merged(self):
        gnf = to_gnf2(parse_cfg("S -> a\nS -> a S\nS -> a"))
        lg = compile_gaifman(gnf)
        assert len(lg.lexicon["a"]) == len(set(lg.lexicon["a"]))

    def test_accepts_g3(self, g3_gnf):
        lg = compile_gaifman(g3_gnf)
        session = ProverSession()
        assert accepts(lg, "ab", session=session)
        assert accepts(lg, "aabb", session=session)
        assert not accepts(lg, "aab", session=session)
        assert not accepts(lg, "ba", session=session)
        assert not accepts(lg, ())

    def test_multi_type_contrast_with_unique_assignment(self, g3_gnf):
        lg = compile_gaifman(g3_gnf)
        assert len(lg.lexicon["a"]) == 2
        cg = compile_unique(g3_gnf)
        assert all(not isinstance(f, tuple) for f in cg.lexicon.values())
        assert set(cg.lexicon) == {"a", "b"}


class TestCrossCompilerAgreement:
    def test_both_compilers_agree_on_g2_words(self, g2):
        gnf = to_gnf2(parse_cfg("S -> a S\nS -> a"))
        lg = compile_gaifman(gnf)
        s1, s2 = ProverSession(), ProverSession()
        for n in range(4):
            w = "a" * n
            assert accepts(g2, w, session=s1) == accepts(lg, w, session=s2)
