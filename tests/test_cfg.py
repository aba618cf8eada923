"""Grammar toolkit: parsing, CYK, GNF conversion, alternation transform."""

from __future__ import annotations

import warnings

import pytest

from lambekstar import (EmptyWordError, GnfCfg, Grammar, GrammarError,
                        cyk_member, enumerate_words, parse_cfg, render_cfg,
                        to_gnf2, total_plus_to_alt2)

from helpers import (OracleOverflow, oracle_words, random_epsfree_grammar,
                     words_up_to)

ANBN = "@start S\nS -> a S B | a B\nB -> b"


# --------------------------------------------------------------------------
# parsing and values

class TestParsing:
    def test_parse_render_round_trip(self):
        g = parse_cfg(ANBN)
        assert parse_cfg(render_cfg(g)) == g
        assert g.start == "S"
        assert g.terminals == ("a", "b")
        assert g.nonterminals[0] == "S"

    def test_comments_blanks_and_epsilon(self):
        g = parse_cfg("# a grammar\n@start S\n\nS -> a |  \n")
        assert ("S", ()) in g.rules and ("S", ("a",)) in g.rules

    def test_default_start_is_first_lhs(self):
        assert parse_cfg("B -> b\nS -> a").start == "B"

    @pytest.mark.parametrize("bad", [
        "S -> a B",                 # B never defined
        "S -> A^",                  # bad symbol
        "@start T\nS -> a",         # start without rules
        "-> a",                     # missing lhs
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(GrammarError):
            parse_cfg(bad)

    def test_gnf_value_validation(self):
        with pytest.raises(GrammarError):
            GnfCfg(rules=(("S", "B", None, None),), start="S")  # uppercase terminal
        with pytest.raises(GrammarError):
            GnfCfg(rules=(("S", "a", None, "B"),), start="S")  # gap in tail
        g = GnfCfg(rules=(("S", "a", None, None),), start="S",
                   declared_terminals=("a", "b"))
        assert g.terminals == ("a",)
        assert g.declared_terminals == ("a", "b")


# --------------------------------------------------------------------------
# CYK vs the sentential-form oracle

class TestCyk:
    def test_anbn_membership(self):
        g = parse_cfg(ANBN)
        assert cyk_member(g, ("a", "b"))
        assert cyk_member(g, tuple("aaabbb"))
        assert not cyk_member(g, tuple("aab"))
        assert not cyk_member(g, tuple("ba"))
        assert not cyk_member(g, ())

    def test_unknown_letter_is_rejected(self):
        g = parse_cfg(ANBN)
        assert not cyk_member(g, ("a", "c"))

    def test_epsilon_and_unit_rules(self):
        g = parse_cfg("@start S\nS -> A B\nA -> a | \nB -> b | S")
        # L = a^i b: A contributes epsilon-or-a, the unit chain B -> S loops
        assert cyk_member(g, ("b",))
        assert cyk_member(g, ("a", "b"))
        assert cyk_member(g, ("a", "a", "b"))
        assert not cyk_member(g, ("a",))
        assert not cyk_member(g, ("a", "b", "b"))

    def test_matches_oracle_on_random_grammars(self, rng):
        checked = 0
        for i in range(80):
            g = random_epsfree_grammar(rng)
            form_limit = 300_000
            if i % 2:    # half of them get epsilon rules for some symbols
                nts = g.nonterminals
                eps = [nt for nt in nts if rng.random() < 0.4] \
                    or [rng.choice(nts)]
                g = Grammar(g.rules + tuple((nt, ()) for nt in eps), g.start)
                # recursion through nullable symbols grows sentential forms
                # without bound; give up early on those
                form_limit = 2_000
            try:
                want = oracle_words(g, 5, form_limit=form_limit)
            except OracleOverflow:
                continue
            got = {w for w in words_up_to(("a", "b"), 5) if cyk_member(g, w)}
            assert got == want, render_cfg(g)
            checked += 1
        assert checked >= 60

    def test_matches_oracle_with_epsilon_rules(self, rng):
        g = parse_cfg("@start S\nS -> A S b | b\nA -> a A | ")
        want = oracle_words(g, 6)
        got = {w for w in words_up_to(("a", "b"), 6) if cyk_member(g, w)}
        assert got == want

    def test_enumerate_words(self):
        g = parse_cfg(ANBN)
        assert tuple(enumerate_words(g, 4)) == (("a", "b"),
                                                ("a", "a", "b", "b"))
        aplus = parse_cfg("@start S\nS -> a S | a")
        assert tuple(enumerate_words(aplus, 3)) == (("a",), ("a", "a"),
                                                    ("a", "a", "a"))
        empty = parse_cfg("@start S\nS -> a S")
        assert tuple(enumerate_words(empty, 4)) == ()


# --------------------------------------------------------------------------
# GNF conversion

class TestGnf:
    def test_shape_invariant_and_language(self, rng):
        done = 0
        for _ in range(60):
            if done >= 12:
                break
            g = random_epsfree_grammar(rng)
            try:
                want = oracle_words(g, 6)
            except OracleOverflow:
                continue
            if not want:
                continue
            gnf = to_gnf2(g)
            for lhs, a, k, l in gnf.rules:
                assert isinstance(a, str) and a == a.lower()
                assert not (k is None and l is not None)
            got = {w for w in words_up_to(("a", "b"), 6)
                   if cyk_member(gnf.to_grammar(), w)}
            assert got == want, render_cfg(g)
            done += 1
        assert done >= 10

    def test_left_recursion(self):
        g = parse_cfg("@start E\nE -> E p T | T\nT -> a")
        gnf = to_gnf2(g)
        for n in range(1, 4):
            word = ("a",) + ("p", "a") * n
            assert cyk_member(gnf.to_grammar(), word)
        assert not cyk_member(gnf.to_grammar(), ("p", "a"))

    def test_epsilon_word_rejected(self):
        with pytest.raises(EmptyWordError):
            to_gnf2(parse_cfg("@start S\nS -> a | "))

    def test_nullable_inner_symbol_is_fine(self):
        g = parse_cfg("@start S\nS -> a A b\nA -> a | ")
        gnf = to_gnf2(g)
        words = {w for w in words_up_to(("a", "b"), 4)
                 if cyk_member(gnf.to_grammar(), w)}
        assert words == {("a", "b"), ("a", "a", "b")}

    def test_empty_language_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gnf = to_gnf2(parse_cfg("@start S\nS -> a S"))
        assert any("empty language" in str(w.message) for w in caught)
        assert gnf.rules == ()

    def test_already_gnf_is_stable(self):
        g = parse_cfg(ANBN)
        gnf = to_gnf2(g)
        assert render_cfg(gnf.to_grammar()) == render_cfg(g)

    def test_declared_terminals_survive_pruning(self):
        # the c-rule is unreachable and gets pruned, but the alphabet
        # remembers c so the compiler can reject it later
        g = parse_cfg("@start S\nS -> a\nB -> c")
        gnf = to_gnf2(g)
        assert gnf.terminals == ("a",)
        assert set(gnf.declared_terminals) == {"a", "c"}


# --------------------------------------------------------------------------
# the alternation transform

class TestAlt2Lift:
    def test_adds_one_nonterminal_two_rules(self):
        g = parse_cfg("@start S\nS -> a S b | a b")
        lifted = total_plus_to_alt2(g)
        assert len(lifted.rules) == len(g.rules) + 2
        assert len(lifted.nonterminals) == len(g.nonterminals) + 1
        assert lifted.start not in g.nonterminals
        # exactly the sandwich rules, in order
        assert lifted.rules[0] == (lifted.start, ("a", g.start, "b"))
        assert lifted.rules[1] == (lifted.start, ("a", "b"))

    def test_language_relation(self):
        g = parse_cfg("@start S\nS -> a S b | a b")
        lifted = total_plus_to_alt2(g)
        inner = set(enumerate_words(g, 4))
        outer = set(enumerate_words(lifted, 6))
        assert outer == {("a",) + w + ("b",) for w in inner} | {("a", "b")}

    def test_start_name_avoids_collisions(self):
        g = parse_cfg("@start SP\nSP -> a | b")
        lifted = total_plus_to_alt2(g)
        assert lifted.start != "SP" and lifted.start in {
            l for l, _ in lifted.rules}

    def test_arity_guard(self):
        with pytest.raises(GrammarError):
            total_plus_to_alt2(parse_cfg("@start S\nS -> a"))
        with pytest.raises(GrammarError):
            total_plus_to_alt2(parse_cfg("@start S\nS -> a | b | c"))
