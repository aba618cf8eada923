"""Provers: focused kernel, general engine, naive oracle, checker."""

from __future__ import annotations

import random

import pytest

from lambekstar import (And, Atom, BudgetError, CertificateError,
                        FragmentError, Or, Over, Plus, Prod, ProverSession,
                        Sequent, Star, Under, Unit, check_derivation,
                        kernel_backend, naive_prove, normalize_plus,
                        parse_sequent, prove, prove_focused, render_sequent,
                        invert_to_atomic, principal_candidates, sentinel)
from lambekstar.checker import assert_valid_derivation
from lambekstar.formula import Derivation

from helpers import random_division_pure, random_division_sequent

p, q, r = Atom("p"), Atom("q"), Atom("r")
S = sentinel("p", "q", "r")

KNOWN_RULES = frozenset({
    "Ax", "1-Ax", "\\->", "->\\", "/->", "->/", ".->", "->.", "1->",
    "|->", "->|1", "->|2", "&->1", "&->2", "->&",
}) | frozenset(f"->*_{k}" for k in range(64))


def rules_of(d: Derivation) -> set[str]:
    out = {d.rule}
    for prem in d.premises:
        out |= rules_of(prem)
    return out


# --------------------------------------------------------------------------
# pinned verdicts

class TestPins:
    def test_unrestricted_pins(self):
        assert prove(parse_sequent("-> p/p")).proved
        assert prove(parse_sequent("(p\\p)\\q -> q")).proved
        assert prove(parse_sequent("-> 1")).proved
        assert prove(Sequent((S,), S)).proved
        assert not prove(Sequent((), S)).proved
        assert not prove(Sequent((S, S), S)).proved

    def test_restricted_pins(self):
        assert not prove(parse_sequent("-> p/p"), restricted=True).proved
        assert not prove(parse_sequent("(p\\p)\\q -> q"),
                         restricted=True).proved
        assert prove(Sequent((S,), S), restricted=True).proved

    def test_composition_and_raising(self):
        assert prove(parse_sequent("p, p\\q -> q")).proved
        assert prove(parse_sequent("p -> q/(p\\q)")).proved
        assert not prove(parse_sequent("q/(p\\q) -> p")).proved

    def test_unit_laws(self):
        assert prove(parse_sequent("1, p -> p")).proved
        assert prove(parse_sequent("p -> p.1")).proved
        assert prove(parse_sequent("p.1 -> p")).proved
        assert not prove(parse_sequent("-> p"), budget=10_000).proved

    def test_additive_laws(self):
        assert prove(parse_sequent("p & q -> p")).proved
        assert prove(parse_sequent("p -> p | q")).proved
        assert prove(parse_sequent("p | q -> q | p")).proved
        assert prove(parse_sequent("p & q -> q & p")).proved
        assert not prove(parse_sequent("p | q -> p")).proved
        assert not prove(parse_sequent("p -> p & q")).proved
        # distribution of / over v, the MALC equivalence behind the chain
        assert prove(parse_sequent("r/(p|q) -> (r/p)&(r/q)")).proved
        assert prove(parse_sequent("(r/p)&(r/q) -> r/(p|q)")).proved

    def test_positive_star(self):
        assert prove(parse_sequent("-> p^*")).proved
        assert prove(parse_sequent("p, p -> p^*")).proved
        assert prove(parse_sequent("p, q -> (p.q)^*")).proved
        assert not prove(parse_sequent("p -> (p.p)^*")).proved

    def test_plus_normalisation(self):
        d = prove(parse_sequent("p, p -> p^+")).derivation
        assert d.conclusion == parse_sequent("p, p -> p.p^*")
        assert not prove(parse_sequent("-> p^+")).proved

    def test_negative_star_is_off_fragment(self):
        for text in ("p^* -> p", "p^*.q -> q", "-> p/q^*", "q -> q/p^+"):
            with pytest.raises(FragmentError):
                prove(parse_sequent(text))

    def test_doubly_flipped_star_is_searchable(self):
        # these stars sit in positive positions (two negations deep), where
        # the right star rule applies; no ω-rule is needed
        assert prove(parse_sequent("p^*\\q -> q")).proved
        assert prove(parse_sequent("q/p^*, p -> q")).proved
        assert not prove(parse_sequent("q/(p.p^*), q -> q")).proved

    def test_restricted_mode_excludes_empty_premise_connectives(self):
        for f in (Unit(), Star(p), Plus(p)):
            with pytest.raises(FragmentError):
                prove(Sequent((f,), f), restricted=True)
        # additives never force an empty antecedent; they stay available
        assert prove(parse_sequent("p & q -> p"), restricted=True).proved
        assert not prove(parse_sequent("p -> p & q"),
                         restricted=True).proved


def random_budget_cases(n: int, seed: int = 20261018) -> list:
    """Seeded (sequent text, budget) pairs, each budget below the steps the
    sequent needs in a fresh session; every second sequent gets a product
    succedent, so it goes to the general engine."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n:
        s = random_division_sequent(rng, 9)
        if len(cases) % 2:
            extra = random_division_pure(rng, rng.randint(1, 3))
            s = Sequent(s.antecedent + (extra,), Prod(s.succedent, extra))
        sess = ProverSession()
        prove(s, session=sess)
        if sess.steps_used > 1:
            cases.append((render_sequent(s),
                          rng.randrange(1, sess.steps_used)))
    return cases


# --------------------------------------------------------------------------
# engine agreement and sessions

class TestEngines:
    def test_backend_reports(self):
        assert kernel_backend() in ("compiled", "pure")

    def test_three_engines_agree_small(self, rng):
        for _ in range(120):
            s = random_division_sequent(rng, 9)
            got = prove(s).proved
            assert prove_focused(s).proved == got
            assert naive_prove(s) == got

    def test_restricted_agreement(self, rng):
        for _ in range(60):
            s = random_division_sequent(rng, 8)
            assert (prove(s, restricted=True).proved
                    == naive_prove(s, restricted=True))

    def test_restriction_never_proves_more(self, rng):
        for _ in range(60):
            s = random_division_sequent(rng, 8)
            if prove(s, restricted=True).proved:
                assert prove(s).proved

    def test_session_memo_reuse(self):
        sess = ProverSession()
        prove(Sequent((S,), S), session=sess)
        used = sess.steps_used
        assert used > 0
        prove(Sequent((S,), S), session=sess)
        assert sess.steps_used == used  # memo hit, no re-search

    def test_session_restriction_mismatch(self):
        with pytest.raises(ValueError):
            prove(Sequent((p,), p), session=ProverSession(restricted=True))

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            prove(Sequent((S, S), S), budget=5)
        with pytest.raises(BudgetError):
            naive_prove(Sequent((S, S), S), budget=5)

    @pytest.mark.parametrize("text,budget", [
        *(("a\\b, b\\c, c\\d, d\\e -> a\\e", b) for b in range(1, 9)),
        *(("a, a\\b.c -> b.c", b) for b in range(1, 6)),
        *random_budget_cases(16),
    ])
    def test_budget_error_leaves_session_sound(self, text, budget):
        s = parse_sequent(text)
        sess = ProverSession()
        with pytest.raises(BudgetError):
            prove(s, session=sess, budget=budget)
        assert sess.steps_used == budget
        assert all(v is False or isinstance(v, Derivation)
                   for v in sess.memo.values())
        assert prove(s, session=sess).proved == naive_prove(s)

    def test_focused_rejects_general_connectives(self):
        with pytest.raises(FragmentError):
            prove_focused(parse_sequent("p.q -> p.q"))


# --------------------------------------------------------------------------
# derivation certificates

class TestCertificates:
    def test_rule_labels_closed(self, rng):
        seen: set[str] = set()
        for _ in range(80):
            s = random_division_sequent(rng, 9)
            res = prove(s)
            if res.proved:
                seen |= rules_of(res.derivation)
        for text in ("1 -> 1", "p|q -> q|p", "p&q -> q&p",
                     "p, q -> (p.q)^+", "p, p -> p^*", "1, p -> p.1",
                     "p.q, q\\r -> p.r"):
            res = prove(parse_sequent(text))
            assert res.proved, text
            seen |= rules_of(res.derivation)
        assert seen <= KNOWN_RULES
        # the sample exercises both fragments' vocabularies
        assert {"Ax", "->*_2", "->.", ".->", "1->", "|->", "->&"} <= seen

    def test_checker_accepts_all_engine_output(self, rng):
        for _ in range(60):
            s = random_division_sequent(rng, 9)
            res = prove(s)
            if res.proved:
                assert check_derivation(res.derivation)

    def test_checker_rejects_wrong_conclusion(self):
        d = prove(parse_sequent("p, p\\q -> q")).derivation
        forged = Derivation(d.rule, parse_sequent("p, p\\q -> p"),
                            d.premises)
        assert not check_derivation(forged)
        with pytest.raises(CertificateError):
            assert_valid_derivation(forged)

    def test_checker_rejects_wrong_rule_name(self):
        d = prove(parse_sequent("p -> p")).derivation
        assert not check_derivation(Derivation("->\\", d.conclusion, ()))
        assert not check_derivation(Derivation("ax", d.conclusion, ()))

    def test_checker_rejects_dropped_premise(self):
        d = prove(parse_sequent("p, p\\q -> q")).derivation
        assert not check_derivation(Derivation(d.rule, d.conclusion, ()))

    def test_checker_restricted_rejects_empty_antecedents(self):
        d = prove(parse_sequent("-> p/p")).derivation
        assert check_derivation(d)
        assert not check_derivation(d, restricted=True)

    def test_checker_rejects_unit_axiom_on_atom(self):
        assert not check_derivation(Derivation("1-Ax", Sequent((), p), ()))
        assert check_derivation(Derivation("1-Ax", Sequent((), Unit()), ()))


# --------------------------------------------------------------------------
# search-space helpers

class TestSearchHelpers:
    def test_invert_to_atomic(self):
        s = invert_to_atomic(parse_sequent("-> q/(p\\q)"))
        assert s == parse_sequent("p\\q -> q")
        s = invert_to_atomic(parse_sequent("p -> (q\\(q.r))/r"))
        assert s == parse_sequent("q, p, r -> q.r")  # stops at the product

    def test_invert_round_trips_derivability(self, rng):
        for _ in range(40):
            s = random_division_sequent(rng, 8)
            assert prove(invert_to_atomic(s)).proved == prove(s).proved

    def test_principal_candidates(self):
        s = parse_sequent("q/p, p, p\\q -> q")
        assert principal_candidates(s) == (0, 2)
        with pytest.raises(FragmentError):
            principal_candidates(parse_sequent("p -> q/q"))

    def test_normalize_plus_shares_structure(self):
        f = Under(p, q)
        assert normalize_plus(f) is f
        g = normalize_plus(Plus(Prod(p, Plus(q))))
        inner = Prod(p, Prod(q, Star(q)))
        assert g is Prod(inner, Star(inner))
