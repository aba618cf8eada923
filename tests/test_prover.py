"""Provers: focused kernel, general engine, naive oracle, checker."""

from __future__ import annotations

import random

import pytest

from lambekstar import (And, Atom, BudgetError, CertificateError,
                        FragmentError, Or, Over, Plus, Prod, ProverSession,
                        Sequent, Star, Under, Unit, check_derivation,
                        fg_interp,
                        kernel_backend, naive_prove, normalize_plus,
                        parse_sequent, prove, prove_focused,
                        render_derivation, render_sequent, sequence_image,
                        invert_to_atomic, principal_candidates, sentinel)
from lambekstar.checker import assert_valid_derivation
from lambekstar.formula import Derivation, _truth

from helpers import (random_division_pure, random_division_sequent,
                     random_full_sequent)

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


def random_chain(rng: random.Random) -> Sequent:
    """A seeded composition chain ``X0, X0\\X1, .., Xk-1\\Xk -> Xk`` or
    ``Xk/Xk-1, .., X1/X0, X0 -> Xk``, with k from 1 to 3; half of the time
    ``X0`` moves into the succedent.  Every chain is derivable."""
    xs = [random_division_pure(rng, rng.randint(1, 3))
          for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.5:
        chain = tuple(Under(a, b) for a, b in zip(xs, xs[1:]))
        return (Sequent((xs[0],) + chain, xs[-1]) if rng.random() < 0.5
                else Sequent(chain, Under(xs[0], xs[-1])))
    chain = tuple(Over(b, a) for a, b in zip(xs, xs[1:]))[::-1]
    return (Sequent(chain + (xs[0],), xs[-1]) if rng.random() < 0.5
            else Sequent(chain, Over(xs[-1], xs[0])))


def random_budget_cases(n: int, seed: int = 20261018) -> list:
    """Seeded (sequent text, budget) cases with ids ``random-<k>``.

    The sequents are composition chains; every second one gets a product
    succedent, so it goes to the general engine.  They are derivable, the
    sharp case: a search cut short by its budget that left a wrong False in
    the memo would show as a refutation afterwards.  The sequents and ids depend on the seed
    alone; only each budget is scaled to the steps the sequent needs in a
    fresh session, landing in 0 .. steps - 1, so every case runs out.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(n):
        s = random_chain(rng)
        if k % 2:
            extra = random_division_pure(rng, rng.randint(1, 3))
            s = Sequent(s.antecedent + (extra,), Prod(s.succedent, extra))
        share = rng.random()
        sess = ProverSession()
        prove(s, session=sess)
        cases.append(pytest.param(render_sequent(s),
                                  int(share * sess.steps_used),
                                  id=f"random-{k}"))
    return cases


# --------------------------------------------------------------------------
# engine agreement and sessions

class TestEngines:
    def test_backend_reports(self):
        assert kernel_backend() == "pure"

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

    def test_general_engine_matches_oracle_on_full_vocabulary(self, rng):
        # the general engine against the oracle on sequents with ., 1, |,
        # & and positive ^*/^+, in both modes; every Proved is checked
        rules: set[str] = set()
        decided = 0
        for _ in range(3000):
            s = random_full_sequent(rng, 9, atoms=("p", "q"))
            for restricted in (False, True):
                try:
                    got = prove(s, restricted=restricted)
                except FragmentError:
                    continue
                decided += 1
                assert got.proved == naive_prove(s, restricted=restricted), \
                    (render_sequent(s), restricted)
                if got.proved:
                    assert check_derivation(got.derivation,
                                            restricted=restricted)
                    rules |= rules_of(got.derivation)
        assert decided > 4000
        # the sample proves through every rule of the vocabulary
        assert KNOWN_RULES - rules <= {f"->*_{k}" for k in range(4, 64)}

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

    def test_engines_keep_their_own_memo_entries(self):
        # the general engine, taking the product apart, decides the state
        # "(r\r)\p, p\p\q -> p\q" with a derivation of its own; the
        # kernel, asked for that sequent in the same session, must still
        # return the certificate a fresh session gives
        s = parse_sequent("(r\\r)\\p, p\\p\\q -> p\\q")
        sess = ProverSession()
        assert prove(parse_sequent("((r\\r)\\p).(p\\p\\q) -> p\\q"),
                     session=sess).proved
        shared = prove(s, session=sess).derivation
        assert render_derivation(shared) == render_derivation(
            prove(s).derivation)

    def test_budget_error(self):
        # one step short of what a fresh session needs, so the search is
        # cut whatever the kernel's pruning costs
        sess = ProverSession()
        assert not prove(Sequent((S, S), S), session=sess).proved
        with pytest.raises(BudgetError):
            prove(Sequent((S, S), S), budget=sess.steps_used - 1)
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
# kernel search on zero-balanced sequents, where an image test prunes nothing

# denominators proved from the empty segment (where the \ loop starts, at
# the end of the left context, and where the / loop starts, at the start of
# the right context) or from the whole context (where each loop ends)
EDGE_SEGMENTS = (
    "(p\\p)\\q -> q", "(p/p)\\q -> q", "q/(p\\p) -> q", "q/(p/p) -> q",
    "p, (q\\q)\\(p\\r) -> r", "(r/p)/(q/q), p -> r",
    "q/p, p, q\\r -> r", "r/q, q/p, p -> r", "p, p\\q, q\\r -> r",
    "-> p/p", "-> p\\p", "p\\p -> q/q",
)


def zero_balanced_sequents(n: int, seed: int = 20261018) -> list:
    """The edge sequents, then seeded division-pure sequents whose
    antecedent image equals the succedent's: identities, composition chains
    and random sequents over two atoms, in turn."""
    rng = random.Random(seed)
    out = [parse_sequent(t) for t in EDGE_SEGMENTS]
    while len(out) < n:
        kind = len(out) % 3
        if kind == 0:
            a = random_division_pure(rng, rng.randint(1, 7))
            out.append(Sequent((a,), a))
        elif kind == 1:
            out.append(random_chain(rng))
        else:
            while True:
                s = random_division_sequent(rng, 14, 5, ("p", "q"))
                if sequence_image(s.antecedent) == fg_interp(s.succedent):
                    out.append(s)
                    break
    return out


def mask_refuted_sequents(draws: int, seed: int = 20261018) -> list:
    """Seeded zero-balanced sequents that some relational valuation
    refutes.

    Each draw takes a balanced sequent (a composition chain or a random
    two-atom sequent, in turn) and weakens one antecedent formula A to
    B/(A\\B) or (B/A)\\B for a random B: the image stays A, the value
    grows to a relation containing A's.  A draw is kept when it fails the
    relational test, so an image test could refute none of them.
    """
    rng = random.Random(seed)
    out = []
    for k in range(draws):
        if k % 2:
            s = random_chain(rng)
        else:
            while True:
                s = random_division_sequent(rng, 10, 4, ("p", "q"))
                if s.antecedent and sequence_image(s.antecedent) \
                        == fg_interp(s.succedent):
                    break
        i = rng.randrange(len(s.antecedent))
        a = s.antecedent[i]
        b = random_division_pure(rng, rng.randint(1, 3))
        a = (Over(b, Under(a, b)) if rng.random() < 0.5
             else Under(Over(b, a), b))
        s = Sequent(s.antecedent[:i] + (a,) + s.antecedent[i + 1:],
                    s.succedent)
        assert sequence_image(s.antecedent) == fg_interp(s.succedent)
        if _truth(s.antecedent) & ~s.succedent.tv:
            out.append(s)
    return out


class TestZeroBalanced:
    @pytest.mark.parametrize("restricted", [False, True])
    def test_kernel_matches_oracle(self, restricted):
        cases = zero_balanced_sequents(700)
        provable = deep = 0
        for s in cases:
            assert sequence_image(s.antecedent) == fg_interp(s.succedent)
            sess = ProverSession(restricted)
            res = prove(s, restricted=restricted, session=sess)
            assert res.proved == naive_prove(s, restricted=restricted), \
                render_sequent(s)
            if res.proved:
                provable += 1
                assert res.derivation.conclusion == s
                assert check_derivation(res.derivation, restricted)
            if sess.steps_used > 1:
                deep += 1
        # floors below the seeded counts (561 and 474 unrestricted, 496
        # and 454 restricted), so the test cannot go vacuous; the relational
        # test refutes many balanced sequents in their first step
        assert provable >= 400 and deep >= 400

    @pytest.mark.parametrize("restricted", [False, True])
    def test_mask_refutes_only_underivable_sequents(self, restricted):
        # the relational test is sound: every balanced sequent it refutes
        # is underivable by the oracle, and the kernel refutes it in its
        # first step, before any peeling
        cases = mask_refuted_sequents(800)
        for s in cases:
            sess = ProverSession(restricted)
            assert not prove(s, restricted=restricted, session=sess).proved
            assert sess.steps_used == 1, render_sequent(s)
            assert not naive_prove(s, restricted=restricted), \
                render_sequent(s)
        assert len(cases) >= 200

    @pytest.mark.parametrize("text", ["p\\p, p -> p.1", "q\\q, q, p -> q.p"])
    def test_general_engine_refutes_relationally(self, text):
        # equal images, classically valid, underivable: the general engine
        # runs the kernel's relational test and refutes in its first step
        s = parse_sequent(text)
        sess = ProverSession()
        assert not prove(s, session=sess).proved
        assert sess.steps_used == 1
        assert not naive_prove(s)


# --------------------------------------------------------------------------
# spine-count bounds: a head candidate's \ denominators must consume all of
# its left context and its / denominators all of its right context

SPINE_EDGES = (
    # candidates without \ (nl == 0) or / (nr == 0) denominators placed
    # first, in the middle and last
    "q/p, p -> q", "q/q, q/p, p -> q", "r, q/p, p -> q", "p, q/p -> q",
    "p, p\\q -> q", "p\\q, p -> q", "p, p\\q, r -> q", "p, p\\q, q\\q -> q",
    "q/p, p, p\\q -> q", "p, q\\q, p\\q -> q",
    # the last \ or / denominator takes the whole remaining context, which
    # is empty in the last four
    "p, p\\q, q\\r -> r", "r/q, p, p\\q -> r", "p\\p, p\\p, (p\\p)\\q -> q",
    "q/(p/p), p/p, p/p -> q", "p, p, p\\p\\q -> q", "q/p/p, p, p -> q",
    "(p\\p)\\q -> q", "q/(p/p) -> q", "p, p\\(q\\q)\\q -> q",
    "q/(q/q)/p, p -> q",
    # under Lambek's restriction every denominator needs its own formula
    "p, (q/q)\\p\\r -> r", "p, q, q\\p\\r -> r", "r/p/q, q, p -> r",
    "p/p, p, p\\(p/p)\\q -> q", "q/(p/p)/(p/p), p/p, p/p -> q",
)


class TestSpineBounds:
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("text", SPINE_EDGES)
    def test_kernel_matches_oracle(self, text, restricted):
        s = parse_sequent(text)
        res = prove(s, restricted=restricted)
        assert res.proved == naive_prove(s, restricted=restricted)
        if res.proved:
            assert res.derivation.conclusion == s
            assert check_derivation(res.derivation, restricted)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_pruned_steps_are_pinned(self, restricted):
        # no p\p has a / denominator, so only the last one is a candidate,
        # and its \ denominator takes the whole left context: 11 steps,
        # against 21 for the search without the bounds
        s = parse_sequent("p, p\\p, p\\p, p\\p, p\\p, p\\p -> p")
        sess = ProverSession(restricted)
        res = prove(s, restricted=restricted, session=sess)
        assert res.proved and check_derivation(res.derivation, restricted)
        assert sess.steps_used == 11
        assert len(sess.memo) == 11


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

    @staticmethod
    def shared_tower(leaf: Derivation, k: int) -> Derivation:
        """``->.`` nodes k deep whose two premises are one node, so the
        leaf is reached along 2^k paths through k + 1 distinct nodes."""
        d = leaf
        for _ in range(k):
            c = d.conclusion
            d = Derivation("->.", Sequent(c.antecedent + c.antecedent,
                                          Prod(c.succedent, c.succedent)),
                           (d, d))
        return d

    def test_checker_visits_shared_nodes_once(self, monkeypatch):
        from lambekstar import checker
        calls = []
        check = checker._check

        def counted(d, restricted, seen):
            calls.append(d)
            check(d, restricted, seen)
        monkeypatch.setattr(checker, "_check", counted)
        k = 16
        good = self.shared_tower(Derivation("Ax", Sequent((p,), p)), k)
        assert check_derivation(good)
        assert len({id(d) for d in calls}) == k + 1
        assert len(calls) <= 2 * k + 1   # one revisit per shared premise
        bad = self.shared_tower(Derivation("Ax", Sequent((p,), q)), k)
        assert not check_derivation(bad)
        with pytest.raises(CertificateError, match="axiom antecedent"):
            assert_valid_derivation(bad)

    def test_checker_shares_nodes_within_one_call_only(self, monkeypatch):
        from lambekstar import checker
        axioms = []
        check_ax = checker._CHECKERS["Ax"]

        def counted(d):
            axioms.append(d)
            check_ax(d)
        monkeypatch.setitem(checker._CHECKERS, "Ax", counted)
        good = self.shared_tower(Derivation("Ax", Sequent((p,), p)), 4)
        above = self.shared_tower(good, 1)
        assert_valid_derivation(good, above, good)
        assert len(axioms) == 1
        # nothing is kept from one call to the next
        assert_valid_derivation(above)
        assert len(axioms) == 2
        # a bad node reachable only from the second derivation, over
        # premises the first one already had checked, is still rejected
        c = good.conclusion
        bad = Derivation("->.", Sequent(c.antecedent, Prod(c.succedent,
                                                           c.succedent)),
                         (good, good))
        with pytest.raises(CertificateError, match="concatenate"):
            assert_valid_derivation(good, bad)
        assert len(axioms) == 3

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
