"""Provers: the focused kernel, in and outside the division fragment, the
naive oracle, the checker."""

from __future__ import annotations

import random
import time

import pytest

from lambekstar import (And, Atom, BudgetError, CertificateError,
                        FragmentError, Or, Over, Plus, Prod, ProofResult,
                        ProverSession,
                        Sequent, Star, Under, Unit, approximate,
                        check_derivation, cli, derive_identity, fg_interp,
                        kernel_backend, naive_prove, normalize_plus,
                        parse_formula, parse_sequent, prove,
                        render_derivation, render_formula, render_sequent,
                        sequence_image,
                        sentinel)
from lambekstar.checker import assert_valid_derivation
from lambekstar.formula import AND, OR, PLUS, STAR, Derivation, _truth
from lambekstar.prover import _kinds, _prepare

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

UNIT_REFUSED = ("the unit is not part of the calculus under Lambek's "
                "restriction")
ITERATION_REFUSED = ("iteration under Lambek's restriction is not supported "
                     "by this prover (its rules fall outside the derivation "
                     "vocabulary)")
NEGATIVE_STAR = ("occurs in negative position; the left iteration rule is "
                 "an ω-rule and cannot be searched")


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

    @pytest.mark.parametrize("text,restricted,message", [
        ("1 -> p/p", True, UNIT_REFUSED),
        ("p -> p^*", True, ITERATION_REFUSED),
        ("p^+, p -> p", True, ITERATION_REFUSED),
        # both: the iteration message, whatever comes first
        ("1, p^* -> p", True, ITERATION_REFUSED),
        ("p^* -> p", False, "p^* " + NEGATIVE_STAR),
        # A^+ reads A.A^*, so the star is the one named
        ("q -> q/p^+", False, "p^* " + NEGATIVE_STAR),
        # nested negative stars: the innermost is named
        ("(p^*)^* -> p", False, "p^* " + NEGATIVE_STAR),
    ])
    def test_fragment_error_texts(self, text, restricted, message, capsys):
        with pytest.raises(FragmentError) as e:
            prove(parse_sequent(text), restricted=restricted)
        assert str(e.value) == message
        argv = ["prove", "--restrict", text] if restricted \
            else ["prove", text]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_restricted_mode_excludes_empty_premise_connectives(self):
        for f in (Unit(), Star(p), Plus(p)):
            with pytest.raises(FragmentError):
                prove(Sequent((f,), f), restricted=True)
        # additives never force an empty antecedent; they stay available
        assert prove(parse_sequent("p & q -> p"), restricted=True).proved
        assert not prove(parse_sequent("p -> p & q"),
                         restricted=True).proved


class TestEntry:
    """One fold of ``kinds`` at ``prove`` entry picks the walks and the
    engine; the result records keep their value semantics."""

    def test_proof_result_record(self):
        d = prove(parse_sequent("p, p\\q -> q")).derivation
        res = ProofResult(True, d)
        assert res.proved and res.derivation is d
        assert res.verdict == "Proved"
        assert ProofResult(False).verdict == "Refuted"
        assert ProofResult(False).derivation is None
        assert res == prove(parse_sequent("p, p\\q -> q"))
        assert hash(res) == hash(ProofResult(True, d))
        assert res != ProofResult(False, d)
        assert repr(ProofResult(False)) == \
            "ProofResult(proved=False, derivation=None)"

    @pytest.mark.parametrize("text", [
        "p, p\\q -> q", "p, q -> p.q", "p, p -> p^*", "q/p, p, r -> q . r",
    ])
    def test_list_antecedent_proves_like_the_tuple(self, text):
        s = parse_sequent(text)
        listed = prove(Sequent(list(s.antecedent), s.succedent))
        assert listed.proved
        assert listed.derivation.conclusion.antecedent.__class__ is tuple
        assert render_derivation(listed.derivation) == \
            render_derivation(prove(s).derivation)

    @pytest.mark.parametrize("text", ["p, p\\q -> q", "p -> p . 1^*"])
    def test_unchanged_sequent_is_the_callers_own(self, text):
        s = parse_sequent(text)
        assert _prepare(s, False, _kinds(s)) is s
        assert prove(s).derivation.conclusion == s

    def test_plus_certificate_concludes_the_normalised_sequent(self):
        d = prove(parse_sequent("p, q, q -> (p.q^+)")).derivation
        assert d.conclusion == parse_sequent("p, q, q -> p.(q.q^*)")
        assert check_derivation(d)

    @pytest.mark.parametrize("text", [
        "1 -> p/p", "-> 1", "p -> p^*", "p^* -> p", "p^+, p -> p",
    ])
    def test_unit_and_iteration_are_refused_when_restricted(self, text):
        with pytest.raises(FragmentError):
            prove(parse_sequent(text), restricted=True)


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
    succedent, outside the division fragment.  They are derivable, the
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

    def test_kernel_matches_oracle_small(self, rng):
        for _ in range(120):
            s = random_division_sequent(rng, 9)
            got = prove(s).proved
            assert naive_prove(s) == got

    def test_restricted_agreement(self, rng):
        for _ in range(60):
            s = random_division_sequent(rng, 8)
            assert (prove(s, restricted=True).proved
                    == naive_prove(s, restricted=True))

    def test_star_block_split_is_polynomial(self, monkeypatch):
        # p, ..., p -> p^* takes the shortest first block whose rest
        # splits: the root, then one call per one-formula block, where
        # the order of all cut sets takes 2^(n-1)
        from lambekstar import _search
        calls = []
        search = _search.search

        def counted(*args):
            calls.append(None)
            return search(*args)
        monkeypatch.setattr(_search, "search", counted)
        for n in (16, 200):
            calls.clear()
            d = prove(Sequent((p,) * n, Star(p))).derivation
            assert d.rule == f"->*_{n}"
            assert len(calls) == n + 1

    @pytest.mark.parametrize("inverted,plain", [
        ("-> (p.q)\\(p.q)", "p.q -> p.q"),
        ("p & q -> r\\(r.p)", "r, p & q -> r.p"),
        ("p.q -> (p.q)/r\\r", "p.q, (p.q)/r -> r"),
    ])
    def test_division_inversion_costs_no_step(self, inverted, plain):
        # inverting a \ or / succedent opens no state of its own, in the
        # full vocabulary as in the division fragment
        used = []
        for text in (inverted, plain):
            sess = ProverSession()
            prove(parse_sequent(text), session=sess)
            used.append(sess.steps_used)
        assert used[0] == used[1]

    def test_general_engine_matches_oracle_on_full_vocabulary(self, rng):
        # the kernel against the oracle on sequents with ., 1, |,
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

    def test_values_hold_on_every_full_vocabulary_theorem(self, rng):
        # union, intersection and reflexive-transitive closure validate
        # the rules of |, & and positive ^*, so no sequent the oracle
        # proves fails the kernel's relational test
        OR_AND_ITER = 1 << OR | 1 << AND | 1 << STAR | 1 << PLUS
        rich = 0
        for _ in range(1500):
            s = random_full_sequent(rng, 9, atoms=("p", "q"))
            if naive_prove(s):
                assert _truth(s.antecedent) & ~s.succedent.tv == 0, \
                    render_sequent(s)
                rich += bool(_kinds(s) & OR_AND_ITER)
        assert rich > 100

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

    def test_shared_session_gives_the_fresh_certificate(self):
        # the kernel, taking the product apart, decides the state
        # "(r\r)\p, p\p\q -> p\q" on the way; asked for that
        # sequent later in the same session, prove must still return the
        # certificate a fresh session gives
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
    antecedent image equals the succedent's: type raisings
    ``A -> B/(A\\B)`` or ``A -> (B/A)\\B``, composition chains and random
    sequents over two atoms, in turn.  (An identity ``A -> A`` closes by
    its expansion without a search, so it would exercise none.)"""
    rng = random.Random(seed)
    out = [parse_sequent(t) for t in EDGE_SEGMENTS]
    while len(out) < n:
        kind = len(out) % 3
        if kind == 0:
            a = random_division_pure(rng, rng.randint(1, 6))
            b = random_division_pure(rng, rng.randint(1, 3))
            raised = (Over(b, Under(a, b)) if rng.random() < 0.5
                      else Under(Over(b, a), b))
            out.append(Sequent((a,), raised))
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
        # floors below the seeded counts (568 and 473 unrestricted, 494
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
        # equal images, classically valid, underivable: the kernel's
        # relational test refutes in the first step
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

# outside the division fragment a \ or / formula whose head is not an atom
# takes context: the peel hands the sequent it leaves, with context on both
# sides of the head, to the search; a formula headed by an atom is
# peeled only against that atom, and so never against a compound goal
PEEL_HEADS = (
    "s, p, p\\(q.r), t -> (s.q).(r.t)", "s, p, p\\(q|r), t -> s.(q|r).t",
    "s, p, p\\(q|r), t -> s.q.t", "s, p, p\\(q&r), t -> s.r.t",
    "s, p, p\\1, t -> s.t", "s, (q.r)/p, p, t -> (s.q).(r.t)",
    "s, (q|r)/p, p, t -> s.(r|q).t", "s, (q&r)/p, p, t -> s.q.t",
    "s, 1/p, p, t -> s.t", "s, u, (u\\(q.r))/p, p, t -> s.q.r.t",
    "p, p\\(q.r), r\\r -> q.r", "(q&r)/p, p, q\\s -> s",
    "p/q, q, r -> p.r", "r, q, q\\p -> r.p", "q, q\\p, r -> r.p",
    "p/(q.r), q, r, s -> p.s", "p/q, q -> p.q^*",
)


class TestSpineBounds:
    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("text", SPINE_EDGES + PEEL_HEADS)
    def test_kernel_matches_oracle(self, text, restricted):
        s = parse_sequent(text)
        try:
            res = prove(s, restricted=restricted)
        except FragmentError:
            # a unit or a star under Lambek's restriction
            assert restricted
            with pytest.raises(FragmentError):
                naive_prove(s, restricted=True)
            return
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
# identity goals A -> A close by their identity expansion, without a search

IDENTITIES = ("p", "(p\\q)/(r/p)", "p/(q\\q)", "(q/p)\\(p\\q)/r",
              "((p\\p)\\p)\\p", "r/(r/r)/q")


class TestIdentity:
    @pytest.mark.parametrize("restricted", [False, True])
    def test_identity_goal_is_its_expansion(self, restricted):
        rng = random.Random(20261021)
        formulas = [parse_formula(t) for t in IDENTITIES]
        formulas += [random_division_pure(rng, rng.randint(2, 9))
                     for _ in range(40)]
        for f in formulas:
            sess = ProverSession(restricted)
            res = prove(Sequent((f,), f), restricted=restricted,
                        session=sess)
            assert res.derivation == derive_identity(f), render_formula(f)
            assert check_derivation(res.derivation, restricted)
            assert sess.steps_used == 1

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("division", [Under, Over])
    def test_deep_identity_goals_prove(self, division, restricted):
        # 2,000 nested divisions, far above the default recursion limit,
        # which a peel down the spine would reach
        f = p
        for _ in range(2000):
            f = division(p, f) if division is Under else division(f, p)
        res = prove(Sequent((f,), f), restricted=restricted)
        assert res.proved
        assert check_derivation(res.derivation, restricted)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_identity_queries_share_the_session_memo(self, restricted):
        # an identity met as a sub-goal, a denominator's one-formula
        # segment here, is stored with every sub-identity of its
        # expansion; a later query for any of them is a memo hit
        a = parse_formula("(p\\q)/(r/p)")
        sess = ProverSession(restricted)
        assert prove(Sequent((a, Under(a, r)), r), restricted=restricted,
                     session=sess).proved
        used = sess.steps_used
        for g in (a, a.left, a.right, p):
            got = prove(Sequent((g,), g), restricted=restricted,
                        session=sess).derivation
            assert got is sess.memo[(g,), g]
            assert got == derive_identity(g)
        assert sess.steps_used == used
        # the top identity's expansion holds its sub-identities' entries
        inner = sess.memo[(a,), a].premises[0]
        assert inner.premises[0] is sess.memo[(a.right,), a.right]
        assert inner.premises[1] is sess.memo[(a.left,), a.left]


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
        for rule in ("Ax", "->."):
            def counted(d, _check=checker._CHECKERS[rule]):
                calls.append(d)
                _check(d)
            monkeypatch.setitem(checker._CHECKERS, rule, counted)
        k = 16
        good = self.shared_tower(Derivation("Ax", Sequent((p,), p)), k)
        assert check_derivation(good)
        # each of the k + 1 distinct nodes is checked exactly once
        assert len({id(d) for d in calls}) == len(calls) == k + 1
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

    RECOMBINATION = ("conclusion is not the rule's recombination of the "
                     "premises")

    @staticmethod
    def two_premise(rule, conclusion, left, right):
        """A ``rule`` node over the axioms ``left -> left`` and
        ``right -> right``, concluding the text ``conclusion``."""
        return Derivation(rule, parse_sequent(conclusion), (
            Derivation("Ax", Sequent((left,), left)),
            Derivation("Ax", Sequent((right,), right))))

    @pytest.mark.parametrize("rule, good, forged", [
        ("\\->", "p, p\\q -> q",
         ["p\\q, p -> q", "p, r\\q -> q", "p, p\\r -> q", "p\\q -> q",
          "p, p, p\\q -> q", "p, p\\q, q -> q"]),
        ("/->", "q/p, p -> q",
         ["p, q/p -> q", "q/r, p -> q", "r/p, p -> q", "q/p -> q",
          "q/p, p, p -> q", "q, q/p, p -> q"]),
    ])
    def test_checker_rejects_forged_division_nodes(self, rule, good,
                                                   forged):
        assert check_derivation(self.two_premise(rule, good, p, q))
        for text in forged:
            d = self.two_premise(rule, text, p, q)
            assert not check_derivation(d)
            with pytest.raises(CertificateError) as e:
                assert_valid_derivation(d)
            assert str(e.value) == \
                f"bad [{rule}] node at {text}: {self.RECOMBINATION}"

    def test_checker_rejects_forged_product_nodes(self):
        prem = prove(parse_sequent("r, p, q -> r.(p.q)")).derivation
        good = Derivation(".->", parse_sequent("r, p.q -> r.(p.q)"),
                          (prem,))
        assert check_derivation(good)
        for text in ("p.q, r -> r.(p.q)", "r, q.p -> r.(p.q)",
                     "r, p.r -> r.(p.q)", "r -> r.(p.q)",
                     "r, p.q, q -> r.(p.q)"):
            d = Derivation(".->", parse_sequent(text), (prem,))
            assert not check_derivation(d)
            with pytest.raises(CertificateError) as e:
                assert_valid_derivation(d)
            assert str(e.value) == (
                f"bad [.->] node at {text}: conclusion does not fuse two "
                "adjacent premise formulas")

    @pytest.mark.parametrize("rule, conclusion, premises, why", [
        ("Ax", "p\\p -> p\\p", (), "axiom succedent must be an atom"),
        ("\\->", "p, p\\q -> q", ("p -> p", "q -> r"),
         "context premise changes the succedent"),
        ("/->", "q/p, p -> q", ("p -> p", "q -> r"),
         "context premise changes the succedent"),
        ("->\\", "p -> q", ("p -> q",), "succedent is not a \\-formula"),
        ("->\\", "q -> p\\q", ("q, p -> q",),
         "premise must prepend the denominator"),
        ("->/", "p -> q", ("p -> q",), "succedent is not a /-formula"),
        ("->/", "q -> q/p", ("p, q -> q",),
         "premise must append the denominator"),
        (".->", "p.q -> p.q", ("p, q -> q.p",),
         "premise changes the succedent"),
        ("->.", "p, q -> p", ("p -> p", "q -> q"),
         "succedent is not a product"),
        ("->.", "p, q -> p.q", ("p -> q", "q -> q"),
         "premises do not prove the factors"),
        ("1->", "1, p -> p", ("p -> q",), "premise changes the succedent"),
        ("1->", "1, p -> p", ("q -> p",),
         "conclusion does not insert a unit into the premise"),
        ("|->", "p|q -> r", ("p -> r", "q -> p"),
         "premises change the succedent"),
        ("|->", "p|q -> r", ("p, p -> r", "q -> r"),
         "antecedent lengths disagree"),
        ("|->", "p|q -> r", ("q -> r", "p -> r"),
         "premises are not the two branches of one |-formula"),
        ("->|1", "p -> p", ("p -> p",), "succedent is not an |-formula"),
        ("->|2", "p -> p|q", ("p -> p",),
         "premise does not prove the chosen side"),
        ("&->1", "p&q -> p", ("p -> q",), "premise changes the succedent"),
        ("&->1", "p&q -> p", ("p, q -> p",), "antecedent lengths disagree"),
        ("&->2", "p&q -> p", ("p -> p",),
         "premise does not keep the chosen conjunct"),
        ("->&", "p -> p", ("p -> p", "p -> p"),
         "succedent is not an &-formula"),
        ("->&", "p -> p&p", ("p -> p", "q -> p"),
         "premises change the antecedent"),
        ("->&", "p -> p&q", ("p -> p", "p -> p"),
         "premises do not prove both conjuncts"),
        ("->*_1", "p -> p", ("p -> p",), "succedent is not a ^*-formula"),
        ("->*_x", "p -> p^*", ("p -> p",), "malformed ->*_k label"),
        ("->*_1", "p -> p^*", ("p -> q",),
         "block premise does not prove the starred formula"),
        ("->*_2", "p, p -> p^*", ("p -> p", "q -> p"),
         "block antecedents do not concatenate to the conclusion"),
    ])
    def test_checker_rejects_each_tampered_rule(self, rule, conclusion,
                                                premises, why):
        # one forged node per rejection of the rule schemas; the premises
        # are bare "Ax" nodes, never reached, since the forged node is
        # checked first and rejected
        d = Derivation(rule, parse_sequent(conclusion), tuple(
            Derivation("Ax", parse_sequent(t)) for t in premises))
        assert not check_derivation(d)
        with pytest.raises(CertificateError) as e:
            assert_valid_derivation(d)
        assert str(e.value) == f"bad [{rule}] node at {conclusion}: {why}"

    def test_checking_join_witnesses_interns_nothing(self, monkeypatch):
        from lambekstar import compile_unique, formula, parse_cfg, to_gnf2
        cg = compile_unique(to_gnf2(parse_cfg("S -> a S | b S | a | b")))
        witnesses = [w for parts in cg.parts.values()
                     for cert in (parts.f, parts.g) for w in cert.witnesses]
        assert witnesses
        interned = []
        intern = formula._intern

        def counted(*args):
            interned.append(args)
            return intern(*args)
        monkeypatch.setattr(formula, "_intern", counted)
        before = len(formula._table)
        assert_valid_derivation(*witnesses)
        assert interned == [] and len(formula._table) == before

    @staticmethod
    def over_chain(bottom: Derivation, depth: int) -> Derivation:
        """``/->`` nodes ``depth`` deep over ``bottom``, concluding
        ``p/p, ..., p/p, Π -> p`` when ``bottom`` is ``Π -> p``."""
        ax = Derivation("Ax", Sequent((p,), p))
        pp = Over(p, p)
        d = bottom
        for _ in range(depth):
            d = Derivation("/->", Sequent((pp,) + d.conclusion.antecedent, p),
                           (d, ax))
        return d

    def test_checker_handles_deep_derivations(self):
        deep = self.over_chain(Derivation("Ax", Sequent((p,), p)), 3000)
        assert len(deep.conclusion.antecedent) == 3001
        assert check_derivation(deep)
        forged = self.over_chain(Derivation("Ax", Sequent((q,), p)), 3000)
        assert not check_derivation(forged)
        with pytest.raises(CertificateError) as e:
            assert_valid_derivation(forged)
        assert str(e.value) == ("bad [Ax] node at q -> p: axiom antecedent "
                                "must be exactly the succedent atom")

    def test_deep_derivations_render(self):
        # deeper than the default recursion limit; the chain's text grows
        # with the square of its depth (3,000 deep writes 40 MB)
        deep = self.over_chain(Derivation("Ax", Sequent((p,), p)), 1200)
        lines = render_derivation(deep).split("\n")
        assert len(lines) == 2 * 1200 + 1
        assert lines[0] == "[/->] " + "p/p, " * 1200 + "p -> p"
        assert lines[1] == "  [/->] " + "p/p, " * 1199 + "p -> p"
        assert lines[1200] == "  " * 1200 + "[Ax] p -> p"
        assert lines[-1] == "  [Ax] p -> p"

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
    def test_normalize_plus_shares_structure(self):
        f = Under(p, q)
        assert normalize_plus(f) is f
        g = normalize_plus(Plus(Prod(p, Plus(q))))
        inner = Prod(p, Prod(q, Star(q)))
        assert g is Prod(inner, Star(inner))

    def test_shared_plus_tower(self):
        # 60 levels over p^+, 62 distinct nodes that unfold to a tree of
        # 3 * 2**60 - 1 nodes: every entry point walks each (node,
        # polarity) once.  The expected results, at positive and at
        # negative polarity:
        f, norm = Plus(p), Prod(p, Star(p))
        pos, neg = norm, Prod(p, Or(Unit(), p))
        for _ in range(60):
            f, norm = Under(f, f), Under(norm, norm)
            pos, neg = Under(neg, pos), Under(pos, neg)
        # bare values in the asserts: a failing assert would render a
        # formula, here a tree of 2**61 nodes or more
        size = f.size
        assert size == 3 * 2 ** 60 - 1

        def refused():
            with pytest.raises(FragmentError, match=r"^p\^\* occurs"):
                prove(Sequent((), f))
            return True
        for call, expected in (
                (lambda: normalize_plus(f), norm),
                (lambda: approximate(Sequent((f,), f), 1),
                 Sequent((neg,), pos)),
                (refused, True)):
            t0 = time.perf_counter()
            same = call() == expected
            seconds = time.perf_counter() - t0
            assert same and seconds < 1
