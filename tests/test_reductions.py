"""Tests for the alternation-language reduction and its side experiments."""
from __future__ import annotations

import itertools
import warnings

import pytest

from lambekstar import (
    And,
    Atom,
    GrammarError,
    Or,
    Over,
    Plus,
    Prod,
    ProverSession,
    Sequent,
    Star,
    accepts,
    alt2_sequent,
    check_approximations,
    check_instances,
    compile_unique,
    conjecture_probe,
    cyk_member,
    equivalence_harness,
    instance_soundness,
    instances,
    is_star_external,
    parse_cfg,
    prove,
    refute_alt2,
    to_gnf2,
    total_plus_to_alt2,
    vee_elimination_chain,
)
from lambekstar import reductions
from lambekstar.checker import check_derivation
from lambekstar.reductions import _alternation_words

P, Q, R = Atom("p"), Atom("q"), Atom("r")

AB_GRAMMAR = "S -> a B\nB -> b"


@pytest.fixture(scope="module")
def ab_compiled():
    return compile_unique(to_gnf2(parse_cfg(AB_GRAMMAR)))


class TestAlt2Sequent:
    def test_shape(self, ab_compiled):
        s = alt2_sequent(ab_compiled)
        k1, k2 = (ab_compiled.lexicon[t] for t in ("a", "b"))
        assert s == Sequent((Plus(Prod(Plus(k1), Plus(k2))),),
                            ab_compiled.goal)
        assert is_star_external(s)

    def test_needs_exactly_two_letters(self):
        one = compile_unique(to_gnf2(parse_cfg("S -> a")))
        with pytest.raises(GrammarError):
            alt2_sequent(one)

    def test_bounded_instances_match_the_alternation_language(self):
        # at bound k the instance set is exactly the words with 1..k
        # blocks and every exponent in 1..k
        f = Plus(Prod(Plus(P), Plus(Q)))
        k = 2
        expected = set()
        for blocks in range(1, k + 1):
            for exps in itertools.product(range(1, k + 1),
                                          repeat=2 * blocks):
                word = []
                for i, e in enumerate(exps):
                    word += [P if i % 2 == 0 else Q] * e
                expected.add(tuple(word))
        assert set(instances(f, k)) == expected

    def test_witness_rows_are_certified_instances(self, ab_compiled):
        s = alt2_sequent(ab_compiled)
        f = s.antecedent[0]
        for inst in list(instances(f, 2))[:6]:
            cert = instance_soundness(f, inst)
            assert check_derivation(cert)


class TestAlternationWords:
    def test_length_lex_order_and_shape(self):
        got = list(_alternation_words("a", "b", 4))
        assert got == [("a", "b"),
                       ("a", "a", "b"), ("a", "b", "b"),
                       ("a", "a", "a", "b"), ("a", "a", "b", "b"),
                       ("a", "b", "a", "b"), ("a", "b", "b", "b")]

    def test_every_word_alternates(self):
        for w in _alternation_words("a", "b", 7):
            assert w[0] == "a" and w[-1] == "b"
            runs = [k for k, _ in itertools.groupby(w)]
            assert runs == ["a", "b"] * (len(runs) // 2)


class TestRefuteAlt2:
    def test_finite_language_yields_the_least_witness(self):
        w = refute_alt2(parse_cfg(AB_GRAMMAR), word_len_bound=4)
        assert w is not None
        assert w.word == ("a", "a", "b")
        assert "steps" in w.note and "CYK" in w.note
        # the witness sequent is the instance encoding the word
        assert len(w.sequent.antecedent) == 3

    def test_lifted_partial_language(self):
        lifted = total_plus_to_alt2(parse_cfg("S -> a\nS -> b b"))
        w = refute_alt2(lifted, word_len_bound=5)
        assert w is not None
        assert w.word == ("a", "b", "b")

    def test_lifted_total_language_survives_small_bounds(self):
        # deeper bounds are exercised by the acceptance suite; proving the
        # one positive instance here already walks the whole lifted lexicon
        universal = parse_cfg("S -> a S\nS -> b S\nS -> a\nS -> b")
        lifted = total_plus_to_alt2(universal)
        assert refute_alt2(lifted, word_len_bound=2) is None

    def test_kernel_work_is_pinned(self, monkeypatch):
        # the benchmark's alt2-lifted cycle: a cold compile whose join
        # verification fills the session's memo, then a proof of "a b" and
        # an exhaustive refutation of "a a b" in the same session.  A
        # change to the search order, the pruning, the budget accounting or
        # the memo shows up here as a changed count; any change to the
        # pinned numbers must be explained in the changelog.
        proofs = []

        def recorded(sequent, **kwargs):
            res = prove(sequent, **kwargs)
            proofs.append((sequent, res))
            return res
        monkeypatch.setattr(reductions, "prove", recorded)
        session = ProverSession()
        w = refute_alt2(total_plus_to_alt2(parse_cfg(AB_GRAMMAR)), 3,
                        session=session)
        assert w is not None and w.word == ("a", "a", "b")
        # an identity goal costs one step and stores every sub-identity
        # its expansion builds, so the memo outgrows the steps
        assert session.steps_used == 303
        assert len(session.memo) == 348
        proved = [(s, r.derivation) for s, r in proofs if r.proved]
        assert len(proved) == 1
        for s, d in proved:
            assert d.conclusion == s
            assert check_derivation(d)

    def test_lifted_universal_work_is_pinned(self):
        # the lifted universal grammar to length 6, compile included: the
        # training run of tools/choose_valuations.py, which takes 31,451
        # states on the pseudo-random draw alone
        universal = parse_cfg("S -> a S\nS -> b S\nS -> a\nS -> b")
        session = ProverSession()
        assert refute_alt2(total_plus_to_alt2(universal), 6,
                           session=session) is None
        assert session.steps_used == 8_910

    def test_entry_points_refuse_a_restricted_session(self):
        # each entry point resolves its session before any work, so a
        # session made for Lambek's restriction is refused even where no
        # proof would run (the empty word)
        g = parse_cfg(AB_GRAMMAR)
        cg = compile_unique(to_gnf2(g))
        calls = [
            lambda s: refute_alt2(g, 3, session=s),
            lambda s: accepts(cg, (), session=s),
            lambda s: check_approximations(Sequent((P,), P), session=s),
            lambda s: check_instances(Sequent((P,), P), session=s),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call(ProverSession(restricted=True))

    def test_witness_agrees_with_direct_enumeration(self):
        for text in (AB_GRAMMAR, "S -> a\nS -> b b",
                     "S -> a S b\nS -> a b"):
            g = parse_cfg(text)
            w = refute_alt2(g, word_len_bound=4)
            missing = [word for word in _alternation_words("a", "b", 4)
                       if not cyk_member(g, word)]
            if missing:
                assert w is not None and w.word == missing[0]
            else:
                assert w is None

    def test_needs_two_letters(self):
        with pytest.raises(GrammarError):
            refute_alt2(parse_cfg("S -> a"))


class TestEquivalenceHarness:
    def test_unique_assignment_on_a_regular_language(self):
        rep = equivalence_harness(parse_cfg("S -> a S\nS -> a"),
                                  method="safiullin", max_len=3)
        assert rep.ok
        assert rep.method == "safiullin"
        assert [r[0] for r in rep.results] == ["a", "aa", "aaa"]
        assert all(want == got for _, want, got in rep.results)
        assert rep.elapsed > 0

    def test_classical_lexicon_on_matched_pairs(self):
        rep = equivalence_harness(parse_cfg("S -> a S B\nS -> a B\nB -> b"),
                                  method="gaifman", max_len=4)
        assert rep.ok
        assert len(rep.results) == 2 + 4 + 8 + 16
        member = {w for w, want, _ in rep.results if want}
        assert member == {"ab", "aabb"}

    def test_compile_failures_become_report_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = equivalence_harness(parse_cfg("S -> S a"),
                                      method="safiullin", max_len=2)
        assert not rep.ok
        assert rep.error is not None and "no rules" in rep.error
        assert rep.results == ()

    def test_pruned_letters_count_as_rejected(self):
        rep = equivalence_harness(parse_cfg("@start S\nS -> a\nB -> c"),
                                  method="gaifman", max_len=2)
        assert rep.ok
        verdicts = dict((w, got) for w, _, got in rep.results)
        assert verdicts["a"] is True
        assert verdicts["c"] is False

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ValueError):
            equivalence_harness(parse_cfg("S -> a"), method="magic")


class TestVeeElimination:
    def test_chain_shapes(self):
        chain = vee_elimination_chain(P, Q, R)
        vee = Or(P, Q)
        regrouped = Prod(Star(Prod(Star(P), Q)), Star(P))
        assert chain == (
            Sequent((Star(vee), vee), R),
            Sequent((regrouped, vee), R),
            Sequent((regrouped,), Over(R, vee)),
            Sequent((regrouped,), And(Over(R, P), Over(R, Q))),
        )

    def test_all_members_are_refutable_for_independent_atoms(self):
        for s in vee_elimination_chain(P, Q, R):
            out = check_approximations(s, up_to=2)
            assert out.verdict == "Refuted(0)"


class TestConjectureProbe:
    def test_agreement_on_a_compiled_grammar(self, ab_compiled):
        k1, k2 = (ab_compiled.lexicon[t] for t in ("a", "b"))
        rep = conjecture_probe(k1, k2, ab_compiled.goal, bound=2)
        assert len(rep.rows) == 4 + 16
        assert rep.agree and rep.disagreements == ()
        verdicts = {pairs: (flat, reform) for pairs, flat, reform in rep.rows}
        assert verdicts[((1, 1),)] == (True, True)
        assert verdicts[((2, 1),)] == (False, False)

    def test_rows_are_sorted_by_total_exponent(self):
        rep = conjecture_probe(P, Q, R, bound=2)
        totals = [sum(n + m for n, m in pairs) for pairs, _, _ in rep.rows]
        assert totals == sorted(totals)

    def test_note_disclaims_generality(self):
        rep = conjecture_probe(P, Q, R, bound=1)
        assert "evidence" in rep.note
        assert "bound" in rep.note
