"""Tests for join synthesis: product elimination, optional slots, menus."""
from __future__ import annotations

import pytest

from lambekstar import (
    Atom,
    FragmentError,
    JoinPreconditionError,
    JoinProblem,
    JoinSynthesisError,
    Over,
    Prod,
    ProverSession,
    Sequent,
    Star,
    Under,
    curried_division,
    division_pure,
    eliminate_product,
    join,
    optionalize,
    parse_formula,
    product_fold,
    prove,
    render_derivation,
    sentinel,
    sequence_image,
)
from lambekstar.checker import assert_valid_derivation

from helpers import random_division_pure

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def proves(antecedent, succedent) -> bool:
    return prove(Sequent(tuple(antecedent), succedent)).proved


class TestProductFold:
    def test_empty_folds_to_self_division(self):
        f = product_fold(())
        assert f == Over(Q, Q)
        assert proves((), f)

    def test_empty_fold_honours_fallback_name(self):
        v = Atom("z9")
        assert product_fold((), fallback_var="z9") == Over(v, v)

    def test_singleton_is_identity(self):
        f = Under(P, Q)
        assert product_fold((f,)) is f

    def test_fold_is_left_nested(self):
        assert product_fold((P, Q, R)) == Prod(Prod(P, Q), R)


class TestEliminateProduct:
    def test_product_free_input_is_returned_unchanged(self, rng):
        for _ in range(20):
            f = random_division_pure(rng, rng.randint(1, 9))
            assert eliminate_product(f) is f

    def test_product_free_input_runs_no_proof(self, rng):
        session = ProverSession()
        for _ in range(20):
            f = random_division_pure(rng, rng.randint(1, 9))
            assert eliminate_product(f, session=session) is f
        assert session.steps_used == 0
        assert not session.memo

    def test_denominator_products_curry_away_equivalently(self):
        cases = [
            ("r/(p.q)", "(r/q)/p"),
            ("(p.q)\\r", "q\\(p\\r)"),
            ("(p.q.r)\\p", "r\\(q\\(p\\p))"),
            ("q/(p.(q\\r))", "(q/(q\\r))/p"),
            # one denominator deeper, left to the denominator's rewrite
            ("((p.q)\\r)\\s", "(q\\(p\\r))\\s"),
            ("s/(r/(p.q))", "s/((r/q)/p)"),
        ]
        for src, expected in cases:
            f, g = parse_formula(src), parse_formula(expected)
            out = eliminate_product(f)
            assert out == g
            assert division_pure(out)
            # the currying laws are equivalences: both directions derivable
            assert proves((f,), out) and proves((out,), f)

    def test_top_level_product_raises_over_fresh_core(self):
        f = Prod(P, Q)
        out = eliminate_product(f)
        assert division_pure(out)
        assert proves((f,), out)
        # the raised form keeps the free-group image of the input
        assert sequence_image((out,)) == sequence_image((f,))

    def test_numerator_spine_is_flattened(self):
        f = Prod(P, Prod(Q, R))
        out = eliminate_product(f)
        assert division_pure(out)
        assert proves((P, Q, R), out)

    def test_irreducible_nested_product_fails(self):
        # a product inside a denominator's numerator has no division-only
        # equivalent, so elimination must refuse rather than guess
        bad = parse_formula("r/(p\\(q.r))")
        with pytest.raises(JoinSynthesisError):
            eliminate_product(bad)

    def test_star_is_outside_the_join_language(self):
        with pytest.raises(FragmentError):
            eliminate_product(Prod(P, Star(Q)))


class TestOptionalize:
    def test_empty_derivable_formula_is_its_own_optional(self):
        f = parse_formula("p/p")
        assert optionalize(f) is f

    def test_sentinel_optionalizes(self):
        s = sentinel("p", "q", "r")
        o = optionalize(s)
        assert division_pure(o)
        assert proves((), o)
        assert proves((s,), o)

    def test_gate_optionalizes(self):
        s = sentinel("p", "q", "r")
        z = Atom("z")
        gate = Over(Over(z, z), s)
        o = optionalize(gate)
        assert proves((), o)
        assert proves((gate,), o)

    def test_slot_of_optionalizable_parts_optionalizes(self):
        s = sentinel("p", "q", "r")
        z = Atom("z")
        gate = Over(Over(z, z), s)
        x = Atom("x")
        slot = Over(x, curried_division([gate, s], x, []))
        o = optionalize(slot)
        assert proves((), o)
        assert proves((slot,), o)

    def test_plain_atom_has_no_optional_form(self):
        with pytest.raises(JoinSynthesisError):
            optionalize(P)


class TestJoinBasics:
    def test_empty_problem_is_rejected(self):
        with pytest.raises(ValueError):
            JoinProblem(())

    def test_star_in_an_input_is_rejected(self):
        with pytest.raises(FragmentError):
            JoinProblem(((Star(P),),))

    def test_distinct_images_have_no_join(self):
        with pytest.raises(JoinPreconditionError) as exc:
            join(JoinProblem(((P,), (Q,))))
        assert "image" in str(exc.value)

    def test_single_row_joins_with_itself(self):
        cert = join(JoinProblem(((P,),)))
        assert cert.join is P
        assert len(cert.witnesses) == 1
        assert cert.witnesses[0].conclusion == Sequent((P,), P)

    def test_single_empty_row_joins_at_a_fresh_self_division(self):
        cert = join(JoinProblem(((),)))
        assert division_pure(cert.join)
        assert cert.witnesses[0].conclusion == Sequent((), cert.join)
        assert_valid_derivation(cert.witnesses[0])

    def test_equal_rows_join_trivially(self):
        row = (P, Under(P, Q))
        cert = join(JoinProblem((row, row)))
        for w in cert.witnesses:
            assert w.conclusion == Sequent(row, cert.join)
            assert_valid_derivation(w)

    def test_synthesis_failure_reports_tried_candidates(self):
        # both rows have image p, so a join exists in principle, but none
        # of the catalogued strategies produces one: the failure must name
        # what was tried instead of silently miscertifying
        fam = JoinProblem(((P,), (Q, Under(Q, P))))
        with pytest.raises(JoinSynthesisError) as exc:
            join(fam)
        assert "tried" in str(exc.value)

    def test_rows_with_no_common_master_join_as_a_raised_product(self):
        # neither row embeds in the other, so no menu exists; the product
        # of both rows, raised over a fresh core, verifies because each row
        # is derivable from the empty sequence
        rows = ((Under(P, P),), (Under(Q, Q),))
        cert = join(JoinProblem(rows))
        assert cert.join == parse_formula("d/((q\\q)\\(p\\p)\\d)")
        for row, w in zip(rows, cert.witnesses):
            assert w.conclusion == Sequent(row, cert.join)
            assert_valid_derivation(w)


class TestMenuJoins:
    @staticmethod
    def _staircase():
        s = sentinel("t", "v", "w")
        x = Atom("x")
        a1 = Over(x, Under(s, x))
        a2 = Over(x, curried_division([s], x, []))
        e = (s, a1, s, a2, s)
        return s, e

    def test_suffix_staircase_joins(self):
        _, e = self._staircase()
        rows = (e, e[2:], e[4:])
        cert = join(JoinProblem(rows))
        assert division_pure(cert.join)
        assert len(cert.witnesses) == len(rows)
        for row, w in zip(rows, cert.witnesses):
            assert w.conclusion == Sequent(row, cert.join)
            assert_valid_derivation(w)

    def test_prefix_staircase_joins(self):
        _, e = self._staircase()
        rows = (e[:3], e)
        cert = join(JoinProblem(rows))
        for row, w in zip(rows, cert.witnesses):
            assert w.conclusion == Sequent(row, cert.join)
            assert_valid_derivation(w)

    def test_variable_budget_names_the_core(self):
        _, e = self._staircase()
        rows = (e, e[2:])
        cert = join(JoinProblem(rows, variable_budget=("core",)))
        assert cert.join.left == Atom("core")

    def test_repeat_join_in_a_session_expands_no_state(self):
        # the session's memo answers every proof of a repeat, which returns
        # an equal certificate; a fresh session spends the same steps on
        # the same join
        _, e = self._staircase()
        rows = (e, e[2:], e[4:])

        def rendered(cert):
            return (cert.join, [render_derivation(w) for w in cert.witnesses])
        session = ProverSession()
        first = join(JoinProblem(rows), session=session)
        used = session.steps_used
        second = join(JoinProblem(rows), session=session)
        assert session.steps_used == used
        assert rendered(second) == rendered(first)
        fresh = ProverSession()
        assert rendered(join(JoinProblem(rows), session=fresh)) \
            == rendered(first)
        assert fresh.steps_used == used
