"""Tests for star approximation and bounded instance expansion."""
from __future__ import annotations

import time

import pytest

from lambekstar import (
    Atom,
    Derivation,
    FragmentError,
    Or,
    Over,
    Plus,
    Prod,
    ProverSession,
    Sequent,
    Star,
    Under,
    Unit,
    approximate,
    check_approximations,
    check_instances,
    derive_identity,
    instance_soundness,
    instances,
    is_star_external,
    normalize_plus,
    parse_formula,
    parse_sequent,
    prove,
    render_derivation,
    render_sequent,
)
from lambekstar.checker import check_derivation
from lambekstar.stars import InstanceMembershipError

from helpers import random_division_pure, random_star_external, \
    sequent_star_polarities

P, Q = Atom("p"), Atom("q")


class TestApproximate:
    def test_negative_star_becomes_a_bounded_power_chain(self):
        s = approximate(parse_sequent("p^* -> p^*"), 2)
        assert s.antecedent == (Or(Unit(), Or(P, Prod(P, P))),)
        assert s.succedent == Star(P)

    def test_level_zero_is_the_unit(self):
        s = approximate(parse_sequent("p^* -> p^*"), 0)
        assert s.antecedent == (Unit(),)

    def test_polarity_flips_through_divisions(self):
        # a star in a succedent denominator is negative
        s = approximate(parse_sequent("-> p/q^*"), 1)
        assert s == parse_sequent("-> p/(1|q)")
        # ... and one two denominators deep is positive again
        t = approximate(parse_sequent("p^*\\q -> q"), 4)
        assert t.antecedent == (Under(Star(P), Q),)

    def test_plus_normalizes_before_approximating(self):
        s = approximate(Sequent((Plus(P),), Q), 1)
        assert s.antecedent == (Prod(P, Or(Unit(), P)),)

    def test_star_free_sequents_are_fixpoints(self, rng):
        for _ in range(20):
            f = random_division_pure(rng, rng.randint(1, 8))
            s = Sequent((f,), f)
            out = approximate(s, 3)
            assert out == s
            assert out.succedent is f

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError):
            approximate(parse_sequent("p -> p"), -1)

    def test_output_never_contains_negative_stars(self, rng):
        for _ in range(40):
            f = random_star_external(rng, rng.randint(1, 8))
            s = approximate(Sequent((f,), P), rng.randint(0, 3))
            assert False not in sequent_star_polarities(s)


class TestCheckApproximations:
    def test_star_reflexivity_stays_unrefuted(self):
        out = check_approximations(parse_sequent("p^* -> p^*"), up_to=5)
        assert not out.refuted
        assert out.verdict == "Unrefuted"
        assert out.level is None and out.sequent is None

    def test_star_to_base_is_refuted_at_zero(self):
        out = check_approximations(parse_sequent("p^* -> p"), up_to=5)
        assert out.refuted and out.level == 0
        assert out.verdict == "Refuted(0)"
        assert out.sequent == Sequent((Unit(),), P)

    def test_least_refuting_level_is_reported(self):
        out = check_approximations(parse_sequent("p^*, q -> q"), up_to=3)
        assert out.verdict == "Refuted(1)"
        # level 0 really does survive: 1, q -> q is derivable
        assert prove(approximate(parse_sequent("p^*, q -> q"), 0)).proved

    def test_succedent_stars_are_handled(self):
        assert check_approximations(parse_sequent("-> p/q^*")).verdict \
            == "Refuted(0)"

    def test_refutations_persist_at_higher_levels(self):
        session = ProverSession()
        for text in ("p^* -> p", "p^*, q -> q", "-> p/q^*"):
            out = check_approximations(parse_sequent(text), up_to=3,
                                       session=session)
            assert out.refuted
            deeper = approximate(parse_sequent(text), out.level + 2)
            assert not prove(deeper, session=session).proved


class TestStarExternal:
    @pytest.mark.parametrize("text,expected", [
        ("p^* -> q", True),
        ("p^*.q, q -> q", True),
        ("(p.q^*)^+ -> p", True),
        ("p^*\\q -> q", False),     # star under a division
        ("q/p^* -> q", False),
        ("p -> q^*", False),        # succedent must be division-pure
        ("1 -> p", False),          # unit is not instance-expandable
        ("p|q -> p", False),
    ])
    def test_pins(self, text, expected):
        assert is_star_external(parse_sequent(text)) is expected

    def test_shared_tower(self):
        # 60 levels of Prod(f, f) over p^*: 62 distinct nodes that unfold
        # to a tree of 3 * 2**60 - 1 nodes, so only a walk that visits
        # each shared node once returns
        good, bad = Star(P), Under(Star(P), Q)
        for _ in range(60):
            good, bad = Prod(good, good), Prod(bad, bad)
        assert is_star_external(Sequent((good,), P)) is True
        assert is_star_external(Sequent((bad,), P)) is False
        assert instances(good, 0) == ((),)

    def test_a_shared_tower_is_refused_in_a_short_text(self):
        # the refusal names a formula of more tree nodes than repr renders
        # by repr's short form, not by its 2**60-fold rendering
        bad = Under(Star(P), Q)
        for _ in range(60):
            bad = Prod(bad, bad)
        brief = f"<formula of size {bad.size}, top connective .>"
        for refuse in (lambda: instances(bad, 1),
                       lambda: instance_soundness(bad, ())):
            with pytest.raises(FragmentError) as e:
                refuse()
            assert str(e.value) == \
                f"{brief} is not *-external; cannot expand instances"
            assert len(str(e.value)) < 200
        with pytest.raises(FragmentError) as e:
            check_instances(Sequent((bad, P), Q))
        assert str(e.value) == f"{brief}, p -> q is not *-external"
        with pytest.raises(FragmentError) as e:
            derive_identity(Over(Q, bad))
        assert str(e.value) == ("identity expansion needs a division-pure "
                                f"formula, got {brief}")

    def test_ordinary_refusals_name_the_whole_formula(self):
        f = Under(Star(P), Q)
        for refuse in (lambda: instances(f, 1),
                       lambda: instance_soundness(f, ())):
            with pytest.raises(FragmentError, match=r"^p\^\*\\q is not "
                               r"\*-external; cannot expand instances$"):
                refuse()
        with pytest.raises(FragmentError,
                           match=r"^-> q\^\* is not \*-external$"):
            check_instances(parse_sequent("-> q^*"))
        with pytest.raises(FragmentError, match=r"^identity expansion needs "
                           r"a division-pure formula, got p\.q$"):
            derive_identity(Over(Q, Prod(P, Q)))


class TestInstances:
    def test_division_pure_formula_is_its_own_only_instance(self):
        f = parse_formula("q/(p\\q)")
        assert list(instances(f, 3)) == [(f,)]

    def test_star_unfolds_from_zero(self):
        assert list(instances(Star(P), 2)) == [(), (P,), (P, P)]
        assert list(instances(Star(P), 0)) == [()]

    def test_plus_unfolds_from_one(self):
        assert list(instances(Plus(P), 2)) == [(P,), (P, P)]
        assert list(instances(Plus(P), 0)) == []

    def test_product_concatenates(self):
        assert list(instances(Prod(P, Star(Q)), 1)) == [(P,), (P, Q)]

    def test_alternation_pattern(self):
        f = Plus(Prod(Plus(P), Plus(Q)))
        got = list(instances(f, 2))
        # 1..2 blocks, each p^i q^j with 1 <= i, j <= 2
        assert len(got) == 4 + 16
        for seq in got:
            assert seq[0] is P and seq[-1] is Q
        lengths = [len(seq) for seq in got]
        assert lengths == sorted(lengths)

    def test_stream_is_sized_and_reiterable(self):
        st = instances(Star(P), 3)
        assert isinstance(st, tuple) and len(st) == 4
        assert list(st) == list(st)

    def test_bound_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            instances(Star(P), -1)

    def test_internal_stars_are_rejected(self):
        with pytest.raises(FragmentError):
            instances(parse_formula("q/p^*"), 2)


class TestInstanceSoundness:
    def test_random_instances_carry_checkable_certificates(self, rng):
        for _ in range(25):
            f = random_star_external(rng, rng.randint(1, 8))
            for inst in instances(f, 2):
                cert = instance_soundness(f, inst)
                assert cert.conclusion == Sequent(inst, normalize_plus(f))
                assert check_derivation(cert)

    def test_star_certificates_use_the_iteration_rule(self):
        cert = instance_soundness(Star(P), (P, P))
        assert cert.rule == "->*_2"
        assert instance_soundness(Star(P), ()).rule == "->*_0"

    def test_non_instances_are_rejected(self):
        with pytest.raises(InstanceMembershipError):
            instance_soundness(Star(P), (Q,))
        with pytest.raises(InstanceMembershipError):
            instance_soundness(P, ())
        with pytest.raises(InstanceMembershipError):
            instance_soundness(Plus(P), ())
        # a failed split of the star's body is tried once per rest: the
        # unmemoised split took about 7 s here, four times more per two p
        started = time.perf_counter()
        with pytest.raises(InstanceMembershipError):
            instance_soundness(Star(Star(P)), (P,) * 22 + (Q,))
        assert time.perf_counter() - started < 1

    def test_identity_certificates(self, rng):
        for _ in range(15):
            f = random_division_pure(rng, rng.randint(1, 7))
            cert = derive_identity(f)
            assert cert.conclusion == Sequent((f,), f)
            assert check_derivation(cert)

    def test_identity_certificate_is_pinned(self):
        assert render_derivation(derive_identity(parse_formula("(p\\q)/r"))) \
            == "\n".join([
                "[->/] (p\\q)/r -> (p\\q)/r",
                "  [/->] (p\\q)/r, r -> p\\q",
                "    [Ax] r -> r",
                "    [->\\] p\\q -> p\\q",
                "      [\\->] p, p\\q -> q",
                "        [Ax] p -> p",
                "        [Ax] q -> q",
            ])
        # the first non-division subformula, in premise order (the
        # denominator first), is named
        with pytest.raises(FragmentError, match=r"got p\.q$"):
            derive_identity(parse_formula("(q.r)/(p.q)"))
        with pytest.raises(FragmentError, match=r"got p\.q$"):
            derive_identity(parse_formula("(p.q)\\(q.r)"))

    def test_deep_identity_certificates(self):
        # 2,000 nested divisions, far above the default recursion limit
        f = P
        for _ in range(2000):
            f = Under(P, f)
        assert check_derivation(derive_identity(f))
        assert check_derivation(instance_soundness(f, (f,)))

    def test_long_star_instances_split_without_recursion(self):
        # 3,000 blocks, far above the default recursion limit
        cert = instance_soundness(Star(P), (P,) * 3000)
        assert cert.rule == "->*_3000"
        assert check_derivation(cert)

    def test_deep_derivations_hash_and_compare(self):
        f = P
        for _ in range(3000):
            f = Under(P, f)
        d1, d2 = derive_identity(f), derive_identity(f)
        assert d1 is not d2
        assert d1 == d2 and hash(d1) == hash(d2)
        assert len({d1, d2}) == 1
        other = Derivation(d1.rule, d1.conclusion,
                           (Derivation("Ax", d1.premises[0].conclusion),))
        assert d1 != other and other != d1
        assert d1.__eq__(d1.conclusion) is NotImplemented

        # two 3,000-node chains that differ only at the leaf
        def chain(leaf_rule):
            d = Derivation(leaf_rule, Sequent((P,), P))
            for _ in range(3000):
                d = Derivation("Ax", Sequent((P,), P), (d,))
            return d
        assert chain("Ax") == chain("Ax")
        assert chain("Ax") != chain("1-Ax")


class TestCheckInstances:
    def test_empty_instance_refutes_star_to_atom(self):
        out = check_instances(parse_sequent("p^* -> q"))
        assert out.refuted
        assert out.verdict == "Refuted"
        assert out.witness == Sequent((), Q)

    def test_first_witness_in_length_lex_order(self):
        # Λ -> p survives nothing: the very first instance refutes
        out = check_instances(parse_sequent("p^*, p -> p"), bound=3)
        assert out.refuted
        assert render_sequent(out.witness) == "p, p -> p"

    def test_coherent_family_stays_unrefuted(self):
        f = Over(parse_formula("p\\q"), parse_formula("p\\q"))
        out = check_instances(Sequent((Star(f),), f), bound=3)
        assert not out.refuted and out.witness is None

    def test_plus_variant_is_refuted_via_single_block(self):
        out = check_instances(Sequent((Plus(P),), Q), bound=2)
        assert out.refuted
        assert out.witness == Sequent((P,), Q)

    def test_non_star_external_input_is_rejected(self):
        with pytest.raises(FragmentError):
            check_instances(parse_sequent("p^*\\q -> q"))
        with pytest.raises(FragmentError):
            check_instances(parse_sequent("p -> q^*"))
