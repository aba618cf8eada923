"""Value records: construction, value semantics, repr, and a light import.

Every public record of the package is a plain ``__slots__`` class on
``formula._Record``: field-wise ``==`` (``NotImplemented`` against any
other class), a field-tuple ``hash`` for the immutable ones, and a
dataclass-style ``repr``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from lambekstar import (ApproximationOutcome, Atom, CompiledGrammar,
                        EquivalenceReport, GnfCfg, Grammar, GrammarError,
                        InstanceOutcome, JoinCertificate, JoinProblem,
                        LambekGrammar, ProbeReport, ProofRecorder,
                        RefutationWitness, Sequent, compile_gaifman,
                        compile_unique, join, parse_cfg, parse_formula,
                        to_gnf2)
from lambekstar.compiler import IsParts

p, q = Atom("p"), Atom("q")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def same_value(a, b) -> None:
    """``a`` and ``b`` are distinct objects with one value."""
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.__eq__(object()) is NotImplemented


def test_import_loads_no_introspection_modules():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import lambekstar\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "lambekstar" in out
    for heavy in ("dataclasses", "inspect", "ast", "dis"):
        assert heavy not in out


class TestGrammars:
    RULES = (("S", ("a", "S")), ("S", ("b",)))

    def test_grammar(self):
        g = Grammar(self.RULES, "S")
        same_value(g, Grammar(rules=self.RULES, start="S"))
        assert g != Grammar(self.RULES[1:], "S")
        assert repr(g) == ("Grammar(rules=(('S', ('a', 'S')), "
                           "('S', ('b',))), start='S')")
        assert g.nonterminals == ("S",) and g.terminals == ("a", "b")

    @pytest.mark.parametrize("rules, start, message", [
        ((("s", ("a",)),), "s", "bad nonterminal 's'"),
        ((("S", ("T",)),), "S", "undeclared nonterminal 'T'"),
        ((("S", ("a-b",)),), "S", "bad symbol 'a-b'"),
        ((("S", ("a",)),), "T", "start symbol 'T' has no rules"),
    ])
    def test_grammar_validation(self, rules, start, message):
        with pytest.raises(GrammarError) as e:
            Grammar(rules, start)
        assert str(e.value) == message

    def test_gnf(self):
        rules = (("S", "a", "S", None), ("S", "b", None, None))
        g = GnfCfg(rules, "S")
        assert g.declared_terminals == ("a", "b")
        same_value(g, GnfCfg(rules=rules, start="S",
                             declared_terminals=("a", "b")))
        wider = GnfCfg(rules, "S", ("a", "b", "c"))
        assert wider.declared_terminals == ("a", "b", "c") and wider != g
        assert repr(g) == (
            "GnfCfg(rules=(('S', 'a', 'S', None), ('S', 'b', None, None)), "
            "start='S', declared_terminals=('a', 'b'))")

    @pytest.mark.parametrize("rule, message", [
        (("s", "a", None, None), "bad rule ('s', 'a', None, None)"),
        (("S", "A", None, None), "bad rule ('S', 'A', None, None)"),
        (("S", "a", None, "S"),
         "rule ('S', 'a', None, 'S') has a second tail symbol only"),
        (("S", "a", "s", None), "bad nonterminal 's'"),
    ])
    def test_gnf_validation(self, rule, message):
        with pytest.raises(GrammarError) as e:
            GnfCfg((rule,), "S")
        assert str(e.value) == message


class TestCompiled:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_unique(to_gnf2(parse_cfg("S -> a S | b")))

    def test_compiled_grammar(self, compiled):
        fields = [getattr(compiled, n) for n in CompiledGrammar.__slots__]
        copy = CompiledGrammar(*fields)
        assert copy == compiled and copy is not compiled
        assert copy != CompiledGrammar(*fields[:-1], {})
        assert compiled.__eq__(object()) is NotImplemented
        with pytest.raises(TypeError):        # its fields are dicts
            hash(compiled)
        text = repr(compiled)
        assert text.startswith("CompiledGrammar(lexicon={'a': <")
        assert ", sentinels={" in text and text.endswith(")")

    def test_is_parts_and_certificates(self, compiled):
        parts = next(iter(compiled.parts.values()))
        assert isinstance(parts, IsParts)
        same_value(IsParts(*[getattr(parts, n) for n in IsParts.__slots__]),
                   parts)
        assert repr(parts).startswith("IsParts(members=(<")
        cert = parts.f
        assert isinstance(cert, JoinCertificate)
        same_value(JoinCertificate(problem=cert.problem, join=cert.join,
                                   witnesses=cert.witnesses), cert)

    def test_lambek_grammar(self):
        lg = compile_gaifman(to_gnf2(parse_cfg("S -> a S | b")))
        copy = LambekGrammar(lexicon=dict(lg.lexicon), goal=lg.goal)
        assert copy == lg and copy is not lg
        assert repr(copy) == repr(lg)
        with pytest.raises(TypeError):        # its lexicon is a dict
            hash(lg)
        assert repr(LambekGrammar({"a": (p,)}, q)) == \
            "LambekGrammar(lexicon={'a': (<p>,)}, goal=<q>)"


class TestJoins:
    def test_problem_takes_lists_as_tuples(self):
        jp = JoinProblem([[p], [p, q, parse_formula("q\\q")]], ["x"])
        assert jp.inputs == ((p,), (p, q, parse_formula("q\\q")))
        assert jp.variable_budget == ("x",)
        same_value(jp, JoinProblem(inputs=((p,), (p, q,
                                                  parse_formula("q\\q"))),
                                   variable_budget=("x",)))
        assert JoinProblem([[p]]).variable_budget == ()
        assert repr(JoinProblem([[p]])) == \
            "JoinProblem(inputs=((<p>,),), variable_budget=())"

    def test_problem_rejects_an_empty_family(self):
        with pytest.raises(ValueError, match="at least one input"):
            JoinProblem([])

    def test_certificate(self):
        cert = join(JoinProblem([[p], [p, parse_formula("p\\p")]]))
        assert cert.problem.inputs == ((p,), (p, parse_formula("p\\p")))
        assert len(cert.witnesses) == 2
        assert repr(cert).startswith(
            "JoinCertificate(problem=JoinProblem(inputs=((<p>,), "
            "(<p>, <p\\p>)), variable_budget=()), join=<")


class TestReports:
    def test_proof_recorder(self):
        r = ProofRecorder()
        assert (r.proved, r.audited, r.fg_checked, r.violations) == \
            (0, 0, 0, [])
        assert ProofRecorder().violations is not r.violations
        assert r == ProofRecorder(0, 0, 0, [])
        assert r != ProofRecorder(proved=1)
        with pytest.raises(TypeError):       # mutable: no hash
            hash(r)
        r.proved += 1
        r.violations.append("x")
        assert repr(r) == ("ProofRecorder(proved=1, audited=0, "
                           "fg_checked=0, violations=['x'])")

    def test_refutation_witness(self):
        s = Sequent((p,), q)
        w = RefutationWitness(("a", "b"), s, "n")
        same_value(w, RefutationWitness(word=("a", "b"), sequent=s,
                                        note="n"))
        assert repr(w) == ("RefutationWitness(word=('a', 'b'), sequent="
                           "Sequent(antecedent=(<p>,), succedent=<q>), "
                           "note='n')")

    def test_equivalence_report(self):
        rep = EquivalenceReport("S -> a", "gaifman", 2, (("a", True, True),),
                                (), 0.5)
        assert rep.error is None and rep.ok
        same_value(rep, EquivalenceReport(
            grammar="S -> a", method="gaifman", max_len=2,
            results=(("a", True, True),), mismatches=(), elapsed=0.5,
            error=None))
        assert not EquivalenceReport("g", "m", 1, (), (), 0.0, "e").ok
        assert repr(rep) == (
            "EquivalenceReport(grammar='S -> a', method='gaifman', "
            "max_len=2, results=(('a', True, True),), mismatches=(), "
            "elapsed=0.5, error=None)")

    def test_probe_report(self):
        rep = ProbeReport((), ())
        assert rep.note.startswith("experimental bounded-instance")
        assert rep.agree
        same_value(rep, ProbeReport(rows=(), disagreements=(),
                                    note=rep.note))
        assert ProbeReport((), (), "n") != rep
        assert repr(ProbeReport((), ((1, 2),), "n")) == \
            "ProbeReport(rows=(), disagreements=((1, 2),), note='n')"

    def test_star_outcomes(self):
        s = Sequent((p,), q)
        a = ApproximationOutcome(True, 0, s)
        same_value(a, ApproximationOutcome(refuted=True, level=0, sequent=s))
        assert a.verdict == "Refuted(0)"
        assert ApproximationOutcome(False, None, None).verdict == "Unrefuted"
        assert repr(a) == ("ApproximationOutcome(refuted=True, level=0, "
                           "sequent=Sequent(antecedent=(<p>,), "
                           "succedent=<q>))")
        i = InstanceOutcome(True, s)
        same_value(i, InstanceOutcome(refuted=True, witness=s))
        assert i.verdict == "Refuted"
        assert repr(InstanceOutcome(False, None)) == \
            "InstanceOutcome(refuted=False, witness=None)"
        assert a != i and a.__eq__(i) is NotImplemented
