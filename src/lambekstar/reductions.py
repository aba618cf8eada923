"""End-to-end reductions between grammar questions and prover questions.

* :func:`alt2_sequent` / :func:`refute_alt2` — a two-letter grammar's
  "generates every alternation word a1^n1 a2^m1 ... (exponents >= 1)"
  question becomes derivability of the single sequent
  ``(K1^+ . K2^+)^+ -> H`` over the unique-type lexicon.  Bounded
  refutation walks the alternation words in length-lex order, checks each
  instance sequent with the prover, and cross-checks CYK membership on the
  source word; the first jointly-rejected word yields a witness.

* :func:`equivalence_harness` — compiles a grammar by either method and
  compares prover acceptance against CYK membership for every non-empty
  word up to a length bound.

* :func:`vee_elimination_chain` / :func:`conjecture_probe` — the
  disjunction-elimination display chain, and an experimental bounded
  comparison of ``(A1^+ . A2^+)^+ -> H`` against its double-negation-style
  reformulation.  The probe reports per-instance agreement only; it never
  claims an unbounded equivalence.

Bounded verdicts are one-sided throughout: a witness refutes, but "no
witness up to the bound" decides nothing beyond the bound.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

from .cfg import Grammar, GnfCfg, GrammarError, cyk_member, render_cfg, to_gnf2
from .compiler import (CompiledGrammar, LambekGrammar, accepts,
                       compile_gaifman, compile_unique)
from .formula import (Atom, And, Formula, LambekError, Or, Over, Plus, Prod,
                      Sequent, Star, VarSupply, curried_division,
                      render_sequent)
from .prover import DEFAULT_BUDGET, ProverSession, _session_for, prove

__all__ = [
    "RefutationWitness", "EquivalenceReport", "ProbeReport",
    "alt2_sequent", "refute_alt2", "equivalence_harness",
    "vee_elimination_chain", "conjecture_probe",
]


@dataclass(frozen=True)
class RefutationWitness:
    """An alternation word jointly rejected by CYK and the prover.

    ``sequent`` is the refuted instance ``K1^n1, K2^m1, ... -> H`` (an
    instance of the ALT2 antecedent by construction); ``word`` is the
    alternation word it encodes, which CYK also rejects; ``note`` records
    the exhaustive-search evidence.
    """

    word: tuple[str, ...]
    sequent: Sequent
    note: str


def alt2_sequent(cg: CompiledGrammar) -> Sequent:
    """``(K1^+ . K2^+)^+ -> H`` for a two-letter unique-type lexicon.

    Letters are taken in sorted order.  The sequent is derivable iff the
    grammar generates every word of the shape a1^n1 a2^m1 ... a1^nk a2^mk
    with all exponents >= 1.
    """
    letters = sorted(cg.lexicon)
    if len(letters) != 2:
        raise GrammarError(
            f"ALT2 needs a two-letter alphabet, got {{{', '.join(letters)}}}")
    k1, k2 = (cg.lexicon[a] for a in letters)
    return Sequent((Plus(Prod(Plus(k1), Plus(k2))),), cg.goal)


def _alternation_words(a1: str, a2: str,
                       max_len: int) -> Iterator[tuple[str, ...]]:
    """Words a1^n1 a2^m1 ... (exponents >= 1), length-lex order."""
    for total in range(2, max_len + 1):
        level = []
        for pairs in range(1, total // 2 + 1):
            runs = 2 * pairs
            for cuts in itertools.combinations(range(1, total), runs - 1):
                bounds = (0, *cuts, total)
                exps = [bounds[i + 1] - bounds[i] for i in range(runs)]
                word = []
                for i, e in enumerate(exps):
                    word += [a1 if i % 2 == 0 else a2] * e
                level.append(tuple(word))
        yield from sorted(level)


def refute_alt2(g: Grammar, word_len_bound: int = 6, *,
                session: ProverSession | None = None,
                budget: int = DEFAULT_BUDGET) -> RefutationWitness | None:
    """Search for an alternation word missing from ``L(g)``, dually verified.

    Runs to_gnf2 -> compile_unique -> instance checking over all
    alternation words of length <= word_len_bound in length-lex order.
    One ``session`` (a fresh one when it is None) serves the compile's
    join verification and every word's proof.
    Each word's prover verdict (on the ALT2 instance sequent) must agree
    with CYK membership; disagreement raises :class:`LambekError` because
    it would falsify the grammar/derivability equivalence the reduction
    rests on.  Returns the first jointly-refuted word as a witness, or
    None when every bounded alternation word is generated.
    """
    session = _session_for(session, False)
    letters = sorted(g.terminals)
    if len(letters) != 2:
        raise GrammarError(
            f"ALT2 needs a two-letter alphabet, got {{{', '.join(letters)}}}")
    a1, a2 = letters
    cg = compile_unique(to_gnf2(g), session=session)
    goal = cg.goal
    for word in _alternation_words(a1, a2, word_len_bound):
        inst = Sequent(tuple(cg.lexicon[c] for c in word), goal)
        before = session.steps_used
        proved = prove(inst, session=session, budget=budget).proved
        generated = cyk_member(g, word)
        if proved != generated:
            raise LambekError(
                f"reduction mismatch on {' '.join(word)!s}: prover says "
                f"{proved}, CYK says {generated}")
        if not proved:
            return RefutationWitness(
                word=word, sequent=inst,
                note=(f"cut-free search exhausted after "
                      f"{session.steps_used - before} steps; CYK rejects "
                      f"the word"))
    return None


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-word comparison of CYK membership and prover acceptance."""

    grammar: str
    method: str
    max_len: int
    results: tuple[tuple[str, bool, bool], ...]
    mismatches: tuple[str, ...]
    elapsed: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches


def _render_word(word: tuple[str, ...]) -> str:
    return ("".join(word) if all(len(c) == 1 for c in word)
            else " ".join(word))


def equivalence_harness(g: Grammar,
                        method: Literal["safiullin", "gaifman"] = "safiullin",
                        max_len: int = 4, *,
                        budget: int = DEFAULT_BUDGET) -> EquivalenceReport:
    """Compare CYK vs compiled-lexicon acceptance on all words <= max_len.

    A word whose letter is absent from the compiled lexicon (possible when
    GNF conversion prunes a useless rule) counts as rejected.  Mismatches
    should be empty; compile failures are recorded in the report rather
    than raised.
    """
    start = time.monotonic()
    gid = render_cfg(g)
    session = ProverSession()
    try:
        gnf = to_gnf2(g)
        if method == "safiullin":
            compiled: CompiledGrammar | LambekGrammar = compile_unique(
                gnf, budget=budget, session=session)
        elif method == "gaifman":
            compiled = compile_gaifman(gnf)
        else:
            raise ValueError(f"unknown method {method!r}")
    except (GrammarError, LambekError) as e:
        return EquivalenceReport(gid, method, max_len, (), (),
                                 time.monotonic() - start, error=str(e))
    letters = sorted(g.terminals)
    results = []
    mismatches = []
    for n in range(1, max_len + 1):
        for word in itertools.product(letters, repeat=n):
            want = cyk_member(g, word)
            try:
                got = accepts(compiled, word, session=session, budget=budget)
            except GrammarError:
                got = False
            name = _render_word(word)
            results.append((name, want, got))
            if want != got:
                mismatches.append(name)
    return EquivalenceReport(gid, method, max_len, tuple(results),
                             tuple(mismatches), time.monotonic() - start)


def vee_elimination_chain(a1: Formula, a2: Formula,
                          h: Formula) -> tuple[Sequent, ...]:
    """The four-step display eliminating ``v`` from a star antecedent.

    Walks ``(A1 v A2)*, A1 v A2 -> H`` to the disjunction-free
    ``(A1*.A2)*.A1* -> (H/A1) ^ (H/A2)`` via regrouping of the star (every
    alternation word factors as blocks of a1-runs closed by one a2, then a
    trailing a1-run) and residuation of the last premise into the
    succedent.
    """
    vee = Or(a1, a2)
    regrouped = Prod(Star(Prod(Star(a1), a2)), Star(a1))
    return (
        Sequent((Star(vee), vee), h),
        Sequent((regrouped, vee), h),
        Sequent((regrouped,), Over(h, vee)),
        Sequent((regrouped,), And(Over(h, a1), Over(h, a2))),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Bounded-instance agreement data for the reformulation probe."""

    rows: tuple[tuple[tuple[tuple[int, int], ...], bool, bool], ...]
    disagreements: tuple[tuple[tuple[int, int], ...], ...]
    note: str = field(default=(
        "experimental bounded-instance comparison; per-instance agreement "
        "is evidence only and implies nothing beyond the tested bound"))

    @property
    def agree(self) -> bool:
        return not self.disagreements


def conjecture_probe(a1: Formula, a2: Formula, h: Formula,
                     bound: int = 2, *,
                     budget: int = DEFAULT_BUDGET) -> ProbeReport:
    """Compare ``(A1^+.A2^+)^+ -> H`` with its division-only reformulation.

    For every exponent tuple ((n1,m1),...,(nk,ml)) with 1 <= k <= bound and
    1 <= exponents <= bound, proves both the flat instance
    ``A1^n1, A2^m1, ... -> H`` and the reformulated instance
    ``X(n1,m1), ..., X(nk,mk) -> b/(b/H)`` where
    ``X(n,m) = b/(((b/A2)...)/A1...)`` consumes one a1-run and one a2-run
    against a fresh atom b.  Rows are (tuple, flat verdict, reformulated
    verdict); the report never asserts the unbounded equivalence.
    """
    supply = VarSupply.for_formulas((a1, a2, h))
    b = Atom(supply.fresh("b"))
    goal2 = Over(b, Over(b, h))
    session = ProverSession()
    pair_range = [(n, m) for n in range(1, bound + 1)
                  for m in range(1, bound + 1)]
    x_cache = {
        (n, m): Over(b, curried_division([], b, [a1] * n + [a2] * m))
        for n, m in pair_range}
    rows = []
    disagreements = []
    tuples = []
    for k in range(1, bound + 1):
        tuples.extend(itertools.product(pair_range, repeat=k))
    tuples.sort(key=lambda t: (sum(n + m for n, m in t), t))
    for pairs in tuples:
        flat: list[Formula] = []
        for n, m in pairs:
            flat += [a1] * n + [a2] * m
        v1 = prove(Sequent(tuple(flat), h), session=session,
                   budget=budget).proved
        v2 = prove(Sequent(tuple(x_cache[p] for p in pairs), goal2),
                   session=session, budget=budget).proved
        rows.append((pairs, v1, v2))
        if v1 != v2:
            disagreements.append(pairs)
    return ProbeReport(tuple(rows), tuple(disagreements))
