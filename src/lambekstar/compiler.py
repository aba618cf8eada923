"""Compile binary-GNF grammars into Lambek categorial grammars.

Two constructions:

* :func:`compile_unique` — the unique-type-assignment construction: every
  terminal gets exactly *one* formula.  Each nonterminal ``N_i`` receives a
  private three-atom *sentinel* ``S_i`` (derivable only from itself, never
  from the empty sequence or from two copies) and a *gate* ``H_i =
  (z/z)/S_i``.  A rule ``N_i => a_j N_k? N_l?`` becomes the slot formula
  ``A = x/((H_k?, H_l?, S_i)\\x)``; the slots for one terminal are fused
  into a single formula ``is(U_j)`` that behaves like their disjunction,
  using two joining formulas (over the staircase suffix/prefix families of
  the display sequence E) to pin where a slot may be consumed.  The
  terminal's type is the gate ``K_j = (z/z)/is(U_j)`` and the goal is the
  start symbol's gate ``H_0``, so a word is accepted iff
  ``K_{w_1}, …, K_{w_n} -> H_0`` is derivable.

* :func:`compile_gaifman` — the classical baseline: atoms ``N̂`` per
  nonterminal, one type per *rule* (``N̂_i``, ``N̂_i/N̂_k`` or
  ``(N̂_i/N̂_l)/N̂_k``), so terminals with several rules get several types.

Acceptance for either output is :func:`accepts`, which tries every type
choice (exactly one for unique lexicons) with the focused prover.  The
empty word is never accepted: these grammars model non-empty words only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .cfg import GnfCfg, GrammarError
from .formula import (
    Atom, Formula, Over, Sequent, Under, VarSupply, curried_division,
    sentinel, zero_balanced,
)
from .joins import JoinCertificate, JoinProblem, join
from .prover import DEFAULT_BUDGET, ProverSession, _session_for, prove

__all__ = [
    "CompilerContext", "CompiledGrammar", "LambekGrammar", "IsParts",
    "UnusedTerminalError", "compile_unique", "compile_gaifman",
    "build_is_formula", "accepts",
]


class UnusedTerminalError(GrammarError):
    """A declared terminal survives in no rule, so it can get no sound type."""


class CompilerContext:
    """Fresh-variable pool for one compilation run.

    Allocates the shared atoms ``x z u t v w s`` up front and the indexed
    sentinel parameter families ``p_i, q_i, r_i`` on demand; every name is
    distinct.  ``t, v, w`` parameterise the one shared sentinel used by the
    ``is(·)`` display sequences.
    """

    def __init__(self, supply: VarSupply | None = None):
        self.supply = supply if supply is not None else VarSupply()
        self.x = self.supply.fresh("x")
        self.z = self.supply.fresh("z")
        self.u = self.supply.fresh("u")
        self.t = self.supply.fresh("t")
        self.v = self.supply.fresh("v")
        self.w = self.supply.fresh("w")
        self.s = self.supply.fresh("s")
        self._params: dict[int, tuple[str, str, str]] = {}

    def sentinel_params(self, i: int) -> tuple[str, str, str]:
        if i not in self._params:
            self._params[i] = (self.supply.fresh(f"p{i}"),
                               self.supply.fresh(f"q{i}"),
                               self.supply.fresh(f"r{i}"))
        return self._params[i]

    def indexed_sentinel(self, i: int) -> Formula:
        return sentinel(*self.sentinel_params(i))

    @property
    def shared_sentinel(self) -> Formula:
        return sentinel(self.t, self.v, self.w)

    def fresh(self, base: str) -> str:
        return self.supply.fresh(base)


@dataclass(frozen=True)
class IsParts:
    """The full record behind one ``is(U)`` formula, for introspection."""

    members: tuple[Formula, ...]
    formula: Formula
    e: tuple[Formula, ...]
    b: tuple[Formula, ...]
    c: tuple[Formula, ...]
    f: JoinCertificate
    g: JoinCertificate


@dataclass(frozen=True)
class CompiledGrammar:
    """Unique-type lexicon: exactly one formula per terminal."""

    lexicon: Mapping[str, Formula]
    goal: Formula
    h: Mapping[str, Formula]
    u_sets: Mapping[str, tuple[Formula, ...]]
    parts: Mapping[str, IsParts]
    sentinels: Mapping[str, Formula]
    context: CompilerContext = field(repr=False)


@dataclass(frozen=True)
class LambekGrammar:
    """General lexicon: a finite non-empty set of formulas per terminal."""

    lexicon: Mapping[str, tuple[Formula, ...]]
    goal: Formula


def _build_is_parts(u_set: Sequence[Formula], ctx: CompilerContext,
                    *, budget: int = DEFAULT_BUDGET,
                    session: ProverSession | None = None) -> IsParts:
    members = tuple(u_set)
    if not members:
        raise ValueError("is(U) needs a non-empty family")
    for m in members:
        if not zero_balanced(m):
            raise ValueError(f"is(U) member {m} is not zero-balanced")
    shared = ctx.shared_sentinel
    e: list[Formula] = [shared]
    for m in members:
        e += [m, shared]
    n = len(members)
    suffixes = tuple(tuple(e[2 * i:]) for i in range(n))
    prefixes = tuple(tuple(e[:2 * i + 3]) for i in range(n))
    f_cert = join(JoinProblem(suffixes, (ctx.fresh("d"),)), budget=budget,
                  session=session)
    g_cert = join(JoinProblem(prefixes, (ctx.fresh("d"),)), budget=budget,
                  session=session)
    u = Atom(ctx.u)
    s = Atom(ctx.s)
    b = tuple(e) + (Under(Under(Over(u, f_cert.join), u), shared),)
    c = (Over(shared, Over(u, Under(g_cert.join, u))),) + tuple(e)
    s_over_e = curried_division([], s, e)
    formula = curried_division([s_over_e, *b], s, c)
    return IsParts(members, formula, tuple(e), b, c, f_cert, g_cert)


def build_is_formula(u_set: Sequence[Formula], ctx: CompilerContext,
                     *, budget: int = DEFAULT_BUDGET) -> Formula:
    """Fuse a family of zero-balanced formulas into one disjunction-like type.

    The result ``is(U) = (s/E, B)\\s/C`` is derivable from every member of
    the family but from neither the empty sequence nor any other
    lexicon-relevant sequence; the embedded joins F and G carry
    prover-verified certificates.
    """
    return _build_is_parts(u_set, ctx, budget=budget).formula


def compile_unique(g: GnfCfg, *, budget: int = DEFAULT_BUDGET,
                   session: ProverSession | None = None) -> CompiledGrammar:
    """Unique-type-assignment lexicon for a binary-GNF grammar.

    Every join-verification ``prove`` runs in ``session`` (a fresh one when
    it is None), which must be unrestricted; its memo makes a repeat
    compile in it expand no new state and return an equal lexicon.
    Passing the session that will then decide words with the lexicon lets
    those proofs reuse the states join verification has already decided;
    the lexicon is the same either way.
    """
    session = _session_for(session, False)
    if not g.rules:
        raise GrammarError("cannot compile a grammar with no rules")
    used = set(g.terminals)
    unused = [t for t in g.declared_terminals if t not in used]
    if unused:
        raise UnusedTerminalError(
            f"terminals with no surviving rule: {', '.join(unused)}")
    ctx = CompilerContext()
    nts = g.nonterminals
    sentinels = {nt: ctx.indexed_sentinel(i) for i, nt in enumerate(nts)}
    z = Atom(ctx.z)
    x = Atom(ctx.x)
    h = {nt: curried_division([], z, [sentinels[nt], z]) for nt in nts}
    u_sets: dict[str, list[Formula]] = {t: [] for t in g.terminals}
    for lhs, a, k, l in g.rules:
        ws = [h[sym] for sym in (k, l) if sym is not None]
        ws.append(sentinels[lhs])
        u_sets[a].append(Over(x, curried_division(ws, x, [])))
    parts = {a: _build_is_parts(u_sets[a], ctx, budget=budget,
                                session=session)
             for a in g.terminals}
    lexicon = {a: curried_division([], z, [parts[a].formula, z])
               for a in g.terminals}
    return CompiledGrammar(
        lexicon=lexicon, goal=h[g.start], h=h,
        u_sets={a: tuple(v) for a, v in u_sets.items()},
        parts=parts, sentinels=sentinels, context=ctx)


def compile_gaifman(g: GnfCfg) -> LambekGrammar:
    """Classical rule-per-type lexicon for a binary-GNF grammar."""
    if not g.rules:
        raise GrammarError("cannot compile a grammar with no rules")
    supply = VarSupply()
    hat = {nt: Atom(supply.fresh("n_" + nt.lower()))
           for nt in g.nonterminals}
    lexicon: dict[str, list[Formula]] = {t: [] for t in g.terminals}
    for lhs, a, k, l in g.rules:
        if k is None:
            ty = hat[lhs]
        elif l is None:
            ty = Over(hat[lhs], hat[k])
        else:
            ty = Over(Over(hat[lhs], hat[l]), hat[k])
        if ty not in lexicon[a]:
            lexicon[a].append(ty)
    return LambekGrammar(
        lexicon={a: tuple(v) for a, v in lexicon.items()},
        goal=hat[g.start])


def accepts(grammar: CompiledGrammar | LambekGrammar, w: Sequence[str], *,
            session: ProverSession | None = None,
            budget: int = DEFAULT_BUDGET) -> bool:
    """True iff some type choice for the word derives the grammar's goal.

    The empty word is rejected outright.  Passing one ``session`` across
    many words shares the prover's memo table, which matters for the large
    unique-assignment formulas.
    """
    session = _session_for(session, False)
    word = tuple(w)
    if not word:
        return False
    for letter in word:
        if letter not in grammar.lexicon:
            raise GrammarError(f"letter {letter!r} is not in the lexicon")
    if isinstance(grammar, CompiledGrammar):
        choices = [(grammar.lexicon[letter],) for letter in word]
    else:
        choices = [tuple(grammar.lexicon[letter]) for letter in word]
    for picked in itertools.product(*choices):
        if prove(Sequent(picked, grammar.goal), session=session,
                 budget=budget).proved:
            return True
    return False
