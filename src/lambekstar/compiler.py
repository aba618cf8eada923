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
  ``K_{w_1}, …, K_{w_n} -> H_0`` is derivable.  The atoms are fixed
  names: ``x``, ``z``, ``u`` and ``s`` (``_X``, ``_Z``, ``_U``, ``_S``),
  ``t, v, w`` for the sentinel shared by every display sequence
  (``_SHARED``), ``p{i}, q{i}, r{i}`` for the sentinel of the ``i``-th
  nonterminal, and ``d``, ``d#1``, ``d#2``, … for the join cores, two per
  terminal in terminal order.

* :func:`compile_gaifman` — the classical baseline: atoms ``N̂`` per
  nonterminal, one type per *rule* (``N̂_i``, ``N̂_i/N̂_k`` or
  ``(N̂_i/N̂_l)/N̂_k``), so terminals with several rules get several types.

Acceptance for either output is :func:`accepts`, which tries every type
choice (exactly one for unique lexicons) with the focused prover.  The
empty word is never accepted: these grammars model non-empty words only.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .cfg import GnfCfg, GrammarError
from .formula import (
    Atom, Formula, Over, Sequent, Under, VarSupply, _Record,
    curried_division, sentinel, zero_balanced,
)
from .joins import JoinCertificate, JoinProblem, join
from .prover import DEFAULT_BUDGET, ProverSession, _session_for, prove

__all__ = [
    "CompiledGrammar", "LambekGrammar", "IsParts",
    "UnusedTerminalError", "compile_unique", "compile_gaifman",
    "accepts",
]


class UnusedTerminalError(GrammarError):
    """A declared terminal survives in no rule, so it can get no sound type."""


# the fixed atoms of every unique-type lexicon (see the module docstring)
_X, _Z, _U, _S = Atom("x"), Atom("z"), Atom("u"), Atom("s")
_SHARED = sentinel("t", "v", "w")


class IsParts(_Record):
    """The full record behind one ``is(U)`` formula, for introspection;
    a plain slot record, immutable by contract."""

    __slots__ = ("members", "formula", "e", "b", "c", "f", "g")

    members: tuple[Formula, ...]
    formula: Formula
    e: tuple[Formula, ...]
    b: tuple[Formula, ...]
    c: tuple[Formula, ...]
    f: JoinCertificate
    g: JoinCertificate

    def __init__(self, members: tuple[Formula, ...], formula: Formula,
                 e: tuple[Formula, ...], b: tuple[Formula, ...],
                 c: tuple[Formula, ...], f: JoinCertificate,
                 g: JoinCertificate):
        self.members = members
        self.formula = formula
        self.e = e
        self.b = b
        self.c = c
        self.f = f
        self.g = g


class CompiledGrammar(_Record):
    """Unique-type lexicon: exactly one formula per terminal; a plain slot
    record, immutable by contract."""

    __slots__ = ("lexicon", "goal", "h", "u_sets", "parts", "sentinels")

    lexicon: Mapping[str, Formula]
    goal: Formula
    h: Mapping[str, Formula]
    u_sets: Mapping[str, tuple[Formula, ...]]
    parts: Mapping[str, IsParts]
    sentinels: Mapping[str, Formula]

    def __init__(self, lexicon: Mapping[str, Formula], goal: Formula,
                 h: Mapping[str, Formula],
                 u_sets: Mapping[str, tuple[Formula, ...]],
                 parts: Mapping[str, IsParts],
                 sentinels: Mapping[str, Formula]):
        self.lexicon = lexicon
        self.goal = goal
        self.h = h
        self.u_sets = u_sets
        self.parts = parts
        self.sentinels = sentinels


class LambekGrammar(_Record):
    """General lexicon: a finite non-empty set of formulas per terminal;
    a plain slot record, immutable by contract."""

    __slots__ = ("lexicon", "goal")

    lexicon: Mapping[str, tuple[Formula, ...]]
    goal: Formula

    def __init__(self, lexicon: Mapping[str, tuple[Formula, ...]],
                 goal: Formula):
        self.lexicon = lexicon
        self.goal = goal


def _build_is_parts(u_set: Sequence[Formula], cores: VarSupply,
                    *, budget: int = DEFAULT_BUDGET,
                    session: ProverSession | None = None) -> IsParts:
    members = tuple(u_set)
    if not members:
        raise ValueError("is(U) needs a non-empty family")
    for m in members:
        if not zero_balanced(m):
            raise ValueError(f"is(U) member {m} is not zero-balanced")
    e: list[Formula] = [_SHARED]
    for m in members:
        e += [m, _SHARED]
    n = len(members)
    suffixes = tuple(tuple(e[2 * i:]) for i in range(n))
    prefixes = tuple(tuple(e[:2 * i + 3]) for i in range(n))
    f_cert = join(JoinProblem(suffixes, (cores.fresh("d"),)), budget=budget,
                  session=session)
    g_cert = join(JoinProblem(prefixes, (cores.fresh("d"),)), budget=budget,
                  session=session)
    b = tuple(e) + (Under(Under(Over(_U, f_cert.join), _U), _SHARED),)
    c = (Over(_SHARED, Over(_U, Under(g_cert.join, _U))),) + tuple(e)
    s_over_e = curried_division([], _S, e)
    formula = curried_division([s_over_e, *b], _S, c)
    return IsParts(members, formula, tuple(e), b, c, f_cert, g_cert)


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
    nts = g.nonterminals
    sentinels = {nt: sentinel(f"p{i}", f"q{i}", f"r{i}")
                 for i, nt in enumerate(nts)}
    h = {nt: curried_division([], _Z, [sentinels[nt], _Z]) for nt in nts}
    u_sets: dict[str, list[Formula]] = {t: [] for t in g.terminals}
    for lhs, a, k, l in g.rules:
        ws = [h[sym] for sym in (k, l) if sym is not None]
        ws.append(sentinels[lhs])
        u_sets[a].append(Over(_X, curried_division(ws, _X, [])))
    cores = VarSupply()
    parts = {a: _build_is_parts(u_sets[a], cores, budget=budget,
                                session=session)
             for a in g.terminals}
    lexicon = {a: curried_division([], _Z, [parts[a].formula, _Z])
               for a in g.terminals}
    return CompiledGrammar(
        lexicon=lexicon, goal=h[g.start], h=h,
        u_sets={a: tuple(v) for a, v in u_sets.items()},
        parts=parts, sentinels=sentinels)


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
