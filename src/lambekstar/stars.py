"""Bounded star elimination: polarity approximations and instance expansion.

Two routes turn questions about ``*`` into families of star-free prover
queries:

* **Approximations** (:func:`approximate`, :func:`check_approximations`):
  the mutually recursive maps ``P_n``/``N_n`` leave positive stars alone
  and replace each negative ``A*`` by the finite disjunction
  ``A^{<=n} = 1 v A v ... v A^n``.  The original sequent is derivable only
  if every approximation is, so a refuted level certifies underivability.

* **Instances** (:func:`instances`, :func:`check_instances`,
  :func:`instance_soundness`): a *-external formula (no ``.`` or ``*``
  under a division) denotes a set of division-pure sequences — products
  concatenate, stars repeat 0+ times.  Every instance follows from its
  source by ``(->.)``/``(->*_k)`` alone, so one refuted instance certifies
  underivability of the source sequent.  The certificates split star
  repetitions with the search kernel's ``(->*_k)`` block split and close
  their division-pure leaves with its identity expansion,
  ``derive_identity`` (both in :mod:`lambekstar._search`).

Both directions are one-sided: ``Unrefuted`` never claims derivability
(the full positive-star theory is not recursively enumerable), it only
reports that no counterexample exists within the bound.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Sequence

from ._search import _DIVISION, _star_split, derive_identity
from .checker import assert_valid_derivation
from .formula import (
    PLUS, PROD, STAR,
    Derivation, Formula, FragmentError, LambekError, Or, Prod, Sequent,
    Unit, _Record, _brief, _sequent_text, division_pure, render_formula,
)
from .prover import (DEFAULT_BUDGET, ProverSession, _polar, _session_for,
                     normalize_plus, prove)

__all__ = [
    "ApproximationOutcome", "InstanceOutcome",
    "InstanceMembershipError", "approximate", "check_approximations",
    "is_star_external", "instances", "check_instances",
    "instance_soundness",
]


class InstanceMembershipError(LambekError):
    """The offered sequence is not an instance of the formula."""


# --------------------------------------------------------------------------
# Polarity approximations
# --------------------------------------------------------------------------

def _bounded_power(a: Formula, n: int) -> Formula:
    """``1 v a v a^2 v ... v a^n`` — right-nested ors, left-nested powers."""
    choices = [Unit()]
    power = None
    for _ in range(n):
        power = a if power is None else Prod(power, a)
        choices.append(power)
    out = choices[-1]
    for c in reversed(choices[:-1]):
        out = Or(c, out)
    return out


def approximate(s: Sequent, n: int) -> Sequent:
    """The n-th approximation: negative stars become ``1 v A v ... v A^n``.

    ``A^+`` is read as ``A.A^*`` in the same walk.  The result has stars
    only in positive positions, so the prover's positive-star rule
    suffices for it.
    """
    if n < 0:
        raise ValueError("approximation depth must be >= 0")
    power = partial(_bounded_power, n=n)
    memo: dict = {}
    ante = tuple([_polar(f, False, power, memo) for f in s.antecedent])
    return Sequent(ante, _polar(s.succedent, True, power, memo))


class ApproximationOutcome(_Record):
    """Result of scanning approximation levels ``0..up_to``; a plain slot
    record, immutable by contract."""

    __slots__ = ("refuted", "level", "sequent")

    refuted: bool
    level: int | None
    sequent: Sequent | None

    def __init__(self, refuted: bool, level: int | None,
                 sequent: Sequent | None):
        self.refuted = refuted
        self.level = level
        self.sequent = sequent

    @property
    def verdict(self) -> str:
        return f"Refuted({self.level})" if self.refuted else "Unrefuted"


def check_approximations(s: Sequent, up_to: int = 3, *,
                         session: ProverSession | None = None,
                         budget: int = DEFAULT_BUDGET) -> ApproximationOutcome:
    """Refute ``s`` via its approximations, or report none found.

    ``Refuted(n)`` (least such n <= up_to) certifies that ``s`` is
    underivable in the full calculus; ``Unrefuted`` decides nothing.
    """
    session = _session_for(session, False)
    for n in range(up_to + 1):
        approx = approximate(s, n)
        if not prove(approx, session=session, budget=budget).proved:
            return ApproximationOutcome(True, n, approx)
    return ApproximationOutcome(False, None, None)


# --------------------------------------------------------------------------
# *-external instance expansion
# --------------------------------------------------------------------------

def _formula_star_external(f: Formula) -> bool:
    """True when ``f`` joins division-pure pieces by ``.``, ``*`` and ``^+``
    alone.  Each distinct (hash-consed) node is visited once, from an
    explicit stack, so shared structure costs its DAG size."""
    if division_pure(f):
        return True
    seen: set[Formula] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if not g.kinds & ~_DIVISION or g in seen:      # division-pure
            continue
        seen.add(g)
        k = g.kind
        if k == PROD:
            todo += (g.left, g.right)
        elif k == STAR or k == PLUS:
            todo.append(g.left)
        else:
            return False
    return True


def is_star_external(s: Sequent) -> bool:
    """True iff no ``.``/``*`` sits under a division anywhere in ``s``.

    Antecedent formulas may combine division-pure pieces with ``.``, ``*``
    and ``^+``; the succedent must itself be division-pure.
    """
    return (division_pure(s.succedent)
            and all(_formula_star_external(f) for f in s.antecedent))


def _seq_key(seq: tuple[Formula, ...]) -> tuple:
    return (len(seq), tuple(render_formula(f) for f in seq))


def _inst(f: Formula, bound: int,
          memo: dict[Formula, tuple[tuple[Formula, ...], ...]],
          ) -> tuple[tuple[Formula, ...], ...]:
    if f in memo:
        return memo[f]
    if division_pure(f):
        out: tuple[tuple[Formula, ...], ...] = ((f,),)
    elif f.kind == PROD:
        lefts = _inst(f.left, bound, memo)
        rights = _inst(f.right, bound, memo)
        out = tuple(sorted({l + r for l in lefts for r in rights},
                           key=_seq_key))
    else:           # STAR or PLUS: instances() checked *-externality
        blocks = _inst(f.left, bound, memo)
        seen: set[tuple[Formula, ...]] = set() if f.kind == PLUS else {()}
        level: set[tuple[Formula, ...]] = {()}
        for _ in range(bound):
            level = {seq + blk for seq in level for blk in blocks}
            seen |= level
        out = tuple(sorted(seen, key=_seq_key))
    memo[f] = out
    return out


def instances(f: Formula, bound: int) -> tuple[tuple[Formula, ...], ...]:
    """The instances of a *-external formula in length-lexicographic order,
    every star (``*``: 0..bound repetitions) and plus (``^+``: 1..bound)
    unfolded at most ``bound`` times."""
    if not _formula_star_external(f):
        raise FragmentError(
            f"{_brief(f)} is not *-external; cannot expand instances")
    if bound < 0:
        raise ValueError("instance bound must be >= 0")
    return _inst(f, bound, {})


class InstanceOutcome(_Record):
    """Result of scanning the bounded instances of a sequent; a plain slot
    record, immutable by contract."""

    __slots__ = ("refuted", "witness")

    refuted: bool
    witness: Sequent | None

    def __init__(self, refuted: bool, witness: Sequent | None):
        self.refuted = refuted
        self.witness = witness

    @property
    def verdict(self) -> str:
        return "Refuted" if self.refuted else "Unrefuted"


def check_instances(s: Sequent, bound: int = 3, *,
                    session: ProverSession | None = None,
                    budget: int = DEFAULT_BUDGET) -> InstanceOutcome:
    """Refute a *-external sequent via its bounded instances.

    Every instance is a consequence of ``s`` by ``(->.)``/``(->*_k)``
    alone, so the first refuted instance (in length-lex order) certifies
    that ``s`` is underivable; ``Unrefuted`` reports only that the bounded
    family survived.
    """
    session = _session_for(session, False)
    if not is_star_external(s):
        raise FragmentError(f"{_sequent_text(s, _brief)} is not *-external")
    per_formula = [instances(f, bound) for f in s.antecedent]
    combos = sorted(
        {tuple(itertools.chain.from_iterable(pick))
         for pick in itertools.product(*per_formula)},
        key=_seq_key)
    for ante in combos:
        inst = Sequent(ante, s.succedent)
        if not prove(inst, session=session, budget=budget).proved:
            return InstanceOutcome(True, inst)
    return InstanceOutcome(False, None)


# --------------------------------------------------------------------------
# Instance soundness certificates
# --------------------------------------------------------------------------

def _membership_cert(f: Formula, seq: tuple[Formula, ...],
                     memo: dict) -> Derivation | None:
    key = (f, seq)
    if key in memo:
        return memo[key]
    result: Derivation | None = None
    if division_pure(f):
        if seq == (f,):
            result = derive_identity(f)
    elif f.kind == PROD:
        for cut in range(len(seq) + 1):
            left = _membership_cert(f.left, seq[:cut], memo)
            if left is None:
                continue
            right = _membership_cert(f.right, seq[cut:], memo)
            if right is None:
                continue
            result = Derivation("->.", Sequent(seq, f), (left, right))
            break
    elif f.kind == STAR:
        result = _star_split(seq, f, lambda block: _membership_cert(
            f.left, block, memo))
    memo[key] = result
    return result


def instance_soundness(f: Formula, inst: Sequence[Formula]) -> Derivation:
    """Checking certificate for ``inst -> f`` where ``inst`` instantiates ``f``.

    Built by structural recursion: ``(->.)`` splits products, ``(->*_k)``
    groups star repetitions, and division-pure leaves close with identity
    expansions, built by the search kernel's :func:`derive_identity`.
    Raises :class:`InstanceMembershipError` when ``inst`` is not an
    instance of ``f``.
    """
    source = normalize_plus(f)
    if not _formula_star_external(source):
        raise FragmentError(
            f"{_brief(f)} is not *-external; cannot expand instances")
    seq = tuple(inst)
    cert = _membership_cert(source, seq, {})
    if cert is None:
        raise InstanceMembershipError(
            f"{_sequent_text(Sequent(seq, source), _brief)} is not an "
            "instance membership")
    assert_valid_derivation(cert)
    return cert
