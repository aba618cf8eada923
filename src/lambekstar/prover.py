"""Cut-free sequent provers.

Two engines share one public API:

* a focused kernel (:mod:`lambekstar._search`) for division-pure
  sequents — atoms, ``\\`` and ``/`` only;
* a general backward-chaining engine for the full vocabulary
  (``.``, ``1``, ``|``, ``&`` and positive ``^*``/``^+``).

Both return finished :class:`~lambekstar.formula.Derivation` certificates.
``A^+`` is rewritten to ``A.A^*`` on entry (so derivations use the closed
rule-label set); ``^*``/``^+`` in negative position and, under Lambek's
restriction, the unit or any iteration raise :class:`FragmentError` — the
ω-rule is not searchable.

``naive_prove`` is an intentionally simple independent oracle: it tries
every rule at every position with no inversion phases, no head-atom
focusing and no relational pruning, and shares nothing with the engines
beyond the formula terms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from . import _search
from .checker import assert_valid_derivation, check_derivation
from .formula import (
    ATOM, UNIT, UNDER, OVER, PROD, STAR, PLUS, OR, AND,
    BudgetError, CertificateError, Derivation, Formula, FragmentError,
    GroupWord, Prod, Sequent, Star, Unit, _rebuild, _truth,
    division_pure, render_formula, render_sequent, sequence_image,
)

__all__ = [
    "DEFAULT_BUDGET", "ProofResult", "ProverSession",
    "prove", "prove_focused", "naive_prove", "normalize_plus",
    "invert_to_atomic", "principal_candidates",
    "check_derivation", "kernel_backend",
    "ProofRecorder", "enable_recording", "disable_recording",
]

DEFAULT_BUDGET = 10 ** 6


def kernel_backend() -> str:
    """The search kernel in use; always 'pure', the one Python kernel."""
    return "pure"


@dataclass(frozen=True)
class ProofResult:
    proved: bool
    derivation: Derivation | None = None

    @property
    def verdict(self) -> str:
        return "Proved" if self.proved else "Refuted"


class ProverSession:
    """One restriction mode, the memo that every prove() call in the session
    shares, and the expansion steps those calls have spent.  The memo holds
    only finished results, so a query repeated in a session expands no new
    state."""

    def __init__(self, restricted: bool = False):
        self.restricted = restricted
        self.memo: dict = {}
        self.steps_used = 0


def _session_for(session: ProverSession | None,
                 restricted: bool) -> ProverSession:
    """The session of every public entry point that takes one: ``session``,
    or a fresh one when it is None.  A session made for the other
    restriction mode is refused with ``ValueError``."""
    if session is None:
        return ProverSession(restricted)
    if session.restricted != restricted:
        raise ValueError("session was created for the other restriction mode")
    return session


# --------------------------------------------------------------------------
# entry normalisation and fragment checks

def normalize_plus(f: Formula) -> Formula:
    """Rewrite every ``A^+`` subformula to ``A.A^*`` (shared-structure safe)."""
    if not f.kinds & 1 << PLUS:
        return f
    if f.kind == PLUS:
        a = normalize_plus(f.left)
        return Prod(a, Star(a))
    left = normalize_plus(f.left)
    right = normalize_plus(f.right) if f.right is not None else None
    return _rebuild(f, left, right)


def _scan(f: Formula, positive: bool, restricted: bool) -> None:
    if not f.kinds & (1 << UNIT | 1 << STAR | 1 << PLUS):
        return
    k = f.kind
    if k == UNIT:
        if restricted:
            raise FragmentError(
                "the unit is not part of the calculus under Lambek's "
                "restriction")
        return
    if k in (STAR, PLUS):
        if restricted:
            raise FragmentError(
                "iteration under Lambek's restriction is not supported by "
                "this prover (its rules fall outside the derivation "
                "vocabulary)")
        if not positive:
            raise FragmentError(
                f"{render_formula(f)} occurs in negative position; the "
                "left iteration rule is an ω-rule and cannot be searched")
        _scan(f.left, positive, restricted)
        return
    if k == UNDER:
        _scan(f.left, not positive, restricted)
        _scan(f.right, positive, restricted)
    elif k == OVER:
        _scan(f.left, positive, restricted)
        _scan(f.right, not positive, restricted)
    else:  # PROD, OR, AND are covariant in both arguments
        _scan(f.left, positive, restricted)
        _scan(f.right, positive, restricted)


def _prepare(sequent: Sequent, restricted: bool) -> Sequent:
    ant = tuple(normalize_plus(a) for a in sequent.antecedent)
    succ = normalize_plus(sequent.succedent)
    for a in ant:
        _scan(a, False, restricted)
    _scan(succ, True, restricted)
    return Sequent(ant, succ)


# --------------------------------------------------------------------------
# public API

def prove(sequent: Sequent, *, restricted: bool = False,
          session: ProverSession | None = None,
          budget: int = DEFAULT_BUDGET) -> ProofResult:
    """Decide a sequent, producing a derivation certificate when provable.

    Division-pure sequents go to the focused kernel; anything else to the
    general engine.  ``A^+`` is normalised to ``A.A^*`` first, so the
    certificate's sequents mention only ``^*``.  Raises
    :class:`BudgetError` after ``budget`` expansion steps, which still count
    in ``session.steps_used``; the session stays sound, because the memo
    only ever holds finished results.
    """
    session = _session_for(session, restricted)
    seq = _prepare(sequent, restricted)
    box = [budget]
    try:
        if all(division_pure(f) for f in seq.antecedent) \
                and division_pure(seq.succedent):
            d = _search.search(seq.antecedent, seq.succedent, session.memo,
                               box, restricted)
        else:
            d = _general(seq.antecedent, seq.succedent, session.memo, box,
                         restricted)
    finally:
        session.steps_used += budget - box[0]
    result = ProofResult(d is not None, d)
    if d is not None:
        _record(seq, d, restricted)
    return result


def prove_focused(sequent: Sequent, *, restricted: bool = False,
                  session: ProverSession | None = None,
                  budget: int = DEFAULT_BUDGET) -> ProofResult:
    """The focused engine only; raises FragmentError off the \\,/ fragment."""
    if not all(division_pure(f) for f in sequent.antecedent) \
            or not division_pure(sequent.succedent):
        raise FragmentError("focused search handles only atoms, \\ and /")
    return prove(sequent, restricted=restricted, session=session,
                 budget=budget)


def invert_to_atomic(sequent: Sequent) -> Sequent:
    """Apply the invertible right rules until the succedent is an atom."""
    ant, succ = sequent.antecedent, sequent.succedent
    while True:
        if succ.kind == UNDER:
            ant = (succ.left,) + ant
            succ = succ.right
        elif succ.kind == OVER:
            ant = ant + (succ.right,)
            succ = succ.left
        else:
            return Sequent(ant, succ)


def principal_candidates(sequent: Sequent) -> tuple[int, ...]:
    """Positions whose head atom matches the (atomic) succedent."""
    succ = sequent.succedent
    if succ.kind != ATOM:
        raise FragmentError("candidates are defined for atomic succedents; "
                            "apply invert_to_atomic first")
    return tuple(i for i, f in enumerate(sequent.antecedent)
                 if f.kind != ATOM and f.top == succ.name)


# --------------------------------------------------------------------------
# general engine

def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Cut positions splitting range(n) into k non-empty blocks."""
    for cuts in combinations(range(1, n), k - 1):
        yield cuts


def _general(ant: tuple, succ: Formula, memo: dict, budget: list,
             restricted: bool) -> Derivation | None:
    if restricted and not ant:
        return None
    # the kernel keys its states (ant, succ) and (lctx, f, rctx, succ), so
    # a key that starts with a formula is never one of them: a session
    # shared by both engines never hands one engine's derivation to the
    # other
    key = (succ, ant)
    hit = memo.get(key, None)
    if hit is not None:
        return hit if hit is not False else None
    b = budget[0] - 1
    if b < 0:
        raise BudgetError("proof-search budget exhausted")
    budget[0] = b
    d = _general_step(ant, succ, memo, budget, restricted)
    memo[key] = d if d is not None else False
    return d


def _general_step(ant: tuple, succ: Formula, memo: dict, budget: list,
                  restricted: bool) -> Derivation | None:
    conclusion = Sequent(ant, succ)
    sk = succ.kind

    # invertible right rules
    if sk == UNDER:
        p = _general((succ.left,) + ant, succ.right, memo, budget, restricted)
        return None if p is None else Derivation("->\\", conclusion, (p,))
    if sk == OVER:
        p = _general(ant + (succ.right,), succ.left, memo, budget, restricted)
        return None if p is None else Derivation("->/", conclusion, (p,))
    if sk == AND:
        p1 = _general(ant, succ.left, memo, budget, restricted)
        if p1 is None:
            return None
        p2 = _general(ant, succ.right, memo, budget, restricted)
        return None if p2 is None else Derivation("->&", conclusion, (p1, p2))

    # invertible left rules, leftmost applicable position first
    for i, f in enumerate(ant):
        k = f.kind
        if k == PROD:
            p = _general(ant[:i] + (f.left, f.right) + ant[i + 1:], succ,
                         memo, budget, restricted)
            return None if p is None else Derivation(".->", conclusion, (p,))
        if k == UNIT:
            p = _general(ant[:i] + ant[i + 1:], succ, memo, budget,
                         restricted)
            return None if p is None else Derivation("1->", conclusion, (p,))
        if k == OR:
            p1 = _general(ant[:i] + (f.left,) + ant[i + 1:], succ, memo,
                          budget, restricted)
            if p1 is None:
                return None
            p2 = _general(ant[:i] + (f.right,) + ant[i + 1:], succ, memo,
                          budget, restricted)
            return None if p2 is None \
                else Derivation("|->", conclusion, (p1, p2))

    # the relational test of the kernel, where every formula has a value
    if succ.tv is not None and all(f.tv is not None for f in ant) \
            and _truth(ant) & ~succ.tv:
        return None

    # axioms
    if sk == ATOM and len(ant) == 1 and ant[0] is succ:
        return Derivation("Ax", conclusion)
    if sk == UNIT and not ant and not restricted:
        return Derivation("1-Ax", conclusion)

    # non-invertible right rules
    if sk == STAR:
        if not ant:
            return Derivation("->*_0", conclusion)
        n = len(ant)
        for k in range(1, n + 1):
            for cuts in _compositions(n, k):
                bounds = (0,) + cuts + (n,)
                premises = []
                for a, b2 in zip(bounds, bounds[1:]):
                    p = _general(ant[a:b2], succ.left, memo, budget,
                                 restricted)
                    if p is None:
                        break
                    premises.append(p)
                else:
                    return Derivation(f"->*_{k}", conclusion,
                                      tuple(premises))
    elif sk == PROD:
        for i in range(len(ant) + 1):
            p1 = _general(ant[:i], succ.left, memo, budget, restricted)
            if p1 is None:
                continue
            p2 = _general(ant[i:], succ.right, memo, budget, restricted)
            if p2 is not None:
                return Derivation("->.", conclusion, (p1, p2))
    elif sk == OR:
        p = _general(ant, succ.left, memo, budget, restricted)
        if p is not None:
            return Derivation("->|1", conclusion, (p,))
        p = _general(ant, succ.right, memo, budget, restricted)
        if p is not None:
            return Derivation("->|2", conclusion, (p,))

    # non-invertible left rules
    for i, f in enumerate(ant):
        k = f.kind
        if k == UNDER:
            for j in range(i, -1, -1):
                pi = ant[j:i]
                if restricted and not pi:
                    continue
                p1 = _general(pi, f.left, memo, budget, restricted)
                if p1 is None:
                    continue
                p2 = _general(ant[:j] + (f.right,) + ant[i + 1:], succ,
                              memo, budget, restricted)
                if p2 is not None:
                    return Derivation("\\->", conclusion, (p1, p2))
        elif k == OVER:
            for j in range(i + 1, len(ant) + 1):
                pi = ant[i + 1:j]
                if restricted and not pi:
                    continue
                p1 = _general(pi, f.right, memo, budget, restricted)
                if p1 is None:
                    continue
                p2 = _general(ant[:i] + (f.left,) + ant[j:], succ,
                              memo, budget, restricted)
                if p2 is not None:
                    return Derivation("/->", conclusion, (p1, p2))
        elif k == AND:
            p = _general(ant[:i] + (f.left,) + ant[i + 1:], succ, memo,
                         budget, restricted)
            if p is not None:
                return Derivation("&->1", conclusion, (p,))
            p = _general(ant[:i] + (f.right,) + ant[i + 1:], succ, memo,
                         budget, restricted)
            if p is not None:
                return Derivation("&->2", conclusion, (p,))
    return None


# --------------------------------------------------------------------------
# the oracle

def naive_prove(sequent: Sequent, *, restricted: bool = False,
                budget: int = 10 ** 7) -> bool:
    """Plain exhaustive backward search; the reference oracle.

    Tries every rule at every position in a fixed order with no focusing,
    no eager inversion and no algebraic pruning.  Memoised (every premise
    is strictly smaller, so the recursion terminates), but otherwise as
    direct a transcription of the rules as possible.
    """
    seq = _prepare(sequent, restricted)
    memo: dict = {}
    box = [budget]

    def go(ant: tuple, succ: Formula) -> bool:
        if restricted and not ant:
            return False
        key = (ant, succ)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if box[0] <= 0:
            raise BudgetError("oracle budget exhausted")
        box[0] -= 1
        memo[key] = False  # in-progress default; sizes strictly decrease
        res = step(ant, succ)
        memo[key] = res
        return res

    def step(ant: tuple, succ: Formula) -> bool:
        sk = succ.kind
        if sk == ATOM and len(ant) == 1 and ant[0] is succ:
            return True
        if sk == UNIT and not ant and not restricted:
            return True
        if sk == UNDER and go((succ.left,) + ant, succ.right):
            return True
        if sk == OVER and go(ant + (succ.right,), succ.left):
            return True
        if sk == AND and go(ant, succ.left) and go(ant, succ.right):
            return True
        if sk == OR and (go(ant, succ.left) or go(ant, succ.right)):
            return True
        if sk == PROD:
            for i in range(len(ant) + 1):
                if go(ant[:i], succ.left) and go(ant[i:], succ.right):
                    return True
        if sk == STAR:
            if not ant:
                return True
            n = len(ant)
            for k in range(1, n + 1):
                for cuts in _compositions(n, k):
                    bounds = (0,) + cuts + (n,)
                    if all(go(ant[a:b], succ.left)
                           for a, b in zip(bounds, bounds[1:])):
                        return True
        for i, f in enumerate(ant):
            k = f.kind
            if k == UNIT and go(ant[:i] + ant[i + 1:], succ):
                return True
            if k == PROD and go(ant[:i] + (f.left, f.right) + ant[i + 1:],
                                succ):
                return True
            if k == OR and go(ant[:i] + (f.left,) + ant[i + 1:], succ) \
                    and go(ant[:i] + (f.right,) + ant[i + 1:], succ):
                return True
            if k == AND and (go(ant[:i] + (f.left,) + ant[i + 1:], succ)
                             or go(ant[:i] + (f.right,) + ant[i + 1:], succ)):
                return True
            if k == UNDER:
                for j in range(i + 1):
                    if go(ant[j:i], f.left) and \
                            go(ant[:j] + (f.right,) + ant[i + 1:], succ):
                        return True
            if k == OVER:
                for j in range(i + 1, len(ant) + 1):
                    if go(ant[i + 1:j], f.right) and \
                            go(ant[:i] + (f.left,) + ant[j:], succ):
                        return True
        return False

    return go(seq.antecedent, seq.succedent)


# --------------------------------------------------------------------------
# recording hooks: audit every Proved result of a run

@dataclass
class ProofRecorder:
    """Collects every Proved result and audits it on the spot: the
    derivation must check out against the rule schemas and, inside the
    ·,\\,/,1 fragment, the free-group images of the two sides must agree."""

    proved: int = 0
    audited: int = 0
    fg_checked: int = 0
    violations: list = field(default_factory=list)

    def observe(self, sequent: Sequent, derivation: Derivation,
                restricted: bool) -> None:
        self.proved += 1
        if derivation.conclusion != sequent:
            self.violations.append(
                f"certificate concludes {render_sequent(derivation.conclusion)}"
                f" instead of {render_sequent(sequent)}")
            return
        try:
            assert_valid_derivation(derivation, restricted=restricted)
            self.audited += 1
        except CertificateError as e:
            self.violations.append(str(e))
        try:
            lhs = sequence_image(sequent.antecedent)
        except FragmentError:
            return
        if sequent.succedent.fgw is None:
            return
        self.fg_checked += 1
        if lhs != GroupWord(sequent.succedent.fgw):
            self.violations.append(
                f"free-group images differ for proved sequent "
                f"{render_sequent(sequent)}")


_recorder: ProofRecorder | None = None


def enable_recording(recorder: ProofRecorder | None = None) -> ProofRecorder:
    global _recorder
    _recorder = recorder or ProofRecorder()
    return _recorder


def disable_recording() -> None:
    global _recorder
    _recorder = None


def _record(sequent: Sequent, derivation: Derivation,
            restricted: bool) -> None:
    if _recorder is not None:
        _recorder.observe(sequent, derivation, restricted)
