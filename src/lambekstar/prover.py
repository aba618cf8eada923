"""Cut-free sequent provers.

:func:`prove` prepares a sequent and hands it to the one search kernel,
:mod:`lambekstar._search`, which decides the full vocabulary (``.``,
``1``, ``|``, ``&`` and positive ``^*``/``^+`` beside ``\\`` and
``/``).  Every ``Proved`` carries a finished
:class:`~lambekstar.formula.Derivation` certificate.  ``A^+`` is
rewritten to ``A.A^*`` on entry (so derivations use the closed
rule-label set); ``^*``/``^+`` in negative position and, under Lambek's
restriction, the unit or any iteration raise :class:`FragmentError` — the
ω-rule is not searchable.

``naive_prove`` is an intentionally simple independent oracle: it tries
every rule at every position with no inversion phases, no head-atom
focusing and no relational pruning, and shares nothing with the search
beyond the formula terms and the entry normalisation (``_prepare``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from . import _search
from .checker import assert_valid_derivation
from .formula import (
    ATOM, UNIT, UNDER, OVER, PROD, STAR, PLUS, OR, AND,
    BudgetError, CertificateError, Derivation, Formula, FragmentError,
    Prod, Sequent, Star, _Record, _brief, _rebuild, _values, fg_interp,
    render_sequent, sequence_image,
)

__all__ = [
    "DEFAULT_BUDGET", "ProofResult", "ProverSession",
    "prove", "naive_prove", "normalize_plus",
    "kernel_backend",
    "ProofRecorder", "enable_recording", "disable_recording",
]

DEFAULT_BUDGET = 10 ** 6


def kernel_backend() -> str:
    """The search kernel in use; always 'pure', the one Python kernel."""
    return "pure"


class ProofResult(_Record):
    """A verdict and, when proved, its certificate; a plain slot record,
    immutable by contract."""

    __slots__ = ("proved", "derivation")

    proved: bool
    derivation: Derivation | None

    def __init__(self, proved: bool, derivation: Derivation | None = None):
        self.proved = proved
        self.derivation = derivation

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

def _polar(f: Formula, positive: bool,
           negative_star: Callable[[Formula], Formula],
           memo: dict) -> Formula:
    """``f`` rebuilt bottom-up with every ``A^+`` read as ``A.A^*`` and
    every ``A^*`` in negative position replaced by ``negative_star(A)``,
    ``A`` already rewritten; ``positive`` is the polarity of ``f`` itself.
    ``\\`` flips its left argument and ``/`` its right.  Subformulas
    without ``^*`` or ``^+`` come back as they are, and ``memo`` keeps
    each (subformula, polarity) done, so shared structure is paid once."""
    if not f.kinds & _ITER:
        return f
    key = (f, positive)
    out = memo.get(key)
    if out is not None:
        return out
    k = f.kind
    if k == STAR or k == PLUS:
        a = _polar(f.left, positive, negative_star, memo)
        out = Star(a) if positive else negative_star(a)
        if k == PLUS:
            out = Prod(a, out)
    else:
        out = _rebuild(
            f, _polar(f.left, positive ^ (k == UNDER), negative_star, memo),
            _polar(f.right, positive ^ (k == OVER), negative_star, memo))
    memo[key] = out
    return out


def normalize_plus(f: Formula) -> Formula:
    """Rewrite every ``A^+`` subformula to ``A.A^*`` (shared-structure safe)."""
    if not f.kinds & 1 << PLUS:
        return f
    return _polar(f, True, Star, {})


def _refuse_star(a: Formula) -> Formula:
    raise FragmentError(
        f"{_brief(Star(a))} occurs in negative position; the left "
        "iteration rule is an ω-rule and cannot be searched")


_ITER = 1 << STAR | 1 << PLUS
_SPECIAL = 1 << UNIT | _ITER     # refused under Lambek's restriction


def _kinds(sequent: Sequent) -> int:
    """OR of ``kinds`` over every formula of ``sequent``."""
    kinds = sequent.succedent.kinds
    for f in sequent.antecedent:
        kinds |= f.kinds
    return kinds


def _prepare(sequent: Sequent, restricted: bool, kinds: int) -> Sequent:
    """The sequent the search takes and the certificate concludes:
    ``A^+`` rewritten to ``A.A^*``, the fragment checked, the antecedent a
    tuple.  ``kinds`` is :func:`_kinds` of ``sequent``: it alone refuses
    the unit and iteration under Lambek's restriction, and without ``^*``
    or ``^+`` no formula is walked.  The caller's own sequent comes back
    when nothing changes."""
    if restricted and kinds & _SPECIAL:
        raise FragmentError(
            "iteration under Lambek's restriction is not supported by this "
            "prover (its rules fall outside the derivation vocabulary)"
            if kinds & _ITER else
            "the unit is not part of the calculus under Lambek's restriction")
    ant = sequent.antecedent
    succ = sequent.succedent
    if kinds & _ITER:
        memo: dict = {}
        ant = tuple([_polar(a, False, _refuse_star, memo) for a in ant])
        succ = _polar(succ, True, _refuse_star, memo)
    if ant.__class__ is not tuple:
        ant = tuple(ant)
    elif ant == sequent.antecedent and succ is sequent.succedent:
        return sequent
    return Sequent(ant, succ)


# --------------------------------------------------------------------------
# public API

def prove(sequent: Sequent, *, restricted: bool = False,
          session: ProverSession | None = None,
          budget: int = DEFAULT_BUDGET) -> ProofResult:
    """Decide a sequent, producing a derivation certificate when provable.

    One fold of ``kinds`` over the sequent decides the polarity walk:
    without ``^*`` or ``^+`` no formula is rewritten.  The walk normalises
    ``A^+`` to ``A.A^*``, so the certificate's sequents mention only
    ``^*``, and refuses stars in negative position.  Then the relational
    values of the subformulas are filled where missing, so that the
    search reads stored values, and :func:`lambekstar._search.search`
    decides the sequent.  It answers a division-pure identity ``A -> A``
    with the identity expansion of ``A`` for one step, and every later
    identity of the session that the expansion holds for none.  Raises
    :class:`BudgetError` after ``budget`` expansion steps, which still
    count in ``session.steps_used``; the session stays sound, because the
    memo only ever holds finished results.
    """
    session = _session_for(session, restricted)
    kinds = _kinds(sequent)
    seq = _prepare(sequent, restricted, kinds)
    # the search reads the stored values of every subformula
    succ = seq.succedent
    if succ.rv is None:
        _values(succ)
    for f in seq.antecedent:
        if f.rv is None:
            _values(f)
    box = [budget]
    try:
        d = _search.search(seq.antecedent, succ, session.memo, box,
                           restricted)
    finally:
        session.steps_used += budget - box[0]
    result = ProofResult(d is not None, d)
    if d is not None:
        _record(seq, d, restricted)
    return result


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
    seq = _prepare(sequent, restricted, _kinds(sequent))
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
                for cuts in combinations(range(1, n), k - 1):
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

class ProofRecorder(_Record):
    """Collects every Proved result and audits it on the spot: the
    derivation must check out against the rule schemas and, inside the
    ·,\\,/,1 fragment, the free-group images of the two sides must agree.
    A mutable slot record: its counts grow, so it has no hash."""

    __slots__ = ("proved", "audited", "fg_checked", "violations")
    __hash__ = None

    proved: int
    audited: int
    fg_checked: int
    violations: list

    def __init__(self, proved: int = 0, audited: int = 0,
                 fg_checked: int = 0, violations: list | None = None):
        self.proved = proved
        self.audited = audited
        self.fg_checked = fg_checked
        self.violations = [] if violations is None else violations

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
            rhs = fg_interp(sequent.succedent)
        except FragmentError:
            return
        self.fg_checked += 1
        if lhs != rhs:
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
