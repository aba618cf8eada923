"""Joining formulas: one division-only formula derivable from several sequences.

Given formula sequences Γ₁ … Γₙ that share a single free-group image, a
*join* is a formula J in the pure division language with ⊢ Γᵢ → J for every
i.  Joins exist for all zero-balanced families, but this module makes no
completeness claim: it layers a few certified strategies and *verifies every
candidate with the prover* before emitting it, so a returned
:class:`JoinCertificate` is sound by construction and a family the
strategies cannot handle fails loudly with the list of tried candidates.

Strategies, in order:

0. *single* — a one-row family joins at its own product, raised over a
   fresh core and with the products eliminated (the candidate of strategy
   2 for one row, tried first and only once).
1. *menu raising* — pick the longest input as a master sequence, align the
   other inputs into it monotonically, replace every slot some input skips
   by an "optional" variant O(m) with ⊢ Λ → O(m) and ⊢ m → O(m), and raise
   the whole menu over a fresh core: ``J = d/(M₁\\(M₂\\…\\d))``.  This is the
   workhorse for the staircase families produced by the grammar compiler.
2. *product of all* — raise the product of all inputs and eliminate the
   products; it verifies exactly when every input is derivable from the
   empty sequence once its siblings are removed (e.g. families of
   identities ``A\\A``, ``B\\B``).

Every ``prove`` a join makes, its candidate builders' included, runs in
one :class:`ProverSession`, the caller's or a fresh one, so no state is
searched twice within it: a repeat of a problem in the same session
expands no new state and returns an equal certificate, and a fresh session
computes the same one again.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .checker import assert_valid_derivation
from .formula import (
    ATOM, OVER, PROD, UNDER,
    Atom, Derivation, Formula, FragmentError, LambekError, Over, Prod,
    Sequent, Under, VarSupply, _rebuild, _Record, curried_division,
    division_pure, sequence_image, split_curried,
)
from .prover import DEFAULT_BUDGET, ProverSession, _session_for, prove

__all__ = [
    "JoinProblem", "JoinCertificate", "JoinPreconditionError",
    "JoinSynthesisError", "join", "product_fold", "eliminate_product",
    "optionalize",
]


class JoinPreconditionError(LambekError):
    """The inputs have different free-group images, so no join can exist."""


class JoinSynthesisError(LambekError):
    """No tried candidate verified within budget."""


def _check_language(f: Formula) -> None:
    if f.kinds & ~(1 << ATOM | 1 << UNDER | 1 << OVER | 1 << PROD):
        raise FragmentError(
            f"join machinery works in the ., \\, / language; got {f}")


# --------------------------------------------------------------------------
# folding and product elimination

def product_fold(gamma: Sequence[Formula], fallback_var: str = "q") -> Formula:
    """Left-nested product of a sequence; the empty sequence folds to q/q."""
    gamma = tuple(gamma)
    if not gamma:
        v = Atom(fallback_var)
        return Over(v, v)
    out = gamma[0]
    for x in gamma[1:]:
        out = Prod(out, x)
    return out


def eliminate_product(f: Formula, *, budget: int = DEFAULT_BUDGET,
                      session: ProverSession | None = None) -> Formula:
    """A product-free formula B with ⊢ f → B, prover-verified.

    Product-free inputs come back unchanged, with no proof run.
    Denominator products are removed by the currying laws
    ``(A.B)\\C = B\\(A\\C)`` and ``C/(A.B) = (C/B)/A``, which hold in both
    directions, so they are safe at any polarity.  A top-level or
    numerator product spine is raised over a fresh core,
    ``d/((F₁,…,Fₖ)\\d)``, which is derivable from the spine but
    deliberately one-directional, so it is never done under a
    denominator; a product left there (one in a denominator's numerator)
    has no division-only equivalent and fails the synthesis.  The
    verifying proof runs in ``session`` when one is given.
    """
    _check_language(f)
    if not f.kinds & 1 << PROD:
        return f
    supply = VarSupply.for_formulas([f])

    def elim(g: Formula, top: bool) -> Formula:
        """``g`` without products; ``top`` is False under a denominator."""
        if not g.kinds & 1 << PROD:
            return g
        if g.kind == UNDER:
            if g.left.kind == PROD:
                return elim(Under(g.left.right, Under(g.left.left, g.right)),
                            top)
            return _rebuild(g, elim(g.left, False), elim(g.right, top))
        if g.kind == OVER:
            if g.right.kind == PROD:
                return elim(Over(Over(g.left, g.right.right), g.right.left),
                            top)
            return _rebuild(g, elim(g.left, top), elim(g.right, False))
        if not top:
            raise JoinSynthesisError(
                f"irreducible product in a denominator of {g}")
        factors = []
        spine = [g]
        while spine:            # the spine's factors, left to right
            x = spine.pop()
            if x.kind == PROD:
                spine += (x.right, x.left)
            else:
                factors.append(elim(x, True))
        core = supply.fresh_atom("d")
        return Over(core, curried_division(factors, core, []))

    out = elim(f, True)
    result = prove(Sequent((f,), out), session=session, budget=budget)
    if not result.proved:
        raise JoinSynthesisError(
            f"candidate {out} is not derivable from {f}")
    return out


# --------------------------------------------------------------------------
# optional slot variants

def _match_sentinel(f: Formula) -> tuple[str, str, str] | None:
    """Match (r/(p\\r))/(q/(p\\q)) and return (p, q, r)."""
    if f.kind != OVER or f.left.kind != OVER or f.right.kind != OVER:
        return None
    num, den = f.left, f.right
    if num.left.kind != ATOM or num.right.kind != UNDER:
        return None
    if den.left.kind != ATOM or den.right.kind != UNDER:
        return None
    r, pr = num.left, num.right
    q, pq = den.left, den.right
    if pr.left.kind != ATOM or pr.right is not r:
        return None
    if pq.left.kind != ATOM or pq.right is not q:
        return None
    if pr.left is not pq.left:
        return None
    return (pr.left.name, q.name, r.name)


def _match_gate(f: Formula) -> tuple[str, tuple[str, str, str]] | None:
    """Match (z/z)/S for an atom z and a sentinel S; return (z, (p,q,r))."""
    if f.kind != OVER or f.left.kind != OVER:
        return None
    zz = f.left
    if zz.left.kind != ATOM or zz.right is not zz.left:
        return None
    params = _match_sentinel(f.right)
    if params is None:
        return None
    return (zz.left.name, params)


def _match_slot(f: Formula) -> tuple[Formula, tuple[Formula, ...]] | None:
    """Match x/((W₁,…,W_T)\\x) for an atom x; return (x, (W₁,…,W_T))."""
    if f.kind != OVER or f.left.kind != ATOM:
        return None
    ws, core, ds = split_curried(f.right)
    if core is not f.left or ds or not ws:
        return None
    return (f.left, ws)


def _optional_candidate(f: Formula,
                        session: ProverSession) -> Formula | None:
    try:
        if prove(Sequent((), f), session=session, budget=20_000).proved:
            return f
    except (FragmentError, LambekError):
        pass
    m = _match_sentinel(f)
    if m is not None:
        p, q, r = (Atom(name) for name in m)
        return curried_division([], r, [p, Under(p, r)])
    mg = _match_gate(f)
    if mg is not None:
        z = Atom(mg[0])
        p, q, _ = (Atom(name) for name in mg[1])
        half = Over(p, Over(q, Under(p, q)))
        return curried_division([], z, [half, p, Under(p, z)])
    ms = _match_slot(f)
    if ms is not None:
        x, ws = ms
        opts = [_optional_candidate(w, session) for w in ws]
        if any(o is None for o in opts):
            return None
        return Over(x, curried_division(opts, x, []))
    return None


def optionalize(f: Formula, *, budget: int = DEFAULT_BUDGET,
                session: ProverSession | None = None) -> Formula:
    """A formula O with both ⊢ Λ → O and ⊢ f → O, prover-verified.

    Recognised shapes: anything already derivable from Λ, sentinels
    (r/(p\\r))/(q/(p\\q)), gates (z/z)/S over a sentinel, and slot formulas
    x/((W₁,…,W_T)\\x) whose every Wᵢ is itself optionalizable.  The
    verifying proofs run in ``session`` (a fresh one when it is None).
    """
    session = _session_for(session, False)
    cand = _optional_candidate(f, session)
    if cand is None:
        raise JoinSynthesisError(f"no optional form known for {f}")
    if not prove(Sequent((), cand), session=session, budget=budget).proved:
        raise JoinSynthesisError(f"optional form {cand} not empty-derivable")
    if not prove(Sequent((f,), cand), session=session,
                 budget=budget).proved:
        raise JoinSynthesisError(f"optional form {cand} not derivable from {f}")
    return cand


# --------------------------------------------------------------------------
# the join itself

class JoinProblem(_Record):
    """A family of formula sequences plus names the synthesis may burn;
    a plain slot record, immutable by contract.  Both fields are stored
    as tuples whatever sequences they are given as."""

    __slots__ = ("inputs", "variable_budget")

    inputs: tuple[tuple[Formula, ...], ...]
    variable_budget: tuple[str, ...]

    def __init__(self, inputs: Iterable[Sequence[Formula]],
                 variable_budget: Iterable[str] = ()):
        self.inputs = tuple([tuple(row) for row in inputs])
        self.variable_budget = tuple(variable_budget)
        if not self.inputs:
            raise ValueError("a join needs at least one input sequence")
        for row in self.inputs:
            for f in row:
                _check_language(f)


class JoinCertificate(_Record):
    """A verified join: one witness derivation per input sequence; a plain
    slot record, immutable by contract."""

    __slots__ = ("problem", "join", "witnesses")

    problem: JoinProblem
    join: Formula
    witnesses: tuple[Derivation, ...]

    def __init__(self, problem: JoinProblem, join: Formula,
                 witnesses: tuple[Derivation, ...]):
        self.problem = problem
        self.join = join
        self.witnesses = witnesses


def _align(row: tuple[Formula, ...],
           master: tuple[Formula, ...]) -> tuple[int, ...] | None:
    """Leftmost monotone embedding of ``row`` into ``master`` (by identity)."""
    pos = 0
    out = []
    for e in row:
        while pos < len(master) and master[pos] is not e:
            pos += 1
        if pos == len(master):
            return None
        out.append(pos)
        pos += 1
    return tuple(out)


def _candidates(p: JoinProblem, supply: VarSupply, fresh_core,
                session: ProverSession) -> Iterable[tuple[str, Formula]]:
    def raised_product(label: str) -> Iterable[tuple[str, Formula]]:
        try:
            folds = [product_fold(row, fallback_var=supply.fresh("q"))
                     for row in p.inputs]
            yield (label,
                   eliminate_product(product_fold(folds), session=session))
        except JoinSynthesisError:
            pass
    # 0. one sequence joins with itself
    if len(p.inputs) == 1:
        yield from raised_product("single")
    # 1. menu raising over the longest input
    master = max(p.inputs, key=len)
    alignments = [_align(row, master) for row in p.inputs]
    if all(a is not None for a in alignments):
        covered_by_all = set(range(len(master)))
        for a in alignments:
            covered_by_all &= set(a)
        try:
            menu = []
            for i, m in enumerate(master):
                slot = eliminate_product(m, session=session)
                menu.append(slot if i in covered_by_all
                            else optionalize(slot, session=session))
            core = fresh_core()
            yield ("menu", Over(core, curried_division(menu, core, [])))
        except JoinSynthesisError:
            pass
    # 2. product of all inputs, raised; for one row it is the single one
    if len(p.inputs) > 1:
        yield from raised_product("product-of-all")


def join(p: JoinProblem, *, budget: int = DEFAULT_BUDGET,
         session: ProverSession | None = None) -> JoinCertificate:
    """Compute a verified join for the family, or fail with diagnostics.

    Every ``prove`` of the call runs in ``session`` (a fresh one when it is
    None), which must be unrestricted; its memo makes a repeat of the same
    problem expand no new state.  ``budget`` bounds each witness
    verification.  Raises :class:`JoinPreconditionError` when the inputs
    do not share one free-group image (then no join exists at all), and
    :class:`JoinSynthesisError` when every strategy's candidate fails
    prover verification.
    """
    session = _session_for(session, False)
    images = {sequence_image(row) for row in p.inputs}
    if len(images) > 1:
        raise JoinPreconditionError(
            "inputs have different free-group images: "
            + ", ".join(sorted(str(sequence_image(r)) for r in p.inputs)))

    supply = VarSupply.for_formulas(itertools.chain.from_iterable(p.inputs))
    budget_names = [n for n in p.variable_budget if n not in supply.used]

    def fresh_core() -> Formula:
        if budget_names:
            return Atom(budget_names.pop(0))
        return supply.fresh_atom("d")

    tried: list[str] = []
    for label, cand in _candidates(p, supply, fresh_core, session):
        if not division_pure(cand):
            tried.append(f"{label}: {cand} (not division-pure)")
            continue
        witnesses = []
        for row in p.inputs:
            r = prove(Sequent(row, cand), session=session, budget=budget)
            if not r.proved:
                witnesses = None
                break
            witnesses.append(r.derivation)
        if witnesses is None:
            tried.append(f"{label}: {cand}")
            continue
        assert_valid_derivation(*witnesses)
        return JoinCertificate(p, cand, tuple(witnesses))
    raise JoinSynthesisError(
        "no candidate verified; tried:\n  " + "\n  ".join(tried or ["(none)"]))
