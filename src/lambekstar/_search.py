"""Search kernel for division-pure sequents (atoms, \\ and / only).

This is the hot loop of the package, in plain Python.

Strategy, backward from the goal:

  1. invert the succedent to an atom (both right rules are invertible);
  2. refute immediately when, under one of the 64 fixed valuations of
     ``Formula.tv`` in the binary relations on a two-point set, the
     composition of the antecedent's relations is not contained in the
     goal's.  Relations on a set form a residuated monoid (composition as
     product, the identity as unit, the two residuals as divisions), so a
     sequent derivable in L*, and so in L, holds under every valuation.
     (L is complete for relational models over all sets, Andréka and
     Mikulás 1994; 64 valuations on two points are a sound sample of
     them, not a decision procedure.)  The test refutes sequents whose
     free-group images agree and which hold classically, such as
     ``p\\p, p -> p``.  Equal images are necessary too, but not tested:
     on compiled lexicons the image test cuts nothing this one does not.
     The test runs once per query, because inverting the succedent keeps
     it (Γ ⊆ A\\B exactly when A;Γ ⊆ B), and every sub-search starts on a
     segment already known to pass it;
  3. otherwise some antecedent formula whose head atom equals the goal is
     peeled connective by connective, each denominator consuming a
     contiguous segment adjacent to the formula, until its head atom
     remains and must stand alone as the axiom.  Segments are tried
     smallest first, and each one's value is folded from the previous
     one's with one composition, on the side the segment grows.  A
     segment is sliced and searched only when its value is contained in
     the denominator's and the sequent left once the denominator is
     peeled passes the relational test too.
     The spine counts ``nl``/``nr`` (the \\ and / denominators still to
     be peeled) bound both choices: a candidate with no \\ denominator
     must stand first, one with no / denominator last, and the last \\
     (/) denominator takes all of the remaining left (right) context.
     Under Lambek's restriction every denominator needs a non-empty
     segment of its own, so a context shorter than its count of
     denominators is refused too.  Peeling consumes context only through
     denominators, and the axiom at the head needs both contexts empty.
     So every branch the test and these bounds cut would fail after its
     sub-searches had been paid for, and the surviving branches are tried
     in the same order as without them: verdicts and derivations do not
     change, only the states expanded.

Left rules only ever need to be applied to the formula that will become the
axiom partner — applications to other formulas can be permuted into the
side premises — so restricting to head-matching candidates and contiguous
peels is complete for this fragment.  Every recursion strictly shrinks the
node count, so the search never meets a state it is still expanding and
terminates.  A state is memoised only once it is decided, as its finished
derivation or False; repeated queries share subtrees, and a search cut
short leaves nothing behind but finished results.  The memo keys are
``(ant, succ)`` and ``(lctx, f, rctx, succ)``; the general engine keys its
states ``(succ, ant)``, so both engines can share one session's memo.
"""

from .formula import (
    ATOM, UNDER, OVER,
    BudgetError, Derivation, Sequent, _ID, _comp, _truth,
)


def search(ant, succ, memo, budget, restricted, tested=False):
    """Derivation of ``ant -> succ`` or None.

    ``ant`` is a tuple of division-pure formulas, ``succ`` a division-pure
    formula.  ``memo`` maps search states to Derivation/False.  ``budget``
    is a one-element list of remaining expansion steps, shared across the
    whole call tree.  ``restricted`` refuses empty antecedents everywhere
    (Lambek's restriction).  ``tested`` says that ``ant -> succ`` is
    already known to pass the relational test, as every segment
    ``_peel`` hands down does; a top-level query leaves it False so that
    the test runs.
    """
    if restricted and not ant:
        return None

    # invert the succedent down to an atom, keeping the trail so the
    # derivation can be rebuilt for the original sequent
    trail = []
    while True:
        k = succ.kind
        if k == UNDER:
            trail.append(("->\\", ant, succ))
            ant = (succ.left,) + ant
            succ = succ.right
        elif k == OVER:
            trail.append(("->/", ant, succ))
            ant = ant + (succ.right,)
            succ = succ.left
        else:
            break

    key = (ant, succ)
    hit = memo.get(key, None)
    if hit is not None:
        if hit is False:
            return None
        result = hit
    else:
        b = budget[0] - 1
        if b < 0:
            raise BudgetError("proof-search budget exhausted")
        budget[0] = b
        result = _solve_atomic(ant, succ, memo, budget, restricted, tested)
        memo[key] = result if result is not None else False
        if result is None:
            return None

    for rule, a, s in reversed(trail):
        result = Derivation(rule, Sequent(a, s), (result,))
    return result


def _solve_atomic(ant, succ, memo, budget, restricted, tested):
    n = len(ant)
    if n == 1 and ant[0] is succ:
        return Derivation("Ax", Sequent(ant, succ))
    if n == 0:
        return None
    if not tested and _truth(ant) & ~succ.tv:
        return None
    goal = succ.name
    last = n - 1
    for i in range(n):
        f = ant[i]
        if f.top == goal:
            nl = f.nl
            nr = f.nr
            # the \ denominators must consume all i formulas to the left,
            # the / denominators all last - i to the right; an atom has
            # neither, so it is skipped here and stands only as the axiom
            if (i and not nl) or (i < last and not nr):
                continue
            if restricted and (i < nl or last - i < nr):
                continue
            d = _peel(ant[:i], f, ant[i + 1:], succ, memo, budget, restricted)
            if d is not None:
                return d
    return None


def _peel(lctx, f, rctx, succ, memo, budget, restricted):
    """Derivation of ``lctx, f, rctx -> succ`` in which ``f`` is peeled all
    the way down to its head atom, or None."""
    k = f.kind
    if k == ATOM:
        if f is succ and not lctx and not rctx:
            return Derivation("Ax", Sequent((f,), succ))
        return None

    key = (lctx, f, rctx, succ)
    hit = memo.get(key, None)
    if hit is not None:
        return hit if hit is not False else None

    b = budget[0] - 1
    if b < 0:
        raise BudgetError("proof-search budget exhausted")
    budget[0] = b

    result = None
    conclusion = None

    # a value is a non-negative int, so G & ~C keeps just the bits of G
    # where C is 0: it is 0 exactly when G lies inside C under every
    # valuation
    if k == UNDER:
        x = f.left
        g = f.right
        nl = g.nl                          # \ denominators left for lctx[:j]
        xf = ~x.tv                         # valuations refuting x
        sf = ~succ.tv                      # valuations refuting succ
        gr = _comp(g.tv, _truth(rctx))     # [g];[rctx]
        m = len(lctx)
        tv = _ID                           # value of the segment lctx[j:]
        for j in range(m, nl - 1 if restricted else -1, -1):  # smallest first
            if j < m:
                tv = _comp(lctx[j].tv, tv)
            elif restricted:
                continue
            if (j and not nl) or tv & xf:
                continue
            if _comp(_truth(lctx[:j]), gr) & sf:   # lctx[:j], g, rctx -> succ
                continue
            p1 = search(lctx[j:], x, memo, budget, restricted, True)
            if p1 is None:
                continue
            rest = _peel(lctx[:j], g, rctx, succ, memo, budget, restricted)
            if rest is None:
                continue
            if conclusion is None:
                conclusion = Sequent(lctx + (f,) + rctx, succ)
            result = Derivation("\\->", conclusion, (p1, rest))
            break
    else:                                  # OVER
        y = f.right
        g = f.left
        nr = g.nr                          # / denominators left for rctx[j:]
        yf = ~y.tv                         # valuations refuting y
        sf = ~succ.tv                      # valuations refuting succ
        lg = _comp(_truth(lctx), g.tv)     # [lctx];[g]
        m = len(rctx)
        tv = _ID                           # value of the segment rctx[:j]
        for j in range(m + 1 - nr if restricted else m + 1):  # smallest first
            if j:
                tv = _comp(tv, rctx[j - 1].tv)
            elif restricted:
                continue
            if (j < m and not nr) or tv & yf:
                continue
            if _comp(lg, _truth(rctx[j:])) & sf:   # lctx, g, rctx[j:] -> succ
                continue
            p1 = search(rctx[:j], y, memo, budget, restricted, True)
            if p1 is None:
                continue
            rest = _peel(lctx, g, rctx[j:], succ, memo, budget, restricted)
            if rest is None:
                continue
            if conclusion is None:
                conclusion = Sequent(lctx + (f,) + rctx, succ)
            result = Derivation("/->", conclusion, (p1, rest))
            break

    memo[key] = result if result is not None else False
    return result
