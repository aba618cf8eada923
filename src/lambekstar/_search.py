"""Search kernel for division-pure sequents (atoms, \\ and / only).

This is the hot loop of the package.  It is deliberately plain Python —
setup.py compiles this exact file with Cython when possible, and the
compiled module shadows it at import time with identical behaviour.

Strategy, backward from the goal:

  1. invert the succedent to an atom (both right rules are invertible);
  2. refute immediately when the free-group image of the antecedent differs
     from the goal atom (derivable sequents have equal images);
  3. otherwise some antecedent formula whose head atom equals the goal is
     peeled connective by connective, each denominator consuming a
     contiguous segment adjacent to the formula, until its head atom
     remains and must stand alone as the axiom.

Left rules only ever need to be applied to the formula that will become the
axiom partner — applications to other formulas can be permuted into the
side premises — so restricting to head-matching candidates and contiguous
peels is complete for this fragment.  Every recursion strictly shrinks the
node count, so the search never meets a state it is still expanding and
terminates.  A state is memoised only once it is decided, as its finished
derivation or False; repeated queries share subtrees, and a search cut
short leaves nothing behind but finished results.
"""

from .formula import (
    ATOM, UNDER, OVER,
    BudgetError, Derivation, Sequent, _image,
)


def search(ant, succ, memo, budget, restricted):
    """Derivation of ``ant -> succ`` or None.

    ``ant`` is a tuple of division-pure formulas, ``succ`` a division-pure
    formula.  ``memo`` maps search states to Derivation/False.  ``budget``
    is a one-element list of remaining expansion steps, shared across the
    whole call tree.  ``restricted`` refuses empty antecedents everywhere
    (Lambek's restriction).
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
        result = _solve_atomic(ant, succ, memo, budget, restricted)
        memo[key] = result if result is not None else False
        if result is None:
            return None

    for rule, a, s in reversed(trail):
        result = Derivation(rule, Sequent(a, s), (result,))
    return result


def _solve_atomic(ant, succ, memo, budget, restricted):
    n = len(ant)
    if n == 1 and ant[0] is succ:
        return Derivation("Ax", Sequent(ant, succ))
    if n == 0:
        return None
    if _image(ant) != succ.fgw:
        return None
    goal = succ.name
    for i in range(n):
        f = ant[i]
        if f.kind != ATOM and f.top == goal:
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

    if k == UNDER:
        x = f.left
        xw = x.fgw
        m = len(lctx)
        for j in range(m, -1, -1):         # segment lctx[j:], smallest first
            pi = lctx[j:]
            if restricted and not pi:
                continue
            if _image(pi) != xw:
                continue
            p1 = search(pi, x, memo, budget, restricted)
            if p1 is None:
                continue
            rest = _peel(lctx[:j], f.right, rctx, succ, memo, budget,
                         restricted)
            if rest is None:
                continue
            if conclusion is None:
                conclusion = Sequent(lctx + (f,) + rctx, succ)
            result = Derivation("\\->", conclusion, (p1, rest))
            break
    else:                                  # OVER
        y = f.right
        yw = y.fgw
        m = len(rctx)
        for j in range(m + 1):             # segment rctx[:j], smallest first
            pi = rctx[:j]
            if restricted and not pi:
                continue
            if _image(pi) != yw:
                continue
            p1 = search(pi, y, memo, budget, restricted)
            if p1 is None:
                continue
            rest = _peel(lctx, f.left, rctx[j:], succ, memo, budget,
                         restricted)
            if rest is None:
                continue
            if conclusion is None:
                conclusion = Sequent(lctx + (f,) + rctx, succ)
            result = Derivation("/->", conclusion, (p1, rest))
            break

    memo[key] = result if result is not None else False
    return result
