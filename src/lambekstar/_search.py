"""Search kernel: focused backward search for every sequent ``prove`` takes.

This is the hot loop of the package, in plain Python.  Its vocabulary is
``prove``'s after entry: atoms, ``\\``, ``/``, ``.``, ``1``, ``|``, ``&``
and positive ``^*``.

Strategy, backward from the goal:

  0. close an identity goal ``A -> A`` on division-pure ``A`` by its
     identity expansion (:func:`derive_identity`), before any inversion:
     every ``A -> A`` is derivable, so the goal needs no search.  The
     expansion stores every sub-identity ``B -> B`` in the memo under
     ``((B,), B)``, so each one is built once per memo and shared, and a
     miss costs one step, like one decided state;
  1. invert the succedent through ``\\`` and ``/``, neither memoising
     nor charging the states in between; the state left is memoised,
     charged one step and solved by the steps below, in order;
  2. apply the other invertible rules: ``->&``, else the leftmost ``.->``,
     ``1->`` or ``|->``, each premise a state of its own;
  3. refute immediately when, under one of the 64 fixed valuations of
     ``Formula.rv`` (which ``prove`` fills for every subformula before
     the search starts) in the binary relations on a two-point set, the
     composition of the antecedent's relations is not contained in the
     goal's.  Relations on a set form a residuated monoid (composition as
     product, the identity as unit, the two residuals as divisions, union
     and intersection as ``|`` and ``&``, reflexive-transitive closure as
     ``^*``), so a derivable sequent holds under every valuation.
     (L is complete for relational models over all sets, Andréka and
     Mikulás 1994; 64 valuations on two points are a sound sample of
     them, not a decision procedure.  The compiler's atoms take 64
     valuations chosen to refute many states, ``formula._CHOSEN_TV``,
     generated by ``tools/choose_valuations.py``; every other atom takes
     a fixed pseudo-random draw.)  The test refutes sequents whose
     free-group images agree and which hold classically, such as
     ``p\\p, p -> p``.  Equal images are necessary too, but not tested:
     on compiled lexicons the image test cuts nothing this one does not.
     The invertible rules keep the test's outcome (Γ ⊆ A\\B exactly when
     A;Γ ⊆ B), so their premises skip it once it is known, and so does
     every sub-search, which starts on a segment known to pass it;
  4. ``1-Ax``, then the right rules that choose: ``->*_k`` (one forward
     block split, :func:`_star_split`), ``->.`` (cuts leftmost first),
     ``->|1`` before ``->|2``;
  5. otherwise focus on an antecedent formula: ``&->1`` before ``&->2``,
     or peel a ``\\`` or ``/`` formula whose head is the goal atom (or
     not an atom) connective by connective, each denominator consuming
     a contiguous segment adjacent to the formula, until its head atom
     remains and must stand alone as the axiom ``Ax``.  Segments are tried
     smallest first, and each one's value is folded from the previous
     one's with one composition, on the side the segment grows.  A
     segment is sliced and searched only when its value is contained in
     the denominator's and the sequent left once the denominator is
     peeled passes the relational test too.  The context beside a
     segment is a prefix or a suffix of the state's antecedent all along
     the peel chain, so its value comes from the state's lists of prefix
     and suffix values, each entry composed once, when a test first
     reads it.  A top-level query's own test reads the whole
     antecedent's value from the prefix list; a sub-search, tested
     already, makes its lists only once it has a candidate to peel.
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
     change, only the states expanded.  A head that is not an atom ends
     the peel instead: the sequent left, context on both sides included,
     is searched as a state of its own, and the spine-count bounds, which
     hold for an atom head that takes no context, are skipped.

Left rules only ever need to be applied to the formula that will become the
axiom partner — applications to other formulas can be permuted into the
side premises — so restricting to head-matching candidates and contiguous
peels is complete for the division fragment; the rules that are not
invertible are tried in full outside it (focusing, Andreoli 1992).  Every
recursion strictly shrinks the node count, so the search never meets a
state it is still expanding and terminates.  A state is memoised only
once it is decided, as its finished derivation or False; repeated queries
share subtrees, and a search cut short leaves nothing behind but finished
results.  The memo keys are ``(ant, succ)`` and ``(lctx, f, rctx,
succ)``, so a key names one sequent or one peel; an identity ``B -> B``,
whether searched for or built as a sub-identity of an expansion, is
stored under ``((B,), B)``, the key a search of it would use.
"""

from .formula import (
    ATOM, UNIT, UNDER, OVER, PROD, STAR, OR, AND,
    BudgetError, Derivation, FragmentError, Sequent, _ID, _brief, _comp,
)

_DIVISION = 1 << ATOM | 1 << UNDER | 1 << OVER


def search(ant, succ, memo, budget, restricted, tested=False):
    """Derivation of ``ant -> succ`` or None.

    ``ant`` is a tuple of formulas, ``succ`` a formula, both as ``prove``
    prepares them.  ``memo`` maps search states to Derivation/False.
    ``budget`` is a one-element list of remaining expansion steps, shared
    across the whole call tree.  ``restricted`` refuses empty antecedents
    everywhere (Lambek's restriction).  An identity goal ``(A,) -> A`` on
    division-pure ``A`` returns the identity expansion of ``A``, from the
    memo or built into it for one step.  ``tested`` says that ``ant ->
    succ`` is already known to pass the relational test, as every segment
    ``_peel`` hands down does; a top-level query leaves it False so that
    the test runs.
    """
    if restricted and not ant:
        return None
    if len(ant) == 1 and ant[0] is succ and not succ.kinds & ~_DIVISION:
        hit = memo.get((ant, succ), None)
        if hit is None:
            b = budget[0] - 1
            if b < 0:
                raise BudgetError("proof-search budget exhausted")
            budget[0] = b
            hit = derive_identity(succ, memo)
        return hit

    # invert the succedent through \ and /, keeping the trail so the
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
        result = _solve(ant, succ, memo, budget, restricted, tested)
        memo[key] = result if result is not None else False
        if result is None:
            return None

    for rule, a, s in reversed(trail):
        result = Derivation(rule, Sequent(a, s), (result,))
    return result


def derive_identity(f, memo=None):
    """Cut-free certificate for ``f -> f`` on division-pure ``f``.

    Built bottom-up from an explicit stack, one derivation per distinct
    subformula, so depth is bounded by memory alone.  Each sub-identity
    ``g -> g`` is read from and stored in ``memo`` (a fresh dict when it
    is None) under ``((g,), g)``, the key :func:`search` gives that
    sequent.  A subformula that is not an atom, ``\\`` or ``/`` fails;
    the first one met, in the order the premises are written, is named."""
    if memo is None:
        memo = {}
    todo = [(f, False)]
    while todo:
        g, ready = todo.pop()
        key = ((g,), g)
        if ready:           # both premises are built
            a = memo[(g.left,), g.left]
            b = memo[(g.right,), g.right]
            if g.kind == UNDER:
                inner = Derivation("\\->", Sequent((g.left, g), g.right),
                                   (a, b))
                memo[key] = Derivation("->\\", Sequent(key[0], g), (inner,))
            else:
                inner = Derivation("/->", Sequent((g, g.right), g.left),
                                   (b, a))
                memo[key] = Derivation("->/", Sequent(key[0], g), (inner,))
        elif key in memo:
            continue
        elif g.kind == ATOM:
            memo[key] = Derivation("Ax", Sequent(key[0], g), ())
        elif g.kind == UNDER:
            # pushed in reverse: the first premise is built first
            todo += ((g, True), (g.right, False), (g.left, False))
        elif g.kind == OVER:
            todo += ((g, True), (g.left, False), (g.right, False))
        else:
            raise FragmentError(
                f"identity expansion needs a division-pure formula, got "
                f"{_brief(g)}")
    return memo[(f,), f]


def _solve(ant, succ, memo, budget, restricted, tested):
    # the conclusion Sequent(ant, succ) is built only where a derivation
    # is returned: most states fail, and no result holds theirs
    sk = succ.kind

    # the other invertible rules; they keep the relational test, so each
    # premise takes ``tested`` as it is
    if sk == AND:
        p1 = search(ant, succ.left, memo, budget, restricted, tested)
        if p1 is None:
            return None
        p2 = search(ant, succ.right, memo, budget, restricted, tested)
        return None if p2 is None \
            else Derivation("->&", Sequent(ant, succ), (p1, p2))
    for f in ant:
        # .->, 1-> and |-> formulas have no head atom, so the scan for
        # the leftmost one reads only top on a division-pure antecedent
        if f.top is not None:
            continue
        k = f.kind
        if k != PROD and k != UNIT and k != OR:
            continue
        i = ant.index(f)
        rest = ant[i + 1:]
        if k == PROD:
            p = search(ant[:i] + (f.left, f.right) + rest, succ, memo,
                       budget, restricted, tested)
            return None if p is None \
                else Derivation(".->", Sequent(ant, succ), (p,))
        if k == UNIT:
            p = search(ant[:i] + rest, succ, memo, budget, restricted,
                       tested)
            return None if p is None \
                else Derivation("1->", Sequent(ant, succ), (p,))
        p1 = search(ant[:i] + (f.left,) + rest, succ, memo, budget,
                    restricted, tested)
        if p1 is None:
            return None
        p2 = search(ant[:i] + (f.right,) + rest, succ, memo, budget,
                    restricted, tested)
        return None if p2 is None \
            else Derivation("|->", Sequent(ant, succ), (p1, p2))

    # pre[k] is the value of ant[:k], suf[k] that of the last k formulas;
    # both grow only as far as a test needs them, and every context of
    # the peel chains below is a prefix or a suffix of ant
    n = len(ant)
    pre = suf = None
    if not tested:
        pre = [_ID]
        suf = [_ID]
        if _prefix(pre, ant, n) & ~succ.rv:
            return None

    # 1-Ax, then the right rules that choose; Ax is the peel of an atom
    if sk == UNIT:
        if not ant:
            return Derivation("1-Ax", Sequent(ant, succ))
    elif sk == STAR:
        body = succ.left
        d = _star_split(ant, succ, lambda seg: search(
            seg, body, memo, budget, restricted))
        if d is not None:
            return d
    elif sk == PROD:
        for i in range(n + 1):
            p1 = search(ant[:i], succ.left, memo, budget, restricted)
            if p1 is None:
                continue
            p2 = search(ant[i:], succ.right, memo, budget, restricted)
            if p2 is not None:
                return Derivation("->.", Sequent(ant, succ), (p1, p2))
    elif sk == OR:
        p = search(ant, succ.left, memo, budget, restricted)
        if p is not None:
            return Derivation("->|1", Sequent(ant, succ), (p,))
        p = search(ant, succ.right, memo, budget, restricted)
        if p is not None:
            return Derivation("->|2", Sequent(ant, succ), (p,))

    # the left focus: &->k, or a peel of a \ or / formula whose head is
    # the goal atom or no atom at all (top is None); the invertible rules
    # are done, so nothing else stands in the antecedent
    goal = succ.top                    # an atom's top is its name
    last = n - 1
    for i in range(n):
        f = ant[i]
        top = f.top
        if top is not None:
            # the \ denominators must consume all i formulas to the left,
            # the / denominators all last - i to the right; an atom has
            # neither, so it passes only standing alone, as the axiom
            if top != goal or (i and not f.nl) or (i < last and not f.nr):
                continue
        elif f.kind == AND:
            rest = ant[i + 1:]
            p = search(ant[:i] + (f.left,) + rest, succ, memo, budget,
                       restricted)
            if p is not None:
                return Derivation("&->1", Sequent(ant, succ), (p,))
            p = search(ant[:i] + (f.right,) + rest, succ, memo, budget,
                       restricted)
            if p is not None:
                return Derivation("&->2", Sequent(ant, succ), (p,))
            continue
        if restricted and (i < f.nl or last - i < f.nr):
            continue
        if pre is None:
            pre = [_ID]
            suf = [_ID]
        d = _peel(ant[:i], f, ant[i + 1:], succ, memo, budget, restricted,
                  pre, suf)
        if d is not None:
            return d
    return None


def _star_split(seq, star, block):
    """``->*_k`` derivation of ``seq -> star`` whose premises are
    ``block`` of each block, for the shortest first block whose rest
    splits, and so on; None when no split exists.  A search from the
    front tries ``seq[i:j]`` for ``j`` ascending, skipping the ends in
    ``dead``, from which the rest does not split; when no ``j`` is left it
    marks ``i`` dead and backs up one block.  So ``block`` sees each
    segment at most once, and the loop needs no recursion.  The star
    certificates of :mod:`lambekstar.stars` split with it too."""
    n = len(seq)
    dead = set()
    starts = []
    parts = []
    i, j = 0, 1
    while i < n:
        if j > n:
            if not starts:
                return None
            dead.add(i)
            parts.pop()
            i, j = starts.pop(), i + 1
            continue
        if j not in dead:
            d = block(seq[i:j])
            if d is not None:
                starts.append(i)
                parts.append(d)
                i = j
        j += 1
    return Derivation(f"->*_{len(parts)}", Sequent(seq, star), tuple(parts))


def _prefix(pre, lctx, j):
    """Value of ``lctx[:j]``, from ``pre`` grown as far as ``j``; ``lctx``
    is a prefix of the sequence whose prefix values ``pre`` holds."""
    if j < len(pre):
        return pre[j]
    acc = pre[-1]
    for k in range(len(pre), j + 1):
        acc = _comp(acc, lctx[k - 1].rv)
        pre.append(acc)
    return acc


def _suffix(suf, rctx, k):
    """Value of the last ``k`` formulas of ``rctx``, from ``suf`` grown as
    far as ``k``; ``rctx`` is a suffix of the sequence whose suffix values
    ``suf`` holds."""
    if k < len(suf):
        return suf[k]
    acc = suf[-1]
    m = len(rctx)
    for i in range(len(suf), k + 1):
        acc = _comp(rctx[m - i].rv, acc)
        suf.append(acc)
    return acc


def _peel(lctx, f, rctx, succ, memo, budget, restricted, pre, suf):
    """Derivation of ``lctx, f, rctx -> succ`` in which ``f`` is peeled all
    the way down to its head, or None.  ``pre`` and ``suf`` are the
    prefix and suffix values of the state's antecedent, of which ``lctx``
    is a prefix and ``rctx`` a suffix.  Each denominator's segment goes
    to :func:`search`, and so, at a head that is not an atom, does the
    sequent the peel leaves."""
    k = f.kind
    if k == ATOM:
        if f is succ and not lctx and not rctx:
            return Derivation("Ax", Sequent((f,), succ))
        return None
    if k != UNDER and k != OVER:
        return search(lctx + (f,) + rctx, succ, memo, budget, restricted,
                      True)

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
        alone = not nl and g.top is not None   # so lctx[:j] must be empty
        xf = ~x.rv                         # valuations refuting x
        sf = ~succ.rv                      # valuations refuting succ
        gr = _comp(g.rv, _suffix(suf, rctx, len(rctx)))   # [g];[rctx]
        m = len(lctx)
        tv = _ID                           # value of the segment lctx[j:]
        for j in range(m, nl - 1 if restricted else -1, -1):  # smallest first
            if j < m:
                tv = _comp(lctx[j].rv, tv)
            elif restricted:
                continue
            if (j and alone) or tv & xf:
                continue
            # lctx[:j], g, rctx -> succ
            if _comp(_prefix(pre, lctx, j), gr) & sf:
                continue
            p1 = search(lctx[j:], x, memo, budget, restricted, True)
            if p1 is None:
                continue
            rest = _peel(lctx[:j], g, rctx, succ, memo, budget, restricted,
                         pre, suf)
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
        alone = not nr and g.top is not None   # so rctx[j:] must be empty
        yf = ~y.rv                         # valuations refuting y
        sf = ~succ.rv                      # valuations refuting succ
        lg = _comp(_prefix(pre, lctx, len(lctx)), g.rv)   # [lctx];[g]
        m = len(rctx)
        tv = _ID                           # value of the segment rctx[:j]
        for j in range(m + 1 - nr if restricted else m + 1):  # smallest first
            if j:
                tv = _comp(tv, rctx[j - 1].rv)
            elif restricted:
                continue
            if (j < m and alone) or tv & yf:
                continue
            # lctx, g, rctx[j:] -> succ
            if _comp(lg, _suffix(suf, rctx, m - j)) & sf:
                continue
            p1 = search(rctx[:j], y, memo, budget, restricted, True)
            if p1 is None:
                continue
            rest = _peel(lctx, g, rctx[j:], succ, memo, budget, restricted,
                         pre, suf)
            if rest is None:
                continue
            if conclusion is None:
                conclusion = Sequent(lctx + (f,) + rctx, succ)
            result = Derivation("/->", conclusion, (p1, rest))
            break

    memo[key] = result if result is not None else False
    return result
