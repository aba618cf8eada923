"""Independent validation of derivation certificates.

``check_derivation`` re-examines every node of a derivation against the rule
schemas by direct reconstruction: given the premises, it recomputes what the
conclusion must look like and compares.  It deliberately shares no code with
the proof search — a derivation accepted here is evidence on its own.  A node
shared by several parents, as memoised search returns them, is checked once.

Rule labels:

    Ax        q -> q                       (atomic axiom)
    1-Ax      -> 1
    \\->      Γ, Π, A\\B, Δ -> C   from  Π -> A  and  Γ, B, Δ -> C
    ->\\      Π -> A\\B           from  A, Π -> B
    /->       Γ, B/A, Π, Δ -> C   from  Π -> A  and  Γ, B, Δ -> C
    ->/       Π -> B/A            from  Π, A -> B
    .->       Γ, A.B, Δ -> C      from  Γ, A, B, Δ -> C
    ->.       Γ, Δ -> A.B         from  Γ -> A  and  Δ -> B
    1->       Γ, 1, Δ -> C        from  Γ, Δ -> C
    |->       Γ, A|B, Δ -> C      from  Γ, A, Δ -> C  and  Γ, B, Δ -> C
    ->|1      Π -> A|B            from  Π -> A
    ->|2      Π -> A|B            from  Π -> B
    &->1      Γ, A&B, Δ -> C      from  Γ, A, Δ -> C
    &->2      Γ, A&B, Δ -> C      from  Γ, B, Δ -> C
    ->&       Π -> A&B            from  Π -> A  and  Π -> B
    ->*_k     Π₁,..,Πₖ -> A^*     from  Πᵢ -> A  (k ≥ 0 blocks)
"""

from __future__ import annotations

from .formula import (
    ATOM, UNDER, OVER, PROD, STAR, OR, AND,
    CertificateError, Derivation, Over, Prod, Under, Unit, render_sequent,
)

__all__ = ["check_derivation"]


def check_derivation(d: Derivation, restricted: bool = False) -> bool:
    """True iff every node of ``d`` is a correct rule application.

    With ``restricted`` set, additionally requires every sequent in the tree
    to have a non-empty antecedent and rejects the unit axiom.
    """
    try:
        _check(d, restricted, set())
        return True
    except CertificateError:
        return False


def assert_valid_derivation(*ds: Derivation,
                            restricted: bool = False) -> None:
    """Like :func:`check_derivation` but raises with a useful message, and
    checks every derivation given, each shared node once."""
    seen: set = set()
    for d in ds:
        _check(d, restricted, seen)


def _fail(d: Derivation, why: str) -> None:
    raise CertificateError(
        f"bad [{d.rule}] node at {render_sequent(d.conclusion)}: {why}")


def _check(d: Derivation, restricted: bool, seen: set) -> None:
    # ids are stable here: every node is reachable from a root throughout
    if id(d) in seen:
        return
    seen.add(id(d))
    if restricted and not d.conclusion.antecedent:
        _fail(d, "empty antecedent under Lambek's restriction")
    rule = d.rule
    checker = _CHECKERS.get(rule)
    if checker is None:
        if rule.startswith("->*_"):
            _check_star(d)
        else:
            _fail(d, "unknown rule label")
    else:
        checker(d)
    for p in d.premises:
        _check(p, restricted, seen)


def _ant(d: Derivation) -> tuple:
    return d.conclusion.antecedent

def _succ(d: Derivation):
    return d.conclusion.succedent


def _need_premises(d: Derivation, n: int) -> None:
    if len(d.premises) != n:
        _fail(d, f"expected {n} premises, got {len(d.premises)}")


def _check_ax(d: Derivation) -> None:
    _need_premises(d, 0)
    ant, succ = _ant(d), _succ(d)
    if succ.kind != ATOM:
        _fail(d, "axiom succedent must be an atom")
    if len(ant) != 1 or ant[0] is not succ:
        _fail(d, "axiom antecedent must be exactly the succedent atom")


def _check_unit_ax(d: Derivation) -> None:
    _need_premises(d, 0)
    if _ant(d) or _succ(d) is not Unit():
        _fail(d, "unit axiom is exactly '-> 1'")


def _check_under_left(d: Derivation) -> None:
    _need_premises(d, 2)
    p1, p2 = d.premises
    pi, a = p1.conclusion.antecedent, p1.conclusion.succedent
    if p2.conclusion.succedent is not _succ(d):
        _fail(d, "context premise changes the succedent")
    body = p2.conclusion.antecedent
    ant = _ant(d)
    for j in range(len(body)):
        f = Under(a, body[j])
        if body[:j] + pi + (f,) + body[j + 1:] == ant:
            return
    _fail(d, "conclusion is not the rule's recombination of the premises")


def _check_over_left(d: Derivation) -> None:
    _need_premises(d, 2)
    p1, p2 = d.premises
    pi, a = p1.conclusion.antecedent, p1.conclusion.succedent
    if p2.conclusion.succedent is not _succ(d):
        _fail(d, "context premise changes the succedent")
    body = p2.conclusion.antecedent
    ant = _ant(d)
    for j in range(len(body)):
        f = Over(body[j], a)
        if body[:j] + (f,) + pi + body[j + 1:] == ant:
            return
    _fail(d, "conclusion is not the rule's recombination of the premises")


def _check_under_right(d: Derivation) -> None:
    _need_premises(d, 1)
    succ = _succ(d)
    if succ.kind != UNDER:
        _fail(d, "succedent is not a \\-formula")
    p = d.premises[0].conclusion
    if p.antecedent != (succ.left,) + _ant(d) or p.succedent is not succ.right:
        _fail(d, "premise must prepend the denominator")


def _check_over_right(d: Derivation) -> None:
    _need_premises(d, 1)
    succ = _succ(d)
    if succ.kind != OVER:
        _fail(d, "succedent is not a /-formula")
    p = d.premises[0].conclusion
    if p.antecedent != _ant(d) + (succ.right,) or p.succedent is not succ.left:
        _fail(d, "premise must append the denominator")


def _check_prod_left(d: Derivation) -> None:
    _need_premises(d, 1)
    p = d.premises[0].conclusion
    if p.succedent is not _succ(d):
        _fail(d, "premise changes the succedent")
    ant, body = _ant(d), p.antecedent
    for j in range(len(body) - 1):
        if body[:j] + (Prod(body[j], body[j + 1]),) + body[j + 2:] == ant:
            return
    _fail(d, "conclusion does not fuse two adjacent premise formulas")


def _check_prod_right(d: Derivation) -> None:
    _need_premises(d, 2)
    p1, p2 = d.premises
    succ = _succ(d)
    if succ.kind != PROD:
        _fail(d, "succedent is not a product")
    if p1.conclusion.succedent is not succ.left \
            or p2.conclusion.succedent is not succ.right:
        _fail(d, "premises do not prove the factors")
    if p1.conclusion.antecedent + p2.conclusion.antecedent != _ant(d):
        _fail(d, "premise antecedents do not concatenate to the conclusion")


def _check_unit_left(d: Derivation) -> None:
    _need_premises(d, 1)
    p = d.premises[0].conclusion
    if p.succedent is not _succ(d):
        _fail(d, "premise changes the succedent")
    ant, body = _ant(d), p.antecedent
    for j in range(len(ant)):
        if ant[j] is Unit() and ant[:j] + ant[j + 1:] == body:
            return
    _fail(d, "conclusion does not insert a unit into the premise")


def _check_or_left(d: Derivation) -> None:
    _need_premises(d, 2)
    p1, p2 = d.premises
    succ = _succ(d)
    if p1.conclusion.succedent is not succ or \
            p2.conclusion.succedent is not succ:
        _fail(d, "premises change the succedent")
    a1, a2, ant = p1.conclusion.antecedent, p2.conclusion.antecedent, _ant(d)
    if len(a1) != len(a2) or len(a1) != len(ant):
        _fail(d, "antecedent lengths disagree")
    for j in range(len(ant)):
        if ant[j].kind == OR and ant[j].left is a1[j] \
                and ant[j].right is a2[j] \
                and a1[:j] == ant[:j] == a2[:j] \
                and a1[j + 1:] == ant[j + 1:] == a2[j + 1:]:
            return
    _fail(d, "premises are not the two branches of one |-formula")


def _check_or_right(which: int):
    def check(d: Derivation) -> None:
        _need_premises(d, 1)
        succ = _succ(d)
        if succ.kind != OR:
            _fail(d, "succedent is not an |-formula")
        p = d.premises[0].conclusion
        side = succ.left if which == 1 else succ.right
        if p.antecedent != _ant(d) or p.succedent is not side:
            _fail(d, "premise does not prove the chosen side")
    return check


def _check_and_left(which: int):
    def check(d: Derivation) -> None:
        _need_premises(d, 1)
        p = d.premises[0].conclusion
        if p.succedent is not _succ(d):
            _fail(d, "premise changes the succedent")
        ant, body = _ant(d), p.antecedent
        if len(ant) != len(body):
            _fail(d, "antecedent lengths disagree")
        for j in range(len(ant)):
            f = ant[j]
            if f.kind == AND and ant[:j] == body[:j] \
                    and ant[j + 1:] == body[j + 1:]:
                side = f.left if which == 1 else f.right
                if body[j] is side:
                    return
        _fail(d, "premise does not keep the chosen conjunct")
    return check


def _check_and_right(d: Derivation) -> None:
    _need_premises(d, 2)
    succ = _succ(d)
    if succ.kind != AND:
        _fail(d, "succedent is not an &-formula")
    p1, p2 = d.premises
    if p1.conclusion.antecedent != _ant(d) \
            or p2.conclusion.antecedent != _ant(d):
        _fail(d, "premises change the antecedent")
    if p1.conclusion.succedent is not succ.left \
            or p2.conclusion.succedent is not succ.right:
        _fail(d, "premises do not prove both conjuncts")


def _check_star(d: Derivation) -> None:
    succ = _succ(d)
    if succ.kind != STAR:
        _fail(d, "succedent is not a ^*-formula")
    try:
        k = int(d.rule[4:])
    except ValueError:
        _fail(d, "malformed ->*_k label")
    _need_premises(d, k)
    acc: tuple = ()
    for p in d.premises:
        if p.conclusion.succedent is not succ.left:
            _fail(d, "block premise does not prove the starred formula")
        acc += p.conclusion.antecedent
    if acc != _ant(d):
        _fail(d, "block antecedents do not concatenate to the conclusion")


_CHECKERS = {
    "Ax": _check_ax,
    "1-Ax": _check_unit_ax,
    "\\->": _check_under_left,
    "->\\": _check_under_right,
    "/->": _check_over_left,
    "->/": _check_over_right,
    ".->": _check_prod_left,
    "->.": _check_prod_right,
    "1->": _check_unit_left,
    "|->": _check_or_left,
    "->|1": _check_or_right(1),
    "->|2": _check_or_right(2),
    "&->1": _check_and_left(1),
    "&->2": _check_and_left(2),
    "->&": _check_and_right,
}
