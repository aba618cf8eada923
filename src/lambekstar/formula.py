"""Formula terms for a Lambek calculus with iteration.

Formulas are hash-consed: the factory functions (``Atom``, ``Under``, ...)
return one shared object per distinct term, so structural equality coincides
with object identity and formulas can be used directly as dict keys.  Every
term caches its node count (``size``), the connectives it uses (``kinds``),
its head atom (``top``), the number of ``\\`` and ``/`` denominators on
its spine down to that atom (``nl``, ``nr``), its free-group image
(``fgw``) and its values under 64 fixed valuations in the binary relations
on a two-point set (``tv``) at construction time; ``top``, ``fgw`` and
``tv`` are ``None`` outside the fragments where they make sense.  Both
provers refute through ``tv`` alone; the images serve the public API
(:func:`fg_interp`, :func:`sequence_image`, :func:`zero_balanced`), the
join precondition and the certificate audit.

Concrete syntax, loosest to tightest::

    div   ::= ov ('\\' div)?          right-assoc
    ov    ::= orl ('/' orl)*          left-assoc
    orl   ::= andl ('|' orl)?
    andl  ::= prodl ('&' andl)?
    prodl ::= post ('.' post)*
    post  ::= prim ('^*' | '^+')*
    prim  ::= atom | '1' | '(' div ')'

so ``a\\q/b`` is ``a\\(q/b)`` and ``x2\\x1\\q/y2/y1`` is the curried division
with left denominators x1 (innermost), x2 and right denominators y1
(outermost), y2 — see :func:`curried_division`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "ATOM", "UNIT", "UNDER", "OVER", "PROD", "STAR", "PLUS", "OR", "AND",
    "LambekError", "ParseError", "FragmentError", "BudgetError",
    "CertificateError",
    "Formula", "Atom", "Unit", "Under", "Over", "Prod", "Star", "Plus",
    "Or", "And",
    "GroupWord", "fg_interp", "sequence_image", "zero_balanced",
    "Sequent", "Derivation",
    "parse_formula", "render_formula", "parse_sequent", "render_sequent",
    "render_derivation",
    "curried_division", "split_curried", "top_of", "type_raise", "sentinel",
    "atoms_of", "division_pure", "VarSupply",
]

ATOM, UNIT, UNDER, OVER, PROD, STAR, PLUS, OR, AND = range(9)

_KIND_NAMES = ("atom", "1", "\\", "/", ".", "^*", "^+", "|", "&")


class LambekError(Exception):
    """Base class for errors raised by this package."""


class ParseError(LambekError):
    pass


class FragmentError(LambekError):
    """An operation was applied outside the fragment it is defined for."""


class BudgetError(LambekError):
    """A search exceeded its expansion-step budget."""


class CertificateError(LambekError):
    """A derivation or join certificate failed validation."""


# --------------------------------------------------------------------------
# free group words, represented as reduced tuples of (letter, +1 | -1)

def _gmul(a: tuple, b: tuple) -> tuple:
    """Concatenate two reduced group words, cancelling at the seam."""
    i = len(a)
    j = 0
    n = len(b)
    while i > 0 and j < n:
        x = a[i - 1]
        y = b[j]
        if x[0] == y[0] and x[1] == -y[1]:
            i -= 1
            j += 1
        else:
            break
    return a[:i] + b[j:]


def _ginv(a: tuple) -> tuple:
    return tuple((name, -sign) for name, sign in reversed(a))


# --------------------------------------------------------------------------
# relational values: a formula's values under 64 fixed valuations in the
# binary relations on the two-point set {0, 1}.  Relations under
# composition, with the identity as unit and the two residuals as
# divisions, form a residuated monoid, so a sequent derivable in L* (and
# so in L) holds under every valuation: Γ -> C needs
# _truth(Γ) & ~C.tv == 0.  A value packs four 64-bit lanes into one int,
# one lane per entry (0,0), (0,1), (1,0), (1,1), lowest first; bit k of
# each lane belongs to valuation k.  The relations on one point are the
# two Boolean truth values, so a Boolean truth table is the one-point
# case; two points let a valuation see order.

_ALL = (1 << 64) - 1                   # one lane, and entry (0,0)
_L01 = _ALL << 64
_L10 = _ALL << 128
_L11 = _ALL << 192
_ID = _ALL | _L11                      # the identity relation
_FULL = (1 << 256) - 1
_COL0 = _ALL | _L10                    # entries (i,0)
_COL1 = _L01 | _L11                    # entries (i,1)
_ROW0 = _ALL | _L01                    # entries (0,j)
_ROW1 = _L10 | _L11                    # entries (1,j)


def _comp(r: int, s: int) -> int:
    """Composition r;s of two packed values, all 64 valuations at once:
    (i,j) is in r;s when (i,0) is in r and (0,j) in s, or (i,1) is in r
    and (1,j) in s.  Each term copies a column of r across its row and a
    row of s down its column.  Folds start from the ``_ID`` object
    itself, so an identity test skips the work for the first member."""
    if r is _ID:
        return s
    if s is _ID:
        return r
    a = r & _COL0
    b = s & _ROW0
    c = r & _COL1
    d = s & _ROW1
    return (a | a << 64) & (b | b << 128) | (c | c >> 64) & (d | d >> 128)


def _conv(r: int) -> int:
    """The converse relation: swap the (0,1) and (1,0) lanes."""
    return r & _ID | (r & _L01) << 64 | (r & _L10) >> 64


def _atom_tv(name: str) -> int:
    """An atom's four lanes, fixed by its name alone: FNV-1a of the name
    seeds the splitmix64 stream, whose next four outputs are the lanes
    (built-in ``hash`` of a ``str`` is salted per process)."""
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h = (h ^ byte) * 0x100000001B3 & _ALL
    tv = 0
    for lane in range(4):
        h = h + 0x9E3779B97F4A7C15 & _ALL
        z = (h ^ h >> 30) * 0xBF58476D1CE4E5B9 & _ALL
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _ALL
        tv |= (z ^ z >> 31) << 64 * lane
    return tv


def _truth(formulas) -> int:
    """Value of a formula sequence, its members' values composed in order
    (the identity when empty); every member must have one."""
    acc = _ID
    for f in formulas:
        acc = _comp(acc, f.tv)
    return acc


class GroupWord:
    """An element of the free group over atom names (reduced word)."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple = ()):
        self.letters = letters

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(_gmul(self.letters, other.letters))

    def inverse(self) -> "GroupWord":
        return GroupWord(_ginv(self.letters))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(n if s > 0 else f"{n}^-1" for n, s in self.letters)

    def __repr__(self) -> str:
        return f"GroupWord({self})"


# --------------------------------------------------------------------------
# terms

class Formula:
    """A hash-consed formula node.  Build via the factory functions."""

    __slots__ = ("kind", "name", "left", "right", "size", "kinds", "top",
                 "nl", "nr", "fgw", "tv")

    kind: int
    name: str | None          # atom name, for ATOM nodes
    left: "Formula | None"
    right: "Formula | None"
    size: int                 # node count
    kinds: int                # OR of 1 << kind over every node
    top: str | None           # head atom through \ and / numerators
    nl: int                   # \ denominators on the spine to top (else 0)
    nr: int                   # / denominators on the spine to top (else 0)
    fgw: tuple | None         # free-group image, for the API and the
                              # audits (search does not read it); None
                              # outside ·,\,/,1
    tv: int | None            # relational value: four 64-bit lanes, one per
                              # entry (0,0), (0,1), (1,0), (1,1) of a relation
                              # on {0, 1}, bit k of each under valuation k;
                              # None outside ·,\,/,1

    def __repr__(self) -> str:
        return f"<{render_formula(self)}>"

    def __str__(self) -> str:
        return render_formula(self)


_table: dict = {}

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*(?:#[0-9]+)?\Z")


def _intern(kind: int, name: str | None, left: Formula | None,
            right: Formula | None) -> Formula:
    key = (kind, name, left, right)
    f = _table.get(key)
    if f is not None:
        return f
    f = Formula.__new__(Formula)
    f.kind = kind
    f.name = name
    f.left = left
    f.right = right
    f.size = 1 + (left.size if left is not None else 0) \
               + (right.size if right is not None else 0)
    f.kinds = 1 << kind | (left.kinds if left is not None else 0) \
                        | (right.kinds if right is not None else 0)
    f.nl = f.nr = 0
    f.fgw = f.tv = None

    if kind == ATOM:
        f.top = name
        f.fgw = ((name, 1),)
        f.tv = _atom_tv(name)
    elif kind == UNIT:
        f.top = None
        f.fgw = ()
        f.tv = _ID
    elif kind == UNDER:          # left \ right
        f.top = right.top
        f.nl = right.nl + 1
        f.nr = right.nr
        if left.fgw is not None and right.fgw is not None:
            f.fgw = _gmul(_ginv(left.fgw), right.fgw)
            # left\right is the complement of left˘;¬right
            f.tv = _comp(_conv(left.tv), right.tv ^ _FULL) ^ _FULL
    elif kind == OVER:           # left / right
        f.top = left.top
        f.nl = left.nl
        f.nr = left.nr + 1
        if left.fgw is not None and right.fgw is not None:
            f.fgw = _gmul(left.fgw, _ginv(right.fgw))
            # left/right is the complement of ¬left;right˘
            f.tv = _comp(left.tv ^ _FULL, _conv(right.tv)) ^ _FULL
    elif kind == PROD:
        f.top = None
        if left.fgw is not None and right.fgw is not None:
            f.fgw = _gmul(left.fgw, right.fgw)
            f.tv = _comp(left.tv, right.tv)
    else:                        # STAR, PLUS, OR, AND: outside the fg fragment
        f.top = None

    _table[key] = f
    return f


def _rebuild(f: Formula, left: Formula | None,
             right: Formula | None) -> Formula:
    """``f`` with new children, or ``f`` itself when both are unchanged."""
    if left is f.left and right is f.right:
        return f
    return _intern(f.kind, f.name, left, right)


def Atom(name: str) -> Formula:
    if not _ATOM_RE.match(name):
        raise ValueError(f"bad atom name: {name!r}")
    return _intern(ATOM, name, None, None)


def Unit() -> Formula:
    return _intern(UNIT, None, None, None)


def Under(left: Formula, right: Formula) -> Formula:
    """left \\ right"""
    return _intern(UNDER, None, left, right)


def Over(left: Formula, right: Formula) -> Formula:
    """left / right"""
    return _intern(OVER, None, left, right)


def Prod(left: Formula, right: Formula) -> Formula:
    return _intern(PROD, None, left, right)


def Star(arg: Formula) -> Formula:
    return _intern(STAR, None, arg, None)


def Plus(arg: Formula) -> Formula:
    return _intern(PLUS, None, arg, None)


def Or(left: Formula, right: Formula) -> Formula:
    return _intern(OR, None, left, right)


def And(left: Formula, right: Formula) -> Formula:
    return _intern(AND, None, left, right)


# --------------------------------------------------------------------------
# sequents and derivations

@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __str__(self) -> str:
        return render_sequent(self)


@dataclass(frozen=True)
class Derivation:
    """One node of a sequent derivation: a rule label, its conclusion and
    the premise subderivations in the order the rule schema lists them."""

    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()


def render_derivation(d: Derivation, indent: int = 0) -> str:
    lines = [f"{'  ' * indent}[{d.rule}] {render_sequent(d.conclusion)}"]
    for p in d.premises:
        lines.append(render_derivation(p, indent + 1))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# rendering

_LEVEL = {UNDER: 0, OVER: 1, OR: 2, AND: 3, PROD: 4, STAR: 5, PLUS: 5,
          ATOM: 6, UNIT: 6}


def render_formula(f: Formula) -> str:
    return _render(f, 0)


def _render(f: Formula, lvl: int) -> str:
    k = f.kind
    if _LEVEL[k] < lvl:
        return "(" + _render(f, 0) + ")"
    if k == ATOM:
        return f.name
    if k == UNIT:
        return "1"
    if k == UNDER:
        return _render(f.left, 1) + "\\" + _render(f.right, 0)
    if k == OVER:
        return _render(f.left, 1) + "/" + _render(f.right, 2)
    if k == OR:
        return _render(f.left, 3) + "|" + _render(f.right, 2)
    if k == AND:
        return _render(f.left, 4) + "&" + _render(f.right, 3)
    if k == PROD:
        return _render(f.left, 4) + "." + _render(f.right, 5)
    if k == STAR:
        return _render(f.left, 5) + "^*"
    if k == PLUS:
        return _render(f.left, 5) + "^+"
    raise AssertionError(k)


def render_sequent(s: Sequent) -> str:
    lhs = ", ".join(render_formula(a) for a in s.antecedent)
    arrow = "-> " if not lhs else " -> "
    return lhs + arrow + render_formula(s.succedent)


# --------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(->|\^\*|\^\+|[\\/|&.(),]|1|[a-z][a-z0-9_]*(?:#[0-9]+)?)"
)


def _tokenize(text: str) -> list[str]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected input at: {rest[:20]!r}")
        toks.append(m.group(1))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise ParseError(f"expected {tok!r}, got {t!r}")

    def div(self) -> Formula:
        left = self.ov()
        if self.peek() == "\\":
            self.next()
            return Under(left, self.div())
        return left

    def ov(self) -> Formula:
        f = self.orl()
        while self.peek() == "/":
            self.next()
            f = Over(f, self.orl())
        return f

    def orl(self) -> Formula:
        left = self.andl()
        if self.peek() == "|":
            self.next()
            return Or(left, self.orl())
        return left

    def andl(self) -> Formula:
        left = self.prodl()
        if self.peek() == "&":
            self.next()
            return And(left, self.andl())
        return left

    def prodl(self) -> Formula:
        f = self.post()
        while self.peek() == ".":
            self.next()
            f = Prod(f, self.post())
        return f

    def post(self) -> Formula:
        f = self.prim()
        while self.peek() in ("^*", "^+"):
            t = self.next()
            f = Star(f) if t == "^*" else Plus(f)
        return f

    def prim(self) -> Formula:
        t = self.next()
        if t == "(":
            f = self.div()
            self.expect(")")
            return f
        if t == "1":
            return Unit()
        if _ATOM_RE.match(t):
            return Atom(t)
        raise ParseError(f"unexpected token {t!r}")


def parse_formula(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.div()
    if p.peek() is not None:
        raise ParseError(f"trailing input from {p.peek()!r}")
    return f


def parse_sequent(text: str) -> Sequent:
    toks = _tokenize(text)
    try:
        arrow = toks.index("->")
    except ValueError:
        raise ParseError("sequent needs an '->'") from None
    if "->" in toks[arrow + 1:]:
        raise ParseError("sequent has more than one '->'")
    ant: list[Formula] = []
    p = _Parser(toks[:arrow])
    if p.peek() is not None:
        ant.append(p.div())
        while p.peek() == ",":
            p.next()
            ant.append(p.div())
        if p.peek() is not None:
            raise ParseError(f"trailing input from {p.peek()!r}")
    q = _Parser(toks[arrow + 1:])
    succ = q.div()
    if q.peek() is not None:
        raise ParseError(f"trailing input from {q.peek()!r}")
    return Sequent(tuple(ant), succ)


# --------------------------------------------------------------------------
# fragment helpers

def fg_interp(f: Formula) -> GroupWord:
    """Free-group image of a formula in the ·, \\, /, 1 fragment."""
    if f.fgw is None:
        raise FragmentError(
            f"no free-group image for {render_formula(f)} "
            "(only ., \\, /, 1 and atoms have one)")
    return GroupWord(f.fgw)


def sequence_image(formulas: Iterable[Formula]) -> GroupWord:
    """Free-group image of a formula sequence: its members' images
    multiplied in order."""
    acc = ()
    for f in formulas:
        if f.fgw is None:
            raise FragmentError(
                f"no free-group image for {render_formula(f)}")
        acc = _gmul(acc, f.fgw)
    return GroupWord(acc)


def zero_balanced(f: Formula) -> bool:
    """True when the free-group image of ``f`` is the identity."""
    return fg_interp(f).is_identity


def top_of(f: Formula) -> str:
    """Head atom of a division formula: the atom reached by following
    numerators through \\ and /."""
    if f.top is None:
        raise FragmentError(f"no head atom for {render_formula(f)}")
    return f.top


def division_pure(f: Formula) -> bool:
    """True when ``f`` uses only atoms, \\ and /."""
    return not f.kinds & ~(1 << ATOM | 1 << UNDER | 1 << OVER)


def atoms_of(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == ATOM:
            out.add(g.name)
        else:
            if g.left is not None:
                stack.append(g.left)
            if g.right is not None:
                stack.append(g.right)
    return frozenset(out)


# --------------------------------------------------------------------------
# curried divisions

def curried_division(gamma: Sequence[Formula], core: Formula,
                     delta: Sequence[Formula]) -> Formula:
    """Build the division formula whose full inversion against a hole Π is
    ``gamma, Π, delta -> core`` (both lists read left to right).

    ``gamma[0]`` ends up as the innermost left denominator and ``delta[0]``
    as the outermost right denominator, matching the usual display
    (gamma) \\ core / (delta).
    """
    f = core
    for y in reversed(delta):
        f = Over(f, y)
    for x in gamma:
        f = Under(x, f)
    return f


def split_curried(f: Formula) -> tuple[tuple[Formula, ...], Formula,
                                       tuple[Formula, ...]]:
    """Inverse of :func:`curried_division` on curried normal forms
    (all \\ outside all /).  Peels greedily; the remaining core is returned
    as-is, so mixed shapes simply stop early."""
    gs: list[Formula] = []
    while f.kind == UNDER:
        gs.append(f.left)
        f = f.right
    ds: list[Formula] = []
    while f.kind == OVER:
        ds.append(f.right)
        f = f.left
    gs.reverse()
    return tuple(gs), f, tuple(ds)


def type_raise(a: Formula | str, q: Formula | str) -> Formula:
    """q / (a \\ q)."""
    fa = Atom(a) if isinstance(a, str) else a
    fq = Atom(q) if isinstance(q, str) else q
    return Over(fq, Under(fa, fq))


def sentinel(p: str, q: str, r: str) -> Formula:
    """(r/(p\\r)) / (q/(p\\q)) over three distinct atoms.

    Zero-balanced, head atom r; the only sequents made of such formulas
    alone that derive one of them are the trivial identities.
    """
    if len({p, q, r}) != 3:
        raise ValueError(f"sentinel atoms must be distinct: {p}, {q}, {r}")
    return Over(type_raise(p, r), type_raise(p, q))


# --------------------------------------------------------------------------
# fresh atom supply

class VarSupply:
    """Mints atom names that avoid a set of already-used names.

    ``fresh("d")`` returns ``d`` if free, else ``d#1``, ``d#2``, ...
    Minted names are recorded, so a supply never repeats itself.
    """

    def __init__(self, used: Iterable[str] = ()):
        self.used = set(used)

    @classmethod
    def for_formulas(cls, formulas: Iterable[Formula]) -> "VarSupply":
        used: set[str] = set()
        for f in formulas:
            used |= atoms_of(f)
        return cls(used)

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        k = 1
        while f"{base}#{k}" in self.used:
            k += 1
        name = f"{base}#{k}"
        self.used.add(name)
        return name

    def fresh_atom(self, base: str) -> Formula:
        return Atom(self.fresh(base))
