"""Formula terms for a Lambek calculus with iteration.

Formulas are hash-consed: the factory functions (``Atom``, ``Under``, ...)
return one shared object per distinct term, so structural equality coincides
with object identity and formulas can be used directly as dict keys.  A
node is built with its structure only: its node count (``size``), the
connectives it uses (``kinds``), its head atom (``top``, an atom's own
name) and the number of ``\\`` and ``/`` denominators on its spine down to
that atom (``nl``, ``nr``).  Its values under 64 fixed valuations in the
binary relations on a two-point set (``tv``) are computed the first time
something needs them, by one children-first walk from an explicit stack
that stores them in every node below that lacks them; atoms and ``1``
have theirs from birth.  The compiler's atoms take 64 valuations chosen
to refute many kernel states (the generated table ``_CHOSEN_TV``); every
other atom takes a fixed pseudo-random draw keyed by its name.
``prove`` fills the values of its sequent before the search runs, and
the search's relational test reads them alone.
Free-group images are not stored: :func:`fg_interp`,
:func:`sequence_image` and :func:`zero_balanced` compute one by a single
linear walk over the atom occurrences, for the join precondition, the
compiler's zero-balance check and the certificate audit.  Every formula
has a value (``|`` and ``&`` are union and intersection, ``^*`` is
reflexive-transitive closure), while ``top`` is ``None``, and images are
refused, outside the fragments where they make sense.

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
(outermost), y2 — see :func:`curried_division`.  The text is split into
tokens by one regex scan, and the grammar is parsed by one
operator-precedence loop with explicit operand and operator stacks, so the
parser has no depth limit; the renderer keeps an explicit stack too.

:class:`Sequent`, :class:`Derivation` and every other value record of the
package are plain ``__slots__`` classes on one base, ``_Record``, with
value equality (``==`` and ``hash`` over their fields, in order) and a
dataclass-style ``repr``; they are immutable by contract: nothing assigns
to a field once the object is built.  A frozen dataclass would enforce
that at twice the cost per object, a proof search builds many of them,
and loading ``dataclasses`` alone costs more than the rest of the import.
"""

from __future__ import annotations

import re
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
    "curried_division", "split_curried", "type_raise", "sentinel",
    "atoms_of", "division_pure", "VarSupply",
]

ATOM, UNIT, UNDER, OVER, PROD, STAR, PLUS, OR, AND = range(9)


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
    """The inverse word: letters reversed, each with its sign flipped."""
    return tuple([(n, -e) for n, e in reversed(a)])


# --------------------------------------------------------------------------
# relational values: a formula's values under 64 fixed valuations in the
# binary relations on the two-point set {0, 1}.  Relations under
# composition, with the identity as unit and the two residuals as
# divisions, form a residuated monoid, and union, intersection and
# reflexive-transitive closure validate the rules of |, & and positive ^*,
# so a sequent derivable in L* (and so in L) holds under every valuation:
# Γ -> C needs _truth(Γ) & ~C.tv == 0.  A value packs four 64-bit lanes
# into one int, one lane per entry (0,0), (0,1), (1,0), (1,1), lowest
# first; bit k of each lane belongs to valuation k.  The relations on one
# point are the two Boolean truth values, so a Boolean truth table is the
# one-point case; two points let a valuation see order.  Any valuation is
# sound, so which 64 are used moves only how much the kernel prunes: the
# atoms of compiled unique-type lexicons take the 64 in _CHOSEN_TV,
# generated by tools/choose_valuations.py, and every other atom a fixed
# pseudo-random draw keyed by its name (see _atom_tv).

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


# the four lanes of every atom name of the lifted universal lexicon,
# compile_unique(to_gnf2(total_plus_to_alt2(S -> a S | b S | a | b))),
# under 64 valuations chosen from a pool of 4,096 to refute the kernel's
# failed states on that grammar; printed by tools/choose_valuations.py,
# and to be re-generated, not edited, when the compiler's atom names
# change
_CHOSEN_TV = {
    "d": 0x913e238b08a816f937486eb7c7761d0ce4f98507917a1e234f2a7f5db21350eb,
    "d#1": 0xc17bb57590a755037578574c77a151362bac75b9c2d8272a1814722b6a200ae5,
    "d#2": 0xc4a3f8dc2f0888baaa994a896c77a2925d2347cd64d447ec850f2aba0d448385,
    "d#3": 0xbd430603b1dd3a435cc31d772221a3856be3dae38f507769d887d25d3f43bb76,
    "p0": 0x46d409de5a9bed954701a2fe2660cc304121efe85b507de6161d136f9307439b,
    "p1": 0x28740070ad8dd89b5780a097f634b6f801200328331ff749001c2c9000c50406,
    "p2": 0x433c01ea979860a7aeacc09e78a69b63e90e3e2633682c5f3b6a37c199937a84,
    "p3": 0xd5404e3fa0fd5c1d18dd7d0be840258260de704d242b3269f9a13417f8f11535,
    "p4": 0x5137200c8c4420e46fd1f6902c446aee27a8813c2014c74df6a53d301fc2d674,
    "p5": 0xee120d67336c704ba27ed016f542a726387e3478ac39b434509ec8692b53797e,
    "p6": 0xe980bed0d28d0bb66a0376a375b01c2619911677d947a433979bdbf123decb04,
    "q0": 0x558d207ec6459c97d84269cc1b197990563064df00f2dfd935bd05473b635438,
    "q1": 0xcf6dc3fcf965dcf565a92aec5c56c0bdbbfafd233c0e6b02fec3ff0f2095f77a,
    "q2": 0xf8c389454d2821634d5e5e5d2ecbda6200f7f2782a0af2b1e80a8fe371ffae14,
    "q3": 0x09eff0e99b6b8209b358f1972274f53ba76ea6706e88a7ca0a5edf604c9f94b5,
    "q4": 0xde24823e5cd750e7460ce01f7ef47a6df896c1675f57bb0941aef819cdacbbae,
    "q5": 0x3496c778f25da82ad79a39894538f8a05b09fe4ea1f9d5d71e3ffd714f7d1980,
    "q6": 0xfb2f6dede30befe776901f8250c65425331d5b71a1d9f6658ffc4c2af895298e,
    "r0": 0xd4b276b32f344539758382468feb4f8b6b48a296f3ab6d5845b6f735258843a3,
    "r1": 0x60941614af3d303e1f0080f134fcdf7e238000c8465e76f98817e234a6253e42,
    "r2": 0x7c33d678e83ef1aed9d2473cfa2ddef039a0b1b257722e49595e61211a92294f,
    "r3": 0x8b9bdd9d6bef3cec525d5714a7c2237bc5c4032dec68021459d7e8477630656d,
    "r4": 0x336d3083dccee0a5305ba484441c2884b1b377ac4b9ea283869328726a0bee5e,
    "r5": 0xaac43f464f46f4c00fa2005815da181274958126161d2b959472ba563420d08a,
    "r6": 0x670d2c7ae685d1ae2631d7256e50f2aac3f7603f1dd904f3fbf3e72622fe391c,
    "s": 0x32b8e28e6edfa261a62db826b107dd6c5bbae35bfcf1bade3a752d5f944079f2,
    "t": 0x23d228498c94ec862b14024b8021ca0c9db9ae61707adae4ce5cf2ec1b143741,
    "u": 0x3b1abb78045b82296b5105f930fc58debe87ff84eebb98069e30514e966a4dec,
    "v": 0x4d3b6816c78883da7b12e73883b998273680a27c7ade86b8ceddbab05d40e611,
    "w": 0x72b8f495c33e7edfdba2f6f5c79c59fa72a75a976d9b61c64b02f63333736537,
    "x": 0xaabffecf541dadffba3ffe1facfae111d7c989ef3afbd2547dc251e0d9077fcf,
    "z": 0x5ccca5f020dc8c3241ccc532c6b6fa8368eebd1fbf2f4e5c8abca52260c0773d,
}


def _atom_tv(name: str) -> int:
    """An atom's four lanes, fixed by its name alone: its entry in
    ``_CHOSEN_TV`` for a compiler atom, else a pseudo-random draw, where
    FNV-1a of the name seeds the splitmix64 stream, whose next four
    outputs are the lanes (built-in ``hash`` of a ``str`` is salted per
    process)."""
    tv = _CHOSEN_TV.get(name)
    if tv is not None:
        return tv
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
    (the identity when empty); every member must have one, and a value
    not yet computed is filled here."""
    acc = _ID
    for f in formulas:
        v = f.rv
        if v is None:
            v = _values(f)
        acc = _comp(acc, v)
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

# the largest tree size ``repr`` renders in full, well above the largest
# compiled unique type measured (6,475 nodes)
_REPR_MAX_SIZE = 100_000

# the kinds of the ·,\,/,1 fragment, whose formulas have free-group images
_FG_KINDS = 1 << ATOM | 1 << UNIT | 1 << UNDER | 1 << OVER | 1 << PROD


class Formula:
    """A hash-consed formula node.  Build via the factory functions."""

    __slots__ = ("kind", "left", "right", "size", "kinds", "top",
                 "nl", "nr", "rv")

    kind: int
    left: "Formula | None"
    right: "Formula | None"
    size: int                 # node count
    kinds: int                # OR of 1 << kind over every node
    top: str | None           # head atom through \ and / numerators; an
                              # atom's own name
    nl: int                   # \ denominators on the spine to top (else 0)
    nr: int                   # / denominators on the spine to top (else 0)
    rv: int | None            # relational value: four 64-bit lanes, one per
                              # entry (0,0), (0,1), (1,0), (1,1) of a relation
                              # on {0, 1}, bit k of each under valuation k;
                              # None until first needed

    @property
    def name(self) -> str | None:
        """The atom name, for ATOM nodes; None for any other node."""
        return self.top if self.kind == ATOM else None

    @property
    def tv(self) -> int:
        """The relational value (``rv``), computed on first read."""
        v = self.rv
        return _values(self) if v is None else v

    def __repr__(self) -> str:
        text = _brief(self)
        return text if self.size > _REPR_MAX_SIZE else f"<{text}>"

    def __str__(self) -> str:
        return render_formula(self)


def _brief(f: Formula) -> str:
    """``render_formula(f)``, or, for a formula of more than
    ``_REPR_MAX_SIZE`` tree nodes, a short description: a hash-consed
    formula can unfold to a tree far too big to print."""
    if f.size > _REPR_MAX_SIZE:
        k = f.kind
        op = _INFIX[k][0] if k in _INFIX else _POSTFIX_TEXT[k]
        return f"<formula of size {f.size}, top connective {op}>"
    return render_formula(f)


def _values(f: Formula) -> int:
    """Fill the relational value of ``f`` and of every node below it that
    has none yet, children first from an explicit stack, and return the
    value of ``f``.  A node with a value has values all the way down, so
    the walk stops at one.  ``|`` and ``&`` are union and intersection,
    ``A^*`` the reflexive-transitive closure and ``A^+`` the transitive
    one: on two points a path needs at most two steps, so they are
    ``I ∪ A`` and ``A ∪ A;A``."""
    todo = [f]
    while todo:
        g = todo[-1]
        left = g.left
        right = g.right
        if left is not None and left.rv is None:
            todo.append(left)
            continue
        if right is not None and right.rv is None:
            todo.append(right)
            continue
        todo.pop()
        k = g.kind
        if k == UNDER:
            # left\right is the complement of left˘;¬right
            g.rv = _comp(_conv(left.rv), right.rv ^ _FULL) ^ _FULL
        elif k == OVER:
            # left/right is the complement of ¬left;right˘
            g.rv = _comp(left.rv ^ _FULL, _conv(right.rv)) ^ _FULL
        elif k == PROD:
            g.rv = _comp(left.rv, right.rv)
        elif k == OR:
            g.rv = left.rv | right.rv
        elif k == AND:
            g.rv = left.rv & right.rv
        elif k == STAR:
            g.rv = _ID | left.rv
        else:                                  # PLUS
            v = left.rv
            g.rv = v | _comp(v, v)
    return f.rv


# compound nodes and ``1`` keyed (kind, left, right), atoms by their name
_table: dict = {}

_ATOM = r"[a-z][a-z0-9_]*(?:#[0-9]+)?"
_ATOM_RE = re.compile(_ATOM + r"\Z")


def _intern(kind: int, left: Formula | None,
            right: Formula | None) -> Formula:
    """The one node of a non-atom ``kind`` over these children; a new
    node gets its structure only."""
    key = (kind, left, right)
    f = _table.get(key)
    if f is not None:
        return f
    f = Formula.__new__(Formula)
    f.kind = kind
    f.left = left
    f.right = right
    f.nl = f.nr = 0
    f.top = f.rv = None
    if left is None:             # UNIT
        f.size = 1
        f.kinds = 1 << UNIT
        f.rv = _ID
    elif right is None:          # STAR, PLUS
        f.size = 1 + left.size
        f.kinds = 1 << kind | left.kinds
    else:
        f.size = 1 + left.size + right.size
        f.kinds = 1 << kind | left.kinds | right.kinds
        if kind == UNDER:        # left \ right
            f.top = right.top
            f.nl = right.nl + 1
            f.nr = right.nr
        elif kind == OVER:       # left / right
            f.top = left.top
            f.nl = left.nl
            f.nr = left.nr + 1
    _table[key] = f
    return f


def _atom(name: str) -> Formula:
    """The one atom named ``name``, which the caller has checked; a new
    atom gets its value at once."""
    f = _table.get(name)
    if f is not None:
        return f
    f = Formula.__new__(Formula)
    f.kind = ATOM
    f.left = f.right = None
    f.size = 1
    f.kinds = 1 << ATOM
    f.top = name
    f.nl = f.nr = 0
    f.rv = _atom_tv(name)
    _table[name] = f
    return f


def _rebuild(f: Formula, left: Formula | None,
             right: Formula | None) -> Formula:
    """``f`` with new children, or ``f`` itself when both are unchanged."""
    if left is f.left and right is f.right:
        return f
    return _intern(f.kind, left, right)


def Atom(name: str) -> Formula:
    # a name already interned passed the pattern when it was first built
    f = _table.get(name) if name.__class__ is str else None
    if f is not None:
        return f
    if not _ATOM_RE.match(name):
        raise ValueError(f"bad atom name: {name!r}")
    return _atom(name)


def Unit() -> Formula:
    return _intern(UNIT, None, None)


def Under(left: Formula, right: Formula) -> Formula:
    """left \\ right"""
    return _intern(UNDER, left, right)


def Over(left: Formula, right: Formula) -> Formula:
    """left / right"""
    return _intern(OVER, left, right)


def Prod(left: Formula, right: Formula) -> Formula:
    return _intern(PROD, left, right)


def Star(arg: Formula) -> Formula:
    return _intern(STAR, arg, None)


def Plus(arg: Formula) -> Formula:
    return _intern(PLUS, arg, None)


def Or(left: Formula, right: Formula) -> Formula:
    return _intern(OR, left, right)


def And(left: Formula, right: Formula) -> Formula:
    return _intern(AND, left, right)


# --------------------------------------------------------------------------
# sequents and derivations

class _Record:
    """Value semantics for a plain slot record: ``==`` and ``hash`` over
    its fields in slot order, ``NotImplemented`` against any other class,
    and a dataclass-style ``repr``.  A mutable record sets ``__hash__`` to
    None."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return self.__class__.__name__ + "(" + ", ".join(
            [f"{n}={getattr(self, n)!r}" for n in self.__slots__]) + ")"


class Sequent(_Record):
    """``antecedent -> succedent``; a plain slot record, immutable by
    contract."""

    __slots__ = ("antecedent", "succedent")

    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __init__(self, antecedent: tuple[Formula, ...], succedent: Formula):
        self.antecedent = antecedent
        self.succedent = succedent

    def __str__(self) -> str:
        return render_sequent(self)


class Derivation(_Record):
    """One node of a sequent derivation: a rule label, its conclusion and
    the premise subderivations in the order the rule schema lists them;
    a plain slot record, immutable by contract.  ``hash`` reads the root's
    rule and conclusion only, and ``==`` compares node pairs from an
    explicit stack, so neither recurses on a deep derivation."""

    __slots__ = ("rule", "conclusion", "premises")

    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...]

    def __init__(self, rule: str, conclusion: Sequent,
                 premises: tuple["Derivation", ...] = ()):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:      # a shared subderivation is equal as it stands
                continue
            if (a.rule != b.rule or a.conclusion != b.conclusion
                    or len(a.premises) != len(b.premises)):
                return False
            todo += zip(a.premises, b.premises)
        return True

    def __hash__(self) -> int:
        return hash((self.rule, self.conclusion))


def render_derivation(d: Derivation) -> str:
    """One line ``[rule] conclusion`` per node, each premise below its
    conclusion and one step further in.  The nodes still to write wait on
    an explicit stack, so depth is bounded by memory alone."""
    lines = []
    todo = [(d, 0)]
    while todo:
        d, indent = todo.pop()
        lines.append(f"{'  ' * indent}[{d.rule}] "
                     f"{render_sequent(d.conclusion)}")
        # pushed in reverse: the first premise is written first
        todo += [(p, indent + 1) for p in reversed(d.premises)]
    return "\n".join(lines)


# --------------------------------------------------------------------------
# rendering

_LEVEL = {UNDER: 0, OVER: 1, OR: 2, AND: 3, PROD: 4, STAR: 5, PLUS: 5,
          ATOM: 6, UNIT: 6}
# binary kind -> (operator, level of the left operand, of the right one):
# an operand below its level is parenthesised
_INFIX = {UNDER: ("\\", 1, 0), OVER: ("/", 1, 2), OR: ("|", 3, 2),
          AND: ("&", 4, 3), PROD: (".", 4, 5)}
_POSTFIX_TEXT = {STAR: "^*", PLUS: "^+"}


def render_formula(f: Formula) -> str:
    """The canonical text of ``f``, with the fewest parentheses that
    parse back to it.  The pieces still to write, each a string or a
    (formula, level) pair, wait on an explicit stack, so nesting depth is
    bounded by memory alone."""
    out: list[str] = []
    todo: list = [(f, 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        g, lvl = item
        k = g.kind
        if _LEVEL[k] < lvl:
            todo += (")", (g, 0), "(")
        elif k == ATOM:
            out.append(g.top)
        elif k == UNIT:
            out.append("1")
        elif k == STAR or k == PLUS:
            todo += (_POSTFIX_TEXT[k], (g.left, 5))
        else:
            op, llvl, rlvl = _INFIX[k]
            # pushed in reverse: the left operand is rendered first
            todo += ((g.right, rlvl), op, (g.left, llvl))
    return "".join(out)


def render_sequent(s: Sequent) -> str:
    return _sequent_text(s, render_formula)


def _sequent_text(s: Sequent, text) -> str:
    """``s`` written with ``text`` for each formula."""
    lhs = ", ".join([text(a) for a in s.antecedent])
    arrow = "-> " if not lhs else " -> "
    return lhs + arrow + text(s.succedent)


# --------------------------------------------------------------------------
# parsing: one regex scan into tokens, then one operator-precedence loop
# with an operand stack and an operator stack (Dijkstra's shunting-yard),
# so nesting depth and formula length are bounded by memory alone

_TOKEN = r"->|\^\*|\^\+|[\\/|&.(),]|1|" + _ATOM
_TOKEN_RE = re.compile(_TOKEN)
_PREFIX_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*")   # the part that tokenizes

# token -> (precedence, kind, right-assoc), higher binding tighter; a new
# operator first applies the pending ones of higher precedence, and of
# equal precedence when it is left-assoc
_BINARY = {"\\": (0, UNDER, True), "/": (1, OVER, False),
           "|": (2, OR, True), "&": (3, AND, True), ".": (4, PROD, False)}
_POSTFIX = {"^*": STAR, "^+": PLUS}
_OPEN = (-1, None, False)       # '(' and the bottom of the operator stack
_NOT_OPERANDS = frozenset(("->", ")", ",", *_POSTFIX, *_BINARY))


def _tokens(text: str) -> list[str]:
    toks = _TOKEN_RE.findall(text)
    # the scan skips what it cannot match: an input tokenizes when the
    # tokens cover every character that is not whitespace
    if len("".join(toks)) != len("".join(text.split())):
        rest = text[_PREFIX_RE.match(text).end():].lstrip()
        raise ParseError(f"unexpected input at: {rest[:20]!r}")
    return toks


def _formula(toks: list[str], i: int, end: int) -> tuple[Formula, int]:
    """Parse the longest formula that starts at ``toks[i]`` and ends
    before ``toks[end]``; return it and the index of the token after it."""
    vals: list[Formula] = []
    ops = [_OPEN]
    depth = 0
    while True:
        # an operand: any '(' first, then an atom or '1'
        if i == end:
            raise ParseError("unexpected end of input")
        t = toks[i]
        i += 1
        if t == "(":
            ops.append(_OPEN)
            depth += 1
            continue
        if t == "1":
            vals.append(_intern(UNIT, None, None))
        elif t in _NOT_OPERANDS:
            raise ParseError(f"unexpected token {t!r}")
        else:
            vals.append(_atom(t))
        # then postfixes and ')' up to a binary operator or the end
        while True:
            t = toks[i] if i < end else None
            kind = _POSTFIX.get(t)
            if kind is not None:
                vals[-1] = _intern(kind, vals[-1], None)
                i += 1
                continue
            op = _BINARY.get(t)
            if op is None and depth and t != ")":
                raise ParseError("unexpected end of input" if t is None
                                 else f"expected ')', got {t!r}")
            # ')' and the end apply every pending operator back to '('
            need = 0 if op is None else op[0] + op[2]
            while ops[-1][0] >= need:
                kind = ops.pop()[1]
                right = vals.pop()
                vals[-1] = _intern(kind, vals[-1], right)
            if op is not None:
                ops.append(op)
                i += 1
                break
            if not depth:
                return vals[0], i
            ops.pop()                   # the matching '('
            depth -= 1
            i += 1


def _trailing(toks: list[str], i: int, end: int) -> None:
    if i < end:
        raise ParseError(f"trailing input from {toks[i]!r}")


def parse_formula(text: str) -> Formula:
    toks = _tokens(text)
    f, i = _formula(toks, 0, len(toks))
    _trailing(toks, i, len(toks))
    return f


def parse_sequent(text: str) -> Sequent:
    toks = _tokens(text)
    try:
        arrow = toks.index("->")
    except ValueError:
        raise ParseError("sequent needs an '->'") from None
    if "->" in toks[arrow + 1:]:
        raise ParseError("sequent has more than one '->'")
    ant: list[Formula] = []
    if arrow:
        f, i = _formula(toks, 0, arrow)
        ant.append(f)
        while i < arrow and toks[i] == ",":
            f, i = _formula(toks, i + 1, arrow)
            ant.append(f)
        _trailing(toks, i, arrow)
    succ, i = _formula(toks, arrow + 1, len(toks))
    _trailing(toks, i, len(toks))
    return Sequent(tuple(ant), succ)


# --------------------------------------------------------------------------
# fragment helpers

def _word(formulas: Iterable[Formula], note: str = "") -> tuple:
    """The reduced free-group word of a formula sequence: ``A\\B`` reads
    as A⁻¹B, ``A/B`` as AB⁻¹, ``A·B`` as AB and ``1`` as nothing.  One
    walk from an explicit stack visits the atom occurrences in order (an
    inverted node reads its children in reverse with flipped signs) and
    pushes each signed letter onto one output stack, where it cancels
    against its inverse on top.  A formula outside ·,\\,/,1 raises
    :class:`FragmentError` naming it, with ``note`` appended.

    The walk costs the formulas' tree size, not their DAG size: linear
    for anything parsed from text, but exponential for a formula built
    through the API with exponential sharing (a ``Prod(f, f)`` tower's
    image has exponentially many letters anyway)."""
    out: list = []
    for f in formulas:
        if f.kinds & ~_FG_KINDS:
            raise FragmentError(f"no free-group image for {_brief(f)}{note}")
        g, e = f, 1                 # the node being read, and its sign
        todo = []                   # (node, sign) pairs still to read
        while True:
            k = g.kind
            if k == ATOM:
                x = g.top
                if out and out[-1][0] == x and out[-1][1] == -e:
                    out.pop()
                else:
                    out.append((x, e))
            elif k != UNIT:
                # read the first child now and push the second
                if e > 0:
                    todo.append((g.right, -1 if k == OVER else 1))
                    g, e = g.left, -1 if k == UNDER else 1
                else:
                    todo.append((g.left, 1 if k == UNDER else -1))
                    g, e = g.right, 1 if k == OVER else -1
                continue
            if not todo:
                break
            g, e = todo.pop()
    return tuple(out)


def fg_interp(f: Formula) -> GroupWord:
    """Free-group image of a formula in the ·, \\, /, 1 fragment."""
    return GroupWord(_word((f,), " (only ., \\, /, 1 and atoms have one)"))


def sequence_image(formulas: Iterable[Formula]) -> GroupWord:
    """Free-group image of a formula sequence: its members' images
    multiplied in order."""
    return GroupWord(_word(formulas))


def zero_balanced(f: Formula) -> bool:
    """True when the free-group image of ``f`` is the identity."""
    return fg_interp(f).is_identity


def division_pure(f: Formula) -> bool:
    """True when ``f`` uses only atoms, \\ and /."""
    return not f.kinds & ~(1 << ATOM | 1 << UNDER | 1 << OVER)


def atoms_of(*roots: Formula) -> frozenset[str]:
    """The atom names of all ``roots``, visiting each distinct (hash-consed)
    node once, so formulas that share structure cost their DAG size."""
    out: set[str] = set()
    seen: set[Formula] = set()
    stack = list(roots)
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if g.kind == ATOM:
            out.add(g.top)
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
        return cls(atoms_of(*formulas))

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
