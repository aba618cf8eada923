"""Context-free grammar toolkit.

Grammars are immutable rule lists over two disjoint alphabets: nonterminals
are capitalised tokens (``S``, ``NP_2``), terminals are lowercase tokens
(``a``, ``a1``).  The module provides

* a line-oriented parser/renderer (``LHS -> alt1 | alt2``, ``#`` comments,
  optional ``@start`` directive),
* one Chomsky normal form pipeline (DEL, UNIT, pruning, TERM, BIN) that
  both the CYK membership oracle and the Greibach conversion start from,
  so the two cannot disagree about a grammar's language,
* a CYK membership oracle working on that normal form, cached per
  grammar, so no transformation is required before querying,
* length-lexicographic word enumeration by generate-and-test,
* conversion to *binary Greibach normal form* (every rule is
  ``N => a``, ``N => a B`` or ``N => a B C``) via the left-corner
  transform, which avoids the exponential blow-up of substitution-based
  Greibach constructions, and
* the alternation transform ``total_plus_to_alt2`` that wraps a two-letter
  grammar in a fresh start producing ``a1 .. a2`` sandwiches.

Grammars whose language contains the empty word are rejected by the
normal-form pipeline (`EmptyWordError`): the downstream categorial
compilers only model non-empty words.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .formula import LambekError

__all__ = [
    "Grammar", "GnfCfg", "GrammarError", "EmptyWordError",
    "parse_cfg", "render_cfg", "cyk_member", "enumerate_words",
    "to_gnf2", "total_plus_to_alt2", "is_nonterminal", "is_terminal",
]

_NT_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_T_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class GrammarError(LambekError):
    """Malformed grammar text or a grammar outside an operation's domain."""


class EmptyWordError(GrammarError):
    """The grammar derives the empty word, which the compilers cannot model."""


def is_nonterminal(token: str) -> bool:
    return isinstance(token, str) and bool(_NT_RE.match(token))


def is_terminal(token: str) -> bool:
    return isinstance(token, str) and bool(_T_RE.match(token))


# --------------------------------------------------------------------------
# grammar values


@dataclass(frozen=True)
class Grammar:
    """An ordered rule list ``(lhs, rhs)`` with a designated start symbol.

    ``rhs`` is a (possibly empty) tuple mixing nonterminals and terminals;
    an empty tuple is an epsilon rule.  Rule order is meaningful: it fixes
    enumeration order everywhere downstream.
    """

    rules: tuple[tuple[str, tuple[str, ...]], ...]
    start: str

    def __post_init__(self) -> None:
        lhss = {lhs for lhs, _ in self.rules}
        for lhs, rhs in self.rules:
            if not is_nonterminal(lhs):
                raise GrammarError(f"bad nonterminal {lhs!r}")
            for sym in rhs:
                if is_nonterminal(sym):
                    if sym not in lhss:
                        raise GrammarError(f"undeclared nonterminal {sym!r}")
                elif not is_terminal(sym):
                    raise GrammarError(f"bad symbol {sym!r}")
        if self.start not in lhss:
            raise GrammarError(f"start symbol {self.start!r} has no rules")

    @property
    def nonterminals(self) -> tuple[str, ...]:
        seen = [self.start]
        for lhs, _ in self.rules:
            if lhs not in seen:
                seen.append(lhs)
        return tuple(seen)

    @property
    def terminals(self) -> tuple[str, ...]:
        seen: list[str] = []
        for _, rhs in self.rules:
            for sym in rhs:
                if is_terminal(sym) and sym not in seen:
                    seen.append(sym)
        return tuple(seen)

    def alternatives(self, nt: str) -> tuple[tuple[str, ...], ...]:
        return tuple(rhs for lhs, rhs in self.rules if lhs == nt)

    def __str__(self) -> str:
        return render_cfg(self)


@dataclass(frozen=True)
class GnfCfg:
    """A grammar in binary Greibach normal form.

    Every rule is ``(lhs, terminal, k, l)`` standing for
    ``lhs => terminal k? l?`` where ``k``/``l`` are optional nonterminals
    and ``l`` is present only when ``k`` is.  ``declared_terminals``
    remembers the terminal alphabet of the source grammar before pruning,
    so compilers can reject terminals whose rules were all useless.
    """

    rules: tuple[tuple[str, str, str | None, str | None], ...]
    start: str
    declared_terminals: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for lhs, a, k, l in self.rules:
            if not is_nonterminal(lhs) or not is_terminal(a):
                raise GrammarError(f"bad rule {(lhs, a, k, l)!r}")
            if l is not None and k is None:
                raise GrammarError(
                    f"rule {(lhs, a, k, l)!r} has a second tail symbol only")
            for sym in (k, l):
                if sym is not None and not is_nonterminal(sym):
                    raise GrammarError(f"bad nonterminal {sym!r}")
        if not self.declared_terminals:
            object.__setattr__(self, "declared_terminals", self.terminals)

    @property
    def nonterminals(self) -> tuple[str, ...]:
        seen = [self.start]
        for lhs, _, k, l in self.rules:
            for sym in (lhs, k, l):
                if sym is not None and sym not in seen:
                    seen.append(sym)
        return tuple(seen)

    @property
    def terminals(self) -> tuple[str, ...]:
        seen: list[str] = []
        for _, a, _, _ in self.rules:
            if a not in seen:
                seen.append(a)
        return tuple(seen)

    def index(self, nt: str) -> int:
        return self.nonterminals.index(nt)

    def to_grammar(self) -> Grammar:
        rules = tuple(
            (lhs, tuple(s for s in (a, k, l) if s is not None))
            for lhs, a, k, l in self.rules)
        return Grammar(rules, self.start)

    def __str__(self) -> str:
        return render_cfg(self.to_grammar())


# --------------------------------------------------------------------------
# text format

def parse_cfg(text: str) -> Grammar:
    """Parse ``LHS -> rhs1 | rhs2`` lines into a :class:`Grammar`.

    ``#`` starts a comment; a ``@start N`` line overrides the default start
    symbol (the lhs of the first rule).  An alternative with no tokens is an
    epsilon rule.
    """
    rules: list[tuple[str, tuple[str, ...]]] = []
    start: str | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@start"):
            parts = line.split()
            if len(parts) != 2 or not is_nonterminal(parts[1]):
                raise GrammarError(f"line {ln}: malformed @start directive")
            start = parts[1]
            continue
        if "->" not in line:
            raise GrammarError(f"line {ln}: expected 'LHS -> ...'")
        head, _, tail = line.partition("->")
        lhs = head.strip()
        if not is_nonterminal(lhs):
            raise GrammarError(f"line {ln}: bad nonterminal {lhs!r}")
        for alt in tail.split("|"):
            rhs = tuple(alt.split())
            for sym in rhs:
                if not (is_nonterminal(sym) or is_terminal(sym)):
                    raise GrammarError(f"line {ln}: bad symbol {sym!r}")
            if (lhs, rhs) not in rules:
                rules.append((lhs, rhs))
    if not rules:
        raise GrammarError("no rules")
    return Grammar(tuple(rules), start if start is not None else rules[0][0])


def render_cfg(g: Grammar) -> str:
    """Render a grammar in the file format; ``parse_cfg`` inverts it."""
    by_lhs: dict[str, list[tuple[str, ...]]] = {}
    order: list[str] = []
    for lhs, rhs in g.rules:
        if lhs not in by_lhs:
            by_lhs[lhs] = []
            order.append(lhs)
        by_lhs[lhs].append(rhs)
    lines = []
    if order and order[0] != g.start:
        lines.append(f"@start {g.start}")
    for lhs in order:
        alts = [" ".join(rhs) for rhs in by_lhs[lhs]]
        lines.append(f"{lhs} -> {' | '.join(alts)}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Chomsky normal form, shared by the CYK oracle and the GNF conversion

def _nullable_set(rules: Sequence[tuple[str, tuple]]) -> set:
    nullable: set = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    return nullable


def _prune(rules: list[tuple[object, tuple]], start,
           terminals: set) -> list[tuple[object, tuple]]:
    """Keep only rules made of productive symbols reachable from start."""
    productive: set = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs not in productive and all(
                    s in terminals or s in productive for s in rhs):
                productive.add(lhs)
                changed = True
    good = [(lhs, rhs) for lhs, rhs in rules
            if lhs in productive
            and all(s in terminals or s in productive for s in rhs)]
    reachable = {start}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in good:
            if lhs in reachable:
                for s in rhs:
                    if s not in terminals and s not in reachable:
                        reachable.add(s)
                        changed = True
    return [(lhs, rhs) for lhs, rhs in good if lhs in reachable]


def _cnf(rules: Sequence[tuple[object, tuple]], start,
         terminals: set) -> list[tuple[object, tuple]]:
    """Chomsky normal form of ``rules`` for the non-empty words.

    DEL drops nullable occurrences, UNIT closes over single-nonterminal
    rules, useless symbols are pruned, TERM lifts terminals in long
    right-hand sides to ``("t", a)`` and BIN splits long right-hand sides
    with fresh ``("b", i)`` symbols.  Every resulting rule is ``N -> a`` or
    ``N -> B C``; the order is deterministic, so it fixes the names and the
    rule order of the binary GNF built from it.
    """
    # DEL
    nullable = _nullable_set(rules)
    no_eps: list[tuple[object, tuple]] = []
    seen: set = set()
    for lhs, rhs in rules:
        options = [(True, False) if s in nullable else (True,) for s in rhs]
        for mask in itertools.product(*options):
            variant = tuple(s for s, m in zip(rhs, mask) if m)
            if variant and (lhs, variant) not in seen:
                seen.add((lhs, variant))
                no_eps.append((lhs, variant))

    # UNIT: every nonterminal takes the non-unit rules of the nonterminals
    # its unit rules reach (all still grammar names here, so sortable)
    units: dict[object, list] = {}
    proper: dict[object, list[tuple]] = {}
    order: list[object] = []
    for lhs, rhs in no_eps:
        if lhs not in proper:
            proper[lhs] = []
            order.append(lhs)
        if len(rhs) == 1 and rhs[0] not in terminals:
            units.setdefault(lhs, []).append(rhs[0])
        else:
            proper[lhs].append(rhs)
    no_units: list[tuple[object, tuple]] = []
    seen = set()
    for a in order:
        reach = {a}
        frontier = [a]
        while frontier:
            for b in units.get(frontier.pop(), ()):
                if b not in reach:
                    reach.add(b)
                    frontier.append(b)
        for b in sorted(reach):
            for rhs in proper.get(b, ()):
                if (a, rhs) not in seen:
                    seen.add((a, rhs))
                    no_units.append((a, rhs))
    no_units = _prune(no_units, start, terminals)

    # TERM
    lifted: list[tuple[object, tuple]] = []
    needed_t: list[str] = []
    for lhs, rhs in no_units:
        if len(rhs) >= 2:
            for s in rhs:
                if s in terminals and s not in needed_t:
                    needed_t.append(s)
            rhs = tuple(("t", s) if s in terminals else s for s in rhs)
        lifted.append((lhs, rhs))
    lifted.extend((("t", t), (t,)) for t in needed_t)

    # BIN
    cnf: list[tuple[object, tuple]] = []
    counter = itertools.count()
    for lhs, rhs in lifted:
        while len(rhs) > 2:
            fresh = ("b", next(counter))
            cnf.append((lhs, (rhs[0], fresh)))
            lhs, rhs = fresh, rhs[1:]
        cnf.append((lhs, rhs))
    return cnf


# --------------------------------------------------------------------------
# membership oracle (CYK over a cached Chomsky normal form)

@lru_cache(maxsize=None)
def _cyk_tables(g: Grammar):
    term_map: dict[str, set] = {}
    bin_map: dict[tuple, set] = {}
    for lhs, rhs in _cnf(g.rules, g.start, set(g.terminals)):
        if len(rhs) == 1:
            term_map.setdefault(rhs[0], set()).add(lhs)
        else:
            bin_map.setdefault(rhs, set()).add(lhs)
    return term_map, bin_map, g.start in _nullable_set(g.rules)


def cyk_member(g: Grammar, w: Sequence[str]) -> bool:
    """True iff the word (a sequence of terminals) is generated by ``g``.

    Letters outside the grammar's alphabet simply make the answer False.
    """
    term_map, bin_map, eps = _cyk_tables(g)
    word = tuple(w)
    if not word:
        return eps
    n = len(word)
    chart: dict[tuple[int, int], set] = {}
    for i, letter in enumerate(word):
        chart[(i, i + 1)] = set(term_map.get(letter, ()))
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            cell: set = set()
            for k in range(i + 1, j):
                left, right = chart[(i, k)], chart[(k, j)]
                if not left or not right:
                    continue
                for pair, heads in bin_map.items():
                    if pair[0] in left and pair[1] in right:
                        cell |= heads
            chart[(i, j)] = cell
    return g.start in chart[(0, n)]


def enumerate_words(g: Grammar, max_len: int) -> Iterator[tuple[str, ...]]:
    """Yield every word of ``L(g)`` up to ``max_len``, length-lex ordered."""
    letters = tuple(sorted(set(g.terminals)))
    for n in range(max_len + 1):
        for w in itertools.product(letters, repeat=n):
            if cyk_member(g, w):
                yield w


# --------------------------------------------------------------------------
# binary Greibach normal form

def _already_gnf2(rules: Iterable[tuple[object, tuple]],
                  terminals: set) -> bool:
    for _, rhs in rules:
        if not rhs or rhs[0] not in terminals or len(rhs) > 3:
            return False
        if any(s in terminals for s in rhs[1:]):
            return False
    return True


def _left_corner(rules: list[tuple[object, tuple]], terminals: set,
                 start) -> list[tuple[object, tuple]]:
    """Left-corner transform of a CNF rule list into binary GNF.

    A pair symbol ``("lc", X, A)`` generates the remainder of an ``A``-tree
    whose left spine has already been consumed down to an ``X`` node; it
    expands by climbing the spine one binary rule at a time, emitting the
    right sibling's leading terminal first.
    """
    term_rules: dict[object, list[str]] = {}
    bin_rules: list[tuple[object, object, object]] = []
    for lhs, rhs in rules:
        if len(rhs) == 1:
            term_rules.setdefault(lhs, []).append(rhs[0])
        else:
            bin_rules.append((lhs, rhs[0], rhs[1]))

    nts: list[object] = []
    for lhs, rhs in rules:
        for s in (lhs, *rhs):
            if s not in terminals and s not in nts:
                nts.append(s)

    # lc_desc[A] = nonterminals reachable from A via >= 1 left-child steps
    direct: dict[object, list[object]] = {}
    for y, x, _ in bin_rules:
        direct.setdefault(y, []).append(x)
    lc_desc: dict[object, list[object]] = {}
    for a in nts:
        seen: list[object] = []
        frontier = list(direct.get(a, ()))
        while frontier:
            x = frontier.pop(0)
            if x in seen:
                continue
            seen.append(x)
            frontier.extend(direct.get(x, ()))
        lc_desc[a] = seen

    def pair(x, a):
        return ("lc", x, a)

    def head_expansions(r) -> list[tuple]:
        """GNF alternatives of nonterminal ``r``: (b,) or (b, pair)."""
        out = [(b,) for b in term_rules.get(r, ())]
        for w in lc_desc[r]:
            for b in term_rules.get(w, ()):
                out.append((b, pair(w, r)))
        return out

    out: list[tuple[object, tuple]] = []
    for a in nts:
        for b in term_rules.get(a, ()):
            out.append((a, (b,)))
        for x in lc_desc[a]:
            for b in term_rules.get(x, ()):
                out.append((a, (b, pair(x, a))))
    for y, x, r in bin_rules:
        for a in nts:
            if x not in lc_desc[a]:
                continue
            if y == a:
                for e in head_expansions(r):
                    out.append((pair(x, a), e))
            if y in lc_desc[a]:
                for e in head_expansions(r):
                    out.append((pair(x, a), e + (pair(y, a),)))
    deduped: list[tuple[object, tuple]] = []
    seen_rules: set = set()
    for rule in out:
        if rule not in seen_rules:
            seen_rules.add(rule)
            deduped.append(rule)
    return _prune(deduped, start, terminals)


def _assign_names(rules: list[tuple[object, tuple]], start,
                  terminals: set) -> tuple[list, object]:
    """Replace internal tuple symbols by fresh capitalised names."""
    used = {s for lhs, rhs in rules for s in (lhs, *rhs)
            if isinstance(s, str) and s not in terminals}
    names: dict[object, str] = {}

    def name_of(sym) -> str:
        if isinstance(sym, str):
            return sym
        if sym in names:
            return names[sym]
        if sym[0] == "t":
            base = "T_" + sym[1].upper()
        elif sym[0] == "b":
            base = f"BIN{sym[1]}"
        else:
            base = f"{name_of(sym[1])}_{name_of(sym[2])}"
        candidate, i = base, 1
        while candidate in used:
            candidate = f"{base}{i}"
            i += 1
        used.add(candidate)
        names[sym] = candidate
        return candidate

    renamed = [(name_of(lhs), tuple(s if s in terminals else name_of(s)
                                    for s in rhs))
               for lhs, rhs in rules]
    return renamed, name_of(start)


def to_gnf2(g: Grammar) -> GnfCfg:
    """Convert to binary Greibach normal form, preserving the language.

    Raises :class:`EmptyWordError` when the empty word is derivable.  An
    empty language produces a rule-free result and a warning.  Grammars
    already in binary GNF come back with their rules untouched (after
    useless-symbol pruning), so hand-crafted normal forms stay stable.
    """
    if g.start in _nullable_set(g.rules):
        raise EmptyWordError(
            "the grammar derives the empty word; only languages of "
            "non-empty words can be compiled")
    terminals = set(g.terminals)
    declared = g.terminals
    rules = _prune(list(g.rules), g.start, terminals)
    if not rules:
        warnings.warn("the grammar generates the empty language",
                      stacklevel=2)
        return GnfCfg((), g.start, declared_terminals=declared)
    start = g.start
    if not _already_gnf2(rules, terminals):
        gnf = _left_corner(_cnf(rules, start, terminals), terminals, start)
        rules, start = _assign_names(gnf, start, terminals)
    gnf_rules = tuple(
        (lhs, rhs[0],
         rhs[1] if len(rhs) > 1 else None,
         rhs[2] if len(rhs) > 2 else None)
        for lhs, rhs in rules)
    return GnfCfg(gnf_rules, start, declared_terminals=declared)


# --------------------------------------------------------------------------
# the alternation transform

def total_plus_to_alt2(g: Grammar) -> Grammar:
    """Wrap a two-letter grammar so the result generates ``a1 L(g) a2 | a1 a2``.

    ``a1 < a2`` are the grammar's two terminals in sorted order.  Adds
    exactly one fresh start symbol and exactly two rules; the result lies
    in the alternation class (every word matches ``a1+ a2+ a1+ ...``, with
    blocks of both letters) precisely when ``g`` generates every non-empty
    word over the two letters.
    """
    ts = sorted(set(g.terminals))
    if len(ts) != 2:
        raise GrammarError(
            f"expected exactly two terminals, found {len(ts)}: {ts}")
    a1, a2 = ts
    taken = set(g.nonterminals)
    fresh, i = "SP", 1
    while fresh in taken:
        fresh = f"SP{i}"
        i += 1
    new_rules = ((fresh, (a1, g.start, a2)), (fresh, (a1, a2))) + g.rules
    return Grammar(new_rules, fresh)
