"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive: the grammar oracle enumerates
sentential forms breadth-first and the formula generators are plain
recursive samplers.  Slow-but-obvious beats clever-but-correlated for
cross-checking the real implementations.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from lambekstar import (Atom, Formula, Grammar, Over, Plus, Prod, Sequent,
                        Star, Under)
from lambekstar.formula import OVER, STAR, UNDER

ATOM_NAMES = ("p", "q", "r")


# --------------------------------------------------------------------------
# formula samplers
# --------------------------------------------------------------------------

def random_division_pure(rng: random.Random, size: int,
                         atoms: tuple[str, ...] = ATOM_NAMES) -> Formula:
    """Uniform-ish random formula over atoms, ``\\`` and ``/`` of ``size`` nodes."""
    if size <= 1:
        return Atom(rng.choice(atoms))
    left_size = rng.randint(1, size - 1)
    left = random_division_pure(rng, left_size, atoms)
    right = random_division_pure(rng, size - 1 - left_size, atoms)
    return Under(left, right) if rng.random() < 0.5 else Over(left, right)


def random_division_sequent(rng: random.Random, max_size: int,
                            max_antecedent: int = 3,
                            atoms: tuple[str, ...] = ATOM_NAMES) -> Sequent:
    n_ante = rng.randint(0, max_antecedent)
    parts = [rng.randint(1, max(1, max_size // (n_ante + 1)))
             for _ in range(n_ante + 1)]
    ante = tuple(random_division_pure(rng, s, atoms) for s in parts[:-1])
    return Sequent(ante, random_division_pure(rng, parts[-1], atoms))


def random_star_external(rng: random.Random, size: int,
                         atoms: tuple[str, ...] = ATOM_NAMES,
                         star_depth: int = 2) -> Formula:
    """Random formula mixing division-pure leaves with ``.``, ``*``, ``^+``."""
    if size <= 1:
        return Atom(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.35 and star_depth > 0 and size >= 2:
        inner = random_star_external(rng, size - 1, atoms, star_depth - 1)
        return Star(inner) if rng.random() < 0.5 else Plus(inner)
    if roll < 0.65 and size >= 3:
        left_size = rng.randint(1, size - 2)
        return Prod(
            random_star_external(rng, left_size, atoms, star_depth),
            random_star_external(rng, size - 1 - left_size, atoms,
                                 star_depth))
    return random_division_pure(rng, size, atoms)


def star_polarities(f: Formula, positive: bool = True) -> list[bool]:
    """Polarity (True = positive) of every ``*`` occurrence in ``f``."""
    out: list[bool] = []
    if f.kind == STAR:
        out.append(positive)
    if f.left is not None:
        flip_left = f.kind in (UNDER,)
        out += star_polarities(f.left, positive if not flip_left
                               else not positive)
    if f.right is not None:
        flip_right = f.kind in (OVER,)
        out += star_polarities(f.right, positive if not flip_right
                               else not positive)
    return out


def sequent_star_polarities(s: Sequent) -> list[bool]:
    out: list[bool] = []
    for f in s.antecedent:
        out += star_polarities(f, positive=False)
    out += star_polarities(s.succedent, positive=True)
    return out


# --------------------------------------------------------------------------
# grammar samplers and the sentential-form oracle
# --------------------------------------------------------------------------

class OracleOverflow(Exception):
    """The brute-force enumeration hit its safety cap."""


def oracle_words(g: Grammar, max_len: int, *,
                 form_limit: int = 300_000) -> set[tuple[str, ...]]:
    """All words of length <= max_len by breadth-first sentential expansion.

    Exact: a sentential form is pruned only when its minimum possible yield
    (terminals plus non-nullable nonterminal occurrences) already exceeds
    ``max_len``.  Raises :class:`OracleOverflow` past ``form_limit`` forms.
    """
    rules_by_lhs: dict[str, list[tuple[str, ...]]] = {}
    for lhs, rhs in g.rules:
        rules_by_lhs.setdefault(lhs, []).append(rhs)
    nonterminals = set(rules_by_lhs)

    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.rules:
            if lhs not in nullable and all(
                    s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True

    def min_yield(form: tuple[str, ...]) -> int:
        return sum(0 if s in nullable else 1 for s in form)

    words: set[tuple[str, ...]] = set()
    seen: set[tuple[str, ...]] = set()
    frontier = deque([(g.start,)])
    seen.add(frontier[0])
    processed = 0
    while frontier:
        form = frontier.popleft()
        processed += 1
        if processed > form_limit:
            raise OracleOverflow(f"more than {form_limit} sentential forms")
        expand_at = next((i for i, s in enumerate(form)
                          if s in nonterminals), None)
        if expand_at is None:
            if len(form) <= max_len:
                words.add(form)
            continue
        head, nt, tail = form[:expand_at], form[expand_at], form[expand_at + 1:]
        for rhs in rules_by_lhs.get(nt, ()):
            nxt = head + rhs + tail
            if min_yield(nxt) > max_len or nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    words.discard(())
    return words


def random_epsfree_grammar(rng: random.Random, *,
                           max_nonterminals: int = 4,
                           max_rules: int = 6,
                           terminals: tuple[str, ...] = ("a", "b"),
                           ) -> Grammar:
    """Random grammar with no epsilon rules; may still be partly useless.

    Every nonterminal that appears anywhere gets at least one rule, so the
    result always passes grammar validation; the language can still be
    empty (callers filter when they need words).
    """
    n_nt = rng.randint(1, max_nonterminals)
    nts = [f"N{i}" for i in range(n_nt)]
    rules: list[tuple[str, tuple[str, ...]]] = []
    for i in range(rng.randint(1, max_rules)):
        lhs = nts[0] if i == 0 else rng.choice(nts)
        rhs = tuple(rng.choice(nts) if rng.random() < 0.45
                    else rng.choice(terminals)
                    for _ in range(rng.randint(1, 3)))
        rules.append((lhs, rhs))
    have = {lhs for lhs, _ in rules}
    referenced = {s for _, rhs in rules for s in rhs if s in set(nts)}
    for nt in sorted(referenced - have):
        rules.append((nt, (rng.choice(terminals),)))
    return Grammar(tuple(rules), nts[0])


def words_up_to(letters: tuple[str, ...], max_len: int):
    for n in range(1, max_len + 1):
        yield from itertools.product(sorted(letters), repeat=n)
