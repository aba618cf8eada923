"""Seeded inputs for the three workloads.

Everything here is plain data generation: grammars as text, word lists and a
stream of sequent texts.  The program under test only ever sees these
generated inputs, never the seed.
"""

from __future__ import annotations

import itertools
import random

from lambekstar import (Atom, Over, Plus, Prod, Sequent, Star, Under,
                        division_pure, instances, render_sequent,
                        sequence_image)

DYCK = "S -> a S b S | a b S | a S b | a b"
G3 = "S -> a S B | a B\nB -> b"
FINITE = "S -> a B\nB -> b"

# compile-equiv: grammar -> (text, {lexicon: max word length}); every word
# up to that length is one ``accepts`` call, checked against CYK.  A grammar
# with a unique lexicon is compiled cold by compile_unique.  Lengths are set
# so that a cycle (both compiles and one pass over every word) takes about
# half a second, to fit some fifty cycles in a 30 s run: unique-type words
# of length 4 double it, and Dyck's classical lexicon takes 1.2 s at length
# 4.  Compiles of a second or more (the lifted universal grammar: 10 s,
# Dyck: 3 s) cannot be repeated often enough in a run to give a steady best
# time on a shared host, so only Dyck's classical lexicon is used;
# unique-type acceptance on Dyck would take minutes anyway.
COMPILE = {
    "dyck": (DYCK, {"gaifman": 3}),
    "g3": (G3, {"unique": 3, "gaifman": 4}),
    "finite": (FINITE, {"unique": 3, "gaifman": 4}),
}
SMOKE_COMPILE = {
    "g3": (G3, {"unique": 3, "gaifman": 3}),
    "finite": (FINITE, {"unique": 3, "gaifman": 3}),
}

# alt2-lifted: grammar text and alternation word length bound; the grammar
# is lifted with total_plus_to_alt2.  On a shared host only the best of many
# short repeats is steady from run to run, so the grammar is the smallest
# that runs the whole path: a cold compile, a proof of ab and an exhaustive
# refutation of the witness aab, on unique types of 531 and 575 nodes, in
# about 0.2 s.  (The lifted universal grammar needs 10 s to
# compile and 20 s for its first word; lifted G3 takes about a second.)
ALT2 = (FINITE, 3)
SMOKE_ALT2 = (FINITE, 2)

ATOMS = ("p", "q", "r")
STREAM_ITEMS = 1500
SMOKE_STREAM_ITEMS = 30


def all_words(letters, max_len: int):
    """Every non-empty word over ``letters`` up to ``max_len``, length-lex."""
    for n in range(1, max_len + 1):
        yield from itertools.product(sorted(letters), repeat=n)


def alternation_words(a1: str, a2: str, max_len: int) -> list[tuple]:
    """Words a1^n1 a2^m1 ... a1^nk a2^mk (all exponents >= 1), length-lex."""
    return [w for w in all_words((a1, a2), max_len)
            if w[0] == a1 and w[-1] == a2
            and sum(1 for x, y in zip(w, w[1:]) if x != y) % 2 == 1]


# --------------------------------------------------------------------------
# the small-sequent stream

def _division(rng: random.Random, size: int):
    if size <= 1:
        return Atom(rng.choice(ATOMS))
    left = rng.randint(1, size - 1)
    a = _division(rng, left)
    b = _division(rng, size - left)
    return Under(a, b) if rng.random() < 0.5 else Over(a, b)


def _star_external(rng: random.Random, size: int, depth: int = 2):
    """Products, ``^*`` and ``^+`` over division-pure leaves."""
    if size <= 1:
        return Atom(rng.choice(ATOMS))
    roll = rng.random()
    if roll < 0.35 and depth > 0:
        inner = _star_external(rng, size - 1, depth - 1)
        return Star(inner) if rng.random() < 0.5 else Plus(inner)
    if roll < 0.7 and size >= 3:
        left = rng.randint(1, size - 2)
        return Prod(_star_external(rng, left, depth),
                    _star_external(rng, size - 1 - left, depth))
    return _division(rng, min(size, 3))


def _focused(rng: random.Random) -> Sequent:
    """Division-pure sequents that get past the free-group image test."""
    roll = rng.random()
    if roll < 0.3:
        f = _division(rng, rng.randint(4, 9))
        return Sequent((f,), f)
    if roll < 0.6:
        chain = [Atom(rng.choice(ATOMS)) for _ in range(rng.randint(3, 6))]
        return Sequent(tuple(Under(a, b) for a, b in zip(chain, chain[1:])),
                       Under(chain[0], chain[-1]))
    while True:     # zero-balanced: antecedent and succedent images agree
        ant = tuple(_division(rng, rng.randint(1, 5))
                    for _ in range(rng.randint(1, 3)))
        succ = _division(rng, rng.randint(1, 7))
        if sequence_image(ant) == sequence_image((succ,)):
            return Sequent(ant, succ)


def _star_instance(rng: random.Random) -> Sequent:
    """``inst -> f`` for a star-external ``f`` that is not division-pure."""
    while True:
        f = _star_external(rng, rng.randint(3, 7))
        if division_pure(f):
            continue
        insts = [i for i in instances(f, 2) if len(i) <= 5]
        if insts:
            return Sequent(rng.choice(insts), f)


def sequent_stream(seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` (kind, sequent text) items, kinds in equal thirds.

    ``focused`` sequents go to the focused kernel, ``general`` star
    instances to the general engine, and each ``certify`` item passes the
    preceding ``general`` instance to ``instance_soundness``.
    """
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(("focused", render_sequent(_focused(rng))))
        elif i % 3 == 1:
            out.append(("general", render_sequent(_star_instance(rng))))
        else:
            out.append(("certify", out[-1][1]))
    return out
