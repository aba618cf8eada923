"""Golden digest: prover and compiler output, byte for byte.

Pruning, memo and refactoring changes to the provers or the compiler must
leave every verdict, every rendered derivation and every compiled lexicon
as it was.  One SHA-256 over a seeded corpus pins all of them in both
restriction modes:

* random division-pure sequents, and zero-balanced ones that need real
  search (the focused kernel);
* sequents with products and units, and the bounded instances of random
  *-external formulas against their sources and against each other (the
  kernel outside the division fragment);
* the ``compile_unique`` lexicons and goals of the grammar literals used
  across the test suite, and of the alternation lifts of its two-letter
  ones.

A change that moves the digest changed what the package computes; it must
say so and re-pin ``GOLDEN``.  On a mismatch, ``golden_lines`` gives the
lines to diff against the parent commit's.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from lambekstar import (LambekError, Prod, ProverSession, Sequent, Unit,
                        compile_unique, fg_interp, instances, parse_cfg,
                        prove, render_derivation, render_formula,
                        render_sequent, sequence_image, to_gnf2,
                        total_plus_to_alt2)

from helpers import (random_division_pure, random_division_sequent,
                     random_star_external)

GOLDEN = "26b07a4928ffb516156d4745735757d33984b52f74efaf470ce06729ae2975b2"

SEED = 20261018

GRAMMARS = (
    "N0 -> a",
    "S -> a",
    "S -> a S\nS -> a",
    "S -> a\nS -> a S\nS -> a",
    "S -> a B\nB -> b",
    "S -> a S B\nS -> a B\nB -> b",
    "S -> a\nS -> b b",
    "S -> a S\nS -> b S\nS -> a\nS -> b",
    "S -> S a",
    "@start S\nS -> a\nB -> c",
    "@start S\nS -> a S b | a b",
    "@start S\nS -> A B\nA -> a | \nB -> b | S",
    "@start S\nS -> A S b | b\nA -> a A | ",
    "@start S\nS -> a A b\nA -> a | ",
    "@start E\nE -> E p T | T\nT -> a",
    "@start SP\nSP -> a | b",
)

LIFTED = (
    "S -> a B\nB -> b",
    "S -> a\nS -> b b",
)


def sequent_corpus() -> list[Sequent]:
    rng = random.Random(SEED)
    out = [random_division_sequent(rng, 12) for _ in range(400)]
    while len(out) < 600:
        s = random_division_sequent(rng, 14, 5, ("p", "q"))
        if sequence_image(s.antecedent) == fg_interp(s.succedent):
            out.append(s)
    for k in range(150):
        x, y, z = (random_division_pure(rng, rng.randint(1, 3), ("p", "q"))
                   for _ in range(3))
        out.append((Sequent((x, y), Prod(x, y)),
                    Sequent((x, Unit(), y), Prod(y, x)),
                    Sequent((Prod(x, y), z), Prod(x, Prod(y, z))),
                    Sequent((x, Prod(y, z)), Prod(z, x)))[k % 4])
    sources = [random_star_external(rng, rng.randint(2, 6))
               for _ in range(30)]
    for f, g in zip(sources, sources[1:] + sources[:1]):
        for inst in tuple(instances(f, 2))[:3]:
            out.append(Sequent(inst, f))
            out.append(Sequent(inst, g))
    return out


def golden_lines() -> list[str]:
    lines = []
    for restricted in (False, True):
        for s in sequent_corpus():
            head = f"{int(restricted)} {render_sequent(s)} "
            try:
                res = prove(s, restricted=restricted,
                            session=ProverSession(restricted))
            except LambekError as e:
                lines.append(head + type(e).__name__)
                continue
            lines.append(head + res.verdict)
            if res.proved:
                lines.append(render_derivation(res.derivation))
    grammars = [parse_cfg(t) for t in GRAMMARS]
    grammars += [total_plus_to_alt2(parse_cfg(t)) for t in LIFTED]
    for g in grammars:
        lines.append(str(g))
        try:
            cg = compile_unique(to_gnf2(g))
        except LambekError as e:
            lines.append(type(e).__name__)
            continue
        lines += [f"{a} : {render_formula(f)}"
                  for a, f in sorted(cg.lexicon.items())]
        lines.append(f"goal : {render_formula(cg.goal)}")
    return lines


@pytest.mark.filterwarnings("ignore:the grammar generates the empty language")
def test_golden_digest():
    text = "\n".join(golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN
