#!/usr/bin/env python3
"""Choose the kernel's 64 valuations for the compiler's atoms and print
``formula._CHOSEN_TV``.

Usage (from anywhere inside a checkout):

    python3 tools/choose_valuations.py > table.txt

then paste the printed literal over ``_CHOSEN_TV`` in
``src/lambekstar/formula.py``.  The run is deterministic and takes a few
seconds; re-run it whenever the compiler's atom names change.

* Training set: every ``False`` memo entry of
  ``refute_alt2(total_plus_to_alt2(S -> a S | b S | a | b), 6)`` in one
  session, run with every atom on its plain splitmix64 draw (as if the
  table were empty), each entry read as one whole sequent: ``ant ->
  succ`` for a search state, ``lctx, f, rctx -> succ`` for a peel state.
* Pool: 4,096 valuations.  Valuation ``64b + k`` gives an atom bit ``k``
  of words ``4b .. 4b + 3`` of its name's splitmix64 stream, one word per
  lane, so block ``b = 0`` is the plain draw of ``formula._atom_tv``.
* Choice: greedy maximum cover of the training set for 32 picks, then
  the 32 other valuations that refute the most training states alone;
  ties go to the lowest index.  The 64 chosen valuations, in that order,
  are the bits 0..63 of every lane in the printed table.

Statistics go to stderr.
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from lambekstar import (  # noqa: E402
    ProverSession, compile_unique, parse_cfg, refute_alt2, to_gnf2,
    total_plus_to_alt2,
)
from lambekstar import formula  # noqa: E402
from lambekstar.formula import ATOM, OVER, UNDER, UNIT  # noqa: E402

BLOCKS = 64                            # pool of 64 * BLOCKS valuations
POOL = 64 * BLOCKS
PICKS = 32                             # greedy picks; the rest by cover
CHOSEN = 64
BOUND = 6

_M64 = (1 << 64) - 1
_LANE = (1 << POOL) - 1                # one lane of a pool value
_L01, _L10, _L11 = _LANE << POOL, _LANE << 2 * POOL, _LANE << 3 * POOL
_ID = _LANE | _L11
_FULL = (1 << 4 * POOL) - 1
_COL0, _COL1 = _LANE | _L10, _L01 | _L11
_ROW0, _ROW1 = _LANE | _L01, _L10 | _L11


def stream(name: str, n: int) -> list[int]:
    """The first ``n`` words of the name's splitmix64 stream, seeded by
    FNV-1a of the name as in ``formula._atom_tv``."""
    h = 0xCBF29CE484222325
    for byte in name.encode():
        h = (h ^ byte) * 0x100000001B3 & _M64
    out = []
    for _ in range(n):
        h = h + 0x9E3779B97F4A7C15 & _M64
        z = (h ^ h >> 30) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
        out.append(z ^ z >> 31)
    return out


def plain_tv(name: str) -> int:
    """The atom's value under the plain draw: words 0..3 as its lanes."""
    return sum(w << 64 * lane for lane, w in enumerate(stream(name, 4)))


def pool_tv(name: str) -> int:
    """The atom's value under all pool valuations: four lanes of ``POOL``
    bits, bit ``64b + k`` of lane ``L`` being bit ``k`` of word
    ``4b + L``."""
    words = stream(name, 4 * BLOCKS)
    return sum(words[4 * b + lane] << (POOL * lane + 64 * b)
               for lane in range(4) for b in range(BLOCKS))


def comp(r: int, s: int) -> int:
    """``formula._comp`` with lanes of ``POOL`` bits."""
    a = r & _COL0
    b = s & _ROW0
    c = r & _COL1
    d = s & _ROW1
    return ((a | a << POOL) & (b | b << 2 * POOL)
            | (c | c >> POOL) & (d | d >> 2 * POOL))


def conv(r: int) -> int:
    return r & _ID | (r & _L01) << POOL | (r & _L10) >> POOL


def training_states() -> tuple[list[str], list[tuple[tuple, object]]]:
    """The atom names of the lifted universal lexicon and its goal, and
    the whole sequents ``(ant, succ)`` of the training run's ``False``
    memo entries, run on the plain draw."""
    formula._CHOSEN_TV.clear()
    for f in formula._table.values():
        if f.kind == ATOM:
            f.rv = plain_tv(f.top)
        elif f.kind != UNIT:
            f.rv = None
    universal = parse_cfg("S -> a S\nS -> b S\nS -> a\nS -> b")
    lifted = total_plus_to_alt2(universal)
    session = ProverSession()
    refute_alt2(lifted, BOUND, session=session)
    cg = compile_unique(to_gnf2(lifted), session=session)
    names = sorted(formula.atoms_of(cg.goal, *cg.lexicon.values()))
    states = []
    for key, hit in session.memo.items():
        if hit is False:
            if len(key) == 2:
                states.append(key)
            else:
                lctx, f, rctx, succ = key
                states.append((lctx + (f,) + rctx, succ))
    return names, states


def refuting_masks(states) -> list[int]:
    """Per state, the ``POOL``-bit set of pool valuations that refute it."""
    values: dict = {}

    def value(f):
        v = values.get(f)
        if v is None:
            if f.kind == ATOM:
                v = pool_tv(f.top)
            elif f.kind == UNDER:
                v = comp(conv(value(f.left)), value(f.right) ^ _FULL) ^ _FULL
            elif f.kind == OVER:
                v = comp(value(f.left) ^ _FULL, conv(value(f.right))) ^ _FULL
            else:
                raise ValueError(f"not division-pure: {f}")
            values[f] = v
        return v

    masks = []
    for ant, succ in states:
        acc = _ID
        for f in ant:
            acc = comp(acc, value(f))
        t = acc & (value(succ) ^ _FULL)
        masks.append((t | t >> POOL | t >> 2 * POOL | t >> 3 * POOL) & _LANE)
    return masks


def cover_counts(masks) -> list[int]:
    """How many of ``masks`` have each pool bit set, by bit-sliced adding:
    ``planes[i]`` holds bit ``i`` of every valuation's running count."""
    planes: list[int] = []
    for x in masks:
        i = 0
        while x:
            if i == len(planes):
                planes.append(0)
            c = planes[i]
            planes[i] = c ^ x
            x &= c
            i += 1
    counts = [0] * POOL
    for i, plane in enumerate(planes):
        bits = format(plane, f"0{POOL}b")[::-1]
        for v in range(POOL):
            if bits[v] == "1":
                counts[v] += 1 << i
    return counts


def best(counts, taken, n) -> list[int]:
    """The ``n`` valuations outside ``taken`` with the largest counts,
    lowest index first among equals."""
    free = [v for v in range(POOL) if v not in taken]
    return sorted(free, key=lambda v: (-counts[v], v))[:n]


def choose(masks) -> list[int]:
    """``PICKS`` valuations by greedy maximum cover of ``masks``, then
    the ``CHOSEN - PICKS`` others with the largest single cover."""
    picks: list[int] = []
    left = masks
    for _ in range(PICKS):
        v = best(cover_counts(left), picks, 1)[0]
        picks.append(v)
        left = [m for m in left if not m >> v & 1]
    single = cover_counts(masks)
    return picks + best(single, set(picks), CHOSEN - PICKS)


def chosen_tv(name: str, chosen: list[int]) -> int:
    """The atom's four 64-bit lanes under the chosen valuations, bit ``i``
    of each lane under ``chosen[i]``."""
    pool = pool_tv(name)
    tv = 0
    for lane in range(4):
        bits = pool >> POOL * lane
        for i, v in enumerate(chosen):
            tv |= (bits >> v & 1) << (64 * lane + i)
    return tv


def main() -> int:
    assert plain_tv("p") == formula._atom_tv("p")
    t0 = time.perf_counter()
    names, states = training_states()
    masks = refuting_masks(states)
    chosen = choose(masks)
    any_of = sum(1 << v for v in chosen)
    pool_cut = sum(1 for m in masks if m)
    chosen_cut = sum(1 for m in masks if m & any_of)
    plain_cut = sum(1 for m in masks if m & _M64)
    print(f"{len(states)} training states over {len(names)} atoms; "
          f"refuted by the plain draw {plain_cut}, by the chosen "
          f"valuations {chosen_cut}, by the pool {pool_cut}; "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print("_CHOSEN_TV = {")
    for name in names:
        print(f'    "{name}": 0x{chosen_tv(name, chosen):064x},')
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
