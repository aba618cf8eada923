"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Each test computes its verdict, records a summary line for the terminal
report, then asserts.  Randomness is seeded so the gate is reproducible.
"""
from __future__ import annotations

import random
import time
import warnings

from lambekstar import (
    Atom,
    Sequent,
    Unit,
    approximate,
    check_approximations,
    compile_gaifman,
    compile_unique,
    cyk_member,
    division_pure,
    equivalence_harness,
    fg_interp,
    instance_soundness,
    instances,
    naive_prove,
    parse_cfg,
    parse_sequent,
    prove,
    refute_alt2,
    sequence_image,
    to_gnf2,
    total_plus_to_alt2,
)
from lambekstar.checker import assert_valid_derivation, check_derivation
from lambekstar.formula import Formula
from lambekstar.prover import _general

from conftest import audit_recorder, record_criterion
from helpers import (
    random_division_sequent,
    random_epsfree_grammar,
    random_star_external,
    sequent_star_polarities,
    words_up_to,
)

SEED = 20260814

G1 = "N0 -> a"
G2 = "S -> a S\nS -> a"
G3 = "S -> a S B\nS -> a B\nB -> b"


def test_criterion_01_engine_agreement():
    rng = random.Random(SEED)
    start = time.monotonic()
    cases = [random_division_sequent(rng, max_size=12) for _ in range(500)]
    # zero-balanced draws (antecedent image equal to the succedent's),
    # which the image test cannot refute, so that every engine searches
    while len(cases) < 800:
        s = random_division_sequent(rng, 14, 5, ("p", "q"))
        if sequence_image(s.antecedent) == fg_interp(s.succedent):
            cases.append(s)
    n = len(cases)
    agreements = 0
    for s in cases:
        a = prove(s).proved
        d = _general(s.antecedent, s.succedent, {}, [10 ** 6], False)
        b = d is not None
        c = naive_prove(s)
        if a == b == c and (d is None or (d.conclusion == s
                                          and check_derivation(d))):
            agreements += 1
    elapsed = time.monotonic() - start
    ok = agreements == n and elapsed < 300
    record_criterion(1, ok, f"three engines agree on {agreements}/{n} "
                            f"random division-pure sequents in {elapsed:.1f}s")
    assert ok


def test_criterion_02_pinned_sequents():
    pins = [
        ("-> p/p", False, True),
        ("(p\\p)\\q -> q", False, True),
        ("(p\\p)\\q -> q", True, False),
        ("p -> p", False, True),
        ("p -> p", True, True),
        ("-> p", False, False),
        ("-> p", True, False),
        ("p, p -> p", False, False),
        ("p, p -> p", True, False),
        ("-> 1", False, True),
    ]
    failures = []
    worst = 0.0
    for text, restricted, want in pins:
        t0 = time.monotonic()
        got = prove(parse_sequent(text), restricted=restricted).proved
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        if got is not want or dt > 1.0:
            failures.append(f"{text} (restricted={restricted})")
    ok = not failures
    record_criterion(2, ok, f"{len(pins)} pinned verdicts, slowest "
                            f"{worst * 1000:.0f}ms" if ok
                     else f"failed: {', '.join(failures)}")
    assert ok, failures


def test_criterion_04_instance_certificates():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(100):
        f = random_star_external(rng, rng.randint(1, 8))
        for inst in instances(f, 3):
            cert = instance_soundness(f, inst)
            assert check_derivation(cert)
            checked += 1
    ok = checked > 100
    record_criterion(4, ok, f"{checked} instance certificates across 100 "
                            f"random *-external formulas all check")
    assert ok


def test_criterion_05_compiled_grammars_match_cyk():
    start = time.monotonic()
    mismatch_total = 0
    runs = []
    for text, max_len in ((G1, 4), (G2, 4), (G3, 6)):
        g = parse_cfg(text)
        for method in ("safiullin", "gaifman"):
            rep = equivalence_harness(g, method=method, max_len=max_len)
            assert rep.error is None, rep.error
            mismatch_total += len(rep.mismatches)
            runs.append(f"{g.start}/{method}:{len(rep.results)}w")
        # replay the join certificates embedded in the unique compile
        cg = compile_unique(to_gnf2(g))
        for parts in cg.parts.values():
            for cert in (parts.f, parts.g):
                for row, w in zip(cert.problem.inputs, cert.witnesses):
                    assert w.conclusion == Sequent(row, cert.join)
                    assert_valid_derivation(w)
    elapsed = time.monotonic() - start
    ok = mismatch_total == 0 and elapsed < 1800
    record_criterion(5, ok, f"0 CYK/prover mismatches over {', '.join(runs)} "
                            f"with joins replayed, {elapsed:.1f}s")
    assert ok


def test_criterion_06_lexicon_sizes():
    gnf = to_gnf2(parse_cfg(G3))
    cg = compile_unique(gnf)
    unique_ok = all(isinstance(f, Formula) for f in cg.lexicon.values())
    lg = compile_gaifman(gnf)
    contrast_ok = max(len(v) for v in lg.lexicon.values()) >= 2
    ok = unique_ok and contrast_ok
    record_criterion(6, ok, "unique compile assigns exactly one type per "
                            "letter; classical compile needs "
                            f"{max(len(v) for v in lg.lexicon.values())} "
                            "types for one letter of the pair language")
    assert ok


def test_criterion_07_gnf_preserves_language():
    rng = random.Random(SEED)
    compared = 0
    grammars = 0
    attempts = 0
    while grammars < 10 and attempts < 200:
        attempts += 1
        g = random_epsfree_grammar(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gnf = to_gnf2(g)
        if not gnf.rules:  # empty language: nothing to compare against
            continue
        grammars += 1
        back = gnf.to_grammar()
        for w in words_up_to(("a", "b"), 8):
            assert cyk_member(g, w) == cyk_member(back, w), (g, w)
            compared += 1
    ok = grammars == 10
    record_criterion(7, ok, f"{grammars} random ε-free grammars, "
                            f"{compared} word comparisons up to length 8, "
                            f"no divergence")
    assert ok


def test_criterion_08_approximation_contract():
    same = check_approximations(parse_sequent("p^* -> p^*"), up_to=5)
    drop = check_approximations(parse_sequent("p^* -> p"), up_to=5)
    shape_ok = True
    rng = random.Random(SEED)
    for _ in range(50):
        f = random_star_external(rng, rng.randint(1, 8))
        s = approximate(Sequent((f,), Atom("p")), rng.randint(0, 4))
        if False in sequent_star_polarities(s):
            shape_ok = False
    ok = (not same.refuted) and drop.verdict == "Refuted(0)" and shape_ok
    record_criterion(8, ok, "p^* -> p^* unrefuted through level 5; "
                            "p^* -> p refuted at level 0; approximations "
                            "never emit a negative star (50 samples)")
    assert ok


def test_criterion_09_alternation_refutation():
    start = time.monotonic()
    w = refute_alt2(parse_cfg("S -> a B\nB -> b"), word_len_bound=6)
    witness_ok = w is not None and w.word == ("a", "a", "b")
    universal = parse_cfg("S -> a S\nS -> b S\nS -> a\nS -> b")
    survivor = refute_alt2(total_plus_to_alt2(universal), word_len_bound=4)
    elapsed = time.monotonic() - start
    ok = witness_ok and survivor is None and elapsed < 600
    record_criterion(9, ok, "finite language refuted by witness 'a a b'; "
                            "lifted total language survives every "
                            f"alternation word to length 4; {elapsed:.0f}s")
    assert ok


def test_criterion_03_balance_necessity_audit():
    rec = audit_recorder()
    ok = rec.fg_checked > 0 and not rec.violations
    record_criterion(3, ok, f"{rec.fg_checked} division-fragment proofs "
                            f"re-checked for group balance, "
                            f"{len(rec.violations)} violations")
    assert ok


def test_criterion_10_certificate_audit():
    rec = audit_recorder()
    ok = rec.proved == rec.audited > 0 and not rec.violations
    record_criterion(10, ok, f"{rec.audited}/{rec.proved} successful proofs "
                             f"re-validated rule-by-rule, "
                             f"{len(rec.violations)} violations")
    assert ok
