"""Batch command-line surface over the workbench.

Verbs: ``fmt``, ``prove``, ``fg``, ``gnf``, ``member``, ``compile``,
``equiv``, ``approx``, ``instances``, ``refute-alt2``, ``probe``.  Each is
a thin adapter over one library call with the same parameters.

Exit codes: 0 — computed, positive or neutral outcome; 1 — negative
verdict (refuted sequent, non-member word, mismatch, witness,
disagreement); 2 — usage, parse, fragment, or grammar error; 3 — search
budget exhausted before a verdict (raise ``--budget``).

Budget defaults are explicit: prover expansion budget 10^6 steps,
instance bound 3, approximation depth 3.  Bounded negative searches that
find nothing say so without claiming derivability or equivalence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .cfg import (Grammar, GrammarError, cyk_member, parse_cfg, render_cfg,
                  to_gnf2)
from .checker import assert_valid_derivation
from .compiler import (CompiledGrammar, accepts, compile_gaifman,
                       compile_unique)
from .formula import (BudgetError, Derivation, LambekError, Sequent,
                      fg_interp, parse_formula, parse_sequent,
                      render_derivation, render_formula, render_sequent,
                      sequence_image)
from .prover import DEFAULT_BUDGET, prove
from .reductions import conjecture_probe, equivalence_harness, refute_alt2
from .stars import check_approximations, check_instances, instances

__all__ = ["main"]


def _emit(args: argparse.Namespace, record: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(record, sort_keys=True))
    elif text:
        print(text)


def _derivation_record(d: Derivation) -> dict:
    return {
        "rule": d.rule,
        "sequent": render_sequent(d.conclusion),
        "premises": [_derivation_record(p) for p in d.premises],
    }


def _read_grammar(path: str) -> Grammar:
    """The grammar in a UTF-8 file, or on stdin for ``-``."""
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        name = "stdin" if path == "-" else path
        raise GrammarError(f"{name} is not UTF-8: {e.reason} at byte "
                           f"{e.start}") from None
    return parse_cfg(text)


def _split_word(raw: str, terminals: Sequence[str]) -> tuple[str, ...]:
    """Space-separated tokens; a single unknown token falls back to chars."""
    tokens = tuple(raw.split())
    if len(tokens) == 1 and tokens[0] not in terminals:
        chars = tuple(tokens[0])
        if all(c in terminals for c in chars):
            return chars
    return tokens


# --------------------------------------------------------------------------
# verb handlers
# --------------------------------------------------------------------------

def _cmd_fmt(args: argparse.Namespace) -> int:
    if "->" in args.input:
        s = parse_sequent(args.input)
        rendered = render_sequent(s)
        kind = "sequent"
    else:
        rendered = render_formula(parse_formula(args.input))
        kind = "formula"
    _emit(args, {"kind": kind, "rendered": rendered}, rendered)
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    s = parse_sequent(args.input)
    result = prove(s, restricted=args.restrict, budget=args.budget)
    record: dict = {"sequent": render_sequent(s), "verdict": result.verdict}
    lines = [result.verdict]
    if result.proved:
        assert_valid_derivation(result.derivation, restricted=args.restrict)
        lines.append(render_derivation(result.derivation))
        if args.json:
            record["derivation"] = _derivation_record(result.derivation)
        if args.emit_cert:
            with open(args.emit_cert, "w", encoding="utf-8") as fh:
                fh.write(render_derivation(result.derivation) + "\n")
            lines.append(f"certificate written to {args.emit_cert}")
    _emit(args, record, "\n".join(lines))
    return 0 if result.proved else 1


def _cmd_fg(args: argparse.Namespace) -> int:
    if "->" in args.input:
        s = parse_sequent(args.input)
        ante = sequence_image(s.antecedent)
        succ = fg_interp(s.succedent)
        balanced = ante == succ
        text = (f"antecedent: {ante}\nsuccedent: {succ}\n"
                f"balanced: {str(balanced).lower()}")
        _emit(args, {"antecedent": str(ante), "succedent": str(succ),
                     "balanced": balanced}, text)
        return 0
    image = fg_interp(parse_formula(args.input))
    _emit(args, {"image": str(image)}, str(image))
    return 0


def _cmd_gnf(args: argparse.Namespace) -> int:
    gnf = to_gnf2(_read_grammar(args.grammar))
    rendered = render_cfg(gnf.to_grammar())
    _emit(args, {"start": gnf.start, "rendered": rendered,
                 "rules": [list(r) for r in gnf.rules]}, rendered)
    return 0


def _cmd_member(args: argparse.Namespace) -> int:
    g = _read_grammar(args.grammar)
    word = _split_word(args.word, g.terminals)
    verdict = cyk_member(g, word)
    _emit(args, {"word": list(word), "member": verdict},
          f"member: {str(verdict).lower()}")
    return 0 if verdict else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    gnf = to_gnf2(_read_grammar(args.grammar))
    record: dict = {"method": args.method}
    join_lines: list[str] = []
    if args.method == "safiullin":
        cg = compile_unique(gnf, budget=args.budget)
        lexicon = {a: (f,) for a, f in sorted(cg.lexicon.items())}
        goal = cg.goal
        if args.emit_joins:
            joins = {a: {"f": render_formula(cg.parts[a].f.join),
                         "g": render_formula(cg.parts[a].g.join)}
                     for a in sorted(cg.parts)}
            record["joins"] = joins
            for a, fg in joins.items():
                join_lines.append(f"join[{a}].f = {fg['f']}")
                join_lines.append(f"join[{a}].g = {fg['g']}")
    else:
        lg = compile_gaifman(gnf)
        lexicon = {a: fs for a, fs in sorted(lg.lexicon.items())}
        goal = lg.goal
    lines = [f"{a} : {render_formula(f)}" for a, fs in lexicon.items()
             for f in fs]
    lines += join_lines
    lines.append(f"goal : {render_formula(goal)}")
    record["lexicon"] = {a: [render_formula(f) for f in fs]
                         for a, fs in lexicon.items()}
    record["goal"] = render_formula(goal)
    _emit(args, record, "\n".join(lines))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    rep = equivalence_harness(_read_grammar(args.grammar), args.method,
                              args.max_len, budget=args.budget)
    record = {"method": rep.method, "max_len": rep.max_len,
              "mismatches": list(rep.mismatches), "error": rep.error,
              "elapsed": round(rep.elapsed, 3),
              "results": [{"word": w, "cyk": c, "lambek": l}
                          for w, c, l in rep.results]}
    lines = []
    for w, c, l in rep.results:
        flag = "" if c == l else "  MISMATCH"
        lines.append(f"{w:16s} cyk={str(c).lower():5s} "
                     f"lambek={str(l).lower():5s}{flag}")
    if rep.error:
        lines.append(f"compile error: {rep.error}")
    lines.append(f"{len(rep.mismatches)} mismatches over "
                 f"{len(rep.results)} words in {rep.elapsed:.2f}s")
    _emit(args, record, "\n".join(lines))
    return 0 if rep.ok else 1


def _cmd_approx(args: argparse.Namespace) -> int:
    s = parse_sequent(args.input)
    out = check_approximations(s, args.n, budget=args.budget)
    record = {"sequent": render_sequent(s), "verdict": out.verdict,
              "level": out.level,
              "approximation": (render_sequent(out.sequent)
                                if out.sequent else None)}
    if out.refuted:
        text = (f"{out.verdict}\napproximation {out.level} underivable: "
                f"{render_sequent(out.sequent)}\n"
                f"the original sequent is underivable")
    else:
        text = (f"Unrefuted\nall approximations 0..{args.n} derivable; "
                f"no conclusion about the full sequent beyond depth "
                f"{args.n}")
    _emit(args, record, text)
    return 1 if out.refuted else 0


def _cmd_instances(args: argparse.Namespace) -> int:
    if "->" in args.input:
        s = parse_sequent(args.input)
        out = check_instances(s, args.bound, budget=args.budget)
        record = {"sequent": render_sequent(s), "verdict": out.verdict,
                  "witness": (render_sequent(out.witness)
                              if out.witness else None)}
        if out.refuted:
            text = (f"Refuted\ninstance underivable: "
                    f"{render_sequent(out.witness)}\n"
                    f"the source sequent is underivable")
        else:
            text = (f"Unrefuted\nall instances within bound {args.bound} "
                    f"derivable; no conclusion beyond the bound")
        _emit(args, record, text)
        return 1 if out.refuted else 0
    f = parse_formula(args.input)
    seqs = instances(f, args.bound)
    rows = [", ".join(render_formula(x) for x in seq) if seq else "Λ"
            for seq in seqs]
    _emit(args, {"formula": render_formula(f), "bound": args.bound,
                 "instances": rows}, "\n".join(rows))
    return 0


def _cmd_refute_alt2(args: argparse.Namespace) -> int:
    g = _read_grammar(args.grammar)
    witness = refute_alt2(g, args.max_len, budget=args.budget)
    if witness is None:
        text = (f"no witness: every alternation word up to length "
                f"{args.max_len} is generated (no conclusion beyond the "
                f"bound)")
        _emit(args, {"witness": None, "max_len": args.max_len}, text)
        return 0
    text = (f"witness word: {' '.join(witness.word)}\n"
            f"refuted instance: {render_sequent(witness.sequent)}\n"
            f"{witness.note}")
    _emit(args, {"witness": list(witness.word), "note": witness.note,
                 "sequent": render_sequent(witness.sequent)}, text)
    return 1


def _cmd_probe(args: argparse.Namespace) -> int:
    gnf = to_gnf2(_read_grammar(args.grammar))
    cg = compile_unique(gnf, budget=args.budget)
    letters = sorted(cg.lexicon)
    if len(letters) != 2:
        raise GrammarError(
            f"probe needs a two-letter alphabet, got {{{', '.join(letters)}}}")
    k1, k2 = (cg.lexicon[a] for a in letters)
    rep = conjecture_probe(k1, k2, cg.goal, args.bound, budget=args.budget)
    lines = []
    for pairs, v1, v2 in rep.rows:
        shape = " ".join(f"{letters[0]}^{n} {letters[1]}^{m}"
                         for n, m in pairs)
        mark = "agree" if v1 == v2 else "DISAGREE"
        lines.append(f"{shape:24s} flat={str(v1).lower():5s} "
                     f"reformulated={str(v2).lower():5s} {mark}")
    lines.append(f"{len(rep.disagreements)} disagreements over "
                 f"{len(rep.rows)} instances")
    lines.append(rep.note)
    record = {"rows": [{"exponents": [list(p) for p in pairs],
                        "flat": v1, "reformulated": v2}
                       for pairs, v1, v2 in rep.rows],
              "disagreements": len(rep.disagreements), "note": rep.note}
    _emit(args, record, "\n".join(lines))
    return 0 if rep.agree else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _count(text: str, least: int = 0) -> int:
    """Type of every integer flag: a budget, bound, length or depth, which
    a negative value would turn into a traceback or a vacuous claim."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}: {n}")
    return n


def _positive(text: str) -> int:
    """A word length or block bound: at 0 there is nothing to check."""
    return _count(text, 1)


def _alternation_length(text: str) -> int:
    """A bound on alternation words, the shortest of which has length 2."""
    return _count(text, 2)


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=_count, default=DEFAULT_BUDGET,
                   help="prover expansion-step budget (default %(default)s)")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit one structured JSON record")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambekstar",
        description="Workbench for the Lambek calculus with iteration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("fmt", help="parse and canonically re-render")
    p.add_argument("input", help="formula or sequent text")
    _add_json(p)
    p.set_defaults(func=_cmd_fmt)

    p = sub.add_parser("prove", help="decide a division-pure or "
                                     "positive-star sequent")
    p.add_argument("input", help="sequent text, e.g. '-> p/p'")
    p.add_argument("--restrict", action="store_true",
                   help="Lambek's restriction: no empty antecedents")
    p.add_argument("--emit-cert", metavar="PATH",
                   help="write the derivation certificate to PATH")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("fg", help="free-group image of a formula or sequent")
    p.add_argument("input")
    _add_json(p)
    p.set_defaults(func=_cmd_fg)

    p = sub.add_parser("gnf", help="convert a grammar to binary GNF")
    p.add_argument("grammar", help="grammar file, or - for stdin")
    _add_json(p)
    p.set_defaults(func=_cmd_gnf)

    p = sub.add_parser("member", help="CYK membership of a word")
    p.add_argument("grammar", help="grammar file, or - for stdin")
    p.add_argument("word", help="space-separated letters (or one "
                                "concatenated word of 1-char letters)")
    _add_json(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("compile", help="compile a grammar to a lexicon")
    p.add_argument("grammar", help="grammar file, or - for stdin")
    p.add_argument("--method", choices=("safiullin", "gaifman"),
                   default="safiullin")
    p.add_argument("--emit-joins", action="store_true",
                   help="also print the synthesized join formulas")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("equiv", help="compare CYK vs compiled acceptance")
    p.add_argument("grammar", help="grammar file, or - for stdin")
    p.add_argument("--method", choices=("safiullin", "gaifman"),
                   default="safiullin")
    p.add_argument("--max-len", type=_positive, default=4)
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("approx", help="refute via polarity approximations")
    p.add_argument("input", help="sequent text")
    p.add_argument("--n", type=_count, default=3,
                   help="largest approximation depth (default %(default)s)")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("instances",
                       help="expand *-external instances, or refute a "
                            "sequent through them")
    p.add_argument("input", help="formula (list) or sequent (check)")
    p.add_argument("--bound", type=_count, default=3,
                   help="star unfolding bound (default %(default)s)")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_instances)

    p = sub.add_parser("refute-alt2",
                       help="search for a missing alternation word")
    p.add_argument("grammar", help="two-letter grammar file, or - for stdin")
    p.add_argument("--max-len", type=_alternation_length, default=6,
                   help="longest alternation word checked")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_refute_alt2)

    p = sub.add_parser("probe",
                       help="bounded comparison against the "
                            "division-only reformulation")
    p.add_argument("grammar", help="two-letter grammar file, or - for stdin")
    p.add_argument("--bound", type=_positive, default=2,
                   help="block count / exponent bound (default %(default)s)")
    _add_budget(p)
    _add_json(p)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse reads an argument that starts with '-' and holds no space
    # as an option, so "->p" would be refused; no option starts with "->",
    # and a leading space makes argparse take the argument as the
    # positional input it is (the parsers skip whitespace)
    argv = [" " + a if a.startswith("->") else a for a in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"budget exhausted: {e} (raise --budget)", file=sys.stderr)
        return 3
    except RecursionError:
        # the parser, the renderers, the checker, the *-external test,
        # identity expansion, derivation hashing and equality, and the
        # star block split keep explicit stacks or loops; the search
        # kernel, the polarity rewrite at prove entry, instance expansion
        # and membership (per formula level), product elimination in joins
        # and the --json derivation record (json.dumps has its own nesting
        # limit) still recurse, once per nesting level or formula
        print("error: input too deep or too long", file=sys.stderr)
        return 2
    except (LambekError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
