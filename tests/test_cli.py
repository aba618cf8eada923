"""End-to-end tests for the command-line interface (subprocess level)."""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lambekstar import Derivation, ProofResult, cli, parse_sequent

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

AB_GRAMMAR = "S -> a B\nB -> b\n"
ANBN_GRAMMAR = "S -> a S B\nS -> a B\nB -> b\n"


def run_cli(*args: str, stdin: str | bytes | None = None):
    """Run the CLI; output is text unless ``stdin`` is given as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "lambekstar.cli", *args], input=stdin,
        capture_output=True, text=not isinstance(stdin, bytes), env=env,
        timeout=120)


@pytest.fixture()
def ab_file(tmp_path):
    p = tmp_path / "ab.cfg"
    p.write_text(AB_GRAMMAR)
    return str(p)


@pytest.fixture()
def anbn_file(tmp_path):
    p = tmp_path / "anbn.cfg"
    p.write_text(ANBN_GRAMMAR)
    return str(p)


class TestProve:
    def test_provable_sequent_exits_zero(self):
        r = run_cli("prove", "-> p/p")
        assert r.returncode == 0
        assert "Proved" in r.stdout
        assert "[->/]" in r.stdout  # the certificate is printed

    def test_refuted_sequent_exits_one(self):
        r = run_cli("prove", "p -> q")
        assert r.returncode == 1
        assert "Refuted" in r.stdout

    def test_restricted_mode_changes_the_verdict(self):
        wide = run_cli("prove", "(p\\p)\\q -> q")
        narrow = run_cli("prove", "--restrict", "(p\\p)\\q -> q")
        assert wide.returncode == 0
        assert narrow.returncode == 1

    def test_negative_star_is_a_usage_error(self):
        r = run_cli("prove", "p^* -> p")
        assert r.returncode == 2
        assert r.stderr != ""

    def test_json_output_is_machine_readable(self):
        r = run_cli("prove", "--json", "-> p/p")
        rec = json.loads(r.stdout)
        assert rec["verdict"] == "Proved"
        assert rec["derivation"]["rule"] == "->/"

    def test_emit_cert_writes_a_file(self, tmp_path):
        path = tmp_path / "cert.txt"
        r = run_cli("prove", "--emit-cert", str(path), "-> p/p")
        assert r.returncode == 0
        assert str(path) in r.stdout
        assert "[->/]" in path.read_text()

    def test_tiny_budget_exits_three(self):
        r = run_cli("prove", "--budget", "5",
                    "p\\q, q\\r, r\\s, s\\t -> p\\t")
        assert r.returncode == 3
        assert "budget" in r.stderr.lower()

    def test_deeply_nested_input_is_decided(self):
        # parser, kernel and renderer all keep explicit stacks here
        r = run_cli("prove", "p -> " + "p\\" * 2000 + "p")
        assert r.returncode == 1
        assert r.stdout.startswith("Refuted")
        assert r.stderr == ""

    def test_deep_certificate_prints_in_text_mode(self):
        # the JSON record of a derivation recurses, so text mode, which
        # prints the rendered certificate alone, must not build it
        f = "p\\" * 300 + "p"
        r = run_cli("prove", f"{f} -> {f}")
        assert r.returncode == 0
        assert r.stdout.startswith("Proved")
        assert r.stderr == ""

    @pytest.mark.parametrize("text,code,first", [
        ("->1", 0, "Proved"), ("->p", 1, "Refuted"),
    ])
    def test_unspaced_empty_antecedent_is_the_input(self, text, code, first):
        # argparse would read "->1" as an unknown option
        r = run_cli("prove", text)
        assert r.returncode == code
        assert r.stdout.splitlines()[0] == first
        assert r.stdout == run_cli("prove", "-> " + text[2:]).stdout

    def test_long_flat_input_is_a_usage_error(self):
        # flat, but the kernel recursion grows with the antecedent length
        r = run_cli("prove", "p, " + "p\\p, " * 600 + "p\\p -> p")
        assert r.returncode == 2
        assert "too deep or too long" in r.stderr
        assert "Traceback" not in r.stderr

    def test_bad_certificate_is_an_error(self, monkeypatch, capsys):
        forged = Derivation("Ax", parse_sequent("p -> q"))
        monkeypatch.setattr(cli, "prove",
                            lambda *args, **kwargs: ProofResult(True, forged))
        assert cli.main(["prove", "p -> q"]) == 2
        assert "bad [Ax] node" in capsys.readouterr().err


class TestSmallVerbs:
    def test_fmt_unspaced_empty_antecedent(self):
        r = run_cli("fmt", "->p")
        assert r.returncode == 0
        assert r.stdout == "-> p\n"

    def test_fmt_canonicalizes(self):
        r = run_cli("fmt", "q / ( p \\ q )")
        assert r.returncode == 0
        assert r.stdout.strip() == "q/(p\\q)"

    def test_fg_formula_image(self):
        r = run_cli("fg", "p\\q")
        assert r.returncode == 0
        assert "p^-1 q" in r.stdout

    def test_fg_sequent_reports_balance(self):
        r = run_cli("fg", "p, p\\q -> q")
        assert r.returncode == 0
        assert "balanced" in r.stdout

    def test_parse_error_exits_two(self):
        r = run_cli("fmt", "p ^ q")
        assert r.returncode == 2

    def test_unknown_verb_exits_two(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout.strip()


class TestGrammarVerbs:
    def test_gnf_prints_binary_rules(self, anbn_file):
        r = run_cli("gnf", anbn_file)
        assert r.returncode == 0
        assert "S -> a S B" in r.stdout

    def test_gnf_reads_stdin(self):
        r = run_cli("gnf", "-", stdin=AB_GRAMMAR)
        assert r.returncode == 0
        assert "S -> a B" in r.stdout

    def test_member_yes_and_no(self, anbn_file):
        yes = run_cli("member", anbn_file, "aabb")
        no = run_cli("member", anbn_file, "aab")
        assert yes.returncode == 0 and "member" in yes.stdout
        assert no.returncode == 1

    def test_missing_grammar_file_exits_two(self):
        r = run_cli("member", "/nonexistent/g.cfg", "a")
        assert r.returncode == 2

    def test_grammar_that_is_not_utf8_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"S -> a\xff\n")
        for path, data in ((str(bad), b""), ("-", bad.read_bytes())):
            r = run_cli("member", path, "a", stdin=data)
            assert r.returncode == 2, path
            assert r.stderr.startswith(b"error: ") and b"UTF-8" in r.stderr
            assert b"Traceback" not in r.stderr

    def test_compile_gaifman_lists_types(self, anbn_file):
        r = run_cli("compile", "--method", "gaifman", anbn_file)
        assert r.returncode == 0
        assert "a : " in r.stdout and "b : " in r.stdout
        assert "goal : n_s" in r.stdout

    def test_compile_unique_emits_join_report(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text("N0 -> a\n")
        r = run_cli("compile", "--method", "safiullin", "--emit-joins",
                    str(p))
        assert r.returncode == 0
        assert "a : " in r.stdout
        assert "join" in r.stdout.lower()

    def test_equiv_reports_mismatch_count(self, tmp_path):
        p = tmp_path / "reg.cfg"
        p.write_text("S -> a S\nS -> a\n")
        r = run_cli("equiv", "--method", "safiullin", "--max-len", "3",
                    str(p))
        assert r.returncode == 0
        assert "0 mismatches" in r.stdout

    def test_equiv_compile_error_exits_one(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("S -> S a\n")
        r = run_cli("equiv", "--method", "safiullin", str(p))
        assert r.returncode == 1
        assert "no rules" in r.stdout


class TestStarVerbs:
    def test_approx_refutation_exits_one(self):
        r = run_cli("approx", "p^* -> p")
        assert r.returncode == 1
        assert "Refuted(0)" in r.stdout

    def test_approx_unrefuted_is_honest(self):
        r = run_cli("approx", "--n", "4", "p^* -> p^*")
        assert r.returncode == 0
        assert "Unrefuted" in r.stdout
        assert "no conclusion" in r.stdout

    def test_instances_listing_shows_the_empty_row(self):
        r = run_cli("instances", "--bound", "2", "p^*")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert any(line.strip() == "Λ" for line in lines)
        assert any("p, p" in line for line in lines)

    def test_instances_check_exits_one_on_refutation(self):
        r = run_cli("instances", "p^* -> q")
        assert r.returncode == 1
        assert "Refuted" in r.stdout

    def test_refute_alt2_prints_the_witness(self, ab_file):
        r = run_cli("refute-alt2", "--max-len", "4", ab_file)
        assert r.returncode == 1
        assert "a a b" in r.stdout

    def test_probe_reports_agreement(self, ab_file):
        r = run_cli("probe", "--bound", "1", ab_file)
        assert r.returncode == 0
        assert "agree" in r.stdout

    def test_probe_json_rows(self, ab_file):
        r = run_cli("probe", "--json", "--bound", "1", ab_file)
        rec = json.loads(r.stdout)
        assert rec["rows"][0]["exponents"] == [[1, 1]]


# every integer flag, on the verb that takes it; a grammar path is given
# where the verb needs one, but the flag is refused before it is read
NEGATIVE_FLAGS = [
    ("prove", "p -> p", "--budget"),
    ("compile", "g.cfg", "--budget"),
    ("equiv", "g.cfg", "--budget"),
    ("equiv", "g.cfg", "--max-len"),
    ("approx", "p^* -> p^*", "--budget"),
    ("approx", "p^* -> p^*", "--n"),
    ("instances", "p^* -> p", "--budget"),
    ("instances", "p^* -> p", "--bound"),
    ("refute-alt2", "g.cfg", "--budget"),
    ("refute-alt2", "g.cfg", "--max-len"),
    ("probe", "g.cfg", "--budget"),
    ("probe", "g.cfg", "--bound"),
]


@pytest.mark.parametrize("verb,arg,flag", NEGATIVE_FLAGS)
def test_negative_count_is_a_usage_error(verb, arg, flag, capsys):
    assert cli.main([verb, arg, flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert f"{flag}: must not be negative: -1" in err
    assert "Traceback" not in err


def test_every_integer_flag_is_covered():
    flags = {(verb, flag) for verb, _, flag in NEGATIVE_FLAGS}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for verb, p in sub.choices.items():
        for a in p._actions:
            if a.type in (int, cli._count, cli._positive,
                          cli._alternation_length):
                assert a.type is not int
                assert (verb, a.option_strings[0]) in flags


# bounds under which a verb has nothing to check: no alternation word is
# shorter than 2, and no word or instance block is shorter than 1
@pytest.mark.parametrize("verb,flag,value,least", [
    ("refute-alt2", "--max-len", "0", 2),
    ("refute-alt2", "--max-len", "1", 2),
    ("equiv", "--max-len", "0", 1),
    ("probe", "--bound", "0", 1),
])
def test_vacuous_bound_is_a_usage_error(verb, flag, value, least, ab_file,
                                        capsys):
    assert cli.main([verb, ab_file, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag}: must be at least {least}: {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["prove", "p -> p", "--budget", "0"],
    ["approx", "p^* -> p^*", "--n", "0"],
    ["instances", "p^* -> p", "--bound", "0"],
])
def test_zero_stays_valid(argv):
    assert getattr(cli._build_parser().parse_args(argv),
                   argv[2].lstrip("-")) == 0
