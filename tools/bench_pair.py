#!/usr/bin/env python3
"""Benchmark a change against its parent commit and write BENCH_<name>.json.

Usage (from anywhere inside a checkout):

    python3 tools/bench_pair.py NAME [--parent REV] [--what TEXT]

The parent (``REV``, default ``HEAD``) is exported with ``git archive`` and
the working tree (tracked and untracked files that git does not ignore) is
copied, each to its own temporary directory, so that both sides run from
fresh checkouts without bytecode caches.  Then, in each checkout:

* ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``
  and seeds 1..10, odd seeds running the parent first and even
  seeds the change first, with the run length of ``BENCHMARK.json``;
* ``perfbench/run.py --trace 1`` for every workload and seeds 1..10, in
  the same alternating order, for the per-layer metrics;
* ``refute_alt2`` on the lifted universal grammar
  ``total_plus_to_alt2(S -> a S | b S | a | b)`` to lengths 4, 6 and 8, in
  a fresh process and session, compile included, two rounds alternating
  sides;
* ``compile_unique`` of the grammar ``S -> A S b | b; A -> a A | ``
  (unique types of 1,879 and 3,379 nodes), once per side, in a fresh
  process;
* ``parse_formula`` of the 2,000-deep ``p\\p\\...\\p``, once per side, in
  a fresh process, recording its seconds or, when it raises, the
  exception's class name (a recursive parser gives ``RecursionError``);
* ``equivalence_harness(g, "safiullin", 3)`` on the grammar
  ``random_epsfree_grammar(random.Random(14), max_nonterminals=3,
  max_rules=5)`` of ``tests/helpers.py``, once per side, in a fresh
  process;
* the tier-1 tests, once per side.

Peak RSS of the one-off runs is ``ru_maxrss`` of the process that ran
them.  The file is rewritten after every run, so an interrupted session
leaves what it measured.  Summaries give, per workload and end-to-end
metric, each side's median and quartiles (inclusive method), the ratio of
medians, the pairs the change wins (ties count for neither side), the gap
between the medians and the parent's quartile spread; the end-to-end
metrics go in ``summary`` and the per-layer ones of the traced runs in
``traced_summary`` (a ratio is null where the parent's median is 0, a
layer the workload does not reach).  Nothing under
``perfbench/`` and no part of ``BENCHMARK.json`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BOUNDS = (4, 6, 8)
ROUNDS = 2
SEEDS = 10

UNIVERSAL = """
import json, resource, time
from lambekstar import (ProverSession, parse_cfg, refute_alt2,
                        total_plus_to_alt2)
g = total_plus_to_alt2(parse_cfg("S -> a S\\nS -> b S\\nS -> a\\nS -> b"))
session = ProverSession()
t0 = time.perf_counter()
w = refute_alt2(g, {bound}, session=session)
seconds = time.perf_counter() - t0
print(json.dumps({{
    "bound": {bound}, "witness": None if w is None else " ".join(w.word),
    "seconds": round(seconds, 2), "steps": session.steps_used,
    "memo_entries": len(session.memo),
    "peak_rss_mb": round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}}))
"""

COMPILE = """
import json, resource, time
from lambekstar import ProverSession, compile_unique, parse_cfg, to_gnf2
g = to_gnf2(parse_cfg("@start S\\nS -> A S b | b\\nA -> a A | "))
session = ProverSession()
t0 = time.perf_counter()
compile_unique(g, session=session)
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": round(seconds, 3), "steps": session.steps_used,
    "memo_entries": len(session.memo),
    "peak_rss_mb": round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""

DEEP_PARSE = """
import json, time
from lambekstar import parse_formula
text = "p\\\\" * 2000 + "p"
t0 = time.perf_counter()
try:
    parse_formula(text)
    out = {"seconds": round(time.perf_counter() - t0, 3)}
except Exception as e:
    out = {"exception": type(e).__name__}
print(json.dumps(out))
"""

EQUIVALENCE = """
import json, random, resource, sys, time
sys.path.insert(0, "tests")
from helpers import random_epsfree_grammar
from lambekstar import equivalence_harness
g = random_epsfree_grammar(random.Random(14), max_nonterminals=3,
                           max_rules=5)
lhs = {}
for a, rhs in g.rules:
    lhs.setdefault(a, []).append(" ".join(rhs))
text = "; ".join(a + " -> " + " | ".join(r) for a, r in lhs.items())
t0 = time.perf_counter()
rep = equivalence_harness(g, "safiullin", 3)
seconds = time.perf_counter() - t0
print(json.dumps({
    "grammar": text, "ok": rep.ok, "words": len(rep.results),
    "error": rep.error,
    "seconds": round(seconds, 1),
    "peak_rss_mb": round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_parent(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: pathlib.Path) -> None:
    listed = git("ls-files", "--cached", "--others", "--exclude-standard",
                 "-z")
    for rel in filter(None, listed.split("\0")):
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def env_for(tree: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(tree / "src")
    return env


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def perfbench(tree: pathlib.Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env_for(tree), capture_output=True, text=True)
    if not proc.stdout.strip():
        return {"correct": False, "error": proc.stderr.strip()[-2000:],
                "exit": proc.returncode}
    return last_json(proc.stdout)


def snippet(tree: pathlib.Path, code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=env_for(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:]}
    return last_json(proc.stdout)


def tier1(tree: pathlib.Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env_for(tree), capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (\w+)", tail)}
    m = re.search(r"in ([\d.]+)s", tail)
    return {"tests": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)
            + counts.get("errors", 0),
            "seconds": float(m.group(1)) if m else None, "summary": tail}


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {}
    for wl in sorted({r["workload"] for r in runs}):
        by_seed: dict = {}
        for r in runs:
            if r["workload"] == wl and "metrics" in r["result"]:
                by_seed.setdefault(r["seed"], {})[r["side"]] = \
                    r["result"]["metrics"]
        pairs = [v for v in by_seed.values() if len(v) == 2]
        if len(pairs) < 2:
            continue
        out[wl] = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            par = [v["parent"][name]["value"] for v in pairs]
            chg = [v["change"][name]["value"] for v in pairs]
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(par, chg))
            ps, cs = quartiles(par), quartiles(chg)
            out[wl][name] = {
                "parent": ps, "change": cs,
                "ratio_of_medians": (cs["median"] / ps["median"]
                                     if ps["median"] else None),
                "pairs": len(pairs), "change_better_in": wins,
                "median_gap": abs(cs["median"] - ps["median"]),
                "parent_quartile_spread": ps["q3"] - ps["q1"]}
    return out


def stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("name", help="writes BENCH_<name>.json at the root")
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--what", default="",
                    help="one line saying what the change does")
    args = ap.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.name):
        ap.error("NAME may use letters, digits, '_', '.' and '-' only")

    seconds = bench["run_seconds"]
    parent_rev = git("rev-parse", "--short", args.parent).strip()
    dest = ROOT / f"BENCH_{args.name}.json"
    workloads = [w["name"] for w in bench["workloads"]]
    doc = {
        "what": args.what or f"the working tree against {parent_rev}",
        "host": f"{os.cpu_count()}-vCPU {platform.system()} host, Python "
                f"{platform.python_version()}",
        "command": f"python3 {' '.join(bench['command'][1:])} --workload W "
                   f"--seed N --seconds {seconds:g} --trace 0, run "
                   "from fresh checkouts of the parent and of the change "
                   "without bytecode caches",
        "run_order": f"seeds 1-{SEEDS}; for each seed "
                     f"{' then '.join(workloads)}; odd seeds run the parent "
                     "first, even seeds the change first (position_in_pair); "
                     "then the same order again with --trace 1 "
                     "(traced_cycles)",
        "runs": [], "summary": {}, "traced_cycles": [],
        "traced_summary": {},
        "universal_grammar": {
            "what": "refute_alt2(total_plus_to_alt2(S -> a S | b S | a | b)"
                    ", bound) in a fresh process and session, compile "
                    f"included; {ROUNDS} rounds, alternating sides",
            "runs": []},
        "compile_large_grammar": {
            "what": "compile_unique(to_gnf2(S -> A S b | b; A -> a A | )) "
                    "in a fresh process and session; one run per side, "
                    "parent first",
            "runs": []},
        "deep_parse": {
            "what": "parse_formula of the 2,000-deep p\\p\\...\\p in a "
                    "fresh process: seconds, or the exception's class name; "
                    "one run per side, parent first",
            "runs": []},
        "equivalence_harness_large_grammar": {
            "what": "equivalence_harness(random_epsfree_grammar("
                    "random.Random(14), max_nonterminals=3, max_rules=5), "
                    "'safiullin', 3) in a fresh process; one run per side, "
                    "parent first",
            "runs": []},
        "tier1": {"what": "python -B -m pytest -q -p no:cacheprovider "
                          "--continue-on-collection-errors in each checkout, "
                          "pytest's reported time; parent first",
                  "runs": []},
    }

    def save() -> None:
        doc["summary"] = summarise(doc["runs"], bench["end_to_end"])
        doc["traced_summary"] = summarise(doc["traced_cycles"],
                                          bench["per_layer"])
        dest.write_text(json.dumps(doc, indent=1) + "\n")

    def paired_runs(trace: int, into: list) -> None:
        for seed in range(1, SEEDS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for wl in workloads:
                for pos, side in enumerate(order, 1):
                    res = perfbench(trees[side], wl, seed, seconds, trace)
                    into.append({
                        "side": side, "workload": wl, "seed": seed,
                        "position_in_pair": pos, "finished": stamp(),
                        "result": res})
                    save()

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in SIDES}
        for t in trees.values():
            t.mkdir()
        export_parent(args.parent, trees["parent"])
        export_worktree(trees["change"])

        paired_runs(0, doc["runs"])
        paired_runs(1, doc["traced_cycles"])
        for rnd in range(ROUNDS):
            for side in (SIDES if rnd % 2 == 0 else SIDES[::-1]):
                for bound in BOUNDS:
                    res = snippet(trees[side], UNIVERSAL.format(bound=bound))
                    doc["universal_grammar"]["runs"].append(
                        {**res, "side": side})
                    save()
        for side in SIDES:
            res = snippet(trees[side], COMPILE)
            doc["compile_large_grammar"]["runs"].append({**res, "side": side})
            save()
        for side in SIDES:
            res = snippet(trees[side], DEEP_PARSE)
            doc["deep_parse"]["runs"].append({**res, "side": side})
            save()
        for side in SIDES:
            res = snippet(trees[side], EQUIVALENCE)
            doc["equivalence_harness_large_grammar"]["runs"].append(
                {**res, "side": side})
            save()
            doc["tier1"]["runs"].append({"side": side,
                                         **tier1(trees[side])})
            save()
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
