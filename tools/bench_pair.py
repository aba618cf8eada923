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
  the same alternating order, for the per-layer metrics.

Then each one-off run below goes in 10 alternating pairs, the parent
first in odd pairs, every run in a fresh process, and each side's median
and quartiles (inclusive method) of every figure are recorded:

* ``refute_alt2`` on the lifted universal grammar
  ``total_plus_to_alt2(S -> a S | b S | a | b)`` to word-length bounds
  4, 6, 8 and 10, in a fresh session, compile included: seconds, states
  and peak RSS per bound;
* ``import lambekstar`` in a fresh interpreter: the import's seconds (and
  each side's minimum), the modules it adds to ``sys.modules`` (outside
  the package itself), the peak RSS after it (``VmHWM``) and the RSS the
  import adds (``VmRSS`` after minus before);
* ``compile_unique`` of the grammar ``S -> A S b | b; A -> a A | ``
  (unique types of 1,879 and 3,379 nodes): seconds and peak RSS;
* ``parse_formula`` of the 6,000-deep ``p\\p\\...\\p``, then
  ``render_formula``, ``fg_interp`` and ``hash(derive_identity(f))`` of
  the parsed chain, then ``instance_soundness(Star(p), (p,) * 6000)``:
  each one's seconds or, when it raises, the exception's class name (a
  recursive parser, renderer, derivation hash or star block split gives
  ``RecursionError``), and the peak RSS after the render, the image, the
  hash and the star instance (a node that keeps its free-group image
  makes the parse or the image quadratic: about 0.4 to 0.8 s and 155 MB
  at this depth);
* small calls: the best-of-7 per-call microseconds (2,000 calls a
  repeat) of ``prove`` on ``p, p\\q -> q`` and of ``instance_soundness``
  on ``p, q, q -> p.q^*``; the seconds of one ``prove`` of
  ``p, ..., p -> p^*`` with 22 and with 200 times ``p`` (a star's block
  split); and the number of ``Sequent`` and ``Derivation`` objects that
  one pass over the seed-1 stream of the ``small-sequents`` workload
  builds (each item parsed, then proved or certified as the workload
  does), counted by wrapping the two classes' ``__init__`` in that
  process only; in the same pass, the ``stars._membership_cert`` calls
  (wrapped the same way) and the ``steps_used`` of division-pure items
  and of the others (the general engine's), each item proved in a fresh
  session;
* ``equivalence_harness(g, "safiullin", 3)`` on the grammar
  ``random_epsfree_grammar(random.Random(14), max_nonterminals=3,
  max_rules=5)`` of ``tests/helpers.py``: seconds and peak RSS.

Last come the tier-1 tests, once per side.

Every one-off run reads its peak RSS as ``VmHWM`` of its own process,
from ``/proc/self/status``, not from ``ru_maxrss``: Linux keeps
``ru_maxrss`` across ``execve``, so a fresh interpreter would report this
script's own peak whenever that is the larger.  The file is rewritten
after every run, so an interrupted session leaves what it measured.
Summaries give, per workload and end-to-end metric, each side's median
and quartiles (inclusive method), the ratio of medians, the pairs the
change wins (ties count for neither side), the gap between the medians
and the parent's quartile spread; the end-to-end metrics go in
``summary`` and the per-layer ones of the traced runs in
``traced_summary`` (a ratio is null where the parent's median is 0, a
layer the workload does not reach).
Nothing under ``perfbench/`` and no part of ``BENCHMARK.json`` is
changed.
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
BOUNDS = (4, 6, 8, 10)
PAIRS = 10          # perfbench seeds, and alternating pairs of each one-off

# prefixed to every snippet: a field of the snippet's own
# /proc/self/status in MB, for peak RSS (VmHWM) and RSS (VmRSS)
STATUS_MB = """
def status_mb(field):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
"""

UNIVERSAL = """
import json, time
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
    "peak_rss_mb": round(status_mb("VmHWM"), 1)}}))
"""

COMPILE = """
import json, time
from lambekstar import ProverSession, compile_unique, parse_cfg, to_gnf2
g = to_gnf2(parse_cfg("@start S\\nS -> A S b | b\\nA -> a A | "))
session = ProverSession()
t0 = time.perf_counter()
compile_unique(g, session=session)
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": round(seconds, 3), "steps": session.steps_used,
    "memo_entries": len(session.memo),
    "peak_rss_mb": round(status_mb("VmHWM"), 1)}))
"""

IMPORT_COST = """
import json, sys, time
before = set(sys.modules)
rss0 = status_mb("VmRSS")
t0 = time.perf_counter()
import lambekstar
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "added_modules": sorted(m for m in set(sys.modules) - before
                            if m.split(".")[0] != "lambekstar"),
    "rss_mb": round(status_mb("VmHWM"), 2),
    "added_rss_mb": round(status_mb("VmRSS") - rss0, 2)}))
"""

DEEP_PARSE = """
import json, time
from lambekstar import (Atom, Star, derive_identity, fg_interp,
                        instance_soundness, parse_formula, render_formula)
text = "p\\\\" * 6000 + "p"
t0 = time.perf_counter()
try:
    f = parse_formula(text)
    out = {"seconds": round(time.perf_counter() - t0, 3)}
except Exception as e:
    f, out = None, {"exception": type(e).__name__}
if f is not None:
    t0 = time.perf_counter()
    try:
        render_formula(f)
        out["render_seconds"] = round(time.perf_counter() - t0, 3)
    except Exception as e:
        out["render_exception"] = type(e).__name__
out["peak_rss_mb"] = round(status_mb("VmHWM"), 1)
if f is not None:
    t0 = time.perf_counter()
    try:
        fg_interp(f)
        out["fg_seconds"] = round(time.perf_counter() - t0, 3)
    except Exception as e:
        out["fg_exception"] = type(e).__name__
    out["fg_peak_rss_mb"] = round(status_mb("VmHWM"), 1)
    t0 = time.perf_counter()
    try:
        hash(derive_identity(f))
        out["identity_hash_seconds"] = round(time.perf_counter() - t0, 3)
    except Exception as e:
        out["identity_hash_exception"] = type(e).__name__
    out["identity_hash_peak_rss_mb"] = round(status_mb("VmHWM"), 1)
p = Atom("p")
t0 = time.perf_counter()
try:
    instance_soundness(Star(p), (p,) * 6000)
    out["star_seconds"] = round(time.perf_counter() - t0, 3)
except Exception as e:
    out["star_exception"] = type(e).__name__
out["star_peak_rss_mb"] = round(status_mb("VmHWM"), 1)
print(json.dumps(out))
"""

SMALL_CALLS = """
import json, sys, time, timeit
sys.path.insert(0, "perfbench")
from inputs import STREAM_ITEMS, sequent_stream
from lambekstar import (Derivation, ProverSession, Sequent, division_pure,
                        instance_soundness, parse_sequent, prove, stars)

def best_us(call):
    return round(min(timeit.repeat(call, number=2000, repeat=7)) / 2000
                 * 1e6, 2)

s = parse_sequent("p, p\\\\q -> q")
inst = parse_sequent("p, q, q -> p.q^*")
out = {"prove_us": best_us(lambda: prove(s)),
       "instance_soundness_us": best_us(
           lambda: instance_soundness(inst.succedent, inst.antecedent))}
blocks = parse_sequent(", ".join(["p"] * 22) + " -> p^*")
t0 = time.perf_counter()
prove(blocks)
out["star_blocks_s"] = round(time.perf_counter() - t0, 4)
blocks = parse_sequent(", ".join(["p"] * 200) + " -> p^*")
t0 = time.perf_counter()
prove(blocks)
out["star_blocks_200_s"] = round(time.perf_counter() - t0, 4)
items = sequent_stream(1, STREAM_ITEMS)
built = {Sequent: 0, Derivation: 0}
for cls in built:
    def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
        built[_cls] += 1
        _init(self, *args, **kwargs)
    cls.__init__ = counted
calls = [0]
def membership(*args, _inner=stars._membership_cert):
    calls[0] += 1
    return _inner(*args)
stars._membership_cert = membership
steps = {"kernel": 0, "general": 0}
for kind, text in items:
    seq = parse_sequent(text)
    if kind == "certify":
        instance_soundness(seq.succedent, seq.antecedent)
    else:
        session = ProverSession()
        prove(seq, session=session)
        pure = all(map(division_pure, (*seq.antecedent, seq.succedent)))
        steps["kernel" if pure else "general"] += session.steps_used
out.update(sequents_per_pass=built[Sequent],
           derivations_per_pass=built[Derivation],
           membership_calls_per_pass=calls[0],
           kernel_steps_per_pass=steps["kernel"],
           general_steps_per_pass=steps["general"])
print(json.dumps(out))
"""

EQUIVALENCE = """
import json, random, sys, time
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
    "peak_rss_mb": round(status_mb("VmHWM"), 1)}))
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
    proc = subprocess.run([sys.executable, "-c", STATUS_MB + code], cwd=tree,
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
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
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


def side_quartiles(runs: list[dict], keys: tuple[str, ...]) -> dict:
    """Per side, the median and quartiles of each key over the runs that
    have it; a single run is its own quartiles."""
    out: dict = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        out[side] = {}
        for k in keys:
            xs = [r[k] for r in mine if k in r]
            if xs:
                out[side][k] = quartiles(xs)
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
        "run_order": f"seeds 1-{PAIRS}; for each seed "
                     f"{' then '.join(workloads)}; odd seeds run the parent "
                     "first, even seeds the change first (position_in_pair); "
                     "then the same order again with --trace 1 "
                     "(traced_cycles)",
        "runs": [], "summary": {}, "traced_cycles": [],
        "traced_summary": {},
        "universal_grammar": {
            "what": "refute_alt2(total_plus_to_alt2(S -> a S | b S | a | b)"
                    ", bound) in a fresh process and session, compile "
                    f"included; {PAIRS} alternating pairs per bound, "
                    "parent first in odd pairs; quartiles by bound",
            "runs": [], "quartiles": {}},
        "import_cost": {
            "what": "import lambekstar in a fresh interpreter: seconds, "
                    "the modules it adds outside the package, peak RSS "
                    "after it (VmHWM) and the RSS it adds (VmRSS); "
                    f"{PAIRS} alternating pairs, parent first in odd pairs",
            "runs": [], "quartiles": {}, "minimum_seconds": {}},
        "compile_large_grammar": {
            "what": "compile_unique(to_gnf2(S -> A S b | b; A -> a A | )) "
                    f"in a fresh process and session; {PAIRS} "
                    "alternating pairs, parent first in odd pairs",
            "runs": [], "quartiles": {}},
        "deep_parse": {
            "what": "parse_formula, then render_formula, fg_interp and "
                    "the hash of derive_identity, of the 6,000-deep "
                    "p\\p\\...\\p, then instance_soundness(p^*, p x 6,000), "
                    "in a fresh process: seconds, or the exception's class "
                    "name, and peak RSS (VmHWM) after the render "
                    "(peak_rss_mb), the image (fg_peak_rss_mb), the hash "
                    "(identity_hash_peak_rss_mb) and the star instance "
                    "(star_peak_rss_mb); "
                    f"{PAIRS} alternating pairs, parent first in odd "
                    "pairs",
            "runs": [], "quartiles": {}},
        "small_calls": {
            "what": "best-of-7 per-call us of prove(p, p\\q -> q) and of "
                    "instance_soundness(p, q, q -> p.q^*), the seconds of "
                    "one prove(p x 22 -> p^*) and of one prove(p x 200 -> "
                    "p^*), and the Sequent "
                    "and Derivation objects, membership calls and kernel "
                    "and general-engine steps of one seed-1 small-sequents "
                    "stream pass, in a fresh process; "
                    f"{PAIRS} alternating pairs, parent first in "
                    "odd pairs",
            "runs": [], "quartiles": {}},
        "equivalence_harness_large_grammar": {
            "what": "equivalence_harness(random_epsfree_grammar("
                    "random.Random(14), max_nonterminals=3, max_rules=5), "
                    f"'safiullin', 3) in a fresh process; {PAIRS} "
                    "alternating pairs, parent first in odd pairs",
            "runs": [], "quartiles": {}},
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
        for seed in range(1, PAIRS + 1):
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

        def alternating(key: str, code: str, keys: tuple[str, ...],
                        label: str | None = None) -> None:
            """``PAIRS`` alternating pairs of ``code``, parent first in odd
            pairs; the per-side median and quartiles of each of ``keys``
            over these runs go in the entry's ``quartiles``, or in
            ``quartiles[label]`` when a label is given."""
            entry = doc[key]
            first = len(entry["runs"])
            for rnd in range(PAIRS):
                for side in (SIDES if rnd % 2 == 0 else SIDES[::-1]):
                    entry["runs"].append({**snippet(trees[side], code),
                                          "side": side})
                    got = side_quartiles(entry["runs"][first:], keys)
                    if label is None:
                        entry["quartiles"] = got
                    else:
                        entry["quartiles"][label] = got
                    save()

        for bound in BOUNDS:
            alternating("universal_grammar", UNIVERSAL.format(bound=bound),
                        ("seconds", "steps", "peak_rss_mb"),
                        label=str(bound))
        alternating("import_cost", IMPORT_COST,
                    ("seconds", "rss_mb", "added_rss_mb"))
        doc["import_cost"]["minimum_seconds"] = {
            side: min((r["seconds"] for r in doc["import_cost"]["runs"]
                       if r["side"] == side and "seconds" in r), default=None)
            for side in SIDES}
        save()
        alternating("compile_large_grammar", COMPILE,
                    ("seconds", "peak_rss_mb"))
        alternating("deep_parse", DEEP_PARSE,
                    ("seconds", "render_seconds", "peak_rss_mb",
                     "fg_seconds", "fg_peak_rss_mb", "identity_hash_seconds",
                     "identity_hash_peak_rss_mb", "star_seconds",
                     "star_peak_rss_mb"))
        alternating("small_calls", SMALL_CALLS,
                    ("prove_us", "instance_soundness_us", "star_blocks_s",
                     "star_blocks_200_s",
                     "sequents_per_pass", "derivations_per_pass",
                     "membership_calls_per_pass", "kernel_steps_per_pass",
                     "general_steps_per_pass"))
        alternating("equivalence_harness_large_grammar", EQUIVALENCE,
                    ("seconds", "peak_rss_mb"))
        for side in SIDES:
            doc["tier1"]["runs"].append({"side": side,
                                         **tier1(trees[side])})
            save()
    print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
