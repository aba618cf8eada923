"""One measured process of the benchmark; started by run.py.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``workload``, ``part`` (``setup`` to stop after set-up),
``seed``, ``seconds``, ``smoke``, ``repeat``, ``trace`` and ``spans`` (a
path for the trace, or null).  The worker imports the package from the
checkout's ``src``, sets up its inputs and prints the monotonic time at
which set-up ended.  Then it runs cycles of its workload's timed operations:
with ``repeat``, until ``seconds`` have passed, for alt2-lifted and
compile-equiv each cycle in a forked child of the set-up process, so that
every cycle starts with the process-wide caches (join certificates, CYK
tables) as cold as the first; without it, one cycle in the process itself,
which is what a traced run needs.
Every outcome is checked against an independent reference outside the
timed region, and one JSON result is printed as the last line.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import pathlib
import resource
import signal
import sys
import time
import traceback
import types

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import lambekstar  # noqa: E402
from lambekstar import (BudgetError, LambekError, ProverSession,  # noqa: E402
                        Sequent, check_derivation, compile_gaifman,
                        normalize_plus, parse_cfg, total_plus_to_alt2)
from lambekstar import prove as plain_prove  # noqa: E402

import inputs  # noqa: E402

# Workloads whose cycles run in forked children, each as cold as the first.
# small-sequents has no process-wide cache to keep cold but the formula
# table, and its operations are short enough for the copy-on-write faults
# of a fresh child to count, so its passes run in the worker itself.
COLD_WORKLOADS = {"alt2-lifted", "compile-equiv"}
EXTRA_COMPILES = 4      # compile-only forked cycles after each compile-equiv one

# What the timed operations call.  A traced run wraps these attributes.
api = types.SimpleNamespace(
    parse_sequent=lambekstar.parse_sequent,
    prove=lambekstar.prove,
    instance_soundness=lambekstar.instance_soundness,
    compile_unique=lambekstar.compile_unique,
    accepts=lambekstar.accepts,
    refute_alt2=lambekstar.refute_alt2,
    to_gnf2=lambekstar.to_gnf2,
    cyk_member=lambekstar.cyk_member,
    naive_prove=lambekstar.naive_prove,
)


class Outcome:
    """Operation counts and failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10 and what not in self.notes:
                self.notes.append(what)


def certificates_ok(cg) -> bool:
    return all(check_derivation(w) for parts in cg.parts.values()
               for cert in (parts.f, parts.g) for w in cert.witnesses)


def recheck(lexicon, word, goal, session) -> bool:
    """Re-derive an accepted word from the session memo and check the proof."""
    choices = [v if isinstance(v, tuple) else (v,)
               for v in (lexicon[c] for c in word)]
    for picked in itertools.product(*choices):
        seq = Sequent(picked, goal)
        r = plain_prove(seq, session=session)
        if r.proved:
            return r.derivation.conclusion == seq \
                and check_derivation(r.derivation)
    return False


def prepared(seq: Sequent) -> Sequent:
    """The sequent a certificate concludes: ``A^+`` reads ``A.A^*``."""
    return Sequent(tuple(normalize_plus(f) for f in seq.antecedent),
                   normalize_plus(seq.succedent))


# --------------------------------------------------------------------------
# set-up: grammar parse, GNF and input generation; no compiling

def setup(spec: dict) -> dict:
    workload, smoke = spec["workload"], spec["smoke"]
    if workload == "alt2-lifted":
        text, bound = inputs.SMOKE_ALT2 if smoke else inputs.ALT2
        g = total_plus_to_alt2(parse_cfg(text))
        a1, a2 = sorted(g.terminals)
        return {"g": g, "gnf": api.to_gnf2(g), "bound": bound,
                "words": inputs.alternation_words(a1, a2, bound)}
    if workload == "compile-equiv":
        table = inputs.SMOKE_COMPILE if smoke else inputs.COMPILE
        grammars = {}
        for name, (text, lexicons) in table.items():
            g = parse_cfg(text)
            grammars[name] = {"g": g, "gnf": api.to_gnf2(g),
                              "lexicons": lexicons}
        ops = [(name, label, w) for name, d in grammars.items()
               for label, max_len in d["lexicons"].items()
               for w in inputs.all_words(d["g"].terminals, max_len)]
        return {"grammars": grammars, "ops": ops}
    n = inputs.SMOKE_STREAM_ITEMS if smoke else inputs.STREAM_ITEMS
    return {"items": inputs.sequent_stream(spec["seed"], n)}


# --------------------------------------------------------------------------
# One cycle of each workload.  A cycle returns ``latencies`` (one per
# operation, None where it raised), ``work`` (the timed pieces that make up
# ``work_s``), ``timed_s`` (all its timed seconds), ``answers`` for the
# parent to compare with its references, and the outcome of the checks it
# made itself.  Only the first cycle of a
# run re-validates certificates: later cycles repeat the same deterministic
# work, and their answers are still checked one by one.

def cycle_alt2(data: dict, outcome: Outcome, first: bool, quiet) -> dict:
    g, words = data["g"], data["words"]
    session = ProverSession()
    t0 = time.perf_counter()
    try:
        witness = api.refute_alt2(g, data["bound"], session=session)
        error = None
    except (BudgetError, LambekError) as e:
        witness, error = None, e
    elapsed = time.perf_counter() - t0
    out = {"latencies": [elapsed], "work": [elapsed], "timed_s": elapsed,
           "lexicon_nodes": 0}
    if error is not None:
        outcome.check(False, f"refute_alt2 raised {error!r}")
        out["answers"] = ["error"]
        return out
    got = None if witness is None else list(witness.word)
    out["answers"] = [got]
    if first:
        with quiet:     # a repeat compile hits the join cache: same lexicon
            cg = lambekstar.compile_unique(data["gnf"])
        outcome.check(certificates_ok(cg), "join certificate rejected")
        proved = words if got is None else words[:words.index(tuple(got))]
        for w in proved:
            outcome.check(recheck(cg.lexicon, w, cg.goal, session),
                          f"no valid certificate for {''.join(w)}")
        out["lexicon_nodes"] = sum(f.size for f in cg.lexicon.values())
    return out


def cycle_compile(data: dict, outcome: Outcome, first: bool,
                  accept: bool = True) -> dict:
    """Cold compiles of the unique lexicons, then, with ``accept``, one
    acceptance pass.

    The pass uses one fresh session per lexicon; each word is one
    operation.
    """
    lexicons, work, nodes = {}, [], 0
    for name, d in data["grammars"].items():
        lexicons[name, "gaifman"] = compile_gaifman(d["gnf"])
        if "unique" not in d["lexicons"]:
            continue
        t0 = time.perf_counter()
        try:
            cg = api.compile_unique(d["gnf"])
        except (BudgetError, LambekError) as e:
            outcome.check(False, f"compile_unique({name}) raised {e!r}")
            return {"latencies": [], "work": [], "timed_s": 0.0,
                    "answers": [], "lexicon_nodes": nodes}
        work.append(time.perf_counter() - t0)
        lexicons[name, "unique"] = cg
        nodes += sum(f.size for f in cg.lexicon.values())
        if first:
            outcome.check(certificates_ok(cg),
                          f"join certificate of {name} rejected")
    if not accept:
        return {"work": work, "timed_s": sum(work), "lexicon_nodes": nodes}

    sessions = {key: ProverSession() for key in lexicons}
    latencies, answers = [], []
    for name, label, w in data["ops"]:
        t0 = time.perf_counter()
        try:
            got = api.accepts(lexicons[name, label], w,
                              session=sessions[name, label])
            latencies.append(time.perf_counter() - t0)
        except BudgetError:
            got = "error"
            latencies.append(None)
        answers.append(got)
    if first:
        for (name, label, w), got in zip(data["ops"], answers):
            if got is True:
                lex = lexicons[name, label]
                outcome.check(recheck(lex.lexicon, w, lex.goal,
                                      sessions[name, label]),
                              f"no valid certificate for {name} {label} "
                              f"{''.join(w)}")
    return {"latencies": latencies, "work": work, "answers": answers,
            "timed_s": sum(work) + sum(x for x in latencies if x is not None),
            "lexicon_nodes": nodes}


def cycle_stream(data: dict, outcome: Outcome, first: bool) -> dict:
    """One pass over the stream, closed loop, one client."""
    latencies, answers = [], []
    for kind, text in data["items"]:
        t0 = time.perf_counter()
        try:
            seq = api.parse_sequent(text)
            if kind == "certify":
                d = api.instance_soundness(seq.succedent, seq.antecedent)
                proved = True
            else:
                r = api.prove(seq)
                d, proved = r.derivation, r.proved
        except (BudgetError, LambekError) as e:
            outcome.check(False, f"{kind} {text!r} raised {e!r}")
            latencies.append(None)
            answers.append("error")
            continue
        latencies.append(time.perf_counter() - t0)
        answers.append(proved)
        if first and d is not None:
            outcome.check(d.conclusion == prepared(seq)
                          and check_derivation(d),
                          f"certificate of {seq} rejected")
    return {"latencies": latencies, "work": latencies, "answers": answers,
            "timed_s": sum(x for x in latencies if x is not None),
            "lexicon_nodes": 0}


def run_cycle(spec: dict, data: dict, first: bool, tracer,
              accept: bool = True) -> dict:
    outcome = Outcome()
    workload = spec["workload"]
    if workload == "alt2-lifted":
        out = cycle_alt2(data, outcome, first, tracer.pause() if tracer
                         else contextlib.nullcontext())
    elif workload == "compile-equiv":
        out = cycle_compile(data, outcome, first, accept)
    else:
        out = cycle_stream(data, outcome, first)
    out.update(attempted=outcome.attempted, failed=outcome.failed,
               notes=outcome.notes)
    return out


# --------------------------------------------------------------------------
# references, computed after the timed cycles so that the set-up process
# stays cold for every forked cycle

def references(workload: str, data: dict) -> list:
    if workload == "alt2-lifted":
        g = data["g"]
        expected = next((w for w in data["words"]
                         if not api.cyk_member(g, w)), None)
        return [None if expected is None else list(expected)]
    if workload == "compile-equiv":
        grammars = data["grammars"]
        return [api.cyk_member(grammars[name]["g"], w)
                for name, _, w in data["ops"]]
    return [True if kind == "certify"
            else api.naive_prove(lambekstar.parse_sequent(text))
            for kind, text in data["items"]]


def frozen(x):
    """A JSON value as a hashable one: lists become tuples."""
    return tuple(map(frozen, x)) if isinstance(x, (list, tuple)) else x


class Tally:
    """Cycle results, folded in as they arrive so that the worker's memory
    does not grow with the number of cycles."""

    def __init__(self) -> None:
        self.runs = 0           # every cycle, compile-only ones included
        self.cycles = 0         # cycles that ran every operation
        self.first: dict = {}
        self.best: dict[str, list] = {"latencies": [], "work": []}
        self.answers: dict[tuple, int] = {}     # answers -> cycles giving them
        self.outcome = Outcome()

    def add(self, c: dict) -> None:
        self.runs += 1
        self.first = self.first or c
        out = self.outcome
        out.attempted += c["attempted"]
        out.failed += c["failed"]
        out.notes += c["notes"][:10 - len(out.notes)]
        for key, best in self.best.items():
            xs = c.get(key)
            if xs is None:
                continue
            best.extend([None] * (len(xs) - len(best)))
            for i, x in enumerate(xs):
                if x is not None and (best[i] is None or x < best[i]):
                    best[i] = x
        if "answers" in c:
            self.cycles += 1
            key = frozen(c["answers"])
            self.answers[key] = self.answers.get(key, 0) + 1

    def check(self, want: list) -> None:
        """Every answer of every cycle against its reference."""
        want = frozen(want)
        for answers, times in self.answers.items():
            for i, (got, ref) in enumerate(itertools.zip_longest(
                    answers, want, fillvalue="missing")):
                for _ in range(times):
                    self.outcome.check(got == ref, f"operation {i}: got "
                                                   f"{got}, reference {ref}")


def forked(fn) -> dict:
    """Run ``fn`` in a forked child and return its JSON result.

    The child is killed and reaped if the parent is interrupted.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(rfd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            payload = fh.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status != 0 or not payload:
        raise RuntimeError(f"forked cycle ended with status {status}")
    return json.loads(payload)


def main() -> int:
    # run.py stops a worker with SIGTERM; unwind so that a forked cycle
    # is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(api)
    data = setup(spec)
    result: dict = {"ready": time.monotonic()}
    if spec["part"] == "setup":
        print(json.dumps(result))
        return 0

    tally = Tally()
    fork = spec["repeat"] and spec["workload"] in COLD_WORKLOADS
    if spec["repeat"]:
        if fork:
            gc.freeze()     # keep the collector off the pages children share
        deadline = time.perf_counter() + spec["seconds"]
        while not tally.cycles or time.perf_counter() < deadline:
            first = not tally.cycles
            if not fork:
                tally.add(run_cycle(spec, data, first, None))
                continue
            tally.add(forked(lambda: run_cycle(spec, data, first, None)))
            if spec["workload"] == "compile-equiv":
                # a compile is a small share of a cycle: time it more often
                for _ in range(EXTRA_COMPILES):
                    tally.add(forked(lambda: run_cycle(
                        spec, data, False, None, accept=False)))
    else:
        tally.add(run_cycle(spec, data, True, tracer))

    # the operations' memory, before the references are computed
    rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    tally.check(references(spec["workload"], data))
    outcome = tally.outcome
    result.update(
        cycles=tally.cycles, forks=tally.runs if fork else 0,
        latencies=[x for x in tally.best["latencies"] if x is not None],
        work_s=sum(x for x in tally.best["work"] if x is not None),
        timed_s=tally.first["timed_s"],
        attempted=outcome.attempted, failed=outcome.failed,
        notes=outcome.notes,
        lexicon_nodes=tally.first["lexicon_nodes"],
        rss_mb=rss_mb,
        backend=lambekstar.kernel_backend())
    if tracer is not None:
        result["spans"] = tracer.totals()
        result["counters"] = {"states": tracer.states,
                              "max_call_states": tracer.max_call_states,
                              "memo_entries": tracer.memo_entries,
                              "lexicon_nodes": result["lexicon_nodes"]}
        if spec["spans"]:
            tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
