"""Spans and counters for traced runs, recorded from outside the package.

A :class:`Tracer` replaces a function that one module imported from another
(``lambekstar.joins.prove``, say) by a wrapper that records a span: name,
start, end and the index of the enclosing span.  Spans stay in memory and
are summarised, and written out, when the worker ends.  Untraced runs
install nothing.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time

# Names that one lambekstar module imports from another; the span of a call
# is named "<calling module>.<name>".
PROGRAM_CALLS = (
    ("reductions", "prove"),
    ("reductions", "compile_unique"),
    ("reductions", "to_gnf2"),
    ("reductions", "cyk_member"),
    ("compiler", "join"),
    ("compiler", "prove"),
    ("joins", "prove"),
    ("joins", "assert_valid_derivation"),
    ("stars", "assert_valid_derivation"),
)

PROVE = {"reductions.prove", "compiler.prove", "joins.prove", "bench.prove"}
CHECKER = {"joins.assert_valid_derivation", "stars.assert_valid_derivation"}
COMPILE = {"reductions.compile_unique", "bench.compile_unique"}
GNF = {"reductions.to_gnf2", "bench.to_gnf2"}
CYK = {"reductions.cyk_member", "bench.cyk_member"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []        # (name, start, end, parent index)
        self._stack: list[int] = []
        self.states = 0
        self.max_call_states = 0
        self.memo_entries = 0
        self.paused = False

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
        return traced

    def wrap_prove(self, name: str, fn):
        """Span plus per-call kernel states, read from the session counter.

        A caller that passes no session gets a fresh one, which is what
        ``prove`` would create itself.
        """
        traced = self.wrap(name, fn)
        session_type = importlib.import_module("lambekstar").ProverSession

        def counted(sequent, *, restricted=False, session=None, **kwargs):
            if self.paused:
                return fn(sequent, restricted=restricted, session=session,
                          **kwargs)
            if session is None:
                session = session_type(restricted)
            before = session.steps_used
            result = traced(sequent, restricted=restricted, session=session,
                            **kwargs)
            used = session.steps_used - before
            self.states += used
            self.max_call_states = max(self.max_call_states, used)
            self.memo_entries = max(self.memo_entries, len(session.memo))
            return result
        return counted

    def install(self, api) -> None:
        """Wrap the program's cross-module calls and the benchmark's own."""
        targets = [(importlib.import_module("lambekstar." + module), attr,
                    f"{module}.{attr}") for module, attr in PROGRAM_CALLS]
        targets += [(api, attr, "bench." + attr) for attr in vars(api)]
        for owner, attr, name in targets:
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap_prove(name, fn)
                    if name in PROVE else self.wrap(name, fn))

    def totals(self) -> dict[str, list]:
        """span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[index[n], s, e, p]
                                 for n, s, e, p in self.spans]}, fh)


def layer_metrics(totals: dict[str, list], counters: dict) -> dict:
    """Per-layer metrics, as (value, unit), from span totals of a run."""
    def pick(names, col):
        return sum(totals[n][col] for n in names if n in totals)

    def calls(names):
        return (pick(names, 0), "count")

    def total_s(names):
        return (pick(names, 1), "s")

    def self_s(names):
        return (pick(names, 2), "s")

    prove_self = pick(PROVE, 2)
    return {
        "prover.calls": calls(PROVE),
        "prover.self_s": self_s(PROVE),
        "prover.states": (counters["states"], "count"),
        "prover.states_per_s": (counters["states"] / prove_self
                                if prove_self else 0.0, "1/s"),
        "prover.memo_entries": (counters["memo_entries"], "count"),
        "prover.max_call_states": (counters["max_call_states"], "count"),
        "joins.calls": calls({"compiler.join"}),
        "joins.self_s": self_s({"compiler.join"}),
        "joins.verify_calls": calls({"joins.prove"}),
        "joins.verify_s": total_s({"joins.prove"}),
        "checker.calls": calls(CHECKER),
        "checker.self_s": self_s(CHECKER),
        "compiler.compile_self_s": self_s(COMPILE),
        "compiler.lexicon_nodes": (counters["lexicon_nodes"], "count"),
        "compiler.accept_proves": calls({"compiler.prove"}),
        "formula.parse_calls": calls({"bench.parse_sequent"}),
        "formula.parse_s": total_s({"bench.parse_sequent"}),
        "cfg.gnf_s": total_s(GNF),
        "cfg.cyk_calls": calls(CYK),
        "cfg.cyk_s": total_s(CYK),
        "stars.soundness_calls": calls({"bench.instance_soundness"}),
        "stars.soundness_self_s": self_s({"bench.instance_soundness"}),
        "reductions.words": calls({"reductions.prove"}),
        "reductions.word_s": total_s({"reductions.prove"}),
        "naive.calls": calls({"bench.naive_prove"}),
        "naive.s": total_s({"bench.naive_prove"}),
    }
