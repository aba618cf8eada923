#!/usr/bin/env python3
"""Benchmark the compiled-lexicon hot path of lambekstar, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Workloads (the seed only shapes ``small-sequents``; the other two run
fixed grammars).  ``BENCHMARK.json`` lists alt2-lifted and small-sequents;
compile-equiv runs on demand.  On a 2-vCPU shared host whose speed drifts
by up to a factor of two for minutes, three workloads left room for 30 s
runs only, and 10-run spreads of 0.10 to 0.14 of the median; two
workloads allow 50 s runs, which see more of the host's fast moments.

* ``alt2-lifted`` -- ``refute_alt2`` on the lifted grammar
  ``total_plus_to_alt2(S -> a B, B -> b)`` with alternation words up to
  length 3: a cold ``compile_unique``, then, with one shared memo, a proof
  of ``ab`` and an exhaustive refutation of ``aab`` on unique types of 531
  and 575 nodes.  Expected: the first word CYK rejects, ``aab``.
* ``compile-equiv`` -- a cold ``compile_unique`` of ``S -> a S B | a B,
  B -> b`` and ``S -> a B, B -> b``, then one ``accepts`` per word, one
  session per lexicon, checked against CYK, on their unique lexicons (words
  up to length 3) and classical lexicons (up to 4), and on the classical
  lexicon of the Dyck grammar ``S -> a S b S | a b S | a S b | a b`` (9 and
  8 types per letter; up to 3).
* ``small-sequents`` -- a closed loop, one client, over a seeded stream of
  sequent texts: parse, then ``prove`` (focused kernel or general engine)
  or ``instance_soundness``.  Every verdict is checked against
  ``naive_prove``.

One worker process sets up the inputs, then runs cycles of the workload
until ``--seconds`` have passed.  A cycle runs the workload's operations
once.  For alt2-lifted and compile-equiv each cycle runs in a child forked
from the set-up process, so every cycle starts cold (the join certificate
cache and the CYK table cache are process-wide, and a second compile in
one process is much faster); compile-equiv forks four compile-only
children after each cycle, so that its short compiles are timed more
often.  small-sequents passes run in the worker itself.  Every operation
counts with its best time over the cycles: on a shared host the speed of
the same code drifts by up to a factor of two over seconds to minutes, and
only the best of many short repeats spread over the run is steady from run
to run.  Certificates (join witnesses, accepted words, prover derivations)
are re-validated with ``check_derivation`` in the first cycle; the verdicts
of every cycle are checked.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: interpreter start to the first timed operation (import,
  grammar parse and GNF, input generation; no compiling), the median over
  fresh interpreters started before and after the work;
* ``work_s``: the ``refute_alt2`` call, compile included (alt2-lifted); the
  two cold compiles summed (compile-equiv); one pass over the sequent
  stream (small-sequents); each piece at its best;
* ``op_p50_ms``, ``op_p90_ms``: per-operation latency, each operation at
  its best, where an operation is the ``refute_alt2`` call, one ``accepts``
  call, or one parse and decide (or certify); compile-equiv has 102
  operations, so p90 is the highest percentile with at least ten beyond it;
* ``ops_per_s``: operations per second of those latencies;
* ``peak_rss_mb``: the largest peak RSS of the worker and the children it
  forked to run the operations (``RUSAGE_SELF`` and ``RUSAGE_CHILDREN``),
  read before the references are computed.

With ``--trace 1`` one untraced cycle runs in a fresh worker, then one
traced cycle in another, and the last line reports the per-layer metrics
of ``tracing.layer_metrics`` plus ``trace.overhead_ratio``: traced over
untraced timed seconds.  A layer a workload does not reach reads 0.  The
spans are written to ``perfbench/out``; every run also appends its result
and an environment record (Python version, kernel backend, CPU count, and
the time of a fixed calibration loop at start and end) to
``perfbench/out/runs.jsonl``.

Failures (a ``BudgetError``, a verdict that disagrees with its reference, a
rejected certificate) are counted in ``failed``; any failure makes the
exit code 1.  ``--smoke`` runs the same code on tiny inputs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("alt2-lifted", "compile-equiv", "small-sequents")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0     # the whole run, children included


class BenchError(Exception):
    pass


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, to show slow phases of the host."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(300_000):
        acc[i & 1023] = (i, i * 3)
    return time.perf_counter() - t0


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and the monotonic spawn time.

    On any way out but a clean exit the worker is stopped and reaped; it
    kills and reaps its own forked cycle on SIGTERM.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {spec['part']}")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
        stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except BaseException as e:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{spec['part']} ran past the deadline") \
                from None
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{spec['part']} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def worker(args, *, part: str, repeat: bool, trace: bool,
           deadline: float) -> tuple[dict, float]:
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    spec = {"workload": args.workload, "part": part, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "repeat": repeat,
            "trace": trace, "spans": spans}
    return spawn(spec, deadline)


def run_work(args, trace: bool, repeat: bool, deadline: float) -> dict:
    result, started = worker(args, part="work", repeat=repeat, trace=trace,
                             deadline=deadline)
    result["setup_s"] = result["ready"] - started
    return result


def setup_samples(args, n: int, deadline: float) -> list[float]:
    """Interpreter start to end of set-up, in ``n`` fresh interpreters."""
    out = []
    for _ in range(n):
        ready, started = worker(args, part="setup", repeat=False,
                                trace=False, deadline=deadline)
        out.append(ready["ready"] - started)
    return out


def quantile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    k = max(0, min(len(sorted_xs) - 1, int(q * len(sorted_xs) + 0.5) - 1))
    return sorted_xs[k]


def end_to_end(result: dict, setup: list[float]) -> dict:
    lat = sorted(result["latencies"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_s": (result["work_s"], "s"),
        "op_p50_ms": (quantile(lat, 0.50) * 1e3, "ms"),
        "op_p90_ms": (quantile(lat, 0.90) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    out = tracing.layer_metrics(traced["spans"], traced["counters"])
    out["trace.overhead_ratio"] = (traced["timed_s"] / untraced["timed_s"],
                                   "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, same code path")
    args = ap.parse_args()
    if not (ROOT / "src" / "lambekstar" / "__init__.py").is_file():
        print(f"no lambekstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through spawn, which stops and reaps the running
    # worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "calibration_s": [calibration_s()]}
    try:
        if args.trace:
            untraced = run_work(args, False, False, deadline)
            traced = run_work(args, True, False, deadline)
            metrics = per_layer(untraced, traced)
            results = [untraced, traced]
        else:
            # set-up samples before and after the work, so that they do not
            # all fall into one slow or fast phase of the host
            before = setup_samples(args, SETUP_SAMPLES // 2, deadline)
            results = [run_work(args, False, True, deadline)]
            after = setup_samples(args, SETUP_SAMPLES - len(before), deadline)
            metrics = end_to_end(results[0], before + after)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    env["calibration_s"].append(calibration_s())
    env["backend"] = results[0]["backend"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    notes = [n for r in results for n in r["notes"]]
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "env": env,
            "samples": sum(len(r["latencies"]) for r in results),
            "failed_ratio": failed / max(attempted, 1), "failures": notes,
            "runs": [{"cycles": r["cycles"], "forks": r["forks"],
                      "work_s": r["work_s"],
                      "rss_mb": r["rss_mb"], "ops": len(r["latencies"])}
                     for r in results]}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as log:
        log.write(json.dumps({**info, "result": line}) + "\n")
    print("# " + json.dumps(info))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
