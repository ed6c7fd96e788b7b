"""mbfun benchmark: time to a correct, certified b-function.

    python3 perfbench/run.py --workload mero-battery --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports mbfun from its src/
directory; it exits 2 without a result when that is missing.  One client
sends one query at a time (a closed loop, single process, single thread).
Whole passes over the workload's query list repeat until --seconds have
passed; there is always at least one pass.  Each answer is checked against
its reference in perfbench/data/references.json.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
named in BENCHMARK.json; the last line of stdout is the JSON result.  A
traced run makes one untraced pass (for the tracing overhead) and one
traced pass, runs the frontier list on cli-classic, and writes its spans
to perfbench/out/.  mero-engine is runnable by hand but not listed in
BENCHMARK.json (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

QUERY_BUDGET_S = 30.0     # a query past this counts as failed, with this time
RUN_BUDGET_S = 140.0      # queries not started by then count as failed
SETUP_REPEATS = 5
SETUP_CODE = "import mbfun.cli; mbfun.cli.build_arg_parser()"
# Layers whose share of the traced pass a traced run prints.
SHARE_LAYERS = (
    "oracle.minimize_by_oracle", "oracle.verify_functional_equation",
    "merobf.build_sigma", "merobf.b_section_along_t", "groebner.buchberger",
    "multipoly.MultiPoly.divmod_single", "linalg.solve",
)


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside a query; BaseException so no handler in
    the program swallows it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _load_mbfun():
    if not (SRC / "mbfun" / "__init__.py").is_file():
        _fail(f"no mbfun sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mbfun
    import mbfun.cli  # loads every module the queries use

    if Path(mbfun.__file__).resolve().parent != SRC / "mbfun":
        _fail(f"imported mbfun from {mbfun.__file__}, not from {SRC}")
    return mbfun


def _fresh_interpreter(extra_args=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra_args, "-c", SETUP_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        _fail(f"setup interpreter failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import mbfun.cli and
    build its argument parser."""
    return statistics.median(_fresh_interpreter()[0] for _ in range(SETUP_REPEATS))


def measure_sympy_import() -> float:
    """Median cumulative time of the top-level sympy import that the same
    set-up triggers, from -X importtime; 0 when set-up no longer imports it."""
    samples = []
    for _ in range(3):
        _, stderr = _fresh_interpreter(("-X", "importtime"))
        us = 0
        for line in stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "sympy":
                us = int(parts[1])
        samples.append(us / 1e6)
    return statistics.median(samples)


def harrell_davis_median(samples) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) density.  The query times of a workload
    differ by 100x, with gaps between them, so the plain sample median
    jumps from one query to the next under timing noise; this estimate
    moves smoothly and has about half its run-to-run spread."""
    xs = sorted(samples)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t)))

    def integral(lo, hi, steps=64):  # Simpson's rule
        h = (hi - lo) / steps
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        return (density(lo) + inner + density(hi)) * h / 3

    weights = [integral(i / n, (i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_query(query, mbfun, workloads, budget):
    """(seconds, outcome, answer); outcome is "ok", "mismatch: ...",
    "budget" or "error: ...".  Garbage is collected outside the timing."""
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    answer = None
    try:
        answer = workloads.execute(query, mbfun)
        outcome = "ok"
    except BudgetExceeded:
        outcome = "budget"
    except Exception as exc:  # a failed query is counted, not fatal
        outcome = f"error: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if outcome == "budget":
        elapsed = budget
    elif answer is not None and query.ref:
        problem = workloads.check(query, answer)
        if problem is not None:
            outcome = f"mismatch: {problem}"
    return elapsed, outcome, answer


def run_pass(queries, mbfun, workloads, deadline, tracer=None, label="pass"):
    rows = []
    start = time.perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.query_id = q.qid
        if time.perf_counter() > deadline:
            rows.append((q, QUERY_BUDGET_S, "run budget", None))
            continue
        elapsed, outcome, answer = run_query(q, mbfun, workloads, QUERY_BUDGET_S)
        rows.append((q, elapsed, outcome, answer))
        status = answer["status"] if answer else "-"
        print(f"{label} {elapsed:9.4f}s  {status:11s}  {outcome[:60]:24s}  {q.qid}", flush=True)
    return time.perf_counter() - start, rows


def measure_end_to_end(queries, mbfun, workloads, seconds, deadline):
    """Whole passes until `seconds` have passed (at least one): the
    median pass time, the median query time and the certified share."""
    values = {"setup_s": measure_setup()}
    print(f"setup   {values['setup_s']:.4f}s  median of {SETUP_REPEATS} fresh interpreters")
    pass_times, rows = [], []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        wall, pass_rows = run_pass(queries, mbfun, workloads, deadline)
        pass_times.append(wall)
        rows += pass_rows
        if time.perf_counter() > deadline:
            break
    times = [t for _, t, _, _ in rows]
    certified = sum(1 for _, _, o, a in rows if o == "ok" and a["status"] == "CERTIFIED")
    values.update({
        "wall_s": statistics.median(pass_times),
        "query_s.p50": harrell_davis_median(times),
        "certified_frac": certified / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(f"passes  {len(pass_times)}; query_s.p50 over {len(times)} query samples")
    return values, rows


def measure_layers(queries, mbfun, workloads, args, deadline):
    """One untraced pass, then one traced pass; the frontier list on
    cli-classic.  Spans, answers and frontier go to perfbench/out/."""
    from tracing import Tracer

    untraced_wall, _ = run_pass(queries, mbfun, workloads, deadline, label="plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, rows = run_pass(queries, mbfun, workloads, deadline, tracer, "trace")
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "setup.sympy_import_s": measure_sympy_import(),
    })
    frontier = []
    if args.workload == "cli-classic":
        for q in workloads.frontier_queries(args.seed):
            if time.perf_counter() > deadline:
                break
            elapsed, outcome, answer = run_query(q, mbfun, workloads, workloads.FRONTIER_BUDGET_S)
            result = f"{answer['status']} {answer['roots']}" if answer else outcome
            frontier.append({"query": q.qid, "seconds": elapsed, "outcome": result})
            print(f"frontier {elapsed:8.3f}s  {result[:70]}  {q.qid}", flush=True)
    _write_trace(args, tracer, rows, values, frontier)
    for name in SHARE_LAYERS:
        share = values[name + ".s"] / traced_wall if traced_wall else 0.0
        print(f"share   {name:40s} {share:6.1%} of traced wall_s")
    return values, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    mbfun = _load_mbfun()
    sys.path.insert(0, str(HERE))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.CURATED:
        ap.error(f"unknown workload {args.workload!r}")
    queries = workloads.draw(args.workload, args.seed, workloads.load_references())
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace == 0:
        values, rows = measure_end_to_end(queries, mbfun, workloads, args.seconds, deadline)
        listed = spec["end_to_end"]
    else:
        values, rows = measure_layers(queries, mbfun, workloads, args, deadline)
        listed = spec["per_layer"]
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            raise KeyError(f"benchmark does not produce metric {m['name']!r}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    failed = [(q, o) for q, _, o, _ in rows if o != "ok"]
    for q, o in failed:
        print(f"FAILED  {q.qid}: {o}")
    print(f"fail_frac {len(failed) / len(rows):.4f} ({len(failed)} of {len(rows)})")
    for name, m in metrics.items():
        print(f"metric  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(o.startswith("mismatch") for _, o in failed),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": metrics,
    }), flush=True)
    return 0


def _write_trace(args, tracer, rows, values, frontier) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "answers": {q.qid: a for q, _, _, a in rows},
            "metrics": values,
            "frontier": frontier,
            "spans": tracer.spans,
        }, fh)
    print(f"spans   {len(tracer.spans)} written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
