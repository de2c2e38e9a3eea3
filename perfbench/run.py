"""Closed-loop benchmark of ``lapexcess analyze - --json``.

One caller in this process sends generated edge-list text to the public
entry ``lapexcess.cli.main`` and sends the next graph only after the
previous verdict returns.  Each text is the workload graph relabelled by a
vertex permutation drawn from ``--seed``.  Every verdict is checked against
a reference computed in a separate process (``reference.py``) and against
the identity-labelled verdict of the warm-up round.

A run does whole rounds (each workload graph once per round) until
``--seconds`` have passed, so the share of failed verdicts is the same in
every run.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and it reports
the per-layer metrics of the traced rounds and the tracing overhead.  The
last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("atlas", "dense", "long")
ARGV = ["analyze", "-", "--json"]

# OpenBLAS starts a second thread for the n x n products of eval_matrix,
# which then competes with the caller on a small machine; one BLAS thread
# keeps every timing single-threaded.  Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Set-up is timed on fresh interpreters that import lapexcess.cli.  One
# start varies by ~15% and the machine has slow phases that last seconds,
# so the starts are spread over the run (one before every round, at least
# SETUP_STARTS in all) and their median is reported.  A first start, which
# may compile bytecode, is not counted.
SETUP_CMD = [sys.executable, "-c", "import lapexcess.cli"]
SETUP_STARTS = 12

# Gate on max |H(L) - J|: H(L) = J holds for every connected graph.
HOFFMAN_GATE = 1e-8
# The one fault kept in the workloads.  eval_matrix evaluates by monomial
# Horner, which loses all accuracy once d passes ~25, so every long graph
# fails the gate above.  Such verdicts count as failed but not as wrong.
KNOWN_FAULT = "hoffman_residual"

VERDICT_EXIT = {"distance_regular": 0, "not_distance_regular": 1}


def relabel(case, rng) -> str:
    """Edge-list text of the case graph under a random vertex permutation,
    edges in random order."""
    n = case["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"{perm[u]} {perm[v]}\n" for u, v in case["edges"]]
    rng.shuffle(lines)
    return f"n {n}\n" + "".join(lines)


def identity_text(case) -> str:
    return f"n {case['n']}\n" + "".join(f"{u} {v}\n" for u, v in case["edges"])


def call(main, text):
    """main(ARGV) with text on stdin: (seconds, exit code, stdout, error).

    error describes an exception that escaped main, which a real run would
    turn into exit status 1; the exit code is then None.
    """
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    code = error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = main(ARGV)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # keep the loop going; counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return elapsed, code, out.getvalue(), error


def check(case, code, doc, base) -> list:
    """Mismatches of one verdict, as (kind, message) pairs.

    case is the reference, doc the parsed report, base the (code, doc) of
    the identity-labelled verdict or None for that verdict itself.
    """
    want = "distance_regular" if case["drg"] else "not_distance_regular"
    if code != VERDICT_EXIT[want]:
        return [("exit_code", f"exit code {code}, expected {VERDICT_EXIT[want]}")]
    if doc is None:
        return [("report", "no JSON report")]
    bad = []
    excess = doc["excess"]
    if excess["verdict"] != want:
        bad.append(("verdict", f"verdict {excess['verdict']}, expected {want}"))

    oracle = doc["oracle"].get("intersection_array")
    if case["drg"]:
        got = [oracle["b"], oracle["c"]] if oracle else None
        if got != case["array"]:
            bad.append(("array", f"intersection array {got}, expected {case['array']}"))

    thetas = doc["spectrum"]["distinct"]
    mults = doc["spectrum"]["multiplicities"]
    ref_thetas = [t for t, _ in case["spectrum"]]
    ref_mults = [m for _, m in case["spectrum"]]
    tol = 1e-8 * max(1.0, ref_thetas[-1])
    if mults != ref_mults or any(abs(a - b) > tol for a, b in zip(thetas, ref_thetas)):
        bad.append(("spectrum", f"spectrum {thetas} x {mults}, expected {case['spectrum']}"))

    average, spectral = excess["average"], excess["spectral"]
    tol_eq = doc["tolerances"]["equality"] * abs(spectral)
    if average > spectral + tol_eq:
        bad.append(("excess_bound", f"average excess {average} > spectral {spectral}"))
    if (abs(spectral - average) <= tol_eq) != case["drg"]:
        bad.append(("excess_equality", f"average {average} vs spectral {spectral}"))

    residual = doc["hoffman"]["max_residual"]
    if not residual <= HOFFMAN_GATE:
        bad.append((KNOWN_FAULT, f"max |H(L) - J| = {residual:g} > {HOFFMAN_GATE:g}"))

    if base is not None:
        base_code, base_doc = base
        same = (
            code == base_code
            and base_doc is not None
            and all(
                excess[key] == base_doc["excess"][key]
                for key in ("verdict", "d", "diameter", "average")
            )
            and oracle == base_doc["oracle"].get("intersection_array")
            and abs(spectral - base_doc["excess"]["spectral"]) <= tol_eq
        )
        if not same:
            bad.append(("relabel", "verdict changed under relabelling"))
    return bad


class Tally:
    """Attempted, failed and wrong verdicts, with a few example messages.

    A verdict fails on any mismatch; it is wrong when a mismatch is other
    than the known fault.
    """

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.kinds = {}
        self.examples = {}

    def add(self, case, problems) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if any(kind != KNOWN_FAULT for kind, _ in problems):
            self.wrong += 1
        for kind, message in problems:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            self.examples.setdefault(kind, f"{case['name']}: {message}")


def verdict(main, case, text, base, tally):
    """Run and check one verdict; returns (seconds, (code, doc))."""
    elapsed, code, stdout, error = call(main, text)
    doc = None
    if stdout:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            pass
    try:
        problems = check(case, code, doc, base)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        problems = [("report", f"malformed report: {exc!r}")]
    if error is not None:
        problems.append(("exception", error))
    tally.add(case, problems)
    return elapsed, (code, doc)


def start_seconds() -> float:
    """Time to start a fresh interpreter and import lapexcess.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which rounds every start up to a multiple of ~50 ms.
    subprocess.run(SETUP_CMD, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def reference_cases(workload) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)["cases"]


def machine() -> dict:
    return {
        "arch": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lapexcess" / "cli.py").is_file():
        print(f"perfbench: no lapexcess sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    setup_times = []
    if not args.trace:
        start_seconds()
    cases = reference_cases(args.workload)

    sys.path.insert(0, str(SRC))
    from lapexcess import cli, orthopoly, theorem

    from tracing import Tracer

    # Warm-up round on the identity labelling: lazy set-up finishes, and
    # its verdicts are the base the relabelled ones must reproduce.
    warmup = Tally()
    bases = [verdict(cli.main, case, identity_text(case), None, warmup)[1] for case in cases]

    rng = random.Random(args.seed)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    latencies = []  # seconds per untraced verdict
    per_graph = {case["name"]: [] for case in cases}
    busy = {False: [], True: []}  # seconds in verdicts per round, by traced
    rounds = 0
    start = time.perf_counter()
    while True:
        if tracer is None:
            setup_times.append(start_seconds())
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            main_fn = tracer.wrap("cli.main", cli.main)
            context = tracer.installed(cli, theorem, orthopoly)
        else:
            main_fn, context = cli.main, contextlib.nullcontext()
        round_busy = 0.0
        with context:
            for case, base in zip(cases, bases):
                text = relabel(case, rng)
                if traced:
                    tracer.verdict += 1
                elapsed, _ = verdict(main_fn, case, text, base, tally)
                round_busy += elapsed
                if not traced:
                    latencies.append(elapsed)
                    per_graph[case["name"]].append(elapsed)
        busy[traced].append(round_busy)
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or rounds >= 2):
            break
    if tracer is None:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < SETUP_STARTS:
            setup_times.append(start_seconds())
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
            "verdict_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = tracer.layer_metrics(len(cases) * len(busy[True]))
        slowdown = statistics.fmean(busy[True]) / statistics.fmean(busy[False])
        metrics["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")

    correct = warmup.wrong == 0 and tally.wrong == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "setup_starts_s": setup_times,
        "graphs_per_round": len(cases),
        "blas_env": BLAS_ENV,
        "machine": machine(),
        "failures": tally.kinds,
        "examples": tally.examples,
        "warmup_failures": warmup.kinds,
        "result": result,
        "round_seconds": {"untraced": busy[False], "traced": busy[True]},
        "graph_p50_ms": {
            name: 1000.0 * statistics.median(times) for name, times in per_graph.items() if times
        },
    }
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        details["shares"] = tracer.shares()
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=2)
        handle.write("\n")

    print(
        f"{args.workload} seed {args.seed}: {rounds} rounds of {len(cases)} graphs, "
        f"{tally.attempted} verdicts, {tally.failed} failed "
        f"{tally.kinds or ''}, BLAS threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}"
    )
    for kind, example in {**warmup.examples, **tally.examples}.items():
        print(f"  {kind}: {example[:200]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0



if __name__ == "__main__":
    sys.exit(main())
