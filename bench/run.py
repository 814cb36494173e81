"""pointerlab benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload chain|triortho|sweep --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` it measures the end-to-end metrics: interpreter set-up,
a fresh CLI process over the workload's file set, and warm in-process
parse -> run -> render times per file.  With ``--trace 1`` it runs pairs of
untraced and traced in-process passes and reports per-layer self times and
call counts.  Either way a run ends after about ``--seconds``.  Every output is checked against the references in
``check.py``; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CLI = 2
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
CLI = "from pointerlab.cli import main; raise SystemExit(main())"

PER_LAYER = [
    ("scenario.parse_ms", "scenario.parse", 0), ("scenario.parse_calls", "scenario.parse", 1),
    ("runner.run_self_ms", "runner.run", 0), ("runner.render_ms", "runner.render", 0),
    ("experiment.apply_step_ms", "experiment.apply_step", 0),
    ("experiment.apply_step_calls", "experiment.apply_step", 1),
    ("experiment.certainty_ms", "experiment.certainty", 0),
    ("experiment.certainty_calls", "experiment.certainty", 1),
    ("experiment.reports_ms", "experiment.reports", 0),
    ("measurement.premeasure_ms", "measurement.premeasure", 0),
    ("measurement.premeasure_calls", "measurement.premeasure", 1),
    ("measurement.couple_ms", "measurement.couple", 0),
    ("measurement.couple_calls", "measurement.couple", 1),
    ("measurement.born_ms", "measurement.born", 0),
    ("measurement.born_calls", "measurement.born", 1),
    ("measurement.condition_ms", "measurement.condition", 0),
    ("hilbert.group_ms", "hilbert.group", 0),
    ("hilbert.partial_trace_ms", "hilbert.partial_trace", 0),
    ("decomposition.triortho_ms", "decomposition.triortho", 0),
    ("decomposition.triortho_calls", "decomposition.triortho", 1),
    ("decomposition.rewrite_ms", "decomposition.rewrite", 0),
    ("decomposition.rewrite_calls", "decomposition.rewrite", 1),
]


class Ledger:
    """Attempted and failed operations; one operation is one scenario file
    run and checked.  Only inputs that reproduce a named program fault may
    fail, and only with that fault's symptom; any other failure makes the
    run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, case, results=None, error=None):
        self.attempted += 1
        if error is None:
            problems = [p for chk, r in zip(case.checks, results) for p in chk(r)]
            if len(results) != len(case.checks):
                problems.append(f"{len(results)} results for {len(case.checks)} queries")
        else:
            problems = [error]
        if not problems:
            return
        if error is None and case.symptom and all(
                re.match(case.symptom, p) for p in problems):
            self.failed += 1
            return
        self.correct = False
        tag = f" (input for {case.fault}, but not its symptom)" if case.fault else ""
        print(f"{case.name}{tag}: {'; '.join(problems)}", file=sys.stderr)


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_sample():
    """Fresh interpreter until the CLI has imported pointerlab and parsed
    its arguments (``run --help`` exits right after parsing): seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CLI, "run", "--help"], env=program_env(),
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def cli_pass(cases, paths, ledger, out_path):
    """One CLI process over the whole file set: (wall seconds, peak RSS MiB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI, "run", "--format", "structured", *map(str, paths)],
            env=program_env(), stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"pointerlab run exited with {code}")
    docs, chunk = [], []
    for line in out_path.read_text("utf-8").splitlines():
        if line.startswith("### "):
            if chunk:
                docs.append(json.loads("\n".join(chunk)))
            chunk = []
        else:
            chunk.append(line)
    docs.append(json.loads("\n".join(chunk)))
    if len(docs) != len(cases):
        raise SystemExit(f"pointerlab run printed {len(docs)} reports for {len(cases)} files")
    for case, doc in zip(cases, docs):
        ledger.record(case, doc["results"])
    return wall, usage.ru_maxrss / 1024.0


def warm_pass(cases, ledger, tracer=None):
    """parse -> run -> render for every file, in process: per-file seconds."""
    from pointerlab import runner, scenario

    times = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.file_id = i
        t0 = time.perf_counter()
        try:
            parsed = scenario.parse_scenario(case.text)
            text = runner.run(parsed, source_text=case.text).to_json()
        except Exception as exc:  # a failing input is counted, not fatal
            times.append(time.perf_counter() - t0)
            ledger.record(case, error=f"{type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - t0)
        ledger.record(case, json.loads(text)["results"])
    return times


def another(t0, done, seconds):
    """Whether one more step, at the mean step time so far, ends within
    ``seconds`` of ``t0``."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done <= seconds


def end_to_end(cases, paths, seconds, ledger, work):
    """Warm rounds over the whole file set for about ``seconds``, and never
    fewer than MIN_SAMPLES per-file samples need.  CLI processes come at an
    even spacing, MIN_CLI of them within those rounds, and a set-up sample
    follows every other round, so a slow spell on a shared machine does not
    land on one metric alone."""
    warm_pass(cases[:1], Ledger())  # warm-up: lazy imports; not an operation
    rounds = math.ceil(MIN_SAMPLES / len(cases))
    setup, cli, samples = [], [], []
    t0 = time.perf_counter()
    n = 0
    while n < rounds or another(t0, n, seconds):
        samples += warm_pass(cases, ledger)
        n += 1
        if len(cli) * rounds < n * MIN_CLI:
            cli.append(cli_pass(cases, paths, ledger, work / "cli.out"))
        if n % 2:
            setup.append(setup_sample())
    ms = [s * 1000 for s in samples]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cli_wall_s": (statistics.median(w for w, _ in cli), "s"),
        "scenario_ms_p50": (statistics.median(ms), "ms"),
        "scenario_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "peak_rss_mib": (statistics.median(r for _, r in cli), "MiB"),
    }


def per_layer(cases, seconds, ledger, work, name):
    from tracing import Tracer, instrumented

    tracer = Tracer()
    warm_pass(cases[:1], Ledger())
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    # Pairs of one untraced and one traced pass, the traced one first in
    # every other pair, so that an effect of the order cancels out of
    # trace.overhead_ms; an even number of pairs keeps the orders balanced.
    while len(traced) < 2 or len(traced) % 2 or another(t0, len(traced), seconds):
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not trace:
                plain.append(sum(warm_pass(cases, ledger)))
                continue
            first = len(tracer.spans)
            with instrumented(tracer):
                traced.append(sum(warm_pass(cases, ledger, tracer)))
            layers.append(tracer.self_times(first))
    (work.parent / f"trace-{name}.json").write_text(json.dumps(tracer.document()))
    metrics = {}
    for metric, span, field in PER_LAYER:
        values = [layer[span][field] if span in layer else 0 for layer in layers]
        value = statistics.median(values)
        metrics[metric] = (value * 1000, "ms") if field == 0 else (value, "count")
    amps = statistics.median(
        sum(layer[k][2] for k in ("measurement.premeasure", "measurement.couple") if k in layer)
        for layer in layers)
    metrics["measurement.kernel_amplitudes"] = (amps, "count")
    # Within a pair both passes run back to back, so the pairwise difference
    # is less exposed to the machine's drift than a difference of medians.
    metrics["trace.overhead_ms"] = (
        statistics.median(t - p for t, p in zip(traced, plain)) * 1000, "ms")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pointerlab" / "cli.py").is_file():
        raise SystemExit(f"no pointerlab sources under {SRC}: run from a full checkout")
    # One BLAS thread: with two, import time and the small kernels depend on
    # whether the second core is free, which on a shared machine made the
    # set-up time swing by a quarter between runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gen

    if args.workload not in gen.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}")
    cases = gen.WORKLOADS[args.workload](args.seed)
    name = f"{args.workload}-{args.seed}-{args.trace}"
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, case in enumerate(cases):
            paths.append(work / f"{i:02d}_{case.name}.scn")
            paths[-1].write_text(case.text, "utf-8")
        ledger = Ledger()
        if args.trace:
            metrics = per_layer(cases, args.seconds, ledger, work, name)
        else:
            metrics = end_to_end(cases, paths, args.seconds, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:32s} {value:14.6f} {unit}")
    print(f"{'attempted':32s} {ledger.attempted:14d}\n{'failed':32s} {ledger.failed:14d}")
    print(json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
