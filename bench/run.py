"""audiomatch benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {ingest,search,audition,train} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; audiomatch is imported from its
``src/`` directory, nothing is installed.  Per run:

1. A child process makes the seeded inputs (``inputs.py``).
2. Set-up is timed in fresh processes (``probe.py``) and once more in
   this one: ``import audiomatch.cli`` plus loading the workload's
   persistent state.  ``setup_s`` is the median.
3. After warm-up, one client sends requests in a closed loop for
   ``--seconds`` (at least the workload's ``min_ops``); each request's
   outputs are checked.  Thread settings (AMC_THREADS,
   OPENBLAS_NUM_THREADS, ...) are left as the environment gives them
   and recorded.
4. With ``--trace 0`` the last stdout line holds the end-to-end metrics
   of BENCHMARK.json.  With ``--trace 1`` requests alternate between
   untraced and traced; it holds the per-layer metrics, computed from
   the spans of the traced requests, and the tracing overhead.

Details, spans and digests go to ``.bench_work/results/``.  Metric
definitions and what each per-layer metric should move: METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("ingest", "search", "audition", "train")
SETUP_SAMPLES = 3  # fresh-process set-ups per run, this process included
CHILD_TIMEOUT_S = 150
P95_MIN_SAMPLES = 200  # p95 has ten samples beyond it from here on


def _child(script: str, *args: object) -> str:
    """Run a benchmark script in a fresh interpreter and return its stdout."""
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout


def _environment(args: argparse.Namespace, warmups: int) -> dict:
    import numpy
    import scipy

    from audiomatch import cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AMC_THREADS")},
        "cli_workers": cli._max_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "warmup_requests": warmups,
        "git_commit": commit,
    }


def _latency_stats(durations: list[float], items: int) -> dict:
    stats = {
        "requests": len(durations),
        "p50_ms": statistics.median(durations) * 1e3,
        "throughput": items / sum(durations),
        "p95_ms": None,
        "p95_note": f"n={len(durations)}",
    }
    if len(durations) >= P95_MIN_SAMPLES:
        stats["p95_ms"] = statistics.quantiles(durations, n=20)[18] * 1e3
    else:
        stats["p95_note"] += f" < {P95_MIN_SAMPLES}: fewer than ten samples beyond p95"
    return stats


def closed_loop(runner, seconds: float, tracer: spans.Tracer | None, targets: list):
    """Send requests one after another for ``seconds`` (at least ``runner.min_ops``).

    With a tracer, every second request is traced.  Returns the request
    durations keyed by traced or not, the items done, the failed and the
    attempted request counts.
    """
    by_mode: dict[bool, list[float]] = {False: [], True: []}
    items = failed = index = 0
    start = time.perf_counter()
    while index < runner.min_ops or time.perf_counter() - start < seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.request = f"r{index}"
            tracer.install("audiomatch", targets)
        try:
            took, done = runner.op(index)
        except Exception:  # a failed request is counted, and the loop goes on
            failed += 1
            if failed <= 3:
                traceback.print_exc()
        else:
            by_mode[traced].append(took)
            items += done
        finally:
            if traced:
                tracer.uninstall()
        index += 1
    return by_mode, items, failed, index


def measure(args: argparse.Namespace, run_dir: Path, spec: dict) -> tuple[dict, list, dict]:
    inputs, work = run_dir / "inputs", run_dir / "work"
    work.mkdir(parents=True)
    start = time.perf_counter()
    _child("inputs.py", args.workload, args.seed, inputs, WORK / "bank", SRC)
    generate_s = time.perf_counter() - start

    setups = [
        json.loads(_child("probe.py", args.workload, inputs, run_dir / f"probe{i}", SRC))
        for i in range(SETUP_SAMPLES - 1)
    ]
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace else None
    targets: list = []

    def trace_setup() -> None:
        import workloads

        targets.extend(workloads.trace_targets())
        tracer.install("audiomatch", targets)

    runner, import_s, load_s = probe.timed_setup(
        args.workload, inputs, work, trace_setup if tracer else None
    )
    setups.append({"import_s": import_s, "load_s": load_s})
    loaded_from = Path(sys.modules["audiomatch"].__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        raise RuntimeError(f"audiomatch was imported from {loaded_from}, not {SRC}")
    if tracer:
        tracer.uninstall()

    warmups = runner.warmup()
    by_mode, items, failed, index = closed_loop(runner, args.seconds, tracer, targets)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    durations = by_mode[False] + by_mode[True]
    if not durations:
        raise RuntimeError(f"all {index} {args.workload} requests failed")

    stats = _latency_stats(durations, items)
    named, digests, check_failures = runner.finish(stats)
    failed = min(index, failed + check_failures)
    setup_s = statistics.median(s["import_s"] + s["load_s"] for s in setups)
    import_median = statistics.median(s["import_s"] for s in setups)

    lines = [
        ("setup_s", setup_s, "s", f"median of {len(setups)} fresh processes"),
        ("cli.import_s", import_median, "s", ""),
        ("peak_rss_mb", peak_rss_mb, "MB", ""),
        ("error_rate", failed / index, "", f"{failed}/{index} requests"),
        ("throughput_per_s", stats["throughput"], f"{runner.item}/s", ""),
        ("latency_p50_ms", stats["p50_ms"], "ms", f"n={stats['requests']}"),
        *named,
    ]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_ms": stats["p50_ms"],
        "throughput_per_s": stats["throughput"],
    }
    if tracer:
        values = layer_metrics(tracer, len(by_mode[True]), named, import_median)
        plain, traced = (statistics.median(by_mode[mode]) * 1e3 for mode in (False, True))
        values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
        lines.append(("trace.overhead_pct", values["trace.overhead_pct"], "%",
                      f"traced p50 {traced:.6g} ms vs untraced {plain:.6g} ms"))

    metrics = {}
    for entry in spec["per_layer" if tracer else "end_to_end"]:
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
    result = {"correct": failed == 0, "attempted": index, "failed": failed, "metrics": metrics}
    details = {
        "environment": _environment(args, warmups),
        "generate_s": generate_s,
        "setups": setups,
        "named": {name: {"value": value, "unit": unit, "note": note}
                  for name, value, unit, note in lines},
        "digests": digests,
        "durations_s": durations,
        "result": result,
    }
    stem = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))
        missing = [layer for layer in runner.layers if not values.get(f"{layer}.calls")]
        if missing:
            raise RuntimeError(f"traced run recorded no calls on {', '.join(missing)}")
    return result, lines, details


def layer_metrics(tracer: spans.Tracer, traced_requests: int, named: list,
                  import_s: float) -> dict:
    """Per-layer values from the traced requests, keyed as in BENCHMARK.json."""
    values = tracer.layer_stats(traced_requests)
    values["cli.import_s"] = import_s
    values.update((name, value) for name, value, _, _ in named if name.startswith("ingest."))
    if "retrieval.query.rows" in values:
        values["retrieval.query.ns_per_row"] = (
            values["retrieval.query.p50_ms"] * 1e6 / values["retrieval.query.rows"]
        )
        values["retrieval.query.rows_scanned_per_result"] = (
            values["retrieval.query.rows"] / values["retrieval.query.results"]
        )
    if "retrieval.read_features.rows" in values:
        values["retrieval.read_features.bytes_per_row"] = (
            values["retrieval.read_features.bytes"] / values["retrieval.read_features.rows"]
        )
    values["trace.spans_per_request"] = sum(
        1 for span in tracer.spans if span[5] != "setup") / traced_requests
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "audiomatch" / "__init__.py").is_file():
        print(f"error: no audiomatch sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines, details = measure(args, run_dir, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# audiomatch bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(details["environment"]))
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown:>14} {unit:<12} {note}".rstrip())
    for name, digest in details["digests"].items():
        print(f"digest.{name:<29} {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
