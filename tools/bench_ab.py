"""Paired A/B benchmark runs: a parent revision against the working tree.

    python3 tools/bench_ab.py PARENT --workload W [--workload W2 ...] \\
        --seeds A-B --out BENCH_<n>.json [--append] [--trace]

PARENT (any git revision) and the working tree (tracked and untracked,
not ignored, files) are each copied into a fresh sibling directory, so
neither side runs from the checkout itself.  For every seed, each
copy's ``bench/run.py --trace 0`` runs once, one after the other: the
parent first on an even seed, the change first on an odd one, so a seed
runs in the same order in any series and consecutive seeds alternate.
Each run lasts the benchmark's ``run_seconds`` from ``BENCHMARK.json``.
With ``--trace``, each seed's untraced pair is followed by one
``--trace 1`` run per side, in the same order; the gated metrics still
come from the untraced runs only.

The drift-audio bank that ``bench/inputs.py`` synthesizes takes minutes
to make.  When ``bench/inputs.py`` and the modules the bank is built
with (``synthetic``, ``dsp``, ``audio_io``) are the same in PARENT and
in the working tree, both copies use the checkout's own
``.bench_work/bank``, made on first use; otherwise each copy makes its
own.

``--out`` receives the environment, and per workload: each side's
median and interquartile range of the four gated metrics, the
per-seed change/parent ratios, how many seeds the change was better
on, the failed request counts, whether the output digests were equal,
and two verdicts per gated metric (see :func:`verdict`): whether a
claimed gain would hold, and whether the change stays within the
metric's ``bound`` in ``BENCHMARK.json``.  With ``--append`` the
workloads already in ``--out`` are kept, and a workload already there
is added again as a series named by its seeds (say ``audition seeds
11-20``).  With ``--trace`` a workload's ``layers`` hold, per layer
that a traced run recorded, each side's median ``self_s`` and ``calls``
per traced request, the per-seed change/parent ratios and their median
(see :func:`layer_report`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATED = ("latency_p50_ms", "throughput_per_s", "peak_rss_mb", "setup_s")
BANK_INPUTS = (
    "bench/inputs.py",
    "src/audiomatch/synthetic.py",
    "src/audiomatch/dsp.py",
    "src/audiomatch/audio_io.py",
)
SIDES = ("parent", "change")
LAYER_STATS = ("self_s", "calls")
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "thread", "counts")


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, **kwargs)


def export_parent(revision: str, target: Path) -> None:
    """The files of ``revision`` in ``target``."""
    archive = target.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(archive), revision)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def export_working_tree(target: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files in ``target``."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                  capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a deleted tracked file is listed but gone
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def share_bank(revision: str, copies: list[Path]) -> bool:
    """Point every copy's bank at the checkout's, if the bank's inputs did not change."""
    changed = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", revision, "--",
                              *BANK_INPUTS]).returncode
    if changed:
        return False
    bank = ROOT / ".bench_work" / "bank"
    bank.mkdir(parents=True, exist_ok=True)
    for copy in copies:
        (copy / ".bench_work").mkdir(exist_ok=True)
        (copy / ".bench_work" / "bank").symlink_to(bank, target_is_directory=True)
    return True


def layer_stats(copy: Path, workload: str, seed: int) -> dict[str, dict[str, float]]:
    """Each layer's ``self_s`` and ``calls`` per traced request, from a traced run's spans.

    The copy's own ``bench/spans.py`` computes them from the spans file
    its ``bench/run.py --trace 1`` wrote, as that run's metrics are.
    """
    spec = importlib.util.spec_from_file_location("bench_spans", copy / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    path = copy / ".bench_work" / "results" / f"{workload}-seed{seed}-trace1.spans.jsonl"
    with open(path) as lines:
        tracer.spans = [tuple(json.loads(line)[key] for key in SPAN_FIELDS) for line in lines]
    requests = {span[5] for span in tracer.spans} - {"setup"}
    stats = tracer.layer_stats(len(requests))
    layers = {key.removesuffix(".self_s") for key in stats if key.endswith(".self_s")}
    return {layer: {stat: stats[f"{layer}.{stat}"] for stat in LAYER_STATS} for layer in layers}


def run_once(copy: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One ``bench/run.py`` run: its metrics, counts, digests and environment.

    A traced run gives :func:`layer_stats` under ``layers`` in place of
    the gated ``metrics``.
    """
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=copy, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    environment = next(json.loads(line[len("# env "):]) for line in lines
                       if line.startswith("# env "))
    digests = dict(line[len("digest."):].split(maxsplit=1) for line in lines
                   if line.startswith("digest."))
    run = {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digests": digests,
        "environment": environment,
    }
    if trace:
        run["layers"] = layer_stats(copy, workload, seed)
    else:
        run["metrics"] = {name: result["metrics"][name]["value"] for name in GATED}
    return run


def summary(values: list[float]) -> dict:
    """Median and quartiles (the quartiles are the median for one value)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str,
            bound: float) -> dict:
    """The two verdicts on one gated metric, from each side's :func:`summary`.

    ``claim_rule_met``: the change was better in at least 9 of every 10
    pairs (``wins`` of ``pairs``), and its median is better than the
    parent's by more than the parent's interquartile range.
    ``within_bound``: the change's median is worse than the parent's by
    at most ``bound`` times the parent's median.
    """
    gain = parent["median"] - change["median"]
    if better != "lower":
        gain = -gain
    return {
        "claim_rule_met": 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"],
        "within_bound": -gain <= bound * abs(parent["median"]),
    }


def layer_report(traced: dict[str, list[dict]]) -> dict:
    """Per layer and stat, each side's median over its traced runs and the paired ratios.

    ``traced`` holds each side's :func:`layer_stats`, one per seed in
    seed order.  A layer a run did not record counts 0 there; a ratio
    over a parent's 0 is None, and ``median_ratio`` is the median of the
    other ratios (None if there are none).
    """
    layers = sorted({layer for side in SIDES for run in traced[side] for layer in run})
    report: dict = {}
    for layer in layers:
        report[layer] = {}
        for stat in LAYER_STATS:
            values = {side: [run.get(layer, {}).get(stat, 0.0) for run in traced[side]]
                      for side in SIDES}
            ratios = [change / parent if parent else None
                      for parent, change in zip(values["parent"], values["change"])]
            known = [ratio for ratio in ratios if ratio is not None]
            report[layer][stat] = {
                **{side: statistics.median(values[side]) for side in SIDES},
                "ratios": ratios,
                "median_ratio": statistics.median(known) if known else None,
            }
    return report


def compare(workload: str, seeds: range, copies: dict[str, Path], seconds: float,
            gates: dict[str, dict], trace: bool = False) -> tuple[dict, dict]:
    """Alternated runs of both copies per seed; returns the workload's report and an env.

    With ``trace``, each seed's untraced pair is followed by one traced
    run per side, in the same order, and the report gains ``layers``.
    """
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    traced: dict[str, list[dict]] = {side: [] for side in SIDES}
    for seed in seeds:
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(copies[side], workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", flush=True)
        for side in order if trace else ():
            traced[side].append(run_once(copies[side], workload, seed, seconds, trace=True)
                                ["layers"])
            print(f"{workload} seed {seed} {side}: traced", flush=True)
    pairs = []
    for turn, seed in enumerate(seeds):
        parent, change = runs["parent"][turn], runs["change"][turn]
        pairs.append({
            "seed": seed,
            "first": SIDES[seed % 2],
            "ratios": {name: change["metrics"][name] / parent["metrics"][name]
                       for name in GATED},
            "digests_equal": parent["digests"] == change["digests"],
            "digests": change["digests"],
        })
    wins = {
        name: sum(ratio < 1 if gates[name]["better"] == "lower" else ratio > 1
                  for ratio in (pair["ratios"][name] for pair in pairs))
        for name in GATED
    }
    sides = {
        side: {
            **{name: summary([run["metrics"][name] for run in runs[side]]) for name in GATED},
            "failed": [run["failed"] for run in runs[side]],
            "attempted": [run["attempted"] for run in runs[side]],
        }
        for side in SIDES
    }
    report = {
        "seeds": [seeds.start, seeds.stop - 1],
        "sides": sides,
        "median_ratio": {name: statistics.median(pair["ratios"][name] for pair in pairs)
                         for name in GATED},
        "change_better": {name: f"{wins[name]}/{len(pairs)}" for name in GATED},
        "verdicts": {
            name: verdict(sides["parent"][name], sides["change"][name], wins[name], len(pairs),
                          gates[name]["better"], gates[name]["bound"])
            for name in GATED
        },
        "digests_equal": all(pair["digests_equal"] for pair in pairs),
        "pairs": pairs,
    }
    if trace:
        report["layers"] = layer_report(traced)
    return report, runs["change"][0]["environment"]


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("ingest", "search", "audition", "train"))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--append", action="store_true",
                        help="add to the workloads already in --out; a workload already there "
                             "is added as another series, named by its seeds")
    parser.add_argument("--trace", action="store_true",
                        help="after each seed's untraced pair, one traced run per side; "
                             "record per-layer self time and calls under 'layers'")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gates = {entry["name"]: entry for entry in spec["end_to_end"]}
    parent_commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}",
                         capture_output=True, text=True).stdout.strip()
    head = _git("rev-parse", "HEAD", capture_output=True, text=True).stdout.strip()
    dirty = bool(_git("status", "--porcelain", capture_output=True, text=True).stdout.strip())

    report: dict = {"workloads": {}}
    if args.append:
        report["workloads"] = json.loads(args.out.read_text())["workloads"]
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as scratch:
        copies = {side: Path(scratch) / side for side in SIDES}
        for copy in copies.values():
            copy.mkdir()
        export_parent(parent_commit, copies["parent"])
        export_working_tree(copies["change"])
        shared = share_bank(parent_commit, list(copies.values()))
        for workload in args.workload:
            result, environment = compare(workload, args.seeds, copies, spec["run_seconds"],
                                          gates, args.trace)
            name = workload
            if name in report["workloads"]:
                name = f"{workload} seeds {args.seeds.start}-{args.seeds.stop - 1}"
            report["workloads"][name] = {"bank_shared": shared, **result}
    for key in ("workload", "seed", "git_commit"):
        environment.pop(key, None)
    report.update(
        environment=environment,
        parent=parent_commit,
        change=f"working tree on {head}" + (" with uncommitted changes" if dirty else ""),
    )
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
