"""Peak RSS, page faults and latency of queries: a parent revision against the working tree.

    python3 tools/bench_query_memory.py PARENT [--requests 12] [--out FILE]

Feature files of 2k, 20k and 100k rows at d=512 and of 2k rows at
d=2880 (seeded random unit rows, 10 frames per source) are written into
a temporary directory with the working tree's ``write_features``.  For
each file, PARENT's source (a ``git archive`` copy) and the working
tree's each run two fresh processes, one after the other:

* ``query``: sends ``audiomatch query --features F --query-id ID --k 10``
  through ``cli.main`` ``--requests`` times, a different id each time
  (the streamed path of ``open_features`` for files over a span);
* ``whole``: runs ``build_index(read_features(F))`` once, then
  ``GalleryIndex.query`` with k=10 for ``--requests`` ids, each query's
  own source excluded.

The report gives, per file, path and side, the process's peak RSS
(``VmHWM``, so Linux only) and the median latency of the warm requests
(every request but the first); ``query`` adds the minor page faults of
each warm request (median and largest), and ``whole`` the seconds the
read and index took.  It is printed as JSON, and written to ``--out``
when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_ab import ROOT, export_parent  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from audiomatch.retrieval import Gallery, write_features  # noqa: E402

GALLERIES = [(2_000, 512), (20_000, 512), (100_000, 512), (2_000, 2880)]

# Each runs in a fresh process: argv is the source directory, the feature
# file, the request count and the ids to query.  Each prints its JSON line
# through REPORT; VmHWM is the process image's own peak, where ru_maxrss
# would count the forking parent's.
REPORT = """
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
report["peak_rss_mb"] = int(status["VmHWM"].split()[0]) * 1024 / 1e6
report["warm_p50_ms"] = statistics.median(seconds[1:]) * 1e3
print(json.dumps(report))
"""
CHILDREN = {
    "query": """
import contextlib, io, json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from audiomatch import cli
features, requests, ids = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
faults, seconds = [], []
for index in range(requests):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["query", "--features", features, "--query-id", ids[index], "--k", "10"])
    seconds.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert code == 0, code
report = {"warm_faults_median": statistics.median(faults[1:]), "warm_faults_max": max(faults[1:])}
""" + REPORT,
    "whole": """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from audiomatch.retrieval import build_index, read_features
features, requests, ids = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
start = time.perf_counter()
index = build_index(read_features(features))
report = {"setup_s": time.perf_counter() - start}
seconds = []
for entry_id in ids[:requests]:
    start = time.perf_counter()
    found = index.query(index.vector(entry_id).astype("float64"), 10,
                        exclude_source=index.source_of(entry_id), query_id=entry_id)
    seconds.append(time.perf_counter() - start)
    assert len(found) == 10, found
""" + REPORT,
}


def write_gallery(path: Path, n: int, d: int) -> list[str]:
    """A seeded gallery of n unit rows of dimension d, 10 frames per source; its ids."""
    rng = np.random.default_rng(n + d)
    vectors = rng.standard_normal((n, d), dtype=np.float32)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    sources = [f"s{row // 10:05d}" for row in range(n)]
    ids = [f"{source}@{row % 10}.000" for row, source in enumerate(sources)]
    write_features(path, Gallery(ids, sources, np.arange(n) % 10, vectors))
    return ids


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare the working tree against")
    parser.add_argument("--requests", type=int, default=12, help="queries per process, >= 2")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.requests < 2:
        parser.error("--requests must be at least 2: the first request is not warm")

    report: dict = {
        "parent": args.parent,
        "requests": args.requests,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "galleries": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_query_memory-") as scratch:
        parent = Path(scratch) / "parent"
        export_parent(args.parent, parent)
        sides = {"parent": parent / "src", "change": ROOT / "src"}
        for n, d in GALLERIES:
            path = Path(scratch) / f"g{n}x{d}.amcf"
            ids = write_gallery(path, n, d)
            picks = [ids[(index * 7919) % n] for index in range(args.requests)]
            entry: dict = {"file_mb": path.stat().st_size / 1e6}
            for kind, child in CHILDREN.items():
                entry[kind] = {}
                for side, src in sides.items():
                    done = subprocess.run(
                        [sys.executable, "-c", child, str(src), str(path), str(args.requests),
                         *picks],
                        capture_output=True, text=True, check=True,
                    )
                    entry[kind][side] = json.loads(done.stdout)
                    print(f"{n}x{d} {kind} {side}: {entry[kind][side]}", flush=True)
            report["galleries"][f"{n}x{d}"] = entry
            path.unlink()
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
