"""Peak RSS, page faults and latency of ``embedding.train``: a parent revision against the working tree.

    python3 tools/bench_train_memory.py PARENT [--calls 6] [--out FILE]

A seeded corpus of the benchmark's train shape (256 sequences x 10
frames x 2880, standard normal features) is saved into a temporary
directory.  PARENT's source (a ``git archive`` copy) and the working
tree's each run in one fresh process, one after the other, that trains a
2880 -> 512 head on it ``--calls`` times with the benchmark's settings
(2 epochs, batches of 32), after one warm-up call on 64 sequences as the
benchmark makes.  The report gives, per side, the process's peak RSS
(``VmHWM``, so Linux only), the minor page faults of each timed call
(median and largest), their median latency and a digest of the trained
parameters, which must be equal on both sides.  It is printed as JSON,
and written to ``--out`` when given.
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

SHAPE = (256, 10, 2880)
D = 512

# Runs in the fresh process: argv is the source directory, the corpus and the call count.
CHILD = """
import hashlib, json, resource, statistics, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from audiomatch import embedding
corpus, calls = np.load(sys.argv[2]), int(sys.argv[3])
head = embedding.ProjectionHead.initialize(corpus.shape[2], int(sys.argv[4]), seed=0)
config = embedding.TrainConfig(epochs=2, learning_rate=1e-4, batch_size=32, tau=0.1, seed=0)
embedding.train(head, corpus[:64], embedding.TrainConfig(epochs=1, batch_size=32))
faults, seconds = [], []
for _ in range(calls):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = embedding.train(head, corpus, config)
    seconds.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
# VmHWM is this process image's own peak: ru_maxrss would count the forking parent's.
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
weights = result.head.weight.tobytes() + result.head.bias.tobytes()
print(json.dumps({
    "peak_rss_mb": int(status["VmHWM"].split()[0]) * 1024 / 1e6,
    "faults_median": statistics.median(faults),
    "faults_max": max(faults),
    "p50_ms": statistics.median(seconds) * 1e3,
    "parameters_sha256": hashlib.sha256(weights).hexdigest(),
}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare the working tree against")
    parser.add_argument("--calls", type=int, default=6, help="timed train calls per process")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")

    report: dict = {
        "parent": args.parent,
        "calls": args.calls,
        "shape": [*SHAPE, D],
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    with tempfile.TemporaryDirectory(prefix="bench_train_memory-") as scratch:
        corpus = Path(scratch) / "corpus.npy"
        np.save(corpus, np.random.default_rng(0).standard_normal(SHAPE))
        parent = Path(scratch) / "parent"
        export_parent(args.parent, parent)
        sides = {"parent": parent / "src", "change": ROOT / "src"}
        for side, src in sides.items():
            done = subprocess.run(
                [sys.executable, "-c", CHILD, str(src), str(corpus), str(args.calls), str(D)],
                capture_output=True, text=True, check=True,
            )
            report[side] = json.loads(done.stdout)
            print(f"{side}: {report[side]}", flush=True)
    report["parameters_equal"] = (
        report["parent"]["parameters_sha256"] == report["change"]["parameters_sha256"]
    )
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0 if report["parameters_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
