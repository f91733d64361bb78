"""Set-up time of one workload in a fresh process.

    python3 bench/probe.py WORKLOAD INPUTS_DIR WORK_DIR SRC_DIR

Times ``import audiomatch.cli`` and then the loading of the workload's
persistent state, and prints both as one JSON line.  ``run.py`` calls
:func:`timed_setup` in its own process the same way, so this module
imports nothing but the standard library before the timed import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable


def timed_setup(
    workload: str, inputs: Path, work: Path, after_import: Callable[[], None] | None = None
):
    """Import the CLI, then load the workload's state; return (workload, import_s, load_s)."""
    start = time.perf_counter()
    import audiomatch.cli  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - start
    import workloads

    if after_import is not None:
        after_import()
    runner = workloads.WORKLOADS[workload](inputs, work)
    start = time.perf_counter()
    runner.load()
    return runner, import_s, time.perf_counter() - start


def main(argv: list[str]) -> int:
    workload, inputs, work, src = argv
    sys.path.insert(0, src)
    _, import_s, load_s = timed_setup(workload, Path(inputs), Path(work))
    print(json.dumps({"import_s": import_s, "load_s": load_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
