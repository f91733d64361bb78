"""Time the 48 kHz resampler against scipy.signal.resample_poly, per class of source rate.

    python3 tools/bench_resample.py [--seconds 10] [--repeat 7] [--out FILE]

For each class of accepted source rate, one seeded mono source of
``--seconds`` in [-1, 1] is resampled to 48 kHz by
``audio_io.resample_to_canonical`` and by ``resample_poly`` with the
same Kaiser window.  Each is timed as the best of ``--repeat`` runs,
after one untimed run that builds the filter; the report gives both in
ms, their ratio, the largest |difference| and whether the bits are equal.
The classes are 44.1 and 22.05 kHz (160:147, 320:147), integer up (8 kHz,
6:1), near unity (47 kHz, 48:47), integer down (96 and 192 kHz, 1:2 and
1:4) and ratio terms near 1000 (47952 Hz, 1000:999).  The report also
records the cores, the BLAS and its thread settings, and the versions.
It is printed as JSON, and written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from math import gcd
from pathlib import Path

import numpy as np
import scipy
from scipy.signal import resample_poly

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from audiomatch.audio_io import CANONICAL_RATE, resample_to_canonical  # noqa: E402

RATES = {
    "44.1 kHz": 44100,
    "22.05 kHz": 22050,
    "integer up": 8000,
    "near unity": 47000,
    "integer down 2": 96000,
    "integer down 4": 192000,
    "terms near 1000": 47952,
}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _best_ms(function, repeat: int) -> float:
    function()  # builds and caches the filter
    return min(timeit.repeat(function, number=1, repeat=repeat)) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    results = {}
    for name, rate in RATES.items():
        g = gcd(CANONICAL_RATE, rate)
        up, down = CANONICAL_RATE // g, rate // g
        samples = rng.uniform(-1.0, 1.0, int(args.seconds * rate))
        ours = resample_to_canonical(samples, rate)
        theirs = resample_poly(samples, up, down, window=("kaiser", 8.6))
        ours_ms = _best_ms(lambda: resample_to_canonical(samples, rate), args.repeat)
        theirs_ms = _best_ms(
            lambda: resample_poly(samples, up, down, window=("kaiser", 8.6)), args.repeat
        )
        results[name] = {
            "rate": rate,
            "ratio": f"{up}:{down}",
            "resample_to_canonical_ms": round(ours_ms, 3),
            "resample_poly_ms": round(theirs_ms, 3),
            "ratio_to_resample_poly": round(ours_ms / theirs_ms, 3),
            "max_abs_difference": float(np.abs(ours - theirs).max()),
            "bit_equal": bool(np.array_equal(ours, theirs)),
        }
    report = {"environment": _environment(), "seconds": args.seconds, "repeat": args.repeat,
              "results": results}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
