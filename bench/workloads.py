"""The four benchmark workloads: state loading, one request, output checks.

Each workload drives audiomatch only through the entry points users
call: ``cli.main`` for the CLI stages, ``GalleryIndex.query`` and
``embedding.train`` for the library.  ``op`` times only the program
call; its checks run outside the timed region and raise
:class:`CheckFailed`, which the loop counts as a failed request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import formats
from audiomatch import audio_io, cli, dsp, embedding, retrieval, transition

RATE = 48000


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _manifest(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class Ingest:
    """Catalog build: CLI ``segment`` then ``featurize --head`` over 200 x 10 s sources."""

    name = "ingest"
    item = "frames"
    min_ops = 2
    expected_frames = 2000
    layers = (
        "cli.main.segment", "cli.main.featurize", "audio_io.load_audio", "audio_io.write_audio",
        "audio_io.resample_to_canonical", "audio_io.segment", "dsp.mel_spectrogram",
        "dsp.power_stft", "embedding.embed", "retrieval.featurize_clip",
        "retrieval.write_features",
    )

    def __init__(self, inputs: Path, work: Path):
        self.inputs, self.work = inputs, work
        self.head = inputs / "head.ssch"
        self.digests: list[str] = []

    def load(self) -> None:
        """No persistent state: every build reads its sources afresh."""

    def _build(self, sources: Path, frames: Path, features: Path) -> float:
        start = time.perf_counter()
        code = _cli(["segment", str(sources), "--out-dir", str(frames)]) or _cli(
            ["featurize", "--manifest", str(frames / "manifest.jsonl"), "--out", str(features),
             "--head", str(self.head)]
        )
        seconds = time.perf_counter() - start
        if code:
            raise CheckFailed(f"ingest exited with code {code}")
        return seconds

    def warmup(self) -> int:
        self._build(self.inputs / "warmup", self.work / "warm", self.work / "warm.amcf")
        return 1

    def op(self, index: int) -> tuple[float, int]:
        frames, features = self.work / "frames", self.work / "features.amcf"
        shutil.rmtree(frames, ignore_errors=True)
        features.unlink(missing_ok=True)
        seconds = self._build(self.inputs / "sources", frames, features)

        manifest = _manifest(frames / "manifest.jsonl")
        ids, sources, offsets, matrix = formats.read_amcf(features)
        if not len(ids) == len(manifest) == self.expected_frames:
            raise CheckFailed(f"{len(ids)} feature rows for {len(manifest)} manifest frames")
        if ids != [row["id"] for row in manifest]:
            raise CheckFailed("feature ids differ from the manifest ids")
        if any(i != f"{s}@{o:.3f}" for i, s, o in zip(ids, sources, offsets.tolist())):
            raise CheckFailed("a feature id is not source@offset")
        drift = np.abs(np.linalg.norm(matrix.astype(np.float64), axis=1) - 1.0).max()
        if drift > 1e-5:
            raise CheckFailed(f"feature norm off by {drift:.3g}")
        self.digests.append(_sha256(features))
        return seconds, len(ids)

    def finish(self, stats: dict) -> tuple[list, dict, int]:
        frames, features = self.work / "frames", self.work / "features.amcf"
        wav_bytes = sum(path.stat().st_size for path in frames.glob("*.wav"))
        named = [
            ("ingest_frames_per_s", stats["throughput"], "frames/s", "segment + featurize wall time"),
            ("ingest.wav_bytes_per_feature_byte", wav_bytes / features.stat().st_size, "ratio", ""),
        ]
        digests = {"features": self.digests[0], "features_repeat_identical": len(set(self.digests)) == 1}
        return named, digests, 0


class Search:
    """One loaded 100k x 512 gallery serving top-10 queries by id, own source excluded."""

    name = "search"
    item = "queries"
    k = 10
    checked = 16  # the first queries of the seeded stream, checked against a brute-force scan
    min_ops = checked
    layers = ("retrieval.read_features", "retrieval.build_index", "retrieval.query")

    def __init__(self, inputs: Path, work: Path):
        self.gallery = inputs / "gallery.amcf"
        self.queries = json.loads((inputs / "queries.json").read_text())
        self.results: list[tuple[str, list[str], list[float]]] = []

    def load(self) -> None:
        self.index = retrieval.build_index(retrieval.read_features(self.gallery))

    def _query(self, query_id: str):
        index = self.index
        vector = index.vector(query_id).astype(np.float64)
        return index.query(vector, self.k, exclude_source=index.source_of(query_id),
                           query_id=query_id)

    def warmup(self) -> int:
        for query_id in self.queries[-3:]:
            self._query(query_id)
        return 3

    def op(self, index: int) -> tuple[float, int]:
        query_id = self.queries[index % len(self.queries)]
        start = time.perf_counter()
        hits = self._query(query_id)
        seconds = time.perf_counter() - start
        if len(hits) != self.k:
            raise CheckFailed(f"{len(hits)} results for k={self.k}")
        if index < self.checked:
            self.results.append((query_id, [h.gallery_id for h in hits], [h.score for h in hits]))
        return seconds, 1

    def _reference(self) -> list[tuple[list[str], np.ndarray]]:
        """Top-k of each checked query by a float64 scan, sorted by (-score, id)."""
        ids, sources, _, matrix = formats.read_amcf(self.gallery)
        row_of = {entry_id: row for row, entry_id in enumerate(ids)}
        sources = np.array(sources)
        queries = [matrix[row_of[query_id]].astype(np.float64) for query_id, _, _ in self.results]
        scores = np.empty((len(queries), len(ids)))
        for start in range(0, len(ids), 8192):
            block = matrix[start : start + 8192].astype(np.float64)
            for q, vector in enumerate(queries):
                # f32 x f32 products are exact in float64; a row-wise sum
                # gives identical rows identical scores.
                scores[q, start : start + 8192] = (block * vector).sum(axis=1)
        expected = []
        for q, (query_id, _, _) in enumerate(self.results):
            row_scores = np.where(sources == sources[row_of[query_id]], -np.inf, scores[q])
            floor = np.partition(row_scores, -self.k)[-self.k]
            rows = sorted(np.flatnonzero(row_scores >= floor), key=lambda r: (-row_scores[r], ids[r]))
            expected.append(([ids[r] for r in rows[: self.k]], row_scores[rows[: self.k]]))
        return expected

    def finish(self, stats: dict) -> tuple[list, dict, int]:
        rows = len(self.index)
        file_bytes = self.gallery.stat().st_size
        del self.index  # free the gallery before the reference scan loads its own copy
        failures, worst = 0, 0.0
        for (query_id, got, got_scores), (want, want_scores) in zip(self.results, self._reference()):
            worst = max(worst, float(np.abs(np.array(got_scores) - want_scores).max()))
            if got != want:
                failures += 1
                print(f"search check: {query_id} returned {got}, expected {want}", file=sys.stderr)
        if worst > 1e-9:
            failures = max(failures, 1)
            print(f"search check: scores differ from the float64 scan by {worst:.3g}", file=sys.stderr)
        ns_per_row = stats["p50_ms"] * 1e6 / rows
        named = [
            ("query_p50_ms", stats["p50_ms"], "ms", ""),
            ("query_p95_ms", stats["p95_ms"], "ms", stats["p95_note"]),
            ("retrieval.query.ns_per_row", ns_per_row, "ns", f"p50 over {rows} rows"),
            ("retrieval.amcf_bytes_per_row", file_bytes / rows, "bytes", ""),
            ("projected_1m_row_query_ms", ns_per_row, "ms", "ns_per_row x 1e6 rows"),
            ("reference_max_score_diff", worst, "", f"{len(self.results)} queries checked"),
        ]
        rankings = "\n".join(f"{q} {' '.join(ids)}" for q, ids, _ in self.results)
        digests = {"rankings": hashlib.sha256(rankings.encode()).hexdigest()}
        return named, digests, failures


class Audition:
    """The editor's loop: CLI ``query --k 5 --render-dir`` over a 2000-frame mel gallery."""

    name = "audition"
    item = "requests"
    k = 5
    digested = 8  # renders of the first requests are hashed
    min_ops = digested
    layers = (
        "cli.main.query", "audio_io.load_audio", "audio_io.write_audio",
        "audio_io.resample_to_canonical", "dsp.mel_spectrogram", "dsp.power_stft",
        "retrieval.read_features", "retrieval.build_index", "retrieval.query",
        "transition.make_plan", "transition.similarity_matrix", "transition.render",
    )

    def __init__(self, inputs: Path, work: Path):
        self.inputs, self.work = inputs, work
        self.manifest = inputs / "frames" / "manifest.jsonl"
        self.queries = json.loads((inputs / "queries.json").read_text())
        self.frame_lengths = {
            row["id"]: formats.wav_frames(row["path"]) for row in _manifest(self.manifest)
        }
        self.renders = hashlib.sha256()

    def load(self) -> None:
        """No persistent state: the CLI reads the gallery on every request."""

    def _request(self, query_id: str) -> tuple[float, Path]:
        render_dir = self.work / "renders"
        shutil.rmtree(render_dir, ignore_errors=True)
        argv = ["query", "--features", str(self.inputs / "gallery.amcf"), "--query-id", query_id,
                "--k", str(self.k), "--manifest", str(self.manifest), "--render-dir",
                str(render_dir), "--out", str(self.work / "query.json")]
        start = time.perf_counter()
        code = _cli(argv)
        seconds = time.perf_counter() - start
        if code:
            raise CheckFailed(f"query exited with code {code}")
        return seconds, render_dir

    def warmup(self) -> int:
        for query_id in self.queries[-2:]:
            self._request(query_id)
        return 2

    def op(self, index: int) -> tuple[float, int]:
        seconds, render_dir = self._request(self.queries[index % len(self.queries)])
        files = sorted(render_dir.iterdir())
        wavs = [path for path in files if path.suffix == ".wav"]
        if len(wavs) != self.k or [p.name for p in files if p not in wavs] != ["plans.json"]:
            raise CheckFailed(f"render dir holds {[p.name for p in files]}")
        plans = json.loads((render_dir / "plans.json").read_text())
        if sorted(plan["file"] for plan in plans) != [p.name for p in wavs]:
            raise CheckFailed("plans.json does not name the rendered files")
        for plan in plans:
            cut_query = round(plan["cut_query_s"] * RATE)
            cut_match = round(plan["cut_match_s"] * RATE)
            want = cut_query + self.frame_lengths[plan["gallery_id"]] - cut_match
            got = formats.wav_frames(render_dir / plan["file"])
            if got != want:
                raise CheckFailed(f"{plan['file']} has {got} samples, expected {want}")
            if not 0.0 <= plan["crossfade_s"] <= transition.DEFAULT_L_MAX:
                raise CheckFailed(f"crossfade {plan['crossfade_s']} s outside [0, l_max]")
        if index < self.digested:
            self.renders.update(_sha256(*files).encode())
        return seconds, 1

    def finish(self, stats: dict) -> tuple[list, dict, int]:
        named = [
            ("audition_p50_ms", stats["p50_ms"], "ms", ""),
            ("audition_p95_ms", stats["p95_ms"], "ms", stats["p95_note"]),
        ]
        return named, {"renders": self.renders.hexdigest()}, 0


class Train:
    """``embedding.train`` over 256 in-memory drift sequences x 10 frames x 2880."""

    name = "train"
    item = "sequences"
    min_ops = 3
    layers = ("embedding.split_and_contrast_loss", "embedding.train")
    config = embedding.TrainConfig(epochs=2, learning_rate=1e-4, batch_size=32, tau=0.1, seed=0)

    def __init__(self, inputs: Path, work: Path):
        self.inputs, self.work = inputs, work
        self.final_loss: float | None = None
        self.checkpoint = ""

    def load(self) -> None:
        self.corpus = np.load(self.inputs / "corpus.npy")
        self.head = embedding.ProjectionHead.initialize(self.corpus.shape[2], 512, seed=0)

    def warmup(self) -> int:
        embedding.train(self.head, self.corpus[:64], embedding.TrainConfig(epochs=1, batch_size=32))
        return 1

    def op(self, index: int) -> tuple[float, int]:
        start = time.perf_counter()
        result = embedding.train(self.head, self.corpus, self.config)
        seconds = time.perf_counter() - start
        steps = self.config.epochs * math.ceil(len(self.corpus) / self.config.batch_size)
        if len(result.history) != steps:
            raise CheckFailed(f"history has {len(result.history)} rows, expected {steps}")
        if not all(math.isfinite(row["loss"]) for row in result.history):
            raise CheckFailed("a training loss is not finite")
        final = result.epoch_means()[-1]
        if self.final_loss is None:
            self.final_loss = final
            path = self.work / "head.ssch"
            result.head.save(path)
            self.checkpoint = _sha256(path)
        elif final != self.final_loss:
            raise CheckFailed(f"final loss {final!r} differs from the first run's {self.final_loss!r}")
        return seconds, len(self.corpus) * self.config.epochs

    def finish(self, stats: dict) -> tuple[list, dict, int]:
        named = [
            ("train_seqs_per_s", stats["throughput"], "sequences/s", ""),
            ("train_final_loss", self.final_loss, "", "last-epoch mean loss, same on every request"),
        ]
        return named, {"checkpoint": self.checkpoint}, 0


WORKLOADS = {w.name: w for w in (Ingest, Search, Audition, Train)}


def _sizes(path_arg: int, rows_of):
    def count(args: tuple, kwargs: dict, result) -> dict:
        return {"bytes": os.path.getsize(args[path_arg]), "rows": rows_of(args, result)}

    return count


def _index_counts(args: tuple, kwargs: dict, index) -> dict:
    held = sum(v.nbytes for v in vars(index).values() if isinstance(v, np.ndarray))
    return {"bytes": held, "rows": len(index)}


def trace_targets() -> list[tuple]:
    """``(owner, attribute, span name, counter)`` for every traced function."""
    plain = [
        (audio_io, ("load_audio", "write_audio", "resample_to_canonical", "segment")),
        (dsp, ("mel_spectrogram", "power_stft")),
        (embedding, ("embed", "split_and_contrast_loss", "train")),
        (retrieval, ("featurize_clip",)),
        (transition, ("make_plan", "similarity_matrix", "render")),
    ]
    targets = [
        (module, attribute, f"{module.__name__.rsplit('.', 1)[1]}.{attribute}", None)
        for module, attributes in plain
        for attribute in attributes
    ]
    return targets + [
        (retrieval, "read_features", "retrieval.read_features",
         _sizes(0, lambda args, result: len(result))),
        (retrieval, "write_features", "retrieval.write_features",
         _sizes(0, lambda args, result: len(args[1]))),
        (retrieval, "build_index", "retrieval.build_index", _index_counts),
        (retrieval.GalleryIndex, "query", "retrieval.query",
         lambda args, kwargs, result: {"rows": len(args[0]), "results": len(result)}),
        (cli, "main", lambda args: f"cli.main.{args[0][0]}", None),
    ]
