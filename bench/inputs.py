"""Seeded inputs for one benchmark workload, made in a child process.

    python3 bench/inputs.py WORKLOAD SEED OUT_DIR BANK_DIR SRC_DIR

Drift audio costs about 55 ms per one-second frame to synthesize, so
each checkout synthesizes one fixed bank of drift sequences once (audio
as 16-bit PCM plus the log-mel features training consumes) and keeps it
in BANK_DIR.  A seed then draws its own subset, order and file formats
from the bank; the search gallery is drawn from the seed alone.  The
same seed always gives the same files.  Running here, not in the
measuring process, keeps the generator's memory out of peak RSS.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

import formats

RATE = 48000
FRAMES = 10
BANK_SEED = 20240821
BANK_SEQUENCES = 320

INGEST_SOURCES = 200
INGEST_RESAMPLED = 50  # a quarter, rewritten as 44.1 kHz stereo 24-bit
HEAD_DIM = 512

SEARCH_ROWS = 100_000
SEARCH_SOURCES = 2000
SEARCH_CENTRES = 256
SEARCH_QUERIES = 4096
DUPLICATE_EVERY = 8  # every 8th query asks for a row that has exact copies

AUDITION_SOURCES = 200
AUDITION_QUERIES = 4096

TRAIN_SEQUENCES = 256

_TAGS = {"ingest": 1, "search": 2, "audition": 3, "train": 4}


def _save_npy(path: Path, array: np.ndarray) -> None:
    tmp = path.with_suffix(".tmp.npy")
    np.save(tmp, array)
    os.replace(tmp, path)  # a killed generator never leaves a partial bank


def ensure_bank(bank_dir: Path) -> tuple[np.ndarray, np.ndarray]:
    """(sequences, frames*48000) int16 drift audio and (sequences, frames, 2880) log-mel features."""
    audio_path = bank_dir / "drift_audio.npy"
    feature_path = bank_dir / "drift_features.npy"
    if not (audio_path.exists() and feature_path.exists()):
        from audiomatch.audio_io import AudioClip
        from audiomatch.dsp import flatten, mel_spectrogram
        from audiomatch.synthetic import drift_sequence_audio

        bank_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(BANK_SEED)
        audio = np.empty((BANK_SEQUENCES, FRAMES * RATE), dtype="<i2")
        features = np.empty((BANK_SEQUENCES, FRAMES, 2880))
        for index in range(BANK_SEQUENCES):
            frames = drift_sequence_audio(rng, FRAMES)
            audio[index] = np.clip(np.rint(frames.reshape(-1) * 32768.0), -32768, 32767)
            features[index] = [
                flatten(mel_spectrogram(AudioClip(frame, RATE))).values for frame in frames
            ]
        _save_npy(audio_path, audio)
        _save_npy(feature_path, features)
    return np.load(audio_path, mmap_mode="r"), np.load(feature_path, mmap_mode="r")


def _as_44k_stereo(pcm: np.ndarray) -> np.ndarray:
    from scipy.signal import resample_poly

    mono = resample_poly(pcm / 32768.0, 147, 160, window=("kaiser", 8.6))
    return np.stack([mono, 0.8 * mono], axis=1)


def _write_sources(
    directory: Path, bank_audio: np.ndarray, picks: np.ndarray, resampled: frozenset[int] = frozenset()
) -> None:
    directory.mkdir(parents=True)
    for index, pick in enumerate(picks):
        pcm = np.asarray(bank_audio[pick])
        if index in resampled:
            data = formats.wav_bytes(_as_44k_stereo(pcm), 44100, 24)
        else:
            data = formats.wav_bytes(pcm / 32768.0, RATE, 16)
        (directory / f"s{index:04d}.wav").write_bytes(data)


def make_ingest(rng: np.random.Generator, seed: int, out: Path, bank_dir: Path) -> None:
    from audiomatch.embedding import ProjectionHead

    bank_audio, _ = ensure_bank(bank_dir)
    picks = rng.choice(len(bank_audio), INGEST_SOURCES, replace=False)
    resampled = frozenset(rng.choice(INGEST_SOURCES, INGEST_RESAMPLED, replace=False).tolist())
    _write_sources(out / "sources", bank_audio, picks, resampled)
    # Warm-up corpus: one source of each format, 3 s each.
    (out / "warmup").mkdir()
    head = np.asarray(bank_audio[picks[0], : 3 * RATE])
    (out / "warmup" / "w0.wav").write_bytes(formats.wav_bytes(head / 32768.0, RATE, 16))
    (out / "warmup" / "w1.wav").write_bytes(formats.wav_bytes(_as_44k_stereo(head), 44100, 24))
    ProjectionHead.initialize(2880, HEAD_DIM, seed=seed).save(out / "head.ssch")


def make_search(rng: np.random.Generator, seed: int, out: Path, bank_dir: Path) -> None:
    d = HEAD_DIM
    centres = rng.standard_normal((SEARCH_CENTRES, d))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    labels = rng.integers(0, SEARCH_CENTRES, SEARCH_ROWS)
    matrix = np.empty((SEARCH_ROWS, d), dtype=np.float32)
    for start in range(0, SEARCH_ROWS, 10_000):
        block = centres[labels[start : start + 10_000]]
        block = block + rng.normal(0.0, 1.0 / np.sqrt(d), block.shape)
        matrix[start : start + 10_000] = block / np.linalg.norm(block, axis=1, keepdims=True)
    # 1% of rows are exact copies: 500 originals, each copied into two other rows.
    rows = rng.choice(SEARCH_ROWS, 3 * SEARCH_ROWS // 200, replace=False).reshape(3, -1)
    originals = rows[0]
    matrix[rows[1]] = matrix[originals]
    matrix[rows[2]] = matrix[originals]

    per_source = SEARCH_ROWS // SEARCH_SOURCES
    sources = [f"s{row // per_source:04d}" for row in range(SEARCH_ROWS)]
    offsets = (np.arange(SEARCH_ROWS) % per_source).astype(np.float32)
    ids = [f"{source}@{offset:.3f}" for source, offset in zip(sources, offsets)]
    formats.write_amcf(out / "gallery.amcf", ids, sources, offsets, matrix)

    queries = rng.integers(0, SEARCH_ROWS, SEARCH_QUERIES)
    queries[1::DUPLICATE_EVERY] = rng.choice(originals, len(queries[1::DUPLICATE_EVERY]))
    (out / "queries.json").write_text(json.dumps([ids[row] for row in queries]))


def make_audition(rng: np.random.Generator, seed: int, out: Path, bank_dir: Path) -> None:
    import contextlib
    import io

    from audiomatch import cli

    bank_audio, _ = ensure_bank(bank_dir)
    picks = rng.choice(len(bank_audio), AUDITION_SOURCES, replace=False)
    _write_sources(out / "sources", bank_audio, picks)
    frames = out / "frames"
    with contextlib.redirect_stdout(io.StringIO()):
        steps = [
            ["segment", str(out / "sources"), "--out-dir", str(frames)],
            ["featurize", "--manifest", str(frames / "manifest.jsonl"), "--out",
             str(out / "gallery.amcf")],
        ]
        for argv in steps:
            if cli.main(argv) != 0:
                raise RuntimeError(f"audiomatch {argv[0]} failed while building the gallery")
    ids = [json.loads(line)["id"] for line in (frames / "manifest.jsonl").read_text().splitlines()]
    queries = rng.choice(len(ids), AUDITION_QUERIES)
    (out / "queries.json").write_text(json.dumps([ids[row] for row in queries]))


def make_train(rng: np.random.Generator, seed: int, out: Path, bank_dir: Path) -> None:
    _, bank_features = ensure_bank(bank_dir)
    picks = rng.choice(len(bank_features), TRAIN_SEQUENCES, replace=False)
    np.save(out / "corpus.npy", bank_features[picks])


MAKERS = {"ingest": make_ingest, "search": make_search, "audition": make_audition,
          "train": make_train}


def main(argv: list[str]) -> int:
    workload, seed, out, bank_dir, src = argv
    sys.path.insert(0, src)
    out = Path(out)
    out.mkdir(parents=True)
    rng = np.random.default_rng([int(seed), _TAGS[workload]])
    MAKERS[workload](rng, int(seed), out, Path(bank_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
