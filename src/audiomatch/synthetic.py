"""Seeded synthetic audio corpora for tests, demos, and benchmarks.

Two corpora cover the pipeline end to end without any external data:

* A labeled tone-family retrieval set: families of clips sharing a
  fundamental frequency, with positives drawn from a different clip of
  the same family and negatives from families at least several
  semitones away.  Frame ids match what segmentation produces, so the
  labels plug straight into the CLI path.

* A training corpus of frame sequences whose low band carries a tone
  drifting monotonically a little per frame (adjacent frames sound
  closest) and whose high band carries a loud per-frame random
  distractor tone.  Raw spectral similarity is dominated by the
  distractor; a trained projection has to suppress the high band to
  retrieve neighbors, which is what makes the corpus useful for
  exercising the contrastive objective.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .audio_io import CANONICAL_RATE, AudioClip, write_atomic, write_audio
from .retrieval import frame_id

DRIFT_LOW_AMP = 0.25
DRIFT_HIGH_AMP = 0.5


def tone(
    freq: float,
    seconds: float,
    amp: float = 0.5,
    harmonics: tuple[float, ...] = (1.0,),
    phase: float = 0.0,
) -> np.ndarray:
    """48 kHz sum of harmonics of a fundamental, peak-normalized to ``amp``."""
    t = np.arange(int(round(seconds * CANONICAL_RATE))) / CANONICAL_RATE
    out = np.zeros_like(t)
    for h, weight in enumerate(harmonics, start=1):
        out += weight * np.sin(2.0 * np.pi * freq * h * t + phase)
    peak = np.max(np.abs(out))
    return out * (amp / peak) if peak > 0 else out


def tone_family_set(
    out_dir: str | Path,
    seed: int = 0,
    n_families: int = 8,
    clip_seconds: float = 3.0,
) -> tuple[list[Path], Path]:
    """Write a labeled tone-family retrieval set.

    Each family gets two WAVs sharing a fundamental: an "a" clip whose
    first frame is the query and a "b" clip whose frames are the
    positives.  Negatives are every other family's "b" frames.  Family
    fundamentals sit 5 semitones apart, so negatives always differ by
    at least 3 semitones.

    Returns:
        (wav paths, labels path); labels are JSON lines
        {query_id, gallery_id, relevance} keyed by segmentation frame
        ids.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    fundamentals = 220.0 * 2.0 ** (5.0 * np.arange(n_families) / 12.0)
    harmonics = (1.0, 0.5, 0.25)
    frames_per_clip = int(clip_seconds)

    wav_paths: list[Path] = []
    for fam, f0 in enumerate(fundamentals):
        for variant in ("a", "b"):
            stem = f"fam{fam:02d}_{variant}"
            audio = tone(
                f0,
                clip_seconds,
                amp=0.4,
                harmonics=harmonics,
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            # Slow amplitude wobble plus a faint noise floor keeps the two
            # variants of a family non-identical without moving the pitch.
            t = np.arange(len(audio)) / CANONICAL_RATE
            wobble = 1.0 + 0.1 * np.sin(2.0 * np.pi * float(rng.uniform(0.2, 0.5)) * t)
            audio = audio * wobble + rng.normal(0.0, 1e-4, len(audio))
            path = out_dir / f"{stem}.wav"
            write_audio(AudioClip(np.clip(audio, -1, 1), CANONICAL_RATE, stem), path)
            wav_paths.append(path)

    rows = [
        {
            "query_id": frame_id(f"fam{fam:02d}_a", 0.0),
            "gallery_id": frame_id(f"fam{other:02d}_b", float(offset)),
            "relevance": int(other == fam),
        }
        for fam in range(n_families)
        for other in [fam] + [f for f in range(n_families) if f != fam]
        for offset in range(frames_per_clip)
    ]
    labels_path = out_dir / "labels.jsonl"
    write_atomic(labels_path, ("\n".join(json.dumps(row) for row in rows) + "\n").encode())
    return wav_paths, labels_path


def drift_sequence_audio(rng: np.random.Generator, n_frames: int = 10) -> np.ndarray:
    """Per-frame audio of one training sequence, shape (n_frames, 48000).

    The identity of a sequence lives below ~5 kHz: a fundamental that
    starts in [250, 700] Hz and drifts monotonically 1.2-1.8 semitones
    per frame (so neighbors are the closest frames in pitch) over four
    fixed formant tones unique to the sequence.  A loud pair of
    high-band tones is redrawn every frame, swamping unprojected
    spectral similarity.
    """
    t = np.arange(CANONICAL_RATE) / CANONICAL_RATE
    f0 = float(np.exp(rng.uniform(np.log(250.0), np.log(700.0))))
    rate = float(rng.uniform(1.2, 1.8))
    direction = 1.0 if f0 < 420.0 else -1.0
    formants = np.exp(rng.uniform(np.log(1500.0), np.log(5000.0), size=4))
    formant_amps = rng.uniform(0.6, 1.0, size=4)

    frames = np.empty((n_frames, CANONICAL_RATE))
    for i in range(n_frames):
        fi = f0 * 2.0 ** (direction * rate * i / 12.0)
        low = 0.8 * np.sin(2.0 * np.pi * fi * t) + 0.5 * np.sin(2.0 * np.pi * 2.0 * fi * t)
        for freq, amp in zip(formants, formant_amps):
            low += amp * np.sin(2.0 * np.pi * freq * t)
        low *= DRIFT_LOW_AMP / np.max(np.abs(low))
        hf1 = float(np.exp(rng.uniform(np.log(6000.0), np.log(18000.0))))
        hf2 = float(np.exp(rng.uniform(np.log(6000.0), np.log(18000.0))))
        high = DRIFT_HIGH_AMP * (
            np.sin(2.0 * np.pi * hf1 * t) + 0.7 * np.sin(2.0 * np.pi * hf2 * t)
        )
        frames[i] = np.clip(low + high, -1.0, 1.0)
    return frames


def write_drift_corpus(
    out_dir: str | Path,
    n_sequences: int,
    n_frames: int = 10,
    seed: int = 0,
) -> list[Path]:
    """Write drift sequences as source WAVs, one per sequence.

    Feed the result through segmentation to obtain the per-frame
    manifest the training command consumes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    wav_paths: list[Path] = []
    for index in range(n_sequences):
        stem = f"seq{index:04d}"
        audio = drift_sequence_audio(rng, n_frames).reshape(-1)
        path = out_dir / f"{stem}.wav"
        write_audio(AudioClip(audio, CANONICAL_RATE, stem), path)
        wav_paths.append(path)
    return wav_paths
