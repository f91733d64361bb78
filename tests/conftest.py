import numpy as np
import pytest

from audiomatch import AudioClip
from audiomatch.retrieval import base_features
from audiomatch.synthetic import drift_sequence_audio


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tone_clip():
    """Factory for mono test tones at 48 kHz."""

    def make(freq=440.0, seconds=1.0, amp=0.5, sr=48000, source_id="tone", offset_s=0.0):
        t = np.arange(int(round(seconds * sr))) / sr
        return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr, source_id, offset_s)

    return make


@pytest.fixture
def drift_features():
    """Factory for an in-memory drift training corpus of log-mel base features.

    Returns an (n_sequences, n_frames, d_base) float64 array.
    """

    def make(n_sequences, n_frames=10, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack(
            [base_features(drift_sequence_audio(rng, n_frames)) for _ in range(n_sequences)]
        )

    return make
