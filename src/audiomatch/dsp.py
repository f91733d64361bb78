"""Mel-spectrogram and MFCC features for 48 kHz frames.

The analysis geometry is fixed for the whole corpus so flattened feature
dimensions stay constant, and these module constants are its only
definition: magnitude-squared STFT with a periodic Hann window of
WINDOW_SIZE = 2048 samples and hop HOP_LENGTH = 1024, no center padding,
projected through MEL_BINS = 64 triangular mel filters (HTK mel scale,
0 Hz to Nyquist); MFCCs keep the first N_MFCC = 20 coefficients.  A
1-second 48 kHz frame therefore always yields t = 45 time steps.

Energies are power-domain.  Feature extraction log-compresses them as
log(x + 1e-10); the transition search consumes the raw (pre-log) mel
energies so inner products stay monotone in energy, selected with the
``log_compress`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.fft import dct

from .audio_io import AudioClip
from .errors import TooShort

WINDOW_SIZE = 2048
HOP_LENGTH = 1024
MEL_BINS = 64
N_MFCC = 20
LOG_EPS = 1e-10


class FeatureKind(str, Enum):
    """Which spectrogram, mel or MFCC, a base feature is built from."""

    MEL = "mel"
    MFCC = "mfcc"


@dataclass(frozen=True)
class BaseFeature:
    """Flattened spectrogram, the input of the projection head."""

    values: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.values)


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(sample_rate: int = 48000) -> np.ndarray:
    """Triangular mel filterbank matrix of shape (MEL_BINS, WINDOW_SIZE//2 + 1).

    Band edges are equally spaced on the HTK mel scale between 0 Hz and
    Nyquist; each triangle ramps linearly in Hz and peaks at 1.
    """
    freqs = np.fft.rfftfreq(WINDOW_SIZE, 1.0 / sample_rate)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), MEL_BINS + 2))
    bank = np.zeros((MEL_BINS, len(freqs)))
    for m in range(MEL_BINS):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def filter_center_frequencies(sample_rate: int = 48000) -> np.ndarray:
    """Center frequency in Hz of each mel filter."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), MEL_BINS + 2))
    return edges[1:-1]


# Periodic Hann: one full cosine cycle over the window.
_HANN_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SIZE) / WINDOW_SIZE)
_HANN_WINDOW.flags.writeable = False


def _frame(samples: np.ndarray) -> np.ndarray:
    num_frames = 1 + (len(samples) - WINDOW_SIZE) // HOP_LENGTH
    shape = (num_frames, WINDOW_SIZE)
    strides = (samples.strides[0] * HOP_LENGTH, samples.strides[0])
    return np.lib.stride_tricks.as_strided(samples, shape=shape, strides=strides)


def power_stft(samples: np.ndarray) -> np.ndarray:
    """Magnitude-squared STFT without center padding, shape (bins, t)."""
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    frames = _frame(samples) * _HANN_WINDOW
    return (np.abs(np.fft.rfft(frames, axis=1)) ** 2).T


def mel_spectrogram(clip: AudioClip, *, log_compress: bool = True) -> np.ndarray:
    """Mel-band power spectrogram of a clip, a float64 array of shape (MEL_BINS, t).

    Args:
        clip: Mono clip of at least one analysis window.
        log_compress: Return log(power + 1e-10) when True, raw power
            otherwise (the form the transition search consumes).

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    if len(clip) < WINDOW_SIZE:
        raise TooShort(f"need at least {WINDOW_SIZE} samples, got {len(clip)}")
    mel = mel_filterbank(clip.sample_rate) @ power_stft(clip.samples)
    return np.log(mel + LOG_EPS) if log_compress else mel


def mfcc(clip: AudioClip) -> np.ndarray:
    """First N_MFCC coefficients of the orthonormal DCT-II of the log-mel, shape (N_MFCC, t).

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    return dct(mel_spectrogram(clip), type=2, axis=0, norm="ortho")[:N_MFCC]


def flatten(spec: np.ndarray) -> BaseFeature:
    """Concatenate the columns of a (rows, t) spectrogram into one vector of length rows*t."""
    values = spec.flatten(order="F")
    values.flags.writeable = False
    return BaseFeature(values)
