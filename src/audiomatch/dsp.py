"""Mel-spectrogram and MFCC features for 48 kHz frames.

The analysis chain is fixed for the whole corpus so flattened feature
dimensions stay constant: magnitude-squared STFT with a periodic Hann
window of 2048 samples and hop 1024, no center padding, projected
through a triangular mel filterbank (HTK mel scale, 0 Hz to Nyquist).
A 1-second 48 kHz frame therefore always yields t = 45 time steps.

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
LOG_EPS = 1e-10

DEFAULT_MEL_BINS = 64
DEFAULT_N_MFCC = 20


class FeatureKind(str, Enum):
    """Which flattened representation a base feature was built from."""

    MEL = "mel"
    MFCC = "mfcc"


@dataclass(frozen=True)
class Spectrogram:
    """f x t matrix of band energies for one clip.

    Attributes:
        data: (rows, time_steps) float64 array; rows are mel bins for
            kind "mel" and cepstral coefficients for kind "mfcc".
        kind: "mel" or "mfcc".
        log_compressed: True when entries are log(power + LOG_EPS).
        sample_rate: Sample rate of the analysed clip; the STFT always
            uses WINDOW_SIZE and HOP_LENGTH.
    """

    data: np.ndarray
    kind: FeatureKind
    log_compressed: bool
    sample_rate: int = 48000

    @property
    def time_steps(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class BaseFeature:
    """Flattened spectrogram, the input of the projection head."""

    values: np.ndarray
    kind: FeatureKind

    @property
    def dimension(self) -> int:
        return len(self.values)


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(
    mel_bins: int = DEFAULT_MEL_BINS,
    n_fft: int = WINDOW_SIZE,
    sample_rate: int = 48000,
) -> np.ndarray:
    """Triangular mel filterbank matrix of shape (mel_bins, n_fft//2 + 1).

    Band edges are equally spaced on the HTK mel scale between 0 Hz and
    Nyquist; each triangle ramps linearly in Hz and peaks at 1.
    """
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), mel_bins + 2))
    bank = np.zeros((mel_bins, len(freqs)))
    for m in range(mel_bins):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def filter_center_frequencies(mel_bins: int = DEFAULT_MEL_BINS, sample_rate: int = 48000) -> np.ndarray:
    """Center frequency in Hz of each mel filter."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), mel_bins + 2))
    return edges[1:-1]


@lru_cache(maxsize=4)
def _hann_window(n: int) -> np.ndarray:
    # Periodic Hann: one full cosine cycle over n samples.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def _frame(samples: np.ndarray, window_size: int, hop: int) -> np.ndarray:
    num_frames = 1 + (len(samples) - window_size) // hop
    shape = (num_frames, window_size)
    strides = (samples.strides[0] * hop, samples.strides[0])
    return np.lib.stride_tricks.as_strided(samples, shape=shape, strides=strides)


def power_stft(samples: np.ndarray, window_size: int = WINDOW_SIZE, hop: int = HOP_LENGTH) -> np.ndarray:
    """Magnitude-squared STFT without center padding, shape (bins, t)."""
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    frames = _frame(samples, window_size, hop) * _hann_window(window_size)
    return (np.abs(np.fft.rfft(frames, axis=1)) ** 2).T


def mel_spectrogram(
    clip: AudioClip,
    mel_bins: int = DEFAULT_MEL_BINS,
    *,
    log_compress: bool = True,
) -> Spectrogram:
    """Mel-band power spectrogram of a clip.

    Args:
        clip: Mono clip of at least one analysis window.
        mel_bins: Number of triangular filters.
        log_compress: Store log(power + 1e-10) when True, raw power
            otherwise (the form the transition search consumes).

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    if len(clip) < WINDOW_SIZE:
        raise TooShort(f"need at least {WINDOW_SIZE} samples, got {len(clip)}")
    power = power_stft(clip.samples)
    mel = mel_filterbank(mel_bins, WINDOW_SIZE, clip.sample_rate) @ power
    if log_compress:
        mel = np.log(mel + LOG_EPS)
    return Spectrogram(
        data=mel,
        kind=FeatureKind.MEL,
        log_compressed=log_compress,
        sample_rate=clip.sample_rate,
    )


def mfcc(clip: AudioClip, n_mfcc: int = DEFAULT_N_MFCC, mel_bins: int = DEFAULT_MEL_BINS) -> Spectrogram:
    """First n_mfcc coefficients of the orthonormal DCT-II of the log-mel.

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    log_mel = mel_spectrogram(clip, mel_bins, log_compress=True)
    coeffs = dct(log_mel.data, type=2, axis=0, norm="ortho")[:n_mfcc]
    return Spectrogram(
        data=coeffs,
        kind=FeatureKind.MFCC,
        log_compressed=True,
        sample_rate=clip.sample_rate,
    )


def flatten(spec: Spectrogram) -> BaseFeature:
    """Concatenate the time-step columns into one vector of length rows*t."""
    values = spec.data.flatten(order="F")
    values.flags.writeable = False
    return BaseFeature(values=values, kind=spec.kind)
