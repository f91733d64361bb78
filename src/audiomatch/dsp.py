"""Mel-spectrogram and MFCC features for 48 kHz frames.

The analysis geometry is fixed for the whole corpus so flattened feature
dimensions stay constant, and these module constants are its only
definition: magnitude-squared STFT with a periodic Hann window of
WINDOW_SIZE = 2048 samples and hop HOP_LENGTH = 1024, no center padding,
projected through MEL_BINS = 64 triangular mel filters (HTK mel scale,
0 Hz to Nyquist); MFCCs keep the first N_MFCC = 20 coefficients.  A
1-second 48 kHz frame therefore always yields t = 45 time steps.

Every transform takes one clip or an (m, n) block of m equal-length
48 kHz frames: one stacked filterbank ``matmul`` (and DCT ``matmul``)
over the block replaces m per-frame products.  A block of 1-second
frames gives the m per-frame results stacked, bit for bit.  Shorter
frames' last bits may depend on the block (up to 1.8e-15 seen at 3 and
7 time steps a frame).

The power spectrum carries 31 zero bins after its 1025 real ones, so the
mel GEMM's inner dimension, 1056, is a multiple of 32.  Then the float64
mel values are the same bits at 1 and 2 OpenBLAS threads; over 1025 bins
their last bits differed between the two.

Energies are power-domain.  Feature extraction log-compresses them as
log(x + 1e-10); the transition search consumes the raw (pre-log) mel
energies so inner products stay monotone in energy, selected with the
``log_compress`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio_io import CANONICAL_RATE, AudioClip
from .errors import TooShort

WINDOW_SIZE = 2048
HOP_LENGTH = 1024
MEL_BINS = 64
N_MFCC = 20
LOG_EPS = 1e-10
N_BINS = WINDOW_SIZE // 2 + 1  # 1025 rfft bins
PADDED_BINS = 1056  # N_BINS rounded up to a multiple of 32; the tail bins are zero


class FeatureKind(str, Enum):
    """Which spectrogram, mel or MFCC, a base feature is built from."""

    MEL = "mel"
    MFCC = "mfcc"


@dataclass(frozen=True)
class BaseFeature:
    """Flattened spectrogram, the input of the projection head: (d_base,) or (m, d_base)."""

    values: np.ndarray


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filterbank matrix of shape (MEL_BINS, WINDOW_SIZE//2 + 1).

    Band edges are equally spaced on the HTK mel scale between 0 Hz and
    Nyquist; each triangle ramps linearly in Hz and peaks at 1.
    :func:`mel_spectrogram` uses a zero-padded copy built once at import.
    """
    freqs = np.fft.rfftfreq(WINDOW_SIZE, 1.0 / CANONICAL_RATE)
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(CANONICAL_RATE / 2.0), MEL_BINS + 2))
    bank = np.zeros((MEL_BINS, len(freqs)))
    for m in range(MEL_BINS):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


# Zero-padded to PADDED_BINS columns, to match power_stft's zero tail.
_MEL_FILTERBANK = np.pad(mel_filterbank(), ((0, 0), (0, PADDED_BINS - N_BINS)))
_MEL_FILTERBANK.flags.writeable = False

# Periodic Hann: one full cosine cycle over the window.
_HANN_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SIZE) / WINDOW_SIZE)
_HANN_WINDOW.flags.writeable = False


def _dct_basis() -> np.ndarray:
    """First N_MFCC rows of the orthonormal DCT-II matrix over MEL_BINS points."""
    k = np.arange(N_MFCC)[:, None]
    basis = np.cos(np.pi * k * (2 * np.arange(MEL_BINS)[None, :] + 1) / (2 * MEL_BINS))
    basis *= np.sqrt(2.0 / MEL_BINS)
    basis[0] /= np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


_DCT_BASIS = _dct_basis()


def power_stft(samples: np.ndarray) -> np.ndarray:
    """Magnitude-squared STFT without center padding of (..., n) samples.

    The shape is (..., PADDED_BINS, t), and bins N_BINS and up are zero.
    The result is a transposed view of a time-major (..., t, PADDED_BINS)
    array.
    """
    samples = np.asarray(samples, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(samples, WINDOW_SIZE, axis=-1)
    windows = windows[..., ::HOP_LENGTH, :]
    power = np.empty(windows.shape[:-1] + (PADDED_BINS,))
    # One frame's windows at a time, through two buffers made once: the windowed
    # copy and its complex spectrum stay in cache and out of peak memory.  The
    # spectrum's tail bins stay zero, so each abs writes whole contiguous power rows,
    # zero tail included: numpy's abs into the rows' strided first N_BINS is slower.
    windowed = np.empty(windows.shape[-2:])
    spectrum = np.zeros(power.shape[-2:], dtype=np.complex128)
    for frame in np.ndindex(windows.shape[:-2]):
        np.multiply(windows[frame], _HANN_WINDOW, out=windowed)
        np.fft.rfft(windowed, axis=-1, out=spectrum[:, :N_BINS])
        np.abs(spectrum, out=power[frame])
    power *= power  # the same bits as power ** 2
    return power.swapaxes(-1, -2)


def mel_spectrogram(clip: AudioClip | np.ndarray, *, log_compress: bool = True) -> np.ndarray:
    """Mel-band power spectrogram, float64 of shape (MEL_BINS, t), or (m, MEL_BINS, t) for a block.

    The time steps of every frame are projected by one GEMM, and the result
    is C-contiguous.

    Args:
        clip: 48 kHz mono clip of at least one analysis window, or an
            (m, n) block of m such frames.
        log_compress: Return log(power + 1e-10) when True, raw power
            otherwise (the form the transition search consumes).

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip, dtype=np.float64)
    if samples.shape[-1] < WINDOW_SIZE:
        raise TooShort(f"need at least {WINDOW_SIZE} samples, got {samples.shape[-1]}")
    power = power_stft(samples).swapaxes(-1, -2)  # time-major, C-contiguous
    mel = power.reshape(-1, power.shape[-1]) @ _MEL_FILTERBANK.T
    mel = mel.reshape(power.shape[:-1] + (MEL_BINS,)).swapaxes(-1, -2)
    # C-contiguous, as before: similarity_matrix's bits depend on the layout.
    if not log_compress:
        return np.ascontiguousarray(mel)
    out = np.add(mel, LOG_EPS, order="C")
    return np.log(out, out=out)


def mfcc(clip: AudioClip | np.ndarray) -> np.ndarray:
    """First N_MFCC coefficients of the orthonormal DCT-II of the log-mel, shape (..., N_MFCC, t).

    The DCT is one product with the explicit 20 x 64 basis; it matches
    ``scipy.fft.dct(..., norm="ortho")`` to within 3e-14 relative.

    Raises:
        TooShort: Fewer samples than one analysis window.
    """
    return np.matmul(_DCT_BASIS, mel_spectrogram(clip))


def flatten(spec: np.ndarray) -> BaseFeature:
    """Concatenate the columns of a (rows, t) spectrogram into one vector of length rows*t.

    An (m, rows, t) stack gives the m vectors as an (m, rows*t) matrix.
    """
    values = spec.swapaxes(-1, -2).reshape(*spec.shape[:-2], -1)
    values.flags.writeable = False
    return BaseFeature(values)
