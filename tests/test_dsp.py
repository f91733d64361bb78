"""Mel-spectrogram, MFCC, and flattening behavior."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import audiomatch
from audiomatch import AudioClip, flatten, mel_spectrogram, mfcc
from audiomatch.dsp import LOG_EPS, N_BINS, mel_filterbank, power_stft
from audiomatch.errors import TooShort


def htk_centers():
    """Center in Hz of each of 64 mel filters spaced evenly on the HTK scale up to 24 kHz."""
    top = 2595.0 * np.log10(1.0 + 24000.0 / 700.0)
    return 700.0 * (10.0 ** (np.linspace(0.0, top, 66)[1:-1] / 2595.0) - 1.0)


class TestMelSpectrogram:
    def test_silence_is_log_eps_everywhere(self):
        spec = mel_spectrogram(AudioClip(np.zeros(48000), 48000))
        assert spec.shape == (64, 45)
        assert np.all(spec == np.log(LOG_EPS))

    def test_one_second_has_45_steps(self, tone_clip):
        # 1 + floor((48000 - 2048) / 1024) = 45
        assert mel_spectrogram(tone_clip()).shape[1] == 45

    def test_pure_tone_peaks_in_nearest_filter(self, tone_clip):
        # Oracle: the HTK mel scale's center-frequency table.
        spec = mel_spectrogram(tone_clip(freq=1000.0), log_compress=False)
        centers = htk_centers()
        expected = int(np.argmin(np.abs(centers - 1000.0)))
        assert np.all(np.argmax(spec, axis=0) == expected)

    def test_too_short(self):
        with pytest.raises(TooShort):
            mel_spectrogram(AudioClip(np.zeros(2047), 48000))

    def test_raw_energies_are_non_negative(self, tone_clip):
        spec = mel_spectrogram(tone_clip(), log_compress=False)
        assert np.all(spec >= 0.0)
        assert np.all(np.isfinite(spec))

    def test_energy_is_additive_over_a_silent_junction(self, rng):
        # Linearity of the pre-log pipeline: with hop-aligned lengths and
        # a silent boundary frame, band energy of a concatenation equals
        # the sum of the parts' energies.
        hop = 1024
        part_a = np.concatenate(
            [rng.uniform(-0.5, 0.5, 94 * hop), np.zeros(2 * hop)]
        )
        part_b = np.concatenate(
            [np.zeros(2 * hop), rng.uniform(-0.5, 0.5, 94 * hop)]
        )
        energy = lambda x: mel_spectrogram(
            AudioClip(x, 48000), log_compress=False
        ).sum()
        total = energy(np.concatenate([part_a, part_b]))
        assert total == pytest.approx(energy(part_a) + energy(part_b), rel=1e-6)

    def test_amplitude_scaling(self, tone_clip):
        clip = tone_clip(freq=500.0, amp=0.2)
        scaled = AudioClip(clip.samples * 3.0, 48000)
        raw = mel_spectrogram(clip, log_compress=False)
        raw_scaled = mel_spectrogram(scaled, log_compress=False)
        assert np.allclose(raw_scaled, raw * 9.0, rtol=1e-9)

        log_spec = mel_spectrogram(clip)
        log_scaled = mel_spectrogram(scaled)
        hot = raw > 1.0  # away from the log epsilon floor
        assert np.allclose((log_scaled - log_spec)[hot], 2.0 * np.log(3.0), atol=1e-6)

    def test_deterministic(self, tone_clip):
        clip = tone_clip(freq=777.0)
        a = mel_spectrogram(clip)
        b = mel_spectrogram(clip)
        assert np.array_equal(a, b)


class TestMfcc:
    def test_silence_concentrates_in_coefficient_zero(self):
        spec = mfcc(AudioClip(np.zeros(48000), 48000))
        expected = np.sqrt(64) * np.log(LOG_EPS)
        assert np.allclose(spec[0], expected, rtol=1e-12)
        assert np.max(np.abs(spec[1:])) < 1e-10

    def test_shape(self, tone_clip):
        assert mfcc(tone_clip()).shape == (20, 45)

    def test_full_dct_inverts_to_log_mel(self, tone_clip):
        # Oracle: explicit orthonormal DCT-II basis, whose transpose is its
        # inverse; the 20 coefficients are its first 20 rows times the log-mel.
        clip = tone_clip(freq=650.0)
        coeffs = mfcc(clip)
        log_mel = mel_spectrogram(clip)

        n = 64
        k = np.arange(n)[:, None]
        basis = np.cos(np.pi * k * (2 * np.arange(n)[None, :] + 1) / (2 * n))
        basis *= np.sqrt(2.0 / n)
        basis[0] /= np.sqrt(2.0)
        assert np.allclose(basis.T @ basis, np.eye(n), atol=1e-12)
        assert np.max(np.abs(coeffs - basis[:20] @ log_mel)) < 1e-6

    def test_too_short(self):
        with pytest.raises(TooShort):
            mfcc(AudioClip(np.zeros(100), 48000))

    def test_matches_scipy_dct_within_stated_tolerance(self, rng):
        from scipy.fft import dct

        block = rng.uniform(-0.5, 0.5, size=(3, 48000))
        reference = dct(mel_spectrogram(block), type=2, axis=1, norm="ortho")[:, :20]
        coeffs = mfcc(block)
        assert coeffs.shape == (3, 20, 45)
        scale = np.abs(reference).max()
        assert np.abs(coeffs - reference).max() <= 3e-14 * scale


class TestBlocks:
    def test_block_equals_each_frame_bit_for_bit(self, rng):
        # For 1-second frames: a block of 1 to 16 of them gives each frame's
        # own bits.  Shorter frames' last bits may depend on the block.
        frames = rng.uniform(-0.5, 0.5, size=(16, 48000))
        for transform in (mel_spectrogram, mfcc):
            alone = [transform(AudioClip(frame, 48000)) for frame in frames]
            for m in range(1, 17):
                stacked = transform(frames[:m])
                assert stacked.tobytes() == np.stack(alone[:m]).tobytes()
        block = frames[:5]
        raw = mel_spectrogram(block, log_compress=False)
        alone = mel_spectrogram(AudioClip(block[2], 48000), log_compress=False)
        assert np.array_equal(raw[2], alone)
        flat = flatten(mel_spectrogram(block)).values
        assert flat.shape == (5, 2880)
        assert np.array_equal(flat[4], flatten(mel_spectrogram(AudioClip(block[4], 48000))).values)

    def test_too_short_block(self):
        with pytest.raises(TooShort):
            mel_spectrogram(np.zeros((2, 2047)))


# The sha256 of the float64 raw mel of blocks of 1 to 16 drift frames, then
# of a 2 s and a 16 s clip.
_MEL_DIGEST = """
import hashlib
import numpy as np
from audiomatch import mel_spectrogram
from audiomatch.synthetic import drift_sequence_audio
frames = drift_sequence_audio(np.random.default_rng(3), 16)
digest = hashlib.sha256()
for block in [frames[:m] for m in range(1, 17)] + [frames[:2].ravel(), frames.ravel()]:
    digest.update(mel_spectrogram(block, log_compress=False).tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_power_tail_is_zero(self, rng):
        power = power_stft(rng.uniform(-0.5, 0.5, size=(2, 48000)))
        assert power.shape == (2, 1056, 45) and N_BINS == 1025
        assert np.all(power[:, N_BINS:] == 0.0) and np.all(power[:, :N_BINS] > 0.0)

    def test_float64_mel_is_the_same_bits_at_one_and_two_threads(self):
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", _MEL_DIGEST], env=env, check=True,
                                  capture_output=True, text=True, timeout=300)
            digests.add(done.stdout)
        assert len(digests) == 1


class TestFlatten:
    def test_concatenates_time_columns(self):
        spec = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(flatten(spec).values, [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_reshape(self, tone_clip):
        spec = mel_spectrogram(tone_clip())
        flat = flatten(spec)
        rebuilt = flat.values.reshape(spec.shape, order="F")
        assert np.array_equal(rebuilt, spec)

    def test_injective_on_distinct_matrices(self, rng):
        a = rng.normal(size=(4, 3))
        b = a.copy()
        b[2, 1] += 1.0
        assert not np.array_equal(flatten(a).values, flatten(b).values)


class TestFilterbank:
    def test_shape_and_coverage(self):
        bank = mel_filterbank()
        assert bank.shape == (64, 1025)
        assert np.all(bank >= 0.0)
        assert np.all(bank.max(axis=1) > 0.0)

    def test_centers_increase(self):
        peaks = np.argmax(mel_filterbank(), axis=1)  # each filter's center bin
        assert np.all(np.diff(peaks) > 0)
        assert 0 < peaks[0] < peaks[-1] < 1024
        assert np.all(np.abs(peaks * 24000 / 1024 - htk_centers()) <= 24000 / 1024)
