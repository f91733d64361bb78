"""WAV parsing, writing, resampling, and segmentation."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audiomatch
from audiomatch import AudioClip, audio_io, load_audio, segment, write_audio
from audiomatch.errors import AudioMatchError, CorruptFile, IoError, TooShort, UnsupportedFormat


def wav_bytes(samples: np.ndarray, rate: int, fmt: str) -> bytes:
    """Hand-rolled WAV encoder, independent of the package's writer.

    ``samples`` is (frames, channels) float in [-1, 1]; ``fmt`` is one
    of "pcm16", "pcm24", "float32".
    """
    channels = samples.shape[1]
    if fmt == "pcm16":
        ints = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
        data = ints.tobytes()
        bits, code = 16, 1
    elif fmt == "pcm24":
        ints = np.clip(np.rint(samples * 8388608.0), -8388608, 8388607).astype("<i4")
        raw = ints.astype("<u4").tobytes()
        data = b"".join(raw[i : i + 3] for i in range(0, len(raw), 4))
        bits, code = 24, 1
    elif fmt == "float32":
        data = samples.astype("<f4").tobytes()
        bits, code = 32, 3
    else:
        raise ValueError(fmt)
    block = channels * bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(data)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, code, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(data)),
        ]
    )
    return header + data


def write_wav(path, samples, rate, fmt="pcm16"):
    path.write_bytes(wav_bytes(np.atleast_2d(samples.T).T, rate, fmt))
    return path


class TestLoadAudio:
    def test_one_second_of_silence(self, tmp_path):
        path = write_wav(tmp_path / "silence.wav", np.zeros((48000, 1)), 48000)
        clip = load_audio(path)
        assert len(clip) == 48000
        assert clip.sample_rate == 48000
        assert np.all(clip.samples == 0.0)

    def test_symmetric_stereo_mixes_to_zero(self, tmp_path):
        stereo = np.column_stack([np.full(4800, 0.5), np.full(4800, -0.5)])
        path = write_wav(tmp_path / "sym.wav", stereo, 48000)
        clip = load_audio(path)
        assert np.all(clip.samples == 0.0)

    def test_resampled_sine_keeps_its_frequency(self, tmp_path):
        # Oracle: direct synthesis of the same sine at 48 kHz.
        t_in = np.arange(44100) / 44100
        path = write_wav(
            tmp_path / "sine44.wav", (0.5 * np.sin(2 * np.pi * 440 * t_in))[:, None], 44100
        )
        clip = load_audio(path)
        assert len(clip) == 48000

        window = np.hanning(8192)
        spectrum = np.abs(np.fft.rfft(clip.samples[4096 : 4096 + 8192] * window))
        freqs = np.fft.rfftfreq(8192, 1 / 48000)
        bin_width = 48000 / 8192
        assert abs(freqs[np.argmax(spectrum)] - 440.0) <= bin_width

        t48 = np.arange(48000) / 48000
        reference = 0.5 * np.sin(2 * np.pi * 440 * t48)
        mid = slice(2000, 46000)  # skip filter edge effects
        assert np.max(np.abs(clip.samples[mid] - reference[mid])) < 1e-3

    def test_24_bit_and_float32_paths(self, tmp_path):
        ramp = np.linspace(-0.9, 0.9, 4800)[:, None]
        clip24 = load_audio(write_wav(tmp_path / "r24.wav", ramp, 48000, "pcm24"))
        clipf = load_audio(write_wav(tmp_path / "rf.wav", ramp, 48000, "float32"))
        assert np.max(np.abs(clip24.samples - ramp[:, 0])) < 2**-23
        assert np.max(np.abs(clipf.samples - ramp[:, 0])) < 1e-7

    def test_24_bit_decode_matches_byte_formula(self, rng):
        # Oracle: assemble each little-endian 3-byte sample and sign-extend bit 23.
        edges = bytes.fromhex("000000 ffffff 000080 ffff7f 010000 feffff ff7f00 008000")
        data = edges + rng.integers(0, 256, size=3 * 5000, dtype=np.uint8).tobytes()
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        ints -= (ints & 0x800000) << 1
        assert ints[:4].tolist() == [0, -1, -(2**23), 2**23 - 1]
        for channels in (1, 2):
            fmt = struct.pack("<HHIIHH", 1, channels, 48000, 48000 * 3 * channels, 3 * channels, 24)
            body = data[: len(data) // (3 * channels) * 3 * channels]
            wav = (b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE" + b"fmt "
                   + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(body)) + body)
            samples, rate, is_float = audio_io._parse_wav(wav)
            expected = ints[: len(body) // 3].astype(np.float64) / 8388608.0
            assert rate == 48000 and not is_float
            assert samples.shape == (len(body) // (3 * channels), channels)
            assert np.array_equal(samples.reshape(-1), expected)

    def test_mixdown_is_linear(self, tmp_path, rng):
        left = rng.uniform(-0.8, 0.8, 4800)
        right = rng.uniform(-0.8, 0.8, 4800)
        stereo = load_audio(write_wav(tmp_path / "st.wav", np.column_stack([left, right]), 48000))
        mono_l = load_audio(write_wav(tmp_path / "l.wav", left[:, None], 48000))
        mono_r = load_audio(write_wav(tmp_path / "r.wav", right[:, None], 48000))
        mean = (mono_l.samples + mono_r.samples) / 2
        assert np.max(np.abs(stereo.samples - mean)) <= 1.0 / 32768

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_audio(tmp_path / "nope.wav")

    def test_not_a_wav(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"ID3\x00 this is not a wav at all")
        with pytest.raises(CorruptFile):
            load_audio(bad)

    def test_truncated_data_chunk(self, tmp_path):
        good = wav_bytes(np.zeros((1000, 1)), 48000, "pcm16")
        bad = tmp_path / "trunc.wav"
        bad.write_bytes(good[: len(good) - 500])
        with pytest.raises(CorruptFile):
            load_audio(bad)

    def test_unsupported_codec(self, tmp_path):
        raw = bytearray(wav_bytes(np.zeros((100, 1)), 48000, "pcm16"))
        struct.pack_into("<H", raw, 20, 0x0007)  # mu-law format code
        bad = tmp_path / "mulaw.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormat):
            load_audio(bad)

    def test_unsupported_bit_depth(self, tmp_path):
        raw = bytearray(wav_bytes(np.zeros((100, 1)), 48000, "pcm16"))
        struct.pack_into("<H", raw, 34, 8)  # claim 8-bit PCM
        struct.pack_into("<H", raw, 32, 1)  # block align for 8-bit mono
        bad = tmp_path / "pcm8.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormat):
            load_audio(bad)

    def test_partial_frame_in_data_chunk(self, tmp_path):
        # 16-bit stereo frames are 4 bytes; a 4n+2-byte data chunk ends mid-frame.
        raw = bytearray(wav_bytes(np.zeros((100, 2)), 48000, "pcm16") + b"\x00\x00")
        struct.pack_into("<I", raw, 40, 402)  # data chunk size
        bad = tmp_path / "partial.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="whole number of frames"):
            load_audio(bad)

    def test_block_align_disagreeing_with_format(self, tmp_path):
        raw = bytearray(wav_bytes(np.zeros((100, 1)), 48000, "pcm16"))
        struct.pack_into("<H", raw, 32, 4)  # 16-bit mono frames are 2 bytes
        bad = tmp_path / "align.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="block align 4"):
            load_audio(bad)

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # Only resampling needs scipy.signal, and it dominates import time.
        env = dict(os.environ)
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, audiomatch.cli; print('scipy.signal' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert result.stdout.strip() == "False"


    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # MFCCs use an explicit DCT basis and the resampler is numpy's, so neither
        # importing the CLI nor segmenting a 44.1 kHz WAV loads any scipy.
        env = dict(os.environ)
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        wav = tmp_path / "cd.wav"
        wav.write_bytes(recorded_input(44100, "pcm24", 2))
        scipy_modules = "print([m for m in sys.modules if m[:5] == 'scipy'])"
        for code in (
            f"import sys, audiomatch.cli; {scipy_modules}",
            "import sys; from audiomatch.cli import main; "
            f"main(['segment', {str(wav)!r}, '--out-dir', {str(tmp_path / 'frames')!r}]); "
            f"{scipy_modules}",
        ):
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            assert result.stdout.strip().splitlines()[-1] == "[]"
        assert len(list((tmp_path / "frames").glob("*.wav"))) == 2


class TestWriteAudio:
    def test_out_of_range_samples_clamp_like_clipping(self, tmp_path):
        samples = np.array([1.5, 1.0, 0.99999, -1.0, -1.00001, -7.0, 0.5, 2**-16])
        path = tmp_path / "loud.wav"
        write_audio(AudioClip(samples, 48000), path)
        clipped = np.rint(np.clip(samples, -1.0, 1.0) * 32768.0)
        expected = np.clip(clipped, -32768, 32767).astype("<i2").tobytes()
        assert path.read_bytes()[44:] == expected

    def test_silence_round_trips_to_digital_zero(self, tmp_path):
        clip = AudioClip(np.zeros(4800), 48000)
        path = tmp_path / "z.wav"
        write_audio(clip, path)
        assert np.all(load_audio(path).samples == 0.0)

    def test_full_scale_quantization_bound(self, tmp_path):
        clip = AudioClip(np.ones(4800), 48000)
        path = tmp_path / "one.wav"
        write_audio(clip, path)
        assert np.max(np.abs(load_audio(path).samples - 1.0)) <= 1.0 / 32768

    def test_random_round_trip_bound(self, tmp_path, rng):
        clip = AudioClip(rng.uniform(-1, 1, 48000), 48000)
        path = tmp_path / "r.wav"
        write_audio(clip, path)
        assert np.max(np.abs(load_audio(path).samples - clip.samples)) <= 2**-15

    def test_write_load_is_idempotent_after_first_quantization(self, tmp_path, rng):
        clip = AudioClip(rng.uniform(-1, 1, 4800), 48000)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_audio(clip, p1)
        once = load_audio(p1)
        write_audio(once, p2)
        assert p1.read_bytes()[44:] == p2.read_bytes()[44:]
        assert np.array_equal(load_audio(p2).samples, once.samples)

    def test_unwritable_path(self, tmp_path):
        clip = AudioClip(np.zeros(10), 48000)
        with pytest.raises(IoError):
            write_audio(clip, tmp_path / "no" / "such" / "dir.wav")


class TestSegment:
    def test_ten_seconds_gives_ten_frames(self, tone_clip):
        frames = segment(tone_clip(seconds=10.0))
        assert len(frames) == 10
        assert [f.offset_s for f in frames] == [float(i) for i in range(10)]
        assert all(len(f) == 48000 for f in frames)

    def test_exactly_one_second(self, tone_clip):
        frames = segment(tone_clip(seconds=1.0))
        assert len(frames) == 1
        assert frames[0].offset_s == 0.0

    def test_remainder_dropped_and_prefix_exact(self, tone_clip):
        clip = tone_clip(seconds=2.7)
        frames = segment(clip)
        assert len(frames) == 2
        rebuilt = np.concatenate([f.samples for f in frames])
        assert np.array_equal(rebuilt, clip.samples[: 2 * 48000])

    def test_too_short(self, tone_clip):
        with pytest.raises(TooShort):
            segment(tone_clip(seconds=0.5))

    def test_carries_source_and_offsets(self, tone_clip):
        clip = tone_clip(seconds=3.0, source_id="movie", offset_s=0.0)
        frames = segment(clip)
        assert all(f.source_id == "movie" for f in frames)
        offsets = [f.offset_s for f in frames]
        assert offsets == sorted(offsets)
        assert np.allclose(np.diff(offsets), 1.0)


class TestAudioClip:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 48000)

    def test_rejects_bad_rate(self, tone_clip):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(10), 0)
        # Every clip is 48 kHz, so no two clips can differ in rate.
        with pytest.raises(ValueError, match="^sample_rate must be 48000, got 44100$"):
            AudioClip(np.zeros(100), 44100)
        with pytest.raises(ValueError):
            tone_clip(sr=44100)

    def test_samples_are_copied_only_to_change_dtype(self):
        samples = np.linspace(-1.0, 1.0, 10)
        clip = AudioClip(samples, 48000)
        assert np.shares_memory(clip.samples, samples)
        assert samples.flags.writeable and not clip.samples.flags.writeable
        with pytest.raises(ValueError):
            clip.samples[0] = 0.5
        converted = AudioClip(samples.astype(np.float32), 48000).samples
        assert converted.dtype == np.float64 and not converted.flags.writeable

    def test_slice_is_a_read_only_view(self):
        clip = AudioClip(np.arange(10.0), 48000, "src", 1.0)
        part = clip.slice(2, 5)
        assert np.shares_memory(part.samples, clip.samples)
        assert part.samples.tolist() == [2.0, 3.0, 4.0]
        assert (part.sample_rate, part.source_id) == (48000, "src")
        assert part.offset_s == 1.0 + 2 / 48000
        with pytest.raises(ValueError):
            part.samples[0] = 1.0

    def test_samples_are_read_only(self):
        clip = AudioClip(np.zeros(10), 48000)
        with pytest.raises(ValueError):
            clip.samples[0] = 1.0


def oracle_decode(data: bytes, fmt: str) -> list[float]:
    """Each sample of a WAV data chunk by ``struct.unpack``, over full scale for integers."""
    if fmt == "float32":
        return [struct.unpack("<f", data[i : i + 4])[0] for i in range(0, len(data), 4)]
    if fmt == "pcm16":
        return [struct.unpack("<h", data[i : i + 2])[0] / 32768 for i in range(0, len(data), 2)]
    # 24-bit: pad the three bytes with a copy of their sign, then read a signed int32.
    return [
        struct.unpack("<i", data[i : i + 3] + (b"\xff" if data[i + 2] & 0x80 else b"\x00"))[0]
        / 8388608 for i in range(0, len(data), 3)
    ]


def wav_with_padded_chunk(data: bytes, channels: int, fmt: str, rate: int = 48000) -> bytes:
    """A WAV whose data follows a 1-byte chunk and its pad byte, 2 bytes off 4-byte alignment."""
    code, bits = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}[fmt]
    block = channels * bits // 8
    body = (b"fmt " + struct.pack("<IHHIIHH", 16, code, channels, rate, rate * block, block, bits)
            + b"junk" + struct.pack("<I", 1) + b"j\x00"
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def float32_samples(rng, count: int) -> np.ndarray:
    """Finite float32 values over most of the exponent range, with signed zeros."""
    values = rng.standard_normal(count) * np.exp2(rng.integers(-140, 120, count))
    values[rng.random(count) < 0.05] = -0.0
    return values.astype("<f4")


class TestCodecOracles:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
    def test_decode_matches_per_sample_struct_formula(self, rng, fmt, channels):
        count = 999 * channels
        if fmt == "float32":
            data = float32_samples(rng, count).tobytes()
        else:
            # Random bytes behind 0, -1 and the most negative and most positive values.
            width = 2 if fmt == "pcm16" else 3
            edges = b"".join(
                v.to_bytes(width, "little", signed=True)
                for v in (0, -1, -(2 ** (8 * width - 1)), 2 ** (8 * width - 1) - 1)
            )
            data = edges + rng.integers(0, 256, width * count, dtype=np.uint8).tobytes()
            data = data[: width * count]
        wav = wav_with_padded_chunk(data, channels, fmt)
        assert (wav.index(b"data") + 8) % 4 == 2  # float32 and 24-bit samples are unaligned
        samples, rate, is_float = audio_io._parse_wav(wav)
        assert (rate, is_float, samples.dtype) == (48000, fmt == "float32", np.float64)
        assert samples.shape == (999, channels)
        assert samples.reshape(-1).tolist() == oracle_decode(data, fmt)

    @pytest.mark.parametrize("channels", range(1, 9))
    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
    def test_mixdown_matches_numpy_mean_bit_for_bit(self, tmp_path, rng, fmt, channels):
        n = 4801
        if fmt == "float32":
            data = float32_samples(rng, n * channels).tobytes()
        else:
            data = rng.integers(0, 256, (2 if fmt == "pcm16" else 3) * n * channels,
                                dtype=np.uint8).tobytes()
        wav = wav_with_padded_chunk(data, channels, fmt)
        frames, _, is_float = audio_io._parse_wav(wav)
        # One channel is taken as it is (numpy's mean would turn -0.0 into 0.0).
        mean = frames[:, 0] if channels == 1 else frames.mean(axis=1)
        assert audio_io._mixdown(frames, is_float).tobytes() == mean.tobytes()
        # load_audio clips only float input, the one kind that can leave [-1, 1].
        path = tmp_path / "mix.wav"
        path.write_bytes(wav)
        expected = np.clip(mean, -1.0, 1.0) if is_float else mean
        assert load_audio(path).samples.tobytes() == expected.tobytes()

    def test_write_audio_matches_clip_rint_formula(self, tmp_path):
        # Every half-integer tie of the int16 scale, +-1, the values next to them and beyond.
        ties = (np.arange(-32770, 32770) + 0.5) / 32768
        edges = [1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 32767.5 / 32768,
                 -32768.5 / 32768, 1.5, -1.5, 0.0, -0.0, 2**-16, -(2**-16), 3 * 2**-16]
        x = np.concatenate([ties, edges])
        path = tmp_path / "ties.wav"
        write_audio(AudioClip(x, 48000), path)
        # wav_bytes encodes by np.clip(np.rint(x * 32768), -32768, 32767).astype("<i2").
        assert path.read_bytes() == wav_bytes(x[:, None], 48000, "pcm16")

    def test_frames_of_a_loaded_clip_are_read_only_views(self, tmp_path, rng):
        path = write_wav(tmp_path / "src.wav", rng.uniform(-1, 1, (3 * 48000 + 100, 2)), 48000)
        clip = load_audio(path)
        assert not clip.samples.flags.writeable
        frames = segment(clip)
        assert [f.offset_s for f in frames] == [0.0, 1.0, 2.0]
        for index, frame in enumerate(frames):
            assert frame.source_id == "src" and frame.sample_rate == 48000
            assert np.shares_memory(frame.samples, clip.samples)
            assert not frame.samples.flags.writeable
            whole = clip.samples[index * 48000 : (index + 1) * 48000]
            assert frame.samples.tobytes() == whole.tobytes()
        later = clip.slice(48000, 96000).slice(100, 200)
        assert later.offset_s == 1.0 + 100 / 48000 and len(later) == 100
        # The public constructor keeps every check.
        with pytest.raises(ValueError, match="finite"):
            AudioClip([np.nan], 48000)
        with pytest.raises(ValueError, match="finite"):
            AudioClip(np.array([0.0, np.inf]), 48000)



def with_rate(wav: bytes, rate: int) -> bytes:
    """``wav_bytes`` output whose header claims ``rate`` (byte rate left as it was)."""
    raw = bytearray(wav)
    struct.pack_into("<I", raw, 24, rate)
    return bytes(raw)


class TestSampleRateBounds:
    # Outside 1-768 kHz, or a reduced ratio 48000/g : rate/g with a term above 1000.
    @pytest.mark.parametrize("rate", [4294967295, 1000003, 768001, 999, 1, 47999, 44101, 12345])
    def test_rejected_rate_fails_before_any_large_allocation(self, tmp_path, monkeypatch, rate):
        path = tmp_path / "rate.wav"
        path.write_bytes(with_rate(wav_bytes(np.zeros((4800, 1)), 48000, "pcm16"), rate))

        def refuse(samples, rate):
            raise AssertionError(f"resampling from {rate} Hz was started")

        monkeypatch.setattr(audio_io, "resample_to_canonical", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedFormat, match=f"^unsupported sample rate {rate} Hz"):
                load_audio(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the 9.6 KB file and its parse; 47999 Hz once took 148 MB

    @pytest.mark.parametrize("rate", [1000, 7350, 8000, 11025, 22050, 44100, 47250, 96000, 768000])
    def test_accepted_rates_resample(self, tmp_path, rate):
        path = tmp_path / "rate.wav"
        n = rate // 10
        path.write_bytes(wav_bytes(np.full((n, 2), 0.25), rate, "pcm24"))
        clip = load_audio(path)
        assert len(clip) == -(-n * 48000 // rate) and abs(clip.samples[2400] - 0.25) < 1e-3

    def test_cli_reports_rejected_rate_without_traceback(self, tmp_path, capsys):
        from audiomatch.cli import main

        for rate in (4294967295, 47999):
            path = tmp_path / f"r{rate}.wav"
            path.write_bytes(with_rate(wav_bytes(np.zeros((4800, 1)), 48000, "pcm16"), rate))
            assert main(["segment", str(path), "--out-dir", str(tmp_path / "frames")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: unsupported sample rate {rate} Hz")
            assert "Traceback" not in err

    # sha256 of load_audio's samples, recorded with the codec that scaled by astype then
    # division, filled (n, 4) byte arrays for 24-bit data, mixed down with mean(axis=1)
    # and clipped every clip: the single-pass codec must give the same bytes.
    @pytest.mark.parametrize(
        "rate, fmt, channels, digest",
        [
            (48000, "pcm16", 1,
             "0b264ccd43e6950b2262646369f8611d8d8a44bdcdd5bbc0ae688db5ea108f7f"),
            (48000, "pcm24", 6,
             "287b6d80336e01355b322d0375644891d11c21ac43ecaad5b24ac159e0b42717"),
            (96000, "pcm16", 8,
             "7362bce2ca0159ab2a7afa261fe783b474672d73d14e698f1cbf7e3cf3738cf4"),
        ],
    )
    def test_outputs_equal_the_recorded_ones(self, tmp_path, rate, fmt, channels, digest):
        path = tmp_path / "a.wav"
        path.write_bytes(recorded_input(rate, fmt, channels))
        assert hashlib.sha256(load_audio(path).samples.tobytes()).hexdigest() == digest

    # Resampled samples agree with resample_poly within the stated tolerance, not bit for
    # bit; the sha256 of the 16-bit frames segment writes was recorded with resample_poly.
    @pytest.mark.parametrize(
        "rate, fmt, channels, frames_digest",
        [
            (44100, "pcm24", 2,
             "a7d676769b86028cce4e86c048691c47f5d2e022a285201a485471231624ea15"),
            (22050, "float32", 1,
             "1f24a13e7aa90e24b7559c89b0e6167612d35d87bde2ca50cd799fa4fae8155f"),
        ],
    )
    def test_resampled_outputs_match_resample_poly(
        self, tmp_path, rate, fmt, channels, frames_digest
    ):
        from scipy.signal import resample_poly

        from audiomatch.cli import main

        path = tmp_path / "a.wav"
        path.write_bytes(recorded_input(rate, fmt, channels))
        frames, _, _ = audio_io._parse_wav(path.read_bytes())
        up, down = {44100: (160, 147), 22050: (320, 147)}[rate]
        expected = resample_poly(frames.mean(axis=1), up, down, window=("kaiser", 8.6))
        got = load_audio(path).samples
        assert np.abs(got - np.clip(expected, -1.0, 1.0)).max() <= RESAMPLE_TOLERANCE

        assert main(["segment", str(path), "--out-dir", str(tmp_path / "frames")]) == 0
        digest = hashlib.sha256()
        for frame in sorted((tmp_path / "frames").glob("*.wav")):
            digest.update(frame.read_bytes())
        assert digest.hexdigest() == frames_digest


def recorded_input(rate: int, fmt: str, channels: int) -> bytes:
    """Two seconds of seeded noise and tones, a little over full scale in float."""
    rng = np.random.default_rng(rate + channels)
    t = np.arange(2 * rate) / rate
    tones = np.sin(2 * np.pi * 440.0 * t[:, None] * np.arange(1, channels + 1))
    scale = 1.1 if fmt == "float32" else 0.9
    return wav_bytes(scale * (0.7 * tones + 0.3 * rng.uniform(-1, 1, tones.shape)), rate, fmt)



# The stated bound on |resample_to_canonical - resample_poly| for input in [-1, 1]:
# each output sums about 21 products in another order (worst seen 8.9e-16).
RESAMPLE_TOLERANCE = 1e-14

# Accepted rates of every ratio class: integer up (6:1, 48:1), integer down (1:2,
# 1:4, 1:16), 160:147, 320:147, 3:2, and terms near 1000 (1000:999, 960:961).
_RESAMPLE_RATES = [8000, 1000, 96000, 192000, 768000, 44100, 22050, 32000, 47952, 48050]


class TestSegmentMemory:
    """segment and load_audio hold one source, mixed down, at a time."""

    @pytest.fixture
    def sources(self, tmp_path):
        # 10 s of 44.1 kHz stereo 24-bit: 2.6 MB of file, 7.1 MB decoded, 3.8 MB at 48 kHz.
        rng = np.random.default_rng(5)
        paths = []
        for index in range(3):
            path = tmp_path / f"source{index}.wav"
            path.write_bytes(wav_bytes(rng.uniform(-0.5, 0.5, (441000, 2)), 44100, "pcm24"))
            paths.append(path)
        load_audio(paths[0])  # caches the 160:147 filter outside the traced runs
        return paths

    def test_three_sources_peak_as_one_does(self, tmp_path, sources):
        from audiomatch.cli import main

        peaks = []
        for count in (1, 3):
            tracemalloc.start()
            try:
                argv = ["segment", *map(str, sources[:count]), "--out-dir", str(tmp_path / "f")]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # A clip kept alive while the next source loads would add its 3.8 MB.
        assert peaks[1] - peaks[0] < 1 << 20

    def test_only_the_mono_mix_is_held_while_resampling(self, monkeypatch, sources):
        held = []
        resample = audio_io.resample_to_canonical

        def traced(samples, rate):
            held.append(tracemalloc.get_traced_memory()[0] - before)
            return resample(samples, rate)

        monkeypatch.setattr(audio_io, "resample_to_canonical", traced)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            clip = load_audio(sources[0])
        finally:
            tracemalloc.stop()
        assert len(clip) == 480000
        # The 3.5 MB mix, not the file's bytes (2.6 MB) or the stereo array (7.1 MB).
        assert 441000 * 8 <= held[0] < 441000 * 8 + (256 << 10)


class TestResampler:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        rate=st.sampled_from(_RESAMPLE_RATES),
        length=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 50_000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_resample_poly(self, rate, length, seed):
        from math import gcd

        from scipy.signal import resample_poly

        g = gcd(48000, rate)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, length)
        expected = resample_poly(x, 48000 // g, rate // g, window=("kaiser", 8.6))
        got = audio_io.resample_to_canonical(x, rate)
        assert got.shape == expected.shape
        assert length == 0 or np.abs(got - expected).max() <= RESAMPLE_TOLERANCE
        if rate in (96000, 192000):  # decimation by 2 and 4 sums in resample_poly's order
            assert np.array_equal(got, expected)

    def test_bytes_equal_at_one_and_two_blas_threads(self):
        code = (
            "import hashlib, numpy as np; from audiomatch.audio_io import resample_to_canonical\n"
            "x = np.random.default_rng(5).uniform(-1, 1, 200_003)\n"
            f"for rate in {_RESAMPLE_RATES}:\n"
            "    print(hashlib.sha256(resample_to_canonical(x, rate).tobytes()).hexdigest())"
        )
        src = str(Path(audiomatch.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            outputs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=300,
            ).stdout)
        assert len(outputs[0].split()) == len(_RESAMPLE_RATES)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("rate", [96000, 192000])
    def test_memory_beyond_the_output_is_bounded(self, rate):
        # 60 s of input; one full-length copy of its filter windows would take over 900 MB.
        samples = np.zeros(60 * rate)
        tracemalloc.start()
        try:
            out = audio_io.resample_to_canonical(samples, rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 60 * 48000
        assert peak - out.nbytes < 4_000_000


# Header values the fuzz test swaps in: edges of every check _parse_wav makes.
_RATES = [0, 1, 999, 1000, 44100, 47999, 48000, 96000, 768000, 768001, 2**32 - 1]
_SIZES = [0, 1, 2, 3, 15, 16, 17, 18, 39, 40, 41, 2**31, 2**32 - 1]


@st.composite
def mutated_wavs(draw) -> bytes:
    """A valid WAV (any format, 1-8 channels, optional extensible fmt and padded odd-sized
    chunks), then header fields swapped for edge values and bytes cut, overwritten or added."""
    fmt = draw(st.sampled_from(["pcm16", "pcm24", "float32"]), label="fmt")
    code, bits = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}[fmt]
    channels = draw(st.integers(1, 8), label="channels")
    count = draw(st.integers(0, 12), label="frames") * channels
    if fmt == "float32":
        data = np.array(draw(st.lists(st.floats(width=32), min_size=count, max_size=count)),
                        dtype="<f4").tobytes()
    else:
        data = draw(st.binary(min_size=count * bits // 8, max_size=count * bits // 8))
    rate = draw(st.sampled_from([48000] * 12 + [44100] * 4 + _RATES), label="rate")
    channels = draw(st.sampled_from([channels] * 12 + [0, 9]), label="claimed channels")
    block = draw(st.sampled_from([channels * bits // 8] * 12 + [0, 1, 3, 4, 6]), label="align")
    bits = draw(st.sampled_from([bits] * 12 + [0, 8, 16, 24, 32]), label="bits")
    extensible = draw(st.booleans(), label="extensible")
    fmt_body = struct.pack("<HHIIHH", 0xFFFE if extensible else code, channels, rate,
                           rate * block % 2**32, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, then the sub-format GUID
        fmt_body += struct.pack("<HHIH", 22, bits, 0, code) + bytes(14)
    chunks = [[b"fmt ", fmt_body], [b"data", data]]
    for _ in range(draw(st.integers(0, 2), label="extra chunks")):
        chunks.insert(draw(st.integers(0, len(chunks))),
                      [b"LIST", draw(st.binary(max_size=5), label="extra")])
    if draw(st.booleans(), label="data first"):
        chunks.reverse()
    sizes = [len(body) for _, body in chunks]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]), label="size edits")):
        at = draw(st.integers(0, len(chunks) - 1))
        sizes[at] = draw(st.sampled_from([*_SIZES, sizes[at] + 1, max(sizes[at] - 1, 0)]))
    body = b"".join(
        name + struct.pack("<I", size) + chunk + b"\x00" * (len(chunk) & 1)
        for (name, chunk), size in zip(chunks, sizes)
    )
    raw = bytearray(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]), label="byte edits")):
        at = draw(st.integers(0, len(raw)), label="at")
        edit = draw(st.sampled_from(["truncate", "overwrite", "insert"]), label="edit")
        if edit == "truncate":
            del raw[at:]
        elif edit == "overwrite":
            patch = draw(st.binary(min_size=1, max_size=4), label="patch")
            raw[at : at + len(patch)] = patch
        else:
            raw[at:at] = draw(st.binary(min_size=1, max_size=3), label="insert")
    return bytes(raw)


@pytest.fixture(scope="module")
def wav_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav") / "f.wav"


class TestParseWavFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(raw=mutated_wavs())
    def test_mutated_wav_decodes_or_raises_audiomatch_error(self, wav_path, raw):
        try:
            samples, rate, is_float = audio_io._parse_wav(raw)
        except AudioMatchError as exc:  # anything else escapes
            parsed = exc
        else:
            parsed = None
            assert samples.dtype == np.float64 and samples.ndim == 2
            assert 1 <= samples.shape[1] <= 8 and 1000 <= rate <= 768000
            assert np.isfinite(samples).all()
            if not is_float:
                assert ((samples >= -1.0) & (samples < 1.0)).all()
        # load_audio fails as the parser did, or gives a canonical clip.
        wav_path.write_bytes(raw)
        try:
            clip = load_audio(wav_path)
        except AudioMatchError as exc:
            assert parsed is not None and (type(exc), str(exc)) == (type(parsed), str(parsed))
        else:
            assert parsed is None and not clip.samples.flags.writeable
            assert ((clip.samples >= -1.0) & (clip.samples <= 1.0)).all()


# One key of each kind, and the key no two rows may share, for the JSON-lines reader tests.
_FIELDS = {"id": "a string", "offset_s": "a number", "relevance": "a 0 or 1"}


def oracle_rows(path, raw: bytes) -> list[dict] | str:
    """The rows ``read_json_lines(path, _FIELDS, unique=("id",))`` must give, or its error text.

    Written apart from the reader: ``json.loads`` of each non-blank line
    and ``isinstance`` checks that set bools (and, for 0 or 1, floats) aside.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"manifest {path} is not UTF-8: {exc}"
    rows, line_of_id = [], {}
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"manifest {path} line {number} is not JSON: {exc}"
        if not isinstance(row, dict):
            return f"manifest {path} line {number} is not a JSON object"
        for key, kind in _FIELDS.items():
            value = row.get(key)
            accepted = {
                "a string": isinstance(value, str),
                "a number": isinstance(value, (int, float)) and not isinstance(value, bool),
                "a 0 or 1": isinstance(value, int) and not isinstance(value, bool)
                and value in (0, 1),
            }[kind]
            if not accepted:
                return f"manifest {path} line {number} needs {kind} {key!r}"
        if row["id"] in line_of_id:
            return f"manifest {path} line {number} repeats the id of line {line_of_id[row['id']]}"
        line_of_id[row["id"]] = number
        rows.append(row)
    return rows or f"manifest {path} is empty"


def assert_reads_as_oracle(path, raw: bytes) -> None:
    path.write_bytes(raw)
    expected = oracle_rows(path, raw)
    try:
        rows = audio_io.read_json_lines(path, _FIELDS, unique=("id",))
    except AudioMatchError as exc:  # IoError included; anything else escapes
        assert str(exc) == expected
    else:
        assert repr(rows) == repr(expected)  # repr tells 1 from 1.0 and True, and shows NaN


@pytest.fixture(scope="module")
def jsonl_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "m.jsonl"


# Text and bytes the fuzz test splices in: JSON syntax, JSON and non-JSON whitespace,
# line breaks str.splitlines honours, non-finite numbers and bytes that are not UTF-8.
_SPLICES = [
    b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\xc2\x85", b"\xc2\xa0",
    "\u2028".encode(), b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"\\u00e9",
    b'"id": "a", ', b'"relevance": 1', b"NaN", b"-Infinity", b"1e999", b"true", b"null", b"0",
    b"1.0", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00",
]
_VALUES = ["NaN", "Infinity", "-Infinity", "true", "null", "1", "0", "2", "-1", "1.0", "-0",
           '"0"', '{"a": [1, {"b": null}]}', "[1, 2]", '"x\u2028y"', '"dup"']


@st.composite
def manifest_lines(draw) -> list[str]:
    """A valid manifest's lines, some then altered as JSON text: other values (NaN, nested,
    a raw line separator inside a string), padding, duplicate keys, copied rows, arrays."""
    ids = draw(st.lists(st.text("ab\u00e9 ", max_size=4), min_size=1, max_size=4,
                        unique=True))
    ensure_ascii = draw(st.booleans())
    lines = []
    for row_id in ids:
        row = {"id": row_id, "path": f"{row_id}.wav",
               "offset_s": draw(st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3))),
               "relevance": draw(st.sampled_from([0, 1]))}
        replaced = draw(st.sampled_from([None, None, None, "id", "offset_s", "relevance"]))
        if replaced:
            row[replaced] = "@"
        lines.append(json.dumps(row, ensure_ascii=ensure_ascii).replace(
            '"@"', draw(st.sampled_from(_VALUES))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        change = draw(st.sampled_from(["pad", "duplicate", "copy", "wrap", "blank"]))
        if change == "pad":
            pad = st.text(" \t\x0b\xa0", max_size=3)
            lines[at] = draw(pad) + lines[at] + draw(pad)
        elif change == "duplicate":
            key = draw(st.sampled_from(["id", "offset_s", "relevance"]))
            value = draw(st.sampled_from(_VALUES))
            lines[at] = lines[at].rstrip().removesuffix("}") + f', "{key}": {value}}}'
        elif change == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif change == "wrap":
            lines[at] = f"[{lines[at]}]"
        else:
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\x0b"])))
    return lines


class TestReadJsonLines:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_mutated_manifest_reads_as_oracle(self, jsonl_path, data):
        lines = data.draw(manifest_lines(), label="lines")
        raw = bytearray("\n".join(lines).encode() + data.draw(st.sampled_from([b"", b"\n"])))
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2, 3]), label="edits")):
            at = data.draw(st.integers(0, len(raw)), label="at")
            edit = data.draw(st.sampled_from(["insert", "delete", "overwrite"]), label="edit")
            if edit == "insert":
                raw[at:at] = data.draw(st.sampled_from(_SPLICES), label="splice")
            elif edit == "delete":
                del raw[at : at + data.draw(st.integers(1, 8), label="length")]
            else:
                patches = st.one_of(st.sampled_from(_SPLICES), st.binary(min_size=1, max_size=6))
                patch = data.draw(patches, label="patch")
                raw[at : at + len(patch)] = patch
        assert_reads_as_oracle(jsonl_path, bytes(raw))

    @pytest.mark.parametrize(
        "text",
        [
            # Joined into one JSON array these would read as three rows; each alone is no JSON.
            '{"a":[1\n2]},{"c":0},{"b":[3\n4]}\n',
            ' {"id": "a", "offset_s": 0, "relevance": 1}\t\n\t{"id": "b", "offset_s": 1.5, '
            '"relevance": 0} \n',
            '{"id": "a", "offset_s": 0, "relevance": 1} {"id": "b"}\n',
            '\ufeff{"id": "a", "offset_s": 0, "relevance": 1}\n',
            '{"id": "a\u2028b", "offset_s": 0, "relevance": 1}\n',
            '{"id": "a", "offset_s": NaN, "relevance": 1, "offset_s": -Infinity}\n\n\n'
            '{"id": "b", "offset_s": 2, "relevance": 1, "id": "a"}\n',
            '{"id": "a", "offset_s": 0, "relevance": 1.0}\n',
            '{"id": "a", "offset_s": true, "relevance": 1}\n',
            ' \t\n\x0b\n',
        ],
        ids=["spanning", "padded", "extra-data", "bom", "line-separator", "duplicate-keys",
             "float-relevance", "bool-offset", "blank"],
    )
    def test_examples_read_as_oracle(self, tmp_path, text):
        assert_reads_as_oracle(tmp_path / "m.jsonl", text.encode())
