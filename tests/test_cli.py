"""End-to-end subcommand behavior, run in-process via cli.main()."""

import argparse
import errno
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import audiomatch
from audiomatch import (
    AudioClip, ProjectionHead, audio_io, dsp, embed, flatten, load_audio, mel_spectrogram,
    normalize, read_features, retrieval, transition, write_audio,
)
from audiomatch.cli import _max_workers, _render_candidates, build_parser, main
from audiomatch.errors import AudioMatchError
from audiomatch import synthetic
from audiomatch.synthetic import tone, write_drift_corpus


@pytest.fixture
def tone_wav(tmp_path):
    def make(name="clip", freq=440.0, seconds=10.0):
        path = tmp_path / f"{name}.wav"
        write_audio(
            AudioClip(tone(freq, seconds, amp=0.4, harmonics=(1.0, 0.5)), 48000, name), path
        )
        return path

    return make


def manifest_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_cli_with_blas_threads(threads, *argv):
    """Run the CLI in a fresh interpreter with ``threads`` BLAS threads; returns the --out path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = str(Path(audiomatch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "audiomatch.cli", *argv], env=env, capture_output=True,
        check=True, timeout=300,
    )
    return Path(argv[argv.index("--out") + 1])


class TestSegmentCommand:
    def test_ten_second_wav(self, tmp_path, tone_wav):
        wav = tone_wav(seconds=10.0)
        out = tmp_path / "frames"
        assert main(["segment", str(wav), "--out-dir", str(out)]) == 0
        rows = manifest_rows(out / "manifest.jsonl")
        assert len(rows) == 10
        assert len(list(out.glob("*.wav"))) == 10
        assert rows[0]["id"] == "clip@0.000"

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "frames"
        assert main(["segment", str(empty), "--out-dir", str(out)]) != 0
        assert "error" in capsys.readouterr().err

    def test_rerun_is_idempotent(self, tmp_path, tone_wav):
        wav = tone_wav(seconds=3.0)
        out = tmp_path / "frames"
        main(["segment", str(wav), "--out-dir", str(out)])
        first = (out / "manifest.jsonl").read_bytes()
        main(["segment", str(wav), "--out-dir", str(out)])
        assert (out / "manifest.jsonl").read_bytes() == first

    def test_same_file_twice_fails_before_any_output(self, tmp_path, tone_wav, capsys):
        wav = tone_wav(seconds=2.0)
        out = tmp_path / "frames"
        assert main(["segment", str(wav), str(wav), "--out-dir", str(out)]) == 1
        assert f"{wav} and {wav} share the source id 'clip'" in capsys.readouterr().err
        assert not out.exists()

    def test_one_stem_in_two_directories_fails_before_any_output(self, tmp_path, capsys):
        for folder, freq in (("a", 330.0), ("b", 550.0)):
            (tmp_path / folder).mkdir()
            write_audio(AudioClip(tone(freq, 2.0), 48000, "x"), tmp_path / folder / "x.wav")
        out = tmp_path / "frames"
        argv = ["segment", str(tmp_path / "a"), str(tmp_path / "b"), "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'a' / 'x.wav'} and {tmp_path / 'b' / 'x.wav'} share" in err
        assert not out.exists()

    def test_frame_length_has_no_flag(self, tmp_path, tone_wav, capsys):
        # Frames are always 1 second: the flag is a usage error, before any output.
        out = tmp_path / "frames"
        with pytest.raises(SystemExit) as exit_info:
            main(["segment", str(tone_wav(seconds=3.0)), "--out-dir", str(out),
                  "--frame-seconds", "1.5"])
        assert exit_info.value.code == 2
        assert "--frame-seconds" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def segmented(tmp_path, tone_wav):
    wav_a = tone_wav("alpha", freq=330.0, seconds=4.0)
    wav_b = tone_wav("beta", freq=550.0, seconds=4.0)
    out = tmp_path / "frames"
    main(["segment", str(wav_a), str(wav_b), "--out-dir", str(out)])
    return out / "manifest.jsonl"


class TestFeaturizeCommand:
    def test_counts_and_dimension(self, tmp_path, segmented):
        out = tmp_path / "g.amcf"
        assert main(["featurize", "--manifest", str(segmented), "--out", str(out)]) == 0
        gallery = read_features(out)
        assert len(gallery) == 8
        assert gallery.vectors.shape == (8, 2880)

    def test_head_changes_vectors(self, tmp_path, segmented):
        plain = tmp_path / "plain.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(plain)])

        drift_dir = tmp_path / "drift"
        write_drift_corpus(drift_dir, n_sequences=2, n_frames=4, seed=0)
        frames = tmp_path / "drift_frames"
        main(["segment", str(drift_dir), "--out-dir", str(frames)])
        ckpt = tmp_path / "head.ssch"
        main(
            [
                "train", "--manifest", str(frames / "manifest.jsonl"), "--out", str(ckpt),
                "--epochs", "1", "--frames-per-sequence", "4", "--dim", "32",
            ]
        )
        projected = tmp_path / "proj.amcf"
        assert (
            main(
                [
                    "featurize", "--manifest", str(segmented), "--out", str(projected),
                    "--head", str(ckpt),
                ]
            )
            == 0
        )
        assert read_features(projected).vectors.shape[1] == 32

    def test_blas_thread_count_does_not_change_output(self, tmp_path, segmented):
        ckpt = tmp_path / "head.ssch"
        ProjectionHead.initialize(2880, d=64, seed=2).save(ckpt)
        for head in ([], ["--head", str(ckpt)]):
            outputs = [
                run_cli_with_blas_threads(
                    threads, "featurize", "--manifest", str(segmented),
                    "--out", str(tmp_path / f"blas{threads}.amcf"), *head,
                ).read_bytes()
                for threads in (1, 2)
            ]
            assert outputs[0] == outputs[1]

    def test_block_features_equal_per_frame_features(self, tmp_path, segmented, monkeypatch):
        # Oracle: each frame featurized alone, as the per-row path did:
        # the flattened log-mel, normalized or projected one row at a time.
        # Base features and normalized vectors are bit-equal; a projected
        # component may differ by one float32 ulp (the GEMM sums in another
        # order), which these frames do not hit.
        rows = manifest_rows(segmented)
        frames = [load_audio(row["path"]).samples for row in rows]
        reference = np.stack([flatten(mel_spectrogram(AudioClip(f, 48000))).values for f in frames])
        head = ProjectionHead.initialize(2880, d=64, seed=2)
        ckpt = tmp_path / "head.ssch"
        head.save(ckpt)
        head = ProjectionHead.load(ckpt)
        expected = {
            "plain": np.stack([normalize(row) for row in reference]).astype(np.float32),
            "head": np.concatenate([embed(head, r[None]) for r in reference]).astype(np.float32),
        }
        assert len(rows) == 8
        for chunk in (1, 3, 5, 8, 16):  # 5 leaves a partial last block
            monkeypatch.setattr(retrieval, "CHUNK_FRAMES", chunk)
            got = retrieval.base_features(frames)
            assert np.array_equal(got, reference)
            for name, flags in (("plain", []), ("head", ["--head", str(ckpt)])):
                out = tmp_path / f"{name}{chunk}.amcf"
                argv = ["featurize", "--manifest", str(segmented), "--out", str(out), *flags]
                assert main(argv) == 0
                assert np.array_equal(read_features(out).vectors, expected[name])

    def test_corrupt_row_removes_partial_output(self, tmp_path, segmented, capsys):
        rows = manifest_rows(segmented)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        rows.append({"id": "bad@0.000", "path": str(bad), "source_id": "bad", "offset_s": 0.0})
        bad_manifest = tmp_path / "bad.jsonl"
        bad_manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "broken.amcf"
        assert main(["featurize", "--manifest", str(bad_manifest), "--out", str(out)]) != 0
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_corrupt_frame_in_a_later_block_fails_as_one_thread_does(
        self, tmp_path, segmented, capsys, monkeypatch
    ):
        # 40 frames are blocks of 16, 16 and 8; frame 35, in the third, is not a WAV.
        rows = [dict(row, id=f"{row['id']}#{copy}")
                for copy in range(5) for row in manifest_rows(segmented)]
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        rows[35]["path"] = str(bad)
        bad_manifest = tmp_path / "bad.jsonl"
        bad_manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(retrieval, "_workers", lambda: workers)
            out = tmp_path / f"broken{workers}.amcf"
            assert main(["featurize", "--manifest", str(bad_manifest), "--out", str(out)]) == 1
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == ["error: not a RIFF/WAVE file\n"] * 2

    def test_failure_keeps_an_existing_output(self, tmp_path, segmented, capsys):
        rows = manifest_rows(segmented)
        rows[0]["path"] = str(tmp_path / "missing.wav")
        bad_manifest = tmp_path / "bad.jsonl"
        bad_manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "old.amcf"
        out.write_bytes(b"an older file")
        assert main(["featurize", "--manifest", str(bad_manifest), "--out", str(out)]) == 1
        assert out.read_bytes() == b"an older file"
        assert "error" in capsys.readouterr().err

    def test_zero_width_head_fails(self, tmp_path, segmented, capsys):
        head = tmp_path / "zero.ssch"
        head.write_bytes(b"SSCH" + struct.pack("<III", 1, 2880, 0))
        out = tmp_path / "g.amcf"
        argv = ["featurize", "--manifest", str(segmented), "--out", str(out), "--head", str(head)]
        assert main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_overlong_id_fails_without_output(self, tmp_path, segmented, capsys):
        rows = manifest_rows(segmented)
        rows[0]["id"] = "x" * 70_000
        long_manifest = tmp_path / "long.jsonl"
        long_manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "long.amcf"
        assert main(["featurize", "--manifest", str(long_manifest), "--out", str(out)]) == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err


    def test_memory_is_bounded_by_a_block(self, tmp_path, segmented):
        # Four times the frames may add their output rows, not their samples
        # (64 x 48000 float64 is 24.6 MB) or spectra.
        rows = manifest_rows(segmented)
        peaks = []
        for count in (16, 64):
            manifest = tmp_path / f"m{count}.jsonl"
            manifest.write_text("".join(
                json.dumps({**rows[i % len(rows)], "id": f"f{i}"}) + "\n" for i in range(count)
            ))
            argv = ["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "g.amcf")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 << 20


class TestTypedErrors:
    def test_non_finite_checkpoint_fails_with_its_name(self, tmp_path, segmented, capsys):
        head = tmp_path / "nan.ssch"
        ProjectionHead.initialize(2880, d=8, seed=0).save(head)
        raw = bytearray(head.read_bytes())
        raw[20:24] = struct.pack("<f", float("nan"))
        head.write_bytes(bytes(raw))
        with pytest.raises(AudioMatchError):
            ProjectionHead.load(head)
        out = tmp_path / "g.amcf"
        argv = ["featurize", "--manifest", str(segmented), "--out", str(out), "--head", str(head)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {head}: head parameters must be finite")
        assert "Traceback" not in err and not out.exists()

    def test_bad_transition_setting_is_an_audiomatch_error(self, tmp_path, segmented, capsys):
        with pytest.raises(AudioMatchError, match="^phi must"):
            transition.check_settings(phi=float("nan"), fixed_s=0.5, l_min=0.0, l_max=1.0)
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        argv = ["query", "--features", str(features), "--query-id", "alpha@0.000",
                "--manifest", str(segmented), "--render-dir", str(tmp_path / "r"), "--phi", "nan"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phi must") and "Traceback" not in err

    def test_clip_at_another_rate_is_an_audiomatch_error(self):
        with pytest.raises(AudioMatchError, match="^sample_rate must be 48000, got 44100$"):
            AudioClip(np.zeros(10), 44100)


class TestManifestErrors:
    @pytest.mark.parametrize(
        "line, error",
        [
            ("{not json", "is not JSON"),
            ("[1, 2]", "is not a JSON object"),
            ('{"id": "x@0.000", "source_id": "x", "offset_s": 0.0}', "needs a string 'path'"),
            ('{"id": "x@0.000", "path": "x.wav", "offset_s": 0.0}', "needs a string 'source_id'"),
            ('{"id": "x@0.000", "path": "x.wav", "source_id": "x"}', "needs a number 'offset_s'"),
            ('{"id": "x", "path": 7, "source_id": "x", "offset_s": 0.0}', "needs a string 'path'"),
            ('{"id": "x", "path": "x.wav", "source_id": "x", "offset_s": "0"}', "needs a number"),
            ('{"id": "x", "path": "x.wav", "source_id": "x", "offset_s": true}', "needs a number"),
            ('{"path": "x.wav", "source_id": "x", "offset_s": 0.0}', "needs a string 'id'"),
        ],
        ids=["not-json", "list", "no-path", "no-source", "no-offset", "int-path", "text-offset",
             "bool-offset", "no-id"],
    )
    def test_featurize_names_file_and_line(self, tmp_path, capsys, line, error):
        # Line 1 names a WAV that does not exist: the manifest fails before it is read.
        first = {"id": "a@0.000", "path": str(tmp_path / "missing.wav"), "source_id": "a",
                 "offset_s": 0.0}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(first) + "\n\n" + line + "\n")
        out = tmp_path / "g.amcf"
        assert main(["featurize", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} line 3 ") and error in err
        assert not out.exists()

    def test_error_text(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "x.wav", "source_id": "x"}\n')
        assert main(["featurize", "--manifest", str(manifest), "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest} line 1 needs a string 'id'\n"

    @pytest.mark.parametrize(
        "line", ["{not json", "7", '{"path": "x.wav", "offset_s": 1}'],
        ids=["not-json", "number", "no-source"],
    )
    def test_train_names_file_and_line(self, tmp_path, capsys, line):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(line + "\n")
        out = tmp_path / "head.ssch"
        assert main(["train", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: manifest {manifest} line 1 ")
        assert not out.exists()

    def test_train_needs_no_id(self, tmp_path, drift_manifest):
        rows = manifest_rows(drift_manifest)
        manifest = tmp_path / "noid.jsonl"
        manifest.write_text("".join(
            json.dumps({key: row[key] for key in ("path", "source_id", "offset_s")}) + "\n"
            for row in rows
        ))
        argv = ["train", "--manifest", str(manifest), "--epochs", "1", "--dim", "4",
                "--frames-per-sequence", "4", "--out", str(tmp_path / "head.ssch")]
        assert main(argv) == 0

    def test_featurize_repeated_id_fails_before_any_wav(
        self, tmp_path, segmented, capsys, monkeypatch
    ):
        lines = segmented.read_text().splitlines()
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(line + "\n" for line in [*lines, "", lines[1]]))
        loaded = []
        monkeypatch.setattr(audio_io, "load_audio", loaded.append)
        out = tmp_path / "g.amcf"
        assert main(["featurize", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest} line 10 repeats the id of line 2\n"
        assert loaded == [] and not out.exists()

    def test_render_manifest_error_leaves_no_output(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(segmented.read_text() + '{"id": "alpha@0.000"}\n')
        out_json, render_dir = tmp_path / "q.json", tmp_path / "r"
        argv = ["query", "--features", str(features), "--query-id", "alpha@0.000",
                "--manifest", str(manifest), "--render-dir", str(render_dir),
                "--out", str(out_json)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: manifest {manifest} line 9 ")
        assert not out_json.exists() and not render_dir.exists()


class TestMaxWorkers:
    def test_is_the_cores_in_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(3, 67)))
        found = retrieval._blas_thread_functions() is not None
        assert _max_workers() == (64 if found else 1)
        monkeypatch.setattr(retrieval, "_blas_thread_functions", lambda: None)
        assert _max_workers() == 1  # without BLAS thread control

    def test_amc_threads_is_ignored(self, tmp_path, segmented, monkeypatch):
        plain, ignored = tmp_path / "plain.amcf", tmp_path / "ignored.amcf"
        assert main(["featurize", "--manifest", str(segmented), "--out", str(plain)]) == 0
        monkeypatch.setenv("AMC_THREADS", "many")
        assert main(["featurize", "--manifest", str(segmented), "--out", str(ignored)]) == 0
        assert plain.read_bytes() == ignored.read_bytes()


class TestQueryCommand:
    def test_self_rank_one_when_included(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        assert (
            main(
                [
                    "query", "--features", str(features), "--query-id", "alpha@0.000",
                    "--k", "3", "--include-same-source",
                ]
            )
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["results"][0]["gallery_id"] == "alpha@0.000"
        assert result["results"][0]["score"] == pytest.approx(1.0, abs=1e-6)

    def test_neither_query_id_nor_query_wav_fails(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        out = tmp_path / "q.json"
        assert main(["query", "--features", str(features), "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith("error: provide --query-id or --query-wav\n")
        assert not out.exists()

    def test_same_source_excluded_by_default(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        main(["query", "--features", str(features), "--query-id", "alpha@0.000", "--k", "8"])
        result = json.loads(capsys.readouterr().out)
        assert result["exclude_same_source"] is True
        assert all(r["source_id"] != "alpha" for r in result["results"])
        assert len(result["results"]) == 4  # only beta frames remain

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_fails_before_any_file_is_read(self, tmp_path, capsys, k):
        out = tmp_path / "q.json"
        argv = ["query", "--features", str(tmp_path / "unread.amcf"), "--query-id", "a",
                "--k", k, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --k must be at least 1, got {k}\n"
        assert not out.exists()

    def test_k_larger_than_gallery(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        assert (
            main(
                [
                    "query", "--features", str(features), "--query-id", "alpha@0.000",
                    "--k", "999", "--include-same-source",
                ]
            )
            == 0
        )
        assert len(json.loads(capsys.readouterr().out)["results"]) == 8

    def test_query_wav_and_render_dir(self, tmp_path, segmented, tone_wav, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        query_wav = tone_wav("probe", freq=550.0, seconds=2.0)
        render_dir = tmp_path / "rendered"
        out_json = tmp_path / "ranked.json"
        assert (
            main(
                [
                    "query", "--features", str(features), "--query-wav", str(query_wav),
                    "--k", "2", "--out", str(out_json),
                    "--manifest", str(segmented), "--render-dir", str(render_dir),
                    "--strategy", "max-ss-adaptive",
                ]
            )
            == 0
        )
        ranked = json.loads(out_json.read_text())
        assert ranked["results"][0]["source_id"] == "beta"
        rendered = sorted(render_dir.glob("rank*.wav"))
        assert len(rendered) == 2
        plans = json.loads((render_dir / "plans.json").read_text())
        assert len(plans) == 2 and plans[0]["strategy"] == "max-ss-adaptive"

    def test_unknown_id_fails(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        assert main(["query", "--features", str(features), "--query-id", "ghost@0.000"]) != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--phi", "nan"], "phi must"),
            (["--l-min", "0.6", "--l-max", "0.2"], "l_max must"),
            (["--fixed-seconds", "-0.5", "--strategy", "crossfade"], "fixed_s must"),
            (["--no-manifest"], "--render-dir requires --manifest"),
        ],
    )
    def test_bad_render_setting_leaves_no_output(self, tmp_path, segmented, capsys, flags, error):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        out_json, render_dir = tmp_path / "q.json", tmp_path / "r"
        manifest = [] if flags == ["--no-manifest"] else ["--manifest", str(segmented), *flags]
        argv = ["query", "--features", str(features), "--query-id", "alpha@0.000",
                "--out", str(out_json), "--render-dir", str(render_dir), *manifest]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {error}")
        assert not out_json.exists() and not render_dir.exists()

    def test_render_dir_locates_every_wav_before_any_output(self, tmp_path, drift_manifest, capsys):
        features = tmp_path / "g.amcf"
        assert main(["featurize", "--manifest", str(drift_manifest), "--out", str(features)]) == 0
        small = tmp_path / "small.jsonl"
        lines = drift_manifest.read_text().splitlines()
        small.write_text("".join(line + "\n" for line in lines[:3]))
        out_json, render_dir = tmp_path / "qq.json", tmp_path / "rr"
        argv = ["query", "--features", str(features), "--query-id", "seq0000@0.000", "--k", "3",
                "--manifest", str(small), "--render-dir", str(render_dir), "--out", str(out_json)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: candidate id 'seq0001@")
        assert not out_json.exists() and not render_dir.exists()

        # The query itself missing from the manifest fails the same way.
        rest = tmp_path / "rest.jsonl"
        rest.write_text("".join(line + "\n" for line in lines[1:]))
        argv[argv.index(str(small))] = str(rest)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: query id 'seq0000@0.000' not in manifest")
        assert not out_json.exists() and not render_dir.exists()

    def test_non_finite_gallery_row_fails(self, tmp_path, capsys):
        # write_features refuses such a row, so the AMCF v1 bytes are written by hand.
        rows = np.eye(3, 4, dtype="<f4")
        rows[1, 2] = np.nan
        features = tmp_path / "nan.amcf"
        body = b"".join(
            struct.pack("<H", 1) + name + struct.pack("<H", 1) + source + struct.pack("<f", 0.0)
            + row.tobytes()
            for name, source, row in zip([b"x", b"y", b"z"], [b"s", b"t", b"u"], rows)
        )
        features.write_bytes(b"AMCF" + struct.pack("<IIQ", 1, 4, 3) + body)
        assert main(["query", "--features", str(features), "--query-id", "x"]) == 1
        assert capsys.readouterr().err.startswith("error: gallery row 'y' is not finite")


def amcf_file(path, ids=("x", "y", "z"), sources=("s", "t", "u"), rows=None, count=None):
    """A 3-row AMCF v1 file (d = 4) written field by field, with no check of the rows."""
    rows = np.eye(3, 4, dtype="<f4") if rows is None else rows
    body = b"".join(
        struct.pack("<H", len(name.encode())) + name.encode() + struct.pack("<H", len(source))
        + source.encode() + struct.pack("<f", 0.0) + row.tobytes()
        for name, source, row in zip(ids, sources, rows)
    )
    count = len(rows) if count is None else count
    path.write_bytes(b"AMCF" + struct.pack("<IIQ", 1, 4, count) + body)
    return path


def _nan_row():
    rows = np.eye(3, 4, dtype="<f4")
    rows[1, 2] = np.nan
    return rows


# Each faulty file, the query id, and the error line the whole-file read printed.
_QUERY_FAULTS = {
    "truncated": (lambda p: p.write_bytes(amcf_file(p).read_bytes()[:-3]), "x",
                  "truncated or corrupt feature file {path}"),
    "trailing": (lambda p: p.write_bytes(amcf_file(p).read_bytes() + b"\0"), "x",
                 "feature file {path} has 1 trailing bytes"),
    "bad-utf8": (lambda p: p.write_bytes(amcf_file(p).read_bytes().replace(b"\1\0y", b"\1\0\xff")),
                 "x", "truncated or corrupt feature file {path}"),
    "nan-row": (lambda p: amcf_file(p, rows=_nan_row()), "x",
                "gallery row 'y' is not finite or its squared norm overflows float32"),
    "nan-query-row": (lambda p: amcf_file(p, rows=_nan_row()), "y",
                      "gallery row 'y' is not finite or its squared norm overflows float32"),
    "duplicate-id": (lambda p: amcf_file(p, ids=("x", "y", "x")), "y", "duplicate gallery id 'x'"),
    "zero-rows": (lambda p: amcf_file(p, rows=np.empty((0, 4), "<f4")), "x",
                  "cannot build an index from zero vectors"),
    "missing-id": (lambda p: amcf_file(p), "ghost", "query id 'ghost' not in feature file"),
    "one-source": (lambda p: amcf_file(p, sources=("s", "s", "s")), "x",
                   "no eligible gallery entries for this query"),
    "missing-file": (lambda p: None, "x",
                     "cannot read feature file {path}: [Errno 2] No such file or directory: "
                     "'{path}'"),
}


@pytest.mark.parametrize("span_bytes", [None, 1], ids=["default-spans", "one-row-spans"])
@pytest.mark.parametrize("fault", sorted(_QUERY_FAULTS))
def test_query_fault_prints_the_whole_file_error(tmp_path, capsys, monkeypatch, fault, span_bytes):
    if span_bytes:
        monkeypatch.setattr(retrieval, "SPAN_BYTES", span_bytes)
    write, query_id, error = _QUERY_FAULTS[fault]
    features = tmp_path / "g.amcf"
    write(features)
    out_json, render_dir = tmp_path / "q.json", tmp_path / "r"
    argv = ["query", "--features", str(features), "--query-id", query_id, "--out", str(out_json),
            "--manifest", str(tmp_path / "unread.jsonl"), "--render-dir", str(render_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error.format(path=features)}\n"
    assert not out_json.exists() and not render_dir.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_query_reads_features_from_a_named_pipe(tmp_path, segmented, capsys):
    features = tmp_path / "g.amcf"
    assert main(["featurize", "--manifest", str(segmented), "--out", str(features)]) == 0
    argv = ["query", "--query-id", "alpha@1.000", "--k", "4", "--include-same-source"]
    capsys.readouterr()
    assert main([*argv, "--features", str(features)]) == 0
    expected = capsys.readouterr().out
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    # The file is larger than a pipe's buffer: the writer blocks until the query reads.
    writer = threading.Thread(target=pipe.write_bytes, args=(features.read_bytes(),))
    writer.start()
    try:
        assert main([*argv, "--features", str(pipe)]) == 0
    finally:
        writer.join(timeout=10)
    assert capsys.readouterr().out == expected and len(json.loads(expected)["results"]) == 4


@pytest.fixture(scope="module")
def drift_features(drift_manifest):
    features = drift_manifest.parent / "gallery.amcf"
    assert main(["featurize", "--manifest", str(drift_manifest), "--out", str(features)]) == 0
    return features


def audition(features, manifest, render_dir, *flags):
    """``query --k 3 --render-dir`` for a drift frame; returns the sha256 of every output."""
    out_json = render_dir.with_suffix(".json")
    argv = ["query", "--features", str(features), "--query-id", "seq0000@1.000", "--k", "3",
            "--manifest", str(manifest), "--render-dir", str(render_dir),
            "--out", str(out_json), *flags]
    assert main(argv) == 0
    digest = hashlib.sha256(out_json.read_bytes())
    for path in sorted(render_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# Outputs of the per-candidate planner that analysed the query window once per match.
# The max-ss digests also hash plans.json's full-precision "var", so they pin the
# float64 mel's last bits.
_AUDITION_SHA256 = {
    "concat": "ad880ec5202ba5a5c542608eaf14d2d3ef46c435b38bdfd265a9d0e5a3e1b8ac",
    "crossfade": "ee6cd8879640d2deb10b20a7003512de69ac62c821df92461ab2203b836a0c69",
    "max-ss": "cd37728e3298304da825b8c0d8df59a533174f4bb2bac3cbe9003ab3ca972066",
    "max-ss-adaptive": "3c4cbb7fa9ac115a2054989bca22ebd03a20d17d69eee59916a00a7bcf60b6fb",
}


class TestAuditionRequest:
    @pytest.mark.parametrize("strategy", sorted(_AUDITION_SHA256))
    def test_outputs_equal_the_per_candidate_planner(
        self, tmp_path, drift_manifest, drift_features, capsys, strategy
    ):
        digest = audition(drift_features, drift_manifest, tmp_path / "r", "--strategy", strategy)
        assert digest == _AUDITION_SHA256[strategy]
        assert capsys.readouterr().out.endswith(f"rendered 3 candidates into {tmp_path / 'r'}\n")

    def test_blas_thread_count_does_not_change_any_output(
        self, tmp_path, drift_manifest, drift_features
    ):
        outputs = []
        for threads in (1, 2):
            render_dir = tmp_path / f"r{threads}"
            out = run_cli_with_blas_threads(
                threads, "query", "--features", str(drift_features), "--query-id",
                "seq0000@1.000", "--k", "3", "--manifest", str(drift_manifest),
                "--render-dir", str(render_dir), "--out", str(tmp_path / f"q{threads}.json"),
            )
            files = sorted(render_dir.iterdir())
            assert "plans.json" in [path.name for path in files]
            outputs.append([out.read_bytes(), *((p.name, p.read_bytes()) for p in files)])
        assert outputs[0] == outputs[1]

    def test_each_window_is_analysed_once(
        self, tmp_path, drift_manifest, drift_features, monkeypatch
    ):
        frames = []
        power_stft = dsp.power_stft

        def counting(samples):
            frames.append(int(np.prod(np.shape(samples)[:-1])))
            return power_stft(samples)

        monkeypatch.setattr(dsp, "power_stft", counting)
        audition(drift_features, drift_manifest, tmp_path / "r")
        assert sum(frames) == 4  # the query window and 3 match windows

    def test_gallery_is_freed_before_any_wav_is_loaded(
        self, tmp_path, drift_manifest, drift_features, monkeypatch
    ):
        indexes, alive = [], []
        build_index, load = retrieval.build_index, audio_io.load_audio

        def tracked_build(gallery):
            index = build_index(gallery)
            indexes.append(weakref.ref(index))
            return index

        def tracked_load(path):
            alive.append(indexes[0]() is not None)
            return load(path)

        monkeypatch.setattr(retrieval, "build_index", tracked_build)
        monkeypatch.setattr(audio_io, "load_audio", tracked_load)
        audition(drift_features, drift_manifest, tmp_path / "r")
        assert len(indexes) == 1 and alive == [False] * 4  # the query's WAV, then 3 matches


class TestRenderCommand:
    def test_concat_duration(self, tmp_path, tone_wav, capsys):
        a, b = tone_wav("qa", 330.0, 1.0), tone_wav("qb", 550.0, 1.0)
        out = tmp_path / "out.wav"
        assert main(["render", str(a), str(b), "--out", str(out), "--strategy", "concat"]) == 0
        assert len(load_audio(out)) == 96000

    def test_adaptive_plan_satisfies_inverse_variance(self, tmp_path, tone_wav, capsys):
        a, b = tone_wav("qa", 330.0, 2.0), tone_wav("qb", 335.0, 2.0)
        out = tmp_path / "out.wav"
        plan_path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "render", str(a), str(b), "--out", str(out),
                    "--strategy", "max-ss-adaptive", "--plan-out", str(plan_path),
                    "--l-min", "0", "--l-max", "1.0",
                ]
            )
            == 0
        )
        plan = json.loads(plan_path.read_text())
        assert plan["strategy"] == "max-ss-adaptive"
        assert plan["phi"] == 8.0
        unclamped = 1.0 / (plan["var"] * plan["phi"])
        assert plan["crossfade_s"] <= min(1.0, unclamped) + 1e-9

    def test_bit_identical_output(self, tmp_path, tone_wav):
        a, b = tone_wav("qa", 330.0, 1.0), tone_wav("qb", 550.0, 1.0)
        out1, out2 = tmp_path / "o1.wav", tmp_path / "o2.wav"
        main(["render", str(a), str(b), "--out", str(out1)])
        main(["render", str(a), str(b), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--phi", "nan"], "phi"),
            (["--fixed-seconds", "-0.5", "--strategy", "crossfade"], "fixed_s"),
            (["--l-min", "0.6", "--l-max", "0.2"], "l_max"),
            (["--query-offset", "inf"], "--query-offset"),
            (["--match-offset", "nan", "--strategy", "concat"], "--match-offset"),
            (["--query-offset", "-0.5"], "--query-offset"),
        ],
    )
    def test_out_of_range_setting_fails(
        self, tmp_path, tone_wav, capsys, monkeypatch, flags, named
    ):
        a, b = tone_wav("qa", 330.0, 1.0), tone_wav("qb", 550.0, 1.0)
        out = tmp_path / "out.wav"
        loaded = []
        monkeypatch.setattr(audio_io, "load_audio", lambda path: loaded.append(path))
        assert main(["render", str(a), str(b), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named} must")
        assert not out.exists()
        assert loaded == []  # refused before either WAV is read


class TestTrainCommand:
    def test_checkpoint_history_and_loss_decrease(self, tmp_path, capsys):
        drift_dir = tmp_path / "drift"
        write_drift_corpus(drift_dir, n_sequences=10, n_frames=6, seed=1)
        frames = tmp_path / "frames"
        main(["segment", str(drift_dir), "--out-dir", str(frames)])
        ckpt = tmp_path / "head.ssch"
        history = tmp_path / "history.jsonl"
        assert (
            main(
                [
                    "train", "--manifest", str(frames / "manifest.jsonl"),
                    "--out", str(ckpt), "--history-out", str(history),
                    "--epochs", "6", "--lr", "1e-3", "--batch-size", "3",
                    "--frames-per-sequence", "6", "--dim", "64", "--seed", "0",
                ]
            )
            == 0
        )
        assert ckpt.exists()
        rows = [json.loads(line) for line in history.read_text().splitlines()]
        assert rows and {"epoch", "batch", "loss"} <= set(rows[0])
        by_epoch = {}
        for row in rows:
            by_epoch.setdefault(row["epoch"], []).append(row["loss"])
        assert np.mean(by_epoch[max(by_epoch)]) < np.mean(by_epoch[1])

    def test_deterministic_given_seed(self, tmp_path):
        drift_dir = tmp_path / "drift"
        write_drift_corpus(drift_dir, n_sequences=4, n_frames=4, seed=2)
        frames = tmp_path / "frames"
        main(["segment", str(drift_dir), "--out-dir", str(frames)])
        args = [
            "train", "--manifest", str(frames / "manifest.jsonl"),
            "--epochs", "2", "--frames-per-sequence", "4", "--dim", "16", "--seed", "9",
        ]
        main(args + ["--out", str(tmp_path / "c1.ssch")])
        main(args + ["--out", str(tmp_path / "c2.ssch")])
        assert (tmp_path / "c1.ssch").read_bytes() == (tmp_path / "c2.ssch").read_bytes()

    def test_blas_thread_count_does_not_change_checkpoint(self, tmp_path):
        # The history's float64 losses come from the float64 mel, so they show
        # thread-dependent bits that the checkpoint hides: with a mel GEMM over
        # 1025 bins, this history differed between 1 and 2 OpenBLAS threads.
        drift_dir = tmp_path / "drift"
        write_drift_corpus(drift_dir, n_sequences=4, n_frames=4, seed=3)
        frames = tmp_path / "frames"
        main(["segment", str(drift_dir), "--out-dir", str(frames)])
        args = [
            "train", "--manifest", str(frames / "manifest.jsonl"),
            "--epochs", "2", "--frames-per-sequence", "4", "--dim", "32", "--seed", "5",
        ]
        outputs = []
        for threads in (1, 2):
            history = tmp_path / f"{threads}.jsonl"
            checkpoint = run_cli_with_blas_threads(
                threads, *args, "--history-out", str(history),
                "--out", str(tmp_path / f"{threads}.ssch"),
            )
            outputs.append((checkpoint.read_bytes(), history.read_bytes()))
        assert outputs[0] == outputs[1]

    @staticmethod
    def frames_manifest(tmp_path, offsets):
        """A manifest of one 10-frame drift source's rows at ``offsets``, in that order."""
        write_drift_corpus(tmp_path / "drift", n_sequences=1, n_frames=10, seed=6)
        main(["segment", str(tmp_path / "drift"), "--out-dir", str(tmp_path / "frames")])
        rows = {row["offset_s"]: row for row in manifest_rows(tmp_path / "frames" / "manifest.jsonl")}
        manifest = tmp_path / "picked.jsonl"
        manifest.write_text("".join(json.dumps(rows[offset]) + "\n" for offset in offsets))
        return manifest, {row["path"]: offset for offset, row in rows.items()}

    def test_sequences_do_not_join_frames_across_a_gap(self, tmp_path, monkeypatch, capsys):
        manifest, offset_of = self.frames_manifest(tmp_path, [0.0, 1.0, 6.0, 7.0, 8.0, 9.0])
        loaded = []
        monkeypatch.setattr(audio_io, "load_audio", lambda p: loaded.append(p) or load_audio(p))
        capsys.readouterr()
        argv = ["train", "--manifest", str(manifest), "--out", str(tmp_path / "head.ssch"),
                "--epochs", "1", "--frames-per-sequence", "3", "--dim", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("trained on 1 sequences of 3 frames")
        assert [offset_of[path] for path in loaded] == [6.0, 7.0, 8.0]

    @staticmethod
    def frame_pass_peak(tmp_path, monkeypatch, workers):
        """train's 512-frame pass on ``workers`` threads: its result's bytes and peak."""
        monkeypatch.setattr(retrieval, "_workers", lambda: workers)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({"path": f"f{i}.wav", "source_id": "s", "offset_s": float(i)}) + "\n"
            for i in range(512)
        ))
        monkeypatch.setattr("audiomatch.cli._Frames.__getitem__", lambda self, i: (
            np.random.default_rng(i).uniform(-0.5, 0.5, 48000)))
        held = {}

        class Stop(Exception):
            pass

        def stop(head, sequences, config):
            held.update(peak=tracemalloc.get_traced_memory()[1], nbytes=sequences.nbytes)
            raise Stop

        monkeypatch.setattr("audiomatch.cli.train", stop)
        argv = ["train", "--manifest", str(manifest), "--out", str(tmp_path / "head.ssch"),
                "--frames-per-sequence", "8", "--dim", "1"]
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                main(argv)
        finally:
            tracemalloc.stop()
        return held["nbytes"], held["peak"]

    def test_frame_pass_holds_its_result_once(self, tmp_path, monkeypatch):
        # 512 frames' (512, 2880) float64 base features are 11.8 MB.  Beyond
        # them the pass holds what featurizing one group of frames does (about
        # 2.8 MB), not a second copy of the rows as joining per-block parts did.
        nbytes, peak = self.frame_pass_peak(tmp_path, monkeypatch, workers=1)
        assert nbytes == 512 * 2880 * 8
        assert peak < nbytes + (8 << 20)

    def test_two_worker_frame_pass_holds_its_result_once(self, tmp_path, monkeypatch):
        # Each thread holds its own group (about 5.5 MB for two).
        nbytes, peak = self.frame_pass_peak(tmp_path, monkeypatch, workers=2)
        assert nbytes == 512 * 2880 * 8
        assert peak < nbytes + (8 << 20)

    def test_a_repeated_offset_breaks_the_run(self, tmp_path, capsys):
        manifest, _ = self.frames_manifest(tmp_path, [0.0, 1.0, 1.0])
        capsys.readouterr()
        ckpt = tmp_path / "head.ssch"
        argv = ["train", "--manifest", str(manifest), "--out", str(ckpt),
                "--epochs", "1", "--frames-per-sequence", "3", "--dim", "8"]
        assert main(argv) == 1
        assert "no run of 3 consecutive frames" in capsys.readouterr().err
        assert not ckpt.exists()


@pytest.fixture(scope="module")
def drift_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("drift")
    write_drift_corpus(root / "drift", n_sequences=2, n_frames=4, seed=4)
    main(["segment", str(root / "drift"), "--out-dir", str(root / "frames")])
    return root / "frames" / "manifest.jsonl"


@pytest.mark.parametrize(
    "flags",
    [
        ["--epochs", "0"], ["--batch-size", "0"], ["--batch-size", "-1"],
        ["--lr", "nan"], ["--lr", "-0.001"], ["--lr", "inf"],
        ["--tau", "nan"], ["--tau", "0"], ["--tau", "inf"], ["--dim", "0"],
        ["--frames-per-sequence", "0"], ["--frames-per-sequence", "1"],
        ["--frames-per-sequence", "-1"], ["--seed", "-1"],
    ],
)
def test_train_rejects_degenerate_settings(tmp_path, drift_manifest, capsys, monkeypatch, flags):
    loaded = []
    monkeypatch.setattr(audio_io, "load_audio", lambda p: loaded.append(p) or load_audio(p))
    ckpt = tmp_path / "head.ssch"
    argv = ["train", "--manifest", str(drift_manifest), "--out", str(ckpt),
            "--frames-per-sequence", "4", "--dim", "8", *flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not ckpt.exists()
    assert not loaded
    if flags[0] in ("--frames-per-sequence", "--dim", "--seed"):
        assert err.startswith(f"error: {flags[0]} must be at least")


@pytest.mark.parametrize("command", ["render", "train", "segment", "query", "plans", "eval"])
def test_failed_text_write_keeps_existing_file(
    tmp_path, tone_wav, drift_manifest, segmented, monkeypatch, capsys, command
):
    texts = tmp_path / "texts"
    texts.mkdir()
    target = texts / {"segment": "manifest.jsonl", "plans": "plans.json"}.get(command, "older.txt")
    target.write_text("an older file\n")
    features = tmp_path / "g.amcf"
    if command in ("query", "plans", "eval"):
        assert main(["featurize", "--manifest", str(segmented), "--out", str(features)]) == 0
    query = ["query", "--features", str(features), "--query-id", "alpha@0.000", "--k", "1"]
    real_replace = os.replace

    def refuse(src, dst):
        if Path(dst) == target:
            raise OSError("no space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    if command == "render":
        a, b = tone_wav("qa", 330.0, 1.0), tone_wav("qb", 550.0, 1.0)
        argv = ["render", str(a), str(b), "--out", str(tmp_path / "out.wav"),
                "--plan-out", str(target)]
    elif command == "train":
        argv = ["train", "--manifest", str(drift_manifest), "--out", str(tmp_path / "head.ssch"),
                "--history-out", str(target), "--epochs", "1", "--frames-per-sequence", "4",
                "--dim", "8"]
    elif command == "segment":
        argv = ["segment", str(tone_wav("qa", 330.0, 2.0)), "--out-dir", str(texts)]
    elif command == "query":
        argv = [*query, "--out", str(target)]
    elif command == "plans":
        argv = [*query, "--manifest", str(segmented), "--render-dir", str(texts)]
    else:
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            json.dumps({"query_id": "alpha@0.000", "gallery_id": "beta@1.000", "relevance": 1})
            + "\n"
        )
        argv = ["eval", "--features", str(features), "--labels", str(labels), "--out", str(target)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: no space left on device\n"
    assert target.read_text() == "an older file\n"
    # segment and plans write their WAVs before the text; no temporary file is left.
    assert [p.name for p in texts.iterdir() if p.suffix != ".wav"] == [target.name]


def test_failed_open_names_the_target_not_its_temporary(tmp_path, segmented, monkeypatch, capsys):
    features, target = tmp_path / "g.amcf", tmp_path / "q.json"
    assert main(["featurize", "--manifest", str(segmented), "--out", str(features)]) == 0
    before = sorted(tmp_path.iterdir())

    def refuse(file, *args, **kwargs):  # the OSError names the file it could not open
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))

    monkeypatch.setattr(audio_io, "open", refuse, raising=False)
    argv = ["query", "--features", str(features), "--query-id", "alpha@0.000", "--out", str(target)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: [Errno {errno.ENOSPC}]")
    assert sorted(tmp_path.iterdir()) == before


def test_every_flag_is_read():
    # A flag that is parsed but never read silently does nothing.
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    unread = []
    for name, parser in subcommands.choices.items():
        readers = [parser.get_default("func")] + ([_render_candidates] if name == "query" else [])
        source = "".join(inspect.getsource(reader) for reader in readers)
        unread += [
            f"{name} {action.option_strings or action.dest}" for action in parser._actions
            if action.dest != "help" and f"args.{action.dest}" not in source
        ]
    assert unread == []


def test_one_parser_serves_successive_calls(tmp_path, tone_wav, capsys):
    assert build_parser() is build_parser()
    # A parse error exits 2 with argparse's usage text, a failed command returns 1,
    # and neither leaves state behind for the next call.
    with pytest.raises(SystemExit) as exited:
        main(["query", "--k", "3"])
    assert exited.value.code == 2
    assert "the following arguments are required: --features" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:
        main(["nonsense"])
    assert exited.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err
    assert main(["segment", str(tmp_path / "missing.wav"), "--out-dir", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")
    frames = tmp_path / "frames"
    assert main(["segment", str(tone_wav("a", seconds=2.0)), "--out-dir", str(frames)]) == 0
    assert "wrote 2 frames" in capsys.readouterr().out
    features = tmp_path / "g.amcf"
    assert main(["featurize", "--manifest", str(frames / "manifest.jsonl"),
                 "--out", str(features), "--kind", "mfcc"]) == 0
    capsys.readouterr()
    # Flags set by one call fall back to their defaults in the next.
    args = build_parser().parse_args(["query", "--features", "a", "--k", "3", "--kind", "mfcc",
                                      "--include-same-source", "--phi", "0.5"])
    assert (args.k, args.kind, args.include_same_source, args.phi) == (3, "mfcc", True, 0.5)
    args = build_parser().parse_args(["query", "--features", "b"])
    assert (args.features, args.k, args.kind, args.include_same_source, args.query_id) == (
        "b", 5, "mel", False, None)
    assert args.phi == transition.DEFAULT_PHI
    assert main(["query", "--features", str(features), "--query-id", "a@0.000", "--k", "1",
                 "--kind", "mfcc", "--include-same-source"]) == 0
    assert json.loads(capsys.readouterr().out)


class TestEvalCommand:
    def test_perfect_synthetic_set(self, tmp_path, capsys):
        from audiomatch.synthetic import tone_family_set

        corpus = tmp_path / "corpus"
        wavs, labels = tone_family_set(corpus, seed=0, n_families=3)
        frames = tmp_path / "frames"
        main(["segment", str(corpus), "--out-dir", str(frames)])
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(frames / "manifest.jsonl"), "--out", str(features)])
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "eval", "--features", str(features), "--labels", str(labels),
                    "--ks", "1,2,5", "--out", str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["aggregate"]["hr"]["1"] == 1.0
        assert report["aggregate"]["r_map"] > 0.9

    def test_missing_label_id_fails(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            json.dumps({"query_id": "alpha@0.000", "gallery_id": "ghost", "relevance": 1})
            + "\n"
        )
        assert main(["eval", "--features", str(features), "--labels", str(labels)]) != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, error",
        [
            ("[1, 2]", "is not a JSON object"),
            ('{"query_id": "alpha@0.000", "gallery_id": "alpha@1.000", "relevance": null}',
             "needs a 0 or 1 'relevance'"),
            ('{"query_id": "alpha@0.000", "relevance": 1}', "needs a string 'gallery_id'"),
            ("{not json", "is not JSON"),
        ],
        ids=["list", "null-relevance", "no-gallery-id", "not-json"],
    )
    def test_bad_labels_row_names_file_and_line(self, tmp_path, segmented, capsys, line, error):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        good = {"query_id": "alpha@0.000", "gallery_id": "alpha@1.000", "relevance": 1}
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps(good) + "\n" + line + "\n")
        out = tmp_path / "report.json"
        capsys.readouterr()
        argv = ["eval", "--features", str(features), "--labels", str(labels), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: labels {labels} line 2 ") and error in err
        assert not out.exists()


    def test_repeated_label_names_file_and_both_lines(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        label = {"query_id": "alpha@0.000", "gallery_id": "alpha@1.000", "relevance": 1}
        other = {**label, "gallery_id": "alpha@2.000"}
        labels = tmp_path / "labels.jsonl"
        labels.write_text("\n".join([json.dumps(label), "", json.dumps(other), json.dumps(label)]))
        out = tmp_path / "report.json"
        capsys.readouterr()
        argv = ["eval", "--features", str(features), "--labels", str(labels), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: labels {labels} line 4 repeats the query_id and gallery_id of line 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["1,x", "0", ",", "", "2,-1", "1,2,", "1.5"])
    def test_bad_ks_fails_before_reading_any_file(self, tmp_path, capsys, ks):
        out = tmp_path / "report.json"
        argv = [
            "eval", "--features", str(tmp_path / "missing.amcf"),
            "--labels", str(tmp_path / "missing.jsonl"), "--ks", ks, "--out", str(out),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: --ks needs comma-separated integers >= 1, got {ks!r}\n"
        )
        assert not out.exists()


class TestSynthCommand:
    def test_tone_families(self, tmp_path):
        out = tmp_path / "fam"
        assert main(["synth", "tone-families", "--out-dir", str(out), "--families", "2"]) == 0
        assert len(list(out.glob("*.wav"))) == 4
        assert (out / "labels.jsonl").exists()

    def test_drift(self, tmp_path):
        out = tmp_path / "drift"
        assert main(["synth", "drift", "--out-dir", str(out), "--sequences", "2"]) == 0
        assert len(list(out.glob("*.wav"))) == 2

    @pytest.mark.parametrize("corpus, flag, value", [
        ("tone-families", "--clip-seconds", "1e12"),
        ("tone-families", "--clip-seconds", "nan"),
        ("tone-families", "--clip-seconds", "inf"),
        ("tone-families", "--clip-seconds", "-1"),
        ("tone-families", "--clip-seconds", "0.5"),
        ("tone-families", "--clip-seconds", "61"),
        ("tone-families", "--families", "0"),
        ("tone-families", "--families", "14"),
        ("tone-families", "--seed", "-1"),
        ("drift", "--seed", "-1"),
        ("drift", "--frames", "0"),
        ("drift", "--frames", "61"),
        ("drift", "--frames", "10000000000"),
        ("drift", "--sequences", "0"),
        ("drift", "--sequences", "-1"),
    ])
    def test_bad_value_fails_before_any_output(self, tmp_path, capsys, corpus, flag, value):
        out = tmp_path / "corpus"
        assert main(["synth", corpus, "--out-dir", str(out), flag, value]) == 1
        parsed = float(value) if flag == "--clip-seconds" else int(value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and err.endswith(f", got {parsed}\n")
        assert not out.exists()

    def test_largest_settings_are_accepted(self, tmp_path, monkeypatch, capsys):
        made = []
        monkeypatch.setattr(synthetic, "tone_family_set",
                            lambda *a, **kw: made.append(kw) or ([], tmp_path / "labels.jsonl"))
        monkeypatch.setattr(synthetic, "write_drift_corpus", lambda *a, **kw: made.append(kw) or [])
        out = str(tmp_path / "corpus")
        assert main(["synth", "tone-families", "--out-dir", out, "--families", "13",
                     "--clip-seconds", "60"]) == 0
        assert main(["synth", "drift", "--out-dir", out, "--frames", "60", "--seed", "0"]) == 0
        assert made == [dict(seed=0, n_families=13, clip_seconds=60.0),
                        dict(n_sequences=30, n_frames=60, seed=0)]
