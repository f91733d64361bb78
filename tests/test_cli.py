"""End-to-end subcommand behavior, run in-process via cli.main()."""

import json
import struct

import numpy as np
import pytest

from audiomatch import AudioClip, load_audio, read_features, write_audio
from audiomatch.cli import _max_workers, main
from audiomatch.errors import AudioMatchError
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

    def test_thread_cap_does_not_change_output(self, tmp_path, segmented, monkeypatch):
        serial, parallel = tmp_path / "serial.amcf", tmp_path / "parallel.amcf"
        monkeypatch.setenv("AMC_THREADS", "1")
        main(["featurize", "--manifest", str(segmented), "--out", str(serial)])
        monkeypatch.setenv("AMC_THREADS", "4")
        main(["featurize", "--manifest", str(segmented), "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

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


class TestMaxWorkers:
    def test_unset_is_capped_at_eight(self, monkeypatch):
        monkeypatch.delenv("AMC_THREADS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert _max_workers() == 8

    def test_value_is_capped_at_core_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("AMC_THREADS", "1000000")
        assert _max_workers() == 4
        monkeypatch.setenv("AMC_THREADS", " 3 ")
        assert _max_workers() == 3
        monkeypatch.setenv("AMC_THREADS", "0")
        assert _max_workers() == 1

    @pytest.mark.parametrize("value", ["two", "1.5", "0x2"])
    def test_non_integer_raises(self, monkeypatch, value):
        monkeypatch.setenv("AMC_THREADS", value)
        with pytest.raises(AudioMatchError):
            _max_workers()

    def test_non_integer_fails_the_command(self, tmp_path, segmented, monkeypatch, capsys):
        monkeypatch.setenv("AMC_THREADS", "many")
        out = tmp_path / "g.amcf"
        assert main(["featurize", "--manifest", str(segmented), "--out", str(out)]) == 1
        assert not out.exists()
        assert "AMC_THREADS" in capsys.readouterr().err


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

    def test_same_source_excluded_by_default(self, tmp_path, segmented, capsys):
        features = tmp_path / "g.amcf"
        main(["featurize", "--manifest", str(segmented), "--out", str(features)])
        capsys.readouterr()
        main(["query", "--features", str(features), "--query-id", "alpha@0.000", "--k", "8"])
        result = json.loads(capsys.readouterr().out)
        assert result["exclude_same_source"] is True
        assert all(r["source_id"] != "alpha" for r in result["results"])
        assert len(result["results"]) == 4  # only beta frames remain

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

    def test_thread_cap_does_not_change_checkpoint(self, tmp_path, monkeypatch):
        drift_dir = tmp_path / "drift"
        write_drift_corpus(drift_dir, n_sequences=4, n_frames=4, seed=3)
        frames = tmp_path / "frames"
        main(["segment", str(drift_dir), "--out-dir", str(frames)])
        args = [
            "train", "--manifest", str(frames / "manifest.jsonl"),
            "--epochs", "2", "--frames-per-sequence", "4", "--dim", "16", "--seed", "5",
        ]
        monkeypatch.setenv("AMC_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "serial.ssch")]) == 0
        monkeypatch.setenv("AMC_THREADS", "2")
        assert main(args + ["--out", str(tmp_path / "parallel.ssch")]) == 0
        serial = (tmp_path / "serial.ssch").read_bytes()
        assert serial == (tmp_path / "parallel.ssch").read_bytes()


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
    ],
)
def test_train_rejects_degenerate_settings(tmp_path, drift_manifest, capsys, flags):
    ckpt = tmp_path / "head.ssch"
    argv = ["train", "--manifest", str(drift_manifest), "--out", str(ckpt),
            "--frames-per-sequence", "4", "--dim", "8", *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not ckpt.exists()


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
