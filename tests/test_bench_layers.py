"""The benchmark's traced run records calls on every layer its workloads name.

``bench/run.py --trace 1`` fails with "traced run recorded no calls on ..."
when a layer it times is no longer called where it wraps it: a method moved
to a base class, a streamed query that stops reading and indexing each
span through ``retrieval.read_features`` and ``retrieval.build_index``, or
a featurize that stops going through ``retrieval.featurize_clip``.  This
runs the same tracer on small inputs.
"""

import sys
import threading
from pathlib import Path

import numpy as np

from audiomatch import ProjectionHead, cli, retrieval
from audiomatch.synthetic import write_drift_corpus

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_audition_and_search_layers_record_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(_BENCH))
    import spans
    import workloads

    write_drift_corpus(tmp_path / "drift", n_sequences=2, n_frames=4, seed=4)
    manifest = tmp_path / "frames" / "manifest.jsonl"
    features = tmp_path / "gallery.amcf"
    assert cli.main(["segment", str(tmp_path / "drift"), "--out-dir", str(manifest.parent)]) == 0
    assert cli.main(["featurize", "--manifest", str(manifest), "--out", str(features)]) == 0
    # Spans of about three of the eight rows, so the query streams the file.
    monkeypatch.setattr(retrieval, "SPAN_BYTES", features.stat().st_size // 3)
    assert isinstance(retrieval.open_features(features), retrieval.FeatureFile)

    tracer = spans.Tracer()
    tracer.install("audiomatch", workloads.trace_targets())
    try:
        tracer.request = "audition"
        argv = ["query", "--features", str(features), "--query-id", "seq0000@1.000",
                "--k", "3", "--manifest", str(manifest), "--render-dir", str(tmp_path / "r"),
                "--out", str(tmp_path / "q.json")]
        assert cli.main(argv) == 0
        tracer.request = "search"
        index = retrieval.build_index(retrieval.read_features(features))
        index.query(index.vector("seq0001@2.000").astype(np.float64), 3,
                    exclude_source=index.source_of("seq0001@2.000"))
    finally:
        tracer.uninstall()

    called = {request: [span[1] for span in tracer.spans if span[5] == request]
              for request in ("audition", "search")}
    for workload in (workloads.Audition, workloads.Search):
        assert [layer for layer in workload.layers if layer not in called[workload.name]] == []
    # The streamed query reads and indexes each of its three spans on its own
    # (the query's own vector is one more read).
    assert called["audition"].count("retrieval.build_index") == 3
    assert called["audition"].count("retrieval.read_features") == 4


def test_ingest_and_train_layers_record_calls(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(_BENCH))
    import formats
    import spans
    import workloads

    sources = tmp_path / "sources"
    write_drift_corpus(sources, n_sequences=2, n_frames=4, seed=4)
    # One 2-second 44.1 kHz stereo 24-bit source, as a quarter of the
    # benchmark's are, so segment resamples it.
    tone = 0.4 * np.sin(2 * np.pi * 330.0 * np.arange(2 * 44100) / 44100)
    (sources / "resampled.wav").write_bytes(
        formats.wav_bytes(np.stack([tone, 0.8 * tone], axis=1), 44100, 24))
    head = tmp_path / "head.ssch"
    ProjectionHead.initialize(2880, d=16, seed=0).save(head)
    manifest = tmp_path / "frames" / "manifest.jsonl"
    history = tmp_path / "history.jsonl"

    tracer = spans.Tracer()
    tracer.install("audiomatch", workloads.trace_targets())
    try:
        tracer.request = "ingest"
        assert cli.main(["segment", str(sources), "--out-dir", str(manifest.parent)]) == 0
        assert cli.main(["featurize", "--manifest", str(manifest), "--out",
                         str(tmp_path / "gallery.amcf"), "--head", str(head)]) == 0
        tracer.request = "train"
        # Two drift sequences of 4 frames, one a batch: two training steps.
        assert cli.main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "t.ssch"),
                         "--history-out", str(history), "--frames-per-sequence", "4",
                         "--batch-size", "1", "--epochs", "1", "--dim", "8"]) == 0
    finally:
        tracer.uninstall()

    assert len(history.read_text().splitlines()) == 2
    called = {request: [span[1] for span in tracer.spans if span[5] == request]
              for request in ("ingest", "train")}
    for workload in (workloads.Ingest, workloads.Train):
        assert [layer for layer in workload.layers if layer not in called[workload.name]] == []
    # featurize's 10 frames are one call, one head block and a mel call per
    # group of SPECTROGRAM_FRAMES.
    assert called["ingest"].count("retrieval.featurize_clip") == 1
    assert called["ingest"].count("embedding.embed") == 1
    assert called["ingest"].count("dsp.mel_spectrogram") == -(-10 // retrieval.SPECTROGRAM_FRAMES)


def test_featurize_layers_record_calls_on_two_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(_BENCH))
    import spans
    import workloads

    write_drift_corpus(tmp_path / "drift", n_sequences=2, n_frames=5, seed=4)
    manifest = tmp_path / "frames" / "manifest.jsonl"
    assert cli.main(["segment", str(tmp_path / "drift"), "--out-dir", str(manifest.parent)]) == 0
    # Blocks of 4, 4 and 2 frames on two threads.  The first frames of the
    # second and third blocks wait for each other, so each thread runs one.
    monkeypatch.setattr(retrieval, "CHUNK_FRAMES", 4)
    monkeypatch.setattr(retrieval, "_workers", lambda: 2)
    both_started = threading.Barrier(2, timeout=30)
    read_frame = cli._Frames.__getitem__

    def meeting(self, index):
        if index in (4, 8):
            both_started.wait()
        return read_frame(self, index)

    monkeypatch.setattr(cli._Frames, "__getitem__", meeting)
    tracer = spans.Tracer()
    tracer.install("audiomatch", workloads.trace_targets())
    try:
        tracer.request = "ingest"
        assert cli.main(["featurize", "--manifest", str(manifest), "--out",
                         str(tmp_path / "gallery.amcf")]) == 0
    finally:
        tracer.uninstall()

    threads = {span[6] for span in tracer.spans if span[1] == "dsp.power_stft"}
    assert len(threads) == 2
    assert [span[1] for span in tracer.spans].count("dsp.power_stft") == 10
    assert all(span[5] == "ingest" and span[4] is not None
               for span in tracer.spans if span[1] != "cli.main.featurize")
