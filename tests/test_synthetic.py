"""Bundled corpus generators: determinism and structure."""

import json

import numpy as np

from audiomatch.retrieval import base_features
from audiomatch.synthetic import drift_sequence_audio, tone, tone_family_set, write_drift_corpus


class TestPrimitives:
    def test_tone_peak_amplitude(self):
        wave = tone(440.0, 0.1, amp=0.4, harmonics=(1.0, 0.5))
        assert np.max(np.abs(wave)) <= 0.4 + 1e-12


class TestToneFamilySet:
    def test_files_and_labels(self, tmp_path):
        wavs, labels_path = tone_family_set(tmp_path, seed=0, n_families=3)
        assert len(wavs) == 6  # two clips per family
        rows = [json.loads(line) for line in labels_path.read_text().splitlines()]
        queries = {row["query_id"] for row in rows}
        assert len(queries) == 3
        for query in queries:
            mine = [r for r in rows if r["query_id"] == query]
            positives = [r for r in mine if r["relevance"] == 1]
            negatives = [r for r in mine if r["relevance"] == 0]
            assert len(positives) == 3  # 3 one-second frames of the b clip
            assert len(negatives) == 6  # other families' b frames

    def test_deterministic(self, tmp_path):
        wavs_a, labels_a = tone_family_set(tmp_path / "a", seed=7, n_families=2)
        wavs_b, labels_b = tone_family_set(tmp_path / "b", seed=7, n_families=2)
        for pa, pb in zip(wavs_a, wavs_b):
            assert pa.read_bytes() == pb.read_bytes()
        assert labels_a.read_text() == labels_b.read_text()


class TestDriftCorpus:
    def test_feature_shape_and_determinism(self):
        def features(seed):
            return base_features(drift_sequence_audio(np.random.default_rng(seed), 5))

        feats = features(2)
        assert feats.shape == (5, 64 * 45)
        assert np.array_equal(feats, features(2))
        assert not np.array_equal(feats, features(3))

    def test_wav_corpus_matches_frame_count(self, tmp_path):
        paths = write_drift_corpus(tmp_path, n_sequences=2, n_frames=4, seed=0)
        assert len(paths) == 2
        from audiomatch import load_audio, segment

        frames = segment(load_audio(paths[0]))
        assert len(frames) == 4
