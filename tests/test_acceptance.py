"""Acceptance suite: one test per release criterion.

Each test exercises its criterion at the stated tolerance and prints a
single PASS line (visible with ``pytest -s`` or in verbose mode as the
test outcome).  Every expected value is either derived by an
independent in-test oracle or hand-computed.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from audiomatch import (
    AudioClip,
    Gallery,
    ProjectionHead,
    TrainConfig,
    adaptive_crossfade_length,
    average_precision,
    build_index,
    crossfade_weights,
    hit_rate_at_k,
    load_audio,
    max_ss,
    normalize,
    precision_at_k,
    read_features,
    render,
    split_and_contrast_loss,
    train,
    write_features,
)
from audiomatch.cli import main as cli_main
from audiomatch.embedding import embed
from audiomatch.synthetic import tone_family_set
from audiomatch.transition import TransitionPlan, Strategy

from finite_differences import gradient_check, loss_and_gradients
from test_embedding import brute_force_loss, random_batch


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


class TestAcceptance:
    def test_01_contrastive_loss_matches_brute_force(self):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(100):
            n_seq = int(rng.integers(1, 5))
            n_frames = int(rng.integers(2, 7))
            d_base = int(rng.integers(3, 17))
            d = int(rng.integers(3, 17))
            features = rng.normal(size=(n_seq, n_frames, d_base))
            split = int(rng.integers(1, n_frames))
            head = ProjectionHead.initialize(d_base, d=d, seed=int(rng.integers(10_000)))
            tau = float(rng.uniform(0.05, 0.5))
            loss, _ = split_and_contrast_loss(head.weight, head.bias, features, split, tau)
            reference = brute_force_loss(head.weight, head.bias, features, split, tau)
            assert loss == pytest.approx(reference, rel=1e-8)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"100 brute-force comparisons took {elapsed:.2f}s"
        report(1, "contrastive loss matches brute force on 100 batches")

    def test_02_gradients_match_finite_differences(self):
        rng = np.random.default_rng(202)
        checked = 0
        worst = 0.0
        for trial in range(10):
            features, split = random_batch(rng)
            head = ProjectionHead.initialize(
                features.shape[2], d=int(rng.integers(4, 13)), seed=trial
            )
            error = gradient_check(head.weight, head.bias, features, split, samples=12, seed=trial)
            worst = max(worst, error)
            checked += 12
        assert checked >= 100
        assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
        report(2, f"analytic gradients within {worst:.1e} of finite differences")

    def test_03_single_pair_batch_is_trivially_flat(self):
        rng = np.random.default_rng(303)
        for trial in range(5):
            features = rng.normal(size=(1, 2, 8))
            head = ProjectionHead.initialize(8, d=6, seed=trial)
            loss, grad_weight, grad_bias = loss_and_gradients(head.weight, head.bias, features, 1)
            assert loss == 0.0
            assert np.sqrt(np.sum(grad_weight**2) + np.sum(grad_bias**2)) < 1e-8
        report(3, "single-positive batch gives loss 0 and zero gradient")

    def test_04_training_improves_adjacent_frame_retrieval(self, drift_features):
        start = time.perf_counter()
        train_features = drift_features(200, 10, seed=0)
        held_features = drift_features(50, 10, seed=1)
        d_base = train_features.shape[2]

        def adjacent_hit_rate(head, features, query_index=4):
            n_seq, n_frames, _ = features.shape
            z = embed(head, features.reshape(n_seq * n_frames, d_base))
            sims = z @ z.T
            hits = 0
            for s in range(n_seq):
                q = s * n_frames + query_index
                row = sims[q].copy()
                row[q] = -np.inf
                if int(np.argmax(row)) in (q - 1, q + 1):
                    hits += 1
            return hits / n_seq

        head = ProjectionHead.initialize(d_base, d=512, seed=0)
        hr_before = adjacent_hit_rate(head, held_features)

        config = TrainConfig(epochs=20, learning_rate=1e-4, batch_size=5, tau=0.1, seed=0)
        result = train(head, train_features, config)
        means = result.epoch_means()
        assert len(means) == 20
        assert means[19] < means[0], f"epoch means {means[0]:.4f} -> {means[19]:.4f}"

        hr_after = adjacent_hit_rate(result.head, held_features)
        improvement = hr_after - hr_before
        assert improvement >= 0.1, f"HR@1 {hr_before:.2f} -> {hr_after:.2f}"

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"training efficacy run took {elapsed:.0f}s"
        report(
            4,
            f"training lifts held-out adjacent HR@1 {hr_before:.2f} -> {hr_after:.2f} "
            f"in {elapsed:.0f}s",
        )

    def test_05_exact_mips_with_deterministic_ties(self):
        rng = np.random.default_rng(505)
        d = 512

        def oracle(gallery, z_q, k):
            scored = sorted(
                (-float(np.dot(np.asarray(vector, dtype=np.float64), z_q)), entry_id)
                for entry_id, vector in zip(gallery.ids, gallery.vectors)
            )
            return [entry_id for _, entry_id in scored[:k]]

        for gallery_index in range(1000):
            if gallery_index < 990:
                n = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
            else:
                n = 10_000
            rows = rng.normal(size=(n, d)).astype(np.float32)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            if gallery_index % 7 == 0 and n >= 4:
                rows[1] = rows[0]  # force exact score ties
                rows[3] = rows[0]
            id_order = rng.permutation(n)
            gallery = Gallery(
                [f"g{id_order[i]:05d}" for i in range(n)], [f"s{i}" for i in range(n)],
                np.arange(n), rows,
            )
            index = build_index(gallery)
            z_q = normalize(rng.normal(size=d))
            k = int(rng.integers(1, 12))
            got = [c.gallery_id for c in index.query(z_q, k=k)]
            assert got == oracle(gallery, z_q, k), f"mismatch in gallery {gallery_index}"

        # latency and lossless readback on a 10k-entry index
        rows = rng.normal(size=(10_000, d)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        index = build_index(
            Gallery(
                [f"g{i:05d}" for i in range(10_000)], [f"s{i}" for i in range(10_000)],
                np.arange(10_000), rows,
            )
        )
        assert len(index) == 10_000
        for i in rng.integers(0, 10_000, size=200):
            assert np.array_equal(index.vector(f"g{i:05d}"), rows[i])
        z_q = normalize(rng.normal(size=d))
        index.query(z_q, k=10)  # warm-up
        timings = []
        for _ in range(11):
            t0 = time.perf_counter()
            index.query(z_q, k=10)
            timings.append(time.perf_counter() - t0)
        latency_ms = 1000 * float(np.median(timings))
        assert latency_ms < 50.0, f"10k-entry query took {latency_ms:.1f} ms"
        report(5, f"exact search matches oracle on 1000 galleries; 10k query {latency_ms:.1f} ms")

    def test_06_max_ss_matches_exhaustive_scan(self):
        rng = np.random.default_rng(606)

        def exhaustive(matrix):
            best, arg = -np.inf, None
            t_rows, t_cols = matrix.shape
            for i in range(t_rows):
                for j in range(t_cols):
                    if matrix[i, j] > best:
                        best, arg = matrix[i, j], (i, j)
            return arg

        hand = np.array([[0.0, 1.0], [6.0, 0.0]])
        assert max_ss(hand) == (1, 0)

        for trial in range(1000):
            matrix = rng.normal(size=(45, 45))
            if trial % 9 == 0:
                flat = matrix.reshape(-1)
                peak = float(flat.max())
                duplicates = rng.integers(0, flat.size, size=3)
                flat[duplicates] = peak + 1.0  # multi-way tie
                matrix = flat.reshape(45, 45)
            assert max_ss(matrix) == exhaustive(matrix)
        report(6, "sub-spectrogram argmax matches exhaustive scan on 1000 matrices")

    def test_07_inverse_variance_crossfade_arithmetic(self):
        rng = np.random.default_rng(707)
        half = np.zeros((6, 6))
        half[:3] = 1.0  # population variance exactly 0.25
        assert adaptive_crossfade_length(np.var(half), phi=8.0, l_min=0.0, l_max=10.0) == 0.5

        flat = np.full((5, 5), 0.3)
        assert adaptive_crossfade_length(np.var(flat), phi=8.0, l_min=0.0, l_max=0.75) == 0.75

        previous_var, previous_len = -1.0, np.inf
        for scale in np.linspace(0.02, 0.45, 12):
            cosine = np.clip(0.5 + rng.normal(0.0, scale, (45, 45)), -1.0, 1.0)
            var = float(np.var(cosine))
            length = adaptive_crossfade_length(var, phi=8.0, l_min=0.0, l_max=np.inf)
            assert length == pytest.approx(1.0 / (var * 8.0))
            if var > previous_var:
                assert length < previous_len
                previous_var, previous_len = var, length
        report(7, "crossfade length follows the inverse-variance rule with clamping")

    def test_08_equal_power_rendering(self):
        rng = np.random.default_rng(808)
        for length in (2, 3, 100, 12000, 48001):
            w_out, w_in = crossfade_weights(length)
            assert np.max(np.abs(w_out**2 + w_in**2 - 1.0)) < 1e-9

        query = AudioClip(rng.uniform(-0.9, 0.9, 48000), 48000, "q")
        match = AudioClip(rng.uniform(-0.9, 0.9, 48000), 48000, "m")
        for cut_q, cut_m, fade_s in ((24000, 24000, 0.5), (10000, 30000, 0.25), (40000, 8000, 0.0)):
            plan = TransitionPlan(
                strategy=Strategy.MAX_SS_ADAPTIVE,
                cut_query=cut_q,
                cut_match=cut_m,
                crossfade_s=fade_s,
            )
            out1 = render(query, match, plan)
            out2 = render(query, match, plan)
            assert len(out1) == cut_q + (len(match) - cut_m)
            assert np.array_equal(out1.samples, out2.samples)
        report(8, "square-root windows are equal-power; rendering is exact and deterministic")

    def test_09_metric_fixtures_and_random_baseline(self):
        x = "x"
        fixtures = [
            # (ranked, positives, expected AP)
            (["p", x, x, x], {"p"}, Fraction(1)),
            ([x, "p"], {"p"}, Fraction(1, 2)),
            ([x, "a", x, "b"], {"a", "b"}, Fraction(1, 2)),
            (["a", "b", x, x], {"a", "b"}, Fraction(1)),
            ([x, x, "a", "b"], {"a", "b"}, Fraction(5, 12)),
            (["a", x, "b", x], {"a", "b"}, Fraction(5, 6)),
            (["p", "q", "r"], {"p", "q", "r"}, Fraction(1)),
            ([x, x, x], {"w"}, Fraction(0)),
            (["a"], {"a"}, Fraction(1)),
            ([x, "a"], {"a", "zz"}, Fraction(1, 4)),
            (["b", x, "a", x, x], {"a", "b"}, Fraction(5, 6)),
            ([x, x, x, "p"], {"p"}, Fraction(1, 4)),
            (["p", x, "q"], {"p", "q"}, Fraction(5, 6)),
            ([x, "p", "q", x], {"p", "q"}, Fraction(7, 12)),
            (["p1", "p2", "p3", "p4", "p5", x, x, x, x, x],
             {"p1", "p2", "p3", "p4", "p5"}, Fraction(1)),
            ([x] * 9 + ["p"], {"p"}, Fraction(1, 10)),
            (["a", "b", "c", "p"], {"p", "q", "r"}, Fraction(1, 12)),
            (["p1", x, "p3", x, "p5", x], {"p1", "p3", "p5"}, Fraction(34, 45)),
            ([x, "p2", x, "p4"], {"p2", "p4"}, Fraction(1, 2)),
            (["p1", "p2", x, "p4"], {"p1", "p2", "p4"}, Fraction(11, 12)),
        ]
        assert len(fixtures) == 20
        for ranked, positives, expected in fixtures:
            ranked = [f"{item}{i}" if item == x else item for i, item in enumerate(ranked)]
            assert average_precision(ranked, positives) == pytest.approx(float(expected))

        assert hit_rate_at_k(["p", x], {"p"}, 1) == 1
        assert hit_rate_at_k([x, x, "p"], {"p"}, 2) == 0
        assert precision_at_k(["p"] + [x] * 9, {"p"}, 10) == pytest.approx(0.1)
        assert precision_at_k(["a", "b", "c", "d", "e"], set("abcde"), 5) == 1.0

        # Monte Carlo random baseline, 10 positives among 123 items.  The
        # independently derived expectation of mean AP under a uniform
        # shuffle is ~0.1147 (it exceeds the 10/123 positive rate), in
        # line with published random-retrieval R-mAP values near 0.11.
        rng = np.random.default_rng(909)
        ids = [f"i{j:03d}" for j in range(123)]
        positives = set(ids[:10])
        mean_ap = float(
            np.mean(
                [
                    average_precision(list(rng.permutation(ids)), positives)
                    for _ in range(10_000)
                ]
            )
        )
        assert mean_ap == pytest.approx(0.1147, abs=0.02)
        report(9, f"20 metric fixtures pass; random-baseline mean AP {mean_ap:.4f}")

    def test_10_end_to_end_separable_retrieval(self, tmp_path, capsys):
        start = time.perf_counter()
        corpus_dir = tmp_path / "corpus"
        wavs, labels_path = tone_family_set(corpus_dir, seed=0, n_families=8)
        frames_dir = tmp_path / "frames"
        assert cli_main(["segment", str(corpus_dir), "--out-dir", str(frames_dir)]) == 0
        features_path = tmp_path / "gallery.amcf"
        assert (
            cli_main(
                [
                    "featurize",
                    "--manifest", str(frames_dir / "manifest.jsonl"),
                    "--out", str(features_path),
                    "--kind", "mel",
                ]
            )
            == 0
        )

        capsys.readouterr()
        assert (
            cli_main(
                [
                    "query", "--features", str(features_path),
                    "--query-id", "fam00_a@0.000", "--k", "3",
                ]
            )
            == 0
        )
        ranked = json.loads(capsys.readouterr().out)
        assert ranked["results"][0]["source_id"] == "fam00_b"

        report_path = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "eval", "--features", str(features_path), "--labels", str(labels_path),
                    "--ks", "1,2,5", "--out", str(report_path),
                ]
            )
            == 0
        )
        results = json.loads(report_path.read_text())
        hr1 = results["aggregate"]["hr"]["1"]
        r_map = results["aggregate"]["r_map"]
        assert hr1 == 1.0, f"HR@1 {hr1}"
        assert r_map > 0.9, f"R-mAP {r_map}"

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"end-to-end run took {elapsed:.0f}s"
        report(10, f"CLI pipeline reaches HR@1=1.0, R-mAP={r_map:.3f} in {elapsed:.0f}s")

    def test_11_file_formats_round_trip(self, tmp_path):
        rng = np.random.default_rng(1111)

        # feature file
        rows = rng.normal(size=(25, 96)).astype(np.float32)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        gallery = Gallery(
            [f"src{i // 5}@{float(i % 5):.3f}" for i in range(25)],
            [f"src{i // 5}" for i in range(25)],
            np.arange(25) % 5, rows,
        )
        feats_a, feats_b = tmp_path / "a.amcf", tmp_path / "b.amcf"
        write_features(feats_a, gallery)
        write_features(feats_b, read_features(feats_a))
        assert feats_a.read_bytes() == feats_b.read_bytes()

        # checkpoint
        head = ProjectionHead.initialize(40, d=16, seed=4)
        ckpt_a, ckpt_b = tmp_path / "a.ssch", tmp_path / "b.ssch"
        head.save(ckpt_a)
        ProjectionHead.load(ckpt_a).save(ckpt_b)
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

        # WAV: stable after the first 16-bit quantization
        from audiomatch import write_audio

        clip = AudioClip(rng.uniform(-1.0, 1.0, 48000), 48000, "w")
        wav_a, wav_b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_audio(clip, wav_a)
        first_load = load_audio(wav_a)
        assert np.max(np.abs(first_load.samples - clip.samples)) <= 2**-15
        write_audio(first_load, wav_b)
        assert np.array_equal(load_audio(wav_b).samples, first_load.samples)

        # manifest: parse then re-serialize identically
        manifest = tmp_path / "manifest.jsonl"
        manifest_rows = [
            {"id": f"s@{float(i):.3f}", "path": f"/tmp/f{i}.wav", "source_id": "s",
             "offset_s": float(i)}
            for i in range(10)
        ]
        manifest.write_text("\n".join(json.dumps(r) for r in manifest_rows) + "\n")
        parsed = [json.loads(line) for line in manifest.read_text().splitlines()]
        rewritten = "\n".join(json.dumps(r) for r in parsed) + "\n"
        assert rewritten == manifest.read_text()
        report(11, "feature files, checkpoints, WAVs, and manifests round-trip")
