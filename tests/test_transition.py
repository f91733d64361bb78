"""Similarity matrices, cut search, crossfade math, and rendering."""

import numpy as np
import pytest

from audiomatch import (
    AudioClip,
    Strategy,
    TransitionPlan,
    adaptive_crossfade_length,
    crossfade_weights,
    make_plan,
    max_ss,
    render,
    similarity_matrix,
)
from audiomatch import transition
from audiomatch.dsp import mel_spectrogram
from audiomatch.errors import CrossfadeTooLong, CutOutOfRange, ShapeMismatch
from audiomatch.transition import DEFAULT_PHI, step_to_sample


def spec_of(data):
    return np.asarray(data, dtype=float)


class TestSimilarityMatrix:
    def test_hand_computed_product(self):
        raw, _ = similarity_matrix(spec_of([[1, 0], [0, 2]]), spec_of([[0, 1], [3, 0]]))
        assert np.array_equal(raw, [[0.0, 1.0], [6.0, 0.0]])

    def test_one_hot_columns_give_permutation_structure(self):
        # Columns are one-hot, so raw[i, j] is 1 exactly where the hot
        # rows coincide: here match column j carries e_{(j-1) mod 4}.
        eye = np.eye(4)
        shifted = np.roll(eye, 1, axis=1)
        raw, cosine = similarity_matrix(spec_of(eye), spec_of(shifted))
        expected = np.zeros((4, 4))
        for j in range(4):
            expected[(j - 1) % 4, j] = 1.0
        assert np.array_equal(raw, expected)
        assert np.array_equal(cosine, expected)

    def test_zero_columns_give_zero_cosine(self):
        raw, cosine = similarity_matrix(spec_of(np.zeros((3, 4))), spec_of(np.ones((3, 4))))
        assert np.all(raw == 0.0)
        assert np.all(cosine == 0.0)

    def test_cosine_bounded_for_non_negative_input(self, rng):
        _, cosine = similarity_matrix(
            spec_of(rng.uniform(0, 5, (6, 9))), spec_of(rng.uniform(0, 5, (6, 9)))
        )
        assert np.all(cosine >= 0.0)
        assert np.all(cosine <= 1.0 + 1e-9)

    def test_raw_matches_per_entry_dot(self, rng):
        q, m = rng.uniform(0, 2, (5, 7)), rng.uniform(0, 2, (5, 7))
        raw, _ = similarity_matrix(spec_of(q), spec_of(m))
        for i in range(7):
            for j in range(7):
                assert raw[i, j] == pytest.approx(float(q[:, i] @ m[:, j]), abs=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            similarity_matrix(spec_of(np.zeros((3, 4))), spec_of(np.zeros((3, 5))))


class TestMaxSS:
    def test_hand_example(self):
        assert max_ss(np.array([[0.0, 1.0], [6.0, 0.0]])) == (1, 0)

    def test_tie_breaks_to_smallest(self):
        assert max_ss(np.ones((4, 4))) == (0, 0)

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            matrix = rng.normal(size=(12, 12))
            best, arg = -np.inf, None
            for i in range(12):
                for j in range(12):
                    if matrix[i, j] > best:
                        best, arg = matrix[i, j], (i, j)
            assert max_ss(matrix) == arg


class TestAdaptiveCrossfade:
    def test_zero_variance_clamps_to_max(self):
        var = np.var(np.full((6, 6), 0.7))
        assert adaptive_crossfade_length(var, phi=8.0, l_min=0.0, l_max=1.0) == 1.0

    def test_half_zero_half_one_is_half_a_second(self):
        cosine = np.zeros((6, 6))
        cosine[:3] = 1.0  # population variance 0.25
        assert adaptive_crossfade_length(np.var(cosine), phi=8.0, l_min=0.0, l_max=10.0) == 0.5

    def test_variance_half_gives_quarter_second(self):
        cosine = np.concatenate([np.full(8, 1.0), np.full(8, -1.0)]).reshape(4, 4)
        # population variance = 1.0 -> pre-clamp length 1/(1*8) = 0.125;
        # scale tau by building variance 0.5 from {0, 1, -1, 0} style grid
        cosine = np.array([[1.0, -1.0], [0.0, 0.0]])  # mean 0, E[x^2] = 0.5
        assert adaptive_crossfade_length(
            np.var(cosine), phi=8.0, l_min=0.0, l_max=10.0
        ) == pytest.approx(0.25)

    def test_clamps_to_min(self):
        cosine = np.array([[1.0, -1.0], [1.0, -1.0]])  # variance 1 -> 0.125 s
        assert adaptive_crossfade_length(np.var(cosine), phi=8.0, l_min=0.3, l_max=1.0) == 0.3

    def test_monotone_decreasing_in_variance(self, rng):
        lengths = []
        variances = []
        for scale in np.linspace(0.05, 0.5, 8):
            cosine = np.clip(0.5 + rng.normal(0, scale, (10, 10)), -1, 1)
            variances.append(np.var(cosine))
            lengths.append(
                adaptive_crossfade_length(np.var(cosine), phi=DEFAULT_PHI, l_min=0.0, l_max=np.inf)
            )
        order = np.argsort(variances)
        assert all(
            lengths[order[i]] >= lengths[order[i + 1]] for i in range(len(order) - 1)
        )

    def test_phi_must_be_positive(self):
        with pytest.raises(ValueError):
            adaptive_crossfade_length(np.var(np.ones((2, 2))), phi=0.0, l_min=0.0, l_max=1.0)


class TestCrossfadeWeights:
    def test_equal_power_identity(self):
        w_out, w_in = crossfade_weights(4801)
        assert np.max(np.abs(w_out**2 + w_in**2 - 1.0)) < 1e-9

    def test_endpoints(self):
        w_out, w_in = crossfade_weights(100)
        assert w_out[0] == 1.0 and w_in[0] == 0.0
        assert w_out[-1] == 0.0 and w_in[-1] == 1.0


def plan(cut_q, cut_m, crossfade_s, strategy=Strategy.MAX_SS_ADAPTIVE):
    return TransitionPlan(
        strategy=strategy, cut_query=cut_q, cut_match=cut_m, crossfade_s=crossfade_s
    )


class TestRender:
    def test_concat_of_silence(self):
        a = AudioClip(np.zeros(48000), 48000, "a")
        b = AudioClip(np.zeros(48000), 48000, "b")
        out = render(a, b, plan(48000, 0, 0.0, Strategy.CONCAT))
        assert len(out) == 96000
        assert np.all(out.samples == 0.0)

    def test_output_length_formula(self, rng):
        a = AudioClip(rng.uniform(-0.5, 0.5, 48000), 48000, "a")
        b = AudioClip(rng.uniform(-0.5, 0.5, 48000), 48000, "b")
        for cut_q, cut_m, fade in ((30000, 10000, 0.2), (24000, 24000, 0.0), (5000, 40000, 0.1)):
            out = render(a, b, plan(cut_q, cut_m, fade))
            assert len(out) == cut_q + (48000 - cut_m)

    def test_constant_signal_amplitude_is_window_sum(self):
        # With a constant c on both sides, every overlap sample equals
        # c * (sqrt(1-u) + sqrt(u)); c = 0.5 keeps the sum below clipping.
        c = 0.5
        a = AudioClip(np.full(48000, c), 48000, "a")
        b = AudioClip(np.full(48000, c), 48000, "b")
        fade_s = 0.25
        out = render(a, b, plan(24000, 24000, fade_s))
        overlap = int(fade_s * 48000)
        start = 24000 - overlap // 2
        u = np.linspace(0.0, 1.0, overlap)
        expected = c * (np.sqrt(1.0 - u) + np.sqrt(u))
        assert np.array_equal(out.samples[start : start + overlap], expected)
        assert np.max(expected) <= c * np.sqrt(2.0) + 1e-12

    def test_equal_power_preserves_noise_power(self, rng):
        # Monte Carlo: for uncorrelated noise, expected overlap power
        # equals input power because the squared weights sum to one.
        overlap_powers = []
        input_powers = []
        for _ in range(100):
            a = AudioClip(rng.normal(0, 0.1, 48000), 48000)
            b = AudioClip(rng.normal(0, 0.1, 48000), 48000)
            out = render(a, b, plan(24000, 24000, 0.5))
            overlap = 24000
            start = 24000 - overlap // 2
            overlap_powers.append(np.mean(out.samples[start : start + overlap] ** 2))
            input_powers.append(np.mean(a.samples**2))
        assert np.mean(overlap_powers) == pytest.approx(np.mean(input_powers), rel=0.1)

    def test_bit_deterministic(self, rng):
        a = AudioClip(rng.uniform(-1, 1, 48000), 48000)
        b = AudioClip(rng.uniform(-1, 1, 48000), 48000)
        p = plan(20000, 30000, 0.3)
        assert np.array_equal(render(a, b, p).samples, render(a, b, p).samples)

    def test_hard_clipping(self):
        a = AudioClip(np.full(48000, 1.0), 48000)
        b = AudioClip(np.full(48000, 1.0), 48000)
        out = render(a, b, plan(24000, 24000, 0.25))
        assert np.max(out.samples) == 1.0

    def test_cut_out_of_range(self):
        a = AudioClip(np.zeros(1000), 48000)
        b = AudioClip(np.zeros(1000), 48000)
        with pytest.raises(CutOutOfRange):
            render(a, b, plan(1001, 0, 0.0))
        with pytest.raises(CutOutOfRange):
            render(a, b, plan(500, -1, 0.0))

    def test_crossfade_too_long(self):
        a = AudioClip(np.zeros(48000), 48000)
        b = AudioClip(np.zeros(48000), 48000)
        with pytest.raises(CrossfadeTooLong):
            render(a, b, plan(1000, 24000, 0.5))  # needs 12000 samples before cut
        with pytest.raises(CrossfadeTooLong):
            render(a, b, plan(24000, 47950, 0.5))

    def test_sample_rate_mismatch(self):
        # A 44.1 kHz clip is refused when built, so render never sees two rates.
        with pytest.raises(ValueError, match="^sample_rate must be 48000, got 44100$"):
            render(
                AudioClip(np.zeros(100), 48000),
                AudioClip(np.zeros(100), 44100),
                plan(10, 10, 0.0),
            )
        out = render(
            AudioClip(np.zeros(100), 48000), AudioClip(np.zeros(100), 48000), plan(10, 10, 0.0)
        )
        assert out.sample_rate == 48000


def click_clip(step, amp=0.9, seconds=1.0, source="click"):
    """Single impulse at the center of the given spectrogram step."""
    samples = np.zeros(int(seconds * 48000))
    samples[step_to_sample(step)] = amp
    return AudioClip(samples, 48000, source)


class TestMakePlan:
    def test_concat_cuts_at_clip_boundary(self, tone_clip):
        (p,) = make_plan(tone_clip(), [tone_clip(freq=660)], Strategy.CONCAT)
        assert p.crossfade_s == 0.0
        assert p.cut_query == 48000
        assert p.cut_match == 0

    def test_fixed_crossfade_keeps_requested_length(self, tone_clip):
        (p,) = make_plan(
            tone_clip(), [tone_clip(freq=660)], Strategy.FIXED_CROSSFADE, fixed_s=0.25
        )
        assert p.crossfade_s == pytest.approx(0.25)
        out = render(tone_clip(), tone_clip(freq=660), p)
        assert len(out) == 2 * 48000 - 12000

    def test_max_ss_finds_click_alignment(self):
        (p,) = make_plan(click_clip(30, source="q"), [click_clip(10, source="m")], Strategy.MAX_SS)
        assert (p.cut_i, p.cut_j) == (30, 10)
        assert p.cut_query == step_to_sample(30)
        assert p.cut_match == step_to_sample(10)
        assert p.crossfade_s == 0.0

    def test_adaptive_composes_cut_and_length(self, rng):
        query = AudioClip(rng.normal(0, 0.2, 48000), 48000, "q")
        match = AudioClip(rng.normal(0, 0.2, 48000), 48000, "m")
        (p,) = make_plan(query, [match], Strategy.MAX_SS_ADAPTIVE, phi=8.0, l_min=0.0, l_max=1.0)
        raw, cosine = similarity_matrix(
            mel_spectrogram(query, log_compress=False),
            mel_spectrogram(match, log_compress=False),
        )
        assert (p.cut_i, p.cut_j) == max_ss(raw)
        assert p.var == pytest.approx(float(np.var(cosine)))
        expected = adaptive_crossfade_length(np.var(cosine), phi=8.0, l_min=0.0, l_max=1.0)
        # the planned fade may only shrink, to fit the available audio
        assert p.crossfade_s <= expected + 1e-9
        assert p.phi == 8.0
        render(query, match, p)  # must fit by construction

    def test_stationary_pair_gets_longer_fade_than_impulsive_pair(self):
        # Impulsive pairs produce a peaky (high-variance) cosine matrix
        # and therefore a short fade; stationary noise the opposite.
        def clicks(rate_hz, seed):
            # Decaying clicks at rate_hz over a faint seeded noise floor.
            out = np.random.default_rng(seed).normal(0.0, 0.02 / 3, 48000)
            kernel = 0.8 * np.exp(-np.arange(1536) / 192.0)
            for start in range(0, 48000, int(48000 / rate_hz)):
                out[start : start + 1536] += kernel[: 48000 - start]
            return AudioClip(np.clip(out, -1, 1), 48000)

        def noise(seed):
            return AudioClip(np.clip(np.random.default_rng(seed).normal(0, 0.4 / 3, 48000), -0.4, 0.4), 48000)

        def pair_length(a, b):
            _, cosine = similarity_matrix(
                mel_spectrogram(a, log_compress=False),
                mel_spectrogram(b, log_compress=False),
            )
            return adaptive_crossfade_length(
                np.var(cosine), phi=DEFAULT_PHI, l_min=0.0, l_max=np.inf
            )

        impulsive = pair_length(clicks(4.0, seed=1), clicks(3.0, seed=2))
        stationary = pair_length(noise(3), noise(4))
        assert stationary > impulsive

    def test_context_widens_the_fit(self, tone_clip):
        # A 3-second clip with the search window in the middle can host a
        # fade that bare 1-second frames cannot.
        query = tone_clip(seconds=3.0, freq=300.0)
        match = tone_clip(seconds=3.0, freq=300.0)
        (p,) = make_plan(
            query, [match], Strategy.MAX_SS_ADAPTIVE, l_min=0.0, l_max=1.0,
            query_frame_offset_s=1.0, match_frame_offset_s=1.0,
        )
        assert p.crossfade_s == pytest.approx(1.0)
        out = render(query, match, p)
        assert len(out) == p.cut_query + (len(match) - p.cut_match)

    def test_requires_full_window(self, tone_clip):
        from audiomatch.errors import TooShort

        with pytest.raises(TooShort):
            make_plan(tone_clip(seconds=0.5), [tone_clip()], Strategy.CONCAT)
        with pytest.raises(TooShort):
            make_plan(tone_clip(), [tone_clip()], Strategy.CONCAT, query_frame_offset_s=0.5)

    def test_plan_describe_fields(self, tone_clip):
        (p,) = make_plan(tone_clip(), [tone_clip(freq=500)], Strategy.MAX_SS_ADAPTIVE)
        d = p.describe()
        assert set(d) == {
            "strategy", "cut_i", "cut_j", "cut_query_s", "cut_match_s",
            "crossfade_s", "var", "phi",
        }
        assert d["strategy"] == "max-ss-adaptive"


class TestPlanSettings:
    @pytest.mark.parametrize(
        "settings, named",
        [
            ({"phi": np.nan}, "phi"), ({"phi": 0.0}, "phi"), ({"phi": -1.0}, "phi"),
            ({"phi": np.inf}, "phi"),
            ({"fixed_s": np.nan}, "fixed_s"), ({"fixed_s": -0.5}, "fixed_s"),
            ({"fixed_s": np.inf}, "fixed_s"),
            ({"l_min": np.nan}, "l_min"), ({"l_min": -0.1}, "l_min"),
            ({"l_min": np.inf, "l_max": np.inf}, "l_min"),
            ({"l_min": 0.6, "l_max": 0.2}, "l_max"), ({"l_max": np.nan}, "l_max"),
            ({"query_frame_offset_s": np.inf}, "query_frame_offset_s"),
            ({"query_frame_offset_s": np.nan}, "query_frame_offset_s"),
            ({"match_frame_offset_s": -np.inf}, "match_frame_offset_s"),
            ({"match_frame_offset_s": np.nan}, "match_frame_offset_s"),
            ({"match_frame_offset_s": -1e305}, "match_frame_offset_s"),
        ],
    )
    @pytest.mark.parametrize("strategy", [Strategy.CONCAT, Strategy.MAX_SS_ADAPTIVE])
    def test_rejected_before_any_analysis(self, tone_clip, monkeypatch, settings, named, strategy):
        analysed = []
        monkeypatch.setattr(transition, "mel_spectrogram", lambda *a, **k: analysed.append(a))
        with pytest.raises(ValueError, match=f"^{named} must"):
            make_plan(tone_clip(), [tone_clip(freq=660)], strategy, **settings)
        assert analysed == []

    def test_unbounded_l_max_is_accepted(self, tone_clip):
        (p,) = make_plan(tone_clip(), [tone_clip(freq=660)], Strategy.MAX_SS_ADAPTIVE, l_max=np.inf)
        assert 0.0 < p.crossfade_s <= 1.0


def noise_clip(seconds, seed, source):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.normal(0.0, 0.2, int(seconds * 48000)), 48000, source)


class TestBatchedPlan:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_equals_one_match_calls(self, tone_clip, strategy):
        query = noise_clip(3.0, 1, "q")
        matches = [
            noise_clip(2.5, 2, "m1"),
            tone_clip(seconds=4.0, freq=330.0, source_id="m2"),
            AudioClip(np.clip(noise_clip(3.0, 3, "m3").samples * 3.0, -1.0, 1.0), 48000, "m3"),
        ]
        settings = dict(phi=6.0, fixed_s=0.3, l_min=0.01, l_max=0.8,
                        query_frame_offset_s=1.25, match_frame_offset_s=0.5)
        batched = make_plan(query, matches, strategy, **settings)
        single = [make_plan(query, [match], strategy, **settings)[0] for match in matches]
        assert batched == single

        if strategy in (Strategy.MAX_SS, Strategy.MAX_SS_ADAPTIVE):
            # Each plan is the pair's own analysis of its two windows, bit for bit.
            query_window = AudioClip(query.samples[60000:108000], 48000)
            for plan_, match in zip(batched, matches):
                raw, cosine = similarity_matrix(
                    mel_spectrogram(query_window, log_compress=False),
                    mel_spectrogram(AudioClip(match.samples[24000:72000], 48000),
                                    log_compress=False),
                )
                assert (plan_.cut_i, plan_.cut_j) == max_ss(raw)
                assert plan_.var == float(np.var(cosine))
                assert plan_.cut_query == 60000 + step_to_sample(plan_.cut_i)
                assert plan_.cut_match == 24000 + step_to_sample(plan_.cut_j)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_no_matches_gives_no_plans(self, tone_clip, strategy):
        assert make_plan(tone_clip(), [], strategy) == []

    def test_short_match_raises_before_any_analysis(self, tone_clip, monkeypatch):
        from audiomatch.errors import TooShort

        calls = []
        monkeypatch.setattr(transition, "mel_spectrogram", lambda *a, **k: calls.append(a))
        matches = [tone_clip(seconds=2.0), tone_clip(seconds=3.0), tone_clip(seconds=1.4)]
        with pytest.raises(TooShort, match="^match clip 2 lacks"):
            make_plan(tone_clip(seconds=2.0), matches, Strategy.MAX_SS_ADAPTIVE,
                      query_frame_offset_s=0.5, match_frame_offset_s=0.5)
        assert calls == []
