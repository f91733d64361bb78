"""Transition-point search and crossfade rendering between two clips.

The fine-grained search compares the raw (pre-log) mel spectrograms of
the query and match frames column-by-column: the dot-product matrix
locates the cut (high-energy events dominate the argmax) while the
cosine matrix, bounded in [0, 1] for non-negative spectrograms, feeds
the inverse-variance rule that picks the crossfade length.  Rendering
overlaps the two signals around the cut under square-root fade windows,
whose in/out weights satisfy w_in^2 + w_out^2 = 1 at every sample.

Time steps map to waveform positions through the center of the analysis
window: sample = step * HOP_LENGTH + WINDOW_SIZE / 2, from the dsp geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio_io import CANONICAL_RATE, FRAME_LENGTH, AudioClip
from .dsp import HOP_LENGTH, WINDOW_SIZE, mel_spectrogram
from .errors import CrossfadeTooLong, CutOutOfRange, InvalidValue, ShapeMismatch, TooShort

DEFAULT_PHI = 8.0
DEFAULT_L_MIN = 0.05
DEFAULT_L_MAX = 1.0
DEFAULT_FIXED_S = 0.25


class Strategy(str, Enum):
    """How to place the cut and whether/how long to fade."""

    CONCAT = "concat"
    FIXED_CROSSFADE = "crossfade"
    MAX_SS = "max-ss"
    MAX_SS_ADAPTIVE = "max-ss-adaptive"


def similarity_matrix(q: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw and cosine t x t similarity matrices of two (bins, t) spectrograms.

    ``raw[i, j]`` is the dot product of query column i with match column
    j; ``cosine`` holds the same products over the column norms, with
    zero-norm columns mapping to 0.  Expects the raw (pre-log) mel form;
    shapes must agree exactly.

    Raises:
        ShapeMismatch: Differing frequency bins or time steps.
    """
    q = np.asarray(q, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if q.shape != m.shape:
        raise ShapeMismatch(f"spectrogram shapes differ: {q.shape} vs {m.shape}")
    raw = q.T @ m

    q_norms = np.linalg.norm(q, axis=0)
    m_norms = np.linalg.norm(m, axis=0)
    denom = np.outer(q_norms, m_norms)
    cosine = np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0.0)
    return raw, cosine


def max_ss(raw: np.ndarray) -> tuple[int, int]:
    """Argmax over the raw matrix; ties break by smallest (i, then j)."""
    return divmod(int(np.argmax(raw)), raw.shape[1])


def _check_fade_settings(phi: float, l_min: float, l_max: float) -> None:
    """Raise InvalidValue naming a fade setting the rule cannot use; comparisons with NaN fail."""
    if not 0.0 < phi < np.inf:
        raise InvalidValue(f"phi must be finite and > 0, got {phi}")
    if not 0.0 <= l_min < np.inf:
        raise InvalidValue(f"l_min must be finite and >= 0, got {l_min}")
    if not l_min <= l_max:
        raise InvalidValue(f"l_max must be >= l_min ({l_min}), got {l_max}")


def check_settings(*, phi: float, fixed_s: float, l_min: float, l_max: float) -> None:
    """Raise InvalidValue naming a :func:`make_plan` setting out of range."""
    if not 0.0 <= fixed_s < np.inf:
        raise InvalidValue(f"fixed_s must be finite and >= 0, got {fixed_s}")
    _check_fade_settings(phi, l_min, l_max)


def adaptive_crossfade_length(var: float, *, phi: float, l_min: float, l_max: float) -> float:
    """Crossfade seconds from the inverse variance of the cosine matrix.

    ``var`` is the population variance over all t*t cosine entries;
    l = 1 / (var * phi), clamped to [l_min, l_max]; zero variance clamps
    to l_max.

    Raises:
        InvalidValue: phi not finite and > 0, l_min not finite and >= 0, or l_min > l_max.
    """
    _check_fade_settings(phi, l_min, l_max)
    length = np.inf if var == 0.0 else 1.0 / (var * phi)
    return float(min(max(length, l_min), l_max))


@dataclass(frozen=True)
class TransitionPlan:
    """The recipe the renderer executes.

    ``cut_query``/``cut_match`` are sample positions: the output is the
    query up to ``cut_query`` followed by the match from ``cut_match``,
    overlapped for ``crossfade_s`` seconds centered on the cut.
    ``cut_i``/``cut_j`` record the spectrogram steps that produced the
    cut for the sub-spectrogram strategies; boundary strategies leave
    them unset.
    """

    strategy: Strategy
    cut_query: int
    cut_match: int
    crossfade_s: float
    cut_i: int | None = None
    cut_j: int | None = None
    var: float | None = None
    phi: float | None = None

    def describe(self) -> dict:
        """JSON-friendly summary of the plan."""
        return {
            "strategy": self.strategy.value,
            "cut_i": self.cut_i,
            "cut_j": self.cut_j,
            "cut_query_s": self.cut_query / CANONICAL_RATE,
            "cut_match_s": self.cut_match / CANONICAL_RATE,
            "crossfade_s": self.crossfade_s,
            "var": self.var,
            "phi": self.phi,
        }


def crossfade_weights(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Square-root fade-out/fade-in weights over ``length`` samples.

    u runs linearly over [0, 1]; the outgoing weight is sqrt(1 - u) and
    the incoming weight sqrt(u), so the pair is equal-power at every
    sample.
    """
    u = np.linspace(0.0, 1.0, length)
    return np.sqrt(1.0 - u), np.sqrt(u)


def render(query: AudioClip, match: AudioClip, plan: TransitionPlan) -> AudioClip:
    """Blend two clips according to a plan.

    The output is the query prefix, an optional equal-power overlap
    centered on the cut, then the match suffix, hard-clipped to [-1, 1].
    The overlap consumes floor(L/2) samples before each cut point and
    ceil(L/2) after; output length is therefore exactly
    cut_query + (len(match) - cut_match).

    Raises:
        InvalidValue: A negative crossfade_s.
        CutOutOfRange: A cut point falls outside its clip.
        CrossfadeTooLong: The overlap does not fit the available audio.
    """
    if plan.crossfade_s < 0.0:
        raise InvalidValue("crossfade_s must be >= 0")
    cut_q, cut_m = plan.cut_query, plan.cut_match
    if not 0 <= cut_q <= len(query):
        raise CutOutOfRange(f"query cut {cut_q} outside clip of {len(query)} samples")
    if not 0 <= cut_m <= len(match):
        raise CutOutOfRange(f"match cut {cut_m} outside clip of {len(match)} samples")

    overlap = int(round(plan.crossfade_s * CANONICAL_RATE))
    half = overlap // 2
    start_q = cut_q - half
    start_m = cut_m - half
    if start_q < 0 or start_q + overlap > len(query):
        raise CrossfadeTooLong(f"{overlap}-sample overlap does not fit query around sample {cut_q}")
    if start_m < 0 or start_m + overlap > len(match):
        raise CrossfadeTooLong(f"{overlap}-sample overlap does not fit match around sample {cut_m}")
    w_out, w_in = crossfade_weights(overlap)
    blended = (
        w_out * query.samples[start_q : start_q + overlap]
        + w_in * match.samples[start_m : start_m + overlap]
    )
    out = np.concatenate([query.samples[:start_q], blended, match.samples[start_m + overlap :]])
    out = np.clip(out, -1.0, 1.0)
    source = f"{query.source_id}=>{match.source_id}" if query.source_id else match.source_id
    return AudioClip(out, CANONICAL_RATE, source_id=source, offset_s=0.0)


def step_to_sample(step: int) -> int:
    """Center-of-window sample position of a spectrogram time step."""
    return step * HOP_LENGTH + WINDOW_SIZE // 2


def make_plan(
    query: AudioClip,
    matches: list[AudioClip],
    strategy: Strategy,
    *,
    phi: float = DEFAULT_PHI,
    fixed_s: float = DEFAULT_FIXED_S,
    l_min: float = DEFAULT_L_MIN,
    l_max: float = DEFAULT_L_MAX,
    query_frame_offset_s: float = 0.0,
    match_frame_offset_s: float = 0.0,
) -> list[TransitionPlan]:
    """Choose cut points and crossfade length for a strategy, one plan per match.

    The sub-spectrogram search runs over the 1-second windows starting
    at the given offsets within the query and within each match; audio
    outside those windows (when present) only widens the room available
    to the crossfade.  The query window is analysed once and the match
    windows as one block, bit for bit what each pair alone gives.
    Boundary strategies overlap the last fade-length of the query window
    with the first of the match window, with the nominal cut at the
    overlap's center: concat is the fixed crossfade with no fade, so it
    cuts at the window boundaries.  Max-SS is max-SS-adaptive with no
    fade.  ``fixed_s`` is the fixed-crossfade length; ``phi``, ``l_min``
    and ``l_max`` set :func:`adaptive_crossfade_length`.

    Raises:
        InvalidValue: A setting out of range or an offset that is not
            finite, checked before any analysis.
        TooShort: The query or a match lacks a full 1-second window at
            its offset, checked before any analysis.
    """
    check_settings(phi=phi, fixed_s=fixed_s, l_min=l_min, l_max=l_max)
    for name, offset in (("query_frame_offset_s", query_frame_offset_s),
                         ("match_frame_offset_s", match_frame_offset_s)):
        if not abs(offset) * CANONICAL_RATE < np.inf:  # false for NaN too
            raise InvalidValue(f"{name} must be finite in seconds and in samples, got {offset}")
    off_q = int(round(query_frame_offset_s * CANONICAL_RATE))
    off_m = int(round(match_frame_offset_s * CANONICAL_RATE))
    if off_q < 0 or off_q + FRAME_LENGTH > len(query):
        raise TooShort("query clip lacks a full 1-second window at the requested offset")
    for number, match in enumerate(matches):
        if off_m < 0 or off_m + FRAME_LENGTH > len(match):
            raise TooShort(
                f"match clip {number} lacks a full 1-second window at the requested offset"
            )

    if strategy in (Strategy.CONCAT, Strategy.FIXED_CROSSFADE):
        fade = int(round(fixed_s * CANONICAL_RATE)) if strategy is Strategy.FIXED_CROSSFADE else 0
        plans = []
        for match in matches:
            overlap = min(fade, off_q + FRAME_LENGTH, len(match) - off_m)
            plans.append(TransitionPlan(
                strategy=strategy,
                cut_query=off_q + FRAME_LENGTH - (overlap - overlap // 2),
                cut_match=off_m + overlap // 2,
                crossfade_s=overlap / CANONICAL_RATE,
            ))
        return plans

    if not matches:
        return []
    query_mel = mel_spectrogram(query.samples[off_q : off_q + FRAME_LENGTH], log_compress=False)
    match_mels = mel_spectrogram(
        np.stack([match.samples[off_m : off_m + FRAME_LENGTH] for match in matches]),
        log_compress=False,
    )
    adaptive = strategy is Strategy.MAX_SS_ADAPTIVE
    plans = []
    for match, match_mel in zip(matches, match_mels):
        raw, cosine = similarity_matrix(query_mel, match_mel)
        cut_i, cut_j = max_ss(raw)
        cut_q = off_q + step_to_sample(cut_i)
        cut_m = off_m + step_to_sample(cut_j)
        var = float(np.var(cosine))
        length_s = 0.0
        if adaptive:
            length_s = adaptive_crossfade_length(var, phi=phi, l_min=l_min, l_max=l_max)
        # Shrink the fade to the largest overlap that fits both clips around the cuts.
        room = min(cut_q, cut_m, len(query) - cut_q, len(match) - cut_m)
        overlap = min(int(round(length_s * CANONICAL_RATE)), 2 * room)
        plans.append(TransitionPlan(
            strategy=strategy,
            cut_query=cut_q,
            cut_match=cut_m,
            crossfade_s=overlap / CANONICAL_RATE,
            cut_i=cut_i,
            cut_j=cut_j,
            var=var,
            phi=phi if adaptive else None,
        ))
    return plans
