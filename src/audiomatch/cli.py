"""Command-line pipeline: segment, featurize, query, render, train, eval.

Every subcommand is deterministic given --seed, reads and writes only
the files named in its arguments, and exits 0 iff it succeeded.  A file
is written whole or not at all (``error: cannot write <file>``).  The
frame pass of featurize, train and query --query-wav
(:func:`retrieval.featurize_clip`) runs on one thread per core of the
process's affinity mask, with numpy's OpenBLAS held at one thread
throughout; where its thread functions are not found, the pass runs on
one thread and leaves BLAS alone.  Other work runs on one Python thread,
and BLAS owns its parallelism (set it with OPENBLAS_NUM_THREADS or the
like).  Outputs are byte-identical at any BLAS thread count, except where
a head's float64 GEMMs are not: at d_base 900 (MFCC) for every width
probed and at 2880 for widths 250, 300 and 500, train's loss history may
differ in its last bits.  The float32 checkpoints came out equal in every
probe, by rounding, not by construction.  The frame pass reads manifest
frames one at a time into one result, so beyond it memory is bounded by
a group of ``retrieval.SPECTROGRAM_FRAMES`` frames per thread, not by
the manifest.  query reads a regular feature file in spans of about
``retrieval.SPAN_BYTES`` of vectors (:func:`retrieval.open_features`),
so memory is bounded by a span and the id column, not by the catalog; a
pipe, or a file of at most one span, is read whole.  Clips are always 48 kHz and frames always 1 second
(:mod:`audiomatch.audio_io`), and the analysis geometry is fixed in
:mod:`audiomatch.dsp`; none of them has a flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import audio_io, evaluation, retrieval, synthetic, transition
from .dsp import FeatureKind
from .embedding import ProjectionHead, TrainConfig, train
from .errors import AudioMatchError
from .retrieval import Gallery, frame_id

# The manifest fields featurize and train read.
_FRAME_FIELDS = {"path": "a string", "source_id": "a string", "offset_s": "a number"}


def _max_workers() -> int:
    """Python threads featurize and train run the frame pass on (see :mod:`retrieval`)."""
    return retrieval._workers()


def _check_range(flag: str, value: float, low: float, high: float | None = None) -> None:
    """Raise an AudioMatchError naming ``flag`` unless low <= value (<= high); NaN fails."""
    if not (low <= value and (high is None or value <= high)):
        bounds = f"at least {low}" if high is None else f"from {low} to {high}"
        raise AudioMatchError(f"{flag} must be {bounds}, got {value}")


def _iter_input_wavs(inputs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.wav")))
        else:
            paths.append(p)
    return paths


def _segment_source(wav: Path, out_dir: Path) -> list[dict]:
    """Write one WAV's 1-second frames into ``out_dir``; their manifest rows.

    The clip lives only in this call, so it is freed before the next source loads.
    """
    clip = audio_io.load_audio(wav)
    rows = []
    for index, frame in enumerate(audio_io.segment(clip)):
        frame_path = out_dir / f"{clip.source_id}_{index:05d}.wav"
        audio_io.write_audio(frame, frame_path)
        rows.append(
            {
                "id": frame_id(frame.source_id, frame.offset_s),
                "path": str(frame_path),
                "source_id": frame.source_id,
                "offset_s": frame.offset_s,
            }
        )
    return rows


def cmd_segment(args: argparse.Namespace) -> int:
    wavs = _iter_input_wavs(args.inputs)
    if not wavs:
        raise AudioMatchError("no input WAV files found")
    # A frame's file name and id derive from its source id, the WAV's stem, so two
    # sources sharing one would overwrite each other's frames and repeat their ids.
    first_with: dict[str, Path] = {}
    for wav in wavs:
        if wav.stem in first_with:
            raise AudioMatchError(
                f"{first_with[wav.stem]} and {wav} share the source id {wav.stem!r}"
            )
        first_with[wav.stem] = wav
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [row for wav in wavs for row in _segment_source(wav, out_dir)]
    manifest = out_dir / "manifest.jsonl"
    audio_io.write_atomic(manifest, ("\n".join(json.dumps(row) for row in rows) + "\n").encode())
    print(f"wrote {len(rows)} frames and {manifest}")
    return 0


class _Frames:
    """The first 1-second frame of each manifest row's WAV, loaded when it is indexed."""

    def __init__(self, rows: list[dict]):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> np.ndarray:
        return audio_io.segment(audio_io.load_audio(self.rows[index]["path"]))[0].samples


def cmd_featurize(args: argparse.Namespace) -> int:
    rows = audio_io.read_json_lines(
        args.manifest, {"id": "a string", **_FRAME_FIELDS}, unique=("id",)
    )
    head = ProjectionHead.load(args.head) if args.head else None
    vectors = retrieval.featurize_clip(_Frames(rows), head, FeatureKind(args.kind))
    del head  # not held while the file is written
    out_path = Path(args.out)
    gallery = Gallery(
        [row["id"] for row in rows], [row["source_id"] for row in rows],
        [float(row["offset_s"]) for row in rows], vectors,
    )
    retrieval.write_features(out_path, gallery)
    print(f"wrote {len(gallery)} vectors (d={gallery.vectors.shape[1]}) to {out_path}")
    return 0


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._@-]+", "_", text)


def cmd_query(args: argparse.Namespace) -> int:
    _check_range("--k", args.k, 1)  # before any file is read
    if args.render_dir:  # before any output, so a bad setting leaves none
        if not args.manifest:
            raise AudioMatchError("--render-dir requires --manifest to locate frame WAVs")
        transition.check_settings(
            phi=args.phi, fixed_s=args.fixed_seconds, l_min=args.l_min, l_max=args.l_max
        )
    index = retrieval.open_features(args.features)

    query_clip = None
    if args.query_id:
        if args.query_id not in index:
            raise AudioMatchError(f"query id {args.query_id!r} not in feature file")
        query_vector = index.vector(args.query_id).astype(np.float64)
        query_source: str | None = index.source_of(args.query_id)
        query_id = args.query_id
    elif args.query_wav:
        head = ProjectionHead.load(args.head) if args.head else None
        clip = audio_io.load_audio(args.query_wav)
        query_clip = audio_io.segment(clip)[0]
        query_vector = retrieval.featurize_clip(
            query_clip.samples[None], head, FeatureKind(args.kind)
        )[0].astype(np.float64)
        query_source = query_clip.source_id
        query_id = frame_id(query_clip.source_id, query_clip.offset_s)
    else:
        raise AudioMatchError("provide --query-id or --query-wav")

    exclude = query_source if not args.include_same_source else None
    candidates = index.query(query_vector, args.k, exclude_source=exclude, query_id=query_id)
    result = {
        "query_id": query_id,
        "k": args.k,
        "exclude_same_source": not args.include_same_source,
        "results": [
            {
                "rank": c.rank,
                "gallery_id": c.gallery_id,
                "score": c.score,
                "source_id": index.source_of(c.gallery_id),
                "offset_s": float(index.offsets[index.row_of(c.gallery_id)]),
            }
            for c in candidates
        ],
    }
    del index  # frees the gallery, so it is not held while WAVs are loaded and rendered
    if args.render_dir:  # every WAV is located, and the query's loaded, before any output
        fields = {"id": "a string", "path": "a string"}
        paths = {row["id"]: row["path"] for row in audio_io.read_json_lines(args.manifest, fields)}
        if query_clip is None:
            if query_id not in paths:
                raise AudioMatchError(f"query id {query_id!r} not in manifest {args.manifest}")
            query_clip = audio_io.load_audio(paths[query_id])
        missing = [c.gallery_id for c in candidates if c.gallery_id not in paths]
        if missing:
            raise AudioMatchError(f"candidate id {missing[0]!r} not in manifest {args.manifest}")

    text = json.dumps(result, indent=2)
    if args.out:
        audio_io.write_atomic(args.out, (text + "\n").encode())
    else:
        print(text)

    if args.render_dir:
        _render_candidates(args, query_clip, candidates, paths)
    return 0


def _render_candidates(args, query_clip, candidates, paths: dict[str, str]) -> None:
    """Write one blended WAV per candidate, named by rank and score."""
    match_clips = [audio_io.load_audio(paths[c.gallery_id]) for c in candidates]
    match_plans = transition.make_plan(
        query_clip, match_clips, transition.Strategy(args.strategy),
        phi=args.phi, fixed_s=args.fixed_seconds, l_min=args.l_min, l_max=args.l_max,
    )
    render_dir = Path(args.render_dir)
    render_dir.mkdir(parents=True, exist_ok=True)
    plans = []
    for c, match_clip, plan in zip(candidates, match_clips, match_plans):
        rendered = transition.render(query_clip, match_clip, plan)
        name = f"rank{c.rank:02d}_score{c.score:+.4f}_{_safe_name(c.gallery_id)}.wav"
        audio_io.write_audio(rendered, render_dir / name)
        plans.append({"rank": c.rank, "gallery_id": c.gallery_id, "file": name, **plan.describe()})
    audio_io.write_atomic(render_dir / "plans.json", (json.dumps(plans, indent=2) + "\n").encode())
    print(f"rendered {len(plans)} candidates into {render_dir}")


def cmd_render(args: argparse.Namespace) -> int:
    transition.check_settings(  # before either WAV is read
        phi=args.phi, fixed_s=args.fixed_seconds, l_min=args.l_min, l_max=args.l_max
    )
    for flag, offset in (("--query-offset", args.query_offset),
                         ("--match-offset", args.match_offset)):
        if not 0.0 <= offset < np.inf:
            raise AudioMatchError(f"{flag} must be finite and at least 0, got {offset}")
    query_clip = audio_io.load_audio(args.query_wav)
    match_clip = audio_io.load_audio(args.match_wav)
    (plan,) = transition.make_plan(
        query_clip, [match_clip], transition.Strategy(args.strategy),
        phi=args.phi, fixed_s=args.fixed_seconds, l_min=args.l_min, l_max=args.l_max,
        query_frame_offset_s=args.query_offset, match_frame_offset_s=args.match_offset,
    )
    rendered = transition.render(query_clip, match_clip, plan)
    audio_io.write_audio(rendered, args.out)
    plan_json = json.dumps(plan.describe(), indent=2)
    if args.plan_out:
        audio_io.write_atomic(args.plan_out, (plan_json + "\n").encode())
    print(plan_json)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    n = args.frames_per_sequence
    _check_range("--frames-per-sequence", n, 2)
    _check_range("--dim", args.dim, 1)
    _check_range("--seed", args.seed, 0)
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size, tau=args.tau,
        seed=args.seed,
    )
    rows = audio_io.read_json_lines(args.manifest, _FRAME_FIELDS)
    by_source: dict[str, list[dict]] = {}
    for row in rows:
        by_source.setdefault(row["source_id"], []).append(row)

    # Each source contributes whole runs of n frames, each frame 1 s after the one
    # before, in offset order: a gap or a repeated offset starts a new run.
    sequence_rows = []
    for source_id in sorted(by_source):
        run: list[dict] = []
        for row in sorted(by_source[source_id], key=lambda r: float(r["offset_s"])):
            if run and float(row["offset_s"]) != float(run[-1]["offset_s"]) + 1.0:
                run = []
            run.append(row)
            if len(run) == n:
                sequence_rows += run
                run = []
    if not sequence_rows:
        raise AudioMatchError(
            f"manifest holds no run of {n} consecutive frames from one source"
        )

    bases = retrieval.base_features(_Frames(sequence_rows), FeatureKind(args.kind))
    sequences = bases.reshape(len(sequence_rows) // n, n, -1)

    head = ProjectionHead.initialize(sequences.shape[2], d=args.dim, seed=args.seed)
    result = train(head, sequences, config)
    result.head.save(args.out)
    if args.history_out:
        history = "\n".join(json.dumps(row) for row in result.history) + "\n"
        audio_io.write_atomic(args.history_out, history.encode())
    means = result.epoch_means()
    print(
        f"trained on {len(sequences)} sequences of {n} frames: "
        f"epoch1 mean loss {means[0]:.4f} -> epoch{len(means)} mean loss {means[-1]:.4f}; "
        f"checkpoint {args.out}"
    )
    return 0


def _parse_ks(text: str) -> list[int]:
    """The --ks cutoffs: one or more comma-separated integers, each at least 1."""
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError:
        ks = []
    if not ks or min(ks) < 1:
        raise AudioMatchError(f"--ks needs comma-separated integers >= 1, got {text!r}")
    return ks


def cmd_eval(args: argparse.Namespace) -> int:
    ks = _parse_ks(args.ks)  # before any file is read
    index = retrieval.build_index(retrieval.read_features(args.features))
    labeled = evaluation.LabeledSet.load(args.labels)
    features = {
        query_id: index.vector(query_id).astype(np.float64)
        for query_id in labeled.relevance if query_id in index
    }
    report = evaluation.evaluate(index, labeled, features, ks)
    if args.out:
        audio_io.write_atomic(args.out, (json.dumps(report, indent=2) + "\n").encode())
    print(json.dumps({"aggregate": report["aggregate"]}, indent=2))
    return 0


# synth makes each clip whole in float64: a 60-second one is 23 MB a buffer.
_MAX_SYNTH_SECONDS = 60
# Tone-family fundamentals rise 5 semitones a family from 220 Hz: past 13
# families the top one's third harmonic passes 24 kHz, the Nyquist frequency.
_MAX_FAMILIES = 13


def cmd_synth(args: argparse.Namespace) -> int:
    # Before --out-dir is made or any sample allocated.
    _check_range("--seed", args.seed, 0)
    _check_range("--families", args.families, 1, _MAX_FAMILIES)
    _check_range("--clip-seconds", args.clip_seconds, 1, _MAX_SYNTH_SECONDS)
    _check_range("--sequences", args.sequences, 1)
    _check_range("--frames", args.frames, 1, _MAX_SYNTH_SECONDS)
    out_dir = Path(args.out_dir)
    if args.corpus == "tone-families":
        wavs, labels = synthetic.tone_family_set(
            out_dir, seed=args.seed, n_families=args.families, clip_seconds=args.clip_seconds
        )
        print(f"wrote {len(wavs)} WAVs and {labels}")
    else:
        wavs = synthetic.write_drift_corpus(
            out_dir, n_sequences=args.sequences, n_frames=args.frames, seed=args.seed
        )
        print(f"wrote {len(wavs)} sequence WAVs to {out_dir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="audiomatch",
        description="Find audio match cut candidates and render blended transitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_feature_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kind", choices=["mel", "mfcc"], default="mel")
        p.add_argument("--head", help="projection head checkpoint")

    def add_transition_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--strategy",
            choices=[s.value for s in transition.Strategy],
            default=transition.Strategy.MAX_SS_ADAPTIVE.value,
        )
        p.add_argument("--fixed-seconds", type=float, default=transition.DEFAULT_FIXED_S)
        p.add_argument("--phi", type=float, default=transition.DEFAULT_PHI)
        p.add_argument("--l-min", type=float, default=transition.DEFAULT_L_MIN)
        p.add_argument("--l-max", type=float, default=transition.DEFAULT_L_MAX)

    p = sub.add_parser("segment", help="split WAVs into 1-second frames plus a manifest")
    p.add_argument("inputs", nargs="+", help="WAV files or directories")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("featurize", help="turn a frame manifest into a feature file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    add_feature_flags(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("query", help="top-k most similar gallery frames")
    p.add_argument("--features", required=True)
    p.add_argument("--query-id")
    p.add_argument("--query-wav")
    p.add_argument("--k", type=int, default=5)
    p.add_argument(
        "--include-same-source",
        action="store_true",
        help="also rank frames from the query's own source file",
    )
    p.add_argument("--out", help="write ranked JSON here instead of stdout")
    p.add_argument("--manifest", help="frame manifest (needed with --render-dir)")
    p.add_argument("--render-dir", help="render each candidate into this directory")
    add_feature_flags(p)
    add_transition_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("render", help="blend a query and match WAV into one transition")
    p.add_argument("query_wav")
    p.add_argument("match_wav")
    p.add_argument("--out", required=True)
    p.add_argument("--plan-out")
    p.add_argument("--query-offset", type=float, default=0.0,
                   help="start of the 1-second search window in the query WAV")
    p.add_argument("--match-offset", type=float, default=0.0,
                   help="start of the 1-second search window in the match WAV")
    add_transition_flags(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("train", help="train a projection head on a frame manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history-out", help="JSONL loss history path")
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames-per-sequence", type=int, default=10)
    p.add_argument("--kind", choices=["mel", "mfcc"], default="mel")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics over a labeled set")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ks", default="1,2,5,10")
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate the bundled synthetic corpora")
    p.add_argument("corpus", choices=["tone-families", "drift"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--families", type=int, default=8, help=f"1 to {_MAX_FAMILIES}")
    p.add_argument("--clip-seconds", type=float, default=3.0,
                   help=f"tone-family clip length, 1 to {_MAX_SYNTH_SECONDS}")
    p.add_argument("--sequences", type=int, default=30)
    p.add_argument("--frames", type=int, default=10,
                   help=f"1-second frames per drift sequence, 1 to {_MAX_SYNTH_SECONDS}")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AudioMatchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
