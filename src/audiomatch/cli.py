"""Command-line pipeline: segment, featurize, query, render, train, eval.

Every subcommand is deterministic given --seed, reads and writes only
the files named in its arguments, and exits 0 iff it succeeded.  Python
code runs in one thread and BLAS owns all parallelism (set it with
OPENBLAS_NUM_THREADS or the like); outputs are byte-identical at any
BLAS thread count.  featurize and train stream manifest frames through
one block path, ``retrieval.CHUNK_FRAMES`` frames at a time (one mel GEMM
and one head GEMM per block), so memory is bounded by a block, not by
the manifest.  Clips are always 48 kHz and frames always 1 second
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
    """Python threads the CLI runs work on: one, since BLAS owns all parallelism."""
    return 1


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
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [row for wav in wavs for row in _segment_source(wav, out_dir)]
    manifest = out_dir / "manifest.jsonl"
    audio_io.write_atomic(manifest, ("\n".join(json.dumps(row) for row in rows) + "\n").encode())
    print(f"wrote {len(rows)} frames and {manifest}")
    return 0


def _load_frame(row: dict) -> np.ndarray:
    """48 kHz samples of the first 1-second frame of a manifest row's WAV."""
    return audio_io.segment(audio_io.load_audio(row["path"]))[0].samples


def cmd_featurize(args: argparse.Namespace) -> int:
    rows = audio_io.read_json_lines(
        args.manifest, {"id": "a string", **_FRAME_FIELDS}, unique=("id",)
    )
    head = ProjectionHead.load(args.head) if args.head else None
    kind = FeatureKind(args.kind)
    out_path = Path(args.out)

    vectors = retrieval.map_blocks(
        lambda block: retrieval.featurize_clip(block, head, kind), map(_load_frame, rows)
    )
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
    if args.render_dir:  # before any output, so a bad setting leaves none
        if not args.manifest:
            raise AudioMatchError("--render-dir requires --manifest to locate frame WAVs")
        transition.check_settings(
            phi=args.phi, fixed_s=args.fixed_seconds, l_min=args.l_min, l_max=args.l_max
        )
    index = retrieval.build_index(retrieval.read_features(args.features))

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
                "offset_s": float(index.offsets[index.row_of[c.gallery_id]]),
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
    if n < 2:
        raise AudioMatchError(f"--frames-per-sequence must be at least 2, got {n}")
    if args.dim < 1:
        raise AudioMatchError(f"--dim must be at least 1, got {args.dim}")
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch_size, tau=args.tau,
        seed=args.seed,
    )
    rows = audio_io.read_json_lines(args.manifest, _FRAME_FIELDS)
    by_source: dict[str, list[dict]] = {}
    for row in rows:
        by_source.setdefault(row["source_id"], []).append(row)

    # Each source contributes its leading whole runs of n frames, in offset order.
    sequence_rows = []
    for source_id in sorted(by_source):
        frames = sorted(by_source[source_id], key=lambda r: float(r["offset_s"]))
        sequence_rows += frames[: len(frames) - len(frames) % n]
    if not sequence_rows:
        raise AudioMatchError(
            f"manifest holds no run of {n} consecutive frames from one source"
        )

    kind = FeatureKind(args.kind)
    bases = retrieval.map_blocks(
        lambda block: retrieval.base_features(block, kind), map(_load_frame, sequence_rows)
    )
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
    query_ids = [query.query_id for query in labeled.queries if query.query_id in index]
    features = {query_id: index.vector(query_id).astype(np.float64) for query_id in query_ids}
    report = evaluation.evaluate(index, labeled, features, ks)
    text = json.dumps(report.to_dict(), indent=2)
    if args.out:
        audio_io.write_atomic(args.out, (text + "\n").encode())
    agg = report.aggregate
    print(json.dumps({"aggregate": agg}, indent=2))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
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
    p.add_argument("--families", type=int, default=8)
    p.add_argument("--clip-seconds", type=float, default=3.0)
    p.add_argument("--sequences", type=int, default=30)
    p.add_argument("--frames", type=int, default=10)
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
