"""Audio match cutting: frame featurization, retrieval, and transitions.

The pipeline mirrors how an editor hunts for a sound bridge: cut source
audio into 1-second frames, embed each frame, retrieve the most similar
gallery frames by exact inner-product search, then search the matched
pair's spectrograms for the best cut point and render an equal-power
crossfade whose length adapts to how peaky the pair's similarity is.
"""

from .audio_io import CANONICAL_RATE, AudioClip, load_audio, segment, write_audio
from .dsp import (
    BaseFeature,
    FeatureKind,
    Spectrogram,
    flatten,
    mel_filterbank,
    mel_spectrogram,
    mfcc,
)
from .embedding import (
    ProjectionHead,
    TrainConfig,
    TrainResult,
    embed,
    embed_rows,
    gradient_check,
    split_and_contrast_loss,
    train,
)
from .evaluation import (
    EvalReport,
    LabeledSet,
    QueryLabels,
    average_precision,
    evaluate,
    hit_rate_at_k,
    precision_at_k,
)
from .retrieval import (
    Gallery,
    GalleryIndex,
    MatchCandidate,
    base_feature,
    batch_featurize,
    build_index,
    featurize_clip,
    frame_id,
    normalize,
    read_features,
    write_features,
)
from .transition import (
    SimilarityMatrix,
    Strategy,
    TransitionConfig,
    TransitionPlan,
    adaptive_crossfade_length,
    crossfade_weights,
    make_plan,
    max_ss,
    render,
    similarity_matrix,
)

__version__ = "0.1.0"
