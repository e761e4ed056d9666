"""Rhythm transcription with Markov score models and a Gaussian timing model.

The package infers quantized note values from noisy performed onset times.
A score model (note-value, metrical, or pattern Markov chain, optionally
augmented with onset-shift and note-division states) supplies the prior over
rhythms; the timing model ties performed durations to score durations;
exact Viterbi decoding (a beam only on request) recovers the score, and
Gibbs sampling fits piece-specific model parameters under Dirichlet priors.

Typical use::

    corpus = Corpus.load("corpus.json")
    config = ModelConfig.from_name("metmm1b")
    params = estimate_params(corpus, config)
    hp = assemble_hyperparams(params, config)
    tp = TimingParams.from_bpm(144.0, sigma_t=0.04)
    result = transcribe(config, hp, performance, tp)

Below `transcribe`, the DP engine works on a state space and an emission
matrix::

    space = build_state_space(config, params)
    em = TranscriptionHmm(space, tp).emission_matrix(performance.durations)
    path = viterbi(space, em)          # or forward, ffbs, ffbs_batch

The matrix has one column per note value up to the bar length.  An `ffbs`
draw carries its forward pass's total, log P(observations), as
`path.log_likelihood`.
"""

from ._dp import ffbs, ffbs_batch, forward, viterbi
from .core import (
    DEFAULT_BAR_LENGTH,
    Corpus,
    NormalizationReport,
    NotePattern,
    RhythmScore,
    interval,
    normalize_corpus,
    score_from_metrical,
    segment_patterns,
    to_metrical,
    to_note_values,
)
from .evaluation import (
    EvalReport,
    EvaluationError,
    SparsenessStudy,
    benchmark,
    cross_entropy,
    distribution_entropy,
    entropy_rate,
    error_rate,
    sparseness_study,
    stationary_distribution,
)
from .inference import (
    GibbsConfig,
    Hyperparams,
    InferenceError,
    TranscriptionResult,
    gibbs_fit,
    sample_dirichlet,
    transcribe,
)
from .models import (
    LatentStateSpace,
    ModelConfig,
    ModelParams,
    build_state_space,
    division_parts,
    load_params,
    params_from_dict,
    params_to_dict,
    pattern_vocabulary,
    sample_corpus,
    sample_score,
    save_params,
    sequence_log_prob,
)
from .timing import (
    Performance,
    PerformedCorpus,
    TimingParams,
    TranscriptionHmm,
    duration_log_density,
    synthesize,
)
from .training import (
    SmoothingConfig,
    assemble_hyperparams,
    attach_modification_presets,
    build_modification_base,
    estimate_params,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BAR_LENGTH",
    "Corpus",
    "EvalReport",
    "EvaluationError",
    "GibbsConfig",
    "Hyperparams",
    "InferenceError",
    "LatentStateSpace",
    "ModelConfig",
    "ModelParams",
    "NormalizationReport",
    "NotePattern",
    "Performance",
    "PerformedCorpus",
    "RhythmScore",
    "SmoothingConfig",
    "SparsenessStudy",
    "TimingParams",
    "TranscriptionHmm",
    "TranscriptionResult",
    "assemble_hyperparams",
    "attach_modification_presets",
    "benchmark",
    "build_modification_base",
    "build_state_space",
    "cross_entropy",
    "distribution_entropy",
    "division_parts",
    "duration_log_density",
    "entropy_rate",
    "error_rate",
    "estimate_params",
    "ffbs",
    "ffbs_batch",
    "forward",
    "gibbs_fit",
    "interval",
    "load_params",
    "normalize_corpus",
    "params_from_dict",
    "params_to_dict",
    "pattern_vocabulary",
    "sample_corpus",
    "sample_dirichlet",
    "sample_score",
    "save_params",
    "score_from_metrical",
    "segment_patterns",
    "sequence_log_prob",
    "sparseness_study",
    "stationary_distribution",
    "synthesize",
    "to_metrical",
    "to_note_values",
    "transcribe",
    "viterbi",
]
