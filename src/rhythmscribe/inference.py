"""Decoding and Bayesian (piece-specific) parameter learning.

Non-Bayesian transcription is Viterbi decoding of the transcription HMM.
Bayesian transcription alternates Gibbs sweeps: sample parameters from
Dirichlet posteriors around the generic model (concentration alpha times the
base distribution plus path counts), then resample the latent path by forward
filtering backward sampling.  After all sweeps the sampled parameter set with
the highest data likelihood wins and is Viterbi-decoded.

Count gathering follows the complete-data factorization: initial counts from
the first symbol (or the pre-first-note boundary state), transition counts
only where a new base symbol is entered (division mid-steps are deterministic
and carry no information about the transition table, hence the g == 1 gate;
pattern-internal steps likewise contribute nothing to the pattern-level
table), shift counts from every note plus the boundary, and division counts
once per division group, indexed by the base value being divided.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _dp
from ._dp import InferenceError, PathSample
from .core import integral
from .models import (
    LatentStateSpace,
    ModelConfig,
    ModelParams,
    build_state_space,
)
from .timing import TimingParams, TranscriptionHmm

DEFAULT_CONCENTRATION = 10.0
DEFAULT_GIBBS_ITERATIONS = 100

__all__ = [
    "InferenceError",
    "Hyperparams",
    "GibbsConfig",
    "TranscriptionResult",
    "sample_dirichlet",
    "PathCounts",
    "gather_counts",
    "sample_posterior",
    "gibbs_fit",
    "transcribe",
    "DEFAULT_CONCENTRATION",
    "DEFAULT_GIBBS_ITERATIONS",
]


@dataclass(frozen=True)
class Hyperparams:
    """Dirichlet priors: a base parameter set and per-table concentrations.

    The base carries the generic model's rows (including the shift/division
    preset rows when the config uses modifications); each posterior row is
    Dir(alpha * base_row + counts).
    """

    base: ModelParams
    alpha_initial: float = DEFAULT_CONCENTRATION
    alpha_transition: float = DEFAULT_CONCENTRATION
    alpha_shift: float = DEFAULT_CONCENTRATION
    alpha_division: float = DEFAULT_CONCENTRATION

    def __post_init__(self):
        for name in ("alpha_initial", "alpha_transition", "alpha_shift", "alpha_division"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        self.base.validate()


@dataclass(frozen=True)
class GibbsConfig:
    """Gibbs sweep count, beam width (None = exact), and RNG seed."""

    iterations: int = DEFAULT_GIBBS_ITERATIONS
    beam_width: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "iterations", integral(self.iterations, "iterations"))
        object.__setattr__(self, "seed", integral(self.seed, "seed"))
        if self.beam_width is not None:
            object.__setattr__(self, "beam_width", integral(self.beam_width, "beam_width"))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 (or None for exact)")


@dataclass(frozen=True)
class TranscriptionResult:
    """A decoded performance: note values, latent annotations, likelihoods."""

    model: str
    note_values: tuple[int, ...]
    onsets: tuple[int, ...]
    state_tags: tuple
    boundary_tag: object
    log_likelihood: float
    path_log_prob: float
    trace: tuple[float, ...] = field(default=())

    @property
    def n_notes(self) -> int:
        return len(self.note_values)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "note_values": list(self.note_values),
            "onsets": list(self.onsets),
            "state_tags": [_tag_to_json(t) for t in self.state_tags],
            "boundary_tag": _tag_to_json(self.boundary_tag),
            "log_likelihood": self.log_likelihood,
            "path_log_prob": self.path_log_prob,
            "trace": list(self.trace),
        }


def _tag_to_json(tag):
    if isinstance(tag, tuple):
        return [_tag_to_json(t) for t in tag]
    return tag


# ---------------------------------------------------------------------------
# Dirichlet machinery


def sample_dirichlet(params, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet draw(s) via normalized Gamma variables.

    `params` is the concentration-weighted base vector (all entries > 0);
    with `size`, returns a (size, len(params)) array of independent draws.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or len(params) == 0:
        raise ValueError("params must be a nonempty vector")
    if np.any(params <= 0):
        raise ValueError("Dirichlet parameters must be strictly positive")
    shape = (len(params),) if size is None else (size, len(params))
    g = rng.gamma(np.broadcast_to(params, shape))
    return g / g.sum(axis=-1, keepdims=True)


def _sample_row_masked(params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # zero components stay exactly zero (Gamma(0) draws are exactly 0), so
    # point-mass priors survive the posterior draw
    if np.any(params < 0):
        raise ValueError("negative posterior parameters")
    total = params.sum()
    if not total > 0:
        raise InferenceError("posterior row with no support")
    g = rng.gamma(params)
    return g / g.sum()


# ---------------------------------------------------------------------------
# path statistics


@dataclass
class PathCounts:
    """Sufficient statistics of one latent path, shaped like ModelParams."""

    initial: np.ndarray
    transition: np.ndarray | None = None
    transition2: np.ndarray | None = None
    unigram: np.ndarray | None = None
    shift: np.ndarray | None = None
    division: list[np.ndarray] | None = None


def _decode_tag(config: ModelConfig, tag):
    """(symbol index, rt, h, g, s) of an emitting-state tag."""
    family, s, d = config.family, config.shift, config.division
    if family == "note":
        if config.order == 2:
            return tag[1] - 1, None, None, None, None
        if not (s or d):
            return tag - 1, None, None, None, None
        if s and not d:
            return tag[0] - 1, None, None, None, tag[1]
        if d and not s:
            return tag[0] - 1, tag[0], tag[1], tag[2], None
        return tag[0] - 1, tag[0], tag[1], tag[2], tag[3]
    if family == "met":
        if config.order == 2:
            return tag[1], None, None, None, None
        if not (s or d):
            return tag, None, None, None, None
        if s and not d:
            return tag[0], None, None, None, tag[1]
        if d and not s:
            return tag[0], tag[1], tag[2], tag[3], None
        return tag[0], tag[1], tag[2], tag[3], tag[4]
    # pat: first two components are (k, i)
    if not (s or d):
        return tag, None, None, None, None
    if s and not d:
        return (tag[0], tag[1]), None, None, None, tag[2]
    if d and not s:
        return (tag[0], tag[1]), tag[2], tag[3], tag[4], None
    return (tag[0], tag[1]), tag[2], tag[3], tag[4], tag[5]


def _decode_boundary(config: ModelConfig, tag):
    """(symbol index, s) of a boundary tag (None components where absent)."""
    if config.family == "note":
        return None, (tag if config.shift else None)
    if config.family == "met":
        if config.shift:
            return tag[0], tag[1]
        return tag, None
    if config.shift:
        return tag[0], tag[2]
    return tag[0], None


def gather_counts(space: LatentStateSpace, path: PathSample) -> PathCounts:
    """Sufficient statistics of a sampled path for the Dirichlet posteriors."""
    cfg = space.config
    nb = space.bar_length
    n_sym = len(space.patterns) if cfg.family == "pat" else nb
    counts = PathCounts(initial=np.zeros(n_sym))
    if cfg.order >= 1:
        counts.transition = np.zeros((n_sym, n_sym))
    if cfg.order == 2:
        counts.transition2 = np.zeros((n_sym, n_sym, n_sym))
    if cfg.order == 0:
        counts.unigram = np.zeros(n_sym)
    if cfg.shift:
        counts.shift = np.zeros(2 * nb - 1)
    if cfg.division:
        counts.division = [np.zeros(r) for r in range(1, nb + 1)]

    decoded = [_decode_tag(cfg, space.state_tags[i]) for i in path.state_indices]
    if cfg.family == "pat":
        syms = [d[0][0] for d in decoded]
        entering = [d[0][1] == 1 for d in decoded]
    else:
        syms = [d[0] for d in decoded]
        entering = [True] * len(decoded)

    if space.virtual_boundary:
        b_sym, b_s = None, None
    else:
        b_sym, b_s = _decode_boundary(cfg, space.boundary_tags[path.boundary_index])

    # initial symbol: the boundary state for models that have one, else the
    # first note's symbol
    counts.initial[b_sym if b_sym is not None else syms[0]] += 1
    if cfg.shift and b_s is not None:
        counts.shift[b_s + nb - 1] += 1

    prev = b_sym
    for n, (_, rt, h, g, s) in enumerate(decoded):
        if cfg.shift:
            counts.shift[s + nb - 1] += 1
        new_group = g is None or g == 1
        if cfg.division and new_group:
            counts.division[rt - 1][h] += 1
        gated = new_group and entering[n]
        if gated:
            if cfg.order == 1:
                if prev is not None:
                    counts.transition[prev, syms[n]] += 1
                prev = syms[n]
            elif cfg.order == 0:
                if prev is not None or n > 0:
                    counts.unigram[syms[n]] += 1
                prev = syms[n]
    if cfg.order == 2:
        seq = ([b_sym] if b_sym is not None else []) + syms
        if len(seq) >= 2:
            counts.transition[seq[0], seq[1]] += 1
        for i in range(2, len(seq)):
            counts.transition2[seq[i - 2], seq[i - 1], seq[i]] += 1
    return counts


def sample_posterior(
    hp: Hyperparams, counts: PathCounts, rng: np.random.Generator
) -> ModelParams:
    """Draw a parameter set from the Dirichlet posteriors around the base."""
    base = hp.base
    out = base.copy()
    out.initial = _sample_row_masked(
        hp.alpha_initial * base.initial + counts.initial, rng
    )
    if base.transition is not None:
        rows = hp.alpha_transition * base.transition + counts.transition
        out.transition = np.vstack(
            [_sample_row_masked(rows[i], rng) for i in range(rows.shape[0])]
        )
    if base.transition2 is not None:
        rows = hp.alpha_transition * base.transition2 + counts.transition2
        flat = rows.reshape(-1, rows.shape[-1])
        out.transition2 = np.vstack(
            [_sample_row_masked(flat[i], rng) for i in range(flat.shape[0])]
        ).reshape(rows.shape)
    if base.unigram is not None:
        out.unigram = _sample_row_masked(
            hp.alpha_transition * base.unigram + counts.unigram, rng
        )
    if base.shift_probs is not None and counts.shift is not None:
        out.shift_probs = _sample_row_masked(
            hp.alpha_shift * base.shift_probs + counts.shift, rng
        )
    if base.division_probs is not None and counts.division is not None:
        out.division_probs = tuple(
            _sample_row_masked(
                hp.alpha_division * base.division_probs[r - 1] + counts.division[r - 1],
                rng,
            )
            for r in range(1, base.bar_length + 1)
        )
    return out


# ---------------------------------------------------------------------------
# Gibbs fitting and the transcription entry point


def _result_from_path(
    space: LatentStateSpace, path: PathSample, loglik: float, trace=()
) -> TranscriptionResult:
    boundary = None
    tau0 = 0
    if not space.virtual_boundary:
        boundary = space.boundary_tags[path.boundary_index]
    if space.initial_positions is not None:
        tau0 = int(space.initial_positions[path.boundary_index])
    onsets = [tau0]
    for v in path.output_values:
        onsets.append(onsets[-1] + int(v))
    return TranscriptionResult(
        model=space.config.name,
        note_values=tuple(int(v) for v in path.output_values),
        onsets=tuple(onsets),
        state_tags=tuple(space.state_tags[i] for i in path.state_indices),
        boundary_tag=boundary,
        log_likelihood=float(loglik),
        path_log_prob=float(path.log_prob),
        trace=tuple(float(t) for t in trace),
    )


def gibbs_fit(
    config: ModelConfig,
    hp: Hyperparams,
    performance,
    tp: TimingParams,
    gibbs: GibbsConfig,
) -> tuple[ModelParams, TranscriptionResult]:
    """Learn piece-specific parameters from one performance by Gibbs sampling.

    Iteration 0 evaluates the base parameters themselves; each subsequent
    iteration samples parameters from the Dirichlet posteriors given the
    current latent path, records the data likelihood of the new parameters,
    then resamples the path.  The likelihood-maximizing parameter set over
    all iterations (base included) is returned along with its Viterbi
    transcription; the result carries the full likelihood trace.
    """
    rng = np.random.default_rng(gibbs.seed)
    durations = np.asarray(performance.durations, dtype=np.float64)
    width = gibbs.beam_width

    params = hp.base.copy()
    space = build_state_space(config, params)
    # the emission matrix depends on the bar length and timing only
    em = TranscriptionHmm(space, tp).emission_matrix(durations)

    def forward_then_sample(space):
        # one forward pass per iteration: its total is the trace entry and
        # its table feeds the backward sampler
        loglik, table = _dp.forward(space, em, beam_width=width, return_table=True)
        if table is None:
            raise InferenceError("zero data likelihood: nothing to sample")
        return loglik, _dp.ffbs(space, em, rng, beam_width=width, table=table)

    loglik, path = forward_then_sample(space)
    trace = [loglik]
    best = (loglik, params, space)

    for _ in range(gibbs.iterations):
        counts = gather_counts(space, path)
        params = sample_posterior(hp, counts, rng)
        space = build_state_space(config, params)
        loglik, path = forward_then_sample(space)
        trace.append(loglik)
        if loglik > best[0]:
            best = (loglik, params, space)

    best_loglik, best_params, best_space = best
    best_path = _dp.viterbi(best_space, em, beam_width=width)
    result = _result_from_path(best_space, best_path, best_loglik, trace)
    return best_params, result


def transcribe(
    config: ModelConfig,
    params_or_hyperparams,
    performance,
    tp: TimingParams,
    gibbs: GibbsConfig | None = None,
) -> TranscriptionResult:
    """Transcribe one performance: Viterbi directly, or Gibbs-fit first.

    Non-Bayesian configs take a ModelParams; Bayesian configs take a
    Hyperparams (and an optional GibbsConfig).  Inference is exact unless
    the GibbsConfig asks for a beam width.
    """
    gibbs = GibbsConfig() if gibbs is None else gibbs
    if config.bayesian:
        if not isinstance(params_or_hyperparams, Hyperparams):
            raise TypeError("Bayesian transcription needs Hyperparams")
        _, result = gibbs_fit(config, params_or_hyperparams, performance, tp, gibbs)
        return result
    if not isinstance(params_or_hyperparams, ModelParams):
        raise TypeError("non-Bayesian transcription needs ModelParams")
    space = build_state_space(config, params_or_hyperparams)
    em = TranscriptionHmm(space, tp).emission_matrix(performance.durations)
    loglik = _dp.forward(space, em, beam_width=gibbs.beam_width)
    path = _dp.viterbi(space, em, beam_width=gibbs.beam_width)
    return _result_from_path(space, path, loglik)
